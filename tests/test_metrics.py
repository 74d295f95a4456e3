"""Accuracy and average precision against counting oracles."""

import json

import numpy as np
import pytest

from localfocus import DomainError, accuracy, average_precision
from localfocus.metrics import EvalReport


def oracle_accuracy(scores, threshold):
    """Naive loop, written independently of the implementation."""
    good = 0
    for s, y in scores:
        pred = 1 if s >= threshold else 0
        if pred == y:
            good += 1
    return good / len(scores)


def oracle_average_precision(scores):
    """Exhaustive-threshold oracle: recount TP/FP from scratch at every
    distinct score, then accumulate (recall step) * precision."""
    n_pos = sum(y for _, y in scores)
    thresholds = sorted({s for s, _ in scores}, reverse=True)
    ap = 0.0
    recall_prev = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in scores if s >= t and y == 1)
        fp = sum(1 for s, y in scores if s >= t and y == 0)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - recall_prev) * precision
        recall_prev = recall
    return ap


def random_scores(rng, n, tie_prob=0.5):
    scores = rng.random(n)
    if rng.random() < tie_prob:
        scores = np.round(scores, 1)  # force ties
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[rng.integers(0, n)] = 1
    return list(zip(scores.tolist(), labels.tolist()))


class TestAccuracy:
    def test_frozen_example(self):
        assert accuracy([(0.9, 1), (0.1, 0)], 0.5) == 1.0

    def test_score_equal_to_threshold_predicts_positive(self):
        assert accuracy([(0.5, 1)], 0.5) == 1.0
        assert accuracy([(0.5, 0)], 0.5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            accuracy([], 0.5)

    def test_bad_label(self):
        with pytest.raises(DomainError):
            accuracy([(0.5, 2)], 0.5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scores = random_scores(rng, int(rng.integers(1, 40)))
            t = float(rng.random())
            assert accuracy(scores, t) == oracle_accuracy(scores, t)


class TestAveragePrecision:
    def test_frozen_worked_example(self):
        # Descending: (0.9,1) P=1 R=1/2; (0.8,0); (0.7,1) P=2/3 R=1.
        # AP = 1/2 * 1 + 1/2 * 2/3 = 5/6.
        scores = [(0.9, 1), (0.8, 0), (0.7, 1)]
        assert average_precision(scores) == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_perfect_ranking(self):
        scores = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        assert average_precision(scores) == 1.0

    def test_worst_ranking(self):
        # Positives ranked last: AP = sum over positives of i/(n_neg+i) steps.
        scores = [(0.9, 0), (0.8, 0), (0.2, 1), (0.1, 1)]
        expected = 0.5 * (1 / 3) + 0.5 * (2 / 4)
        assert average_precision(scores) == pytest.approx(expected, rel=1e-12)

    def test_all_tied_is_prevalence(self):
        scores = [(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]
        assert average_precision(scores) == pytest.approx(0.5)

    def test_needs_a_positive(self):
        with pytest.raises(DomainError):
            average_precision([(0.4, 0), (0.6, 0)])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            average_precision([])

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            scores = random_scores(rng, int(rng.integers(2, 40)))
            assert average_precision(scores) == oracle_average_precision(scores)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = random_scores(rng, 25)
            base = average_precision(scores)
            doubled = [(2.0 * s + 1.0, y) for s, y in scores]
            assert average_precision(doubled) == base


class TestScoreChecks:
    @pytest.mark.parametrize("metric", [accuracy, average_precision])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, metric, bad):
        scores = [(0.5, 0), (bad, 1), (0.2, 1), (bad, 0)]
        with pytest.raises(DomainError, match=f"^{metric.__name__} score 1 is not finite: {bad}$"):
            metric(scores)


class TestEvalReport:
    def test_json_key_order(self):
        report = EvalReport(acc=0.5, ap=0.75, n_real=10, n_fake=10, params=100)
        text = report.to_json()
        keys = [line.split('"')[1] for line in text.splitlines() if '"' in line]
        assert keys == ["acc", "ap", "n_real", "n_fake", "params"]

    def test_round_trip(self):
        report = EvalReport(acc=0.98, ap=0.999, n_real=250, n_fake=250, params=46753)
        assert EvalReport(**json.loads(report.to_json())) == report

    def test_serialization_is_deterministic(self):
        a = EvalReport(acc=1 / 3, ap=2 / 3, n_real=1, n_fake=2, params=3)
        assert a.to_json() == EvalReport(**json.loads(a.to_json())).to_json()
