"""Classification metrics over (score, label) pairs.

Average precision is the step-interpolated integral of the
precision-recall curve: walk distinct score thresholds from high to
low, treating tied scores as one block, and accumulate
(recall_gain) * precision at each step. Both refuse a NaN or infinite score.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import groupby

from .errors import DomainError


def _check_scores(name: str, scores: list[tuple[float, int]]) -> None:
    if len(scores) == 0:
        raise DomainError(f"{name} needs at least one scored sample")
    for i, (s, y) in enumerate(scores):
        if not math.isfinite(s):
            raise DomainError(f"{name} score {i} is not finite: {s!r}")
        if y not in (0, 1):
            raise DomainError(f"{name} labels must be 0 or 1, got {y!r}")


def accuracy(scores: list[tuple[float, int]], threshold: float = 0.5) -> float:
    """Fraction of pairs where (score >= threshold) matches (label == 1)."""
    _check_scores("accuracy", scores)
    return sum(int((s >= threshold) == (y == 1)) for s, y in scores) / len(scores)


def average_precision(scores: list[tuple[float, int]]) -> float:
    """Step-interpolated area under the precision-recall curve.

    Requires at least one positive label. Invariant under strictly
    increasing transforms of the scores, since only the ordering (with
    ties kept tied) enters.
    """
    _check_scores("average_precision", scores)
    n_pos = sum(y for _, y in scores)
    if n_pos == 0:
        raise DomainError("average_precision needs at least one positive sample")

    ap = recall_prev = 0.0
    tp = fp = 0
    for _, block in groupby(sorted(scores, key=lambda sy: -sy[0]), key=lambda sy: sy[0]):
        labels = [y for _, y in block]
        tp += labels.count(1)
        fp += len(labels) - labels.count(1)
        recall = tp / n_pos
        ap += (recall - recall_prev) * (tp / (tp + fp))
        recall_prev = recall
    return ap


@dataclass
class EvalReport:
    """Evaluation summary; serializes to JSON with a fixed key order.

    It holds no timing, so evaluation output is byte-reproducible;
    ``perfbench/run.py`` measures throughput instead.
    """

    acc: float
    ap: float
    n_real: int
    n_fake: int
    params: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"
