"""Classification metrics over (score, label) pairs.

Average precision is the step-interpolated integral of the
precision-recall curve: walk distinct score thresholds from high to
low, treating tied scores as one block, and accumulate
(recall_gain) * precision at each step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import DomainError


def accuracy(scores: list[tuple[float, int]], threshold: float = 0.5) -> float:
    """Fraction of pairs where (score >= threshold) matches (label == 1)."""
    if len(scores) == 0:
        raise DomainError("accuracy needs at least one scored sample")
    correct = 0
    for s, y in scores:
        if y not in (0, 1):
            raise DomainError(f"accuracy labels must be 0 or 1, got {y!r}")
        correct += int((s >= threshold) == (y == 1))
    return correct / len(scores)


def average_precision(scores: list[tuple[float, int]]) -> float:
    """Step-interpolated area under the precision-recall curve.

    Requires at least one positive label. Invariant under strictly
    increasing transforms of the scores, since only the ordering (with
    ties kept tied) enters.
    """
    if len(scores) == 0:
        raise DomainError("average_precision needs at least one scored sample")
    for _, y in scores:
        if y not in (0, 1):
            raise DomainError(f"average_precision labels must be 0 or 1, got {y!r}")
    n_pos = sum(y for _, y in scores)
    if n_pos == 0:
        raise DomainError("average_precision needs at least one positive sample")

    ordered = sorted(scores, key=lambda sy: -sy[0])
    ap = 0.0
    tp = fp = 0
    recall_prev = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            if ordered[j][1] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - recall_prev) * precision
        recall_prev = recall
        i = j
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
