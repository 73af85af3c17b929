"""Boundary-prediction scoring: confusion matrices and P/R/F metrics.

The unit of scoring is the inter-tone slot: an n-tone turn has n-1
slots, each either holding a word boundary or not.  Turn edges are not
slots (they are forced).  Prominence is not scored: a prominent
(``*``) span counts exactly as a plain one.  Metrics are computed in
exact rational arithmetic and reported as floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Corpus, InvalidArgumentError, TonosegError
from .segment import SegmentationResult, _spans_from_vectors


class EvaluationError(TonosegError):
    """Reference and prediction shapes disagree."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Boundary-slot tallies: true/false positives and negatives."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise InvalidArgumentError("confusion counts must be non-negative")

    @property
    def total_slots(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


@dataclass(frozen=True)
class EvalReport:
    matrix: ConfusionMatrix
    precision: float
    recall: float
    f_measure: float
    degenerate: bool = False


def confusion(reference: Corpus, predicted: Sequence[SegmentationResult]) -> ConfusionMatrix:
    """Compare predicted boundary slots against the reference corpus.

    Requires one prediction per turn, over the same number of tones.
    Span prominence is ignored.

    A turn's boundary slots are compared as two sets of word ends (the
    last word's excluded): the reference's, summed from its word lengths,
    and the prediction's, read off its spans.  Their intersection holds
    the true positives, and the remaining slots of the turn are true
    negatives, so no per-slot vectors are built.
    """
    if len(reference.turns) != len(predicted):
        raise EvaluationError(
            f"turn count mismatch: reference has {len(reference.turns)}, "
            f"prediction has {len(predicted)}"
        )
    tp = fp = fn = tn = 0
    for i, (turn, result) in enumerate(zip(reference.turns, predicted)):
        n = turn.tone_count
        if n != result.n_tones:
            raise EvaluationError(
                f"turn {i}: reference has {n} tones, prediction covers {result.n_tones}"
            )
        ref = set()
        pos = 0
        for word in turn.words[:-1]:
            pos += len(word.tones)
            ref.add(pos)
        pred = {span.end for span in result.spans[:-1]}
        both = len(ref & pred)
        tp += both
        fn += len(ref) - both
        fp += len(pred) - both
        tn += n - 1 - len(ref) - len(pred) + both
    return ConfusionMatrix(tp, fp, fn, tn)


def metrics(matrix: ConfusionMatrix) -> EvalReport:
    """Precision, recall and F-measure; degenerate denominators yield 0
    with the ``degenerate`` flag set instead of raising."""
    tp, fp, fn = matrix.tp, matrix.fp, matrix.fn
    degenerate = (tp + fp) == 0 or (tp + fn) == 0
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    psum = precision + recall
    f = 2 * precision * recall / psum if psum else Fraction(0)
    return EvalReport(matrix, float(precision), float(recall), float(f), degenerate)


def baseline_segment(
    streams: Iterable[Sequence],
    strategy: str = "none",
    p: float = 0.5,
    seed: int = 0,
) -> list[SegmentationResult]:
    """Model-free reference segmentations.

    ``none`` keeps each turn as one word, ``all`` splits after every
    tone, ``random`` places a boundary in each slot independently with
    probability ``p`` (reproducible from the seed).  Baselines carry no
    model score, so log-probabilities are NaN.
    """
    if strategy not in ("none", "all", "random"):
        raise InvalidArgumentError(f"unknown baseline strategy {strategy!r}")
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"boundary probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    results = []
    for stream in streams:
        n = len(stream)
        if n == 0:
            raise EvaluationError("empty tone stream")
        if strategy == "none":
            slots = [False] * (n - 1)
        elif strategy == "all":
            slots = [True] * (n - 1)
        else:
            slots = [rng.random() < p for _ in range(n - 1)]
        spans = _spans_from_vectors(slots, (False,) * n)
        results.append(SegmentationResult(spans, math.nan))
    return results


def format_report_kv(report: EvalReport) -> str:
    """Machine-readable ``key=value`` lines, one metric per line."""
    m = report.matrix
    lines = [
        f"precision={report.precision:.6f}",
        f"recall={report.recall:.6f}",
        f"f_measure={report.f_measure:.6f}",
        f"tp={m.tp}",
        f"fp={m.fp}",
        f"fn={m.fn}",
        f"tn={m.tn}",
        f"total_slots={m.total_slots}",
        f"degenerate={int(report.degenerate)}",
    ]
    return "\n".join(lines) + "\n"


def format_report_table(report: EvalReport) -> str:
    """Human-readable confusion matrix plus the derived metrics."""
    m = report.matrix
    rows = [
        ("", "predicted: no-boundary", "predicted: boundary"),
        ("reference: no-boundary", str(m.tn), str(m.fp)),
        ("reference: boundary", str(m.fn), str(m.tp)),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append("")
    lines.append(f"precision  {report.precision:.6f}")
    lines.append(f"recall     {report.recall:.6f}")
    lines.append(f"f_measure  {report.f_measure:.6f}")
    if report.degenerate:
        lines.append("(degenerate: empty precision or recall denominator)")
    return "\n".join(lines) + "\n"
