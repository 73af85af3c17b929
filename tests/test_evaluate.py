import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonoseg.core import Corpus, InvalidArgumentError, ProsodicWord, TonosegError, Turn
from tonoseg.evaluate import (
    ConfusionMatrix,
    EvaluationError,
    baseline_segment,
    confusion,
    format_report_kv,
    format_report_table,
    metrics,
)
from tonoseg.segment import SegmentationResult, WordSpan
from helpers import TONES, confusion_per_slot, random_corpus, turn


def one_word_result(n):
    return SegmentationResult((WordSpan(0, n, False),), math.nan)


def split_result(n):
    return SegmentationResult(tuple(WordSpan(i, i + 1, False) for i in range(n)), math.nan)


def slot_fixture(tp, fp, fn, tn):
    """Corpus of 2-tone turns, one boundary slot each, realizing exact
    confusion counts."""
    turns = []
    predicted = []
    for count, ref_cut, pred_cut in ((tp, 1, 1), (fp, 0, 1), (fn, 1, 0), (tn, 0, 0)):
        for _ in range(count):
            turns.append(turn("T", "T") if ref_cut else turn("TT"))
            predicted.append(split_result(2) if pred_cut else one_word_result(2))
    return Corpus(tuple(turns)), predicted


# -- confusion ---------------------------------------------------------


def test_perfect_prediction():
    rng = random.Random(41)
    corpus = random_corpus(rng, 20)
    predicted = []
    for t in corpus.turns:
        spans = []
        start = 0
        for w in t.words:
            spans.append(WordSpan(start, start + len(w.tones), False))
            start += len(w.tones)
        predicted.append(SegmentationResult(tuple(spans), math.nan))
    m = confusion(corpus, predicted)
    assert m.fp == 0 and m.fn == 0
    assert m.total_slots == sum(t.tone_count - 1 for t in corpus.turns)


def test_reference_confusion_counts_hierarchical():
    corpus, predicted = slot_fixture(497, 190, 329, 2003)
    m = confusion(corpus, predicted)
    assert (m.tp, m.fp, m.fn, m.tn) == (497, 190, 329, 2003)
    assert m.total_slots == 3019


def test_reference_confusion_counts_prominence():
    corpus, predicted = slot_fixture(428, 194, 398, 2003)
    m = confusion(corpus, predicted)
    assert (m.tp, m.fp, m.fn, m.tn) == (428, 194, 398, 2003)
    assert m.total_slots == 3023


def test_single_missed_boundary():
    m = confusion(Corpus((turn("T", "D"),)), [one_word_result(2)])
    assert (m.tp, m.fp, m.fn, m.tn) == (0, 0, 1, 0)


def test_confusion_mismatch_errors():
    corpus = Corpus((turn("TD"),))
    with pytest.raises(EvaluationError):
        confusion(corpus, [])
    with pytest.raises(EvaluationError):
        confusion(corpus, [one_word_result(3)])


def test_confusion_totals():
    rng = random.Random(42)
    for _ in range(10):
        corpus = random_corpus(rng, rng.randint(1, 15))
        streams = [t.tone_stream() for t in corpus.turns]
        predicted = baseline_segment(streams, "random", 0.4, seed=rng.randrange(100))
        m = confusion(corpus, predicted)
        ref_positives = sum(sum(t.boundary_slots()) for t in corpus.turns)
        pred_positives = sum(sum(r.boundary_slots()) for r in predicted)
        assert m.tp + m.fn == ref_positives
        assert m.tp + m.fp == pred_positives
        assert m.total_slots == sum(t.tone_count - 1 for t in corpus.turns)


words = st.builds(ProsodicWord, st.lists(st.sampled_from(TONES), min_size=1, max_size=4), st.booleans())
corpora = st.builds(Corpus, st.lists(st.builds(Turn, st.lists(words, min_size=1, max_size=4)), max_size=6))


@st.composite
def predictions(draw, corpus):
    """One segmentation per turn: the reference's own word ends, or random
    cuts; now and then over a wrong tone count, or a turn too few or many."""
    results = []
    for t in corpus.turns:
        n = t.tone_count
        if draw(st.integers(0, 9)) == 0:
            n = draw(st.integers(1, n + 2).filter(lambda k: k != n))
        if n == t.tone_count and draw(st.booleans()):
            cuts = set(accumulate(len(w.tones) for w in t.words[:-1]))
        else:
            cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        spans = [WordSpan(a, b, draw(st.booleans())) for a, b in zip(bounds, bounds[1:])]
        results.append(SegmentationResult(spans, math.nan))
    if draw(st.integers(0, 9)) == 0:
        if results and draw(st.booleans()):
            del results[draw(st.integers(0, len(results) - 1))]
        else:
            results.append(one_word_result(draw(st.integers(1, 5))))
    return results


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_confusion_equals_per_slot_reference(data):
    corpus = data.draw(corpora)
    predicted = data.draw(predictions(corpus))

    def compare(count):
        try:
            return count(corpus, predicted)
        except EvaluationError as err:
            return str(err)

    assert compare(confusion) == compare(confusion_per_slot)


# up to three short turns, so that turns of one tone count are common
short_words = st.builds(ProsodicWord, st.lists(st.sampled_from(TONES), min_size=1, max_size=2), st.booleans())
turn_pools = st.builds(
    Corpus, st.lists(st.builds(Turn, st.lists(short_words, min_size=1, max_size=3)), min_size=1, max_size=3)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_confusion_on_repeated_objects_equals_per_slot_reference(data):
    # The CLI's parsers give equal lines one object, so pairs of turn and
    # result objects repeat; some pair a turn with another turn's result.
    pool = data.draw(turn_pools)
    results = data.draw(predictions(pool).filter(bool))
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(pool.turns) - 1), st.integers(0, len(results) - 1)), max_size=12
    ))
    corpus = Corpus(tuple(pool.turns[a] for a, _ in picks))
    predicted = [results[b] for _, b in picks]

    def compare(count):
        try:
            return count(corpus, predicted)
        except EvaluationError as err:
            return str(err)

    assert compare(confusion) == compare(confusion_per_slot)


def test_confusion_on_shared_turn_and_result_objects():
    # A repeated mismatching pair is refused at its first index; one result
    # object paired with turns of one tone count is counted for each turn.
    good, bad = turn("T", "D"), turn("TD", "H")
    split = split_result(2)
    corpus = Corpus((good, good, bad, good, bad))
    with pytest.raises(EvaluationError, match="^turn 2: reference has 3 tones, prediction covers 2$"):
        confusion(corpus, [split] * 5)
    m = confusion(Corpus((good, good, good)), (split, one_word_result(2), split))
    assert m == confusion_per_slot(Corpus((good,) * 3), [split, one_word_result(2), split])
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 0, 1, 0)
    m = confusion(Corpus((good, turn("TD"), good)), [split] * 3)
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 0, 0)


# -- metrics -----------------------------------------------------------


def test_metrics_reference_values_hierarchical():
    r = metrics(ConfusionMatrix(tp=497, fp=190, fn=329, tn=2003))
    assert r.precision == pytest.approx(497 / 687, abs=1e-12)
    assert r.recall == pytest.approx(497 / 826, abs=1e-12)
    assert r.f_measure == pytest.approx(994 / 1513, abs=1e-12)
    assert r.precision == pytest.approx(0.72, abs=5e-3)
    assert r.recall == pytest.approx(0.60, abs=5e-3)
    assert r.f_measure == pytest.approx(0.655, abs=5e-3)


def test_metrics_reference_values_prominence():
    r = metrics(ConfusionMatrix(tp=428, fp=194, fn=398, tn=2003))
    assert r.precision == pytest.approx(0.688, abs=5e-4)
    assert r.recall == pytest.approx(0.518, abs=5e-4)
    assert r.f_measure == pytest.approx(0.591, abs=5e-4)


def test_metrics_degenerate():
    r = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=7))
    assert (r.precision, r.recall, r.f_measure) == (0.0, 0.0, 0.0)
    assert r.degenerate
    r = metrics(ConfusionMatrix(tp=0, fp=3, fn=0, tn=7))
    assert r.degenerate and r.f_measure == 0.0


def test_f_measure_between_precision_and_recall():
    rng = random.Random(43)
    for _ in range(200):
        m = ConfusionMatrix(rng.randint(1, 50), rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50))
        r = metrics(m)
        assert min(r.precision, r.recall) - 1e-12 <= r.f_measure <= max(r.precision, r.recall) + 1e-12


def test_confusion_matrix_validation_and_sum():
    with pytest.raises(ValueError) as exc:
        ConfusionMatrix(-1, 0, 0, 0)
    assert isinstance(exc.value, TonosegError)
    a = ConfusionMatrix(1, 2, 3, 4) + ConfusionMatrix(1, 1, 1, 1)
    assert (a.tp, a.fp, a.fn, a.tn) == (2, 3, 4, 5)


# -- baselines ---------------------------------------------------------


def test_baseline_all_and_none():
    streams = [("T", "D", "H")]
    all_r = baseline_segment(streams, "all")
    assert [s for s in all_r[0].spans] == [WordSpan(0, 1, False), WordSpan(1, 2, False), WordSpan(2, 3, False)]
    none_r = baseline_segment(streams, "none")
    assert none_r[0].spans == (WordSpan(0, 3, False),)


def test_baseline_none_recall_zero_on_multiword_turns():
    corpus = Corpus((turn("TD", "H"), turn("US", "TD")))
    streams = [t.tone_stream() for t in corpus.turns]
    r = metrics(confusion(corpus, baseline_segment(streams, "none")))
    assert r.recall == 0.0


def test_baseline_random_reproducible():
    rng = random.Random(44)
    streams = [tuple("TDHSU"[: rng.randint(1, 5)]) for _ in range(20)]
    a = baseline_segment(streams, "random", 0.5, seed=9)
    b = baseline_segment(streams, "random", 0.5, seed=9)
    c = baseline_segment(streams, "random", 0.5, seed=10)
    assert a == b
    assert a != c


def test_baseline_validation():
    with pytest.raises(InvalidArgumentError):
        baseline_segment([("T",)], "sometimes")
    with pytest.raises(InvalidArgumentError):
        baseline_segment([("T",)], "random", p=1.5)
    with pytest.raises(EvaluationError):
        baseline_segment([()], "none")


# -- report formats ----------------------------------------------------


def test_report_kv_format():
    text = format_report_kv(metrics(ConfusionMatrix(497, 190, 329, 2003)))
    assert "precision=0.723435\n" in text
    assert "recall=0.601695\n" in text
    assert "f_measure=0.656973\n" in text
    assert "tp=497" in text and "tn=2003" in text
    assert "degenerate=0" in text


def test_report_table_degenerate_line():
    text = format_report_table(metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=7)))
    assert text.endswith("f_measure  0.000000\n(degenerate: empty precision or recall denominator)\n")
    assert "degenerate" not in format_report_table(metrics(ConfusionMatrix(1, 0, 0, 7)))


def test_report_table_format():
    text = format_report_table(metrics(ConfusionMatrix(497, 190, 329, 2003)))
    for value in ("2003", "190", "329", "497", "0.723435", "0.601695", "0.656973"):
        assert value in text
