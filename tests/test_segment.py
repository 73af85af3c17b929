import copy
import gc
import json
import pickle
import random
import re
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonoseg import segment
from tonoseg.core import (
    FLAT,
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    HIERARCHY_PROMINENCE_TONES,
    Marker,
    ProminentTone,
    Tone,
    encode_corpus,
    get_scheme,
)
from tonoseg.formats import load_model, parse_corpus, save_model
from tonoseg.grammar import PatternGrammar, TrainConfig, train
from tonoseg.segment import (
    SegmentCorpusError,
    SegmentationError,
    SegmentationResult,
    WordSpan,
    _spans_from_vectors,
    brute_force_segment,
    enumerate_candidates,
    segment_corpus,
    segment_turn,
    spans_to_symbols,
)
from tonoseg.synth import PlantedGrammar, sample_corpus
from helpers import TONES, copy_tables, random_corpus, random_planted, unfilled_tables

H, U, S, T, D, L = Tone.HIGHER, Tone.UPSTEP, Tone.SAME, Tone.TOP, Tone.DOWNSTEP, Tone.LOWER

GOLDEN = Path(__file__).parent / "fixtures" / "decoder_golden.json"
TIE_CASES = Path(__file__).parent / "fixtures" / "tie_cases.json"

# The planted cue grammar of demos/planted_example.json.
CUE = {
    "word_lengths": {"1": 0.2, "2": 0.5, "3": 0.3},
    "interior_tones": {"T": 0.3, "H": 0.4, "U": 0.3},
    "final_tones": {"L": 1.0},
    "turn_lengths": {"2": 0.5, "3": 0.5},
    "prominence": 0.1,
    "seed": 7,
}


def trained(scheme, rng, n_turns=8, depth=None, smoothing=0.5, min_count=1, **turn_shape):
    corpus = random_corpus(rng, n_turns, **turn_shape)
    cfg = TrainConfig(rng.randint(1, 4) if depth is None else depth, min_count, smoothing)
    return train(encode_corpus(corpus, scheme), scheme, cfg)


def test_result_invariants():
    r = SegmentationResult((WordSpan(0, 2, False), WordSpan(2, 3, False)), -1.0)
    assert r.n_tones == 3
    assert r.boundary_slots() == (False, True)
    with pytest.raises(SegmentationError):
        SegmentationResult((WordSpan(0, 2, False), WordSpan(3, 4, False)), -1.0)
    with pytest.raises(SegmentationError):
        SegmentationResult((WordSpan(0, 0, False),), -1.0)


def check_result_shape(result, grammar, stream, scheme):
    """The decoder's result is made of the public types, tiles the stream,
    scores its spans, and equals its copies and the result the validating
    constructor builds."""
    assert type(result) is SegmentationResult
    assert type(result.spans) is tuple and type(result.log_prob) is float
    pos = 0
    for span in result.spans:
        assert type(span) is WordSpan
        assert type(span.start) is int and type(span.end) is int
        assert type(span.prominent) is bool
        assert span.start == pos < span.end
        pos = span.end
    assert pos == len(stream)
    assert result.log_prob == grammar.sequence_log_probability(
        spans_to_symbols(stream, result.spans, scheme)
    )
    if scheme.prominence == "none":
        assert not any(span.prominent for span in result.spans)
    rebuilt = SegmentationResult(result.spans, result.log_prob)
    assert result == rebuilt and hash(result) == hash(rebuilt)
    assert pickle.loads(pickle.dumps(result)) == result
    assert copy.deepcopy(result) == result


# Keyword arguments of ``trained``.  At depth 1 with little smoothing,
# turns of many one-tone words train a grammar that cuts after almost
# every tone, and turns of one long word a grammar that almost never cuts.
TRAINING_SHAPES = {
    "random": {},
    "all cuts": {"n_turns": 30, "depth": 1, "smoothing": 0.1, "max_words": 40, "max_tones": 1},
    "no cuts": {"n_turns": 30, "depth": 1, "smoothing": 0.1, "max_words": 1, "max_tones": 100},
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES)),
    st.sampled_from(sorted(TRAINING_SHAPES)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
)
def test_result_shape(scheme, shape, seed, n):
    rng = random.Random(seed)
    g = trained(scheme, rng, **TRAINING_SHAPES[shape])
    stream = [rng.choice(TONES) for _ in range(n)]
    check_result_shape(segment_turn(g, stream, scheme), g, stream, scheme)


@pytest.mark.parametrize("scheme", [HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES])
def test_result_shape_all_cuts_and_no_cuts(scheme):
    rng = random.Random(39)
    stream = [rng.choice(TONES) for _ in range(300)]
    for shape, n_words in (("all cuts", 300), ("no cuts", 1)):
        g = trained(scheme, rng, **TRAINING_SHAPES[shape])
        result = segment_turn(g, stream, scheme)
        assert len(result.spans) == n_words
        check_result_shape(result, g, stream, scheme)


def test_single_tone_forced_segmentation():
    rng = random.Random(31)
    g = trained(HIERARCHICAL, rng)
    result = segment_turn(g, [H], HIERARCHICAL)
    assert result.spans == (WordSpan(0, 1, False),)
    expected = g.sequence_log_probability(spans_to_symbols([H], result.spans, HIERARCHICAL))
    assert result.log_prob == expected


def test_candidate_counts():
    assert sum(1 for _ in enumerate_candidates(1, HIERARCHICAL)) == 1
    assert sum(1 for _ in enumerate_candidates(3, HIERARCHICAL)) == 4
    assert sum(1 for _ in enumerate_candidates(3, HIERARCHY_PROMINENCE)) == 18
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_candidates(n, HIERARCHICAL)) == 2 ** (n - 1)


def test_oracle_equivalence_randomized():
    rng = random.Random(32)
    for trial in range(40):
        scheme = (HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES)[trial % 3]
        g = trained(scheme, rng, smoothing=rng.choice([0.1, 0.5, 1.0]))
        n = rng.randint(1, 10 if scheme is HIERARCHICAL else 7)
        stream = tuple(rng.choice(TONES) for _ in range(n))
        got = segment_turn(g, stream, scheme)
        want = brute_force_segment(g, stream, scheme)
        assert abs(got.log_prob - want.log_prob) <= 1e-9
        assert got.spans == want.spans


@pytest.mark.parametrize("scheme", [HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES])
def test_oracle_does_not_use_the_automaton(scheme, monkeypatch):
    # The oracle scores by the chain rule alone, so it shares only
    # ``_log_prob`` with the decoder, not the automaton the decoder reads.
    rng = random.Random(39)
    streams = [[rng.choice(TONES) for _ in range(rng.randint(1, 6))] for _ in range(6)]
    want = [brute_force_segment(trained(scheme, random.Random(40)), s, scheme) for s in streams]

    def step(self, state, a):
        raise AssertionError("the oracle stepped through the automaton")

    monkeypatch.setattr(PatternGrammar, "step", step)
    fresh = trained(scheme, random.Random(40))
    assert [brute_force_segment(fresh, s, scheme) for s in streams] == want
    assert (fresh._entries, fresh._rows, fresh._closure) == ({}, unfilled_tables(fresh), None)


def test_partition_property():
    rng = random.Random(33)
    for _ in range(30):
        g = trained(HIERARCHICAL, rng)
        n = rng.randint(1, 12)
        stream = tuple(rng.choice(TONES) for _ in range(n))
        spans = segment_turn(g, stream, HIERARCHICAL).spans
        assert spans[0].start == 0 and spans[-1].end == n
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start


def test_score_faithfulness():
    rng = random.Random(34)
    for scheme in (HIERARCHICAL, HIERARCHY_PROMINENCE):
        for _ in range(20):
            g = trained(scheme, rng)
            stream = tuple(rng.choice(TONES) for _ in range(rng.randint(1, 10)))
            result = segment_turn(g, stream, scheme)
            rescored = g.sequence_log_probability(spans_to_symbols(stream, result.spans, scheme))
            assert abs(result.log_prob - rescored) <= 1e-12


def test_prominence_tie_prefers_plain():
    # untrained grammar scores both word openers identically, so the
    # all-plain assignment must win the tie
    g = train([], HIERARCHY_PROMINENCE, TrainConfig(2, 1, 0.5))
    result = segment_turn(g, [H, S], HIERARCHY_PROMINENCE)
    assert all(not s.prominent for s in result.spans)
    assert result == brute_force_segment(g, [H, S], HIERARCHY_PROMINENCE)


def test_boundary_tie_prefers_lexicographically_smallest():
    # Every depth-2 context the splits (H)(H H) and (H H)(H) read gives
    # its symbol 5 of 10 counts, so both read the same log-probabilities
    # in the same order and tie exactly.  "H H" makes a third H unlikely
    # and a third word costs two more symbols, so the tie is the best.
    def row(counts):
        return " ".join(str(counts.get(str(s), 0)) for s in HIERARCHICAL.alphabet)

    g = load_model("\n".join([
        "tonoseg-model v1",
        "scheme hier",
        "config 2 1 0.1",
        ". " + row({"[": 1}),
        "[ " + row({"(": 1}),
        "( " + row({"H": 1}),
        "[ ( " + row({"H": 5, "T": 5}),
        ") ( " + row({"H": 5, "T": 5}),
        ") " + row({"(": 1}),
        "H ) " + row({"(": 5, "]": 5}),
        "H " + row({")": 1}),
        "( H " + row({")": 5, "H": 5}),
        "H H " + row({")": 5, "T": 5}),
    ]) + "\n")
    stream = [H, H, H]
    scores = {}
    for bounds, proms in enumerate_candidates(3, HIERARCHICAL):
        spans = _spans_from_vectors(bounds, proms)
        scores[bounds] = g.sequence_log_probability(spans_to_symbols(stream, spans, HIERARCHICAL))
    assert scores[(False, True)] == scores[(True, False)] == max(scores.values())
    result = segment_turn(g, stream, HIERARCHICAL)
    assert result.boundary_slots() == (False, True)
    assert result.log_prob == scores[(False, True)]
    assert result == brute_force_segment(g, stream, HIERARCHICAL)


def test_exact_ties_follow_the_oracle_key():
    # Each case pins one tie rule, at merge time or in the final choice;
    # with that rule reordered or dropped the decoder answers otherwise.
    cases = json.loads(TIE_CASES.read_text())["cases"]
    for case in cases:
        g = load_model("\n".join(case["model"]) + "\n")
        stream = [Tone(c) for c in case["stream"]]
        scores = {}
        for bounds, proms in enumerate_candidates(len(stream), HIERARCHY_PROMINENCE):
            spans = _spans_from_vectors(bounds, proms)
            symbols = spans_to_symbols(stream, spans, HIERARCHY_PROMINENCE)
            scores[bounds, proms] = g.sequence_log_probability(symbols)
        best = max(scores.values())
        assert sum(score == best for score in scores.values()) == 2, case["rule"]
        result = segment_turn(g, stream, HIERARCHY_PROMINENCE)
        assert result == brute_force_segment(g, stream, HIERARCHY_PROMINENCE), case["rule"]


def test_planted_cue_recovery_small():
    planted = PlantedGrammar(
        word_lengths=((1, 0.3), (2, 0.4), (3, 0.3)),
        interior_tones=((T, 0.5), (H, 0.5)),
        final_tones=((L, 1.0),),
        turn_lengths=((2, 0.5), (3, 0.5)),
        prominence=0.0,
        seed=1,
    )
    corpus = sample_corpus(planted, 400, seed=2)
    g = train(encode_corpus(corpus, HIERARCHICAL), HIERARCHICAL, TrainConfig(2, 1, 0.5))
    held_out = sample_corpus(planted, 50, seed=3)
    for turn in held_out.turns:
        result = segment_turn(g, turn.tone_stream(), HIERARCHICAL)
        assert result.boundary_slots() == turn.boundary_slots()


def test_segment_errors():
    rng = random.Random(36)
    g = trained(HIERARCHICAL, rng)
    with pytest.raises(SegmentationError):
        segment_turn(g, [], HIERARCHICAL)
    with pytest.raises(SegmentationError):
        segment_turn(g, [H], FLAT)
    with pytest.raises(SegmentationError):
        segment_turn(g, [H], HIERARCHY_PROMINENCE)
    g0 = train([], HIERARCHICAL, TrainConfig(2, 1, 0.0))
    with pytest.raises(SegmentationError):
        segment_turn(g0, [H], HIERARCHICAL)
    with pytest.raises(SegmentationError):
        brute_force_segment(g, [H] * 15, HIERARCHICAL)


@pytest.mark.parametrize("scheme", [HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES])
def test_non_tones_in_stream_raise(scheme):
    # Markers and lowercase prominent tones are symbols, not tones: the
    # decoder and the oracle refuse them alike, first in the stream or
    # later, and so an element that cannot be hashed.  The stream is
    # checked before any automaton entry or decoder row is filled, so a
    # refused call leaves the grammar's tables as they were.  Strings
    # equal to a tone are that tone.  An iterator or a generator is read
    # once, so a bad element after a good one is still refused.
    g = trained(scheme, random.Random(38))
    for bad in (Marker.WORD_OPEN, Marker.TURN_CLOSE, ProminentTone.LOWER, "l", "x", 3, ["L"]):
        message = f"^stream element {re.escape(repr(bad))} is not a tone$"
        for elements in ([bad, L], [H, bad, L], [H, L, bad], [H, L, T, H, bad]):
            for stream_of in (list, iter, lambda e: (t for t in e)):
                for decode in (segment_turn, brute_force_segment):
                    rows, entries = copy_tables(g._rows), dict(g._entries)
                    with pytest.raises(SegmentationError, match=message):
                        decode(g, stream_of(elements), scheme)
                    assert g._rows == rows and g._entries == entries
    want = segment_turn(g, [H, L, T], scheme)
    assert segment_turn(g, ["H", "L", "T"], scheme) == want
    assert brute_force_segment(g, ["H", "L", "T"], scheme) == want


def test_segment_corpus_order_and_errors():
    rng = random.Random(37)
    g = trained(HIERARCHICAL, rng)
    assert segment_corpus(g, [], HIERARCHICAL) == []
    streams = [(H, S), (T,), (U, D, L)]
    results = segment_corpus(g, streams, HIERARCHICAL)
    assert [r.n_tones for r in results] == [2, 1, 3]
    with pytest.raises(SegmentCorpusError) as exc:
        segment_corpus(g, [(H,), (), (T,)], HIERARCHICAL)
    assert exc.value.failures[0][0] == 1
    with pytest.raises(SegmentCorpusError) as exc:
        segment_corpus(g, [()] * 5, HIERARCHICAL)
    empty = "empty tone sequence"
    assert str(exc.value) == (
        f"5 turn(s) failed: turn 0: {empty}; turn 1: {empty}; turn 2: {empty}; ... 2 more"
    )


def test_segment_corpus_decodes_each_distinct_stream_once(monkeypatch):
    # Streams that read to equal tuples are decoded once and share the
    # result, whatever their kind and whether they hold tones or letters.
    # A failure is not kept: every failing stream is decoded, and so is
    # every stream with an unhashable element, which is refused as a non-tone.
    g = trained(HIERARCHICAL, random.Random(37))
    want = segment_turn(g, (H, L), HIERARCHICAL)
    calls = []

    def counted(grammar, tones, scheme):
        calls.append(tones)
        return segment_turn(grammar, tones, scheme)

    monkeypatch.setattr(segment, "segment_turn", counted)
    streams = [(H, L), ["H", "L"], iter([H, "L"]), np.array(["H", "L"]), (L, H), (H, L)]
    results = segment_corpus(g, streams, HIERARCHICAL)
    assert results[0] == want and all(r is results[0] for r in results[:4] + results[5:])
    assert results[4] == segment_turn(g, (L, H), HIERARCHICAL) and len(calls) == 2
    calls.clear()
    with pytest.raises(SegmentCorpusError) as exc:
        segment_corpus(g, [("x",), ("x",), (H, ["L"]), (H, ["L"]), (H, L)], HIERARCHICAL)
    assert [(i, type(err), str(err)) for i, err in exc.value.failures] == [
        (0, SegmentationError, "stream element 'x' is not a tone"),
        (1, SegmentationError, "stream element 'x' is not a tone"),
        (2, SegmentationError, "stream element ['L'] is not a tone"),
        (3, SegmentationError, "stream element ['L'] is not a tone"),
    ]
    assert len(calls) == 5


def test_empty_streams_of_any_kind():
    # An iterator or a generator shows that it is empty only when it is
    # read; every entry point reports it as an empty sequence does, and
    # segment_corpus collects it.  An array of tone letters is a stream
    # like a list.  An empty stream of any kind is reported before a
    # scheme that cannot segment.
    g = trained(HIERARCHICAL, random.Random(39))
    empty = "^empty tone sequence$"
    for stream in (iter([]), (t for t in ()), [], (), np.array([], dtype=str)):
        for decode in (segment_turn, brute_force_segment):
            with pytest.raises(SegmentationError, match=empty):
                decode(g, stream, HIERARCHICAL)
    with pytest.raises(SegmentCorpusError) as exc:
        segment_corpus(g, [(H,), iter([]), (t for t in ())], HIERARCHICAL)
    failures = [(i, str(err)) for i, err in exc.value.failures]
    assert failures == [(1, "empty tone sequence"), (2, "empty tone sequence")]
    assert all(type(err) is SegmentationError for _, err in exc.value.failures)
    for decode in (segment_turn, brute_force_segment):
        for stream in ([], iter([]), (t for t in ())):
            with pytest.raises(SegmentationError, match=empty):
                decode(g, stream, FLAT)
        want = decode(g, [H, L, T], HIERARCHICAL)
        assert decode(g, np.array(["H", "L", "T"]), HIERARCHICAL) == want
        assert decode(g, iter([H, L, T]), HIERARCHICAL) == want


def test_segment_scale():
    planted = random_planted(random.Random(38), prominence=0.0)
    corpus = sample_corpus(planted, 825, seed=4)
    g = train(encode_corpus(corpus, HIERARCHICAL), HIERARCHICAL, TrainConfig())
    results = segment_corpus(g, [t.tone_stream() for t in corpus.turns], HIERARCHICAL)
    assert len(results) == len(corpus.turns)


def test_decoder_golden():
    # Pinned outputs of the decoder this one replaced (written by
    # make_decoder_golden.py): spans and the score, bit for bit.
    data = json.loads(GOLDEN.read_text())
    checked = 0
    for case in data["grammars"]:
        scheme = get_scheme(case["scheme"])
        corpus = parse_corpus(case["corpus"])
        g = train(encode_corpus(corpus, scheme), scheme, TrainConfig(*case["config"]))
        if case["reload"]:
            g = load_model(save_model(g))
        for turn in case["turns"]:
            got = segment_turn(g, [Tone(c) for c in turn["tones"]], scheme)
            assert [[s.start, s.end, s.prominent] for s in got.spans] == turn["spans"]
            assert got.log_prob.hex() == turn["log_prob"]
            checked += 1
    assert checked == 300


def test_float_tie_follows_the_oracle():
    # Two prefixes whose scores differ become equal after the same
    # continuation is added in floating point; the decoder must return
    # the split the oracle's tie key prefers (here the smaller boundary
    # vector).  Merging on the automaton state without the rounding
    # margin returns (0,3) (3,7) ... with an equal score.
    rng = random.Random(52)
    g = train(
        encode_corpus(random_corpus(rng, 12), HIERARCHY_PROMINENCE),
        HIERARCHY_PROMINENCE,
        TrainConfig(4, 1, 0.1),
    )
    stream = [rng.choice(TONES) for _ in range(40)]
    assert "".join(t.value for t in stream) == "BHSSSUMDBTLHSLHHTBMDUBBULHMUUDDMDDUHUMUM"
    result = segment_turn(g, stream, HIERARCHY_PROMINENCE)
    F, P = False, True
    assert result.spans == (
        (0, 4, F), (4, 7, F), (7, 10, F), (10, 12, P), (12, 14, P),
        (14, 21, P), (21, 31, F), (31, 34, F), (34, 40, P),
    )
    symbols = spans_to_symbols(stream, result.spans, HIERARCHY_PROMINENCE)
    assert result.log_prob == g.sequence_log_probability(symbols)


@pytest.mark.parametrize("seed, scheme, stream, spans, log_prob", [
    (143, HIERARCHICAL, "LLLLL", ((0, 3), (3, 5)), "-0x1.337f247f5ecbcp+4"),
    (120, HIERARCHY_PROMINENCE, "LLLH", ((0, 2), (2, 4)), "-0x1.152935267f4e3p+4"),
])
def test_rounded_ties_follow_the_oracle(seed, scheme, stream, spans, log_prob):
    # One split scores strictly below another until the same symbols are
    # added to both, and then the two round to the same float; the oracle
    # key prefers the split whose prefix scored lower.  A decoder that
    # keeps only the best prefix per merge key returns the other split.
    g = train(
        encode_corpus(random_corpus(random.Random(seed), 6), scheme), scheme, TrainConfig(2, 1, 0.05)
    )
    tones = [Tone(c) for c in stream]
    result = segment_turn(g, tones, scheme)
    assert result == brute_force_segment(g, tones, scheme)
    assert [(s.start, s.end) for s in result.spans] == list(spans)
    assert not any(s.prominent for s in result.spans)
    assert result.log_prob.hex() == log_prob


def test_near_ties_stay_few_on_degenerate_streams():
    # Over two tones, many splits of a long turn score within rounding of
    # each other.  The decoder expands only those that no other candidate
    # of their merge key beats in both score and oracle key, so such a
    # turn costs per tone about what a turn over all tones does; keeping
    # every near tie instead grows the candidates with the turn.
    rng = random.Random(53)
    g = train(
        encode_corpus(random_corpus(rng, 40), HIERARCHY_PROMINENCE),
        HIERARCHY_PROMINENCE,
        TrainConfig(4, 1, 0.01),
    )
    streams = {
        "two tones": [rng.choice((L, H)) for _ in range(1000)],
        "all tones": [rng.choice(TONES) for _ in range(1000)],
    }
    best = dict.fromkeys(streams, float("inf"))
    for _ in range(5):
        for name, stream in streams.items():
            start = time.perf_counter()
            result = segment_turn(g, stream, HIERARCHY_PROMINENCE)
            best[name] = min(best[name], time.perf_counter() - start)
            check_result_shape(result, g, stream, HIERARCHY_PROMINENCE)
    assert best["two tones"] <= 4.0 * best["all tones"], best


def _hier_row(counts):
    return " ".join(str(counts.get(str(s), 0)) for s in HIERARCHICAL.alphabet)


# "H L" is retained but its prefix "H" is not.
NOT_PREFIX_CLOSED = "\n".join([
    "tonoseg-model v1",
    "scheme hier",
    "config 2 1 0.5",
    ". " + _hier_row({"H": 5, "L": 5, ")": 3}),
    "L " + _hier_row({"H": 1}),
    "H L " + _hier_row({")": 9}),
]) + "\n"


def test_model_not_prefix_closed():
    # After reading H the automaton must still remember it, or "H L" is
    # never matched.
    g = load_model(NOT_PREFIX_CLOSED)
    seq = [Marker.TURN_OPEN, Marker.WORD_OPEN, H, L, Marker.WORD_CLOSE, Marker.TURN_CLOSE]
    assert g.sequence_log_probability(seq) == -13.848898655530903
    state, total = 0, 0.0
    for sym in seq:
        state, lp = g.step(state, HIERARCHICAL.index(sym))
        total += lp
    assert total == -13.848898655530903
    rng = random.Random(41)
    streams = [(H, L), (L, H, L), (H, L, H, L, L)]
    streams += [tuple(rng.choice([H, L, T]) for _ in range(rng.randint(1, 9))) for _ in range(30)]
    for stream in streams:
        got = segment_turn(g, stream, HIERARCHICAL)
        assert got == brute_force_segment(g, stream, HIERARCHICAL)
        rescored = g.sequence_log_probability(spans_to_symbols(stream, got.spans, HIERARCHICAL))
        assert got.log_prob == rescored


def _closure_key(closure, scheme, history):
    """Key of the history's longest suffix in ``closure``, a set of
    contexts as tuples that holds the root."""
    n = len(history)
    while tuple(history[len(history) - n:]) not in closure:
        n -= 1
    suffix = history[len(history) - n:]
    return sum((scheme.index(s) + 1) * (scheme.size + 1) ** i for i, s in enumerate(reversed(suffix)))


def test_table_states_are_context_keys():
    # A state names its context, not the order in which entries were
    # filled: fresh grammars that read the same sequences in different
    # orders step through the same (state, ln P) pairs.
    rng = random.Random(45)
    pruned = trained(HIERARCHY_PROMINENCE, rng, n_turns=20, depth=3, min_count=2)
    cases = [(save_model(pruned), encode_corpus(random_corpus(rng, 12), HIERARCHY_PROMINENCE))]
    cases.append((NOT_PREFIX_CLOSED, [
        [rng.choice(HIERARCHICAL.alphabet) for _ in range(rng.randint(1, 10))] for _ in range(30)
    ]))
    for text, seqs in cases:
        first, second = load_model(text), load_model(text)

        def walk(grammar, order):
            step, index = grammar.step, grammar.scheme.index
            steps = {}
            for i in order:
                state = 0
                for j, sym in enumerate(seqs[i]):
                    state, lp = step(state, index(sym))
                    steps[i, j] = (state, lp)
            return steps

        got = walk(first, range(len(seqs)))
        assert walk(second, reversed(range(len(seqs)))) == got
        # The retained contexts closed under prefixes.
        closure = {ctx[:j] for ctx, _ in first.iter_counts() for j in range(len(ctx) + 1)}
        for (i, j), (state, lp) in got.items():
            assert state == _closure_key(closure, first.scheme, seqs[i][: j + 1])
            assert lp == first.log_prob(seqs[i][j], seqs[i][:j])


def _row_bits(rows):
    """The decoder's tables, one dict per symbol index, with each float,
    also inside a start row's candidates, as its exact bits."""
    def bits(x):
        if isinstance(x, float):
            return x.hex()
        return tuple(map(bits, x)) if isinstance(x, tuple) else x

    return {a: {k: bits(row) for k, row in table.items()} for a, table in rows.items()}


def _decode_streams(rng, n=30, longest=25):
    return [tuple(rng.choice(TONES) for _ in range(rng.randint(1, longest))) for _ in range(n)]


def test_rows_are_chains_of_steps():
    # Every stored table holds what the chain of step calls it stands for
    # returns, bit for bit.  The tables are one dict per symbol index,
    # keyed by merge key ``state * W + m`` (W = 2 only when a prominent
    # word's tones are symbols of their own, m then the current word's
    # prominence).  In a plain tone's dict, under -1, a start row holds
    # the candidates of a turn that opens with the tone; under a merge key
    # ``key``, a row holds the continuation's key and ln P, the word
    # close's ln P, then per prominence option the opener's ln P, the new
    # key and the tone's ln P.  In the word close's dict, an end row under
    # ``key`` holds the ln P of the word close and the turn close.  The
    # chains are re-stepped on a fresh copy of the grammar, so no table
    # and no entry is shared.
    rng = random.Random(46)
    texts = [
        save_model(trained(scheme, rng, n_turns=16, depth=depth, min_count=min_count))
        for scheme in (HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES)
        for depth, min_count in ((2, 1), (4, 2))
    ] + [NOT_PREFIX_CLOSED]
    for text in texts:
        g = load_model(text)
        scheme = g.scheme
        for stream in _decode_streams(rng):
            segment_turn(g, stream, scheme)
        fresh = load_model(text)
        step, index = fresh.step, scheme.index
        options = (False, True) if scheme.prominence != "none" else (False,)
        width = 2 if scheme.prominence == "tones" else 1
        close, turn_open, turn_close = (index(s) for s in (Marker.WORD_CLOSE, Marker.TURN_OPEN, Marker.TURN_CLOSE))
        by_plain = {index(t): t for t in Tone}

        def merge_key(state, m):
            return state * 2 + m if width == 2 else state

        def symbols(plain):
            return [index(scheme.tone_symbol(by_plain[plain], p)) for p in options]

        own = {id(target) for target, _ in g._entries.values()}
        kinds = set()
        assert set(g._rows) == set(range(scheme.size))
        for a, table in g._rows.items():
            assert type(table) is dict and (not table or a == close or a in by_plain)
            for key, row in table.items():
                if key == -1 and a != close:
                    kinds.add("start")
                    state, lp = step(0, turn_open)
                    chain = []
                    for p, sym in enumerate(symbols(a)):
                        opened, lp1 = step(state, index(scheme.word_open_symbol(options[p])))
                        target, lp2 = step(opened, sym)
                        chain.append((lp + lp1 + lp2, 1, p, merge_key(target, p)))
                elif a == close:
                    kinds.add("end")
                    assert key >= 0
                    closed, lp = step(key // width, close)
                    chain = [lp, step(closed, turn_close)[1]]
                else:
                    kinds.add("row")
                    assert key >= 0
                    state, m = divmod(key, width)
                    syms = symbols(a)
                    target, lp = step(state, syms[m])
                    closed, close_lp = step(state, close)
                    chain = [merge_key(target, m), lp, close_lp]
                    for p, sym in enumerate(syms):
                        opened, open_lp = step(closed, index(scheme.word_open_symbol(options[p])))
                        target, lp = step(opened, sym)
                        chain += [open_lp, merge_key(target, p), lp]
                    if width == 1:  # the keys are the automaton entries' own ints, not copies
                        assert all(id(k) in own for k in (row[0], *row[4::3]))
                assert _row_bits({a: {key: row}}) == _row_bits({a: {key: tuple(chain)}})
        assert kinds == {"start", "row", "end"}


@pytest.mark.parametrize("scheme", [HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES])
def test_shortest_turns(scheme):
    # Turns of one to three tones, on a fresh grammar and on one whose
    # tables earlier turns filled.  A one-tone turn runs no loop step: it
    # reads only its tone's start row and the end rows of its candidates.
    rng = random.Random(49)
    text = save_model(trained(scheme, rng, n_turns=16, depth=3))
    warm = load_model(text)
    for stream in _decode_streams(rng):
        segment_turn(warm, stream, scheme)
    close = scheme.index(Marker.WORD_CLOSE)
    streams = [(t,) for t in TONES] + _decode_streams(rng, 12, 2) + [
        tuple(rng.choice(TONES) for _ in range(n)) for n in (2, 2, 2, 3, 3, 3, 3, 3, 3)
    ]
    for stream in streams:
        fresh = load_model(text)
        got = segment_turn(fresh, stream, scheme)
        check_result_shape(got, fresh, stream, scheme)
        assert got == brute_force_segment(fresh, stream, scheme)
        assert segment_turn(warm, stream, scheme) == got
        if len(stream) == 1:
            (start,) = fresh._rows[scheme.index(stream[0])].values()
            assert {a for a, table in fresh._rows.items() if table} == {scheme.index(stream[0]), close}
            assert set(fresh._rows[close]) == {key for *_, key in start}


def test_rows_do_not_depend_on_decode_order():
    # Like the automaton's entries, rows, start rows and end rows are
    # keyed by merge key and symbol, not by fill order: fresh grammars that
    # decode the same turns in opposite orders end with the same tables,
    # bit for bit.
    rng = random.Random(47)
    texts = [
        save_model(trained(HIERARCHY_PROMINENCE, rng, n_turns=20, depth=3, min_count=2)),
        save_model(trained(HIERARCHY_PROMINENCE_TONES, rng, n_turns=20, depth=4, min_count=1)),
        NOT_PREFIX_CLOSED,
    ]
    for text in texts:
        first, second = load_model(text), load_model(text)
        streams = _decode_streams(rng)
        want = [segment_turn(first, s, first.scheme) for s in streams]
        got = [segment_turn(second, s, second.scheme) for s in reversed(streams)]
        assert got[::-1] == want
        assert _row_bits(second._rows) == _row_bits(first._rows)
        assert second._entries == first._entries


def test_threads_share_one_fresh_grammar():
    rng = random.Random(42)
    g = trained(HIERARCHY_PROMINENCE, rng, n_turns=20, depth=4)
    text = save_model(g)
    streams = [tuple(rng.choice(TONES) for _ in range(rng.randint(1, 40))) for _ in range(40)]
    want = [segment_turn(load_model(text), s, HIERARCHY_PROMINENCE) for s in streams]
    fresh = load_model(text)

    def decode_all(offset):
        order = streams[offset:] + streams[:offset]
        return [segment_turn(fresh, s, HIERARCHY_PROMINENCE) for s in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(decode_all, 10 * k) for k in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert got == want[10 * k:] + want[:10 * k]
    # Each symbol's table is made with the grammar, so no thread's rows
    # went into a dict that another thread's replaced: the tables equal
    # those of one thread that decodes every stream.
    alone = load_model(text)
    for s in streams:
        segment_turn(alone, s, HIERARCHY_PROMINENCE)
    assert _row_bits(fresh._rows) == _row_bits(alone._rows)
    assert fresh._entries == alone._entries


def test_tables_are_made_with_the_grammar():
    # The decoder's tables, one dict per symbol index, exist from the
    # grammar's construction, and no decode makes, replaces or drops one:
    # not a refused one, a first or a later one, four threads at once, nor
    # one with a pickled or deep-copied grammar.  A copy decodes into
    # tables of its own, so the original's rows stay as they were.
    rng = random.Random(48)
    scheme = HIERARCHY_PROMINENCE
    text = save_model(trained(scheme, rng, n_turns=20, depth=4))
    close = scheme.index(Marker.WORD_CLOSE)

    def tables(g):
        return {a: id(table) for a, table in g._rows.items()}

    g = load_model(text)
    made = tables(g)
    assert set(made) == set(range(scheme.size)) and g._rows == unfilled_tables(g)
    with pytest.raises(SegmentationError):
        segment_turn(g, [H, Marker.WORD_OPEN], scheme)
    assert tables(g) == made and g._rows == unfilled_tables(g)
    segment_turn(g, (H, S), scheme)
    assert tables(g) == made
    assert {a for a, table in g._rows.items() if table} == {scheme.index(H), scheme.index(S), close}
    for stream in _decode_streams(rng):
        segment_turn(g, stream, scheme)
    assert tables(g) == made

    streams = _decode_streams(rng)
    threaded = load_model(text)
    made_threaded = tables(threaded)

    def decode_from(k):
        return [segment_turn(threaded, s, scheme) for s in streams[k:] + streams[:k]]

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert len(list(pool.map(decode_from, range(0, 28, 7), timeout=60))) == 4
    assert tables(threaded) == made_threaded and any(threaded._rows.values())

    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        own = tables(clone)
        assert set(own) == set(made) and not set(own.values()) & set(made.values())
        rows = copy_tables(g._rows)
        for stream in streams:
            segment_turn(clone, stream, scheme)
        assert tables(clone) == own and tables(g) == made
        assert g._rows == rows and copy_tables(clone._rows) != rows


def test_grammar_pickles_after_decoding():
    # The table and the rows filled by decoding travel with the grammar;
    # copies must decode as the original does, and a fresh grammar must
    # pickle too.
    rng = random.Random(44)
    g = trained(HIERARCHY_PROMINENCE, rng, n_turns=12, depth=4)
    streams = [tuple(rng.choice(TONES) for _ in range(rng.randint(1, 30))) for _ in range(20)]
    want = [segment_turn(g, s, HIERARCHY_PROMINENCE) for s in streams]
    assert any(g._rows.values())
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert save_model(clone) == save_model(g)
        assert _row_bits(clone._rows) == _row_bits(g._rows)
        assert not any(clone._rows[a] is table for a, table in g._rows.items())
        assert [segment_turn(clone, s, HIERARCHY_PROMINENCE) for s in streams] == want
    fresh = pickle.loads(pickle.dumps(load_model(save_model(g))))
    assert [segment_turn(fresh, s, HIERARCHY_PROMINENCE) for s in streams] == want


def test_decoded_grammar_freed_at_once():
    # The grammar owns its transition table; no reference cycle may keep
    # the trie alive until the next full garbage collection.
    g = trained(HIERARCHY_PROMINENCE, random.Random(43), depth=4)
    segment_turn(g, (H, S, T, L), HIERARCHY_PROMINENCE)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_decoder_cost_is_linear_in_turn_length():
    # The cost per tone of a 3200-tone turn may be at most twice that of
    # a 200-tone turn; a decoder that copies prefixes per step reads
    # about 3.2x.  Interleaved runs and the minimum of five absorb the
    # CPU speed drifting while the test runs.
    planted = PlantedGrammar.from_mapping(CUE)
    g = train(
        encode_corpus(sample_corpus(planted, 3000, seed=1), HIERARCHY_PROMINENCE),
        HIERARCHY_PROMINENCE,
        TrainConfig(),
    )
    one_turn = PlantedGrammar.from_mapping({**CUE, "turn_lengths": {"2000": 1.0}})
    long_turn = sample_corpus(one_turn, 2000, seed=2)
    stream = long_turn.turns[0].tone_stream()[:3200]
    assert len(stream) == 3200
    segment_turn(g, stream, HIERARCHY_PROMINENCE)
    best = {200: float("inf"), 3200: float("inf")}
    for _ in range(5):
        for n in best:
            start = time.perf_counter()
            segment_turn(g, stream[:n], HIERARCHY_PROMINENCE)
            best[n] = min(best[n], (time.perf_counter() - start) / n)
    assert best[3200] <= 2.0 * best[200], best
