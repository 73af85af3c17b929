import math
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonoseg import synth
from tonoseg.core import (
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    InvalidArgumentError,
    Marker,
    Tone,
    TonosegError,
    encode_corpus,
)
from tonoseg.grammar import TrainConfig, train
from tonoseg.synth import (
    PlantedGrammar,
    _PrefixWalker,
    SpecError,
    UnreachableContextError,
    planted_conditional,
    prefix_probability,
    sample_corpus,
)
from helpers import TONES, draw_by_scan, random_planted, sample_corpus_by_scan

T, M, B, H, S, L = Tone.TOP, Tone.MID, Tone.BOTTOM, Tone.HIGHER, Tone.SAME, Tone.LOWER
TO, TC, WO, WC, PO = (
    Marker.TURN_OPEN,
    Marker.TURN_CLOSE,
    Marker.WORD_OPEN,
    Marker.WORD_CLOSE,
    Marker.PROM_WORD_OPEN,
)

RICH = PlantedGrammar(
    word_lengths=((1, 0.3), (2, 0.4), (3, 0.3)),
    interior_tones=((T, 0.4), (H, 0.6)),
    final_tones=((L, 0.7), (S, 0.3)),
    turn_lengths=((2, 0.5), (3, 0.5)),
    prominence=0.25,
    seed=1,
)

CUE = PlantedGrammar(
    word_lengths=((1, 0.2), (2, 0.5), (3, 0.3)),
    interior_tones=((T, 0.3), (H, 0.4), (Tone.UPSTEP, 0.3)),
    final_tones=((L, 1.0),),
    turn_lengths=((2, 0.4), (3, 0.3), (4, 0.3)),
    prominence=0.0,
    seed=2,
)


def probs(planted, prefix, scheme=HIERARCHICAL):
    vec = planted_conditional(planted, prefix, scheme)
    return {sym: p for sym, p in zip(scheme.alphabet, vec) if p > 0}


# -- sampling ----------------------------------------------------------


def test_single_word_corpus():
    c = sample_corpus(RICH, 1, seed=3)
    assert len(c.turns) == 1
    assert c.word_count == 1


def test_determinism_and_seed_sensitivity():
    a = sample_corpus(RICH, 200, seed=4)
    b = sample_corpus(RICH, 200, seed=4)
    c = sample_corpus(RICH, 200, seed=5)
    assert a == b
    assert a != c
    # omitting the seed falls back to the grammar's own
    assert sample_corpus(RICH, 50) == sample_corpus(RICH, 50, seed=RICH.seed)


def test_equal_words_drawn_are_one_object():
    # Corpora repeat few distinct words, and encode_corpus's memo goes by
    # object identity: with one object per distinct word, each is encoded once.
    words = [w for turn in sample_corpus(RICH, 500, seed=8).turns for w in turn.words]
    assert len({id(w) for w in words}) == len(set(words)) < 100


@st.composite
def distributions(draw, values):
    """A distribution over some of ``values``, zero-probability entries
    included, summing to 1 within rounding."""
    chosen = draw(st.lists(st.sampled_from(values), min_size=1, max_size=len(values), unique=True))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(chosen), max_size=len(chosen)).filter(any))
    total = sum(weights)
    return tuple((v, w / total) for v, w in zip(chosen, weights))


@st.composite
def planted_grammars(draw):
    return PlantedGrammar(
        word_lengths=draw(distributions([1, 2, 3, 4])),
        interior_tones=draw(distributions(TONES)),
        final_tones=draw(distributions(TONES)),
        turn_lengths=draw(distributions([1, 2, 3])),
        prominence=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(planted_grammars(), st.integers(1, 200), st.integers(0, 2**32))
def test_sample_corpus_equals_scan_reference(planted, n_words, seed):
    assert sample_corpus(planted, n_words, seed) == sample_corpus_by_scan(planted, n_words, seed)


def drawn_tone(final_tones, x):
    """The tone ``sample_corpus`` draws for a one-tone word when that
    tone's ``random()`` returns ``x``."""
    planted = PlantedGrammar(((1, 1.0),), ((T, 1.0),), final_tones, ((1, 1.0),))
    draws = iter([0.5, 0.5, 0.5, x])  # turn length, prominence, word length, the tone
    scripted = SimpleNamespace(Random=lambda seed: SimpleNamespace(random=lambda: next(draws)))
    with mock.patch.object(synth, "random", scripted):
        (turn,) = sample_corpus(planted, 1).turns
    return turn.words[0].tones[0]


def scan(dist, x):
    return draw_by_scan(SimpleNamespace(random=lambda: x), dist)


def test_table_draw_at_partial_sums():
    # A draw equal to a partial sum falls to the next value, as in the scan.
    dist = ((T, 0.25), (H, 0.5), (L, 0.25))  # partial sums 0.25, 0.75, 1.0
    for x, want in [(0.0, T), (math.nextafter(0.25, 0), T), (0.25, H), (0.75, L), (1 - 2**-53, L)]:
        assert drawn_tone(dist, x) == scan(dist, x) == want


def test_table_draw_past_the_total():
    # The sums may fall short of 1 by rounding; a draw past them gets
    # the last value, as in the scan.
    dist = ((T, 0.5), (H, 0.5 - 5e-10))
    total = 0.5 + (0.5 - 5e-10)
    assert total < 1
    for x in (math.nextafter(total, 0), total, 1 - 2**-53):
        assert drawn_tone(dist, x) == scan(dist, x) == H


def test_table_draw_skips_zero_probabilities():
    dist = ((T, 0.0), (M, 0.5), (B, 0.0), (H, 0.5), (S, 0.0))  # sums 0, .5, .5, 1, 1
    rng = random.Random(0)
    draws = [0.0, math.nextafter(0.5, 0), 0.5, math.nextafter(0.5, 1), 1 - 2**-53]
    draws += [rng.random() for _ in range(50)]
    for x in draws:
        assert drawn_tone(dist, x) == scan(dist, x) in (M, H)


def test_exact_word_counts():
    for n in (1, 7, 100, 825):
        assert sample_corpus(RICH, n, seed=6).word_count == n


def test_n_words_validation():
    with pytest.raises(InvalidArgumentError):
        sample_corpus(RICH, 0)


def test_cue_tone_is_word_final_only():
    corpus = sample_corpus(CUE, 5000, seed=7)
    closes_after_cue = 0
    cue_positions = 0
    for seq in encode_corpus(corpus, HIERARCHICAL):
        for prev, nxt in zip(seq, seq[1:]):
            if prev == L:
                cue_positions += 1
                closes_after_cue += nxt == WC
    assert cue_positions == 5000
    assert closes_after_cue == cue_positions  # P(word-final | cue) = 1 exactly


# -- analytic conditionals ----------------------------------------------


def test_conditional_after_turn_open():
    assert probs(RICH, (TO,)) == {WO: 1.0}
    got = probs(RICH, (TO,), HIERARCHY_PROMINENCE)
    assert got[WO] == pytest.approx(0.75)
    assert got[PO] == pytest.approx(0.25)


def test_conditional_at_word_start():
    got = probs(RICH, (TO, WO))
    assert got[L] == pytest.approx(0.3 * 0.7)
    assert got[S] == pytest.approx(0.3 * 0.3)
    assert got[T] == pytest.approx(0.7 * 0.4)
    assert got[H] == pytest.approx(0.7 * 0.6)


def test_conditional_mid_word_length_posterior():
    # after one interior-only tone, word length is 2 w.p. 4/7, 3 w.p. 3/7
    got = probs(RICH, (TO, WO, H))
    assert WC not in got
    assert got[L] == pytest.approx(float(Fraction(4, 7) * Fraction(7, 10)))
    assert got[S] == pytest.approx(float(Fraction(4, 7) * Fraction(3, 10)))
    assert got[T] == pytest.approx(float(Fraction(3, 7) * Fraction(4, 10)))
    assert got[H] == pytest.approx(float(Fraction(3, 7) * Fraction(6, 10)))


def test_conditional_after_final_only_tone():
    # L cannot be interior, so the word must close
    assert probs(RICH, (TO, WO, L)) == {WC: 1.0}


def test_conditional_turn_length_posterior():
    one_word = (TO, WO, L, WC)
    assert probs(RICH, one_word) == {WO: 1.0}  # turns have at least 2 words
    two_words = one_word + (WO, L, WC)
    got = probs(RICH, two_words)
    assert got[TC] == pytest.approx(0.5)
    assert got[WO] == pytest.approx(0.5)
    three_words = two_words + (WO, L, WC)
    assert probs(RICH, three_words) == {TC: 1.0}


def test_prefix_probability_chain():
    assert prefix_probability(RICH, (TO,)) == pytest.approx(1.0)
    assert prefix_probability(RICH, (TO, WO, H)) == pytest.approx(0.42)
    assert prefix_probability(RICH, (TO, WO, L, WC)) == pytest.approx(0.21)


def test_unreachable_contexts():
    with pytest.raises(UnreachableContextError):
        planted_conditional(RICH, (WO, H))  # must start at turn-open
    with pytest.raises(UnreachableContextError):
        planted_conditional(RICH, (TO, H))  # tone outside a word
    with pytest.raises(UnreachableContextError):
        planted_conditional(RICH, (TO, WO, S, T))  # S only occurs word-finally
    with pytest.raises(UnreachableContextError):
        planted_conditional(RICH, (TO, WO, T, T, T, T))  # longer than any word
    with pytest.raises(UnreachableContextError):
        planted_conditional(RICH, (TO, PO, L))  # prominence invisible under hier
    closed = (TO, WO, L, WC, WO, L, WC, TC)
    with pytest.raises(UnreachableContextError):
        planted_conditional(RICH, closed + (WO,))
    with pytest.raises(TonosegError):
        planted_conditional(RICH, (TO,), scheme=__import__("tonoseg").FLAT)
    with pytest.raises(UnreachableContextError, match=r"^turn already closed$"):
        planted_conditional(RICH, closed)
    with pytest.raises(UnreachableContextError, match=r"^context must be a turn prefix starting at turn-open$"):
        prefix_probability(RICH, (WO, H))


def test_unreachable_after_underflow():
    # Each T has probability 1e-200, so two of them weigh 1e-400, which is 0.0.
    tiny = PlantedGrammar(
        word_lengths=((3, 1.0),),
        interior_tones=((T, 1e-200), (H, 1.0)),
        final_tones=((L, 1.0),),
        turn_lengths=((1, 1.0),),
    )
    assert planted_conditional(tiny, (TO, WO, T))[HIERARCHICAL.index(T)] == 1e-200
    with pytest.raises(UnreachableContextError, match=r"^tone sequence \[<Tone.TOP: 'T'>, <Tone.TOP: 'T'>\] impossible$"):
        planted_conditional(tiny, (TO, WO, T, T))


def test_turn_longer_than_every_turn_length():
    # With distinct turn lengths no prefix gets here: after the longest turn
    # the next word opens with probability 0.  So the state is set directly.
    walker = _PrefixWalker(RICH, HIERARCHICAL)
    walker.phase, walker.words_done = "between", 4
    with pytest.raises(UnreachableContextError, match=r"^no turn length allows 4 words$"):
        walker.next_distribution()


def test_prominence_marker_reachability():
    got = probs(RICH, (TO, PO), HIERARCHY_PROMINENCE)
    assert got[H] == pytest.approx(0.42)


# -- convergence of trained estimates ------------------------------------


def test_trained_estimates_converge_to_planted():
    # near-deterministic planted process: the only stochastic estimate is
    # the first-tone split, everything else must converge to 0 or 1
    planted = PlantedGrammar(
        word_lengths=((1, 0.25), (2, 0.75)),
        interior_tones=((H, 1.0),),
        final_tones=((L, 1.0),),
        turn_lengths=((2, 0.5), (3, 0.5)),
        prominence=0.0,
        seed=8,
    )
    corpus = sample_corpus(planted, 5000, seed=9)
    grammar = train(encode_corpus(corpus, HIERARCHICAL), HIERARCHICAL, TrainConfig(4, 1, 0.0))

    frontier = [(TO,)]
    tested = 0
    while frontier:
        prefix = frontier.pop()
        if prefix_probability(planted, prefix) < 0.05:
            continue
        want = planted_conditional(planted, prefix)
        got = grammar.conditional(prefix)
        np.testing.assert_allclose(got, want, atol=0.02)
        tested += 1
        if len(prefix) < grammar.config.max_depth:
            for sym, p in zip(HIERARCHICAL.alphabet, want):
                if p > 0:
                    frontier.append(prefix + (sym,))
    assert tested >= 6


def test_sampling_matches_frozen_fixture():
    # guards the seed protocol: the generator must keep reproducing the
    # checked-in corpus byte for byte
    from pathlib import Path

    from tonoseg.formats import serialize_corpus

    planted = PlantedGrammar(
        word_lengths=((1, 0.2), (2, 0.5), (3, 0.3)),
        interior_tones=((T, 0.3), (H, 0.4), (Tone.UPSTEP, 0.3)),
        final_tones=((L, 1.0),),
        turn_lengths=((2, 0.5), (3, 0.5)),
        prominence=0.1,
        seed=7,
    )
    fixture = Path(__file__).parent / "fixtures" / "planted_cue_200w.txt"
    assert serialize_corpus(sample_corpus(planted, 200, seed=13)) == fixture.read_text()


# -- configuration round trip -------------------------------------------


def test_json_round_trip():
    assert PlantedGrammar.from_json(RICH.to_json()) == RICH
    rng = random.Random(10)
    for _ in range(10):
        pg = random_planted(rng)
        assert PlantedGrammar.from_json(pg.to_json()) == pg


def test_malformed_mapping_raises_spec_error():
    # SpecError is both a TonosegError and a ValueError.
    good = RICH.to_mapping()
    bad = [[], None, {k: v for k, v in good.items() if k != "word_lengths"},
           {**good, "interior_tones": 0.5}, {**good, "final_tones": {"X": 1.0}},
           {**good, "turn_lengths": {"x": 1.0}},
           {**good, "prominence": "high"}, {**good, "word_lengths": {"1": 0.4}}]
    for data in bad:
        with pytest.raises(SpecError):
            PlantedGrammar.from_mapping(data)
    assert issubclass(SpecError, TonosegError) and issubclass(SpecError, ValueError)


def test_distribution_validation():
    good = dict(
        word_lengths=((1, 1.0),),
        interior_tones=((H, 1.0),),
        final_tones=((L, 1.0),),
        turn_lengths=((2, 1.0),),
    )
    with pytest.raises(ValueError):
        PlantedGrammar(**{**good, "word_lengths": ()})
    with pytest.raises(ValueError):
        PlantedGrammar(**{**good, "word_lengths": ((1, 0.5), (2, 0.6))})
    with pytest.raises(ValueError):
        PlantedGrammar(**{**good, "word_lengths": ((1, 1.5), (2, -0.5))})
    with pytest.raises(ValueError):
        PlantedGrammar(**{**good, "word_lengths": ((0, 1.0),)})
    with pytest.raises(ValueError):
        PlantedGrammar(**{**good, "turn_lengths": ((0, 1.0),)})
    with pytest.raises(ValueError):
        PlantedGrammar(**{**good, "prominence": 1.2})


@pytest.mark.parametrize(
    "weights, message",
    [
        (((1, math.nan), (2, 1.0)), "word_lengths: non-finite probability"),
        (((1, math.nan),), "word_lengths: non-finite probability"),
        (((1, math.inf), (2, 1.0)), "word_lengths: non-finite probability"),
        (((1, -math.inf), (2, 1.0)), "word_lengths: negative probability"),
        (((1, -0.5), (2, math.nan)), "word_lengths: negative probability"),
    ],
)
def test_non_finite_probabilities_rejected(weights, message):
    with pytest.raises(SpecError, match=f"^{message}$"):
        replace(RICH, word_lengths=weights)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"turn_lengths": ((2, 0.5), (2, 0.5))}, "turn_lengths: value 2 listed twice"),
        ({"word_lengths": ((1, 0.2), (3, 0.4), (1, 0.4))}, "word_lengths: value 1 listed twice"),
        ({"final_tones": ((L, 0.5), ("L", 0.5))}, "final_tones: value L listed twice"),
    ],
)
def test_repeated_value_rejected(changes, message):
    # Sampling would draw from both entries, the planted conditionals read the first only.
    with pytest.raises(SpecError, match=f"^{message}$"):
        replace(RICH, **changes)


def test_repeated_value_in_mapping_rejected():
    # "2" and "02" are two keys of a JSON object but one turn length.
    spec = {**RICH.to_mapping(), "turn_lengths": {"2": 0.5, "02": 0.5}}
    with pytest.raises(SpecError, match="^turn_lengths: value 2 listed twice$"):
        PlantedGrammar.from_mapping(spec)
