"""Property tests of training, the decoder, the transition table and the
chain rule.

``train`` must give the model text of the per-length reference tally.

The decoder must equal the brute-force oracle (spans and bitwise score),
and every kind of stream must give a list's result or error; the table, ``conditional`` and the chain-rule scores must reproduce
``log_prob`` bitwise, on trained grammars and on hand-built ones whose
contexts need not be closed under prefixes.  The scoring properties also
draw zero smoothing, so unseen events score -inf; the decoder's keep
positive smoothing, which it requires.  Runs are derandomized so the
suite repeats exactly.
"""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tonoseg.core import (
    FLAT,
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    HIERARCHY_PROMINENCE_TONES,
    Marker,
    ProminentTone,
    Tone,
    TonosegError,
    encode_corpus,
)
from tonoseg.formats import save_model
from tonoseg.grammar import PatternGrammar, TrainConfig, model_entropy, train
from tonoseg.segment import SegmentationError, brute_force_segment, segment_turn
from helpers import TONES, copy_tables, model_entropy_per_position, random_corpus, train_per_length

SCHEMES = (HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES)
# Small smoothing makes splits of repeated tones score within rounding of each other.
SMOOTHINGS = (0.01, 0.05, 0.1, 0.5, 1.0)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw, smoothings=SMOOTHINGS):
    return TrainConfig(
        draw(st.integers(0, 5)), draw(st.integers(1, 3)), draw(st.sampled_from(smoothings))
    )


@st.composite
def trained_grammars(draw, smoothings=SMOOTHINGS):
    scheme = draw(st.sampled_from(SCHEMES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    corpus = random_corpus(rng, rng.randint(1, 15))
    return train(encode_corpus(corpus, scheme), scheme, draw(configs(smoothings)))


@st.composite
def training_sets(draw):
    """A scheme, a config of depth 0-8 and sequences over a few of the
    scheme's symbols, so that contexts repeat; sequences may be empty or
    hold one symbol."""
    scheme = draw(st.sampled_from((FLAT,) + SCHEMES))
    symbols = draw(st.lists(st.sampled_from(scheme.alphabet), min_size=1, max_size=4, unique=True))
    sequences = draw(st.lists(st.lists(st.sampled_from(symbols), max_size=20), max_size=8))
    return scheme, TrainConfig(draw(st.integers(0, 8)), draw(st.integers(1, 3))), sequences


@settings(PROPERTY, max_examples=300)
@given(training_sets())
@example((FLAT, TrainConfig(3, 1), [[], TONES[:1], [], TONES[:2] * 3, TONES[1:2]]))
@example((HIERARCHICAL, TrainConfig(8, 2), [TONES[:1]] * 3 + [TONES[:3] * 4, []]))
def test_train_equals_per_length_tally(case):
    scheme, config, sequences = case
    expected = save_model(train_per_length(sequences, scheme, config))
    assert save_model(train(sequences, scheme, config)) == expected


@st.composite
def hand_built_grammars(draw, smoothings=SMOOTHINGS):
    """Slices of encoded turns as contexts, closed under suffixes only
    (so mostly not under prefixes), with small random counts."""
    scheme = draw(st.sampled_from(SCHEMES))
    config = draw(configs(smoothings))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    seqs = encode_corpus(random_corpus(rng, 3), scheme)
    contexts = {()}
    for _ in range(draw(st.integers(0, 8)) if config.max_depth else 0):
        seq = rng.choice(seqs)
        k = rng.randint(1, config.max_depth)
        end = rng.randint(k, len(seq))
        contexts.update(tuple(seq[j:end]) for j in range(end - k, end))
    counts = st.dictionaries(st.sampled_from(scheme.alphabet), st.integers(0, 3), max_size=4)
    items = [(context, draw(counts)) for context in sorted(contexts, key=len)]
    return PatternGrammar.from_counts(scheme, config, items)


@st.composite
def tone_blind_grammars(draw):
    """Depth-1 grammars that score every tone symbol alike and both word
    openers alike, so candidates that differ only in prominence tie
    exactly and the tie-break rules decide."""
    scheme = draw(st.sampled_from(SCHEMES[1:]))
    config = TrainConfig(1, 1, draw(st.sampled_from(SMOOTHINGS)))
    tones = [sym for sym in scheme.alphabet if not isinstance(sym, Marker)]
    opens = [sym for sym in (Marker.WORD_OPEN, Marker.PROM_WORD_OPEN) if sym in scheme]
    # Few tone-to-tone counts and many word openers after a close make
    # words of several lengths compete.
    after_open = dict.fromkeys(tones, 1)
    after_tone = dict.fromkeys(tones, draw(st.integers(0, 2)))
    after_tone[Marker.WORD_CLOSE] = draw(st.integers(0, 9))
    after_close = dict.fromkeys(opens, draw(st.integers(1, 9)))
    after_close[Marker.TURN_CLOSE] = draw(st.integers(0, 9))
    items = [
        ((), {Marker.TURN_OPEN: 1}),
        ((Marker.TURN_OPEN,), dict.fromkeys(opens, 1)),
        ((Marker.WORD_CLOSE,), after_close),
    ]
    items += [((sym,), after_open) for sym in opens] + [((t,), after_tone) for t in tones]
    return PatternGrammar.from_counts(scheme, config, items)


grammars = st.one_of(trained_grammars(), hand_built_grammars())
scoring_grammars = st.one_of(
    trained_grammars((0.0,) + SMOOTHINGS), hand_built_grammars((0.0,) + SMOOTHINGS)
)


def tone_streams(min_size=1, max_size=8):
    """Streams over all tones or over 1-3 of them, whose repeats make near ties."""
    tones = st.one_of(st.just(TONES), st.lists(st.sampled_from(TONES), min_size=1, max_size=3, unique=True))
    return tones.flatmap(lambda ts: st.lists(st.sampled_from(ts), min_size=min_size, max_size=max_size))


def near_tie(seed, scheme, smoothing, stream):
    """A depth-2 grammar of six random turns and a stream on which two splits
    round to the same score although one split's prefix scored lower."""
    corpus = random_corpus(random.Random(seed), 6)
    grammar = train(encode_corpus(corpus, scheme), scheme, TrainConfig(2, 1, smoothing))
    return grammar, [Tone(c) for c in stream]


def symbol_lists(grammar, data, max_pieces=12):
    """Alphabet symbols and retained contexts, concatenated, so that
    histories reach the deep contexts."""
    pieces = st.one_of(
        st.sampled_from(grammar.scheme.alphabet).map(lambda sym: (sym,)),
        st.sampled_from([context for context, _ in grammar.iter_counts()]),
    )
    return [sym for piece in data.draw(st.lists(pieces, max_size=max_pieces)) for sym in piece]


@PROPERTY
@given(grammars, tone_streams())
@example(*near_tie(816, HIERARCHICAL, 0.05, "TMMMMTT"))
@example(*near_tie(6313, HIERARCHY_PROMINENCE, 0.01, "LLLLMM"))
@example(*near_tie(1307, HIERARCHY_PROMINENCE_TONES, 0.05, "HBBBHH"))
def test_decoder_equals_oracle(grammar, stream):
    scheme = grammar.scheme
    assert segment_turn(grammar, stream, scheme) == brute_force_segment(grammar, stream, scheme)


def near_ties(seed, scheme, smoothing, *streams):
    """``near_tie``'s grammar with several streams."""
    return near_tie(seed, scheme, smoothing, "")[0], [[Tone(c) for c in s] for s in streams]


@settings(PROPERTY, max_examples=50)
@given(grammars, st.lists(tone_streams(max_size=6), min_size=1, max_size=4))
@example(*near_ties(816, HIERARCHICAL, 0.05, "TMMMMTT", "TMM", "MMMTT"))
@example(*near_ties(6313, HIERARCHY_PROMINENCE, 0.01, "LLLLMM", "LLM", "MMLL"))
@example(*near_ties(1307, HIERARCHY_PROMINENCE_TONES, 0.05, "HBBBHH", "BBH", "HHBB"))
def test_decoder_equals_oracle_on_stored_tables(grammar, streams):
    # One grammar decodes the streams twice: the first pass fills the rows,
    # start rows and end rows, the second reads only stored ones.
    scheme = grammar.scheme
    want = [brute_force_segment(grammar, s, scheme) for s in streams]
    assert [segment_turn(grammar, s, scheme) for s in streams] == want
    rows = copy_tables(grammar._rows)  # the inner dicts too, or the check could not fail
    assert [segment_turn(grammar, s, scheme) for s in streams] == want
    assert grammar._rows == rows


@PROPERTY
@given(tone_blind_grammars(), tone_streams(4, 7))
def test_decoder_breaks_ties_like_oracle(grammar, stream):
    scheme = grammar.scheme
    assert segment_turn(grammar, stream, scheme) == brute_force_segment(grammar, stream, scheme)


STREAM_KINDS = (
    list,
    tuple,
    iter,
    lambda elements: (e for e in elements),
    lambda elements: np.array(elements, dtype=object),
)


def outcome(decode, grammar, stream):
    try:
        return decode(grammar, stream, grammar.scheme)
    except SegmentationError as err:
        return type(err), str(err)


@PROPERTY
@given(
    grammars,
    tone_streams(max_size=6),
    st.booleans(),
    st.just(()) | st.sampled_from((Marker.WORD_OPEN, ProminentTone.LOWER, "l", "x", 3, None)).map(lambda b: (b,)),
    st.integers(0, 6),
)
def test_stream_kinds_decode_alike(grammar, stream, letters, bad, at):
    # Tones or tone letters, with or without a non-tone at a random
    # place: every kind of stream gives the list's result or error, the
    # decoder the oracle's.
    elements = [t.value if letters else t for t in stream]
    elements[at:at] = bad
    outcomes = [
        outcome(decode, grammar, stream_of(elements))
        for decode in (segment_turn, brute_force_segment)
        for stream_of in STREAM_KINDS
    ]
    assert all(o == outcomes[0] for o in outcomes)


@PROPERTY
@given(scoring_grammars, st.data())
def test_table_scores_equal_log_prob(grammar, data):
    # Sequences built from retained contexts reach the deep states.  Under
    # zero smoothing a context whose every score is -inf has no
    # distribution, and conditional says so.
    scheme = grammar.scheme
    seq = symbol_lists(grammar, data)
    state, total = 0, 0.0
    for i, sym in enumerate(seq):
        index = scheme.index(sym)
        state, lp = grammar.step(state, index)
        assert lp == grammar.log_prob(sym, seq[:i])
        try:
            dist = grammar.conditional(seq[:i])
        except TonosegError as exc:
            assert (type(exc), str(exc)) == (TonosegError, "no counts at matched context and smoothing is zero")
            assert all(grammar.log_prob(s, seq[:i]) == -math.inf for s in scheme.alphabet)
        else:
            assert dist[index].hex() == math.exp(lp).hex()
        total += lp
    assert total == grammar.sequence_log_probability(seq)


def assert_entropy_equals_per_position_sum(grammar, seqs):
    """Equal floats, bitwise, or the same error (type and message)."""
    try:
        expected = model_entropy_per_position(grammar, seqs)
    except TonosegError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            model_entropy(grammar, seqs)
    else:
        assert [x.hex() for x in model_entropy(grammar, seqs)] == [x.hex() for x in expected]


@PROPERTY
@given(scoring_grammars, st.data())
def test_chain_scores_equal_log_prob(grammar, data):
    # sequence_log_probability and model_entropy roll one context key
    # along the sequence; log_prob builds each context's key afresh.
    depth = grammar.config.max_depth
    seqs = [symbol_lists(grammar, data) for _ in range(data.draw(st.integers(1, 3)))]
    for seq in seqs:
        total = 0.0
        for i, sym in enumerate(seq):
            total += grammar.log_prob(sym, seq[max(0, i - depth) : i])
        assert grammar.sequence_log_probability(seq).hex() == total.hex()
    if any(seqs):
        assert_entropy_equals_per_position_sum(grammar, seqs)


@st.composite
def entropy_cases(draw):
    """A grammar trained at depth 0-8, with or without smoothing, and
    sequences to score: training sequences and new ones over the same
    symbols, picked with repeats so that events recur across sequences."""
    scheme, config, sequences = draw(training_sets())
    config = TrainConfig(config.max_depth, config.min_count, draw(st.sampled_from([0.0, 0.5])))
    grammar = train(sequences, scheme, config)
    symbols = sorted({sym for seq in sequences for sym in seq}, key=scheme.index) or scheme.alphabet[:2]
    new = st.lists(st.sampled_from(symbols), min_size=1, max_size=12)
    pool = sequences + draw(st.lists(new, min_size=1, max_size=3))
    return grammar, [pool[j] for j in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))]


@settings(PROPERTY, max_examples=300)
@given(entropy_cases())
@example((train([TONES[:2] * 3], FLAT, TrainConfig(0, 1, 0.0)), [TONES[:2] * 3, TONES[1:2]] * 3))
@example((train([TONES[:2] * 3], FLAT, TrainConfig(2, 1, 0.0)), [TONES[:2] * 2, TONES[:2] * 2 + TONES[:1]] * 2))
def test_model_entropy_equals_per_position_sum(case):
    # model_entropy scores each distinct event once; the reference scores
    # every position afresh.
    assert_entropy_equals_per_position_sum(*case)


FOREIGN = ("?", Marker.PROM_WORD_OPEN, ProminentTone.TOP, Marker.WORD_OPEN)


@PROPERTY
@given(grammars, st.data())
def test_context_is_cut_at_foreign_symbol_and_depth(grammar, data):
    # Only the last max_depth symbols count, and none older than the
    # newest symbol outside the alphabet.
    scheme, depth = grammar.scheme, grammar.config.max_depth
    context = symbol_lists(grammar, data, max_pieces=4)
    foreign = [sym for sym in FOREIGN if sym not in scheme]
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(context)))
        context.insert(j, data.draw(st.sampled_from(foreign)))
        cut = context[j + 1 :]
    else:
        cut = context
    cut = cut[len(cut) - min(len(cut), depth) :]
    sym = data.draw(st.sampled_from(scheme.alphabet))
    assert grammar.log_prob(sym, context) == grammar.log_prob(sym, cut)
    assert grammar.conditional(context) == grammar.conditional(cut)
