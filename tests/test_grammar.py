import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tonoseg.core import (
    HIERARCHICAL,
    AlphabetError,
    EncodingScheme,
    InvalidArgumentError,
    Tone,
    TonosegError,
    encode_corpus,
    get_scheme,
)
from tonoseg.formats import load_model, parse_corpus, save_model
from tonoseg.grammar import (
    MAX_DEPTH,
    PatternGrammar,
    TrainConfig,
    marginal_entropy,
    model_entropy,
    normalized_entropy,
    train,
)
from tonoseg.segment import segment_turn
from helpers import copy_tables, random_corpus, unfilled_tables

MODEL_GOLDEN = Path(__file__).parent / "fixtures" / "model_golden.json"

TOY2 = EncodingScheme("toy2", ("A", "B"))
TOY3 = EncodingScheme("toy3", ("A", "B", "C"))
TOY4 = EncodingScheme("toy4", ("A", "B", "C", "D"))

AB_SEQUENCE = list("ABABAB")


def ab_grammar(max_depth=1, min_count=1, smoothing=0.0):
    return train([AB_SEQUENCE], TOY2, TrainConfig(max_depth, min_count, smoothing))


def test_train_config_defaults_and_validation():
    cfg = TrainConfig()
    assert (cfg.max_depth, cfg.min_count, cfg.smoothing) == (4, 2, 0.5)
    # Typed input errors that stay ValueErrors for callers that catch those.
    for bad in ({"max_depth": -1}, {"min_count": 0}):
        with pytest.raises(InvalidArgumentError) as exc:
            TrainConfig(**bad)
        assert isinstance(exc.value, ValueError) and isinstance(exc.value, TonosegError)
    for smoothing in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
            TrainConfig(smoothing=smoothing)
    # finite, but smoothing * alphabet size is not: rejected when a grammar is built
    with pytest.raises(TonosegError, match=r"^smoothing 1e\+308 too large for an alphabet of 2 "):
        train([AB_SEQUENCE], TOY2, TrainConfig(smoothing=1e308))


def test_train_config_depth_bound():
    # Building a grammar costs time and memory quadratic in its depth.
    assert TrainConfig(max_depth=MAX_DEPTH).max_depth == 64
    with pytest.raises(ValueError, match=r"^max_depth must be in \[0, 64\], got 65$"):
        TrainConfig(max_depth=65)


CONFIG_VALUES = st.one_of(
    st.integers(-3, MAX_DEPTH + 3),
    st.integers(),
    st.booleans(),
    st.integers(-3, MAX_DEPTH + 3).map(np.int64),
    st.integers(-3, 9).map(np.int8),
    st.floats(),
    st.floats(-3, MAX_DEPTH + 3).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(0.25)]),
    st.text(max_size=5),
    st.sampled_from(["2", "0.5", " 1.5 ", "1_0", "nan", "-inf", "1e999"]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(CONFIG_VALUES, CONFIG_VALUES, CONFIG_VALUES)
@example(4, 1.5, 0.5)
@example(True, 2, 0.5)
@example(4, 2, np.float64(0.5))
@example(2.5, 2, 0.5)
@example(4, 2, "0.5")
@example(np.int64(3), np.int64(1), 1)
def test_train_config_survives_save_and_load(max_depth, min_count, smoothing):
    # A config that constructs stores exact ints and a float, so the model
    # it trains saves and loads back with an equal config; any other value
    # is refused at construction.  With plain ints and a plain float the
    # config line is the values' own text, as it always was.
    try:
        config = TrainConfig(max_depth, min_count, smoothing)
    except InvalidArgumentError:
        return
    assert tuple(map(type, (config.max_depth, config.min_count, config.smoothing))) == (int, int, float)
    seqs = encode_corpus(random_corpus(random.Random(5), 2), HIERARCHICAL)
    if not math.isfinite(config.smoothing * HIERARCHICAL.size):
        with pytest.raises(TonosegError, match="too large for an alphabet"):
            train(seqs, HIERARCHICAL, config)
        return
    text = save_model(train(seqs, HIERARCHICAL, config))
    assert load_model(text).config == config
    if (type(max_depth), type(min_count), type(smoothing)) == (int, int, float):
        assert text.splitlines()[2] == f"config {max_depth} {min_count} {smoothing!r}"


def test_ab_hand_tally():
    g = ab_grammar()
    np.testing.assert_allclose(g.conditional([]), [0.5, 0.5])
    np.testing.assert_allclose(g.conditional(["A"]), [0.0, 1.0])
    np.testing.assert_allclose(g.conditional(["B"]), [1.0, 0.0])
    # longer context: only the retained suffix matters
    np.testing.assert_allclose(g.conditional(["B", "B", "A"]), [0.0, 1.0])
    assert g.total_symbols == 6


def test_empty_training_uniform_fallback():
    g = train([], TOY4, TrainConfig(2, 2, 0.5))
    assert g.node_count == 1
    assert g.total_symbols == 0
    np.testing.assert_allclose(g.conditional([]), [0.25] * 4)
    np.testing.assert_allclose(g.conditional(["A", "C"]), [0.25] * 4)


def test_zero_smoothing_empty_grammar_raises():
    g = train([], TOY2, TrainConfig(1, 1, 0.0))
    with pytest.raises(TonosegError):
        g.conditional([])


def test_zero_count_row_under_zero_smoothing():
    # A row that counts nothing (a model file may hold one; train keeps
    # none): every symbol after its context scores -inf, model_entropy
    # names the position, and conditional has no distribution there.
    g = PatternGrammar.from_counts(TOY2, TrainConfig(1, 1, 0.0), [((), {"A": 1, "B": 1}), (("A",), {})])
    assert g.log_prob("B", ["A"]) == -math.inf
    assert g.sequence_log_probability(list("AB")) == -math.inf
    assert g.sequence_log_probability(list("BB")) == pytest.approx(2 * math.log(0.5))
    with pytest.raises(TonosegError, match="^sequence 1, position 2: unseen transition with zero smoothing$"):
        model_entropy(g, [list("B"), list("BAB")])
    with pytest.raises(TonosegError, match="^no counts at matched context and smoothing is zero$"):
        g.conditional(["A"])


def test_high_threshold_prunes_to_root():
    # every bigram occurs once, so min_count=10 keeps only the root
    seq = list("ABCDABDC")  # distinct adjacent pairs
    g = train([seq], TOY4, TrainConfig(2, 10, 0.5))
    assert g.node_count == 1


def test_out_of_alphabet_symbol_aborts_with_position():
    with pytest.raises(AlphabetError) as exc:
        train([["A", "B"], ["A", "Z"]], TOY2, TrainConfig(1, 1, 0.5))
    assert "sequence 1" in str(exc.value)
    assert "position 1" in str(exc.value)


def test_foreign_symbol_names_sequence_and_position():
    # The first two sequences are tallied, or scored, before the third one stops
    # training or model_entropy.
    sequences = [["A", "B", "A"], [], ["B", "A", "B", "X", "A", "Y"]]
    message = r"^sequence 2, position 3: symbol 'X' not in alphabet of scheme 'toy2'$"
    for depth in (0, 2, 8):
        with pytest.raises(AlphabetError, match=message):
            train(sequences, TOY2, TrainConfig(depth, 1, 0.5))
        with pytest.raises(AlphabetError, match=message):
            model_entropy(train(sequences[:2], TOY2, TrainConfig(depth, 1, 0.5)), sequences)


def test_repeated_failing_sequence_is_named_at_its_first_occurrence():
    # Sequences recur: the error names the first occurrence of the first
    # failing one, and the failing position in it.
    foreign = [list("AB"), list("ABXA"), list("AB"), list("ABXA")]
    message = r"^sequence 1, position 2: symbol 'X' not in alphabet of scheme 'toy2'$"
    with pytest.raises(AlphabetError, match=message):
        train(foreign, TOY2, TrainConfig(2, 1, 0.5))
    with pytest.raises(AlphabetError, match=message):
        model_entropy(ab_grammar(smoothing=0.5), foreign)
    # B never follows B in training; the second "ABBA" is not reached.
    unseen = [list("ABAB")] * 2 + [list("ABBA")] * 2
    with pytest.raises(TonosegError, match="^sequence 2, position 2: unseen transition with zero smoothing$"):
        model_entropy(ab_grammar(), unseen)


def test_unhashable_symbol_fails_in_sequence_order():
    # An unhashable symbol raises TypeError where a lookup of it would:
    # after an earlier sequence's, or an earlier position's, error.
    for sequences, error, message in (
        ([list("AX"), ["A", ["B"]]], AlphabetError, "^sequence 0, position 1: symbol 'X'"),
        ([["A", "X", ["B"]]], AlphabetError, "^sequence 0, position 1: symbol 'X'"),
        ([list("AB"), ["A", ["B"], "X"]], TypeError, r"^unhashable type: 'list'$"),
    ):
        with pytest.raises(error, match=message):
            train(sequences, TOY2, TrainConfig(2, 1, 0.5))
        with pytest.raises(error, match=message):
            model_entropy(ab_grammar(smoothing=0.5), sequences)
    with pytest.raises(TonosegError, match="^sequence 1, position 2: unseen transition with zero smoothing$"):
        model_entropy(ab_grammar(), [list("AB"), ["A", "B", "B", ["B"]]])


def test_depth_zero_is_unigram():
    g = train([AB_SEQUENCE], TOY2, TrainConfig(0, 1, 0.0))
    assert g.node_count == 1
    np.testing.assert_allclose(g.conditional(["A"]), [0.5, 0.5])


def test_context_truncation_matches_depth():
    rng = random.Random(3)
    seqs = [[rng.choice("ABC") for _ in range(30)] for _ in range(5)]
    g = train(seqs, TOY3, TrainConfig(2, 1, 0.5))
    for _ in range(50):
        ctx = [rng.choice("ABC") for _ in range(rng.randint(3, 8))]
        np.testing.assert_array_equal(g.conditional(ctx), g.conditional(ctx[-2:]))


def test_longest_suffix_consistency():
    rng = random.Random(4)
    seqs = [[rng.choice("ABC") for _ in range(40)] for _ in range(4)]
    g = train(seqs, TOY3, TrainConfig(3, 2, 0.5))
    contexts = [ctx for ctx, _ in g.iter_counts()]
    for _ in range(100):
        ctx = tuple(rng.choice("ABC") for _ in range(rng.randint(0, 6)))
        # longest retained suffix by brute search over stored contexts
        best = max(
            (c for c in contexts if len(c) <= len(ctx) and ctx[len(ctx) - len(c):] == c),
            key=len,
        )
        np.testing.assert_array_equal(g.conditional(ctx), g.conditional(best))


def test_suffix_closure_after_pruning():
    rng = random.Random(5)
    for trial in range(20):
        seqs = [[rng.choice("ABCD") for _ in range(50)] for _ in range(3)]
        g = train(seqs, TOY4, TrainConfig(4, rng.randint(1, 4), 0.5))
        contexts = {ctx for ctx, _ in g.iter_counts()}
        for ctx in contexts:
            for start in range(len(ctx)):
                assert ctx[start:] in contexts
        assert () in contexts


def test_counts_sum_to_context_occurrences():
    # with min_count=1 every stored context's successor total equals the
    # number of times the context was seen followed by a symbol
    rng = random.Random(6)
    seq = [rng.choice("AB") for _ in range(60)]
    g = train([seq], TOY2, TrainConfig(2, 1, 0.0))
    for ctx, counts in g.iter_counts():
        d = len(ctx)
        occurrences = sum(
            1
            for i in range(d, len(seq))
            if tuple(seq[i - d : i]) == ctx
        )
        assert sum(counts.values()) == occurrences


def test_probability_vector_properties():
    rng = random.Random(7)
    corpus = random_corpus(rng, 20)
    seqs = encode_corpus(corpus, HIERARCHICAL)
    g = train(seqs, HIERARCHICAL, TrainConfig(3, 2, 0.5))
    for _ in range(50):
        seq = seqs[rng.randrange(len(seqs))]
        k = rng.randint(0, len(seq))
        vec = g.conditional(seq[:k])
        assert abs(math.fsum(vec) - 1.0) <= 1e-12
        assert all(p > 0 for p in vec)


def test_sequence_log_probability_uniform():
    g = train([], TOY4, TrainConfig(2, 1, 0.5))
    assert g.sequence_log_probability(["A", "C", "D"]) == pytest.approx(math.log(1 / 64), abs=1e-12)


def test_sequence_log_probability_ab():
    g = ab_grammar()
    assert g.sequence_log_probability(list("ABAB")) == pytest.approx(math.log(0.5), abs=1e-15)


def test_sequence_log_probability_unseen_is_neg_inf():
    g = ab_grammar()
    assert g.sequence_log_probability(list("AA")) == -math.inf


def test_chain_rule_factorization_tone_sequence():
    # a sequence score is exactly the product of its per-symbol
    # conditionals, checked on the (U, S, T, D) tone pattern
    from tonoseg.core import FLAT, Tone

    rng = random.Random(10)
    corpus = random_corpus(rng, 25)
    g = train(encode_corpus(corpus, FLAT), FLAT, TrainConfig(3, 1, 0.5))
    seq = [Tone.UPSTEP, Tone.SAME, Tone.TOP, Tone.DOWNSTEP]
    total = 0.0
    for i in range(4):
        total += math.log(g.conditional(seq[:i])[FLAT.index(seq[i])])
    assert g.sequence_log_probability(seq) == pytest.approx(total, abs=1e-12)


def test_chain_rule_totality():
    uniform = train([], TOY3, TrainConfig(2, 1, 0.5))
    trained = train([list("ABCABCAABB")], TOY3, TrainConfig(2, 1, 0.5))
    for g in (uniform, trained):
        for length in range(1, 5):
            total = sum(
                math.exp(g.sequence_log_probability(seq))
                for seq in itertools.product("ABC", repeat=length)
            )
            assert total == pytest.approx(1.0, abs=1e-9)


# -- entropy -----------------------------------------------------------


def test_marginal_entropy_uniform():
    h, hn = marginal_entropy([list("ABCD")], 4)
    assert h == pytest.approx(math.log(4), abs=1e-12)
    assert hn == pytest.approx(1.0, abs=1e-12)


def test_marginal_entropy_deterministic():
    h, hn = marginal_entropy([["A"] * 10], 4)
    assert h == 0.0
    assert hn == 0.0


def test_marginal_entropy_211():
    # counts (2,1,1) over four categories, by direct arithmetic
    h, hn = marginal_entropy([["A", "A", "B", "C"]], 4)
    expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
    assert h == pytest.approx(expected, abs=1e-12)
    assert h == pytest.approx(1.0397, abs=5e-5)
    assert hn == pytest.approx(0.75, abs=1e-12)


def test_marginal_entropy_errors():
    with pytest.raises(InvalidArgumentError):
        marginal_entropy([["A"]], 1)
    with pytest.raises(InvalidArgumentError):
        marginal_entropy([], 4)
    with pytest.raises(InvalidArgumentError):
        model_entropy(ab_grammar(smoothing=0.5), [AB_SEQUENCE], 1)
    empty = r"^cannot measure entropy of an empty symbol stream$"
    with pytest.raises(InvalidArgumentError, match=empty):
        model_entropy(ab_grammar(smoothing=0.5), [[], []])


def test_model_entropy_uniform_grammar():
    g = train([], TOY4, TrainConfig(2, 1, 0.5))
    h, hn = model_entropy(g, [list("ABCD"), list("DAC")])
    assert h == pytest.approx(math.log(4), abs=1e-12)
    assert hn == pytest.approx(1.0, abs=1e-12)


def test_model_entropy_ab_training_data():
    g = ab_grammar()
    h, hn = model_entropy(g, [AB_SEQUENCE])
    assert h == pytest.approx(math.log(2) / 6, abs=1e-12)


def test_model_entropy_unseen_transition_errors():
    g = ab_grammar()
    with pytest.raises(TonosegError) as exc:
        model_entropy(g, [list("AA")])
    assert "position 1" in str(exc.value)


def test_model_entropy_unseen_transition_names_first_occurrence():
    # B never follows B in training.  The event first occurs in the second
    # sequence, then recurs there and in the third; the error names the first.
    g = ab_grammar()
    message = r"^sequence 1, position 2: unseen transition with zero smoothing$"
    with pytest.raises(TonosegError, match=message):
        model_entropy(g, [list("ABAB"), list("ABBB"), list("BB")])


def test_model_entropy_takes_a_one_shot_generator():
    g = ab_grammar(smoothing=0.5)
    seqs = [list("ABBA"), list("BAB"), list("ABBA")]
    assert model_entropy(g, (tuple(seq) for seq in seqs)) == model_entropy(g, seqs)


def test_model_entropy_leaves_grammar_untouched():
    # Its memo lives for one call: the automaton and the decoder's rows
    # are neither read nor filled, and calls do not affect each other.
    seqs = encode_corpus(random_corpus(random.Random(12), 20), HIERARCHICAL)
    g = train(seqs, HIERARCHICAL, TrainConfig(3, 2, 0.5))
    first = model_entropy(g, seqs)
    assert (g._entries, g._rows, g._closure) == ({}, unfilled_tables(g), None)
    segment_turn(g, [sym for sym in seqs[0] if isinstance(sym, Tone)], HIERARCHICAL)
    entries, rows, closure = dict(g._entries), copy_tables(g._rows), g._closure
    assert entries and any(rows.values()) and closure
    assert model_entropy(g, seqs) == first
    assert (g._entries, g._rows) == (entries, rows) and g._closure is closure


def test_model_entropy_matches_marginal_at_depth_zero():
    rng = random.Random(8)
    corpus = random_corpus(rng, 15)
    seqs = encode_corpus(corpus, HIERARCHICAL)
    g = train(seqs, HIERARCHICAL, TrainConfig(0, 1, 0.0))
    h_model, _ = model_entropy(g, seqs)
    h_marg, _ = marginal_entropy(seqs, 12)
    assert h_model == pytest.approx(h_marg, abs=1e-12)


def test_model_entropy_conditioning_never_hurts():
    # on training data with full counts and no smoothing, deeper contexts
    # can only lower the cross-entropy
    rng = random.Random(9)
    for trial in range(10):
        seqs = encode_corpus(random_corpus(rng, 12), HIERARCHICAL)
        h_marg, _ = marginal_entropy(seqs, 12)
        prev = None
        for depth in range(5):
            g = train(seqs, HIERARCHICAL, TrainConfig(depth, 1, 0.0))
            h, hn = model_entropy(g, seqs)
            assert h <= h_marg + 1e-9
            assert 0.0 <= hn <= 1.0 + 1e-12
            if prev is not None:
                assert h <= prev + 1e-9
            prev = h


def test_normalized_entropy_reference_rows():
    # back-solved category counts: round(exp(H / H_norm))
    assert round(math.exp(2.259 / 0.942)) == 11
    assert round(math.exp(2.064 / 0.897)) == 10
    assert normalized_entropy(1.796, 11) == pytest.approx(0.749, abs=1e-3)
    assert normalized_entropy(1.494, 10) == pytest.approx(0.649, abs=1e-3)


def test_normalized_entropy_bounds():
    assert normalized_entropy(0.0, 7) == 0.0
    assert normalized_entropy(math.log(7), 7) == 1.0
    with pytest.raises(ValueError):
        normalized_entropy(-0.01, 7)
    with pytest.raises(ValueError):
        normalized_entropy(math.log(7) + 0.01, 7)
    with pytest.raises(ValueError):
        normalized_entropy(0.5, 1)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_normalized_entropy_rejects_non_finite(h):
    with pytest.raises(InvalidArgumentError, match=rf"^entropy {h} outside \[0, 2\.079442\] for 8 categories$"):
        normalized_entropy(h, 8)


def test_from_counts_rejects_broken_tries():
    g = ab_grammar(max_depth=2)
    items = list(g.iter_counts())
    # drop a mid-trie node: children of the removed context lose closure
    broken = [it for it in items if it[0] != ("A",)]
    if any(len(ctx) == 2 and ctx[1] == "A" for ctx, _ in broken):
        with pytest.raises(TonosegError):
            PatternGrammar.from_counts(TOY2, g.config, broken)
    with pytest.raises(TonosegError):
        PatternGrammar.from_counts(TOY2, g.config, items + [((), {"A": 1})])
    # a context given twice is rejected even when its first copy counts nothing
    for context, text in (((), "."), (("A",), "A")):
        rows = [((), {}), (("A",), {"A": 0}), (context, {"A": 1, "B": 2})]
        with pytest.raises(TonosegError, match=rf"^duplicate context '{text}'$"):
            PatternGrammar.from_counts(TOY2, g.config, rows)


def test_foreign_symbols_raise_alphabet_error():
    g = ab_grammar(smoothing=0.5)
    with pytest.raises(AlphabetError, match=r"^context symbol 'X' not in scheme alphabet$"):
        PatternGrammar.from_counts(TOY2, g.config, [((), {"A": 1}), (("X",), {"A": 1})])
    with pytest.raises(AlphabetError, match=r"^successor 'X' not in scheme alphabet$"):
        PatternGrammar.from_counts(TOY2, g.config, [((), {"A": 1, "X": 2})])
    with pytest.raises(AlphabetError, match=r"^symbol 'X' not in scheme alphabet$"):
        g.log_prob("X", ["A"])
    with pytest.raises(AlphabetError, match=r"^symbol 'X' not in scheme alphabet$"):
        g.sequence_log_probability(["A", "X"])


def test_from_counts_rejects_counts_past_float_range():
    # Such a row used to load and then raise OverflowError when scored.
    big = 10**400
    cases = [
        (TrainConfig(1, 1, 0.5), [((), {"A": big})], "."),
        (TrainConfig(1, 1, 0.5), [((), {}), (("A",), {"A": 1, "B": big})], "A"),
        (TrainConfig(1, 1, 0.5), [((), {"A": int(sys.float_info.max), "B": int(sys.float_info.max)})], "."),
        # each count is a finite float, but adding smoothing * size is not
        (TrainConfig(1, 1, 5e307), [((), {"A": int(1e308)})], "."),
    ]
    for config, rows, text in cases:
        with pytest.raises(TonosegError, match=rf"^counts in context '{text}' too large: smoothed total is not finite$"):
            PatternGrammar.from_counts(TOY2, config, rows)
    # The largest total that still works.
    g = PatternGrammar.from_counts(TOY2, TrainConfig(1, 1, 0.5), [((), {"A": int(sys.float_info.max)})])
    assert g.log_prob("A", []) == 0.0


def test_tiny_smoothing_scores_unseen_symbols():
    # P(B) = 5e-324 / 1000 underflows to 0.0; its log must not raise.
    g = PatternGrammar.from_counts(TOY2, TrainConfig(0, 1, 5e-324), [((), {"A": 1000})])
    lp = math.log(5e-324) - math.log(1000 + 1e-323)
    assert g.log_prob("B", []) == lp
    assert g.sequence_log_probability(["A", "B"]) == 0.0 + lp
    assert g.step(0, 1) == (0, lp)


def test_iter_counts_in_alphabet_order():
    # Trained counts come out in alphabet order, not in the order first seen.
    g = train([list("CBA"), list("BCA")], TOY3, TrainConfig(1, 1, 0.5))
    assert list(g.iter_counts()) == [
        ((), {"A": 2, "B": 2, "C": 2}), (("B",), {"A": 1, "C": 1}), (("C",), {"A": 1, "B": 1}),
    ]
    for _, counts in g.iter_counts():
        assert list(counts) == sorted(counts)


def test_model_golden():
    # Pinned model files (written by make_model_golden.py): retraining
    # must reproduce every file byte for byte, one retained context per row.
    cases = json.loads(MODEL_GOLDEN.read_text())["cases"]
    for case in cases:
        scheme = get_scheme(case["scheme"])
        corpus = parse_corpus(case["corpus"])
        g = train(encode_corpus(corpus, scheme), scheme, TrainConfig(*case["config"]))
        assert save_model(g) == case["model"]
        assert g.node_count == case["model"].count("\n") - 3
    assert len(cases) == 36
