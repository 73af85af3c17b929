import json
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tonoseg import core
from tonoseg.core import (
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    Corpus,
    EmptyWordError,
    PositionedError,
    Tone,
    Turn,
    UnknownToneError,
    encode_corpus,
    scheme_ids,
)
from tonoseg.formats import (
    CorpusFormatError,
    CorruptModelError,
    NestingError,
    SegmentationFormatError,
    SchemeMismatchError,
    VersionError,
    load_model,
    parse_corpus,
    parse_segmentation,
    save_model,
    serialize_corpus,
    serialize_segmentation,
)
from tonoseg.grammar import PatternGrammar, TrainConfig, model_entropy, train
from tonoseg.segment import SegmentationResult, WordSpan, segment_turn
from tonoseg.synth import PlantedGrammar, sample_corpus
from helpers import load_model_per_line, random_corpus, random_planted, turn, word

HEADER = "tonoseg-corpus v1\n"
MODEL_GOLDEN = Path(__file__).parent / "fixtures" / "model_golden.json"


# -- corpus parsing ----------------------------------------------------


def test_parse_minimal_document():
    c = parse_corpus(HEADER + "( H )\n")
    assert len(c.turns) == 1
    assert c.word_count == 1
    assert c == Corpus((turn("H"),))


def test_parse_prominent_and_metadata():
    c = parse_corpus(HEADER + "# note\n@speaker f01\n( U S ) *( T D )\n")
    assert c.metadata == {"speaker": "f01"}
    assert c.turns[0].words[1].prominent


def test_unknown_tone_position():
    text = HEADER + "( H )\n( U X )\n"
    with pytest.raises(UnknownToneError) as exc:
        parse_corpus(text)
    assert exc.value.line == 3
    assert exc.value.column == 5


def test_bad_version():
    with pytest.raises(VersionError):
        parse_corpus("tonoseg-corpus v9\n( H )\n")
    with pytest.raises(VersionError):
        parse_corpus("")
    with pytest.raises(VersionError):
        parse_corpus("( H )\n")


def test_empty_word_error():
    with pytest.raises(EmptyWordError) as exc:
        parse_corpus(HEADER + "( )\n")
    assert exc.value.line == 2


def test_nesting_errors():
    for body in ("( H", ") H (", "H ( S )", "( H ( S ) )"):
        with pytest.raises(NestingError):
            parse_corpus(HEADER + body + "\n")


@pytest.mark.parametrize(
    "line, error, message, column",
    [
        ("( T ))", UnknownToneError, "unknown tone letter '))'", 5),
        ("( T )x", UnknownToneError, "unknown tone letter ')x'", 5),
        ("( T ) x", NestingError, "token 'x' outside a word", 7),
        (")( L )", NestingError, "token ')(' outside a word", 1),
        ("( T L)( H )", UnknownToneError, "unknown tone letter 'L)('", 5),
        ("( T ) )", NestingError, "')' without matching open", 7),
    ],
)
def test_turn_line_split_edges(line, error, message, column):
    # Lines that the fast reader's split at ")" rejects; the parser
    # reports them as it always has.
    with pytest.raises(error) as exc:
        parse_corpus(HEADER + "( H )\n" + line + "\n")
    assert type(exc.value) is error
    assert str(exc.value) == f"line 3, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (3, column)


def test_turn_line_split_accepts_any_whitespace():
    c = parse_corpus(HEADER + "( T )\u3000*( L )\n\t( T ) \x0b\n")
    assert c.turns == (turn("T", ("L", True)), turn("T"))


def test_error_kinds_are_distinct():
    kinds = {VersionError, UnknownToneError, EmptyWordError, NestingError}
    assert len(kinds) == 4
    for k in kinds:
        assert issubclass(k, PositionedError)


def test_parse_three_turn_825_word_document():
    words = " ".join("( H L )" for _ in range(275))
    text = HEADER + "\n".join([words, words, words]) + "\n"
    c = parse_corpus(text)
    assert len(c.turns) == 3
    # independent count: one "(" token per word in the document
    assert text.split().count("(") == 825
    assert c.word_count == 825


def test_repeated_words_parse_to_equal_turns():
    # The parser builds each distinct word once and shares it between turns.
    lines = ["( H L ) *( H L ) ( H L )", "( H L ) *( H L )", "( H L ) *( H L ) ( H L )"]
    text = HEADER + "\n".join(lines) + "\n"
    c = parse_corpus(text)
    assert c.turns == (turn("HL", ("HL", True), "HL"), turn("HL", ("HL", True)), turn("HL", ("HL", True), "HL"))
    assert c.turns[0] == c.turns[2] and c.turns[0].words[:2] == c.turns[1].words
    assert serialize_corpus(c) == text
    assert parse_corpus(serialize_corpus(c)) == c


def word_by_word(corpus):
    """``serialize_corpus``'s text of a metadata-free corpus, each word
    written where it occurs."""
    lines = [
        " ".join(f"{'*(' if w.prominent else '('} {' '.join(t.value for t in w.tones)} )" for w in t.words)
        for t in corpus.turns
    ]
    return HEADER + "".join(line + "\n" for line in lines)


def test_serialize_shared_words_like_word_by_word():
    # One word object in many turns, beside an equal but distinct object
    # and the same tones of the other prominence, each written as itself.
    shared, twin, starred, other = word("TH"), word("TH"), word("TH", True), word("L")
    shared_starred, twin_starred = word("UD", True), word("UD", True)
    turns = [
        Turn((shared, twin)),
        Turn((starred, shared, other)),
        Turn((shared,) * 3),
        Turn((twin_starred, shared_starred, twin, shared_starred)),
        Turn((other, shared_starred, shared)),
    ] * 7
    c = Corpus(tuple(turns))
    assert twin == shared and twin is not shared
    assert serialize_corpus(c) == word_by_word(c)
    assert parse_corpus(serialize_corpus(c)) == c
    # sample_corpus shares one object per distinct word
    sampled = Corpus(sample_corpus(random_planted(random.Random(24), prominence=0.5), 500, seed=6).turns)
    assert serialize_corpus(sampled) == word_by_word(sampled)


def test_serialize_round_trip_minimal():
    c = Corpus((turn("US", ("TD", True)),), {"id": "x"})
    assert parse_corpus(serialize_corpus(c)) == c


def test_serialize_deterministic():
    rng = random.Random(21)
    c = random_corpus(rng, 30)
    c = Corpus(c.turns, {"b": "2", "a": "1"})
    assert serialize_corpus(c) == serialize_corpus(c)


def test_round_trip_random_corpora():
    rng = random.Random(22)
    for _ in range(25):
        c = random_corpus(rng, rng.randint(1, 20))
        assert parse_corpus(serialize_corpus(c)) == c


def test_round_trip_synthetic_1000_words():
    rng = random.Random(23)
    c = sample_corpus(random_planted(rng), 1000, seed=5)
    assert c.word_count == 1000
    assert parse_corpus(serialize_corpus(c)) == c


def test_metadata_validation():
    with pytest.raises(Exception):
        serialize_corpus(Corpus((turn("H"),), {"two words": "x"}))
    with pytest.raises(Exception):
        serialize_corpus(Corpus((turn("H"),), {"k": "line\nbreak"}))


# Every character at which str.splitlines breaks a line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_metadata_value_with_any_line_break_rejected(brk):
    with pytest.raises(core.TonosegError, match=r"^metadata value for 'k' must be a single trimmed line$"):
        serialize_corpus(Corpus((turn("H"),), {"k": f"a{brk}b"}))


@pytest.mark.parametrize("space", [" ", "\t", "\x1f", "\xa0", "\u3000"])
def test_metadata_splits_at_any_whitespace(space):
    c = parse_corpus(f"{HEADER}@a{space}b{space} c\n( H )\n")
    assert c.metadata == {"a": f"b{space} c"}
    assert parse_corpus(serialize_corpus(c)) == c


@pytest.mark.parametrize("line", ["@", "@ key value", "@\tkey", "  @\u3000key"])
def test_metadata_line_without_key(line):
    with pytest.raises(CorpusFormatError, match=r"^line 2, column 1: metadata line has no key$"):
        parse_corpus(f"{HEADER}{line}\n")


def test_parse_totality_fuzz():
    rng = random.Random(24)
    charset = "THX()*[]#@ \n\tabc01-"
    for _ in range(300):
        text = "".join(rng.choice(charset) for _ in range(rng.randint(0, 80)))
        try:
            out = parse_corpus(text)
            assert isinstance(out, Corpus)
        except PositionedError:
            pass


# -- model files -------------------------------------------------------


def tiny_grammar(smoothing=0.5):
    rng = random.Random(25)
    corpus = random_corpus(rng, 4)
    return train(
        encode_corpus(corpus, HIERARCHY_PROMINENCE),
        HIERARCHY_PROMINENCE,
        TrainConfig(3, 1, smoothing),
    )


def test_model_round_trip_counts_exact():
    g = tiny_grammar()
    g2 = load_model(save_model(g))
    assert g2.scheme == g.scheme
    assert g2.config == g.config
    assert list(g2.iter_counts()) == list(g.iter_counts())


def test_model_round_trip_probabilities():
    rng = random.Random(26)
    for trial in range(10):
        corpus = random_corpus(rng, rng.randint(2, 10))
        g = train(
            encode_corpus(corpus, HIERARCHICAL),
            HIERARCHICAL,
            TrainConfig(rng.randint(0, 4), rng.randint(1, 3), rng.choice([0.0, 0.5, 1.0])),
        )
        g2 = load_model(save_model(g))
        seq = encode_corpus(corpus, HIERARCHICAL)[0]
        for k in range(len(seq)):
            a, b = g.conditional(seq[:k]), g2.conditional(seq[:k])
            if g.config.smoothing == 0.0 and g.total_symbols == 0:
                continue
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_model_save_deterministic():
    g = tiny_grammar()
    assert save_model(g) == save_model(g)


def test_smoothing_changeable_after_load():
    g = tiny_grammar(smoothing=0.5)
    loaded = load_model(save_model(g))
    resmoothed = PatternGrammar.from_counts(
        loaded.scheme, replace(loaded.config, smoothing=2.0), loaded.iter_counts()
    )
    vec = resmoothed.conditional([])
    counts = dict(loaded.iter_counts())[()]
    total = sum(counts.values())
    expected = (counts.get(loaded.scheme.alphabet[0], 0) + 2.0) / (total + 2.0 * 13)
    assert vec[0] == pytest.approx(expected, abs=1e-15)


def test_model_version_rejected():
    text = save_model(tiny_grammar()).replace("tonoseg-model v1", "tonoseg-model v2")
    with pytest.raises(VersionError):
        load_model(text)


def test_model_truncated_rejected():
    text = save_model(tiny_grammar())
    with pytest.raises(CorruptModelError):
        load_model("\n".join(text.splitlines()[:2]) + "\n")
    # node line with too few numbers
    lines = text.splitlines()
    lines[3] = " ".join(lines[3].split()[:-1])
    with pytest.raises(CorruptModelError):
        load_model("\n".join(lines) + "\n")


def test_model_unknown_scheme_rejected():
    text = save_model(tiny_grammar()).replace("scheme hierprom", "scheme mystery")
    with pytest.raises(SchemeMismatchError) as exc:
        load_model(text)
    assert str(exc.value) == f"unknown scheme 'mystery' (known: {', '.join(scheme_ids())})"


def test_model_expected_scheme_mismatch():
    text = save_model(tiny_grammar())
    with pytest.raises(SchemeMismatchError):
        load_model(text, expected_scheme="hier")
    assert load_model(text, expected_scheme="hierprom").scheme is HIERARCHY_PROMINENCE


@pytest.mark.parametrize(
    "line, fault",
    [
        (1, "bad scheme line 'scheme'"),
        (1, "bad scheme line 'scheme hier extra'"),
        (1, "bad scheme line 'schema hier'"),
        (2, "bad config line 'config 3 1'"),
        (2, "bad config line 'configs 3 1 0.5'"),
    ],
)
def test_model_bad_header_lines(line, fault):
    lines = save_model(tiny_grammar()).splitlines()
    lines[line] = fault.split("'")[1]
    with pytest.raises(CorruptModelError, match=f"^{fault}$"):
        load_model("\n".join(lines) + "\n")


def test_model_corrupt_counts():
    text = save_model(tiny_grammar())
    with pytest.raises(CorruptModelError):
        load_model(text.replace(" 1", " -1", 1))
    with pytest.raises(CorruptModelError):
        load_model(text.replace(" 1", " x", 1))
    # the replacements above hit the config line; this one a node's count
    lines = text.splitlines()
    lines[3] = lines[3].rsplit(" ", 1)[0] + " -1"
    with pytest.raises(CorruptModelError, match="negative count"):
        load_model("\n".join(lines) + "\n")


def test_model_count_errors_name_line_and_tokens():
    text = save_model(train(encode_corpus(random_corpus(random.Random(3), 4), HIERARCHICAL),
                            HIERARCHICAL, TrainConfig(2, 1, 0.5)))
    lines = text.splitlines()
    lines[3] = lines[3].rsplit(" ", 1)[0] + " -1"  # the root's count of ")"
    with pytest.raises(CorruptModelError) as exc:
        load_model("\n".join(lines) + "\n")
    assert str(exc.value) == "line 4: negative count for ')' in context '.'"
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines[3:], 3) if line.startswith(") ( "))
    with pytest.raises(CorruptModelError) as exc:
        load_model("\n".join(lines + [lines[k]]) + "\n")
    assert str(exc.value) == f"line {len(lines) + 1}: duplicate context ') ('"
    with pytest.raises(CorruptModelError) as exc:
        load_model("\n".join(lines[:4] + [lines[k]]) + "\n")
    assert str(exc.value).startswith("line 5: context ') (' lacks its suffix")


def test_model_unknown_context_token():
    text = save_model(tiny_grammar())
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines[3:], 3) if not line.startswith(". "))
    lines[k] = "t " + lines[k].split(" ", 1)[1]
    with pytest.raises(CorruptModelError, match=f"^line {k + 1}: token 't'"):
        load_model("\n".join(lines) + "\n")


def test_model_missing_root():
    text = save_model(tiny_grammar())
    lines = [l for l in text.splitlines() if not l.startswith(". ")]
    with pytest.raises(CorruptModelError):
        load_model("\n".join(lines) + "\n")


def test_model_golden_round_trip():
    # Every pinned model file loads and saves back byte for byte, and the
    # keyed rows of load_model equal those of from_counts.
    def nodes(grammar):
        return [(key, node.counts, node.total) for key, node in grammar._nodes.items()]

    for case in json.loads(MODEL_GOLDEN.read_text())["cases"]:
        g = load_model(case["model"])
        assert save_model(g) == case["model"]
        assert nodes(g) == nodes(PatternGrammar.from_counts(g.scheme, g.config, g.iter_counts()))


def test_model_bad_rows_rejected():
    head = "tonoseg-model v1\nscheme flat\nconfig 1 1 0.5\n"
    zeros = " 0" * 10
    for rows, message in (
        # a repeated context fails even when its first copy counts nothing
        (f".{zeros}\nH{zeros}\nH 1 2{zeros[4:]}\n", "line 6: duplicate context 'H'"),
        (f".{zeros}\n. 1 2{zeros[4:]}\n", "line 5: duplicate context '.'"),
        (f".{zeros}\nH{zeros}\nH H{zeros}\n", "line 6: context 'H H' longer than max_depth=1"),
        (f"H{zeros}\n.{zeros}\n", "document has no root node"),
        (f".{zeros}\nH{zeros[2:]}\n", "line 5: node line needs context plus 10 counts"),
    ):
        with pytest.raises(CorruptModelError) as exc:
            load_model(head + rows)
        assert str(exc.value) == message


def test_model_shared_token_names_first_symbol(monkeypatch):
    monkeypatch.setattr(core, "_SCHEME_REGISTRY", dict(core._SCHEME_REGISTRY))
    core.register_scheme(core.EncodingScheme("toy-shared", (1, "1")))
    g = load_model("tonoseg-model v1\nscheme toy-shared\nconfig 1 1 0.5\n. 1 1\n1 2 0\n")
    assert list(g.iter_counts()) == [((), {1: 1, "1": 1}), ((1,), {1: 2})]


def test_model_tokens_named_like_root_or_comment(monkeypatch):
    # Under a scheme with the tokens ".", "#a" and "c\xa0d", a row "." is the
    # root again, a row "#a" a comment line and "c\xa0d" two tokens.
    monkeypatch.setattr(core, "_SCHEME_REGISTRY", dict(core._SCHEME_REGISTRY))
    core.register_scheme(core.EncodingScheme("toy-dot", (".", "#a", "c\xa0d")))
    head = "tonoseg-model v1\nscheme toy-dot\nconfig 1 1 0.5\n. 1 1 1\n"
    assert list(load_model(head + "#a 2 0 0\n").iter_counts()) == [((), {".": 1, "#a": 1, "c\xa0d": 1})]
    for row, message in (
        (". 2 0 0", r"duplicate context '\.'"),
        ("c\xa0d 2 0 0", "token 'c' is not a symbol of scheme 'toy-dot'"),
    ):
        with pytest.raises(CorruptModelError, match=rf"^line 5: {message}$"):
            load_model(f"{head}{row}\n")


def test_model_first_fault_in_line_order():
    # A negative count on an early row and an unknown token on a later one:
    # the row read first is reported.
    lines = save_model(tiny_grammar()).splitlines()
    lines[4] = lines[4].rsplit(" ", 1)[0] + " -1"
    lines[-1] = "t " + lines[-1].split(" ", 1)[1]
    with pytest.raises(CorruptModelError) as exc:
        load_model("\n".join(lines) + "\n")
    assert str(exc.value).startswith("line 5: negative count for ")


# All eight tones, words of 2-5 tones, two word-final cues.  A depth-8,
# min-count-1 grammar trained on it holds many contexts seen once, whose
# rows count one successor once: most rows repeat another row.
DEEP = PlantedGrammar(
    word_lengths=((2, 0.2), (3, 0.3), (4, 0.3), (5, 0.2)),
    interior_tones=tuple(
        (Tone(k), p) for k, p in (("T", 0.15), ("M", 0.2), ("B", 0.15), ("H", 0.2), ("S", 0.15), ("U", 0.15))
    ),
    final_tones=((Tone.LOWER, 0.6), (Tone.DOWNSTEP, 0.4)),
    turn_lengths=((2, 0.3), (3, 0.4), (4, 0.3)),
    prominence=0.1,
    seed=7,
)


@pytest.fixture(scope="module")
def deep_model():
    corpus = sample_corpus(DEEP, 500, seed=7)
    return save_model(train(encode_corpus(corpus, HIERARCHICAL), HIERARCHICAL, TrainConfig(8, 1, 0.5)))


def test_model_equal_rows_share_one_node(deep_model):
    g = load_model(deep_model)
    size = g.scheme.size
    rows = {tuple(line.split()[-size:]) for line in deep_model.splitlines()[3:]}
    assert len({id(node) for node in g._nodes.values()}) == len(rows) < g.node_count // 2
    before = [(key, node.counts[:], node.total) for key, node in g._nodes.items()]
    heldout = sample_corpus(DEEP, 200, seed=8)
    sequences = encode_corpus(heldout, HIERARCHICAL)
    for seq in sequences:
        g.sequence_log_probability(seq)
    model_entropy(g, sequences)
    for t in heldout.turns[:20]:
        segment_turn(g, t.tone_stream(), HIERARCHICAL)
    list(g.iter_counts())
    assert save_model(g) == deep_model
    assert [(key, node.counts, node.total) for key, node in g._nodes.items()] == before


def test_model_rows_out_of_depth_first_order(deep_model):
    # Rows breadth first, with a comment line, a blank line and a
    # tab-separated row.  Most rows' suffix is not the latest row of its
    # length, so they go the row-by-row route, which must still share
    # equal rows.  Depth first, rows whose counts are spaced oddly must
    # share them too.
    head, rows = deep_model.splitlines()[:3], deep_model.splitlines()[3:]
    size = HIERARCHICAL.size
    counts = {tuple(row.split()[-size:]) for row in rows}
    wide = rows[:]
    for i in range(1, len(wide), 97):
        context, _, last = wide[i].rpartition(" ")
        wide[i] = f"{context} \t{last}"
    rows.sort(key=lambda row: 0 if row.startswith(". ") else len(row.split()))
    rows[len(rows) // 2] = rows[len(rows) // 2].replace(" ", "\t")
    rows[100:100] = ["# breadth first", ""]
    for body in (rows, wide):
        g = load_model("\n".join(head + body) + "\n")
        assert save_model(g) == deep_model
        assert len({id(node) for node in g._nodes.values()}) == len(counts)


def traced_load(loader, text):
    """(bytes held after the load, peak bytes during it, node count)."""
    tracemalloc.start()
    try:
        grammar = loader(text)
        return (*tracemalloc.get_traced_memory(), grammar.node_count)
    finally:
        tracemalloc.stop()


def test_model_load_peak_at_most_70_percent_of_per_line(deep_model):
    _, peak, _ = traced_load(load_model, deep_model)
    _, per_line, _ = traced_load(load_model_per_line, deep_model)
    assert peak <= 0.7 * per_line


def test_model_load_retains_at_most_55_percent_of_per_line(deep_model):
    # Both loaders build the same dict of keys; sharing the nodes of equal
    # rows is what the bytes still held after the load show.
    shared, per_line = traced_load(load_model, deep_model), traced_load(load_model_per_line, deep_model)
    assert shared[2] == per_line[2]
    assert shared[0] <= 0.55 * per_line[0]


# -- segmentation files ------------------------------------------------


def test_segmentation_round_trip():
    results = [
        SegmentationResult((WordSpan(0, 2, False), WordSpan(2, 3, True)), -1.5),
        SegmentationResult((WordSpan(0, 1, False),), -0.5),
    ]
    text = serialize_segmentation(results)
    assert text == "0-2 2-3*\n0-1\n"
    parsed = parse_segmentation(text)
    assert [r.spans for r in parsed] == [r.spans for r in results]


def test_segmentation_bad_token():
    # The first bad token on the line is reported, even after a tiling
    # break, at its column counted in characters.
    huge = "9" * 5000  # past int's default digit limit of 4300
    for line, token, column in [
        ("0-2 oops", "oops", 5),
        ("0-1 x 1-2 x", "x", 5),
        ("0-2 3-4 oops", "oops", 9),
        ("0-1\u30001-x", "1-x", 5),
        (f"0-1 1-{huge}", f"1-{huge}", 5),
    ]:
        with pytest.raises(SegmentationFormatError) as exc:
            parse_segmentation(f"0-1\n{line}\n")
        assert str(exc.value) == f"line 2, column {column}: bad span token {token!r}"
        assert (exc.value.line, exc.value.column) == (2, column)


def test_segmentation_bad_tiling():
    with pytest.raises(SegmentationFormatError):
        parse_segmentation("0-2 3-4\n")
