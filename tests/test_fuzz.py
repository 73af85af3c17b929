"""Fuzz and round-trip tests of the file readers and the symbol decoder.

Mutated copies of valid documents (saved models, corpus files,
segmentation files, planted-grammar specs) may only raise
``TonosegError``; whatever they parse to must write and read back
unchanged.  ``load_model``, which reads rows written depth first with
single spaces on a fast path and builds each distinct row once, agrees
with the per-line reference loader on every mutated model, including
rows with odd whitespace, comment and blank lines between rows, and rows
moved past their own subtree's rows.  The corpus
parser's fast path for turn lines agrees with the token-by-token parser
that reports errors, and the segmentation reader agrees with a
token-by-token reference parser.
Random corpora and segmentations survive a write and a read.
``decode_turn`` accepts exactly what ``encode_turn`` produces.
The saved models are the pinned ones of ``fixtures/model_golden.json``
(four schemes, depth 0-8).  Runs are derandomized so the suite repeats
exactly.
"""

import json
import math
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tonoseg import formats
from tonoseg.core import (
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    HIERARCHY_PROMINENCE_TONES,
    Corpus,
    DecodeError,
    ProsodicWord,
    TonosegError,
    Turn,
    decode_turn,
    encode_turn,
    get_scheme,
)
from tonoseg.formats import (
    _parse_turn_line,
    _read_turn_line,
    load_model,
    parse_corpus,
    parse_segmentation,
    save_model,
    serialize_corpus,
    serialize_segmentation,
)
from tonoseg.grammar import model_entropy
from tonoseg.segment import SegmentationResult, WordSpan, segment_turn
from tonoseg.synth import PlantedGrammar
from helpers import TONES, load_model_per_line, parse_segmentation_per_token

FUZZ = settings(max_examples=500, deadline=None, derandomize=True, database=None)
FUZZ_FAST = settings(FUZZ, max_examples=200)
MODELS = [
    case["model"]
    for case in json.loads((Path(__file__).parent / "fixtures" / "model_golden.json").read_text())["cases"]
]
# Values for the config line's depth, min count and smoothing.
CONFIG_VALUES = (
    ("0", "1", "2", "64", "65", "100000", "-1", "x"),
    ("0", "1", "3", "-1", "x"),
    ("0", "5e-324", "0.1", "2.0", "1e300", "1e308", "-0.5", "nan", "inf", "x"),
)


@st.composite
def mutated_models(draw):
    lines = draw(st.sampled_from(MODELS)).splitlines()
    scheme = get_scheme(lines[1].split()[1])
    tokens = [str(sym) for sym in scheme.alphabet]
    config = lines[2].split()
    for field, values in enumerate(CONFIG_VALUES, 1):
        if draw(st.booleans()):
            config[field] = draw(st.sampled_from(values))
    lines[2] = " ".join(config)
    for _ in range(draw(st.integers(0, 3))):
        if len(lines) == 3:  # every row dropped
            break
        rows = st.sampled_from(range(3, len(lines)))
        i = draw(rows)
        kind = draw(
            st.sampled_from(
                ["token", "count", "drop", "duplicate", "swap", "copy", "space", "comment", "subtree"]
            )
        )
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(rows), lines[i])
        elif kind == "swap":
            k = draw(rows)
            lines[i], lines[k] = lines[k], lines[i]
        elif kind == "copy":  # another row's count tokens onto this row
            n, other = scheme.size, lines[draw(rows)].split()
            lines[i] = " ".join(lines[i].split()[:-n] + other[-n:])
        elif kind == "space":  # a doubled space, a tab, a leading or trailing space
            line = lines[i]
            spaces = [j for j, c in enumerate(line) if c == " "]
            how = draw(st.sampled_from(["double", "tab", "lead", "trail"] if spaces else ["lead", "trail"]))
            if how == "lead":
                lines[i] = " " + line
            elif how == "trail":
                lines[i] = line + " "
            else:
                j = draw(st.sampled_from(spaces))
                lines[i] = line[:j] + ("  " if how == "double" else "\t") + line[j + 1 :]
        elif kind == "comment":  # a comment or blank line between rows
            lines.insert(draw(rows), draw(st.sampled_from(["# " + lines[i], "#", "", "  "])))
        elif kind == "subtree":  # the row moved to just before a row that extends its context
            n = scheme.size
            tail = lines[i].split()[:-n]
            tail = [] if tail == ["."] else tail
            below = [
                k
                for k in range(3, len(lines))
                if len(context := lines[k].split()[:-n]) > len(tail)
                and context != ["."]
                and context[len(context) - len(tail) :] == tail
            ]
            if below:
                k = draw(st.sampled_from(below))
                lines.insert(k - (k > i), lines.pop(i))
        else:
            row = lines[i].split()
            if len(row) <= scheme.size:  # not a row: a blank line or a bare '#'
                continue
            if kind == "token":
                j = draw(st.integers(0, len(row) - scheme.size - 1))
                row[j] = draw(st.sampled_from(tokens + [".", "?", "H*"]))
            else:
                j = draw(st.integers(len(row) - scheme.size, len(row) - 1))
                row[j] = draw(st.sampled_from(["-1", "x", str(10**400)]))
            lines[i] = " ".join(row)
    return "\n".join(lines) + "\n"


@FUZZ
@given(mutated_models())
def test_load_model_raises_only_tonoseg_errors(text):
    try:
        grammar = load_model(text)
    except TonosegError:
        return
    saved = save_model(grammar)
    assert save_model(load_model(saved)) == saved
    scheme = grammar.scheme
    for score in (
        lambda: grammar.sequence_log_probability(scheme.alphabet * 2),
        lambda: model_entropy(grammar, [scheme.alphabet * 2]),
        lambda: segment_turn(grammar, TONES[:5], scheme),
    ):
        try:
            score()
        except TonosegError:
            pass


@FUZZ
@given(mutated_models())
def test_load_model_agrees_with_per_line_reference(text):
    # The same grammar (compared by its saved text) or the same error.
    def load(loader):
        try:
            return save_model(loader(text))
        except TonosegError as err:
            return type(err), str(err)

    assert load(load_model) == load(load_model_per_line)


# -- text documents ------------------------------------------------------

# Every character at which str.splitlines breaks a line, and other
# whitespace the tokenizer splits at.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
SPACES = " \t\x1f\xa0\u3000"


def text_with(*extra):
    """Unicode text, with the given characters drawn often."""
    return st.text(st.one_of(st.characters(), st.sampled_from("".join(extra))), max_size=8)


@st.composite
def mutated_text(draw, documents, alphabet):
    """A document with a few characters inserted, deleted or replaced,
    and a few lines dropped, duplicated or swapped."""
    text = draw(st.sampled_from(documents))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(alphabet))
        if kind == "insert":
            text = text[:i] + char + text[i:]
        else:
            text = text[:i] + (char if kind == "replace" else "") + text[i + 1 :]
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 2))):
        i, k = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(k, lines[i])
        else:
            lines[i], lines[k] = lines[k], lines[i]
    return "\n".join(lines)


words = st.builds(ProsodicWord, st.lists(st.sampled_from(TONES), min_size=1, max_size=4), st.booleans())
turns = st.builds(Turn, st.lists(words, min_size=1, max_size=4))
corpora = st.builds(
    Corpus,
    st.lists(turns, max_size=4),
    st.dictionaries(text_with(SPACES, "@#"), text_with(SPACES, LINE_BREAKS), max_size=3),
)
CORPUS_DOCUMENTS = [
    (Path(__file__).parent / "fixtures" / "planted_cue_200w.txt").read_text()[:400],
    "tonoseg-corpus v1\n# comment\n@speaker f01\n@note two words\n( U S ) *( T D )\n",
]


@FUZZ_FAST
@given(corpora)
def test_corpus_round_trip(corpus):
    def one_line(value):
        return value == value.strip() and len(value.splitlines()) <= 1

    writable = all(
        key and not any(c.isspace() for c in key) and one_line(value)
        for key, value in corpus.metadata.items()
    )
    try:
        text = serialize_corpus(corpus)
    except TonosegError:
        assert not writable
        return
    assert parse_corpus(text) == corpus


@FUZZ_FAST
@given(mutated_text(CORPUS_DOCUMENTS, "TMBHSLUDh()*[]@# \n" + SPACES + LINE_BREAKS))
def test_parse_corpus_raises_only_tonoseg_errors(text):
    try:
        corpus = parse_corpus(text)
    except TonosegError:
        return
    assert parse_corpus(serialize_corpus(corpus)) == corpus


# Turn lines with tokens the fast path must hand on: ")" and "*(" glued
# to a letter, an empty word, and whitespace that is not a space; then
# the edges of its split at ")": an empty or blank piece, text after the
# last ")", a ")" glued on either side, and an ideographic space.
TURN_DOCUMENTS = [
    "( U S ) *( T D )\n*( T H L ) ( U L ) ( L )\n( T H L ) ( L )",
    "( H L) *(T L ) ( H L )\n*( H )( L )\n( ) ( L )\n*( H L ) ( )",
    "\t( T\x0bL )\x1c*(\u3000H L ) \n( U\tU )\x0b( D )",
    "( T ))\n( T )x\n( T ) x\n)( L )\n( T L)( H )\n( T )\u3000*( L )\n( T ) )",
]
TURN_CHARACTERS = "TMBHLUDh()*@# \n\t\x0b\x1c\u3000"


@FUZZ
@given(mutated_text(TURN_DOCUMENTS, TURN_CHARACTERS))
def test_fast_turn_reader_agrees_with_parser(text):
    # Lines as parse_corpus sees them; one word memo, as in one parse_corpus
    # call.  The fast path reads every line the parser reads, and no other.
    words = {}
    for line in text.splitlines():
        fast = _read_turn_line(line, words)
        try:
            slow = _parse_turn_line(line, 1)
        except TonosegError:
            assert fast is None
        else:
            assert fast == slow


@FUZZ
@given(mutated_text([formats.CORPUS_HEADER + "\n" + doc for doc in TURN_DOCUMENTS], TURN_CHARACTERS))
def test_parse_corpus_fast_path_keeps_errors(text):
    # With the fast path off, every line goes through _parse_turn_line.
    def parse():
        try:
            return parse_corpus(text)
        except TonosegError as err:
            return type(err), str(err)

    with mock.patch.object(formats, "_read_turn_line", lambda line, words: None):
        expected = parse()
    assert parse() == expected


@st.composite
def segmentations(draw):
    results = []
    for n_tones in draw(st.lists(st.integers(1, 12), max_size=4)):
        cuts = draw(st.sets(st.integers(1, n_tones - 1))) if n_tones > 1 else set()
        bounds = [0, *sorted(cuts), n_tones]
        spans = [WordSpan(a, b, draw(st.booleans())) for a, b in zip(bounds, bounds[1:])]
        results.append(SegmentationResult(spans, math.nan))
    return results


@FUZZ_FAST
@given(segmentations())
def test_segmentation_round_trip(results):
    parsed = parse_segmentation(serialize_segmentation(results))
    assert [r.spans for r in parsed] == [r.spans for r in results]


@FUZZ_FAST
@given(mutated_text(["0-2 2-3*\n0-1\n# c\n0-1* 1-4\n"], "0123456789-* \n#x" + SPACES + LINE_BREAKS))
def test_parse_segmentation_raises_only_tonoseg_errors(text):
    try:
        results = parse_segmentation(text)
    except TonosegError:
        return
    again = parse_segmentation(serialize_segmentation(results))
    assert [r.spans for r in again] == [r.spans for r in results]


# Segmentation lines with spans that do not tile ("3-3", "2-1", a gap, an
# overlap), Unicode digits, and a bound past int's digit limit; the tokens
# sit between whitespace that is not a space.
SEGMENTATION_DOCUMENTS = [
    "0-2 2-3*\n0-1\n# c\n0-1* 1-4\n",
    "0-1 1-1 1-3\n3-3\n0-3 3-3*\n2-1\n0-2 1-3\n0-1 2-3\n1-2",
    "\u0660-\u0662 \u0662-3*\n0-\uff11 1-2\n0-2\t2-3\x1f3-4\xa04-5\u30005-6*\x0b6-7",
    "0-1 1-" + "2" * 4301 + "\n0-" + "9" * 4301 + "*\n0-1 1-2",
]
SEGMENTATION_CHARACTERS = "0123456789-*#x\u0663\u0968\uff11 \n" + SPACES + LINE_BREAKS


def segmentation_outcome(parse, text):
    """The spans with NaN scores that ``parse`` reads, or the error it raises."""
    try:
        return [(r.spans, math.isnan(r.log_prob)) for r in parse(text)]
    except TonosegError as err:
        return type(err), str(err), err.line, err.column


@FUZZ
@given(mutated_text(SEGMENTATION_DOCUMENTS, SEGMENTATION_CHARACTERS))
def test_fast_segmentation_reader_agrees_with_parser(text):
    # The lines the per-token reference accepts, read in one call (one span
    # memo), so that the lines after a document's first error are compared too.
    accepted = "\n".join(
        line
        for line in text.splitlines()
        if isinstance(segmentation_outcome(parse_segmentation_per_token, line), list)
    )
    assert segmentation_outcome(parse_segmentation, accepted) == segmentation_outcome(
        parse_segmentation_per_token, accepted
    )


@FUZZ
@given(mutated_text(SEGMENTATION_DOCUMENTS, SEGMENTATION_CHARACTERS))
def test_parse_segmentation_fast_path_keeps_errors(text):
    # The one-loop reader raises what the per-token reference raises: the
    # same type, message, line and column, or the same spans.
    assert segmentation_outcome(parse_segmentation, text) == segmentation_outcome(
        parse_segmentation_per_token, text
    )


SPEC = (Path(__file__).parent.parent / "demos" / "planted_example.json").read_text()
SPEC_VALUES = (
    "NaN", "Infinity", "-Infinity", "-0.5", "0", "1", "1.0", "1e308", "5e-324", "1e400",
    '"x"', '"1"', "[]", "{}", "null", "true", '{"1": 1.0}', '{"1": NaN}', '{"L": 0.5, "H": 0.5}',
)


@st.composite
def mutated_specs(draw):
    """The demo spec with a few values replaced, or its text mutated."""
    if draw(st.booleans()):
        return draw(mutated_text([SPEC], '{}[]:,."0123456789-eNaLHT \n'))
    spec = json.loads(SPEC)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(spec)))
        value = json.loads(draw(st.sampled_from(SPEC_VALUES)))
        if isinstance(spec[key], dict) and spec[key] and draw(st.booleans()):
            spec[key][draw(st.sampled_from(sorted(spec[key]) + ["4", "0", "X", "h"]))] = value
        elif draw(st.integers(0, 4)):  # else, one time in five, drop the key
            spec[key] = value
        else:
            del spec[key]
    return json.dumps(spec)


@FUZZ_FAST
@given(mutated_specs())
def test_spec_raises_only_tonoseg_errors(text):
    try:
        planted = PlantedGrammar.from_json(text)
    except TonosegError:
        return
    for dist in (planted.word_lengths, planted.interior_tones, planted.final_tones, planted.turn_lengths):
        assert all(math.isfinite(p) and p >= 0 for _, p in dist)
        assert abs(sum(p for _, p in dist) - 1.0) <= 1e-9
    assert 0.0 <= planted.prominence <= 1.0
    assert PlantedGrammar.from_json(planted.to_json()) == planted


# -- the symbol decoder --------------------------------------------------

WORD_MARKING = (HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES)
# Symbols every scheme may meet: plain strings equal to symbols, and values
# equal to none.
STRAY = ("h", "H", "(", "*(", ")", "[", "]", "x", "", None, 0, 1.5, ("(",), ["("])


@st.composite
def symbol_lists(draw):
    """A random list over a scheme's alphabet and stray symbols, or a valid
    encoding with a few symbols inserted, deleted or replaced."""
    scheme = draw(st.sampled_from(WORD_MARKING))
    symbol = st.sampled_from(scheme.alphabet + STRAY)
    if draw(st.booleans()):
        return scheme, draw(st.lists(symbol, max_size=12))
    symbols = encode_turn(draw(turns), scheme)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(symbols)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            symbols.insert(i, draw(symbol))
        elif i < len(symbols):
            symbols[i : i + 1] = [draw(symbol)] if kind == "replace" else []
    return scheme, symbols


@FUZZ_FAST
@given(symbol_lists())
def test_decode_accepts_exactly_encodings(case):
    scheme, symbols = case
    try:
        decoded = decode_turn(symbols, scheme)
    except DecodeError as err:
        assert 0 <= err.index <= len(symbols)
        return
    assert encode_turn(decoded, scheme) == symbols
