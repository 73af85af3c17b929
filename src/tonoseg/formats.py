"""Text formats: corpus files, model files, segmentation files.

All formats are line oriented, UTF-8, with ``#`` comment lines ignored.
Corpus files open with ``tonoseg-corpus v1`` and hold one turn per
line, each word bracketed and prominent words starred::

    tonoseg-corpus v1
    @speaker f01
    ( U S ) *( T D )

Model files open with ``tonoseg-model v1``, then the scheme id, the
training configuration, and one line per retained context: its
symbols (``.`` for the root) followed by the successor counts in
alphabet order.  Segmentation files carry one turn per line as
``start-end`` spans, ``*``-suffixed when prominent.  Corpus turn lines
and segmentation lines have one parser each; a turn line that the
parser rejects is walked token by token only to find its error.
"""

from __future__ import annotations

import math
import re

from .core import (
    Corpus,
    EmptyWordError,
    PositionedError,
    ProsodicWord,
    Tone,
    TonosegError,
    Turn,
    UnknownSchemeError,
    UnknownToneError,
    get_scheme,
)
from .grammar import PatternGrammar, TrainConfig, _Node
from .segment import SegmentationResult, WordSpan

CORPUS_HEADER = "tonoseg-corpus v1"
MODEL_HEADER = "tonoseg-model v1"


class CorpusFormatError(PositionedError):
    """Base for positioned corpus-file errors."""


class VersionError(CorpusFormatError):
    """Missing or unrecognized format header."""


class NestingError(CorpusFormatError):
    """Brackets do not nest into turn > word > tones."""


class SegmentationFormatError(PositionedError):
    """Malformed segmentation file."""


class ModelFormatError(TonosegError):
    """Base for model-file errors."""


class CorruptModelError(ModelFormatError):
    """Model document truncated or internally inconsistent."""


class SchemeMismatchError(ModelFormatError):
    """Model scheme id unknown or different from the one requested."""


_TOKEN = re.compile(r"\S+")
_TONE_OF = {t.value: t for t in Tone}


def _drop_comments(numbered):
    """The (line_no, line) pairs of ``numbered`` whose line is neither
    blank nor a comment (first non-space character ``#``)."""
    for i, line in numbered:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield i, line


def parse_corpus(text: str) -> Corpus:
    """Parse a corpus document; the first error is reported with its
    1-based line and column.

    A line after the header goes first to ``_read_turn_line``, the one
    turn-line parser, which splits it at ``)`` once and builds each
    distinct piece's word once per call; words and turns are frozen, so
    turns share words, and equal turn lines share one turn: each
    distinct line the reader accepts is read once per call.  Only a line
    it rejects is tested for a blank, a comment or ``@`` metadata (a
    line it accepts starts with ``(`` or ``*(``); for any other,
    ``_turn_line_error`` finds the error to raise."""
    numbered = enumerate(text.splitlines(), start=1)
    try:
        line_no, header = next(_drop_comments(numbered))
    except StopIteration:
        raise VersionError(f"missing header {CORPUS_HEADER!r}", 1, 1) from None
    if header.strip() != CORPUS_HEADER:
        raise VersionError(f"expected header {CORPUS_HEADER!r}, got {header.strip()!r}", line_no, 1)

    turns = []
    metadata: dict = {}
    words: dict[str, ProsodicWord] = {}  # a word's piece of a line -> the word
    read: dict[str, Turn] = {}  # an accepted turn line -> its turn
    for line_no, line in numbered:
        turn = read.get(line) or _read_turn_line(line, words)
        if turn is not None:
            turns.append(turn)
            read[line] = turn
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("@"):
            body = stripped[1:]
            if not body[:1].strip():
                raise CorpusFormatError("metadata line has no key", line_no, 1)
            key, *value = body.split(maxsplit=1)  # at any whitespace, as the tokenizer
            metadata[key] = value[0] if value else ""
            continue
        raise _turn_line_error(line, line_no)
    return Corpus(tuple(turns), metadata)


def _read_turn_line(line: str, words: dict) -> Turn | None:
    """The turn of a well-formed line, or None.

    ``" " + line`` is split at ``)``.  Every piece but the last must be
    a word: whitespace at both ends, so each ``)`` is a token of its
    own, and an opener and at least one tone letter as its tokens.  The
    last piece must be blank.  ``words`` maps each word's piece read so
    far to the word; the leading space makes a line's first piece look
    like the others."""
    *pieces, rest = (" " + line).split(")")
    if not pieces or rest and not rest.isspace():
        return None
    turn = []
    for piece in pieces:
        word = words.get(piece)
        if word is None:
            if not (piece[:1].isspace() and piece[-1:].isspace()):
                return None
            tokens = piece.split()
            tones = tuple(map(_TONE_OF.get, tokens[1:]))
            if not tones or None in tones or tokens[0] not in ("(", "*("):
                return None
            word = words[piece] = ProsodicWord(tones, tokens[0] == "*(")
        turn.append(word)
    return Turn._of(tuple(turn))


def _turn_line_error(line: str, line_no: int) -> PositionedError:
    """The first error, found token by token, of a turn line that
    ``_read_turn_line`` rejects; a line without one is a bug of the reader."""
    in_word = has_tones = False
    for m in _TOKEN.finditer(line):
        token, col = m[0], m.start() + 1
        if token in ("(", "*("):
            if in_word:
                return NestingError("word opened inside a word", line_no, col)
            in_word, has_tones = True, False
        elif token == ")":
            if not in_word:
                return NestingError("')' without matching open", line_no, col)
            if not has_tones:
                return EmptyWordError("word contains no tones", line_no, col)
            in_word = False
        elif in_word:
            if token not in _TONE_OF:
                return UnknownToneError(f"unknown tone letter {token!r}", line_no, col)
            has_tones = True
        else:
            return NestingError(f"token {token!r} outside a word", line_no, col)
    if in_word:
        return NestingError("unclosed word at end of line", line_no, len(line))
    raise RuntimeError(f"line {line_no}: turn line {line!r} was rejected but holds no error")


def serialize_corpus(corpus: Corpus) -> str:
    """Deterministic inverse of ``parse_corpus``: metadata sorted by key,
    one turn per line."""
    out = [CORPUS_HEADER]
    for key in sorted(corpus.metadata):
        value = corpus.metadata[key]
        if not re.fullmatch(r"\S+", key):
            raise TonosegError(f"metadata key {key!r} must be a single token")
        if len(value.splitlines()) > 1 or value != value.strip():
            raise TonosegError(f"metadata value for {key!r} must be a single trimmed line")
        out.append(f"@{key} {value}".rstrip())
    # A word's id -> its text.  Turns share word objects, and the corpus
    # keeps each alive for the whole call, so an id is never reused here.
    texts: dict[int, str] = {}
    for turn in corpus.turns:
        words = []
        for w in turn.words:
            text = texts.get(id(w))
            if text is None:
                opener = "*(" if w.prominent else "("
                text = texts[id(w)] = f"{opener} {' '.join(str(t) for t in w.tones)} )"
            words.append(text)
        out.append(" ".join(words))
    return "\n".join(out) + "\n"


def save_model(grammar: PatternGrammar) -> str:
    """Serialize a grammar with raw counts; smoothing applies on load.

    Raises ``TonosegError`` for a scheme whose file ``load_model`` would
    read back as another grammar, or not at all: a scheme id that is
    empty or holds whitespace, a symbol token (``str`` of the symbol)
    that is empty, holds whitespace, is ``.`` or starts with ``#``, or
    a token shared by two symbols."""
    scheme, cfg = grammar.scheme, grammar.config
    if str(scheme.scheme_id).split() != [scheme.scheme_id]:
        raise TonosegError(f"scheme id {scheme.scheme_id!r} cannot be written: it must be one token")
    tokens = [str(s) for s in scheme.alphabet]
    for i, token in enumerate(tokens):
        if token.split() != [token] or token == "." or token.startswith("#"):
            raise TonosegError(
                f"symbol token {token!r} of scheme {scheme.scheme_id!r} cannot be written: "
                "it must be one token, not '.' and not starting with '#'"
            )
        if token in tokens[:i]:
            raise TonosegError(f"symbol token {token!r} of scheme {scheme.scheme_id!r} names two symbols")
    out = [
        MODEL_HEADER,
        f"scheme {scheme.scheme_id}",
        f"config {cfg.max_depth} {cfg.min_count} {cfg.smoothing!r}",
    ]
    # A context's text is its oldest symbol's token, a space, then its
    # one-shorter suffix's text; the root's is empty and written ".".
    # Contexts with equal counts share one counts list, so each list's
    # text is built once, keyed by its id: the grammar keeps every list
    # alive for the whole call, so an id is never reused here.
    rows: dict[int, str] = {}
    for text, counts in grammar._walk([f"{t} " for t in tokens], ""):
        row = rows.get(id(counts))
        if row is None:
            row = rows[id(counts)] = " ".join(map(str, counts))
        out.append(f"{text or '. '}{row}")
    return "\n".join(out) + "\n"


def load_model(text: str, expected_scheme: str | None = None) -> PatternGrammar:
    """Rebuild a grammar from ``save_model`` output.

    ``expected_scheme`` pins the scheme id the caller requires; a
    different id in the document raises ``SchemeMismatchError``.

    A row as ``save_model`` writes it (single spaces, its one-shorter
    suffix the latest row of that length, as a depth-first walk gives)
    takes a fast path: its key is its first token's digit on top of the
    suffix's key, and it needs no other check.  Any other row, and any
    row that fails a check, goes through the row-by-row reader, which
    reports the error with its line.  A file written in another
    suffix-closed order loads to the same grammar, only slower.

    Rows with equal counts text share one node (one counts list), as
    equal rows do in every grammar (see ``grammar._Node``).
    """
    # The header lines come through ``lines``; the rows straight from ``numbered``.
    numbered = enumerate(text.splitlines(), start=1)
    lines = _drop_comments(numbered)

    def next_line(what):
        try:
            return next(lines)
        except StopIteration:
            raise CorruptModelError(f"document truncated: missing {what}") from None

    line_no, header = next_line("header")
    if header.strip() != MODEL_HEADER:
        raise VersionError(f"expected header {MODEL_HEADER!r}, got {header.strip()!r}", line_no, 1)

    _, scheme_line = next_line("scheme line")
    parts = scheme_line.split()
    if len(parts) != 2 or parts[0] != "scheme":
        raise CorruptModelError(f"bad scheme line {scheme_line.strip()!r}")
    scheme_id = parts[1]
    if expected_scheme is not None and scheme_id != expected_scheme:
        raise SchemeMismatchError(f"model scheme {scheme_id!r}, expected {expected_scheme!r}")
    try:
        scheme = get_scheme(scheme_id)
    except UnknownSchemeError as err:
        raise SchemeMismatchError(err.args[0]) from None

    _, config_line = next_line("config line")
    parts = config_line.split()
    if len(parts) != 4 or parts[0] != "config":
        raise CorruptModelError(f"bad config line {config_line.strip()!r}")
    try:
        grammar = PatternGrammar(scheme, TrainConfig(int(parts[1]), int(parts[2]), float(parts[3])))
    except (ValueError, TonosegError) as err:
        raise CorruptModelError(f"bad config values: {err}") from None

    # A token's digit is its symbol's; reversed, so a token shared by two names the first.
    n, base, nodes, powers = scheme.size, scheme.size + 1, grammar._nodes, grammar._powers
    depth = grammar.config.max_depth
    digits = {str(s): d for d, s in reversed(list(enumerate(scheme.alphabet, 1)))}
    # The tokens that can open a row of the fast path: not the root, a comment or split apart.
    firsts = {t: d for t, d in digits.items() if t != "." and t[:1] != "#" and t.split() == [t]}
    nodes.clear()  # the rows bring every node, the root first
    # texts[L] and keys[L]: the context text (tokens joined by single
    # spaces) and key of the latest row stored with L symbols.
    texts: list[str | None] = [None] * (depth + 1)
    keys = [0] * (depth + 1)
    # A row's counts text -> the node built and checked where it first
    # occurred.  Deep contexts repeat a few rows, and a row's count checks
    # depend on its counts only, so a repeat skips them and shares the node.
    seen: dict[str, _Node] = {}
    for line_no, line in numbered:
        parts = line.rsplit(" ", n)
        first, _, suffix = parts[0].partition(" ")
        length = suffix.count(" ") + 1 if suffix else 0
        # The fast path: a new context no deeper than max_depth whose suffix
        # is stored, so ``_check_context`` would pass.
        if length < depth and texts[length] == suffix and first in firsts:
            key = firsts[first] * powers[length] + keys[length]
            if key not in nodes:
                counts_text = line[len(parts[0]) + 1 :]
                node = seen.get(counts_text)
                if node is None and len(parts) > n and counts_text.split() == parts[1:]:
                    try:
                        node = seen[counts_text] = grammar._new_node(list(map(int, parts[1:])), ())
                    except (ValueError, TonosegError):
                        pass  # reported below, with the row's context
                if node is not None:
                    nodes[key] = node
                    texts[length + 1], keys[length + 1] = parts[0], key
                    continue
        # Every other row: its key from every token, then ``_check_context``.
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue  # a blank or comment line
        if len(tokens) < n + 1:
            raise CorruptModelError(f"line {line_no}: node line needs context plus {n} counts")
        counts_text = " ".join(tokens[-n:])
        node = seen.get(counts_text)
        if node is None:
            try:
                counts = list(map(int, tokens[-n:]))
            except ValueError:
                raise CorruptModelError(f"line {line_no}: non-integer count") from None
        context, key = tokens[:-n], 0
        if context == ["."]:
            context = []
        else:
            try:
                for token in context:
                    key = key * base + digits[token]
            except KeyError:
                raise CorruptModelError(
                    f"line {line_no}: token {token!r} is not a symbol of scheme {scheme_id!r}"
                ) from None
        if key and not nodes:
            break
        try:
            grammar._check_context(key, context)
            if node is None:
                node = seen[counts_text] = grammar._new_node(counts, context)
        except TonosegError as err:
            raise CorruptModelError(f"line {line_no}: {err}") from None
        nodes[key] = node
        texts[len(context)], keys[len(context)] = " ".join(context), key
    if not nodes:
        raise CorruptModelError("document has no root node")
    return grammar


_SPAN = re.compile(r"^(\d+)-(\d+)(\*?)$")


def serialize_segmentation(results) -> str:
    """One line per turn; each word as ``start-end``, ``*`` if prominent.

    Each distinct result object is formatted once per call
    (``segment_corpus`` gives equal streams one shared result)."""
    out = []
    # A result's id -> the result and its line.  The memo keeps each
    # result alive for the whole call, so an id is never reused here.
    lines: dict[int, tuple] = {}
    for r in results:
        done = lines.get(id(r))
        if done is None:
            text = " ".join(f"{s.start}-{s.end}{'*' if s.prominent else ''}" for s in r.spans)
            done = lines[id(r)] = r, text
        out.append(done[1])
    return "\n".join(out) + "\n" if out else ""


def parse_segmentation(text: str) -> list[SegmentationResult]:
    """Inverse of ``serialize_segmentation``; scores are not stored in the
    file, so results carry NaN log-probabilities.

    Each distinct line is read once per call, and equal lines share one
    result (results are immutable).  A line is split at whitespace once
    and read in one loop, which parses each distinct span token once per
    call (spans are immutable, so results share them) and tracks the
    tiling as it goes.  The first bad token on a line is reported at its
    column; a line whose tokens all parse but whose spans do not tile is
    reported at column 1."""
    results = []
    spans_of: dict[str, WordSpan] = {}  # a span token -> its span
    read: dict[str, SegmentationResult] = {}  # a line read -> its result
    for line_no, line in _drop_comments(enumerate(text.splitlines(), start=1)):
        result = read.get(line)
        if result is not None:
            results.append(result)
            continue
        spans = []
        pos = 0  # the end of the spans so far, or -1 once they fail to tile
        for token in line.split():
            span = spans_of.get(token)
            if span is None:
                sm = _SPAN.match(token)
                if sm is None:
                    raise _bad_span(token, line, line_no)
                try:
                    span = spans_of[token] = WordSpan(int(sm[1]), int(sm[2]), sm[3] == "*")
                except ValueError:  # a bound past int's digit limit
                    raise _bad_span(token, line, line_no) from None
            start, end, _ = span
            pos = end if start == pos < end else -1  # no span starts at -1
            spans.append(span)
        if pos < 0:
            try:  # the constructor's tiling check raises
                SegmentationResult(spans, math.nan)
            except TonosegError as err:
                raise SegmentationFormatError(str(err), line_no, 1) from None
        result = read[line] = SegmentationResult._of(tuple(spans), math.nan)
        results.append(result)
    return results


def _bad_span(token: str, line: str, line_no: int) -> SegmentationFormatError:
    """The error for ``token`` on ``line``, at the column of its first
    occurrence: equal tokens parse alike, so no earlier one failed."""
    column = next(m.start() for m in _TOKEN.finditer(line) if m[0] == token) + 1
    return SegmentationFormatError(f"bad span token {token!r}", line_no, column)
