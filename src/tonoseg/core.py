"""Domain types: tones, structural markers, encoding schemes, and the
turn > prosodic-word hierarchy.

A corpus is a list of turns; a turn is a non-empty list of prosodic
words; a word is a non-empty list of tone labels plus a prominence
flag.  Encoding schemes linearize a turn into a flat symbol sequence.
That encoding is defined once, in ``encode_words``: ``encode_turn``
and the segmentation oracle call it, and ``decode_turn`` accepts
exactly the sequences it produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, Union


class TonosegError(Exception):
    """Base class for all errors raised by this package."""


class PositionedError(TonosegError):
    """Error that can carry a 1-based line/column in a source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class UnknownToneError(PositionedError):
    """A letter that is not one of the eight tone labels."""


class EmptyWordError(PositionedError):
    """A prosodic word with no tones."""


class EmptyTurnError(PositionedError):
    """A turn with no words."""


class DecodeError(TonosegError):
    """Malformed symbol sequence; ``index`` is the first position where the
    input differs from the re-encoding of the words read from it."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(f"symbol {index}: {message}")


class AlphabetError(TonosegError):
    """A symbol outside the active scheme's alphabet."""


class InvalidArgumentError(TonosegError, ValueError):
    """An argument or setting outside its valid range."""


class UnknownSchemeError(TonosegError, KeyError):
    """A scheme id that is not registered."""


class Tone(str, Enum):
    """The eight tone labels.

    Absolute tones (T, M, B) anchor the speaker's register; relative
    tones are defined against the neighbouring target, with H/S/L
    non-iterative and U/D iterative.
    """

    TOP = "T"
    MID = "M"
    BOTTOM = "B"
    HIGHER = "H"
    SAME = "S"
    LOWER = "L"
    UPSTEP = "U"
    DOWNSTEP = "D"

    __str__ = str.__str__

    @classmethod
    def from_letter(cls, letter: str) -> "Tone":
        try:
            return cls(letter)
        except ValueError:
            raise UnknownToneError(f"unknown tone letter {letter!r}") from None

    @property
    def is_absolute(self) -> bool:
        return self in (Tone.TOP, Tone.MID, Tone.BOTTOM)

    @property
    def is_relative(self) -> bool:
        return not self.is_absolute

    @property
    def is_iterative(self) -> bool:
        return self in (Tone.UPSTEP, Tone.DOWNSTEP)

    @property
    def is_non_iterative(self) -> bool:
        return self.is_relative and not self.is_iterative


class Marker(str, Enum):
    """Structural symbols delimiting turns and words in encoded sequences."""

    TURN_OPEN = "["
    TURN_CLOSE = "]"
    WORD_OPEN = "("
    WORD_CLOSE = ")"
    PROM_WORD_OPEN = "*("

    __str__ = str.__str__


class ProminentTone(str, Enum):
    """Lowercase tone variants used by the tone-doubling prominence style."""

    TOP = "t"
    MID = "m"
    BOTTOM = "b"
    HIGHER = "h"
    SAME = "s"
    LOWER = "l"
    UPSTEP = "u"
    DOWNSTEP = "d"

    __str__ = str.__str__

    @property
    def base(self) -> Tone:
        return Tone(self.value.upper())

    @classmethod
    def of(cls, tone: Tone) -> "ProminentTone":
        return cls(tone.value.lower())


Symbol = Union[Tone, Marker, ProminentTone]

TONES: tuple[Tone, ...] = tuple(Tone)
PROMINENT_TONES: tuple[ProminentTone, ...] = tuple(ProminentTone)


@dataclass(frozen=True)
class EncodingScheme:
    """A symbol alphabet plus the linearization rules that use it.

    ``word_markers`` controls whether word open/close symbols are
    emitted; ``prominence`` is one of ``"none"`` (prominence invisible),
    ``"marker"`` (prominent words open with a dedicated symbol) or
    ``"tones"`` (prominent words carry lowercase tone variants).
    Custom schemes over arbitrary alphabets are allowed; grammar
    operations only require ``alphabet``.
    """

    scheme_id: str
    alphabet: tuple[Symbol, ...]
    word_markers: bool = False
    prominence: str = "none"

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidArgumentError(f"scheme {self.scheme_id!r}: duplicate alphabet symbols")
        if self.prominence not in ("none", "marker", "tones"):
            raise InvalidArgumentError(f"bad prominence style {self.prominence!r}")

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def index(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetError(
                f"symbol {symbol!r} not in alphabet of scheme {self.scheme_id!r}"
            ) from None

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.alphabet)}

    def word_open_symbol(self, prominent: bool) -> Symbol:
        if prominent and self.prominence == "marker":
            return Marker.PROM_WORD_OPEN
        return Marker.WORD_OPEN

    def tone_symbol(self, tone: Tone, prominent: bool) -> Symbol:
        if prominent and self.prominence == "tones":
            return ProminentTone.of(tone)
        return tone


def _scheme(scheme_id, extra_markers, word_markers, prominence, doubled_tones=False):
    tones: tuple[Symbol, ...] = TONES + (PROMINENT_TONES if doubled_tones else ())
    alphabet = tones + (Marker.TURN_OPEN, Marker.TURN_CLOSE) + tuple(extra_markers)
    return EncodingScheme(scheme_id, alphabet, word_markers, prominence)


FLAT = _scheme("flat", (), word_markers=False, prominence="none")
HIERARCHICAL = _scheme(
    "hier", (Marker.WORD_OPEN, Marker.WORD_CLOSE), word_markers=True, prominence="none"
)
HIERARCHY_PROMINENCE = _scheme(
    "hierprom",
    (Marker.WORD_OPEN, Marker.WORD_CLOSE, Marker.PROM_WORD_OPEN),
    word_markers=True,
    prominence="marker",
)
# Alternative prominence encoding: every tone of a prominent word is a
# doubled (lowercase) symbol instead of a dedicated opening marker.
HIERARCHY_PROMINENCE_TONES = _scheme(
    "hierprom-tones",
    (Marker.WORD_OPEN, Marker.WORD_CLOSE),
    word_markers=True,
    prominence="tones",
    doubled_tones=True,
)

_SCHEME_REGISTRY: dict[str, EncodingScheme] = {}


def register_scheme(scheme: EncodingScheme) -> None:
    _SCHEME_REGISTRY[scheme.scheme_id] = scheme


def scheme_ids() -> tuple[str, ...]:
    """Ids of the registered schemes, sorted."""
    return tuple(sorted(_SCHEME_REGISTRY))


def get_scheme(scheme_id: str) -> EncodingScheme:
    try:
        return _SCHEME_REGISTRY[scheme_id]
    except KeyError:
        known = ", ".join(scheme_ids())
        raise UnknownSchemeError(f"unknown scheme {scheme_id!r} (known: {known})") from None


for _s in (FLAT, HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES):
    register_scheme(_s)


@dataclass(frozen=True)
class ProsodicWord:
    """A non-empty tone sequence, optionally bearing melodic prominence."""

    tones: tuple[Tone, ...]
    prominent: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        if not self.tones:
            raise EmptyWordError("prosodic word must contain at least one tone")


@dataclass(frozen=True)
class Turn:
    """A non-empty sequence of prosodic words."""

    words: tuple[ProsodicWord, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if not self.words:
            raise EmptyTurnError("turn must contain at least one word")

    @classmethod
    def _of(cls, words: tuple) -> "Turn":
        """A turn of a non-empty tuple of ``ProsodicWord``s, as
        ``parse_corpus`` and ``sample_corpus`` build them: stored as
        given, without the checks."""
        turn = object.__new__(cls)
        object.__setattr__(turn, "words", words)
        return turn

    @property
    def tone_count(self) -> int:
        return sum(len(w.tones) for w in self.words)

    def tone_stream(self) -> tuple[Tone, ...]:
        """All tones of the turn in order, word boundaries dropped."""
        return tuple(t for w in self.words for t in w.tones)

    def boundary_slots(self) -> tuple[bool, ...]:
        """For each of the tone_count-1 inter-tone slots, whether a word
        boundary sits there."""
        out = [False] * (self.tone_count - 1)
        pos = 0
        for w in self.words[:-1]:
            pos += len(w.tones)
            out[pos - 1] = True
        return tuple(out)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of turns plus free-form metadata."""

    turns: tuple[Turn, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))

    @property
    def word_count(self) -> int:
        return sum(len(t.words) for t in self.turns)

    @property
    def tone_count(self) -> int:
        return sum(t.tone_count for t in self.turns)


def encode_words(words: Iterable, scheme: EncodingScheme) -> list:
    """Linearize a turn's words into the scheme's symbol sequence: the one
    definition of the encoding, which ``decode_turn`` inverts.

    ``words`` may be any objects with ``tones`` and ``prominent``.  Flat
    drops word boundaries entirely; the hierarchical schemes wrap each
    word in open/close markers, with prominence carried per the scheme's
    prominence style.
    """
    if Marker.TURN_OPEN not in scheme or Marker.TURN_CLOSE not in scheme:
        raise AlphabetError(f"scheme {scheme.scheme_id!r} has no turn markers")
    out: list = [Marker.TURN_OPEN]
    for word in words:
        if scheme.word_markers:
            out.append(scheme.word_open_symbol(word.prominent))
            out.extend(scheme.tone_symbol(t, word.prominent) for t in word.tones)
            out.append(Marker.WORD_CLOSE)
        else:
            out.extend(word.tones)
    out.append(Marker.TURN_CLOSE)
    return out


def encode_turn(turn: Turn, scheme: EncodingScheme) -> list:
    """Linearize a turn into the scheme's symbol sequence (``encode_words``)."""
    return encode_words(turn.words, scheme)


def encode_corpus(corpus: Corpus, scheme: EncodingScheme) -> list:
    """One encoded sequence per turn, order preserved, equal to
    ``encode_turn`` of each turn and each a list of its own.  The memos go
    by object identity: each turn object is encoded once per call and
    copied where it recurs (``parse_corpus`` gives equal lines one turn),
    and each word object once, by ``encode_words``, its symbols copied
    into every turn that holds it (``parse_corpus`` and ``sample_corpus``
    share word objects between turns)."""
    # A turn's or word's id -> its symbols (a word's between the turn
    # markers).  The corpus keeps every turn and word alive for the whole
    # call, so an id is never reused.
    seqs: dict[int, list] = {}
    pieces: dict[int, list] = {}
    out = []
    for turn in corpus.turns:
        seq = seqs.get(id(turn))
        if seq is not None:
            out.append(seq.copy())
            continue
        seq = seqs[id(turn)] = [Marker.TURN_OPEN]
        for word in turn.words:
            piece = pieces.get(id(word))
            if piece is None:
                piece = pieces[id(word)] = encode_words((word,), scheme)[1:-1]
            seq += piece
        seq.append(Marker.TURN_CLOSE)
        out.append(seq)
    return out


# What a tone symbol reads as: its tone, and whether it marks prominence.
_READ_TONE = {**{t: (t, False) for t in Tone}, **{p: (p.base, True) for p in ProminentTone}}


def decode_turn(symbols: Sequence, scheme: EncodingScheme) -> Turn:
    """Invert ``encode_turn`` for word-marking schemes.

    Words are read off the symbols without checks, up to the first ``]``:
    each run of tone symbols is a word, prominent if ``*(`` precedes it
    or, under ``hierprom-tones``, it holds a lowercase tone.  They are
    accepted only if ``encode_words`` gives back exactly ``symbols``;
    otherwise ``DecodeError`` names the first index where the input
    differs from that re-encoding.  So nesting, empty words, trailing
    symbols, mixed-case words and foreign symbols are all rejected by
    the one encoder.  Flat sequences carry no word boundaries and are
    rejected at index 0.
    """
    if not scheme.word_markers:
        raise DecodeError(
            f"scheme {scheme.scheme_id!r} does not mark words; encoding is not invertible", 0
        )
    symbols = list(symbols)
    lowercase_marks = scheme.prominence == "tones"
    words: list[ProsodicWord] = []
    tones: list[Tone] = []
    prominent = False
    for sym in [*symbols, Marker.TURN_CLOSE]:  # the sentinel ends a last open word
        read = _READ_TONE.get(sym) if isinstance(sym, str) else None
        if read:
            tones.append(read[0])
            prominent = prominent or read[1] and lowercase_marks
            continue
        if tones:
            words.append(ProsodicWord(tuple(tones), prominent))
            tones = []
        if sym == Marker.TURN_CLOSE:
            break
        prominent = sym == Marker.PROM_WORD_OPEN
    encoded = encode_words(words, scheme)
    for i, (want, got) in enumerate(zip(encoded, symbols)):
        if want != got:
            raise DecodeError(f"expected {want!s}, got {got!r}", i)
    if len(symbols) < len(encoded):
        raise DecodeError(f"expected {encoded[len(symbols)]!s}, got end of sequence", len(symbols))
    if len(symbols) > len(encoded):
        raise DecodeError("symbols after turn-close", len(encoded))
    if not words:
        raise DecodeError("turn contains no words", len(symbols) - 1)
    return Turn(tuple(words))


def context_text(context: Sequence[Symbol]) -> str:
    """A context as model files write it: its symbols' tokens, ``.`` if empty."""
    return " ".join(map(str, context)) or "."

