"""Word boundary recovery in unsegmented tone streams.

Given a trained grammar, every way of wrapping the tone stream into
words (and, under a prominence-marking scheme, every prominence
assignment) yields one encoded symbol sequence; the decoder returns a
placement maximizing the chain-rule score.  ``brute_force_segment``
enumerates the candidates outright and is the oracle the decoder is
tested against.  The oracle scores each candidate by the chain rule
(``PatternGrammar.sequence_log_probability``); the decoder reads rows of
the grammar's context automaton (``PatternGrammar.step``).  Both add
``PatternGrammar._log_prob`` at the same contexts in the same order, so
both give a candidate the same float.

``segment_turn`` is a Viterbi pass.  After each tone it keeps the best
candidate per merge key ``state * W + m``: ``state`` is the automaton
state after the candidate's last symbol, and ``m`` is 1 only when the
current word is prominent and the scheme writes a prominent word's tones
as symbols of their own (``hierprom-tones``, the only scheme where
``W`` is 2).  Under the other schemes ``W`` is 1 and ``m`` is 0, so the
merge key is the state itself.  ``step`` is a function of the state and
the symbol, so candidates with one key add the same ln P values, in the
same order, to every continuation.  The keys of a tone
are bounded by the grammar, not by the turn length: on the benchmark's
workloads the decoder holds 2.6 to 4.4 candidates per tone.

Merging on the key alone would not be exact in floating point: a
prefix that scores strictly lower can tie after the same values are
added to both, and then the oracle's tie key may prefer it.  So a
candidate is dropped without comparing tie keys only when it scores
more than ``margin`` below another of its key, where ``margin = 2 * M
* ulp(M * L)``.  ``M = 3n + 3`` bounds the symbols of an ``n``-tone
turn and ``L`` bounds -ln P of one symbol
(``PatternGrammar._surprisal_bound``), so ``M * L`` bounds every partial
score.  Floating-point addition is monotone, and one addition moves the
gap between two scores by at most one ulp of the largest partial sum, so
a candidate more than the margin below another stays strictly below it
on every continuation (the factor 2 covers the rounding of the
comparison itself).  Within the margin the decoder keeps every
candidate that no other candidate of its key beats in both score and
tie key, and expands these extras like any other candidate.  The
oracle's winner then is never dropped, and the decoder returns exactly
what ``brute_force_segment`` returns.  Near ties are rare: on the
benchmark's workloads no extra was kept, and on twelve random turns of
1,000 tones over two tones at most 10 were kept after any one tone.

The decoder reads three kinds of row, each the chain of ``step`` calls
it stands for, computed on first use and kept on the grammar in one
dict per symbol index (``_rows``), keyed by merge key:

- a start row, under -1 in a tone's dict: the candidates of a turn that
  opens with the tone, one per prominence option, ``((turn open + word
  open) + tone, 1, p, merge key)``;
- a row, under ``key`` in a tone's dict: how a candidate of merge key
  ``key`` expands by the tone.  One flat tuple: the continuation's merge
  key and ln P; the word close's ln P; then per prominence option the
  new word opener's ln P, the merge key after the tone and the tone's
  ln P;
- an end row, under ``key`` in the word close's dict: the ln P of the
  word close and of the turn close, added to a final candidate's score
  in that order.

A tone's dict sits under its plain symbol's index, never the word
close's, and no merge key is negative.  The loop fetches a tone's dict
once per tone, does no key arithmetic, and tries a prominent opener only
under a scheme that marks prominence.  A dict is made once, by
``setdefault``; like an automaton entry, a row is a pure function of
the immutable counts, stored whole, so racing threads store equal
tuples.  Its floats are the automaton's own, added in emission order;
under ``W == 1`` its merge keys are the automaton entries' own ints.

Ties are broken deterministically: higher score first, then fewer
words, then the lexicographically smallest boundary vector, then the
smallest prominence vector (all-plain preferred), the order of
``brute_force_segment``'s key.  A candidate is four fields: score,
boundary bits (one per tone, 1 where a word opens), prominence bits
(one per word) and merge key.  Candidates of a step have as many
boundary bits, so comparing integers compares vectors.  Merging on an
exact score tie and the final choice compare ``(-score, words, bits,
prominence bits)``, where ``words`` is ``bits.bit_count()``.  Both
entry points read the stream once, into a tuple, through one check, so
any iterable of tones or tone letters gives one result or one error; a
non-tone is refused before any automaton entry or table is filled.

The result is built straight from the winner's two integers: the
boundary bits as one binary string, from which ``str.find`` jumps from
one word opening to the next, and one character of the prominence bits
per word.  Every candidate of the DP tiles the stream, so the result
and its spans are stored as built, without the public constructors.

Each step shifts these integers, which copies them, so a step at tone
n costs O(n / 30) machine words on top of its constant work and a turn
costs O(n**2 / 30) in all.  The cost per tone is flat up to a few
thousand tones (the longest turns the benchmark and the linearity test
decode) and grows slowly beyond: under ``hierprom`` on a 2-CPU machine,
about 3.0-3.4 µs per tone at 200 tones, 3.0-3.8 at 3,200, 3.7-4.1 at
12,800 and 4.6-4.9 at 25,314 (in the benchmark's reference seconds,
default ``TrainConfig`` on 20,000 planted-cue words).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, NamedTuple, Sequence

from .core import EncodingScheme, Marker, ProsodicWord, Tone, TonosegError, encode_words
from .grammar import PatternGrammar


class SegmentationError(TonosegError):
    """Segmentation preconditions violated (empty input, scheme mismatch...)."""


class SegmentCorpusError(TonosegError):
    """One or more turns failed; ``failures`` maps turn index to error."""

    def __init__(self, failures: list):
        self.failures = failures
        shown = "; ".join(f"turn {i}: {err}" for i, err in failures[:3])
        if len(failures) > 3:
            shown += f"; ... {len(failures) - 3} more"
        super().__init__(f"{len(failures)} turn(s) failed: {shown}")


class WordSpan(NamedTuple):
    start: int
    end: int
    prominent: bool


@dataclass(frozen=True)
class SegmentationResult:
    """Predicted word spans tiling the tone stream, plus the winning score."""

    spans: tuple[WordSpan, ...]
    log_prob: float

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(WordSpan(*s) for s in self.spans))
        pos = 0
        for span in self.spans:
            if span.start != pos or span.end <= span.start:
                raise SegmentationError(f"spans do not tile the stream: {self.spans}")
            pos = span.end

    @classmethod
    def _of(cls, spans: tuple, log_prob: float) -> "SegmentationResult":
        """A result of ``WordSpan``s that tile the stream by construction,
        as the decoder builds them: stored as given, without the checks."""
        result = object.__new__(cls)
        object.__setattr__(result, "spans", spans)
        object.__setattr__(result, "log_prob", log_prob)
        return result

    @property
    def n_tones(self) -> int:
        return self.spans[-1].end if self.spans else 0

    def boundary_slots(self) -> tuple[bool, ...]:
        out = [False] * (self.n_tones - 1)
        for span in self.spans[:-1]:
            out[span.end - 1] = True
        return tuple(out)


def spans_to_symbols(tones: Sequence[Tone], spans: Sequence[WordSpan], scheme: EncodingScheme) -> list:
    """Encode a segmented tone stream as the scheme's symbol sequence."""
    return encode_words([ProsodicWord(tones[s:e], p) for s, e, p in spans], scheme)


def _read_stream(grammar: PatternGrammar, tones: Iterable[Tone], scheme: EncodingScheme) -> tuple:
    """The stream read once, as a tuple (a tuple passes uncopied).  Raise if
    it is empty, else if the scheme or grammar cannot segment."""
    tones = tuple(tones)
    if not tones:
        fault = "empty tone sequence"
    elif not scheme.word_markers:
        fault = f"scheme {scheme.scheme_id!r} does not mark word boundaries; cannot segment"
    elif scheme is not grammar.scheme and scheme != grammar.scheme:
        fault = f"scheme {scheme.scheme_id!r} does not match grammar scheme {grammar.scheme.scheme_id!r}"
    elif grammar.config.smoothing <= 0:
        fault = "segmentation requires positive smoothing"
    else:
        return tones
    raise SegmentationError(fault)


def _as_tone(element) -> Tone:
    """A stream element as a ``Tone``; a string equal to one passes, anything else raises."""
    try:
        return Tone(element)
    except ValueError:
        raise SegmentationError(f"stream element {element!r} is not a tone") from None


def _prominence_options(scheme: EncodingScheme) -> tuple[bool, ...]:
    return (False, True) if scheme.prominence != "none" else (False,)


def enumerate_candidates(n_tones: int, scheme: EncodingScheme) -> Iterable[tuple[tuple, tuple]]:
    """All (boundary vector, prominence vector) candidates for a stream.

    The boundary vector has ``n_tones - 1`` slots; the prominence vector
    has one flag per word (always all-False when the scheme does not
    mark prominence).
    """
    options = _prominence_options(scheme)
    for bounds in product((False, True), repeat=n_tones - 1):
        n_words = sum(bounds) + 1
        for proms in product(options, repeat=n_words):
            yield bounds, proms


def _spans_from_vectors(bounds: Sequence, proms: Sequence) -> tuple[WordSpan, ...]:
    spans = []
    start = 0
    w = 0
    for i, cut in enumerate(bounds, start=1):
        if cut:
            spans.append(WordSpan(start, i, proms[w]))
            start = i
            w += 1
    spans.append(WordSpan(start, len(bounds) + 1, proms[w]))
    return tuple(spans)


def brute_force_segment(
    grammar: PatternGrammar, tones: Iterable[Tone], scheme: EncodingScheme
) -> SegmentationResult:
    """Score every candidate exhaustively by the chain rule and return the best one.

    ``tones`` is read once, as ``segment_turn`` reads it, and checked the
    same way.  Exponential in the stream length (and word count under
    prominence schemes); refuses streams longer than 14 tones.
    """
    tones = [_as_tone(t) for t in _read_stream(grammar, tones, scheme)]
    n = len(tones)
    if n > 14:
        raise SegmentationError(f"brute force limited to 14 tones, got {n}")

    best_key = None
    best = None
    for bounds, proms in enumerate_candidates(n, scheme):
        spans = _spans_from_vectors(bounds, proms)
        total = grammar.sequence_log_probability(spans_to_symbols(tones, spans, scheme))
        key = (-total, len(spans), bounds, proms)
        if best_key is None or key < best_key:
            best_key = key
            best = SegmentationResult(spans, total)
    return best


def _layout(grammar: PatternGrammar) -> tuple:
    """``segment_turn``'s constants for the grammar's scheme, kept on the grammar:
    the merge-key width ``W``, the word-close, turn-open and turn-close
    indexes, the word-open index per prominence option, whether a word can
    be prominent, and ``_tone``'s constants of each tone the scheme has."""
    scheme = grammar.scheme
    index = scheme.index
    options = _prominence_options(scheme)
    width = 2 if scheme.prominence == "tones" else 1  # a prominent word's tones are symbols of their own
    opens = tuple(index(scheme.word_open_symbol(p)) for p in options)
    tones = {t: _tone(scheme, t) for t in Tone if all(scheme.tone_symbol(t, p) in scheme for p in options)}
    symbols = width, index(Marker.WORD_CLOSE), index(Marker.TURN_OPEN), index(Marker.TURN_CLOSE), opens
    layout = grammar._layout = symbols, len(options) > 1, tones
    return layout


def _tone(scheme: EncodingScheme, tone: Tone) -> tuple:
    """A tone's constants in ``segment_turn``: its table's index (the plain
    tone symbol's) and its symbol index per prominence option."""
    tone = _as_tone(tone)  # the decoder's table lacks non-tones, so they raise here
    syms = tuple(scheme.index(scheme.tone_symbol(tone, p)) for p in _prominence_options(scheme))
    return syms[0], syms


def _merge_key(width: int, state: int, m: int) -> int:
    """The merge key of an automaton state and the current word's ``m``;
    with ``W == 1`` the state's own int."""
    return state * 2 + m if width == 2 else state


def _row(grammar: PatternGrammar, table: dict, key: int, syms: tuple, symbols: tuple) -> tuple:
    """Compute and store the row of merge key ``key`` in the ``table`` of a
    tone whose symbol index per prominence option is ``syms``."""
    width, close, _, _, opens = symbols
    step = grammar.step
    state, m = divmod(key, width)
    target, lp = step(state, syms[m])
    closed, close_lp = step(state, close)
    row = [_merge_key(width, target, m), lp, close_lp]
    for p, (a, word_open) in enumerate(zip(syms, opens)):
        opened, open_lp = step(closed, word_open)
        target, lp = step(opened, a)
        row += open_lp, _merge_key(width, target, p), lp
    row = table[key] = tuple(row)
    return row


def _start(grammar: PatternGrammar, table: dict, syms: tuple, symbols: tuple) -> tuple:
    """Compute and store in its ``table`` the candidates of a first tone, one
    per prominence option, whose symbol index per option is ``syms``."""
    width, _, turn_open, _, opens = symbols
    step = grammar.step
    state, lp = step(0, turn_open)
    start = []
    for p, (a, word_open) in enumerate(zip(syms, opens)):
        opened, lp1 = step(state, word_open)
        target, lp2 = step(opened, a)
        start.append((lp + lp1 + lp2, 1, p, _merge_key(width, target, p)))
    start = table[-1] = tuple(start)
    return start


def _end(grammar: PatternGrammar, table: dict, key: int, symbols: tuple) -> tuple:
    """Compute and store in ``table`` the end row of merge key ``key``: the
    ln P of the word close and of the turn close after it."""
    width, close, _, turn_close, _ = symbols
    closed, close_lp = grammar.step(key // width, close)
    end = table[key] = (close_lp, grammar.step(closed, turn_close)[1])
    return end


def _plan(scheme: EncodingScheme, tones: tuple, known: dict) -> list:
    try:  # each stream element's ``_tone`` constants, looked up once per turn
        return list(map(known.__getitem__, tones))
    except (KeyError, TypeError):  # then ``_tone`` raises at the first bad element
        return [_tone(scheme, t) for t in tones]


def _rank(candidate: tuple) -> tuple:
    """A candidate's place in the final order: higher score, fewer words,
    smaller boundary bits, smaller prominence bits."""
    score, bits, pbits, _ = candidate
    return -score, bits.bit_count(), bits, pbits


def _extras(merged: dict, near: dict, margin: float) -> list:
    """The next tone's candidates when some keys have near ties: per key,
    the first in ``_rank`` order of its merged and near candidates, stored
    as its best, and those at most ``margin`` below it that no candidate
    of the key beats in score and oracle key."""
    kept = []
    for key, group in near.items():
        group.append(merged[key])
        group.sort(key=_rank)
        best = merged[key] = group[0]
        beaten = _rank(best)[1:]  # the least tie key of a candidate ranked before
        for candidate in group[1:]:
            if candidate[0] < best[0] - margin:
                break
            order = _rank(candidate)[1:]
            if order < beaten:
                kept.append(candidate)
                beaten = order
    return [*merged.values(), *kept]


def segment_turn(
    grammar: PatternGrammar,
    tones: Iterable[Tone],
    scheme: EncodingScheme,
) -> SegmentationResult:
    """Maximum-score boundary (and prominence) placement, by exact DP.

    ``tones`` is read as the module docstring says; see it also for the
    merge key, the margin and the rows.
    Prefix scores accumulate symbol by symbol in emission order, which
    keeps them bitwise equal to ``sequence_log_probability`` of the same
    candidate.  The winner's spans are read off its boundary and
    prominence bits in one pass, O(n) in the turn length, and returned
    without the tiling check of ``SegmentationResult(...)``.
    """
    tones = _read_stream(grammar, tones, scheme)
    symbols, prominent, known = grammar._layout or _layout(grammar)
    plan = _plan(scheme, tones, known)
    k, syms = plan[0]
    rows, close = grammar._rows, symbols[1]
    most = 3 * len(plan) + 3  # more than the symbols of the turn
    margin = 2 * most * math.ulp(most * grammar._surprisal_bound())

    # candidates (see the module docstring); the first tone opens the first word.
    # A symbol's table is made once, by ``setdefault``, however many threads race.
    table = rows.get(k) or rows.setdefault(k, {})
    entries = table.get(-1) or _start(grammar, table, syms, symbols)

    for k, syms in islice(plan, 1, None):
        table = rows.get(k) or rows.setdefault(k, {})
        merged: dict = {}  # key -> best candidate (settled by ``_extras`` on near ties)
        near = None  # key -> other candidates within the margin (see ``_extras``), made when needed
        get = merged.get
        for score, bits, pbits, key in entries:
            row = table.get(key) or _row(grammar, table, key, syms, symbols)
            bits <<= 1
            # continue the current word
            s = score + row[1]
            key = row[0]
            old = get(key)
            if old is None or s > old[0] + margin:
                merged[key] = (s, bits, pbits, key)
            elif s >= old[0] - margin:
                (near := near or {}).setdefault(key, []).append((s, bits, pbits, key))
            # or close it and open a plain word
            score += row[2]
            bits |= 1
            pbits <<= 1
            s = score + row[3] + row[5]
            key = row[4]
            old = get(key)
            if old is None or s > old[0] + margin:
                merged[key] = (s, bits, pbits, key)
            elif s >= old[0] - margin:
                (near := near or {}).setdefault(key, []).append((s, bits, pbits, key))
            if prominent:  # or a prominent word
                s = score + row[6] + row[8]
                key = row[7]
                old = get(key)
                if old is None or s > old[0] + margin:
                    merged[key] = (s, bits, pbits | 1, key)
                elif s >= old[0] - margin:
                    (near := near or {}).setdefault(key, []).append((s, bits, pbits | 1, key))
        entries = _extras(merged, near, margin) if near else merged.values()

    table = rows.get(close) or rows.setdefault(close, {})
    finals = []
    for score, bits, pbits, key in entries:
        end = table.get(key) or _end(grammar, table, key, symbols)
        finals.append((-(score + end[0] + end[1]), bits.bit_count(), bits, pbits))
    total, words, bits, pbits = min(finals)
    # One char per tone, "1" where a word opens (always the first tone),
    # and a "1" after the last tone to end the last word.
    opens_at = f"{bits:b}1".find
    spans, start = [], 0
    for flag in f"{pbits:0{words}b}":
        end = opens_at("1", start + 1)
        spans.append(tuple.__new__(WordSpan, (start, end, flag == "1")))  # no ``__new__`` frame
        start = end
    result = object.__new__(SegmentationResult)  # every candidate tiles the stream: stored as built
    object.__setattr__(result, "spans", tuple(spans))  # inline; reading ``__dict__`` would add a dict
    object.__setattr__(result, "log_prob", -total)
    return result


def segment_corpus(
    grammar: PatternGrammar,
    streams: Iterable[Iterable[Tone]],
    scheme: EncodingScheme,
) -> list[SegmentationResult]:
    """Segment each turn's tone stream independently, order preserved.

    Collects per-turn failures and raises them together after the pass.
    """
    results: list[SegmentationResult] = []
    failures: list = []
    for i, stream in enumerate(streams):
        try:
            results.append(segment_turn(grammar, stream, scheme))
        except TonosegError as err:
            failures.append((i, err))
    if failures:
        raise SegmentCorpusError(failures)
    return results
