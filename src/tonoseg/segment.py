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
candidate per merge key ``state * 2 + m``: ``state`` is the automaton
state after the candidate's last symbol, and ``m`` is 1 only when the
current word is prominent and the scheme writes a prominent word's tones
as symbols of their own (``hierprom-tones``).  ``step`` is a function of
the state and the symbol, so candidates with one key add the same ln P
values, in the same order, to every continuation.  The keys of a tone
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

After the first tone, a candidate expands by one row per tone: the chain
of ``step`` calls for its automaton state and the tone, computed on first use and kept on the
grammar (``_rows``) under ``state * size +`` the plain tone symbol's
index.  The row is one flat tuple: for each prominence option the
continuation's (target, ln P); then the word close's ln P; then for each
option the new word opener's ln P, the target after the tone and the
tone's ln P.  Like an automaton entry, a row is a pure function of the
immutable counts, stored whole, so threads that race on it store equal
tuples.  Its floats are the automaton's own, added in emission order.

Ties are broken deterministically: higher score first, then fewer
words, then the lexicographically smallest boundary vector, then the
smallest prominence vector (all-plain preferred), the order of
``brute_force_segment``'s key.  A candidate is four fields: score,
boundary bits (one per tone, 1 where a word opens), prominence bits
(one per word) and merge key.  Candidates of a step have as many
boundary bits, so comparing integers compares vectors.  Merging on an
exact score tie and the final choice compare ``(-score, words, bits,
prominence bits)``, where ``words`` is ``bits.bit_count()``.  The
stream is checked once, before any automaton entry or row is filled.

The result is built straight from the winner's two integers: the
boundary bits as one binary string, from which ``str.find`` jumps from
one word opening to the next, and one character of the prominence bits
per word.  Every candidate of the DP tiles the stream, so the result is
made by ``SegmentationResult._of``, which skips the checks of the public
constructor.

Each step shifts these integers, which copies them, so a step at tone
n costs O(n / 30) machine words on top of its constant work and a turn
costs O(n**2 / 30) in all.  The cost per tone is flat up to a few
thousand tones (the longest turns the benchmark and the linearity test
decode) and grows slowly beyond: under ``hierprom`` on a 2-CPU machine,
about 4.4-4.8 µs per tone at 200 and 3200 tones, 5.3-6.1 at 12,800 and
6.1-6.8 at 25,314 tones (in the benchmark's reference seconds, default
``TrainConfig`` on 20,000 planted-cue words).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


def _check_inputs(grammar: PatternGrammar, tones: Sequence[Tone], scheme: EncodingScheme):
    if not tones:
        raise SegmentationError("empty tone sequence")
    if not scheme.word_markers:
        raise SegmentationError(
            f"scheme {scheme.scheme_id!r} does not mark word boundaries; cannot segment"
        )
    if scheme is not grammar.scheme and scheme != grammar.scheme:
        raise SegmentationError(
            f"scheme {scheme.scheme_id!r} does not match grammar scheme "
            f"{grammar.scheme.scheme_id!r}"
        )
    if grammar.config.smoothing <= 0:
        raise SegmentationError("segmentation requires positive smoothing")


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
    grammar: PatternGrammar, tones: Sequence[Tone], scheme: EncodingScheme
) -> SegmentationResult:
    """Score every candidate exhaustively by the chain rule and return the best one.

    Exponential in the stream length (and word count under prominence
    schemes); refuses streams longer than 14 tones.
    """
    _check_inputs(grammar, tones, scheme)
    tones = [_as_tone(t) for t in tones]
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


@lru_cache(maxsize=None)
def _layout(scheme: EncodingScheme) -> tuple:
    """``segment_turn``'s per-scheme constants, computed once per scheme:
    the word-close index, the word-open index per prominence option, per
    option a new word's row index and merge-key bit, the turn-open and
    turn-close indexes, and ``_tone``'s constants of each tone whose
    symbols the scheme has."""
    index = scheme.index
    options = _prominence_options(scheme)
    close = index(Marker.WORD_CLOSE)
    opens = tuple(index(scheme.word_open_symbol(p)) for p in options)
    marks = scheme.prominence == "tones"  # a prominent word's tones are symbols of their own
    news = tuple((p, 2 * len(opens) + 1 + 3 * p, p if marks else 0) for p in range(len(options)))
    tones = {t: _tone(scheme, t) for t in Tone if all(scheme.tone_symbol(t, p) in scheme for p in options)}
    return close, opens, news, index(Marker.TURN_OPEN), index(Marker.TURN_CLOSE), tones


def _tone(scheme: EncodingScheme, tone: Tone) -> tuple:
    """A tone's constants in ``segment_turn``: its row-key offset (the plain
    tone symbol's index) and its symbol index per prominence option."""
    tone = _as_tone(tone)  # the decoder's table lacks non-tones, so they raise here
    syms = tuple(scheme.index(scheme.tone_symbol(tone, p)) for p in _prominence_options(scheme))
    return syms[0], syms


def _row(grammar: PatternGrammar, state: int, syms: tuple, close: int, opens: tuple) -> tuple:
    """Compute and store the row of ``state`` and a tone whose symbol index
    per prominence option is ``syms`` (see ``segment_turn``)."""
    step = grammar.step
    row = []
    for a in syms:
        row += step(state, a)
    closed, lp = step(state, close)
    row.append(lp)
    for a, word_open in zip(syms, opens):
        opened, lp = step(closed, word_open)
        row.append(lp)
        row += step(opened, a)
    row = grammar._rows[state * grammar._size + syms[0]] = tuple(row)
    return row


def _plan(scheme: EncodingScheme, tones: Sequence, known: dict) -> list:
    try:  # each stream element's ``_tone`` constants, looked up once per turn
        return [known[t] for t in tones]
    except (KeyError, TypeError):  # then ``_tone`` raises at the first bad element
        return [_tone(scheme, t) for t in tones]


def _rank(candidate: tuple) -> tuple:
    """A candidate's place in the final order: higher score, fewer words,
    smaller boundary bits, smaller prominence bits."""
    score, bits, pbits, _ = candidate
    return -score, bits.bit_count(), bits, pbits


def _near(merged: dict, near: dict, candidate: tuple) -> None:
    """File a candidate within the margin of its key's best: the one of the
    two that ranks first is the best, the other joins the key's extras."""
    key = candidate[3]
    best = merged[key]
    if _rank(candidate) < _rank(best):
        merged[key], candidate = candidate, best
    near.setdefault(key, []).append(candidate)


def _extras(merged: dict, near: dict, margin: float) -> list:
    """The extras worth expanding: per key, those at most ``margin`` below
    the best that no candidate of the key beats in score and oracle key."""
    kept = []
    for key, group in near.items():
        best = merged[key]
        beaten = _rank(best)[1:]  # the least tie key of a candidate ranked before
        for candidate in sorted(group, key=_rank):
            if candidate[0] < best[0] - margin:
                break
            order = _rank(candidate)[1:]
            if order < beaten:
                kept.append(candidate)
                beaten = order
    return kept


def segment_turn(
    grammar: PatternGrammar,
    tones: Sequence[Tone],
    scheme: EncodingScheme,
) -> SegmentationResult:
    """Maximum-score boundary (and prominence) placement, by exact DP.

    See the module docstring for the merge key, the margin and the rows.
    Prefix scores accumulate symbol by symbol in emission order, which
    keeps them bitwise equal to ``sequence_log_probability`` of the same
    candidate.  The winner's spans are read off its boundary and
    prominence bits in one pass, O(n) in the turn length, and returned
    without the tiling check of ``SegmentationResult(...)``.
    """
    _check_inputs(grammar, tones, scheme)
    close, opens, news, turn_open, turn_close, known = _layout(scheme)
    plan = _plan(scheme, tones, known)
    step, rows, size = grammar.step, grammar._rows, grammar._size
    closing = 2 * len(opens)  # a row's index of the word close's ln P
    most = 3 * len(plan) + 3  # more than the symbols of the turn
    margin = 2 * most * math.ulp(most * grammar._surprisal_bound())

    state, lp = step(0, turn_open)
    entries = []  # candidates (see the module docstring); the first tone opens the first word
    for p, _, m in news:
        opened, lp1 = step(state, opens[p])
        target, lp2 = step(opened, plan[0][1][p])
        entries.append((lp + lp1 + lp2, 1, p, target * 2 + m))

    for k, syms in islice(plan, 1, None):
        merged: dict = {}  # key -> best candidate
        near: dict = {}  # key -> other candidates within the margin (see ``_near``)
        get = merged.get
        for score, bits, pbits, key in entries:
            m = key & 1
            state = key >> 1
            row = rows.get(state * size + k) or _row(grammar, state, syms, close, opens)
            bits <<= 1
            # continue the current word
            s = score + row[2 * m + 1]
            key = row[2 * m] * 2 + m
            old = get(key)
            if old is None or s > old[0] + margin:
                merged[key] = (s, bits, pbits, key)
            elif s >= old[0] - margin:
                _near(merged, near, (s, bits, pbits, key))
            # or close it and open a new word
            score += row[closing]
            bits |= 1
            pbits <<= 1
            for p, i, m in news:
                s = score + row[i] + row[i + 2]
                key = row[i + 1] * 2 + m
                old = get(key)
                if old is None or s > old[0] + margin:
                    merged[key] = (s, bits, pbits | p, key)
                elif s >= old[0] - margin:
                    _near(merged, near, (s, bits, pbits | p, key))
        entries = [*merged.values(), *_extras(merged, near, margin)] if near else merged.values()

    finals = []
    for score, bits, pbits, key in entries:
        closed, lp = step(key >> 1, close)
        score += lp
        _, lp = step(closed, turn_close)
        finals.append((-(score + lp), bits.bit_count(), bits, pbits))
    total, words, bits, pbits = min(finals)
    # One char per tone, "1" where a word opens (always the first tone),
    # and a "1" after the last tone to end the last word.
    opens_at = f"{bits:b}1".find
    spans = []
    start = 0
    for prominent in f"{pbits:0{words}b}":
        end = opens_at("1", start + 1)
        spans.append(WordSpan(start, end, prominent == "1"))
        start = end
    return SegmentationResult._of(tuple(spans), -total)


def segment_corpus(
    grammar: PatternGrammar,
    streams: Iterable[Sequence[Tone]],
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
