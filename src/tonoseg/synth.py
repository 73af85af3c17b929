"""Synthetic corpora drawn from planted generative grammars.

A planted grammar fixes the word-length distribution, the tone
distributions for word-interior and word-final positions, the
turn-length distribution and the prominence rate.  Everything about
the process is known, so downstream components can be checked against
exact ground truth: ``planted_conditional`` computes the true
next-symbol distribution for any prefix of an encoded turn, and
``sample_corpus`` is bit-reproducible from its seed (stdlib
``random.Random``, i.e. MT19937, consumed in a fixed documented order).
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .core import (
    HIERARCHICAL,
    Corpus,
    EncodingScheme,
    InvalidArgumentError,
    Marker,
    ProsodicWord,
    Tone,
    TonosegError,
    Turn,
)

TONE_ORDER = {t: i for i, t in enumerate(Tone)}


class UnreachableContextError(TonosegError):
    """The prefix has probability zero under the planted process."""


class SpecError(TonosegError, ValueError):
    """A planted-grammar spec is malformed or not a valid process."""


def _check_dist(name, dist):
    if not dist:
        raise SpecError(f"{name}: empty support")
    seen = set()
    for value, _ in dist:
        if value in seen:
            raise SpecError(f"{name}: value {value} listed twice")
        seen.add(value)
    if any(p < 0 for _, p in dist):
        raise SpecError(f"{name}: negative probability")
    if not all(math.isfinite(p) for _, p in dist):
        raise SpecError(f"{name}: non-finite probability")
    s = sum(p for _, p in dist)
    if abs(s - 1.0) > 1e-9:
        raise SpecError(f"{name}: probabilities sum to {s}, not 1")


@dataclass(frozen=True)
class PlantedGrammar:
    """Fully-known generative process for annotated corpora.

    Distributions are (value, probability) tuples in sampling order.
    Word-final tones come from ``final_tones``; all earlier positions
    come from ``interior_tones``.  A boundary-cue setup is just a
    ``final_tones`` concentrated on the cue (e.g. ``((Tone.LOWER, 1.0),)``)
    with the cue absent from ``interior_tones``.
    """

    word_lengths: tuple[tuple[int, float], ...]
    interior_tones: tuple[tuple[Tone, float], ...]
    final_tones: tuple[tuple[Tone, float], ...]
    turn_lengths: tuple[tuple[int, float], ...]
    prominence: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # canonical entry order (lengths ascending, tones in label order)
        # so equal grammars sample identical streams from equal seeds
        for name in ("word_lengths", "turn_lengths"):
            object.__setattr__(self, name, tuple(sorted(tuple(e) for e in getattr(self, name))))
        for name in ("interior_tones", "final_tones"):
            entries = sorted(
                ((Tone(t), p) for t, p in getattr(self, name)),
                key=lambda e: TONE_ORDER[e[0]],
            )
            object.__setattr__(self, name, tuple(entries))
        _check_dist("word_lengths", self.word_lengths)
        _check_dist("interior_tones", self.interior_tones)
        _check_dist("final_tones", self.final_tones)
        _check_dist("turn_lengths", self.turn_lengths)
        if any(length < 1 for length, _ in self.word_lengths):
            raise SpecError("word lengths must be >= 1")
        if any(length < 1 for length, _ in self.turn_lengths):
            raise SpecError("turn lengths must be >= 1")
        if not 0.0 <= self.prominence <= 1.0:
            raise SpecError(f"prominence must be in [0, 1], got {self.prominence}")

    # -- (de)serialization ---------------------------------------------

    @classmethod
    def from_mapping(cls, data: dict) -> "PlantedGrammar":
        """Read a spec document: four distributions as objects of
        value-to-probability entries, and optional prominence and seed."""
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a JSON object, got {type(data).__name__}")

        def read(key, parse, default=None):
            if key not in data and default is None:
                raise SpecError(f"spec lacks the key {key!r}")
            value = data.get(key, default)
            try:
                return parse(value)
            except (AttributeError, TypeError, ValueError, OverflowError, TonosegError) as err:
                raise SpecError(f"spec key {key!r}: {err}") from None

        def lengths(dist):
            return tuple((int(k), float(v)) for k, v in dist.items())

        def tones(dist):
            return tuple((Tone.from_letter(k), float(v)) for k, v in dist.items())

        return cls(
            word_lengths=read("word_lengths", lengths),
            interior_tones=read("interior_tones", tones),
            final_tones=read("final_tones", tones),
            turn_lengths=read("turn_lengths", lengths),
            prominence=read("prominence", float, 0.0),
            seed=read("seed", int, 0),
        )

    def to_mapping(self) -> dict:
        return {
            "word_lengths": {str(k): v for k, v in self.word_lengths},
            "interior_tones": {str(t): v for t, v in self.interior_tones},
            "final_tones": {str(t): v for t, v in self.final_tones},
            "turn_lengths": {str(k): v for k, v in self.turn_lengths},
            "prominence": self.prominence,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, text: str) -> "PlantedGrammar":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as err:  # too deeply nested
            raise SpecError(f"spec is not valid JSON: {err}") from None
        return cls.from_mapping(data)

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2, sort_keys=True) + "\n"


def _table(dist) -> tuple[list[float], list]:
    """A distribution's partial sums, added left to right, and its values
    followed by the last value of positive probability:
    ``values[bisect_right(sums, x)]`` is the first value whose partial sum
    exceeds ``x``, or the last value that can be drawn when ``x`` is past
    the total (which may fall short of 1 by rounding)."""
    values = [value for value, _ in dist]
    last = next(value for value, p in reversed(dist) if p > 0)
    return list(accumulate(p for _, p in dist)), values + [last]


def sample_corpus(planted: PlantedGrammar, n_words: int, seed: int | None = None) -> Corpus:
    """Draw a corpus of exactly ``n_words`` words.

    Turn lengths are drawn first (the last turn is truncated to fit);
    then per word: prominence, length, tones in order.  The draw order
    is part of the format: same seed, same corpus, bit for bit.  Each
    draw takes one ``random()`` and finds it among the distribution's
    partial sums (``_table``) by bisection.  Equal words drawn are one
    object.
    """
    if n_words < 1:
        raise InvalidArgumentError(f"n_words must be >= 1, got {n_words}")
    rand = random.Random(planted.seed if seed is None else seed).random
    turn_sums, turn_values = _table(planted.turn_lengths)
    turn_sizes = []
    remaining = n_words
    while remaining > 0:
        size = min(turn_values[bisect_right(turn_sums, rand())], remaining)
        turn_sizes.append(size)
        remaining -= size
    length_sums, length_values = _table(planted.word_lengths)
    interior_sums, interior_values = _table(planted.interior_tones)
    final_sums, final_values = _table(planted.final_tones)
    prominence = planted.prominence
    turns = []
    shared: dict[tuple, ProsodicWord] = {}  # one object per distinct word drawn
    for size in turn_sizes:
        words = []
        for _ in range(size):
            prominent = rand() < prominence
            length = length_values[bisect_right(length_sums, rand())]
            tones = (
                *[interior_values[bisect_right(interior_sums, rand())] for _ in range(length - 1)],
                final_values[bisect_right(final_sums, rand())],
            )
            word = shared.get((tones, prominent))
            if word is None:
                word = shared[tones, prominent] = ProsodicWord(tones, prominent)
            words.append(word)
        turns.append(Turn._of(tuple(words)))
    return Corpus(tuple(turns), {"generator": "planted", "words": str(n_words)})


def _dist_prob(dist, value) -> float:
    for v, p in dist:
        if v == value:
            return p
    return 0.0


class _PrefixWalker:
    """Tracks the hidden generator state along an encoded-turn prefix.

    The visible symbols determine everything except the current word's
    total length, over which a posterior is maintained: after k tones
    with none of them closed off, weight(m) = P(len=m) * prod of tone
    likelihoods (final for position m, interior elsewhere).
    """

    def __init__(self, planted: PlantedGrammar, scheme: EncodingScheme):
        if not scheme.word_markers or scheme.prominence not in ("none", "marker"):
            raise TonosegError(
                f"planted conditionals support word-marking schemes with marker "
                f"prominence, not {scheme.scheme_id!r}"
            )
        self.planted = planted
        self.scheme = scheme
        self.phase = "start"  # start -> after_open | in_word | between | done
        self.words_done = 0
        self.word_tones: list[Tone] = []

    def next_distribution(self) -> dict:
        """Exact next-symbol probabilities given the consumed prefix."""
        planted, scheme = self.planted, self.scheme
        if self.phase == "start":
            return {Marker.TURN_OPEN: 1.0}
        if self.phase == "done":
            raise UnreachableContextError("turn already closed")
        out: dict = {}
        if self.phase in ("after_open", "between"):
            if self.phase == "after_open":
                p_close = 0.0  # turns have at least one word
            else:
                at_least = sum(p for n, p in planted.turn_lengths if n >= self.words_done)
                exactly = _dist_prob(planted.turn_lengths, self.words_done)
                if at_least <= 0:
                    raise UnreachableContextError(
                        f"no turn length allows {self.words_done} words"
                    )
                p_close = exactly / at_least
            p_open = 1.0 - p_close
            if p_close:
                out[Marker.TURN_CLOSE] = p_close
            if p_open:
                if scheme.prominence == "marker":
                    if planted.prominence < 1.0:
                        out[Marker.WORD_OPEN] = p_open * (1.0 - planted.prominence)
                    if planted.prominence > 0.0:
                        out[Marker.PROM_WORD_OPEN] = p_open * planted.prominence
                else:
                    out[Marker.WORD_OPEN] = p_open
            return out
        # in_word: k tones consumed, next is a tone or the word close
        k = len(self.word_tones)
        w_close = 0.0
        w_continue = {}  # remaining-length weights for m > k
        for m, p_len in self.planted.word_lengths:
            if m < k or p_len <= 0.0:
                continue
            like = p_len
            for i, tone in enumerate(self.word_tones, start=1):
                dist = planted.final_tones if i == m else planted.interior_tones
                like *= _dist_prob(dist, tone)
            if like <= 0.0:
                continue
            if m == k:
                w_close = like
            else:
                w_continue[m] = like
        z = w_close + sum(w_continue.values())
        if z <= 0.0:
            raise UnreachableContextError(f"tone sequence {self.word_tones!r} impossible")
        if w_close:
            out[Marker.WORD_CLOSE] = w_close / z
        p_final_next = w_continue.get(k + 1, 0.0) / z
        p_interior_next = sum(p for m, p in w_continue.items() if m > k + 1) / z
        for tone, p in planted.final_tones:
            if p_final_next * p > 0:
                out[tone] = out.get(tone, 0.0) + p_final_next * p
        for tone, p in planted.interior_tones:
            if p_interior_next * p > 0:
                out[tone] = out.get(tone, 0.0) + p_interior_next * p
        return out

    def consume(self, symbol) -> float:
        dist = self.next_distribution()
        p = dist.get(symbol, 0.0)
        if p <= 0.0:
            raise UnreachableContextError(
                f"symbol {symbol!r} has probability 0 after this prefix"
            )
        if symbol == Marker.TURN_OPEN:
            self.phase = "after_open"
        elif symbol in (Marker.WORD_OPEN, Marker.PROM_WORD_OPEN):
            self.phase = "in_word"
            self.word_tones = []
        elif symbol == Marker.WORD_CLOSE:
            self.phase = "between"
            self.words_done += 1
            self.word_tones = []
        elif symbol == Marker.TURN_CLOSE:
            self.phase = "done"
        else:
            self.word_tones.append(Tone(symbol))
        return p


def planted_conditional(
    planted: PlantedGrammar, context, scheme: EncodingScheme = HIERARCHICAL
) -> tuple[float, ...]:
    """True next-symbol distribution after an encoded-turn prefix.

    ``context`` must be a full prefix starting at the turn-open symbol;
    a mid-stream window does not pin the generator state down, so such
    contexts are rejected as unreachable.  Returns probabilities over
    ``scheme.alphabet`` in order.
    """
    if not context or context[0] != Marker.TURN_OPEN:
        raise UnreachableContextError("context must be a turn prefix starting at turn-open")
    walker = _PrefixWalker(planted, scheme)
    for sym in context:
        walker.consume(sym)
    dist = walker.next_distribution()
    return tuple(dist.get(sym, 0.0) for sym in scheme.alphabet)


def prefix_probability(
    planted: PlantedGrammar, context, scheme: EncodingScheme = HIERARCHICAL
) -> float:
    """Probability that an encoded turn starts with this prefix."""
    if not context or context[0] != Marker.TURN_OPEN:
        raise UnreachableContextError("context must be a turn prefix starting at turn-open")
    walker = _PrefixWalker(planted, scheme)
    total = 1.0
    for sym in context:
        total *= walker.consume(sym)
    return total
