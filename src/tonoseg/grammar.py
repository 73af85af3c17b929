"""Variable-length-context probabilistic grammar over symbol sequences.

Frequent left contexts (up to a configurable depth) are stored with
their successor counts; every score comes from ``PatternGrammar._log_prob``,
which finds the longest stored suffix of the history and applies
add-lambda smoothing at that node.  Chain-rule sequence scores and
entropy measures (with and without the grammar) are built on top.

A context is stored under one integer key, whose digits in base
``size + 1`` are its symbols' alphabet indexes plus one, the newest
symbol lowest; the empty context (the root) is 0.  For a key of ``L``
symbols, dropping the oldest symbol is ``key % base**(L - 1)``,
dropping the newest is ``key // base`` and appending the symbol of
index ``a`` is ``key * base + a + 1``.  The chain-rule scorers roll
the key of the last ``max_depth`` symbols along a sequence; the
Viterbi decoder steps through the automaton of ``PatternGrammar.step``,
whose states are context keys too.

``train`` and ``model_entropy`` read each sequence once, into a tuple,
and handle each distinct one once per call: corpora repeat whole turns.
``train`` tallies a distinct sequence once with its number of
occurrences; ``model_entropy`` keeps a recurring sequence's scores and
still subtracts them one per position, in order.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Container, Iterable, Iterator, Sequence

from .core import AlphabetError, EncodingScheme, InvalidArgumentError, TonosegError, context_text

MAX_DEPTH = 64  # a grammar's ``_powers`` cost time and memory quadratic in its depth
ENTROPY_TOLERANCE = 1e-9  # rounding slack of ``normalized_entropy``'s range check


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs: context depth, retention threshold, smoothing.

    ``max_depth=0`` degenerates to a unigram model.  ``min_count`` is the
    number of observed (context, successor) events a context needs to be
    retained.  ``smoothing`` is the add-lambda constant applied to
    successor counts at prediction time.  They are stored as exact ``int``,
    ``int`` and ``float``, so a saved model's config line reads back equal.
    """

    max_depth: int = 4
    min_count: int = 2
    smoothing: float = 0.5

    def __post_init__(self):
        for name, convert in (("max_depth", operator.index), ("min_count", operator.index), ("smoothing", float)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, convert(value))
            except (TypeError, ValueError, OverflowError) as err:
                raise InvalidArgumentError(f"bad {name} {value!r}: {err}") from None
        if not 0 <= self.max_depth <= MAX_DEPTH:
            raise InvalidArgumentError(f"max_depth must be in [0, {MAX_DEPTH}], got {self.max_depth}")
        if self.min_count < 1:
            raise InvalidArgumentError(f"min_count must be >= 1, got {self.min_count}")
        if not (math.isfinite(self.smoothing) and self.smoothing >= 0):
            raise InvalidArgumentError(f"smoothing must be finite and >= 0, got {self.smoothing}")


class _Node:
    """One context's successor counts (a list in alphabet order) and their sum.

    Nodes are shared in every grammar: ``train`` and ``from_counts``
    store one node under every context whose counts are equal, and
    ``load_model`` under every context whose counts text is equal (the
    same rows, in a file ``save_model`` wrote).  So nothing may write
    ``counts`` or ``total``.
    """

    __slots__ = ("counts", "total")

    def __init__(self, counts: list[int], total: int = 0):
        self.counts = counts
        self.total = total


def _longest_suffix(keys, key: int, powers: Sequence[int]) -> int:
    """Key of the longest suffix of context ``key`` in the suffix-closed
    set ``keys``, which holds the root; ``powers[L]`` is ``base**L``.

    A key in ``keys`` is its own answer and costs one membership test; only
    a missing key has its symbols counted, to drop them oldest first.  On
    the data a grammar was trained on, every window is a retained context.
    """
    if key in keys:
        return key
    length = bisect_right(powers, key)  # the context's symbol count
    while key not in keys:
        length -= 1
        key %= powers[length]
    return key


class PatternGrammar:
    """Trained contexts bound to a scheme and a training config.

    One dict maps each retained context's key (digits in base
    ``size + 1``, each a symbol index plus one, newest symbol lowest, root
    0) to its successor counts, a list in alphabet order.  A retained
    context's suffixes are retained.  Every score comes from ``_log_prob``.

    The counts are immutable: ``train``, ``from_counts`` and
    ``load_model`` all store one node under every context of equal rows
    (see ``_Node``).  The Viterbi decoder scores
    through the grammar's context automaton (see ``step``), whose entries
    the grammar fills lazily, one (state, symbol) entry on first use, and
    keeps across calls.  The decoder's tables (``_rows``, see ``segment``),
    one dict per symbol index, are made with the grammar and filled with
    rows of entries the same way.  ``log_prob``, ``conditional``, the
    chain rule (and so the brute-force oracle) and the entropy functions
    never touch them.

    Queries are safe from any number of threads without a lock.  An
    automaton entry or a decoder row is a pure function of the counts
    and its state is a context key, not a fill order, so threads that
    build the prefix closure, an entry or a row at once build equal
    ones, and whichever is stored gives every thread the same states and
    the same bitwise scores.  No thread makes or replaces a table.
    """

    def __init__(self, scheme: EncodingScheme, config: TrainConfig):
        if not math.isfinite(config.smoothing * scheme.size):
            raise TonosegError(
                f"smoothing {config.smoothing!r} too large for an alphabet of {scheme.size} symbols"
            )
        self.scheme = scheme
        self.config = config
        self._size = scheme.size
        self._nodes: dict[int, _Node] = {0: _Node([0] * scheme.size)}
        # Each symbol's digit in a context key, and base**L for L = 0..max_depth.
        self._digits = {s: i + 1 for i, s in enumerate(scheme.alphabet)}
        self._powers = [(scheme.size + 1) ** n for n in range(config.max_depth + 1)]
        # The automaton (see ``step``): its set of state keys, built on the first miss, and entries.
        self._closure: Container[int] | None = None
        self._entries: dict[int, tuple[int, float]] = {}
        # The decoder's tables, one per symbol index (see ``segment``), made here, filled like the entries.
        self._rows: dict[int, dict[int, tuple]] = {a: {} for a in range(scheme.size)}
        # The decoder's constants and its view of the tables (see ``segment._layout``), made on first use.
        self._layout: tuple | None = None

    # -- structure ----------------------------------------------------

    @property
    def total_symbols(self) -> int:
        """Number of symbol positions seen in training (root tally)."""
        return self._nodes[0].total

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def iter_counts(self) -> Iterator[tuple[tuple, dict]]:
        """Yield (context, successor-counts) per retained node.

        Contexts are in chronological order (oldest symbol first) and the
        iteration order is deterministic: depth first by alphabet rank.
        Each dict holds the nonzero counts, in alphabet order.
        """
        alphabet = self.scheme.alphabet
        for context, counts in self._walk(tuple((s,) for s in alphabet), ()):
            yield context, {s: c for s, c in zip(alphabet, counts) if c}

    def _walk(self, labels: Sequence, root) -> Iterator[tuple[object, list[int]]]:
        """(label, successor-counts) per retained node in ``iter_counts`` order.  The root's
        label is ``root``; a context's is ``labels[a] +`` its one-shorter suffix's label,
        ``a`` being its oldest symbol's index."""
        nodes, powers, size = self._nodes, self._powers, self.scheme.size
        stack = [(0, 0, root)]
        while stack:
            key, length, label = stack.pop()
            yield label, nodes[key].counts
            if length < self.config.max_depth:
                # Children add an older symbol, as the highest digit; they
                # are pushed in reverse alphabet order.
                scale = powers[length]
                for child in range(key + size * scale, key, -scale):
                    if child in nodes:
                        stack.append((child, length + 1, labels[child // scale - 1] + label))

    @classmethod
    def from_counts(
        cls,
        scheme: EncodingScheme,
        config: TrainConfig,
        items: Iterable[tuple[tuple, dict]],
    ) -> "PatternGrammar":
        """Rebuild a grammar from (context, successor-counts) pairs.

        Every non-root context's one-shorter suffix must already be
        present (suffix closure), so the root, if given, comes first;
        violations raise ``TonosegError``.  Each count is read with
        ``operator.index``, so a bool or numpy int becomes an int and any
        other value raises ``TonosegError``.  Contexts with equal counts
        share one node, whose count checks run where the row first occurs.
        """
        grammar = cls(scheme, config)
        digits, base = grammar._digits, scheme.size + 1
        grammar._nodes.clear()  # the items bring every node; the root is added below if not
        shared: dict[tuple, _Node] = {}  # a row's counts -> its node
        for context, counts in items:
            key = 0
            for sym in context:
                digit = digits.get(sym)
                if digit is None:
                    raise AlphabetError(f"context symbol {sym!r} not in scheme alphabet")
                key = key * base + digit
            for sym in counts:
                if sym not in digits:
                    raise AlphabetError(f"successor {sym!r} not in scheme alphabet")
            grammar._check_context(key, context)
            row = []
            for sym in scheme.alphabet:
                count = counts.get(sym, 0)
                try:
                    row.append(operator.index(count))
                except TypeError:
                    raise TonosegError(
                        f"non-integer count {count!r} for {str(sym)!r} in context {context_text(context)!r}"
                    ) from None
            same = tuple(row)
            node = shared.get(same)
            if node is None:
                node = shared[same] = grammar._new_node(row, context)
            grammar._nodes[key] = node
        grammar._nodes.setdefault(0, _Node([0] * scheme.size))
        return grammar

    def _check_context(self, key: int, context: Sequence) -> None:
        """Raise unless context ``key`` may be stored next: it is new, not
        deeper than ``max_depth``, and its one-shorter suffix is stored
        already, so by induction all its suffixes are."""
        nodes, powers = self._nodes, self._powers
        length = bisect_right(powers, key)  # the context's symbol count
        if length > self.config.max_depth:
            raise TonosegError(
                f"context {context_text(context)!r} longer than max_depth={self.config.max_depth}"
            )
        if key and key % powers[length - 1] not in nodes:
            raise TonosegError(
                f"context {context_text(context)!r} lacks its suffix; trie not suffix-closed"
            )
        if key in nodes:
            raise TonosegError(f"duplicate context {context_text(context)!r}")

    def _new_node(self, counts: list[int], context: Sequence) -> _Node:
        """The node of one row of counts, which must be non-negative with a
        finite smoothed total; ``context`` names the row in errors."""
        if min(counts, default=0) < 0:
            sym = next(s for s, c in zip(self.scheme.alphabet, counts) if c < 0)
            raise TonosegError(
                f"negative count for {str(sym)!r} in context {context_text(context)!r}"
            )
        total = sum(counts)
        lam = self.config.smoothing
        # An int past the float range fails the first test; the sum would raise OverflowError.
        if not (total <= sys.float_info.max and math.isfinite(total + lam * self._size)):
            raise TonosegError(
                f"counts in context {context_text(context)!r} too large: smoothed total is not finite"
            )
        return _Node(counts, total)

    # -- prediction ---------------------------------------------------

    def _log_prob(self, window: int, a: int) -> float:
        """ln P of symbol index ``a`` after context key ``window``: add-lambda at its longest
        retained suffix.  Every score comes from here, so all agree bitwise.  Counts are
        never negative, so a zero denominator has a zero numerator: the score is -inf."""
        nodes = self._nodes
        node = nodes[_longest_suffix(nodes, window, self._powers)]
        lam = self.config.smoothing
        num = node.counts[a] + lam
        if num == 0:
            return -math.inf
        denom = node.total + lam * self._size
        p = num / denom
        return math.log(p) if p else math.log(num) - math.log(denom)  # p underflowed to 0

    def _surprisal_bound(self) -> float:
        """An upper bound on -ln P of any one symbol under positive smoothing, with a
        slack of 1: every smoothed count is at least lambda and every smoothed total at
        most the largest row total plus lambda * size."""
        lam = self.config.smoothing
        top = max(node.total for node in self._nodes.values())
        return math.log(top + lam * self._size) - math.log(lam) + 1.0

    def _window(self, context: Sequence) -> int:
        """Key of the context's last ``max_depth`` symbols, cut at the newest one outside the alphabet."""
        key = 0
        for depth in range(min(len(context), self.config.max_depth)):
            digit = self._digits.get(context[-1 - depth])
            if digit is None:
                break
            key += digit * self._powers[depth]
        return key

    def conditional(self, context: Sequence) -> tuple[float, ...]:
        """Smoothed successor distribution over the alphabet, in order.

        Only the last ``max_depth`` context symbols can matter.  With a
        positive smoothing constant the result is strictly positive; a
        matched context with no counts and zero smoothing has no
        distribution and raises ``TonosegError``.
        """
        window = self._window(context)
        scores = [self._log_prob(window, a) for a in range(self._size)]
        if all(lp == -math.inf for lp in scores):
            raise TonosegError("no counts at matched context and smoothing is zero")
        return tuple(map(math.exp, scores))

    def log_prob(self, symbol, context: Sequence) -> float:
        """ln P(symbol | context); -inf when unsmoothed and unseen."""
        digit = self._digits.get(symbol)
        if digit is None:
            raise AlphabetError(f"symbol {symbol!r} not in scheme alphabet")
        return self._log_prob(self._window(context), digit - 1)

    def step(self, state: int, a: int) -> tuple[int, float]:
        """(next state, ln P) for symbol index ``a`` read in ``state``.

        The grammar as a context automaton, filled lazily: the
        prediction-suffix-tree-to-automaton construction of Ron, Singer &
        Tishby ("The Power of Amnesia", 1996).  The states are the
        retained contexts closed under prefixes; the state of a history is
        its longest suffix among them.  The state of a history extended by
        one symbol is the longest such suffix of (state + symbol), and the
        longest retained suffix of a history, which ``_log_prob`` scores at,
        is that of its state, so an entry scores ``_log_prob(state, a)``.  The
        closure matters: with the context ``H L`` retained but ``H`` pruned,
        the state after ``H`` must remember the ``H``.  Trained grammars are
        closed under prefixes (a context's prefix occurs wherever the context
        does, one position earlier); ``from_counts`` accepts ones that are not.

        A state is its context's key, the root 0.  The entry of state ``s``
        and symbol index ``a`` is computed on first use and stored whole, as
        ``(next state, ln P)`` under ``s * size + a``.  An entry is a pure
        function of the immutable counts, stored as one finished tuple, so
        threads that race on it store equal tuples and need no lock.
        """
        size = self._size
        entry = self._entries.get(state * size + a)
        if entry is None:
            powers, closure = self._powers, self._closure
            if closure is None:
                # The retained keys and their other prefixes (``_nodes`` itself if none).
                nodes, missing = self._nodes, set()
                for key in nodes:
                    key //= size + 1
                    while key not in nodes and key not in missing:
                        missing.add(key)
                        key //= size + 1
                closure = self._closure = nodes.keys() | missing if missing else nodes
            longer = (state * (size + 1) + a + 1) % powers[-1]
            entry = self._entries[state * size + a] = (
                _longest_suffix(closure, longer, powers),
                self._log_prob(state, a),
            )
        return entry

    def sequence_log_probability(self, symbols: Sequence) -> float:
        """Natural-log chain-rule probability of one symbol sequence.

        Histories never cross the sequence boundary: the first symbol is
        predicted from the empty context.  Returns -inf if an unseen
        transition meets zero smoothing.
        """
        digits, log_prob, base = self._digits, self._log_prob, self._size + 1
        top = self._powers[self.config.max_depth]
        total = 0.0
        window = 0  # key of the last max_depth symbols
        for sym in symbols:
            digit = digits.get(sym)
            if digit is None:
                raise AlphabetError(f"symbol {sym!r} not in scheme alphabet")
            lp = log_prob(window, digit - 1)
            if lp == -math.inf:
                return -math.inf
            total += lp
            window = (window * base + digit) % top
        return total


def _alphabet_error(seq: tuple, si: int, digits: dict, scheme: EncodingScheme) -> AlphabetError:
    """The error for the first symbol of sequence ``si`` outside the alphabet.  Walking to it
    raises ``TypeError`` at an unhashable symbol before it, as a lookup of that symbol would."""
    pos, sym = next((pos, sym) for pos, sym in enumerate(seq) if sym not in digits)
    return AlphabetError(
        f"sequence {si}, position {pos}: symbol {sym!r} not in alphabet of scheme {scheme.scheme_id!r}"
    )


def train(
    sequences: Iterable[Sequence],
    scheme: EncodingScheme,
    config: TrainConfig | None = None,
) -> PatternGrammar:
    """Tally (context, successor) events and prune rare contexts.

    A successor is counted under every context suffix of up to
    ``max_depth`` symbols (never reaching across the start of its
    sequence), as in a prediction suffix tree.  Each position is tallied
    once, under its window's key extended by the successor.  The tallies
    fill one row of successor counts per context; from the longest
    contexts down, each row is then added into its one-shorter suffix's
    row.  Contexts observed fewer than ``min_count`` times are removed.
    A context is never observed more often than its one-shorter suffix,
    so the retained set stays suffix-closed.

    Each sequence is read once, into a tuple, and its symbols are
    checked where it first occurs, so an error names the first sequence
    that holds a symbol outside the alphabet.  Each distinct sequence is
    then tallied once, in first-seen order, adding its number of
    occurrences to each of its events: the counts, and the order of the
    contexts, are those of tallying every position.  Retained contexts
    with equal counts share one node.
    """
    grammar = PatternGrammar(scheme, config or TrainConfig())
    digits, powers = grammar._digits, grammar._powers
    depth, size, base = grammar.config.max_depth, scheme.size, scheme.size + 1
    top = powers[depth]
    alphabet = frozenset(digits)
    seen: dict[tuple, int] = {}  # a sequence read -> its index in ``times``
    times: list[int] = []  # each distinct sequence's number of occurrences
    for si, seq in enumerate(sequences):
        seq = tuple(seq)
        try:
            k = seen.setdefault(seq, len(times))
        except TypeError:  # an unhashable symbol: ``_alphabet_error`` raises there, or earlier
            k = None
        if k is None or (k == len(times) and not alphabet.issuperset(seq)):
            raise _alphabet_error(seq, si, digits, scheme)
        if k < len(times):
            times[k] += 1
        else:
            times.append(1)
    events: dict[int, int] = {}  # the window's key extended by the successor -> count
    for seq, count in zip(seen, times):
        window = 0  # key of the last max_depth symbols
        for successor in seq:
            event = window * base + digits[successor]
            events[event] = events.get(event, 0) + count
            window = event % top
    del seen
    # Rows by context length.  A suffix's row is often missing: a context
    # shorter than max_depth is a whole window only at a sequence start.
    rows: list[dict[int, list[int]]] = [{} for _ in range(depth + 1)]
    for event, count in events.items():
        context, digit = divmod(event, base)
        tier = rows[bisect_right(powers, context)]
        row = tier.get(context)
        if row is None:
            row = tier[context] = [0] * size
        row[digit - 1] = count
    del events
    for length in range(depth, 0, -1):
        shorter, scale = rows[length - 1], powers[length - 1]
        for key, row in rows[length].items():
            into = shorter.get(key % scale)
            if into is None:
                shorter[key % scale] = row[:]
            else:
                into[:] = map(add, into, row)
    min_count = grammar.config.min_count
    nodes = grammar._nodes
    shared: dict[tuple, _Node] = {}  # a row's counts -> its node
    for tier in rows:
        for key, row in tier.items():
            total = sum(row)
            if total >= min_count or key == 0:
                same = tuple(row)
                node = shared.get(same)
                if node is None:
                    node = shared[same] = _Node(row, total)
                nodes[key] = node
        tier.clear()  # so that the rows' dicts and the nodes' dict do not peak together
    return grammar


def marginal_entropy(sequences: Iterable[Sequence], n_categories: int) -> tuple[float, float]:
    """Entropy of the empirical unigram distribution, and its value
    normalized by ln(n_categories).

    0 * ln 0 counts as 0; the result is 0 for a deterministic stream and
    ln(n_categories) for an equiprobable one.
    """
    if n_categories < 2:
        raise InvalidArgumentError(f"n_categories must be >= 2, got {n_categories}")
    counts = Counter(chain.from_iterable(sequences))  # keys in first-seen order
    total = sum(counts.values())
    if total == 0:
        raise InvalidArgumentError("cannot measure entropy of an empty symbol stream")
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log(p)
    return h, h / math.log(n_categories)


def model_entropy(
    grammar: PatternGrammar,
    sequences: Iterable[Sequence],
    n_categories: int | None = None,
) -> tuple[float, float]:
    """Per-symbol cross-entropy of the data under the grammar.

    Averages -ln P(symbol | history) over every position of every
    sequence, each sequence starting from the empty context.  With
    ``max_depth=0`` and zero smoothing this equals the marginal entropy
    of the same data.

    A position's score depends only on its event: the key of the
    ``max_depth`` symbols before it, extended by its own symbol (as in
    ``train``).  Each sequence is read once, into a tuple.  Its first
    occurrence is walked, and each distinct event is scored once per
    call, where it first occurs; so an error names the first sequence,
    and the position in it, where the walk of every position would stop.
    Its second occurrence keeps its scores, one per position, and later
    ones reuse them.  The scores are still subtracted one per position,
    in order: the result is the float that summing ``log_prob`` position
    by position gives.
    """
    if n_categories is None:
        n_categories = grammar.scheme.size
    if n_categories < 2:
        raise InvalidArgumentError(f"n_categories must be >= 2, got {n_categories}")
    digits, log_prob, base = grammar._digits, grammar._log_prob, grammar._size + 1
    top = grammar._powers[grammar.config.max_depth]
    memo: dict[int, float] = {}  # event -> ln P
    seen: dict[tuple, int] = {}  # a sequence read -> its index in ``kept``
    kept: list[list[float] | None] = []  # a distinct sequence's scores, from its second occurrence on
    total = 0.0
    positions = 0
    for si, seq in enumerate(sequences):
        seq = tuple(seq)
        try:
            k = seen.setdefault(seq, len(kept))
        except TypeError:  # an unhashable symbol: the first walk raises there, or earlier
            k = len(kept)
        window = 0  # key of the last max_depth symbols
        if k == len(kept):
            kept.append(None)
            for sym in seq:
                digit = digits.get(sym)
                if digit is None:
                    raise _alphabet_error(seq, si, digits, grammar.scheme)
                event = window * base + digit
                lp = memo.get(event)
                if lp is None:
                    # An event's first occurrence is its only miss, so the error names it.
                    lp = memo[event] = log_prob(window, digit - 1)
                    if lp == -math.inf:
                        raise TonosegError(
                            f"sequence {si}, position {_event_position(grammar, seq, event)}: "
                            "unseen transition with zero smoothing"
                        )
                total -= lp
                window = event % top
        elif kept[k] is None:
            scores = kept[k] = []
            for sym in seq:  # every event was scored on the first walk
                event = window * base + digits[sym]
                lp = memo[event]
                scores.append(lp)
                total -= lp
                window = event % top
        else:
            for lp in kept[k]:
                total -= lp
        positions += len(seq)
    if positions == 0:
        raise InvalidArgumentError("cannot measure entropy of an empty symbol stream")
    h = total / positions
    return h, h / math.log(n_categories)


def _event_position(grammar: PatternGrammar, seq: tuple, event: int) -> int:
    """Index of the first position of ``seq`` whose event is ``event``; every symbol up
    to there is in the alphabet."""
    digits, base, top = grammar._digits, grammar._size + 1, grammar._powers[-1]
    pos, found = 0, digits[seq[0]]  # the first position's event: its window is empty
    while found != event:
        pos += 1
        found = found % top * base + digits[seq[pos]]
    return pos


def normalized_entropy(h: float, n_categories: int) -> float:
    """Map an entropy in [0, ln N], give or take ``ENTROPY_TOLERANCE``, onto [0, 1]."""
    if n_categories < 2:
        raise InvalidArgumentError(f"n_categories must be >= 2, got {n_categories}")
    hmax = math.log(n_categories)
    if not -ENTROPY_TOLERANCE <= h <= hmax + ENTROPY_TOLERANCE:  # NaN fails too
        raise InvalidArgumentError(f"entropy {h} outside [0, {hmax:.6f}] for {n_categories} categories")
    return min(max(h, 0.0), hmax) / hmax
