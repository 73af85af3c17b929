"""Variable-length-context probabilistic grammar over symbol sequences.

Frequent left contexts (up to a configurable depth) are stored in a
suffix trie together with their successor counts; prediction finds the
longest stored suffix of the history and applies add-lambda smoothing
at that node.  Chain-rule sequence scores and entropy measures (with
and without the grammar) are built on top.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import AlphabetError, EncodingScheme, TonosegError, context_text

# Guards the creation and filling of every grammar's transition table.
# One lock for the module, not one per grammar, so grammars stay plain
# data that pickle and deepcopy accept.
_TABLE_LOCK = threading.Lock()

@dataclass(frozen=True)
class TrainConfig:
    """Training knobs: context depth, retention threshold, smoothing.

    ``max_depth=0`` degenerates to a unigram model.  ``min_count`` is the
    number of observed (context, successor) events a context needs to be
    retained.  ``smoothing`` is the add-lambda constant applied to
    successor counts at prediction time.
    """

    max_depth: int = 4
    min_count: int = 2
    smoothing: float = 0.5

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if self.smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {self.smoothing}")


class _Node:
    __slots__ = ("counts", "children", "total")

    def __init__(self):
        self.counts: dict = {}
        self.children: dict = {}
        self.total = 0

    def add(self, successor):
        self.counts[successor] = self.counts.get(successor, 0) + 1
        self.total += 1


def _match(root: _Node, context: Sequence) -> _Node:
    """Longest retained suffix of the context; the root always matches."""
    node = root
    n = len(context)
    for j in range(n - 1, -1, -1):
        nxt = node.children.get(context[j])
        if nxt is None:
            break
        node = nxt
    return node


def _smoothed_log_prob(node: _Node, symbol, smoothing: float, size: int) -> float:
    """ln P(symbol) under add-lambda smoothing at one trie node.

    The single place the smoothed arithmetic lives: ``log_prob``,
    ``conditional`` and the transition table all call it, so their
    scores agree bitwise.
    """
    denom = node.total + smoothing * size
    if denom == 0:
        raise TonosegError("no counts at matched context and smoothing is zero")
    num = node.counts.get(symbol, 0) + smoothing
    if num == 0:
        return -math.inf
    return math.log(num / denom)


class PatternGrammar:
    """Trained context trie bound to a scheme and a training config.

    The counts are immutable once trained.  The decoders score through a
    transition table (see ``transitions``) that the grammar owns and
    fills lazily, one (state, symbol) entry on first use; it stays with
    the grammar across calls.  ``log_prob``, ``conditional`` and the
    entropy functions never touch it.

    Queries are safe from any number of threads.  The table is created,
    and each entry filled, under one module-wide lock; an entry is written
    once, its log-probability before its next state, and never changes
    afterwards.  A reader that sees a next state of -1 takes the lock and
    fills (or finds filled) the entry, so every thread sees the same
    states and the same bitwise scores.
    """

    def __init__(self, scheme: EncodingScheme, config: TrainConfig, root: _Node | None = None):
        self.scheme = scheme
        self.config = config
        self._root = root if root is not None else _Node()
        self._transitions: _Transitions | None = None

    # -- structure ----------------------------------------------------

    @property
    def total_symbols(self) -> int:
        """Number of symbol positions seen in training (root tally)."""
        return self._root.total

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.iter_counts())

    def iter_counts(self) -> Iterator[tuple[tuple, dict]]:
        """Yield (context, successor-counts) per retained node.

        Contexts are in chronological order (oldest symbol first) and the
        iteration order is deterministic: depth first by alphabet rank.
        """
        order = {s: i for i, s in enumerate(self.scheme.alphabet)}

        def walk(node, context):
            yield context, node.counts
            for sym in sorted(node.children, key=order.__getitem__):
                yield from walk(node.children[sym], (sym,) + context)

        yield from walk(self._root, ())

    @classmethod
    def from_counts(
        cls,
        scheme: EncodingScheme,
        config: TrainConfig,
        items: Iterable[tuple[tuple, dict]],
    ) -> "PatternGrammar":
        """Rebuild a grammar from (context, successor-counts) pairs.

        Every non-root context's one-shorter suffix must already be
        present (suffix closure); violations raise ``TonosegError``.
        """
        root = _Node()
        allowed = set(scheme.alphabet)
        for context, counts in items:
            if len(context) > config.max_depth:
                raise TonosegError(
                    f"context {context_text(context)!r} longer than max_depth={config.max_depth}"
                )
            node = root
            for depth, sym in enumerate(reversed(tuple(context))):
                if sym not in allowed:
                    raise AlphabetError(f"context symbol {sym!r} not in scheme alphabet")
                child = node.children.get(sym)
                if child is None:
                    if depth != len(context) - 1:
                        raise TonosegError(
                            f"context {context_text(context)!r} lacks its suffix; "
                            "trie not suffix-closed"
                        )
                    child = _Node()
                    node.children[sym] = child
                node = child
            if node.counts:
                raise TonosegError(f"duplicate context {context_text(context)!r}")
            for sym, c in counts.items():
                if sym not in allowed:
                    raise AlphabetError(f"successor {sym!r} not in scheme alphabet")
                if c < 0:
                    raise TonosegError(
                        f"negative count for {str(sym)!r} in context {context_text(context)!r}"
                    )
                if c:
                    node.counts[sym] = c
                    node.total += c
        return cls(scheme, config, root)

    # -- prediction ---------------------------------------------------

    def conditional(self, context: Sequence) -> tuple[float, ...]:
        """Smoothed successor distribution over the alphabet, in order.

        Only the last ``max_depth`` context symbols can matter.  With a
        positive smoothing constant the result is strictly positive.
        """
        node = _match(self._root, context)
        lam, size = self.config.smoothing, self.scheme.size
        return tuple(
            math.exp(_smoothed_log_prob(node, sym, lam, size)) for sym in self.scheme.alphabet
        )

    def log_prob(self, symbol, context: Sequence) -> float:
        """ln P(symbol | context); -inf when unsmoothed and unseen."""
        if symbol not in self.scheme:
            raise AlphabetError(f"symbol {symbol!r} not in scheme alphabet")
        return _smoothed_log_prob(
            _match(self._root, context), symbol, self.config.smoothing, self.scheme.size
        )

    def transitions(self) -> "_Transitions":
        """The grammar's context automaton, created on first use."""
        table = self._transitions
        if table is None:
            with _TABLE_LOCK:
                if self._transitions is None:
                    self._transitions = _Transitions(self)
                table = self._transitions
        return table

    def sequence_log_probability(self, symbols: Sequence) -> float:
        """Natural-log chain-rule probability of one symbol sequence.

        Histories never cross the sequence boundary: the first symbol is
        predicted from the empty context.  Returns -inf if an unseen
        transition meets zero smoothing.
        """
        total = 0.0
        for i in range(len(symbols)):
            lp = self.log_prob(symbols[i], symbols[max(0, i - self.config.max_depth) : i])
            if lp == -math.inf:
                return -math.inf
            total += lp
        return total


class _Transitions:
    """The grammar compiled into a context automaton, filled lazily.

    This is the prediction-suffix-tree-to-automaton construction of Ron,
    Singer & Tishby ("The Power of Amnesia", 1996).  The states are the
    retained contexts closed under prefixes; the state of a history is
    its longest suffix among them, state 0 being the empty context.  The
    state of a history extended by one symbol is the longest such suffix
    of (state + symbol), and the longest retained suffix of a history,
    which ``log_prob`` scores at, is a suffix of its state.  So one row per
    state gives every score.  The closure matters: with the context
    ``H L`` retained but ``H`` pruned, the state after ``H`` must
    remember the ``H``.

    ``next[s * size + a]`` is the state after symbol index ``a`` from
    state ``s`` (-1 until filled) and ``lp[s * size + a]`` its ln P.
    The flat arrays hold no Python object per transition; states and
    their rows are added as transitions first reach them.
    """

    def __init__(self, grammar: PatternGrammar):
        # No reference back to the grammar: without a cycle, dropping the
        # grammar frees its trie and table at once, not at the next
        # collection of the garbage collector's oldest generation.
        self.size = grammar.scheme.size
        self.next = array("i")
        self.lp = array("d")
        self._alphabet = grammar.scheme.alphabet
        self._smoothing = grammar.config.smoothing
        self._root = grammar._root
        self._contexts: list[tuple] = []
        self._nodes: list[_Node] = []
        self._ids: dict[tuple, int] = {}
        self._unretained_prefixes = _unretained_prefixes(grammar._root)
        self._blank_next = array("i", [-1]) * self.size
        self._blank_lp = array("d", [0.0]) * self.size
        self._add((), grammar._root)

    def _add(self, context: tuple, node: _Node) -> int:
        state = len(self._contexts)
        self._contexts.append(context)
        self._nodes.append(node)
        self._ids[context] = state
        self.next.extend(self._blank_next)
        self.lp.extend(self._blank_lp)
        return state

    def _state(self, context: tuple) -> int | None:
        """Id of a context in the prefix closure, or None when outside it."""
        state = self._ids.get(context)
        if state is not None:
            return state
        if context in self._unretained_prefixes:
            return self._add(context, _match(self._root, context))
        node = self._root
        for sym in reversed(context):
            node = node.children.get(sym)
            if node is None:
                return None
        return self._add(context, node)

    def fill(self, k: int) -> int:
        """Compute entry ``k`` if no thread has yet; return its next state."""
        with _TABLE_LOCK:
            return self._fill(k)

    def _fill(self, k: int) -> int:
        target = self.next[k]
        if target < 0:
            state, a = divmod(k, self.size)
            context = self._contexts[state]
            symbol = self._alphabet[a]
            target = self._state(context + (symbol,))
            if target is None and context:
                # The closure is also suffix-closed, so context[1:] is a
                # state, and its successor is the longest suffix wanted.
                target = self._fill(self._state(context[1:]) * self.size + a)
            elif target is None:
                target = 0
            self.lp[k] = _smoothed_log_prob(self._nodes[state], symbol, self._smoothing, self.size)
            self.next[k] = target
        return target

    def step(self, state: int, a: int) -> tuple[int, float]:
        """(next state, ln P) for symbol index ``a`` read in ``state``."""
        k = state * self.size + a
        target = self.next[k]
        if target < 0:
            target = self.fill(k)
        return target, self.lp[k]


def _unretained_prefixes(root: _Node) -> set:
    """A superset of the proper prefixes of retained contexts that are
    not themselves retained.

    Trained tries have none (a context's prefix occurs wherever the
    context does, one position earlier); ``from_counts`` accepts tries
    that do.  The node of ``c[:-1]`` is the child, on ``c``'s oldest
    symbol, of the node of ``c[1:-1]``, so one walk finds every context
    whose prefix is missing.  For such a context all its proper prefixes
    go in, so the set may also hold retained ones (``(a,)`` when ``(a, b)``
    is missing); ``_Transitions._state`` matches those to their own node.
    """
    out: set = set()
    # (node, its context, node of context[:-1] or None)
    stack = [(child, (sym,), root) for sym, child in root.children.items()]
    while stack:
        node, context, prefix = stack.pop()
        for sym, child in node.children.items():
            child_prefix = prefix.children.get(sym) if prefix is not None else None
            if child_prefix is None:
                child_context = (sym,) + context
                out.update(child_context[:j] for j in range(1, len(child_context)))
            if child.children:
                stack.append((child, (sym,) + context, child_prefix))
    return out


def train(
    sequences: Iterable[Sequence],
    scheme: EncodingScheme,
    config: TrainConfig | None = None,
) -> PatternGrammar:
    """Tally (context, successor) events and prune rare contexts.

    For every position the successor is counted under all context
    suffixes up to ``max_depth`` symbols long (never reaching across the
    start of the sequence).  Contexts observed fewer than ``min_count``
    times are removed; removal takes the whole subtree with it, so the
    trie stays suffix-closed.
    """
    if config is None:
        config = TrainConfig()
    root = _Node()
    depth = config.max_depth
    allowed = {s: None for s in scheme.alphabet}
    for si, seq in enumerate(sequences):
        for pos, successor in enumerate(seq):
            if successor not in allowed:
                raise AlphabetError(
                    f"sequence {si}, position {pos}: symbol {successor!r} "
                    f"not in alphabet of scheme {scheme.scheme_id!r}"
                )
            node = root
            node.add(successor)
            for back in range(1, min(pos, depth) + 1):
                sym = seq[pos - back]
                child = node.children.get(sym)
                if child is None:
                    child = _Node()
                    node.children[sym] = child
                node = child
                node.add(successor)

    def prune(node):
        node.children = {
            sym: child
            for sym, child in node.children.items()
            if child.total >= config.min_count
        }
        for child in node.children.values():
            prune(child)

    prune(root)
    return PatternGrammar(scheme, config, root)


def marginal_entropy(sequences: Iterable[Sequence], n_categories: int) -> tuple[float, float]:
    """Entropy of the empirical unigram distribution, and its value
    normalized by ln(n_categories).

    0 * ln 0 counts as 0; the result is 0 for a deterministic stream and
    ln(n_categories) for an equiprobable one.
    """
    if n_categories < 2:
        raise ValueError(f"n_categories must be >= 2, got {n_categories}")
    counts: dict = {}
    total = 0
    for seq in sequences:
        for sym in seq:
            counts[sym] = counts.get(sym, 0) + 1
            total += 1
    if total == 0:
        raise ValueError("cannot measure entropy of an empty symbol stream")
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
    """
    if n_categories is None:
        n_categories = grammar.scheme.size
    if n_categories < 2:
        raise ValueError(f"n_categories must be >= 2, got {n_categories}")
    depth = grammar.config.max_depth
    total = 0.0
    positions = 0
    for si, seq in enumerate(sequences):
        for i in range(len(seq)):
            lp = grammar.log_prob(seq[i], seq[max(0, i - depth) : i])
            if lp == -math.inf:
                raise TonosegError(
                    f"sequence {si}, position {i}: unseen transition with zero smoothing"
                )
            total -= lp
            positions += 1
    if positions == 0:
        raise ValueError("cannot measure entropy of an empty symbol stream")
    h = total / positions
    return h, h / math.log(n_categories)


def normalized_entropy(h: float, n_categories: int, tolerance: float = 1e-9) -> float:
    """Map an entropy in [0, ln N] onto [0, 1]."""
    if n_categories < 2:
        raise ValueError(f"n_categories must be >= 2, got {n_categories}")
    hmax = math.log(n_categories)
    if h < -tolerance or h > hmax + tolerance:
        raise ValueError(f"entropy {h} outside [0, {hmax:.6f}] for {n_categories} categories")
    return min(max(h, 0.0), hmax) / hmax
