"""Shared builders for randomized tests (everything seeded, no globals)."""

from __future__ import annotations

import math
import random

from tonoseg.core import (
    AlphabetError,
    Corpus,
    EmptyWordError,
    InvalidArgumentError,
    ProsodicWord,
    Tone,
    TonosegError,
    Turn,
    UnknownSchemeError,
    UnknownToneError,
    get_scheme,
)
from tonoseg.evaluate import ConfusionMatrix, EvaluationError
from tonoseg.formats import (
    _SPAN,
    _TOKEN,
    CORPUS_HEADER,
    MODEL_HEADER,
    CorpusFormatError,
    CorruptModelError,
    NestingError,
    SchemeMismatchError,
    SegmentationFormatError,
    VersionError,
    _drop_comments,
)
from tonoseg.grammar import PatternGrammar, TrainConfig, _Node
from tonoseg.segment import SegmentationResult, WordSpan
from tonoseg.synth import PlantedGrammar

TONES = list(Tone)


def copy_tables(rows: dict) -> dict:
    """A snapshot of a grammar's decoder tables (``_rows``): each symbol's
    dict is copied too, so a row stored later does not show in it."""
    return {a: dict(table) for a, table in rows.items()}


def word(letters: str, prominent: bool = False) -> ProsodicWord:
    return ProsodicWord(tuple(Tone(c) for c in letters), prominent)


def turn(*specs) -> Turn:
    """turn("US", ("TD", True)) -> two-word turn, second prominent."""
    words = []
    for spec in specs:
        if isinstance(spec, str):
            words.append(word(spec))
        else:
            words.append(word(spec[0], spec[1]))
    return Turn(tuple(words))


def random_turn(rng: random.Random, max_words: int = 4, max_tones: int = 4) -> Turn:
    words = []
    for _ in range(rng.randint(1, max_words)):
        tones = tuple(rng.choice(TONES) for _ in range(rng.randint(1, max_tones)))
        words.append(ProsodicWord(tones, rng.random() < 0.3))
    return Turn(tuple(words))


def random_corpus(rng: random.Random, n_turns: int, **kwargs) -> Corpus:
    return Corpus(tuple(random_turn(rng, **kwargs) for _ in range(n_turns)))


def random_dist(rng: random.Random, values, k: int):
    """k-point distribution over a sample of values, probabilities summing
    to 1 exactly enough for PlantedGrammar validation."""
    vals = rng.sample(list(values), k)
    weights = [rng.random() + 0.1 for _ in vals]
    s = sum(weights)
    return tuple((v, w / s) for v, w in zip(vals, weights))


def random_planted(rng: random.Random, prominence: float | None = None) -> PlantedGrammar:
    return PlantedGrammar(
        word_lengths=random_dist(rng, [1, 2, 3, 4], rng.randint(2, 3)),
        interior_tones=random_dist(rng, TONES, rng.randint(2, 4)),
        final_tones=random_dist(rng, TONES, rng.randint(1, 3)),
        turn_lengths=random_dist(rng, [1, 2, 3], 2),
        prominence=rng.choice([0.0, 0.2, 0.5]) if prominence is None else prominence,
        seed=rng.randrange(1 << 30),
    )


def draw_by_scan(rng: random.Random, dist):
    """Reference for one draw of ``synth.sample_corpus``: the first value
    whose partial sum, added left to right, exceeds ``random()``, or the
    last value of positive probability when the draw is past the total."""
    x = rng.random()
    acc = 0.0
    for value, p in dist:
        acc += p
        if x < acc:
            return value
    return [value for value, p in dist if p > 0][-1]


def sample_corpus_by_scan(planted: PlantedGrammar, n_words: int, seed: int | None = None) -> Corpus:
    """Reference for ``synth.sample_corpus``: the same draws in the same
    order, each one by ``draw_by_scan``."""
    rng = random.Random(planted.seed if seed is None else seed)
    turn_sizes = []
    remaining = n_words
    while remaining > 0:
        size = min(draw_by_scan(rng, planted.turn_lengths), remaining)
        turn_sizes.append(size)
        remaining -= size
    turns = []
    for size in turn_sizes:
        words = []
        for _ in range(size):
            prominent = rng.random() < planted.prominence
            length = draw_by_scan(rng, planted.word_lengths)
            tones = tuple(
                draw_by_scan(rng, planted.final_tones if i == length - 1 else planted.interior_tones)
                for i in range(length)
            )
            words.append(ProsodicWord(tones, prominent))
        turns.append(Turn(tuple(words)))
    return Corpus(tuple(turns), {"generator": "planted", "words": str(n_words)})


def train_per_length(sequences, scheme, config: TrainConfig) -> PatternGrammar:
    """Reference tally for ``grammar.train``: each successor is counted under
    every suffix of its window, one context length at a time, then contexts
    seen fewer than ``min_count`` times are pruned (the root is kept)."""
    grammar = PatternGrammar(scheme, config)
    nodes, digits, powers = grammar._nodes, grammar._digits, grammar._powers
    depth, size, base = config.max_depth, scheme.size, scheme.size + 1
    for si, seq in enumerate(sequences):
        window = 0  # key of the last max_depth symbols
        for pos, successor in enumerate(seq):
            digit = digits.get(successor)
            if digit is None:
                raise AlphabetError(
                    f"sequence {si}, position {pos}: symbol {successor!r} "
                    f"not in alphabet of scheme {scheme.scheme_id!r}"
                )
            for length in range(min(pos, depth) + 1):
                key = window % powers[length]
                node = nodes.get(key)
                if node is None:
                    node = nodes[key] = _Node([0] * size)
                node.counts[digit - 1] += 1
                node.total += 1
            window = (window * base + digit) % powers[depth]
    grammar._nodes = {k: node for k, node in nodes.items() if k == 0 or node.total >= config.min_count}
    return grammar


def model_entropy_per_position(grammar: PatternGrammar, sequences) -> tuple[float, float]:
    """Reference for ``grammar.model_entropy``: ``-log_prob`` of each
    position given its last ``max_depth`` symbols, subtracted in order."""
    depth = grammar.config.max_depth
    total, positions = 0.0, 0
    for si, seq in enumerate(sequences):
        for i, sym in enumerate(seq):
            lp = grammar.log_prob(sym, seq[max(0, i - depth) : i])
            if lp == -math.inf:
                raise TonosegError(f"sequence {si}, position {i}: unseen transition with zero smoothing")
            total -= lp
            positions += 1
    if positions == 0:
        raise InvalidArgumentError("cannot measure entropy of an empty symbol stream")
    h = total / positions
    return h, h / math.log(grammar.scheme.size)


def load_model_per_line(text: str, expected_scheme: str | None = None) -> PatternGrammar:
    """Reference for ``formats.load_model``: every row's counts are parsed,
    checked and stored as a node of its own, line by line."""
    lines = _drop_comments(enumerate(text.splitlines(), start=1))

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

    n, base, nodes = scheme.size, scheme.size + 1, grammar._nodes
    digits = {str(s): d for d, s in reversed(list(enumerate(scheme.alphabet, 1)))}
    nodes.clear()
    for line_no, line in lines:
        tokens = line.split()
        if len(tokens) < n + 1:
            raise CorruptModelError(f"line {line_no}: node line needs context plus {n} counts")
        try:
            counts = list(map(int, tokens[-n:]))
        except ValueError:
            raise CorruptModelError(f"line {line_no}: non-integer count") from None
        context, key = tokens[:-n], 0
        if context != ["."]:
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
            nodes[key] = grammar._new_node(counts, context)
        except TonosegError as err:
            raise CorruptModelError(f"line {line_no}: {err}") from None
    if not nodes:
        raise CorruptModelError("document has no root node")
    return grammar


def parse_corpus_per_token(text: str) -> Corpus:
    """Reference for ``formats.parse_corpus``: each token of a turn line
    is read with its column, and a word is built when its ``)`` closes it."""
    lines = _drop_comments(enumerate(text.splitlines(), start=1))
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise VersionError(f"missing header {CORPUS_HEADER!r}", 1, 1) from None
    if header.strip() != CORPUS_HEADER:
        raise VersionError(f"expected header {CORPUS_HEADER!r}, got {header.strip()!r}", line_no, 1)
    turns = []
    metadata: dict = {}
    for line_no, line in lines:
        stripped = line.strip()
        if stripped.startswith("@"):
            body = stripped[1:]
            if not body[:1].strip():
                raise CorpusFormatError("metadata line has no key", line_no, 1)
            key, *value = body.split(maxsplit=1)
            metadata[key] = value[0] if value else ""
            continue
        words = []
        tones: list[Tone] = []
        prominent = False
        in_word = False
        for m in _TOKEN.finditer(line):
            token, col = m.group(), m.start() + 1
            if token in ("(", "*("):
                if in_word:
                    raise NestingError("word opened inside a word", line_no, col)
                in_word = True
                prominent = token == "*("
                tones = []
            elif token == ")":
                if not in_word:
                    raise NestingError("')' without matching open", line_no, col)
                if not tones:
                    raise EmptyWordError("word contains no tones", line_no, col)
                words.append(ProsodicWord(tuple(tones), prominent))
                in_word = False
            elif in_word:
                try:
                    tones.append(Tone(token))
                except ValueError:
                    raise UnknownToneError(f"unknown tone letter {token!r}", line_no, col) from None
            else:
                raise NestingError(f"token {token!r} outside a word", line_no, col)
        if in_word:
            raise NestingError("unclosed word at end of line", line_no, len(line))
        turns.append(Turn(tuple(words)))
    return Corpus(tuple(turns), metadata)


def parse_segmentation_per_token(text: str) -> list[SegmentationResult]:
    """Reference for ``formats.parse_segmentation``: each token of a line
    is found with its column and parsed, then ``SegmentationResult``
    checks that the line's spans tile the stream."""
    results = []
    for line_no, line in _drop_comments(enumerate(text.splitlines(), start=1)):
        spans = []
        for m in _TOKEN.finditer(line):
            token, col = m.group(), m.start() + 1
            sm = _SPAN.match(token)
            if not sm:
                raise SegmentationFormatError(f"bad span token {token!r}", line_no, col)
            try:
                start, end = int(sm.group(1)), int(sm.group(2))
            except ValueError:  # a bound past int's digit limit
                raise SegmentationFormatError(f"bad span token {token!r}", line_no, col) from None
            spans.append(WordSpan(start, end, sm.group(3) == "*"))
        try:
            results.append(SegmentationResult(tuple(spans), math.nan))
        except TonosegError as err:
            raise SegmentationFormatError(str(err), line_no, 1) from None
    return results


def confusion_per_slot(reference: Corpus, predicted) -> ConfusionMatrix:
    """Reference for ``evaluate.confusion``: each turn's two boundary-slot
    vectors, compared slot by slot."""
    if len(reference.turns) != len(predicted):
        raise EvaluationError(
            f"turn count mismatch: reference has {len(reference.turns)}, "
            f"prediction has {len(predicted)}"
        )
    tp = fp = fn = tn = 0
    for i, (turn, result) in enumerate(zip(reference.turns, predicted)):
        if turn.tone_count != result.n_tones:
            raise EvaluationError(
                f"turn {i}: reference has {turn.tone_count} tones, "
                f"prediction covers {result.n_tones}"
            )
        for ref, pred in zip(turn.boundary_slots(), result.boundary_slots()):
            if ref and pred:
                tp += 1
            elif ref:
                fn += 1
            elif pred:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)
