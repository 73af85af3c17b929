"""Output checks computed apart from the program.

The corpus, model, segmentation and report files are read with this
module's own parsers, symbol tallies and entropies are computed here,
and decoder scores are compared with this module's own enumeration of
candidate segmentations.  Only the chain-rule scorer
``PatternGrammar.sequence_log_probability`` is taken from the program,
because it defines the score the decoder maximises.  Every check raises
``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import math
from itertools import product

from tonoseg.core import Marker, Tone


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


TONE_LETTERS = ("T", "M", "B", "H", "S", "L", "U", "D")
# Symbol order of a model file's count columns, per scheme.
ALPHABETS = {
    "hier": TONE_LETTERS + ("[", "]", "(", ")"),
    "hierprom": TONE_LETTERS + ("[", "]", "(", ")", "*("),
}
SYMBOLS = {**{t.value: t for t in Tone}, **{m.value: m for m in Marker}}


# -- corpus ---------------------------------------------------------------


def content_lines(text: str):
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            yield line


def read_corpus(text: str) -> list[list[tuple[str, bool]]]:
    """Turns as lists of (tone letters, prominent) words."""
    lines = content_lines(text)
    require(next(lines, None) == "tonoseg-corpus v1", "corpus header")
    turns = []
    for line in lines:
        if line.startswith("@"):
            continue
        words, tones, opener = [], None, None
        for tok in line.split():
            if tok in ("(", "*("):
                require(tones is None, f"nested word in {line!r}")
                tones, opener = [], tok
            elif tok == ")":
                require(bool(tones), f"empty or unopened word in {line!r}")
                words.append(("".join(tones), opener == "*("))
                tones = None
            else:
                require(tones is not None and tok in TONE_LETTERS, f"bad token {tok!r}")
                tones.append(tok)
        require(tones is None and bool(words), f"bad turn {line!r}")
        turns.append(words)
    return turns


def check_synth(text: str, spec: dict, n_words: int):
    """Exact word count; tones, word and turn lengths in the planted support."""
    turns = read_corpus(text)
    require(sum(map(len, turns)) == n_words, f"corpus has {sum(map(len, turns))} words, asked {n_words}")
    word_lengths = {int(k) for k, p in spec["word_lengths"].items() if p > 0}
    turn_lengths = {int(k) for k, p in spec["turn_lengths"].items() if p > 0}
    interior = {t for t, p in spec["interior_tones"].items() if p > 0}
    final = {t for t, p in spec["final_tones"].items() if p > 0}
    for i, turn in enumerate(turns):
        # the last turn is cut short to hit the word count exactly
        last = i == len(turns) - 1
        require(len(turn) in turn_lengths or (last and len(turn) < max(turn_lengths)),
                f"turn {i} has {len(turn)} words")
        for tones, prominent in turn:
            require(len(tones) in word_lengths, f"word {tones} length")
            require(tones[-1] in final, f"word {tones} final tone")
            require(set(tones[:-1]) <= interior, f"word {tones} interior tones")
            require(not prominent or spec.get("prominence", 0) > 0, f"word {tones} prominent")


def tone_streams(turns) -> list[str]:
    return ["".join(tones for tones, _ in turn) for turn in turns]


def symbol_tally(turns, scheme_id: str) -> dict[str, int]:
    """Count of each symbol in the corpus encoded under the scheme."""
    tally = dict.fromkeys(ALPHABETS[scheme_id], 0)
    for turn in turns:
        tally["["] += 1
        tally["]"] += 1
        for tones, prominent in turn:
            tally["*(" if prominent and scheme_id == "hierprom" else "("] += 1
            tally[")"] += 1
            for t in tones:
                tally[t] += 1
    return tally


def entropy_of(tally: dict[str, int]) -> float:
    total = sum(tally.values())
    return -sum(c / total * math.log(c / total) for c in tally.values() if c)


# -- model ----------------------------------------------------------------


def read_model(text: str):
    """(scheme id, (depth, min count, smoothing), [(context, counts)])."""
    lines = content_lines(text)
    require(next(lines, None) == "tonoseg-model v1", "model header")
    scheme = next(lines).split()
    config = next(lines).split()
    require(scheme[0] == "scheme" and config[0] == "config", "model scheme/config lines")
    n = len(ALPHABETS[scheme[1]])
    rows = []
    for line in lines:
        tokens = line.split()
        rows.append((tuple(tokens[:-n]), [int(c) for c in tokens[-n:]]))
    return scheme[1], (int(config[1]), int(config[2]), float(config[3])), rows


def check_model(text: str, turns, scheme_id: str, max_depth: int, min_count: int):
    """Root counts are the corpus tally; retained contexts meet ``min_count``."""
    scheme, config, rows = read_model(text)
    require(scheme == scheme_id, f"model scheme {scheme}")
    require(config[:2] == (max_depth, min_count), f"model config {config}")
    require(rows[0][0] == (".",), "first model row is not the root")
    tally = symbol_tally(turns, scheme_id)
    require(rows[0][1] == [tally[s] for s in ALPHABETS[scheme_id]],
            "root counts differ from the corpus symbol tally")
    for context, counts in rows[1:]:
        require(0 < len(context) <= max_depth, f"context {context} depth")
        require(sum(counts) >= min_count, f"context {context} total {sum(counts)} < {min_count}")
    require(len(set(r[0] for r in rows)) == len(rows), "duplicate contexts")


def check_roundtrip(text: str, load_model, save_model):
    require(save_model(load_model(text)) == text, "save -> load -> save changed the model text")


# -- entropy --------------------------------------------------------------


def read_kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in content_lines(text))


def check_entropy(text: str, tally: dict[str, int], n_categories: int, h_model: float):
    """Printed entropies against the own unigram entropy and the library call."""
    kv = read_kv(text)
    tol = 5e-7 + 1e-12  # the report prints six decimals
    h_plain = entropy_of(tally)
    no_model, with_model = float(kv["entropy_no_model"]), float(kv["entropy_with_model"])
    require(abs(no_model - h_plain) <= tol, f"entropy_no_model {no_model} != own {h_plain}")
    require(abs(with_model - h_model) <= tol, f"entropy_with_model {with_model} != library {h_model}")
    require(0.0 <= h_model <= math.log(n_categories), f"model entropy {h_model} outside [0, ln N]")
    require(h_model < h_plain, f"model entropy {h_model} not below unigram entropy {h_plain}")


def check_chain_entropy(grammar, turns, scheme_id: str, h_model: float):
    """``model_entropy`` is the mean of -ln P per symbol of the chain rule."""
    total, n = 0.0, 0
    for turn in turns:
        spans, pos = [], 0
        for tones, prominent in turn:
            spans.append((pos, pos + len(tones), prominent and scheme_id == "hierprom"))
            pos += len(tones)
        symbols = encode("".join(t for t, _ in turn), spans, scheme_id)
        total -= grammar.sequence_log_probability(symbols)
        n += len(symbols)
    require(abs(total / n - h_model) <= 1e-9 * h_model, f"model entropy {h_model!r} != chain rule {total / n!r}")


# -- segmentation ---------------------------------------------------------


def encode(tones: str, spans, scheme_id: str) -> list:
    """The scheme's symbol sequence for a segmented tone stream."""
    out = [SYMBOLS["["]]
    for start, end, prominent in spans:
        out.append(SYMBOLS["*(" if prominent else "("])
        out.extend(SYMBOLS[t] for t in tones[start:end])
        out.append(SYMBOLS[")"])
    out.append(SYMBOLS["]"])
    return out


def spans_of(result) -> list[tuple[int, int, bool]]:
    return [(s.start, s.end, s.prominent) for s in result.spans]


def check_tiling(tones: str, spans, scheme_id: str):
    pos = 0
    for start, end, prominent in spans:
        require(start == pos and end > start, f"spans {spans} do not tile")
        require(not prominent or scheme_id == "hierprom", "prominence under a plain scheme")
        pos = end
    require(pos == len(tones), f"spans {spans} do not cover {len(tones)} tones")


def check_scores(grammar, streams, results, scheme_id: str):
    """Each result tiles its stream and its score is its encoding's score."""
    require(len(results) == len(streams), "one result per turn")
    for tones, result in zip(streams, results):
        spans = spans_of(result)
        check_tiling(tones, spans, scheme_id)
        score = grammar.sequence_log_probability(encode(tones, spans, scheme_id))
        require(score == result.log_prob, f"log_prob {result.log_prob!r} != score {score!r} of {spans}")


def candidates(n: int, scheme_id: str):
    """Every segmentation of n tones: boundary vectors times prominence."""
    options = (False, True) if scheme_id == "hierprom" else (False,)
    for cuts in product((False, True), repeat=n - 1):
        ends = [i + 1 for i, c in enumerate(cuts) if c] + [n]
        for proms in product(options, repeat=len(ends)):
            starts = [0] + ends[:-1]
            yield list(zip(starts, ends, proms))


def best_score(grammar, tones: str, scheme_id: str) -> float:
    score = grammar.sequence_log_probability
    return max(score(encode(tones, c, scheme_id)) for c in candidates(len(tones), scheme_id))


def check_exhaustive(grammar, tones: str, result, scheme_id: str):
    best = best_score(grammar, tones, scheme_id)
    require(result.log_prob == best, f"decoder score {result.log_prob!r} != best {best!r} on {tones}")


def flip_boundary(spans, slot: int):
    """Toggle the boundary after tone ``slot``; split words keep their prominence."""
    cut = slot + 1
    ends = [end for _, end, _ in spans]
    if cut in ends:
        i = ends.index(cut)
        return spans[:i] + [(spans[i][0], spans[i + 1][1], spans[i][2])] + spans[i + 2:]
    i = next(i for i, (start, end, _) in enumerate(spans) if start < cut < end)
    start, end, prom = spans[i]
    return spans[:i] + [(start, cut, prom), (cut, end, prom)] + spans[i + 1:]


def check_flips(grammar, tones: str, result, scheme_id: str, rng, n_flips: int):
    """No single-boundary or single-prominence flip scores higher."""
    spans = spans_of(result)
    score = grammar.sequence_log_probability
    for slot in rng.sample(range(len(tones) - 1), min(n_flips, len(tones) - 1)):
        s = score(encode(tones, flip_boundary(spans, slot), scheme_id))
        require(s <= result.log_prob, f"boundary flip at slot {slot} scores {s!r} > {result.log_prob!r}")
    if scheme_id == "hierprom":
        for w in rng.sample(range(len(spans)), min(n_flips, len(spans))):
            flipped = list(spans)
            flipped[w] = (spans[w][0], spans[w][1], not spans[w][2])
            s = score(encode(tones, flipped, scheme_id))
            require(s <= result.log_prob, f"prominence flip of word {w} scores {s!r} > {result.log_prob!r}")


def read_segmentation(text: str) -> list[list[tuple[int, int, bool]]]:
    out = []
    for line in content_lines(text):
        spans = []
        for tok in line.split():
            prominent = tok.endswith("*")
            start, end = tok.rstrip("*").split("-")
            spans.append((int(start), int(end), prominent))
        out.append(spans)
    return out


# -- evaluation -----------------------------------------------------------


def slots_of_words(words) -> list[bool]:
    out = []
    for tones, _ in words:
        out += [False] * (len(tones) - 1) + [True]
    return out[:-1]


def slots_of_spans(spans) -> list[bool]:
    out = []
    for start, end, _ in spans:
        out += [False] * (end - start - 1) + [True]
    return out[:-1]


def own_confusion(turns, segmentation) -> dict[str, int]:
    require(len(turns) == len(segmentation), "one segmentation line per turn")
    c = dict(tp=0, fp=0, fn=0, tn=0)
    for words, spans in zip(turns, segmentation):
        ref, pred = slots_of_words(words), slots_of_spans(spans)
        require(len(ref) == len(pred), "segmentation covers another tone count")
        for r, p in zip(ref, pred):
            c[("t" if r == p else "f") + ("p" if p else "n")] += 1
    return c


def check_eval(text: str, counts: dict[str, int], min_f: float | None):
    kv = read_kv(text)
    for key, value in counts.items():
        require(int(kv[key]) == value, f"eval {key}={kv[key]}, own count {value}")
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    f = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    require(abs(float(kv["f_measure"]) - f) <= 5e-7 + 1e-12, f"f_measure {kv['f_measure']} != own {f}")
    if min_f is not None:
        require(f >= min_f, f"F {f} below {min_f}")
