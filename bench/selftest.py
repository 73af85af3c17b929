"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

On a tiny planted corpus every check must pass on the program's real
outputs and must reject a corrupted copy: a flipped word boundary, an
off-by-one confusion count and a changed root count.  ``run.py`` runs
this before every benchmark run.
"""

from __future__ import annotations

import sys

WORDS = 400


def run() -> list[str]:
    """Problems found; empty when every check behaves."""
    import checks
    from run import CUE as SPEC
    from tonoseg import (HIERARCHICAL, TrainConfig, confusion, encode_corpus, format_report_kv,
                         load_model, metrics, parse_corpus, parse_segmentation, save_model,
                         segment_turn, serialize_corpus, serialize_segmentation, train)
    from tonoseg.segment import SegmentationResult, WordSpan
    from tonoseg.synth import PlantedGrammar, sample_corpus

    corpus_text = serialize_corpus(sample_corpus(PlantedGrammar.from_mapping(SPEC), WORDS, 3))
    corpus = parse_corpus(corpus_text)
    grammar = train(encode_corpus(corpus, HIERARCHICAL), HIERARCHICAL, TrainConfig())
    model = save_model(grammar)
    results = [segment_turn(grammar, t.tone_stream(), HIERARCHICAL) for t in corpus.turns]
    seg_text = serialize_segmentation(results)
    report = format_report_kv(metrics(confusion(corpus, parse_segmentation(seg_text))))
    turns = checks.read_corpus(corpus_text)
    streams = checks.tone_streams(turns)
    counts = checks.own_confusion(turns, checks.read_segmentation(seg_text))

    problems = []

    def rejects(what: str, check, *args):
        try:
            check(*args)
        except checks.CheckFailed:
            return
        problems.append(f"{what} was not rejected")

    try:
        checks.check_synth(corpus_text, SPEC, WORDS)
        checks.check_model(model, turns, "hier", 4, 2)
        checks.check_roundtrip(model, load_model, save_model)
        checks.check_scores(grammar, streams, results, "hier")
        checks.check_exhaustive(grammar, streams[0], results[0], "hier")
        checks.check_eval(report, counts, 0.95)
    except checks.CheckFailed as err:
        problems.append(f"a check rejects a correct output: {err}")

    # a flipped boundary: in a decoder result, and in the segmentation file
    i = max(range(len(streams)), key=lambda k: len(streams[k]))
    flipped = checks.flip_boundary(checks.spans_of(results[i]), 0)
    bad = list(results)
    bad[i] = SegmentationResult(tuple(WordSpan(*s) for s in flipped), results[i].log_prob)
    rejects("flipped boundary (score)", checks.check_scores, grammar, streams, bad, "hier")
    bad_seg = checks.read_segmentation(serialize_segmentation(bad))
    rejects("flipped boundary (eval)", lambda: checks.check_eval(
        report, checks.own_confusion(turns, bad_seg), None))

    # an off-by-one confusion count
    tp = checks.read_kv(report)["tp"]
    rejects("off-by-one tp", checks.check_eval,
            report.replace(f"tp={tp}\n", f"tp={int(tp) + 1}\n"), counts, None)

    # a changed root count
    lines = model.splitlines(keepends=True)
    root = next(k for k, line in enumerate(lines) if line.startswith(". "))
    fields = lines[root].split()
    fields[1] = str(int(fields[1]) + 1)
    lines[root] = " ".join(fields) + "\n"
    rejects("changed root count", checks.check_model, "".join(lines), turns, "hier", 4, 2)
    return problems


if __name__ == "__main__":
    from run import import_program

    import_program()
    found = run()
    for p in found:
        print(f"FAIL {p}")
    print("selftest: ok" if not found else f"selftest: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
