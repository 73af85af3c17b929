"""Reference figures: decoder cost per tone over turn length, and src/ size.

    python3 bench/sweep.py

For each of ``hier`` and ``hierprom``, trains a grammar (default
``TrainConfig``) on 20000 words of the planted cue grammar, decodes
prefixes of one long sampled turn of 50, 100, ... 3200 tones three
times each, and prints the median microseconds per tone in reference
seconds (see ``measure.py``).  A decoder whose cost grows linearly in
turn length shows a flat row.  Also prints the line count of ``src/``.
Writes ``bench/results/sweep.json``.
"""

from __future__ import annotations

import json
import statistics

from run import CUE, RESULTS, ROOT, fixed_turns, import_program

LENGTHS = (50, 100, 200, 400, 800, 1600, 3200)
REPEATS = 3
SEED = 1


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main():
    import_program()
    import measure
    from tonoseg import TrainConfig, encode_corpus, get_scheme, segment_turn, train
    from tonoseg.synth import PlantedGrammar, sample_corpus

    corpus = sample_corpus(PlantedGrammar.from_mapping(CUE), 20000, SEED)
    long_turn = sample_corpus(PlantedGrammar.from_mapping(fixed_turns(CUE, 2000)), 2000, SEED + 1)
    stream = long_turn.turns[0].tone_stream()
    meter = measure.Meter()
    table = {}
    for scheme_id in ("hier", "hierprom"):
        scheme = get_scheme(scheme_id)
        grammar = train(encode_corpus(corpus, scheme), scheme, TrainConfig())
        table[scheme_id] = {}
        for n in LENGTHS:
            times = [meter.call(segment_turn, grammar, stream[:n], scheme)[1] for _ in range(REPEATS)]
            table[scheme_id][n] = 1e6 * statistics.median(times) / n
    lines = src_lines()
    print(f"{'tones':>6s} {'hier us/tone':>14s} {'hierprom us/tone':>17s}")
    for n in LENGTHS:
        print(f"{n:6d} {table['hier'][n]:14.1f} {table['hierprom'][n]:17.1f}")
    print(f"src/ lines: {lines}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "sweep.json").write_text(json.dumps({"us_per_tone": table, "src_lines": lines}, indent=1))


if __name__ == "__main__":
    main()
