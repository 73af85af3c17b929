"""End-to-end and per-layer benchmark of the tonoseg pipeline.

    python3 bench/run.py --workload corpus-hier --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run builds its inputs from ``--seed``, runs the CLI pipeline
synth -> train -> entropy -> segment -> eval in this process through
``tonoseg.cli.main`` on files in a scratch directory under
``bench/results/``, and times the library calls a user makes with a
loaded model: ``load_model``, ``model_entropy`` and one
``segment_turn`` per held-out turn.  A first round is checked against
the benchmark's own computations (``checks.py``); then whole rounds
repeat for ``--seconds`` seconds, each compared with the first.  With
``--trace 1`` every round runs the pipeline once plain and once with a
span around each call into a public function, and the per-layer
metrics come from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Samples and
spans go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def import_program():
    """Import tonoseg from the sources of this checkout, and only from there."""
    src = ROOT / "src"
    if not (src / "tonoseg" / "__init__.py").is_file():
        sys.exit(f"bench: no tonoseg sources under {src}")
    sys.path.insert(0, str(src))
    import tonoseg

    if Path(tonoseg.__file__).resolve().parent != (src / "tonoseg").resolve():
        sys.exit(f"bench: imported tonoseg from {tonoseg.__file__}, not from {src}")


# -- workloads ------------------------------------------------------------

# The planted cue grammar of demos/planted_example.json: "L" ends every
# word and never occurs inside one.
CUE = {
    "word_lengths": {"1": 0.2, "2": 0.5, "3": 0.3},
    "interior_tones": {"T": 0.3, "H": 0.4, "U": 0.3},
    "final_tones": {"L": 1.0},
    "turn_lengths": {"2": 0.5, "3": 0.5},
    "prominence": 0.1,
}
# All eight tones, words of 2-5 tones, two word-final cues.
RICH = {
    "word_lengths": {"2": 0.2, "3": 0.3, "4": 0.3, "5": 0.2},
    "interior_tones": {"T": 0.15, "M": 0.2, "B": 0.15, "H": 0.2, "S": 0.15, "U": 0.15},
    "final_tones": {"L": 0.6, "D": 0.4},
    "turn_lengths": {"2": 0.3, "3": 0.4, "4": 0.3},
    "prominence": 0.1,
}


def fixed_turns(spec: dict, words: int) -> dict:
    return {**spec, "turn_lengths": {str(words): 1.0}}


@dataclass(frozen=True)
class Workload:
    scheme: str
    train: tuple  # (planted spec, words)
    heldout: tuple  # ((planted spec, words), ...), one synth call each
    tail_pct: float  # turn_ms_tail percentile: at least ten turns lie beyond it
    max_depth: int = 4
    min_count: int = 2
    loads: int = 1  # load_model calls per round, for setup_s
    exhaustive_tones: int = 12  # longest stream checked by enumeration
    exhaustive_turns: int = 40
    min_f: float | None = None  # least F-measure of the segmentation


WORKLOADS = {
    # ~4000 held-out turns of ~5 tones: per-call overhead dominates.
    "corpus-hier": Workload(
        "hier", (CUE, 20000), ((CUE, 10000),), tail_pct=99, loads=20, min_f=0.95
    ),
    # 42 turns of ~21 to ~2100 tones: the decoder's DP dominates.  The
    # p75 tail is the 6th of the 14 turns of ~525 tones, not the edge of a class.
    "longturn-hierprom": Workload(
        "hierprom",
        ({**CUE, "turn_lengths": {"20": 0.5, "100": 0.5}}, 8000),
        tuple((fixed_turns(CUE, k), k * n) for k, n in ((10, 16), (50, 10), (250, 14), (1000, 2))),
        tail_pct=75,
        loads=20,
        exhaustive_tones=8,
        exhaustive_turns=6,
    ),
    # A depth-8, min-count-1 trie of ~25k nodes; a small held-out slice.
    # Turns of four words put the median turn length firmly on 14 tones.
    "train-deep": Workload(
        "hier",
        (RICH, 3000),
        ((fixed_turns(RICH, 4), 1200),),
        tail_pct=90,
        max_depth=8,
        min_count=1,
        loads=2,
        exhaustive_turns=10,
    ),
}

HELDOUT_SEED_OFFSET = 100_003
FLIP_TURNS = 8
FLIPS_PER_TURN = 10


class Plan:
    """Input files and CLI argument lists of one workload and seed."""

    def __init__(self, work: Path, wl: Workload, seed: int):
        self.wl = wl
        self.file = {k: work / f"{k}.txt" for k in ("train", "heldout", "model", "entropy", "seg", "eval")}
        self.synth = []  # (argv, spec, words, output path)
        for i, (spec, words) in enumerate((wl.train,) + wl.heldout):
            spec_path = work / f"spec{i}.json"
            spec_path.write_text(json.dumps(spec))
            out = self.file["train"] if i == 0 else work / f"heldout{i}.txt"
            s = seed if i == 0 else seed + HELDOUT_SEED_OFFSET * i
            argv = ["synth", "--spec", str(spec_path), "--words", str(words), "--seed", str(s), "--out", str(out)]
            self.synth.append((argv, spec, words, out))
        f = {k: str(v) for k, v in self.file.items()}
        self.steps = [
            ["train", "--scheme", wl.scheme, "--corpus", f["train"], "--out", f["model"],
             "--max-depth", str(wl.max_depth), "--min-count", str(wl.min_count)],
            ["entropy", "--model", f["model"], "--corpus", f["train"], "--format", "kv", "--out", f["entropy"]],
            ["segment", "--model", f["model"], "--input", f["heldout"], "--out", f["seg"]],
            ["eval", "--reference", f["heldout"], "--predicted", f["seg"], "--format", "kv", "--out", f["eval"]],
        ]

    def outputs(self) -> dict[str, str]:
        return {k: p.read_text() for k, p in self.file.items()}


class OperationFailed(Exception):
    pass


def concat_corpora(texts) -> str:
    """One corpus file holding the turns of several; metadata dropped."""
    lines = ["tonoseg-corpus v1"]
    for text in texts:
        lines += [ln for ln in text.splitlines()[1:] if ln and not ln.startswith("@")]
    return "\n".join(lines) + "\n"


def run_pipeline(meter, cli, plan: Plan) -> dict[str, float]:
    """Reference seconds of each CLI command of one pipeline pass."""
    times = {"synth": 0.0}
    for argv, *_ in plan.synth:
        code, t = meter.call(cli[argv[0]], argv)
        if code != 0:
            raise OperationFailed(f"tonoseg {' '.join(argv)} exited {code}")
        times["synth"] += t
    # held-out corpora of several synth calls are one file; not timed
    parts = [out.read_text() for _, _, _, out in plan.synth[1:]]
    plan.file["heldout"].write_text(parts[0] if len(parts) == 1 else concat_corpora(parts))
    for argv in plan.steps:
        code, times[argv[0]] = meter.call(cli[argv[0]], argv)
        if code != 0:
            raise OperationFailed(f"tonoseg {' '.join(argv)} exited {code}")
    return times


def library_round(meter, lib, inputs) -> dict:
    """The library calls a user makes with a loaded model."""
    load, text = lib["load_model"], inputs["model_text"]
    grammars, setup = meter.call_each(lambda _: load(text), range(inputs["wl"].loads))
    grammar = grammars[-1]
    (h, _), t_entropy = meter.call(lib["model_entropy"], grammar, inputs["train_seqs"])
    seg, scheme = lib["segment_turn"], inputs["scheme"]
    results, turn_times = meter.call_each(lambda tones: seg(grammar, tones, scheme), inputs["streams"])
    return dict(grammar=grammar, setup=setup, entropy=t_entropy, h=h, results=results, turns=turn_times)


# -- checks of the first round ---------------------------------------------


def check_first_round(checks, plan: Plan, out: dict, lib_round: dict, inputs: dict, seed: int):
    from tonoseg.formats import load_model, save_model
    from tonoseg.segment import segment_turn

    wl = plan.wl
    for _, spec, words, path in plan.synth:
        checks.check_synth(path.read_text(), spec, words)
    train_turns = checks.read_corpus(out["train"])
    held_turns = checks.read_corpus(out["heldout"])
    checks.check_model(out["model"], train_turns, wl.scheme, wl.max_depth, wl.min_count)
    checks.check_roundtrip(out["model"], load_model, save_model)
    tally = checks.symbol_tally(train_turns, wl.scheme)
    checks.check_entropy(out["entropy"], tally, len(tally), lib_round["h"])
    grammar, results = lib_round["grammar"], lib_round["results"]
    checks.check_chain_entropy(grammar, train_turns, wl.scheme, lib_round["h"])

    streams = checks.tone_streams(held_turns)
    checks.check_scores(grammar, streams, results, wl.scheme)
    seg_file = checks.read_segmentation(out["seg"])
    checks.require(seg_file == [checks.spans_of(r) for r in results],
                   "segment command and segment_turn disagree")
    rng = random.Random(seed)
    for i in rng.sample(range(len(streams)), min(wl.exhaustive_turns, len(streams))):
        tones = streams[i][: wl.exhaustive_tones]
        program_tones = [checks.SYMBOLS[t] for t in tones]
        prefix = segment_turn(grammar, program_tones, inputs["scheme"])
        checks.check_exhaustive(grammar, tones, prefix, wl.scheme)
    for i in rng.sample(range(len(streams)), min(FLIP_TURNS, len(streams))):
        checks.check_flips(grammar, streams[i], results[i], wl.scheme, rng, FLIPS_PER_TURN)
    counts = checks.own_confusion(held_turns, seg_file)
    checks.check_eval(out["eval"], counts, wl.min_f)
    return tally, held_turns


# -- statistics -----------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(rounds: list[dict], inputs: dict, checks) -> dict:
    wl = inputs["wl"]
    n_train, n_held = inputs["train_tones"], inputs["held_tones"]
    per_turn = [statistics.median(col) for col in zip(*(r["turns"] for r in rounds))]
    tail_rank = math.ceil(wl.tail_pct / 100 * len(per_turn))
    checks.require(len(per_turn) - tail_rank >= 10, f"fewer than ten turns beyond p{wl.tail_pct}")
    med = statistics.median
    values = {
        "pipeline_s": (med(sum(r["pipeline"].values()) for r in rounds), "s"),
        "setup_s": (med(t for r in rounds for t in r["setup"]), "s"),
        "train_tones_per_s": (med(n_train / r["pipeline"]["train"] for r in rounds), "tones/s"),
        "entropy_tones_per_s": (med(n_train / r["entropy"] for r in rounds), "tones/s"),
        "decode_tones_per_s": (med(n_held / sum(r["turns"]) for r in rounds), "tones/s"),
        "turn_ms_p50": (1000 * percentile(per_turn, 50), "ms"),
        "turn_ms_tail": (1000 * percentile(per_turn, wl.tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


LAYER_TIMES = (
    "synth.sample_corpus",
    "formats.parse_corpus",
    "core.encode_corpus",
    "grammar.train",
    "formats.save_model",
    "formats.load_model",
    "grammar.marginal_entropy",
    "grammar.model_entropy",
    "segment.segment_turn",
    "formats.serialize_segmentation",
    "formats.parse_segmentation",
    "evaluate.confusion",
    "evaluate.metrics",
)
CLI_SELF = ("train", "entropy", "segment", "eval")


def per_layer(tracer, overheads: list[float], inputs: dict) -> dict:
    """Per-round sums of span times (reference seconds), median over rounds."""
    from measure import END, NAME, PARENT, ROUND, SCALE, SIZE, START

    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    rounds: dict[int, dict] = {}
    for i, s in enumerate(spans):
        r = rounds.setdefault(s[ROUND], {"sums": {}, "turns": []})
        dur = (s[END] - s[START]) * s[SCALE]
        r["sums"][s[NAME]] = r["sums"].get(s[NAME], 0.0) + dur
        if s[NAME].startswith("cli."):
            key = s[NAME] + ".self"
            r["sums"][key] = r["sums"].get(key, 0.0) + dur - child[i] * s[SCALE]
        if s[SIZE] is not None:
            r["turns"].append((s[SIZE], dur))

    def per_tone(turns, longest: bool) -> float:
        """µs per tone on the turns at most twice the shortest, or at least
        half the longest."""
        lengths = [n for n, _ in turns]
        if longest:
            part = [t for t in turns if 2 * t[0] >= max(lengths)]
        else:
            part = [t for t in turns if t[0] <= 2 * min(lengths)]
        return 1e6 * sum(d for _, d in part) / sum(n for n, _ in part)

    med = statistics.median
    rs = list(rounds.values())
    values = {f"{name}_s": (med(r["sums"].get(name, 0.0) for r in rs), "s") for name in LAYER_TIMES}
    values.update({f"cli.{c}.self_s": (med(r["sums"][f"cli.{c}.self"] for r in rs), "s") for c in CLI_SELF})
    values.update({
        "grammar.trie_nodes": (inputs["trie_nodes"], "count"),
        "formats.model_bytes": (len(inputs["model_text"].encode()), "bytes"),
        "segment.turns": (statistics.median_low(len(r["turns"]) for r in rs), "count"),
        "segment.tones": (statistics.median_low(sum(n for n, _ in r["turns"]) for r in rs), "count"),
        "segment.us_per_tone_short": (med(per_tone(r["turns"], False) for r in rs), "us"),
        "segment.us_per_tone_long": (med(per_tone(r["turns"], True) for r in rs), "us"),
        "trace.overhead_s": (med(overheads), "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# -- one run --------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import_program()
    import checks
    import measure
    import selftest
    import tonoseg.cli as cli_module
    from tonoseg.core import encode_corpus, get_scheme
    from tonoseg.formats import parse_corpus

    problems = selftest.run()
    if problems:
        raise checks.CheckFailed("harness self-test: " + "; ".join(problems))
    wl = WORKLOADS[workload]
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        plan = Plan(work, wl, seed)
        tracer = measure.Tracer() if trace else None
        meter = measure.Meter(tracer)
        plain_cli = {argv[0]: cli_module.main for argv in plan.steps + [plan.synth[0][0]]}
        plain_lib = measure.library(None)

        # first round: inputs for the library calls, and the checks
        run_pipeline(meter, plain_cli, plan)
        first = plan.outputs()
        scheme = get_scheme(wl.scheme)
        held = parse_corpus(first["heldout"])
        inputs = dict(
            wl=wl,
            scheme=scheme,
            model_text=first["model"],
            train_seqs=encode_corpus(parse_corpus(first["train"]), scheme),
            streams=[turn.tone_stream() for turn in held.turns],
        )
        lib_first = library_round(meter, plain_lib, inputs)
        tally, held_turns = check_first_round(checks, plan, first, lib_first, inputs, seed)
        inputs.update(
            train_tones=sum(v for k, v in tally.items() if k in checks.TONE_LETTERS),
            held_tones=sum(map(len, checks.tone_streams(held_turns))),
            trie_nodes=len(checks.read_model(first["model"])[2]),
        )

        # Keep the benchmark's own long-lived objects out of the program's
        # garbage collections, as they would be in a process of its own.
        gc.collect()
        gc.freeze()
        if trace:
            traced_cli = {c: tracer.wrap(f"cli.{c}", cli_module.main) for c in plain_cli}
            traced_lib = measure.library(tracer)
        rounds, overheads = [], []
        meter.calls = 0
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            pipeline = run_pipeline(meter, plain_cli, plan)
            if trace:
                tracer.round = len(rounds)
                with tracer.installed(cli_module):
                    traced = run_pipeline(meter, traced_cli, plan)
                overheads.append(sum(traced.values()) - sum(pipeline.values()))
                lib = library_round(meter, traced_lib, inputs)
                tracer.round = -1
            else:
                lib = library_round(meter, plain_lib, inputs)
            checks.require(plan.outputs() == first, f"round {len(rounds)}: CLI outputs changed")
            checks.require(lib["results"] == lib_first["results"] and lib["h"] == lib_first["h"],
                           f"round {len(rounds)}: library results changed")
            rounds.append(dict(pipeline=pipeline, setup=lib["setup"], entropy=lib["entropy"], turns=lib["turns"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = per_layer(tracer, overheads, inputs)
        trace_path = RESULTS / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({"fields": measure.FIELDS, "spans": tracer.spans}))
    else:
        metrics = end_to_end(rounds, inputs, checks)
    result = {"correct": True, "attempted": meter.calls, "failed": 0, "metrics": metrics}
    samples = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "rounds": rounds, "overheads": overheads, "result": result}
    return result, samples


def run_all(args) -> int:
    """Every workload, one process each, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result, samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as err:  # a failed check or operation fails the run
        traceback.print_exc()
        failed = int(isinstance(err, OperationFailed))
        print(json.dumps({"correct": False, "attempted": max(failed, 1), "failed": failed, "metrics": {}}))
        return 1
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(samples))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'attempted':32s} {result['attempted']:>16d}")
    print(f"{'failed':32s} {result['failed']:>16d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
