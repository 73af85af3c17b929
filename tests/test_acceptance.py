"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n [...]: PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output) and asserts at the criterion's
stated tolerance.  Everything is seeded; nothing here depends on wall
clock or machine entropy.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from tonoseg.core import (
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    EncodingScheme,
    encode_corpus,
)
from tonoseg.evaluate import ConfusionMatrix, baseline_segment, confusion, metrics
from tonoseg.formats import load_model, parse_corpus, save_model, serialize_corpus
from tonoseg.grammar import (
    TrainConfig,
    marginal_entropy,
    model_entropy,
    normalized_entropy,
    train,
)
from tonoseg.segment import brute_force_segment, enumerate_candidates, segment_corpus, segment_turn, spans_to_symbols
from tonoseg.segment import _spans_from_vectors
from tonoseg.synth import PlantedGrammar, sample_corpus
from helpers import TONES, random_corpus, random_planted


def report(n, tag, ok):
    print(f"ACCEPTANCE {n} [{tag}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({tag}) failed"


def test_acceptance_1_metric_reproduction():
    r1 = metrics(ConfusionMatrix(tp=497, fp=190, fn=329, tn=2003))
    r2 = metrics(ConfusionMatrix(tp=428, fp=194, fn=398, tn=2003))
    ok = (
        abs(r1.precision - 0.72) <= 0.005
        and abs(r1.recall - 0.60) <= 0.005
        and abs(r1.f_measure - 0.655) <= 0.005
        and abs(r2.precision - 0.688) <= 0.005
        and abs(r2.recall - 0.518) <= 0.005
        and abs(r2.f_measure - 0.591) <= 0.005
    )
    report(1, "metric-reproduction", ok)


def test_acceptance_2_normalized_entropy_consistency():
    # rows: entropy and normalized entropy without/with the grammar;
    # category counts are back-solved as round(exp(H / H_norm))
    rows = [
        (2.259, 0.942, 1.796, 0.749),
        (2.064, 0.897, 1.494, 0.649),
        (2.696, 0.915, 1.638, 0.556),
    ]
    expected_n = (11, 10, 19)
    ok = True
    for (h_plain, hn_plain, h_model, hn_model), n_exp in zip(rows, expected_n):
        n = round(math.exp(h_plain / hn_plain))
        ok &= n == n_exp
        ok &= abs(normalized_entropy(h_plain, n) - hn_plain) <= 0.001
        ok &= abs(normalized_entropy(h_model, n) - hn_model) <= 0.001
    report(2, "normalized-entropy-rows", ok)


def test_acceptance_3_viterbi_exactness():
    rng = random.Random(20260811)
    ok = True
    for trial in range(100):
        scheme = HIERARCHICAL if trial % 2 == 0 else HIERARCHY_PROMINENCE
        planted = random_planted(rng)
        corpus = sample_corpus(planted, rng.randint(60, 150), seed=rng.randrange(1 << 30))
        config = TrainConfig(rng.randint(1, 4), rng.randint(1, 2), rng.choice([0.1, 0.5, 1.0]))
        grammar = train(encode_corpus(corpus, scheme), scheme, config)
        n = rng.randint(1, 10 if scheme is HIERARCHICAL else 7)
        stream = tuple(rng.choice(TONES) for _ in range(n))

        # independent oracle: enumerate and score every candidate directly
        scored = []
        for bounds, proms in enumerate_candidates(n, scheme):
            spans = _spans_from_vectors(bounds, proms)
            lp = grammar.sequence_log_probability(spans_to_symbols(stream, spans, scheme))
            scored.append((lp, spans))
        best_lp = max(lp for lp, _ in scored)
        best_spans = {spans for lp, spans in scored if lp == best_lp}
        others = [lp for lp, spans in scored if spans not in best_spans]
        margin = best_lp - max(others) if others else math.inf

        got = segment_turn(grammar, stream, scheme)
        brute = brute_force_segment(grammar, stream, scheme)
        ok &= abs(got.log_prob - brute.log_prob) <= 1e-9
        ok &= abs(got.log_prob - best_lp) <= 1e-9
        if margin > 1e-9 and len(best_spans) == 1:
            ok &= got.spans == brute.spans == next(iter(best_spans))
        if not ok:
            break
    report(3, "viterbi-exactness-100-trials", ok)


def test_acceptance_4_chain_rule_totality():
    toy = EncodingScheme("toy3-acceptance", ("A", "B", "C"))
    uniform = train([], toy, TrainConfig(2, 1, 0.5))
    rng = random.Random(99)
    data = [[rng.choice("ABC") for _ in range(30)] for _ in range(4)]
    trained = train(data, toy, TrainConfig(3, 1, 0.5))
    ok = True
    for grammar in (uniform, trained):
        for length in range(1, 7):
            total = sum(
                math.exp(grammar.sequence_log_probability(seq))
                for seq in itertools.product("ABC", repeat=length)
            )
            ok &= abs(total - 1.0) <= 1e-9
    report(4, "chain-rule-totality", ok)


def test_acceptance_5_entropy_properties():
    ok = True
    # equiprobable -> normalized entropy 1; deterministic -> 0
    h, hn = marginal_entropy([list("ABCD") * 5], 4)
    ok &= abs(hn - 1.0) <= 1e-12 and abs(h - math.log(4)) <= 1e-12
    h0, hn0 = marginal_entropy([["A"] * 20], 4)
    ok &= h0 == 0.0 and hn0 == 0.0
    # conditioning on training data never hurts, and depth is monotone
    rng = random.Random(77)
    for trial in range(20):
        corpus = sample_corpus(random_planted(rng), rng.randint(80, 200), seed=rng.randrange(1 << 30))
        sequences = encode_corpus(corpus, HIERARCHICAL)
        h_marginal, _ = marginal_entropy(sequences, HIERARCHICAL.size)
        previous = None
        for depth in range(5):
            grammar = train(sequences, HIERARCHICAL, TrainConfig(depth, 1, 0.0))
            h_model, hn_model = model_entropy(grammar, sequences)
            ok &= h_model <= h_marginal + 1e-9
            ok &= 0.0 <= hn_model <= 1.0 + 1e-12
            if previous is not None:
                ok &= h_model <= previous + 1e-9
            previous = h_model
    report(5, "entropy-properties", ok)


def test_acceptance_6_planted_boundary_recovery():
    planted = PlantedGrammar(
        word_lengths=((1, 0.2), (2, 0.5), (3, 0.3)),
        interior_tones=(("T", 0.3), ("H", 0.4), ("U", 0.3)),
        final_tones=(("L", 1.0),),
        turn_lengths=((2, 0.3), (3, 0.4), (4, 0.3)),
        prominence=0.0,
        seed=0,
    )
    training = sample_corpus(planted, 5000, seed=101)
    held_out = sample_corpus(planted, 1000, seed=202)
    grammar = train(encode_corpus(training, HIERARCHICAL), HIERARCHICAL, TrainConfig())
    streams = [turn.tone_stream() for turn in held_out.turns]
    predicted = segment_corpus(grammar, streams, HIERARCHICAL)
    model_f = metrics(confusion(held_out, predicted)).f_measure
    chance = baseline_segment(streams, "random", 0.5, seed=303)
    chance_f = metrics(confusion(held_out, chance)).f_measure
    ok = model_f >= 0.95 and model_f - chance_f >= 0.2
    print(f"  (model F={model_f:.4f}, random-0.5 F={chance_f:.4f})")
    report(6, "planted-boundary-recovery", ok)


def test_acceptance_7_round_trips():
    rng = random.Random(55)
    ok = True
    for trial in range(50):
        corpus = random_corpus(rng, rng.randint(1, 15))
        ok &= parse_corpus(serialize_corpus(corpus)) == corpus

        scheme = HIERARCHICAL if trial % 2 == 0 else HIERARCHY_PROMINENCE
        config = TrainConfig(rng.randint(0, 4), rng.randint(1, 3), rng.choice([0.1, 0.5, 1.0]))
        grammar = train(encode_corpus(corpus, scheme), scheme, config)
        loaded = load_model(save_model(grammar))
        ok &= list(loaded.iter_counts()) == list(grammar.iter_counts())
        ok &= loaded.config == config and loaded.scheme == scheme
        sequence = encode_corpus(corpus, scheme)[0]
        for k in range(len(sequence)):
            diff = np.abs(np.asarray(loaded.conditional(sequence[:k])) - grammar.conditional(sequence[:k]))
            ok &= float(diff.max()) <= 1e-12
        if not ok:
            break
    report(7, "round-trips", ok)


def test_acceptance_8_cli_determinism(tmp_path):
    spec = tmp_path / "planted.json"
    spec.write_text(
        json.dumps(
            {
                "word_lengths": {"1": 0.2, "2": 0.5, "3": 0.3},
                "interior_tones": {"T": 0.3, "H": 0.4, "U": 0.3},
                "final_tones": {"L": 1.0},
                "turn_lengths": {"2": 0.5, "3": 0.5},
                "prominence": 0.1,
                "seed": 7,
            }
        )
    )

    # The subprocess finds the package in the checkout's src/, as pytest does.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_once(workdir):
        workdir.mkdir()
        corpus = workdir / "corpus.txt"
        model = workdir / "model.txt"
        seg = workdir / "seg.txt"
        report_file = workdir / "report.txt"
        commands = [
            ["synth", "--spec", str(spec), "--words", "500", "--seed", "11", "--out", str(corpus)],
            ["train", "--scheme", "hier", "--corpus", str(corpus), "--out", str(model)],
            ["segment", "--model", str(model), "--input", str(corpus), "--out", str(seg)],
            ["eval", "--reference", str(corpus), "--predicted", str(seg), "--format", "kv", "--out", str(report_file)],
        ]
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "tonoseg.cli", *argv], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, (argv, proc.stderr)
        return [corpus.read_bytes(), model.read_bytes(), seg.read_bytes(), report_file.read_bytes()]

    first = run_once(tmp_path / "run1")
    second = run_once(tmp_path / "run2")
    ok = first == second
    report(8, "cli-end-to-end-determinism", ok)
