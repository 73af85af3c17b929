import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tonoseg import cli, core
from tonoseg.cli import main
from tonoseg.evaluate import confusion, format_report_kv, metrics
from tonoseg.formats import load_model, serialize_segmentation
from tonoseg.segment import segment_turn
from helpers import parse_corpus_per_token

PLANTED_SPEC = {
    "word_lengths": {"1": 0.2, "2": 0.5, "3": 0.3},
    "interior_tones": {"T": 0.3, "H": 0.4, "U": 0.3},
    "final_tones": {"L": 1.0},
    "turn_lengths": {"2": 0.5, "3": 0.5},
    "prominence": 0.1,
    "seed": 7,
}

# a flat-scheme corpus whose ten symbols are exactly equiprobable: every
# turn contributes each tone once plus one turn-open and one turn-close
UNIFORM_CORPUS = "tonoseg-corpus v1\n" + "( T M B H S L U D )\n" * 4


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(PLANTED_SPEC))
    return path


def run_pipeline(tmp_path, spec_file, seed="3"):
    corpus = tmp_path / "corpus.txt"
    model = tmp_path / "model.txt"
    seg = tmp_path / "seg.txt"
    report = tmp_path / "report.txt"
    steps = [
        ["synth", "--spec", str(spec_file), "--words", "300", "--seed", seed, "--out", str(corpus)],
        ["train", "--scheme", "hier", "--corpus", str(corpus), "--out", str(model)],
        ["segment", "--model", str(model), "--input", str(corpus), "--out", str(seg)],
        ["eval", "--reference", str(corpus), "--predicted", str(seg), "--format", "kv", "--out", str(report)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return corpus, model, seg, report


def test_pipeline_smoke(tmp_path, spec_file):
    corpus, model, seg, report = run_pipeline(tmp_path, spec_file)
    assert corpus.read_text().startswith("tonoseg-corpus v1")
    assert model.read_text().startswith("tonoseg-model v1")
    kv = dict(line.split("=") for line in report.read_text().splitlines())
    assert float(kv["f_measure"]) > 0.8
    assert int(kv["tp"]) + int(kv["fn"]) > 0


def test_pipeline_deterministic(tmp_path, spec_file):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    out_a = run_pipeline(tmp_path / "a", spec_file)
    out_b = run_pipeline(tmp_path / "b", spec_file)
    for fa, fb in zip(out_a, out_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_entropy_uniform_corpus(tmp_path, capsys):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    assert main(["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)]) == 0
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    no_model_line = next(l for l in out.splitlines() if "no model" in l)
    assert "1.000" in no_model_line


def test_entropy_kv_format(tmp_path, capsys):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    main(["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)])
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus), "--format", "kv"]) == 0
    kv = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert kv["scheme"] == "flat"
    assert kv["alphabet_size"] == "10"
    assert float(kv["norm_entropy_no_model"]) == pytest.approx(1.0)
    # alphabet-size override changes only the normalization
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus), "--format", "kv", "--alphabet-size", "20"]) == 0
    kv20 = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert kv20["entropy_no_model"] == kv["entropy_no_model"]
    assert float(kv20["norm_entropy_no_model"]) < 1.0


def test_encode_subcommand(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("tonoseg-corpus v1\n( U S ) *( T D )\n")
    assert main(["encode", "--corpus", str(corpus), "--scheme", "hierprom"]) == 0
    assert capsys.readouterr().out == "[ ( U S ) *( T D ) ]\n"


def test_eval_mismatch_exit_2(tmp_path, capsys, spec_file):
    corpus, model, seg, report = run_pipeline(tmp_path, spec_file)
    other = tmp_path / "other.txt"
    main(["synth", "--spec", str(spec_file), "--words", "10", "--seed", "99", "--out", str(other)])
    assert main(["eval", "--reference", str(other), "--predicted", str(seg)]) == 2
    assert "turn count mismatch" in capsys.readouterr().err


def test_bad_input_data_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("tonoseg-corpus v1\n( X )\n")
    model = tmp_path / "m.txt"
    assert main(["train", "--corpus", str(bad), "--out", str(model)]) == 2
    err = capsys.readouterr().err
    assert "unknown tone" in err
    assert "line 2" in err


def test_negative_model_count_exit_2(tmp_path, capsys):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    assert main(["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)]) == 0
    lines = model.read_text().splitlines()
    root = next(i for i, line in enumerate(lines) if line.startswith(". "))
    lines[root] = lines[root].rsplit(" ", 1)[0] + " -1"
    model.write_text("\n".join(lines) + "\n")
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert "negative count" in capsys.readouterr().err


def test_zero_count_row_entropy_names_position_exit_2(tmp_path, capsys):
    # Under zero smoothing a row that counts nothing gives its successors
    # probability 0; the error names the first position that meets one.
    model = tmp_path / "model.txt"
    size = core.HIERARCHICAL.size
    model.write_text(f"tonoseg-model v1\nscheme hier\nconfig 1 1 0.0\n.{' 1' * size}\nT{' 0' * size}\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("tonoseg-corpus v1\n( H L )\n( U S ) ( T D )\n")
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err == "tonoseg: error: sequence 1, position 7: unseen transition with zero smoothing\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_smoothing_exit_2(tmp_path, capsys, value):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    argv = ["train", "--corpus", str(corpus), "--out", str(model), "--smoothing", value]
    assert main(argv) == 2
    assert f"smoothing must be finite and >= 0, got {value}" in capsys.readouterr().err
    assert not model.exists()


def test_non_finite_model_smoothing_exit_2(tmp_path, capsys):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    assert main(["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)]) == 0
    model.write_text(model.read_text().replace("config 4 2 0.5", "config 4 2 nan"))
    seg = tmp_path / "seg.txt"
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert main(["segment", "--model", str(model), "--input", str(corpus), "--out", str(seg)]) == 2
    err = capsys.readouterr().err
    assert err.count("bad config values: smoothing must be finite") == 2
    assert not seg.exists()


def test_huge_smoothing_exit_2(tmp_path, capsys):
    # Finite, but smoothing * alphabet size overflows to infinity.
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    argv = ["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)]
    assert main(argv + ["--smoothing", "1e308"]) == 2
    assert "smoothing 1e+308 too large for an alphabet of 10 symbols" in capsys.readouterr().err
    assert not model.exists()
    assert main(argv) == 0
    model.write_text(model.read_text().replace("config 4 2 0.5", "config 4 2 1e308"))
    seg = tmp_path / "seg.txt"
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert main(["segment", "--model", str(model), "--input", str(corpus), "--out", str(seg)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: bad config values: smoothing 1e+308 too large for an alphabet") == 2
    assert not seg.exists()


def test_overflowing_model_count_exit_2(tmp_path, capsys):
    # A count past the float range used to load, then fail scoring with exit 3.
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    assert main(["train", "--scheme", "hier", "--corpus", str(corpus), "--out", str(model)]) == 0
    lines = model.read_text().splitlines()
    root = lines[3].split()
    assert root[0] == "."
    root[1] = str(10**400)
    lines[3] = " ".join(root)
    model.write_text("\n".join(lines) + "\n")
    seg = tmp_path / "seg.txt"
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert main(["segment", "--model", str(model), "--input", str(corpus), "--out", str(seg)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: line 4: counts in context '.' too large: smoothed total is not finite") == 2
    assert not seg.exists()


@pytest.mark.parametrize("size", ["0", "1", "-3"])
def test_alphabet_size_below_two_exit_2(tmp_path, capsys, size):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    assert main(["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)]) == 0
    argv = ["entropy", "--model", str(model), "--corpus", str(corpus), "--alphabet-size", size]
    assert main(argv) == 2
    assert f"n_categories must be >= 2, got {size}" in capsys.readouterr().err


def test_max_depth_above_64_exit_2(tmp_path, capsys):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    argv = ["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)]
    assert main(argv + ["--max-depth", "65"]) == 2
    assert "max_depth must be in [0, 64], got 65" in capsys.readouterr().err
    assert not model.exists()
    assert main(argv + ["--max-depth", "64"]) == 0
    model.write_text(model.read_text().replace("config 64 2 0.5", "config 65 2 0.5"))
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert "error: bad config values: max_depth must be in [0, 64], got 65" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "entropy", "segment", "eval", "synth", "encode"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, capsys, spec_file, command):
    corpus, model, seg, _ = run_pipeline(tmp_path, spec_file)
    inputs = {
        "train": ["--corpus", str(corpus)],
        "entropy": ["--model", str(model), "--corpus", str(corpus)],
        "segment": ["--model", str(model), "--input", str(corpus)],
        "eval": ["--reference", str(corpus), "--predicted", str(seg)],
        "synth": ["--spec", str(spec_file), "--words", "50"],
        "encode": ["--corpus", str(corpus)],
    }
    out = tmp_path / "out.txt"
    out.write_bytes(b"previous\n")
    before = sorted(p.name for p in tmp_path.iterdir())

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    assert main([command, *inputs[command], "--out", str(out)]) == 2
    assert capsys.readouterr().err == "tonoseg: error: disk full\n"
    assert out.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_write_through_symlink_in_place(tmp_path):
    # Only a plain file is replaced; a symlink keeps pointing at its target.
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("previous\n")
    link.symlink_to(target)
    assert main(["encode", "--scheme", "flat", "--corpus", str(corpus), "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == "[ T M B H S L U D ]\n" * 4


@pytest.mark.parametrize(
    "document, message",
    [
        ([1, 2], "spec must be a JSON object, got list"),
        ("cue", "spec must be a JSON object, got str"),
        ({"word_lengths": {"1": 1.0}}, "spec lacks the key 'interior_tones'"),
        ({**PLANTED_SPEC, "final_tones": ["L"]}, "spec key 'final_tones': "),
        ({**PLANTED_SPEC, "seed": [7]}, "spec key 'seed': "),
    ],
)
def test_malformed_spec_exit_2(tmp_path, capsys, document, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(document))
    out = tmp_path / "corpus.txt"
    assert main(["synth", "--spec", str(spec), "--words", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"tonoseg: error: {message}")
    assert not out.exists()


def test_spec_not_json_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"word_lengths": ')
    out = tmp_path / "corpus.txt"
    assert main(["synth", "--spec", str(spec), "--words", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("tonoseg: error: spec is not valid JSON: ")
    assert not out.exists()


def test_spec_nested_too_deeply_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[" * 100_000)
    out = tmp_path / "corpus.txt"
    assert main(["synth", "--spec", str(spec), "--words", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("tonoseg: error: spec is not valid JSON: maximum recursion")
    assert not out.exists()


def test_nan_probability_spec_exit_2(tmp_path, capsys):
    # Python's json reads NaN; a NaN weight is no probability.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**PLANTED_SPEC, "word_lengths": {"1": float("nan"), "2": 1.0}}))
    assert "NaN" in spec.read_text()
    out = tmp_path / "corpus.txt"
    assert main(["synth", "--spec", str(spec), "--words", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "tonoseg: error: word_lengths: non-finite probability\n"
    assert not out.exists()


def test_repeated_value_spec_exit_2(tmp_path, capsys):
    # "2" and "02" are two keys of a JSON object but one turn length.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**PLANTED_SPEC, "turn_lengths": {"2": 0.5, "02": 0.5}}))
    out = tmp_path / "corpus.txt"
    assert main(["synth", "--spec", str(spec), "--words", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "tonoseg: error: turn_lengths: value 2 listed twice\n"
    assert not out.exists()


def test_words_below_one_exit_2(tmp_path, capsys, spec_file):
    out = tmp_path / "corpus.txt"
    assert main(["synth", "--spec", str(spec_file), "--words", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "tonoseg: error: n_words must be >= 1, got 0\n"
    assert not out.exists()


def test_input_not_utf8_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"tonoseg-corpus v1\n( T \xff )\n")
    out = tmp_path / "model.txt"
    assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"tonoseg: error: {corpus}: not UTF-8 text: ")
    assert not out.exists()


def test_span_past_int_digit_limit_exit_2(tmp_path, capsys, spec_file):
    corpus, _, seg, _ = run_pipeline(tmp_path, spec_file)
    seg.write_text("0-" + "9" * 5000 + "\n")
    assert main(["eval", "--reference", str(corpus), "--predicted", str(seg)]) == 2
    assert capsys.readouterr().err.startswith("tonoseg: error: line 1, column 1: bad span token '0-999")


def test_stray_key_error_is_internal_exit_3(tmp_path, monkeypatch, capsys):
    # A KeyError no input check raised is a bug, not bad input.
    from tonoseg import cli

    def broken(text):
        raise KeyError("stray")

    monkeypatch.setattr(cli, "parse_corpus", broken)
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    assert main(["encode", "--scheme", "flat", "--corpus", str(corpus)]) == 3
    assert capsys.readouterr().err == "tonoseg: internal error: KeyError('stray')\n"


def test_scheme_choices_follow_the_registry(tmp_path, monkeypatch, capsys):
    # --scheme choices are read when the parser is built, not at import.
    monkeypatch.setattr(core, "_SCHEME_REGISTRY", dict(core._SCHEME_REGISTRY))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(UNIFORM_CORPUS)
    assert main(["encode", "--scheme", "toy-flat", "--corpus", str(corpus)]) == 1
    core.register_scheme(core.EncodingScheme("toy-flat", core.FLAT.alphabet))
    capsys.readouterr()
    assert main(["encode", "--scheme", "toy-flat", "--corpus", str(corpus)]) == 0
    toy = capsys.readouterr().out
    assert main(["encode", "--scheme", "flat", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().out == toy


def test_unknown_model_scheme_exit_2(tmp_path, capsys):
    corpus = tmp_path / "uniform.txt"
    corpus.write_text(UNIFORM_CORPUS)
    model = tmp_path / "model.txt"
    assert main(["train", "--scheme", "flat", "--corpus", str(corpus), "--out", str(model)]) == 0
    model.write_text(model.read_text().replace("scheme flat", "scheme mystery"))
    assert main(["entropy", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith("tonoseg: error: unknown scheme 'mystery' (known: ")


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "m.txt")]) == 2


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["train"]) == 1  # missing required arguments
    assert main(["train", "--scheme", "weird", "--corpus", "x", "--out", "y"]) == 1


def test_usage_error_prints_usage_then_error(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapped usage lines
    assert main([]) == 1
    assert capsys.readouterr() == (
        "",
        "usage: tonoseg [-h] {train,entropy,segment,eval,synth,encode} ...\n"
        "tonoseg: error: the following arguments are required: command\n",
    )
    assert main(["eval", "--reference"]) == 1
    assert capsys.readouterr() == (
        "",
        "usage: tonoseg eval [-h] --reference REFERENCE --predicted PREDICTED [--format {table,kv}] [--out OUT]\n"
        "tonoseg eval: error: argument --reference: expected one argument\n",
    )


def test_reused_parser_answers_as_a_fresh_one(capsys):
    # ``main`` builds its parser once per set of scheme ids and reuses it.
    # A help or a usage error prints the same text with the same exit code
    # from a fresh parser and from one reused after other calls.
    cases = [
        ["--help"], ["segment", "--help"], ["train", "--help"], [], ["bogus"], ["train"],
        ["train", "--scheme", "weird", "--corpus", "x", "--out", "y"], ["eval", "--reference"],
    ]
    fresh = []
    for argv in cases:
        cli._build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert {code for code, _ in fresh} == {0, 1}
    for _ in range(2):
        for argv, want in reversed(list(zip(cases, fresh))):
            assert (main(argv), capsys.readouterr()) == want, argv
    assert cli._build_parser.cache_info().currsize == 1


def test_help_exits_zero_and_documents_defaults(capsys):
    assert main(["--help"]) == 0
    for sub in ("train", "entropy", "segment", "eval", "synth", "encode"):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "default: 4" in out and "default: 2" in out and "default: 0.5" in out


def test_python_m_tonoseg_runs_the_cli():
    # A fresh interpreter that finds the package through PYTHONPATH alone.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "tonoseg", *argv], env=env, capture_output=True, text=True)

    helped = run("--help")
    assert helped.returncode == 0 and "usage" in helped.stdout
    assert run().returncode == 1


def test_pipeline_bytes_do_not_depend_on_the_hash_seed(tmp_path, spec_file):
    # str hashes change from process to process, so the per-call memos
    # keyed by lines, tuples of symbols and events may reach an output
    # only through their insertion order.  The corpora repeat whole turns.
    src = str(Path(__file__).resolve().parents[1] / "src")
    steps = [
        ["synth", "--spec", str(spec_file), "--words", "3000", "--seed", "3", "--out", "train.txt"],
        ["synth", "--spec", str(spec_file), "--words", "1000", "--seed", "4", "--out", "heldout.txt"],
        ["train", "--scheme", "hier", "--corpus", "train.txt", "--out", "model.txt"],
        ["entropy", "--model", "model.txt", "--corpus", "train.txt", "--format", "kv", "--out", "entropy.txt"],
        ["segment", "--model", "model.txt", "--input", "heldout.txt", "--out", "seg.txt"],
        ["eval", "--reference", "heldout.txt", "--predicted", "seg.txt", "--format", "kv", "--out", "eval.txt"],
    ]
    script = (
        "import json, sys\n"
        "from tonoseg.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
    )
    outputs = []
    for hash_seed in ("0", "1"):
        work = tmp_path / f"hashseed{hash_seed}"
        work.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(steps)], cwd=work, env=env, capture_output=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
        outputs.append((done.stdout, done.stderr, files))
    assert len(outputs[0][2]) == len(steps)  # one file per step
    assert outputs[0] == outputs[1]


def test_segment_output_marks_prominence(tmp_path):
    corpus = tmp_path / "c.txt"
    # prominent words dominate, so the decoder should mark some spans
    corpus.write_text("tonoseg-corpus v1\n" + "*( T D ) *( T D )\n" * 30)
    model = tmp_path / "m.txt"
    seg = tmp_path / "s.txt"
    assert main(["train", "--scheme", "hierprom", "--corpus", str(corpus), "--out", str(model)]) == 0
    assert main(["segment", "--model", str(model), "--input", str(corpus), "--out", str(seg)]) == 0
    assert "*" in seg.read_text()


def test_segment_reads_each_turn_object_once(tmp_path, monkeypatch, spec_file):
    # parse_corpus gives equal turn lines one Turn, and segment reads the
    # tone stream of each Turn once; its output is one segment_turn per turn.
    corpus, model, _, _ = run_pipeline(tmp_path, spec_file)
    turn_lines = [line for line in corpus.read_text().splitlines()[1:] if line.startswith(("(", "*("))]
    held = tmp_path / "held.txt"
    held.write_text("tonoseg-corpus v1\n" + "".join(turn_lines[i % 5] + "\n" for i in range(400)))
    grammar = load_model(model.read_text())
    turns = parse_corpus_per_token(held.read_text()).turns
    want = serialize_segmentation([segment_turn(grammar, t.tone_stream(), grammar.scheme) for t in turns])
    calls = []
    tone_stream = core.Turn.tone_stream
    monkeypatch.setattr(core.Turn, "tone_stream", lambda turn: calls.append(turn) or tone_stream(turn))
    seg = tmp_path / "held_seg.txt"
    assert main(["segment", "--model", str(model), "--input", str(held), "--out", str(seg)]) == 0
    assert len(calls) == len(set(turn_lines[:5]))
    assert seg.read_text() == want


def test_segment_and_eval_on_repeated_turns(tmp_path, spec_file):
    # A held-out file of a few turn lines, each repeated many times, also
    # after comment and metadata lines and with trailing whitespace: the
    # commands, which read and decode each distinct line once, write what
    # one segment_turn per turn gives.
    corpus, model, _, _ = run_pipeline(tmp_path, spec_file)
    turn_lines = [line for line in corpus.read_text().splitlines()[1:] if line.startswith(("(", "*("))]
    lines = ["tonoseg-corpus v1"]
    for i in range(600):
        lines += ["# c", "@k v"][: i % 3] + [turn_lines[i % 7] + " " * (i % 2)]
    held = tmp_path / "held.txt"
    held.write_text("\n".join(lines) + "\n")
    seg, report = tmp_path / "held_seg.txt", tmp_path / "held_report.txt"
    assert main(["segment", "--model", str(model), "--input", str(held), "--out", str(seg)]) == 0
    assert main(["eval", "--reference", str(held), "--predicted", str(seg), "--format", "kv", "--out", str(report)]) == 0

    grammar = load_model(model.read_text())
    reference = parse_corpus_per_token(held.read_text())
    results = [segment_turn(grammar, turn.tone_stream(), grammar.scheme) for turn in reference.turns]
    assert len(results) == 600
    assert seg.read_text() == serialize_segmentation(results)
    assert report.read_text() == format_report_kv(metrics(confusion(reference, results)))
