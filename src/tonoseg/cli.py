"""Batch command line: encode, train, entropy report, segment, eval, synth.

Exit codes: 0 success, 1 usage error, 2 bad input data, 3 internal
error.  All randomness comes from explicit seeds, so identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import TonosegError, encode_corpus, get_scheme, scheme_ids
from .evaluate import confusion, format_report_kv, format_report_table, metrics
from .formats import (
    load_model,
    parse_corpus,
    parse_segmentation,
    save_model,
    serialize_corpus,
    serialize_segmentation,
)
from .grammar import TrainConfig, marginal_entropy, model_entropy, train
from .segment import segment_corpus
from .synth import PlantedGrammar, sample_corpus


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise TonosegError(f"{path}: not UTF-8 text: {err}") from None


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    # A plain file is replaced whole from a temporary file in its directory, so a
    # failed write leaves it intact; /dev/null, a pipe or a symlink is written in place.
    plain = not os.path.islink(path) and (os.path.isfile(path) or not os.path.exists(path))
    tmp = f"{path}.{os.getpid()}.tmp" if plain else path
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if plain:
            os.replace(tmp, path)
    finally:
        if plain and os.path.exists(tmp):
            os.remove(tmp)


def _cmd_train(args) -> int:
    scheme = get_scheme(args.scheme)
    corpus = parse_corpus(_read(args.corpus))
    config = TrainConfig(args.max_depth, args.min_count, args.smoothing)
    grammar = train(encode_corpus(corpus, scheme), scheme, config)
    _write(args.out, save_model(grammar))
    return 0


def _cmd_entropy(args) -> int:
    grammar = load_model(_read(args.model))
    corpus = parse_corpus(_read(args.corpus))
    sequences = encode_corpus(corpus, grammar.scheme)
    n = grammar.scheme.size if args.alphabet_size is None else args.alphabet_size
    h_plain, hn_plain = marginal_entropy(sequences, n)
    h_model, hn_model = model_entropy(grammar, sequences, n)
    if args.format == "kv":
        text = (
            f"scheme={grammar.scheme.scheme_id}\n"
            f"alphabet_size={n}\n"
            f"entropy_no_model={h_plain:.6f}\n"
            f"entropy_with_model={h_model:.6f}\n"
            f"norm_entropy_no_model={hn_plain:.6f}\n"
            f"norm_entropy_with_model={hn_model:.6f}\n"
        )
    else:
        text = (
            f"scheme {grammar.scheme.scheme_id}, {n} categories\n"
            f"              entropy   normalized\n"
            f"  no model   {h_plain:8.3f}   {hn_plain:10.3f}\n"
            f"  with model {h_model:8.3f}   {hn_model:10.3f}\n"
        )
    _write(args.out, text)
    return 0


def _cmd_segment(args) -> int:
    grammar = load_model(_read(args.model))
    corpus = parse_corpus(_read(args.input))
    streams = [turn.tone_stream() for turn in corpus.turns]
    results = segment_corpus(grammar, streams, grammar.scheme)
    _write(args.out, serialize_segmentation(results))
    return 0


def _cmd_eval(args) -> int:
    reference = parse_corpus(_read(args.reference))
    predicted = parse_segmentation(_read(args.predicted))
    report = metrics(confusion(reference, predicted))
    text = format_report_kv(report) if args.format == "kv" else format_report_table(report)
    _write(args.out, text)
    return 0


def _cmd_synth(args) -> int:
    planted = PlantedGrammar.from_json(_read(args.spec))
    corpus = sample_corpus(planted, args.words, args.seed)
    _write(args.out, serialize_corpus(corpus))
    return 0


def _cmd_encode(args) -> int:
    scheme = get_scheme(args.scheme)
    corpus = parse_corpus(_read(args.corpus))
    lines = [" ".join(str(s) for s in seq) for seq in encode_corpus(corpus, scheme)]
    _write(args.out, "\n".join(lines) + "\n" if lines else "")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tonoseg",
        description="Tone-sequence grammars and prosodic word boundary prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    schemes = scheme_ids()  # read per parser, so schemes registered after import count

    def add_scheme(p):
        p.add_argument(
            "--scheme",
            choices=schemes,
            default="hier",
            help="symbol encoding scheme (default: %(default)s)",
        )

    p = sub.add_parser("train", help="train a grammar on a corpus file")
    add_scheme(p)
    p.add_argument("--corpus", required=True, help="input corpus file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--max-depth", type=int, default=TrainConfig.max_depth, help="longest retained context (default: %(default)s)")
    p.add_argument("--min-count", type=int, default=TrainConfig.min_count, help="context retention threshold (default: %(default)s)")
    p.add_argument("--smoothing", type=float, default=TrainConfig.smoothing, help="add-lambda smoothing (default: %(default)s)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("entropy", help="entropy of a corpus with and without a model")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--corpus", required=True, help="corpus file to score")
    p.add_argument("--alphabet-size", type=int, default=None, help="category count for normalization (default: scheme alphabet size)")
    p.add_argument("--format", choices=("table", "kv"), default="table", help="report format (default: %(default)s)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("segment", help="predict word boundaries in unsegmented tone streams")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--input", required=True, help="corpus file; its word boundaries are ignored")
    p.add_argument("--out", required=True, help="output segmentation file")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("eval", help="score a segmentation against a reference corpus")
    p.add_argument("--reference", required=True, help="reference corpus file")
    p.add_argument("--predicted", required=True, help="segmentation file to score")
    p.add_argument("--format", choices=("table", "kv"), default="table", help="report format (default: %(default)s)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="sample a synthetic corpus from a planted grammar")
    p.add_argument("--spec", required=True, help="planted grammar JSON file")
    p.add_argument("--words", type=int, required=True, help="number of words to generate")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: seed from the spec file)")
    p.add_argument("--out", required=True, help="output corpus file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("encode", help="print a corpus as flat symbol sequences")
    add_scheme(p)
    p.add_argument("--corpus", required=True, help="input corpus file")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TonosegError, OSError) as err:
        print(f"tonoseg: error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a bug, not bad input
        print(f"tonoseg: internal error: {err!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
