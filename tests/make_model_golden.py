"""Write ``fixtures/model_golden.json``: pinned trained model files.

    PYTHONPATH=src python tests/make_model_golden.py

Trains one grammar per scheme (``hier``, ``hierprom``,
``hierprom-tones``, ``flat``) and depth 0-8 on a small corpus sampled
from a random planted grammar (repetitive enough that contexts of
several symbols recur), with min counts 1-3 (so pruning removes
contexts) and smoothing 0.1/0.5/2.0.  Every case stores the corpus
text, the config and the ``save_model`` text, so
``test_grammar.test_model_golden`` can retrain the grammar and demand
the same file byte for byte.  Run it only at the commit whose model
files are being pinned.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from tonoseg.core import encode_corpus, get_scheme
from tonoseg.formats import save_model, serialize_corpus
from tonoseg.grammar import TrainConfig, train
from tonoseg.synth import sample_corpus

sys.path.insert(0, str(Path(__file__).parent))
from helpers import random_planted  # noqa: E402

OUT = Path(__file__).parent / "fixtures" / "model_golden.json"
SEED = 20081206
SCHEMES = ("hier", "hierprom", "hierprom-tones", "flat")
SMOOTHINGS = (0.5, 0.1, 2.0)


def main():
    rng = random.Random(SEED)
    cases = []
    for si, scheme_id in enumerate(SCHEMES):
        scheme = get_scheme(scheme_id)
        for depth in range(9):
            config = TrainConfig(depth, (si + depth) % 3 + 1, SMOOTHINGS[(si + 2 * depth) % 3])
            corpus = sample_corpus(random_planted(rng), rng.randint(8, 14))
            grammar = train(encode_corpus(corpus, scheme), scheme, config)
            cases.append(
                {
                    "scheme": scheme_id,
                    "config": [config.max_depth, config.min_count, config.smoothing],
                    "corpus": serialize_corpus(corpus),
                    "model": save_model(grammar),
                }
            )
    OUT.write_text(json.dumps({"seed": SEED, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} models to {OUT}")


if __name__ == "__main__":
    main()
