"""Write ``fixtures/decoder_golden.json``: pinned decoder outputs.

    PYTHONPATH=src python tests/make_decoder_golden.py

Draws random grammars (schemes ``hier``, ``hierprom`` and
``hierprom-tones``; depth 0-5, min count 1-3, smoothing 0.1/0.5/1.0),
half of them used as trained and half reloaded through
``load_model(save_model(...))``, and decodes random tone streams of
1-60 tones with each.  Every case stores the training corpus text, the
config, the stream, the spans and ``float.hex`` of the score, so
``test_segment.test_decoder_golden`` can rebuild the grammar and demand
the same answer bit for bit.  Run it only at the commit whose decoder
output is being pinned.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from tonoseg.core import encode_corpus, get_scheme
from tonoseg.formats import load_model, save_model, serialize_corpus
from tonoseg.grammar import TrainConfig, train
from tonoseg.segment import segment_turn

sys.path.insert(0, str(Path(__file__).parent))
from helpers import TONES, random_corpus  # noqa: E402

OUT = Path(__file__).parent / "fixtures" / "decoder_golden.json"
SEED = 20081156
GRAMMARS = 30
TURNS_PER_GRAMMAR = 10


def main():
    rng = random.Random(SEED)
    grammars = []
    for gi in range(GRAMMARS):
        scheme = get_scheme(("hier", "hierprom", "hierprom-tones")[gi % 3])
        config = TrainConfig(rng.randint(0, 5), rng.randint(1, 3), rng.choice([0.1, 0.5, 1.0]))
        corpus = random_corpus(rng, rng.randint(4, 20))
        grammar = train(encode_corpus(corpus, scheme), scheme, config)
        reload = gi % 2 == 1
        if reload:
            grammar = load_model(save_model(grammar))
        turns = []
        for _ in range(TURNS_PER_GRAMMAR):
            stream = [rng.choice(TONES) for _ in range(rng.randint(1, 60))]
            result = segment_turn(grammar, stream, scheme)
            turns.append(
                {
                    "tones": "".join(t.value for t in stream),
                    "spans": [[s.start, s.end, s.prominent] for s in result.spans],
                    "log_prob": result.log_prob.hex(),
                }
            )
        grammars.append(
            {
                "scheme": scheme.scheme_id,
                "config": [config.max_depth, config.min_count, config.smoothing],
                "reload": reload,
                "corpus": serialize_corpus(corpus),
                "turns": turns,
            }
        )
    OUT.write_text(json.dumps({"seed": SEED, "grammars": grammars}, indent=1) + "\n")
    print(f"wrote {sum(len(g['turns']) for g in grammars)} turns to {OUT}")


if __name__ == "__main__":
    main()
