#!/usr/bin/env python3
# The synthetic generator is a fully known process, so it doubles as a
# test oracle: for any prefix of an encoded turn we can compute the
# true next-symbol distribution and watch the trained grammar converge
# to it as the corpus grows.

from tonoseg import (
    HIERARCHICAL,
    PlantedGrammar,
    TrainConfig,
    encode_corpus,
    planted_conditional,
    prefix_probability,
    sample_corpus,
    train,
)
from tonoseg.core import Marker, Tone

planted = PlantedGrammar(
    word_lengths=((1, 0.3), (2, 0.4), (3, 0.3)),
    interior_tones=((Tone.TOP, 0.4), (Tone.HIGHER, 0.6)),
    final_tones=((Tone.LOWER, 0.7), (Tone.SAME, 0.3)),
    turn_lengths=((2, 0.5), (3, 0.5)),
    seed=0,
)

prefix = (Marker.TURN_OPEN, Marker.WORD_OPEN, Tone.HIGHER)
print("prefix:", " ".join(str(s) for s in prefix))
print(f"probability a turn starts this way: {prefix_probability(planted, prefix):.3f}")
print()

# Exact reasoning behind the oracle: H cannot end a word here, so the
# current word has length 2 (weight 0.4*0.6) or 3 (weight 0.3*0.6); the
# next tone is drawn from the final distribution with odds 4:3.
truth = planted_conditional(planted, prefix, HIERARCHICAL)

labels = [str(s) for s in HIERARCHICAL.alphabet]
print(f"{'corpus size':>12s}  " + "".join(f"{l:>8s}" for l, p in zip(labels, truth) if p > 0)
      + f"{'max err':>9s}")
truth_row = "".join(f"{p:8.4f}" for p in truth if p > 0)
print(f"{'(truth)':>12s}  {truth_row}")

for n_words in (100, 1000, 10000):
    corpus = sample_corpus(planted, n_words, seed=31)
    grammar = train(encode_corpus(corpus, HIERARCHICAL), HIERARCHICAL, TrainConfig(4, 1, 0.0))
    estimate = grammar.conditional(prefix)
    row = "".join(f"{estimate[i]:8.4f}" for i, p in enumerate(truth) if p > 0)
    err = max(abs(e - t) for e, t in zip(estimate, truth))
    print(f"{n_words:12d}  {row}{err:9.4f}")

print()
print("Deterministic consequences are exact at any size: after a LOWER")
print("tone (final-only in this process) the word always closes.")
after_low = planted_conditional(planted, prefix + (Tone.LOWER,), HIERARCHICAL)
print(f"  P(word-close | ... L) = {after_low[HIERARCHICAL.index(Marker.WORD_CLOSE)]:.1f}")
