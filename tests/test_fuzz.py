"""Fuzz test of the model file reader.

Mutated copies of saved models may only raise ``TonosegError``.  A
grammar that loads must save and load back to the same text, and
scoring with it may raise nothing else either.  The saved models are
the pinned ones of ``fixtures/model_golden.json`` (four schemes, depth
0-8).  Runs are derandomized so the suite repeats exactly.
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tonoseg.core import TonosegError, get_scheme
from tonoseg.formats import load_model, save_model
from tonoseg.grammar import model_entropy
from tonoseg.segment import segment_turn
from helpers import TONES

FUZZ = settings(max_examples=500, deadline=None, derandomize=True, database=None)
MODELS = [
    case["model"]
    for case in json.loads((Path(__file__).parent / "fixtures" / "model_golden.json").read_text())["cases"]
]
# Values for the config line's depth, min count and smoothing.
CONFIG_VALUES = (
    ("0", "1", "2", "64", "65", "100000", "-1", "x"),
    ("0", "1", "3", "-1", "x"),
    ("0", "5e-324", "0.1", "2.0", "1e300", "1e308", "-0.5", "nan", "inf", "x"),
)


@st.composite
def mutated_models(draw):
    lines = draw(st.sampled_from(MODELS)).splitlines()
    scheme = get_scheme(lines[1].split()[1])
    tokens = [str(sym) for sym in scheme.alphabet]
    config = lines[2].split()
    for field, values in enumerate(CONFIG_VALUES, 1):
        if draw(st.booleans()):
            config[field] = draw(st.sampled_from(values))
    lines[2] = " ".join(config)
    for _ in range(draw(st.integers(0, 3))):
        if len(lines) == 3:  # every row dropped
            break
        rows = st.sampled_from(range(3, len(lines)))
        i = draw(rows)
        kind = draw(st.sampled_from(["token", "count", "drop", "duplicate", "swap"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(rows), lines[i])
        elif kind == "swap":
            k = draw(rows)
            lines[i], lines[k] = lines[k], lines[i]
        else:
            row = lines[i].split()
            if kind == "token":
                j = draw(st.integers(0, len(row) - scheme.size - 1))
                row[j] = draw(st.sampled_from(tokens + [".", "?", "H*"]))
            else:
                j = draw(st.integers(len(row) - scheme.size, len(row) - 1))
                row[j] = draw(st.sampled_from(["-1", "x", str(10**400)]))
            lines[i] = " ".join(row)
    return "\n".join(lines) + "\n"


@FUZZ
@given(mutated_models())
def test_load_model_raises_only_tonoseg_errors(text):
    try:
        grammar = load_model(text)
    except TonosegError:
        return
    saved = save_model(grammar)
    assert save_model(load_model(saved)) == saved
    scheme = grammar.scheme
    for score in (
        lambda: grammar.sequence_log_probability(scheme.alphabet * 2),
        lambda: model_entropy(grammar, [scheme.alphabet * 2]),
        lambda: segment_turn(grammar, TONES[:5], scheme),
    ):
        try:
            score()
        except TonosegError:
            pass
