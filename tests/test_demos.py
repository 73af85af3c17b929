"""The demos print exactly their pinned output.

Each ``demos/*.py`` runs in a fresh interpreter with the repo's ``src``
first on ``PYTHONPATH``; its stdout must equal
``fixtures/demos/<name>.txt`` byte for byte.  The demos are seeded, so a
difference means a change in what the library computes or prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = Path(__file__).parent / "fixtures" / "demos"


def test_every_demo_has_a_fixture():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in FIXTURES.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_pinned(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (FIXTURES / f"{demo.stem}.txt").read_bytes()
