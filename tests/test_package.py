import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_needs_only_the_standard_library():
    # numpy is a test dependency; the package itself must not load it
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, tonoseg; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
