import ast
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


def test_private_names_are_used_in_the_package():
    # A private name that only the tests use is dead code in the package.
    # Every module-level private function, class and constant, and every
    # private method of the package's classes, is read somewhere in src/
    # outside its own definition.  Dunder names are not private.
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "tonoseg").glob("*.py"))]
    definitions = []  # (name, the node that defines it)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                definitions += [(m.name, m) for m in node.body if isinstance(m, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                stores = [t for t in ast.walk(node) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
                definitions += [(t.id, node) for t in stores]
    reads = {}  # name -> ids of the nodes that read it
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            reads.setdefault(name, set()).add(id(node))
    unused = [
        name
        for name, definition in definitions
        if name.startswith("_")
        and not name.endswith("__")
        and not reads.get(name, set()) - {id(n) for n in ast.walk(definition)}
    ]
    assert unused == []
