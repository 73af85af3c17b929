import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

from tonoseg.core import TonosegError

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


def _raised(node, scope):
    """(enclosing function name, raised expression) per ``raise C(...)`` or
    ``raise C`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc
            yield scope, exc.func if isinstance(exc, ast.Call) else exc
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _raised(child, inner)


def _resolve(module, expr):
    """The object a name or dotted name means in ``module``, else None."""
    if isinstance(expr, ast.Name):
        return getattr(module, expr.id, getattr(builtins, expr.id, None))
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(module, expr.value), expr.attr, None)
    return None


def test_raised_classes_are_tonoseg_errors():
    # Every class the package raises is a TonosegError, so one except
    # clause catches every bad argument and input.  The one exception is
    # the RuntimeError that marks a bug in the corpus reader (CLI exit 3).
    allowed = {("formats", "_turn_line_error", "RuntimeError")}
    untyped = []
    for path in sorted((SRC / "tonoseg").glob("*.py")):
        module = importlib.import_module(f"tonoseg.{path.stem}")
        assert Path(module.__file__).resolve() == path.resolve()
        for scope, expr in _raised(ast.parse(path.read_text()), None):
            raised = _resolve(module, expr)
            if isinstance(raised, type) and not issubclass(raised, TonosegError):
                untyped.append((path.stem, scope, raised.__name__))
    assert [u for u in untyped if u not in allowed] == []
    assert sorted(set(untyped)) == sorted(allowed)
