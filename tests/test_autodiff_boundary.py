"""Only ``autodiff.py`` tells a tape node from an array.

Every other module of ``src/mfgames`` runs one expression on both and reads
a node's array through ``autodiff.plain``: it has no ``isinstance(..., Value)``
and imports no underscore name of ``autodiff``. Inside ``autodiff.py`` a node
is recorded in two ways only, elementwise or fused: ``Value(...)`` is called
by ``Tape.value``, ``_elementwise`` and ``fused`` and nowhere else.
"""

import ast
from pathlib import Path

import mfgames

SRC = Path(mfgames.__file__).parent


def _names(node):
    """The bare and attribute names anywhere in ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _tape_checks(tree):
    """(line, what) of each node test and private autodiff import in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "Value" in _names(node.args[1])):
            yield node.lineno, "isinstance(..., Value)"
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[-1] == "autodiff"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"import of {alias.name}"


def test_only_autodiff_tells_nodes_from_arrays():
    found = [f"{path.relative_to(SRC).as_posix()}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "autodiff.py"
             for line, what in _tape_checks(ast.parse(path.read_text()))]
    assert found == []


def test_the_check_sees_what_it_forbids():
    tree = ast.parse("from ..autodiff import Value, _joint\n"
                     "x = a.v if isinstance(a, (list, Value)) else a\n"
                     "y = isinstance(b, ad.Value)\n")
    assert [what for _line, what in _tape_checks(tree)] == [
        "import of _joint", "isinstance(..., Value)", "isinstance(..., Value)"]


RECORDERS = {"Tape.value", "_elementwise", "fused"}


def _value_calls(tree):
    """(line, dotted name of the enclosing function) of each ``Value(...)`` call."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and "Value" in _names(child.func):
                yield child.lineno, ".".join(scope) or "<module>"
            yield from walk(child, scope)

    return list(walk(tree, ()))


def test_only_three_functions_record_a_node():
    calls = _value_calls(ast.parse((SRC / "autodiff.py").read_text()))
    assert [f"autodiff.py:{line}: Value(...) in {where}"
            for line, where in calls if where not in RECORDERS] == []
    assert {where for _line, where in calls} == RECORDERS


def test_the_recorder_check_sees_every_call():
    tree = ast.parse("class Tape:\n"
                     "    def value(self, x):\n"
                     "        return Value(x, self)\n"
                     "def neg(x):\n"
                     "    vjp = lambda g: ad.Value(g, x.tape)\n"
                     "    return Value(-x.v, x.tape)\n"
                     "y = Value(0.0, tape)\n")
    assert [where for _line, where in _value_calls(tree)] == [
        "Tape.value", "neg", "neg", "<module>"]
