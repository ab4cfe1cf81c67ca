"""Every public name of a ``src/mfgames`` module is one the program runs.

A name in a module's ``__all__`` needs a use somewhere in ``src/``: a load of
the bare name, or an attribute of that name on anything but ``np`` or
``math``. Imports and ``__all__`` entries are not uses. Code only the tests
call lives in ``tests/``. A package's ``__init__.py`` is not checked: its
``__all__`` names the package's modules.
"""

import ast
from pathlib import Path

import mfgames

SRC = Path(mfgames.__file__).parent

# data builders that the tests and the benchmark call, and the read half of
# the checkpoint format whose write half the CLI calls
ALLOWED = {
    ("games/sir.py", "generate_synthetic_dataset"),
    ("games/sir.py", "make_measure_schedule"),
    ("games/sir.py", "write_dataset_csv"),
    ("nets.py", "load_checkpoint"),
}


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in ("np", "math")):
            yield node.attr


def test_every_public_name_has_a_use_in_src():
    trees = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    used = {name for tree in trees.values() for name in _uses(tree)}
    unused = {(module, name) for module, tree in trees.items()
              if not module.endswith("__init__.py")
              for name in _public_names(tree) if name not in used}
    assert unused == ALLOWED
