"""No module of the program, the tests or the benchmark binds a top-level
name twice.

A second `def test_x` replaces the first, and pytest never collects the
first, so its assertions silently stop running.  The guard parses each
file with `ast` (pyflakes' F811 rule, with no new dependency) and fails on
a module-level name that two `def` or `class` statements bind, and on an
upper-case module constant assigned twice.  It reads the files and
changes nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = (sorted(ROOT.glob("src/d0res/*.py")) + sorted(ROOT.glob("tests/*.py"))
         + sorted(ROOT.glob("perfbench/*.py")))


def _assigned(target):
    """The names an assignment target binds."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _assigned(elt)]
    if isinstance(target, ast.Starred):
        return _assigned(target.value)
    return []


def rebound_names(source):
    """The module-level names of `source` that two def/class statements
    bind, or that are upper case and assigned twice, in order."""
    definitions, constants, twice = set(), set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            seen, names = definitions, [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            seen = constants
            names = [n for t in targets for n in _assigned(t) if n.isupper()]
        else:
            continue
        for name in names:
            if name in seen and name not in twice:
                twice.append(name)
            seen.add(name)
    return twice


def test_the_guard_finds_a_shadowed_test_and_a_rebound_constant():
    source = ("X = 1\n"
              "def test_a():\n    pass\n"
              "class test_a:\n    pass\n"
              "def test_b():\n    pass\n"
              "lower = 1\nlower = 2\n"
              "(Y, X) = 2, 3\n")
    assert rebound_names(source) == ["test_a", "X"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_level_name_is_bound_twice(path):
    assert rebound_names(path.read_text()) == []
