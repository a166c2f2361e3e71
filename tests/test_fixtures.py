import ast
import inspect
from pathlib import Path

import pytest

import qbuchi
from qbuchi import automata, semantics
from qbuchi.fixtures import fixture_path, golden_path, list_fixtures, load_fixture

from conftest import FIXTURE_NAMES

GOLDEN_FILES = [
    "check_cycle_no_entry.json",
    "decompose_finite_ab.json",
    "decompose_no_entry.json",
    "emptiness_lang_a_prefix.json",
    "emptiness_reject_all.json",
    "run_lang_a_prefix.json",
    "run_lang_ab_cycle.json",
    "run_reject_all.json",
    "run_swap_halt_once.json",
    "trace_lang_a_omega.csv",
    "trace_lang_a_omega.json",
    "union_lang_a_omega_lang_a_prefix.qba",
]


def test_fixture_listing():
    assert tuple(list_fixtures()) == FIXTURE_NAMES


def test_fixture_paths_resolve():
    for name in list_fixtures():
        assert fixture_path(name).is_file()
    with pytest.raises(KeyError):
        fixture_path("no_such_fixture")


def test_golden_paths_resolve():
    for name in GOLDEN_FILES:
        assert golden_path(name).is_file()
    with pytest.raises(KeyError):
        golden_path("no_such_golden.json")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_load_and_validate(name):
    a = load_fixture(name)
    assert automata.validate(a) == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_files_are_canonical(name):
    path = fixture_path(name)
    a = automata.load(str(path))
    assert automata.saves(a) == path.read_text(encoding="utf-8")


def test_every_fixture_runs_on_the_stepped_path():
    # cycles compile only from _COMPILED_MIN_DIM up, which rounds the
    # floats differently; a fixture at that size would move the goldens
    # and the bit-for-bit tests built on it onto the compiled path
    assert max(load_fixture(name).dim for name in list_fixtures()) < semantics._COMPILED_MIN_DIM


def test_all_lists_the_public_names_of_the_package():
    # the import list and __all__ in __init__.py are kept by hand; a name
    # removed from one must go from the other
    namespace = {}
    exec("from qbuchi import *", namespace)
    tree = ast.parse(Path(qbuchi.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    public = {n for n in bound
              if not n.startswith("_") and not inspect.ismodule(getattr(qbuchi, n))}
    assert len(qbuchi.__all__) == len(set(qbuchi.__all__))
    assert sorted(qbuchi.__all__) == sorted(public)
    assert set(namespace) - {"__builtins__"} == public


SOURCE_FILES = sorted(Path(qbuchi.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCE_FILES, ids=[p.name for p in SOURCE_FILES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # a name re-exported through __all__ is used
            used.update(ast.literal_eval(node.value))
    assert sorted(imported - used) == []


def test_no_unused_private_names():
    # a private module-level name that nothing in the package reads is a
    # helper left behind by a refactor
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCE_FILES]
    private = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            private.update(n for n in targets if n.startswith("_") and not n.startswith("__"))
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(private - read) == []
