import ast
import importlib
import importlib.util
import inspect
import re
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


PUBLIC_NAMES = [
    "AutomatonFormatError", "CERTIFIED", "ClauseReport", "Cutpoint",
    "CutpointWarning", "DEFAULT_BETA", "DEFAULT_EPSILON", "DEFAULT_MAX_PERIODS",
    "DEFAULT_VISIT_EPS", "Decomposition", "DecompositionReport", "END_MARKER",
    "LITERAL", "LassoWord", "LimitEstimate", "Mmqba", "Mmqfa", "NoEntryReport",
    "SearchBudget", "SearchResult", "SearchStatus", "Status", "StepRecord",
    "SubspaceBasis", "TERMINAL", "TimingReport", "Verdict", "Violation",
    "benchmark_step_cost", "check_acceptance_clauses", "check_emptiness",
    "decompose_nonhalting", "empty_automaton", "estimate_limit",
    "finite_language_mmqfa", "is_sigma_cycle_subspace", "is_unitary", "load",
    "loads", "no_entry_check", "null_space", "reference_run",
    "restrict_to_lasso", "run_lasso", "run_mmqfa", "run_prefix", "save",
    "saves", "tensor", "trace_to_csv", "trace_to_json", "union", "validate",
    "verify_decomposition",
]


def test_all_lists_the_public_names_of_the_package():
    # __all__ is built from the export table {module: names} in __init__.py,
    # and each name loads from its module on first access: a name left out
    # of the table, or that its module does not define or defines under
    # another object, must fail here
    exported = [name for names in qbuchi._EXPORTS.values() for name in names]
    assert sorted(qbuchi.__all__) == PUBLIC_NAMES
    assert len(exported) == len(set(exported))
    assert len(qbuchi.__all__) == len(set(qbuchi.__all__))
    assert sorted(qbuchi.__all__) == sorted(exported)
    namespace = {}
    exec("from qbuchi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qbuchi.__all__)
    for module, names in qbuchi._EXPORTS.items():
        home = importlib.import_module(f"qbuchi.{module}")
        for name in names:
            assert not name.startswith("_") and not inspect.ismodule(namespace[name])
            assert namespace[name] is getattr(home, name) is getattr(qbuchi, name)


def test_the_names_perfbench_traces_resolve(monkeypatch):
    # perfbench/tracing.py swaps these names for timed wrappers in a traced
    # pass; a refactor that drops one would fail only the traced benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert isinstance(qbuchi.SubspaceBasis.__dict__.get("from_spanning"), classmethod)
    assert callable(getattr(qbuchi.Mmqba, "unitary_for", None))  # counted, not spanned


def test_the_perfbench_tracer_puts_back_every_name_it_wraps():
    # a traced pass wraps every TARGETS name, SubspaceBasis.from_spanning and
    # Mmqba.unitary_for, and must leave each original object in its place
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    names += [(qbuchi.SubspaceBasis, "from_spanning"), (qbuchi.Mmqba, "unitary_for")]
    originals = [vars(owner)[attr] for owner, attr in names]
    with tracing.Tracer().installed():
        wrapped = [vars(owner)[attr] for owner, attr in names]
    assert not any(w is o for w, o in zip(wrapped, originals))
    assert all(vars(owner)[attr] is o for (owner, attr), o in zip(names, originals))


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
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", SOURCE_FILES, ids=[p.name for p in SOURCE_FILES])
def test_no_import_inside_a_function(path):
    # each module imports the modules below it once, at module level, so
    # that a cycle between two modules cannot hide in a function body
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [n.lineno for n in ast.walk(func)
                     if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert inner == [], f"{path.name}:{func.name} imports at lines {inner}"


def test_the_package_stays_within_its_line_budget():
    # counted as `wc -l src/qbuchi/*.py` counts: newline characters
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE_FILES)
    assert lines <= 2600, (f"src/qbuchi/*.py has {lines} lines, over the 2600 "
                           "that ROADMAP \"Line count\" allows")


def _module_names():
    """The names bound at module level by a def, a class or an assignment
    in the package's source files, and the names read anywhere in them."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCE_FILES]
    bound = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound.add(node.target.id)
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return bound, read


def test_no_unused_private_names():
    # a private module-level name that nothing in the package reads is a
    # helper left behind by a refactor
    bound, read = _module_names()
    private = {n for n in bound if n.startswith("_") and not n.startswith("__")}
    assert sorted(private - read) == []


def test_no_unused_public_functions():
    # a public module-level function that nothing in the package reads and
    # that the package does not export is a helper left behind by a refactor
    _, read = _module_names()
    functions = {node.name for p in SOURCE_FILES
                 for node in ast.parse(p.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert sorted(functions - read - set(qbuchi.__all__)) == []


def test_no_unused_constants():
    # a module-level constant that nothing in the package reads is a
    # setting that no code applies
    bound, read = _module_names()
    constants = {n for n in bound if re.fullmatch(r"[A-Z][A-Z0-9_]*", n)}
    assert sorted(constants - read) == []
