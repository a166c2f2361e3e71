"""Simulation and analysis toolkit for measure-many quantum automata.

The package covers finite-word runs between end markers, infinite runs
on ultimately periodic (lasso) words with finite-step acceptance and
rejection certificates, structural decomposition of the non-halting
space, product constructions, and a dovetailing nonemptiness search.

``import qbuchi`` loads no submodule: each public name, and each
submodule named below, is imported on first access (PEP 562), so a
command-line call compiles only the modules it runs.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "automata": (
        "AutomatonFormatError", "Cutpoint", "CutpointWarning", "END_MARKER",
        "Mmqba", "Mmqfa", "TERMINAL", "Violation", "load", "loads", "save",
        "saves", "validate",
    ),
    "numerics": ("SubspaceBasis", "is_unitary", "null_space", "tensor"),
    "semantics": (
        "CERTIFIED", "ClauseReport", "DEFAULT_BETA", "DEFAULT_EPSILON",
        "DEFAULT_MAX_PERIODS", "DEFAULT_VISIT_EPS", "LITERAL", "LassoWord",
        "Status", "StepRecord", "Verdict", "check_acceptance_clauses",
        "run_lasso", "run_mmqfa", "run_prefix", "trace_to_csv", "trace_to_json",
    ),
    "analysis": (
        "Decomposition", "DecompositionReport", "LimitEstimate", "NoEntryReport",
        "decompose_nonhalting", "estimate_limit", "is_sigma_cycle_subspace",
        "no_entry_check", "verify_decomposition",
    ),
    "constructions": (
        "empty_automaton", "finite_language_mmqfa", "restrict_to_lasso", "union",
    ),
    "emptiness": (
        "SearchBudget", "SearchResult", "SearchStatus", "TimingReport",
        "benchmark_step_cost", "check_emptiness", "reference_run",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
