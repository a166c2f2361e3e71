"""Every other output of the oracle corpus (tests/oracle.py), each checked
against the inequalities its verdict claims."""
import re
from pathlib import Path

import numpy as np
import pytest

import oracle
from qbuchi import semantics
from qbuchi.semantics import DEFAULT_VISIT_EPS

JOBS = oracle.jobs()
N_COMPILED_PATH = len(oracle.compiled_path_jobs())
DECOMPOSITIONS = oracle.decomposition_jobs()
N_SETTLED = len(oracle.settled_search_jobs())
RUNS = JOBS[:-len(DECOMPOSITIONS) - N_SETTLED]
# every other job of the runs and searches, every job of the compiled
# path, which closes them, and every search that closes the corpus
SLICE = RUNS[:-N_COMPILED_PATH:2] + RUNS[-N_COMPILED_PATH:] + JOBS[-N_SETTLED:]


def _check_verdict(v, p, budget):
    acc, rej, upper, eps = v["acc_lower"], v["rej_lower"], v["rej_upper"], v["epsilon"]
    # norm conservation: acc + rej + nh = 1
    assert acc + upper == pytest.approx(1.0, abs=1e-9)
    assert 0 <= v["periods_simulated"] <= budget
    if v["status"] == "ACCEPTED":
        assert v["reason"] == "all-clauses-certified"
        assert acc >= p - eps
        assert (upper if v["mode"] == "certified" else rej) < p
    elif v["status"] == "REJECTED":
        nh = upper - rej
        holds = {
            "rej-limit-refuted": rej >= p,
            "acc-limit-refuted": acc + nh < p - eps,
            "halted-below-cutpoint": acc + nh < p - eps,
            "buchi-refuted": True,
        }
        assert holds[v["reason"]]
    else:
        assert v["reason"] == "budget-exhausted"


def _check_run(out):
    v, p, trace = out["verdict"], out["p"], out["trace"]
    _check_verdict(v, p, out["max_periods"])
    # a traced run is the same run, recorded
    assert out["traced"] == v
    if not trace:
        # only a run refuted before its first step records nothing
        assert (v["status"], v["periods_simulated"]) == ("REJECTED", 0)
        return
    assert [r["j"] for r in trace] == list(range(1, len(trace) + 1))
    last = trace[-1]
    assert (last["acc"], last["rej"]) == (v["acc_lower"], v["rej_lower"])
    assert last["rej"] + last["nonhalt_norm_sq"] == v["rej_upper"]
    halted = last["nonhalt_norm_sq"] <= DEFAULT_VISIT_EPS * DEFAULT_VISIT_EPS
    if v["reason"] == "halted-below-cutpoint":
        assert halted
    assert out["clauses"]["buchi_visits"] == v["visit_count"]
    assert (out["clauses"]["buchi"] == "refuted") == halted


def _check_search(out):
    assert out["candidates_tried"] >= 1
    assert (out["status"] == "NONEMPTY") == (out["witness"] is not None)
    if out["witness"] is not None:
        _, _, verdict = out["witness"]
        assert verdict["status"] == "ACCEPTED"
        _check_verdict(verdict, out["p"], 2 ** out["rounds_completed"])


def _check_ladder(out):
    for _, _, budget, shared, fresh in out["ladder"]:
        _check_verdict(shared, out["p"], budget)
        # a context shared across budgets answers as a fresh run does
        assert shared == fresh


def test_oracle_slice_keeps_each_verdicts_inequalities():
    for label, job in SLICE:
        out = job()
        check = (_check_search if "witness" in out
                 else _check_ladder if "ladder" in out else _check_run)
        try:
            check(out)
        except AssertionError as e:
            raise AssertionError(f"{label}: {e}") from e


def test_oracle_decompositions_split_the_non_halting_space():
    labels = [label for label, _ in JOBS[len(RUNS):]]
    assert labels[:len(DECOMPOSITIONS)] == [label for label, _ in DECOMPOSITIONS]
    assert all(label.startswith("search ") for label in labels[len(DECOMPOSITIONS):])
    for label, job in DECOMPOSITIONS:
        out = job()
        dims = out["chain_dims"]
        s1, s2 = (np.asarray(out[k])[..., 0] + 1j * np.asarray(out[k])[..., 1]
                  for k in ("s1_basis", "s2_basis"))
        # the closure grows until a level adds nothing, and S1 is what it leaves
        assert all(x > y for x, y in zip(dims, dims[1:-1])) and dims[-1] == dims[-2], label
        assert (len(s1), len(s2)) == (out["s1_dim"], out["s2_dim"]) and out["s1_dim"] == dims[-1]
        both = np.concatenate([s1, s2])
        assert len(both) == dims[0], label
        assert np.abs(both @ both.conj().T - np.eye(len(both))).max(initial=0.0) <= 1e-12, label


def test_expect_fails_on_another_digest(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "jobs", lambda: [("one", lambda: {"p": 0.5})])
    assert oracle.main([]) == 0
    line = capsys.readouterr().out
    digest = line.split()[-1]
    assert line == f"1 outputs sha256 {digest}\n"
    assert oracle.main(["--expect", digest]) == 0
    assert oracle.main(["--expect", "0" * 64]) == 1
    err = capsys.readouterr().err
    assert "0" * 64 in err and digest in err


def test_the_names_the_oracle_imports_from_semantics_resolve():
    # oracle scripts of older trees import the same names, so they keep
    # reading this tree's outputs
    source = Path(oracle.__file__).read_text()
    names = {name.strip() for line in re.findall(r"from qbuchi\.semantics import (.+)", source)
             for name in line.split(",")}
    assert names == {"_json_text", "_LassoContext"}
    # older scripts also import DEFAULT_EPSILON and DEFAULT_BETA
    assert all(hasattr(semantics, name)
               for name in names | {"DEFAULT_EPSILON", "DEFAULT_BETA"})
