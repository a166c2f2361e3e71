"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check the checkers (a corrupted output must fail), that traced and
untraced runs produce identical outputs, that inputs depend on the seed
alone, and that the traced counts agree with the counts the test suite pins.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import qbuchi  # noqa: E402
import workloads  # noqa: E402
from qbuchi.fixtures import load_fixture  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, pass_metrics  # noqa: E402


def setup_ops(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](seed, workdir, ROOT)
    return wl, wl.setup()


def run_all(ops, form="run"):
    return [op.post(getattr(op, form)() if getattr(op, form) else op.run()) for op in ops]


def by_name(ops, prefix):
    return [op for op in ops if op.name.startswith(prefix)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_documents(name, tmp_path):
    first, _ = setup_ops(name, 7, tmp_path)
    (tmp_path / "again").mkdir()
    again, _ = setup_ops(name, 7, tmp_path / "again")
    other, _ = setup_ops(name, 8, tmp_path)
    assert first.docs and first.docs == again.docs
    assert {k: v[2] for k, v in first.docs.items()} != {k: v[2] for k, v in other.docs.items()}


def test_same_seed_gives_identical_counts(tmp_path):
    counts = []
    for attempt in range(2):
        (tmp_path / str(attempt)).mkdir()
        _, ops = setup_ops("search", 7, tmp_path / str(attempt))
        tracer = Tracer()
        with tracer.installed():
            run_all(by_name(ops, "haar_d3") + by_name(ops, "lang_a"))
        m = pass_metrics(tracer.spans)
        counts.append({k: v for k, v in m.items() if not k.endswith(("_ms", "_us"))
                       and ".us_per_step." not in k})
    assert counts[0]["emptiness.candidates"] > 0
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_passes_every_check(name, tmp_path):
    _, ops = setup_ops(name, 8, tmp_path)
    for op, out in zip(ops, run_all(ops)):
        assert op.check(out) == [], op.name


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    originals = (qbuchi.emptiness.run_lasso, qbuchi.cli.main, qbuchi.Mmqba.unitary_for,
                 qbuchi.numerics.SubspaceBasis.from_spanning)
    for name, picks in (("search", ("lang_a_prefix", "haar_d4", "reject_all")),
                        ("lasso_dense", ("reference", "verify")),
                        ("cli_docs", ("validate_lang_a_omega", "run_d81", "decompose_d81", "union_d27x"))):
        _, ops = setup_ops(name, 3, tmp_path)
        ops = [op for op in ops if op.name.startswith(picks)]
        untraced = run_all(ops)
        tracer = Tracer()
        with tracer.installed():
            traced = run_all(ops, "inprocess")
        assert tracer.spans, name
        for op, a, b in zip(ops, untraced, traced):
            assert a == b, op.name
    assert originals == (qbuchi.emptiness.run_lasso, qbuchi.cli.main, qbuchi.Mmqba.unitary_for,
                         qbuchi.numerics.SubspaceBasis.from_spanning)


def test_reject_all_candidates_match_the_pinned_count():
    tracer = Tracer()
    with tracer.installed():
        result = qbuchi.check_emptiness(load_fixture("reject_all"), 0.9)
    assert pass_metrics(tracer.spans)["emptiness.candidates"] == result.candidates_tried == 16002


def test_checker_flags_corrupted_search_outputs(tmp_path):
    _, ops = setup_ops("search", 1, tmp_path)
    op = by_name(ops, "lang_a_prefix@0.8")[0]
    out = op.post(op.run())
    assert op.check(out) == []
    status, (prefix, cycle, verdict), tried, rounds = out
    assert op.check((status, (prefix, "b", verdict), tried, rounds))  # wrong witness
    rejected = dict(verdict, status="REJECTED")
    assert op.check((status, (prefix, cycle, rejected), tried, rounds))
    assert op.check(("INCONCLUSIVE", None, tried, rounds))  # known nonempty
    reject_all = by_name(ops, "reject_all")[0]
    assert reject_all.check(("NONEMPTY", (prefix, cycle, verdict), tried, rounds))


def test_checker_flags_corrupted_dense_outputs(tmp_path):
    _, ops = setup_ops("lasso_dense", 1, tmp_path)
    ref = by_name(ops, "reference")[0]
    out = ref.post(ref.run())
    assert ref.check(out) == []
    verdict, last, est = out
    leaky = dict(verdict, acc_lower=verdict["acc_lower"] + 1e-6)
    assert ref.check((leaky, last, est))  # norm no longer conserved
    steps, acc, rej, nh = last
    shifted = dict(verdict, acc_lower=acc - 1e-6, rej_upper=verdict["rej_upper"] + 1e-6)
    assert ref.check((shifted, (steps, acc - 1e-6, rej, nh + 1e-6), est))  # off reference_run
    flipped = dict(verdict, status="ACCEPTED", acc_lower=0.0, rej_upper=1.0)
    assert ref.check((flipped, None, None))  # certificate does not hold
    planted = by_name(ops, "verify")[0]
    good = planted.post(planted.run())
    assert planted.check(good) == []
    assert planted.check((good[0] + 1, good[1] - 1) + good[2:])
    assert planted.check(good[:5] + (1e-3,) + good[6:])


def test_checker_flags_corrupted_cli_outputs(tmp_path):
    _, ops = setup_ops("cli_docs", 1, tmp_path)
    run = by_name(ops, "run_lang_a_prefix")[0]
    code, stdout, digest, stderr = run.post(run.run())
    assert run.check((code, stdout, digest, stderr)) == []
    assert run.check((1, stdout, digest, stderr))  # exit code against status
    doc = json.loads(stdout)
    assert run.check((code, json.dumps(dict(doc, status="REJECTED")), digest, stderr))
    assert run.check((code, "not json", digest, stderr))
    decompose = by_name(ops, "decompose_d81")[0]
    code, stdout, digest, stderr = decompose.post(decompose.run())
    doc = json.loads(stdout)
    assert decompose.check((code, stdout, digest, stderr)) == []
    assert decompose.check((code, json.dumps(dict(doc, s1_dim=doc["s1_dim"] + 1)), digest, stderr))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_meter_scales_by_the_probes_around_a_segment(monkeypatch):
    clock = iter([0.0, 0.5,  # probe at start: 0.5 s
                  1.0, 3.0,  # segment: 2 s
                  3.0, 4.5,  # probe after it: 1.5 s
                  4.5])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    monkeypatch.setitem(speed.PROBES, "fake", (lambda: None, 0.25))
    meter = speed.Meter("fake")
    meter.split()
    assert meter.raw == 2.0
    assert meter.ref == 2.0 * 0.25 / 1.0  # mean probe (0.5 + 1.5) / 2
