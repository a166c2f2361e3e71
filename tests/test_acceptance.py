"""End-to-end acceptance gate.

Each test covers one numbered criterion, pins its tolerances, and prints
a single PASS line with the measured values (visible under pytest -s or
in captured output).
"""
import time

import numpy as np

from qbuchi.analysis import decompose_nonhalting, no_entry_check, verify_decomposition
from qbuchi.automata import validate
from qbuchi.constructions import union
from qbuchi.emptiness import SearchStatus, benchmark_step_cost, check_emptiness
from qbuchi.numerics import SubspaceBasis
from qbuchi.semantics import (
    CLAUSE_REFUTED,
    LassoWord,
    Status,
    check_acceptance_clauses,
    run_lasso,
    run_prefix,
)

from conftest import FIXTURE_NAMES, haar_unitary, make_automaton, two_block_automaton

# every bundled automaton with an accepted lasso, at its canonical cutpoint
POSITIVE_CASES = [
    ("lang_a_prefix", LassoWord("aaa", "b"), 0.8),
    ("lang_a_omega", LassoWord("", "a"), 0.6),
    ("lang_ab_cycle", LassoWord("", "ab"), 0.5),
    ("lang_inf_a", LassoWord("", "a"), 1.0),
    ("lang_aab_cycle", LassoWord("", "aab"), 0.5),
    ("swap_halt_once", LassoWord("", "a"), 1.0),
]
PAIRED_AUTOMATON = {
    "lang_a_prefix": "lang_a_omega",
    "lang_a_omega": "lang_a_prefix",
    "lang_ab_cycle": "lang_aab_cycle",
    "lang_inf_a": "lang_ab_cycle",
    "lang_aab_cycle": "lang_ab_cycle",
    "swap_halt_once": "lang_a_omega",
}


def test_criterion_01_three_a_then_b_limits(fixtures):
    a = fixtures["lang_a_prefix"]
    word = "aaa" + "b" * 60
    run_prefix(a, word)  # warm caches before timing
    t0 = time.perf_counter()
    trace = run_prefix(a, word)
    elapsed = time.perf_counter() - t0
    last = trace[-1]
    acc_err = abs(last.acc - 53.0 / 54.0)
    rej_err = abs(last.rej - 1.0 / 54.0)
    assert acc_err <= 1e-9
    assert rej_err <= 1e-9
    assert elapsed < 0.050
    print(f"criterion 1: PASS - acc err {acc_err:.2e}, rej err {rej_err:.2e}, "
          f"{elapsed * 1e3:.2f} ms for {len(word)} steps")


def test_criterion_02_b_word_rejected(fixtures):
    a = fixtures["lang_a_prefix"]
    last = run_prefix(a, "b" * 40)[-1]
    acc_err = abs(last.acc - 0.5)
    rej_err = abs(last.rej - 0.5)
    assert acc_err <= 1e-9
    assert rej_err <= 1e-9
    vd = run_lasso(a, LassoWord("", "b"), 0.8)
    assert vd.status is Status.REJECTED
    assert vd.reason == "acc-limit-refuted"
    # the certificate is sound: even granting all in-flight mass, acc < 0.8
    assert last.acc + last.nonhalt_norm_sq < 0.8
    print(f"criterion 2: PASS - acc,rej err {acc_err:.2e},{rej_err:.2e}; "
          f"rejected with {vd.reason} after {vd.periods_simulated} periods")


def test_criterion_03_a_word_accepted(fixtures):
    a = fixtures["lang_a_omega"]
    last = run_prefix(a, "a" * 40)[-1]
    acc_err = abs(last.acc - 0.75)
    rej_err = abs(last.rej - 0.25)
    assert acc_err <= 1e-9
    assert rej_err <= 1e-9
    vd = run_lasso(a, LassoWord("", "a"), 0.6)
    assert vd.status is Status.ACCEPTED
    print(f"criterion 3: PASS - acc err {acc_err:.2e}, rej err {rej_err:.2e}, "
          f"accepted at 0.6 with acc_lower {vd.acc_lower:.6f}")


def test_criterion_04_pure_accepting_cycles(fixtures):
    cases = [
        ("lang_ab_cycle", "ab", 0.5),
        ("lang_inf_a", "a", 1.0),
        ("lang_aab_cycle", "aab", 0.5),
    ]
    gaps = []
    for name, cycle, p in cases:
        a = fixtures[name]
        trace = run_prefix(a, cycle * 200)
        assert trace[-1].acc >= 1.0 - 1e-6
        assert all(r.rej == 0.0 for r in trace)
        vd = run_lasso(a, LassoWord("", cycle), p)
        assert vd.status is Status.ACCEPTED, (name, vd.reason)
        gaps.append(1.0 - trace[-1].acc)
    print("criterion 4: PASS - 1-acc after 200 periods: "
          + ", ".join(f"{n} {g:.1e}" for (n, _, _), g in zip(cases, gaps)))


def test_criterion_05_single_visit_is_not_buchi(fixtures):
    a = fixtures["swap_halt_once"]
    trace = run_prefix(a, "a" * 30)
    assert trace[0].acc == 1.0
    assert trace[0].alpha == 1.0
    visits = sum(1 for r in trace if r.alpha > 0.0)
    assert visits == 1
    for horizon in range(2, 31):
        rep = check_acceptance_clauses(trace[:horizon], 0.9)
        assert rep.buchi == CLAUSE_REFUTED
        assert rep.buchi_visits == 1
    print("criterion 5: PASS - acc hits 1.0 at step 1 with a single visit; "
          "buchi clause refuted at horizons 2..30")


def test_criterion_06_randomized_invariants(fixtures):
    rng = np.random.default_rng(104729)
    automata = [fixtures[name] for name in FIXTURE_NAMES]
    for a in automata:
        partition = (
            SubspaceBasis.from_indices(sorted(a.accepting), a.dim).projector()
            + SubspaceBasis.from_indices(sorted(a.rejecting), a.dim).projector()
            + SubspaceBasis.from_indices(sorted(a.nonhalting), a.dim).projector()
        )
        assert np.abs(partition - np.eye(a.dim)).max() <= 1e-12
    t0 = time.perf_counter()
    worst = 0.0
    cases = 10_000
    for i in range(cases):
        a = automata[i % len(automata)]
        symbols = a.alphabet
        length = int(rng.integers(1, 26))
        word = "".join(symbols[k] for k in rng.integers(0, len(symbols), length))
        prev_acc = prev_rej = 0.0
        for rec in run_prefix(a, word):
            worst = max(worst, abs(1.0 - rec.acc - rec.rej - rec.nonhalt_norm_sq))
            assert rec.acc >= prev_acc
            assert rec.rej >= prev_rej
            prev_acc, prev_rej = rec.acc, rec.rej
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(f"criterion 6: PASS - {cases} random words, worst norm defect "
          f"{worst:.2e}, {elapsed:.1f} s")


def test_criterion_07_decomposition_suite(fixtures):
    expected = {
        "lang_a_prefix": (0, 1),
        "lang_a_omega": (0, 1),
        "lang_ab_cycle": (0, 2),
        "lang_inf_a": (0, 2),
        "lang_aab_cycle": (0, 3),
        "no_entry": (2, 0),
        "swap_halt_once": (0, 1),
        "reject_all": (1, 0),
        "finite_ab": (0, 7),
    }
    for name, dims in expected.items():
        d = decompose_nonhalting(fixtures[name])
        assert (d.s1.dim, d.s2.dim) == dims, name
    # the identity automaton keeps its whole non-halting space in s1
    reject_all = fixtures["reject_all"]
    assert decompose_nonhalting(reject_all).s1.dim == len(reject_all.nonhalting)

    worst_halt = 0.0
    worst_mix = 0.0
    for a in (fixtures["no_entry"], two_block_automaton()):
        rep = verify_decomposition(
            a, decompose_nonhalting(a), word_len=500, trials=100, seed=17
        )
        assert rep.s1_trials == 100
        worst_halt = max(worst_halt, rep.s1_max_cumulative_halting)
        worst_mix = max(worst_mix, rep.mixed_max_increment_deviation)
    assert worst_halt <= 1e-9
    assert worst_mix <= 1e-9
    print(f"criterion 7: PASS - dims match on all {len(expected)} fixtures; "
          f"s1 halting <= {worst_halt:.2e}, increment split deviation "
          f"<= {worst_mix:.2e} over 100 runs of length 500")


def test_criterion_08_no_entry_residuals(fixtures):
    fixture_report = no_entry_check(
        fixtures["no_entry"], SubspaceBasis.from_indices([0, 2], 3), "a"
    )
    assert fixture_report.max_residual <= 1e-10
    rng = np.random.default_rng(8191)
    worst = fixture_report.max_residual
    for _ in range(100):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        n = k + m
        u = np.zeros((n, n), dtype=complex)
        u[:k, :k] = haar_unitary(rng, k)
        u[k:, k:] = haar_unitary(rng, m)
        perm = rng.permutation(n)
        u = u[np.ix_(perm, perm)]
        inside = [int(np.where(perm == i)[0][0]) for i in range(k)]
        a = make_automaton({"a": u}, accepting=[], rejecting=[])
        rep = no_entry_check(a, SubspaceBasis.from_indices(inside, n), "a")
        worst = max(worst, rep.max_residual)
    assert worst <= 1e-10
    print(f"criterion 8: PASS - max no-entry residual {worst:.2e} over the "
          f"3-state fixture and 100 random block unitaries")


def test_criterion_09_union_construction(fixtures):
    product = union(fixtures["lang_a_prefix"], fixtures["lang_a_omega"])
    assert validate(product) == []
    worst = 0.0
    for sym in product.alphabet:
        r1 = run_prefix(fixtures["lang_a_prefix"], sym)[0]
        r2 = run_prefix(fixtures["lang_a_omega"], sym)[0]
        ru = run_prefix(product, sym)[0]
        worst = max(worst, abs(ru.alpha - (r1.alpha + r2.alpha - r1.alpha * r2.alpha)))
    assert worst <= 1e-12

    empty = fixtures["reject_all"]
    for name, word, p in POSITIVE_CASES:
        a = fixtures[name]
        assert run_lasso(a, word, p).status is Status.ACCEPTED, name
        assert run_lasso(union(a, empty), word, p).status is Status.ACCEPTED, name
        other = fixtures[PAIRED_AUTOMATON[name]]
        assert run_lasso(union(a, other), word, p).status is Status.ACCEPTED, name
    print(f"criterion 9: PASS - product validates, step-1 increment identity "
          f"off by {worst:.2e}, all {len(POSITIVE_CASES)} positives stay "
          f"accepted under both unions")


def test_criterion_10_emptiness_search(fixtures):
    t0 = time.perf_counter()
    found = check_emptiness(fixtures["lang_a_prefix"], 0.8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert found.status is SearchStatus.NONEMPTY
    assert found.rounds_completed <= 6
    assert check_emptiness(fixtures["lang_a_prefix"], 0.8) == found
    word, verdict = found.witness

    recheck = run_lasso(
        fixtures["lang_a_prefix"], word, 0.8,
        max_periods=4 * 2 ** found.rounds_completed,
    )
    assert recheck.status is Status.ACCEPTED

    empty = check_emptiness(fixtures["reject_all"], 0.8)
    assert empty.status is SearchStatus.INCONCLUSIVE
    assert empty.rounds_completed == 6
    print(f"criterion 10: PASS - witness {word.prefix!r},{word.cycle!r} in "
          f"{elapsed:.2f} s, reproducible, survives 4x re-check; empty "
          f"automaton inconclusive after {empty.rounds_completed} rounds")


def test_criterion_11_step_cost_scaling(fixtures):
    # each level is timed as the fastest of three calls, so that a burst of
    # load on the host slows no level on its own
    reps = [benchmark_step_cost(fixtures["lang_a_omega"], [10_000, 10_000, 10_000])
            for _ in range(3)]
    assert all(rep.dims == (3, 9, 27) for rep in reps)
    per_symbol = np.min([rep.per_symbol_seconds for rep in reps], axis=0)
    exponent = float(np.polyfit(np.log(reps[0].dims), np.log(per_symbol), 1)[0])
    assert 1.5 <= exponent <= 2.8
    times = ", ".join(f"{t * 1e6:.1f}" for t in per_symbol)
    print(f"criterion 11: PASS - per-symbol us across dims 3/9/27: {times}; "
          f"exponent {exponent:.2f}")
