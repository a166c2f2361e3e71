import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbuchi.semantics import (
    CERTIFIED,
    CLAUSE_CERTIFIED,
    CLAUSE_POSSIBLE,
    CLAUSE_REFUTED,
    CSV_HEADER,
    DEFAULT_MAX_PERIODS,
    DEFAULT_VISIT_EPS,
    LITERAL,
    LassoWord,
    Status,
    StepRecord,
    Trace,
    check_acceptance_clauses,
    initial_state,
    run_lasso,
    run_mmqfa,
    run_prefix,
    step,
    trace_to_csv,
    trace_to_json,
)

from conftest import (
    acc_then_rej_automaton,
    make_automaton,
    rotation_leak_automaton,
    two_block_automaton,
)

WORDS = st.text(alphabet="ab", min_size=1, max_size=40)


def test_lasso_word_validation():
    w = LassoWord("ab", "ba")
    assert w.expand(3).startswith("abbab")
    with pytest.raises(ValueError):
        LassoWord("a", "")


def test_initial_state_and_step(fixtures):
    a = fixtures["lang_a_prefix"]
    ts = initial_state(a)
    assert ts.nonhalt_norm_sq == pytest.approx(1.0)
    nxt, rec = step(a, ts, "a")
    assert nxt.step_index == 1
    # one 'a' sends 2/3 of the mass to the accepting axis
    assert nxt.cumulative[1] == pytest.approx(2.0 / 3.0)
    assert nxt.nonhalt_norm_sq == pytest.approx(1.0 / 3.0)
    assert nxt.halting_total == pytest.approx(2.0 / 3.0)
    assert rec.j == 1 and rec.symbol == "a"
    assert rec.alpha == pytest.approx(2.0 / 3.0)
    with pytest.raises(KeyError):
        step(a, ts, "z")


def test_prefix_trace_closed_form(fixtures):
    # three a's leak 2/3, 2/9, 2/27 onto the accepting axis
    tr = run_prefix(fixtures["lang_a_prefix"], "aaa")
    assert len(tr) == 3
    expected_alpha = [2.0 / 3.0, 2.0 / 9.0, 2.0 / 27.0]
    for rec, want in zip(tr, expected_alpha):
        assert rec.alpha == pytest.approx(want, abs=1e-15)
        assert rec.rho == 0.0
    assert tr[-1].acc == pytest.approx(26.0 / 27.0, abs=1e-15)
    assert tr[-1].nonhalt_norm_sq == pytest.approx(1.0 / 27.0, abs=1e-15)
    assert [rec.j for rec in tr] == [1, 2, 3]


def test_prefix_trace_b_word_limits(fixtures):
    # criterion oracle: acc and rej of b^omega both tend to 1/2
    tr = run_prefix(fixtures["lang_a_prefix"], "b" * 40)
    assert tr[-1].acc == pytest.approx(0.5, abs=1e-9)
    assert tr[-1].rej == pytest.approx(0.5, abs=1e-9)
    alphas = [rec.alpha for rec in tr]
    # geometric with ratio 1/9: alpha_{k+1} = alpha_k / 9
    for k in range(6):
        assert alphas[k + 1] == pytest.approx(alphas[k] / 9.0, rel=1e-12)


def test_aab_cycle_increment_schedule(fixtures):
    # halting mass appears only at steps 3, 6, 9, ... shrinking by 16/25
    tr = run_prefix(fixtures["lang_aab_cycle"], "aab" * 5)
    for k, rec in enumerate(tr, start=1):
        if k % 3 == 0:
            want = (9.0 / 25.0) * (16.0 / 25.0) ** (k // 3 - 1)
            assert rec.alpha == pytest.approx(want, rel=1e-12)
        else:
            assert rec.alpha == 0.0
        assert rec.rho == 0.0


def test_inf_a_increment_schedule(fixtures):
    tr = run_prefix(fixtures["lang_inf_a"], "ab" * 10)
    for m in range(5):
        rec = tr[4 * m]  # steps 1, 5, 9, ...
        assert rec.alpha == pytest.approx(0.25 * 0.75 ** m, rel=1e-12)
    assert all(tr[j].alpha == 0.0 for j in (1, 2, 3, 5, 6, 7))
    assert tr[-1].rej == 0.0


def test_run_lasso_accepts_a_prefix(fixtures):
    vd = run_lasso(fixtures["lang_a_prefix"], LassoWord("aaa", "b"), 0.8)
    assert vd.status is Status.ACCEPTED
    assert vd.reason == "all-clauses-certified"
    assert vd.acc_lower == pytest.approx(53.0 / 54.0, abs=1e-9)
    assert vd.rej_lower == pytest.approx(1.0 / 54.0, abs=1e-9)
    assert vd.rej_upper == pytest.approx(1.0 / 54.0, abs=1e-9)
    assert vd.mode == CERTIFIED
    assert vd.trace is None


def test_run_lasso_accepts_a_omega(fixtures):
    vd = run_lasso(fixtures["lang_a_omega"], LassoWord("", "a"), 0.6)
    assert vd.status is Status.ACCEPTED
    assert vd.acc_lower == pytest.approx(0.75, abs=1e-9)
    assert vd.rej_lower == pytest.approx(0.25, abs=1e-9)


def test_run_lasso_accepts_at_cutpoint_one(fixtures):
    vd = run_lasso(fixtures["lang_inf_a"], LassoWord("", "ab"), 1.0)
    assert vd.status is Status.ACCEPTED
    assert vd.acc_lower >= 1.0 - 1e-9
    assert vd.rej_lower == 0.0
    # visits stop counting once the increments drop below visit_eps, but
    # plenty accumulate before the acceptance threshold is reached
    assert vd.visit_count >= 50


def test_run_lasso_rejects_wrong_prefix(fixtures):
    vd = run_lasso(fixtures["lang_a_prefix"], LassoWord("b", "a"), 0.8)
    assert vd.status is Status.REJECTED
    assert vd.reason == "acc-limit-refuted"
    assert vd.periods_simulated == 0  # refuted inside the prefix
    # bound at refutation time: acc can never exceed acc + tail = 5/9
    assert vd.acc_lower + (vd.rej_upper - vd.rej_lower) == pytest.approx(5.0 / 9.0)


def test_run_lasso_rejects_by_rejecting_mass(fixtures):
    vd = run_lasso(fixtures["lang_ab_cycle"], LassoWord("", "ba"), 0.5)
    assert vd.status is Status.REJECTED
    assert vd.reason == "rej-limit-refuted"
    assert vd.rej_lower == 1.0
    assert vd.visit_count == 0


def test_run_lasso_rejects_halted_below(fixtures):
    # 'a' then b^omega on the swap automaton parks everything on q0 after
    # the first swap back; build the halting variant directly instead
    r = 1.0 / np.sqrt(2.0)
    v = np.array([[r, -r], [r, r]])
    a = make_automaton({"a": v}, accepting=[], rejecting=[1])
    vd = run_lasso(a, LassoWord("", "a"), 0.9, max_periods=400)
    assert vd.status is Status.REJECTED
    # everything eventually drains into the rejecting state
    assert vd.reason in ("rej-limit-refuted", "halted-below-cutpoint", "buchi-refuted")


@pytest.mark.parametrize("prefix", ["ab", "abbb"])
@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
def test_prefix_is_simulated_to_its_end_after_the_run_halts(fixtures, prefix, mode):
    # visit_eps 0.5 counts the run as halted after 'a' (acc 0.6, 0.2 not
    # halted); 'b' then sends that 0.2 to the rejecting state, so the
    # accepting limit is 0.6 < 0.7. Applying the cycle to the state after
    # 'a' instead of after the whole prefix would report acc_lower 0.72
    a = fixtures["lang_a_omega"]
    vd = run_lasso(a, LassoWord(prefix, "a"), 0.7, visit_eps=0.5, max_periods=8, mode=mode)
    assert (vd.status, vd.reason) == (Status.REJECTED, "halted-below-cutpoint")
    assert vd.acc_lower == pytest.approx(0.6)
    assert vd.rej_upper == pytest.approx(0.4)


def test_run_lasso_buchi_refuted_without_accepting_states(fixtures):
    vd = run_lasso(fixtures["no_entry"], LassoWord("", "a"), 0.5)
    assert vd.status is Status.REJECTED
    assert vd.reason == "buchi-refuted"
    assert vd.visit_count == 0
    assert vd.periods_simulated == 0


def test_run_lasso_buchi_refuted_on_fixed_point(fixtures):
    vd = run_lasso(fixtures["swap_halt_once"], LassoWord("", "b"), 0.5)
    assert vd.status is Status.REJECTED
    assert vd.reason == "buchi-refuted"
    assert vd.periods_simulated == 1


def test_run_lasso_swap_accepts_with_single_visit(fixtures):
    vd = run_lasso(fixtures["swap_halt_once"], LassoWord("", "a"), 1.0)
    assert vd.status is Status.ACCEPTED
    assert vd.visit_count == 1
    assert vd.periods_simulated == 1
    assert vd.acc_lower == 1.0


def test_run_lasso_accepts_after_prefix_halt(fixtures):
    vd = run_lasso(fixtures["swap_halt_once"], LassoWord("a", "b"), 1.0)
    assert vd.status is Status.ACCEPTED
    assert vd.visit_count == 1
    assert vd.periods_simulated == 1


def test_run_lasso_accepted_before_fixed_point():
    # prefix pushes 3/4 of the mass onto the accepting axis, the cycle is
    # the identity; acceptance must win over the fixed-point refutation
    r = 1.0 / np.sqrt(2.0)
    v = np.array([[r, -r, 0.0], [r, r, 0.0], [0.0, 0.0, 1.0]])
    a = make_automaton({"a": v, "b": np.eye(3)}, accepting=[1], rejecting=[2])
    vd = run_lasso(a, LassoWord("aa", "b"), 0.4)
    assert vd.status is Status.ACCEPTED
    assert vd.periods_simulated == 1
    assert vd.visit_count == 2


def test_run_lasso_inconclusive_on_rotation():
    vd = run_lasso(two_block_automaton(), LassoWord("", "a"), 0.9, max_periods=50)
    assert vd.status is Status.INCONCLUSIVE
    assert vd.reason == "budget-exhausted"
    assert vd.periods_simulated == 50
    assert vd.visit_count == 0


def test_literal_mode_returns_at_first_success(fixtures):
    cert = run_lasso(fixtures["lang_ab_cycle"], LassoWord("", "ab"), 0.6)
    lit = run_lasso(fixtures["lang_ab_cycle"], LassoWord("", "ab"), 0.6, mode=LITERAL)
    assert cert.status is Status.ACCEPTED and lit.status is Status.ACCEPTED
    assert lit.periods_simulated < cert.periods_simulated
    assert lit.mode == LITERAL
    assert lit.acc_lower <= cert.acc_lower


def test_literal_mode_can_overshoot_the_rejection_clause():
    a = acc_then_rej_automaton()
    w = LassoWord("", "a")
    # acc hits 1/2 >= p at step 1 while half the mass is still in flight;
    # literal mode accepts on rej < p right there, certified mode cannot
    # exclude the pending rejection and sees it land one step later
    lit = run_lasso(a, w, 0.4, mode=LITERAL)
    cert = run_lasso(a, w, 0.4)
    assert lit.status is Status.ACCEPTED
    assert lit.periods_simulated == 1
    assert cert.status is Status.REJECTED
    assert cert.reason == "rej-limit-refuted"
    assert cert.rej_lower == pytest.approx(0.5)


def test_run_lasso_validation_errors(fixtures):
    a = fixtures["lang_a_prefix"]
    w = LassoWord("", "a")
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.0)
    with pytest.raises(ValueError):
        run_lasso(a, w, 1.5)
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.8, mode="fast")
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.8, max_periods=0)
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.8, epsilon=-1e-9)
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.8, beta=0.0)
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.8, beta=1.1)
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.8, visit_eps=0.0)
    for epsilon in (0.8, 1.0):
        with pytest.raises(ValueError, match="must lie below the cutpoint"):
            run_lasso(a, w, 0.8, epsilon=epsilon)
    with pytest.raises(ValueError):
        run_lasso(a, LassoWord("", "az"), 0.8)


@pytest.mark.parametrize("name", ["epsilon", "beta", "visit_eps"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_lasso_rejects_non_finite_test_params(fixtures, name, bad):
    # NaN fails every comparison, so a rule written as "reject if x < 0"
    # would let it through
    with pytest.raises(ValueError, match=name):
        run_lasso(fixtures["lang_a_omega"], LassoWord("", "a"), 0.8,
                  max_periods=8, **{name: bad})


def test_verdict_to_dict_keys(fixtures):
    vd = run_lasso(fixtures["lang_a_omega"], LassoWord("", "a"), 0.6)
    d = vd.to_dict()
    assert d["status"] == "ACCEPTED"
    assert set(d) == {
        "status",
        "acc_lower",
        "rej_lower",
        "rej_upper",
        "visit_count",
        "periods_simulated",
        "reason",
        "beta",
        "epsilon",
        "mode",
    }


def test_trace_attached_only_on_request(fixtures):
    a = fixtures["lang_a_omega"]
    w = LassoWord("", "a")
    assert run_lasso(a, w, 0.6).trace is None
    vd = run_lasso(a, w, 0.6, max_periods=5, record_trace=True)
    assert vd.trace is not None
    assert len(vd.trace) == 5
    assert [r.j for r in vd.trace] == [1, 2, 3, 4, 5]


def test_lasso_trace_prefix_agrees_with_run_prefix(fixtures):
    a = fixtures["lang_a_prefix"]
    vd = run_lasso(a, LassoWord("aab", "b"), 0.8, max_periods=4, record_trace=True)
    tr = run_prefix(a, "aab")
    for lhs, rhs in zip(vd.trace[:3], tr):
        assert lhs == rhs


def test_trace_formats(fixtures):
    tr = run_prefix(fixtures["lang_a_omega"], "aa")
    csv_text = trace_to_csv(tr)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "j,symbol,alpha,rho,acc,rej,nonhalt_norm_sq"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "a"
    # 17 significant digits survive the float round-trip exactly
    assert float(first[2]) == tr[0].alpha

    rows = json.loads(trace_to_json(tr))
    assert [row["j"] for row in rows] == [1, 2]
    assert rows[0]["alpha"] == tr[0].alpha
    assert rows[1]["acc"] == tr[1].acc
    assert trace_to_json(Trace(records=(), final=None)) == "[]\n"


def test_run_mmqfa_membership(fixtures):
    fa = fixtures["finite_ab"]
    acc, rej = run_mmqfa(fa, "ab")
    assert (acc, rej) == (1.0, 0.0)
    for w in ("", "a", "b", "ba", "aa", "abb"):
        acc, rej = run_mmqfa(fa, w)
        assert (acc, rej) == (0.0, 1.0)


def test_run_mmqfa_requires_terminal(fixtures):
    with pytest.raises(TypeError):
        run_mmqfa(fixtures["lang_a_prefix"], "ab")
    with pytest.raises(ValueError):
        run_mmqfa(fixtures["finite_ab"], "az")


def test_check_acceptance_clauses_positive(fixtures):
    vd = run_lasso(
        fixtures["lang_a_omega"], LassoWord("", "a"), 0.6, max_periods=30,
        record_trace=True,
    )
    rep = check_acceptance_clauses(vd.trace, 0.6)
    assert rep.buchi == CLAUSE_POSSIBLE
    assert rep.acc_limit == CLAUSE_CERTIFIED
    assert rep.rej_limit == CLAUSE_CERTIFIED
    assert rep.buchi_visits == vd.visit_count
    assert set(rep.to_dict()) == {"buchi_visits", "buchi", "acc_limit", "rej_limit"}


def test_check_acceptance_clauses_swap(fixtures):
    # acceptance happens at step 1; every later horizon shows the Buchi
    # clause refuted because the non-halting mass is gone
    tr = run_prefix(fixtures["swap_halt_once"], "ab" * 4)
    assert tr[0].alpha == 1.0
    for horizon in range(1, len(tr) + 1):
        rep = check_acceptance_clauses(tr.records[:horizon], 1.0)
        assert rep.buchi == CLAUSE_REFUTED
        assert rep.buchi_visits == 1
        assert rep.acc_limit == CLAUSE_CERTIFIED


def test_check_acceptance_clauses_refutations(fixtures):
    tr = run_prefix(fixtures["lang_a_omega"], "b")
    rep = check_acceptance_clauses(tr, 0.6)
    assert rep.rej_limit == CLAUSE_REFUTED
    assert rep.acc_limit == CLAUSE_REFUTED

    tr = run_prefix(two_block_automaton(), "aaaa")
    rep = check_acceptance_clauses(tr, 0.9)
    assert rep.buchi == CLAUSE_POSSIBLE
    assert rep.acc_limit == CLAUSE_POSSIBLE
    assert rep.rej_limit == CLAUSE_POSSIBLE

    with pytest.raises(ValueError):
        check_acceptance_clauses((), 0.5)


@pytest.mark.parametrize("p", [math.nan, -1.0, 0.0, 5.0])
def test_check_acceptance_clauses_checks_the_cutpoint(fixtures, p):
    # unchecked, NaN reports every clause possible and p < 0 or p > 1
    # certifies one limit clause while refuting the other
    tr = run_prefix(fixtures["lang_a_omega"], "aaaa")
    with pytest.raises(ValueError, match="cutpoint"):
        check_acceptance_clauses(tr, p)


def test_certified_rejections_are_stable_under_budget(fixtures):
    cases = [
        ("lang_a_prefix", LassoWord("b", "a"), 0.8),
        ("lang_ab_cycle", LassoWord("", "ba"), 0.5),
        ("swap_halt_once", LassoWord("", "b"), 0.5),
    ]
    for name, w, p in cases:
        small = run_lasso(fixtures[name], w, p, max_periods=2)
        big = run_lasso(fixtures[name], w, p, max_periods=256)
        assert small.status is Status.REJECTED
        assert big.status is Status.REJECTED
        assert small.reason == big.reason


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
def test_spellings_of_one_word_never_contradict(mode):
    # every lasso below denotes a^omega, which is accepted at 0.8. ("", "a")
    # sees one accepting visit every three periods, below beta, and its
    # non-halting mass is gone by period 432 without an acceptance; no
    # further visit can come, but REJECTED there would contradict the
    # ACCEPTED certificates of ("", "aa") and ("", "aaa") for the same word
    a = rotation_leak_automaton()
    verdicts = {
        (u, v): run_lasso(a, LassoWord(u, v), 0.8, mode=mode)
        for u in ("", "a", "aa") for v in ("a", "aa", "aaa")
    }
    single = verdicts[("", "a")]
    assert single.periods_simulated == 432
    assert single.rej_upper - single.rej_lower <= DEFAULT_VISIT_EPS ** 2
    statuses = {v.status for v in verdicts.values()}
    assert Status.ACCEPTED in statuses
    assert Status.REJECTED not in statuses


def test_default_budget_constant():
    assert DEFAULT_MAX_PERIODS == 1024


@settings(deadline=None, max_examples=150)
@given(word=WORDS, name=st.sampled_from(["lang_a_prefix", "lang_aab_cycle", "finite_ab"]))
def test_norm_conservation_along_random_words(fixtures, word, name):
    tr = run_prefix(fixtures[name], word)
    prev_acc = prev_rej = 0.0
    for rec in tr:
        total = rec.acc + rec.rej + rec.nonhalt_norm_sq
        assert math.isclose(total, 1.0, abs_tol=1e-9)
        assert rec.acc >= prev_acc - 1e-15
        assert rec.rej >= prev_rej - 1e-15
        assert rec.alpha >= 0.0 and rec.rho >= 0.0
        prev_acc, prev_rej = rec.acc, rec.rej


@settings(deadline=None, max_examples=60)
@given(word=WORDS)
def test_simulation_is_deterministic(fixtures, word):
    a = fixtures["lang_ab_cycle"]
    t1 = run_prefix(a, word)
    t2 = run_prefix(a, word)
    assert t1.records == t2.records
