import csv
import dataclasses
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbuchi import semantics
from qbuchi.automata import END_MARKER, TERMINAL, _Kernel
from qbuchi.constructions import finite_language_mmqfa
from qbuchi.emptiness import reference_run
from qbuchi.semantics import (
    CERTIFIED,
    CLAUSE_CERTIFIED,
    CLAUSE_POSSIBLE,
    CLAUSE_REFUTED,
    CSV_HEADER,
    DEFAULT_EPSILON,
    DEFAULT_MAX_PERIODS,
    DEFAULT_VISIT_EPS,
    LITERAL,
    REASON_BUCHI_REFUTED,
    REASON_REJ_REFUTED,
    LassoWord,
    Status,
    StepRecord,
    Verdict,
    check_acceptance_clauses,
    run_lasso,
    run_mmqfa,
    run_prefix,
    trace_to_csv,
    _json_text,
    _norm_sq,
    trace_to_json,
)

from conftest import (
    acc_then_rej_automaton,
    accepted_fixed_point_automaton,
    chain_halt_automaton,
    chain_unitary,
    counted_applies,
    draining_half_automaton,
    fixed_point_automaton,
    haar_unitary,
    make_automaton,
    marker_split_automaton,
    rotation_leak_automaton,
    two_block_automaton,
)

WORDS = st.text(alphabet="ab", min_size=1, max_size=40)


def test_lasso_word_validation():
    w = LassoWord("ab", "ba")
    assert w.expand(3).startswith("abbab")
    with pytest.raises(ValueError):
        LassoWord("a", "")
    # run_lasso would fail later on prefix + cycle with a TypeError
    for prefix, cycle in ((None, "a"), ("a", None), (b"a", "a")):
        with pytest.raises(ValueError, match="lasso prefix and cycle must be strings"):
            LassoWord(prefix, cycle)


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
    # visits stop counting once the increments drop below DEFAULT_VISIT_EPS, but
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
def test_prefix_is_simulated_to_its_end_after_the_run_halts(prefix, mode):
    # the end marker halts all mass, 0.6 of it accepting, so every run has
    # halted before its first symbol. At p 0.55 the accepting limit 0.6
    # reaches p: nothing refutes it, the whole prefix is stepped and
    # recorded, and the cycle's first step ends the run. At p 0.7 the
    # first step refutes it, and only there is the run halted below p
    a = marker_split_automaton()
    w = LassoWord(prefix, "a")
    reached = run_lasso(a, w, 0.55, max_periods=8, mode=mode, record_trace=True)
    assert (reached.status, reached.reason) == (Status.INCONCLUSIVE, "budget-exhausted")
    assert "".join(r.symbol for r in reached.trace) == prefix + "a"
    assert [r.j for r in reached.trace] == list(range(1, len(prefix) + 2))
    assert reached.acc_lower + reached.rej_upper - reached.rej_lower >= 0.55 - reached.epsilon
    below = run_lasso(a, w, 0.7, max_periods=8, mode=mode, record_trace=True)
    assert (below.status, below.reason) == (Status.REJECTED, "halted-below-cutpoint")
    assert len(below.trace) == 1 and below.periods_simulated == 0
    last = below.trace[-1]
    assert last.nonhalt_norm_sq == 0.0
    assert last.acc + last.nonhalt_norm_sq < 0.7 - below.epsilon
    assert below.acc_lower == pytest.approx(0.6)
    assert below.rej_upper == pytest.approx(0.4)


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: clause (i) is the heuristic visits >= beta * k, "
                          "so one accepting visit before the run halts is ACCEPTED")
def test_run_lasso_refutes_a_single_visit(fixtures):
    # the only visit is the first step, after which no mass is left to
    # visit again: the infinitely-often clause is refuted
    vd = run_lasso(fixtures["swap_halt_once"], LassoWord("", "a"), 1.0)
    assert vd.status is Status.REJECTED


def test_run_lasso_accepts_after_prefix_halt(fixtures):
    vd = run_lasso(fixtures["swap_halt_once"], LassoWord("a", "b"), 1.0)
    assert vd.status is Status.ACCEPTED
    assert vd.visit_count == 1
    assert vd.periods_simulated == 1


def test_run_lasso_accepted_before_fixed_point():
    # prefix pushes 3/4 of the mass onto the accepting axis, the cycle is
    # the identity; acceptance must win over the fixed-point refutation
    vd = run_lasso(accepted_fixed_point_automaton(), LassoWord("aa", "b"), 0.4)
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
    # float() reads True as 1 and "0.8" as 0.8, yet neither is a number, and
    # it refuses None with a TypeError
    for bad in (True, "0.8", b"0.8", None):
        with pytest.raises(ValueError, match=r"cutpoint must lie in \(0, 1\]"):
            run_lasso(a, w, bad)
    with pytest.raises(ValueError):
        run_lasso(a, w, 0.8, mode="fast")
    # a count goes through operator.index, so no float passes, not even
    # one that range() would refuse only later with a TypeError; True is
    # 1 to operator.index, but no count
    for bad in (0, math.nan, math.inf, 2.5, True):
        with pytest.raises(ValueError, match="max_periods must be an integer of at least 1"):
            run_lasso(a, w, 0.8, max_periods=bad)
    # at or below the fixed slack, acc >= p - DEFAULT_EPSILON holds for every word
    for p in (DEFAULT_EPSILON, 1e-10):
        with pytest.raises(ValueError, match="cutpoint must exceed epsilon 1e-09"):
            run_lasso(a, w, p)
    with pytest.raises(ValueError):
        run_lasso(a, LassoWord("", "az"), 0.8)


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
    assert trace_to_json(()) == "[]\n"


@pytest.mark.parametrize("symbol", [",", '"', "\n"], ids=["comma", "quote", "newline"])
def test_csv_trace_quotes_a_symbol_that_csv_would_split(symbol):
    # validate accepts any single unreserved character as a symbol; the
    # trace quotes the ones that would break a row, per RFC 4180
    a = make_automaton({symbol: np.eye(2)}, accepting=[1], rejecting=[])
    tr = run_prefix(a, symbol * 2)
    rows = list(csv.reader(io.StringIO(trace_to_csv(tr))))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert [row[1] for row in rows[1:]] == [symbol, symbol]
    assert float(rows[2][6]) == tr[1].nonhalt_norm_sq


# The writer before float arrays were filled into one template: one call
# per value, the reference for _json_text.
def _recursive_json_text(obj):
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_recursive_json_text(x) for x in obj) + "]"
    parts = [f"{json.dumps(k)}: {_recursive_json_text(v)}" for k, v in sorted(obj.items())]
    return "{" + ", ".join(parts) + "}"


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    obj=st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=2), inner, max_size=3),
        max_leaves=12,
    ),
)
def test_json_text_matches_the_recursive_writer(obj):
    assert _json_text(obj) == _recursive_json_text(obj)


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 0), (1, 1), (4, 3, 2), (2, 3, 1, 2)])
def test_json_text_matches_the_recursive_writer_on_float_arrays(shape):
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    arrays = [values]
    # a non-finite value sends the array down the element path
    for odd in (np.nan, np.inf, -np.inf, -0.0):
        for index in (0, -1)[:values.size]:
            array = values.copy()
            array.flat[index] = odd
            arrays.append(array)
    for array in arrays:
        assert _json_text(array) == _recursive_json_text(array.tolist())
        # a list takes the element path, whatever its leaves
        assert _json_text(array.tolist()) == _recursive_json_text(array.tolist())


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
    assert {f.name for f in dataclasses.fields(rep)} == {
        "buchi_visits", "buchi", "acc_limit", "rej_limit"}


def test_check_acceptance_clauses_swap(fixtures):
    # acceptance happens at step 1; every later horizon shows the Buchi
    # clause refuted because the non-halting mass is gone
    tr = run_prefix(fixtures["swap_halt_once"], "ab" * 4)
    assert tr[0].alpha == 1.0
    for horizon in range(1, len(tr) + 1):
        rep = check_acceptance_clauses(tr[:horizon], 1.0)
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


@pytest.mark.parametrize("p", [math.nan, -1.0, 0.0, 5.0, None])
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: clause (i) counts visits per simulated period, "
                          "so ('', 'a') on rotation_leak is INCONCLUSIVE after 432 periods "
                          "where ('', 'aa') and ('', 'aaa') are ACCEPTED")
def test_spellings_of_one_word_get_one_verdict():
    # a^omega visits q3 once in every three steps: each spelling is accepted
    a = rotation_leak_automaton()
    verdicts = [run_lasso(a, LassoWord("", v), 0.8) for v in ("a", "aa", "aaa")]
    assert [v.status for v in verdicts] == [Status.ACCEPTED] * 3


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
    assert t1 == t2


def _apply_loop(a, word):
    """Records and sums of '#' + word from a plain _Kernel.apply loop."""
    kernel = _Kernel(a)
    psi = np.zeros(a.dim, dtype=np.complex128)
    psi[a.initial] = 1.0
    acc = rej = 0.0
    records = []
    for j, sym in enumerate(END_MARKER + word):
        psi, alpha, rho = kernel.apply(psi, sym)
        acc += alpha
        rej += rho
        if j:
            records.append(StepRecord(j, sym, alpha, rho, acc, rej, _norm_sq(psi)))
    return tuple(records), acc, rej


def _words(alphabet, max_len):
    for n in range(max_len + 1):
        for letters in itertools.product(sorted(alphabet), repeat=n):
            yield "".join(letters)


def test_finite_word_runs_match_a_plain_step_loop(fixtures):
    rng = np.random.default_rng(2718)
    automata = list(fixtures.values())
    for dim in range(2, 7):
        halting = rng.permutation(dim)[: int(rng.integers(1, dim))]
        n_acc = int(rng.integers(0, len(halting) + 1))
        a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                           accepting=halting[:n_acc].tolist(),
                           rejecting=halting[n_acc:].tolist())
        automata += [a, dataclasses.replace(a, end_marker_unitary=haar_unitary(rng, dim))]
    for a in automata:
        for word in _words(a.alphabet, 5):
            assert run_prefix(a, word) == _apply_loop(a, word)[0]

    mmqfas = [fixtures["finite_ab"],
              finite_language_mmqfa(["ab", "b"], "ab"),
              finite_language_mmqfa(["", "aa", "bab"], "ab")]
    for a in mmqfas:
        for word in _words(a.alphabet, 5):
            assert run_mmqfa(a, word) == _apply_loop(a, word + TERMINAL)[1:]


def _per_period_run(a, u, v, p, mode, n):
    """The verdict dict and trace of u v^omega within n periods, from a
    plain loop over _Kernel.apply with no transition table: the prefix in
    one pass, then one cycle period at a time, each step's certificates
    after it, a break where the run halts, and the exact-fixed-point test
    at each period's end."""
    s = semantics
    kernel = _Kernel(a)
    psi = np.zeros(a.dim, dtype=np.complex128)
    psi[a.initial] = 1.0
    psi, acc, rej = kernel.apply(psi, END_MARKER)
    nh = _norm_sq(psi)
    halted, accepted, visits, records = nh <= s._HALTED_SQ, False, 0, []
    low = p - DEFAULT_EPSILON

    def verdict(status, reason, k):
        return {"status": status.value, "reason": reason, "acc_lower": acc,
                "rej_lower": rej, "rej_upper": rej + nh, "visit_count": visits,
                "periods_simulated": k, "mode": mode, "beta": s.DEFAULT_BETA,
                "epsilon": DEFAULT_EPSILON}, tuple(records)

    if not a.accepting:
        return verdict(Status.REJECTED, s.REASON_BUCHI_REFUTED, 0)
    for k in range(n + 1):
        start = psi, acc, rej
        need = s.DEFAULT_BETA * k if k else math.inf
        for sym in v if k else u:
            psi, alpha, rho = kernel.apply(psi, sym)
            nh = _norm_sq(psi)
            acc += alpha
            rej += rho
            records.append(StepRecord(len(records) + 1, sym, alpha, rho, acc, rej, nh))
            visits += int(alpha > DEFAULT_VISIT_EPS)
            if rej >= p:
                return verdict(Status.REJECTED, REASON_REJ_REFUTED, k)
            if acc + nh < low:
                return verdict(Status.REJECTED, s.REASON_HALTED_BELOW if nh <= s._HALTED_SQ
                               else s.REASON_ACC_REFUTED, k)
            if (not accepted and acc >= low and visits >= need
                    and (rej + nh < p if mode == CERTIFIED else rej < p)):
                accepted = True
                if mode == LITERAL:
                    return verdict(Status.ACCEPTED, s.REASON_CERTIFIED, k)
            if nh <= s._HALTED_SQ:
                halted = True
                if k:
                    break
        if k and halted:
            break
        if k and (acc, rej) == start[1:] and np.array_equal(psi, start[0]):
            if accepted:
                return verdict(Status.ACCEPTED, s.REASON_CERTIFIED, k)
            return verdict(Status.REJECTED, s.REASON_BUCHI_REFUTED, k)
    if accepted:
        return verdict(Status.ACCEPTED, s.REASON_CERTIFIED, k)
    return verdict(Status.INCONCLUSIVE, s.REASON_BUDGET, k)


def _stepped_cases(fixtures):
    """(name, automaton, budgets): every fixture and six automata of
    conftest, at budgets that stay stepped even when doubled, then Haar
    automata at dimensions 3-8 and 16-27, where a budget of at most dim / 2,
    doubled, stays below dim + 1 and so never compiles."""
    cases = [(name, a, (1, 3, 8)) for name, a in sorted(fixtures.items())]
    cases += [(make.__name__, make(), (1, 3, 8)) for make in (
        rotation_leak_automaton, acc_then_rej_automaton, accepted_fixed_point_automaton,
        fixed_point_automaton, chain_halt_automaton, draining_half_automaton)]
    rng = np.random.default_rng(28)
    for dim in (3, 4, 5, 6, 7, 8, 16, 21, 27):
        halting = rng.permutation(range(1, dim))[:int(rng.integers(2, 4))]
        a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                           accepting=halting[1:].tolist(), rejecting=halting[:1].tolist())
        cases.append((f"haar{dim}", a, (1, 2, dim // 2)))
    return cases


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
def test_the_step_loop_matches_a_per_period_loop(fixtures, monkeypatch, mode):
    # advance takes every stepped period of a phase in one call; each verdict
    # and step record must be bit for bit that of a loop of one period at a
    # time, run fresh and resumed in one context under a doubled budget
    monkeypatch.setattr(semantics._LassoContext, "compiled",
                        lambda *_: pytest.fail("a stepped case compiled"))
    seen = set()
    for name, a, budgets in _stepped_cases(fixtures):
        symbols = sorted(a.alphabet)[:2]
        words = [(u, v) for u in _words(symbols, 1) for v in _words(symbols, 2) if v]
        for p, (u, v), n in itertools.product((0.6, 0.9), words, budgets):
            want, trace = _per_period_run(a, u, v, p, mode, n)
            got = run_lasso(a, LassoWord(u, v), p, max_periods=n, mode=mode, record_trace=True)
            assert (repr(got.to_dict()), repr(got.trace)) == (repr(want), repr(trace)), (
                name, u, v, p, n)
            seen.add((got.status, got.reason, got.periods_simulated > 0))
            context = semantics._LassoContext(a, p, mode, [])
            first = context.run_word(LassoWord(u, v), n)
            before = len(context.records)
            again = context.run_word(LassoWord(u, v), 2 * n)
            want, trace = _per_period_run(a, u, v, p, mode, 2 * n)
            assert repr(again.to_dict()) == repr(want), (name, u, v, p, n)
            if first.status is Status.ACCEPTED or len(v) > 1 and a.dim >= 16:
                # run afresh from the prefix, with records numbered on from
                # the first run's
                def steps(records):
                    return repr([vars(r) | {"j": 0} for r in records])
                assert steps(context.records[before:]) == steps(trace[len(u):])
            else:
                # resumed, or answered from the phase table
                assert repr(again.trace) == repr(trace), (name, u, v, p, n)
    assert {reason for _, reason, _ in seen} == {
        semantics.REASON_CERTIFIED, REASON_REJ_REFUTED, semantics.REASON_ACC_REFUTED,
        semantics.REASON_HALTED_BELOW, REASON_BUCHI_REFUTED, semantics.REASON_BUDGET}
    # buchi-refuted after the prefix is an exact fixed point of the cycle map
    assert (Status.REJECTED, REASON_BUCHI_REFUTED, True) in seen


def _stepped_only(monkeypatch):
    monkeypatch.setattr(semantics, "_COMPILED_MIN_DIM", math.inf)


def _assert_same_run(got, want):
    """Compiled against stepped: equal decisions, floats within 1e-12."""
    assert (got.status, got.reason, got.periods_simulated, got.visit_count) == (
        want.status, want.reason, want.periods_simulated, want.visit_count)
    for name in ("acc_lower", "rej_lower", "rej_upper"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0.0, abs=1e-12)
    assert (got.trace is None) == (want.trace is None)
    if got.trace is not None:
        assert len(got.trace) == len(want.trace)
        for r, s in zip(got.trace, want.trace):
            assert (r.j, r.symbol) == (s.j, s.symbol)
            for name in ("alpha", "rho", "acc", "rej", "nonhalt_norm_sq"):
                assert getattr(r, name) == pytest.approx(getattr(s, name), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("dim", [16, 27, 81])
def test_compiled_cycles_match_stepped_runs(monkeypatch, dim):
    rng = np.random.default_rng(dim)
    a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    budget = 2 * dim  # at least dim periods left at period 2
    runs = []
    for p in (0.3, 0.6, 0.9):
        for mode in (CERTIFIED, LITERAL):
            for n in range(1, 5):
                w = LassoWord("".join(rng.choice(["a", "b"], 2)),
                              "".join(rng.choice(["a", "b"], n)))
                for trace in (False, True):
                    runs.append(((a, w, p), dict(max_periods=budget, mode=mode,
                                                 record_trace=trace)))
    built = []
    compile_cycle = semantics._LassoContext.compiled
    monkeypatch.setattr(semantics._LassoContext, "compiled",
                        lambda self, cycle: built.append(cycle) or compile_cycle(self, cycle))
    compiled = [run_lasso(*args, **kw) for args, kw in runs]
    # a cycle of one symbol saves no product a period, so it is not compiled
    assert {len(cycle) for cycle in built} == {2, 3, 4}
    _stepped_only(monkeypatch)
    stepped = [run_lasso(*args, **kw) for args, kw in runs]
    for got, want in zip(compiled, stepped):
        _assert_same_run(got, want)


def test_compiled_run_matches_the_reference_kernel():
    rng = np.random.default_rng(3)
    a = make_automaton({s: haar_unitary(rng, 27) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    w = LassoWord("ba", "abb")
    v = run_lasso(a, w, 0.6, max_periods=28, record_trace=True)
    assert v.periods_simulated > 2
    steps = len(v.trace)
    acc, rej, _ = reference_run(a, w.expand(v.periods_simulated)[:steps])
    assert v.trace[-1].acc == pytest.approx(acc, rel=0.0, abs=1e-9)
    assert v.trace[-1].rej == pytest.approx(rej, rel=0.0, abs=1e-9)


def test_a_period_that_decides_is_the_stepped_period():
    rng = np.random.default_rng(17)
    a = make_automaton({s: haar_unitary(rng, 16) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    events = set()
    for p, mode, cycle in [(0.3, CERTIFIED, "ab"), (0.6, CERTIFIED, "abb"),
                           (0.6, LITERAL, "b"), (0.75, CERTIFIED, "b")]:
        context = semantics._LassoContext(a, p, mode)
        g = context.compiled(cycle)
        run = context.after("")
        for k in range(1, DEFAULT_MAX_PERIODS + 1):
            stepped = context.advance(run, cycle, k - 1, k)[0]
            # one compiled period, stepped again when it is discarded
            new, kept = context.compiled_run(run, cycle, k, g, 1, 1)
            compiled = new if kept else None
            got = compiled if compiled is not None else context.advance(run, cycle, k - 1, k)[0]
            if isinstance(stepped, Verdict):
                events.add(stepped.status)
                assert compiled is None
                assert got == stepped
                break
            if stepped.halted or stepped.accepted != run.accepted:
                events.add("halted" if stepped.halted else "accepted")
                assert compiled is None
                assert got[1:] == stepped[1:]
                assert np.array_equal(got.psi, stepped.psi)
            if stepped.halted:
                break
            run = got
    assert events == {Status.ACCEPTED, Status.REJECTED, "accepted", "halted"}


@pytest.mark.parametrize("theta", [0.1, 0.0])
@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
def test_compiled_period_that_halts_is_stepped_again(monkeypatch, mode, theta):
    # the chain q0..q6 leaks to the rejecting q8..q13 at every step (or,
    # at theta 0, not at all), and all the mass left halts on the
    # accepting q14 at step 7, the first step of period 4: periods 2 and 3
    # are compiled and kept, since they move the state even where they
    # leave both sums unchanged, and period 4 is discarded and stepped again
    a = chain_halt_automaton(theta)
    w = LassoWord("", "aa")
    applies = counted_applies(monkeypatch)
    got = run_lasso(a, w, 0.9, max_periods=20, mode=mode, record_trace=True)
    # the end marker, period 1 and one step of period 4
    assert len(applies) == 1 + 2 + 1
    _stepped_only(monkeypatch)
    want = run_lasso(a, w, 0.9, max_periods=20, mode=mode, record_trace=True)
    assert len(applies) == 4 + 1 + 7
    _assert_same_run(got, want)
    assert (got.periods_simulated, len(got.trace)) == (4, 7)
    assert got.acc_lower == pytest.approx(np.cos(theta) ** 12, abs=1e-12)


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
def test_compiled_fixed_point_is_stepped_again(monkeypatch, mode):
    # the end marker splits q0 between a block q0..q7 that 'a' permutes,
    # so that 'aa' leaves it exactly as it was, and a chain q8..q11 whose
    # mass has all halted at the end of period 2. Period 3 then leaves
    # both sums and the state unchanged, so it is stepped again, and
    # stepping finds the exact fixed point
    a = fixed_point_automaton()
    w = LassoWord("", "aa")
    applies = counted_applies(monkeypatch)
    got = run_lasso(a, w, 0.7, max_periods=20, mode=mode, record_trace=True)
    # the end marker, period 1 and period 3
    assert len(applies) == 1 + 2 + 2
    _stepped_only(monkeypatch)
    want = run_lasso(a, w, 0.7, max_periods=20, mode=mode, record_trace=True)
    assert len(applies) == 5 + 1 + 6
    _assert_same_run(got, want)
    assert (got.status, got.reason, got.periods_simulated) == (
        Status.REJECTED, REASON_BUCHI_REFUTED, 3)


def _compiled_runs(monkeypatch):
    """Record (first period, periods, kept) of every compiled block or
    period that compiled_run keeps or discards; the applications after a
    discarded one are not judged, and not recorded."""
    calls = []
    compiled_run = semantics._LassoContext.compiled_run

    def recorded(self, run, cycle, k, g, periods, count):
        new, kept = compiled_run(self, run, cycle, k, g, periods, count)
        calls.extend((k + i * periods, periods, True) for i in range(kept))
        if kept < count:
            calls.append((k + kept * periods, periods, False))
        return new, kept

    monkeypatch.setattr(semantics._LassoContext, "compiled_run", recorded)
    return calls


@pytest.mark.parametrize("dim", [16, 27, 81])
def test_compiled_blocks_match_periods_and_steps(monkeypatch, dim):
    K = semantics._BLOCK
    rng = np.random.default_rng(dim)
    a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    n = dim // K + 1  # at least dim periods left at period 2
    runs = []
    for mode in (CERTIFIED, LITERAL):
        # every length of the tail of single periods after the last block
        for r in range(K):
            w = LassoWord("".join(rng.choice(["a", "b"], 2)),
                          "".join(rng.choice(["a", "b"], 3)))
            for trace in (False, True):
                runs.append(((a, w, 0.6), dict(max_periods=2 + K * n + r, mode=mode,
                                               record_trace=trace)))
    calls = _compiled_runs(monkeypatch)
    blocked = [run_lasso(*args, **kw) for args, kw in runs]
    assert {(periods, kept) for _, periods, kept in calls} == {
        (K, True), (K, False), (1, True), (1, False)}
    monkeypatch.setattr(semantics, "_BLOCK", 1)
    per_period = [run_lasso(*args, **kw) for args, kw in runs]
    _stepped_only(monkeypatch)
    stepped = [run_lasso(*args, **kw) for args, kw in runs]
    for got, one, want in zip(blocked, per_period, stepped):
        _assert_same_run(got, one)
        _assert_same_run(got, want)


def _stepped_event(a, w, p, mode):
    """The first stepped period that settles or halts the run, sets
    accepted or reaches an exact fixed point, and which of these it does."""
    context = semantics._LassoContext(a, p, mode)
    run = context.after(w.prefix)
    for k in range(1, DEFAULT_MAX_PERIODS + 1):
        run = context.advance(run, w.cycle, k - 1, k)[0]
        if isinstance(run, Verdict):
            # advance settles an exact fixed point itself: buchi-refuted, or
            # ACCEPTED once accepted, the only ACCEPTED of certified mode
            if run.reason == REASON_BUCHI_REFUTED:
                return k, "fixed point"
            if run.status is Status.ACCEPTED and mode == CERTIFIED:
                return k, "accepted"
            return k, run.reason
        if run.halted or run.accepted:
            return k, "halted" if run.halted else "accepted"


def test_a_block_that_decides_is_taken_period_by_period(monkeypatch):
    # each event falls inside the first block, periods 2 to K + 1, which is
    # then discarded: its periods are the per-period path's, bit for bit
    K = semantics._BLOCK
    haar = {}
    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        haar[seed] = {s: haar_unitary(rng, 16) for s in "ab"}
    cases = [
        (make_automaton(haar[3], accepting=[1, 2, 3], rejecting=[4]), "ab", 0.7),
        (chain_halt_automaton(), "aa", 0.9),
        (make_automaton(haar[0], accepting=[1], rejecting=[2, 3]), "ab", 0.5),
        (fixed_point_automaton(), "aa", 0.7),
    ]
    calls = _compiled_runs(monkeypatch)
    events = set()
    for a, cycle, p in cases:
        w = LassoWord("", cycle)
        for mode in (CERTIFIED, LITERAL):
            k, event = _stepped_event(a, w, p, mode)
            assert 2 < k <= K + 1
            events.add(event)
            monkeypatch.setattr(semantics, "_BLOCK", K)
            calls.clear()
            got = run_lasso(a, w, p, max_periods=40, mode=mode, record_trace=True)
            assert calls[0] == (2, K, False)
            monkeypatch.setattr(semantics, "_BLOCK", 1)
            want = run_lasso(a, w, p, max_periods=40, mode=mode, record_trace=True)
            # a run that goes on after the event takes later blocks
            steps = (K + 1) * len(cycle)
            assert got.trace[:steps] == want.trace[:steps]
            if got.periods_simulated <= K + 1:
                assert got == want
            else:
                _assert_same_run(got, want)
    assert {"accepted", "halted", REASON_REJ_REFUTED, "fixed point"} <= events


def test_a_block_takes_the_visit_test_of_its_first_period(monkeypatch):
    # the end marker splits q0 between q0, q1 and a chain q2..q7. 'a' swaps
    # q0 and q1 and turns sin(0.1) of q0 onto the rejecting q14, so every
    # period adds to rej; it moves the chain one state a step, turning some
    # of it onto the accepting q8..q12, and at step 6 onto the accepting
    # q13. Visits then stop at 6, and the literal run accepts at period 3
    # by the visit test of period 3, which the block of periods 2 to 9
    # passes at period 2's need but would fail at period 9's
    u = chain_unitary(16, list(range(2, 8)), list(range(8, 13)), 13)
    c, s = np.cos(0.1), np.sin(0.1)
    u[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    leak = np.eye(16)
    leak[[0, 14, 0, 14], [0, 0, 14, 14]] = [c, s, -s, c]
    marker = np.eye(16)
    r = 1.0 / np.sqrt(2.0)
    marker[[0, 2, 0, 2], [0, 0, 2, 2]] = [r, r, -r, r]
    a = dataclasses.replace(make_automaton({"a": leak @ u}, accepting=range(8, 14),
                                           rejecting=[14]),
                            end_marker_unitary=marker)
    args = (a, LassoWord("", "aa"), 0.45)
    kw = dict(max_periods=40, mode=LITERAL, record_trace=True)
    # at beta 1, period k needs k visits
    monkeypatch.setattr(semantics, "DEFAULT_BETA", 1.0)
    calls = _compiled_runs(monkeypatch)
    got = run_lasso(*args, **kw)
    assert calls[0] == (2, semantics._BLOCK, False)
    _stepped_only(monkeypatch)
    want = run_lasso(*args, **kw)
    _assert_same_run(got, want)
    assert (got.status, got.periods_simulated, got.visit_count) == (Status.ACCEPTED, 3, 6)


def test_compiled_block_is_the_compiled_map_of_its_periods():
    K = semantics._BLOCK
    rng = np.random.default_rng(81)
    a = make_automaton({s: haar_unitary(rng, 81) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    context = semantics._LassoContext(a, 0.6, CERTIFIED)
    for cycle in ("ab", "abb"):
        gk = context.blocked(context.compiled(cycle))
        want = context.compiled(cycle * K)
        assert gk.shape == want.shape
        assert np.abs(gk - want).max() <= 1e-12


def _identity_stepped_map(context, cycle):
    """The compiled map G of one period of cycle, built by stepping 64
    columns of the identity at a time through the cycle."""
    kernel = context.kernel
    dim, h = kernel.a.dim, len(kernel.halt_idx)
    g = np.empty((len(cycle) * h + dim, dim), dtype=np.complex128)
    for c in range(0, dim, 64):
        cols = slice(c, c + 64)
        block = np.eye(dim, min(64, dim - c), -c, dtype=np.complex128)
        for j, sym in enumerate(cycle):
            block, amps = kernel.halting(kernel.a.unitary_for(sym) @ block)
            g[j * h:(j + 1) * h, cols] = amps
        g[len(cycle) * h:, cols] = block
    return g


@pytest.mark.parametrize("dim", [16, 27, 81])
def test_compiled_map_is_the_identity_stepped_through_the_cycle(dim):
    rng = np.random.default_rng(dim)
    a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    context = semantics._LassoContext(a, 0.6, CERTIFIED)
    for cycle in ("a", "ab", "abb", "abab", "bba"):
        assert np.array_equal(context.compiled(cycle), _identity_stepped_map(context, cycle))


def test_blocked_run_matches_the_reference_kernel(monkeypatch):
    rng = np.random.default_rng(5)
    a = make_automaton({s: haar_unitary(rng, 27) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    w = LassoWord("ba", "abb")
    calls = _compiled_runs(monkeypatch)
    v = run_lasso(a, w, 0.6, max_periods=60, record_trace=True)
    assert (semantics._BLOCK, True) in {(periods, kept) for _, periods, kept in calls}
    assert v.periods_simulated == 60
    acc, rej, _ = reference_run(a, w.expand(60))
    assert v.trace[-1].acc == pytest.approx(acc, rel=0.0, abs=1e-9)
    assert v.trace[-1].rej == pytest.approx(rej, rel=0.0, abs=1e-9)


def _looped_steps(context, run, cycle, g, periods, count):
    """(alpha, rho, acc, rej, nh) of every step of count applications of
    g from run, each step added in Python as a stepped run adds it."""
    n_rows = len(g) - context.kernel.a.dim
    m = 2 * context.kernel.n_acc
    psi, acc, rej = run.psi, run.acc, run.rej
    steps = []
    for _ in range(count):
        out = g @ psi
        nh = _norm_sq(psi)
        rows = np.square(out[:n_rows].view(np.float64)).reshape(periods * len(cycle), -1)
        psi = out[n_rows:]
        for row in rows.tolist():
            alpha, rho = sum(row[:m]), sum(row[m:])
            nh -= alpha + rho
            acc += alpha
            rej += rho
            steps.append((alpha, rho, acc, rej, nh))
        steps[-1] = (alpha, rho, acc, rej, _norm_sq(psi))
    return steps


@pytest.mark.parametrize("dim", [16, 27, 81])
def test_compiled_run_adds_each_step_as_a_loop_would(dim):
    # the array arithmetic of a group gives every float of a per-step loop
    # over the same products, bit for bit. No comparison with a NaN
    # cutpoint holds, so no step decides and every application is kept
    K = semantics._BLOCK
    rng = np.random.default_rng(dim)
    a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    for cycle in ("ab", "abb", "bbaab"):
        context = semantics._LassoContext(a, 0.6, CERTIFIED, [])
        run = context.advance(context.after("a"), cycle, 0, 1)[0]
        context.p = math.nan
        g = context.compiled(cycle)
        for gk, periods in ((context.blocked(g), K), (g, 1)):
            del context.records[:]
            new, kept = context.compiled_run(run, cycle, 2, gk, periods, 4)
            assert kept == 4
            want = _looped_steps(context, run, cycle, gk, periods, 4)
            assert [(r.alpha, r.rho, r.acc, r.rej, r.nonhalt_norm_sq)
                    for r in context.records] == want
            assert (new.acc, new.rej) == want[-1][2:4]
            assert new.visits == run.visits + sum(s[0] > DEFAULT_VISIT_EPS for s in want)


@pytest.mark.parametrize("word", [("a", "ab"), ("a", "abb"), ("b", "aab")])
def test_a_converged_run_keeps_the_blocks_that_still_drain(monkeypatch, word):
    # the sums stop moving hundreds of periods before the run halts, while
    # every period still halts a fixed share of the mass that is left: the
    # blocks after the sums freeze are kept, up to the one that halts
    rng = np.random.default_rng(27)
    a = make_automaton({s: haar_unitary(rng, 27) for s in "ab"},
                       accepting=[1], rejecting=[2])
    w = LassoWord(*word)
    calls = _compiled_runs(monkeypatch)
    got = run_lasso(a, w, 0.55, max_periods=1024, record_trace=True)
    _stepped_only(monkeypatch)
    want = run_lasso(a, w, 0.55, max_periods=1024, record_trace=True)
    _assert_same_run(got, want)
    sums = [(r.acc, r.rej) for r in want.trace]
    frozen = next(j for j in range(len(sums), 0, -1) if sums[j - 1] != sums[j - 2])
    # the first period all of whose steps leave both sums as they were
    k = (frozen - len(w.prefix) - 1) // len(w.cycle) + 2
    assert k + 8 * semantics._BLOCK < want.periods_simulated
    blocks = [kept for first, periods, kept in calls if first >= k and periods > 1]
    assert blocks.count(True) >= 8 and blocks.count(False) <= 1


def test_traced_and_untraced_runs_give_the_same_verdict():
    runs = []
    for dim in (16, 27, 81):
        rng = np.random.default_rng(dim)
        a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                           accepting=[1, 2, 3], rejecting=[4])
        for mode in (CERTIFIED, LITERAL):
            for _ in range(3):
                w = LassoWord("".join(rng.choice(["a", "b"], 2)),
                              "".join(rng.choice(["a", "b"], 3)))
                runs.append((a, w, mode))
    runs.append((draining_half_automaton(), LassoWord("", "aa"), CERTIFIED))
    for a, w, mode in runs:
        for budget in (2 * a.dim, 1024):
            plain = run_lasso(a, w, 0.6, max_periods=budget, mode=mode)
            traced = run_lasso(a, w, 0.6, max_periods=budget, mode=mode, record_trace=True)
            assert len(traced.trace) > 0
            assert dataclasses.replace(traced, trace=None) == plain


def test_compiled_run_memory_stays_near_its_matrices():
    # the run keeps G and the block G_K, and building G_K makes one
    # dim x dim temporary at a time
    K, dim = semantics._BLOCK, 81
    rng = np.random.default_rng(dim)
    a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                       accepting=[1, 2, 3], rejecting=[4])
    w = LassoWord("ab", "abb")
    halting_rows = len(w.cycle) * 4
    g, gk = halting_rows + dim, K * halting_rows + dim
    matrices = 16 * dim * (g + gk + dim)
    tracemalloc.start()
    try:
        v = run_lasso(a, w, 0.6, max_periods=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.periods_simulated == 256
    assert peak <= 1.1 * matrices
