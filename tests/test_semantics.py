import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbuchi import semantics
from qbuchi.automata import END_MARKER, TERMINAL
from qbuchi.constructions import finite_language_mmqfa
from qbuchi.emptiness import reference_run
from qbuchi.semantics import (
    CERTIFIED,
    CLAUSE_CERTIFIED,
    CLAUSE_POSSIBLE,
    CLAUSE_REFUTED,
    CSV_HEADER,
    DEFAULT_MAX_PERIODS,
    DEFAULT_VISIT_EPS,
    LITERAL,
    REASON_BUCHI_REFUTED,
    LassoWord,
    Status,
    StepRecord,
    Verdict,
    check_acceptance_clauses,
    run_lasso,
    run_mmqfa,
    run_prefix,
    trace_to_csv,
    _Kernel,
    _json_text,
    _norm_sq,
    trace_to_json,
)

from conftest import (
    acc_then_rej_automaton,
    haar_unitary,
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
    # a step halts with probability at most 1, so from visit_eps 1 up no
    # step counts as a visit and no word could be ACCEPTED
    for visit_eps in (1.0, 2.0):
        with pytest.raises(ValueError, match=r"visit_eps must lie in \(0, 1\)"):
            run_lasso(a, w, 0.8, visit_eps=visit_eps)
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
    assert trace_to_json(()) == "[]\n"


# The writer before lists of floats were filled into one template: one
# call per value, the reference for _json_text.
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
    nests = [values.tolist()]
    flat = values.ravel()
    for odd in (np.nan, np.inf, -0.0, 1.0, True, 2, "x", None):
        for index in (0, -1)[:flat.size]:
            nest = flat.astype(object)
            nest[index] = odd
            nests.append(nest.reshape(shape).tolist())
    if len(shape) > 1 and shape[-1]:
        nests.append(values.tolist()[:-1] + [values.tolist()[-1][:-1]])  # ragged
    for nest in nests:
        assert _json_text(nest) == _recursive_json_text(nest)


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


@pytest.mark.parametrize("p", [math.nan, -1.0, 0.0, 5.0])
def test_check_acceptance_clauses_checks_the_cutpoint(fixtures, p):
    # unchecked, NaN reports every clause possible and p < 0 or p > 1
    # certifies one limit clause while refuting the other
    tr = run_prefix(fixtures["lang_a_omega"], "aaaa")
    with pytest.raises(ValueError, match="cutpoint"):
        check_acceptance_clauses(tr, p)


@pytest.mark.parametrize("visit_eps", [math.nan, math.inf, -math.inf, -1.0, 1.0, 2.0])
def test_check_acceptance_clauses_checks_visit_eps(fixtures, visit_eps):
    # unchecked, 2.0 refutes buchi with 0 visits, NaN leaves it possible
    # with 0 visits and -1.0 refutes it with 30 visits
    vd = run_lasso(fixtures["lang_a_omega"], LassoWord("", "a"), 0.6,
                   max_periods=30, record_trace=True)
    with pytest.raises(ValueError, match="visit_eps"):
        check_acceptance_clauses(vd.trace, 0.6, visit_eps)
    rep = check_acceptance_clauses(vd.trace, 0.6, 0.0)
    assert rep.buchi == CLAUSE_POSSIBLE
    assert rep.buchi_visits == 30


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
        context = semantics._LassoContext(a, p, 1e-9, 0.5, DEFAULT_VISIT_EPS, mode)
        g = context.compiled(cycle)
        run = context.after("")
        for k in range(1, DEFAULT_MAX_PERIODS + 1):
            stepped = context.advance(run, cycle, k, 0.5 * k)
            got = context.period(run, cycle, k, 0.5 * k, g)
            if isinstance(stepped, Verdict):
                events.add(stepped.status)
                assert got == stepped
                break
            if stepped.halted or stepped.accepted != run.accepted:
                events.add("halted" if stepped.halted else "accepted")
                assert got[1:] == stepped[1:]
                assert np.array_equal(got.psi, stepped.psi)
            if stepped.halted:
                break
            run = got
    assert events == {Status.ACCEPTED, Status.REJECTED, "accepted", "halted"}


def _chain_unitary(dim, chain, partners, end, theta=0.1):
    """'a' moves amplitude one state per step along chain and from its last
    state onto end; each move onto chain[i] (i >= 1) then turns sin(theta)
    of it onto partners[i - 1]. Every other state stays where it is."""
    succ = list(range(dim))
    for i, j in zip(chain, chain[1:] + [end]):
        succ[i] = j
    succ[end] = chain[0]
    u = np.zeros((dim, dim))
    u[succ, range(dim)] = 1.0
    c, s = np.cos(theta), np.sin(theta)
    for i, j in zip(chain[1:], partners):
        rot = np.eye(dim)
        rot[[i, j, i, j], [i, i, j, j]] = [c, s, -s, c]
        u = rot @ u
    return u


def _counted_applies(monkeypatch):
    applies = []
    apply = _Kernel.apply
    monkeypatch.setattr(_Kernel, "apply",
                        lambda self, psi, sym: applies.append(sym) or apply(self, psi, sym))
    return applies


@pytest.mark.parametrize("theta", [0.1, 0.0])
@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
def test_compiled_period_that_halts_is_stepped_again(monkeypatch, mode, theta):
    # the chain q0..q6 leaks to the rejecting q8..q13 at every step (or,
    # at theta 0, not at all), and all the mass left halts on the
    # accepting q14 at step 7, the first step of period 4: periods 2 and 3
    # are compiled and kept, since they move the state even where they
    # leave both sums unchanged, and period 4 is discarded and stepped again
    u = _chain_unitary(16, list(range(7)), list(range(8, 14)), 14, theta)
    a = make_automaton({"a": u}, accepting=[14], rejecting=list(range(8, 14)))
    w = LassoWord("", "aa")
    applies = _counted_applies(monkeypatch)
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
    u = _chain_unitary(16, [8, 9, 10, 11], [12, 13, 14], 15)
    u[:8, :8] = np.eye(8)[[1, 0, 3, 2, 5, 4, 7, 6]]
    marker = np.eye(16)
    r = 1.0 / np.sqrt(2.0)
    marker[[0, 8, 0, 8], [0, 0, 8, 8]] = [r, r, -r, r]
    a = dataclasses.replace(make_automaton({"a": u}, accepting=[15], rejecting=[12, 13, 14]),
                            end_marker_unitary=marker)
    w = LassoWord("", "aa")
    applies = _counted_applies(monkeypatch)
    got = run_lasso(a, w, 0.7, max_periods=20, mode=mode, record_trace=True)
    # the end marker, period 1 and period 3
    assert len(applies) == 1 + 2 + 2
    _stepped_only(monkeypatch)
    want = run_lasso(a, w, 0.7, max_periods=20, mode=mode, record_trace=True)
    assert len(applies) == 5 + 1 + 6
    _assert_same_run(got, want)
    assert (got.status, got.reason, got.periods_simulated) == (
        Status.REJECTED, REASON_BUCHI_REFUTED, 3)
