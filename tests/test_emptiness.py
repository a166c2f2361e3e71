import itertools
import math

import numpy as np
import pytest

from qbuchi.emptiness import (
    SearchBudget,
    SearchResult,
    SearchStatus,
    benchmark_step_cost,
    check_emptiness,
    reference_run,
)
from qbuchi.automata import Mmqba
from qbuchi.semantics import (
    CERTIFIED,
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_VISIT_EPS,
    LITERAL,
    REASON_ACC_REFUTED,
    REASON_BUCHI_REFUTED,
    REASON_BUDGET,
    LassoWord,
    Status,
    _LassoContext,
    run_lasso,
    run_prefix,
)

from conftest import acc_then_rej_automaton, haar_unitary, make_automaton

# hand-computed: round r enumerates (2^(r+1)-2) prefixes and (2^(r+1)-2)
# cycles over two symbols plus the empty prefix, and an always-rejecting
# automaton settles every pair at first sight, so the cumulative count is
# the number of distinct pairs seen so far
REJECT_ALL_TRIED = {1: 6, 2: 42, 3: 210}
UNARY_TRIED = {r: (r + 1) * r for r in (1, 2, 3)}


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_rejecting_search_counts_binary(fixtures, rounds):
    res = check_emptiness(fixtures["reject_all"], 0.9, SearchBudget(max_rounds=rounds))
    assert res.status is SearchStatus.INCONCLUSIVE
    assert res.witness is None
    assert res.candidates_tried == REJECT_ALL_TRIED[rounds]
    assert res.rounds_completed == rounds


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_rejecting_search_counts_unary(fixtures, rounds):
    res = check_emptiness(fixtures["no_entry"], 0.5, SearchBudget(max_rounds=rounds))
    assert res.status is SearchStatus.INCONCLUSIVE
    assert res.candidates_tried == UNARY_TRIED[rounds]


def test_reject_all_full_budget(fixtures):
    res = check_emptiness(fixtures["reject_all"], 0.9)
    assert res.status is SearchStatus.INCONCLUSIVE
    assert res.rounds_completed == 6
    assert res.candidates_tried == 16002


WITNESSES = [
    # (fixture, cutpoint, prefix, cycle, tried, round)
    ("lang_a_prefix", 0.8, "", "a", 1, 1),
    ("lang_a_prefix", 0.97, "", "a", 7, 2),
    ("lang_ab_cycle", 0.6, "a", "b", 4, 1),
    ("lang_aab_cycle", 0.5, "", "aab", 45, 3),
    ("swap_halt_once", 0.9, "", "a", 1, 1),
    ("lang_inf_a", 1.0, "", "aaaaa", 1153, 5),
]


@pytest.mark.parametrize(
    "name,p,prefix,cycle,tried,rounds", WITNESSES,
    ids=[f"{n}@{p}" for n, p, *_ in WITNESSES],
)
def test_witness_table(fixtures, name, p, prefix, cycle, tried, rounds):
    res = check_emptiness(fixtures[name], p)
    assert res.status is SearchStatus.NONEMPTY
    word, verdict = res.witness
    assert (word.prefix, word.cycle) == (prefix, cycle)
    assert verdict.status is Status.ACCEPTED
    assert verdict.acc_lower >= p - 1e-6
    assert res.candidates_tried == tried
    assert res.rounds_completed == rounds


def test_inconclusive_pairs_get_larger_budgets(fixtures):
    # at cutpoint 0.97 the a-word needs more than the round-1 budget of
    # two periods, so the witness appears on the round-2 revisit
    small = check_emptiness(fixtures["lang_a_prefix"], 0.97, SearchBudget(max_rounds=1))
    assert small.status is SearchStatus.INCONCLUSIVE
    full = check_emptiness(fixtures["lang_a_prefix"], 0.97)
    assert full.status is SearchStatus.NONEMPTY
    assert full.rounds_completed == 2


def test_search_is_reproducible(fixtures):
    a = check_emptiness(fixtures["lang_ab_cycle"], 0.6)
    b = check_emptiness(fixtures["lang_ab_cycle"], 0.6)
    assert isinstance(a, SearchResult)
    assert a == b


@pytest.mark.parametrize("name,p", [(n, p) for n, p, *_ in WITNESSES])
def test_witnesses_survive_larger_budget(fixtures, name, p):
    res = check_emptiness(fixtures[name], p)
    word, verdict = res.witness
    recheck = run_lasso(
        fixtures[name], word, p, max_periods=4 * 2 ** res.rounds_completed
    )
    assert recheck.status is Status.ACCEPTED
    assert recheck.acc_lower >= verdict.acc_lower - 1e-9


def test_literal_mode_is_forwarded():
    a = acc_then_rej_automaton()
    certified = check_emptiness(a, 0.4, SearchBudget(max_rounds=3))
    assert certified.status is SearchStatus.INCONCLUSIVE
    literal = check_emptiness(a, 0.4, SearchBudget(max_rounds=3), mode=LITERAL)
    assert literal.status is SearchStatus.NONEMPTY
    assert literal.candidates_tried == 1


def _plain_search(a, p, budget, mode):
    """The dovetailing loop of check_emptiness with every candidate run on
    its own, without the search's shared prefix table."""
    symbols = sorted(a.alphabet)

    def words(lo, hi):
        for n in range(lo, hi + 1):
            for tup in itertools.product(symbols, repeat=n):
                yield "".join(tup)

    tried = 0
    rejected = set()
    for r in range(1, budget.max_rounds + 1):
        for u in words(0, r):
            for v in words(1, r):
                if (u, v) in rejected:
                    continue
                tried += 1
                w = LassoWord(u, v)
                verdict = run_lasso(
                    a, w, p, max_periods=2 ** r, epsilon=budget.epsilon,
                    beta=budget.beta, visit_eps=budget.visit_eps, mode=mode,
                )
                if verdict.status is Status.ACCEPTED:
                    return SearchResult(SearchStatus.NONEMPTY, (w, verdict), tried, r)
                if verdict.status is Status.REJECTED:
                    rejected.add((u, v))
    return SearchResult(SearchStatus.INCONCLUSIVE, None, tried, budget.max_rounds)


def _assert_search_matches_plain_loop(a, p, mode, rounds):
    budget = SearchBudget(max_rounds=rounds)
    got = check_emptiness(a, p, budget, mode=mode)
    want = _plain_search(a, p, budget, mode)
    assert got.status is want.status
    assert got.candidates_tried == want.candidates_tried
    assert got.rounds_completed == want.rounds_completed
    if want.witness is None:
        assert got.witness is None
    else:
        (got_w, got_v), (want_w, want_v) = got.witness, want.witness
        assert (got_w.prefix, got_w.cycle) == (want_w.prefix, want_w.cycle)
        assert got_v.to_dict() == want_v.to_dict()
    return got


def _haar_automaton(seed):
    """q0 initial, then seed % 3 accepting states and one rejecting state."""
    rng = np.random.default_rng(seed)
    n_acc = seed % 3
    dim = int(rng.integers(max(3, n_acc + 2), 7))
    unitaries = {"a": haar_unitary(rng, dim), "b": haar_unitary(rng, dim)}
    return make_automaton(unitaries, accepting=range(1, 1 + n_acc), rejecting=[dim - 1])


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
@pytest.mark.parametrize("seed", range(9))
def test_search_matches_plain_loop_on_haar_automata(seed, mode):
    # seeds cover 0-2 accepting states at each of the three cutpoints
    p = (0.55, 0.7, 0.9)[seed // 3]
    _assert_search_matches_plain_loop(_haar_automaton(seed), p, mode, rounds=4)


def _no_accepting_state():
    rng = np.random.default_rng(7)
    unitaries = {"a": haar_unitary(rng, 3), "b": haar_unitary(rng, 3)}
    return make_automaton(unitaries, accepting=[], rejecting=[2])


def _marker_halts():
    """The end marker moves all mass onto the accepting q1, so every prefix
    halts above the cutpoint at its first step without an accepting visit,
    and each run falls through into the cycle and exhausts its budget."""
    rng = np.random.default_rng(8)
    return Mmqba(
        state_names=("q0", "q1", "q2"),
        alphabet=("a", "b"),
        unitaries={"a": haar_unitary(rng, 3), "b": haar_unitary(rng, 3)},
        initial=0,
        accepting=frozenset([1]),
        rejecting=frozenset([2]),
        end_marker_unitary=np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    )


def _prefix_refutes():
    """'a' sends 0.3 of q0's mass to the rejecting q2, so at cutpoint 0.9
    any prefix with an 'a' refutes the accepting limit; 'b' is the identity."""
    c, s = math.sqrt(0.7), math.sqrt(0.3)
    a = [[c, 0, -s], [0, 1, 0], [s, 0, c]]
    return make_automaton({"a": a, "b": np.eye(3)}, accepting=[1], rejecting=[2])


CRAFTED = [
    # (name, automaton, cutpoint, lasso, (status, reason, periods) of the
    # lasso, candidates of a 3-round search); a pair rejected at first sight
    # is tried once, so 210 is REJECT_ALL_TRIED[3], while every marker_halts
    # pair is inconclusive and each round tries all of its pairs: 6 + 42 + 210
    ("no_accepting_state", _no_accepting_state, 0.7, ("ab", "a"),
     (Status.REJECTED, REASON_BUCHI_REFUTED, 0), 210),
    ("marker_halts", _marker_halts, 0.9, ("ab", "a"),
     (Status.INCONCLUSIVE, REASON_BUDGET, 1), 258),
    ("prefix_refutes", _prefix_refutes, 0.9, ("ba", "b"),
     (Status.REJECTED, REASON_ACC_REFUTED, 0), 210),
]


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
@pytest.mark.parametrize(
    "make,p,lasso,expected,tried", [c[1:] for c in CRAFTED], ids=[c[0] for c in CRAFTED]
)
def test_search_matches_plain_loop_on_crafted_automata(make, p, lasso, expected, tried, mode):
    a = make()
    v = run_lasso(a, LassoWord(*lasso), p, max_periods=8, mode=mode)
    assert (v.status, v.reason, v.periods_simulated) == expected
    res = _assert_search_matches_plain_loop(a, p, mode, rounds=3)
    assert res.status is SearchStatus.INCONCLUSIVE
    assert res.candidates_tried == tried


def test_run_lasso_with_a_shared_context_matches_single_runs():
    p = 0.7
    for a in (_haar_automaton(4), _marker_halts(), acc_then_rej_automaton()):
        context = _LassoContext(
            a, p, DEFAULT_EPSILON, DEFAULT_BETA, DEFAULT_VISIT_EPS, CERTIFIED
        )
        symbols = sorted(a.alphabet)
        for n in range(4):
            for u in itertools.product(symbols, repeat=n):
                w = LassoWord("".join(u), symbols[-1])
                shared = run_lasso(a, w, p, max_periods=16, _context=context)
                assert shared == run_lasso(a, w, p, max_periods=16)
    refuted = _no_accepting_state()
    context = _LassoContext(
        refuted, p, DEFAULT_EPSILON, DEFAULT_BETA, DEFAULT_VISIT_EPS, CERTIFIED
    )
    first = run_lasso(refuted, LassoWord("", "a"), p, _context=context)
    assert run_lasso(refuted, LassoWord("ba", "b"), p, _context=context) is first
    with pytest.raises(ValueError):
        run_lasso(refuted, LassoWord("", "a"), 0.8, _context=context)
    with pytest.raises(ValueError):
        run_lasso(refuted, LassoWord("", "a"), p, record_trace=True, _context=context)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_rounds=0)
    with pytest.raises(ValueError):
        SearchBudget(beta=0.0)
    with pytest.raises(ValueError):
        SearchBudget(epsilon=-1.0)
    with pytest.raises(ValueError):
        SearchBudget(visit_eps=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SearchBudget(beta=bad)
        with pytest.raises(ValueError):
            SearchBudget(epsilon=bad)
        with pytest.raises(ValueError):
            SearchBudget(visit_eps=bad)


@pytest.mark.parametrize("epsilon", [0.8, 1.0])
def test_search_refuses_epsilon_at_or_above_cutpoint(fixtures, epsilon):
    # acc >= p - epsilon would hold for every word: the search must not answer
    with pytest.raises(ValueError, match="must lie below the cutpoint"):
        check_emptiness(fixtures["lang_a_omega"], 0.8,
                        SearchBudget(max_rounds=1, epsilon=epsilon))


@pytest.mark.parametrize("name,word", [
    ("lang_a_prefix", "aaabbb"),
    ("lang_ab_cycle", "ababab"),
    ("swap_halt_once", "aaaa"),
])
def test_reference_kernel_agrees_with_fast_path(fixtures, name, word):
    acc, rej, elapsed = reference_run(fixtures[name], word)
    rec = run_prefix(fixtures[name], word)[-1]
    assert acc == pytest.approx(rec.acc, abs=1e-12)
    assert rej == pytest.approx(rec.rej, abs=1e-12)
    assert elapsed >= 0.0


def test_benchmark_reports_growth(fixtures):
    rep = benchmark_step_cost(fixtures["lang_a_omega"], [400, 400])
    assert rep.dims == (3, 9)
    assert rep.symbols_timed == (400, 400)
    assert all(t > 0 for t in rep.per_symbol_seconds)
    assert math.isfinite(rep.exponent)
    d = rep.to_dict()
    assert d["dims"] == [3, 9]


def test_benchmark_single_level_has_no_exponent(fixtures):
    rep = benchmark_step_cost(fixtures["no_entry"], [50])
    assert rep.dims == (3,)
    assert math.isnan(rep.exponent)


def test_benchmark_validates_lengths(fixtures):
    with pytest.raises(ValueError):
        benchmark_step_cost(fixtures["no_entry"], [])
    with pytest.raises(ValueError):
        benchmark_step_cost(fixtures["no_entry"], [100, 0])
