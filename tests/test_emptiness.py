import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest

from qbuchi import emptiness, semantics
from qbuchi.emptiness import (
    SearchBudget,
    SearchResult,
    SearchStatus,
    benchmark_step_cost,
    check_emptiness,
    reference_run,
)
from qbuchi.semantics import (
    CERTIFIED,
    DEFAULT_EPSILON,
    LITERAL,
    REASON_ACC_REFUTED,
    REASON_BUCHI_REFUTED,
    REASON_BUDGET,
    LassoWord,
    Status,
    Verdict,
    _LassoContext,
    run_lasso,
    run_prefix,
)

from conftest import (acc_then_rej_automaton, counted_applies, haar_unitary, make_automaton,
                      marker_halts_automaton, rotation_leak_automaton, three_symbol_automaton)

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
                verdict = run_lasso(a, w, p, max_periods=2 ** r, mode=mode)
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


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
@pytest.mark.parametrize("seed", range(9))
def test_search_matches_plain_loop_on_haar_automata_at_cutpoint_one(seed, mode):
    # at p = 1 the first rejecting amplitude refutes acceptance, so most
    # rows and first-symbol blocks are settled before their first run
    _assert_search_matches_plain_loop(_haar_automaton(seed), 1.0, mode, rounds=5)


def _two_haar(seed):
    """A Haar 'a' and 'b' on 3 to 5 states: q0 initial, q1 accepting and
    the last state rejecting."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 6))
    return make_automaton({"a": haar_unitary(rng, dim), "b": haar_unitary(rng, dim)},
                          accepting=[1], rejecting=[dim - 1])


SETTLED_BEFORE_WITNESS = [
    # (seed, cutpoint, prefix, cycle, tried, round): the witness's row is
    # new in its round, or (seed 12) one round old, so that only its
    # cycles of length r are new
    (9, 0.65, "b", "b", 6, 1),
    (12, 0.7, "b", "bb", 20, 2),
    (20, 0.7, "baa", "abb", 172, 3),
]


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
@pytest.mark.parametrize("seed,p,prefix,cycle,tried,rounds", SETTLED_BEFORE_WITNESS,
                         ids=[f"seed{c[0]}" for c in SETTLED_BEFORE_WITNESS])
def test_witness_after_settled_rows_and_blocks_keeps_its_count(
        seed, p, prefix, cycle, tried, rounds, mode):
    a = _two_haar(seed)
    res = _assert_search_matches_plain_loop(a, p, mode, rounds=5)
    word, _ = res.witness
    assert ((word.prefix, word.cycle), res.candidates_tried, res.rounds_completed) == (
        (prefix, cycle), tried, rounds)
    # a settled row of the witness's length comes before its row, and a
    # settled first-symbol block new in its round before its block
    context = _LassoContext(a, p, mode)
    before = ["".join(t) for t in itertools.product("ab", repeat=len(prefix))]
    assert any(isinstance(context.after(u), Verdict) for u in before if u < prefix)
    first = 1 if rounds == max(len(prefix), 1) else rounds
    blocks = [(n, s) for n in range(first, len(cycle) + 1) for s in "ab"]
    assert any(isinstance(context.after(prefix + s), Verdict)
               for n, s in blocks if (n, s) < (len(cycle), cycle[0]))


def _no_accepting_state():
    rng = np.random.default_rng(7)
    unitaries = {"a": haar_unitary(rng, 3), "b": haar_unitary(rng, 3)}
    return make_automaton(unitaries, accepting=[], rejecting=[2])


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
    ("marker_halts", marker_halts_automaton, 0.9, ("ab", "a"),
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
    default = dict(mode=CERTIFIED)
    other = dict(mode=LITERAL)
    differs = False
    for a in (_haar_automaton(4), marker_halts_automaton(), acc_then_rej_automaton()):
        symbols = sorted(a.alphabet)
        for test in (default, other):
            context = _LassoContext(a, p, **test)
            for n in range(4):
                for u in itertools.product(symbols, repeat=n):
                    w = LassoWord("".join(u), symbols[-1])
                    # the shared context supplies the test: the call does not state it
                    shared = run_lasso(a, w, p, max_periods=16, _context=context)
                    assert shared == run_lasso(a, w, p, max_periods=16, **test)
                    differs |= shared != run_lasso(a, w, p, max_periods=16)
    # so a context whose test went unused would fail the loop above
    assert differs
    refuted = _no_accepting_state()
    context = _LassoContext(refuted, p, CERTIFIED)
    first = run_lasso(refuted, LassoWord("", "a"), p, _context=context)
    assert run_lasso(refuted, LassoWord("ba", "b"), p, _context=context) is first
    with pytest.raises(ValueError):
        run_lasso(refuted, LassoWord("", "a"), 0.8, _context=context)
    with pytest.raises(ValueError):
        run_lasso(refuted, LassoWord("", "a"), p, record_trace=True, _context=context)
    with pytest.raises(ValueError):
        run_lasso(marker_halts_automaton(), LassoWord("", "a"), p, _context=context)


def _draining_automaton(seed, dim, b, alphabet="ab"):
    """q0 initial, q1 accepting, q2 rejecting. 'a' is a Haar unitary of the
    non-halting states followed by rotations by 0.3 of q0 into q1 and of
    q3 into q2, so that a run drains slowly and stays undecided for dozens
    of periods. 'b' is another such map ("drain"), the identity
    ("identity") or a cyclic shift of the non-halting states ("shift");
    the last two make runs of different prefixes reach bitwise the same
    state. alphabet "a" leaves 'b' out."""
    rng = np.random.default_rng(seed)
    free = [0, *range(3, dim)]

    def drain():
        u = np.eye(dim, dtype=complex)
        u[np.ix_(free, free)] = haar_unitary(rng, dim - 2)
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.eye(dim)
        for i, h in ((0, 1), (3, 2)):
            rot[i, i] = rot[h, h] = c
            rot[h, i], rot[i, h] = s, -s
        return rot @ u

    unitaries = {"a": drain(), "b": drain() if b == "drain" else np.eye(dim)}
    if b == "shift":
        unitaries["b"][:, free] = unitaries["b"][:, np.roll(free, 1)]
    return make_automaton({s: unitaries[s] for s in alphabet}, accepting=[1], rejecting=[2])


def _split_automaton():
    """'a' sends 0.1 of q0's mass to the accepting q1 and 'b' to the
    rejecting q2, so 'ab' and 'ba' leave the same state vector with
    different sums."""
    c, s = math.sqrt(0.9), math.sqrt(0.1)
    a = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    b = [[c, 0, -s], [0, 1, 0], [s, 0, c]]
    return make_automaton({"a": a, "b": b}, accepting=[1], rejecting=[2])


def _haar_of_dim(dim):
    rng = np.random.default_rng(dim)
    unitaries = {"a": haar_unitary(rng, dim), "b": haar_unitary(rng, dim)}
    return make_automaton(unitaries, accepting=[1], rejecting=[dim - 1])


def _open_run_automaton(dim=8, invariant=4):
    """Each symbol is a Haar unitary of the first invariant states, which
    hold the initial q0, and another of the rest, which hold the accepting
    q{invariant} and the rejecting q{dim-1}. No mass ever halts, so every
    run stays open to its budget, and the states of different words differ."""
    rng = np.random.default_rng(dim)

    def blocks():
        u = np.zeros((dim, dim), dtype=complex)
        u[:invariant, :invariant] = haar_unitary(rng, invariant)
        u[invariant:, invariant:] = haar_unitary(rng, dim - invariant)
        return u

    return make_automaton({"a": blocks(), "b": blocks()},
                          accepting=[invariant], rejecting=[dim - 1])


SMALL_BUDGETS = (1, 2, 2, 3, 4, 8, 16)
# 17 compiles at dimension 16 only, 20 and 40 at both
COMPILED_BUDGETS = (1, 2, 8, 17, 20, 20, 40)
SHARED_CONTEXT_CASES = [
    # (name, automaton, cutpoint, cycles, budgets, whether prefix states collide)
    *[(f"haar{d}", lambda d=d: _haar_of_dim(d), 0.6, ("a", "b", "ab"), SMALL_BUDGETS, False)
      for d in range(3, 9)],
    ("identity6", lambda: _draining_automaton(1, 6, "identity"), 0.5, ("a", "b", "ab", "bab"),
     SMALL_BUDGETS, True),
    ("shift5", lambda: _draining_automaton(2, 5, "shift"), 0.5, ("a", "ab", "bab"),
     SMALL_BUDGETS, True),
    ("marker_halts", marker_halts_automaton, 0.9, ("a", "ab"), SMALL_BUDGETS, True),
    ("split", _split_automaton, 0.5, ("a", "b", "ab"), SMALL_BUDGETS, False),
    ("drain16", lambda: _draining_automaton(3, 16, "drain"), 0.5, ("ab", "aab"),
     COMPILED_BUDGETS, False),
    ("identity18", lambda: _draining_automaton(4, 18, "identity"), 0.5, ("ab", "aba"),
     COMPILED_BUDGETS, True),
]


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
@pytest.mark.parametrize(
    "make,p,cycles,budgets,collide", [c[1:] for c in SHARED_CONTEXT_CASES],
    ids=[c[0] for c in SHARED_CONTEXT_CASES],
)
def test_shared_context_answers_every_budget_order_as_fresh_runs(
        make, p, cycles, budgets, collide, mode):
    # each word once per listed budget, in a random order, so that the
    # budgets of one word come increasing, repeated and decreasing
    a = make()
    symbols = sorted(a.alphabet)
    words = [LassoWord("".join(u), v) for n in range(4)
             for u in itertools.product(symbols, repeat=n) for v in cycles]
    calls = [(w, n) for w in words for n in budgets]
    context = _LassoContext(a, p, mode)
    for i in np.random.default_rng(len(calls)).permutation(len(calls)):
        w, n = calls[i]
        shared = run_lasso(a, w, p, max_periods=n, _context=context)
        fresh = run_lasso(a, w, p, max_periods=n, mode=mode)
        assert repr(shared.to_dict()) == repr(fresh.to_dict()), (w, n)
    open_prefixes = [e for e in context.prefixes.values() if not isinstance(e, Verdict)]
    assert (len(set(open_prefixes)) < len(open_prefixes)) == collide


PLAIN_LOOP_CASES = [
    # (name, automaton, cutpoint, rounds, entries the transition table is
    # capped at, or None for the default cap); lang_inf_a's 'b' is the identity
    ("lang_inf_a@0.9", "lang_inf_a", 0.9, 6, None),
    ("lang_inf_a@1.0", "lang_inf_a", 1.0, 6, None),
    # the table is cleared every three entries, so steps are taken afresh
    # from states it held before
    ("lang_inf_a@1.0-cap3", "lang_inf_a", 1.0, 6, 3),
    # a unary rotation: the runs of a^k are powers and rotations of one run
    ("rotation_leak@0.8", rotation_leak_automaton, 0.8, 5, None),
    # the end marker halts every run, so every pair starts from one state
    ("marker_halts@0.9", marker_halts_automaton, 0.9, 4, None),
    # every pair stays open and is stepped again from where it stopped
    ("open_runs", _open_run_automaton, 0.5, 4, None),
    ("shift5", lambda: _draining_automaton(2, 5, "shift"), 0.5, 4, None),
    # round 5 runs 32 periods, so its cycles of two symbols or more compile
    ("drain16", lambda: _draining_automaton(3, 16, "drain", alphabet="a"), 0.5, 5, None),
    # a settled row is counted in its first round and again, for its
    # longest cycles only, in every later one
    ("three_symbol@0.6", three_symbol_automaton, 0.6, 4, None),
    ("three_symbol@0.9", three_symbol_automaton, 0.9, 4, None),
    ("no_entry", "no_entry", 0.5, 6, None),
    *[(f"prefix_refutes-r{r}", _prefix_refutes, 0.9, r, None) for r in range(1, 7)],
    *[(f"no_accepting_state-r{r}", _no_accepting_state, 0.7, r, None) for r in range(1, 7)],
    # round 5 runs 32 periods, so the open pairs with cycles of two symbols
    # or more compile; the witness comes in round 5
    ("haar16", lambda: _haar_of_dim(16), 0.7, 5, None),
]


def _table_sizes(monkeypatch) -> list:
    """The (size, cap) of the transition table of the lasso context after
    every advance from here on."""
    sizes = []
    advance = _LassoContext.advance

    def counted(self, *args):
        out = advance(self, *args)
        sizes.append((len(self.transitions), self.max_transitions))
        return out

    monkeypatch.setattr(_LassoContext, "advance", counted)
    return sizes


@pytest.mark.parametrize("mode", [CERTIFIED, LITERAL])
@pytest.mark.parametrize(
    "make,p,rounds,entries", [c[1:] for c in PLAIN_LOOP_CASES],
    ids=[c[0] for c in PLAIN_LOOP_CASES],
)
def test_search_matches_plain_loop_on_colliding_states(
        fixtures, monkeypatch, make, p, rounds, entries, mode):
    a = fixtures[make] if isinstance(make, str) else make()
    if entries is not None:
        monkeypatch.setattr(semantics, "_TRANSITION_BYTES", entries * (16 * a.dim + 512))
    sizes = _table_sizes(monkeypatch)
    _assert_search_matches_plain_loop(a, p, mode, rounds)
    assert all(size <= cap for size, cap in sizes)
    if entries is not None:
        # every context held the cap, and the search's table filled to it;
        # the search steps 258 distinct transitions, so it was cleared
        assert {cap for _, cap in sizes} == {entries}
        assert max(sizes)[0] == entries


def _counted_runs(monkeypatch) -> list:
    """The (prefix, cycle) of every run_lasso call that check_emptiness
    makes from here on."""
    pairs = []
    run = emptiness.run_lasso
    monkeypatch.setattr(emptiness, "run_lasso", lambda a, w, p, **kw: (
        pairs.append((w.prefix, w.cycle)) or run(a, w, p, **kw)))
    return pairs


def test_search_runs_only_the_pairs_of_open_prefixes(fixtures, monkeypatch):
    pairs = _counted_runs(monkeypatch)
    res = check_emptiness(fixtures["reject_all"], 0.9)
    assert (res.candidates_tried, pairs) == (16002, [])
    res = check_emptiness(_prefix_refutes(), 0.9, SearchBudget(max_rounds=4))
    # every pair is rejected at first sight, so it is counted once; a
    # prefix with an 'a' settles its row, and a cycle that starts with 'a'
    # settles its pair at the first cycle step, so only the others are run
    words = ["".join(t) for n in range(5) for t in itertools.product("ab", repeat=n)]
    assert res.candidates_tried == len(words) * (len(words) - 1)
    assert sorted(pairs) == sorted((u, v) for u in words for v in words
                                   if v and "a" not in u + v[0])


@pytest.mark.parametrize("make,p", [(lambda f: f["reject_all"], 0.9),
                                    (lambda f: _haar_automaton(1), 1.0)],
                         ids=["reject_all@0.9", "haar1@1.0"])
def test_search_work_grows_with_the_open_pairs(fixtures, monkeypatch, make, p):
    # reject_all settles its root, so every row; at p = 1 the Haar
    # automaton's root is open but both of its first steps settle, so each
    # block of the empty row does. 40 rounds hold about 2^81 pairs, each
    # counted once, so a search that walked them could not finish
    pairs = _counted_runs(monkeypatch)
    calls = []
    after = _LassoContext.after
    monkeypatch.setattr(_LassoContext, "after",
                        lambda self, u: calls.append(u) or after(self, u))
    rounds = 40
    res = check_emptiness(make(fixtures), p, SearchBudget(max_rounds=rounds))
    assert res.status is SearchStatus.INCONCLUSIVE
    assert res.candidates_tried == (2 ** (rounds + 1) - 1) * (2 ** (rounds + 1) - 2)
    assert pairs == []
    assert len(calls) <= 4 * rounds * 2


def test_search_checks_the_alphabet_before_round_one():
    # without an accepting state the root settles every row, so no pair
    # is run and no run checks the multi-character symbol
    rng = np.random.default_rng(7)
    a = make_automaton({"a": haar_unitary(rng, 3), "bc": haar_unitary(rng, 3)},
                       accepting=[], rejecting=[2])
    with pytest.raises(ValueError, match="symbol 'b' is not in the automaton alphabet"):
        check_emptiness(a, 0.7)


def test_search_enumerates_one_round_at_a_time(fixtures):
    a = fixtures["lang_a_prefix"]
    tracemalloc.start()
    try:
        res = check_emptiness(a, 0.8, SearchBudget(max_rounds=16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.candidates_tried, res.rounds_completed) == (
        SearchStatus.NONEMPTY, 1, 1)
    # a list of the 2^17 - 1 words of 16 rounds would take several MB
    assert peak < 1_000_000


def test_search_simulates_each_cycle_phase_once(fixtures, monkeypatch):
    steps = counted_applies(monkeypatch)
    res = check_emptiness(fixtures["lang_inf_a"], 1.0)
    word, _ = res.witness
    assert ((word.prefix, word.cycle), res.candidates_tried, res.rounds_completed) == (
        ("", "aaaaa"), 1153, 5)
    # 50527 when every pair was simulated from its prefix state in every
    # round; as 'b' is the identity, the search's 31 prefixes reach 5
    # distinct states, and a larger budget resumes a run where it stopped.
    # That took 8689 while each run stepped its own transitions; now each
    # distinct (state, symbol) is stepped once, the end marker's included
    assert len(steps) == 258
    steps.clear()
    res = check_emptiness(marker_halts_automaton(), 0.9, SearchBudget(max_rounds=3))
    assert res.candidates_tried == 258
    # 273 when each of the 258 evaluations stepped its halted run again,
    # 43 while the root, halted by the end marker, was not marked so and
    # kept a phase table entry of its own per cycle, and 29 while each
    # cycle phase from the root stepped its own first symbol: now the end
    # marker, 'a' and 'b' are the only steps
    assert steps == ["#", "a", "b"]


def test_prefixes_that_reach_one_state_share_its_cycle_phases(fixtures, monkeypatch):
    # as 'b' is the identity of lang_inf_a, its prefixes reach few distinct
    # states, and the phase table is keyed on a state's content, so a pair
    # whose prefix reaches a state already run with its cycle and budget
    # is answered from the table: 1153 phases when each prefix kept its own
    phases = []
    cycle_phase = _LassoContext.cycle_phase

    def counted(self, *args):
        phases.append(args)
        return cycle_phase(self, *args)

    monkeypatch.setattr(_LassoContext, "cycle_phase", counted)
    res = check_emptiness(fixtures["lang_inf_a"], 1.0)
    assert res.candidates_tried == 1153
    assert len(phases) == 235


def test_search_enters_the_step_loop_once_per_phase(fixtures, monkeypatch):
    # advance steps every period of a stepped cycle phase in one call, so
    # the search enters it once per prefix table entry (62) and once per
    # cycle phase (235): 2610 calls when each period was one call
    stops = []
    advance = _LassoContext.advance

    def counted(self, run, word, k=0, stop=0):
        stops.append(stop)
        return advance(self, run, word, k, stop)

    monkeypatch.setattr(_LassoContext, "advance", counted)
    res = check_emptiness(fixtures["lang_inf_a"], 1.0)
    assert res.candidates_tried == 1153
    assert (stops.count(0), len(stops)) == (62, 297)


def test_search_transition_table_stays_within_its_budget(monkeypatch):
    # every run stays open and the states of different words differ, so
    # the search steps to 1679 distinct states, and an unbounded table
    # keeps them all: a peak of ~0.76 MB, against ~0.19 MB before the
    # search had a transition table. A budget of 500 entries at dimension
    # 8 clears the table three times, and its peak (~0.27 MB) must stay
    # below the budget plus that earlier peak, rounded up, which an
    # unbounded table's peak exceeds.
    budget = 500 * (16 * 8 + 512)
    monkeypatch.setattr(semantics, "_TRANSITION_BYTES", budget)
    tracemalloc.start()
    try:
        res = check_emptiness(_open_run_automaton(), 0.5, SearchBudget(max_rounds=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.candidates_tried) == (SearchStatus.INCONCLUSIVE, 258)
    assert peak < budget + 250_000


@pytest.mark.parametrize("dim", [8, 243])
def test_a_transition_entry_takes_at_most_the_bytes_the_cap_counts(dim):
    # one accepting state and no rejecting one, at p = 1: no prefix step
    # can settle the run, and no state of a Haar run repeats, so each of
    # the 400 steps adds an entry
    rng = np.random.default_rng(dim)
    a = make_automaton({s: haar_unitary(rng, dim) for s in "ab"}, accepting=[1], rejecting=[])
    u = "".join(rng.choice(["a", "b"], 400))
    context = _LassoContext(a, 1.0, CERTIFIED)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert isinstance(context.after(u), semantics._Run)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(context.transitions) == len(u)
    assert used / len(u) <= 16 * dim + 512


def test_budget_validation():
    # True is 1 to operator.index, but no count
    for bad in (0, math.nan, 2.5, True):
        with pytest.raises(ValueError, match="max_rounds"):
            SearchBudget(max_rounds=bad)
    # kept as the int the count rule returns, so that rounds_completed is one
    assert type(SearchBudget(max_rounds=np.int64(2)).max_rounds) is int


@pytest.mark.parametrize("p", [DEFAULT_EPSILON, 1e-10])
def test_search_refuses_epsilon_at_or_above_cutpoint(fixtures, p):
    # acc >= p - DEFAULT_EPSILON would hold for every word: the search must not answer
    with pytest.raises(ValueError, match="cutpoint must exceed epsilon 1e-09"):
        check_emptiness(fixtures["lang_a_omega"], p, SearchBudget(max_rounds=1))


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


def test_benchmark_single_level_has_no_exponent(fixtures, monkeypatch):
    # nor a tensor power, which only a later level would time
    monkeypatch.setattr(emptiness, "tensor", lambda *_: pytest.fail("an unused power"))
    rep = benchmark_step_cost(fixtures["no_entry"], [50])
    assert rep.dims == (3,)
    assert math.isnan(rep.exponent)


def test_benchmark_refuses_a_level_past_its_memory_budget(fixtures, monkeypatch):
    # the whole call is refused before any level is built or run
    for name in ("reference_run", "tensor"):
        monkeypatch.setattr(emptiness, name, lambda *_, name=name: pytest.fail(name))
    with pytest.raises(ValueError, match="^level 3 has dimension 3375, beyond the 256 MiB "
                                         "that bench allows$"):
        benchmark_step_cost(fixtures["finite_ab"], [40, 40, 40])
    # 80 B for each entry of k + 1 matrices of dimension d: at most d = 1057
    # over two symbols and d = 1295 over one
    monkeypatch.setattr(emptiness, "reference_run", lambda *_: (0.0, 0.0, 1.0))
    for dim, alphabet, fits in ((1057, ("a", "b"), True), (1058, ("a", "b"), False),
                                (1295, ("a",), True), (1296, ("a",), False)):
        a = types.SimpleNamespace(dim=dim, alphabet=alphabet)
        if fits:
            assert benchmark_step_cost(a, [1]).dims == (dim,)
        else:
            with pytest.raises(ValueError, match=f"^level 1 has dimension {dim},"):
                benchmark_step_cost(a, [1])


def test_search_result_to_dict_holds_the_fields_and_nothing_else(fixtures):
    # --json prints this dict, and nothing new goes there (ROADMAP item 4)
    found = check_emptiness(fixtures["lang_ab_cycle"], 0.6, SearchBudget(max_rounds=2))
    none = check_emptiness(fixtures["reject_all"], 0.9, SearchBudget(max_rounds=1))
    for result in (found, none):
        assert sorted(result.to_dict()) == [
            "candidates_tried", "rounds_completed", "status", "witness"]
    word, verdict = found.witness
    assert found.to_dict()["witness"] == {"prefix": word.prefix, "cycle": word.cycle,
                                          "verdict": verdict.to_dict()}
    assert found.to_dict()["status"] == "NONEMPTY"
    assert none.to_dict()["witness"] is None


def test_benchmark_validates_lengths(fixtures):
    with pytest.raises(ValueError):
        benchmark_step_cost(fixtures["no_entry"], [])
    with pytest.raises(ValueError):
        benchmark_step_cost(fixtures["no_entry"], [100, 0])
    with pytest.raises(ValueError, match="lengths"):
        benchmark_step_cost(fixtures["no_entry"], [1.5])
