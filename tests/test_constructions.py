import itertools
import subprocess
import sys

import numpy as np
import pytest

from qbuchi.automata import Mmqba, Mmqfa, saves, validate
from qbuchi.constructions import (
    _normalize_lasso,
    _sink_permutation,
    empty_automaton,
    finite_language_mmqfa,
    restrict_to_lasso,
    union,
)
from qbuchi.numerics import tensor
from qbuchi.semantics import LassoWord, Status, run_lasso, run_mmqfa, run_prefix

from conftest import FIXTURE_NAMES, haar_unitary


def test_union_requires_matching_alphabets(fixtures):
    with pytest.raises(ValueError):
        union(fixtures["lang_a_prefix"], fixtures["no_entry"])


def test_union_shape_and_names(fixtures):
    m1 = fixtures["lang_a_omega"]
    m2 = fixtures["lang_a_prefix"]
    u = union(m1, m2)
    assert u.dim == m1.dim * m2.dim
    assert u.state_names[0] == f"({m1.state_names[0]},{m2.state_names[0]})"
    assert u.state_names[-1] == f"({m1.state_names[-1]},{m2.state_names[-1]})"
    assert u.initial == m1.initial * m2.dim + m2.initial
    assert validate(u) == []


def test_union_halting_state_marking(fixtures):
    m1 = fixtures["lang_a_omega"]
    m2 = fixtures["lang_a_prefix"]
    u = union(m1, m2)
    d2 = m2.dim
    for q1, q2 in itertools.product(range(m1.dim), range(d2)):
        idx = q1 * d2 + q2
        if q1 in m1.accepting or q2 in m2.accepting:
            assert idx in u.accepting
        elif q1 in m1.rejecting and q2 in m2.rejecting:
            assert idx in u.rejecting
        else:
            assert idx not in u.accepting and idx not in u.rejecting


def test_union_preserves_positives(fixtures):
    m1 = fixtures["lang_ab_cycle"]
    m2 = fixtures["lang_aab_cycle"]
    w = LassoWord("", "ab")
    u = union(m1, m2)
    assert run_lasso(m1, w, 0.5).status is Status.ACCEPTED
    assert run_lasso(u, w, 0.5).status is Status.ACCEPTED


def test_union_with_empty_automaton_keeps_positives(fixtures):
    # the empty component never rejects, so rejection mass of the other
    # component survives in the product and acceptance can only grow
    m = fixtures["lang_a_omega"]
    u = union(m, empty_automaton(m.alphabet))
    assert validate(u) == []
    w = LassoWord("", "a")
    original = run_lasso(m, w, 0.6)
    combined = run_lasso(u, w, 0.6)
    assert combined.status is original.status is Status.ACCEPTED
    assert combined.acc_lower >= original.acc_lower - 1e-12
    assert combined.rej_lower == 0.0


def test_union_first_step_increments_combine(fixtures):
    m1 = fixtures["lang_a_prefix"]
    m2 = fixtures["lang_a_omega"]
    u = union(m1, m2)
    r1 = run_prefix(m1, "b")[0]
    r2 = run_prefix(m2, "b")[0]
    ru = run_prefix(u, "b")[0]
    a1, a2 = r1.alpha, r2.alpha
    assert ru.alpha == pytest.approx(a1 + a2 - a1 * a2, abs=1e-12)
    assert ru.rho == pytest.approx(r1.rho * r2.rho, abs=1e-12)


def test_union_conserves_norm(fixtures):
    u = union(fixtures["lang_a_prefix"], fixtures["lang_ab_cycle"])
    for rec in run_prefix(u, "abbaab"):
        assert abs(1.0 - rec.acc - rec.rej - rec.nonhalt_norm_sq) <= 1e-9


# ROADMAP item 14: in the product, mass that one component would measure
# away at a rejecting state goes on evolving while the other component's
# state does not halt, so the union accepts words that neither component
# accepts. The pairs share one word, ("", "b") at cutpoint 0.5.
UNION_COUNTEREXAMPLES = [
    ("lang_a_omega", "reject_all", {"lang_a_omega": "rej-limit-refuted",
                                    "reject_all": "buchi-refuted"}),
    ("lang_a_prefix", "lang_a_prefix", {"lang_a_prefix": "rej-limit-refuted"}),
]


@pytest.mark.parametrize("left,right,reasons", UNION_COUNTEREXAMPLES,
                         ids=[f"{a}-{b}" for a, b, _ in UNION_COUNTEREXAMPLES])
def test_union_counterexample_components_reject(fixtures, left, right, reasons):
    for name in (left, right):
        v = run_lasso(fixtures[name], LassoWord("", "b"), 0.5)
        assert (v.status, v.reason) == (Status.REJECTED, reasons[name])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the union accepts words that "
                   "neither component accepts (acc 1.0 and 0.753)")
@pytest.mark.parametrize("left,right,reasons", UNION_COUNTEREXAMPLES,
                         ids=[f"{a}-{b}" for a, b, _ in UNION_COUNTEREXAMPLES])
def test_union_rejects_a_word_that_both_components_reject(fixtures, left, right, reasons):
    u = union(fixtures[left], fixtures[right])
    assert run_lasso(u, LassoWord("", "b"), 0.5).status is Status.REJECTED


def _short_lassos(symbols):
    """Every lasso with |u| <= 1 and 1 <= |v| <= 2 over symbols."""
    prefixes = ["", *symbols]
    cycles = [*symbols, *("".join(v) for v in itertools.product(symbols, repeat=2))]
    return [LassoWord(u, v) for u in prefixes for v in cycles]


def _union_keeps_accepted_words(m1, m2, cutpoints):
    """Assert that the union accepts every short lasso that m1 or m2
    accepts, all at one budget, and return how many such words there were."""
    u, count = union(m1, m2), 0
    for w, p in itertools.product(_short_lassos(sorted(m1.alphabet)), cutpoints):
        if any(run_lasso(m, w, p, max_periods=32).status is Status.ACCEPTED for m in (m1, m2)):
            count += 1
            assert run_lasso(u, w, p, max_periods=32).status is Status.ACCEPTED, (w, p)
    return count


def test_union_accepts_every_word_that_a_component_accepts(fixtures):
    # the direction of item 14 that holds, sampled, not proved: fixture pairs
    # with one alphabet, and pairs of Haar automata of dimension 3-5 with
    # one accepting and one rejecting state each
    accepted = 0
    for n1, n2 in itertools.combinations_with_replacement(FIXTURE_NAMES, 2):
        m1, m2 = fixtures[n1], fixtures[n2]
        if set(m1.alphabet) == set(m2.alphabet):
            accepted += _union_keeps_accepted_words(m1, m2, (0.5, 0.6, 0.8, 0.9))
    rng = np.random.default_rng(14)

    def haar_automaton():
        dim = int(rng.integers(3, 6))
        acc, rej = rng.choice(np.arange(1, dim), size=2, replace=False).tolist()
        return Mmqba(tuple(f"s{i}" for i in range(dim)), ("a", "b"),
                     {s: haar_unitary(rng, dim) for s in "ab"}, 0,
                     frozenset([acc]), frozenset([rej]))

    for _ in range(40):
        accepted += _union_keeps_accepted_words(haar_automaton(), haar_automaton(),
                                                (0.3, 0.5, 0.7))
    assert accepted > 1000


def test_empty_automaton_rejects_everything():
    m = empty_automaton({"a", "b"})
    assert m.dim == 2
    assert validate(m) == []
    for sym in m.alphabet:
        assert np.array_equal(m.unitary_for(sym), np.eye(2))
    vd = run_lasso(m, LassoWord("ab", "ba"), 0.1)
    assert vd.status is Status.REJECTED
    assert vd.reason == "buchi-refuted"
    assert vd.visit_count == 0


def test_empty_automaton_requires_symbols():
    with pytest.raises(ValueError):
        empty_automaton([])
    # the same alphabet rule as finite_language_mmqfa, instead of an
    # automaton that fails validate
    for alphabet in (["#"], ["ab"]):
        with pytest.raises(ValueError, match="invalid alphabet symbol"):
            empty_automaton(alphabet)


def _all_words(symbols, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


@pytest.mark.parametrize(
    "language",
    [{"ab"}, {"a", "aa"}, set(), {""}],
    ids=["ab", "a-aa", "empty", "epsilon"],
)
def test_finite_language_membership(language):
    m = finite_language_mmqfa(language, {"a", "b"})
    assert isinstance(m, Mmqfa)
    assert validate(m) == []
    depth = max((len(w) for w in language), default=0)
    for word in _all_words(("a", "b"), depth + 2):
        acc, rej = run_mmqfa(m, word)
        assert acc + rej == 1.0
        assert acc == (1.0 if word in language else 0.0)


def test_finite_language_unitaries_are_permutations():
    m = finite_language_mmqfa({"ab", "b"}, {"a", "b"})
    mats = [m.unitary_for(sym) for sym in m.alphabet] + [m.terminal_unitary]
    for u in mats:
        assert np.array_equal(u, u.astype(bool).astype(complex))
        assert (u.sum(axis=0) == 1.0).all()
        assert (u.sum(axis=1) == 1.0).all()


def test_finite_language_rejects_bad_input():
    with pytest.raises(ValueError):
        finite_language_mmqfa({"ab"}, set())
    with pytest.raises(ValueError):
        finite_language_mmqfa({"ac"}, {"a", "b"})
    with pytest.raises(ValueError):
        finite_language_mmqfa(set(), {"#"})


@pytest.mark.parametrize("successors", [[1, 1], [3, None]], ids=["same-target", "own-sink"])
def test_sink_permutation_requires_injective_targets(successors):
    # state 1's own sink is 2 + 1 = 3, which state 0 already takes
    with pytest.raises(ValueError, match="partial permutation is not injective"):
        _sink_permutation(successors, 4)


def test_restriction_matches_original_on_its_lasso(fixtures):
    m = fixtures["lang_a_prefix"]
    w = LassoWord("aaa", "b")
    r = restrict_to_lasso(m, w)
    assert validate(r) == []
    vd_m = run_lasso(m, w, 0.8, max_periods=64)
    vd_r = run_lasso(r, w, 0.8, max_periods=64)
    assert vd_r.status is vd_m.status is Status.ACCEPTED
    assert vd_r.acc_lower == pytest.approx(vd_m.acc_lower, abs=1e-12)
    assert vd_r.rej_lower == pytest.approx(vd_m.rej_lower, abs=1e-12)


def test_restriction_rejects_deviating_words(fixtures):
    r = restrict_to_lasso(fixtures["lang_a_omega"], LassoWord("", "a"))
    vd = run_lasso(r, LassoWord("", "b"), 0.1)
    assert vd.status is Status.REJECTED
    # the mismatch measures all remaining mass into rejection at step 1
    rec = run_prefix(r, "b")[0]
    assert rec.rej == pytest.approx(1.0, abs=1e-12)
    assert rec.nonhalt_norm_sq <= 1e-12


def test_restriction_mismatch_can_come_late(fixtures):
    r = restrict_to_lasso(fixtures["lang_ab_cycle"], LassoWord("", "ab"))
    trace = run_prefix(r, "abab" + "a" + "a")
    assert trace[-1].nonhalt_norm_sq <= 1e-12
    assert trace[3].nonhalt_norm_sq > 0.1


def test_restriction_normalizes_rotated_lassos(fixtures):
    m = fixtures["lang_ab_cycle"]
    r1 = restrict_to_lasso(m, LassoWord("a", "ba"))
    r2 = restrict_to_lasso(m, LassoWord("", "ab"))
    assert r1.dim == r2.dim
    for sym in m.alphabet:
        assert np.array_equal(r1.unitary_for(sym), r2.unitary_for(sym))


def test_restriction_checks_symbols(fixtures):
    with pytest.raises(ValueError):
        restrict_to_lasso(fixtures["no_entry"], LassoWord("", "b"))


# Loop versions of the constructions, one product state and one
# permutation column at a time: the reference for the mask-based product
# and the sink permutation.

def _loop_permutation(mapping, dim):
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise ValueError("partial permutation is not injective")
    free = iter(t for t in range(dim) if t not in set(targets))
    m = np.zeros((dim, dim), dtype=np.complex128)
    for src in range(dim):
        m[mapping[src] if src in mapping else next(free), src] = 1.0
    return m


def _loop_names(names1, names2):
    return tuple(f"({n1},{n2})" for n1 in names1 for n2 in names2)


def _loop_union(m1, m2):
    if set(m1.alphabet) != set(m2.alphabet):
        raise ValueError("union requires identical alphabets")
    d2 = m2.dim
    unitaries = {s: tensor(m1.unitary_for(s), m2.unitary_for(s)) for s in m1.alphabet}
    end = None
    if m1.end_marker_unitary is not None or m2.end_marker_unitary is not None:
        end = tensor(m1.unitary_for("#"), m2.unitary_for("#"))
    accepting, rejecting = set(), set()
    for q1 in range(m1.dim):
        for q2 in range(d2):
            if q1 in m1.accepting or q2 in m2.accepting:
                accepting.add(q1 * d2 + q2)
            elif q1 in m1.rejecting and q2 in m2.rejecting:
                rejecting.add(q1 * d2 + q2)
    return Mmqba(_loop_names(m1.state_names, m2.state_names), tuple(m1.alphabet),
                 unitaries, m1.initial * d2 + m2.initial, frozenset(accepting),
                 frozenset(rejecting), end)


def _loop_restrict(m, w):
    for ch in w.prefix + w.cycle:
        if ch not in set(m.alphabet):
            raise ValueError(f"symbol {ch!r} is not in the automaton alphabet")
    u, v = _normalize_lasso(w.prefix, w.cycle)
    live = len(u) + len(v)
    expected = u + v
    matchers = {}
    for sym in m.alphabet:
        mapping = {}
        for i in range(live):
            advance = i + 1 if i < live - 1 else len(u)
            mapping[i] = advance if expected[i] == sym else live + i
        matchers[sym] = _loop_permutation(mapping, 2 * live)
    names = [f"m{i}" for i in range(live)] + [f"d{i}" for i in range(live)]
    unitaries = {sym: tensor(matchers[sym], m.unitary_for(sym)) for sym in m.alphabet}
    end = None
    if m.end_marker_unitary is not None:
        end = tensor(np.eye(2 * live, dtype=np.complex128), m.end_marker_unitary)
    accepting, rejecting = set(), set()
    for k in range(2 * live):
        for q in range(m.dim):
            idx = k * m.dim + q
            if k >= live:
                rejecting.add(idx)
            elif q in m.accepting:
                accepting.add(idx)
            elif q in m.rejecting:
                rejecting.add(idx)
    return Mmqba(_loop_names(names, m.state_names), tuple(m.alphabet), unitaries,
                 m.initial, frozenset(accepting), frozenset(rejecting), end)


def _loop_finite_language(words, alphabet):
    symbols = tuple(sorted(set(alphabet)))
    language = sorted(set(words))
    depth = max((len(w) for w in language), default=0)
    nodes, level = [""], [""]
    for _ in range(depth):
        level = [s + c for s in level for c in symbols]
        nodes.extend(level)
    index = {s: i for i, s in enumerate(nodes)}
    n = len(nodes)
    reject_of = {s: n + i for i, s in enumerate(nodes)}
    accept_of = {w: 2 * n + i for i, w in enumerate(language)}
    dim = 2 * n + len(language)
    unitaries = {}
    for sym in symbols:
        mapping = {}
        for s in nodes:
            mapping[index[s]] = index[s + sym] if len(s) < depth else reject_of[s]
        unitaries[sym] = _loop_permutation(mapping, dim)
    terminal = _loop_permutation(
        {index[s]: accept_of.get(s, reject_of[s]) for s in nodes}, dim)
    names = ([f"s_{s}" for s in nodes] + [f"r_{s}" for s in nodes]
             + [f"acc_{w}" for w in language])
    return Mmqfa(tuple(names), symbols, unitaries, 0, frozenset(accept_of.values()),
                 frozenset(reject_of.values()), terminal_unitary=terminal)


def _random_automaton(rng, valid):
    """Haar dynamics on 2-4 states, with an end marker half the time. An
    invalid one has overlapping halting sets, a halting initial state and
    out-of-range halting indices."""
    dim = int(rng.integers(2, 5))
    end = haar_unitary(rng, dim) if rng.random() < 0.5 else None
    if valid:
        order = rng.permutation(np.arange(1, dim))
        k = int(rng.integers(0, dim))
        split = int(rng.integers(0, k + 1))
        accepting, rejecting = order[:split], order[split:k]
    else:
        inside = rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False)
        accepting = [*inside, dim + int(rng.integers(0, 3)), -1]
        rejecting = [inside[0], *rng.choice(dim + 3, size=dim, replace=False)]
    return Mmqba(tuple(f"s{i}" for i in range(dim)), ("a", "b"),
                 {s: haar_unitary(rng, dim) for s in "ab"},
                 0 if valid else int(rng.integers(0, dim)),
                 frozenset(int(i) for i in accepting), frozenset(int(i) for i in rejecting),
                 end)


def _lassos():
    for u in ("", "a", "b", "ab", "ba", "aab"):
        for v in ("a", "b", "ab", "ba", "abb", "aba"):
            yield LassoWord(u, v)


def _same_bits(got, want):
    assert tuple(got.state_names) == tuple(want.state_names)
    assert tuple(got.alphabet) == tuple(want.alphabet)
    assert (got.initial, got.accepting, got.rejecting) == (
        want.initial, want.accepting, want.rejecting)
    pairs = [(got.unitaries[s], want.unitaries[s]) for s in want.alphabet]
    pairs.append((got.end_marker_unitary, want.end_marker_unitary))
    for g, w in pairs:
        assert (g is None) == (w is None)
        if w is not None:
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_union_matches_loop_reference_on_fixtures(fixtures):
    for n1, n2 in itertools.product(FIXTURE_NAMES, FIXTURE_NAMES):
        m1, m2 = fixtures[n1], fixtures[n2]
        if set(m1.alphabet) != set(m2.alphabet):
            continue
        assert saves(union(m1, m2)) == saves(_loop_union(m1, m2)), (n1, n2)
    for name in FIXTURE_NAMES:
        m, empty = fixtures[name], empty_automaton(fixtures[name].alphabet)
        assert saves(union(m, empty)) == saves(_loop_union(m, empty)), name
        assert saves(union(empty, m)) == saves(_loop_union(empty, m)), name


def test_restriction_matches_loop_reference_on_fixtures(fixtures):
    for name in FIXTURE_NAMES:
        m = fixtures[name]
        for w in _lassos():
            if set(w.prefix + w.cycle) <= set(m.alphabet):
                _same_bits(restrict_to_lasso(m, w), _loop_restrict(m, w))
        # bit-equal fields give equal documents; pin the text on short lassos
        for w in (LassoWord("", "a"), LassoWord("ab", "a")):
            if set(w.prefix + w.cycle) <= set(m.alphabet):
                assert saves(restrict_to_lasso(m, w)) == saves(_loop_restrict(m, w)), (name, w)


@pytest.mark.parametrize("alphabet", [{"a"}, {"a", "b"}, {"a", "b", "c"}])
def test_finite_language_matches_loop_reference(alphabet):
    languages = [set(), {""}, {"a"}, {"aaa"}, {"a", "aa"}, {"ab", "b"}, {"ba", "ab", ""},
                 {"abc", "c"}]
    for language in languages:
        if set("".join(language)) <= alphabet:
            got = finite_language_mmqfa(language, alphabet)
            want = _loop_finite_language(language, alphabet)
            assert saves(got) == saves(want), language
            assert got.terminal_unitary.tobytes() == want.terminal_unitary.tobytes()


def test_constructions_match_loop_reference_on_haar_automata():
    rng = np.random.default_rng(5)
    for _ in range(12):
        m1, m2 = _random_automaton(rng, True), _random_automaton(rng, True)
        assert validate(m1) == validate(m2) == []
        assert saves(union(m1, m2)) == saves(_loop_union(m1, m2))
        for w in (LassoWord("", "a"), LassoWord("ab", "ba")):
            assert saves(restrict_to_lasso(m1, w)) == saves(_loop_restrict(m1, w))
        for w in _lassos():
            _same_bits(restrict_to_lasso(m2, w), _loop_restrict(m2, w))


def test_constructions_match_loop_reference_on_invalid_halting_sets():
    # out-of-range indices drop out of the product and a state in both
    # halting sets accepts, as in the loops
    rng = np.random.default_rng(6)
    for _ in range(12):
        m1, m2 = _random_automaton(rng, False), _random_automaton(rng, False)
        assert m1.accepting & m1.rejecting and max(m1.accepting) >= m1.dim
        _same_bits(union(m1, m2), _loop_union(m1, m2))
        _same_bits(union(m2, m1), _loop_union(m2, m1))
        for w in _lassos():
            _same_bits(restrict_to_lasso(m1, w), _loop_restrict(m1, w))


def test_restrict_to_lasso_does_not_load_the_lasso_engine():
    # constructions needs no type of semantics: a lasso is its two strings
    code = (
        "import sys, types\n"
        "from qbuchi.constructions import restrict_to_lasso\n"
        "from qbuchi.fixtures import load_fixture\n"
        "m = restrict_to_lasso(load_fixture('lang_a_prefix'),"
        " types.SimpleNamespace(prefix='aa', cycle='a'))\n"
        "assert m.dim == 2 * load_fixture('lang_a_prefix').dim, m.dim\n"
        "assert 'qbuchi.semantics' not in sys.modules\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
