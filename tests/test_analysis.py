import dataclasses

import numpy as np
import pytest

from qbuchi.analysis import (
    DecompositionReport,
    LimitEstimate,
    NoEntryReport,
    decompose_nonhalting,
    estimate_limit,
    is_sigma_cycle_subspace,
    no_entry_check,
    verify_decomposition,
    _canonical,
    _outside,
    _random_member,
)
from qbuchi.automata import _Kernel, _encode_matrix, _json_text
from qbuchi.numerics import SubspaceBasis, null_space
from qbuchi.semantics import LassoWord, StepRecord, _norm_sq, run_lasso, run_prefix

from conftest import haar_unitary, make_automaton, planted_automaton, two_block_automaton

# (s1 dim, s2 dim, chain length) worked out by hand for every fixture
EXPECTED_SPLITS = {
    "lang_a_prefix": (0, 1, 2),
    "lang_a_omega": (0, 1, 2),
    "lang_ab_cycle": (0, 2, 2),
    "lang_inf_a": (0, 2, 3),
    "lang_aab_cycle": (0, 3, 2),
    "no_entry": (2, 0, 1),
    "swap_halt_once": (0, 1, 2),
    "reject_all": (1, 0, 1),
    "finite_ab": (0, 7, 4),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_SPLITS))
def test_decomposition_dims(fixtures, name):
    d = decompose_nonhalting(fixtures[name])
    assert (d.s1.dim, d.s2.dim, d.chain_length) == EXPECTED_SPLITS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_SPLITS))
def test_decomposition_structure(fixtures, name):
    a = fixtures[name]
    d = decompose_nonhalting(a)
    nonhalt = len(a.nonhalting)
    assert d.s1.dim + d.s2.dim == nonhalt
    assert d.chain_length <= a.dim + 1
    assert d.chain_dims[0] == nonhalt
    # the chain never grows
    assert all(x >= y for x, y in zip(d.chain_dims, d.chain_dims[1:]))
    # s1 is orthogonal to s2
    if d.s1.dim and d.s2.dim:
        overlap = np.abs(d.s1.vectors.conj() @ d.s2.vectors.T)
        assert overlap.max() < 1e-10
    # s1 is invariant under every symbol
    if d.s1.dim:
        p1 = d.s1.projector()
        for sym in a.alphabet:
            v = a.unitary_for(sym)
            image = v @ d.s1.vectors.T
            assert np.abs(image - p1 @ image).max() < 1e-10


def test_decomposition_of_two_block():
    d = decompose_nonhalting(two_block_automaton())
    assert (d.s1.dim, d.s2.dim) == (2, 1)
    assert d.chain_dims == (3, 2, 2)
    assert d.chain_length == 2


def test_decomposition_without_halting_states():
    c, s = np.cos(1.0), np.sin(1.0)
    a = make_automaton({"a": [[c, -s], [s, c]]}, accepting=[], rejecting=[])
    d = decompose_nonhalting(a)
    assert (d.s1.dim, d.s2.dim, d.chain_length) == (2, 0, 1)


def test_decomposition_of_fully_halting_automaton():
    a = make_automaton({"a": np.eye(2)}, accepting=[0], rejecting=[1], initial=0)
    d = decompose_nonhalting(a)
    assert (d.s1.dim, d.s2.dim, d.chain_length) == (0, 0, 1)


def _svd_chain(a):
    """The descending chain that found S1 before the closure did: W_0 is
    the non-halting span, and W_k+1 keeps the vectors of W_k that every
    symbol unitary maps back into W_k, found from one SVD of the stacked
    parts that leave W_k. Returns the chain's dimensions and S1's projector."""
    w = SubspaceBasis.from_indices(a.nonhalting, a.dim)
    dims = [w.dim]
    while True:
        refined = w
        if w.dim:
            blocks = [_outside(w, a.unitary_for(s) @ w.vectors.T) for s in sorted(a.alphabet)]
            refined = SubspaceBasis(null_space(np.vstack(blocks)).vectors @ w.vectors, a.dim)
        dims.append(refined.dim)
        if refined.dim == w.dim:
            return tuple(dims), refined.projector()
        w = refined


def _haar_automaton(rng, dim):
    """Haar unitaries for one to three symbols and a random halting set,
    split at random between accepting and rejecting."""
    halting = rng.permutation(dim)[: int(rng.integers(0, dim + 1))]
    n_acc = int(rng.integers(0, len(halting) + 1))
    return make_automaton({s: haar_unitary(rng, dim) for s in "abc"[: int(rng.integers(1, 4))]},
                          accepting=halting[:n_acc].tolist(), rejecting=halting[n_acc:].tolist())


def _differential_cases():
    from qbuchi.fixtures import list_fixtures, load_fixture

    import conftest

    cases = [(name, lambda name=name: load_fixture(name)) for name in list_fixtures()]
    cases += [(name, getattr(conftest, name)) for name in sorted(vars(conftest))
              if name.endswith("_automaton") and name not in ("make_automaton", "planted_automaton")]
    for dim in range(3, 13):
        cases += [(f"haar{dim}-{k}", lambda dim=dim, k=k: _haar_automaton(
            np.random.default_rng([dim, k]), dim)) for k in range(3)]
        cases += [(f"planted{dim}-{inv}", lambda dim=dim, inv=inv: planted_automaton(
            np.random.default_rng([dim, inv]), dim, inv, "abc"[: 1 + inv % 3]))
            for inv in range(1, dim - 1)]
    return cases


DIFFERENTIAL_CASES = dict(_differential_cases())


@pytest.mark.parametrize("make", list(DIFFERENTIAL_CASES.values()), ids=list(DIFFERENTIAL_CASES))
def test_closure_matches_the_svd_chain(make):
    a = make()
    d = decompose_nonhalting(a)
    dims, p1 = _svd_chain(a)
    assert (d.chain_dims, d.chain_length) == (dims, len(dims) - 1)
    assert (d.s1.dim, d.s2.dim) == (dims[-1], len(a.nonhalting) - dims[-1])
    assert np.abs(d.s1.projector() - p1).max(initial=0.0) <= 1e-12
    p2 = SubspaceBasis.from_indices(a.nonhalting, a.dim).projector() - p1
    assert np.abs(d.s2.projector() - p2).max(initial=0.0) <= 1e-12


def _random_span(rng, dim, kind):
    """An orthonormal basis (one vector a row) of a random subspace of
    dimension 1 to dim - 1: Haar, Fourier rows, or coordinate vectors tilted
    by small Haar rotations."""
    k = int(rng.integers(1, dim))
    if kind == "haar":
        return haar_unitary(rng, dim)[:k]
    if kind == "fourier":
        rows = np.sort(rng.permutation(dim)[:k])
        return np.exp(2j * np.pi * np.outer(rows, np.arange(dim)) / dim) / np.sqrt(dim)
    tilt = haar_unitary(rng, dim)
    tilt = np.linalg.qr(np.eye(dim) + 0.3 * (tilt - np.eye(dim)))[0]
    return (tilt @ np.eye(dim)[np.sort(rng.permutation(dim)[:k])].T).T


@pytest.mark.parametrize("kind", ["haar", "fourier", "tilted"])
def test_canonical_basis_spans_the_range_with_real_pivots(kind):
    rng = np.random.default_rng(["haar", "fourier", "tilted"].index(kind))
    for dim in range(4, 41):
        for _ in range(20):
            b = _random_span(rng, dim, kind)
            p = b.T @ b.conj()
            rows = _canonical(p).vectors
            assert rows.shape == b.shape
            assert np.abs(rows @ rows.conj().T - np.eye(len(rows))).max() <= 1e-12
            assert np.abs(rows.T @ rows.conj() - p).max() <= 1e-12
            # a row's pivot is its first entry above 1/(e dim) in square,
            # and the later rows vanish there
            pivots = [int(np.argmax(np.abs(r) ** 2 > np.exp(-1.0) / dim)) for r in rows]
            assert pivots == sorted(set(pivots))
            for i, j in enumerate(pivots):
                assert rows[i, j].real > 0.0 and abs(rows[i, j].imag) <= 1e-15
                assert np.abs(rows[i + 1:, j]).max(initial=0.0) <= 1e-12


def test_canonical_basis_depends_only_on_the_subspace():
    rng = np.random.default_rng(12)
    for dim in range(4, 41, 3):
        for kind in ("haar", "fourier", "tilted"):
            b = _random_span(rng, dim, kind)
            turned = haar_unitary(rng, len(b)) @ b
            one, other = (_canonical(x.T @ x.conj()).vectors for x in (b, turned))
            assert np.abs(one - other).max() <= 1e-12


def test_canonical_basis_of_a_span_with_a_rational_residual():
    # in the span of Fourier rows 0 and 1 at dimension 6, column 1 leaves a
    # squared residual of exactly 1/12 = 1/(2 dim) after column 0, so a
    # bound of 1/(2 dim) would let rounding decide whether it joins
    rng = np.random.default_rng(3)
    b = np.exp(2j * np.pi * np.outer([0, 1], np.arange(6)) / 6) / np.sqrt(6)
    want = _canonical(b.T @ b.conj()).vectors
    for _ in range(20):
        turned = haar_unitary(rng, 2) @ b
        assert np.abs(_canonical(turned.T @ turned.conj()).vectors - want).max() <= 1e-12


def test_canonical_basis_of_coordinate_vectors_is_those_vectors():
    # negated coordinate rows put -0 into the projector
    rows = -np.eye(6, dtype=complex)[[4, 1, 3]]
    got = _canonical(rows.T @ rows.conj()).vectors
    assert np.array_equal(got, np.eye(6)[[1, 3, 4]])
    assert "-0" not in _json_text(_encode_matrix(got))


def test_s1_runs_never_halt(fixtures):
    rep = verify_decomposition(
        fixtures["no_entry"], decompose_nonhalting(fixtures["no_entry"]),
        word_len=200, trials=20, seed=5,
    )
    assert rep.s1_trials == 20
    assert rep.s1_max_cumulative_halting <= 1e-12
    assert rep.s1_max_subspace_residual <= 1e-9
    assert rep.s2_trials == 0


def test_s2_runs_drain(fixtures):
    a = fixtures["lang_ab_cycle"]
    rep = verify_decomposition(a, decompose_nonhalting(a), word_len=300, trials=10, seed=1)
    assert rep.s2_trials == 10
    assert rep.s1_trials == 0
    for trajectory in rep.s2_norm_sq_trajectories:
        assert trajectory[-1] <= 1e-12
        # norms never grow along a run
        assert all(x >= y - 1e-12 for x, y in zip(trajectory, trajectory[1:]))


def test_mixed_increments_split_additively():
    a = two_block_automaton()
    rep = verify_decomposition(a, decompose_nonhalting(a), word_len=150, trials=25, seed=9)
    assert rep.s1_trials == rep.s2_trials == 25
    assert rep.s1_max_cumulative_halting <= 1e-12
    assert rep.mixed_max_increment_deviation <= 1e-12
    assert isinstance(rep, DecompositionReport)


def test_verify_decomposition_is_seeded(fixtures):
    a = fixtures["lang_ab_cycle"]
    d = decompose_nonhalting(a)
    r1 = verify_decomposition(a, d, word_len=50, trials=5, seed=3)
    r2 = verify_decomposition(a, d, word_len=50, trials=5, seed=3)
    assert r1 == r2


@pytest.mark.parametrize("name,bad", [("word_len", -1), ("trials", -3), ("trials", 2.5)])
def test_verify_decomposition_validates_counts(fixtures, name, bad):
    # 0 is a valid count of either (test_block_verify_matches_three_loops)
    a = fixtures["lang_ab_cycle"]
    with pytest.raises(ValueError, match=f"{name} must be an integer of at least 0"):
        verify_decomposition(a, decompose_nonhalting(a), **{"word_len": 5, "trials": 2, name: bad})


def test_block_step_matches_vector_steps():
    rng = np.random.default_rng(41)
    for dim in range(3, 9):
        for n_cols in range(0, 6):
            halting = rng.permutation(dim)[: int(rng.integers(1, dim))]
            n_acc = int(rng.integers(0, len(halting) + 1))
            alphabet = "abc"[: int(rng.integers(1, 4))]
            a = make_automaton({s: haar_unitary(rng, dim) for s in alphabet},
                               accepting=halting[:n_acc].tolist(),
                               rejecting=halting[n_acc:].tolist())
            kernel = _Kernel(a)
            block = rng.normal(size=(dim, n_cols)) + 1j * rng.normal(size=(dim, n_cols))
            for _ in range(4):
                which = rng.integers(0, len(alphabet), size=n_cols)
                given = block.copy()
                new, amps = kernel.amplitudes_each(block, which)
                assert np.array_equal(block, given)  # the input is not written
                assert new.shape == block.shape and amps.shape == (len(halting), n_cols)
                probs = amps.real * amps.real + amps.imag * amps.imag
                n = kernel.n_acc
                for c in range(n_cols):
                    v_new, alpha, rho = kernel.apply(block[:, c], alphabet[which[c]])
                    assert np.allclose(new[:, c], v_new, rtol=0.0, atol=1e-12)
                    assert alpha == pytest.approx(probs[:n, c].sum(), abs=1e-12)
                    assert rho == pytest.approx(probs[n:, c].sum(), abs=1e-12)
                    assert type(alpha) is float and type(rho) is float
                block = new


def _three_loop_verify(a, d, word_len, trials, seed):
    """verify_decomposition as three vector runs per trial: the reference
    for the single block run."""
    symbols = sorted(a.alphabet)
    kernel = _Kernel(a)

    def evolve(psi, word):
        increments, norms_sq = [], []
        for sym in word:
            psi, alpha, rho = kernel.apply(psi, sym)
            increments.append(alpha + rho)
            norms_sq.append(_norm_sq(psi))
        return increments, norms_sq

    s1_halting = s1_residual = mixed_dev = 0.0
    s1_trials = s2_trials = 0
    trajectories = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        word = [symbols[i] for i in rng.integers(0, len(symbols), size=word_len)]
        if d.s1.dim:
            s1_trials += 1
            psi = _random_member(d.s1, rng)
            cumulative = 0.0
            for sym in word:
                psi, alpha, rho = kernel.apply(psi, sym)
                cumulative += alpha + rho
                s1_residual = max(s1_residual, float(np.linalg.norm(psi - d.s1.project(psi))))
            s1_halting = max(s1_halting, cumulative)
        if d.s2.dim:
            s2_trials += 1
            v2 = _random_member(d.s2, rng)
            inc2, norms2 = evolve(v2, word)
            trajectories.append(tuple(norms2))
            v1 = _random_member(d.s1, rng) if d.s1.dim else np.zeros(a.dim, dtype=complex)
            inc_mix, _ = evolve(v1 + v2, word)
            dev = max((abs(x - y) for x, y in zip(inc_mix, inc2)), default=0.0)
            mixed_dev = max(mixed_dev, dev)
    return DecompositionReport(trials, word_len, s1_trials, s1_halting, s1_residual,
                               s2_trials, tuple(trajectories), mixed_dev)


def _three_symbol_automaton():
    return planted_automaton(np.random.default_rng(6), 9, 4, "abc")


def _assert_reports_agree(new, old, trials=None):
    """new and old agree field by field within 1e-12; with trials given,
    only new's first trials trajectories are compared, and new's maxima
    bound old's."""
    assert (new.word_len, new.s1_trials > 0, new.s2_trials > 0) == (
        old.word_len, old.s1_trials > 0, old.s2_trials > 0)
    for field in ("s1_max_cumulative_halting", "s1_max_subspace_residual",
                  "mixed_max_increment_deviation"):
        if trials is None:
            assert getattr(new, field) == pytest.approx(getattr(old, field), abs=1e-12)
        else:
            assert getattr(old, field) <= getattr(new, field) + 1e-12
    trajectories = new.s2_norm_sq_trajectories[:trials]
    assert len(trajectories) == len(old.s2_norm_sq_trajectories)
    for x, y in zip(trajectories, old.s2_norm_sq_trajectories):
        assert len(x) == len(y) == new.word_len
        assert np.allclose(x, y, rtol=0.0, atol=1e-12)
        assert all(type(v) is float for v in x)


@pytest.mark.parametrize("which", ["two_block", "planted", "s1_only", "s2_only",
                                   "three_symbols"])
def test_block_verify_matches_three_loops(fixtures, which):
    a = {
        "two_block": lambda: two_block_automaton(),
        "planted": lambda: planted_automaton(np.random.default_rng(5), 8, 3),
        "s1_only": lambda: fixtures["no_entry"],
        "s2_only": lambda: fixtures["lang_ab_cycle"],
        "three_symbols": _three_symbol_automaton,
    }[which]()
    d = decompose_nonhalting(a)
    # a single trial steps every column by one symbol, so at most steps
    # some symbol has no column; no trial leaves the block without columns
    for word_len, trials, seed in ((120, 6, 4), (0, 2, 1), (90, 1, 2), (5, 0, 3)):
        new = verify_decomposition(a, d, word_len=word_len, trials=trials, seed=seed)
        old = _three_loop_verify(a, d, word_len, trials, seed)
        assert (new.trials, new.s1_trials, new.s2_trials) == (
            old.trials, old.s1_trials, old.s2_trials)
        _assert_reports_agree(new, old)


@pytest.mark.parametrize("make", [two_block_automaton, _three_symbol_automaton],
                         ids=["two_block", "three_symbols"])
def test_verify_trials_are_independent(make):
    a = make()
    d = decompose_nonhalting(a)
    assert d.s1.dim and d.s2.dim
    n = verify_decomposition(a, d, word_len=80, trials=7, seed=11)
    for k in (1, 3):
        _assert_reports_agree(n, verify_decomposition(a, d, word_len=80, trials=k, seed=11), k)


def test_is_sigma_cycle_subspace(fixtures):
    no_entry = fixtures["no_entry"]
    inside = SubspaceBasis.from_indices([0, 2], 3)
    assert is_sigma_cycle_subspace(no_entry, inside, "a")
    ab = fixtures["lang_ab_cycle"]
    assert not is_sigma_cycle_subspace(ab, SubspaceBasis.from_indices([0, 1], 4), "a")
    assert is_sigma_cycle_subspace(
        two_block_automaton(), SubspaceBasis.from_indices([0, 1], 5), "a"
    )


def test_no_entry_residuals_on_fixture(fixtures):
    rep = no_entry_check(fixtures["no_entry"], SubspaceBasis.from_indices([0, 2], 3), "a")
    assert isinstance(rep, NoEntryReport)
    assert set(rep.residuals) == {1}
    assert rep.residuals[1] == 0.0
    assert rep.max_residual == 0.0


def test_no_entry_requires_invariance(fixtures):
    ab = fixtures["lang_ab_cycle"]
    with pytest.raises(ValueError):
        no_entry_check(ab, SubspaceBasis.from_indices([0, 1], 4), "a")


def test_no_entry_requires_basis_spanned_subspace(fixtures):
    # 'a' turns the non-halting plane of q0 and q2 by 45 degrees, so its
    # eigenvector (q0 - i q2)/sqrt 2 spans an invariant line of that plane
    # that no computational basis vector spans
    r = 1.0 / np.sqrt(2.0)
    tilted = SubspaceBasis.from_spanning(np.array([[r, 0.0, -1j * r]]))
    with pytest.raises(ValueError, match="subspace is not spanned by computational basis vectors"):
        no_entry_check(fixtures["no_entry"], tilted, "a")


def test_no_entry_requires_nonhalting_subspace(fixtures):
    halting_axis = SubspaceBasis.from_indices([1], 3)  # q1 rejects
    with pytest.raises(ValueError):
        no_entry_check(fixtures["no_entry"], halting_axis, "a")


@pytest.mark.parametrize("check,subspace,message", [
    (is_sigma_cycle_subspace, SubspaceBasis.from_indices([0], 4),
     "subspace ambient dimension does not match the automaton"),
    # invariant under the identity and inside the non-halting span, but tilted
    (no_entry_check, SubspaceBasis.from_spanning(np.array([[1.0, 0.0, 1.0]])),
     "subspace is not spanned by computational basis vectors"),
], ids=["ambient-dimension", "not-basis-spanned"])
def test_subspace_arguments_are_checked(check, subspace, message):
    a = make_automaton({"a": np.eye(3)}, accepting=[], rejecting=[1])
    with pytest.raises(ValueError, match=message):
        check(a, subspace, "a")


def test_no_entry_on_random_block_unitaries():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(25):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        u = np.zeros((k + m, k + m), dtype=complex)
        u[:k, :k] = haar_unitary(rng, k)
        u[k:, k:] = haar_unitary(rng, m)
        perm = rng.permutation(k + m)
        u = u[np.ix_(perm, perm)]
        inside = [int(np.where(perm == i)[0][0]) for i in range(k)]
        a = make_automaton({"a": u}, accepting=[], rejecting=[])
        rep = no_entry_check(a, SubspaceBasis.from_indices(inside, k + m), "a")
        worst = max(worst, rep.max_residual)
    assert worst <= 1e-10


def _geometric_records(alphas, rhos=None):
    rhos = rhos if rhos is not None else [0.0] * len(alphas)
    acc = rej = 0.0
    out = []
    for j, (al, rh) in enumerate(zip(alphas, rhos), start=1):
        acc += al
        rej += rh
        out.append(StepRecord(j, "a", al, rh, acc, rej, max(0.0, 1.0 - acc - rej)))
    return out


def test_estimate_limit_on_synthetic_geometric_series():
    alphas = [0.3 * 0.5 ** k for k in range(8)]
    est = estimate_limit(_geometric_records(alphas), period_len=1)
    assert est.is_geometric
    assert est.ratio == pytest.approx(0.5, abs=1e-12)
    assert est.acc_limit_estimate == pytest.approx(0.6, abs=1e-12)
    assert est.rej_limit_estimate == pytest.approx(0.0, abs=1e-15)
    assert est.acc_bounds[0] <= est.acc_limit_estimate <= est.acc_bounds[1] + 1e-12


def test_estimate_limit_rejects_non_geometric_series():
    est = estimate_limit(_geometric_records([0.1, 0.2, 0.1, 0.2, 0.1]), period_len=1)
    assert not est.is_geometric
    assert est.ratio == 0.0
    # bounds are still reported
    assert est.acc_bounds[0] == pytest.approx(0.7)


def test_estimate_limit_with_a_zero_increment_is_not_geometric():
    # acc grows only every other period: no ratio of increments exists
    est = estimate_limit(_geometric_records([0.2, 0.0, 0.1, 0.0, 0.05]), period_len=1)
    assert not est.is_geometric
    assert est.ratio == 0.0
    assert est.acc_limit_estimate == pytest.approx(0.35)


def test_estimate_limit_converged_series():
    est = estimate_limit(_geometric_records([0.5, 0.0, 0.0, 0.0, 0.0]), period_len=1)
    assert est.is_geometric
    assert est.ratio == 0.0
    assert est.acc_limit_estimate == pytest.approx(0.5)


def test_estimate_limit_validation():
    records = _geometric_records([0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        estimate_limit(records, period_len=1)
    with pytest.raises(ValueError):
        estimate_limit(_geometric_records([0.1] * 8), period_len=0)
    with pytest.raises(ValueError, match="period_len"):
        estimate_limit(_geometric_records([0.1] * 8), period_len=2.5)


def test_estimate_limit_a_prefix(fixtures):
    vd = run_lasso(
        fixtures["lang_a_prefix"], LassoWord("aaa", "b"), 0.8,
        max_periods=8, record_trace=True,
    )
    est = estimate_limit(vd.trace, period_len=1)
    assert est.is_geometric
    assert est.ratio == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert est.acc_limit_estimate == pytest.approx(53.0 / 54.0, abs=1e-12)
    assert est.rej_limit_estimate == pytest.approx(1.0 / 54.0, abs=1e-12)


def test_estimate_limit_a_omega(fixtures):
    tr = run_prefix(fixtures["lang_a_omega"], "a" * 10)
    est = estimate_limit(tr, period_len=1)
    assert est.is_geometric
    assert est.ratio == pytest.approx(0.2, abs=1e-9)
    assert est.acc_limit_estimate == pytest.approx(0.75, abs=1e-12)
    assert est.rej_limit_estimate == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize(
    "name,cycle,period_len,ratio",
    [
        ("lang_ab_cycle", "ab", 2, 9.0 / 25.0),
        ("lang_aab_cycle", "aab", 3, 16.0 / 25.0),
        ("lang_inf_a", "ab", 4, 0.75),
    ],
)
def test_estimate_limit_reaches_one(fixtures, name, cycle, period_len, ratio):
    vd = run_lasso(
        fixtures[name], LassoWord("", cycle), 0.9, max_periods=14,
        record_trace=True,
    )
    est = estimate_limit(vd.trace, period_len=period_len)
    assert est.is_geometric
    assert est.ratio == pytest.approx(ratio, abs=1e-6)
    assert est.acc_limit_estimate == pytest.approx(1.0, abs=1e-9)
    assert est.rej_limit_estimate == 0.0


@pytest.mark.parametrize("periods", [4, 5, 8])
def test_estimate_limit_counts_the_end_marker_mass(fixtures, periods):
    # the end marker rotates q0 onto the accepting q1 by 0.5 rad; the rest
    # accepts 3/4 of its mass over a^omega with ratio 1/5. A trace of
    # exactly four periods must start its first increment from the
    # marker's sums, not from 0
    c, s = np.cos(0.5), np.sin(0.5)
    a = dataclasses.replace(fixtures["lang_a_omega"], end_marker_unitary=np.array(
        [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))
    vd = run_lasso(a, LassoWord("", "a"), 0.3, max_periods=periods, record_trace=True)
    assert len(vd.trace) == periods
    est = estimate_limit(vd.trace, period_len=1)
    assert est.is_geometric
    assert est.ratio == pytest.approx(0.2, abs=1e-9)
    assert est.acc_limit_estimate == pytest.approx(s * s + 0.75 * c * c, abs=1e-12)
    assert est.rej_limit_estimate == pytest.approx(0.25 * c * c, abs=1e-12)


def test_estimate_limit_converged_real_trace(fixtures):
    vd = run_lasso(
        fixtures["lang_ab_cycle"], LassoWord("", "ab"), 0.9, max_periods=60,
        record_trace=True,
    )
    est = estimate_limit(vd.trace, period_len=2)
    assert est.is_geometric
    assert est.ratio == 0.0
    assert est.acc_limit_estimate == pytest.approx(1.0, abs=1e-12)


def test_estimate_agrees_with_long_run(fixtures):
    short = run_lasso(
        fixtures["lang_aab_cycle"], LassoWord("", "aab"), 0.9, max_periods=14,
        record_trace=True,
    )
    est = estimate_limit(short.trace, period_len=3)
    long = run_lasso(fixtures["lang_aab_cycle"], LassoWord("", "aab"), 0.9,
                     max_periods=300)
    assert est.acc_limit_estimate == pytest.approx(long.acc_lower, abs=1e-9)
    assert isinstance(est, LimitEstimate)
