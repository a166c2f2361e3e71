"""Structural analysis of the non-halting space.

The non-halting span splits into a maximal invariant part S1, from which
no halting probability is ever produced, and its orthogonal complement
S2, where norm can only leak toward the halting states. S1's complement
in the whole space is the closure K of the halting span under the adjoint
symbol unitaries (Kalman's observability duality), built breadth first:
level k adds the images U_w† h of halting vectors h under words w of
length k, and the closure ends at the first level that adds nothing.

Also provided: cycle-subspace and no-entry checks for single symbols,
randomized verification of the decomposition properties, and a
geometric-series extrapolation of cumulative probability limits. The
extrapolation is a diagnostic only; acceptance verdicts rely solely on
the monotone bounds from the run functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .automata import Mmqba, _Kernel, _check_count
from .numerics import SubspaceBasis, null_space

if TYPE_CHECKING:  # for annotations only: semantics sits above analysis, which never loads it
    from .semantics import StepRecord

RESIDUAL_TOL = 1e-9
RATIO_TOL = 1e-6
CONVERGED_DELTA = 1e-15


@dataclass(frozen=True)
class Decomposition:
    """Invariant subspace, its complement, and the closure that produced them.

    chain_dims lists dim - dim K after each level of the closure, from the
    halting span alone (level 0) to the first level that adds nothing, so
    the last two entries are equal; chain_length counts the levels after 0.
    The bases are canonical: they depend only on S1 and S2, up to rounding.
    """

    s1: SubspaceBasis
    s2: SubspaceBasis
    chain_length: int
    chain_dims: tuple[int, ...]


def _outside(w: SubspaceBasis, x: np.ndarray) -> np.ndarray:
    """The columns of x with their components in w removed: X - W^T (conj(W) X)."""
    return x - w.vectors.T @ (w.vectors.conj() @ x)


def _canonical(p: np.ndarray) -> SubspaceBasis:
    """The basis of the projector p's range that Gram-Schmidt over p's
    columns in index order gives, each residual orthogonalized twice and
    projected by p: column j joins when its squared residual exceeds
    1/(e dim), scaled so that its entry j is real and positive. A unit range
    vector orthogonal to the rows would have |x_j|^2 <= 1/(e dim) at every
    j, a squared norm below 1, so none is missed; a transcendental bound
    ties with no residual of a projector with algebraic entries."""
    n = p.shape[0]
    least = np.exp(-1.0) / n
    rows = np.empty((n, n), dtype=np.complex128)
    k = 0
    for j in np.flatnonzero(p.diagonal().real > least):
        r = p[:, j]
        for _ in range(2):
            r = r - (rows[:k] @ r.conj()).conj() @ rows[:k]
        r = p @ r
        norm_sq = np.vdot(r, r).real
        if norm_sq > least:
            rows[k] = r * (abs(r[j]) / r[j] / np.sqrt(norm_sq))
            k += 1
    return SubspaceBasis(rows[:k] + 0.0, n)  # + 0.0 writes -0 as 0


def decompose_nonhalting(a: Mmqba) -> Decomposition:
    """Split the non-halting span into its maximal invariant part and the rest."""
    # a row h @ conj(U) is the image U† h of the row h
    adjoints = [a.unitary_for(sym).conj() for sym in sorted(a.alphabet)]
    closure = level = SubspaceBasis.from_indices(a.halting, a.dim).vectors
    dims = [a.dim - len(closure)]
    while len(dims) < 2 or dims[-1] < dims[-2]:
        images = np.vstack([level @ m for m in adjoints])
        for _ in range(2):
            images -= (images @ closure.conj().T) @ closure
        level = SubspaceBasis.from_spanning(images).vectors
        closure = np.vstack([closure, level])
        dims.append(a.dim - len(closure))
    p1 = null_space(closure.conj()).projector()
    p2 = SubspaceBasis.from_indices(a.nonhalting, a.dim).projector() - p1
    return Decomposition(_canonical(p1), _canonical(p2), len(dims) - 1, tuple(dims))


def _require_within_nonhalting(a: Mmqba, s: SubspaceBasis):
    if s.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension does not match the automaton")
    if s.dim and a.halting:
        halting = list(a.halting)
        leak = float(np.max(np.abs(s.vectors[:, halting])))
        if leak > RESIDUAL_TOL:
            raise ValueError(
                f"subspace is not contained in the non-halting span "
                f"(halting component {leak:.3e})"
            )


def is_sigma_cycle_subspace(a: Mmqba, s: SubspaceBasis, symbol: str) -> bool:
    """True iff the symbol's unitary maps the subspace into itself."""
    _require_within_nonhalting(a, s)
    images = a.unitary_for(symbol) @ s.vectors.T
    return not np.any(np.linalg.norm(_outside(s, images), axis=0) > RESIDUAL_TOL)


@dataclass(frozen=True)
class NoEntryReport:
    """Projection norms onto a cycle subspace from each outside basis state."""

    residuals: dict[int, float]
    max_residual: float


def no_entry_check(a: Mmqba, s: SubspaceBasis, symbol: str) -> NoEntryReport:
    """Check that no outside computational basis state maps into the subspace.

    Requires the subspace to be invariant under the symbol and spanned by
    computational basis vectors; reports ||P_s V |r>|| for every basis
    index r outside the subspace.
    """
    if not is_sigma_cycle_subspace(a, s, symbol):
        raise ValueError(f"subspace is not invariant under symbol {symbol!r}")
    proj = s.projector()
    diag = np.real(np.diag(proj))
    off = proj - np.diag(np.diag(proj))
    basis_spanned = float(np.max(np.abs(off), initial=0.0)) <= RESIDUAL_TOL and bool(
        np.all((np.abs(diag) <= RESIDUAL_TOL) | (np.abs(diag - 1.0) <= RESIDUAL_TOL))
    )
    if not basis_spanned:
        raise ValueError("subspace is not spanned by computational basis vectors")
    outside = np.flatnonzero(diag <= 0.5)
    norms = np.linalg.norm(proj @ a.unitary_for(symbol), axis=0)
    residuals = dict(zip(outside.tolist(), norms[outside].tolist()))
    max_residual = max(residuals.values(), default=0.0)
    return NoEntryReport(residuals, max_residual)


def _random_member(s: SubspaceBasis, rng: np.random.Generator) -> np.ndarray:
    parts = rng.normal(size=(2, s.dim))
    coeffs = parts[0] + 1j * parts[1]
    v = coeffs @ s.vectors
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class DecompositionReport:
    trials: int
    word_len: int
    s1_trials: int
    s1_max_cumulative_halting: float
    s1_max_subspace_residual: float
    s2_trials: int
    s2_norm_sq_trajectories: tuple[tuple[float, ...], ...]
    mixed_max_increment_deviation: float


def verify_decomposition(
    a: Mmqba,
    d: Decomposition,
    word_len: int = 500,
    trials: int = 100,
    seed: int = 0,
) -> DecompositionReport:
    """Randomized check of the decomposition's run-time properties.

    Vectors from the invariant part must produce no halting probability
    and must stay inside the subspace at every step. Vectors from the
    complement get their norm trajectory reported. For combined vectors,
    the per-step halting increments must equal those of the complement
    component alone. Each trial derives its own generator from (seed,
    trial index), so trials are reproducible independently: the first k
    trials of a report agree with a k-trial report to the last bits of
    a product. Every trial's three vectors are columns of one block,
    stepped together, each column by its own trial's symbol.
    """
    word_len = _check_count("word_len", word_len, 0)
    trials = _check_count("trials", trials, 0)
    n_symbols = len(a.alphabet)
    kernel = _Kernel(a)
    s1, s2 = d.s1, d.s2
    # the columns: every trial's S1 member, then its S2 member v2, then
    # v1 + v2 for a second S1 member v1; a zero column stands for a
    # trivial part
    psi = np.zeros((a.dim, 3, trials), dtype=np.complex128)
    words = np.empty((trials, word_len), dtype=np.intp)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        words[t] = rng.integers(0, n_symbols, size=word_len)
        if s1.dim:
            psi[:, 0, t] = _random_member(s1, rng)
        if s2.dim:
            psi[:, 1, t] = psi[:, 2, t] = _random_member(s2, rng)
            if s1.dim:
                psi[:, 2, t] += _random_member(s1, rng)
    psi = psi.reshape(a.dim, 3 * trials)
    which = np.tile(words.T, 3)
    increments = np.empty((word_len, 3 * trials))
    norms_sq = np.empty((word_len, trials))
    residuals = np.zeros((word_len, trials))
    for j in range(word_len):
        psi, amps = kernel.amplitudes_each(psi, which[j])
        increments[j] = np.add.reduce(amps.real * amps.real + amps.imag * amps.imag, axis=0)
        v2 = psi[:, trials:2 * trials]
        norms_sq[j] = np.add.reduce(v2.real * v2.real + v2.imag * v2.imag, axis=0)
        if s1.dim:
            residuals[j] = np.linalg.norm(_outside(s1, psi[:, :trials]), axis=0)
    s1_increments, v2_increments, mixed_increments = np.split(increments, 3, axis=1)
    s1_halting = s1_residual = mixed_dev = 0.0
    if s1.dim:
        s1_halting = float(np.max(np.add.reduce(s1_increments, axis=0), initial=0.0))
        s1_residual = float(np.max(residuals, initial=0.0))
    if s2.dim:
        mixed_dev = float(np.max(np.abs(mixed_increments - v2_increments), initial=0.0))
    return DecompositionReport(
        trials=trials,
        word_len=word_len,
        s1_trials=trials if s1.dim else 0,
        s1_max_cumulative_halting=s1_halting,
        s1_max_subspace_residual=s1_residual,
        s2_trials=trials if s2.dim else 0,
        s2_norm_sq_trajectories=tuple(map(tuple, norms_sq.T.tolist())) if s2.dim else (),
        mixed_max_increment_deviation=mixed_dev,
    )


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated cumulative limits; bounds are always sound, the point
    estimates only when is_geometric is true."""

    acc_limit_estimate: float
    rej_limit_estimate: float
    ratio: float
    is_geometric: bool
    acc_bounds: tuple[float, float]
    rej_bounds: tuple[float, float]


def _series_tail(values: list[float]):
    """values: cumulative sums at 5 period boundaries, oldest first.
    Returns (geometric, ratio, tail_sum_estimate)."""
    deltas = [values[i + 1] - values[i] for i in range(4)]
    if max(abs(x) for x in deltas) <= CONVERGED_DELTA:
        return True, 0.0, 0.0
    if any(x <= 0.0 for x in deltas):
        return False, 0.0, 0.0
    ratios = [deltas[i + 1] / deltas[i] for i in range(3)]
    spread = max(ratios) - min(ratios)
    r = sum(ratios) / 3.0
    if spread <= RATIO_TOL and r < 1.0:
        return True, r, deltas[-1] * r / (1.0 - r)
    return False, 0.0, 0.0


def estimate_limit(trace: Sequence[StepRecord], period_len: int) -> LimitEstimate:
    """Extrapolate the cumulative limits from per-period increments.

    Looks at the last four full periods (aligned to the end of the
    trace); if the increments decay geometrically with a common ratio,
    the limit is the closed-form tail sum, otherwise the monotone bounds
    are all that is reported.
    """
    records = tuple(trace)
    period_len = _check_count("period_len", period_len)
    if len(records) < 4 * period_len:
        raise ValueError("trace must cover at least 4 full periods")
    last = records[-1]
    acc_bounds = (last.acc, last.acc + last.nonhalt_norm_sq)
    rej_bounds = (last.rej, last.rej + last.nonhalt_norm_sq)

    # a trace of exactly four periods starts its first one before its
    # first record, where the sums hold the end marker's mass
    first = records[0]
    before = (first.acc - first.alpha, first.rej - first.rho)
    ends = range(len(records) - 1 - 4 * period_len, len(records), period_len)
    acc_vals, rej_vals = zip(*((records[i].acc, records[i].rej) if i >= 0 else before
                               for i in ends))
    acc_geo, acc_ratio, acc_tail = _series_tail(acc_vals)
    rej_geo, rej_ratio, rej_tail = _series_tail(rej_vals)
    geometric = acc_geo and rej_geo
    return LimitEstimate(
        acc_limit_estimate=last.acc + acc_tail if geometric else last.acc,
        rej_limit_estimate=last.rej + rej_tail if geometric else last.rej,
        ratio=(acc_ratio if acc_ratio > 0.0 else rej_ratio) if geometric else 0.0,
        is_geometric=geometric,
        acc_bounds=acc_bounds,
        rej_bounds=rej_bounds,
    )
