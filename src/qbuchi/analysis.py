"""Structural analysis of the non-halting space.

The non-halting span splits into a maximal invariant part, from which no
halting probability is ever produced, and its orthogonal complement,
where norm can only leak toward the halting states. The invariant part
is computed by a descending chain of subspaces: starting from the whole
non-halting span, each iteration keeps the vectors that every symbol
unitary maps back into the current subspace. The chain stabilizes after
at most dim-many proper steps.

Also provided: cycle-subspace and no-entry checks for single symbols,
randomized verification of the decomposition properties, and a
geometric-series extrapolation of cumulative probability limits. The
extrapolation is a diagnostic only; acceptance verdicts rely solely on
the monotone bounds from the run functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .automata import Mmqba
from .numerics import DEFAULT_SV_TOL, SubspaceBasis, null_space
from .semantics import StepRecord, _Kernel, _norm_sq

RESIDUAL_TOL = 1e-9
RATIO_TOL = 1e-6
CONVERGED_DELTA = 1e-15


@dataclass(frozen=True)
class Decomposition:
    """Invariant subspace, its complement, and the chain that produced them.

    chain_dims lists the dimension of every subspace in the descending
    chain, starting with the full non-halting span; the last two entries
    are equal because stabilization is confirmed by one extra iteration.
    chain_length is the number of refinement iterations performed.
    """

    s1: SubspaceBasis
    s2: SubspaceBasis
    chain_length: int
    chain_dims: tuple[int, ...]


def _outside(w: SubspaceBasis, x: np.ndarray) -> np.ndarray:
    """The columns of x with their components in w removed: X - W^T (conj(W) X)."""
    return x - w.vectors.T @ (w.vectors.conj() @ x)


def _refine(a: Mmqba, w: SubspaceBasis, sv_tol: float) -> SubspaceBasis:
    if w.dim == 0:
        return w
    blocks = [_outside(w, a.unitary_for(sym) @ w.vectors.T) for sym in sorted(a.alphabet)]
    coeff_basis = null_space(np.vstack(blocks), sv_tol)
    return SubspaceBasis(coeff_basis.vectors @ w.vectors, a.dim)


def _complement_within(whole: SubspaceBasis, part: SubspaceBasis, sv_tol: float) -> SubspaceBasis:
    if part.dim == 0:
        return whole
    if part.dim == whole.dim:
        return SubspaceBasis(np.zeros((0, whole.ambient_dim), dtype=np.complex128), whole.ambient_dim)
    return SubspaceBasis.from_spanning(_outside(part, whole.vectors.T).T, sv_tol)


def decompose_nonhalting(a: Mmqba, sv_tol: float = DEFAULT_SV_TOL) -> Decomposition:
    """Split the non-halting span into its maximal invariant part and the rest."""
    s_non = SubspaceBasis.from_indices(a.nonhalting, a.dim)
    w = s_non
    dims = [w.dim]
    iterations = 0
    while True:
        iterations += 1
        refined = _refine(a, w, sv_tol)
        dims.append(refined.dim)
        stable = refined.dim == w.dim
        w = refined
        if stable:
            break
    s1 = w
    s2 = _complement_within(s_non, s1, sv_tol)
    return Decomposition(s1, s2, iterations, tuple(dims))


def _require_within_nonhalting(a: Mmqba, s: SubspaceBasis, tol: float):
    if s.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension does not match the automaton")
    if s.dim and a.halting:
        halting = list(a.halting)
        leak = float(np.max(np.abs(s.vectors[:, halting])))
        if leak > tol:
            raise ValueError(
                f"subspace is not contained in the non-halting span "
                f"(halting component {leak:.3e})"
            )


def is_sigma_cycle_subspace(
    a: Mmqba, s: SubspaceBasis, symbol: str, tol: float = RESIDUAL_TOL
) -> bool:
    """True iff the symbol's unitary maps the subspace into itself."""
    _require_within_nonhalting(a, s, tol)
    if s.dim == 0:
        return True
    images = a.unitary_for(symbol) @ s.vectors.T
    return not np.any(np.linalg.norm(_outside(s, images), axis=0) > tol)


@dataclass(frozen=True)
class NoEntryReport:
    """Projection norms onto a cycle subspace from each outside basis state."""

    residuals: dict[int, float]
    max_residual: float


def no_entry_check(
    a: Mmqba, s: SubspaceBasis, symbol: str, tol: float = RESIDUAL_TOL
) -> NoEntryReport:
    """Check that no outside computational basis state maps into the subspace.

    Requires the subspace to be invariant under the symbol and spanned by
    computational basis vectors; reports ||P_s V |r>|| for every basis
    index r outside the subspace.
    """
    if not is_sigma_cycle_subspace(a, s, symbol, tol):
        raise ValueError(f"subspace is not invariant under symbol {symbol!r}")
    proj = s.projector()
    diag = np.real(np.diag(proj))
    off = proj - np.diag(np.diag(proj))
    basis_spanned = float(np.max(np.abs(off), initial=0.0)) <= tol and bool(
        np.all((np.abs(diag) <= tol) | (np.abs(diag - 1.0) <= tol))
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
    component alone. The three vectors of a trial are the columns of one
    block, stepped together. Each trial derives its own generator from
    (seed, trial index), so trials are reproducible independently.
    """
    symbols = sorted(a.alphabet)
    kernel = _Kernel(a)
    s1, s2 = d.s1, d.s2
    zero = np.zeros(a.dim, dtype=np.complex128)
    s1_halting = s1_residual = mixed_dev = 0.0
    trajectories = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        word = [symbols[i] for i in rng.integers(0, len(symbols), size=word_len)]
        # one block: an S1 member, an S2 member v2, and v1 + v2 for a
        # second S1 member v1; a zero column stands for a trivial part
        member = _random_member(s1, rng) if s1.dim else zero
        v2 = _random_member(s2, rng) if s2.dim else zero
        v1 = _random_member(s1, rng) if s1.dim and s2.dim else zero
        psi = np.stack([member, v2, v1 + v2], axis=1)
        increments = np.empty((word_len, 3))
        norms_sq = np.empty(word_len)
        residuals = np.empty(word_len)
        for j, sym in enumerate(word):
            psi, probs = kernel.measure(psi, sym)
            increments[j] = np.add.reduce(probs, axis=0)
            norms_sq[j] = _norm_sq(psi[:, 1])
            residuals[j] = np.linalg.norm(_outside(s1, psi[:, 0]))
        if s1.dim:
            s1_halting = max(s1_halting, float(np.add.reduce(increments[:, 0])))
            s1_residual = max(s1_residual, float(np.max(residuals, initial=0.0)))
        if s2.dim:
            trajectories.append(tuple(norms_sq.tolist()))
            dev = np.abs(increments[:, 2] - increments[:, 1])
            mixed_dev = max(mixed_dev, float(np.max(dev, initial=0.0)))
    return DecompositionReport(
        trials=trials,
        word_len=word_len,
        s1_trials=max(trials, 0) if s1.dim else 0,
        s1_max_cumulative_halting=s1_halting,
        s1_max_subspace_residual=s1_residual,
        s2_trials=max(trials, 0) if s2.dim else 0,
        s2_norm_sq_trajectories=tuple(trajectories),
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
    period_len = int(period_len)
    if period_len < 1:
        raise ValueError("period_len must be at least 1")
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
