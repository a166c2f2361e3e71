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
from .semantics import StepRecord, Trace, _Kernel, _norm_sq

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


def _refine(a: Mmqba, w: SubspaceBasis, sv_tol: float) -> SubspaceBasis:
    if w.dim == 0:
        return w
    d = a.dim
    outside = np.eye(d, dtype=np.complex128) - w.projector()
    blocks = [outside @ a.unitary_for(sym) @ w.vectors.T for sym in sorted(a.alphabet)]
    coeff_basis = null_space(np.vstack(blocks), sv_tol)
    return SubspaceBasis(coeff_basis.vectors @ w.vectors, d)


def _complement_within(whole: SubspaceBasis, part: SubspaceBasis, sv_tol: float) -> SubspaceBasis:
    if part.dim == 0:
        return whole
    if part.dim == whole.dim:
        return SubspaceBasis(np.zeros((0, whole.ambient_dim), dtype=np.complex128), whole.ambient_dim)
    residual = whole.vectors - whole.vectors @ part.projector().T
    return SubspaceBasis.from_spanning(residual, sv_tol)


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
    u = a.unitary_for(symbol)
    for v in s.vectors:
        image = u @ v
        if float(np.linalg.norm(image - s.project(image))) > tol:
            return False
    return True


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
    members = {i for i in range(a.dim) if diag[i] > 0.5}
    u = a.unitary_for(symbol)
    residuals = {}
    for r in range(a.dim):
        if r in members:
            continue
        residuals[r] = float(np.linalg.norm(proj @ u[:, r]))
    max_residual = max(residuals.values(), default=0.0)
    return NoEntryReport(residuals, max_residual)


def _random_member(s: SubspaceBasis, rng: np.random.Generator) -> np.ndarray:
    parts = rng.normal(size=(2, s.dim))
    coeffs = parts[0] + 1j * parts[1]
    v = coeffs @ s.vectors
    return v / np.linalg.norm(v)


def _evolve_increments(kernel: _Kernel, psi: np.ndarray, word: Sequence[str]):
    """Evolve an arbitrary start vector, returning per-step halting increments
    and the non-halting squared norm after each step."""
    increments = []
    norms_sq = []
    for sym in word:
        psi, _, alpha, rho = kernel.apply(psi, sym)
        increments.append(alpha + rho)
        norms_sq.append(_norm_sq(psi))
    return increments, norms_sq


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
    component alone. Each trial derives its own generator from
    (seed, trial index), so trials are reproducible independently.
    """
    symbols = sorted(a.alphabet)
    kernel = _Kernel(a)
    s1_halting = 0.0
    s1_residual = 0.0
    s1_trials = 0
    s2_trials = 0
    trajectories = []
    mixed_dev = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        word = [symbols[i] for i in rng.integers(0, len(symbols), size=word_len)]
        if d.s1.dim:
            s1_trials += 1
            psi = _random_member(d.s1, rng)
            cumulative = 0.0
            for sym in word:
                psi, _, alpha, rho = kernel.apply(psi, sym)
                cumulative += alpha + rho
                res = float(np.linalg.norm(psi - d.s1.project(psi)))
                s1_residual = max(s1_residual, res)
            s1_halting = max(s1_halting, cumulative)
        if d.s2.dim:
            s2_trials += 1
            v2 = _random_member(d.s2, rng)
            inc2, norms2 = _evolve_increments(kernel, v2, word)
            trajectories.append(tuple(norms2))
            v1 = _random_member(d.s1, rng) if d.s1.dim else np.zeros(a.dim, dtype=np.complex128)
            inc_mix, _ = _evolve_increments(kernel, v1 + v2, word)
            dev = max(
                (abs(x - y) for x, y in zip(inc_mix, inc2)), default=0.0
            )
            mixed_dev = max(mixed_dev, dev)
    return DecompositionReport(
        trials=trials,
        word_len=word_len,
        s1_trials=s1_trials,
        s1_max_cumulative_halting=s1_halting,
        s1_max_subspace_residual=s1_residual,
        s2_trials=s2_trials,
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
    Returns (converged, geometric, ratio, tail_sum_estimate)."""
    deltas = [values[i + 1] - values[i] for i in range(4)]
    if max(abs(x) for x in deltas) <= CONVERGED_DELTA:
        return True, True, 0.0, 0.0
    if any(x <= 0.0 for x in deltas):
        return False, False, 0.0, 0.0
    ratios = [deltas[i + 1] / deltas[i] for i in range(3)]
    spread = max(ratios) - min(ratios)
    r = sum(ratios) / 3.0
    if spread <= RATIO_TOL and r < 1.0:
        return False, True, r, deltas[-1] * r / (1.0 - r)
    return False, False, 0.0, 0.0


def estimate_limit(
    trace: Trace | Sequence[StepRecord], period_len: int
) -> LimitEstimate:
    """Extrapolate the cumulative limits from per-period increments.

    Looks at the last four full periods (aligned to the end of the
    trace); if the increments decay geometrically with a common ratio,
    the limit is the closed-form tail sum, otherwise the monotone bounds
    are all that is reported.
    """
    records = trace.records if isinstance(trace, Trace) else tuple(trace)
    period_len = int(period_len)
    if period_len < 1:
        raise ValueError("period_len must be at least 1")
    if len(records) < 4 * period_len:
        raise ValueError("trace must cover at least 4 full periods")
    last = records[-1]
    acc_bounds = (last.acc, last.acc + last.nonhalt_norm_sq)
    rej_bounds = (last.rej, last.rej + last.nonhalt_norm_sq)

    acc_vals = []
    rej_vals = []
    for m in range(4, -1, -1):
        idx = len(records) - 1 - m * period_len
        acc_vals.append(records[idx].acc if idx >= 0 else 0.0)
        rej_vals.append(records[idx].rej if idx >= 0 else 0.0)
    _, acc_geo, acc_ratio, acc_tail = _series_tail(acc_vals)
    _, rej_geo, rej_ratio, rej_tail = _series_tail(rej_vals)
    if acc_geo and rej_geo:
        ratio = acc_ratio if acc_ratio > 0.0 else rej_ratio
        return LimitEstimate(
            acc_limit_estimate=last.acc + acc_tail,
            rej_limit_estimate=last.rej + rej_tail,
            ratio=ratio,
            is_geometric=True,
            acc_bounds=acc_bounds,
            rej_bounds=rej_bounds,
        )
    return LimitEstimate(
        acc_limit_estimate=last.acc,
        rej_limit_estimate=last.rej,
        ratio=0.0,
        is_geometric=False,
        acc_bounds=acc_bounds,
        rej_bounds=rej_bounds,
    )
