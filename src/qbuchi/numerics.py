"""Complex linear algebra kernel shared by the automata toolkit.

All state vectors and transition matrices are numpy arrays with dtype
complex128. A transition matrix V acts by matrix-vector product and entry
(s, t) is the amplitude for reaching basis state s from basis state t, so
column t is the image of basis state t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_UNITARY_TOL = 1e-10
DEFAULT_SV_TOL = 1e-9


def as_state(values) -> np.ndarray:
    """Coerce to a 1-D complex128 amplitude vector."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError("amplitude vector must be one-dimensional")
    return v


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D complex128 matrix."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    return m


def _check_tolerance(tol, name: str = "tol", given=None) -> float:
    """The tolerance rule: inf passes any finite matrix as unitary, NaN or tol <= 0
    flags every one, and a bool, a string or None is no number. The message names given."""
    number = hasattr(tol, "__float__") and not isinstance(tol, (bool, np.bool_))
    if not number or not 0 < tol < math.inf:
        shown = tol if given is None else given
        raise ValueError(f"{name} must be finite and positive, got {shown!r}")
    return tol


def _unitarity_defect(m: np.ndarray) -> float:
    """max |M†M - I| of a matrix with columns. An overflowing product gives
    NaN, which fails every <= test, so numpy's warnings are not shown."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(m.conj().T @ m - np.eye(m.shape[1])).max())


def is_unitary(m, tol: float = DEFAULT_UNITARY_TOL) -> bool:
    """True when max-abs entry of (M†M - I) does not exceed tol, which must
    be finite and positive."""
    m = as_matrix(m)
    tol = _check_tolerance(tol)
    return m.shape[0] == m.shape[1] and _unitarity_defect(m) <= tol


def tensor(a, b) -> np.ndarray:
    """Kronecker product; index (i, j) of the factors maps to i*dim_b + j."""
    return np.kron(as_matrix(a), as_matrix(b))


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace, stored one basis vector per row."""

    vectors: np.ndarray
    ambient_dim: int

    def __post_init__(self):
        v = as_matrix(self.vectors) if np.asarray(self.vectors).size else np.zeros(
            (0, self.ambient_dim), dtype=np.complex128
        )
        if v.ndim != 2 or v.shape[1] != self.ambient_dim:
            raise ValueError("basis rows must match the ambient dimension")
        if v.shape[0] and _unitarity_defect(v.T) > 1e-9:  # the columns of v.T are its rows
            raise ValueError("basis rows are not orthonormal within 1e-9")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def from_indices(cls, indices: Sequence[int], dim: int) -> "SubspaceBasis":
        idx = sorted(set(int(i) for i in indices))
        rows = np.zeros((len(idx), dim), dtype=np.complex128)
        for r, i in enumerate(idx):
            if not 0 <= i < dim:
                raise ValueError(f"basis index {i} out of range for dimension {dim}")
            rows[r, i] = 1.0
        return cls(rows, dim)

    @classmethod
    def from_spanning(cls, vectors) -> "SubspaceBasis":
        """Orthonormal basis for the span of possibly dependent row vectors;
        singular values <= DEFAULT_SV_TOL count as zero."""
        m = as_matrix(vectors)
        if m.shape[0] == 0:
            return cls(m, m.shape[1])
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        rank = int(np.sum(s > DEFAULT_SV_TOL))
        return cls(vh[:rank], m.shape[1])

    def project(self, v) -> np.ndarray:
        v = as_state(v)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector dimension does not match the subspace")
        coeffs = self.vectors.conj() @ v
        return coeffs @ self.vectors

    def projector(self) -> np.ndarray:
        """Dense projector matrix onto the subspace."""
        return self.vectors.T @ self.vectors.conj()


def null_space(m) -> SubspaceBasis:
    """Orthonormal basis of the kernel; singular values <= DEFAULT_SV_TOL count as zero."""
    m = as_matrix(m)
    cols = m.shape[1]
    if cols == 0 or m.shape[0] == 0:
        rows = np.eye(cols, dtype=np.complex128) if m.shape[0] == 0 else np.zeros(
            (0, cols), dtype=np.complex128
        )
        return SubspaceBasis(rows, cols)
    # the left factor is discarded, and vh needs its null rows only when m is wide
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < cols)
    rank = int(np.sum(s > DEFAULT_SV_TOL))
    return SubspaceBasis(vh[rank:].conj(), cols)
