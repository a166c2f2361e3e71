import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbuchi.numerics import (
    SubspaceBasis,
    as_matrix,
    as_state,
    is_unitary,
    null_space,
    tensor,
)

from conftest import haar_unitary


def test_as_state_shape():
    v = as_state([1.0, 0.0])
    assert v.dtype == np.complex128
    assert v.shape == (2,)
    with pytest.raises(ValueError):
        as_state([[1.0, 0.0]])


def test_as_matrix_requires_two_dims():
    m = as_matrix(np.eye(3))
    assert m.shape == (3, 3)
    assert as_matrix(np.ones((2, 3))).shape == (2, 3)
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])



def test_is_unitary_basics():
    assert is_unitary(np.eye(4))
    c, s = np.cos(0.3), np.sin(0.3)
    assert is_unitary(np.array([[c, -s], [s, c]]))
    assert not is_unitary(1.001 * np.eye(2))
    assert is_unitary(1.001 * np.eye(2), tol=1e-2)
    assert not is_unitary(np.eye(2, 3))


@pytest.mark.parametrize("call,message", [
    (lambda: SubspaceBasis(np.array([[1.0, 1.0]]), 2),
     "basis rows are not orthonormal within 1e-9"),
    (lambda: SubspaceBasis(np.eye(2), 3), "basis rows must match the ambient dimension"),
    (lambda: SubspaceBasis.from_indices([0], 2).project([1.0, 0.0, 0.0]),
     "vector dimension does not match the subspace"),
], ids=["not-orthonormal", "ambient-dimension", "project-dimension"])
def test_subspace_arguments_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0, True, "1e-3", None])
def test_is_unitary_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # inf would call any finite matrix unitary, and NaN or tol <= 0 none
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        is_unitary(np.eye(2), tol)


def test_is_unitary_random():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6):
        u = haar_unitary(rng, n)
        assert is_unitary(u)
        assert not is_unitary(u + 1e-6)


def test_tensor_dims():
    t = tensor(np.eye(2), np.eye(3))
    assert t.shape == (6, 6)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(tensor(a, np.eye(2)) @ as_state([1, 0, 0, 0]), [0, 0, 1, 0])


def test_from_indices_projection():
    s = SubspaceBasis.from_indices([1, 2], 4)
    assert s.dim == 2
    v = as_state([1.0, 2.0, 3.0j, 4.0])
    pv = s.project(v)
    assert np.allclose(pv, [0.0, 2.0, 3.0j, 0.0])
    assert np.allclose(s.projector() @ v, pv)


def test_projector_from_indices():
    p = SubspaceBasis.from_indices([0, 2], 3).projector()
    assert np.array_equal(np.diag(p), [1, 0, 1])
    assert np.allclose(p @ p, p)
    with pytest.raises(ValueError, match="out of range"):
        SubspaceBasis.from_indices([3], 3)


def test_from_spanning_drops_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    s = SubspaceBasis.from_spanning(rows)
    assert s.dim == 2
    # orthonormal basis rows
    g = s.vectors @ s.vectors.conj().T
    assert np.allclose(g, np.eye(2), atol=1e-12)


def test_projector_is_idempotent_and_hermitian():
    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    s = SubspaceBasis.from_spanning(vecs)
    p = s.projector()
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-12)


def test_null_space_known():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ns = null_space(m)
    assert ns.dim == 1
    assert np.allclose(np.abs(ns.vectors[0]), [0.0, 0.0, 1.0])


def test_null_space_members_are_annihilated():
    rng = np.random.default_rng(3)
    for rows, cols in [(2, 5), (4, 4), (7, 3)]:
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        ns = null_space(m)
        rank = np.linalg.matrix_rank(m)
        assert ns.dim == cols - rank
        if ns.dim:
            assert np.max(np.abs(m @ ns.vectors.T)) < 1e-10


def test_null_space_edge_shapes():
    assert null_space(np.zeros((0, 4))).dim == 4
    assert null_space(np.zeros((3, 0))).dim == 0
    assert null_space(np.zeros((2, 2))).dim == 2


def test_zero_dim_subspace_projects_to_zero():
    s = SubspaceBasis.from_indices([], 3)
    assert s.dim == 0
    assert np.allclose(s.project(as_state([1.0, 2.0, 3.0])), 0.0)
    assert np.allclose(s.projector(), np.zeros((3, 3)))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1))
def test_projection_residual_is_orthogonal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n + 1))
    vecs = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    s = SubspaceBasis.from_spanning(vecs)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    pv = s.project(v)
    assert abs(np.vdot(v - pv, pv)) < 1e-9
    # projecting twice changes nothing
    assert np.allclose(s.project(pv), pv, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    u = haar_unitary(rng, n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.vdot(u @ v, u @ v).real == pytest.approx(np.vdot(v, v).real, rel=1e-12)
