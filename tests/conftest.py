import dataclasses

import numpy as np
import pytest

from qbuchi.automata import Mmqba, _Kernel
from qbuchi.fixtures import list_fixtures, load_fixture

FIXTURE_NAMES = (
    "finite_ab",
    "lang_a_omega",
    "lang_a_prefix",
    "lang_aab_cycle",
    "lang_ab_cycle",
    "lang_inf_a",
    "no_entry",
    "reject_all",
    "swap_halt_once",
)


@pytest.fixture(scope="session")
def fixtures():
    return {name: load_fixture(name) for name in list_fixtures()}


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a complex
    Gaussian matrix, with the R diagonal phase divided out."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def make_automaton(unitaries, accepting, rejecting, initial=0, alphabet=None):
    """Inline automaton with states named q0..qN-1."""
    mats = {k: np.asarray(v, dtype=complex) for k, v in unitaries.items()}
    dim = next(iter(mats.values())).shape[0]
    if alphabet is None:
        alphabet = tuple(sorted(mats))
    return Mmqba(
        state_names=tuple(f"q{i}" for i in range(dim)),
        alphabet=tuple(alphabet),
        unitaries=mats,
        initial=initial,
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
    )


def planted_automaton(rng, dim, invariant, symbols="ab") -> Mmqba:
    """Block-diagonal: a Haar block on the first states with no halting
    state in it, and a Haar block holding one accepting and one rejecting
    state at its end."""
    unitaries = {}
    for sym in symbols:
        u = np.zeros((dim, dim), dtype=complex)
        u[:invariant, :invariant] = haar_unitary(rng, invariant)
        u[invariant:, invariant:] = haar_unitary(rng, dim - invariant)
        unitaries[sym] = u
    return make_automaton(unitaries, accepting=[dim - 1], rejecting=[dim - 2],
                          initial=invariant)


def two_block_automaton() -> Mmqba:
    """Five states: a rotation block {q0,q1} that never produces halting
    probability, a rejecting sink q2 nobody reaches, and a leaking block
    {q3} that sends half its mass to the accepting q4 each step. The
    non-halting split is span{q0,q1} against span{q3}."""
    c, s = np.cos(1.0), np.sin(1.0)
    r = 1.0 / np.sqrt(2.0)
    v = np.zeros((5, 5))
    v[0, 0], v[1, 0] = c, s
    v[0, 1], v[1, 1] = -s, c
    v[2, 2] = 1.0
    v[3, 3], v[4, 3] = r, r
    v[3, 4], v[4, 4] = -r, r
    return make_automaton({"a": v}, accepting=[4], rejecting=[2])


def acc_then_rej_automaton() -> Mmqba:
    """Half the mass accepts at step 1, the surviving half rejects at
    step 2. At any cutpoint below 1/2 the literal rejection clause
    (rej < p, ignoring mass still in flight) fires a step before the
    rejection lands, so the literal and certified modes disagree."""
    r = 1.0 / np.sqrt(2.0)
    v = np.zeros((4, 4))
    v[1, 0], v[3, 0] = r, r
    v[0, 1] = 1.0
    v[1, 2], v[3, 2] = r, -r
    v[2, 3] = 1.0
    return make_automaton({"a": v}, accepting=[1], rejecting=[2])


def rotation_leak_automaton() -> Mmqba:
    """Five states: 'a' rotates q0 -> q1 -> q2 and sends q2 to
    cos 0.6 q0 + sin 0.6 q3, with q3 accepting and q4 a rejecting sink
    nobody reaches. Every third step leaks sin^2 0.6 of the mass left to
    the accepting q3, so a^omega has acceptance limit 1, rejection limit 0
    and infinitely many accepting visits, one in every three steps."""
    c, s = np.cos(0.6), np.sin(0.6)
    v = np.zeros((5, 5))
    v[1, 0] = 1.0
    v[2, 1] = 1.0
    v[0, 2], v[3, 2] = c, s
    v[0, 3], v[3, 3] = -s, c
    v[4, 4] = 1.0
    return make_automaton({"a": v}, accepting=[3], rejecting=[4])


def marker_split_automaton() -> Mmqba:
    """The end marker halts all mass: 0.6 of it on the accepting q1 and
    0.4 on the rejecting q2, so every run has halted before its first
    symbol with accepting limit 0.6 and no accepting visit."""
    c, s = np.sqrt(0.6), np.sqrt(0.4)
    marker = np.array([[0.0, 1.0, 0.0], [c, 0.0, -s], [s, 0.0, c]])
    a = make_automaton({"a": np.eye(3), "b": np.eye(3)[[0, 2, 1]]},
                       accepting=[1], rejecting=[2])
    return dataclasses.replace(a, end_marker_unitary=marker)


def marker_halts_automaton() -> Mmqba:
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


def three_symbol_automaton() -> Mmqba:
    """Four states, q1 accepting, q2 rejecting. 'a' sends 0.3 of q0's mass
    to q2, so at cutpoint 0.9 any prefix with an 'a' refutes the accepting
    limit; 'b' is the identity; 'c' rotates q0 by 0.7 into the free q3 and
    then q3 by 0.3 into q1, so that c-cycles accept."""
    c, s = np.sqrt(0.7), np.sqrt(0.3)
    a = np.eye(4)
    a[0, 0], a[0, 2], a[2, 0], a[2, 2] = c, -s, s, c
    rotate, leak = np.eye(4), np.eye(4)
    for m, i, j, t in ((rotate, 0, 3, 0.7), (leak, 3, 1, 0.3)):
        m[i, i], m[i, j], m[j, i], m[j, j] = np.cos(t), -np.sin(t), np.sin(t), np.cos(t)
    return make_automaton({"a": a, "b": np.eye(4), "c": leak @ rotate},
                          accepting=[1], rejecting=[2])


def accepted_fixed_point_automaton() -> Mmqba:
    """Three states, q1 accepting and q2 rejecting. 'a' turns q0 by pi/4
    onto q1, so the prefix 'aa' sends 3/4 of the mass to q1 with two
    accepting visits; 'b' is the identity, so a b-cycle after it is an
    exact fixed point at which a cutpoint below 3/4 has already accepted."""
    r = 1.0 / np.sqrt(2.0)
    v = np.array([[r, -r, 0.0], [r, r, 0.0], [0.0, 0.0, 1.0]])
    return make_automaton({"a": v, "b": np.eye(3)}, accepting=[1], rejecting=[2])


def chain_unitary(dim, chain, partners, end, theta=0.1):
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


def chain_halt_automaton(theta=0.1) -> Mmqba:
    """Dimension 16: the chain q0..q6 leaks to the rejecting q8..q13 at
    every step (at theta 0, not at all), and all the mass left halts on
    the accepting q14 at step 7."""
    u = chain_unitary(16, list(range(7)), list(range(8, 14)), 14, theta)
    return make_automaton({"a": u}, accepting=[14], rejecting=list(range(8, 14)))


def fixed_point_automaton() -> Mmqba:
    """Dimension 16: period 3 of 'aa' is an exact fixed point. The end
    marker splits q0 between q0..q7, which 'aa' leaves as they are, and a
    chain q8..q11 whose mass has all halted by the end of period 2."""
    u = chain_unitary(16, [8, 9, 10, 11], [12, 13, 14], 15)
    u[:8, :8] = np.eye(8)[[1, 0, 3, 2, 5, 4, 7, 6]]
    marker = np.eye(16)
    r = 1.0 / np.sqrt(2.0)
    marker[[0, 8, 0, 8], [0, 0, 8, 8]] = [r, r, -r, r]
    return dataclasses.replace(make_automaton({"a": u}, accepting=[15], rejecting=[12, 13, 14]),
                               end_marker_unitary=marker)


def draining_half_automaton() -> Mmqba:
    """Dimension 16: the end marker splits q0 between q0..q7, which 'aa'
    leaves exactly as they are, and q8..q15, on which 'a' is a Haar
    unitary with q14 rejecting and q15 accepting. That half drains, so a
    long run of 'aa' comes to within rounding of a fixed point that
    stepping does not reach exactly."""
    u = np.zeros((16, 16), dtype=complex)
    u[:8, :8] = np.eye(8)[[1, 0, 3, 2, 5, 4, 7, 6]]
    u[8:, 8:] = haar_unitary(np.random.default_rng(2), 8)
    marker = np.eye(16)
    r = 1.0 / np.sqrt(2.0)
    marker[[0, 8, 0, 8], [0, 0, 8, 8]] = [r, r, -r, r]
    return dataclasses.replace(make_automaton({"a": u}, accepting=[15], rejecting=[14]),
                               end_marker_unitary=marker)


def counted_applies(monkeypatch) -> list:
    """The symbols of every measured step that _Kernel.apply takes from
    here on, in order."""
    applies = []
    apply = _Kernel.apply
    monkeypatch.setattr(_Kernel, "apply",
                        lambda self, psi, sym: applies.append(sym) or apply(self, psi, sym))
    return applies
