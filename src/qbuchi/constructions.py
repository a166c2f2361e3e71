"""Automaton combinators.

All constructions keep unitarity by design: products of unitaries are
unitary and every classical component is realized as a permutation
matrix. Partial permutations are completed by matching the unused
domain indices to the unused target indices in index order. Completion
edges start in halting states, so a single automaton never sends amplitude along them;
a product can, where one component's halting state does not halt it,
hence union's one-way inclusion (ROADMAP item 14).
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .automata import END_MARKER, Mmqba, Mmqfa, RESERVED_SYMBOLS, _check_word
from .numerics import tensor


def _masks(m: Mmqba) -> tuple[np.ndarray, np.ndarray]:
    """Boolean accepting and rejecting masks; out-of-range indices drop out."""
    states = np.arange(m.dim)
    return np.isin(states, list(m.accepting)), np.isin(states, list(m.rejecting))


def _product(m1: Mmqba, m2: Mmqba, accepting: np.ndarray, rejecting: np.ndarray) -> Mmqba:
    """Tensor product over m1's alphabet; the (m1.dim, m2.dim) masks mark
    the halting product states, and a state in both masks accepts."""
    unitaries = {
        sym: tensor(m1.unitary_for(sym), m2.unitary_for(sym)) for sym in m1.alphabet
    }
    end = None
    if m1.end_marker_unitary is not None or m2.end_marker_unitary is not None:
        end = tensor(m1.unitary_for(END_MARKER), m2.unitary_for(END_MARKER))
    return Mmqba(
        state_names=tuple(f"({n1},{n2})" for n1 in m1.state_names for n2 in m2.state_names),
        alphabet=tuple(m1.alphabet),
        unitaries=unitaries,
        initial=m1.initial * m2.dim + m2.initial,
        accepting=frozenset(np.flatnonzero(accepting).tolist()),
        rejecting=frozenset(np.flatnonzero(rejecting & ~accepting).tolist()),
        end_marker_unitary=end,
    )


def union(m1: Mmqba, m2: Mmqba) -> Mmqba:
    """Tensor product that accepts every word a component accepts, and maybe more.

    A product state accepts when either component's state accepts and rejects only when
    both reject, so mass that one component rejects can go on to accept: ("", "b") at
    p = 0.5 is rejected by lang_a_omega and reject_all but accepted by their union (item 14).
    """
    if set(m1.alphabet) != set(m2.alphabet):
        raise ValueError("union requires identical alphabets")
    (acc1, rej1), (acc2, rej2) = _masks(m1), _masks(m2)
    return _product(m1, m2, acc1[:, None] | acc2, rej1[:, None] & rej2)


def _symbols(alphabet: Iterable[str]) -> tuple[str, ...]:
    """Sorted, deduplicated alphabet of single, non-reserved characters."""
    symbols = tuple(sorted(set(alphabet)))
    if not symbols:
        raise ValueError("alphabet must be nonempty")
    for sym in symbols:
        if len(sym) != 1 or sym in RESERVED_SYMBOLS:
            raise ValueError(f"invalid alphabet symbol {sym!r}")
    return symbols


def empty_automaton(alphabet: Iterable[str]) -> Mmqba:
    """Two-state automaton with identity dynamics that accepts nothing."""
    symbols = _symbols(alphabet)
    eye = np.eye(2, dtype=np.complex128)
    return Mmqba(
        state_names=("q0", "qr"),
        alphabet=symbols,
        unitaries={sym: eye.copy() for sym in symbols},
        initial=0,
        accepting=frozenset(),
        rejecting=frozenset({1}),
    )


def _sink_permutation(successors: Sequence[int | None], dim: int) -> np.ndarray:
    """Permutation matrix sending live state i to successors[i], or to its
    own sink len(successors) + i where that is None; the remaining columns
    take the unused targets in index order. Column s of the result is the
    basis vector of the image of s."""
    n = len(successors)
    targets = [n + i if t is None else t for i, t in enumerate(successors)]
    used = set(targets)
    if len(used) != n:
        raise ValueError("partial permutation is not injective")
    free = [t for t in range(dim) if t not in used]
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[targets + free, np.arange(dim)] = 1.0
    return m


def finite_language_mmqfa(words: Iterable[str], alphabet: Iterable[str]) -> Mmqfa:
    """MMQFA accepting exactly the given finite words with probability 1.

    States enumerate every string up to the longest word's length, so the
    read prefix is tracked exactly; longer inputs are rejected during
    reading. Each tracked string gets its own rejecting state and each
    language word its own accepting state, which keeps the halting
    transitions injective. State count is exponential in the longest
    word's length over alphabets with two or more symbols.
    """
    symbols = _symbols(alphabet)
    language = sorted(set(words))
    for w in language:
        _check_word(symbols, w)
    depth = max((len(w) for w in language), default=0)

    nodes = [""]
    level = [""]
    for _ in range(depth):
        level = [s + c for s in level for c in symbols]
        nodes.extend(level)
    node_index = {s: i for i, s in enumerate(nodes)}
    n_nodes = len(nodes)
    accept_of = {w: 2 * n_nodes + i for i, w in enumerate(language)}
    dim = 2 * n_nodes + len(language)

    unitaries = {
        sym: _sink_permutation(
            [node_index[s + sym] if len(s) < depth else None for s in nodes], dim)
        for sym in symbols
    }
    terminal = _sink_permutation([accept_of.get(s) for s in nodes], dim)

    names = (
        [f"s_{s}" for s in nodes]
        + [f"r_{s}" for s in nodes]
        + [f"acc_{w}" for w in language]
    )
    return Mmqfa(
        state_names=tuple(names),
        alphabet=symbols,
        unitaries=unitaries,
        initial=0,
        accepting=frozenset(accept_of.values()),
        rejecting=frozenset(range(n_nodes, 2 * n_nodes)),
        terminal_unitary=terminal,
    )


def _normalize_lasso(u: str, v: str) -> tuple[str, str]:
    """Rotate the cycle v into the prefix u until u no longer ends with v's
    last symbol; the denoted infinite word is unchanged."""
    while u and u[-1] == v[-1]:
        v = v[-1] + v[:-1]
        u = u[:-1]
    return u, v


def restrict_to_lasso(m: Mmqba, w) -> Mmqba:
    """Product with a deterministic matcher so only the given lasso survives.

    The matcher walks the positions of prefix+cycle; any mismatching
    symbol routes its amplitude to a dead state, and every product state
    with a dead matcher component rejects, so the mass of a mismatching
    input is measured away at the mismatch step. On the matching input
    the matcher contributes a factor 1 and the component automaton
    evolves exactly as unrestricted. Each live position gets its own
    dead state so the mismatch transitions stay injective; the lasso is
    first rotated so the advance map has no target collisions.
    """
    _check_word(m.alphabet, w.prefix + w.cycle)
    u, v = _normalize_lasso(w.prefix, w.cycle)
    live = len(u) + len(v)
    expected = u + v

    def advance(i: int) -> int:
        return i + 1 if i < live - 1 else len(u)

    matcher = Mmqba(
        state_names=tuple(f"m{i}" for i in range(live)) + tuple(f"d{i}" for i in range(live)),
        alphabet=tuple(m.alphabet),
        unitaries={
            sym: _sink_permutation(
                [advance(i) if expected[i] == sym else None for i in range(live)], 2 * live)
            for sym in m.alphabet
        },
        initial=0,
        accepting=frozenset(),
        rejecting=frozenset(range(live, 2 * live)),
    )
    dead = np.arange(2 * live)[:, None] >= live
    acc, rej = _masks(m)
    return _product(matcher, m, ~dead & acc, dead | rej)
