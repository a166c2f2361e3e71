"""Automaton types, their measured step, validation and the on-disk JSON format.

A measure-many automaton is a tuple of named basis states, an input
alphabet, one unitary per symbol, an initial state and disjoint sets of
accepting and rejecting (halting) states. After every applied unitary the
halting coordinates are measured out and their probability mass
accumulates; the remaining amplitude continues unnormalized.

Documents use the ``.qba`` JSON layout::

    {"type": "mmqba", "states": [...], "alphabet": [...], "initial": "q0",
     "accepting": [...], "rejecting": [...],
     "unitaries": {"a": [[[re, im], ...], ...]}}

Matrices are row-major and entry [s][t] is the amplitude from basis state
t to basis state s. The "#" end-marker unitary is optional and defaults to
the identity; the "$" terminal unitary is required exactly for "mmqfa"
documents.
"""
from __future__ import annotations

import json
import math
import operator
import os
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .numerics import DEFAULT_UNITARY_TOL, _check_tolerance, _unitarity_defect, as_matrix

END_MARKER = "#"
TERMINAL = "$"
RESERVED_SYMBOLS = frozenset({END_MARKER, TERMINAL})
TOL_ENV_VAR = "QBA_TOL"


class AutomatonFormatError(ValueError):
    """Unparseable or structurally invalid automaton document."""

    def __init__(self, message: str, *, path: str | None = None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class CutpointWarning(UserWarning):
    """Cutpoint lies at or below 1/2, where acceptance guarantees do not hold."""


def _check_cutpoint(value) -> float:
    """The cutpoint rule; NaN fails the comparison, and a bool, a string or None is no number."""
    number = hasattr(value, "__float__") and not isinstance(value, (bool, np.bool_))
    p = float(value) if number else math.nan
    if not 0.0 < p <= 1.0:
        raise ValueError(f"cutpoint must lie in (0, 1], got {value!r}")
    return p


def _check_count(name: str, value, least: int = 1) -> int:
    """The rule of every count argument: value, taken through
    operator.index so that no float passes, as an int no smaller than least."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least or isinstance(value, bool):  # True is no count
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


def _check_word(alphabet, word) -> None:
    """The rule of every word argument, a string or a list of symbols: each
    of its symbols lies in alphabet."""
    for ch in word:
        if ch not in alphabet:
            raise ValueError(f"symbol {ch!r} is not in the automaton alphabet")


class Cutpoint(float):
    """Cutpoint probability in (0, 1]; values at or below 1/2 warn."""

    def __new__(cls, value):
        p = _check_cutpoint(value)
        if p <= 0.5:
            warnings.warn(
                f"cutpoint {p} is not above 1/2; acceptance guarantees assume p > 1/2",
                CutpointWarning,
                stacklevel=2,
            )
        return super().__new__(cls, p)


def default_tolerance() -> float:
    """Unitarity tolerance, overridable through the QBA_TOL environment variable."""
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_UNITARY_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError(f"{TOL_ENV_VAR} must be a float, got {raw!r}") from None
    return _check_tolerance(tol, TOL_ENV_VAR, raw)


@dataclass(eq=False)
class Mmqba:
    """Measure-many automaton over infinite words (left end marker only)."""

    state_names: list[str]
    alphabet: list[str]
    unitaries: dict[str, np.ndarray]
    initial: int
    accepting: frozenset[int]
    rejecting: frozenset[int]
    end_marker_unitary: np.ndarray | None = None

    kind = "mmqba"

    def __post_init__(self):
        self.accepting = frozenset(int(i) for i in self.accepting)
        self.rejecting = frozenset(int(i) for i in self.rejecting)
        self.unitaries = {s: as_matrix(m) for s, m in self.unitaries.items()}
        if self.end_marker_unitary is not None:
            self.end_marker_unitary = as_matrix(self.end_marker_unitary)

    @property
    def dim(self) -> int:
        return len(self.state_names)

    @property
    def halting(self) -> tuple[int, ...]:
        return tuple(sorted(self.accepting | self.rejecting))

    @property
    def nonhalting(self) -> tuple[int, ...]:
        halt = self.accepting | self.rejecting
        return tuple(i for i in range(self.dim) if i not in halt)

    def unitary_for(self, symbol: str) -> np.ndarray:
        """Transition matrix for a symbol; '#' defaults to the identity."""
        if symbol == END_MARKER:
            if self.end_marker_unitary is not None:
                return self.end_marker_unitary
            return np.eye(self.dim, dtype=np.complex128)
        try:
            return self.unitaries[symbol]
        except KeyError:
            raise KeyError(f"no unitary for symbol {symbol!r}") from None


@dataclass(eq=False)
class Mmqfa(Mmqba):
    """Measure-many automaton over finite words with both end markers."""

    terminal_unitary: np.ndarray = None

    kind = "mmqfa"

    def __post_init__(self):
        super().__post_init__()
        if self.terminal_unitary is None:
            raise ValueError("mmqfa requires a terminal '$' unitary")
        self.terminal_unitary = as_matrix(self.terminal_unitary)

    def unitary_for(self, symbol: str) -> np.ndarray:
        if symbol == TERMINAL:
            return self.terminal_unitary
        return super().unitary_for(symbol)


class _Kernel:
    """The measured step of one automaton, built once and shared by runs.

    The halting indices sit in one array, the accepting states first and
    then the rejecting ones, each in sorted order, so a step measures with
    one gather and one scatter, in halting. halting is the one method that
    writes to the state it is given, which must be the caller's own, such
    as a fresh product. amplitudes_each steps a block whose columns take
    symbols of their own, and apply steps a vector and sums its accepting
    and its rejecting probabilities; neither writes to its input, so run
    states can be shared without copying.
    """

    __slots__ = ("a", "symbols", "halt_idx", "n_acc")

    def __init__(self, a: Mmqba):
        accepting = sorted(a.accepting)
        self.a = a
        self.symbols = set(a.alphabet)
        self.halt_idx = np.array(accepting + sorted(a.rejecting), dtype=np.intp)
        self.n_acc = len(accepting)

    def halting(self, psi: np.ndarray):
        """psi, a state the caller owns, with its halting amplitudes zeroed
        in place, and those amplitudes in halt_idx order."""
        amps = psi[self.halt_idx]
        psi[self.halt_idx] = 0.0
        return psi, amps

    def amplitudes_each(self, psi: np.ndarray, which: np.ndarray):
        """One measured step of a block (dim, B) whose column c takes the
        symbol sorted(a.alphabet)[which[c]]: the new block and the halting
        amplitudes in halt_idx order, one column per column of psi.

        Each symbol's unitary multiplies the columns that take it, in one
        product; a symbol that no column takes costs an empty product.
        """
        out = np.empty_like(psi)
        for k, symbol in enumerate(sorted(self.symbols)):
            cols = np.flatnonzero(which == k)
            out[:, cols] = self.a.unitary_for(symbol) @ psi[:, cols]
        return self.halting(out)

    def apply(self, psi: np.ndarray, symbol: str):
        """One measured step of a vector: the new state and the accepting
        and rejecting probabilities of the step as Python floats."""
        psi, amps = self.halting(self.a.unitary_for(symbol) @ psi)
        probs = amps.real * amps.real + amps.imag * amps.imag
        n = self.n_acc
        return psi, float(np.add.reduce(probs[:n])), float(np.add.reduce(probs[n:]))


@dataclass(frozen=True)
class Violation:
    """One failed structural invariant, human-readable."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def _check_matrix(name: str, m: np.ndarray, dim: int, tol: float) -> list[Violation]:
    out = []
    if m.shape != (dim, dim):
        out.append(Violation(f"shape(V_{name})", f"expected {dim}x{dim}, got {m.shape[0]}x{m.shape[1]}"))
        return out
    if not np.all(np.isfinite(m)):
        out.append(Violation(f"finite(V_{name})", "matrix contains NaN or Inf entries"))
        return out
    dev = _unitarity_defect(m)
    if not dev <= tol:  # finite entries near 1e200 overflow U†U to NaN
        out.append(Violation(f"unitarity(V_{name})", f"max deviation {dev:.3e} exceeds tol {tol:.1e}"))
    return out


def validate(a: Mmqba, tol: float | None = None) -> list[Violation]:
    """Structural invariant check; returns an empty list for a valid automaton."""
    tol = default_tolerance() if tol is None else _check_tolerance(tol)
    out: list[Violation] = []
    dim = a.dim
    if dim == 0:
        out.append(Violation("states", "state set must be nonempty"))
        return out
    if len(set(a.state_names)) != dim:
        out.append(Violation("states", "state names must be distinct"))
    if not a.alphabet:
        out.append(Violation("alphabet", "alphabet must be nonempty"))
    if len(set(a.alphabet)) != len(a.alphabet):
        out.append(Violation("alphabet", "alphabet symbols must be distinct"))
    for sym in a.alphabet:
        if not isinstance(sym, str) or len(sym) != 1:
            out.append(Violation("alphabet", f"symbol {sym!r} is not a single character"))
        elif sym in RESERVED_SYMBOLS:
            out.append(Violation("alphabet", f"symbol {sym!r} is reserved"))
    for idx in sorted(a.accepting | a.rejecting):
        if not 0 <= idx < dim:
            out.append(Violation("halting", f"state index {idx} out of range"))
            return out
    overlap = a.accepting & a.rejecting
    if overlap:
        names = ", ".join(a.state_names[i] for i in sorted(overlap))
        out.append(Violation("disjointness", f"states both accepting and rejecting: {names}"))
    if not 0 <= a.initial < dim:
        out.append(Violation("initial", f"initial index {a.initial} out of range"))
    elif a.initial in a.accepting | a.rejecting:
        out.append(Violation("initial", f"initial state {a.state_names[a.initial]} is halting"))
    missing = [s for s in a.alphabet if s not in a.unitaries]
    for sym in missing:
        out.append(Violation("unitaries", f"missing unitary for symbol {sym!r}"))
    extra = [s for s in a.unitaries if s not in a.alphabet]
    for sym in extra:
        out.append(Violation("unitaries", f"unitary for symbol {sym!r} outside the alphabet"))
    for sym in a.alphabet:
        if sym in a.unitaries:
            out.extend(_check_matrix(sym, a.unitaries[sym], dim, tol))
    if a.end_marker_unitary is not None:
        out.extend(_check_matrix(END_MARKER, a.end_marker_unitary, dim, tol))
    if isinstance(a, Mmqfa):
        out.extend(_check_matrix(TERMINAL, a.terminal_unitary, dim, tol))
    return out


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise AutomatonFormatError(message, path=path)


def _walk_matrix(raw, dim: int, path: str):
    """Raise the error that names the first bad entry of a matrix _decode_matrix refused."""
    _expect(isinstance(raw, list) and len(raw) == dim, f"expected {dim} rows", path)
    for s, row in enumerate(raw):
        _expect(isinstance(row, list) and len(row) == dim, f"expected {dim} entries", f"{path}[{s}]")
        for t, entry in enumerate(row):
            here = f"{path}[{s}][{t}]"
            _expect(
                isinstance(entry, list) and len(entry) == 2,
                "matrix entry must be a [re, im] pair",
                here,
            )
            for part, name in zip(entry, ("real", "imaginary")):
                _expect(isinstance(part, (int, float)) and not isinstance(part, bool),
                        f"{name} part must be a number", here)
            try:
                float(entry[0]), float(entry[1])
            except OverflowError:
                raise AutomatonFormatError("number is out of the float range", path=here) from None


def _leaves(raw):
    return chain.from_iterable(chain.from_iterable(raw))


def _decode_matrix(raw, dim: int, path: str) -> np.ndarray:
    """Decode a matrix with checks that run in C; a document that fails one
    is walked entry by entry, to name the bad entry."""
    if (
        type(raw) is list
        and len(raw) == dim
        and set(map(type, raw)) == {list}
        and set(map(len, raw)) == {dim}
        and set(map(type, chain.from_iterable(raw))) == {list}
        and set(map(len, chain.from_iterable(raw))) == {2}
        # json.loads gives exact types, so this excludes bool, str and None
        and set(map(type, _leaves(raw))) <= {float, int}
    ):
        try:
            return np.fromiter(_leaves(raw), np.float64, 2 * dim * dim).view(
                np.complex128).reshape(dim, dim)
        except OverflowError:
            pass
    _walk_matrix(raw, dim, path)


def _decode_state_list(raw, names: dict[str, int], path: str) -> frozenset[int]:
    _expect(isinstance(raw, list), "expected a list of state names", path)
    out = set()
    for k, name in enumerate(raw):
        _expect(isinstance(name, str), "state name must be a string", f"{path}[{k}]")
        _expect(name in names, f"unknown state {name!r}", f"{path}[{k}]")
        out.add(names[name])
    return frozenset(out)


def _decode(doc) -> Mmqba:
    _expect(isinstance(doc, dict), "document must be a JSON object", "$")
    required = ["type", "states", "alphabet", "initial", "accepting", "rejecting", "unitaries"]
    for key in required:
        _expect(key in doc, f"missing required key {key!r}", "$")
    unknown = set(doc) - set(required)
    _expect(not unknown, f"unknown keys {sorted(unknown)}", "$")

    kind = doc["type"]
    _expect(kind in ("mmqba", "mmqfa"), f"type must be 'mmqba' or 'mmqfa', got {kind!r}", "type")

    states = doc["states"]
    _expect(isinstance(states, list) and states, "states must be a nonempty list", "states")
    for k, name in enumerate(states):
        _expect(isinstance(name, str) and name, "state name must be a nonempty string", f"states[{k}]")
    _expect(len(set(states)) == len(states), "state names must be distinct", "states")
    names = {name: i for i, name in enumerate(states)}
    dim = len(states)

    alphabet = doc["alphabet"]
    _expect(isinstance(alphabet, list), "alphabet must be a list", "alphabet")
    _expect(len(alphabet) > 0, "alphabet must be nonempty", "alphabet")
    for k, sym in enumerate(alphabet):
        here = f"alphabet[{k}]"
        _expect(isinstance(sym, str), "symbol must be a string", here)
        _expect(len(sym) == 1, f"symbol {sym!r} must be a single character", here)
        _expect(sym not in RESERVED_SYMBOLS, f"symbol {sym!r} is reserved", here)
    _expect(len(set(alphabet)) == len(alphabet), "alphabet symbols must be distinct", "alphabet")

    _expect(isinstance(doc["initial"], str), "initial must be a state name", "initial")
    _expect(doc["initial"] in names, f"unknown initial state {doc['initial']!r}", "initial")
    initial = names[doc["initial"]]

    accepting = _decode_state_list(doc["accepting"], names, "accepting")
    rejecting = _decode_state_list(doc["rejecting"], names, "rejecting")

    raw_unitaries = doc["unitaries"]
    _expect(isinstance(raw_unitaries, dict), "unitaries must be an object", "unitaries")
    allowed = set(alphabet) | {END_MARKER}
    if kind == "mmqfa":
        allowed.add(TERMINAL)
        _expect(TERMINAL in raw_unitaries, "mmqfa requires a '$' unitary", "unitaries")
    for sym in alphabet:
        _expect(sym in raw_unitaries, f"missing unitary for symbol {sym!r}", "unitaries")
    for sym in raw_unitaries:
        _expect(sym in allowed, f"unexpected unitary key {sym!r}", "unitaries")

    unitaries = {
        sym: _decode_matrix(raw_unitaries[sym], dim, f"unitaries.{sym}") for sym in alphabet
    }
    marker = None
    if END_MARKER in raw_unitaries:
        marker = _decode_matrix(raw_unitaries[END_MARKER], dim, f"unitaries.{END_MARKER}")

    common = dict(
        state_names=list(states),
        alphabet=list(alphabet),
        unitaries=unitaries,
        initial=initial,
        accepting=accepting,
        rejecting=rejecting,
        end_marker_unitary=marker,
    )
    if kind == "mmqfa":
        terminal = _decode_matrix(raw_unitaries[TERMINAL], dim, f"unitaries.{TERMINAL}")
        return Mmqfa(terminal_unitary=terminal, **common)
    return Mmqba(**common)


def loads(text: str) -> Mmqba:
    """Parse an automaton document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AutomatonFormatError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise AutomatonFormatError("parse error: nesting too deep", path="$") from None
    except ValueError:
        # an integer literal longer than Python converts to int
        raise AutomatonFormatError("parse error: integer literal too long", path="$") from None
    return _decode(doc)


def load(path) -> Mmqba:
    """Load an automaton from a ``.qba`` file."""
    try:
        # the bytes are dropped once decoded, before the parse
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AutomatonFormatError(
            f"not UTF-8 text: invalid byte at offset {exc.start}"
        ) from None
    return loads(text)


def _encode_matrix(m: np.ndarray) -> np.ndarray:
    """A matrix as a float64 array of [re, im] pairs, shape (*m.shape, 2)."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2)


_ENTRY = "\n        [\n          %r,\n          %r\n        ]"


def _append_matrix(m: np.ndarray, pieces: list) -> None:
    """Append a matrix as ``json.dumps(indent=2)`` lays it out inside the
    unitaries object: one %-format of a row template per row, whose first
    field is the "[" or "," before the row."""
    flat = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    width = flat.shape[1] // 2
    row = "%s\n      [" + ",".join([_ENTRY] * width) + ("\n      ]" if width else "]")
    finite = bool(np.isfinite(flat).all())
    lead = "["
    for values in flat:
        text = row % (lead, *values.tolist())
        if not finite:
            # %r spells them nan, inf and -inf; json writes NaN, Infinity, -Infinity
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        pieces.append(text)
        lead = ","
    pieces.append("\n    ]" if len(flat) else "[]")


def saves(a: Mmqba) -> str:
    """Serialize an automaton to its canonical JSON document.

    The text is what ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``
    writes: floats as ``float.__repr__`` spells them, non-finite ones as
    NaN, Infinity and -Infinity. Only the header goes through ``json``; the
    matrices are written row by row and the pieces joined once.
    """
    unitaries = {}
    if a.end_marker_unitary is not None:
        unitaries[END_MARKER] = a.end_marker_unitary
    if isinstance(a, Mmqfa):
        unitaries[TERMINAL] = a.terminal_unitary
    for sym in sorted(a.alphabet):
        unitaries[sym] = a.unitaries[sym]
    header = json.dumps(
        {
            "type": a.kind,
            "states": list(a.state_names),
            "alphabet": list(a.alphabet),
            "initial": a.state_names[a.initial],
            "accepting": [a.state_names[i] for i in sorted(a.accepting)],
            "rejecting": [a.state_names[i] for i in sorted(a.rejecting)],
        },
        indent=2,
        ensure_ascii=False,
    )
    # the header ends in "\n}"; "unitaries" is the last key of the document
    pieces = [header[:-2], ',\n  "unitaries": {']
    sep = "\n    "
    for sym, m in unitaries.items():
        pieces += (sep, json.dumps(sym, ensure_ascii=False), ": ")
        _append_matrix(m, pieces)
        sep = ",\n    "
    pieces.append("\n  }\n}\n" if unitaries else "}\n}\n")
    return "".join(pieces)


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    """Deterministic JSON: sorted keys, floats with 17 significant digits,
    and null for a float that is not finite. A finite float64 array is
    written by one ``%`` over a template of ``%.17g`` placeholders built
    from its shape; any other array goes element by element."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _f17(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and np.isfinite(obj).all():
        template = "%.17g"
        for width in reversed(obj.shape):
            template = "[" + ", ".join([template] * width) + "]"
        return template % tuple(obj.ravel().tolist())
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_text(x) for x in obj) + "]"
    if isinstance(obj, dict):
        parts = [f"{json.dumps(k)}: {_json_text(v)}" for k, v in sorted(obj.items())]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def save(a: Mmqba, path) -> None:
    Path(path).write_text(saves(a), encoding="utf-8")
