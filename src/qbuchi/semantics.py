"""Runs, traces, and verdicts for finite words and lasso-shaped infinite words.

The state of a run is the unnormalized non-halting amplitude vector
together with the accepting and rejecting probability collected so far.
One step applies the symbol's unitary, adds the squared amplitude of the
accepting and of the rejecting coordinates to the two sums, and zeroes
the halting coordinates. Norm is conserved: the non-halting squared norm
plus both sums stays 1. A trace is the tuple of StepRecords of a run, one
per symbol after the end marker.

A lasso word u v^omega is accepted at cutpoint p when the accepting mass
reaches p (up to a slack epsilon), the rejecting mass provably stays below
p, and accepting visits keep a frequency of at least beta per simulated
cycle repetition. The visit-frequency test is a finite-horizon heuristic
for the infinitely-many-visits clause; it is reported in the verdict so
callers can audit or tighten it. Rejection certificates are sound: once
one holds it holds forever.

A long run at state dimension 16 and up may apply its undecided cycle
periods as compiled maps, eight periods or one at a time;
_LassoContext.compiled_run says which it keeps, and how far their floats
and verdicts may differ from a stepped run.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .automata import (END_MARKER, Mmqba, Mmqfa, TERMINAL, _check_count, _check_cutpoint,
                       _check_word)

DEFAULT_MAX_PERIODS = 1024
DEFAULT_EPSILON = 1e-9
DEFAULT_BETA = 0.5
# A step is an accepting visit when its accepting probability exceeds
# DEFAULT_VISIT_EPS, and a run has halted once its non-halting mass is at
# most _HALTED_SQ.
DEFAULT_VISIT_EPS = 1e-12
_HALTED_SQ = DEFAULT_VISIT_EPS * DEFAULT_VISIT_EPS

CERTIFIED = "certified"
LITERAL = "literal"

REASON_CERTIFIED = "all-clauses-certified"
REASON_REJ_REFUTED = "rej-limit-refuted"
REASON_ACC_REFUTED = "acc-limit-refuted"
REASON_HALTED_BELOW = "halted-below-cutpoint"
REASON_BUCHI_REFUTED = "buchi-refuted"
REASON_BUDGET = "budget-exhausted"


class Status(enum.Enum):
    ACCEPTED = "ACCEPTED"
    REJECTED = "REJECTED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class StepRecord:
    j: int
    symbol: str
    alpha: float
    rho: float
    acc: float
    rej: float
    nonhalt_norm_sq: float


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word: a finite prefix followed by a repeated cycle."""

    prefix: str
    cycle: str

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")

    def expand(self, periods: int) -> str:
        return self.prefix + self.cycle * periods


@dataclass(frozen=True)
class Verdict:
    status: Status
    acc_lower: float
    rej_lower: float
    rej_upper: float
    visit_count: int
    periods_simulated: int
    reason: str
    beta: float
    epsilon: float
    mode: str
    trace: tuple[StepRecord, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "acc_lower": self.acc_lower,
            "rej_lower": self.rej_lower,
            "rej_upper": self.rej_upper,
            "visit_count": self.visit_count,
            "periods_simulated": self.periods_simulated,
            "reason": self.reason,
            "beta": self.beta,
            "epsilon": self.epsilon,
            "mode": self.mode,
        }


CSV_HEADER = "j,symbol,alpha,rho,acc,rej,nonhalt_norm_sq"


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def trace_to_csv(records: Sequence[StepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.j},{r.symbol},{_f17(r.alpha)},{_f17(r.rho)},"
            f"{_f17(r.acc)},{_f17(r.rej)},{_f17(r.nonhalt_norm_sq)}"
        )
    return "\n".join(lines) + "\n"


def _float_nest_text(obj: list | tuple) -> str | None:
    """The JSON text of a list that nests lists of equal length down to
    plain finite floats, each leaf formatted like ``_f17`` by one ``%``
    over a template of ``%.17g`` placeholders; None for any other list."""
    shape, leaves = [len(obj)], obj
    while set(map(type, leaves)) == {list}:
        widths = set(map(len, leaves))
        if len(widths) != 1:
            return None
        shape.append(widths.pop())
        leaves = list(chain.from_iterable(leaves))
    if set(map(type, leaves)) != {float} or not all(map(math.isfinite, leaves)):
        return None
    template = "%.17g"
    for width in reversed(shape):
        template = "[" + ", ".join([template] * width) + "]"
    return template % tuple(leaves)


def _json_text(obj) -> str:
    """Deterministic JSON: sorted keys, floats with 17 significant digits,
    and null for a float that is not finite."""
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
    if isinstance(obj, (list, tuple)):
        text = _float_nest_text(obj)
        if text is not None:
            return text
        return "[" + ", ".join(_json_text(x) for x in obj) + "]"
    if isinstance(obj, dict):
        parts = [f"{json.dumps(k)}: {_json_text(v)}" for k, v in sorted(obj.items())]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def trace_to_json(records: Sequence[StepRecord]) -> str:
    if not records:
        return "[]\n"
    return "[\n" + ",\n".join("  " + _json_text(vars(r)) for r in records) + "\n]\n"


def _start_vector(a: Mmqba) -> np.ndarray:
    psi = np.zeros(a.dim, dtype=np.complex128)
    psi[a.initial] = 1.0
    return psi


def _norm_sq(psi: np.ndarray) -> float:
    return float(np.vdot(psi, psi).real)


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


def _records(kernel: _Kernel, word: str) -> tuple[StepRecord, ...]:
    """Apply the end marker, then every symbol of word, with one record
    per symbol; the marker's probabilities count toward acc and rej."""
    psi, acc, rej = kernel.apply(_start_vector(kernel.a), END_MARKER)
    records = []
    for j, sym in enumerate(word, 1):
        psi, alpha, rho = kernel.apply(psi, sym)
        acc += alpha
        rej += rho
        records.append(StepRecord(j, sym, alpha, rho, acc, rej, _norm_sq(psi)))
    return tuple(records)


def run_prefix(a: Mmqba, word: str) -> tuple[StepRecord, ...]:
    """The trace of a finite word: one step record per symbol, after the end marker."""
    kernel = _Kernel(a)
    _check_word(kernel.symbols, word)
    return _records(kernel, word)


def run_mmqfa(a: Mmqfa, word: str) -> tuple[float, float]:
    """Total accept and reject probability of a finite word, end markers included."""
    if not isinstance(a, Mmqfa):
        raise TypeError("run_mmqfa requires an automaton with a terminal unitary")
    kernel = _Kernel(a)
    _check_word(kernel.symbols, word)
    last = _records(kernel, word + TERMINAL)[-1]
    return last.acc, last.rej


def _check_test_params(epsilon: float, beta: float):
    """The rules of the visit test's parameters; NaN fails every comparison."""
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")


class _Run(NamedTuple):
    """Run state of a lasso word after some symbols past the end marker."""

    psi: np.ndarray
    acc: float
    rej: float
    visits: int
    halted: bool = False
    accepted: bool = False


# Cycle periods of a run are applied as one compiled map only from this
# state dimension up. The bound keeps every bundled fixture (the largest
# has dimension 15), and so every golden and every bit-for-bit test built
# on one, on the stepped arithmetic they were written with.
_COMPILED_MIN_DIM = 16

# compiled_run's bound on the squared move of a fixed point, as a share of
# the state's squared norm: stepping could leave such a state exactly where
# it was. Compiled and stepped states differ by a few ulps times dim, far
# below it; a state that still drains or turns moves far more.
_FIXED_POINT_SQ = 1e-18

# The undecided periods of a compiled run are taken this many at a time,
# as one product by the compiled block. A power of two, since the block is
# built by doubling; of 4, 8 and 16, 8 gave the fastest runs at dimensions
# 81 and 243.
_BLOCK = 8

# The transition table of a lasso context is cleared once it holds about
# this many bytes. An entry keeps the key's bytes and the new state, 16 *
# dim bytes each, and at most some 500 bytes of Python objects, so the
# entry cap is worked out per dimension. Without a cap a search whose runs
# stay open keeps every state it steps to, and its memory grows with the
# search: at dimension 8 a tracemalloc peak of 13 MB after 4 rounds, against
# 7.5 MB with the cap and 0.8 MB without a table.
_TRANSITION_BYTES = 8 << 20


class _LassoContext:
    """Kernel, acceptance test, prefix table, phase table and transition
    table of run_lasso calls.

    The constructor is where the test (p, epsilon, beta, mode) is
    checked, advance is where it is applied, and run_word runs a lasso
    word under it. The prefix phase of a run depends only on the
    automaton, the prefix and the test, so its outcome is kept per
    prefix: a settled REJECTED verdict, or the _Run after '#u'. Prefixes
    whose runs reach bitwise the same state share one _Run, and the cycle
    phase depends only on that state, the cycle, the test and the budget,
    so the phase table keeps its outcome per (start state, cycle), as
    run_word describes.
    A measured step depends only on the bytes of its state and on its
    symbol, so the transition table keeps, per (psi.tobytes(), symbol),
    the new state, read-only, and the step's (alpha, rho, nh): runs that
    pass through one state, such as rotations and powers of one cycle,
    step each distinct transition once while the table holds it. The
    table is cleared whenever it holds max_transitions entries, which
    take about _TRANSITION_BYTES.
    check_emptiness shares one context between the candidates of a
    search; a single run builds its own, whose records collect the trace.
    The root, the run after the end marker, has halted when the marker
    leaves no non-halting mass, by the same rule as every later state.
    """

    def __init__(self, a: Mmqba, p: float, epsilon: float, beta: float,
                 mode: str, records: list | None = None):
        p = _check_cutpoint(p)
        _check_test_params(epsilon, beta)
        # the accept test is acc >= p - epsilon, which epsilon >= p makes vacuous
        if not epsilon < p:
            raise ValueError(f"epsilon (default {DEFAULT_EPSILON!r}) must lie below "
                             f"the cutpoint {p!r}, got {epsilon!r}")
        if mode not in (CERTIFIED, LITERAL):
            raise ValueError(f"mode must be {CERTIFIED!r} or {LITERAL!r}")
        self.kernel = _Kernel(a)
        self.p, self.epsilon, self.beta, self.mode = p, epsilon, beta, mode
        self.records = records
        psi, alpha, rho = self.kernel.apply(_start_vector(a), END_MARKER)
        psi.flags.writeable = False
        nh = _norm_sq(psi)
        root = _Run(psi, alpha, rho, 0, nh <= _HALTED_SQ)
        if not a.accepting:
            root = self.verdict(Status.REJECTED, REASON_BUCHI_REFUTED, alpha, rho, nh, 0, 0)
        self.states = {}
        self.phases = {}
        self.transitions = {}
        self.max_transitions = _TRANSITION_BYTES // (32 * a.dim + 512)
        self.prefixes = {"": self.intern(root)}

    def verdict(self, status, reason, acc, rej, nh, visits, periods) -> Verdict:
        records = self.records
        return Verdict(
            status=status,
            acc_lower=acc,
            rej_lower=rej,
            rej_upper=rej + nh,
            visit_count=visits,
            periods_simulated=periods,
            reason=reason,
            beta=self.beta,
            epsilon=self.epsilon,
            mode=self.mode,
            trace=tuple(records) if records is not None else None,
        )

    def advance(self, run: _Run, word: str, periods: int, need: float,
                given: list | None = None):
        """Step run through word and apply every certificate after each step.

        Returns the verdict that settles the run (REJECTED, or ACCEPTED in
        literal mode), or the run after word. A cycle period stops early at
        the step where the non-halting mass is gone; a prefix (periods 0)
        is stepped to its end, since the cycle starts from the state after
        the whole prefix. The accept test needs visits >= need; the prefix
        phase passes math.inf, so a prefix never accepts. A verdict reports
        periods as its periods_simulated, and a trace record its place in
        records as its step number. given, when passed, holds the
        (alpha, rho, nh) of every step of word, which are then not stepped:
        the run keeps the psi it is given. Otherwise each step is taken
        from the transition table, and stepped and stored there when it is
        not held; each run keeps its own sums, visits and records, so
        every float is that of a stepped run.
        """
        apply = self.kernel.apply
        transitions = self.transitions
        records = self.records
        p, mode = self.p, self.mode
        low = p - self.epsilon
        visit_eps, halt_sq = DEFAULT_VISIT_EPS, _HALTED_SQ
        psi, acc, rej, visits, halted, accepted = run
        if given is not None:
            given = iter(given)
        for sym in word:
            if given is None:
                key = (psi.tobytes(), sym)
                step = transitions.get(key)
                if step is None:
                    psi, alpha, rho = apply(psi, sym)
                    psi.flags.writeable = False
                    step = psi, alpha, rho, _norm_sq(psi)
                    if len(transitions) >= self.max_transitions:
                        transitions.clear()
                    transitions[key] = step
                psi, alpha, rho, nh = step
            else:
                alpha, rho, nh = next(given)
            acc += alpha
            rej += rho
            if records is not None:
                records.append(StepRecord(len(records) + 1, sym, alpha, rho, acc, rej, nh))
            if alpha > visit_eps:
                visits += 1
            if rej >= p:
                return self.verdict(Status.REJECTED, REASON_REJ_REFUTED,
                                    acc, rej, nh, visits, periods)
            halted_now = nh <= halt_sq
            if acc + nh < low:
                reason = REASON_HALTED_BELOW if halted_now else REASON_ACC_REFUTED
                return self.verdict(Status.REJECTED, reason,
                                    acc, rej, nh, visits, periods)
            if not accepted and acc >= low and visits >= need:
                rej_ok = (rej + nh < p) if mode == CERTIFIED else (rej < p)
                if rej_ok:
                    accepted = True
                    if mode == LITERAL:
                        return self.verdict(Status.ACCEPTED, REASON_CERTIFIED,
                                            acc, rej, nh, visits, periods)
            if halted_now:
                halted = True
                if periods:
                    break
        return _Run(psi, acc, rej, visits, halted, accepted)

    def compiled(self, cycle: str) -> np.ndarray:
        """The compiled map G of one period of cycle.

        After step j of a period, the non-halting map of its first j steps
        is M_j, and the amplitudes the step zeroes are the halting rows of
        U_{v_j} M_{j-1}. G stacks these rows in step order over M_|v|, so
        G @ psi holds the halting amplitudes of every step of a period
        that starts at psi, followed by the state after the period. M_1 is
        U_{v_1} with its halting rows zeroed, so M is built in G's last dim
        rows from a copy of U_{v_1}, and each later step is one product
        U_{v_j} M, which makes one dim x dim temporary.
        """
        kernel = self.kernel
        dim, h = kernel.a.dim, len(kernel.halt_idx)
        g = np.empty((len(cycle) * h + dim, dim), dtype=np.complex128)
        m = g[len(cycle) * h:]
        m[...] = kernel.a.unitary_for(cycle[0])
        for j, sym in enumerate(cycle):
            if j:
                m[...] = kernel.a.unitary_for(sym) @ m
            g[j * h:(j + 1) * h] = kernel.halting(m)[1]
        return g

    def blocked(self, g: np.ndarray) -> np.ndarray:
        """The compiled block G_K of _BLOCK periods, built from the map G of
        one period.

        Write G_n = [H_n; M_n], with H_n the halting rows of n periods and
        M_n = M_v^n. Then G_2n = [H_n; G_n @ M_n]: the halting rows of
        periods n+1 to 2n are H_n M_n, and M_2n = M_n M_n. The doubling
        fills one array whose last dim rows hold M_n, in log2 _BLOCK
        steps, each of which makes one dim x dim temporary.
        """
        dim = self.kernel.a.dim
        rows = len(g) - dim
        gk = np.empty((_BLOCK * rows + dim, dim), dtype=np.complex128)
        gk[:rows] = g[:rows]
        m = gk[_BLOCK * rows:]
        m[...] = g[rows:]
        n = rows
        while n < _BLOCK * rows:
            np.matmul(gk[:n], m, out=gk[n:2 * n])
            m[...] = m @ m
            n *= 2
        return gk

    def compiled_run(self, run: _Run, cycle: str, k: int, need: float,
                     g: np.ndarray, periods: int):
        """The run after the periods periods of cycle from run, the first
        of them period k, by their compiled map g (G, or G_K from blocked),
        or None when they are discarded, with their records.

        The periods are one product, whose floats may differ from stepping,
        and so from run_prefix, in the last bits. Within them the
        non-halting mass is the mass at the start less what has halted,
        and after the last step it is the norm of the new state. All steps
        go through advance at need, the first period's: need only grows,
        so periods that do not accept at it would not accept at their own,
        larger needs. They are discarded if a step settles the run, sets
        accepted or halts it, or if the last period leaves both sums as
        they were, unless it is the only one and moves the state by more
        than _FIXED_POINT_SQ of its squared norm. So these events and any
        exact fixed point are left to stepping; only a threshold that
        stepping would cross within the last bits can give a verdict,
        period or visit count other than a stepped run's.
        """
        kernel, records = self.kernel, self.records
        mark = len(records) if records is not None else 0
        out = g @ run.psi
        n_rows = len(g) - kernel.a.dim
        steps = periods * len(cycle)
        # per step, the squares of the halting amplitudes' real and
        # imaginary parts, the accepting states' first
        rows = np.square(out[:n_rows].view(np.float64)).reshape(steps, -1).tolist()
        m = 2 * kernel.n_acc
        psi = out[n_rows:]
        nh = _norm_sq(run.psi)
        given = []
        for row in rows:
            alpha, rho = sum(row[:m]), sum(row[m:])
            nh -= alpha + rho
            given.append((alpha, rho, nh))
        given[-1] = (alpha, rho, _norm_sq(psi))
        # the run before the last period, whose sums that period must change
        last = steps - len(cycle)
        mid = _Run(psi, *run[1:])
        if last:
            mid = self.advance(mid, cycle * (periods - 1), k, need, given[:last])
        if isinstance(mid, _Run):
            new = self.advance(mid, cycle, k, need, given[last:])
            if (isinstance(new, _Run) and not new.halted and new.accepted == run.accepted
                    and ((new.acc, new.rej) != (mid.acc, mid.rej)
                         or (periods == 1 and _norm_sq(psi - run.psi)
                             > _FIXED_POINT_SQ * _norm_sq(run.psi)))):
                return new
        if records is not None:
            del records[mark:]
        return None

    def intern(self, entry):
        """entry, or the _Run kept first for the same state when entry is a
        _Run.

        Two runs share a state when psi has the same bytes and acc, rej,
        visits, halted and accepted are equal. The kept _Run stays in
        self.states, so its id names the state in the phase table.
        """
        if isinstance(entry, Verdict):
            return entry
        return self.states.setdefault((entry.psi.tobytes(), *entry[1:]), entry)

    def after(self, u: str):
        """The prefix-phase outcome of u, memoized and interned.

        It is built on the entry for u[:-1] when that is known, as in a
        search, which asks for prefixes in order of length; otherwise
        it is advanced from the root. A settled entry passes on unchanged.
        """
        entry = self.prefixes.get(u)
        if entry is None:
            base = u[:-1] if u[:-1] in self.prefixes else ""
            entry = self.prefixes[base]
            if isinstance(entry, _Run):
                entry = self.intern(self.advance(entry, u[len(base):], 0, math.inf))
            self.prefixes[u] = entry
        return entry

    def run_word(self, w: LassoWord, max_periods: int) -> Verdict:
        """The verdict of w, whose symbols the caller has checked, within
        max_periods >= 1 cycle periods: the prefix phase from the table,
        then the cycle phase from the phase table or from cycle_phase.

        The phase table keeps per (start state, cycle) the verdict of the
        last run, the budgets low..high it answers, and the (run, k) to
        resume from, so that no period of a stepped run is simulated
        twice. A REJECTED verdict, or an INCONCLUSIVE one whose
        run halted, answers every budget of at least its
        periods_simulated; any other verdict answers its own budget only,
        ACCEPTED too, since certified mode runs on to the budget. A larger
        budget resumes an INCONCLUSIVE run that has not halted from its
        last period. A cycle of two symbols or more, at state dimension
        _COMPILED_MIN_DIM and up, compiles: whether and where its run
        takes compiled periods depends on the budget, so there a verdict
        answers its own budget only and a larger budget runs afresh. Every
        answer is bit-identical to a fresh run's.
        """
        start = self.after(w.prefix)
        if isinstance(start, Verdict):
            return start
        cycle = w.cycle
        key = (id(start), cycle)
        entry = self.phases.get(key)
        run, k = start, 0
        if entry is not None:
            low, high, verdict, resume = entry
            if low <= max_periods <= high:
                return verdict
            if resume is not None and max_periods > high:
                run, k = resume
        # a cycle of one symbol saves no product a period by compiling
        compiles = len(cycle) > 1 and self.kernel.a.dim >= _COMPILED_MIN_DIM
        verdict, resume = self.cycle_phase(run, cycle, k, max_periods, compiles)
        low = high = max_periods
        if compiles:
            resume = None
        elif resume is None and verdict.status is not Status.ACCEPTED:
            low, high = verdict.periods_simulated, math.inf
        self.phases[key] = (low, high, verdict, resume)
        return verdict

    def cycle_phase(self, run: _Run, cycle: str, k: int, max_periods: int, compiles: bool):
        """The cycle phase from run after k periods, up to max_periods: the
        verdict once a period settles or halts the run, the cycle map
        reaches an exact fixed point, or the budget runs out, and the
        (run, k) to resume it from under a larger budget when the verdict
        is INCONCLUSIVE and the run has not halted, else None.

        When compiles and at least dim periods are left after the first,
        G and G_K are built after the first period. Each later period is
        then tried by compiled_run, _BLOCK at a time while that many are
        left outside a discarded block, else alone, and stepped if it is
        discarded; only stepped periods need the checks.
        """
        beta = self.beta
        g = gk = None
        # periods up to this one are tried one at a time after a discarded block
        singles_until = 0
        while k < max_periods:
            # compiling costs about (|v| - 1) * dim matrix-vector products and
            # log2 _BLOCK products of dim x dim matrices; it saves |v| - 1
            # products a period, and a block saves _BLOCK - 1 more
            if k == 1 and g is None and compiles and max_periods - 1 >= self.kernel.a.dim:
                g = self.compiled(cycle)
                gk = self.blocked(g)
            if g is not None:
                n = _BLOCK if k >= singles_until and max_periods - k >= _BLOCK else 1
                new = self.compiled_run(run, cycle, k + 1, beta * (k + 1), gk if n > 1 else g, n)
                if new is not None:
                    run, k = new, k + n
                    continue
                if n > 1:
                    singles_until = k + _BLOCK
                    continue
            k += 1
            prev, run = run, self.advance(run, cycle, k, beta * k)
            if isinstance(run, Verdict):
                return run, None
            if run.halted:
                break
            if (run.acc == prev.acc and run.rej == prev.rej
                    and np.array_equal(run.psi, prev.psi)):
                # exact fixed point of the cycle map: no future step can
                # differ, so no further accepting visit is possible
                if not run.accepted:
                    return self.verdict(Status.REJECTED, REASON_BUCHI_REFUTED, run.acc,
                                        run.rej, _norm_sq(run.psi), run.visits, k), None
                break
        psi, acc, rej, visits, halted, accepted = run
        nh = _norm_sq(psi)
        if accepted:
            return self.verdict(Status.ACCEPTED, REASON_CERTIFIED,
                                acc, rej, nh, visits, k), None
        return (self.verdict(Status.INCONCLUSIVE, REASON_BUDGET, acc, rej, nh, visits, k),
                None if halted else (run, k))


def run_lasso(
    a: Mmqba,
    w: LassoWord,
    p: float,
    *,
    max_periods: int = DEFAULT_MAX_PERIODS,
    epsilon: float = DEFAULT_EPSILON,
    beta: float = DEFAULT_BETA,
    mode: str = CERTIFIED,
    record_trace: bool = False,
    _context: _LassoContext | None = None,
) -> Verdict:
    """Simulate u v^omega and return a cutpoint verdict with certificates.

    REJECTED is certified: the rejecting mass reached p, or the accepting
    mass can never reach p (acc + nh < p - epsilon, reported as
    halted-below-cutpoint once the run has halted), or no accepting
    visit can ever happen again (no accepting states at all, or the cycle
    map reached an exact fixed point with zero halting flow). A run has
    halted once its non-halting mass nh is at most DEFAULT_VISIT_EPS**2,
    and an accepting visit is a step whose accepting probability exceeds
    DEFAULT_VISIT_EPS; both thresholds are fixed. ACCEPTED combines two
    sound limit certificates with the heuristic visit-frequency test; in
    literal mode the rejecting clause is checked as rej < p without the
    non-halting tail and the function returns at the first success,
    which reproduces the search algorithm's behavior.
    In certified mode the simulation continues to the budget so the
    reported bounds are tight. epsilon pads the accept test (acc may sit
    epsilon below p, so epsilon must lie below p) and equally guards the
    accepting-side refutation, which would otherwise misfire at p = 1
    where acc + nh rounds a few ulps under 1. Verdicts never flip between
    ACCEPTED and REJECTED when the budget grows, except for limits within
    epsilon of the cutpoint. A long run at dimension 16 and up may apply
    its cycle periods compiled, as _LassoContext.compiled_run describes.
    _context is private: check_emptiness passes one context, built for a
    and p, to all its candidates, and that context supplies the test, so
    epsilon, beta and mode are not read. A context for another
    automaton or cutpoint, or a traced run, is refused.
    """
    max_periods = _check_count("max_periods", max_periods)
    if _context is None:
        context = _LassoContext(a, p, epsilon, beta, mode, [] if record_trace else None)
    elif _context.kernel.a is a and _context.p == p and not record_trace:
        context = _context
    else:
        raise ValueError("a shared lasso context needs the same automaton and cutpoint, "
                         "and no trace")
    _check_word(context.kernel.symbols, w.prefix + w.cycle)
    return context.run_word(w, max_periods)


CLAUSE_CERTIFIED = "certified"
CLAUSE_POSSIBLE = "possible"
CLAUSE_REFUTED = "refuted"


@dataclass(frozen=True)
class ClauseReport:
    """Finite-horizon status of the three acceptance clauses."""

    buchi_visits: int
    buchi: str
    acc_limit: str
    rej_limit: str


def check_acceptance_clauses(trace: Sequence[StepRecord], p: float) -> ClauseReport:
    """Classify each acceptance clause as certified, possible, or refuted.

    trace is a sequence of step records, as run_prefix returns and
    Verdict.trace holds. A visit is a step whose accepting probability
    exceeds DEFAULT_VISIT_EPS, and the infinitely-often clause is refuted
    once the last step leaves the run halted, as run_lasso counts both.
    """
    records = tuple(trace)
    if not records:
        raise ValueError("trace must contain at least one step")
    p = _check_cutpoint(p)
    visits = sum(1 for r in records if r.alpha > DEFAULT_VISIT_EPS)
    last = records[-1]
    if last.nonhalt_norm_sq <= _HALTED_SQ:
        buchi = CLAUSE_REFUTED
    else:
        buchi = CLAUSE_POSSIBLE
    if last.acc >= p:
        acc_limit = CLAUSE_CERTIFIED
    elif last.acc + last.nonhalt_norm_sq < p:
        acc_limit = CLAUSE_REFUTED
    else:
        acc_limit = CLAUSE_POSSIBLE
    if last.rej >= p:
        rej_limit = CLAUSE_REFUTED
    elif last.rej + last.nonhalt_norm_sq < p:
        rej_limit = CLAUSE_CERTIFIED
    else:
        rej_limit = CLAUSE_POSSIBLE
    return ClauseReport(visits, buchi, acc_limit, rej_limit)
