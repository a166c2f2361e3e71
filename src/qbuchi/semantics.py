"""Runs, traces, and verdicts for finite words and lasso-shaped infinite words.

The state of a run is the unnormalized non-halting amplitude vector
together with the accepting and rejecting probability collected so far.
One step applies the symbol's unitary, adds the squared amplitude of the
accepting and of the rejecting coordinates to the two sums, and zeroes
the halting coordinates. Norm is conserved: the non-halting squared norm
plus both sums stays 1. A trace is the tuple of StepRecords of a run, one
per symbol after the end marker.

A lasso word u v^omega is accepted at cutpoint p when the accepting mass
reaches p (up to the fixed slack DEFAULT_EPSILON, a floating-point guard),
the rejecting mass provably stays below p, and accepting visits keep a
frequency of at least the fixed DEFAULT_BETA per simulated cycle
repetition. The visit-frequency test is a finite-horizon heuristic for
the infinitely-many-visits clause, and the verdict reports its beta.
Rejection certificates are sound: once one holds it holds forever.

A long run at state dimension 16 and up may apply its undecided cycle
periods as compiled maps, in blocks of eight periods or one period at a
time, and checks the steps of up to eight such products together, as
arrays; _LassoContext.compiled_run says which products it keeps, and how
far their floats and verdicts may differ from a stepped run.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .automata import (END_MARKER, Mmqba, Mmqfa, TERMINAL, _Kernel, _check_count,
                       _check_cutpoint, _check_word, _f17, _json_text)

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


class StepRecord(NamedTuple):
    """One step of a trace; the fields are CSV_HEADER's columns."""

    j: int
    symbol: str
    alpha: float
    rho: float
    acc: float
    rej: float
    nonhalt_norm_sq: float


class _LassoFields(NamedTuple):
    prefix: str
    cycle: str


class LassoWord(_LassoFields):
    """Ultimately periodic word: a finite prefix followed by a repeated cycle.

    A named tuple whose every construction, _make, _replace and unpickling
    included, checks both parts."""

    __slots__ = ()

    def __new__(cls, prefix: str, cycle: str):
        if not (isinstance(prefix, str) and isinstance(cycle, str)):
            raise ValueError("lasso prefix and cycle must be strings")
        if not cycle:
            raise ValueError("lasso cycle must be nonempty")
        return tuple.__new__(cls, (prefix, cycle))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def expand(self, periods: int) -> str:
        return self.prefix + self.cycle * periods


class Verdict(NamedTuple):
    """The fields up to mode are in the order that ``qbuchi run`` prints."""

    status: Status
    reason: str
    acc_lower: float
    rej_lower: float
    rej_upper: float
    visit_count: int
    periods_simulated: int
    mode: str
    beta: float
    epsilon: float
    trace: tuple[StepRecord, ...] | None = None

    def to_dict(self) -> dict:
        """Every field but the trace, with the status as its value."""
        d = self._asdict()
        del d["trace"]
        d["status"] = self.status.value
        return d


CSV_HEADER = "j,symbol,alpha,rho,acc,rej,nonhalt_norm_sq"


def trace_to_csv(records: Sequence[StepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        symbol = r.symbol
        if any(c in symbol for c in ',"\r\n'):  # RFC 4180 quoting keeps seven fields
            symbol = '"' + symbol.replace('"', '""') + '"'
        lines.append(
            f"{r.j},{symbol},{_f17(r.alpha)},{_f17(r.rho)},"
            f"{_f17(r.acc)},{_f17(r.rej)},{_f17(r.nonhalt_norm_sq)}"
        )
    return "\n".join(lines) + "\n"


def trace_to_json(records: Sequence[StepRecord]) -> str:
    if not records:
        return "[]\n"
    return "[\n" + ",\n".join("  " + _json_text(r._asdict()) for r in records) + "\n]\n"


def _start_vector(a: Mmqba) -> np.ndarray:
    psi = np.zeros(a.dim, dtype=np.complex128)
    psi[a.initial] = 1.0
    return psi


def _norm_sq(psi: np.ndarray) -> float:
    return float(np.vdot(psi, psi).real)


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


def _row_sums(columns: np.ndarray) -> np.ndarray:
    """The sum of each row, added column by column from the left, as sum()
    adds a list."""
    total = np.zeros(len(columns))
    for column in columns.T:
        total += column
    return total


class _Run(NamedTuple):
    """Run state of a lasso word after some symbols past the end marker; state
    is its amplitude vector's bytes, made once, read through read-only views."""

    state: bytes
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

# compiled_run's bound on a fixed point, as a share of the state's squared
# norm: a compiled period that leaves both sums as they were is kept when
# the mass it halts, or for a single period its squared move, is above this
# share, since stepping could leave a state below both exactly where it
# was. Compiled and stepped states differ by a few ulps times dim, far
# below it; a state that still drains or turns moves far more.
_FIXED_POINT_SQ = 1e-18

# The undecided periods of a compiled run are taken this many at a time,
# as one product by the compiled block. A power of two, since the block is
# built by doubling; of 4, 8 and 16, 8 gave the fastest runs at dimensions
# 81 and 243.
_BLOCK = 8

# compiled_run takes up to this many blocks or periods a call, and checks
# all their steps in one pass of array arithmetic. The products after a
# discarded one are wasted, so after a discard a call takes one, and each
# call that keeps all it took doubles the next, up to this. The pass's
# arrays add to the run's memory: at dimension 81, 8 kept the peak within
# 1.05 times the compiled matrices, and 16 took it to 1.19.
_CHUNK = 8

# The transition table of a lasso context is cleared once it holds about
# this many bytes, at 16 * dim + 512 bytes an entry: the new state's bytes
# and at most some 500 bytes of Python objects (tracemalloc read 146 at
# dimensions 8 to 243). The key's state is held by the entry that made it.
# Without a cap a search whose runs stay open keeps every state it steps
# to, and its memory grows with the search: at dimension 8 a tracemalloc
# peak of 8.4 MB after 4 rounds, against 5.7 MB with the cap and 0.55 MB
# with a table of one entry.
_TRANSITION_BYTES = 8 << 20


class _LassoContext:
    """Kernel, acceptance test, prefix table, phase table and transition
    table of run_lasso calls.

    The constructor is the one place where the test (p, mode) is checked,
    advance is the one loop that applies it, step by step, and run_word
    runs a lasso word under it. The prefix phase of a run depends only on
    the automaton, the prefix and the test, so its outcome is kept per
    prefix: a settled REJECTED verdict, or the _Run after '#u'. The cycle
    phase depends only on that run's state, the cycle, the test and the
    budget, so the phase table keeps its outcome per (start state, cycle),
    keyed on the start run, whose state is its vector's bytes: prefixes
    whose runs reach bitwise the same state share their cycle phases, as
    run_word describes. A measured step depends only on its state and its
    symbol, so the transition table keeps, per (state, symbol), the new
    state and the step's (alpha, rho, nh); bytes cannot be written, so
    runs and tables share them. A step the table holds copies and hashes
    no bytes, and runs that pass through one state, such as rotations and
    powers of one cycle, step each distinct transition once while the
    table holds it. The table is cleared whenever it holds max_transitions
    entries, which take about _TRANSITION_BYTES. check_emptiness shares
    one context between the candidates of a search; a single run builds
    its own, whose records collect the trace. The root, the run after the
    end marker, has halted when the marker leaves no non-halting mass, by
    the same rule as every later state.
    """

    def __init__(self, a: Mmqba, p: float, mode: str, records: list | None = None):
        p = _check_cutpoint(p)
        # the accept test is acc >= p - DEFAULT_EPSILON, which p <= DEFAULT_EPSILON
        # makes vacuous; NaN fails every comparison below
        if not p > DEFAULT_EPSILON:
            raise ValueError(f"cutpoint must exceed epsilon {DEFAULT_EPSILON!r}, got {p!r}")
        if mode not in (CERTIFIED, LITERAL):
            raise ValueError(f"mode must be {CERTIFIED!r} or {LITERAL!r}")
        self.kernel = _Kernel(a)
        self.p, self.mode = p, mode
        self.records = records
        psi, alpha, rho = self.kernel.apply(_start_vector(a), END_MARKER)
        nh = _norm_sq(psi)
        root = _Run(psi.tobytes(), alpha, rho, 0, nh <= _HALTED_SQ)
        if not a.accepting:
            root = self.verdict(Status.REJECTED, REASON_BUCHI_REFUTED, alpha, rho, nh, 0, 0)
        self.phases = {}
        self.transitions = {}
        self.max_transitions = _TRANSITION_BYTES // (16 * a.dim + 512)
        self.prefixes = {"": root}

    def verdict(self, status, reason, acc, rej, nh, visits, periods) -> Verdict:
        records = self.records
        return Verdict(status, reason, acc, rej, rej + nh, visits, periods, self.mode,
                       DEFAULT_BETA, DEFAULT_EPSILON,
                       tuple(records) if records is not None else None)

    def advance(self, run: _Run, word: str, k: int = 0, stop: int = 0):
        """Step run through periods k+1 .. stop of the cycle word, or once
        through a prefix word when stop is 0, with every certificate after
        each step.

        Returns (verdict, period) once the run settles: a step's certificate
        gives REJECTED, or ACCEPTED in literal mode, and a period that leaves
        both sums and the state bitwise as they were is an exact fixed point
        of the cycle map, where no further accepting visit is possible:
        REJECTED buchi-refuted, or ACCEPTED once accepted. Otherwise it
        returns (run, period) at stop, or at the step of a period where the
        non-halting mass is gone. A prefix is stepped to its end, since the
        cycle starts from the state after it, and never accepts. Period k
        accepts only with visits >= DEFAULT_BETA * k; a verdict reports its
        period as periods_simulated, and a trace record its place in records
        as its step number. Each step is taken from the transition table,
        and stepped and stored there when it is not held; each run keeps its
        own sums, visits and records, so every float is that of a stepped run.
        """
        apply = self.kernel.apply
        transitions = self.transitions
        records = self.records
        p, mode = self.p, self.mode
        low = p - DEFAULT_EPSILON
        visit_eps, halt_sq = DEFAULT_VISIT_EPS, _HALTED_SQ
        state, acc, rej, visits, halted, accepted = run
        psi = made = None  # psi is the vector of made, the state the last miss made
        while True:
            state0, acc0, rej0 = state, acc, rej
            if stop:
                k += 1
            need = DEFAULT_BETA * k if k else math.inf
            for sym in word:
                step = transitions.get((state, sym))
                if step is None:
                    if made is not state:
                        psi = np.frombuffer(state, np.complex128)
                    psi, alpha, rho = apply(psi, sym)
                    made = psi.tobytes()
                    step = made, alpha, rho, _norm_sq(psi)
                    if len(transitions) >= self.max_transitions:
                        transitions.clear()
                    transitions[state, sym] = step
                state, alpha, rho, nh = step
                acc += alpha
                rej += rho
                if records is not None:
                    records.append(StepRecord(len(records) + 1, sym, alpha, rho, acc, rej, nh))
                if alpha > visit_eps:
                    visits += 1
                if rej >= p:
                    return self.verdict(Status.REJECTED, REASON_REJ_REFUTED,
                                        acc, rej, nh, visits, k), k
                halted_now = nh <= halt_sq
                if acc + nh < low:
                    reason = REASON_HALTED_BELOW if halted_now else REASON_ACC_REFUTED
                    return self.verdict(Status.REJECTED, reason,
                                        acc, rej, nh, visits, k), k
                if not accepted and acc >= low and visits >= need:
                    rej_ok = (rej + nh < p) if mode == CERTIFIED else (rej < p)
                    if rej_ok:
                        accepted = True
                        if mode == LITERAL:
                            return self.verdict(Status.ACCEPTED, REASON_CERTIFIED,
                                                acc, rej, nh, visits, k), k
                if halted_now:
                    halted = True
                    if k:
                        break
            if stop and not halted and acc == acc0 and rej == rej0 and (
                    np.frombuffer(state, np.complex128)
                    == np.frombuffer(state0, np.complex128)).all():
                status, reason = ((Status.ACCEPTED, REASON_CERTIFIED) if accepted
                                  else (Status.REJECTED, REASON_BUCHI_REFUTED))
                return self.verdict(status, reason, acc, rej, nh, visits, k), k
            if halted or k == stop:
                return _Run(state, acc, rej, visits, halted, accepted), k

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

    def compiled_run(self, run: _Run, cycle: str, k: int, g: np.ndarray,
                     periods: int, count: int):
        """Up to count applications of the compiled map g (G, or G_K from
        blocked) of periods periods each, the first of them period k: the
        run after those that come before the first one discarded, and how
        many they are.

        Each application is one product, whose floats may differ from
        stepping, and so from run_prefix, in the last bits. The products are
        taken in turn; then every step's alpha, rho, acc, rej, nh and visit
        count come from array arithmetic in the order advance adds them.
        Within an application the non-halting mass is the mass at its start
        less what has halted, and after its last step it is the norm of the
        new state. An application's steps are tested at the need of its
        first period, DEFAULT_BETA * k: need only grows, so periods that do
        not accept at it would not accept at their own, larger needs. It is
        discarded if a step settles the run, sets accepted or halts it, or if its last
        period leaves both sums as they were and halts no more than
        _FIXED_POINT_SQ of the mass at its start, unless it is a single
        period that moves the state by more than _FIXED_POINT_SQ of its
        squared norm. So these events and any exact fixed point are left to
        stepping; only a threshold that stepping would cross within the last
        bits can give a verdict, period or visit count other than a stepped
        run's. The records of the kept steps are built from the arrays.
        """
        kernel, records = self.kernel, self.records
        n_rows = len(g) - kernel.a.dim
        width = len(cycle)
        steps = periods * width
        states = [np.frombuffer(run.state, np.complex128)]
        halting = np.empty((count, n_rows), dtype=np.complex128)
        for i in range(count):
            out = g @ states[-1]
            halting[i] = out[:n_rows]
            states.append(out[n_rows:])
        norms = [_norm_sq(psi) for psi in states]
        # per step, the squares of the halting amplitudes' real and
        # imaginary parts, the accepting states' first, summed column by
        # column from the left as sum() adds them
        squares = np.square(halting.view(np.float64)).reshape(count * steps, -1)
        m = 2 * kernel.n_acc
        alpha, rho = _row_sums(squares[:, :m]), _row_sums(squares[:, m:])
        halted_mass = (alpha + rho).reshape(count, steps)
        nh = np.subtract.accumulate(np.column_stack((norms[:-1], halted_mass)), axis=1)
        last_start = nh[:, steps - width]
        nh[:, -1] = norms[1:]
        nh = nh[:, 1:].ravel()
        acc = np.cumsum(np.concatenate(([run.acc], alpha)))
        rej = np.cumsum(np.concatenate(([run.rej], rho)))
        visits = run.visits + np.cumsum(alpha > DEFAULT_VISIT_EPS)
        p, low = self.p, self.p - DEFAULT_EPSILON
        stop = (rej[1:] >= p) | (acc[1:] + nh < low) | (nh <= _HALTED_SQ)
        if not run.accepted:
            need = np.repeat(DEFAULT_BETA * (k + periods * np.arange(count)), steps)
            rej_ok = rej[1:] + nh < p if self.mode == CERTIFIED else rej[1:] < p
            stop |= (acc[1:] >= low) & (visits >= need) & rej_ok
        stop = stop.reshape(count, steps).any(axis=1)
        ends = steps * np.arange(1, count + 1)
        still = ((acc[ends] == acc[ends - width]) & (rej[ends] == rej[ends - width])
                 & (halted_mass[:, -width:].sum(axis=1) <= _FIXED_POINT_SQ * last_start))
        kept = count
        for i in np.flatnonzero(stop | still).tolist():
            if (stop[i] or periods > 1
                    or _norm_sq(states[i + 1] - states[i]) <= _FIXED_POINT_SQ * norms[i]):
                kept = i
                break
        if not kept:
            return run, 0
        n = kept * steps
        if records is not None:
            j = len(records) + 1
            records.extend(map(StepRecord, range(j, j + n), cycle * (kept * periods),
                               alpha[:n].tolist(), rho[:n].tolist(), acc[1:n + 1].tolist(),
                               rej[1:n + 1].tolist(), nh[:n].tolist()))
        return _Run(states[kept].tobytes(), float(acc[n]), float(rej[n]), int(visits[n - 1]),
                    False, run.accepted), kept

    def after(self, u: str):
        """The prefix-phase outcome of u, memoized.

        It is built on the entry for u[:-1] when that is known, as in a
        search, which asks for prefixes in order of length; otherwise
        it is advanced from the root. A settled entry passes on unchanged.
        """
        entry = self.prefixes.get(u)
        if entry is None:
            base = u[:-1] if u[:-1] in self.prefixes else ""
            entry = self.prefixes[base]
            if isinstance(entry, _Run):
                entry = self.advance(entry, u[len(base):])[0]
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
        key = (*start, cycle)
        entry = self.phases.get(key)
        run, k = start, 0
        if entry is not None:
            low, high, verdict, resume = entry
            if low <= max_periods <= high:
                return verdict
            if resume is not None and max_periods > high:
                run, k = resume
        # a G_8 block would replace eight steps of a one-symbol cycle by one
        # product, but near a fixed point each discarded period is stepped as
        # well; such cycles stay stepped (ROADMAP items 6 and 8 hold the times)
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

        A stepped run takes all its periods in one advance call. When
        compiles and at least dim periods are left after the first, that
        call takes the first period only, and G and G_K are built after it.
        The later periods are then tried by compiled_run in blocks of _BLOCK
        while that many are left outside a discarded block, else one at a
        time up to the end of that block or of the budget, up to _CHUNK
        blocks or periods a call. A discarded block is taken again one
        period at a time, and a discarded period is stepped by one advance
        call; only stepped periods need the checks.
        """
        g = gk = None
        # periods up to this one are tried one at a time after a discarded block
        singles_until = 0
        # the most applications the next compiled_run call takes (see _CHUNK)
        chunk = _CHUNK
        # compiling costs about (|v| - 1) * dim matrix-vector products and
        # log2 _BLOCK products of dim x dim matrices; it saves |v| - 1
        # products a period, and a block saves _BLOCK - 1 more
        compiles = compiles and max_periods - 1 >= self.kernel.a.dim
        while k < max_periods:
            if k == 1 and g is None and compiles:
                g = self.compiled(cycle)
                gk = self.blocked(g)
            if g is None:
                stop = 1 if compiles and k == 0 else max_periods
            else:
                if k >= singles_until and max_periods - k >= _BLOCK:
                    n, count = _BLOCK, min(chunk, (max_periods - k) // _BLOCK)
                else:
                    n, count = 1, min(chunk, (singles_until if k < singles_until
                                              else max_periods) - k)
                run, kept = self.compiled_run(run, cycle, k + 1, gk if n > 1 else g, n, count)
                k += kept * n
                if kept == count:
                    chunk = min(2 * chunk, _CHUNK)
                    continue
                chunk = 1
                if n > 1:
                    singles_until = k + _BLOCK
                    continue
                stop = k + 1
            run, k = self.advance(run, cycle, k, stop)
            if isinstance(run, Verdict):
                return run, None
            if run.halted:
                break
        state, acc, rej, visits, halted, accepted = run
        nh = _norm_sq(np.frombuffer(state, np.complex128))
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
    mode: str = CERTIFIED,
    record_trace: bool = False,
    _context: _LassoContext | None = None,
) -> Verdict:
    """Simulate u v^omega and return a cutpoint verdict with certificates.

    REJECTED is certified: the rejecting mass reached p, or the accepting
    mass can never reach p (acc + nh < p - DEFAULT_EPSILON, reported as
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
    reported bounds are tight. The fixed slack DEFAULT_EPSILON (1e-9) pads
    the accept test, acc >= p - DEFAULT_EPSILON, so p must exceed it, and
    equally guards the accepting-side refutation, which would otherwise
    misfire at p = 1 where acc + nh rounds a few ulps under 1. Verdicts
    never flip between ACCEPTED and REJECTED when the budget grows, except
    for limits within DEFAULT_EPSILON of the cutpoint. A long run at
    dimension 16 and up may apply its cycle periods compiled, as
    _LassoContext.compiled_run describes. _context is private:
    check_emptiness passes one context, built for a and p, to all its
    candidates, and that context supplies the test, so mode is not
    read. A context for another automaton or cutpoint, or a traced
    run, is refused.
    """
    max_periods = _check_count("max_periods", max_periods)
    if _context is None:
        context = _LassoContext(a, p, mode, [] if record_trace else None)
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
