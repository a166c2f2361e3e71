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

From state dimension 16 up, for a cycle of two symbols or more and when
at least dim periods are left in the budget, an undecided cycle period
from the second on is applied as one compiled map: the period's
non-halting map and every step's halting rows, built once per run. Its
floats may differ from stepping in the last bits. A compiled period in
which the run would settle, accept or halt, or that leaves both sums and,
to within rounding, the state as they were, is stepped again, so those
outcomes, and the exact fixed point test, are decided on stepped
arithmetic. What the compiled floats cannot show is a threshold that
stepping would cross within those last bits: there a verdict, its period
or its visit count can differ from a stepped run's.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .automata import END_MARKER, Mmqba, Mmqfa, TERMINAL, _check_cutpoint

DEFAULT_MAX_PERIODS = 1024
DEFAULT_EPSILON = 1e-9
DEFAULT_BETA = 0.5
DEFAULT_VISIT_EPS = 1e-12

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
    plain finite floats, filled into one template by one map over ``_f17``;
    None for any other list."""
    shape, leaves = [len(obj)], obj
    while set(map(type, leaves)) == {list}:
        widths = set(map(len, leaves))
        if len(widths) != 1:
            return None
        shape.append(widths.pop())
        leaves = list(chain.from_iterable(leaves))
    if set(map(type, leaves)) != {float} or not all(map(math.isfinite, leaves)):
        return None
    template = "%s"
    for width in reversed(shape):
        template = "[" + ", ".join([template] * width) + "]"
    return template % tuple(map(_f17, leaves))


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
    one gather and one scatter. amplitudes steps a vector (dim,) or a
    block (dim, B) whose columns are stepped together; measure squares its
    halting amplitudes into probabilities, and apply sums a vector's
    accepting and its rejecting probabilities. None writes to the state
    it is given, so run states can be shared without copying.
    """

    __slots__ = ("a", "symbols", "halt_idx", "n_acc")

    def __init__(self, a: Mmqba):
        accepting = sorted(a.accepting)
        self.a = a
        self.symbols = set(a.alphabet)
        self.halt_idx = np.array(accepting + sorted(a.rejecting), dtype=np.intp)
        self.n_acc = len(accepting)

    def check_word(self, word: str):
        for ch in word:
            if ch not in self.symbols:
                raise ValueError(f"symbol {ch!r} is not in the automaton alphabet")

    def amplitudes(self, psi: np.ndarray, symbol: str):
        """One measured step of a vector (dim,) or a block (dim, B): the
        new state and the halting amplitudes in halt_idx order, one
        column per column of psi."""
        psi = self.a.unitary_for(symbol) @ psi
        amps = psi[self.halt_idx]
        psi[self.halt_idx] = 0.0
        return psi, amps

    def measure(self, psi: np.ndarray, symbol: str):
        """amplitudes, with the halting probabilities in place of the
        amplitudes."""
        psi, amps = self.amplitudes(psi, symbol)
        return psi, amps.real * amps.real + amps.imag * amps.imag

    def apply(self, psi: np.ndarray, symbol: str):
        """measure on a vector: the new state and the accepting and
        rejecting probabilities of the step as Python floats. It squares
        the amplitudes itself, which saves a call per step of a search."""
        psi, amps = self.amplitudes(psi, symbol)
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
    kernel.check_word(word)
    return _records(kernel, word)


def run_mmqfa(a: Mmqfa, word: str) -> tuple[float, float]:
    """Total accept and reject probability of a finite word, end markers included."""
    if not isinstance(a, Mmqfa):
        raise TypeError("run_mmqfa requires an automaton with a terminal unitary")
    kernel = _Kernel(a)
    kernel.check_word(word)
    last = _records(kernel, word + TERMINAL)[-1]
    return last.acc, last.rej


def _check_test_params(epsilon: float, beta: float, visit_eps: float):
    """The rules of the visit test's parameters; NaN fails every comparison."""
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    if not 0.0 < visit_eps < 1.0:
        raise ValueError(f"visit_eps must lie in (0, 1), got {visit_eps!r}")


def _check_epsilon_below(p: float, epsilon: float):
    """The accept test is acc >= p - epsilon, which epsilon >= p makes vacuous."""
    if not epsilon < p:
        raise ValueError(f"epsilon (default {DEFAULT_EPSILON!r}) must lie below "
                         f"the cutpoint {p!r}, got {epsilon!r}")


class _Run(NamedTuple):
    """Run state of a lasso word after some symbols past the end marker."""

    psi: np.ndarray
    acc: float
    rej: float
    steps: int
    visits: int
    halted: bool = False
    accepted: bool = False


# Cycle periods of a run are applied as one compiled map only from this
# state dimension up. The bound keeps every bundled fixture (the largest
# has dimension 15), and so every golden and every bit-for-bit test built
# on one, on the stepped arithmetic they were written with.
_COMPILED_MIN_DIM = 16

# A compiled period that moves the state by a squared distance of at most
# this share of its squared norm is stepped again, since stepping could
# leave that state exactly where it was. Compiled and stepped states differ
# by a few ulps times dim, far below it; a state that still drains or
# turns moves far more.
_FIXED_POINT_SQ = 1e-18


class _LassoContext:
    """Kernel, acceptance test and prefix table of run_lasso calls.

    The constructor is where the test (p, epsilon, beta, visit_eps, mode)
    is checked, and advance is where it is applied. The prefix phase of a
    run depends only on the automaton, the prefix and the test, so its
    outcome is kept per prefix: a settled REJECTED verdict, or the _Run
    after '#u'. check_emptiness shares one context between the
    candidates of a search; a single run builds its own, whose records
    collect the trace.
    """

    def __init__(self, a: Mmqba, p: float, epsilon: float, beta: float,
                 visit_eps: float, mode: str, records: list | None = None):
        p = _check_cutpoint(p)
        _check_test_params(epsilon, beta, visit_eps)
        _check_epsilon_below(p, epsilon)
        if mode not in (CERTIFIED, LITERAL):
            raise ValueError(f"mode must be {CERTIFIED!r} or {LITERAL!r}")
        self.kernel = _Kernel(a)
        self.p, self.epsilon, self.beta, self.visit_eps, self.mode = (
            p, epsilon, beta, visit_eps, mode)
        self.records = records
        psi, alpha, rho = self.kernel.apply(_start_vector(a), END_MARKER)
        root = _Run(psi, alpha, rho, 0, 0)
        if not a.accepting:
            root = self.verdict(Status.REJECTED, REASON_BUCHI_REFUTED,
                                alpha, rho, _norm_sq(psi), 0, 0)
        self.prefixes = {"": root}

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
        periods as its periods_simulated. given, when passed, holds the
        (alpha, rho, nh) of every step of word, which are then not stepped:
        the run keeps the psi it is given.
        """
        apply = self.kernel.apply
        records = self.records
        p, visit_eps, mode = self.p, self.visit_eps, self.mode
        low = p - self.epsilon
        halt_sq = visit_eps * visit_eps
        psi, acc, rej, steps, visits, halted, accepted = run
        if given is not None:
            given = iter(given)
        for sym in word:
            if given is None:
                psi, alpha, rho = apply(psi, sym)
                nh = _norm_sq(psi)
            else:
                alpha, rho, nh = next(given)
            acc += alpha
            rej += rho
            steps += 1
            if records is not None:
                records.append(StepRecord(steps, sym, alpha, rho, acc, rej, nh))
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
        return _Run(psi, acc, rej, steps, visits, halted, accepted)

    def compiled(self, cycle: str) -> np.ndarray:
        """The compiled map G of one period of cycle.

        Stepping the identity block through the cycle gives it: after step
        j the block is M_j, the non-halting map of the first j steps, and
        the amplitudes the step zeroes are the halting rows of
        U_{v_j} M_{j-1}. G stacks these rows in step order over M_|v|, so
        G @ psi holds the halting amplitudes of every step of a period
        that starts at psi, followed by the state after the period.
        """
        dim, h = self.kernel.a.dim, len(self.kernel.halt_idx)
        g = np.empty((len(cycle) * h + dim, dim), dtype=np.complex128)
        # 64 columns at a time, so that no dim x dim temporary is made
        for c in range(0, dim, 64):
            cols = slice(c, c + 64)
            block = np.eye(dim, min(64, dim - c), -c, dtype=np.complex128)
            for j, sym in enumerate(cycle):
                block, amps = self.kernel.amplitudes(block, sym)
                g[j * h:(j + 1) * h, cols] = amps
            g[len(cycle) * h:, cols] = block
        return g

    def period(self, run: _Run, cycle: str, k: int, need: float, g: np.ndarray):
        """Period k of cycle from run by its compiled map g, as advance
        returns it.

        The period is one product. Mid-period, the non-halting mass is the
        mass at the start less what has halted, and at the end it is the
        norm of the new state. The period is kept only if it stays
        undecided: if one of its steps settles the run, sets accepted or
        halts it, or if it leaves both sums as they were and the state
        within _FIXED_POINT_SQ of where it was, so that run_lasso's test
        for an exact fixed point could hold, it is discarded and stepped
        again from run, so those outcomes are decided by stepping.
        """
        kernel, records = self.kernel, self.records
        mark = len(records) if records is not None else 0
        out = g @ run.psi
        n_rows = len(cycle) * len(kernel.halt_idx)
        # per step, the squares of the halting amplitudes' real and
        # imaginary parts, the accepting states' first
        rows = np.square(out[:n_rows].view(np.float64)).reshape(len(cycle), -1).tolist()
        m = 2 * kernel.n_acc
        psi = out[n_rows:]
        nh = _norm_sq(run.psi)
        given = []
        for row in rows:
            alpha, rho = sum(row[:m]), sum(row[m:])
            nh -= alpha + rho
            given.append((alpha, rho, nh))
        given[-1] = (alpha, rho, _norm_sq(psi))
        new = self.advance(_Run(psi, *run[1:]), cycle, k, need, given)
        if (isinstance(new, _Run) and not new.halted and new.accepted == run.accepted
                and ((new.acc, new.rej) != (run.acc, run.rej)
                     or _norm_sq(psi - run.psi) > _FIXED_POINT_SQ * _norm_sq(run.psi))):
            return new
        if records is not None:
            del records[mark:]
        return self.advance(run, cycle, k, need)

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
                entry = self.advance(entry, u[len(base):], 0, math.inf)
            self.prefixes[u] = entry
        return entry


def run_lasso(
    a: Mmqba,
    w: LassoWord,
    p: float,
    *,
    max_periods: int = DEFAULT_MAX_PERIODS,
    epsilon: float = DEFAULT_EPSILON,
    beta: float = DEFAULT_BETA,
    visit_eps: float = DEFAULT_VISIT_EPS,
    mode: str = CERTIFIED,
    record_trace: bool = False,
    _context: _LassoContext | None = None,
) -> Verdict:
    """Simulate u v^omega and return a cutpoint verdict with certificates.

    REJECTED is certified: the rejecting mass reached p, or the accepting
    mass can never reach p (acc + nh < p - epsilon, reported as
    halted-below-cutpoint once the run has halted), or no accepting
    visit can ever happen again (no accepting states at all, or the cycle
    map reached an exact fixed point with zero halting flow). ACCEPTED
    combines two sound limit certificates with the heuristic
    visit-frequency test; in literal mode the rejecting clause is checked
    as rej < p without the non-halting tail and the function returns at
    the first success, which reproduces the search algorithm's behavior.
    In certified mode the simulation continues to the budget so the
    reported bounds are tight. epsilon pads the accept test (acc may sit
    epsilon below p, so epsilon must lie below p) and equally guards the
    accepting-side refutation, which would otherwise misfire at p = 1
    where acc + nh rounds a few ulps under 1. Verdicts never flip between
    ACCEPTED and REJECTED when the budget grows, except for limits within
    epsilon of the cutpoint. At dimension 16 and up, for a cycle of two
    symbols or more and when at least dim periods are left after the
    first, the undecided periods are applied as one compiled map each,
    whose floats may differ from run_prefix in the last bits. A period
    that would settle, accept or halt the run, or that leaves both sums
    and, to within rounding, the state unchanged, is stepped again, so
    those outcomes are decided on stepped arithmetic; only where a stepped
    value would cross a threshold by no more than those last bits can a
    compiled run differ.
    _context is private: check_emptiness passes one to all its candidates.
    """
    if max_periods < 1:
        raise ValueError("max_periods must be at least 1")
    if _context is None:
        context = _LassoContext(a, p, epsilon, beta, visit_eps, mode,
                                [] if record_trace else None)
    elif (_context.kernel.a is a and not record_trace
          and (_context.p, _context.epsilon, _context.beta,
               _context.visit_eps, _context.mode)
          == (p, epsilon, beta, visit_eps, mode)):
        context = _context
    else:
        raise ValueError("a shared lasso context needs the same automaton and test, and no trace")
    context.kernel.check_word(w.prefix + w.cycle)

    run = context.after(w.prefix)
    if isinstance(run, Verdict):
        return run
    periods = 0
    stationary = False
    g = None
    for k in range(1, max_periods + 1):
        periods = k
        prev = run
        # compiling costs about (|v| - 1) * dim matrix-vector products and
        # saves |v| - 1 of them a period; a cycle of one symbol saves none
        if k == 2 and len(w.cycle) > 1 and max_periods - 1 >= a.dim >= _COMPILED_MIN_DIM:
            g = context.compiled(w.cycle)
        if g is None:
            run = context.advance(prev, w.cycle, k, beta * k)
        else:
            run = context.period(prev, w.cycle, k, beta * k, g)
        if isinstance(run, Verdict):
            return run
        if run.halted:
            break
        if (run.acc == prev.acc and run.rej == prev.rej
                and np.array_equal(run.psi, prev.psi)):
            # exact fixed point of the cycle map: no future step can differ,
            # so no further accepting visit is possible
            stationary = True
            break

    verdict = context.verdict
    psi, acc, rej, _, visits, _, accepted = run
    nh = _norm_sq(psi)
    if accepted:
        return verdict(Status.ACCEPTED, REASON_CERTIFIED, acc, rej, nh, visits, periods)
    if stationary:
        return verdict(Status.REJECTED, REASON_BUCHI_REFUTED, acc, rej, nh, visits, periods)
    return verdict(Status.INCONCLUSIVE, REASON_BUDGET, acc, rej, nh, visits, periods)


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


def check_acceptance_clauses(
    trace: Sequence[StepRecord],
    p: float,
    visit_eps: float = DEFAULT_VISIT_EPS,
) -> ClauseReport:
    """Classify each acceptance clause as certified, possible, or refuted.

    trace is a sequence of step records, as run_prefix returns and
    Verdict.trace holds. The visit count and the halting test use
    visit_eps, which must lie in [0, 1); pass 0 to count every strictly
    positive accepting amplitude as a visit.
    """
    records = tuple(trace)
    if not records:
        raise ValueError("trace must contain at least one step")
    p = _check_cutpoint(p)
    if not 0.0 <= visit_eps < 1.0:
        raise ValueError(f"visit_eps must lie in [0, 1), got {visit_eps!r}")
    visits = sum(1 for r in records if r.alpha > visit_eps)
    last = records[-1]
    if last.nonhalt_norm_sq <= visit_eps * visit_eps:
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
