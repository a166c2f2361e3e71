"""Nonemptiness search over lasso candidates, plus a step-cost benchmark.

The search dovetails deterministically: round r enumerates every pair
(u, v) with |u| <= r and 1 <= |v| <= r in u-major length-then-
lexicographic order and evaluates it with a period budget of 2^r.
Pairs whose earlier verdict was REJECTED are skipped, since that verdict
is a certificate and cannot flip under a larger budget; INCONCLUSIVE
pairs are evaluated again as the budget doubles. Every (pair, budget)
point is therefore eventually reached and the procedure can only ever
answer NONEMPTY or run out of rounds.

The prefix phase of a run (the end marker and u) does not depend on the
cycle, so one search keeps a table of its outcome per prefix, each entry
derived from the entry for u minus its last symbol in one step. Pairs
with the same prefix start their cycles from the shared state. A settled
prefix is always REJECTED, since a prefix never accepts, and its entry
passes on to every extension, so the search visits only the open
prefixes: it keeps those of each length in enumeration order, each with
its rank, its base-|alphabet| index among the words of its length, and
builds the open prefixes of length l + 1 from those of length l. The
settled rows between two open ones hold no run: each holds the same
number of pairs new in a round, so the rank gap counts them.

Within an open row u, the cycles of one length that start with symbol s
form one block of the order. When the prefix u + s is settled, every
pair of the block is REJECTED at its first cycle step, which is the same
step from the same state: the first period is always stepped, and a
step applies both rejection tests before any accept test, in either
mode. Such a block is counted in the round its pairs are new, without a
run. The rule stops at the first step: within the first period a cycle
run stops where it halts, and in literal mode accepts at once, so a
later prefix step that rejects does not settle the pair.

Prefixes whose runs reach bitwise the same state share it, and the
cycle phase of each distinct (state, cycle) is kept too: a pair evaluated
again under a doubled budget resumes its run where the last budget
stopped instead of being re-simulated, and a pair whose state and cycle
were already run is answered from that run. The verdicts are those of
fresh runs, bit for bit; _LassoContext.run_word says when a run is
resumed and when it is run afresh.
"""
from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .automata import END_MARKER, Mmqba, _check_count, _check_word
from .numerics import tensor
from .semantics import (
    CERTIFIED,
    LassoWord,
    Status,
    Verdict,
    _LassoContext,
    run_lasso,
)


@dataclass(frozen=True)
class SearchBudget:
    max_rounds: int = 6

    def __post_init__(self):
        object.__setattr__(self, "max_rounds", _check_count("max_rounds", self.max_rounds))


class SearchStatus(enum.Enum):
    NONEMPTY = "NONEMPTY"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the dovetailing search.

    candidates_tried counts pair evaluations, including pairs evaluated
    again under a doubled budget in later rounds, although such a pair
    resumes its run rather than simulating it again. A pair that its
    prefix settles, or the first step of its cycle, counts in the round
    it is new, without a run, and a pair whose start state and cycle were
    already run under the budget counts although it is answered from the
    search's tables. It does not count steps either: a step from a state
    and symbol that another pair already stepped is taken from the
    search's transition table. rounds_completed is the round in which the
    witness was found, or max_rounds when the search exhausted its budget.
    """

    status: SearchStatus
    witness: tuple[LassoWord, Verdict] | None
    candidates_tried: int
    rounds_completed: int

    def to_dict(self) -> dict:
        """Every field, with the status as its value and the witness spelled out."""
        d = dict(vars(self), status=self.status.value, witness=None)
        if self.witness is not None:
            w, verdict = self.witness
            d["witness"] = {"prefix": w.prefix, "cycle": w.cycle, "verdict": verdict.to_dict()}
        return d


def check_emptiness(
    a: Mmqba,
    p: float,
    budget: SearchBudget | None = None,
    *,
    mode: str = CERTIFIED,
) -> SearchResult:
    """Search for an accepted lasso word; NONEMPTY is reliable, the absence
    of an answer is not (the problem admits no full decision procedure)."""
    if budget is None:
        budget = SearchBudget()
    symbols = sorted(a.alphabet)
    k = len(symbols)
    context = _LassoContext(a, p, mode)
    # a settled row or block makes no run_lasso call, so its word check is made here
    _check_word(context.kernel.symbols, "".join(symbols))

    def settled(u: str) -> bool:
        return isinstance(context.after(u), Verdict)

    # rows[l] holds the open prefixes of length l in order, as (rank, prefix),
    # where rank is the prefix's base-k index among the k**l words of length l
    rows = [[] if settled("") else [(0, "")]]
    tried = 0
    rejected: set[tuple[str, str]] = set()
    for r in range(1, budget.max_rounds + 1):
        max_periods = 2 ** r
        rows.append([(rank * k + i, u + s) for rank, u in rows[-1]
                     for i, s in enumerate(symbols) if not settled(u + s)])
        for length, row in enumerate(rows):
            # a row's pairs new in round r: all cycles of 1..r in its first
            # round, else those of length r
            first = 1 if r == max(length, 1) else r
            new = sum(k ** n for n in range(first, r + 1))
            last = -1
            for rank, u in row:
                tried += (rank - last - 1) * new
                last = rank
                first_step_settles = [settled(u + s) for s in symbols]
                for n in range(1, r + 1):
                    for s, settles in zip(symbols, first_step_settles):
                        if settles:
                            # REJECTED at the first cycle step: counted in its first round
                            tried += k ** (n - 1) if n >= first else 0
                            continue
                        for tail in itertools.product(symbols, repeat=n - 1):
                            v = s + "".join(tail)
                            if (u, v) in rejected:
                                continue
                            w = LassoWord(u, v)
                            tried += 1
                            verdict = run_lasso(a, w, p, max_periods=max_periods,
                                                _context=context)
                            if verdict.status is Status.ACCEPTED:
                                return SearchResult(SearchStatus.NONEMPTY, (w, verdict),
                                                    tried, r)
                            if verdict.status is Status.REJECTED:
                                rejected.add((u, v))
            tried += (k ** length - last - 1) * new
    return SearchResult(SearchStatus.INCONCLUSIVE, None, tried, budget.max_rounds)


@dataclass(frozen=True)
class TimingReport:
    dims: tuple[int, ...]
    symbols_timed: tuple[int, ...]
    per_symbol_seconds: tuple[float, ...]
    exponent: float

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


def _kernel_matrices(a: Mmqba) -> dict:
    mats = {}
    for sym in [*a.alphabet, END_MARKER]:
        m = a.unitary_for(sym)
        mats[sym] = (m.real.tolist(), m.imag.tolist())
    return mats


def reference_run(a: Mmqba, word) -> tuple[float, float, float]:
    """Simulate with a plain per-element Python kernel.

    Returns (acc, rej, seconds over the word symbols, marker excluded).
    The kernel performs the textbook four multiplications and two
    additions per matrix entry, so its wall time tracks the arithmetic
    operation count instead of vectorized-library overhead; its sums
    must agree with the fast path, which the test suite checks.
    """
    dim = a.dim
    mats = _kernel_matrices(a)
    acc_idx = sorted(a.accepting)
    rej_idx = sorted(a.rejecting)
    xr = [0.0] * dim
    xi = [0.0] * dim
    xr[a.initial] = 1.0
    acc_sum = 0.0
    rej_sum = 0.0

    def apply(sym):
        nonlocal xr, xi, acc_sum, rej_sum
        rows_re, rows_im = mats[sym]
        yr = [0.0] * dim
        yi = [0.0] * dim
        for i in range(dim):
            rre = rows_re[i]
            rim = rows_im[i]
            sr = 0.0
            si = 0.0
            for k in range(dim):
                mr = rre[k]
                mi = rim[k]
                vr = xr[k]
                vi = xi[k]
                sr += mr * vr - mi * vi
                si += mr * vi + mi * vr
            yr[i] = sr
            yi[i] = si
        for i in acc_idx:
            acc_sum += yr[i] * yr[i] + yi[i] * yi[i]
            yr[i] = 0.0
            yi[i] = 0.0
        for i in rej_idx:
            rej_sum += yr[i] * yr[i] + yi[i] * yi[i]
            yr[i] = 0.0
            yi[i] = 0.0
        xr, xi = yr, yi

    apply(END_MARKER)
    start = time.perf_counter()
    for sym in word:
        apply(sym)
    elapsed = time.perf_counter() - start
    return acc_sum, rej_sum, elapsed


# A level of dimension d over k symbols holds k + 1 d x d complex matrices (its
# unitaries and the end marker's), each entry 16 B in numpy and 64 B more as
# reference_run's two lists of Python floats: 80 (k + 1) d^2 bytes in all. This
# admits d <= 1057 over two symbols, so finite_ab's third level, 3375, is refused.
_BENCH_BYTES = 256 * 2 ** 20


def benchmark_step_cost(a: Mmqba, lengths) -> TimingReport:
    """Time the reference kernel on tensor powers of the automaton.

    lengths gives the number of symbols to simulate at each blowup
    level: level i runs on the (i+1)-fold tensor power, so the state
    dimension grows geometrically while the per-step arithmetic grows
    with its square. With two or more levels the report includes the
    fitted log-log growth exponent of the per-symbol time in the
    dimension; with fewer it is NaN. The timed steps read only the symbol
    unitaries, so each later power is built from them alone, when it runs.
    A call with a level beyond _BENCH_BYTES is refused before any work.
    """
    lengths = [_check_count("lengths", n) for n in lengths]
    if not lengths:
        raise ValueError("lengths must be nonempty")
    symbols = sorted(a.alphabet)
    dims = [a.dim ** n for n in range(1, len(lengths) + 1)]
    for n, dim in enumerate(dims, start=1):
        if 80 * (len(symbols) + 1) * dim * dim > _BENCH_BYTES:
            raise ValueError(f"level {n} has dimension {dim}, beyond the "
                             f"{_BENCH_BYTES >> 20} MiB that bench allows")
    per_symbol = []
    level = a
    for count in lengths:
        if per_symbol:
            powers = {s: tensor(level.unitaries[s], a.unitaries[s]) for s in symbols}
            level = Mmqba([""] * (level.dim * a.dim), symbols, powers, 0, (), ())
        word = list(itertools.islice(itertools.cycle(symbols), count))
        _, _, elapsed = reference_run(level, word)
        per_symbol.append(elapsed / count)
    if len(lengths) >= 2:
        exponent = float(np.polyfit(np.log(dims), np.log(per_symbol), 1)[0])
    else:
        exponent = float("nan")
    return TimingReport(
        dims=tuple(dims),
        symbols_timed=tuple(lengths),
        per_symbol_seconds=tuple(per_symbol),
        exponent=exponent,
    )
