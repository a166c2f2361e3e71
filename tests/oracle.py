"""A digest of qbuchi's outputs on a seeded corpus, to show that a change
moves no verdict, trace, clause report or search result.

    python3 tests/oracle.py --src <tree>/src [--expect <sha256>] [--labels <path>]

imports qbuchi from <tree>/src (by default the src of this repository)
and prints the number of outputs and a sha256 over their deterministic
JSON text. Two trees that print the same line give bit-identical outputs
on the corpus. With --expect, a digest other than the one given is an
error: both digests are printed and the exit status is 1. With --labels,
one line per output, its label, a tab and the sha256 of its JSON text, is
written to the path given, so that diff of two such files names the
outputs that moved.

The corpus is the search at cutpoints 0.6, 0.9 and 1.0 in both modes of
every bundled fixture and of two crafted automata from conftest
(rotation_leak, marker_halts), and runs: on each of those automata of
every lasso word with a prefix of at most two symbols and a cycle of one
or two, and on Haar automata of dimension 3 to 8, 16 and 27 of random
lasso words. Each word is run at cutpoints 0.55, 0.8 and 1.0, in both
modes, with budgets 1, 7 and 64, once untraced and once traced with the
trace's clause report. At dimensions 16 and 27 the runs of 64 periods
with a cycle of two symbols or more take the compiled path. Last come
runs of random words with a cycle of three symbols on a Haar automaton
of dimension 81, with a budget of 128 periods only, all on the compiled
path, and searches at cutpoints 0.6, 0.75 and 0.85, in both modes, on
the Haar automata of dimension 3 to 8 (5 rounds) and 16 (6 rounds) and
on the three-symbol automaton from conftest (4 rounds); most of their
rows have a prefix that already settles every pair. The corpus ends with
three more crafted automata from conftest (two_block, acc_then_rej,
marker_split): for each, the searches of the fixtures, then the runs of
every lasso word with a prefix of at most two symbols and a cycle of one
or two. Last come the jobs of the compiled path, which follow each of
its rules for keeping a compiled block or period and for resuming a
cycle phase: the same runs on four crafted automata from conftest
(accepted_fixed_point, fixed_point, draining_half, chain_halt), runs of
1024 periods on the Haar automaton of dimension 27 that halt on the
compiled path, and on that automaton a ladder of budgets 16, 32 and 64
through one shared context, each verdict beside a fresh run's.
After them, and closing the corpus, come the decompositions of the
non-halting space: for every fixture, every crafted automaton above, the
Haar automata of dimension 3 to 8, 16 and 27, and a planted automaton
from conftest at dimensions 9 and 27, the dimensions of S1 and S2, the
closure's chain_dims, and the canonical bases of S1 and S2.
The corpus closes with searches whose pairs the search counts without a
run: at cutpoint 1.0, in both modes, on the Haar automata of dimension 3
to 8 over 6 to 8 rounds, where the root is open and every cycle's first
step settles its pair, and on marker_halts over 7 rounds at cutpoint 0.9,
where no prefix and no first step ever settles.
tests/test_oracle.py checks a slice of the corpus, with every job of the
compiled path and every closing search, against each verdict's own
inequalities, and every decomposition against the properties of its split.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

SEARCH_CUTPOINTS = (0.6, 0.9, 1.0)
RUN_CUTPOINTS = (0.55, 0.8, 1.0)
MODES = ("certified", "literal")
BUDGETS = (1, 7, 64)
DIMS = (3, 4, 5, 6, 7, 8, 16, 27)
WORDS_PER_AUTOMATON = 24
# (dimension, words, budget) of the Haar automaton whose cycles have three symbols
LARGE = (81, 6, 128)
HAAR_SEARCH_CUTPOINTS = (0.6, 0.75, 0.85)
# (dimension, rounds) of the searched Haar automata
HAAR_SEARCHES = (*((dim, 5) for dim in range(3, 9)), (16, 6))
# (dimension, budget) of the Haar automaton whose long runs halt on the compiled path
LONG = (27, 1024)
LONG_WORDS = (("a", "ab"), ("a", "abb"), ("b", "aab"))
# (cutpoint, rounds) of the closing searches on marker_halts
MARKER_HALTS_SEARCH = (0.9, 7)
# the budgets, cutpoints and words of the runs that share one lasso context
LADDER = (16, 32, 64)
LADDER_CUTPOINTS = (0.4, 0.55, 0.6)
LADDER_WORDS = tuple((u, v) for u in ("", "a", "b") for v in ("ab", "aab", "abb"))


def _search(a, p, mode, rounds=6) -> dict:
    import qbuchi

    r = qbuchi.check_emptiness(a, p, qbuchi.SearchBudget(max_rounds=rounds), mode=mode)
    witness = None
    if r.witness is not None:
        w, verdict = r.witness
        witness = [w.prefix, w.cycle, verdict.to_dict()]
    return {"p": p, "status": r.status.value, "witness": witness,
            "candidates_tried": r.candidates_tried, "rounds_completed": r.rounds_completed}


def _run(a, w, p, mode, budget) -> dict:
    import qbuchi

    plain = qbuchi.run_lasso(a, w, p, max_periods=budget, mode=mode)
    traced = qbuchi.run_lasso(a, w, p, max_periods=budget, mode=mode, record_trace=True)
    clauses = qbuchi.check_acceptance_clauses(traced.trace, p) if traced.trace else None
    return {"p": p, "max_periods": budget, "verdict": plain.to_dict(),
            "traced": traced.to_dict(), "trace": [vars(r) for r in traced.trace],
            "clauses": None if clauses is None else vars(clauses)}


def _ladder(a, words, p, mode) -> dict:
    """Every word at each budget of LADDER in turn, through one shared
    context as a search runs them, each with a fresh run's verdict."""
    import qbuchi
    from qbuchi.semantics import _LassoContext

    context = _LassoContext(a, p, mode)
    runs = []
    for budget in LADDER:
        for w in words:
            shared = qbuchi.run_lasso(a, w, p, max_periods=budget, _context=context)
            fresh = qbuchi.run_lasso(a, w, p, max_periods=budget, mode=mode)
            runs.append([w.prefix, w.cycle, budget, shared.to_dict(), fresh.to_dict()])
    return {"p": p, "ladder": runs}


def _word(rng, least: int, most: int) -> str:
    return "".join(rng.choice(["a", "b"], size=int(rng.integers(least, most + 1))))


def _words(symbols, least: int, most: int):
    for n in range(least, most + 1):
        for t in itertools.product(symbols, repeat=n):
            yield "".join(t)


def _runs(name, a, words, budgets=BUDGETS) -> list:
    return [(f"{name} {w.prefix}({w.cycle}) p={p} {mode} n={budget}",
             lambda w=w, p=p, mode=mode, budget=budget: _run(a, w, p, mode, budget))
            for w in words for p in RUN_CUTPOINTS for mode in MODES for budget in budgets]


def _short_runs(name, a) -> list:
    """The runs of every lasso word with a prefix of at most two symbols
    and a cycle of one or two."""
    import qbuchi

    symbols = sorted(a.alphabet)
    return _runs(name, a, [qbuchi.LassoWord(u, v) for u in _words(symbols, 0, 2)
                           for v in _words(symbols, 1, 2)])


def _haar(rng, dim):
    from conftest import haar_unitary, make_automaton

    return make_automaton({s: haar_unitary(rng, dim) for s in "ab"},
                          accepting=[1], rejecting=[2])


def _searches(name, a, rounds, cutpoints=SEARCH_CUTPOINTS) -> list:
    return [(f"search {name} p={p} {mode} rounds={rounds}",
             lambda p=p, mode=mode: _search(a, p, mode, rounds))
            for p in cutpoints for mode in MODES]


def jobs() -> list:
    """The corpus as (label, job) pairs in a fixed order; job() returns
    one output as a dict of plain values."""
    import qbuchi
    from qbuchi.fixtures import list_fixtures, load_fixture

    from conftest import (acc_then_rej_automaton, marker_halts_automaton,
                          marker_split_automaton, rotation_leak_automaton,
                          three_symbol_automaton, two_block_automaton)

    automata = [(name, load_fixture(name)) for name in list_fixtures()]
    automata += [("rotation_leak", rotation_leak_automaton()),
                 ("marker_halts", marker_halts_automaton())]
    out = []
    for name, a in automata:
        out += _searches(name, a, 6)
    for name, a in automata:
        out += _short_runs(name, a)
    for dim in DIMS:
        rng = np.random.default_rng(dim)
        a = _haar(rng, dim)
        out += _runs(f"haar{dim}", a, [qbuchi.LassoWord(_word(rng, 0, 3), _word(rng, 1, 3))
                                       for _ in range(WORDS_PER_AUTOMATON)])
    dim, n_words, budget = LARGE
    rng = np.random.default_rng(dim)
    a = _haar(rng, dim)
    out += _runs(f"haar{dim}", a, [qbuchi.LassoWord(_word(rng, 0, 3), _word(rng, 3, 3))
                                   for _ in range(n_words)], (budget,))
    for dim, rounds in HAAR_SEARCHES:
        out += _searches(f"haar{dim}", _haar(np.random.default_rng(dim), dim), rounds,
                         HAAR_SEARCH_CUTPOINTS)
    out += _searches("three_symbol", three_symbol_automaton(), 4, HAAR_SEARCH_CUTPOINTS)
    crafted = [("two_block", two_block_automaton()), ("acc_then_rej", acc_then_rej_automaton()),
               ("marker_split", marker_split_automaton())]
    for name, a in crafted:
        out += _searches(name, a, 6) + _short_runs(name, a)
    return out + compiled_path_jobs() + decomposition_jobs() + settled_search_jobs()


def compiled_path_jobs() -> list:
    """The jobs that follow each rule of the compiled path: when a compiled
    period or block is kept or stepped again, and when run_word resumes a
    cycle phase. They close the corpus."""
    import qbuchi

    from conftest import (accepted_fixed_point_automaton, chain_halt_automaton,
                          draining_half_automaton, fixed_point_automaton)

    out = []
    for name, a in [("accepted_fixed_point", accepted_fixed_point_automaton()),
                    ("fixed_point", fixed_point_automaton()),
                    ("draining_half", draining_half_automaton()),
                    ("chain_halt", chain_halt_automaton())]:
        out += _short_runs(name, a)
    dim, budget = LONG
    a = _haar(np.random.default_rng(dim), dim)
    out += _runs(f"haar{dim} long", a, [qbuchi.LassoWord(*w) for w in LONG_WORDS], (budget,))
    words = [qbuchi.LassoWord(*w) for w in LADDER_WORDS]
    out += [(f"ladder haar{dim} p={p} {mode}", lambda p=p, mode=mode: _ladder(a, words, p, mode))
            for p in LADDER_CUTPOINTS for mode in MODES]
    return out


def _decompose(a) -> dict:
    import qbuchi

    d = qbuchi.decompose_nonhalting(a)
    return {"s1_dim": d.s1.dim, "s2_dim": d.s2.dim, "chain_dims": list(d.chain_dims),
            "s1_basis": np.stack([d.s1.vectors.real, d.s1.vectors.imag], axis=-1),
            "s2_basis": np.stack([d.s2.vectors.real, d.s2.vectors.imag], axis=-1)}


def decomposition_jobs() -> list:
    """The decompositions of the non-halting space, one job per automaton,
    each with its bases written as [re, im] pairs. They close the corpus."""
    from qbuchi.fixtures import list_fixtures, load_fixture

    import conftest

    automata = [(name, load_fixture(name)) for name in list_fixtures()]
    automata += [(name, getattr(conftest, f"{name}_automaton")())
                 for name in ("rotation_leak", "marker_halts", "three_symbol", "two_block",
                              "acc_then_rej", "marker_split", "accepted_fixed_point",
                              "fixed_point", "draining_half", "chain_halt")]
    automata += [(f"haar{dim}", _haar(np.random.default_rng(dim), dim)) for dim in DIMS]
    automata += [(f"planted{dim}", conftest.planted_automaton(np.random.default_rng(dim), dim,
                                                              dim // 3)) for dim in (9, 27)]
    return [(f"decompose {name}", lambda a=a: _decompose(a)) for name, a in automata]


def settled_search_jobs() -> list:
    """The searches whose rows or first cycle steps settle their pairs
    without a run, and one where nothing settles. They close the corpus."""
    from conftest import marker_halts_automaton

    out = []
    for dim in range(3, 9):
        out += _searches(f"haar{dim}", _haar(np.random.default_rng(dim), dim), 6 + dim % 3,
                         (1.0,))
    p, rounds = MARKER_HALTS_SEARCH
    return out + _searches("marker_halts", marker_halts_automaton(), rounds, (p,))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the src directory to import qbuchi from")
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit 1 unless the corpus digest is this one")
    parser.add_argument("--labels", type=Path, metavar="PATH",
                        help="write each output's label and sha256, one a line, to PATH")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import qbuchi
    from qbuchi.semantics import _json_text

    if Path(qbuchi.__file__).resolve().parent != (args.src / "qbuchi").resolve():
        raise SystemExit(f"error: imported qbuchi from {qbuchi.__file__}, not from {args.src}")
    digest = hashlib.sha256()
    lines = []
    for label, job in jobs():
        text = _json_text(job())
        digest.update(f"{label}\t{text}\n".encode())
        lines.append(f"{label}\t{hashlib.sha256(text.encode()).hexdigest()}\n")
    if args.labels is not None:
        args.labels.write_text("".join(lines))
    print(f"{len(lines)} outputs sha256 {digest.hexdigest()}")
    if args.expect is not None and args.expect != digest.hexdigest():
        print(f"error: expected sha256 {args.expect}, got {digest.hexdigest()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
