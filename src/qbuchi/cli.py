"""Command-line front end.

Exit codes: 0 success (ACCEPTED / NONEMPTY / no violations), 1 REJECTED
or validation failure, 2 INCONCLUSIVE, 64 usage, invalid option value or
unreadable file, 65 malformed or inconsistent input data, which is
checked before option values. Machine output
(--json, CSV traces) prints floats with 17 significant digits and is
byte-identical across identical invocations, except for bench, whose
timings are inherently run-dependent. The QBA_TOL environment variable overrides
the default validation tolerance.
"""
from __future__ import annotations

import argparse
import importlib
import sys

from . import automata
from .automata import AutomatonFormatError, Cutpoint
from .numerics import SubspaceBasis
from .semantics import (
    CERTIFIED,
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_MAX_PERIODS,
    LITERAL,
    LassoWord,
    Status,
    _json_text,
    trace_to_csv,
    trace_to_json,
    run_lasso,
)

# The names from the modules that only some commands run. Each loads from
# the package on first access through __getattr__ (PEP 562), and a command
# reads it as an attribute of this module when it runs, so a call loads only
# what its command needs and a patch of, say, qbuchi.cli.union is what it calls.
_LAZY = (
    "SearchBudget", "SearchStatus", "benchmark_step_cost", "check_emptiness",
    "decompose_nonhalting", "is_sigma_cycle_subspace", "no_entry_check", "union",
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(__package__), name)
    return value


_cli = sys.modules[__name__]

EX_OK = 0
EX_FAIL = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATAERR = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _h(x) -> str:
    return format(float(x), ".7g")


def _print_json(obj):
    print(_json_text(obj))


def _load(path: str) -> automata.Mmqba:
    try:
        return automata.load(path)
    except OSError as e:
        raise _CliError(EX_USAGE, f"cannot read {path}: {e.strerror or e}")
    except AutomatonFormatError as e:
        raise _CliError(EX_DATAERR, str(e))


def _load_valid(path: str) -> automata.Mmqba:
    a = _load(path)
    violations = automata.validate(a)
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise _CliError(EX_DATAERR, f"{path}: invalid automaton: {listing}")
    return a


def _check_symbols(a: automata.Mmqba, symbols) -> None:
    try:
        automata._check_word(a.alphabet, symbols)
    except ValueError as e:
        raise _CliError(EX_DATAERR, str(e))


def cmd_validate(args) -> int:
    a = _load(args.file)
    violations = automata.validate(a)
    if args.json:
        _print_json(
            {
                "file": args.file,
                "valid": not violations,
                "violations": [
                    {"invariant": v.invariant, "detail": v.detail} for v in violations
                ],
            }
        )
    else:
        for v in violations:
            print(v)
        print("OK" if not violations else f"INVALID ({len(violations)} violations)")
    return EX_OK if not violations else EX_FAIL


_STATUS_EXIT = {
    Status.ACCEPTED: EX_OK,
    Status.REJECTED: EX_FAIL,
    Status.INCONCLUSIVE: EX_INCONCLUSIVE,
}


def cmd_run(args) -> int:
    a = _load_valid(args.file)
    _check_symbols(a, args.prefix + args.cycle)
    try:
        verdict = run_lasso(
            a,
            LassoWord(args.prefix, args.cycle),
            Cutpoint(args.cutpoint),
            max_periods=args.periods,
            epsilon=args.epsilon,
            beta=args.beta,
            mode=args.mode,
            record_trace=args.trace is not None,
        )
    except ValueError as e:
        raise _CliError(EX_USAGE, str(e))
    if args.trace is not None:
        text = (
            trace_to_csv(verdict.trace)
            if args.format == "csv"
            else trace_to_json(verdict.trace)
        )
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _CliError(EX_USAGE, f"cannot write {args.trace}: {e.strerror or e}")
    if args.json:
        _print_json(verdict.to_dict())
    else:
        print(f"status: {verdict.status.value}")
        print(f"reason: {verdict.reason}")
        print(f"acc_lower: {_h(verdict.acc_lower)}")
        print(f"rej_lower: {_h(verdict.rej_lower)}")
        print(f"rej_upper: {_h(verdict.rej_upper)}")
        print(f"visit_count: {verdict.visit_count}")
        print(f"periods_simulated: {verdict.periods_simulated}")
        print(f"mode: {verdict.mode}")
    return _STATUS_EXIT[verdict.status]


def cmd_emptiness(args) -> int:
    a = _load_valid(args.file)
    try:
        p = Cutpoint(args.cutpoint)
        budget = _cli.SearchBudget(
            max_rounds=args.rounds,
            beta=args.beta,
            epsilon=args.epsilon,
        )
        result = _cli.check_emptiness(a, p, budget, mode=args.mode)
    except ValueError as e:
        raise _CliError(EX_USAGE, str(e))
    if args.json:
        witness = None
        if result.witness is not None:
            w, verdict = result.witness
            witness = {
                "prefix": w.prefix,
                "cycle": w.cycle,
                "verdict": verdict.to_dict(),
            }
        _print_json(
            {
                "status": result.status.value,
                "witness": witness,
                "candidates_tried": result.candidates_tried,
                "rounds_completed": result.rounds_completed,
            }
        )
    else:
        if result.status is _cli.SearchStatus.NONEMPTY:
            w, verdict = result.witness
            print(f"NONEMPTY: witness prefix={w.prefix!r} cycle={w.cycle!r}")
            print(
                f"  acc_lower {_h(verdict.acc_lower)}, rej_upper {_h(verdict.rej_upper)},"
                f" visits {verdict.visit_count}/{verdict.periods_simulated} periods"
                f" (beta {_h(verdict.beta)})"
            )
        else:
            print(
                f"INCONCLUSIVE after {result.candidates_tried} candidates"
                f" in {result.rounds_completed} rounds"
            )
    return EX_OK if result.status is _cli.SearchStatus.NONEMPTY else EX_INCONCLUSIVE


def cmd_union(args) -> int:
    m1 = _load_valid(args.file1)
    m2 = _load_valid(args.file2)
    try:
        m = _cli.union(m1, m2)
    except ValueError as e:
        raise _CliError(EX_DATAERR, str(e))
    try:
        automata.save(m, args.output)
    except OSError as e:
        raise _CliError(EX_USAGE, f"cannot write {args.output}: {e.strerror or e}")
    print(f"wrote {args.output} ({m.dim} states)")
    return EX_OK


def cmd_decompose(args) -> int:
    a = _load_valid(args.file)
    d = _cli.decompose_nonhalting(a)
    if args.json:
        _print_json(
            {
                "s1_dim": d.s1.dim,
                "s2_dim": d.s2.dim,
                "chain_length": d.chain_length,
                "s1_basis": automata._encode_matrix(d.s1.vectors),
                "s2_basis": automata._encode_matrix(d.s2.vectors),
            }
        )
    else:
        print(f"s1_dim: {d.s1.dim}")
        print(f"s2_dim: {d.s2.dim}")
        print(f"chain_length: {d.chain_length}")
    return EX_OK


def cmd_check_cycle(args) -> int:
    a = _load_valid(args.file)
    _check_symbols(a, [args.symbol])
    try:
        s = SubspaceBasis.from_indices(args.subspace, a.dim)
    except ValueError as e:
        raise _CliError(EX_DATAERR, str(e))
    try:
        cycle = _cli.is_sigma_cycle_subspace(a, s, args.symbol)
    except ValueError as e:
        raise _CliError(EX_DATAERR, str(e))
    if cycle:
        report = _cli.no_entry_check(a, s, args.symbol)
        if args.json:
            _print_json(
                {
                    "cycle": True,
                    "max_residual": report.max_residual,
                    "residuals": [[r, report.residuals[r]] for r in sorted(report.residuals)],
                }
            )
        else:
            print(f"cycle: yes; max no-entry residual {_h(report.max_residual)}")
        return EX_OK
    if args.json:
        _print_json({"cycle": False, "max_residual": None, "residuals": []})
    else:
        print("cycle: no")
    return EX_FAIL


def cmd_bench(args) -> int:
    a = _load_valid(args.file)
    try:
        report = _cli.benchmark_step_cost(a, args.lengths)
    except ValueError as e:
        raise _CliError(EX_USAGE, str(e))
    if args.json:
        _print_json(report.to_dict())
    else:
        for dim, n, t in zip(report.dims, report.symbols_timed, report.per_symbol_seconds):
            print(f"dim {dim}: {_h(t * 1e6)} us/symbol over {n} symbols")
        print(f"exponent: {_h(report.exponent)}")
    return EX_OK


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _add_mode_flags(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--certify",
        dest="mode",
        action="store_const",
        const=CERTIFIED,
        help="require the sound rejection-limit certificate (default)",
    )
    group.add_argument(
        "--literal",
        dest="mode",
        action="store_const",
        const=LITERAL,
        help="use the plain rej < p check and return at the first success",
    )
    p.set_defaults(mode=CERTIFIED)


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--beta", type=float, default=DEFAULT_BETA,
                   help="required accepting-visit frequency per period")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="slack below the cutpoint for the acceptance sum")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbuchi",
        description="Simulate and analyze measure-many quantum automata "
        "on finite and ultimately periodic words.",
        epilog="The QBA_TOL environment variable overrides the default "
        "validation tolerance.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check an automaton file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="simulate a lasso word and print the verdict")
    p.add_argument("file")
    p.add_argument("--prefix", default="", help="finite prefix u (default empty)")
    p.add_argument("--cycle", required=True, help="repeated cycle v (nonempty)")
    p.add_argument("--cutpoint", type=float, required=True)
    p.add_argument("--periods", type=int, default=DEFAULT_MAX_PERIODS,
                   help="maximum cycle repetitions to simulate")
    p.add_argument("--trace", metavar="PATH", help="write the step trace to PATH")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="trace file format")
    _add_mode_flags(p)
    _add_budget_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("emptiness", help="search for an accepted lasso word")
    p.add_argument("file")
    p.add_argument("--cutpoint", type=float, required=True)
    p.add_argument("--rounds", type=int, default=6)
    _add_mode_flags(p)
    _add_budget_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_emptiness)

    p = sub.add_parser("union", help="write the product union of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("decompose", help="split the non-halting space")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check-cycle", help="invariance and no-entry residuals "
                       "of a basis-spanned subspace")
    p.add_argument("file")
    p.add_argument("--symbol", required=True)
    p.add_argument("--subspace", type=_int_list, required=True,
                   metavar="I,J,...", help="basis state indices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_cycle)

    p = sub.add_parser("bench", help="time the per-symbol simulation cost")
    p.add_argument("file")
    p.add_argument("--lengths", type=_int_list, default=[2000, 2000, 2000],
                   metavar="N1,N2,...",
                   help="symbols to time at each tensor-power level")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as e:
        print(f"qbuchi: error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
