"""Command-line front end.

Exit codes: 0 success (ACCEPTED / NONEMPTY / no violations), 1 REJECTED
or validation failure, 2 INCONCLUSIVE, 64 usage, invalid option value
(bench lengths with a level past its memory budget, too) or unreadable
file, 65 malformed or inconsistent input data, which is checked before
option values, 74 stdout closed before the output ended (no traceback).
stderr gets one line per warning, "qbuchi: warning: ...", and one for an
error, "qbuchi: error: ...". Machine output (--json, CSV traces) prints
floats with 17 significant digits and is byte-identical across identical
invocations, except for bench, whose timings are inherently run-dependent.
The QBA_TOL environment variable, a finite positive float, overrides the
default validation tolerance.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import automata
from .automata import AutomatonFormatError, Cutpoint, _json_text
from .numerics import SubspaceBasis

# The package's public names load on first access through __getattr__
# (PEP 562), semantics (the lasso engine) among them. A command reads each one
# as an attribute of this module when it runs, so a call loads only what its
# command needs and a patch of, say, qbuchi.cli.union is what it calls.
def __getattr__(name):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


_cli = sys.modules[__name__]

EX_OK = 0
EX_FAIL = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_IOERR = 74


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


def _checked(path: str):
    """The automaton at path and its violations at QBA_TOL, read once it has loaded."""
    try:
        a = automata.load(path)
    except OSError as e:
        raise _CliError(EX_USAGE, f"cannot read {path}: {e.strerror or e}")
    except AutomatonFormatError as e:
        raise _CliError(EX_DATAERR, str(e))
    try:
        tol = automata.default_tolerance()
    except ValueError as e:
        raise _CliError(EX_USAGE, str(e))
    return a, automata.validate(a, tol)


def _load_valid(path: str) -> automata.Mmqba:
    a, violations = _checked(path)
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
    violations = _checked(args.file)[1]
    if args.json:
        _print_json({"file": args.file, "valid": not violations,
                     "violations": [vars(v) for v in violations]})
    else:
        for v in violations:
            print(v)
        print("OK" if not violations else f"INVALID ({len(violations)} violations)")
    return EX_OK if not violations else EX_FAIL


def _given(**options) -> dict:
    """The options given; the library call's own signature supplies every default."""
    return {name: value for name, value in options.items() if value is not None}


_STATUS_EXIT = {"ACCEPTED": EX_OK, "REJECTED": EX_FAIL, "INCONCLUSIVE": EX_INCONCLUSIVE}


def cmd_run(args) -> int:
    a = _load_valid(args.file)
    _check_symbols(a, args.prefix + args.cycle)
    verdict = _cli.run_lasso(
        a,
        _cli.LassoWord(args.prefix, args.cycle),
        Cutpoint(args.cutpoint),
        record_trace=args.trace is not None,
        **_given(max_periods=args.periods, mode=_cli.LITERAL if args.literal else None),
    )
    if args.trace is not None:
        text = (
            _cli.trace_to_csv(verdict.trace)
            if args.format == "csv"
            else _cli.trace_to_json(verdict.trace)
        )
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _CliError(EX_USAGE, f"cannot write {args.trace}: {e.strerror or e}")
    out = verdict.to_dict()
    if args.json:
        _print_json(out)
    else:
        for name, value in out.items():
            if name not in ("beta", "epsilon"):  # fixed rules, not results of the run
                print(f"{name}: {_h(value) if isinstance(value, float) else value}")
    return _STATUS_EXIT[verdict.status.name]


def cmd_emptiness(args) -> int:
    a = _load_valid(args.file)
    p = Cutpoint(args.cutpoint)
    budget = _cli.SearchBudget(**_given(max_rounds=args.rounds))
    result = _cli.check_emptiness(
        a, p, budget, **_given(mode=_cli.LITERAL if args.literal else None))
    if args.json:
        _print_json(result.to_dict())
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
    m = _cli.union(m1, m2)
    try:
        automata.save(m, args.output)
    except OSError as e:
        raise _CliError(EX_USAGE, f"cannot write {args.output}: {e.strerror or e}")
    print(f"wrote {args.output} ({m.dim} states)")
    return EX_OK


def cmd_decompose(args) -> int:
    a = _load_valid(args.file)
    d = _cli.decompose_nonhalting(a)
    sizes = {"s1_dim": d.s1.dim, "s2_dim": d.s2.dim, "chain_length": d.chain_length}
    if args.json:
        _print_json(dict(sizes, s1_basis=automata._encode_matrix(d.s1.vectors),
                         s2_basis=automata._encode_matrix(d.s2.vectors)))
    else:
        for name, value in sizes.items():
            print(f"{name}: {value}")
    return EX_OK


def cmd_check_cycle(args) -> int:
    a = _load_valid(args.file)
    _check_symbols(a, [args.symbol])
    s = SubspaceBasis.from_indices(args.subspace, a.dim)
    if _cli.is_sigma_cycle_subspace(a, s, args.symbol):
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
    report = _cli.benchmark_step_cost(a, args.lengths)
    if args.json:
        _print_json(report.to_dict())
    else:
        for dim, n, t in zip(report.dims, report.symbols_timed, report.per_symbol_seconds):
            print(f"dim {dim}: {_h(t * 1e6)} us/symbol over {n} symbols")
        print(f"exponent: {_h(report.exponent)}")
    return EX_OK


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _add_literal_flag(p: argparse.ArgumentParser):
    p.add_argument("--literal", action="store_true",
                   help="use the plain rej < p check and return at the first success "
                   "(default: the sound certified rejection-limit check)")


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
    p.set_defaults(func=cmd_validate, value_error=EX_DATAERR)

    p = sub.add_parser("run", help="simulate a lasso word and print the verdict")
    p.add_argument("file")
    p.add_argument("--prefix", default="", help="finite prefix u (default empty)")
    p.add_argument("--cycle", required=True, help="repeated cycle v (nonempty)")
    p.add_argument("--cutpoint", type=float, required=True)
    p.add_argument("--periods", type=int, help="maximum cycle repetitions to simulate")
    p.add_argument("--trace", metavar="PATH", help="write the step trace to PATH")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="trace file format")
    _add_literal_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run, value_error=EX_USAGE)

    p = sub.add_parser("emptiness", help="search for an accepted lasso word")
    p.add_argument("file")
    p.add_argument("--cutpoint", type=float, required=True)
    p.add_argument("--rounds", type=int)
    _add_literal_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_emptiness, value_error=EX_USAGE)

    p = sub.add_parser("union", help="write the product union of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_union, value_error=EX_DATAERR)

    p = sub.add_parser("decompose", help="split the non-halting space")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose, value_error=EX_DATAERR)

    p = sub.add_parser("check-cycle", help="invariance and no-entry residuals "
                       "of a basis-spanned subspace")
    p.add_argument("file")
    p.add_argument("--symbol", required=True)
    p.add_argument("--subspace", type=_int_list, required=True,
                   metavar="I,J,...", help="basis state indices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_cycle, value_error=EX_DATAERR)

    p = sub.add_parser("bench", help="time the per-symbol simulation cost")
    p.add_argument("file")
    p.add_argument("--lengths", type=_int_list, default=[2000, 2000, 2000],
                   metavar="N1,N2,...",
                   help="symbols to time at each tensor-power level")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench, value_error=EX_USAGE)

    return parser


def main(argv=None) -> int:
    """Run one command; a ValueError from it exits with its parser's
    value_error, and a closed stdout with EX_IOERR and no traceback."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"qbuchi: warning: {message}",
                                                         file=sys.stderr)
        try:
            code = args.func(args)
            sys.stdout.flush()
            return code
        except (_CliError, ValueError) as e:
            print(f"qbuchi: error: {e}", file=sys.stderr)
            return e.code if isinstance(e, _CliError) else args.value_error
        except BrokenPipeError:
            # the reader closed stdout, which ends the output; what is left in
            # its buffer goes to os.devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EX_IOERR
