import dataclasses
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

from qbuchi import automata, cli
from qbuchi.fixtures import fixture_path, golden_path

from conftest import acc_then_rej_automaton, marker_split_automaton


def qbuchi(*argv, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qbuchi", *map(str, argv)],
        capture_output=True,
        env=merged,
    )


GOLDEN_STDOUT = [
    ("run_lang_a_prefix.json", 0,
     ["run", fixture_path("lang_a_prefix"), "--prefix", "aaa", "--cycle", "b",
      "--cutpoint", "0.8", "--json"]),
    ("run_lang_ab_cycle.json", 0,
     ["run", fixture_path("lang_ab_cycle"), "--cycle", "ab",
      "--cutpoint", "0.6", "--json"]),
    ("run_swap_halt_once.json", 0,
     ["run", fixture_path("swap_halt_once"), "--cycle", "a",
      "--cutpoint", "0.9", "--json"]),
    ("run_reject_all.json", 1,
     ["run", fixture_path("reject_all"), "--cycle", "ab",
      "--cutpoint", "0.9", "--json"]),
    ("decompose_no_entry.json", 0,
     ["decompose", fixture_path("no_entry"), "--json"]),
    ("decompose_finite_ab.json", 0,
     ["decompose", fixture_path("finite_ab"), "--json"]),
    ("emptiness_lang_a_prefix.json", 0,
     ["emptiness", fixture_path("lang_a_prefix"), "--cutpoint", "0.8", "--json"]),
    ("emptiness_reject_all.json", 2,
     ["emptiness", fixture_path("reject_all"), "--cutpoint", "0.9",
      "--rounds", "2", "--json"]),
    ("check_cycle_no_entry.json", 0,
     ["check-cycle", fixture_path("no_entry"), "--symbol", "a",
      "--subspace", "0,2", "--json"]),
]


@pytest.mark.parametrize(
    "golden,rc,argv", GOLDEN_STDOUT, ids=[g for g, *_ in GOLDEN_STDOUT]
)
def test_golden_stdout(golden, rc, argv):
    r = qbuchi(*argv)
    assert r.returncode == rc, r.stderr.decode()
    assert r.stdout == golden_path(golden).read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_golden_trace_files(tmp_path, fmt):
    out = tmp_path / f"trace.{fmt}"
    r = qbuchi("run", fixture_path("lang_a_omega"), "--cycle", "a",
               "--cutpoint", "0.6", "--periods", "6",
               "--trace", out, "--format", fmt, "--json")
    assert r.returncode == 0, r.stderr.decode()
    assert out.read_bytes() == golden_path(f"trace_lang_a_omega.{fmt}").read_bytes()


def test_json_output_is_deterministic():
    argv = ["emptiness", fixture_path("lang_ab_cycle"), "--cutpoint", "0.6", "--json"]
    assert qbuchi(*argv).stdout == qbuchi(*argv).stdout


def test_run_human_output():
    r = qbuchi("run", fixture_path("lang_a_omega"), "--cycle", "a",
               "--cutpoint", "0.6")
    assert r.returncode == 0
    lines = r.stdout.decode().splitlines()
    assert lines[0] == "status: ACCEPTED"
    assert lines[1] == "reason: all-clauses-certified"
    assert any(line.startswith("acc_lower: 0.75") for line in lines)


def test_run_json_parses_and_matches_fields():
    r = qbuchi("run", fixture_path("lang_a_omega"), "--cycle", "a",
               "--cutpoint", "0.6", "--json")
    doc = json.loads(r.stdout)
    assert doc["status"] == "ACCEPTED"
    assert doc["acc_lower"] == pytest.approx(0.75, abs=1e-9)
    assert doc["mode"] == "certified"


def test_boundary_cutpoint_warns_on_stderr():
    r = qbuchi("run", fixture_path("lang_ab_cycle"), "--cycle", "ab",
               "--cutpoint", "0.5")
    assert r.returncode == 0
    assert b"CutpointWarning" in r.stderr


RUN_ARGV = ["run", fixture_path("lang_a_omega"), "--cycle", "a",
            "--cutpoint", "0.8", "--periods", "8"]
EMPTINESS_ARGV = ["emptiness", fixture_path("lang_a_omega"), "--cutpoint", "0.8",
                  "--rounds", "1"]
BAD_TEST_FLAGS = [
    (flag, value)
    for flag, low in (("--beta", "0"), ("--epsilon", "-1"), ("--visit-eps", "0"))
    for value in (low, "nan", "inf")
] + [
    ("--epsilon", "0.8"), ("--epsilon", "1"),  # at or above the cutpoint 0.8
    # the visit threshold is fixed, so the flag is refused whatever its value
    ("--visit-eps", "0.5"), ("--visit-eps", "1"), ("--visit-eps", "2"),
]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["run", "/no/such/file.qba", "--cycle", "a", "--cutpoint", "0.8"],
        ["run", fixture_path("no_entry"), "--cycle", "a", "--cutpoint", "1.5"],
        ["run", fixture_path("no_entry"), "--cycle", "a", "--cutpoint", "0.0"],
        ["run", fixture_path("no_entry"), "--cycle", "a", "--cutpoint", "0.8",
         "--periods", "0"],
        ["run", fixture_path("no_entry"), "--cycle", "a", "--cutpoint", "0.8",
         "--trace", "/tmp/t", "--format", "xml"],
        ["emptiness", fixture_path("no_entry"), "--cutpoint", "0.8", "--rounds", "0"],
        # a cutpoint at or below the default epsilon, with no --epsilon given
        ["run", fixture_path("lang_a_omega"), "--cycle", "a", "--cutpoint", "1e-9"],
        ["emptiness", fixture_path("lang_a_omega"), "--cutpoint", "1e-10", "--rounds", "1"],
        *([*base, flag, value] for base in (RUN_ARGV, EMPTINESS_ARGV)
          for flag, value in BAD_TEST_FLAGS),
    ],
    ids=["no-args", "unknown-cmd", "missing-file", "cutpoint-high",
         "cutpoint-zero", "zero-periods", "bad-format", "zero-rounds",
         "run-cutpoint-at-default-epsilon", "emptiness-cutpoint-below-default-epsilon",
         *(f"{cmd}{flag}={value}" for cmd in ("run", "emptiness")
           for flag, value in BAD_TEST_FLAGS)],
)
def test_usage_errors_exit_64(argv):
    r = qbuchi(*argv)
    assert r.returncode == 64
    assert r.stdout == b""


@pytest.mark.parametrize("flag", ["--beta", "--epsilon"])
def test_bad_test_flag_has_one_message(flag):
    run = qbuchi(*RUN_ARGV, flag, "nan")
    emptiness = qbuchi(*EMPTINESS_ARGV, flag, "nan")
    assert run.stderr.startswith(b"qbuchi: error: ")
    assert run.stderr == emptiness.stderr


def test_epsilon_above_cutpoint_has_one_message():
    run = qbuchi(*RUN_ARGV, "--epsilon", "1")
    emptiness = qbuchi(*EMPTINESS_ARGV, "--epsilon", "1")
    assert run.stderr == emptiness.stderr == (
        b"qbuchi: error: epsilon (default 1e-09) must lie below the cutpoint 0.8, got 1.0\n")


def test_tiny_cutpoint_names_the_default_epsilon():
    r = qbuchi("run", fixture_path("lang_a_omega"), "--cycle", "a", "--cutpoint", "1e-10")
    assert r.returncode == 64
    assert r.stderr.endswith(b"qbuchi: error: epsilon (default 1e-09) must lie below "
                             b"the cutpoint 1e-10, got 1e-09\n")


def test_run_halted_with_reachable_cutpoint_is_inconclusive(tmp_path):
    # the end marker halts all mass with acc 0.6: at p 0.6 the accepting
    # limit reaches p, so no certificate refutes it and the run, halted
    # before its first symbol, must not be REJECTED; at p 0.7 it is
    path = tmp_path / "marker_split.qba"
    automata.save(marker_split_automaton(), str(path))
    reached = qbuchi("run", path, "--prefix", "ab", "--cycle", "a",
                     "--cutpoint", "0.6", "--json")
    assert reached.returncode == 2, reached.stderr.decode()
    doc = json.loads(reached.stdout)
    assert (doc["status"], doc["reason"]) == ("INCONCLUSIVE", "budget-exhausted")
    below = qbuchi("run", path, "--prefix", "ab", "--cycle", "a",
                   "--cutpoint", "0.7", "--json")
    assert below.returncode == 1, below.stderr.decode()
    doc = json.loads(below.stdout)
    assert (doc["status"], doc["reason"]) == ("REJECTED", "halted-below-cutpoint")


def test_symbol_outside_alphabet_exits_65():
    r = qbuchi("run", fixture_path("lang_a_omega"), "--prefix", "z", "--cycle", "a",
               "--cutpoint", "0.8")
    assert r.returncode == 65
    assert b"alphabet" in r.stderr


@pytest.mark.parametrize("extra", [[], ["--beta", "nan"], ["--cutpoint", "2"]],
                         ids=["alone", "bad-beta", "bad-cutpoint"])
def test_word_symbols_are_checked_before_option_values(extra):
    # a symbol outside the alphabet is input data (65), and the document
    # and the word are checked before any option value (64)
    r = qbuchi("run", fixture_path("lang_a_omega"), "--prefix", "z", "--cycle", "a",
               "--cutpoint", "0.8", *extra)
    assert r.returncode == 65
    assert r.stderr == b"qbuchi: error: symbol 'z' is not in the automaton alphabet\n"


@pytest.mark.parametrize("argv,name", [
    (["run", "--cycle", "a", "--cutpoint", "0.8", "--periods", "0"], "max_periods"),
    (["emptiness", "--cutpoint", "0.8", "--rounds", "0"], "max_rounds"),
], ids=["periods", "rounds"])
def test_counts_are_checked_after_the_document(tmp_path, argv, name):
    # a count is an option value: a malformed document is reported first
    # (65), and on a valid one the count rule of the library (64)
    bad = tmp_path / "bad.qba"
    bad.write_text("{not json")
    command, *options = argv
    malformed = qbuchi(command, bad, *options)
    assert malformed.returncode == 65
    valid = qbuchi(command, fixture_path("lang_a_omega"), *options)
    assert valid.returncode == 64
    assert valid.stderr == (
        f"qbuchi: error: {name} must be an integer of at least 1, got 0\n".encode())


def test_malformed_file_exits_65(tmp_path):
    bad = tmp_path / "bad.qba"
    bad.write_text("{not json")
    r = qbuchi("validate", bad)
    assert r.returncode == 65
    assert b"error" in r.stderr


@pytest.mark.parametrize(
    "body",
    [b"[" * 100000, b'{"type": "\xff"}',
     fixture_path("no_entry").read_bytes().replace(b"0.0", b"1" + b"0" * 400, 1)],
    ids=["deep-nesting", "not-utf8", "huge-integer"],
)
def test_malformed_document_exits_65_without_traceback(tmp_path, body):
    bad = tmp_path / "bad.qba"
    bad.write_bytes(body)
    r = qbuchi("validate", bad)
    assert r.returncode == 65
    assert b"Traceback" not in r.stderr
    assert r.stderr.startswith(b"qbuchi: error: ")


def test_union_alphabet_mismatch_exits_65(tmp_path):
    r = qbuchi("union", fixture_path("lang_a_prefix"), fixture_path("no_entry"),
               "-o", tmp_path / "u.qba")
    assert r.returncode == 65
    assert b"alphabet" in r.stderr


def test_union_writes_valid_automaton(tmp_path):
    out = tmp_path / "u.qba"
    r = qbuchi("union", fixture_path("lang_a_omega"), fixture_path("lang_a_prefix"),
               "-o", out)
    assert r.returncode == 0
    assert r.stdout.decode() == f"wrote {out} (9 states)\n"
    assert out.read_bytes() == golden_path("union_lang_a_omega_lang_a_prefix.qba").read_bytes()
    merged = automata.load(str(out))
    assert automata.validate(merged) == []
    assert merged.state_names[0] == "(q0,q0)"


def test_literal_flag_changes_verdict(tmp_path):
    path = tmp_path / "acc_then_rej.qba"
    automata.save(acc_then_rej_automaton(), str(path))
    lit = qbuchi("run", path, "--cycle", "a", "--cutpoint", "0.4", "--literal")
    cert = qbuchi("run", path, "--cycle", "a", "--cutpoint", "0.4", "--certify")
    default = qbuchi("run", path, "--cycle", "a", "--cutpoint", "0.4")
    assert lit.returncode == 0
    assert cert.returncode == 1
    assert default.stdout == cert.stdout


def test_validate_reports_ok():
    r = qbuchi("validate", fixture_path("lang_ab_cycle"))
    assert r.returncode == 0
    assert r.stdout.decode() == "OK\n"


def test_qba_tol_overrides_validation(tmp_path):
    a = automata.load(str(fixture_path("no_entry")))
    v = a.unitary_for("a").copy()
    v[0, 0] += 1e-6
    path = tmp_path / "perturbed.qba"
    automata.save(dataclasses.replace(a, unitaries={"a": v}), str(path))

    strict = qbuchi("validate", path)
    assert strict.returncode == 1
    assert "INVALID" in strict.stdout.decode()

    loose = qbuchi("validate", path, env={"QBA_TOL": "1e-3"})
    assert loose.returncode == 0
    assert loose.stdout.decode() == "OK\n"

    # simulation commands apply the same gate
    blocked = qbuchi("run", path, "--cycle", "a", "--cutpoint", "0.8")
    assert blocked.returncode == 65


def test_check_cycle_negative_exits_1():
    r = qbuchi("check-cycle", fixture_path("lang_ab_cycle"), "--symbol", "a",
               "--subspace", "0,1")
    assert r.returncode == 1
    assert r.stdout.decode() == "cycle: no\n"


def test_check_cycle_rejects_bad_inputs():
    bad_symbol = qbuchi("check-cycle", fixture_path("no_entry"), "--symbol", "z",
                        "--subspace", "0,2")
    assert bad_symbol.returncode == 65
    assert bad_symbol.stderr == b"qbuchi: error: symbol 'z' is not in the automaton alphabet\n"
    two_symbols = qbuchi("check-cycle", fixture_path("no_entry"), "--symbol", "aa",
                         "--subspace", "0,2")
    assert two_symbols.returncode == 65
    assert two_symbols.stderr == b"qbuchi: error: symbol 'aa' is not in the automaton alphabet\n"
    bad_index = qbuchi("check-cycle", fixture_path("no_entry"), "--symbol", "a",
                       "--subspace", "0,7")
    assert bad_index.returncode == 65


def test_bench_json_smoke():
    r = qbuchi("bench", fixture_path("no_entry"), "--lengths", "40,40", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["dims"] == [3, 9]
    assert isinstance(doc["exponent"], float)


def test_bench_single_level_reports_null_exponent():
    r = qbuchi("bench", fixture_path("no_entry"), "--lengths", "40", "--json")
    doc = json.loads(r.stdout)
    assert doc["exponent"] is None
    assert len(doc["per_symbol_seconds"]) == 1


def loaded_modules(code, *argv):
    """The qbuchi modules that a fresh interpreter has loaded after code."""
    listing = "print(*sorted(m for m in sys.modules if m.startswith('qbuchi')))"
    r = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{listing}", *map(str, argv)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1].split()


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("import qbuchi\nassert 'numpy' not in sys.modules") == ["qbuchi"]


COMMAND_MODULES = [
    (["validate", fixture_path("lang_a_omega")], []),
    (["run", fixture_path("lang_a_omega"), "--cycle", "a", "--cutpoint", "0.8"], []),
    (["union", fixture_path("lang_a_omega"), fixture_path("lang_a_prefix"), "-o", "OUT"],
     ["constructions"]),
    (["decompose", fixture_path("no_entry")], ["analysis"]),
    (["check-cycle", fixture_path("no_entry"), "--symbol", "a", "--subspace", "0,2"],
     ["analysis"]),
    (["emptiness", fixture_path("lang_a_prefix"), "--cutpoint", "0.8", "--rounds", "1"],
     ["constructions", "emptiness"]),
    (["bench", fixture_path("no_entry"), "--lengths", "40,40"], ["constructions", "emptiness"]),
]


def _argv(argv, tmp_path):
    return [str(tmp_path / "u.qba") if a == "OUT" else str(a) for a in argv]


@pytest.mark.parametrize("argv,extra", COMMAND_MODULES, ids=[a[0] for a, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    # a call compiles and runs only these modules; the rest stay unloaded
    loaded = loaded_modules("import qbuchi.cli\nqbuchi.cli.main(sys.argv[1:])",
                            *_argv(argv, tmp_path))
    base = ["automata", "cli", "numerics", "semantics"]
    assert loaded == ["qbuchi"] + sorted(f"qbuchi.{m}" for m in base + extra)


@pytest.mark.parametrize("name,command", [
    ("union", "union"), ("decompose_nonhalting", "decompose"), ("check_emptiness", "emptiness"),
])
def test_a_patched_cli_name_is_what_the_command_calls(tmp_path, name, command):
    # perfbench's tracer wraps these names of qbuchi.cli, so a command reads
    # them from the module when it runs
    argv = next(argv for argv, _ in COMMAND_MODULES if argv[0] == command)
    real = getattr(cli, name)
    with mock.patch.object(cli, name, wraps=real) as spy:
        assert cli.main(_argv(argv, tmp_path)) == 0
    spy.assert_called_once()
    assert getattr(cli, name) is real
