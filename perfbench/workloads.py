"""Workloads of the layered benchmark: seeded inputs, operations and checks.

A workload's set-up builds its automata from the seed, writes each one as a
``.qba`` document and loads it back; the operations only ever see the loaded
copies. An operation is timed around ``Op.run``; ``Op.post`` turns the raw
result into a plain value outside the timed region, and ``Op.check`` returns
the problems found in that value (an empty list when it is correct). Checks
test properties every correct implementation has (certificates, norm
conservation, re-checks with a larger budget, agreement with the
pure-Python ``reference_run``), never today's exact output bytes.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qbuchi
import qbuchi.cli
from qbuchi.fixtures import fixture_path

ALPHABET = ("a", "b")
NORM_TOL = 1e-9
REFERENCE_TOL = 1e-9
CRITERION7_TOL = 1e-9
SEARCH_ROUNDS = qbuchi.SearchBudget().max_rounds

_EXIT_FOR_STATUS = {"ACCEPTED": 0, "REJECTED": 1, "INCONCLUSIVE": 2}


def _identity(raw):
    return raw


@dataclass
class Op:
    """One operation: ``run`` is timed, ``post`` and ``check`` are not.

    ``inprocess`` is the traced form of a CLI call (``cli.main`` in this
    process); for every other operation the traced form is ``run`` itself.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    post: Callable[[Any], Any] = _identity
    inprocess: Callable[[], Any] | None = None


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    phases of R's diagonal divided out."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_automaton(rng, dim: int, n_acc: int, n_rej: int) -> qbuchi.Mmqba:
    """Haar-random automaton over {a, b}: q0 initial, the last n_acc states
    accepting and the n_rej states before them rejecting."""
    return qbuchi.Mmqba(
        state_names=[f"q{i}" for i in range(dim)],
        alphabet=list(ALPHABET),
        unitaries={sym: haar_unitary(rng, dim) for sym in ALPHABET},
        initial=0,
        accepting=frozenset(range(dim - n_acc, dim)),
        rejecting=frozenset(range(dim - n_acc - n_rej, dim - n_acc)),
    )


def planted_automaton(rng, dim: int, invariant: int, n_acc: int, n_rej: int) -> qbuchi.Mmqba:
    """Block-diagonal automaton whose first ``invariant`` states form a
    Haar-random block with no halting state, so its non-halting space has an
    S1 part of exactly that dimension; the other block is Haar-random with
    the halting states at its end and, generically, no invariant part."""
    rest = dim - invariant
    unitaries = {}
    for sym in ALPHABET:
        u = np.zeros((dim, dim), dtype=np.complex128)
        u[:invariant, :invariant] = haar_unitary(rng, invariant)
        u[invariant:, invariant:] = haar_unitary(rng, rest)
        unitaries[sym] = u
    return qbuchi.Mmqba(
        state_names=[f"q{i}" for i in range(dim)],
        alphabet=list(ALPHABET),
        unitaries=unitaries,
        initial=invariant,
        accepting=frozenset(range(dim - n_acc, dim)),
        rejecting=frozenset(range(dim - n_acc - n_rej, dim - n_acc)),
    )


def random_word(rng, length: int) -> str:
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=length))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Base: seeded set-up into ``workdir`` and a fixed list of operations."""

    name = ""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.root = Path(root)
        self.docs: dict[str, tuple[int, int, str]] = {}  # name -> (dim, bytes, sha256)
        self.after_document: Callable[[], None] | None = None  # set-up timing hook

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def write_doc(self, name: str, a: qbuchi.Mmqba) -> tuple[Path, qbuchi.Mmqba]:
        """Save, write and reload a document; the operations get the reloaded copy."""
        text = qbuchi.saves(a)
        path = self.workdir / f"{name}.qba"
        data = text.encode("utf-8")
        path.write_bytes(data)
        loaded = qbuchi.load(path)
        self.docs[name] = (loaded.dim, len(data), hashlib.sha256(data).hexdigest())
        if self.after_document is not None:
            self.after_document()
        return path, loaded

    def setup(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------- search

# (fixture, cutpoint, expected status or None when either answer is correct).
# The NONEMPTY rows are the witness table of the emptiness tests; lang_a_omega
# is INCONCLUSIVE today but a sharper Buchi test may find a witness.
SEARCH_FIXTURES = (
    ("lang_a_prefix", 0.8, "NONEMPTY"),
    ("lang_a_prefix", 0.97, "NONEMPTY"),
    ("lang_ab_cycle", 0.6, "NONEMPTY"),
    ("lang_aab_cycle", 0.5, "NONEMPTY"),
    ("swap_halt_once", 0.9, "NONEMPTY"),
    ("lang_inf_a", 1.0, "NONEMPTY"),
    ("lang_a_omega", 0.8, None),
    ("reject_all", 0.9, "INCONCLUSIVE"),
)
# Random jobs on a 4-round budget (930 distinct pairs each) at cutpoint 1:
# the first rejecting amplitude refutes acceptance, so every pair is rejected
# at its first step and a job's cost does not depend on the seed.
SEARCH_RANDOM_DIMS = (3, 4, 5, 6, 7, 8) * 6
SEARCH_RANDOM_CUTPOINT = 1.0
SEARCH_RANDOM_ROUNDS = 4


def run_search(a, p, rounds=SEARCH_ROUNDS):
    r = qbuchi.check_emptiness(a, p, qbuchi.SearchBudget(max_rounds=rounds))
    witness = None
    if r.witness is not None:
        word, verdict = r.witness
        witness = (word.prefix, word.cycle, verdict.to_dict())
    return (r.status.value, witness, r.candidates_tried, r.rounds_completed)


def check_search(a, p, expected, out, max_rounds=SEARCH_ROUNDS) -> list:
    status, witness, tried, rounds = out
    problems = []
    if status not in ("NONEMPTY", "INCONCLUSIVE"):
        problems.append(f"unknown search status {status!r}")
    if expected is not None and status != expected:
        problems.append(f"status {status}, expected {expected}")
    if tried < 1 or not 1 <= rounds <= max_rounds:
        problems.append(f"implausible counts: {tried} candidates, {rounds} rounds")
    if status == "NONEMPTY":
        if witness is None:
            return problems + ["NONEMPTY without a witness"]
        prefix, cycle, verdict = witness
        if verdict["status"] != "ACCEPTED":
            problems.append(f"witness verdict is {verdict['status']}")
        recheck = qbuchi.run_lasso(
            a, qbuchi.LassoWord(prefix, cycle), p, max_periods=4 * 2 ** rounds
        )
        if recheck.status is not qbuchi.Status.ACCEPTED:
            problems.append(
                f"witness ({prefix!r}, {cycle!r}) is {recheck.status.value} at 4x the budget"
            )
    elif witness is not None:
        problems.append("witness reported without NONEMPTY")
    return problems


class Search(Workload):
    name = "search"

    def setup(self) -> list[Op]:
        ops = []
        for fixture, p, expected in SEARCH_FIXTURES:
            a = qbuchi.load(fixture_path(fixture))
            ops.append(self._op(f"{fixture}@{p}", a, p, expected))
        rng = self.rng(1)
        for k, dim in enumerate(SEARCH_RANDOM_DIMS):
            _, a = self.write_doc(f"search_d{dim}_{k}", random_automaton(rng, dim, 1, 1))
            ops.append(self._op(f"haar_d{dim}_{k}@{SEARCH_RANDOM_CUTPOINT}", a,
                                SEARCH_RANDOM_CUTPOINT, None, SEARCH_RANDOM_ROUNDS))
        return ops

    @staticmethod
    def _op(name, a, p, expected, rounds=SEARCH_ROUNDS) -> Op:
        return Op(
            name=name,
            run=lambda: run_search(a, p, rounds),
            check=lambda out: check_search(a, p, expected, out, rounds),
        )


# ------------------------------------------------------------ lasso_dense

DENSE_CUTPOINT = 0.6
DENSE_PREFIX_LEN = 2
DENSE_CYCLE_LEN = 3
# (dimension, documents, certified runs per document, of which traced, period
# budget). At dimension 81 the mass drains in 400-1000 periods depending on
# the word, so a 256-period budget gives every run the same length.
DENSE_RUNS = ((81, 2, 6, 2, 256), (243, 1, 27, 9, qbuchi.DEFAULT_MAX_PERIODS))
# short words re-checked against reference_run: (dimension, max_periods)
DENSE_REFERENCE = ((27, 8), (81, 8))
PLANTED_DIM = 81
PLANTED_INVARIANT = 9
VERIFY_WORD_LEN = 500
VERIFY_TRIALS = 10


def verdict_problems(v: dict, p: float) -> list:
    """Norm conservation and the verdict's own certificate inequalities."""
    problems = []
    acc, rej_lo, rej_hi = v["acc_lower"], v["rej_lower"], v["rej_upper"]
    eps = v["epsilon"]
    nh = rej_hi - rej_lo
    if abs(acc + rej_hi - 1.0) > NORM_TOL:
        problems.append(f"norm not conserved: acc_lower + rej_upper = {acc + rej_hi!r}")
    if acc < -NORM_TOL or nh < -NORM_TOL or rej_lo < -NORM_TOL:
        problems.append("negative mass in verdict")
    if v["status"] == "ACCEPTED":
        if acc < p - eps:
            problems.append(f"ACCEPTED with acc_lower {acc!r} below cutpoint {p}")
        if v["mode"] == qbuchi.CERTIFIED and not rej_hi < p:
            problems.append(f"ACCEPTED with rej_upper {rej_hi!r} not below cutpoint {p}")
    elif v["status"] == "REJECTED":
        limit_refuted = rej_lo >= p or acc + nh < p - eps
        if not limit_refuted and "buchi" not in v["reason"]:
            problems.append(f"REJECTED ({v['reason']}) without a refuting inequality")
    return problems


def run_dense(a, w, p, traced, periods=qbuchi.DEFAULT_MAX_PERIODS):
    v = qbuchi.run_lasso(a, w, p, max_periods=periods, record_trace=traced)
    estimate = None
    if traced:
        estimate = qbuchi.estimate_limit(v.trace, len(w.cycle))
    return v, estimate


def post_dense(raw):
    v, estimate = raw
    last = None
    if v.trace:
        r = v.trace[-1]
        last = (len(v.trace), r.acc, r.rej, r.nonhalt_norm_sq)
    est = None
    if estimate is not None:
        est = (estimate.acc_limit_estimate, estimate.rej_limit_estimate,
               estimate.ratio, estimate.is_geometric,
               estimate.acc_bounds, estimate.rej_bounds)
    return (v.to_dict(), last, est)


def check_dense(a, w, p, out, reference: bool) -> list:
    v, last, est = out
    problems = verdict_problems(v, p)
    if last is not None:
        steps, acc, rej, nh = last
        if abs(acc - v["acc_lower"]) > NORM_TOL or abs(rej + nh - v["rej_upper"]) > NORM_TOL:
            problems.append("trace end disagrees with the verdict bounds")
    if est is not None:
        acc_est, rej_est, _, geometric, acc_b, rej_b = est
        if geometric and not (acc_b[0] - NORM_TOL <= acc_est <= acc_b[1] + NORM_TOL
                              and rej_b[0] - NORM_TOL <= rej_est <= rej_b[1] + NORM_TOL):
            problems.append("estimate_limit outside its own bounds")
    if reference:
        if last is None:
            problems.append("reference run recorded no trace")
        else:
            steps, acc, rej, _ = last
            word = (w.prefix + w.cycle * v["periods_simulated"])[:steps]
            ref_acc, ref_rej, _ = qbuchi.reference_run(a, word)
            if abs(ref_acc - acc) > REFERENCE_TOL or abs(ref_rej - rej) > REFERENCE_TOL:
                problems.append(
                    f"differs from reference_run on {len(word)} symbols: "
                    f"acc {acc!r} vs {ref_acc!r}, rej {rej!r} vs {ref_rej!r}"
                )
    return problems


def run_planted(a):
    d = qbuchi.decompose_nonhalting(a)
    report = qbuchi.verify_decomposition(
        a, d, word_len=VERIFY_WORD_LEN, trials=VERIFY_TRIALS, seed=0
    )
    return d, report


def post_planted(raw):
    d, rep = raw
    return (d.s1.dim, d.s2.dim, d.chain_length, rep.s1_trials, rep.s2_trials,
            rep.s1_max_cumulative_halting, rep.s1_max_subspace_residual,
            rep.mixed_max_increment_deviation, rep.s2_norm_sq_trajectories)


def check_planted(a, out) -> list:
    s1, s2, _, s1_trials, s2_trials, halt, _, mixed, _ = out
    problems = []
    if (s1, s2) != (PLANTED_INVARIANT, len(a.nonhalting) - PLANTED_INVARIANT):
        problems.append(f"decomposition dims ({s1}, {s2}) miss the planted split")
    if (s1_trials, s2_trials) != (VERIFY_TRIALS, VERIFY_TRIALS):
        problems.append(f"trial counts ({s1_trials}, {s2_trials})")
    if halt > CRITERION7_TOL or mixed > CRITERION7_TOL:
        problems.append(f"criterion-7 bounds broken: s1 halting {halt!r}, mixed {mixed!r}")
    return problems


class LassoDense(Workload):
    name = "lasso_dense"

    def setup(self) -> list[Op]:
        ops = []
        doc_rng = self.rng(1)
        word_rng = self.rng(2)
        for dim, periods in DENSE_REFERENCE:
            _, a = self.write_doc(f"dense_ref_d{dim}", random_automaton(doc_rng, dim, 3, 1))
            w = qbuchi.LassoWord(random_word(word_rng, DENSE_PREFIX_LEN),
                                 random_word(word_rng, DENSE_CYCLE_LEN))
            ops.append(self._run_op(f"reference_d{dim}", a, w, True, periods, True))
        for dim, n_docs, n_runs, n_traced, periods in DENSE_RUNS:
            for k in range(n_docs):
                _, a = self.write_doc(f"dense_d{dim}_{k}", random_automaton(doc_rng, dim, 3, 1))
                for j in range(n_runs):
                    w = qbuchi.LassoWord(random_word(word_rng, DENSE_PREFIX_LEN),
                                         random_word(word_rng, DENSE_CYCLE_LEN))
                    traced = j < n_traced
                    label = f"run_d{dim}_{k}_{j}" + ("_trace" if traced else "")
                    ops.append(self._run_op(label, a, w, traced, periods, False))
        _, planted = self.write_doc(
            f"dense_planted_d{PLANTED_DIM}",
            planted_automaton(doc_rng, PLANTED_DIM, PLANTED_INVARIANT, 3, 1),
        )
        ops.append(Op(
            name=f"verify_planted_d{PLANTED_DIM}",
            run=lambda: run_planted(planted),
            post=post_planted,
            check=lambda out: check_planted(planted, out),
        ))
        return ops

    @staticmethod
    def _run_op(name, a, w, traced, periods, reference) -> Op:
        return Op(
            name=name,
            run=lambda: run_dense(a, w, DENSE_CUTPOINT, traced, periods),
            post=post_dense,
            check=lambda out: check_dense(a, w, DENSE_CUTPOINT, out, reference),
        )


# --------------------------------------------------------------- cli_docs

CLI_RUN_CUTPOINT = 0.6
CLI_RUN_PERIODS = 64
# fixture -> (prefix, cycle, cutpoint, expected status or None for any)
CLI_FIXTURE_RUNS = {
    "finite_ab": ("", "ab", 0.6, None),
    "lang_a_omega": ("", "a", 0.8, None),
    "lang_a_prefix": ("", "a", 0.8, "ACCEPTED"),  # the criterion-10 witness
    "lang_aab_cycle": ("", "aab", 0.6, None),
    "lang_ab_cycle": ("a", "b", 0.6, None),
    "lang_inf_a": ("", "aaaaa", 1.0, None),
    "no_entry": ("", "a", 0.6, None),
    "reject_all": ("", "ab", 0.9, "REJECTED"),  # no accepting state
    "swap_halt_once": ("", "a", 0.9, None),
}
# (left, right): union of a fixture or generated document with a fixture
CLI_UNIONS = (("lang_a_omega", "lang_a_prefix"), ("lang_ab_cycle", "lang_inf_a"),
              ("d27", "lang_a_omega"), ("d81", "lang_a_omega"))


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli_subprocess(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "qbuchi", *argv], capture_output=True, env=env, check=False
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def run_cli_inprocess(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qbuchi.cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class CliDocs(Workload):
    name = "cli_docs"

    def setup(self) -> list[Op]:
        rng = self.rng(1)
        fixtures = {name: (str(fixture_path(name)), qbuchi.load(fixture_path(name)))
                    for name in CLI_FIXTURE_RUNS}
        generated = {}
        for dim in (27, 81, 243):
            path, a = self.write_doc(f"cli_d{dim}", random_automaton(rng, dim, 3, 1))
            generated[f"d{dim}"] = (str(path), a)
        ops = []
        for label, (path, a) in {**fixtures, **generated}.items():
            if label in fixtures:
                prefix, cycle, p, expected = CLI_FIXTURE_RUNS[label]
                periods = qbuchi.DEFAULT_MAX_PERIODS
            else:
                prefix, cycle = random_word(rng, DENSE_PREFIX_LEN), random_word(rng, DENSE_CYCLE_LEN)
                p, expected, periods = CLI_RUN_CUTPOINT, None, CLI_RUN_PERIODS
            ops.append(self._validate(label, path, a))
            ops.append(self._run(label, path, a, prefix, cycle, p, periods, expected))
            ops.append(self._decompose(label, path, a))
        for left, right in CLI_UNIONS:
            ops.append(self._union(f"{left}x{right}", *{**fixtures, **generated}[left],
                                   *fixtures[right]))
        return ops

    def _op(self, name, argv, check, output=None) -> Op:
        env = cli_env(self.root)

        def post(raw):
            code, stdout, stderr = raw
            digest = file_digest(output) if output is not None and Path(output).is_file() else None
            return code, stdout, digest, stderr

        return Op(
            name=name,
            run=lambda: run_cli_subprocess(argv, env),
            inprocess=lambda: run_cli_inprocess(argv),
            post=post,
            check=check,
        )

    def _validate(self, label, path, a) -> Op:
        def check(out):
            code, stdout, _, stderr = out
            doc, problems = _parse_json(stdout, stderr)
            if doc is not None and doc.get("valid") is not True:
                problems.append(f"validate reports {doc.get('violations')}")
            if code != 0:
                problems.append(f"exit code {code}, expected 0")
            return problems
        return self._op(f"validate_{label}", ["validate", path, "--json"], check)

    def _run(self, label, path, a, prefix, cycle, p, periods, expected) -> Op:
        def check(out):
            code, stdout, _, stderr = out
            doc, problems = _parse_json(stdout, stderr)
            if doc is None:
                return problems
            status = doc.get("status")
            if code != _EXIT_FOR_STATUS.get(status):
                problems.append(f"exit code {code} does not match status {status}")
            if expected is not None and status != expected:
                problems.append(f"status {status}, expected {expected}")
            return problems + verdict_problems(doc, p)
        argv = ["run", path, "--prefix", prefix, "--cycle", cycle, "--cutpoint", str(p),
                "--periods", str(periods), "--json"]
        return self._op(f"run_{label}", argv, check)

    def _decompose(self, label, path, a) -> Op:
        nonhalting = len(a.nonhalting)

        def check(out):
            code, stdout, _, stderr = out
            doc, problems = _parse_json(stdout, stderr)
            if code != 0:
                problems.append(f"exit code {code}, expected 0")
            if doc is None:
                return problems
            if doc["s1_dim"] + doc["s2_dim"] != nonhalting:
                problems.append(
                    f"s1_dim + s2_dim = {doc['s1_dim'] + doc['s2_dim']}, "
                    f"expected {nonhalting} non-halting states"
                )
            if len(doc["s1_basis"]) != doc["s1_dim"] or len(doc["s2_basis"]) != doc["s2_dim"]:
                problems.append("basis row counts differ from the reported dimensions")
            return problems
        return self._op(f"decompose_{label}", ["decompose", path, "--json"], check)

    def _union(self, label, path1, a1, path2, a2) -> Op:
        dim = a1.dim * a2.dim
        output = self.workdir / f"union_{label}.qba"

        def check(out):
            code, _, digest, stderr = out
            problems = [] if code == 0 else [f"exit code {code}, expected 0: {stderr.strip()}"]
            if digest is None:
                return problems + ["union wrote no output file"]
            m = qbuchi.load(output)
            if m.dim != dim:
                problems.append(f"union output has dimension {m.dim}, expected {dim}")
            violations = qbuchi.validate(m)
            if violations:
                problems.append(f"union output is invalid: {violations[0]}")
            return problems
        argv = ["union", path1, path2, "-o", str(output)]
        return self._op(f"union_{label}", argv, check, output)


def _parse_json(stdout: str, stderr: str):
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError:
        return None, [f"--json output does not parse: {stdout[:80]!r} {stderr.strip()[:200]}"]


WORKLOADS = {w.name: w for w in (Search, LassoDense, CliDocs)}




