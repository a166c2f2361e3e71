"""Layered benchmark of qbuchi: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``src/qbuchi`` from there and
refuses to run without it. With ``--trace 0`` the run reports the end-to-end
metrics, measured with no tracing installed; with ``--trace 1`` it reports
the per-layer metrics of a traced run (see README.md in this directory).
Every operation's output is checked outside the timed regions. Information
lines (environment, sample counts) precede the result, which is always the
last line of standard output.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported; CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CONTRACT = HERE.parent / "BENCHMARK.json"
WORK = HERE / "_work"
OUT = HERE / "_out"
MEASURED_PASSES = 2  # measured-form passes of a traced cli_docs run
INTERP_REPEATS = 5  # start-up children of each kind before each of them
TAIL_Q = 75  # op_ms_tail percentile over the operations' fastest times
MIN_OPS = 40  # so that at least 10 operations lie beyond TAIL_Q
MIN_PASSES = 3
MIN_SETUPS = 5
MIN_TRACED_PASSES = 2


def _load_program():
    """Import qbuchi from ./src of the working directory, and nothing else."""
    src = ROOT / "src"
    if not (src / "qbuchi" / "__init__.py").is_file():
        raise SystemExit(f"error: no qbuchi sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import qbuchi

    if Path(qbuchi.__file__).resolve().parent != (src / "qbuchi").resolve():
        raise SystemExit(f"error: imported qbuchi from {qbuchi.__file__}, not from {src}")


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {lib: {key: deps[lib].get(key)
                      for key in ("name", "version", "openblas configuration")}
                for lib in ("blas", "lapack") if lib in deps}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


class Runner:
    """Executes passes over operations and checks their outputs."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @staticmethod
    def run_pass(ops, traced_form=False, tracer=None, meter=None):
        """Outputs and times of one pass; with a ``meter`` a time is the pair
        (seconds, reference seconds)."""
        outputs, times = [], []
        for i, op in enumerate(ops):
            fn = op.inprocess if traced_form and op.inprocess is not None else op.run
            if tracer is not None:
                tracer.op = i
            if meter is not None:
                raw, seconds, ref = meter.time(fn)
                times.append((seconds, ref))
            else:
                t0 = perf_counter()
                raw = fn()
                times.append(perf_counter() - t0)
            outputs.append(op.post(raw))
        return outputs, times

    def check(self, ops, outputs, what):
        """Full checks on the first pass; later passes must repeat its outputs."""
        if self.reference is None:
            self.reference = outputs
            for op, out in zip(ops, outputs):
                self._count(op, op.check(out))
            return
        for op, out, ref in zip(ops, outputs, self.reference):
            self._count(op, [] if out == ref else [f"{what} output differs from the first pass"])

    def _count(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op.name}: {'; '.join(problems)}")


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - k - 1


def set_up(wl, tracer=None, meter=None):
    """One set-up from scratch, traced or timed by ``meter`` (which splits
    it after every document it writes): the operations, and how long it
    took in seconds and in reference seconds (None when traced)."""
    gc.collect()
    for f in wl.workdir.glob("*"):
        f.unlink()
    before = dict(wl.docs)
    wl.docs.clear()
    if tracer is not None:
        tracer.op = "setup"
        with tracer.installed():
            ops = wl.setup()
        seconds = ref = None
    else:
        meter.refresh()
        wl.after_document = meter.split
        try:
            ops, seconds, ref = meter.time(wl.setup)
        finally:
            wl.after_document = None
    if before and before != wl.docs:
        raise SystemExit("error: the same seed produced different documents")
    return ops, seconds, ref


def release_setup_memory() -> None:
    """Hand the memory a set-up freed back to the system and restart the
    process's peak-RSS mark (glibc and Linux), so that the peak read after a
    pass covers the pass and the inputs it holds, not the set-up."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise SystemExit("error: no VmHWM in /proc/self/status")


def measure(wl, seconds: float) -> tuple[dict, Runner, dict]:
    """Untraced run: a fresh set-up before every pass, then the pass.

    Set-ups and passes repeat until they add up to ``seconds`` and at least
    three passes ran; set-ups alone then repeat until there are five. Every
    set-up segment and every operation is timed by a Meter (speed.py): a
    speed probe runs right after it, in this process for the set-up and the
    in-process operations, as a bare child interpreter for the CLI calls.
    An operation's time is the median over the passes of its reference
    time, and ``setup_s`` is the median set-up's.
    """
    from speed import Meter

    runner = Runner()
    setup_meter = Meter("inprocess")
    op_meter = setup_meter if wl.name != "cli_docs" else Meter("spawn")
    setups, per_op, raw_per_op, peaks = [], None, None, []
    passes = 0
    ops = None
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        ops = None  # release the previous set-up's inputs before the next one
        ops, raw, ref = set_up(wl, meter=setup_meter)
        setups.append((raw, ref))
        if per_op is None:
            if len(ops) < MIN_OPS:
                raise SystemExit(f"error: {len(ops)} operations leave fewer than 10 beyond p{TAIL_Q}")
            names = [op.name for op in ops]
            per_op, raw_per_op = [[] for _ in ops], [[] for _ in ops]
        if wl.name != "cli_docs":
            release_setup_memory()
        op_meter.refresh()
        outputs, times = runner.run_pass(ops, meter=op_meter)
        if wl.name != "cli_docs":
            peaks.append(peak_rss_mb())
        runner.check(ops, outputs, "timed pass")
        for ref_samples, raw_samples, (raw, ref) in zip(per_op, raw_per_op, times):
            ref_samples.append(ref)
            raw_samples.append(raw)
        passes += 1
    ops = None
    while len(setups) < MIN_SETUPS:
        setups.append(set_up(wl, meter=setup_meter)[1:])
    op_s = [statistics.median(s) for s in per_op]
    tail, beyond = percentile(op_s, TAIL_Q)
    if wl.name == "cli_docs":  # the largest child: a CLI call, never a bare probe interpreter
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": sum(op_s),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "op_ms_tail": tail * 1e3,
        "peak_rss_mb": max(peaks),
    }
    info = {
        "passes": passes,
        "operations": len(per_op),
        "tail_percentile": TAIL_Q,
        "tail_operations_beyond": beyond,
        "setup_s": [round(raw, 4) for raw, _ in setups],
        "setup_ref_s": [round(ref, 4) for _, ref in setups],
        "wall_s_measured": sum(statistics.median(s) for s in raw_per_op),
        "docs": {name: {"dim": d, "bytes": b} for name, (d, b, _) in wl.docs.items()},
        "op_ms_ref": {name: [round(t * 1e3, 3) for t in s] for name, s in zip(names, per_op)},
        "op_ms": {name: [round(t * 1e3, 3) for t in s] for name, s in zip(names, raw_per_op)},
    }
    return metrics, runner, info


def _child_s(code: str, env) -> list[float]:
    times = []
    for _ in range(INTERP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(perf_counter() - t0)
    return times


def cli_startup(ops, runner: Runner) -> dict:
    """The cli.* start-up metrics. A bare interpreter and an import of
    qbuchi.cli run as children before each measured-form pass (the CLI calls
    as child processes). cli.startup_share is the share of a pass that goes
    to starting the interpreter and importing qbuchi.cli, once per call;
    every time in it is a fastest time."""
    from workloads import cli_env

    env = cli_env(ROOT)
    interp, imports, per_op = [], [], [[] for _ in ops]
    for _ in range(MEASURED_PASSES):
        interp += _child_s("pass", env)
        imports += _child_s("import qbuchi.cli", env)
        outputs, times = runner.run_pass(ops)
        runner.check(ops, outputs, "measured form")
        for samples, t in zip(per_op, times):
            samples.append(t)
    wall = sum(min(s) for s in per_op)
    return {
        "cli.interp_ms": min(interp) * 1e3,
        "cli.import_ms": (min(imports) - min(interp)) * 1e3,
        "cli.startup_share": len(ops) * min(imports) / wall,
    }


def measure_traced(wl, seconds: float, names, spans_path: Path) -> tuple[dict, Runner, dict]:
    """Traced run: one traced set-up, a warm-up pass (checked in full; for
    cli_docs after two passes of the CLI calls as child processes), then
    untraced and traced passes in turn until ``seconds`` have gone."""
    from tracing import Tracer, layer_metrics

    start = perf_counter()
    tracer = Tracer()
    ops, _, _ = set_up(wl, tracer)
    setup_spans = list(tracer.spans)
    runner = Runner()
    extra = cli_startup(ops, runner) if wl.name == "cli_docs" else {}
    outputs, _ = runner.run_pass(ops, traced_form=True)  # warm-up
    runner.check(ops, outputs, "warm-up")
    untraced_times, traced_times, pass_spans = [], [], []
    while len(pass_spans) < MIN_TRACED_PASSES or perf_counter() - start < seconds:
        outputs, times = runner.run_pass(ops, traced_form=True)
        runner.check(ops, outputs, "untraced")
        untraced_times.append(times)
        first = len(tracer.spans)
        with tracer.installed():
            outputs, times = runner.run_pass(ops, traced_form=True, tracer=tracer)
        runner.check(ops, outputs, "traced")
        traced_times.append(times)
        pass_spans.append(tracer.spans[first:])
    extra["bench.trace_overhead"] = (sum(map(min, zip(*traced_times)))
                                     / sum(map(min, zip(*untraced_times))))
    docs = {dim: size for dim, size, _ in wl.docs.values()}
    for dim in (81, 243):
        if dim in docs:
            extra[f"automata.doc_mb.d{dim}"] = docs[dim] / 1e6
    metrics = layer_metrics(names, pass_spans,
                            setup_spans + [s for p in pass_spans for s in p], extra)
    tracer.write_csv(spans_path)
    info = {"traced_passes": len(pass_spans), "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, runner, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "lasso_dense", "cli_docs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS

    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        env = environment(args.workload, args.seed)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.csv"
            table = contract["per_layer"]
            metrics, runner, info = measure_traced(
                wl, args.seconds, [m["name"] for m in table], spans_path)
        else:
            table = contract["end_to_end"]
            metrics, runner, info = measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    info["failed_share"] = runner.failed / runner.attempted
    print(json.dumps({"environment": env, "run": info}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
