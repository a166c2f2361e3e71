"""Run every workload over ten seeds and write the baseline summary.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json: one untraced run per seed, then one
traced run on the first seed. The summary, written to
perfbench/baseline/BENCH_1.json, holds per end-to-end metric the median,
the quartiles and their distance as a share of the median (the spread the
metric's bound is compared with), plus the traced run's per-layer metrics
and the environment line of the first run. Run from the repository root.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(1, 11))
OUT = HERE / "baseline" / "BENCH_1.json"


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(CONTRACT["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    summary = {"run_seconds": CONTRACT["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in SEEDS:
            info, result = run_once(workload, seed, 0)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        _, traced = run_once(workload, SEEDS[0], 1)
        stats = {name: summarise(v) for name, v in values.items()}
        for name, s in stats.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (> bound/3)"
            print(f"  {name:12s} median {s['median']:.6g}  spread {s['spread']:.3f}  "
                  f"bound {bounds[name]}{flag}", flush=True)
        summary.setdefault("environment", info["environment"])
        summary["workloads"][workload] = {
            "failed": failed,
            "end_to_end": stats,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_failed": traced["failed"],
        }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
