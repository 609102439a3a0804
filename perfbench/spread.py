#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --seeds 10 [--trace] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed (seeds
``0 .. N-1``), for its ``run_seconds``, and prints for each
end-to-end metric the median of the runs, their quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as
a share of the median, next to the metric's bound.  ``--trace`` adds one
traced run per workload at the default seed.  ``--out`` writes all of it,
with its provenance (Python version, CPU count and model, git commit, seeds
and every workload's parameters), as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
    return result


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "bound": bound,
        "values": values,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the figures and their provenance here")
    args = parser.parse_args(argv)

    seeds = list(range(args.seeds))
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    figures: dict = {}
    for workload in workloads:
        results = [one_run(workload, seed, 0) for seed in seeds]
        failed = sum(r.get("failed", 1) for r in results)
        per_metric = {
            name: summarise([r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})], bound)
            for name, bound in bounds.items()
        }
        figures[workload] = {"failed": failed, "end_to_end": per_metric}
        print(f"{workload}: failed operations {failed}")
        for name, s in per_metric.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
        if args.trace:
            traced = one_run(workload, run.DEFAULT_SEED, 1)
            figures[workload]["per_layer"] = {k: v["value"] for k, v in traced.get("metrics", {}).items()}

    if args.out:
        record = {
            "provenance": {
                "python": platform.python_version(),
                "nproc": run.cpu_count(),
                "cpu_model": cpu_model(),
                "git_commit": git_commit(),
                "seeds": seeds,
                "default_seed": run.DEFAULT_SEED,
                "run_seconds": BENCHMARK["run_seconds"],
                "workloads": {w: run.workload_params(w, run.DEFAULT_SEED, False) for w in workloads},
                "sweep_stars_by_seed": list(run.SWEEP_STARS),
            },
            "figures": figures,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
