#!/usr/bin/env python3
"""The tklwb benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 20 --trace 0

Workloads (parameters in ``WORKLOADS``):

* ``oracle``: ``verify("oracle-equivalence")``, recurrence against the
  bar-triangular oracle on every pair; the oracle rows dominate.
* ``products``: ``verify("structure-theorems")``, closed-form products
  against the direct standard-basis routes; no oracle runs.
* ``dump``: ``cli.main([... "dump" ...])`` written to a file; formatting and
  the closed forms dominate.
* ``query``: a closed loop with one client asking random ``P[y, w]`` and
  ``Psigma[y, w]`` of long words from one long-lived pair of tables; the
  recurrence and its memo dominate.

The seed picks the sweep workloads' diagram involution (one of the three
transpositions of ``a, b, c``, all isomorphic, so the work is the same) and
generates the ``query`` inputs.

Every pass runs in a fresh interpreter (``passes.py``), so it starts with
cold module caches.  ``--trace 0`` reports the end-to-end metrics: the
median over the passes that fit in ``--seconds`` of wall time, throughput,
call latency and peak RSS, plus ``setup_s``, the median of several fresh
interpreters that import ``tklwb`` and build the spec, half of them timed
before the passes and half after.  ``--trace 1``
reports the per-layer metrics of one traced worker (``passes.py``), the
tracing overhead against an untraced pass, and the ``--jobs 2`` speedup of
the ``products`` sweep.

Each pass's outputs are checked against ``reference.json``: the tuple count
and an empty violation list for the sweeps, the SHA-256 of the dump bytes,
and the SHA-256 of the query answers at the default seed (at other seeds,
invariants of every answer).  A mismatch, exception or non-zero exit counts
as a failed operation.  The last line of stdout is the result:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

The exit code is 0 when every operation passed its check, 1 when one
failed, and 2 when the checkout holds no ``tklwb`` sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
SWEEP_STARS = ("(a b)", "(a c)", "(b c)")

WORKLOADS = {
    "oracle": {"gens": 3, "check": "oracle-equivalence", "max_rho": 5, "max_ell": 8},
    "products": {"gens": 3, "check": "structure-theorems", "max_rho": 3, "max_ell": 4},
    "dump": {"gens": 3, "max_rho": 6, "max_ell": 7},
    "query": {"gens": 4, "star": "(a b)", "pairs": 3000, "p_len": 24, "psigma_rho": 12},
}

# The self-test's scale: the same workloads at bounds that run in a second.
TINY = {
    "oracle": {"max_rho": 2, "max_ell": 3},
    "products": {"max_rho": 1, "max_ell": 2},
    "dump": {"max_rho": 2, "max_ell": 2},
    "query": {"pairs": 20, "p_len": 8, "psigma_rho": 4},
}

# Set-up is timed this many times before the passes and as many after them.
SETUP_REPEATS = 8
# A run kills a stuck pass and starts no new one after this many seconds.
DEADLINE_S = 170.0
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def workload_params(workload: str, seed: int, tiny: bool) -> dict:
    p = dict(WORKLOADS[workload])
    if tiny:
        p.update(TINY[workload])
    p.setdefault("star", SWEEP_STARS[seed % len(SWEEP_STARS)])
    return p


class Run:
    """Starts passes in fresh interpreters, checks them and tallies failures."""

    def __init__(self, workload: str, seed: int, params: dict, refs: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.params = params
        self.refs = refs
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def worker(self, mode: str, workload: str | None = None, params: dict | None = None, jobs: int = 1):
        """Run ``passes.py`` once; its JSON result, or None after a note on stderr."""
        task = {
            "mode": mode,
            "workload": workload or self.workload,
            "seed": self.seed,
            "jobs": jobs,
            "params": params or self.params,
        }
        cmd = [sys.executable, str(HERE / "passes.py"), json.dumps(task)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._note(f"{mode} pass timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return self._note(f"{mode} pass exited with code {proc.returncode}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._note(f"{mode} pass printed no result")
        if "warm_caches" in result:
            return self._note(f"caches not empty at the start of a pass: {result['warm_caches']}")
        return result

    def _note(self, text: str) -> None:
        self.notes.append(text)
        print(f"perfbench: {text}", file=sys.stderr)
        return None

    def operations(self, workload: str) -> int:
        """Operations in one pass: the sweep call, or each query."""
        if workload == "query":
            return 2 * self.params["pairs"]
        return 1

    def check(self, out: dict | None, workload: str | None = None) -> bool:
        """Tally one pass's operations and those whose output is missing or wrong."""
        workload = workload or self.workload
        ops = self.operations(workload)
        self.attempted += ops
        if out is None:
            self.failed += ops
            return False
        ref = self.refs[workload]
        if workload in ("oracle", "products"):
            bad = int(out["violations"] != 0 or out["tuples"] != ref["tuples_checked"])
        elif workload == "dump":
            expected = ref["sha256"][self.params["star"]]
            bad = int(out["exit"] != 0 or out["sha256"] != expected)
        else:
            bad = out["invariant_failures"]
            if self.seed == ref["seed"] and out["sha256"] != ref["sha256"]:
                bad = ops  # which answers are wrong is unknown: count them all
        if bad:
            self._note(f"{workload}: {bad} of {ops} operations gave a wrong output: {out}")
        self.failed += bad
        return not bad

    def setup_times(self, repeats: int) -> list[float]:
        """Wall times of fresh interpreters that import and build the spec."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            ok = self.worker("setup") is not None
            if ok:
                times.append(time.perf_counter() - start)
        return times

    def timed_passes(self, seconds: float) -> list[dict]:
        """Passes until ``seconds`` have gone by (at least one); those that ran."""
        passes = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            result = self.worker("pass")
            self.check(result and result["output"])
            if result is not None:
                passes.append(result)
            now = time.monotonic()
            if now - start >= seconds or now + (now - began) > self.deadline:
                return passes


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest of ``TAIL_PERCENTILES`` with ``TAIL_BEYOND`` samples beyond
    it, and its value (nearest rank).

    With too few samples for any of them (a sweep makes a handful of
    one-call passes in a run) there is no tail to state, and it falls back
    to the median, recorded as percentile 50; the maximum of a handful of
    passes would follow the slowest moment of the machine, not the program.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def latency_ms(passes: list[dict]) -> tuple[float, float, dict]:
    """Call latency p50 and tail in ms.

    A query pass makes thousands of calls: summarise each pass, then take the
    median over passes.  A sweep pass is one call: pool the passes.
    """
    per_pass = [p["latencies"] for p in passes]
    if all(len(s) > 1 for s in per_pass):
        tails = [tail(s) for s in per_pass]
        p50 = statistics.median(statistics.median(s) for s in per_pass)
        value = statistics.median(v for _, v in tails)
        pct, n = tails[0][0], len(per_pass[0])
    else:
        pooled = [x for s in per_pass for x in s]
        p50 = statistics.median(pooled)
        pct, value = tail(pooled)
        n = len(pooled)
    return 1000 * p50, 1000 * value, {"tail_percentile": pct, "samples": n}


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setups = run.setup_times(SETUP_REPEATS)
    passes = run.timed_passes(seconds)
    setups += run.setup_times(SETUP_REPEATS)
    if not setups or not passes:
        return {}, {}
    p50, tail_value, about = latency_ms(passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "items_per_s": (statistics.median(p["items"] / p["wall_s"] for p in passes), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail_value, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {"passes": len(passes), "wall_s_each": [p["wall_s"] for p in passes], "setup_s_each": setups, **about}
    return metrics, detail


PER_LAYER_UNITS = {"_s": "s", "hit_ratio": "ratio", "speedup": "x", "bytes_written": "B", "mean_operand_terms": "terms"}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def per_layer(run: Run, tiny: bool) -> tuple[dict, dict]:
    untraced = run.worker("pass")
    run.check(untraced and untraced["output"])
    traced = run.worker("trace")
    for out in traced["outputs"] if traced else [None]:
        run.check(out)
    if traced is None or untraced is None:
        return {}, {}
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]

    # --jobs probe: the products sweep at one and two threads, each cold.
    probe = workload_params("products", run.seed, tiny)
    probe_walls = {}
    if cpu_count() >= 2:
        for jobs in (1, 2):
            result = run.worker("pass", "products", probe, jobs)
            if run.check(result and result["output"], "products"):
                probe_walls[jobs] = result["wall_s"]
    speedup = probe_walls[1] / probe_walls[2] if len(probe_walls) == 2 else 0.0
    layers["positivity.jobs2_speedup"] = speedup

    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    detail = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced["wall_s"],
              "jobs_probe_wall_s": probe_walls}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny bounds, for the self-test")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="reference outputs (JSON)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tklwb" / "__init__.py").is_file():
        print(f"perfbench: no tklwb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads(Path(args.reference).read_text(encoding="utf-8"))["tiny" if args.tiny else "full"]
    params = workload_params(args.workload, args.seed, args.tiny)
    run = Run(args.workload, args.seed, params, refs)
    if args.trace:
        metrics, detail = per_layer(run, args.tiny)
    else:
        metrics, detail = end_to_end(run, args.seconds)
    if not metrics:
        run.failed = max(run.failed, 1)
        run.attempted = max(run.attempted, 1)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "params": params, **detail, "notes": run.notes}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
