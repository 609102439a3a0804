"""Self-test of the benchmark, at tiny bounds.

    python3 -m pytest perfbench

Each workload must print every metric that BENCHMARK.json names, with its
unit; a tampered reference digest must come back as a failed operation, not
a crash; without the package sources the benchmark must print no result;
and the traced run's layer timer must put back what it wrapped.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LayerTimer  # noqa: E402
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unused_layers_read_zero(workload):
    metrics = result_of(bench("--workload", workload, "--trace", "1", "--tiny"))["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    oracle = [n for n in value if n.startswith("oracle.")]
    direct = ["products.direct_s", "products.direct_calls"]
    if workload != "oracle":
        assert all(value[n] == 0 for n in oracle), {n: value[n] for n in oracle}
    else:
        assert all(value[n] > 0 for n in oracle)
    if workload != "products":
        assert all(value[n] == 0 for n in direct)
    else:
        assert all(value[n] > 0 for n in direct)


@pytest.mark.parametrize("workload", ["dump", "query"])
def test_tampered_digest_is_a_failure_not_a_crash(workload, tmp_path):
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    tiny = refs["tiny"][workload]
    if workload == "dump":
        tiny["sha256"]["(a b)"] = "0" * 64
    else:
        tiny["sha256"] = "0" * 64
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(refs), encoding="utf-8")
    proc = bench("--workload", workload, "--trace", "0", "--tiny", "--reference", str(tampered))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    result = result_of(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_without_the_package_sources_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_timer_times_the_outermost_call_and_restores(tmp_path):
    module = types.ModuleType("layered")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    inner, outer = module.inner, module.outer
    timer = LayerTimer()
    timer.wrap(module, "inner", "inner")
    timer.wrap(module, "outer", "outer", count=lambda args, result: args[0] + result)
    timer.wrap_open(module, "write")
    assert module.outer(2) == 6
    with module.open(tmp_path / "out.txt", "w") as fh:
        fh.write("row\n")
    assert dict(timer.calls) == {"outer": 1, "write": 2}  # inner ran inside outer
    assert timer.items["outer"] == 8
    timer.restore()
    assert (module.inner, module.outer) == (inner, outer)
    assert not hasattr(module, "open")
    assert (tmp_path / "out.txt").read_text() == "row\n"
