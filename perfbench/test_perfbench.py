"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They use ``--smoke``, the smallest call set of each workload, checked against
the same references as a full run.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", "--smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _printed(stdout: str, names: dict):
    lines = stdout.splitlines()
    for name, unit in names.items():
        assert any(ln.split()[:1] == [name] and f" {unit} " in f"{ln} " for ln in lines), name
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    units = {k: v[0] for k, v in run.END_TO_END.items()}
    result = _printed(proc.stdout, {**units, **run.REPORTED})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_prints_every_layer_metric(workload):
    proc = _bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    units = {k: v[0] for k, v in LAYER_METRICS.items()}
    result = _printed(proc.stdout, units)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["dynamics.evolve_calls"]["value"] >= 1


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        record = run.run_workload("scenario", 0, 0, 1, smoke=True)
        m = record["layer_metrics"]
        exact = [k for k, (unit, _, _) in LAYER_METRICS.items() if unit in ("count", "bytes")]
        counts.append({k: m[k] for k in exact})
        counts[-1]["evolutions"] = sum(c[2] for c in record["calls"])
    assert counts[0] == counts[1]
    for key in ("hilbert.diag_calls", "output.bytes_written", "evolutions"):
        assert counts[0][key] > 0


def test_perturbed_reference_fidelity_counts_as_failure():
    refs = json.loads((HERE / "refs.json").read_text())["ramped"]
    bad = copy.deepcopy(refs)
    bad["fock2"]["fidelity"] += 1e-6
    record = run.run_workload("ramped", 0, 0, 0, smoke=True, refs=bad)
    assert record["attempted"] == 1 and record["failed"] == 1
    assert record["end_to_end"]["failed_frac"] == 1.0
    assert 9e-7 < record["fidelity_err_max"] < 1.1e-6


def test_non_strict_json_is_rejected():
    with pytest.raises(workloads.CheckError):
        workloads.strict_json('{"phi_c": NaN}')
    with pytest.raises(workloads.CheckError):
        workloads.strict_roundtrip({"phi_c": float("inf")})


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in LAYER_METRICS.items()
    }


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _bench("--workload", "scenario", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
