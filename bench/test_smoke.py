"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced. It checks the result's schema and that the metric names and units
match BENCHMARK.json, never timings.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1",
         "--tiny"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(out):
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    for metric in result["metrics"].values():
        assert sorted(metric) == ["unit", "value"]
        assert isinstance(metric["value"], (int, float))
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units(workload, trace, kind):
    result = result_of(bench("--workload", workload, "--trace", str(trace)))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_all_runs_every_workload():
    result = result_of(bench("--workload", "all", "--trace", "0"))
    assert sorted(result["metrics"]) == sorted(
        "%s.%s" % (w, m["name"]) for w in WORKLOADS for m in SPEC["end_to_end"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
