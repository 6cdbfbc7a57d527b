"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that each run emits every metric named in BENCHMARK.json with its
unit, and that a wrong reference value is counted as a failed operation
rather than crashing the run.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# exact seed counts at the tiny sizes
TINY = {
    "deep": dataclasses.replace(bench.WORKLOADS["deep"], z=10**5, reference=31850,
                                ladder=(10**4, 10**5)),
    "deep-par": dataclasses.replace(bench.WORKLOADS["deep-par"], z=10**5, reference=31850),
    "wide": dataclasses.replace(bench.WORKLOADS["wide"], z=10**5, r_max=50, reference=148128),
    "sieve": dataclasses.replace(bench.WORKLOADS["sieve"], x=10**5, reference=5490),
}


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    full = bench.run(TINY[name], seed=7, seconds=1, trace=trace)
    res = full["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(res["metrics"][m]["value"] > 0 for m in bench.END_TO_END_UNITS)
    else:  # pool_s > 0 on deep-par, and 0 where the pool is not entered
        pool = next(p for p in full["predictions"] if p[0] == "pool")
        assert pool[3], pool
    assert full["record"]["seed"] == 7
    json.dumps(full)


def test_ladder_points_are_traced():
    res = bench.run(TINY["deep"], seed=0, seconds=1, trace=True)["result"]
    assert res["metrics"]["engine.ladder.z1e5_s"]["value"] > 0
    assert res["metrics"]["engine.ladder.z1e5_width"]["value"] > res["metrics"]["engine.tail_mass"]["value"]


@pytest.mark.parametrize("name", ["deep", "sieve"])
def test_wrong_reference_is_a_failed_operation(name):
    wrong = dataclasses.replace(TINY[name], reference=TINY[name].reference + 1)
    full = bench.run(wrong, seed=0, seconds=1, trace=False)
    res = full["result"]
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert all("reference" in p for op in full["operations"] for p in op["problems"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sieve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
