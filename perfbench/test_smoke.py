"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

One cycle of each workload with its checks, the defect census, one traced
cycle, and the command line at one second per run.  Kept out of the repository's test
suite, whose `testpaths` is `tests`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.load_program()
ops = run.ops

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_cycle_is_seeded_and_checked(workload):
    cycle = workloads.cycle(workload, 3, 0)
    assert cycle == workloads.cycle(workload, 3, 0)
    assert cycle != workloads.cycle(workload, 4, 0)
    tally = run.Tally()
    run.run_pass(cycle, tally)
    assert tally.attempted == len(cycle)
    assert not tally.failures, tally.examples


def test_defect_census_is_seeded_and_shows_the_defects():
    census = workloads.defect_census(3)
    assert census == workloads.defect_census(3)
    outcomes = run.run_census(3)
    assert {g for g, _, _ in workloads.DEFECT_GROUPS} == set(outcomes)
    assert outcomes["beyond_guard"][ops.LOST_EXACTNESS] > 0
    assert outcomes["ladder_random_weights"][ops.PROBE_OVERFLOW] > 0
    assert all(0.0 <= v <= 1.0 for v in run.census_metrics(outcomes).values())


def test_checks_catch_wrong_outputs():
    lattice = next(op for op in workloads.cycle("search-certify", 0, 0)
                   if op["kind"] == "lattice" and not op["expect"]["holds"])
    rep = ops.prepare(lattice)()
    bad = type(rep)(holds=False, witness=tuple(x + 1 for x in rep.witness),
                    method=rep.method)
    assert ops.check(lattice, rep) is None
    assert ops.check(lattice, bad)[0] == ops.UNEXPECTED

    scan = next(op for op in workloads.cycle("search-certify", 0, 0)
                if op["kind"] == "scan" and op["expect"]["witness"])
    assert ops.check(scan, 0.0)[0] == ops.UNEXPECTED

    e1 = workloads.cycle("exact-ladder", 0, 0)[0]
    rep, text = ops.prepare(e1)()
    assert ops.check(e1, (rep, text)) is None
    assert ops.check(e1, (rep, text + " "))[0] == ops.UNEXPECTED


def test_traced_cycle_gives_every_layer_metric():
    t = tracer.Tracer()
    t.install()
    tally = run.Tally()
    try:
        run.run_pass(workloads.cycle("search-certify", 0, 0), tally, t)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t, tally.attempted)
    names = {m["name"] for m in SPEC["per_layer"]
             if m["name"] != "trace.overhead_frac" and not m["name"].startswith("defects.")}
    assert set(metrics) == names
    assert metrics["pipeline.weight_candidates_per_op"] > 0
    assert metrics["model.star_condition.bounded_search_calls"] > 0
    assert all(span[2] >= span[1] for span in t.spans)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_line_contract(trace):
    spec_names = {m["name"]: m["unit"]
                  for m in SPEC["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "float-screen",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_names


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "float-screen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
