"""The benchmark's own correctness gates on the toy-size `coupling-scan` main block, and
the table of scenario keys on every config the workloads write.

`perfbench/workloads.py` writes the scenario and its steps; `perfbench/oracles.py`
checks what the steps wrote.  Both are imported read-only, and each step runs
through `cli.main` as the benchmark runs it.
"""

import csv
import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


BENCH_MODULES = ("inputs", "oracles", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """(workloads, oracles), imported from perfbench/ and forgotten afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module("workloads"), importlib.import_module("oracles")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [1, 2])
def test_coupling_scan_main_block_passes_the_benchmark_oracles(bench, tmp_path, seed):
    from gaugecraft import cli

    workloads, oracles = bench

    plan = workloads.build_plan("coupling-scan", tmp_path, seed, workloads.TOY)
    results = {}
    for step in plan.main.steps:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli.main(step.argv())
        assert code == 0, step.label
        results[step.label] = workloads.StepResult(code, stdout.getvalue(), step.out)
    failures = [(c.name, c.fn(results)) for c in plan.main.checks]
    assert [f for f in failures if f[1] is not None] == []
    correct, naive = results["gauge-check-correct"], results["gauge-check-naive"]
    assert correct.stdout.startswith("PASS") and naive.stdout.startswith("FAIL")
    with open(correct.out / "gauge_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == workloads.TOY.scan_points
    assert max(float(r["correct_gap"]) for r in rows) <= oracles.GAP_TOL


@pytest.mark.parametrize("name", ["multimode", "coupling-scan", "ramp-evolve"])
def test_every_config_a_workload_writes_passes_the_table(bench, tmp_path, name):
    """Each step's config, its --set overrides applied, loads as a `Scenario`: it holds no
    key the table lacks and no value of the wrong kind or out of range."""
    from gaugecraft.scenario import Scenario

    workloads, _ = bench
    assert name in workloads.WORKLOADS
    plan = workloads.build_plan(name, tmp_path, 1, workloads.TOY)
    steps = plan.main.steps + plan.companion.steps
    assert len(steps) >= 5
    for step in steps:
        Scenario.load(step.config, step.overrides)
