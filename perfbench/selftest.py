"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

* every workload emits every metric named in BENCHMARK.json, with its unit,
  and passes its own checks on the unmodified program;
* the counts of two traced runs of the same seed are identical;
* each output check rejects one corrupted output;
* an exception escaping `cli.main` is counted as a failure, not fatal;
* the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import run
from workloads import TOY, WORKLOADS, Block, Step, StepResult, build_plan

SEED = 7
failures = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = run.ROOT):
    """(exit code, stdout lines) of one toy-size benchmark run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                           "--size", "toy"], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_emitted(spec: dict):
    counts = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            code, lines = bench(workload, trace)
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            expect(result.get("correct") is True and result.get("failed") == 0,
                   f"{workload} trace={trace}: correct, no failed operations")
            expect({k: v["unit"] for k, v in metrics.items()} == wanted,
                   f"{workload} trace={trace}: emits exactly the {key} metrics")
            if trace:
                counts.setdefault(workload, []).append(
                    {k: v["value"] for k, v in metrics.items()
                     if v["unit"] in ("count", "bytes")})
        a, b = counts[workload]
        expect(a == b, f"{workload}: counts repeat exactly across two traced runs "
                       f"({[k for k in a if a[k] != b.get(k)] or 'all equal'})")


@contextmanager
def corrupted(path: Path, edit):
    original = path.read_text(encoding="utf-8")
    path.write_text(edit(original), encoding="utf-8")
    try:
        yield
    finally:
        path.write_text(original, encoding="utf-8")


def edit_csv(column: str, fn, drop_last: bool = False):
    def edit(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        header = list(rows[0])
        rows[0][column] = repr(fn(float(rows[0][column])))
        rows = rows[:-1] if drop_last else rows
        return "\n".join([",".join(header)] + [",".join(r[h] for h in header)
                                               for r in rows]) + "\n"
    return edit


def swap_states(text):
    dump = json.loads(text)
    dump[1]["state"], dump[-1]["state"] = dump[-1]["state"], dump[1]["state"]
    return json.dumps(dump)


def perturb_chi(text):
    doc = json.loads(text)
    doc["chi"][0][0] += 1e-6
    return json.dumps(doc)


def check_oracles(cli):
    work = run.WORK / "selftest"
    plans = {w: build_plan(w, work / w, SEED, TOY) for w in WORKLOADS}
    results = {}
    for name, plan in plans.items():
        res = {}
        for step in plan.main.steps + plan.companion.steps:
            out = io.StringIO()
            res[step.label] = StepResult(run._invoke(cli.main, step.argv(), out),
                                         out.getvalue(), step.out)
        results[name] = res
        checks = plan.main.checks + plan.companion.checks
        failing = [c.name for c in checks if c.fn(res) is not None]
        expect(not failing, f"{name}: every check passes on the program's output {failing}")

    def rejects(workload, check_name, what, results_for=None):
        plan = plans[workload]
        check = next(c for c in plan.main.checks if c.name == check_name)
        reason = check.fn(results_for or results[workload])
        expect(reason is not None, f"{check_name} rejects {what}: {reason}")

    mm = {s.label: s.out for s in plans["multimode"].main.steps}
    with corrupted(mm["modes"] / "modeset.json", perturb_chi):
        rejects("multimode", "modes-chi", "a perturbed chi")
    with corrupted(mm["spectrum-0.37"] / "eigenvalues.csv",
                   edit_csv("energy", lambda e: e + 1e-6)):
        rejects("multimode", "spectra-agree", "a perturbed eigenvalue")
    with corrupted(mm["detect"] / "rates.csv", edit_csv("rel_diff", lambda r: 1e-6)):
        rejects("multimode", "rates", "a cross-gauge rate gap")
    with corrupted(mm["detect"] / "rates.csv", edit_csv("rel_diff", lambda r: r, True)):
        rejects("multimode", "rates", "a missing transition")

    cs = dict(results["coupling-scan"])
    naive = cs["gauge-check-naive"]
    cs["gauge-check-naive"] = StepResult(0, "PASS: doctored\n", naive.out)
    rejects("coupling-scan", "naive-fail", "a naive run that reports PASS", cs)
    report = cs["gauge-check-correct"].out / "gauge_report.csv"
    with corrupted(report, edit_csv("correct_gap", lambda g: 1e-6)):
        rejects("coupling-scan", "correct-pass", "a large correct_gap")

    ramp = {s.label: s.out for s in plans["ramp-evolve"].main.steps}
    with corrupted(ramp["evolve-multipolar"] / "states.json", swap_states):
        rejects("ramp-evolve", "gauge-map", "swapped checkpoint states")
    shutil.rmtree(work, ignore_errors=True)


def check_escaped_exception(cli):
    """An emitter placed at a point with no stored profile raises KeyError today."""
    work = run.WORK / "selftest-escape"
    plan = build_plan("ramp-evolve", work, SEED, TOY)
    doc = json.loads(plan.main.steps[0].config.read_text(encoding="utf-8"))
    doc["emitter"]["position_label"] = "nowhere"
    bad = work / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    block = Block([Step("bad-spectrum", "spectrum", bad, work / "out" / "bad")])
    escaped = run._invoke(cli.main, block.steps[0].argv(), io.StringIO())
    expect(isinstance(escaped, KeyError), f"the bad scenario raises KeyError: {escaped!r}")
    try:
        it = run.run_iteration(block, cli.main)
        expect(it.attempted == 1 and it.failed == 1,
               f"an exception escaping cli.main is counted ({it.failed}/{it.attempted})")
    except BaseException as exc:  # the test fails if it is fatal
        expect(False, f"an exception escaping cli.main was fatal: {exc!r}")
    shutil.rmtree(work, ignore_errors=True)


def check_bare_directory():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("multimode", 0, cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"without sources: exit {code}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    from gaugecraft import cli
    check_bare_directory()
    check_escaped_exception(cli)
    check_oracles(cli)
    check_emitted(spec)
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
