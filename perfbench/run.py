"""Seeded end-to-end benchmark of the gaugecraft command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
One run is one process.  It writes the workload's scenario files from the
seed, imports `gaugecraft.cli` once and calls `cli.main([...])` for each
step in order (a closed loop, one client, `--jobs 1`, BLAS threads left at
their default).  Each iteration of the workload's main block is followed by
COMPANION_REPEATS iterations of its companion block (see workloads.py), until
`--seconds` have been measured; the last iteration is finished.  After each
iteration the outputs are checked (`oracles.py`).

With `--trace 0` the last stdout line reports the end-to-end metrics: each
command's wall time summed over one iteration, averaged over the iterations
that run the command; the median import time of `gaugecraft.cli` in fresh
interpreters (`setup_s`); and the process's peak resident memory.  The mean
is used because the machine's speed shifts between two levels for seconds at
a time, and the mean of many samples follows the share of slow time smoothly
where a median of few samples jumps between the levels.  With
`--trace 1` one untraced pass over both blocks is followed by one traced
pass, and the line reports the per-layer metrics of `tracer.py` plus the
tracing overhead.  The line before it records the environment, the
workload's shape and every iteration's times.

A CLI invocation that exits non-zero or raises, and a failed output check,
each count as one failed operation; any failure makes the run incorrect.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
COMPANION_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gaugecraft.cli; "
                "print(time.perf_counter() - t)")

from workloads import COMMAND_METRICS, SIZES, WORKLOADS, StepResult, build_plan  # noqa: E402
import tracer as tracing  # noqa: E402

END_TO_END = [(m, "s") for m in COMMAND_METRICS.values()] + [("setup_s", "s"),
                                                              ("peak_rss_mb", "MB")]
PER_LAYER = tracing.SPAN_METRICS + [
    ("cli.output_bytes", "bytes"), ("proc.cpu_s", "s"), ("trace.overhead_s", "s"),
    ("failed_frac", "fraction")]


@dataclass
class Iteration:
    block: str
    times: dict = field(default_factory=dict)   # command -> summed wall seconds
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0


def _invoke(main, argv, stdout):
    """Exit code of one CLI call, or the exception that escaped it."""
    try:
        with redirect_stdout(stdout):
            return main(argv)
    except (Exception, SystemExit) as exc:  # counted as a failure, not fatal
        traceback.print_exc(file=sys.stderr)
        return exc


def run_iteration(block, main, tracer=None, name="main") -> Iteration:
    it = Iteration(name)
    results = {}
    t_start = perf_counter()
    for step in block.steps:
        stdout = io.StringIO()
        if tracer is not None:
            tracer.run_id = step.label
        with tracer.span("cli.main") if tracer is not None else nullcontext():
            t0 = perf_counter()
            code = _invoke(main, step.argv(), stdout)
            elapsed = perf_counter() - t0
        if step.command in COMMAND_METRICS:
            it.times[step.command] = it.times.get(step.command, 0.0) + elapsed
        it.attempted += 1
        if code != 0:
            it.failed += 1
            print(f"step {step.label} failed: {code!r}", file=sys.stderr)
        results[step.label] = StepResult(code, stdout.getvalue(), step.out)
    it.wall = perf_counter() - t_start
    for check in block.checks:
        it.attempted += 1
        try:
            reason = check.fn(results)
        except Exception as exc:  # missing or malformed output
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            it.failed += 1
            print(f"check {check.name} failed: {reason}", file=sys.stderr)
    return it


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median time a fresh interpreter takes to import gaugecraft.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(), "jobs": 1,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(plan, cli, seconds: float):
    iterations = []
    t_start = perf_counter()
    while not iterations or perf_counter() - t_start < seconds:
        iterations.append(run_iteration(plan.main, cli.main))
        iterations += [run_iteration(plan.companion, cli.main, name="companion")
                       for _ in range(COMPANION_REPEATS)]
    metrics = {metric: statistics.fmean(it.times[cmd] for it in iterations
                                        if cmd in it.times)
               for cmd, metric in COMMAND_METRICS.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return iterations, metrics


def _one_pass(plan, cli, tracer=None) -> list:
    return [run_iteration(plan.main, cli.main, tracer),
            run_iteration(plan.companion, cli.main, tracer, "companion")]


def measure_traced(plan, cli, work: Path, trace_path: Path):
    untraced = _one_pass(plan, cli)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    cpu0 = _cpu_seconds()
    tracer.enabled = True
    try:
        traced = _one_pass(plan, cli, tracer)
    finally:
        tracer.enabled = False
        uninstall()
    cpu = _cpu_seconds() - cpu0
    tracer.write(trace_path, {"workload": plan.name, "shape": plan.shape})
    iterations = untraced + traced
    metrics = tracing.span_metrics(tracer.spans)
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in (work / "out").rglob("*")
                                      if p.is_file())
    metrics["proc.cpu_s"] = cpu
    metrics["trace.overhead_s"] = (sum(it.wall for it in traced)
                                   - sum(it.wall for it in untraced))
    metrics["failed_frac"] = (sum(it.failed for it in iterations)
                              / sum(it.attempted for it in iterations))
    return iterations, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES),
                        help="'toy' shrinks every workload for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "gaugecraft" / "cli.py").is_file():
        print(f"no gaugecraft sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = None if args.trace else measure_setup()
    from gaugecraft import cli

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        plan = build_plan(args.workload, work, args.seed, SIZES[args.size])
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            iterations, values = measure_traced(plan, cli, work, trace_path)
            units = PER_LAYER
        else:
            iterations, values = measure(plan, cli, args.seconds)
            values["setup_s"] = setup
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    print(json.dumps({"env": environment(), "workload": plan.name, "shape": plan.shape,
                      "iterations": [{"block": it.block, "wall": it.wall, **it.times}
                                     for it in iterations]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
