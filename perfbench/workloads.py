"""The benchmark workloads: CLI steps in closed-loop order plus output checks.

Every workload is a fixed sequence of `gaugecraft` invocations on files that
`inputs.py` generates from the seed.  One iteration runs the steps in order,
each after the previous one has returned, then runs the checks.

Each workload is built around the commands that stress its layers (its main
block).  So that every command metric is defined on every workload, a
workload also has a companion block: the commands its main block lacks, run
on a small single-mode scenario with fixed strengths.  A companion command
lasts under a second, so run.py runs the companion block several times after
every main iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from inputs import (RAMP, SCAN_ETA, ModeData, modes_scenario, polariton_modes, ramp_mu,
                    scenario, single_mode, static_horizon_share, stratified_eta, write_json)
import oracles

WORKLOADS = ("multimode", "coupling-scan", "ramp-evolve")
COMMAND_METRICS = {"spectrum": "spectrum_s", "detect": "detect_s",
                   "gauge-check": "gauge-check_s", "evolve": "evolve_s"}
THETAS = (0.0, 0.37, 1.0)


@dataclass(frozen=True)
class Size:
    grid_nodes: int = 64
    multimode_cutoff: int = 20       # D = 2 * 21^2 = 882
    scan_points: int = 40
    scan_cutoff: int = 300           # D = 602
    ramp_cutoff: int = 5             # D = 2 * 6^2 = 72
    ramp_t_max: float = 40.0
    ramp_samples: int = 201
    companion_spectrum: int = 200    # D = 402
    companion_detect: int = 120      # D = 242
    companion_gauge: int = 200
    companion_points: int = 4
    companion_evolve: int = 3        # two modes, D = 2 * 4^2 = 32
    companion_t_max: float = 6.0


FULL = Size()
TOY = Size(grid_nodes=16, multimode_cutoff=10, scan_points=4, scan_cutoff=40,
           ramp_cutoff=2, ramp_t_max=8.0, ramp_samples=41, companion_spectrum=20,
           companion_detect=20, companion_gauge=40, companion_points=2,
           companion_evolve=2)
SIZES = {"full": FULL, "toy": TOY}


@dataclass(frozen=True)
class Step:
    label: str
    command: str
    config: Path
    out: Path
    overrides: tuple = ()

    def argv(self) -> list:
        argv = [self.command, "--config", str(self.config), "--out", str(self.out),
                "--jobs", "1"]
        for item in self.overrides:
            argv += ["--set", item]
        return argv


@dataclass(frozen=True)
class StepResult:
    code: object      # exit code, or the exception that escaped main
    stdout: str
    out: Path


@dataclass(frozen=True)
class Check:
    name: str
    fn: Callable[[dict], Optional[str]]


@dataclass
class Block:
    """Steps run in order, then the checks of their outputs."""

    steps: list = field(default_factory=list)
    checks: list = field(default_factory=list)


@dataclass
class Plan:
    name: str
    shape: dict
    main: Block = field(default_factory=Block)
    companion: Block = field(default_factory=Block)


def _checkpoints(t_max: float, n_times: int) -> list:
    """Sample indices before, inside and after the ramp, and at the end."""
    times = (0.0, 2.0, 3.5, 5.0, 6.0, t_max / 4, t_max / 2, t_max)
    return sorted({int(round(t / t_max * (n_times - 1))) for t in times if t <= t_max})


def _evolve_section(t_max: float, n_times: int) -> dict:
    return {"t_max": t_max, "n_times": n_times, "tol": 1e-8, "initial": "ground",
            "gauge": "coulomb", "state_checkpoints": _checkpoints(t_max, n_times)}


def _eta_range(md: ModeData) -> list:
    eta = np.abs(md.eta())
    return [round(float(eta.min()), 4), round(float(eta.max()), 4)]


def _spectrum_steps(block, config, out, prefix, thetas):
    labels = []
    for theta in thetas:
        label = f"{prefix}spectrum-{theta:g}"
        block.steps.append(Step(label, "spectrum", config, out / label,
                                (f"gauge_theta={theta!r}",)))
        labels.append(label)
    block.checks.append(Check(f"{prefix}spectra-agree", lambda r: oracles.spectra_agree(
        [r[l].out / "eigenvalues.csv" for l in labels])))


def _evolve_steps(block, config, out, prefix, md, cutoffs):
    labels = (f"{prefix}evolve-coulomb", f"{prefix}evolve-multipolar")
    for label, gauge in zip(labels, ("coulomb", "multipolar")):
        block.steps.append(Step(label, "evolve", config, out / label,
                                (f"evolve.gauge={gauge}", f"fock_cutoffs={list(cutoffs)}")))
    x = md.generator(cutoffs)
    block.checks.append(Check(f"{prefix}gauge-map", lambda r: oracles.gauge_map_fidelity(
        r[labels[0]].out / "states.json", r[labels[1]].out / "states.json", x, ramp_mu)))


def _companion(plan, work: Path, seed: int, size: Size, commands):
    """Companion block: the commands the workload lacks, on small scenarios.

    `evolve` runs on the two-mode grid set through the ramp: on one mode at
    D = 14 its time varied by up to 2x between repeats of the same input.
    """
    md = single_mode(seed)
    eta_grid = stratified_eta(seed, size.companion_points, (0.05, 1.0))
    config = write_json(work / "companion.json", scenario(
        md, [size.companion_spectrum], detector=md.detector_doc(),
        gauge_check={"eta_grid": eta_grid}))
    out = work / "out"
    block = plan.companion
    if "spectrum" in commands:
        _spectrum_steps(block, config, out, "companion-", (0.0, 1.0))
    if "detect" in commands:
        block.steps.append(Step("companion-detect", "detect", config,
                                out / "companion-detect",
                                (f"fock_cutoffs={size.companion_detect}",)))
        block.checks.append(Check("companion-rates", lambda r: oracles.rates_agree(
            r["companion-detect"].out / "rates.csv")))
    if "gauge-check" in commands:
        block.steps.append(Step("companion-gauge-check", "gauge-check", config,
                                out / "companion-gauge-check",
                                (f"fock_cutoffs={size.companion_gauge}",)))
        block.checks.append(Check("companion-pass", lambda r: oracles.verdict(
            r["companion-gauge-check"].stdout, "PASS",
            r["companion-gauge-check"].out / "gauge_report.csv", len(eta_grid))))
    if "evolve" in commands:
        grid_modes = polariton_modes(seed, size.grid_nodes)
        cutoffs = [size.companion_evolve] * 2
        config = write_json(work / "companion-evolve.json", scenario(
            grid_modes, cutoffs, time_profile=RAMP,
            evolve=_evolve_section(size.companion_t_max, 31)))
        _evolve_steps(block, config, out, "companion-", grid_modes, cutoffs)


def multimode(work: Path, seed: int, size: Size) -> Plan:
    """modes -> spectrum at three thetas -> detect, on a two-mode grid set."""
    n = size.multimode_cutoff
    md = polariton_modes(seed, size.grid_nodes)
    plan = Plan("multimode", shape={"M": 2, "N": n, "D": 2 * (n + 1) ** 2,
                                    "eta": _eta_range(md), "grid_nodes": size.grid_nodes})
    out = work / "out"
    modes_cfg = write_json(work / "modes.json", modes_scenario(md))
    plan.main.steps.append(Step("modes", "modes", modes_cfg, out / "modes"))
    plan.main.checks.append(Check("modes-chi", lambda r: oracles.chi_matches(
        r["modes"].out / "modeset.json", md.chi)))
    doc = scenario(md, [n, n], detector=md.detector_doc())
    doc["modeset"] = {"file": "out/modes/modeset.json"}
    config = write_json(work / "system.json", doc)
    _spectrum_steps(plan.main, config, out, "", THETAS)
    plan.main.steps.append(Step("detect", "detect", config, out / "detect"))
    plan.main.checks.append(Check("rates", lambda r: oracles.rates_agree(
        r["detect"].out / "rates.csv")))
    _companion(plan, work, seed, size, ("gauge-check", "evolve"))
    return plan


def coupling_scan(work: Path, seed: int, size: Size) -> Plan:
    """gauge-check over a stratified eta grid, correct and naive truncation."""
    md = single_mode(seed)
    eta_grid = stratified_eta(seed, size.scan_points, SCAN_ETA)
    plan = Plan("coupling-scan", shape={"M": 1, "N": size.scan_cutoff,
                                        "D": 2 * (size.scan_cutoff + 1),
                                        "eta": list(SCAN_ETA), "points": len(eta_grid)})
    config = write_json(work / "scan.json", scenario(
        md, [size.scan_cutoff], gauge_check={"eta_grid": eta_grid}))
    out = work / "out"
    plan.main.steps.append(Step("gauge-check-correct", "gauge-check", config,
                                out / "gauge-check-correct"))
    plan.main.steps.append(Step("gauge-check-naive", "gauge-check", config,
                                out / "gauge-check-naive", ("truncation=naive",)))
    plan.main.checks.append(Check("correct-pass", lambda r: oracles.verdict(
        r["gauge-check-correct"].stdout, "PASS",
        r["gauge-check-correct"].out / "gauge_report.csv", len(eta_grid))))
    plan.main.checks.append(Check("naive-fail", lambda r: oracles.verdict(
        r["gauge-check-naive"].stdout, "FAIL")))
    _companion(plan, work, seed, size, ("spectrum", "detect", "evolve"))
    return plan


def ramp_evolve(work: Path, seed: int, size: Size) -> Plan:
    """evolve through a raised-cosine ramp in both gauges, checked through W(t)."""
    n = size.ramp_cutoff
    md = polariton_modes(seed, size.grid_nodes)
    plan = Plan("ramp-evolve", shape={
        "M": 2, "N": n, "D": 2 * (n + 1) ** 2, "eta": _eta_range(md),
        "t_max": size.ramp_t_max, "static_share": static_horizon_share(size.ramp_t_max)})
    config = write_json(work / "ramp.json", scenario(
        md, [n, n], time_profile=RAMP,
        evolve=_evolve_section(size.ramp_t_max, size.ramp_samples)))
    _evolve_steps(plan.main, config, work / "out", "", md, [n, n])
    _companion(plan, work, seed, size, ("spectrum", "detect", "gauge-check"))
    return plan


BUILDERS = {"multimode": multimode, "coupling-scan": coupling_scan, "ramp-evolve": ramp_evolve}


def build_plan(name: str, work: Path, seed: int, size: Size = FULL) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](work, seed, size)
