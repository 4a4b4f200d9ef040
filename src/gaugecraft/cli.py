"""Batch command-line front end.

    gaugecraft <spectrum|gauge-check|detect|evolve|modes>
               --config PATH --out DIR [--jobs N] [--set key=value ...]

Configs and metadata are JSON, tabular results are CSV (UTF-8, LF, header
row).  The config, each --set applied, is checked against the table of
scenario keys in `scenario.py` before any command starts: an unknown key, a
value of the wrong kind or out of range, or a model key the command does not
read (`UNREAD`) set away from its default exits 2 naming its key path.  Commands
read typed, default-filled values from the checked config; they check only
the sections they require and the rules that tie values to one another.
Runs are deterministic given (config, seed); every metadata file carries the
sha256 of the config as given, --set applied.  Exit codes: 0 success, 2
config error, 3 numerical non-convergence, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .detect import (DetectorSpec, Transitions, canonical_pairing_residual, dense_route,
                     rate_table, significant_transitions)
from .dynamics import evolve, ground_state, top_fock_population
from .errors import ConfigError, ConvergenceError, GaugecraftError, InvariantViolation
from .gaugecheck import ambiguity_scan, scan_cutoffs, verify_spectral_equivalence
from .hamiltonians import (GaugeParam, QuadratureFamily, build_beyond_dipole, build_dipole,
                           build_gauge_pair, build_naive, build_time_dependent, standard_space)
from .modes import (build_from_grid, chi_from_qnm, completeness_residual, qnm_frequency_grid,
                    solve_dielectric_1d)
from .scenario import Scenario, decode_complex_matrix, save_modeset

COMMANDS = ("spectrum", "gauge-check", "detect", "evolve", "modes")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
# peak of a command's Hamiltonians in complex D x D matrices (16 D^2 bytes), for a `sectored`
# family, whose sectors are blocks of the quadrature basis, and for a member formed in the
# Fock basis (a `FockFormed` family's, the hook's or a canonical form), measured by
# `tracemalloc` with LAPACK's arrays outside the trace counted while LAPACK holds them (its
# copy of the input of eigvalsh and solve, and for eigh that copy, ?heevd's two work blocks
# and the eigenvector output).  A sectored family holds one n x n block, K (n = D/2), and
# turns it in place into each sector it solves, so a sectored spectrum holds K and LAPACK's
# copy of one sector: 0.507 (two complex modes, D = 882), as does the gauge-check's naive
# verify pair (`build_gauge_pair`, then `verify_spectral_equivalence`), which solves its
# four sectors one at a time.  detect peaks where it falls back to solving both sectors by
# eigh (`solve_ground_apart` failing its checks): K, the first sector's eigenvectors, and
# eigh's eigenvectors, copy and work arrays for the second, 1.508; its Lanczos route
# measured 0.510.  The Fock-basis estimates, 10 and 14, hold LAPACK's untraced copies of a
# D x D sector (1 for eigvalsh, 3 more for eigh) on top of the traced peak of an
# `EigenbasisFamily` (two modes, L = 3, D = 507): 6.5 for spectrum, 7.8 for detect, whose
# pairing check forms the multipolar H while the Coulomb eigenvectors are held, and 8.5 for
# a naive verify pair.  Every correct pair is one recipe, one solve owner, so its verify
# pair solves nothing and holds its family's blocks and its theta = 0 member alone (6.5
# there; a sectored pair's K alone, 0.346 with the terms and basis vectors it forms K
# from).  evolve, in both gauges from either start, measured 1.79 on a sectored family (K,
# one sector's kept eigenvectors, and the other sector's block of n = D/2 with eigh's copy,
# work arrays and eigenvectors; two complex modes, D = 882) and 8.57 (real couplings) or
# 9.07 (complex ones) on an `EigenbasisFamily` (X, its eigenbasis, K, M, H(t) and its kept
# eigh at D; two modes, D = 507), counting LAPACK's untraced copies as detect's do.
COMMAND_MATRICES = {"spectrum": (0.51, 10.0), "gauge-check": (0.51, 10.0), "detect": (1.51, 14.0),
                    "evolve": (1.8, 9.1)}
# the states evolve records, in complex arrays of n_times x D, for a sectored family and an
# `EigenbasisFamily`, where `Trajectory` checks their norms: their Fock-basis states, the
# conjugate and product the norm takes, the last piece's block of coordinates and the
# populations, measured as the slope of the traced peak from n_times = 2000 to 20000 (2.27
# and 2.35, the two-mode emitters at (5, 5))
EVOLVE_STATES = (2.3, 2.4)
# the model keys each command builds without: refused unless at their defaults
UNREAD = {"gauge-check": ("gauge_theta", "longitudinal", "beyond_dipole"),
          "detect": ("gauge_theta", "longitudinal", "beyond_dipole", "truncation"),
          "evolve": ("gauge_theta", "longitudinal", "beyond_dipole", "truncation")}


@dataclass(frozen=True)
class RunConfig:
    command: str
    out_dir: Path
    jobs: int
    scenario: Scenario
    config_hash: str


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_metadata(cfg: RunConfig, extra: dict):
    meta = {
        "tool": "gaugecraft",
        "version": __version__,
        "command": cfg.command,
        "config_hash": cfg.config_hash,
        "seed": cfg.scenario.values["seed"],
        "jobs": cfg.jobs,
    }
    meta.update(extra)
    (cfg.out_dir / "metadata.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2, default=str) + "\n",
        encoding="utf-8", newline="\n")


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(prog="gaugecraft", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker count, at least 1; accepted for compatibility, "
                             "no command parallelizes today")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    scenario = Scenario.load(args.config, args.overrides)
    scenario.refuse(args.command, UNREAD.get(args.command, ()))
    digest = hashlib.sha256(
        json.dumps(scenario.doc, sort_keys=True).encode("utf-8")).hexdigest()
    args.out.mkdir(parents=True, exist_ok=True)
    return RunConfig(args.command, args.out, args.jobs, scenario, digest)


def _build_system(cfg: RunConfig):
    sc = cfg.scenario
    ms, em, g = sc.modeset(), sc.section("emitter"), GaugeParam(sc.values["gauge_theta"])
    cutoffs = sc.cutoffs(ms.n_modes)
    bd = sc.values["beyond_dipole"]
    if bd and (not em.is_tls or em.single_particle is None):
        raise ConfigError("'beyond_dipole' needs a two-level 'emitter' with 'q' and 'r_dip'")
    naive = not bd and sc.values["truncation"] == "naive"
    if naive and g.theta not in (0.0, 1.0):
        raise ConfigError(f"'truncation' naive is defined at 'gauge_theta' 0 and 1 only, "
                          f"got {g.theta:g}")
    lc = sc.values["longitudinal"]
    lc = None if bd or naive or lc == "off" else lc
    family = QuadratureFamily.of(ms, em, cutoffs)
    # every member but a theta = 1 canonical form and the hook's comes from the family of the
    # couplings (for the beyond-dipole Coulomb form, of its sigma_x couplings, sectored alike)
    sectored = lc is None and (g.theta == 0.0 or not (bd or naive)) and family.sectored
    dim = standard_space(cutoffs, em.n_levels).dim * (1 if lc is None else lc.cutoff + 1)
    _refuse_oversized("the spectrum", cutoffs, dim, command_bytes("spectrum", dim, sectored))
    if bd:
        fns = _beyond_dipole_profiles(bd["profile"], ms.n_modes)
        gauge_label = "coulomb" if g.theta == 0.0 else "multipolar"
        return ms, em, build_beyond_dipole(ms.chi, fns, em, gauge_label, cutoffs,
                                           quad_nodes=bd["quadrature_order"])
    if naive:
        return ms, em, build_naive(ms, em, g, cutoffs, order=sc.values["naive_order"],
                                   family=family)
    return ms, em, build_dipole(ms, em, g, cutoffs, longitudinal=lc, family=family)


def command_bytes(command: str, dim: int, sectored: bool, n_times: int = 0) -> float:
    """Peak bytes of the Hamiltonians of `spectrum`, the gauge-check's verify pair, `detect`
    or `evolve` at Hilbert dimension dim: COMMAND_MATRICES complex D x D matrices, of a
    `sectored` family or of a member formed in the Fock basis (for `evolve`, of an
    `EigenbasisFamily`), and for `evolve` EVOLVE_STATES complex arrays of its n_times x D
    recorded states."""
    column = 0 if sectored else 1
    return 16 * dim * (COMMAND_MATRICES[command][column] * dim
                       + EVOLVE_STATES[column] * n_times)


def _refuse_oversized(what: str, cutoffs, dim: int, need: float):
    """`ConfigError` when `need` bytes exceed half of physical memory, before anything of
    that size is allocated, naming the cutoffs, D and the estimate."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2
    if need > budget:
        raise ConfigError(f"{what} at fock_cutoffs {list(cutoffs)} (D = {dim}) needs about "
                          f"{need / 1e9:.1f} GB, more than half of physical memory "
                          f"({budget / 1e9:.1f} GB)")


def _beyond_dipole_profiles(descriptors, n_modes):
    """One profile function per mode; a single descriptor stands for every mode's."""
    if isinstance(descriptors, dict):
        descriptors = [descriptors] * n_modes
    if len(descriptors) != n_modes:
        raise ConfigError(f"'beyond_dipole.profile' needs {n_modes} descriptors")
    fns = []
    for k, desc in enumerate(descriptors):
        path = f"beyond_dipole.profile[{k}]"
        if desc["kind"] == "constant":
            value = decode_complex_matrix(desc["value"], f"{path}.value", (3,))
            fns.append(lambda x, v=value: v)
        else:
            amp = decode_complex_matrix(desc["amplitude"], f"{path}.amplitude", (3,))
            fns.append(lambda x, a=amp, kv=np.array(desc["k"]):
                       a * np.cos(kv @ np.asarray(x, dtype=float)))
    return fns


def cmd_spectrum(cfg: RunConfig) -> int:
    ms, em, bundle = _build_system(cfg)
    vals = bundle.eigenvalues()
    write_csv(cfg.out_dir / "eigenvalues.csv", ("index", "energy"),
              [(k, float(v)) for k, v in enumerate(vals)])
    write_metadata(cfg, {
        "builder": bundle.metadata.get("builder"),
        "truncation": bundle.metadata.get("truncation"),
        "cutoffs": list(bundle.metadata.get("cutoffs", ())),
        "gauge_theta": bundle.gauge.theta,
        "couplings": [[v.real, v.imag] for v in (bundle.metadata.get("eta") or [])],
        "dimension": bundle.space.dim,
        "basis": bundle.basis,
        "diagnostics": bundle.diagnostics,
    })
    return 0


def cmd_gauge_check(cfg: RunConfig) -> int:
    sc = cfg.scenario
    ms, em = sc.modeset(), sc.section("emitter")
    section = sc.section("gauge_check")
    chi = float(ms.chi_diag[0])
    spectral_tol, ground_tol = section["spectral_tol"] * chi, section["ground_tol"] * chi
    cutoffs = sc.cutoffs(ms.n_modes)
    dim = standard_space(cutoffs, em.n_levels).dim
    if section["k"] > dim:
        raise ConfigError(f"'gauge_check.k' = {section['k']} is outside [1, {dim}], the "
                          f"dimension at fock_cutoffs {list(cutoffs)}")
    # the scan's route as well: scaling the couplings keeps a family sectored or not
    family = QuadratureFamily.of(ms, em, cutoffs)
    _refuse_oversized("the verify pair", cutoffs, dim,
                      command_bytes("gauge-check", dim, family.sectored))
    order, truncation = sc.values["naive_order"], sc.values["truncation"]
    rows, canonical = ambiguity_scan(ms, em, section["eta_grid"], tol=ground_tol, order=order)
    write_csv(cfg.out_dir / "gauge_report.csv",
              ("eta", "naive_gap", "correct_gap", "cutoff", "converged"),
              [(r.eta, r.naive_gap, r.correct_gap, r.cutoff, r.converged) for r in rows])

    h_a, h_b = build_gauge_pair(ms, em, cutoffs, order if truncation == "naive" else None,
                                family=family)
    rep = verify_spectral_equivalence(h_a, h_b, k=section["k"], tol=spectral_tol)
    # every correct_gap is 0, one recipe at either gauge: what certifies the correct ladder
    # is the canonical form, where the couplings factor
    passed = rep.max_abs_diff < spectral_tol and (canonical is None or canonical < spectral_tol)
    verdict = "PASS" if passed else "FAIL"
    summary = (f"{verdict}: max eigenvalue diff {rep.max_abs_diff:.3e}, canonical residual "
               f"{'n/a' if canonical is None else f'{canonical:.3e}'}, "
               f"tolerance {spectral_tol:.3e}")
    print(summary)
    (cfg.out_dir / "gauge_summary.txt").write_text(summary + "\n",
                                                   encoding="utf-8", newline="\n")
    write_metadata(cfg, {
        "verdict": verdict,
        "max_abs_diff": rep.max_abs_diff,
        "canonical_residual": canonical,
        "spectral_tol": spectral_tol,
        "truncation": truncation,
        "cutoffs": list(cutoffs),
        "dimension": dim,
        "basis": h_a.basis,
        "diagnostics": {"coulomb": h_a.diagnostics, "multipolar": h_b.diagnostics},
        "ladder": {"start_cutoff": scan_cutoffs(ms.n_modes, em.n_levels)[0],
                   "route": "stacked sectors" if family.sectored else "per-member builds",
                   "ladders": ["correct", "naive"]},
    })
    return 0


def cmd_detect(cfg: RunConfig) -> int:
    sc = cfg.scenario
    ms, em = sc.modeset(), sc.section("emitter")
    cutoffs = sc.cutoffs(ms.n_modes)
    section = sc.section("detector")
    r_d = section["position_label"]
    if r_d not in ms.profiles:
        raise ConfigError(f"'detector.position_label' {r_d!r} has no stored profiles")
    det = DetectorSpec(section["omega_d"], section["dipole"], r_d)
    dim = standard_space(cutoffs, em.n_levels).dim
    transitions = section["transitions"]
    if transitions is not None and any(not 0 <= i < dim for pair in transitions for i in pair):
        raise ConfigError(f"'detector.transitions' indices must lie in [0, D), D = {dim}")
    if transitions == []:
        raise ConfigError("'detector.transitions' is empty: name at least one transition")
    family = QuadratureFamily.of(ms, em, cutoffs)
    _refuse_oversized("the detect pair", cutoffs, dim,
                      command_bytes("detect", dim, family.sectored))
    bundle_c, bundle_mp = build_gauge_pair(ms, em, cutoffs, family=family)
    if transitions is None:
        transitions = significant_transitions(bundle_c, ms, det, section["count"], em=em)
        if not transitions:
            raise ConfigError(f"no transition out of |0> has a nonzero rate: 'detector.dipole' "
                              f"{det.d_d.tolist()} does not couple to the field at {r_d!r}")
    rows, states = rate_table(bundle_c, bundle_mp, ms, em, det, transitions, family.basis)
    write_csv(cfg.out_dir / "rates.csv",
              ("i", "j", "omega_ij", "R_coulomb", "R_multipolar", "rel_diff"),
              [(r.i, r.j, r.omega_ij, r.rate_coulomb, r.rate_multipolar, r.rel_diff)
               for r in rows])
    top = top_fock_population(bundle_c.space, states.T)  # over the states the rate table placed
    canonical = canonical_pairing_residual(bundle_c, bundle_mp, ms, em, transitions, states,
                                           family.basis)
    write_metadata(cfg, {"cutoffs": list(cutoffs), "transitions": [list(t) for t in transitions],
                         "basis": bundle_c.basis,
                         "diagnostics": {"coulomb": bundle_c.diagnostics,
                                         "multipolar": bundle_mp.diagnostics,
                                         "top_fock_population": top,
                                         "transitions_route": (
                                             transitions.route
                                             if isinstance(transitions, Transitions)
                                             else dense_route()),
                                         "canonical_pairing_residual": canonical}})
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    sc = cfg.scenario
    ms, em = sc.modeset(), sc.section("emitter")
    cutoffs = sc.cutoffs(ms.n_modes)
    section = sc.section("evolve")
    t_max, n_times, gauge_label = section["t_max"], section["n_times"], section["gauge"]
    checkpoints = section["state_checkpoints"]
    for k, idx in enumerate(checkpoints):
        if not 0 <= idx < n_times:
            raise ConfigError(f"'evolve.state_checkpoints[{k}]' = {idx} is outside "
                              f"[0, {n_times}) (evolve.n_times)")
    profile = sc.values["time_profile"]
    tdh = build_time_dependent(ms, em, gauge_label, profile, cutoffs)  # nothing D x D yet
    dim = tdh.space.dim
    _refuse_oversized(f"the evolution of {n_times} recorded states (evolve.n_times)", cutoffs,
                      dim, command_bytes("evolve", dim, tdh.family.sectored, n_times))
    t_grid = np.linspace(0.0, t_max, n_times)
    if section["initial"] == "ground":
        psi0 = ground_state(tdh, 0.0)
    else:
        psi0 = np.zeros(tdh.space.dim, dtype=complex)
        psi0[0] = 1.0  # |0...0> (x) first matter level
    traj = evolve(tdh, psi0, t_grid, tol=section["tol"])
    labels = sorted(traj.observables)
    write_csv(cfg.out_dir / "trajectory.csv", ["time"] + labels,
              [[float(t)] + [float(traj.observables[l][k]) for l in labels]
               for k, t in enumerate(traj.times)])
    if checkpoints:
        dump = [{"time": float(traj.times[idx]),
                 "state": [[float(c.real), float(c.imag)] for c in traj.states[idx]]}
                for idx in checkpoints]
        (cfg.out_dir / "states.json").write_text(
            json.dumps(dump, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    stats = dict(traj.stats)
    write_metadata(cfg, {"cutoffs": list(cutoffs), "gauge": gauge_label,
                         "t_max": t_max, "n_times": n_times,
                         "profile_kind": profile.kind,
                         "diagnostics": {"norm_error": stats.pop("norm_error"),
                                         "parity_sectors": stats.pop("parity_sectors"),
                                         "evolved_dim": stats.pop("evolved_dim"),
                                         "top_fock_population": top_fock_population(
                                             tdh.space, traj.states)},
                         "counters": stats})
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    sc = cfg.scenario
    section = sc.section("modes")
    meta = {}
    if section["grid"] is not None:
        grid = section["grid"]
        profile_points = {label: decode_complex_matrix(pairs, f"modes.profile_points.{label}",
                                                       (grid.n_modes, 3))
                          for label, pairs in section["profile_points"].items()}
        ms = build_from_grid(grid, profile_points)
        save_modeset(ms, cfg.out_dir / "modeset.json")
        meta["completeness_residual"] = completeness_residual(ms, grid)
        meta["n_modes"] = ms.n_modes
    elif section["qnm"] is not None:
        qnm = section["qnm"]
        result = chi_from_qnm(qnm, qnm_frequency_grid(qnm, **section["frequency_grid"]))
        save_modeset(result.modeset, cfg.out_dir / "modeset.json")
        write_csv(cfg.out_dir / "qnm_deviation.csv",
                  ("mode", "omega", "chi_diag", "rel_deviation"),
                  [(mu, float(qnm.omega[mu]), float(result.modeset.chi_diag[mu]),
                    float(result.relative_deviation[mu]))
                   for mu in range(qnm.n_modes)])
        meta["max_rel_deviation"] = float(result.relative_deviation.max())
        meta["n_modes"] = qnm.n_modes
    elif section["dielectric"] is not None:
        diel, n_modes = section["dielectric"], section["n_modes"]
        if n_modes > diel.n_points - 2:
            raise ConfigError(f"'modes.n_modes' = {n_modes} exceeds the {diel.n_points - 2} "
                              f"interior points of 'modes.dielectric.epsilon'")
        nm = solve_dielectric_1d(diel, n_modes)
        write_csv(cfg.out_dir / "modes1d.csv", ("mode", "omega"),
                  [(mu, float(nm.omega[mu])) for mu in range(nm.n_modes)])
        gram = nm.dx * np.einsum("k,mk,nk->mn", nm.eps, nm.profiles, nm.profiles)
        meta["orthonormality_residual"] = float(np.abs(gram - np.eye(nm.n_modes)).max())
        meta["n_modes"] = nm.n_modes
    else:
        raise ConfigError("'modes' section needs one of: grid, qnm, dielectric")
    write_metadata(cfg, meta)
    return 0


DISPATCH = {
    "spectrum": cmd_spectrum,
    "gauge-check": cmd_gauge_check,
    "detect": cmd_detect,
    "evolve": cmd_evolve,
    "modes": cmd_modes,
}


def _keep_freed_memory():
    """Have glibc's malloc serve blocks below 32 MB from its heap and keep up to 64 MB
    freed there, so that a build reuses the pages of the last one's D x D temporaries.
    By default both thresholds follow the largest block freed so far: a spectrum at
    D = 402 page-faulted about 3800 times per run until a block above 6 MB had been
    freed in the process.  Without mallopt (not glibc) this does nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 32 << 20)
        mallopt(M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        cfg = parse_args(argv if argv is not None else sys.argv[1:])
        return DISPATCH[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolation, GaugecraftError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
