"""Batch command-line front end.

    gaugecraft <spectrum|gauge-check|detect|evolve|modes>
               --config PATH --out DIR [--jobs N] [--set key=value ...]

Configs and metadata are JSON, tabular results are CSV (UTF-8, LF, header
row).  Runs are deterministic given (config, seed); every metadata file
carries the sha256 of the resolved config.  Exit codes: 0 success, 2 config
error, 3 numerical non-convergence, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .detect import DetectorSpec, rate_table, significant_transitions
from .dynamics import NORM_TOL, evolve, factor_populations, ground_state
from .errors import ConfigError, ConvergenceError, GaugecraftError, InvariantViolation
from .gaugecheck import ambiguity_scan, gauge_check_pair, verify_spectral_equivalence
from .hamiltonians import (COULOMB, MULTIPOLAR, build_beyond_dipole, build_dipole,
                           build_naive, build_time_dependent, couplings, standard_space)
from .modes import build_from_grid, chi_from_qnm, completeness_residual, qnm_frequency_grid, solve_dielectric_1d
from .scenario import (Scenario, _decoding, decode_complex_matrix, dielectric_from_json,
                       number, number_list, polariton_grid_from_json, qnm_from_json,
                       save_modeset)

COMMANDS = ("spectrum", "gauge-check", "detect", "evolve", "modes")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


@dataclass(frozen=True)
class RunConfig:
    command: str
    config_path: Path
    out_dir: Path
    jobs: int
    overrides: tuple
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
        "seed": cfg.scenario.seed,
        "jobs": cfg.jobs,
    }
    meta.update(extra)
    (cfg.out_dir / "metadata.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2, default=str) + "\n",
        encoding="utf-8", newline="\n")


def apply_override(doc: dict, key: str, raw: str):
    """Set a dotted key path; values parse as JSON, falling back to string."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = doc
    for p in parts[:-1]:
        if not isinstance(node, dict):
            raise ConfigError(f"override '{key}': '{p}' is not an object")
        node = node.setdefault(p, {})
    if not isinstance(node, dict):
        raise ConfigError(f"override '{key}' does not address an object")
    node[parts[-1]] = value


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
    scenario = Scenario.load(args.config)
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        apply_override(scenario.doc, key, raw)
    digest = hashlib.sha256(
        json.dumps(scenario.doc, sort_keys=True).encode("utf-8")).hexdigest()
    args.out.mkdir(parents=True, exist_ok=True)
    return RunConfig(args.command, args.config, args.out, args.jobs,
                     tuple(args.overrides), scenario, digest)


def _build_system(cfg: RunConfig):
    sc = cfg.scenario
    ms = sc.modeset()
    em = sc.emitter()
    g = sc.gauge()
    cutoffs = sc.cutoffs(ms.n_modes)
    bd = sc.section("beyond_dipole", required=False)
    if bd:
        if not em.is_tls or em.single_particle is None:
            raise ConfigError("'beyond_dipole' needs a two-level 'emitter' with 'q' and 'r_dip'")
        fns = _beyond_dipole_profiles(bd, ms.n_modes)
        gauge_label = "coulomb" if g.theta == 0.0 else "multipolar"
        nodes = number(bd.get("quadrature_order", 65), "beyond_dipole.quadrature_order", int)
        return ms, em, build_beyond_dipole(ms.chi, fns, em, gauge_label, cutoffs,
                                           quad_nodes=nodes)
    if sc.truncation() == "naive":
        if g.theta not in (0.0, 1.0):
            raise ConfigError(f"'truncation' naive is defined at 'gauge_theta' 0 and 1 only, "
                              f"got {g.theta:g}")
        return ms, em, build_naive(ms, em, g, cutoffs, order=sc.naive_order())
    return ms, em, build_dipole(ms, em, g, cutoffs, longitudinal=sc.longitudinal())


def _beyond_dipole_profiles(section, n_modes):
    descriptors = section.get("profile")
    if descriptors is None:
        raise ConfigError("missing key 'beyond_dipole.profile'")
    if isinstance(descriptors, dict):
        descriptors = [descriptors] * n_modes
    fns = []
    with _decoding("beyond_dipole.profile", "profile"):
        if len(descriptors) != n_modes:
            raise ConfigError(f"'beyond_dipole.profile' needs {n_modes} descriptors")
        for k, desc in enumerate(descriptors):
            kind = desc.get("kind")
            path = f"beyond_dipole.profile[{k}]"
            if kind == "constant":
                value = decode_complex_matrix(desc.get("value"), f"{path}.value", (3,))
                fns.append(lambda x, v=value: v)
            elif kind == "cosine":
                amp = decode_complex_matrix(desc.get("amplitude"), f"{path}.amplitude", (3,))
                kvec = np.asarray(desc.get("k"), dtype=float).reshape(3)
                fns.append(lambda x, a=amp, kv=kvec: a * np.cos(kv @ np.asarray(x, dtype=float)))
            else:
                raise ConfigError(f"'{path}.kind' must be 'constant' or 'cosine'")
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


def _scan_coupling(eta: np.ndarray) -> float:
    """|eta_eg| when a matter phase, which commutes with h0, turns the two-level coupling
    eta into a phase times sigma_x: then the scan's sigma_x surrogate is equivalent to it."""
    if max(abs(eta[0, 0]), abs(eta[1, 1]), abs(abs(eta[0, 1]) - abs(eta[1, 0]))) > 1e-12:
        raise ConfigError("'gauge_check.eta_grid' is required: the coupling matrix is not "
                          "sigma_x up to phases")
    return float(abs(eta[0, 1]))


def cmd_gauge_check(cfg: RunConfig) -> int:
    sc = cfg.scenario
    ms, em = sc.modeset(), sc.emitter()
    if em.n_levels != 2:
        raise ConfigError("'emitter' must be a two-level system for gauge-check")
    section = sc.section("gauge_check", required=False)
    chi = float(ms.chi_diag[0])
    if ms.n_modes != 1:
        raise ConfigError("gauge-check runs on single-mode scenarios")
    omega0 = float(em.levels[0] - em.levels[1])
    spectral_tol = number(section.get("spectral_tol", 1e-6), "gauge_check.spectral_tol") * chi
    ground_tol = number(section.get("ground_tol", 1e-7), "gauge_check.ground_tol") * chi
    k = number(section.get("k", 5), "gauge_check.k", int)
    cutoffs = sc.cutoffs(1)
    if not 1 <= k <= 2 * (cutoffs[0] + 1):
        raise ConfigError(f"'gauge_check.k' = {k} is outside [1, {2 * (cutoffs[0] + 1)}], "
                          f"the dimension at fock_cutoffs {cutoffs[0]}")
    eta_grid = section.get("eta_grid")
    if eta_grid is None:
        eta_grid = [_scan_coupling(couplings(ms, em).eta_matrices[0])]
    else:
        eta_grid = number_list(eta_grid, "gauge_check.eta_grid")
    order = sc.naive_order()
    rows = ambiguity_scan(chi, omega0, eta_grid, tol=ground_tol, order=order)
    write_csv(cfg.out_dir / "gauge_report.csv",
              ("eta", "naive_gap", "correct_gap", "cutoff", "converged"),
              [(r.eta, r.naive_gap, r.correct_gap, r.cutoff, r.converged) for r in rows])

    h_a, h_b = gauge_check_pair(ms, em, cutoffs[0],
                                order if sc.truncation() == "naive" else None)
    rep = verify_spectral_equivalence(h_a, h_b, k=k, tol=spectral_tol,
                                      cs=couplings(ms, em))
    worst_correct = max(r.correct_gap for r in rows)
    passed = rep.max_abs_diff < spectral_tol and worst_correct < spectral_tol
    verdict = "PASS" if passed else "FAIL"
    summary = (f"{verdict}: max eigenvalue diff {rep.max_abs_diff:.3e}, "
               f"max correct gap {worst_correct:.3e}, tolerance {spectral_tol:.3e}")
    print(summary)
    (cfg.out_dir / "gauge_summary.txt").write_text(summary + "\n",
                                                   encoding="utf-8", newline="\n")
    write_metadata(cfg, {
        "verdict": verdict,
        "max_abs_diff": rep.max_abs_diff,
        "operator_residual": rep.operator_residual,
        "spectral_tol": spectral_tol,
        "truncation": sc.truncation(),
    })
    return 0


def cmd_detect(cfg: RunConfig) -> int:
    sc = cfg.scenario
    ms, em = sc.modeset(), sc.emitter()
    cutoffs = sc.cutoffs(ms.n_modes)
    section = sc.section("detector")
    d_d = number_list(section.get("dipole", [0.0, 0.0, 0.0]), "detector.dipole")
    if len(d_d) != 3:
        raise ConfigError("'detector.dipole' must be a 3-vector")
    r_d = section.get("position_label", "detector")
    if r_d not in ms.profiles:
        raise ConfigError(f"'detector.position_label' {r_d!r} has no stored profiles")
    omega_d = number(section.get("omega_d", 1.0), "detector.omega_d")
    if not omega_d > 0:
        raise ConfigError(f"'detector.omega_d' must be positive, got {omega_d:g}")
    det = DetectorSpec(omega_d, d_d, r_d)
    transitions = section.get("transitions")
    if transitions is not None:
        if not isinstance(transitions, list):
            raise ConfigError("'detector.transitions' must be a list of [i, j] pairs")
        transitions = [tuple(number_list(pair, f"detector.transitions[{k}]", int))
                       for k, pair in enumerate(transitions)]
        if any(len(pair) != 2 for pair in transitions):
            raise ConfigError("'detector.transitions' must be a list of [i, j] pairs")
        dim = standard_space(cutoffs, em.n_levels).dim
        if any(not 0 <= idx < dim for pair in transitions for idx in pair):
            raise ConfigError(f"'detector.transitions' indices must lie in [0, D), D = {dim}")
    count = number(section.get("count", 3), "detector.count", int)
    if count < 0:
        raise ConfigError(f"'detector.count' must be >= 0, got {count}")
    bundle_c = build_dipole(ms, em, COULOMB, cutoffs)
    bundle_mp = build_dipole(ms, em, MULTIPOLAR, cutoffs)
    if transitions is None:
        transitions = significant_transitions(bundle_c, ms, det, count, em=em)
    rows = rate_table(bundle_c, bundle_mp, ms, em, det, transitions)
    write_csv(cfg.out_dir / "rates.csv",
              ("i", "j", "omega_ij", "R_coulomb", "R_multipolar", "rel_diff"),
              [(r.i, r.j, r.omega_ij, r.rate_coulomb, r.rate_multipolar, r.rel_diff)
               for r in rows])
    write_metadata(cfg, {"cutoffs": list(cutoffs), "transitions": [list(t) for t in transitions],
                         "basis": bundle_c.basis,
                         "diagnostics": {"coulomb": bundle_c.diagnostics,
                                         "multipolar": bundle_mp.diagnostics}})
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    sc = cfg.scenario
    ms, em = sc.modeset(), sc.emitter()
    cutoffs = sc.cutoffs(ms.n_modes)
    section = sc.section("evolve")
    t_max = number(section.get("t_max", 10.0), "evolve.t_max")
    if not t_max > 0:
        raise ConfigError(f"'evolve.t_max' must be positive, got {t_max:g}")
    n_times = number(section.get("n_times", 101), "evolve.n_times", int)
    if n_times < 2:
        raise ConfigError(f"'evolve.n_times' must be at least 2, got {n_times}")
    checkpoints = number_list(section.get("state_checkpoints", []), "evolve.state_checkpoints", int)
    for k, idx in enumerate(checkpoints):
        if not 0 <= idx < n_times:
            raise ConfigError(f"'evolve.state_checkpoints[{k}]' = {idx} is outside "
                              f"[0, {n_times}) (evolve.n_times)")
    tol = number(section.get("tol", NORM_TOL), "evolve.tol")
    if not 0 < tol <= NORM_TOL:  # a looser tol passes evolve, then fails the trajectory's check
        raise ConfigError(f"'evolve.tol' must be in (0, {NORM_TOL:g}], got {tol:g}")
    gauge_label = section.get("gauge", "coulomb")
    if gauge_label not in ("coulomb", "multipolar"):
        raise ConfigError("'evolve.gauge' must be 'coulomb' or 'multipolar'")
    profile = sc.time_profile()
    tdh = build_time_dependent(ms, em, gauge_label, profile, cutoffs)
    t_grid = np.linspace(0.0, t_max, n_times)
    initial = section.get("initial", "ground")
    if initial == "ground":
        psi0 = ground_state(tdh, 0.0)
    elif initial == "vacuum":
        psi0 = np.zeros(tdh.space.dim, dtype=complex)
        psi0[0] = 1.0  # |0...0> (x) first matter level
    else:
        raise ConfigError("'evolve.initial' must be 'ground' or 'vacuum'")
    traj = evolve(tdh, psi0, t_grid, tol=tol)
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
    # per mode, the largest population of its top Fock level over the recorded states
    pops = factor_populations(tdh.space, traj.states)
    top = [float(pops[fi][:, -1].max()) for fi in tdh.space.photon_indices]
    write_metadata(cfg, {"cutoffs": list(cutoffs), "gauge": gauge_label,
                         "t_max": t_max, "n_times": n_times,
                         "profile_kind": profile.kind,
                         "diagnostics": {"norm_error": stats.pop("norm_error"),
                                         "top_fock_population": top},
                         "counters": stats})
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    sc = cfg.scenario
    section = sc.section("modes")
    meta = {}
    if "grid" in section:
        grid = polariton_grid_from_json(section["grid"], "modes.grid")
        with _decoding("modes.profile_points", "map of profile points"):
            profile_points = {label: decode_complex_matrix(pairs, f"modes.profile_points.{label}",
                                                           (grid.n_modes, 3))
                              for label, pairs in section.get("profile_points", {}).items()}
        ms = build_from_grid(grid, profile_points)
        save_modeset(ms, cfg.out_dir / "modeset.json")
        meta["completeness_residual"] = completeness_residual(ms, grid)
        meta["n_modes"] = ms.n_modes
    elif "qnm" in section:
        qnm = qnm_from_json(section["qnm"], "modes.qnm")
        grid_opts = section.get("frequency_grid", {})
        path = "modes.frequency_grid"
        freq_grid = qnm_frequency_grid(
            qnm,
            span_factor=number(grid_opts.get("span_factor", 3.0), f"{path}.span_factor"),
            points_per_gamma=number(grid_opts.get("points_per_gamma", 40.0),
                                    f"{path}.points_per_gamma"),
            pole_halfwidth=number(grid_opts.get("pole_halfwidth", 50.0), f"{path}.pole_halfwidth"),
            n_background=number(grid_opts.get("n_background", 4001), f"{path}.n_background", int))
        result = chi_from_qnm(qnm, freq_grid)
        save_modeset(result.modeset, cfg.out_dir / "modeset.json")
        write_csv(cfg.out_dir / "qnm_deviation.csv",
                  ("mode", "omega", "chi_diag", "rel_deviation"),
                  [(mu, float(qnm.omega[mu]), float(result.modeset.chi_diag[mu]),
                    float(result.relative_deviation[mu]))
                   for mu in range(qnm.n_modes)])
        meta["max_rel_deviation"] = float(result.relative_deviation.max())
        meta["n_modes"] = qnm.n_modes
    elif "dielectric" in section:
        diel = dielectric_from_json(section["dielectric"], "modes.dielectric")
        n_modes = number(section.get("n_modes", 5), "modes.n_modes", int)
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
