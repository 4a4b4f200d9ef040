"""Output checks that any correct algorithm passes.

Each check reads what the program wrote and compares it with an invariant of
the physics (exact unitary equivalence of the theta family, cross-gauge rate
equality, the time-dependent gauge map W(t)) or with a quantity the
benchmark computed itself from the generated inputs.  A check returns None
when the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

SPECTRUM_REL_TOL = 1e-9
RATE_REL_TOL = 1e-8
GAP_TOL = 1e-9
FIDELITY_MIN = 1.0 - 1e-6
CHI_REL_TOL = 1e-10


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _complex_list(doc) -> np.ndarray:
    return np.array([complex(re, im) for re, im in doc])


def spectra_agree(paths: Sequence[Path], rel_tol: float = SPECTRUM_REL_TOL) -> Optional[str]:
    """Every spectrum equals the first to rel_tol * max|E| (unitary equivalence)."""
    spectra = [np.array([float(r["energy"]) for r in read_csv(p)]) for p in paths]
    ref = spectra[0]
    scale = float(np.abs(ref).max())
    for path, vals in zip(paths[1:], spectra[1:]):
        if vals.shape != ref.shape:
            return f"{path}: {vals.size} levels, expected {ref.size}"
        dev = float(np.abs(vals - ref).max())
        if not dev <= rel_tol * scale:
            return f"{path}: max eigenvalue deviation {dev:.3e} > {rel_tol:g} * {scale:.3g}"
    return None


def rates_agree(path: Path, rows: int = 3, tol: float = RATE_REL_TOL) -> Optional[str]:
    """rates.csv has `rows` transitions and equal rates in both gauges."""
    table = read_csv(path)
    if len(table) != rows:
        return f"{path}: {len(table)} transitions, expected {rows}"
    worst = max(float(r["rel_diff"]) for r in table)
    if not worst <= tol:
        return f"{path}: cross-gauge rel_diff {worst:.3e} > {tol:g}"
    return None


def verdict(stdout: str, expected: str, report: Optional[Path] = None,
            points: Optional[int] = None, gap_tol: float = GAP_TOL) -> Optional[str]:
    """gauge-check printed `expected`; for a PASS every correct_gap is <= gap_tol."""
    first = stdout.strip().split(":", 1)[0]
    if first != expected:
        return f"gauge-check printed {stdout.strip()[:60]!r}, expected {expected}"
    if report is not None:
        table = read_csv(report)
        if points is not None and len(table) != points:
            return f"{report}: {len(table)} coupling points, expected {points}"
        worst = max(float(r["correct_gap"]) for r in table)
        if not worst <= gap_tol:
            return f"{report}: correct_gap {worst:.3e} > {gap_tol:g}"
    return None


def gauge_map_fidelity(coulomb: Path, multipolar: Path, generator: np.ndarray,
                       mu: Callable[[float], float],
                       fid_min: float = FIDELITY_MIN) -> Optional[str]:
    """|<psi_mp(t)| W(t) psi_C(t)>| >= fid_min at every checkpoint, W = exp(-i mu X).

    The modulus is compared because the two runs prepare their ground states
    independently, so they may differ by a global phase.
    """
    dump_c = json.loads(coulomb.read_text(encoding="utf-8"))
    dump_mp = json.loads(multipolar.read_text(encoding="utf-8"))
    if not dump_c or len(dump_c) != len(dump_mp):
        return f"{len(dump_c)} Coulomb and {len(dump_mp)} multipolar checkpoints"
    vals, vecs = np.linalg.eigh(generator)
    for rec_c, rec_mp in zip(dump_c, dump_mp):
        t = rec_c["time"]
        if rec_mp["time"] != t:
            return f"checkpoint times differ: {t} vs {rec_mp['time']}"
        psi_c, psi_mp = _complex_list(rec_c["state"]), _complex_list(rec_mp["state"])
        w_psi = vecs @ (np.exp(-1j * mu(t) * vals) * (vecs.conj().T @ psi_c))
        fid = abs(np.vdot(psi_mp, w_psi))
        if not fid >= fid_min:
            return f"gauge-map fidelity {fid:.12f} < {fid_min} at t = {t:g}"
    return None


def chi_matches(modeset: Path, chi: np.ndarray, rel_tol: float = CHI_REL_TOL) -> Optional[str]:
    """The written mode set carries the chi the benchmark computed from the grid."""
    got = _complex_list(json.loads(modeset.read_text(encoding="utf-8"))["chi"])
    if got.size != chi.size:
        return f"{modeset}: chi has {got.size} entries, expected {chi.size}"
    dev = float(np.abs(got.reshape(chi.shape) - chi).max())
    if not dev <= rel_tol * float(np.abs(chi).max()):
        return f"{modeset}: chi deviates by {dev:.3e}"
    return None
