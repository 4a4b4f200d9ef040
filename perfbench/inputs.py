"""Seeded scenario documents for the benchmark workloads.

Everything the program reads is generated here from the workload seed; the
program sees only the written JSON files.  The generator uses numpy alone,
never gaugecraft, so the outputs it feeds the program are independent of the
code under test, and the same physical quantities (chi, the couplings, the
ramp mu(t)) are available to the output checks in `oracles.py`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Strengths are fixed per workload and the seed draws the geometry (grid
# nodes, weights, projections, profile directions, detector).  The work of
# the adaptive integrator and of the cutoff ladder depends on |eta|, chi and
# omega0, so fixing them keeps a workload's work nearly the same for every
# seed while the inputs still differ.
GRID_BAND = (0.6, 1.4)
CHI_TOP = 1.2             # largest eigenvalue of the grid's chi
MULTIMODE_ETA = (0.3, 0.45)
SINGLE_MODE_ETA = 0.6
OMEGA0 = 1.0
SCAN_ETA = (0.05, 2.5)
RAMP = {"kind": "raised_cosine", "start": 0.0, "stop": 1.0, "t0": 1.0, "duration": 5.0}


def pairs(m) -> list:
    """Row-major [re, im] pairs, the scenario encoding of complex arrays."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(m, dtype=complex).reshape(-1)]


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class ModeData:
    """A generated mode family with its emitter and detector."""

    chi: np.ndarray            # (M, M) Hermitian
    profiles: dict             # label -> (M, 3) real profile vectors
    omega0: float
    dipole: np.ndarray         # real 3-vector; the emitter dipole is dipole (x) sigma_x
    detector_dipole: np.ndarray
    grid: Optional[dict] = None  # polariton grid document when built from one

    def eta(self) -> np.ndarray:
        """eta_mu = d . f*_mu(emitter) / sqrt(2 chi_mumu)."""
        f = self.profiles["emitter"]
        return (f.conj() @ self.dipole) / np.sqrt(2 * np.diag(self.chi).real)

    def generator(self, cutoffs) -> np.ndarray:
        """X = sum_mu a_mu^dag (x) eta_mu + H.c., photons first, matter last."""
        dims = [n + 1 for n in cutoffs]
        x = np.zeros((int(np.prod(dims)) * 2,) * 2, dtype=complex)
        for mu, eta in enumerate(self.eta()):
            a = np.diag(np.sqrt(np.arange(1, dims[mu])), 1).astype(complex)
            op = np.eye(1)
            for nu, d in enumerate(dims):
                op = np.kron(op, a.conj().T if nu == mu else np.eye(d))
            term = np.kron(op, eta * PAULI_X)
            x += term + term.conj().T
        return x

    def modeset_doc(self) -> dict:
        return {"chi": pairs(self.chi),
                "profiles": {k: pairs(v) for k, v in self.profiles.items()}}

    def emitter_doc(self) -> dict:
        doc = {"levels": [self.omega0 / 2, -self.omega0 / 2], "position_label": "emitter"}
        for c, key in enumerate(("dipole_x", "dipole_y", "dipole_z")):
            doc[key] = pairs(self.dipole[c] * PAULI_X)
        return doc

    def detector_doc(self) -> dict:
        """Detector at the 'detector' point; `detect` rates its first 3 transitions."""
        return {"dipole": [float(v) for v in self.detector_dipole],
                "position_label": "detector", "omega_d": 1.0, "count": 3}


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _complex(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _emitter_profiles(rng, chi_diag, dipole, eta_abs) -> np.ndarray:
    """Real emitter-point profiles in random directions, scaled to |eta_mu| = eta_abs.

    Profiles are real (as for standing-wave modes) so that the truncated
    vector potential at a point commutes with the coupling generator, which
    the cross-gauge rate equality relies on.
    """
    f = rng.normal(size=(chi_diag.shape[0], 3))
    eta = (f @ dipole) / np.sqrt(2 * chi_diag)
    return f * (np.asarray(eta_abs) / np.abs(eta))[:, None]


def polariton_modes(seed: int, n_nodes: int) -> ModeData:
    """Two modes of a seeded K-node polariton grid with off-diagonal chi.

    Projections are made weighted-orthonormal by a QR factorization of the
    sqrt(w)-scaled rows, so sum_k w_k L_m(k) L*_n(k) = delta_mn; the node
    frequencies are then scaled so that chi's largest eigenvalue is CHI_TOP.
    """
    rng = np.random.default_rng([seed, 1])
    omega = np.sort(rng.uniform(*GRID_BAND, size=n_nodes))
    weight = rng.uniform(0.5, 1.5, size=n_nodes) / n_nodes
    q, _ = np.linalg.qr(_complex(rng, (n_nodes, len(MULTIMODE_ETA))))
    proj = (q / np.sqrt(weight)[:, None]).T
    chi = np.einsum("k,mk,nk->mn", weight * omega, proj, proj.conj())
    scale = CHI_TOP / np.linalg.eigvalsh(chi).max()
    omega, chi = omega * scale, (chi + chi.conj().T) / 2 * scale
    dipole = _unit(rng)
    profiles = {"emitter": _emitter_profiles(rng, np.diag(chi).real, dipole, MULTIMODE_ETA),
                "detector": rng.normal(size=(len(MULTIMODE_ETA), 3))}
    grid = {"omega": omega.tolist(), "weight": weight.tolist(),
            "projections": [pairs(row) for row in proj]}
    return ModeData(chi, profiles, OMEGA0, dipole, _unit(rng), grid)


def single_mode(seed: int) -> ModeData:
    """One mode (chi = 1) with the emitter dipole along x and a random detector."""
    rng = np.random.default_rng([seed, 2])
    chi = np.array([[1.0]], dtype=complex)
    dipole = np.array([1.0, 0.0, 0.0])
    profiles = {"emitter": _emitter_profiles(rng, np.ones(1), dipole, [SINGLE_MODE_ETA]),
                "detector": rng.normal(size=(1, 3))}
    return ModeData(chi, profiles, OMEGA0, dipole, _unit(rng))


def stratified_eta(seed: int, n: int, interval) -> list:
    """One coupling drawn uniformly in each of n equal-width bins of `interval`."""
    rng = np.random.default_rng([seed, 3])
    edges = np.linspace(*interval, n + 1)
    return (edges[:-1] + rng.uniform(size=n) * np.diff(edges)).tolist()


def ramp_mu(t: float) -> float:
    """mu(t) of the generated raised-cosine ramp."""
    s = min(max((t - RAMP["t0"]) / RAMP["duration"], 0.0), 1.0)
    return RAMP["start"] + (RAMP["stop"] - RAMP["start"]) * 0.5 * (1 - np.cos(np.pi * s))


def static_horizon_share(t_max: float) -> float:
    """Share of [0, t_max] on which the ramp is flat (mu'(t) = 0)."""
    return 1.0 - min(RAMP["duration"], max(t_max - RAMP["t0"], 0.0)) / t_max


def scenario(modes: ModeData, cutoffs, **sections) -> dict:
    """Scenario document with the mode set inline (unless `modeset` is given)."""
    doc = {"seed": 0, "modeset": modes.modeset_doc(), "emitter": modes.emitter_doc(),
           "fock_cutoffs": list(cutoffs)}
    doc.update(sections)
    return doc


def modes_scenario(modes: ModeData) -> dict:
    """`modes` command input: the polariton grid and the profile points."""
    return {"seed": 0, "modes": {
        "grid": modes.grid,
        "profile_points": {k: pairs(v) for k, v in modes.profiles.items()}}}
