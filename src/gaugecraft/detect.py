"""Correctly-truncated field operators and gauge-consistent photodetection rates.

Mode truncation is performed on the vector potential; the electric-field
operator that survives truncation is therefore expanded over the derived
profiles f'_mu rather than the raw f_mu.  Golden-rule detection rates built
this way agree between the Coulomb and multipolar gauges; rates built from
the naively-truncated field (f in place of f') do not whenever chi has
off-diagonal structure.  All rates are reported up to one common
density-of-states constant, which cancels in every comparison.

A rate needs a few eigenstates, so the detection operators stay Kronecker
terms and they and the gauge map W are applied to those eigenvectors only
(W through the generator's `Eigenbasis.apply`); nothing here forms a D x D
matrix.  The dense truncated field operators A and E, and the residual of
the Heisenberg identity E = i [A, H_F] between them, live with the tests as
the oracle of this construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantViolation
from .hamiltonians import HamiltonianBundle, couplings
from .hilbert import HilbertSpec, ladder_matrix
from .matter import EmitterSpec
from .modes import ModeSet

FREQUENCY_MATCH_TOL = 1e-6
PAIRING_OVERLAP_MIN = 0.999


@dataclass(frozen=True)
class DetectorSpec:
    """Perturbative detector: transition frequency, dipole vector, profile point."""

    omega_d: float
    d_d: np.ndarray
    r_d: str

    def __post_init__(self):
        if self.omega_d <= 0:
            raise ValueError("detector frequency must be positive")
        object.__setattr__(self, "d_d", np.asarray(self.d_d, dtype=float).reshape(3))


def _mode_sum(space: HilbertSpec, coeffs) -> list[dict]:
    """sum_mu c_mu a_mu + H.c. over the photon factors of `space`, one Kronecker term per mode."""
    scaled = [(fi, c * ladder_matrix(space.factors[fi].fock_cutoff))
              for c, fi in zip(coeffs, space.photon_indices)]
    return [{fi: m + m.conj().T} for fi, m in scaled]


def _frequency_factor(bundle: HamiltonianBundle, omega_d: float) -> float:
    """How the detection operator scales with the detector frequency in the bundle's gauge."""
    return omega_d if bundle.gauge.theta == 0.0 else 1.0


def detection_operator(bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec,
                       em: Optional[EmitterSpec] = None) -> list[dict]:
    """Kronecker terms of the golden-rule matrix element operator in the bundle's gauge.

    Coulomb endpoint: omega_d * d_d . A(r_d).  Multipolar endpoint:
    i sum_{mu nu} chi*_{mu nu} eta_d*_nu a'_mu + H.c. with the displaced
    operators a'_mu = a_mu + i eta_mu.  Either is a sum of Kronecker terms for
    `HilbertSpec.apply`; across transitions it changes only by `_frequency_factor`.
    """
    space = bundle.space
    # eta_d*_mu = f_mu(r_d) . d_d / sqrt(2 chi_mm), also the mode coefficients of d_d . A(r_d)
    eta_d_conj = (ms.profile(det.r_d) @ det.d_d) / np.sqrt(2 * ms.chi_diag)
    if bundle.gauge.theta == 0.0:
        return _mode_sum(space, det.omega_d * eta_d_conj)
    if bundle.gauge.theta != 1.0:
        raise ValueError("detection rates are defined at the gauge endpoints theta = 0, 1")
    # sum_mu c_mu a'_mu + H.c. with c_mu = i sum_nu chi*_{mu nu} eta_d*_nu
    if em is None:
        raise ValueError("multipolar rate needs the system emitter (pass em=...)")
    c = 1j * ms.chi.conj() @ eta_d_conj
    matter = 1j * np.einsum("m,mij->ij", c, couplings(ms, em).eta_matrices)
    return _mode_sum(space, c) + [{space.matter_indices[0]: matter + matter.conj().T}]


def _check_resonance(det: DetectorSpec, vals: np.ndarray, i: int, j: int, match_tol: float):
    omega_ij = float(vals[j] - vals[i])
    if abs(det.omega_d - omega_ij) > match_tol:
        raise ValueError(
            f"detector frequency {det.omega_d:g} does not match transition "
            f"{omega_ij:g} (|i>={i}, |j>={j}); invalid resonance pairing")


def _amplitudes_sq(bundle: HamiltonianBundle, terms: list[dict],
                   pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """|<i| O |j>|^2 between eigenstates of the bundle for every (i, j) in pairs, the
    terms of O applied to the columns j only."""
    vecs = bundle.eigensystem()[1]
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    o_j = bundle.space.apply(terms, vecs[:, j])
    return np.abs(np.einsum("dk,dk->k", vecs[:, i].conj(), o_j)) ** 2


@dataclass(frozen=True)
class RateGap:
    correct: float
    naive: float
    relative_gap: float


def naive_rate_gap(bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec,
                   i: int, j: int, match_tol: float = FREQUENCY_MATCH_TOL) -> RateGap:
    """Correct versus naively-truncated field rates for one transition.

    Both rates are matrix elements of d_d . E(r_d) between the same
    eigenstates; only the profile family differs (f' versus f), so the gap is
    exactly zero for diagonal chi.
    """
    _check_resonance(det, bundle.eigensystem()[0], i, j, match_tol)
    w_mu = 1j * np.sqrt(ms.chi_diag / 2)
    r_c, r_n = (float(_amplitudes_sq(bundle, _mode_sum(bundle.space, w_mu * (f @ det.d_d)),
                                     [(i, j)])[0])
                for f in (ms.derived_profile(det.r_d), ms.profile(det.r_d)))
    rel = abs(r_c - r_n) / r_c if r_c > 0 else (0.0 if r_n == 0 else float("inf"))
    return RateGap(r_c, r_n, rel)


@dataclass(frozen=True)
class RateRow:
    i: int
    j: int
    omega_ij: float
    rate_coulomb: float
    rate_multipolar: float
    rel_diff: float


def rate_table(bundle_c: HamiltonianBundle, bundle_mp: HamiltonianBundle,
               ms: ModeSet, em: EmitterSpec, det: DetectorSpec,
               transitions: Sequence[tuple[int, int]],
               overlap_min: float = PAIRING_OVERLAP_MIN) -> list[RateRow]:
    """Cross-gauge rate comparison over transitions indexed in the Coulomb gauge.

    Multipolar eigenstates are paired through the connecting gauge unitary:
    the partner of |i_C> is the multipolar eigenvector of maximal overlap with
    W |i_C>, required to exceed `overlap_min` (resolves degenerate levels by
    maximal-overlap assignment).
    """
    vals_c, vecs_c = bundle_c.eigensystem()
    vals_mp, vecs_mp = bundle_mp.eigensystem()
    # W |i_C> for every state a transition names, W = exp(-i (theta_mp - theta_C) X)
    states = list(dict.fromkeys(idx for pair in transitions for idx in pair))
    targets = couplings(ms, em).generator(bundle_c.space).apply(
        bundle_c.gauge.theta - bundle_mp.gauge.theta, vecs_c[:, states])
    overlaps = np.abs(targets.conj().T @ vecs_mp)  # |<k_mp| W |i_C>|, one row per state
    pair = {}
    for idx, row in zip(states, overlaps):
        k = int(np.argmax(row))
        if row[k] < overlap_min:
            raise InvariantViolation(
                f"gauge pairing of eigenstate {idx} failed (overlap {row[k]:.4f})")
        pair[idx] = k
    paired = [(pair[i], pair[j]) for i, j in transitions]
    unit = replace(det, omega_d=1.0)
    amp_c = _amplitudes_sq(bundle_c, detection_operator(bundle_c, ms, unit, em), transitions)
    amp_mp = _amplitudes_sq(bundle_mp, detection_operator(bundle_mp, ms, unit, em), paired)
    rows = []
    for (i, j), (k, l), a_c, a_mp in zip(transitions, paired, amp_c, amp_mp):
        omega_ij = float(vals_c[j] - vals_c[i])
        r_c = _frequency_factor(bundle_c, omega_ij) ** 2 * float(a_c)
        r_mp = _frequency_factor(bundle_mp, float(vals_mp[l] - vals_mp[k])) ** 2 * float(a_mp)
        rel = abs(r_c - r_mp) / r_c if r_c > 0 else (0.0 if r_mp == 0 else float("inf"))
        rows.append(RateRow(i, j, omega_ij, r_c, r_mp, rel))
    return rows


def significant_transitions(bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec,
                            count: int, i: int = 0, em: Optional[EmitterSpec] = None,
                            floor: float = 1e-10) -> list[tuple[int, int]]:
    """First `count` transitions out of |i> with a non-negligible rate.

    Parity-forbidden transitions carry rates at numerical zero and are
    skipped (threshold: `floor` relative to the largest rate found), as are
    transitions that are not upward in energy.
    """
    vals, vecs = bundle.eigensystem()
    terms = detection_operator(bundle, ms, replace(det, omega_d=1.0), em)
    stop = min(bundle.space.dim, i + 40)
    # <i| O |j> = (O |i>)^dag |j> for every candidate j, O Hermitian: one apply
    amp_sq = np.abs(bundle.space.apply(terms, vecs[:, i]).conj() @ vecs[:, i + 1:stop]) ** 2
    rates = []
    for j, a_sq in zip(range(i + 1, stop), amp_sq):
        omega = float(vals[j] - vals[i])
        if omega <= 0:
            continue
        rates.append((j, _frequency_factor(bundle, omega) ** 2 * float(a_sq)))
    if not rates:
        return []
    top = max(r for _, r in rates)
    picked = [(i, j) for j, r in rates if r > floor * top]
    return picked[:count]
