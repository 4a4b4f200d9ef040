"""Correctly-truncated field operators and gauge-consistent photodetection rates.

Mode truncation is performed on the vector potential; the electric-field
operator that survives truncation is therefore expanded over the derived
profiles f'_mu rather than the raw f_mu.  Golden-rule detection rates built
this way agree between the Coulomb and multipolar gauges; rates built from
the naively-truncated field (f in place of f') do not whenever chi has
off-diagonal structure.  All rates are reported up to one common
density-of-states constant, which cancels in every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantViolation
from .gaugecheck import gauge_unitary
from .hamiltonians import HamiltonianBundle, couplings, field_hamiltonian
from .hilbert import HilbertSpec, Operator, fock_mask, ladder_matrix, max_abs, photon
from .matter import EmitterSpec
from .modes import ModeSet

FREQUENCY_MATCH_TOL = 1e-6
PAIRING_OVERLAP_MIN = 0.999
COMMUTATOR_TOL = 1e-12


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


def photon_space(ms: ModeSet, cutoffs) -> HilbertSpec:
    if np.isscalar(cutoffs):
        cutoffs = (int(cutoffs),) * ms.n_modes
    return HilbertSpec([photon(int(n)) for n in cutoffs])


def _mode_sum(space: HilbertSpec, coeffs) -> np.ndarray:
    """sum_mu c_mu a_mu over the photon factors of `space`, as Kronecker products."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for c, fi in zip(coeffs, space.photon_indices):
        out += space.kron({fi: c * ladder_matrix(space.factors[fi].fock_cutoff)})
    return out


def vector_potential_operator(ms: ModeSet, point: str, cutoffs) -> list[Operator]:
    """Components of the truncated vector potential at a stored point.

    A_c(x) = sum_mu f_mu,c(x) a_mu / sqrt(2 chi_mm) + H.c. on the bosonic
    factors only.
    """
    space = photon_space(ms, cutoffs)
    f = ms.profile(point)
    c_mu = 1.0 / np.sqrt(2 * ms.chi_diag)
    out = []
    for c in range(3):
        m = _mode_sum(space, c_mu * f[:, c])
        out.append(Operator(m + m.conj().T, space, hermitian=True))
    return out


def truncated_E_operator(ms: ModeSet, point: str, cutoffs,
                         naive: bool = False) -> list[Operator]:
    """Components of the mode-truncated transverse electric field at a point.

    E_c(x) = i sum_mu sqrt(chi_mm / 2) f'_mu,c(x) a_mu + H.c.  With
    naive=True the raw profiles f_mu are used instead of the derived f'_mu,
    reproducing the gauge-inconsistent direct truncation of the field
    expansion.
    """
    space = photon_space(ms, cutoffs)
    f = ms.profile(point) if naive else ms.derived_profile(point)
    w_mu = np.sqrt(ms.chi_diag / 2)
    out = []
    for c in range(3):
        m = _mode_sum(space, 1j * w_mu * f[:, c])
        out.append(Operator(m + m.conj().T, space, hermitian=True))
    return out


def field_commutator_residual(ms: ModeSet, point: str, cutoffs,
                              naive: bool = False) -> float:
    """Max deviation of E from i [A, H_F] per component, away from the ladder top.

    The Heisenberg identity E = -dA/dt = i [A, H_F] holds exactly on the
    truncated space except on the top Fock level of each mode, where any
    finite ladder necessarily distorts cross-mode commutators; the comparison
    therefore projects that level out on both sides.  With naive=True the
    residual instead measures how far the directly-truncated field is from
    the Heisenberg derivative (nonzero whenever chi has off-diagonal
    entries).
    """
    space = photon_space(ms, cutoffs)
    h_f = field_hamiltonian(ms.chi, space)
    a_comps = vector_potential_operator(ms, point, cutoffs)
    e_comps = truncated_E_operator(ms, point, cutoffs, naive=naive)
    below_top = fock_mask(space, lambda cutoff: cutoff - 1)
    interior = np.ix_(below_top, below_top)
    worst = 0.0
    for a_c, e_c in zip(a_comps, e_comps):
        comm = 1j * (a_c.matrix @ h_f - h_f @ a_c.matrix)
        worst = max(worst, max_abs((e_c.matrix - comm)[interior]))
    return worst


def _detector_etas(ms: ModeSet, det: DetectorSpec) -> np.ndarray:
    f = ms.profile(det.r_d)
    return (f.conj() @ det.d_d) / np.sqrt(2 * ms.chi_diag)


def _frequency_factor(bundle: HamiltonianBundle, omega_d: float) -> float:
    """How the detection operator scales with the detector frequency in the bundle's gauge."""
    return omega_d if bundle.gauge.theta == 0.0 else 1.0


def detection_operator(bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec,
                       em: Optional[EmitterSpec] = None) -> np.ndarray:
    """Matrix element operator of the golden-rule rate in the bundle's gauge.

    Coulomb endpoint: omega_d * d_d . A(r_d).  Multipolar endpoint:
    i sum_{mu nu} chi*_{mu nu} eta_d*_nu a'_mu + H.c. with the displaced
    operators a'_mu = a_mu + i eta_mu.  Either is a sum of Kronecker
    products; across transitions it changes only by `_frequency_factor`.
    """
    space = bundle.space
    theta = bundle.gauge.theta
    if theta == 0.0:
        f = ms.profile(det.r_d)
        m = _mode_sum(space, (f @ det.d_d) / np.sqrt(2 * ms.chi_diag))
    elif theta == 1.0:
        # sum_mu c_mu a'_mu with c_mu = i sum_nu chi*_{mu nu} eta_d*_nu
        if em is None:
            raise ValueError("multipolar rate needs the system emitter (pass em=...)")
        c = 1j * ms.chi.conj() @ _detector_etas(ms, det).conj()
        eta_sys = couplings(ms, em).eta_matrices
        m = (_mode_sum(space, c)
             + space.kron({space.matter_indices[0]: 1j * np.einsum("m,mij->ij", c, eta_sys)}))
    else:
        raise ValueError("detection rates are defined at the gauge endpoints theta = 0, 1")
    return _frequency_factor(bundle, det.omega_d) * (m + m.conj().T)


def _check_resonance(det: DetectorSpec, vals: np.ndarray, i: int, j: int, match_tol: float):
    omega_ij = float(vals[j] - vals[i])
    if abs(det.omega_d - omega_ij) > match_tol:
        raise ValueError(
            f"detector frequency {det.omega_d:g} does not match transition "
            f"{omega_ij:g} (|i>={i}, |j>={j}); invalid resonance pairing")


def _amplitude_sq(vecs: np.ndarray, op: np.ndarray, i: int, j: int) -> float:
    return float(abs(vecs[:, i].conj() @ op @ vecs[:, j]) ** 2)


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
    vals, vecs = bundle.eigensystem()
    _check_resonance(det, vals, i, j, match_tol)
    rates = []
    for f in (ms.derived_profile(det.r_d), ms.profile(det.r_d)):
        m = _mode_sum(bundle.space, 1j * np.sqrt(ms.chi_diag / 2) * (f @ det.d_d))
        rates.append(_amplitude_sq(vecs, m + m.conj().T, i, j))
    r_c, r_n = rates
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
    cs = couplings(ms, em)
    vals_c, vecs_c = bundle_c.eigensystem()
    vals_mp, vecs_mp = bundle_mp.eigensystem()
    w = gauge_unitary(bundle_c.space, cs, bundle_c.gauge.theta, bundle_mp.gauge.theta).matrix
    op_c = detection_operator(bundle_c, ms, replace(det, omega_d=1.0), em)
    op_mp = detection_operator(bundle_mp, ms, replace(det, omega_d=1.0), em)
    rows = []
    for i, j in transitions:
        omega_ij = float(vals_c[j] - vals_c[i])
        r_c = _frequency_factor(bundle_c, omega_ij) ** 2 * _amplitude_sq(vecs_c, op_c, i, j)
        pair = {}
        for idx in (i, j):
            target = w @ vecs_c[:, idx]
            overlaps = np.abs(vecs_mp.conj().T @ target)
            k = int(np.argmax(overlaps))
            if overlaps[k] < overlap_min:
                raise InvariantViolation(
                    f"gauge pairing of eigenstate {idx} failed (overlap {overlaps[k]:.4f})")
            pair[idx] = k
        omega_mp = float(vals_mp[pair[j]] - vals_mp[pair[i]])
        r_mp = (_frequency_factor(bundle_mp, omega_mp) ** 2
                * _amplitude_sq(vecs_mp, op_mp, pair[i], pair[j]))
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
    op = detection_operator(bundle, ms, replace(det, omega_d=1.0), em)
    stop = min(bundle.space.dim, i + 40)
    # <i| op |j> for every candidate j from one row and one product
    amp_sq = np.abs((vecs[:, i].conj() @ op) @ vecs[:, i + 1:stop]) ** 2
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
