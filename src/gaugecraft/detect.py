"""Correctly-truncated field operators and gauge-consistent photodetection rates.

Mode truncation is performed on the vector potential; the electric-field
operator that survives truncation is therefore expanded over the derived
profiles f'_mu rather than the raw f_mu.  Golden-rule detection rates built
this way agree between the Coulomb and multipolar gauges; rates built from
the naively-truncated field (f in place of f') do not whenever chi has
off-diagonal structure.  All rates are reported up to one common
density-of-states constant, which cancels in every comparison.

A rate needs a few eigenstates, so the detection operators stay lists of
Kronecker terms, the photon-only mode drives of `hamiltonians.drive_terms`
(one term per mode) plus a matter term, applied to those eigenvectors only
by `HilbertSpec.apply`; nothing here forms a D x D matrix.  Each function
asks `HamiltonianBundle.eigensystem` for the columns it reads (|i> and the
candidates among the 39 states above it, the states a rate table names, or
the pair |i>, |j>), which places only those into the Fock basis from the kept
sector solves.
Only the Coulomb bundle is diagonalized, and of a quadrature-basis bundle only the
parity sector its transitions out of |0> reach.  Its detection operator is linear in
the field, so it flips the photon parity and the verified parity (-1)^(sum n) (x) S
with it: `significant_transitions` solves the other sector by eigh and the sector of
|0> by eigvalsh, |0> itself by one shifted solve at E0
(`HamiltonianBundle.solve_ground_apart`).  Three checks hold it to the values found:
the other sector's lowest level lies above E0, the shifted vector's residual is at most
HERMITIAN_TOL * max(1, max|E|), and the same-parity part of O |0> vanishes to
HERMITIAN_TOL relative, so that the candidates of |0>'s sector have a rate of exactly
zero and are left out.  If one fails, both sectors are solved by eigh and every
candidate is read, as for explicit transitions and Fock-basis bundles.
The multipolar partner of |i_C> is
W |i_C>, with the exact gauge unitary W applied through the pair's family's
`Eigenbasis.apply` and checked by its residual against H_mp.
The detect command builds the two bundles as one gauge pair
(`build_gauge_pair`), members of one family that forms K once.  The dense
truncated field operators A and E, and the residual of the Heisenberg
identity E = i [A, H_F] between them, live with the tests as the oracle of
this construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantViolation
from .hamiltonians import HamiltonianBundle, couplings, drive_terms
from .hilbert import HERMITIAN_TOL, Eigenbasis, HilbertSpec, max_abs
from .matter import EmitterSpec
from .modes import ModeSet

FREQUENCY_MATCH_TOL = 1e-6


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
        return drive_terms(space, det.omega_d * eta_d_conj)
    if bundle.gauge.theta != 1.0:
        raise ValueError("detection rates are defined at the gauge endpoints theta = 0, 1")
    # sum_mu c_mu a'_mu + H.c. with c_mu = i sum_nu chi*_{mu nu} eta_d*_nu
    if em is None:
        raise ValueError("multipolar rate needs the system emitter (pass em=...)")
    c = 1j * ms.chi.conj() @ eta_d_conj
    matter = 1j * np.einsum("m,mij->ij", c, couplings(ms, em).eta_matrices)
    return drive_terms(space, c) + [{space.matter_indices[0]: matter + matter.conj().T}]


def _check_resonance(det: DetectorSpec, vals: np.ndarray, i: int, j: int, match_tol: float):
    omega_ij = float(vals[j] - vals[i])
    if abs(det.omega_d - omega_ij) > match_tol:
        raise ValueError(
            f"detector frequency {det.omega_d:g} does not match transition "
            f"{omega_ij:g} (|i>={i}, |j>={j}); invalid resonance pairing")


def _amplitudes_sq(space: HilbertSpec, terms: list[dict], vecs: np.ndarray,
                   pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """|<i| O |j>|^2 between columns of vecs for every (i, j) in pairs, the terms of O
    applied to the columns j only."""
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    o_j = space.apply(terms, vecs[:, j])
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
    vals, vecs = bundle.eigensystem([i, j])
    _check_resonance(det, vals, i, j, match_tol)
    w_mu = 1j * np.sqrt(ms.chi_diag / 2)
    r_c, r_n = (float(_amplitudes_sq(bundle.space, drive_terms(bundle.space, w_mu * (f @ det.d_d)),
                                     vecs, [(0, 1)])[0])
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
               basis: Eigenbasis) -> tuple[list[RateRow], np.ndarray]:
    """Cross-gauge rate comparison over transitions indexed in the Coulomb gauge: the rows,
    and the Coulomb states |i_C> it placed (D, k), one column per state the transitions
    name, in order of first appearance.

    Only the Coulomb bundle is diagonalized.  The multipolar rate of (i, j) is
    read between the partners t = W |i_C>, W |j_C>, W = exp(-i (theta_mp -
    theta_C) X) the exact gauge unitary, applied in X's eigenbasis `basis` (the pair's
    family's, or `CouplingSet.generator`).  Each partner must be an eigenvector of H_mp
    at E_i^C, max|H_mp t - E_i^C t| <= HERMITIAN_TOL * max(1, max|E^C|), or
    `InvariantViolation` is raised; degenerate levels need no pairing.
    """
    # |i_C> and W |i_C> for every state a transition names
    states = list(dict.fromkeys(idx for pair in transitions for idx in pair))
    vals_c, vecs_c = bundle_c.eigensystem(states)
    targets = basis.apply(bundle_c.gauge.theta - bundle_mp.gauge.theta, vecs_c)
    residual = max_abs(bundle_mp.apply(targets) - targets * vals_c[states])
    scale = max(1.0, abs(float(vals_c[0])), abs(float(vals_c[-1])))
    if residual > HERMITIAN_TOL * scale:
        raise InvariantViolation(f"gauge pairing failed: W|i_C> is not an eigenvector of "
                                 f"H_mp at E_i^C (residual {residual:.3e})")
    column = {idx: k for k, idx in enumerate(states)}
    pairs = [(column[i], column[j]) for i, j in transitions]
    unit = replace(det, omega_d=1.0)
    amp_c = _amplitudes_sq(bundle_c.space, detection_operator(bundle_c, ms, unit, em), vecs_c,
                           pairs)
    amp_mp = _amplitudes_sq(bundle_mp.space, detection_operator(bundle_mp, ms, unit, em),
                            targets, pairs)
    rows = []
    for (i, j), a_c, a_mp in zip(transitions, amp_c, amp_mp):
        omega_ij = float(vals_c[j] - vals_c[i])
        r_c = _frequency_factor(bundle_c, omega_ij) ** 2 * float(a_c)
        r_mp = _frequency_factor(bundle_mp, omega_ij) ** 2 * float(a_mp)
        rel = abs(r_c - r_mp) / r_c if r_c > 0 else (0.0 if r_mp == 0 else float("inf"))
        rows.append(RateRow(i, j, omega_ij, r_c, r_mp, rel))
    return rows, vecs_c


def significant_transitions(bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec,
                            count: int, i: int = 0, em: Optional[EmitterSpec] = None,
                            floor: float = 1e-10) -> list[tuple[int, int]]:
    """First `count` transitions out of |i> with a non-negligible rate.

    Parity-forbidden transitions carry rates at numerical zero and are
    skipped (threshold: `floor` relative to the largest rate found), as are
    transitions that are not upward in energy.  The candidates are the 39 states above
    |i>.  Out of |0> of a quadrature-basis bundle, the selection rule reads only those
    of the other parity sector: O is linear in the field, so it flips the bundle's
    parity, and `HamiltonianBundle.solve_ground_apart` diagonalizes only that sector,
    with |0> from one shifted solve.  The rule holds when the same-parity part of O |0>
    vanishes to HERMITIAN_TOL relative; then the candidates of |0>'s sector have a rate
    of exactly zero, which the floor drops as it drops their rounding otherwise.  When it
    does not, or the bundle's checks fail, both sectors are solved by eigh and every
    candidate is read.
    """
    terms = detection_operator(bundle, ms, replace(det, omega_d=1.0), em)
    stop = min(bundle.space.dim, i + 40)
    parity = bundle.solve_ground_apart(stop) if i == 0 else None
    candidates = (range(i + 1, stop) if parity is None
                  else [j for j in range(1, stop) if parity[j] != parity[0]])
    vals, vecs = bundle.eigensystem([i, *candidates])  # |i>, then every candidate |j>
    # <i| O |j> = (O |i>)^dag |j> for every candidate j, O Hermitian: one apply
    o_i = bundle.space.apply(terms, vecs[:, 0])
    if parity is not None and (np.linalg.norm(o_i[bundle.parity == parity[0]])
                               > HERMITIAN_TOL * np.linalg.norm(o_i)):
        # O has a parity-even part: every candidate, both sectors solved by eigh
        candidates = range(1, stop)
        vals, vecs = bundle.eigensystem([0, *candidates])
        o_i = bundle.space.apply(terms, vecs[:, 0])
    amp_sq = np.abs(o_i.conj() @ vecs[:, 1:]) ** 2
    rates = []
    for j, a_sq in zip(candidates, amp_sq):
        omega = float(vals[j] - vals[i])
        if omega <= 0:
            continue
        rates.append((j, _frequency_factor(bundle, omega) ** 2 * float(a_sq)))
    if not rates:
        return []
    top = max(r for _, r in rates)
    picked = [(i, j) for j, r in rates if r > floor * top]
    return picked[:count]
