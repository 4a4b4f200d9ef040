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
Only the Coulomb bundle is solved, and out of |0> of a quadrature-basis bundle only as
far as the parity sector its transitions reach.  The detection operator O is linear in
the field, so it flips the photon parity and the verified parity (-1)^(sum n) (x) S with
it: `HamiltonianBundle.solve_ground_apart` solves both sectors by eigvalsh, which names
every level j by its index in the full spectrum, and |0> by one shifted solve at E0.
The rate out of |0> into |j> is a weight |<j| O |0>|^2 of the spectral measure of
v = O |0> with respect to H, and a Lanczos run started from v gives those weights as the
Gauss weights of its Ritz pairs (Golub & Welsch, Math. Comp. 23, 221 (1969);
`hilbert.lanczos`), and the states as its Ritz vectors.  `significant_transitions` runs
it in the reached sector until the selection is certified: each candidate up to the last
pick either matched by a converged Ritz pair (residual at most half of HERMITIAN_TOL *
max(1, max|E|)) or bounded below the floor by the weight no pair accounts for.  A sector
of fewer than LANCZOS_MIN_SECTOR levels is solved by eigh instead, where that costs
less, and so is a sector whose run is not certified within LANCZOS_CAP steps.  Three
checks hold the sector route to the values found: the other sector's lowest level lies
above E0, the shifted vector's residual is at most HERMITIAN_TOL * max(1, max|E|), and
the same-parity part of O |0> vanishes to HERMITIAN_TOL relative, so that the candidates
of |0>'s sector have a rate of exactly zero and are left out.  If one fails, the sectors
are solved by eigh as far as the candidates need, a kept solve kept, and every candidate
read, as for explicit transitions and Fock-basis bundles.  `Transitions.route` records
the route taken, and why it fell back.  The states `significant_transitions` picks are
placed once: its `Transitions` hand them and the Coulomb detection terms on to
`rate_table`.
The multipolar partner of |i_C> is W |i_C>, with the exact gauge unitary W applied
through the pair's family's `Eigenbasis.apply` and checked by its residual against H_mp;
its residual against the canonical multipolar form H_can, which truncates after the gauge
map, is reported and never checked (`canonical_pairing_residual`).
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
from .hamiltonians import (HamiltonianBundle, canonical_terms, couplings, drive_terms,
                           polarization_squared)
from .hilbert import HERMITIAN_TOL, Eigenbasis, HilbertSpec, Lanczos, max_abs
from .matter import EmitterSpec
from .modes import ModeSet

FREQUENCY_MATCH_TOL = 1e-6
LANCZOS_CAP = 120  # Lanczos steps before `significant_transitions` falls back to eigh


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


class Transitions(list):
    """The (i, j) pairs `significant_transitions` picked, a list, with what it placed for
    them: `source`, the (bundle, mode set, detector) it read; `vecs`, the bundle's
    eigenvectors (D, k) of the states the pairs name, in order of first appearance; and
    `terms`, the detection operator at omega_d = 1.  `rate_table` reads both instead of
    placing and forming them again where they serve its inputs (`serves`).  `route` says
    how they were found: "lanczos" or "dense", the Lanczos steps taken, the largest
    residual of the picked Ritz pairs (None without them), and why the sector route fell
    back, when it did."""

    def __init__(self, pairs, source: tuple, vecs: np.ndarray, terms: list, route: dict):
        super().__init__(pairs)
        self.source, self.vecs, self.terms, self.route = source, vecs, terms, route

    def serves(self, bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec) -> bool:
        """Whether these were picked on this bundle and mode set by a detector of this dipole
        and position: the terms at omega_d = 1 read no other field of det."""
        b, m, d = self.source
        return b is bundle and m is ms and d.r_d == det.r_d and np.array_equal(d.d_d, det.d_d)


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
    and the Coulomb states |i_C> (D, k), one column per state the transitions name, in
    order of first appearance.

    Only the Coulomb bundle is diagonalized.  `Transitions` that `significant_transitions`
    picked on bundle_c, ms and a detector of det's dipole and position hand over the
    states it placed and its Coulomb detection terms; other transitions are placed here.
    The multipolar rate of (i, j) is read between the partners t = W |i_C>, W |j_C>,
    W = exp(-i (theta_mp - theta_C) X) the exact gauge unitary, applied in X's
    eigenbasis `basis` (the pair's family's, or `CouplingSet.generator`).  Each partner
    must be an eigenvector of H_mp at E_i^C, max|H_mp t - E_i^C t| <= HERMITIAN_TOL *
    max(1, max|E^C|), or `InvariantViolation` is raised; degenerate levels need no
    pairing.
    """
    # |i_C> and W |i_C> for every state a transition names
    states = list(dict.fromkeys(idx for pair in transitions for idx in pair))
    unit = replace(det, omega_d=1.0)
    if isinstance(transitions, Transitions) and transitions.serves(bundle_c, ms, det):
        vals_c, vecs_c, terms_c = bundle_c.eigenvalues(), transitions.vecs, transitions.terms
    else:
        vals_c, vecs_c = bundle_c.eigensystem(states)
        terms_c = detection_operator(bundle_c, ms, unit, em)
    targets = basis.apply(bundle_c.gauge.theta - bundle_mp.gauge.theta, vecs_c)
    residual = max_abs(bundle_mp.apply(targets) - targets * vals_c[states])
    scale = max(1.0, abs(float(vals_c[0])), abs(float(vals_c[-1])))
    if residual > HERMITIAN_TOL * scale:
        raise InvariantViolation(f"gauge pairing failed: W|i_C> is not an eigenvector of "
                                 f"H_mp at E_i^C (residual {residual:.3e})")
    column = {idx: k for k, idx in enumerate(states)}
    pairs = [(column[i], column[j]) for i, j in transitions]
    amp_c = _amplitudes_sq(bundle_c.space, terms_c, vecs_c, pairs)
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


def canonical_pairing_residual(bundle_c: HamiltonianBundle, bundle_mp: HamiltonianBundle,
                                ms: ModeSet, em: EmitterSpec,
                                transitions: Sequence[tuple[int, int]], states: np.ndarray,
                                basis: Eigenbasis) -> float:
    """max ||H_can t - E_i^C t||_2 over the multipolar partners t = W |i_C> of the Coulomb
    states (D, k) a rate table read, one per state the transitions name in order of first
    appearance (`rate_table`'s second value), with W and basis as there.  H_can is the
    canonical multipolar form with matter term h0 + P^2 (`canonical_terms`), applied
    without forming it.  It truncates the Fock space after the gauge map, so it meets the
    family's multipolar member only as the cutoff converges (2.5e-3 at eta = 1.41, N = 20):
    the residual is reported, never held to a bound."""
    index = list(dict.fromkeys(idx for pair in transitions for idx in pair))
    partners = basis.apply(bundle_c.gauge.theta - bundle_mp.gauge.theta, states)
    cs = couplings(ms, em)
    terms = canonical_terms(cs, em.h0 + polarization_squared(cs), bundle_mp.space)
    r = bundle_mp.space.apply(terms, partners) - partners * bundle_c.eigenvalues()[index]
    return float(np.max(np.linalg.norm(r, axis=0), initial=0.0))


def dense_route(fallback: Optional[str] = None) -> dict:
    """The `Transitions.route` of states read from eigenvectors."""
    return {"route": "dense", "iterations": 0, "max_ritz_residual": None, "fallback": fallback}


def significant_transitions(bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec,
                            count: int, i: int = 0, em: Optional[EmitterSpec] = None,
                            floor: float = 1e-10) -> Transitions:
    """First `count` transitions out of |i> with a non-negligible rate, as `Transitions`
    that carry |i> and the picked states, placed once here, and the detection terms.

    Parity-forbidden transitions carry rates at numerical zero and are
    skipped (threshold: `floor` relative to the largest rate found), as are
    transitions that are not upward in energy.  The candidates are the 39 states above
    |i>.  Out of |0> of a quadrature-basis bundle, the selection rule reads only those
    of the other parity sector: O is linear in the field, so it flips the bundle's
    parity, and `HamiltonianBundle.solve_ground_apart` solves |0> apart, by eigvalsh of
    its sector and one shifted solve.  The rule holds when the same-parity part of O |0>
    vanishes to HERMITIAN_TOL relative; then the candidates of |0>'s sector have a rate
    of exactly zero, which the floor drops as it drops their rounding otherwise.  A
    reached sector of fewer than LANCZOS_MIN_SECTOR levels is solved by eigh, and its
    candidates are read from its eigenvectors.  From that size on it is solved by
    eigvalsh, the rates are the weights of the spectral measure of O |0> from a Lanczos
    run (`_lanczos_picks`), and the picked states are its Ritz vectors; a selection that
    the run cannot certify within LANCZOS_CAP steps reads the candidates from eigh of
    that sector instead.  When the rule does not hold, or the bundle's checks fail, the
    sectors are solved by eigh and every candidate is read.
    """
    terms = detection_operator(bundle, ms, replace(det, omega_d=1.0), em)
    stop = min(bundle.space.dim, i + 40)
    parity = bundle.solve_ground_apart(stop) if i == 0 else None
    route = dense_route()
    if parity is None:
        if i == 0 and bundle.family is not None:
            route["fallback"] = "the ground state is not solved apart from its sector"
        candidates = range(i + 1, stop)
    else:
        candidates = [j for j in range(1, stop) if parity[j] != parity[0]]

    def read(columns):
        vals, vecs = bundle.eigensystem(columns)
        # <i| O |j> = (O |i>)^dag |j> for every candidate j, O Hermitian: one apply
        return vals, vecs, bundle.space.apply(terms, vecs[:, 0])

    # the candidates' vectors as well, unless the kept solve holds their eigenvalues alone
    lanczos = parity is not None and not bundle.holds(candidates)
    vals, vecs, o_i = read([i] if lanczos else [i, *candidates])
    if parity is not None and (np.linalg.norm(o_i[bundle.parity == parity[0]])
                               > HERMITIAN_TOL * np.linalg.norm(o_i)):
        # O has a parity-even part: every candidate, |0>'s sector solved by eigh as well
        route["fallback"] = "O |0> has a part in the parity sector of |0>"
        candidates = range(1, stop)
        vals, vecs, o_i = read([0, *candidates])
    elif lanczos:
        found = _lanczos_picks(bundle, o_i, vecs[:, 0], vals, parity, stop, count, floor,
                               route)
        if found is not None:
            return Transitions([(0, j) for j in found[0]], (bundle, ms, det), found[1],
                               terms, route)
        vals, vecs, o_i = read([0, *candidates])
    amp_sq = np.abs(o_i.conj() @ vecs[:, 1:]) ** 2
    rates = []  # (column of vecs, j, rate)
    for k, (j, a_sq) in enumerate(zip(candidates, amp_sq), start=1):
        omega = float(vals[j] - vals[i])
        if omega > 0:
            rates.append((k, j, _frequency_factor(bundle, omega) ** 2 * float(a_sq)))
    top = max((r for *_, r in rates), default=0.0)
    picked = [(k, j) for k, j, r in rates if r > floor * top][:count]
    return Transitions([(i, j) for _, j in picked], (bundle, ms, det),
                       vecs[:, [0] + [k for k, _ in picked]], terms, route)


def _lanczos_picks(bundle: HamiltonianBundle, o_0: np.ndarray, ground: np.ndarray,
                   vals: np.ndarray, parity: np.ndarray, stop: int, count: int, floor: float,
                   route: dict) -> Optional[tuple[list, np.ndarray]]:
    """The picks of `significant_transitions` out of |0> from a Lanczos run on O |0> in the
    sector it reaches (`HamiltonianBundle.reached_lanczos`), whose levels the bundle holds
    by eigvalsh: their j, and |0> (`ground`) and their Ritz vectors placed, (D, k + 1).
    None when the run cannot certify the selection within LANCZOS_CAP steps; `route`
    records the run either way.

    A Ritz pair counts once its residual is at most tol, half of HERMITIAN_TOL *
    max(1, max|E|), and its value lies within tol of exactly one level of the sector, and
    no other pair's does (a pair near two levels, or two near one, count for neither; a
    run that outlives the Krylov space of O |0> may meet a level twice): its weight is
    that level's |<j| O |0>|^2, and its vector, at E_j, passes `rate_table`'s pairing
    check, which holds H t - E_j t to twice tol.  The levels no pair matched share at most
    W, ||O |0>||^2 less the matched weights.  So each candidate's rate is f^2 w when its level is matched and at most
    f^2 W otherwise, and the largest rate lies between top_lo, the largest matched one,
    and top_hi, the largest of them and the bounds.  The selection is certified once
    every candidate up to the count-th pick is decided: picked when its rate exceeds
    floor * top_hi, left out when its rate or bound is at most floor * top_lo.  A level
    orthogonal to O |0> is never matched, so below the last pick it leaves the selection
    uncertified until W is small.
    """
    others = np.flatnonzero(parity != parity[0])  # the reached sector's levels, ascending
    energies = vals[others]
    levels = others[others < stop]  # the candidates, all above E0 (`solve_ground_apart`)
    omega = vals[levels] - vals[0]
    f2 = _frequency_factor(bundle, omega) ** 2 * np.ones_like(omega)
    tol = HERMITIAN_TOL * max(1.0, abs(float(vals[0])), abs(float(vals[-1]))) / 2

    def select(run: Lanczos):
        """(positions among the candidates, Ritz pairs) of the picks, or None."""
        weight, ritz = np.full(len(energies), np.nan), np.zeros(len(energies), dtype=int)
        hits = np.zeros(len(energies), dtype=int)
        for k in np.flatnonzero(run.converged):
            lo, hi = np.searchsorted(energies, run.values[k] + np.array([-tol, tol]))
            if hi - lo == 1:
                weight[lo], ritz[lo] = run.weights[k], k
                hits[lo] += 1
        weight[hits > 1] = np.nan
        rest = max(0.0, float(run.weights.sum() - np.nansum(weight)))
        rates = f2 * weight[:len(levels)]
        bound = np.where(np.isnan(rates), f2 * rest, rates)
        top_lo = float(np.max(np.nan_to_num(rates), initial=0.0))
        top_hi = float(np.max(bound, initial=0.0))
        picks = []
        for q in range(len(levels)):
            if len(picks) == count:
                break
            if bound[q] <= floor * top_lo:
                continue
            if not rates[q] > floor * top_hi:  # a bound, or a rate between the two
                return None
            picks.append(q)
        return picks, ritz[picks]

    run, place = bundle.reached_lanczos(o_0, tol, LANCZOS_CAP,
                                        lambda run: select(run) is not None)
    found = select(run)
    route.update(route="lanczos", iterations=run.iterations)
    if found is None:
        route.update(route="dense", fallback=f"no certified selection in {run.iterations} "
                                             f"Lanczos steps")
        return None
    picks, ks = found
    route["max_ritz_residual"] = float(np.max(run.residuals[ks], initial=0.0))
    placed = np.zeros((len(ground), len(picks) + 1), dtype=complex, order="F")
    placed[:, 0] = ground
    if picks:
        place(placed, np.arange(1, len(picks) + 1), run.vectors(ks))
    return [int(j) for j in levels[picks]], placed
