"""Correctly-truncated field operators and gauge-consistent photodetection rates.

Mode truncation is performed on the vector potential; the electric-field
operator that survives truncation is therefore expanded over the derived
profiles f'_mu rather than the raw f_mu.  Golden-rule detection rates built
this way agree between the Coulomb and multipolar gauges; rates built from
the naively-truncated field (f in place of f') do not whenever chi has
off-diagonal structure.  All rates are reported up to one common
density-of-states constant, which cancels in every comparison.

A rate needs a few eigenstates, so the detection operators stay lists of Kronecker terms,
the photon-only mode drives of `hamiltonians.drive_terms` (one term per mode) plus a
matter term, applied to those eigenvectors only by `HilbertSpec.apply`; nothing here
forms a D x D matrix.  Only the Coulomb bundle is solved.

`significant_transitions` picks by one rule (`_picks`): the first `count` of the 39 states
above |i> whose rate exceeds `floor` times the largest, a state not upward in energy at
rate zero.  Out of |0> of a quadrature-basis bundle the detection operator O, linear in
the field, flips the photon parity and the verified parity (-1)^(sum n) (x) S with it, so
it reaches only the other sector: `HamiltonianBundle.solve_ground_apart` solves both
sectors' eigenvalues, which name every level j by its index in the full spectrum, and |0>
by one shifted solve at E0.  The rate into |j> is then a weight of the spectral measure
of v = O |0> in the reached sector (`HamiltonianBundle.reached_measure`).  Below
LANCZOS_MIN_SECTOR levels it is exact, from that sector's eigenvectors, each weight
matched to its level by index.  From that size on the weights are those of the Ritz
pairs of a Lanczos run from v (Golub & Welsch, Math. Comp. 23, 221 (1969);
`hilbert.lanczos`), each known where a converged pair matches one level and bounded by
the weight no pair accounts for elsewhere; a run that leaves the picks undecided after
LANCZOS_CAP steps reads the exact measure after all, the sector solved by eigh.  Three
checks hold this route to the values found: the other sector's lowest level lies above
E0, the shifted vector's residual is at most HERMITIAN_TOL * max(1, max|E|), and the
same-parity part of O |0> vanishes to HERMITIAN_TOL relative, so that the candidates of
|0>'s sector have a rate of exactly zero and are left out.  Only |0> and the picked
states are placed.  If a check fails, and for |i> above |0> or a Fock-basis bundle,
every candidate is read from its eigenvectors in the Fock basis, each sector they lie in
solved by eigh.  `Transitions.route` records the route taken, and why it fell back, and
the `Transitions` hand the placed states and the Coulomb detection terms on to
`rate_table`.  Other transitions are placed there.

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


def _picks(rates: np.ndarray, bounds: np.ndarray, count: int, floor: float) -> Optional[list]:
    """The positions of the first `count` candidates whose rate exceeds floor times the
    largest rate, or None while that selection is undecided: the one rule by which
    `significant_transitions` picks, on every route.

    rates holds each candidate's rate, NaN where only its upper bound in `bounds` is known
    (bounds holds the rate where it is).  The largest rate then lies between top_lo, the
    largest known one, and top_hi, the largest bound.  A candidate is left out when its
    bound is at most floor * top_lo and picked when its rate exceeds floor * top_hi; the
    selection is decided once every candidate up to the count-th pick is.  With every rate
    known, bounds = rates, and it always is.
    """
    top_lo = float(np.max(np.nan_to_num(rates), initial=0.0))
    top_hi = float(np.max(bounds, initial=0.0))
    picks = []
    for q in range(len(rates)):
        if len(picks) == count:
            break
        if bounds[q] <= floor * top_lo:
            continue
        if not rates[q] > floor * top_hi:  # a bound, or a rate between the two
            return None
        picks.append(q)
    return picks


def significant_transitions(bundle: HamiltonianBundle, ms: ModeSet, det: DetectorSpec,
                            count: int, i: int = 0, em: Optional[EmitterSpec] = None,
                            floor: float = 1e-10) -> Transitions:
    """First `count` transitions out of |i> with a non-negligible rate, as `Transitions`
    that carry |i> and the picked states, placed once here, and the detection terms.

    The candidates are the 39 states above |i>.  Parity-forbidden transitions carry rates
    at numerical zero and are skipped (threshold: `floor` relative to the largest rate),
    as are transitions that are not upward in energy: `_picks` decides.  Out of |0> of a
    quadrature-basis bundle only the candidates of the parity sector O |0> reaches are
    read (`HamiltonianBundle.solve_ground_apart`, `_reached_picks`), once the same-parity
    part of O |0> vanishes to HERMITIAN_TOL relative: the candidates of |0>'s sector then
    have a rate of exactly zero, which the floor drops as it drops their rounding
    otherwise.  Every other case, and a bundle whose checks fail, reads every candidate
    from its eigenvectors in the Fock basis, each sector they lie in solved by eigh.
    """
    terms = detection_operator(bundle, ms, replace(det, omega_d=1.0), em)
    stop = min(bundle.space.dim, i + 40)
    solved = bundle.solve_ground_apart() if i == 0 else None
    route = dense_route()
    if solved is not None:
        parity, ground = solved
        o_0 = bundle.space.apply(terms, ground)
        if (np.linalg.norm(o_0[bundle.parity == parity[0]])
                <= HERMITIAN_TOL * np.linalg.norm(o_0)):
            pairs, vecs, route = _reached_picks(bundle, o_0, ground, parity, stop, count, floor)
            return Transitions(pairs, (bundle, ms, det), vecs, terms, route)
        route["fallback"] = "O |0> has a part in the parity sector of |0>"
    elif i == 0 and bundle.family.sectored:
        route["fallback"] = "the ground state is not solved apart from its sector"
    candidates = np.arange(i + 1, stop)
    vals, vecs = bundle.eigensystem([i, *candidates])
    # <i| O |j> = (O |i>)^dag |j> for every candidate j, O Hermitian: one apply
    amp_sq = np.abs(bundle.space.apply(terms, vecs[:, 0]).conj() @ vecs[:, 1:]) ** 2
    omega = vals[candidates] - vals[i]
    rates = np.where(omega > 0, _frequency_factor(bundle, omega) ** 2 * amp_sq, 0.0)
    picks = _picks(rates, rates, count, floor)
    return Transitions([(i, int(j)) for j in candidates[picks]], (bundle, ms, det),
                       vecs[:, [0, *np.add(picks, 1)]], terms, route)


def _reached_picks(bundle: HamiltonianBundle, o_0: np.ndarray, ground: np.ndarray,
                   parity: np.ndarray, stop: int, count: int, floor: float) -> tuple:
    """(pairs, vecs, route) of the transitions out of |0> (`ground`) among the candidates
    of the sector O |0> reaches, from the spectral measure of O |0> there
    (`HamiltonianBundle.reached_measure`): the rate into its level j is f^2 |<j| O |0>|^2,
    a weight of that measure.  vecs places |0> and the picked states alone.

    A sector whose eigenvectors the bundle holds (one below LANCZOS_MIN_SECTOR levels)
    gives the exact measure, its k-th weight that of the sector's k-th level, so levels are
    matched by index and a degenerate one needs no special case.  From that size on a
    Lanczos run gives the weights of its converged Ritz pairs, and the picked states are
    its Ritz vectors.  A Ritz pair counts once its residual is at most tol, half of
    HERMITIAN_TOL * max(1, max|E|), and its value lies within tol of exactly one level of
    the sector, and no other pair's does (a pair near two levels, or two near one, count
    for neither; a run that outlives the Krylov space of O |0> may meet a level twice): its
    weight is that level's, and its vector, at E_j, passes `rate_table`'s pairing check,
    which holds H t - E_j t to twice tol.  The levels no pair matched share at most W,
    ||O |0>||^2 less the matched weights, so each of their rates is bounded by f^2 W
    (`_picks`).  A level orthogonal to O |0> is never matched, so below the last pick it
    leaves the selection undecided until W is small.  A run undecided after LANCZOS_CAP
    steps reads the exact measure, the sector then solved by eigh.  `route` records the
    run.
    """
    vals = bundle.eigenvalues()
    others = np.flatnonzero(parity != parity[0])  # the reached sector's levels, ascending
    energies = vals[others]
    levels = others[others < stop]  # the candidates, all above E0 (`solve_ground_apart`)
    f2 = _frequency_factor(bundle, vals[levels] - vals[0]) ** 2 * np.ones(len(levels))
    tol = HERMITIAN_TOL * max(1.0, abs(float(vals[0])), abs(float(vals[-1]))) / 2
    judged = [None, None]  # the last run `done` judged, and its selection or None

    def done(run: Lanczos) -> bool:
        """Whether the run decides the picks; the selection is kept in `judged`."""
        if judged[0] is not run:
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
            picks = _picks(rates, np.where(np.isnan(rates), f2 * rest, rates), count, floor)
            judged[:] = run, None if picks is None else (picks, ritz[picks])
        return judged[1] is not None

    y, vecs, run = bundle.reached_measure(o_0, tol, LANCZOS_CAP, done)
    steps = 0 if run is None else run.iterations
    if vecs is None:
        picks, ks = judged[1]
        states = run.vectors(ks)
        route = {"route": "lanczos", "iterations": steps,
                 "max_ritz_residual": float(np.max(run.residuals[ks], initial=0.0)),
                 "fallback": None}
    else:
        rates = f2 * np.abs(vecs[:, :len(levels)].T.conj() @ y) ** 2
        picks = _picks(rates, rates, count, floor)
        states = vecs[:, picks]
        route = dense_route(None if run is None
                            else f"no certified selection in {steps} Lanczos steps")
        route["iterations"] = steps
    placed = np.zeros((len(ground), len(picks) + 1), dtype=complex, order="F")
    placed[:, 0] = ground
    if picks:
        bundle.place_reached(placed, np.arange(1, len(picks) + 1), states)
    return [(0, int(j)) for j in levels[picks]], placed, route
