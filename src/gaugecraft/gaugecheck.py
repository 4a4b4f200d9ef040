"""Truncated gauge-transformation unitaries and invariance verification.

Gauge transformations within the family live on the truncated space as
W = exp(-i (theta_to - theta_from) X); they are exactly unitary and compose
exactly, since all members share one Hermitian generator.  The checks here
compare spectra of two built Hamiltonians, measure the operator residual
||(W H W^dag - H') P_low|| on the low-energy Fock sector, and scan the
naive-versus-correct ground-state gap over a coupling grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError
from .hamiltonians import (COULOMB, MULTIPOLAR, CouplingSet, HamiltonianBundle,
                           build_dipole, build_naive)
from .hilbert import HilbertSpec, Operator, fock_mask
from .matter import tls
from .modes import ModeSet

DEFAULT_SPECTRAL_TOL = 1e-6
DEFAULT_LOW_FRACTION = 0.5


def gauge_unitary(space: HilbertSpec, cs: CouplingSet,
                  theta_from: float, theta_to: float) -> Operator:
    """W = exp(-i (theta_to - theta_from) X), exactly unitary on the truncated space."""
    return cs.generator(space).unitary(-(theta_to - theta_from))


def _low_sector_mask(space: HilbertSpec, fraction: float = DEFAULT_LOW_FRACTION) -> np.ndarray:
    """Boolean mask of product states with every photon number <= fraction * cutoff."""
    return fock_mask(space, lambda cutoff: int(np.floor(fraction * cutoff)))


def low_sector_projector(space: HilbertSpec, fraction: float = DEFAULT_LOW_FRACTION) -> np.ndarray:
    """Projector onto product states with every photon number <= fraction * cutoff."""
    return np.diag(_low_sector_mask(space, fraction)).astype(complex)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two Hamiltonians believed gauge-equivalent."""

    k: int
    max_abs_diff: float
    per_level: np.ndarray
    operator_residual: float
    cutoff: tuple
    converged: Optional[bool]

    def __post_init__(self):
        if np.any(np.asarray(self.per_level) < 0):
            raise ValueError("per-level differences must be nonnegative")


def verify_spectral_equivalence(h_a: HamiltonianBundle, h_b: HamiltonianBundle,
                                k: int = 5, low_fraction: float = DEFAULT_LOW_FRACTION,
                                tol: Optional[float] = DEFAULT_SPECTRAL_TOL,
                                cs: Optional[CouplingSet] = None) -> EquivalenceReport:
    """Compare the lowest k eigenvalues of two bundles on the same space.

    When a coupling set is supplied (or both bundles carry theta metadata from
    the dipole builder family), the operator residual
    ||(W H_a W^dag - H_b) P_low||_2 is evaluated with the connecting gauge
    unitary; otherwise it is reported as nan.
    """
    if h_a.space != h_b.space:
        raise ValueError("bundles live on different spaces")
    dim = h_a.space.dim
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}]")
    ev_a = h_a.eigenvalues(k)
    ev_b = h_b.eigenvalues(k)
    per_level = np.abs(ev_a - ev_b)
    residual = float("nan")
    if cs is not None:
        w = gauge_unitary(h_a.space, cs, h_a.gauge.theta, h_b.gauge.theta).matrix
        keep = _low_sector_mask(h_a.space, low_fraction)
        # (W H_a W^dag - H_b) P_low keeps exactly the columns of the low sector
        delta = (w @ h_a.H.matrix @ w[keep].conj().T) - h_b.H.matrix[:, keep]
        residual = float(np.linalg.norm(delta, 2))
    max_diff = float(per_level.max())
    cutoffs = tuple(h_a.metadata.get("cutoffs", ()))
    converged = None if tol is None else bool(max_diff < tol)
    return EquivalenceReport(k, max_diff, per_level, residual, cutoffs, converged)


def converged_spectral_equivalence(build_pair: Callable[[int], tuple],
                                   k: int = 5, tol: float = DEFAULT_SPECTRAL_TOL,
                                   start_cutoff: int = 20, max_cutoff: int = 320,
                                   cs_for: Optional[Callable[[int], CouplingSet]] = None
                                   ) -> EquivalenceReport:
    """Doubling-cutoff protocol: accept when the reported max diff stabilizes.

    `build_pair(cutoff)` returns the two bundles; the report at cutoff N is
    accepted once the max-abs eigenvalue diff changes by less than 10% of the
    tolerance between N and 2N.
    """
    n = start_cutoff
    prev = None
    while n <= max_cutoff:
        h_a, h_b = build_pair(n)
        cs = cs_for(n) if cs_for is not None else None
        rep = verify_spectral_equivalence(h_a, h_b, k=k, tol=tol, cs=cs)
        if prev is not None and abs(rep.max_abs_diff - prev.max_abs_diff) < 0.1 * tol:
            return EquivalenceReport(rep.k, rep.max_abs_diff, rep.per_level,
                                     rep.operator_residual, (n,), rep.max_abs_diff < tol)
        prev = rep
        n *= 2
    raise ConvergenceError(
        f"spectral equivalence did not stabilize up to cutoff {max_cutoff} "
        f"(last max diff {prev.max_abs_diff:.3e})")


def converged_ground_energy(build: Callable[[int], HamiltonianBundle],
                            tol: float = 1e-7, start_cutoff: int = 20,
                            max_cutoff: int = 640) -> tuple[float, int]:
    """Ground energy by cutoff doubling until successive values differ by < tol."""
    n = start_cutoff
    prev = None
    while n <= max_cutoff:
        e0 = float(build(n).eigenvalues(1)[0])
        if prev is not None and abs(e0 - prev) < tol:
            return e0, n
        prev = e0
        n *= 2
    raise ConvergenceError(f"ground energy not converged at cutoff {max_cutoff}")


@dataclass(frozen=True)
class AmbiguityRow:
    eta: float
    naive_gap: float
    correct_gap: float
    cutoff: int
    converged: bool


def ambiguity_scan(chi: float, omega0: float, eta_grid: Sequence[float],
                   start_cutoff: int = 20, tol: float = 1e-7,
                   order: int = 1) -> list[AmbiguityRow]:
    """Naive-vs-correct ground-energy gaps for a single-mode two-level scenario.

    Per coupling eta: correct_gap = |E0(theta=0) - E0(theta=1)| (expected to
    vanish) and naive_gap = |E0(naive Coulomb, given order) - E0(multipolar)|.
    Cutoffs are doubled until each ground energy is stable to `tol`.
    """
    rows = []
    for eta in eta_grid:
        ms, em = tls_single_mode_modeset(chi, eta, omega0)
        e0_c, n_c = converged_ground_energy(
            lambda n: build_dipole(ms, em, COULOMB, n), tol, start_cutoff)
        e0_mp, n_mp = converged_ground_energy(
            lambda n: build_dipole(ms, em, MULTIPOLAR, n), tol, start_cutoff)
        e0_naive, n_nv = converged_ground_energy(
            lambda n: build_naive(ms, em, COULOMB, n, order=order), tol, start_cutoff)
        cutoff = max(n_c, n_mp, n_nv)
        rows.append(AmbiguityRow(
            eta=float(eta),
            naive_gap=abs(e0_naive - e0_mp),
            correct_gap=abs(e0_c - e0_mp),
            cutoff=cutoff,
            converged=True,
        ))
    return rows


def tls_single_mode_modeset(chi: float, eta: float, omega0: float):
    """Single-mode mode set plus two-level emitter realizing a given scalar eta."""
    em = tls(omega0, (float(eta) * np.sqrt(2 * chi), 0.0, 0.0))
    ms = ModeSet.single_mode(chi, {em.position_label: (1.0, 0.0, 0.0)})
    return ms, em
