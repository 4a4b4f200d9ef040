"""Truncated gauge-transformation unitaries and invariance verification.

Gauge transformations within the family live on the truncated space as
W = exp(-i (theta_to - theta_from) X); they are exactly unitary and compose
exactly, since all members share one Hermitian generator.  The checks here
compare spectra of two built Hamiltonians, measure the operator residual
||(W H W^dag - H') P_low|| on the low-energy Fock sector, and scan the
naive-versus-correct ground-state gap over a coupling grid.

The scan climbs its cutoff ladders rung-major.  Each ladder doubles the
Fock cutoff until a coupling's ground energy moves by less than the
tolerance; instead of one ladder per coupling, every coupling still
climbing is built, verified and solved at each rung as one stack, and a
coupling that meets the tolerance leaves the stack.  This is exact, not an
approximation: the scan's emitter `tls(omega0, eta sqrt(2 chi) x)` has the
generator X(eta) = eta X_1, so every member is the unit-coupling system at
scaled parameters (`coupling_scale` of `build_dipole` and `build_naive`),
the same Hamiltonian the coupling's own build would give up to rounding.
A stack is what costs: at these sizes (D <= 642) one build's fixed
overhead, not its eigensolve, dominated the scan.  A rung is split into
chunks of at most max(1, STACK_BYTES // (16 D^2)) members, so one chunk's
Hamiltonians take at most 8 MB and a grid of strong couplings that climbs
to large cutoffs runs in bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError
from .hamiltonians import (COULOMB, MULTIPOLAR, CouplingSet, HamiltonianBundle,
                           build_dipole, build_naive, standard_space)
from .hilbert import HilbertSpec, Operator, fock_mask
from .matter import tls
from .modes import ModeSet

DEFAULT_SPECTRAL_TOL = 1e-6
DEFAULT_LOW_FRACTION = 0.5
STACK_BYTES = 8_000_000  # complex Hamiltonians of one stacked ladder build


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

    W is formed here, unlike in `detect`, because the residual needs it on the
    K ~ D/2 columns of the low sector: at D = 602 and K = 302 (2 cores),
    forming W took 13 ms and the two products 20 ms, against 42 ms for
    applying W and W^dag factor by factor (`apply`) to the K columns alone.
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


def stack_chunk(dim: int) -> int:
    """Members of one stacked build at Hilbert dimension `dim`: at most STACK_BYTES
    of complex D x D Hamiltonians, and at least one."""
    return max(1, STACK_BYTES // (16 * dim * dim))


def _climb(build: Callable[[int, np.ndarray], HamiltonianBundle], members: int,
           chunk: Callable[[int], int], tol: float, start_cutoff: int,
           max_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(E0, cutoff) of `members` doubling-cutoff ladders, climbed rung-major.

    `build(n, idx)` returns one bundle over the stack of members `idx` at
    cutoff n, at most `chunk(n)` of them.  A member is done at the first rung
    whose ground energy differs from the previous rung's by less than tol,
    and leaves the stack; `ConvergenceError` if any is still climbing past
    `max_cutoff`.
    """
    e0 = np.full(members, np.nan)
    cutoff = np.zeros(members, dtype=int)
    live = np.arange(members)
    n = start_cutoff
    while live.size and n <= max_cutoff:
        size = chunk(n)
        now = np.concatenate([np.reshape(build(n, live[i:i + size]).eigenvalues(1), -1)
                              for i in range(0, live.size, size)])
        done = np.abs(now - e0[live]) < tol  # false on the first rung, where e0 is nan
        e0[live] = now
        cutoff[live[done]] = n
        live = live[~done]
        n *= 2
    if live.size:
        raise ConvergenceError(f"ground energy not converged at cutoff {max_cutoff}")
    return e0, cutoff


def converged_ground_energy(build: Callable[[int], HamiltonianBundle],
                            tol: float = 1e-7, start_cutoff: int = 20,
                            max_cutoff: int = 640) -> tuple[float, int]:
    """Ground energy by cutoff doubling until successive values differ by < tol:
    the one-member ladder of `ambiguity_scan`."""
    e0, cutoff = _climb(lambda n, _: build(n), 1, lambda n: 1, tol, start_cutoff, max_cutoff)
    return float(e0[0]), int(cutoff[0])


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
    Cutoffs are doubled until each ground energy is stable to `tol`; the three
    ladders (Coulomb, multipolar, naive) each climb every coupling of the grid
    at once, as stacks over the unit coupling scaled by eta.
    """
    etas = np.array([float(eta) for eta in eta_grid])
    ms, em = tls_single_mode_modeset(chi, 1.0, omega0)
    chunk = lambda n: stack_chunk(standard_space((n,) * ms.n_modes, em.n_levels).dim)

    def ladder(build):
        return _climb(lambda n, idx: build(n, etas[idx]), len(etas), chunk, tol,
                      start_cutoff, 640)

    e0_c, n_c = ladder(lambda n, scale: build_dipole(ms, em, COULOMB, n,
                                                     coupling_scale=scale))
    e0_mp, n_mp = ladder(lambda n, scale: build_dipole(ms, em, MULTIPOLAR, n,
                                                       coupling_scale=scale))
    e0_naive, n_nv = ladder(lambda n, scale: build_naive(ms, em, COULOMB, n, order=order,
                                                         coupling_scale=scale))
    cutoffs = np.maximum(np.maximum(n_c, n_mp), n_nv)
    return [AmbiguityRow(eta=float(eta), naive_gap=float(abs(nv - mp)),
                         correct_gap=float(abs(c - mp)), cutoff=int(n), converged=True)
            for eta, c, mp, nv, n in zip(etas, e0_c, e0_mp, e0_naive, cutoffs)]


def tls_single_mode_modeset(chi: float, eta: float, omega0: float):
    """Single-mode mode set plus two-level emitter realizing a given scalar eta."""
    em = tls(omega0, (float(eta) * np.sqrt(2 * chi), 0.0, 0.0))
    ms = ModeSet.single_mode(chi, {em.position_label: (1.0, 0.0, 0.0)})
    return ms, em
