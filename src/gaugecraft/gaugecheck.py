"""Truncated gauge-transformation unitaries and invariance verification.

Gauge transformations within the family live on the truncated space as
W = exp(-i (theta_to - theta_from) X); they are exactly unitary and compose
exactly, since all members share one Hermitian generator.  The checks here
compare spectra of two built Hamiltonians, measure the operator residual
||(W H W^dag - H') P_low|| on the low-energy Fock sector, and scan the
naive-versus-correct ground-state gap over a coupling grid.

The builders return a two-level emitter's Hamiltonians in the
field-quadrature basis of `hamiltonians.QuadratureFamily`, where X is
diagonal and every gauge map is a diagonal phase; two bundles of one such
basis are compared there, without forming W or H, and any other pair in the
Fock basis.  The parity sectors of a member are blocks A_0 +- B J with J the
reversal, and every member of the family, correct or naive, is elementwise
work around one fixed matrix.  The scan's ladders double the cutoff until a coupling's
ground energy moves by less than the tolerance, rung-major: at each rung every coupling
still climbing is one member of a stack (X(eta) = eta X_1 scales the quadrature), in
chunks of `stack_chunk(N + 1)` members so that a chunk's real (N+1) x (N+1) blocks take at
most STACK_BYTES.  A rung solves the parity sector of the uncoupled ground state and
certifies the other by a Cholesky factorization (`QuadratureFamily.ground_energies`).  A
naive ladder still climbing at the top rung gives a row marked not converged; a correct
one raises `ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError
from .hamiltonians import CouplingSet, QuadratureFamily
from .hilbert import HilbertSpec
from .matter import tls
from .modes import ModeSet

DEFAULT_SPECTRAL_TOL = 1e-6
DEFAULT_LOW_FRACTION = 0.5
STACK_BYTES = 8_000_000  # real blocks held at once by one stacked ladder solve
MEMBER_BLOCKS = 6  # real (N+1)^2 blocks per member: complex A_0, A_1, a sector, one temporary
MAX_CUTOFF = 640


def gauge_unitary(space: HilbertSpec, cs: CouplingSet,
                  theta_from: float, theta_to: float) -> np.ndarray:
    """W = exp(-i (theta_to - theta_from) X), exactly unitary on the truncated space, formed
    in the generator's eigenbasis."""
    return cs.generator(space).apply(-(theta_to - theta_from), np.eye(space.dim))


def _low_sector_mask(space: HilbertSpec, fraction: float = DEFAULT_LOW_FRACTION) -> np.ndarray:
    """Boolean mask of the product states with every photon number <= fraction * cutoff;
    the diagonal of the projector P_low."""
    keep = np.ones(1, dtype=bool)
    for f in space.factors:
        local = np.ones(f.dim, dtype=bool)
        if f.kind == "photon":
            local[int(np.floor(fraction * f.fock_cutoff)) + 1:] = False
        keep = np.logical_and.outer(keep, local).ravel()
    return keep


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


def verify_spectral_equivalence(h_a, h_b, k: int = 5,
                                low_fraction: float = DEFAULT_LOW_FRACTION,
                                tol: Optional[float] = DEFAULT_SPECTRAL_TOL,
                                cs: Optional[CouplingSet] = None) -> EquivalenceReport:
    """Compare the lowest k eigenvalues of two bundles on the same space.

    When the coupling set the bundles were built from is supplied, the
    operator residual ||(W H_a W^dag - H_b) P_low||_2 is evaluated with the
    connecting gauge unitary W, a diagonal phase for two bundles in one
    quadrature basis (`QuadratureFamily.same_basis`), else formed in the Fock
    basis; without it the residual is reported as nan.
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
        if h_a.family is not None and h_b.family is not None and h_a.family.same_basis(h_b.family):
            residual = h_a.family.residual(h_a, h_b, low_fraction)
        else:
            w = gauge_unitary(h_a.space, cs, h_a.gauge.theta, h_b.gauge.theta)
            keep = _low_sector_mask(h_a.space, low_fraction)
            # (W H_a W^dag - H_b) P_low keeps exactly the columns of the low sector
            delta = (w @ h_a.H @ w[keep].conj().T) - h_b.H[:, keep]
            residual = float(np.linalg.norm(delta, 2))
    max_diff = float(per_level.max())
    cutoffs = tuple(h_a.metadata.get("cutoffs", ()))
    converged = None if tol is None else bool(max_diff < tol)
    return EquivalenceReport(k, max_diff, per_level, residual, cutoffs, converged)


def stack_chunk(n: int) -> int:
    """Members of one stacked ladder solve at block size n = N + 1: the MEMBER_BLOCKS real
    n x n blocks each member holds at once take at most STACK_BYTES, and at least one."""
    return max(1, STACK_BYTES // (MEMBER_BLOCKS * 8 * n * n))


def _climb(solve: Callable[[int, np.ndarray], np.ndarray], members: int, tol: float,
           start_cutoff: int, max_cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E0, cutoff, converged) of `members` doubling-cutoff ladders, climbed rung-major.

    `solve(n, idx)` returns the ground energies of the members `idx` at cutoff n, at most
    `stack_chunk(n + 1)` of them; the scan's solve diagonalizes one parity sector and
    certifies the other.  A member converges at the first rung whose ground energy differs
    from the previous rung's by less than tol, and leaves the stack; one still climbing
    past `max_cutoff` keeps its last rung's E0 and cutoff and is reported as not converged.
    """
    e0 = np.full(members, np.nan)
    cutoff = np.zeros(members, dtype=int)
    live = np.arange(members)
    n = start_cutoff
    while live.size and n <= max_cutoff:
        size = stack_chunk(n + 1)
        now = np.concatenate([solve(n, live[i:i + size]) for i in range(0, live.size, size)])
        done = np.abs(now - e0[live]) < tol  # false on the first rung, where e0 is nan
        e0[live] = now
        cutoff[live] = n
        live = live[~done]
        n *= 2
    converged = np.ones(members, dtype=bool)
    converged[live] = False
    return e0, cutoff, converged


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
    at once, as stacks over the unit-coupling `QuadratureFamily` of each
    cutoff.  A row is converged when its naive ladder is; `ConvergenceError`
    when a correct ladder is not.
    """
    etas = np.array([float(eta) for eta in eta_grid])
    family = cache(lambda n: QuadratureFamily.of(*tls_single_mode_modeset(chi, 1.0, omega0), n))

    def ladder(theta, naive_order=None):
        def solve(n, idx):
            f = family(n)
            return f.ground_energies(*f.blocks(theta, etas[idx], naive_order))
        return _climb(solve, len(etas), tol, start_cutoff, MAX_CUTOFF)

    (e0_c, n_c, ok_c), (e0_mp, n_mp, ok_mp) = ladder(0.0), ladder(1.0)
    if not (ok_c.all() and ok_mp.all()):
        raise ConvergenceError(f"ground energy not converged at cutoff {MAX_CUTOFF}")
    e0_naive, n_nv, converged = ladder(0.0, order)
    cutoffs = np.maximum(np.maximum(n_c, n_mp), n_nv)
    return [AmbiguityRow(eta=float(eta), naive_gap=float(abs(nv - mp)),
                         correct_gap=float(abs(c - mp)), cutoff=int(n), converged=bool(ok))
            for eta, c, mp, nv, n, ok in zip(etas, e0_c, e0_mp, e0_naive, cutoffs, converged)]


def tls_single_mode_modeset(chi: float, eta: float, omega0: float):
    """Single-mode mode set plus two-level emitter realizing a given scalar eta."""
    em = tls(omega0, (float(eta) * np.sqrt(2 * chi), 0.0, 0.0))
    ms = ModeSet.single_mode(chi, {em.position_label: (1.0, 0.0, 0.0)})
    return ms, em
