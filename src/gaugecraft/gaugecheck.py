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
Fock basis.  The gauge phases act only on vectors: the parity sectors of every
member, correct or naive, are M0 +- diag(beta) J around the family's one
theta-free M0 = K + h0'_00, J the reversal, and a member adds only its O(n)
vector beta, which does not read theta.  So the residual of two members of one
M0 is their beta difference on the low sector, and a correct member is one
recipe and one sector solve whatever its theta: for a `sectored` family the
Coulomb and the multipolar member are the same sectors, and `correct_gap` and
the correct verify pair's eigenvalue difference and residual are 0 by
construction.  The tests that form both members in the Fock basis with the
dense oracle guard their gauge equivalence.
The scan climbs the scenario's own family, its couplings scaled to each
strength of the grid (X(c) = c X).  Its ladders double every per-mode cutoff
(`scan_cutoffs`) until a ground energy moves by less than the tolerance,
rung-major: every coupling still climbing is one member of a stack.  A
`sectored` family climbs one correct and one naive ladder, in chunks of
`stack_chunk` members within STACK_BYTES, each a copy of M0 plus O(n) writes:
one parity sector per member is solved and the other certified by a Cholesky
factorization (`ground_energies`).  Any other system climbs a Coulomb, a
multipolar and a naive ladder and builds each member on its own, from the
rung's one family: for couplings that do not factor an `EigenbasisFamily`, whose
members share one eigendecomposition of X.  A naive
ladder still climbing at the top rung gives a row marked not converged; a
correct one raises `ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError
from .hamiltonians import CouplingSet, GaugeParam, QuadratureFamily, _family_bundle, couplings
from .hilbert import Eigenbasis, HilbertSpec, max_abs

DEFAULT_SPECTRAL_TOL = 1e-6
DEFAULT_LOW_FRACTION = 0.5
STACK_BYTES = 8_000_000  # bytes held at once by one stacked ladder solve
# real n x n blocks a member holds at once, by time reversal: its copy of M0, turned from
# one sector into the other, and the Cholesky factor of that one, real under time reversal
# (1 + 1), else complex (2 + 2).  Its O(n) vectors (beta, the real form of diag(beta) J, a
# sector's saved diagonals) measured 82-92 n bytes (74-82 n complex) for n = 21-161 at 16
# members; counting 96 n leaves room for the chunk's fixed temporaries.
MEMBER_BLOCKS = {True: 2, False: 4}
MEMBER_VECTOR_BYTES = 96
MIN_DIM = 42  # member dimension of the scan's first rung: N = 20 for one mode, two levels
MAX_DIM = 1282  # largest member dimension of a rung: N = 640 for one mode, two levels


def gauge_unitary(basis: Eigenbasis, theta_from: float, theta_to: float) -> np.ndarray:
    """W = exp(-i (theta_to - theta_from) X), exactly unitary on the truncated space, formed
    in X's eigenbasis: a gauge family's `basis`, or `CouplingSet.generator`."""
    return basis.apply(-(theta_to - theta_from), np.eye(len(basis.xi)))


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
                                basis: Optional[Eigenbasis] = None) -> EquivalenceReport:
    """Compare the lowest k eigenvalues of two bundles on the same space.

    When the eigenbasis of the generator X the bundles were built from is
    supplied (the pair's family's `basis`, or `CouplingSet.generator`), the
    operator residual ||(W H_a W^dag - H_b) P_low||_2 is evaluated with the
    connecting gauge unitary W, a diagonal phase for two bundles in one
    quadrature basis (`QuadratureFamily.same_basis`), else formed in the Fock
    basis from `basis` (`gauge_unitary`); without it the residual is reported as
    nan.  The correct pair of a `sectored` family shares one recipe and one sector
    solve (`build_gauge_pair`), so its eigenvalue difference and residual are 0 by
    construction: the dense-oracle tests, which form both members in the Fock basis,
    guard its gauge equivalence.
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
    if basis is not None:
        if h_a.family is not None and h_b.family is not None and h_a.family.same_basis(h_b.family):
            residual = h_a.family.residual(h_a, h_b, low_fraction)
        else:
            w = gauge_unitary(basis, h_a.gauge.theta, h_b.gauge.theta)
            keep = _low_sector_mask(h_a.space, low_fraction)
            # (W H_a W^dag - H_b) P_low keeps exactly the columns of the low sector
            delta = (w @ h_a.H @ w[keep].conj().T) - h_b.H[:, keep]
            residual = float(np.linalg.norm(delta, 2))
    max_diff = float(per_level.max())
    cutoffs = tuple(h_a.metadata.get("cutoffs", ()))
    converged = None if tol is None else bool(max_diff < tol)
    return EquivalenceReport(k, max_diff, per_level, residual, cutoffs, converged)


def stack_chunk(n: int, time_reversal: bool) -> int:
    """Members of one stacked ladder solve at sector size n: the MEMBER_BLOCKS real n x n
    blocks and MEMBER_VECTOR_BYTES n bytes each member holds at once take at most
    STACK_BYTES, and at least one."""
    member = MEMBER_BLOCKS[time_reversal] * 8 * n * n + MEMBER_VECTOR_BYTES * n
    return max(1, STACK_BYTES // member)


def scan_cutoffs(n_modes: int, levels: int) -> list[int]:
    """The per-mode cutoffs of the scan's rungs: from the smallest N >= 1 whose member
    dimension L (N + 1)^M is at least MIN_DIM, doubled while it is at most MAX_DIM."""
    n = 1
    while levels * (n + 1) ** n_modes < MIN_DIM:
        n += 1
    return [n << k for k in range(MAX_DIM.bit_length())
            if levels * ((n << k) + 1) ** n_modes <= MAX_DIM]


def _climb(solve: Callable[[int, np.ndarray], np.ndarray], members: int, tol: float,
           rungs: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E0, cutoff, converged) of `members` doubling-cutoff ladders, climbed rung-major.

    `solve(n, idx)` returns the ground energies of the members `idx` at per-mode cutoff n.
    A member converges at the first rung whose ground energy differs from the previous
    rung's by less than tol, and leaves the stack; one still climbing at the last rung
    keeps that rung's E0 and cutoff and is reported as not converged.
    """
    e0 = np.full(members, np.nan)
    cutoff = np.zeros(members, dtype=int)
    live = np.arange(members)
    for n in rungs:
        if not live.size:
            break
        now = solve(n, live)
        done = np.abs(now - e0[live]) < tol  # false on the first rung, where e0 is nan
        e0[live] = now
        cutoff[live] = n
        live = live[~done]
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


def ambiguity_scan(ms, em, eta_grid: Optional[Sequence[float]] = None, tol: float = 1e-7,
                   order: int = 1) -> list[AmbiguityRow]:
    """Naive-vs-correct ground-energy gaps of an emitter in a mode set, per coupling strength.

    A grid entry eta scales the couplings to max|eta_mu| = |eta|, times the sign of eta;
    without a grid the scan runs at their own strength.  Per entry: correct_gap =
    |E0(theta=0) - E0(theta=1)| (expected to vanish) and naive_gap = |E0(naive Coulomb,
    given order) - E0(multipolar)|.  The ladders climb the rungs of `scan_cutoffs`
    until each ground energy is stable to `tol`, over one family of the couplings at
    strength 1 per rung.  A `sectored` family climbs as stacks, and its correct members'
    recipes do not read theta, so one correct ladder gives E0 at theta = 0 and 1 and
    correct_gap is 0 by construction (the dense-oracle tests guard it); with the naive
    ladder that makes two.  Any other family climbs the Coulomb and the multipolar ladder
    apart, member by member (`_family_bundle`) at scale eta, so that K is formed once per
    rung, and for couplings that do not factor X is eigendecomposed once per rung.  A row
    is converged when its naive ladder is; `ConvergenceError` when a correct ladder is not.
    """
    cs = couplings(ms, em)
    strength = max_abs(cs.eta_matrices)
    etas = np.array([strength] if eta_grid is None else [float(eta) for eta in eta_grid])
    if strength == 0.0 and np.any(etas):
        raise ConfigError("the couplings are all zero: no strength but 0 scales them")
    unit = CouplingSet(cs.eta_matrices / (strength or 1.0), cs.chi)
    rungs = scan_cutoffs(cs.n_modes, cs.matter_dim)
    if not rungs:
        raise ConfigError(f"no cutoff ladder: every member dimension exceeds {MAX_DIM}")
    family = cache(lambda n: QuadratureFamily.of_couplings(unit, em.h0, em.parity_signs,
                                                           (n,) * cs.n_modes))
    sectored = family(rungs[0]).sectored

    def ladder(theta, naive_order=None):
        def solve(n, idx):
            f = family(n)
            if not sectored:
                return np.array([_family_bundle(
                    unit, em.h0, em.parity_signs, (n,) * cs.n_modes, GaugeParam(theta), {},
                    naive_order, family=f, scale=eta).eigenvalues(1)[0] for eta in etas[idx]])
            size = stack_chunk(len(f.x), f.time_reversal)
            chunks = [etas[idx[i:i + size]] for i in range(0, idx.size, size)]
            return np.concatenate([f.ground_energies(f.recipe(c, naive_order)) for c in chunks])
        return _climb(solve, len(etas), tol, rungs)

    e0_c, n_c, ok_c = correct = ladder(0.0)
    e0_mp, n_mp, ok_mp = correct if sectored else ladder(1.0)
    if not (ok_c.all() and ok_mp.all()):
        raise ConvergenceError(f"ground energy not converged at cutoff {rungs[-1]}")
    e0_naive, n_nv, converged = ladder(0.0, order)
    cutoffs = np.maximum(np.maximum(n_c, n_mp), n_nv)
    return [AmbiguityRow(eta=float(eta), naive_gap=float(abs(nv - mp)),
                         correct_gap=float(abs(c - mp)), cutoff=int(n), converged=bool(ok))
            for eta, c, mp, nv, n, ok in zip(etas, e0_c, e0_mp, e0_naive, cutoffs, converged)]
