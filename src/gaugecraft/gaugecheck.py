"""Gauge-invariance verification: spectra, the coupling scan, and its certificate.

Gauge transformations within the family live on the truncated space as
W = exp(-i (theta_to - theta_from) X) (`gauge_unitary`); they are exactly unitary
and compose exactly, since all members share one Hermitian generator.  Every member
is one theta-free matrix conjugated by diagonal phases in an eigenbasis of X, so a
comparison of the family with itself reads 0 by construction: the Coulomb and the
multipolar member of every family are one `MemberRecipe` with one spectrum, so
`correct_gap` is 0, and the correct verify pair, one recipe and so one solve owner,
is reported as zeros by `verify_spectral_equivalence` without solving it.  A naive
pair and two bundles of matrices built apart are solved and compared.

What certifies the correct ladder at run time is the canonical multipolar form,
written from its definition (`hamiltonians.canonical_terms`: H_F, the multipolar
drive, h0 and the P^2 term), which truncates the Fock space after the gauge map and
is no member of the family.  Where the couplings factor, the family's theta = 1
member approaches it as the cutoff converges.  `ambiguity_scan` takes the multipolar
member of the grid's strongest coupling at the rung where the correct ladder
converged, gets its ground vector v from the ladder's E0 by one shifted solve per
sector, placed with its theta = 1 phases or W_1, and reports
r = ||H_can v - E0 v||_2 (`canonical_residual`): some eigenvalue of the Hermitian
H_can lies within r of E0.  A wrong beta or wrong phases leave the family agreeing
with itself and fail this residual.  Couplings that do not factor (an emitter with
several dipole axes) have no certificate: their truncated eta_mu need not commute,
so H_can is not the limit of their theta = 1 member.

The scan climbs the scenario's own family, its couplings scaled to each
strength of the grid (X(c) = c X).  Its ladders double every per-mode cutoff
(`scan_cutoffs`) until a ground energy moves by less than the tolerance,
rung-major: every coupling still climbing is one member of a recipe.  Every family
climbs one correct and one naive ladder through its `ground_energies`, in chunks of
`stack_chunk` members within STACK_BYTES: one parity sector per member is solved
and the other certified by a Cholesky factorization.  A `sectored` family's chunk
is a stack, each member a copy of M0 plus O(n) writes; a `FockFormed` family forms,
verifies and solves each member in turn, all from the rung's one family (for
couplings that do not factor an `EigenbasisFamily`, whose members share one
eigendecomposition of X).  A naive ladder still climbing at the top rung gives a row
marked not converged; a correct one raises `ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError
from .hamiltonians import (MULTIPOLAR, CouplingSet, HamiltonianBundle, QuadratureFamily,
                           canonical_terms, couplings, polarization_squared)
from .hilbert import Eigenbasis, max_abs

DEFAULT_SPECTRAL_TOL = 1e-6
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


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two Hamiltonians believed gauge-equivalent."""

    k: int
    max_abs_diff: float
    per_level: np.ndarray
    cutoff: tuple
    converged: Optional[bool]

    def __post_init__(self):
        if np.any(np.asarray(self.per_level) < 0):
            raise ValueError("per-level differences must be nonnegative")


def verify_spectral_equivalence(h_a, h_b, k: int = 5,
                                tol: Optional[float] = DEFAULT_SPECTRAL_TOL) -> EquivalenceReport:
    """Compare the lowest k eigenvalues of two bundles on the same space.

    The report holds the per-level differences, their maximum and whether it is below tol
    (None without tol).  Two bundles of one solve owner (`HamiltonianBundle.owner`: one
    bundle with itself, or a correct pair of any family, which shares one recipe,
    `build_gauge_pair`) read one solution, so their differences are zeros and neither is
    solved.  Any other pair, a naive one or two bundles of matrices built apart, is
    solved and compared.  What guards the correct verdict at run time is the certificate of
    `ambiguity_scan`, the canonical residual of the correct ladder, which the
    dense-oracle tests back up.
    """
    if h_a.space != h_b.space:
        raise ValueError("bundles live on different spaces")
    if not 1 <= k <= h_a.space.dim:
        raise ValueError(f"k must be in [1, {h_a.space.dim}]")
    per_level = (np.zeros(k) if h_a.owner is h_b.owner
                 else np.abs(h_a.eigenvalues(k) - h_b.eigenvalues(k)))
    max_diff = float(per_level.max())
    cutoffs = tuple(h_a.metadata.get("cutoffs", ()))
    converged = None if tol is None else bool(max_diff < tol)
    return EquivalenceReport(k, max_diff, per_level, cutoffs, converged)


def canonical_residual(bundle: HamiltonianBundle, cs: CouplingSet, h0: np.ndarray,
                       e0: float) -> float:
    """r = ||H_can v - E0 v||_2 for a unit vector v of a multipolar member at its energy E0,
    H_can the canonical multipolar form of cs with matter term h0 + P^2 (`canonical_terms`)
    on the member's space, applied without forming it.  H_can is Hermitian, so one of its
    eigenvalues lies within r of E0.  v is the member's vector at E0 from one shifted solve
    per sector (`HamiltonianBundle.shifted_vector`), placed with its theta = 1 phases.
    """
    v = bundle.shifted_vector(e0)
    terms = canonical_terms(cs, h0 + polarization_squared(cs), bundle.space)
    r = (bundle.space.apply(terms, v) - e0 * v)[:, 0]
    # |r_i|^2 summed in index order, the order of the certificates reported so far: the norm
    # of one vector sums pairwise, which moves r by an ulp
    return float(np.sqrt(np.cumsum((r.conj() * r).real)[-1]))


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
                   order: int = 1) -> tuple[list[AmbiguityRow], Optional[float]]:
    """(rows, canonical residual): the naive-vs-correct ground-energy gaps of an emitter in a
    mode set, one row per coupling strength, and the certificate of the correct ladder.

    A grid entry eta scales the couplings to max|eta_mu| = |eta|, times the sign of eta;
    without a grid the scan runs at their own strength.  Per entry: correct_gap =
    |E0(theta=0) - E0(theta=1)| and naive_gap = |E0(naive Coulomb, given order) -
    E0(multipolar)|.  The ladders climb the rungs of `scan_cutoffs` until each ground
    energy is stable to `tol`, over one family of the couplings at strength 1 per rung,
    whose `ground_energies` solve each rung's members at scale eta, in chunks of
    `stack_chunk`.  A correct recipe does not read theta, so one correct ladder gives E0 at
    theta = 0 and 1, and correct_gap is 0 by construction; with the naive ladder that makes
    two.  A row is converged when its naive ladder is; `ConvergenceError` when the correct
    ladder is not.

    When the couplings factor (a `QuadratureFamily`), the multipolar member of the grid's
    largest |eta| at the rung where the correct ladder converged is built from that rung's
    family, and its `canonical_residual` at the ladder's E0 is returned; otherwise None.
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

    def solve(n, idx, naive_order=None):
        f = family(n)
        size = stack_chunk(f.space.dim // 2, f.time_reversal)
        chunks = [etas[idx[i:i + size]] for i in range(0, idx.size, size)]
        return np.concatenate([f.ground_energies(f.recipe(c, naive_order)) for c in chunks])

    e0, n_c, ok = _climb(solve, len(etas), tol, rungs)
    if not ok.all():
        raise ConvergenceError(f"ground energy not converged at cutoff {rungs[-1]}")
    residual = None
    if isinstance(family(rungs[0]), QuadratureFamily):
        top = int(np.argmax(np.abs(etas)))
        f, eta = family(int(n_c[top])), etas[top]
        member = HamiltonianBundle.in_quadrature_basis(f, MULTIPOLAR, f.recipe([eta]), {})
        residual = canonical_residual(member, CouplingSet(eta * unit.eta_matrices, unit.chi),
                                      em.h0, e0[top])
    e0_naive, n_nv, converged = _climb(partial(solve, naive_order=order), len(etas), tol, rungs)
    rows = zip(etas, e0, e0_naive, np.maximum(n_c, n_nv), converged)
    return [AmbiguityRow(float(eta), float(abs(nv - c)), 0.0, int(n), bool(ok))
            for eta, c, nv, n, ok in rows], residual
