"""Truncated gauge-transformation unitaries and invariance verification.

Gauge transformations within the family live on the truncated space as
W = exp(-i (theta_to - theta_from) X); they are exactly unitary and compose
exactly, since all members share one Hermitian generator.  The checks here
compare spectra of two built Hamiltonians, measure the operator residual
||(W H W^dag - H') P_low|| on the low-energy Fock sector, and scan the
naive-versus-correct ground-state gap over a coupling grid.

`gauge-check` works in the field-quadrature basis (`QuadratureFamily`)
whenever the system allows it, where X is diagonal: every gauge map is a
diagonal phase and every member of the family, correct or naive, is
elementwise work around one fixed matrix.  Other systems are built and
compared in the Fock basis.  The scan's ladders double the cutoff until a
coupling's ground energy moves by less than the tolerance, rung-major: at
each rung every coupling still climbing is one member of a stack (X(eta) =
eta X_1 scales the quadrature), in chunks of `stack_chunk(N + 1)` members so
that a chunk's real (N+1) x (N+1) blocks take at most STACK_BYTES.  A naive
ladder still climbing at the top rung gives a row marked not converged; a
correct one raises `ConvergenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hamiltonians import (COULOMB, MULTIPOLAR, CouplingSet, GaugeParam,
                           _check_cutoff_headroom, _real, build_dipole, build_naive, couplings,
                           standard_space)
from .hilbert import (HERMITIAN_TOL, UNITARY_TOL, HilbertSpec, Operator, fock_mask,
                      fock_quadrature, max_abs, member_max_abs, verify_members)
from .matter import EmitterSpec, tls
from .modes import ModeSet

DEFAULT_SPECTRAL_TOL = 1e-6
DEFAULT_LOW_FRACTION = 0.5
STACK_BYTES = 8_000_000  # real blocks held at once by one stacked ladder solve
MEMBER_BLOCKS = 6  # real (N+1)^2 blocks a member holds: complex A_0 and A_1, two real forms
MAX_CUTOFF = 640


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


def quadrature_split(ms: ModeSet, em: EmitterSpec):
    """(couplings, g, D) when `QuadratureFamily` takes the system, else None: one mode, a
    two-level emitter with a parity, and a nonzero coupling eta = g D that factors."""
    cs = couplings(ms, em)
    split = cs.common_matter_matrix()
    if cs.n_modes != 1 or em.n_levels != 2 or em.parity_signs is None or split is None:
        return None
    (g,), d = split
    return (cs, g, d) if g != 0 else None


def _reflected_quadrature(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, w): `fock_quadrature` with the columns of v signed so that (-1)^n w = w J, J the
    reversal of the columns (x_{N-i} = -x_i); checked here."""
    x, v = fock_quadrature(cutoff)
    n = cutoff + 1
    p = 1 - 2 * (np.arange(n) % 2)
    s = np.sign(np.einsum("n,ni,ni->i", p, v, v[:, ::-1]))
    w = v * np.where(np.arange(n) >= n - n // 2, s, 1.0)
    dev = max_abs(p[:, None] * w - w[:, ::-1])
    if dev >= UNITARY_TOL:
        raise InvariantViolation(f"photon parity does not reverse the quadrature basis ({dev:.3e})")
    return x, w


def _reflected_form(p: np.ndarray, q: np.ndarray, sign: int) -> np.ndarray:
    """(p + J p J + sign (q J - J q)) / 2 for a stack, J the reversal: with (p, q, sign) =
    (Re C, Im C, -1) the real part of (C + JCJ + i(CJ - JC)) / 2, with (Im C, Re C, +1)
    its imaginary part."""
    out = p + p[:, ::-1, ::-1]
    add, subtract = (np.add, np.subtract) if sign > 0 else (np.subtract, np.add)
    add(out, q[:, :, ::-1], out=out)
    subtract(out, q[:, ::-1, :], out=out)
    out *= 0.5
    return out


def _sectors(part: np.ndarray, anti: np.ndarray, diag: Optional[np.ndarray] = None):
    """`part` turned in place into each parity sector in turn, epsilon = +1 then -1: epsilon
    anti added on the antidiagonal and epsilon diag on the diagonal of every member, from
    the entries `part` had."""
    n = part.shape[-1]
    i, j = np.arange(n), np.arange(n)[::-1]
    base_diag, base_anti = part[:, i, i], part[:, i, j]
    for eps in (1, -1):
        part[:, i, i] = base_diag
        part[:, i, j] = base_anti + eps * anti
        if diag is not None:
            part[:, i, i] += eps * diag
        yield part


class QuadratureFamily:
    """The single-mode gauge family at one Fock cutoff N, in its field-quadrature basis.

    The basis is w (`_reflected_quadrature`) rotated by the phase of g, times
    the eigenvectors U of D, u_1 = S u_0.  There X = diag(|g| x_n lam_k), so
    in the matter-major order (k, n), n = N + 1, at coupling scale c

        H(theta) = [[A_0, B], [B^dag, A_1]],
        A_k = diag(e^{-i theta lam_k c x}) K diag(e^{i theta lam_k c x}) + h0'_kk,
        B = h0'_01 diag(e^{i (1 - theta) (lam_0 - lam_1) c x}),

    with K = w^T H_F w and h0' = U^dag h0 U; the naive theta = 0 series cuts
    B's exponential to its Taylor polynomial.  The parity (-1)^n (x) S is
    J (x) swap here, with sectors C = A_0 +- B J when A_1 = J A_0 J and
    B J = J B^dag.  Under time reversal, declared as by `build_dipole`, the
    basis is real and J C J = C^*, so (C + JCJ + i(CJ - JC)) / 2 is real
    symmetric with C's spectrum.
    """

    def __init__(self, ms: ModeSet, em: EmitterSpec, cutoff: int):
        split = quadrature_split(ms, em)
        if split is None:
            raise ValueError("the quadrature basis needs one mode, a two-level emitter with "
                             "a parity and a nonzero coupling that factors")
        self.cs, g, d = split
        self.cutoff, self.space = cutoff, standard_space((cutoff,), 2)
        self.time_reversal = _real(self.cs.chi, g, d, em.h0)
        lam, u = np.linalg.eigh(d.real if self.time_reversal else d)
        self.lam = np.array([lam[0], -lam[0]])
        u = np.column_stack([u[:, 0], em.parity_signs * u[:, 0]])
        self.h0 = u.conj().T @ em.h0 @ u
        x, self.w = _reflected_quadrature(cutoff)
        self.x = abs(g) * x
        self.k = (self.w.T * (self.cs.chi[0, 0].real * np.arange(cutoff + 1))) @ self.w

    def blocks(self, theta: float, scales, order: Optional[int] = None):
        """(A_0, A_1, b) of H(theta) at each coupling scale: stacks (S, n, n) and (S, n), b the
        diagonal of B.  With `order`, the naive theta = 0 series of that order."""
        if order is not None and theta != 0.0:
            raise ValueError("the naive series is built at theta = 0 only")
        t = np.multiply.outer(np.asarray(scales, dtype=float), self.x)
        diag = np.arange(self.cutoff + 1)
        a = []
        for lam, h in zip(self.lam, self.h0.diagonal()):
            p = np.exp(-1j * theta * lam * t)
            block = p[:, :, None] * self.k
            block *= p.conj()[:, None, :]
            block[:, diag, diag] += h
            a.append(block)
        z = 1j * (self.lam[0] - self.lam[1]) * t
        series = (np.exp((1.0 - theta) * z) if order is None
                  else sum(z**j / math.factorial(j) for j in range(order + 1)))
        return a[0], a[1], self.h0[0, 1] * series

    def spectra(self, a0: np.ndarray, a1: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues (S, 2n) of a stack of members (A_0, A_1, b), after measuring
        on the raw blocks, each member against HERMITIAN_TOL * max(1, its largest entry):
        Hermiticity, the parity, and under time reversal max|Im| of the real forms."""
        tol = HERMITIAN_TOL * np.maximum.reduce(
            [np.ones(len(b)), member_max_abs(a0), member_max_abs(a1), np.abs(b).max(axis=-1)])
        herm = [max(max_abs(p - p.conj().T), max_abs(q - q.conj().T)) for p, q in zip(a0, a1)]
        verify_members(np.array(herm), tol,
                       "quadrature-basis H is not Hermitian before symmetrization",
                       "max|A_k - A_k^dag|")
        off = [max(max_abs(p - q[::-1, ::-1]), max_abs(c - c[::-1].conj()))
               for p, q, c in zip(a0, a1, b)]
        verify_members(np.array(off), tol, "declared parity does not commute with H",
                       "max|A_0 - J A_1 J|, max|b - J b^*|")
        if not self.time_reversal:
            sectors = [np.linalg.eigvalsh(s) for s in _sectors(a0.copy(), b)]
            return np.sort(np.concatenate(sectors, axis=-1), axis=-1)
        # the real form of B J: half_sum on the antidiagonal, half_diff on the diagonal
        half_sum, half_diff = (b + b[:, ::-1]) / 2, 0.5j * (b - b[:, ::-1])
        im = _reflected_form(a0.imag, a0.real, +1)
        for sector in _sectors(im, half_sum.imag, half_diff.imag):
            verify_members(member_max_abs(sector), tol,
                           "declared time reversal does not hold",
                           "max|Im| of a sector's real form")
        del im
        re = _reflected_form(a0.real, a0.imag, -1)
        sectors = [np.linalg.eigvalsh(s) for s in _sectors(re, half_sum.real, half_diff.real)]
        return np.sort(np.concatenate(sectors, axis=-1), axis=-1)

    def bundle(self, g: GaugeParam, order: Optional[int] = None) -> "QuadratureBundle":
        """The Hamiltonian at unit coupling: the correct one at g, or with `order` the naive
        theta = 0 series.  A correct one warns of a short cutoff as `build_dipole` does."""
        if order is None:
            _check_cutoff_headroom((self.cutoff,), g.theta, self.cs)
        blocks = self.blocks(g.theta, [1.0], order)
        meta = {"builder": "quadrature", "truncation": "correct" if order is None else "naive",
                "cutoffs": (self.cutoff,), "theta": g.theta}
        return QuadratureBundle(self, g, blocks, self.spectra(*blocks)[0], meta)

    def residual(self, h_a: "QuadratureBundle", h_b: "QuadratureBundle",
                 low_fraction: float) -> float:
        """||(W H_a W^dag - H_b) P_low||_2: W is a diagonal phase, Delta = W H_a W^dag - H_b
        elementwise.  Delta and P_low keep the parity sectors, and the phase of g and U drop
        out: the norm is the larger of ||(Delta_00 +- Delta_01 J) w^T[:, low]||_2."""
        phase = np.exp(-1j * (h_b.gauge.theta - h_a.gauge.theta)
                       * np.multiply.outer(self.lam, self.x))
        (a0, _, ba), (b0, _, bb) = ([m[0] for m in h.blocks] for h in (h_a, h_b))
        d0 = phase[0][:, None] * a0 * phase[0].conj() - b0
        d01 = phase[0] * ba * phase[1].conj() - bb
        low = self.w[:int(np.floor(low_fraction * self.cutoff)) + 1].T  # as _low_sector_mask
        # ||M||_2^2 is the largest eigenvalue of M^dag M, to the same relative accuracy
        grams = [(m := s[0] @ low).conj().T @ m for s in _sectors(d0[None], d01)]
        return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1] for g in grams)))


class QuadratureBundle:
    """One Hamiltonian of a `QuadratureFamily` (blocks as stacks of one), in place of a
    `HamiltonianBundle` for `verify_spectral_equivalence`."""

    def __init__(self, family: QuadratureFamily, gauge: GaugeParam, blocks: tuple,
                 values: np.ndarray, metadata: dict):
        self.family, self.space, self.gauge = family, family.space, gauge
        self.blocks, self.values, self.metadata = blocks, values, metadata

    def eigenvalues(self, k: Optional[int] = None) -> np.ndarray:
        return self.values[:k]


def gauge_check_pair(ms: ModeSet, em: EmitterSpec, cutoff: int,
                     naive_order: Optional[int] = None):
    """gauge-check's Coulomb (correct, or naive of `naive_order`) and multipolar
    Hamiltonians: in the quadrature basis when `quadrature_split` takes the system."""
    if quadrature_split(ms, em) is not None:
        family = QuadratureFamily(ms, em, cutoff)
        return family.bundle(COULOMB, naive_order), family.bundle(MULTIPOLAR)
    coulomb = (build_dipole(ms, em, COULOMB, cutoff) if naive_order is None
               else build_naive(ms, em, COULOMB, cutoff, order=naive_order))
    return coulomb, build_dipole(ms, em, MULTIPOLAR, cutoff)


def verify_spectral_equivalence(h_a, h_b, k: int = 5,
                                low_fraction: float = DEFAULT_LOW_FRACTION,
                                tol: Optional[float] = DEFAULT_SPECTRAL_TOL,
                                cs: Optional[CouplingSet] = None) -> EquivalenceReport:
    """Compare the lowest k eigenvalues of two bundles on the same space.

    When the coupling set the bundles were built from is supplied, the
    operator residual ||(W H_a W^dag - H_b) P_low||_2 is evaluated with the
    connecting gauge unitary W, a diagonal phase for two `QuadratureBundle`s
    of one family; otherwise it is reported as nan.
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
        family = getattr(h_a, "family", None)
        if family is not getattr(h_b, "family", None):
            raise ValueError("an operator residual needs two bundles of one basis")
        if family is not None:
            residual = family.residual(h_a, h_b, low_fraction)
        else:
            w = gauge_unitary(h_a.space, cs, h_a.gauge.theta, h_b.gauge.theta).matrix
            keep = _low_sector_mask(h_a.space, low_fraction)
            # (W H_a W^dag - H_b) P_low keeps exactly the columns of the low sector
            delta = (w @ h_a.H.matrix @ w[keep].conj().T) - h_b.H.matrix[:, keep]
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

    `solve(n, idx)` returns the ground energies of the members `idx` at cutoff n,
    at most `stack_chunk(n + 1)` of them.  A member converges at the first rung whose ground
    energy differs from the previous rung's by less than tol, and leaves the stack;
    one still climbing past `max_cutoff` keeps its last rung's E0 and cutoff and is
    reported as not converged.
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


def _require(converged: np.ndarray, max_cutoff: int):
    if not converged.all():
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
    Cutoffs are doubled until each ground energy is stable to `tol`; the three
    ladders (Coulomb, multipolar, naive) each climb every coupling of the grid
    at once, as stacks over the unit-coupling `QuadratureFamily` of each
    cutoff.  A row is converged when its naive ladder is; `ConvergenceError`
    when a correct ladder is not.
    """
    etas = np.array([float(eta) for eta in eta_grid])
    family = cache(lambda n: QuadratureFamily(*tls_single_mode_modeset(chi, 1.0, omega0), n))

    def ladder(theta, naive_order=None):
        def solve(n, idx):
            f = family(n)
            return f.spectra(*f.blocks(theta, etas[idx], naive_order))[:, 0]
        return _climb(solve, len(etas), tol, start_cutoff, MAX_CUTOFF)

    e0_c, n_c, converged = ladder(0.0)
    _require(converged, MAX_CUTOFF)
    e0_mp, n_mp, converged = ladder(1.0)
    _require(converged, MAX_CUTOFF)
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
