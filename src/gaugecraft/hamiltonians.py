"""Correctly-truncated light-matter Hamiltonians in a one-parameter gauge family.

The family interpolates between the Coulomb form (theta = 0) and the
multipolar form (theta = 1).  With mode couplings eta_mu and the Hermitian
generator

    X = sum_mu (eta_mu a_mu^dag + eta_mu^* a_mu) (x) D,

where D is the dipole-direction matter matrix (sigma_x for a two-level
emitter), the builders return

    H(theta) = V H_F V^dag + U H_0 U^dag,
    V = exp(-i theta X),  U = exp(+i (1 - theta) X),

with both exponentials evaluated exactly on the truncated space.  Because
every member is conjugated from the same generator, the family is exactly
unitarily equivalent at any Fock cutoff; the physically-interesting breakdown
appears in the `build_naive` reference builders, which truncate the canonical
algebra instead.

When every coupling matrix is a multiple of one Hermitian matter matrix,
eta_mu = g_mu D (always for the parity-symmetric two-level emitter of
`matter.tls`, and for any emitter whose dipole has a single axis), the
generator factors as X = sum_mu phi_mu (x) D with local
phi_mu = g_mu a_mu^dag + g_mu^* a_mu, and X is diagonal in the
field-quadrature basis of `QuadratureFamily`, built from the (g, D) of
`common_matter_matrix` without a D x D eigendecomposition.  Couplings that
do not factor (an N-level emitter coupled through several dipole axes) take
the dense `HermitianGenerator`.  `HamiltonianBundle` checks each assembled
matrix once for Hermiticity before it symmetrizes away the rounding; a
quadrature-basis bundle is checked on its raw blocks.

The family keeps the emitter's parity at any Fock cutoff.  Let
Pi = (-1)^(sum_mu n_mu) (x) S with S = diag(s), s_i = +-1, the signs of
`EmitterSpec.parity_signs`.  A truncated ladder links n only to n +- 1, so
(-1)^n a (-1)^n = -a holds exactly on the truncated space; the couplings are
odd, S eta_mu S = -eta_mu, and h0 is diagonal.  Hence X is even under Pi, and
so are exp(i s X), H_F, H_0, every H(theta), and the naive builders, whose
terms are nested commutators with X or products a (x) eta^dag.  `build_dipole`
(with or without the longitudinal hook, whose auxiliary factor joins the
photon factors), `build_naive`, the 1D and the beyond-dipole Coulomb
builders declare Pi on their bundle, which verifies it and diagonalizes the
even and odd sectors separately.  The beyond-dipole multipolar form and H(t)
declare none: its drive g_even,mu 1 is even under S.

The family is also time-reversal symmetric whenever chi, every eta_mu and h0
are real.  Let P = (-1)^(sum_mu n_mu) on the photon factors and K be complex
conjugation.  The truncated a is real, so real couplings give K X K = X, and
P X P = -X as above; hence P K exp(i s X) K P = exp(i s X), and P K commutes
with H_F, H_0 and every H(theta).  It commutes with the naive builders too:
each of their terms pairs an odd power of i with an odd power of a or X, or
an even power with an even one.  With the phases p = i^[sum_mu n_mu odd],
p^dag H p is therefore real symmetric.  `build_dipole` (without the
longitudinal hook), `build_naive`, the 1D builders and the beyond-dipole
Coulomb form declare it when their inputs are real; `HamiltonianBundle`
verifies it and solves each sector in real arithmetic.  A complex chi (a
lossy grid's) or complex couplings, the hook and the beyond-dipole
multipolar form declare nothing.

Every builder is a `CouplingSet` fed to one of two cores; the models differ
only in their couplings.  The gauge-family core, `QuadratureFamily`, gives
every exact-conjugation member whose couplings factor, for any number of
levels and modes and per-mode cutoffs: `build_dipole` (with or without the
longitudinal hook), the theta = 0 `build_naive`, the beyond-dipole Coulomb
form (eta_mu = (eta_bar_mu / 2) sigma_x) and the 1D gC form
(eta_mu = h_mu(x0) d_hat / sqrt(2 omega_mu)).  In its basis every gauge map
is a diagonal phase, so H(theta) is diagonal phases around the fixed
K = w^dag H_F w and h0.  A two-level emitter with a parity is solved there
in its two parity sectors, without forming H in the Fock basis; every other
member is formed in the Fock basis once, where the hook appends its factor
and the bundle verifies and solves it.  The same members of couplings that
do not factor come from the dense `HermitianGenerator` (`conjugate`, and
`nested_commutators` for the naive series).  The canonical multipolar core,
`_multipolar_bundle`, sums H_F, `multipolar_interaction` and a matter term
(h0, with `polarization_squared` or without) for the theta = 1 naive builder
and the beyond-dipole and 1D multipolar forms.  H(t) is written in the
generator's eigenbasis (`CouplingSet.generator`), where each gauge map is a
diagonal phase.  No builder is written out by hand: the dense forms the cores
are checked against (the embedded-product `DenseSystem`, the single-mode
two-level Coulomb and multipolar forms, and the beyond-dipole and 1D
Hamiltonians term by term) live with the tests.

Beyond-dipole builders for effective single-particle emitters, normal-mode
(lossless 1D dielectric) builders in the generalized Coulomb/multipolar
gauges, and time-dependent coupling variants are provided alongside.
Units: hbar = eps0 = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hilbert import (HERMITIAN_TOL, Eigenbasis, HermitianGenerator, HilbertSpec, PAULI_X,
                      PAULI_Z, _kron_apply, fock_quadrature, hermitian_part, kron,
                      ladder_matrix, matter_levels, max_abs, member_max_abs, mode_phase,
                      parity_labels, photon, verify_members)
from .matter import EmitterSpec, TimeProfile
from .modes import ModeSet, NormalModeSet1D

TD_EXTRA_TERM_SIGN = +1.0
FACTOR_TOL = 1e-12
TLS_PARITY_SIGNS = (1, -1)  # sigma_z in the |e>, |g> order: S sigma_x S = -sigma_x


class FockCutoffWarning(UserWarning):
    """Fock cutoff likely too small for the requested displacement."""


@dataclass(frozen=True)
class GaugeParam:
    """Gauge-family parameter theta in [0, 1]; 0 is Coulomb, 1 is multipolar."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


COULOMB = GaugeParam(0.0)
MULTIPOLAR = GaugeParam(1.0)


@dataclass(frozen=True)
class CouplingSet:
    """Dimensionless couplings eta_mu = d.f*_mu(x0) / sqrt(2 chi_mm) per mode.

    For an N-level emitter each eta_mu is an N x N matter matrix built from
    the dipole matrix; `scalars` extracts the plain numbers for a two-level
    emitter with sigma_x dipole.
    """

    eta_matrices: np.ndarray  # (M, N, N) complex
    chi: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta_matrices, dtype=complex)
        chi = np.atleast_2d(np.asarray(self.chi, dtype=complex))
        if eta.ndim != 3 or eta.shape[1] != eta.shape[2]:
            raise ValueError("eta_matrices must have shape (M, N, N)")
        if chi.shape != (eta.shape[0],) * 2:
            raise ValueError("chi must be MxM")
        if not np.all(np.isfinite(eta)):
            raise InvariantViolation("couplings must be finite")
        object.__setattr__(self, "eta_matrices", eta)
        object.__setattr__(self, "chi", chi)

    @property
    def n_modes(self) -> int:
        return self.eta_matrices.shape[0]

    @property
    def matter_dim(self) -> int:
        return self.eta_matrices.shape[1]

    @property
    def scalars(self) -> np.ndarray:
        """Per-mode scalar eta for a two-level sigma_x-type dipole."""
        if self.matter_dim != 2:
            raise ValueError("scalar couplings only defined for two-level emitters")
        eta = self.eta_matrices
        for mu in range(self.n_modes):
            if (abs(eta[mu, 0, 0]) > 1e-12 or abs(eta[mu, 1, 1]) > 1e-12
                    or abs(eta[mu, 0, 1] - eta[mu, 1, 0]) > 1e-12):
                raise ValueError("coupling matrix is not proportional to sigma_x")
        return eta[:, 0, 1]

    def _check_space(self, space: HilbertSpec) -> int:
        """Index of the matter factor of a space that matches these couplings."""
        if len(space.photon_indices) != self.n_modes or len(space.matter_indices) != 1:
            raise ValueError("space does not match couplings (modes or matter factor)")
        mi = space.matter_indices[0]
        if space.factors[mi].dim != self.matter_dim:
            raise ValueError("matter factor dimension does not match couplings")
        return mi

    def generator_matrix(self, space: HilbertSpec) -> np.ndarray:
        """X = sum_mu (a_mu^dag (x) eta_mu + a_mu (x) eta_mu^dag) on `space`."""
        mi = self._check_space(space)
        x = np.zeros((space.dim, space.dim), dtype=complex)
        for mu, fi in enumerate(space.photon_indices):
            adag = ladder_matrix(space.factors[fi].fock_cutoff).conj().T
            x += space.kron({fi: adag, mi: self.eta_matrices[mu]})
        return x + x.conj().T

    def common_matter_matrix(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(g, D) with eta_mu = g_mu D for one Hermitian D, or None if there is none.

        The stacked couplings must have rank at most one: every eta_mu is
        compared with g_mu times the largest one, rotated by a global phase
        to be Hermitian, and the residual must stay below FACTOR_TOL.
        """
        eta = self.eta_matrices
        scale = max_abs(eta)
        if scale == 0.0:
            return np.zeros(self.n_modes, dtype=complex), np.zeros_like(eta[0])
        b = eta[np.argmax(np.linalg.norm(eta.reshape(self.n_modes, -1), axis=1))]
        i, j = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        try:
            d = hermitian_part(b * np.exp(-0.5j * np.angle(b[i, j] * b[j, i])), "coupling")
        except InvariantViolation:
            return None
        g = np.einsum("ij,mij->m", d.conj(), eta) / np.vdot(d, d).real
        if max_abs(eta - g[:, None, None] * d) > FACTOR_TOL * scale:
            return None
        return g, d

    def generator(self, space: HilbertSpec) -> Eigenbasis:
        """The eigenbasis of the gauge generator X on `space`.

        When `common_matter_matrix` finds one matter matrix and the matter
        factor comes last, as in `standard_space`, it is the basis of the
        `QuadratureFamily` of these couplings, formed from local factors;
        otherwise that of the dense `HermitianGenerator`.
        """
        mi = self._check_space(space)
        split = self.common_matter_matrix()
        if split is None or mi != len(space.factors) - 1:
            return HermitianGenerator(self.generator_matrix(space), space).eigenbasis()
        cutoffs = tuple(f.fock_cutoff for f in space.factors[:-1])
        return QuadratureFamily(self, *split, None, np.zeros_like(split[1]), cutoffs).basis


def couplings(ms: ModeSet, em: EmitterSpec) -> CouplingSet:
    """Coupling set of an emitter sitting at its profile point of a mode set."""
    f = ms.profile(em.position_label)  # (M, 3)
    chi_d = ms.chi_diag
    eta = np.einsum("cij,mc->mij", em.dipole, f.conj()) / np.sqrt(2 * chi_d)[:, None, None]
    return CouplingSet(eta, ms.chi)


class HamiltonianBundle:
    """A built Hamiltonian with its space, gauge and builder metadata.

    Built from a matrix, `H` is the assembled D x D ndarray of `space` (any
    other shape is a `ValueError`), checked once with `hilbert.hermitian_part`
    and kept as its Hermitian part, an ndarray.  The members of a `sectored`
    `QuadratureFamily` (a two-level emitter with a parity) come from the
    family instead (`in_quadrature_basis`): the bundle keeps the member's raw
    blocks, which the family measures when the bundle is made and solves per
    parity sector, and `H` is formed in the Fock basis only when it is read.
    `basis` says which ("fock" or "quadrature").

    A builder may declare a parity: a label +1 or -1 per basis state, the
    diagonal of an operator Pi that commutes with H.  The declaration is
    verified here, max|H[even, odd]| <= HERMITIAN_TOL * max(1, max|H|), and a
    wrong one raises `InvariantViolation`; it is never dropped silently.  The
    spectrum is then solved in the even and the odd sector separately, so two
    (D/2)^3 eigensolves replace one D^3 solve, and eigenvectors are scattered
    back into the full basis in ascending energy.  A bundle without a parity
    is the one-sector case.

    A builder may also declare time reversal: that (-1)^(sum_mu n_mu) K, with
    K complex conjugation, commutes with H, so that p^dag H p is real
    symmetric for the phases p = i^[sum_mu n_mu odd].  It is verified the same
    way, max|Im(p^dag H p)| <= HERMITIAN_TOL * max(1, max|H|), and each sector
    is then solved as the real symmetric block p^dag H p, rotated in place on
    the sector's copy; eigenvectors are p v, phased as they are scattered.

    `diagnostics` reports the sector sizes, the measured off-block maximum
    (None without a parity) and, when time reversal is declared, the measured
    max|Im(p^dag H p)| as "time_reversal_imag"; a quadrature-basis bundle
    reports the family's measurements of the same two symmetries.
    """

    def __init__(self, H: np.ndarray, space: HilbertSpec, gauge: GaugeParam,
                 metadata: Optional[dict] = None, parity: Optional[np.ndarray] = None,
                 time_reversal: bool = False):
        if np.shape(H) != (space.dim,) * 2:
            raise ValueError(f"H must be square, (D, D) with D = {space.dim} for its space, "
                             f"got shape {np.shape(H)}")
        self.space, self.gauge = space, gauge
        self.metadata = {} if metadata is None else metadata
        self.parity, self.time_reversal = parity, time_reversal
        self.family = self.blocks = self._eigensystem = None
        m = self._H = hermitian_part(H, f"{self.metadata.get('builder', 'bundle')} Hamiltonian")
        n = m.shape[-1]
        tol = HERMITIAN_TOL * max(1.0, max_abs(m))
        sectors, off_block = (np.arange(n),), None
        if parity is not None:
            labels = np.asarray(parity)
            if labels.shape != (n,) or np.any(np.abs(labels) != 1):
                raise ValueError("parity needs a label +1 or -1 per basis state")
            even, odd = np.flatnonzero(labels > 0), np.flatnonzero(labels < 0)
            off_block = max_abs(m[even[:, None], odd])
            if off_block > tol:
                raise InvariantViolation(f"declared parity does not commute with H "
                                         f"(max|H[even, odd]| = {off_block:.3e})")
            sectors = tuple(s for s in (even, odd) if s.size)
        self._sectors = sectors
        self.diagnostics = {"sector_sizes": [len(s) for s in sectors],
                            "parity_off_block": off_block}
        self._phases = None
        if time_reversal:
            odd_photons = parity_labels(space) < 0
            # max|Im(p^dag H p)|: Im(H) between states of equal photon parity, Re(H) between
            # states of opposite photon parity
            imag = max_abs(np.where(odd_photons[:, None] == odd_photons, m.imag, m.real))
            if imag > tol:
                raise InvariantViolation(f"declared time reversal does not hold "
                                         f"(max|Im(p^dag H p)| = {imag:.3e})")
            self.diagnostics["time_reversal_imag"] = imag
            self._phases = np.where(odd_photons, 1j, 1.0)

    @classmethod
    def in_quadrature_basis(cls, family: QuadratureFamily, gauge: GaugeParam, blocks: tuple,
                            metadata: dict) -> HamiltonianBundle:
        """The member of `family` whose raw blocks (A_0, A_1, b) are stacks of one, after
        the family has measured them (`QuadratureFamily.measure`); it keeps (A_0, b), since
        the verified parity makes A_1 = J A_0 J."""
        off, imag = family.measure(*blocks)
        bundle = cls.__new__(cls)
        bundle.space, bundle.gauge, bundle.metadata = family.space, gauge, metadata
        bundle.parity = parity_labels(family.space, family.parity_signs)
        bundle.time_reversal = family.time_reversal
        bundle.family, bundle.blocks = family, (blocks[0], blocks[2])
        bundle._H = bundle._eigensystem = None
        bundle.diagnostics = {"sector_sizes": [len(blocks[2][0])] * 2,
                              "parity_off_block": float(off[0])}
        if imag is not None:
            bundle.diagnostics["time_reversal_imag"] = float(imag[0])
        return bundle

    @property
    def basis(self) -> str:
        """"quadrature" for a bundle of a `QuadratureFamily`, else "fock"."""
        return "fock" if self.family is None else "quadrature"

    @property
    def H(self) -> np.ndarray:
        """H in the Fock basis, formed on first read for a quadrature-basis bundle."""
        if self._H is None:
            self._H = hermitian_part(self.family.member_matrix(self.blocks),
                                     "quadrature-basis H in the Fock basis")
        return self._H

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x in the Fock basis for a vector (D,) or a block (D, k); a quadrature-basis
        bundle applies its member unformed (`QuadratureFamily.apply_member`)."""
        return self.H @ x if self.family is None else self.family.apply_member(self.blocks, x)

    def _sector_blocks(self):
        """(block, place) per sector, even sector first: place(vecs, columns, v) writes
        the block's eigenvectors v into those columns of the Fock-basis vecs.  The
        blocks are the real symmetric p^dag H p under declared time reversal."""
        if self.family is not None:
            yield from self.family.sector_blocks(self.blocks)
            return
        m = self._H
        for s in self._sectors:
            if self._phases is None:
                yield (m if len(s) == len(m) else m[s[:, None], s]), partial(_scatter, s, None)
                continue
            block = m[s[:, None], s]
            p = self._phases[s]
            block *= p.conj()[:, None]
            block *= p
            yield block.real, partial(_scatter, s, p)

    def eigenvalues(self, k: Optional[int] = None) -> np.ndarray:
        """Ascending eigenvalues, from the cached eigensystem when there is one,
        otherwise merged from one eigvalsh per sector."""
        if self._eigensystem is not None:
            vals = self._eigensystem[0]
        else:
            vals = np.sort(np.concatenate([np.linalg.eigvalsh(block)
                                           for block, _ in self._sector_blocks()]))
        return vals[:k]

    def eigensystem(self):
        """(eigenvalues, eigenvectors) of H in the Fock basis, computed once and kept
        read-only.

        Columns are in ascending energy; a tie between sectors keeps the
        even sector first.
        """
        if self._eigensystem is None:
            n = self.space.dim
            if self.family is None and len(self._sectors) == 1 and self._phases is None:
                cached = np.linalg.eigh(self._H)
            else:
                # allocated before the sector solves: allocated after their freed
                # temporaries, it raised the peak RSS of `detect` at D = 882 by
                # 5 MB (retained heap), with the same data alive
                vecs = np.zeros((n, n), dtype=complex, order="F")  # written by columns
                parts = [(place, *np.linalg.eigh(block)) for block, place in self._sector_blocks()]
                vals = np.concatenate([v for _, v, _ in parts])
                order = np.argsort(vals, kind="stable")
                column = np.empty_like(order)
                column[order] = np.arange(n)
                start = 0
                for place, v, sector_vecs in parts:
                    place(vecs, column[start:start + len(v)], sector_vecs)
                    start += len(v)
                cached = (vals[order], vecs)
            for arr in cached:
                arr.flags.writeable = False
            self._eigensystem = cached
        return self._eigensystem


def _scatter(rows: np.ndarray, phases: Optional[np.ndarray], vecs: np.ndarray,
             columns: np.ndarray, v: np.ndarray):
    """Write a sector's eigenvectors v into vecs[rows, columns], each row times its phase."""
    vecs[np.ix_(rows, columns)] = v if phases is None else v * phases[:, None]


def _bundle(h: np.ndarray, space: HilbertSpec, gauge: GaugeParam, meta: dict,
            parity_signs: Optional[Sequence[int]] = None,
            time_reversal: bool = False) -> HamiltonianBundle:
    """Bundle of the assembled h, declaring the parity
    (-1)^(photon number) (x) diag(parity_signs) when signs are given, and time
    reversal when asked."""
    parity = None if parity_signs is None else parity_labels(space, parity_signs)
    return HamiltonianBundle(h, space, gauge, meta, parity, time_reversal)


def _real(*arrays) -> bool:
    """True when no entry of any array has a nonzero imaginary part: the condition
    (on chi, the couplings and h0) under which a builder declares time reversal."""
    return not any(np.any(np.imag(a)) for a in arrays)


def _normalize_cutoffs(cutoffs, n_modes: int) -> tuple[int, ...]:
    if np.isscalar(cutoffs):
        return (int(cutoffs),) * n_modes
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != n_modes:
        raise ValueError(f"need {n_modes} cutoffs, got {len(cutoffs)}")
    return cutoffs


def standard_space(cutoffs: Sequence[int], matter_dim: int) -> HilbertSpec:
    """Photon factors in mode order followed by one matter factor."""
    return HilbertSpec([photon(n) for n in cutoffs] + [matter_levels(matter_dim)])


def field_hamiltonian(chi: np.ndarray, space: HilbertSpec) -> np.ndarray:
    """H_F = sum_{mu nu} chi_{mu nu} a_mu^dag a_nu on `space`, as a sum of Kronecker products."""
    chi = np.atleast_2d(np.asarray(chi, dtype=complex))
    ph = space.photon_indices
    if chi.shape != (len(ph),) * 2:
        raise ValueError("chi shape does not match photon factor count")
    a = [ladder_matrix(space.factors[fi].fock_cutoff) for fi in ph]
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for m, fm in enumerate(ph):
        for n, fn in enumerate(ph):
            if chi[m, n] == 0:
                continue
            if m == n:
                # the diagonal of (chi a^dag) @ a, rounded in the same order
                root_n = np.sqrt(np.arange(space.factors[fm].dim))
                h += space.kron({fm: np.diag((chi[m, m] * root_n) * root_n)})
            else:
                h += space.kron({fm: chi[m, n] * a[m].conj().T, fn: a[n]})
    return h


def _photon_part(space: HilbertSpec) -> HilbertSpec:
    """The photon factors of a `standard_space`, which precede the matter factor."""
    return HilbertSpec(space.factors[:-1])


def _check_cutoff_headroom(cutoffs, theta: float, cs: CouplingSet):
    """Warn when the cutoff fails the displacement heuristic."""
    disp = max(abs(theta), abs(1.0 - theta)) * max_abs(cs.eta_matrices)
    needed = 4.0 * disp**2 + 10.0
    if min(cutoffs) < needed:
        warnings.warn(
            f"Fock cutoff {min(cutoffs)} below the displacement heuristic "
            f"4*(theta*eta)^2 + 10 = {needed:.1f}; spectra may not be converged",
            FockCutoffWarning, stacklevel=3)


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


def _half_sum_and_diff(b: np.ndarray):
    """The real form of B J, B = diag(b): (b + Jb) / 2 on the antidiagonal and
    i (b - Jb) / 2 on the diagonal."""
    return (b + b[:, ::-1]) / 2, 0.5j * (b - b[:, ::-1])


class QuadratureFamily:
    """The gauge family of an emitter whose couplings factor, eta_mu = g_mu D, at per-mode
    Fock cutoffs, in its field-quadrature basis.

    The basis is w = (x)_mu R_mu v_mu (x) U: v_mu is `fock_quadrature`'s
    cached eigenbasis of a_mu + a_mu^dag, R_mu = diag(e^(i n arg g_mu)) (the
    identity for g_mu = 0, where v_mu is the identity too unless the family
    is `sectored`, which keeps it so that the photon parity is the reversal J
    of the flattened photon index), and U holds the eigenvectors of the L x L
    matrix D, D U = U diag(lam).  There X = diag(nu lam_k) with
    nu = (+)_mu |g_mu| x_mu, so in the matter-major order (k, n), with n the
    flattened photon index, at coupling scale c the blocks of H(theta) are

        A_k = diag(e^{-i theta lam_k c nu}) K diag(e^{i theta lam_k c nu}) + h0'_kk,
        B_kl = h0'_kl diag(e^{i (1 - theta) (lam_k - lam_l) c nu}),   k != l,

    with K = w^dag H_F w summed from local factors (`_field`) and
    h0' = U^dag h0 U; the naive theta = 0 series cuts B_kl's exponential to
    its Taylor polynomial.

    A two-level emitter with a parity S and couplings not all zero is solved
    here (`sectored`): with u_1 = S u_0 the parity (-1)^(sum n) (x) S is
    J (x) swap, with sectors C = A_0 +- B J, B = B_01, when A_1 = J A_0 J and
    B J = J B^dag; the even one is +.  Under time reversal, declared as by
    `build_dipole`, the basis is real and J C J = C^*, so
    Q^dag C Q = (C + JCJ + i(CJ - JC)) / 2, Q = (1 + iJ) / sqrt(2), is real
    symmetric with C's spectrum.  Any other emitter's member is formed in the
    Fock basis once (`fock_matrix`), where `HamiltonianBundle` verifies its
    declared symmetries and solves its sectors.
    """

    @classmethod
    def of(cls, ms: ModeSet, em: EmitterSpec,
           cutoffs: Union[int, Sequence[int]]) -> Optional[QuadratureFamily]:
        """The family of an emitter in a mode set at these cutoffs, or None unless its
        couplings factor."""
        return cls.of_couplings(couplings(ms, em), em.h0, em.parity_signs,
                                _normalize_cutoffs(cutoffs, ms.n_modes))

    @classmethod
    def of_couplings(cls, cs: CouplingSet, h0: np.ndarray, parity_signs: Optional[np.ndarray],
                     cutoffs: tuple[int, ...]) -> Optional[QuadratureFamily]:
        """The family of a coupling set with matter Hamiltonian h0 and the emitter's parity
        signs (or None), or None unless `common_matter_matrix` factors the couplings."""
        split = cs.common_matter_matrix()
        return None if split is None else cls(cs, *split, parity_signs, h0, cutoffs)

    def __init__(self, cs: CouplingSet, g: np.ndarray, d: np.ndarray,
                 parity_signs: Optional[np.ndarray], h0: np.ndarray, cutoffs: tuple[int, ...]):
        self.cs, self.g, self.cutoffs = cs, g, cutoffs
        self.space = standard_space(cutoffs, len(d))
        self.photons = _photon_part(self.space)
        self.parity_signs = parity_signs
        self.sectored = len(d) == 2 and parity_signs is not None and bool(np.any(g))
        self.time_reversal = _real(cs.chi, g, d, h0)
        lam, u = np.linalg.eigh(d.real if self.time_reversal else d)
        if self.sectored:
            lam = np.array([lam[0], -lam[0]])
            u = np.column_stack([u[:, 0], np.asarray(parity_signs) * u[:, 0]])
        self.lam, self.u = lam, u
        self.h0 = u.conj().T @ h0 @ u
        quadratures = [fock_quadrature(n) for n in self.cutoffs]
        # an uncoupled mode keeps the identity, unless the sectors need its parity J
        self.v = tuple(v if g or self.sectored else np.eye(len(v))
                       for g, (_, v) in zip(self.g, quadratures))
        self.x = np.ravel(reduce(np.add.outer,
                                 [abs(g) * x for g, (x, _) in zip(self.g, quadratures)]))

    def _w(self, mode: int) -> np.ndarray:
        """w_mode = R v: the mode's factor of the basis."""
        return mode_phase(self.g[mode], len(self.v[mode]))[:, None] * self.v[mode]

    @cached_property
    def basis(self) -> Eigenbasis:
        """X = w diag(nu (x) lam) w^dag, w = (x)_mu R_mu v_mu (x) U, photon-major; formed
        when a bundle's eigenvectors or Fock-basis H are asked for."""
        return Eigenbasis(np.multiply.outer(self.x, self.lam).ravel(),
                          tuple(self._w(m) for m in range(len(self.v))) + (self.u,))

    @cached_property
    def k(self) -> np.ndarray:
        """K = w^dag H_F w, formed on first use."""
        return self._field()

    def _field(self) -> np.ndarray:
        """K = w^dag H_F w: chi_mm v_m^T n v_m on mode m and
        chi_mn (w_m^dag a_m w_m)^dag (x) (w_n^dag a_n w_n) on modes m != n, each a
        Kronecker product of local matrices; real for a real chi and real couplings."""
        chi = self.cs.chi.real if _real(self.cs.chi) else self.cs.chi
        dims = [len(v) for v in self.v]
        lowered = lambda m: (w := self._w(m)).conj().T @ ladder_matrix(dims[m] - 1).real @ w
        terms = []
        for m, n in zip(*np.nonzero(chi)):
            if m == n:
                local = {m: (self.v[m].T * (chi[m, m].real * np.arange(dims[m]))) @ self.v[m]}
            else:
                local = {m: chi[m, n] * lowered(m).conj().T, n: lowered(n)}
            terms.append(self.photons.kron(local))
        return reduce(np.add, terms)

    def members(self, theta: float, scales, order: Optional[int] = None):
        """([A_k], B) of H(theta) at each coupling scale: the diagonal blocks, stacks
        (S, n, n), and B (L, L, S, n), whose (k, l) entry is the diagonal of B_kl (its
        k = l entries are unused).  With `order`, the naive theta = 0 series of that order."""
        if order is not None and theta != 0.0:
            raise ValueError("the naive series is built at theta = 0 only")
        t = np.multiply.outer(np.asarray(scales, dtype=float), self.x)
        diag = np.arange(len(self.x))
        a = []
        for lam, h in zip(self.lam, self.h0.diagonal()):
            p = np.exp(-1j * theta * lam * t)
            block = p[:, :, None] * self.k
            block *= p.conj()[:, None, :]
            block[:, diag, diag] += h
            a.append(block)
        z = 1j * np.subtract.outer(self.lam, self.lam)[:, :, None, None] * t
        series = (np.exp((1.0 - theta) * z) if order is None
                  else sum(z**j / math.factorial(j) for j in range(order + 1)))
        return a, self.h0[:, :, None, None] * series

    def blocks(self, theta: float, scales, order: Optional[int] = None):
        """(A_0, A_1, b) of a two-level H(theta) at each coupling scale: stacks (S, n, n) and
        (S, n), b the diagonal of B_01.  With `order`, the naive theta = 0 series of that
        order."""
        a, b = self.members(theta, scales, order)
        return a[0], a[1], b[0, 1]

    def measure(self, a0: np.ndarray, a1: np.ndarray, b: np.ndarray):
        """(parity off-block, max|Im| of the real forms or None) of every member of a stack
        (A_0, A_1, b), measured on the raw blocks, each member against HERMITIAN_TOL *
        max(1, its largest entry): Hermiticity, the parity, and under time reversal the
        imaginary part of both sectors' real forms.  `InvariantViolation` names the first
        member that fails."""
        tol = HERMITIAN_TOL * np.maximum.reduce(
            [np.ones(len(b)), member_max_abs(a0), member_max_abs(a1), np.abs(b).max(axis=-1)])
        herm = [max(max_abs(p - p.conj().T), max_abs(q - q.conj().T)) for p, q in zip(a0, a1)]
        verify_members(np.array(herm), tol,
                       "quadrature-basis H is not Hermitian before symmetrization",
                       "max|A_k - A_k^dag|")
        off = np.array([max(max_abs(p - q[::-1, ::-1]), max_abs(c - c[::-1].conj()))
                        for p, q, c in zip(a0, a1, b)])
        verify_members(off, tol, "declared parity does not commute with H",
                       "max|A_0 - J A_1 J|, max|b - J b^*|")
        if not self.time_reversal:
            return off, None
        half_sum, half_diff = _half_sum_and_diff(b)
        imag = np.zeros(len(b))
        for sector in _sectors(_reflected_form(a0.imag, a0.real, +1), half_sum.imag,
                               half_diff.imag):
            measured = member_max_abs(sector)
            verify_members(measured, tol, "declared time reversal does not hold",
                           "max|Im| of a sector's real form")
            imag = np.maximum(imag, measured)
        return off, imag

    def _sector_stack(self, a0: np.ndarray, b: np.ndarray):
        """Each parity sector of every member, epsilon = +1 then -1, as one stack turned in
        place: A_0 + epsilon B J, or its real form under time reversal."""
        if not self.time_reversal:
            return _sectors(a0.copy(), b)
        half_sum, half_diff = _half_sum_and_diff(b)
        return _sectors(_reflected_form(a0.real, a0.imag, -1), half_sum.real, half_diff.real)

    def spectra(self, a0: np.ndarray, a1: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues (S, 2n) of a stack of members (A_0, A_1, b), after `measure`."""
        self.measure(a0, a1, b)
        sectors = [np.linalg.eigvalsh(s) for s in self._sector_stack(a0, b)]
        return np.sort(np.concatenate(sectors, axis=-1), axis=-1)

    def sector_blocks(self, blocks: tuple):
        """(block, place) per parity sector of one member, blocks (A_0, b) stacks of one, the
        even sector first, as `HamiltonianBundle` solves them; each block is turned in place
        into the next, so solve it before asking for the next one."""
        for eps, sector in zip((1, -1), self._sector_stack(*blocks)):
            yield sector[0], partial(self._place, eps)

    def _place(self, eps: int, vecs: np.ndarray, columns: np.ndarray, y: np.ndarray):
        """Write eigenvectors y of sector eps into those columns of vecs, in the Fock basis.

        The member's eigenvectors are [c; eps J c] / sqrt(2) with c = y, or c = Q y under
        time reversal.  With w the photon part of the basis, w J = P w for the photon
        parity P, so only z = w y is mapped: the Fock vector is
        z (x) (u_0 + eps P u_1) / sqrt(2), times (1 + i P) / sqrt(2) under time reversal.
        """
        parity = parity_labels(self.photons)[:, None]
        coef = (self.u[:, 0] + eps * parity * self.u[:, 1]) / np.sqrt(2)
        if self.time_reversal:
            coef = coef * (1 + 1j * parity) / np.sqrt(2)
        z = _kron_apply(self.basis.factors[:-1], y).T
        out = vecs.T.reshape(len(vecs), -1, 2)  # a view of the F-ordered vecs
        for k in range(2):
            out[columns, :, k] = z * coef[:, k]

    def member_matrix(self, blocks: tuple) -> np.ndarray:
        """`fock_matrix` of one member, blocks (A_0, b) stacks of one, with A_1 = J A_0 J."""
        a0, b = (m[0] for m in blocks)
        return self.fock_matrix([a0, a0[::-1, ::-1]], np.array([[b, b], [b.conj(), b]]))

    def apply_member(self, blocks: tuple, x: np.ndarray) -> np.ndarray:
        """H x in the Fock basis for one member, blocks (A_0, b) stacks of one, and x a
        vector (D,) or a block (D, k): H = [[A_0, B], [B^*, J A_0 J]], B = diag(b), is
        applied in this basis, photon-major, and never formed."""
        a0, b = (m[0] for m in blocks)
        y = self.basis.from_fock(x).reshape((len(b), 2) + x.shape[1:])
        b = b.reshape(b.shape + (1,) * (x.ndim - 1))
        z = np.stack([a0 @ y[:, 0] + b * y[:, 1],
                      (a0 @ y[::-1, 1])[::-1] + b.conj() * y[:, 0]], axis=1)
        return self.basis.to_fock(z.reshape(x.shape))

    def fock_matrix(self, a: Sequence[np.ndarray], b: np.ndarray) -> np.ndarray:
        """w M w^dag, not symmetrized: the member M with diagonal blocks a[k] (n, n) and
        off-diagonal blocks diag(b[k, l]), b (L, L, n) with unused k = l entries, in the
        Fock basis, photon-major."""
        n, levels = len(self.x), len(self.lam)
        m = np.zeros((n, levels, n, levels), dtype=complex)
        i = np.arange(n)
        for k in range(levels):
            m[:, k, :, k] = a[k]
            for l in range(levels):
                if l != k:
                    m[i, k, i, l] = b[k, l]
        wm = self.basis.to_fock(m.reshape(n * levels, n * levels))
        # (w M) w^dag = (w^* (w M)^T)^T: conjugate the factors, not the D x D matrices
        return _kron_apply([f.conj() for f in self.basis.factors], wm.T).T

    def same_basis(self, other: QuadratureFamily) -> bool:
        """Whether two families share one basis: the cutoffs, couplings and U agree."""
        return (self.cutoffs == other.cutoffs and np.array_equal(self.g, other.g)
                and np.array_equal(self.u, other.u))

    def residual(self, h_a: HamiltonianBundle, h_b: HamiltonianBundle,
                 low_fraction: float) -> float:
        """||(W H_a W^dag - H_b) P_low||_2 for two bundles in this basis: W is a diagonal
        phase, Delta = W H_a W^dag - H_b elementwise.  Delta and P_low keep the parity
        sectors, and R_mu and U drop out: the norm is the larger of
        ||(Delta_00 +- Delta_01 J) ((x)_mu v_mu^T[:, low_mu])||_2."""
        phase = np.exp(-1j * (h_b.gauge.theta - h_a.gauge.theta)
                       * np.multiply.outer(self.lam, self.x))
        (a0, ba), (b0, bb) = ([m[0] for m in h.blocks] for h in (h_a, h_b))
        d0 = phase[0][:, None] * a0 * phase[0].conj() - b0
        d01 = phase[0] * ba * phase[1].conj() - bb
        # the Fock states with every n_mu <= fraction * N_mu, as `_low_sector_mask`
        low = reduce(kron, [v[:int(np.floor(low_fraction * (len(v) - 1))) + 1]
                            for v in self.v]).T
        # ||M||_2^2 is the largest eigenvalue of M^dag M, to the same relative accuracy
        grams = [(m := s[0] @ low).conj().T @ m for s in _sectors(d0[None], d01)]
        return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1] for g in grams)))


@dataclass(frozen=True)
class LongitudinalCoupling:
    """User-supplied longitudinal coupling into one auxiliary bosonic factor.

    Adds omega b^dag b + g (b + b^dag) (x) (d_hat . direction) to the built
    Hamiltonian.  The auxiliary factor is appended after the matter factor
    and is untouched by gauge transformations.
    """

    omega: float
    coupling: float
    cutoff: int
    direction: tuple = (1.0, 0.0, 0.0)


def _apply_longitudinal(h: np.ndarray, space: HilbertSpec, em: EmitterSpec,
                        lc: LongitudinalCoupling):
    ext = HilbertSpec(list(space.factors) + [photon(lc.cutoff)])
    aux_fi = len(ext.factors) - 1
    b = ladder_matrix(lc.cutoff)
    mi = ext.matter_indices[0]
    direction = np.asarray(lc.direction, dtype=float).reshape(3)
    d_mat = np.einsum("cij,c->ij", em.dipole, direction)
    h_ext = (kron(h, np.eye(lc.cutoff + 1))
             + ext.kron({aux_fi: lc.omega * b.conj().T @ b})
             + ext.kron({mi: d_mat, aux_fi: lc.coupling * (b + b.conj().T)}))
    return h_ext, ext


def _family_bundle(cs: CouplingSet, h0: np.ndarray, parity_signs: Optional[Sequence[int]],
                   cutoffs: tuple[int, ...], gauge: GaugeParam, meta: dict,
                   order: Optional[int] = None,
                   hook: Optional[Callable] = None) -> HamiltonianBundle:
    """The member at this gauge, or with `order` the naive theta = 0 series, of the couplings
    cs with matter Hamiltonian h0.  A `sectored` family is solved in the quadrature basis;
    any other member is formed in the Fock basis, from the family when the couplings
    factor and from the dense generator otherwise, and hook(h, space) -> (h, space) appends
    the longitudinal factor to it.  The bundle declares the parity of parity_signs, when
    given, and without the hook time reversal when chi, the couplings and h0 are real."""
    family = QuadratureFamily.of_couplings(cs, h0, parity_signs, cutoffs)
    if family is not None and family.sectored and hook is None:
        return HamiltonianBundle.in_quadrature_basis(
            family, gauge, family.blocks(gauge.theta, [1.0], order), meta)
    if family is not None:
        a, b = family.members(gauge.theta, [1.0], order)
        h, space = family.fock_matrix([block[0] for block in a], b[:, :, 0]), family.space
    else:
        space = standard_space(cutoffs, cs.matter_dim)
        gen = HermitianGenerator(cs.generator_matrix(space), space)
        h_f, h_0 = field_hamiltonian(cs.chi, space), space.kron({len(cutoffs): h0})
        h = (h_f + gen.nested_commutators(h_0, order) if order is not None
             else gen.conjugate(-gauge.theta, h_f) + gen.conjugate(1.0 - gauge.theta, h_0))
    if hook is not None:
        h, space = hook(h, space)
    return _bundle(h, space, gauge, meta, parity_signs,
                   hook is None and _real(cs.chi, cs.eta_matrices, h0))


def build_dipole(ms: ModeSet, em: EmitterSpec, g: GaugeParam,
                 cutoffs: Union[int, Sequence[int]],
                 longitudinal: Optional[LongitudinalCoupling] = None) -> HamiltonianBundle:
    """Dipole-approximation Hamiltonian at gauge parameter theta.

    H = V H_F V^dag + U H_0 U^dag with V = exp(-i theta X) and
    U = exp(+i (1 - theta) X), both exact matrix exponentials on the
    truncated space.  The medium-assisted longitudinal term is off unless a
    `LongitudinalCoupling` hook is supplied.  The bundle declares the
    emitter's parity whenever `EmitterSpec.parity_signs` finds one; the
    auxiliary factor of the hook counts as one more photon factor in it.
    Without the hook it declares time reversal when chi, the couplings and
    h0 are real.  Couplings that factor are built from their
    `QuadratureFamily` (`_family_bundle`), whose member the hook extends in
    the Fock basis.
    """
    cutoffs = _normalize_cutoffs(cutoffs, ms.n_modes)
    cs = couplings(ms, em)
    _check_cutoff_headroom(cutoffs, g.theta, cs)
    meta = {"builder": "build_dipole", "truncation": "correct",
            "cutoffs": cutoffs, "theta": g.theta, "eta": _eta_summary(cs)}
    hook = None
    if longitudinal is not None:
        hook = partial(_apply_longitudinal, em=em, lc=longitudinal)
        meta["longitudinal"] = "custom"
    return _family_bundle(cs, em.h0, em.parity_signs, cutoffs, g, meta, hook=hook)


def _eta_summary(cs: CouplingSet):
    """The scalar eta_mu of each mode, or None without them."""
    try:
        return cs.scalars.tolist()
    except ValueError:
        return None


def multipolar_interaction(cs: CouplingSet, space: HilbertSpec) -> np.ndarray:
    """-i sum_{mu nu} chi*_{mu nu} a_mu (x) eta_nu^dag + H.c., the canonical multipolar drive,
    as sum_mu a_mu (x) B_mu + H.c. with B_mu = -i sum_nu chi*_{mu nu} eta_nu^dag."""
    mi = space.matter_indices[0]
    b = -1j * np.einsum("mn,nji->mij", cs.chi.conj(), cs.eta_matrices.conj())
    inter = np.zeros((space.dim, space.dim), dtype=complex)
    for b_mu, fi in zip(b, space.photon_indices):
        inter += space.kron({fi: ladder_matrix(space.factors[fi].fock_cutoff), mi: b_mu})
    return inter + inter.conj().T


def polarization_squared(cs: CouplingSet) -> np.ndarray:
    """sum_{mu nu} chi_{mu nu} eta_mu^dag eta_nu, the multipolar P^2 term as a matter matrix."""
    eta = cs.eta_matrices
    return np.einsum("mn,mji,njk->ik", cs.chi, eta.conj(), eta)


def _multipolar_bundle(cs: CouplingSet, matter: np.ndarray, cutoffs: tuple[int, ...],
                       meta: dict, parity_signs: Optional[Sequence[int]] = None,
                       time_reversal: bool = False) -> HamiltonianBundle:
    """The canonical multipolar H = H_F + `multipolar_interaction` + matter at theta = 1, the
    matter term (h0, with the P^2 term or without it) on the matter factor of the
    `standard_space` of the cutoffs; parity and time reversal declared as in `_bundle`."""
    space = standard_space(cutoffs, cs.matter_dim)
    h = field_hamiltonian(cs.chi, space)
    h += multipolar_interaction(cs, space)
    h += space.kron({space.matter_indices[0]: matter})
    return _bundle(h, space, MULTIPOLAR, meta, parity_signs, time_reversal)


def build_naive(ms: ModeSet, em: EmitterSpec, g: GaugeParam,
                cutoffs: Union[int, Sequence[int]], order: int = 1) -> HamiltonianBundle:
    """Gauge-violating reference Hamiltonians from direct (naive) truncation.

    theta = 0: the minimal-coupling conjugation U H_0 U^dag is replaced by its
    Taylor series in the generator, truncated at `order` (order 1 keeps the
    linear drive only): from the `QuadratureFamily` when the couplings factor,
    else summed by the dense generator (`nested_commutators`).  theta = 1:
    the correct multipolar form minus the mode-truncated polarization-squared
    correction.  Other theta values are not defined.  Parity and time
    reversal are declared as in `build_dipole`.
    """
    if order < 1:
        raise ValueError(f"unsupported naive order {order}")
    if g.theta not in (0.0, 1.0):
        raise ValueError("naive builders are defined at theta = 0 and theta = 1 only")
    cutoffs = _normalize_cutoffs(cutoffs, ms.n_modes)
    cs = couplings(ms, em)
    meta = {"builder": "build_naive", "truncation": "naive", "cutoffs": cutoffs,
            "theta": g.theta, "order": order, "eta": _eta_summary(cs)}
    if g.theta == 0.0:
        return _family_bundle(cs, em.h0, em.parity_signs, cutoffs, g, meta, order)
    return _multipolar_bundle(cs, em.h0, cutoffs, meta, em.parity_signs,
                              _real(cs.chi, cs.eta_matrices, em.h0))


def simpson_segment(fn: Callable[[float], np.ndarray], lo: float, hi: float,
                    n_nodes: int) -> np.ndarray:
    """Composite Simpson quadrature of a vector-valued function on [lo, hi]."""
    if n_nodes < 3:
        n_nodes = 3
    if n_nodes % 2 == 0:
        n_nodes += 1
    s_vals = np.linspace(lo, hi, n_nodes)
    samples = np.array([np.asarray(fn(s), dtype=complex) for s in s_vals])
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (hi - lo) / (n_nodes - 1)
    return (h / 3) * np.einsum("k,k...->...", w, samples)


def segment_integral(fn: Callable[[float], np.ndarray], lo: float, hi: float,
                     n_nodes: int = 65, tol: float = 1e-8,
                     max_refine: int = 4) -> np.ndarray:
    """Simpson integral with Richardson control; refines until the estimate converges."""
    coarse = simpson_segment(fn, lo, hi, n_nodes)
    for _ in range(max_refine):
        fine_nodes = 2 * n_nodes - 1
        fine = simpson_segment(fn, lo, hi, fine_nodes)
        err = np.abs(fine - coarse).max() / 15.0
        if err <= tol * max(1.0, float(np.abs(fine).max())):
            return fine
        coarse, n_nodes = fine, fine_nodes
    raise ConvergenceError(
        f"segment quadrature did not converge (Richardson estimate {err:.3e} > tol {tol:g})")


def build_beyond_dipole(chi: Union[float, np.ndarray],
                        profile_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
                        em: EmitterSpec, gauge: str,
                        cutoffs: Union[int, Sequence[int]],
                        quad_nodes: int = 65, quad_tol: float = 1e-8) -> HamiltonianBundle:
    """Beyond-dipole Hamiltonian for an effective single-particle two-level emitter.

    Profiles are sampled along the displacement segment s r_dip, s in [-1, 1],
    which gives per mode the segment-averaged coupling eta_bar_mu (from the
    integral over [-1, 1]) and its even-field companion g_even,mu (from the
    difference of the integrals over [0, 1] and [-1, 0]).  The Coulomb form
    is the theta = 0 member of the gauge family with
    eta_mu = (eta_bar_mu / 2) sigma_x (`QuadratureFamily`), which
    gives H_F + (omega0/2) [cos(Phi) sigma_z + sin(Phi) sigma_y],
    Phi = sum_mu eta_bar_mu a_mu^dag + H.c.  The multipolar form is the
    canonical one with eta_mu = g_even,mu 1 + (eta_bar_mu / 2) sigma_x: the
    segment-averaged field drive, the odd-field (sigma_x-free) drive that
    vanishes for even profiles, and the mode-truncated polarization-squared
    correction.  Constant profiles reduce exactly to the dipole builders.
    """
    if not em.is_tls or em.single_particle is None:
        raise ValueError("requires a two-level emitter with single_particle data")
    if gauge not in ("coulomb", "multipolar"):
        raise ValueError(f"unknown gauge {gauge!r}")
    chi = np.atleast_2d(np.asarray(chi, dtype=complex))
    m_modes = chi.shape[0]
    if len(profile_fns) != m_modes:
        raise ValueError("need one profile function per mode")
    sp = em.single_particle
    d = sp.q * sp.r_dip
    dev = max(max_abs(em.dipole[c] - d[c] * PAULI_X) for c in range(3))
    if dev >= 1e-10 * max(1.0, float(np.abs(d).max())):
        raise InvariantViolation("emitter dipole inconsistent with q * r_dip * sigma_x")
    h_matter = (float(em.levels[0] - em.levels[1]) / 2) * PAULI_Z

    chi_d = np.diag(chi).real
    a_int = np.zeros((m_modes, 3), dtype=complex)  # int_0^1 f(s r_dip) ds
    b_int = np.zeros((m_modes, 3), dtype=complex)  # int_-1^0 f(s r_dip) ds
    for mu, fn in enumerate(profile_fns):
        sampler = lambda s: np.asarray(fn(s * sp.r_dip), dtype=complex).reshape(3)
        a_int[mu] = segment_integral(sampler, 0.0, 1.0, quad_nodes, quad_tol)
        b_int[mu] = segment_integral(sampler, -1.0, 0.0, quad_nodes, quad_tol)
    # segment-averaged couplings and their even-field (sigma_x-free) companions
    eta_bar = (d @ (a_int + b_int).conj().T) / np.sqrt(2 * chi_d)
    g_even = (d @ (a_int - b_int).conj().T) / (2 * np.sqrt(2 * chi_d))

    cutoffs = _normalize_cutoffs(cutoffs, m_modes)
    meta = {"builder": "build_beyond_dipole", "truncation": "correct",
            "cutoffs": cutoffs, "gauge_label": gauge,
            "eta_bar": [complex(v) for v in eta_bar]}
    half_sx = 0.5 * eta_bar[:, None, None] * PAULI_X
    if gauge == "coulomb":
        return _family_bundle(CouplingSet(half_sx, chi), h_matter, TLS_PARITY_SIGNS, cutoffs,
                              COULOMB, meta)
    cs = CouplingSet(g_even[:, None, None] * np.eye(2) + half_sx, chi)
    return _multipolar_bundle(cs, h_matter + polarization_squared(cs), cutoffs, meta)


def build_generalized_1d(nm: NormalModeSet1D, em: EmitterSpec, gauge: str,
                         n_modes: int, cutoffs: Union[int, Sequence[int]],
                         x0: float, truncation: str = "correct",
                         polarization_axis: int = 0) -> HamiltonianBundle:
    """Normal-mode Hamiltonians of a lossless 1D dielectric, dipole approximation.

    The couplings are eta_mu = h_mu(x0) d_hat / sqrt(2 omega_mu) with
    chi = diag(omega), the d.f* / sqrt(2 chi) convention of `couplings`.
    gauge "gC":  H = sum_mu omega_mu a_mu^dag a_mu + U H_0 U^dag with the
    exact truncated minimal-coupling unitary U = exp(i d.A(x0)), the theta = 0
    member of the gauge family of these couplings (`QuadratureFamily`).
    gauge "gmp": H = H_F + H_0 + i sum_mu sqrt(omega_mu/2) h_mu(x0)
    (a_mu^dag - a_mu) (x) d_hat + polarization-squared term.  With
    truncation "correct" the polarization-squared sum runs over the kept
    modes only; "naive" sums over every mode carried by `nm`, which shifts
    the Hamiltonian by a matter-only operator (identity on the photon
    factor).
    """
    if gauge not in ("gC", "gmp"):
        raise ValueError(f"unknown gauge {gauge!r}")
    if truncation not in ("correct", "naive"):
        raise ValueError(f"unknown truncation {truncation!r}")
    if truncation == "naive" and gauge == "gC":
        raise ValueError("naive truncation is defined for the generalized multipolar gauge only")
    if not 1 <= n_modes <= nm.n_modes:
        raise ValueError(f"n_modes must be in [1, {nm.n_modes}]")
    every_mode = CouplingSet(np.multiply.outer(nm.profile_at(x0) / np.sqrt(2 * nm.omega),
                                               em.dipole[polarization_axis]), np.diag(nm.omega))
    cs = CouplingSet(every_mode.eta_matrices[:n_modes], every_mode.chi[:n_modes, :n_modes])
    cutoffs = _normalize_cutoffs(cutoffs, n_modes)
    meta = {"builder": "build_generalized_1d", "truncation": truncation,
            "cutoffs": cutoffs, "gauge_label": gauge, "n_modes": n_modes, "x0": x0}
    if gauge == "gC":
        return _family_bundle(cs, em.h0, em.parity_signs, cutoffs, COULOMB, meta)
    p2 = polarization_squared(cs if truncation == "correct" else every_mode)
    return _multipolar_bundle(cs, em.h0 + p2, cutoffs, meta, em.parity_signs,
                              _real(every_mode.eta_matrices, em.h0))  # chi = diag(omega) is real


class TimeDependentHamiltonian:
    """H(t) for a modulated coupling mu(t), reentrant and cheap to apply.

    Coulomb gauge:    H(t) = H_F + U(t) H_0 U(t)^dag,   U(t) = exp(+i mu(t) X)
    Multipolar gauge: H(t) = V(t) H_F V(t)^dag + H_0 + sign * mu'(t) X,
                      V(t) = exp(-i mu(t) X)
    where the extra multipolar term compensates the explicitly time-dependent
    gauge condition; its sign is pinned by the gauge-equivalence of the
    resulting dynamics (see dynamics.td_gauge_equivalence).

    H(t) is written in the generator's eigenbasis B (`basis`, from
    `CouplingSet.generator`), where
    X = diag(xi) and exp(i s X) is the diagonal phase Phi(s) = diag(e^(i s xi)).
    K = B^dag (H_F (x) 1) B and M = B^dag (1 (x) H_0) B are fixed here and
    checked for Hermiticity once, before symmetrization; then
    H_C(t) = K + Phi(mu) M Phi(mu)^* and
    H_mp(t) = Phi(-mu) K Phi(-mu)^* + M + sign * mu'(t) diag(xi).
    `operator(t)` applies H(t) without forming it, on the propagator's dynamic
    pieces; `matrix(t)` forms it, and `eigensystem(t)` diagonalizes it for static
    pieces and the ground state.  `basis.to_fock` maps states back.
    """

    def __init__(self, gauge: str, cs: CouplingSet, h_field: np.ndarray,
                 h_matter: np.ndarray, profile: TimeProfile, space: HilbertSpec,
                 extra_term_sign: float = TD_EXTRA_TERM_SIGN):
        if gauge not in ("coulomb", "multipolar"):
            raise ValueError(f"unknown gauge {gauge!r}")
        self.gauge = gauge
        self.basis = cs.generator(space)
        k = hermitian_part(self.basis.transform(kron(h_field, np.eye(len(h_matter)))),
                           "H(t) field term K")
        m = hermitian_part(self.basis.transform(kron(np.eye(len(h_field)), h_matter)),
                           "H(t) matter term M")
        # H(t) = Phi(sign mu) A Phi(sign mu)^* + C, plus the multipolar mu' term
        self._sign, self._a, self._c = (1.0, m, k) if gauge == "coulomb" else (-1.0, k, m)
        self.profile = profile
        self.space = space
        self.extra_term_sign = float(extra_term_sign)
        self._eig = None

    def _terms(self, t: float):
        """Phi(sign mu(t)) and the diagonal of the multipolar mu'(t) term (None if zero)."""
        xi = self.basis.xi
        mu_dot = self.profile.mu_dot(t) if self.gauge == "multipolar" else 0.0
        return (np.exp((1j * self._sign * self.profile.mu(t)) * xi),
                self.extra_term_sign * mu_dot * xi if mu_dot != 0.0 else None)

    def eigensystem(self, t: float):
        """np.linalg.eigh of `matrix(t)`, read-only and kept for the last (mu(t), mu'(t))
        asked: the ground state and a static piece at the same coupling share one eigh."""
        key = (self.profile.mu(t), self.profile.mu_dot(t))
        if self._eig is None or self._eig[0] != key:
            eig = np.linalg.eigh(self.matrix(t))
            for arr in eig:
                arr.flags.writeable = False
            self._eig = (key, eig)
        return self._eig[1]

    def matrix(self, t: float) -> np.ndarray:
        """H(t) in the eigenbasis of X, formed from the checked K and M (Hermitian to rounding)."""
        phase, diag = self._terms(t)
        h = np.multiply.outer(phase, phase.conj())  # entry (i, j) e^(i s (xi_i - xi_j))
        h *= self._a
        h += self._c
        if diag is not None:
            h.reshape(-1)[::len(phase) + 1] += diag
        return h

    def operator(self, t: float) -> Callable[[np.ndarray], np.ndarray]:
        """x -> H(t) x in the eigenbasis of X, for a state x of shape (D,):
        C x + Phi (A (Phi^* x)), plus the multipolar mu' term, with H(t) not formed."""
        phase, diag = self._terms(t)
        return partial(self._apply, phase, phase.conj(), diag)

    def _apply(self, phase, conj, diag, x):
        y = self._c @ x
        y += phase * (self._a @ (conj * x))
        if diag is not None:
            y += diag * x
        return y


def build_time_dependent(ms: ModeSet, em: EmitterSpec, gauge: str,
                         profile: TimeProfile, cutoffs: Union[int, Sequence[int]],
                         extra_term_sign: float = TD_EXTRA_TERM_SIGN) -> TimeDependentHamiltonian:
    """Time-dependent Hamiltonian for coupling modulated by mu(t).

    mu == 1 reproduces the static builders; mu == 0 decouples the emitter.
    `extra_term_sign` exists so the sign convention of the multipolar extra
    term can be negated as a control; the default is the physically-correct
    choice.
    """
    cutoffs = _normalize_cutoffs(cutoffs, ms.n_modes)
    cs = couplings(ms, em)
    space = standard_space(cutoffs, em.n_levels)
    h_field = field_hamiltonian(ms.chi, _photon_part(space))
    return TimeDependentHamiltonian(gauge, cs, h_field, em.h0, profile, space, extra_term_sign)
