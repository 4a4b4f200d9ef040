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
the eigenbasis of the dense `HermitianGenerator`, one D x D eigendecomposition
per family.  Each matrix a bundle solves is checked once for Hermiticity before
the rounding is symmetrized away: a member formed in the Fock basis by its
`FockMember`, a quadrature-basis member on its raw blocks.

The family keeps the emitter's parity at any Fock cutoff.  Let
Pi = (-1)^(sum_mu n_mu) (x) S with S = diag(s), s_i = +-1, the signs of
`EmitterSpec.parity_signs`.  A truncated ladder links n only to n +- 1, so
(-1)^n a (-1)^n = -a holds exactly on the truncated space; the couplings are
odd, S eta_mu S = -eta_mu, and h0 is diagonal.  Hence X is even under Pi, and
so are exp(i s X), H_F, H_0, every H(theta), and the naive builders, whose
terms are nested commutators with X or products a (x) eta^dag.  `build_dipole`
(with or without the longitudinal hook, whose auxiliary factor joins the
photon factors), `build_naive`, the 1D and the beyond-dipole Coulomb
builders declare Pi, which their family verifies on each member, and the bundle
diagonalizes the even and odd sectors separately.  The beyond-dipole multipolar form and H(t)
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
Coulomb form declare it when their inputs are real; their family verifies it
and each sector is solved in real arithmetic.  A member solved in
the quadrature basis (of a `sectored` family) declares more: its basis
rotates each mode by R_mu = diag(e^(i n arg g_mu)), and
R_mu^dag a_mu R_mu = g^_mu a_mu with g^ = g / |g|, so with R = (x)_mu R_mu
the symmetry R P K R^dag holds whenever the rotated
chi~_mn = chi_mn g^_m^* g^_n is real (always for one mode, and for modes that
share one coupling phase) and D and h0 are real.  Otherwise a complex chi (a
lossy grid's) or complex couplings, the hook and the beyond-dipole multipolar
form declare nothing.

Every operator a builder sums is a list of Kronecker terms on one
tensor-product space, and `HilbertSpec.dense` is the only place where such a
list becomes a matrix: `field_terms` gives H_F, and `drive_terms` a mode
drive sum_mu a_mu (x) b_mu + H.c. (the generator X with b_mu = eta_mu^dag,
`multipolar_interaction` with b_mu = B_mu, and with scalar b_mu the
photon-only fields of `detect`).  The longitudinal hook's terms are the same
two lists on its auxiliary factor.

Every builder is a `CouplingSet` fed to one gauge family of its couplings
(`QuadratureFamily.of_couplings`); the models differ only in their couplings.
When they factor it is a `QuadratureFamily`, for any number of levels and modes
and per-mode cutoffs: `build_dipole` (with or without the longitudinal hook),
the theta = 0 `build_naive`, the beyond-dipole Coulomb form
(eta_mu = (eta_bar_mu / 2) sigma_x) and the 1D gC form
(eta_mu = h_mu(x0) d_hat / sqrt(2 omega_mu)).  In its basis every gauge map is a
diagonal phase P_theta, and H(theta) = P_theta M' P_theta^dag around one
theta-free M', whose diagonal blocks are K + h0'_kk with K = w^dag H_F w (the
`field_terms` of chi~, each local factor in the quadrature basis) and whose
off-diagonal blocks are diagonals beta_kl; the naive series changes only beta.
Couplings that do not factor take their `EigenbasisFamily`, written in the
eigenbasis B of X (`CouplingSet.generator`): H(theta, c) = Q K Q^dag + R M R^dag
with K and M the field and matter terms in B and the diagonal phases
Q = e^(-i theta c xi), R = e^(i (1 - theta) c xi); its naive series cuts
R M R^dag's phases to their Taylor polynomial, as beta's are cut.  So no gauge
exponential is a matrix: every one is a phase in an eigenbasis of X.

Every member enters a `HamiltonianBundle` by one route, as a `MemberRecipe` of
its family, and the recipe does not read theta: the members of a family are
exactly unitarily equivalent, H(theta) = W_theta H(0) W_theta^dag with
W_theta = e^(-i theta c X), so theta is a frame for the vectors and not a new
Hamiltonian.  A two-level emitter with a parity (a `sectored` family) is solved
in the quadrature basis, in its two parity sectors M0 +- diag(beta) J,
M0 = K + h0'_00, without forming H in the Fock basis: a recipe is beta, and the
gauge phases act only on vectors.  Every other family is `FockFormed`: a recipe
keeps its theta = 0 member `fock_matrix(0, c, order)`, formed in the Fock basis
and verified once (`FockMember`), its sectors are solved, and W_theta maps the
vectors placed from them (`Eigenbasis.apply`).  `build_gauge_pair` gives a
command's Coulomb and multipolar bundles as members of one family and, for the
correct pair, of one recipe: the couplings are split, K formed and X
eigendecomposed once, and the pair is solved once.  The longitudinal hook, the
canonical theta = 1 forms and a caller's matrix are bundles of that matrix,
which is its own family and recipe (`FockMember`).  H(t) is the family member at
theta = 0 or 1 and coupling scale mu(t), plus its mu' term, read through one sector
interface (`sector_members`, `sector_matrix`, `apply_sectors`, `sector_fock`,
`sector_coordinates`, `sector_xi`): a `sectored` family's two parity sectors are
n x n blocks of M0 between the phases with beta on the antidiagonal, and an
`EigenbasisFamily` is the one-sector case, its sector None the whole space.

The one canonical multipolar form is `canonical_terms`: the Kronecker terms of
H_F, `multipolar_interaction` and a matter term (h0, with `polarization_squared`
or without), written from the definition at theta = 1.  It truncates the Fock
space after the gauge map, so it is no member of the family.  `_multipolar_bundle`
is `dense` of it, for the theta = 1 naive builder (h0 alone) and the
beyond-dipole and 1D multipolar forms.  With h0 + P^2 it is also what certifies
the family at run time: for couplings that factor, the family's theta = 1 member
approaches it as the cutoff converges, and `gaugecheck.canonical_residual`
measures how far a member's eigenvector is from being one of its eigenvectors, a
check that a wrong beta or wrong gauge phases fail although every member still
agrees with every other.  No builder is written out by hand: the dense forms the
cores are checked against (the embedded-product `DenseSystem`, the single-mode
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
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hilbert import (HERMITIAN_CHUNK, HERMITIAN_TOL, Eigenbasis, HermitianGenerator,
                      HilbertSpec, Lanczos, PAULI_X, PAULI_Z, _kron_apply, _left_multiply,
                      fock_quadrature, hermitian_part, kron, ladder_matrix, lanczos,
                      matter_levels, max_abs, mode_phase, parity_labels, photon,
                      verify_members)
from .matter import EmitterSpec, TimeProfile
from .modes import ModeSet, NormalModeSet1D

TD_EXTRA_TERM_SIGN = +1.0
FACTOR_TOL = 1e-12
TLS_PARITY_SIGNS = (1, -1)  # sigma_z in the |e>, |g> order: S sigma_x S = -sigma_x
# the smallest sector that `solve_ground_apart` solves by eigvalsh alone, for a Lanczos run
# in place of its eigh: eigh - eigvalsh saved less than a 60-step run cost below it
LANCZOS_MIN_SECTOR = 200


class FockCutoffWarning(UserWarning):
    """Fock cutoff likely too small for the requested displacement."""


class GaugeFamily:
    """The member interface a gauge family offers the bundles of its recipes
    (`HamiltonianBundle`): `measure`, `sector_blocks`, `places`, `member_matrix` and
    `apply_member` of a `MemberRecipe` of one member, with the family's `space`, its
    declared `parity` labels (or None) and `time_reversal`, and whether it is `sectored`.
    A `QuadratureFamily`, a `FockFormed` family and a `FockMember`, the family of a matrix
    given to a bundle, each offer it.  By default a member's H is `fock_matrix` made
    Hermitian and is applied as that matrix."""

    sectored = False

    def _declare(self, parity_signs: Optional[np.ndarray], h0: np.ndarray, time_reversal: bool):
        """The declared symmetries: time reversal, the parity labels of the family's space
        (None without parity signs) and `ground_parity`, the sign of the sector that holds
        vacuum (x) h0's lowest level."""
        self.parity_signs, self.time_reversal = parity_signs, time_reversal
        self.parity = None if parity_signs is None else parity_labels(self.space, parity_signs)
        self.ground_parity = 1 if parity_signs is None else parity_signs[np.argmin(h0.diagonal())]

    def member_matrix(self, theta: float, recipe: MemberRecipe) -> np.ndarray:
        """H of the member of a recipe of one at gauge theta in the Fock basis, Hermitian."""
        return hermitian_part(self.fock_matrix(theta, recipe.scales[0], recipe.order),
                              "family member")

    def apply_member(self, theta: float, recipe: MemberRecipe, x: np.ndarray) -> np.ndarray:
        """H x in the Fock basis for a vector (D,) or a block (D, k), H from `member_matrix`."""
        return self.member_matrix(theta, recipe) @ x


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
        """X = sum_mu (a_mu^dag (x) eta_mu + a_mu (x) eta_mu^dag) on `space`: the drive
        `drive_terms` of b_mu = eta_mu^dag."""
        self._check_space(space)
        return space.dense(drive_terms(space, self.eta_matrices.conj().swapaxes(1, 2)))

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
        otherwise that of the dense `HermitianGenerator`, one D x D eigendecomposition.
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
    """A built Hamiltonian with its space, gauge and builder metadata: a member of a gauge
    family, held as the family and the member's `MemberRecipe`.

    Every member of a family comes from `in_quadrature_basis`.  The members of one family
    are exactly unitarily equivalent at any cutoff, H(theta) = W_theta H(0) W_theta^dag with
    W_theta = e^(-i theta c X), so a recipe does not read theta: theta is a frame for the
    vectors, which take it as they are placed (`places`).  A `sectored` family (a two-level
    emitter with a parity) holds K, its only (D/2) x (D/2) block, and a recipe O(D) numbers,
    its beta: the member's parity sectors are M0 +- diag(beta) J in the quadrature basis.
    Every other family's recipe keeps its theta = 0 member `fock_matrix(0, c, order)`,
    formed in the Fock basis and verified once (`FockMember`), and solves that member's
    sectors (`FockFormed`).  So the bundles of one recipe, a correct gauge pair
    (`build_gauge_pair`), share its sector solves; `apply` applies H(theta) from the family
    (`apply_member`), and `H` is formed in the Fock basis only when it is read.  A matrix
    given to the constructor, D x D for its space (else a `ValueError`), is its own family
    and recipe, a `FockMember`: the canonical theta = 1 forms, the longitudinal hook's
    members and callers' matrices.

    The family verifies the symmetries it declares when the bundle is made (`measure`): a
    parity, a label +1 or -1 per basis state (`parity`), and time reversal, that
    (-1)^(sum_mu n_mu) K with K complex conjugation (R P K R^dag in the quadrature basis)
    commutes with H; a wrong declaration raises `InvariantViolation`.  `diagnostics`
    reports the sector sizes, the measured off-block maximum (None without a parity) and,
    under time reversal, the measured max|Im| of the real forms as "time_reversal_imag".

    The spectrum is solved in the even and the odd sector separately, so two (D/2)^3
    eigensolves replace one D^3 solve; each sector is real symmetric under time reversal.
    Each sector's solve is kept: its eigenvalues, and all of its eigenvectors (eigh) or
    none (eigvalsh, while only eigenvalues are asked for).  `eigensystem` solves by eigh
    each sector whose eigenvectors it needs and the sector does not hold, and places into
    the full basis only the eigenvectors asked for, in ascending energy.  A bundle without
    a parity is the one-sector case.  For the transitions out of its ground state |0>, which an
    operator linear in the field takes into the other sector, a quadrature-basis bundle
    can solve |0>'s sector by eigvalsh and |0> itself by one shifted solve, held on its
    own, and the other sector by eigh, or from LANCZOS_MIN_SECTOR levels on by eigvalsh
    (`solve_ground_apart`); the spectral measure of a state in that sector is then read
    from its eigenvectors or from a Lanczos run (`reached_measure`).
    """

    def __init__(self, H: np.ndarray, space: HilbertSpec, gauge: GaugeParam,
                 metadata: Optional[dict] = None, parity: Optional[np.ndarray] = None,
                 time_reversal: bool = False):
        if np.shape(H) != (space.dim,) * 2:
            raise ValueError(f"H must be square (D, D), D = {space.dim}, got {np.shape(H)}")
        member = FockMember(H, space, f"{(metadata or {}).get('builder', 'bundle')} Hamiltonian",
                            parity, time_reversal)
        self._hold(member, gauge, member, metadata)

    @classmethod
    def in_quadrature_basis(cls, family: GaugeFamily, gauge: GaugeParam,
                            recipe: MemberRecipe, metadata: dict) -> HamiltonianBundle:
        """The member of `family` of a recipe of one (`recipe`), after the family has
        measured it (`measure`); the bundle keeps the recipe, and its gauge places the
        vectors."""
        return cls.__new__(cls)._hold(family, gauge, recipe, metadata)

    def _hold(self, family, gauge: GaugeParam, recipe, metadata: Optional[dict]):
        off, imag = family.measure(recipe)
        self.space, self.gauge, self.family, self.recipe = family.space, gauge, family, recipe
        self.metadata, self._H, self._vecs = {} if metadata is None else metadata, None, None
        self.parity, self.time_reversal = family.parity, family.time_reversal
        self.basis = "quadrature" if family.sectored else "fock"  # where its sectors are blocks
        sizes = [self.space.dim] if self.parity is None else np.bincount(self.parity < 0).tolist()
        self.diagnostics = {"sector_sizes": [n for n in sizes if n],
                            "parity_off_block": None if off is None else float(off[0])}
        if imag is not None:
            self.diagnostics["time_reversal_imag"] = float(imag[0])
        return self

    @property
    def H(self) -> np.ndarray:
        """H in the Fock basis, Hermitian, formed on first read (`member_matrix`)."""
        if self._H is None:
            self._H = self.family.member_matrix(self.gauge.theta, self.recipe)
        return self._H

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x in the Fock basis for a vector (D,) or a block (D, k) (`apply_member`)."""
        return self.family.apply_member(self.gauge.theta, self.recipe, x)

    def _places(self) -> list:
        """place(vecs, columns, v) per sector, even sector first, which writes eigenvectors v
        of the sector's block into those columns of the Fock-basis vecs (`places`)."""
        return self.family.places(self.gauge.theta, self.recipe)

    def _keep(self, parts: list, ground: Optional[np.ndarray]) -> tuple:
        """Kept as the recipe's solution, and returned: (vals, parts, order, ground) of the
        sector solutions `parts`, (eigenvalues, every eigenvector or None) per sector, even
        sector first, and |0> in its sector's coordinates when `solve_ground_apart` holds it
        (else None).  vals are the ascending eigenvalues, read-only; order is the stable
        argsort of the sectors' concatenated eigenvalues, so that a tie between sectors keeps
        the even sector first.  They are kept before a quadrature-basis bundle's phases are
        applied."""
        vals = np.concatenate([v for v, _ in parts])
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        vals.flags.writeable = False
        self.recipe.solution = vals, parts, order, ground
        return self.recipe.solution

    def _solve(self, lacking: np.ndarray) -> tuple:
        """One solve per sector, kept (`_keep`) with the held |0>: eigh of each sector
        `lacking` marks; every other sector keeps its solve, or is solved by eigvalsh
        without one."""
        held, ground = [None] * len(lacking), None
        if self.recipe.solution is not None:
            _, held, _, ground = self.recipe.solution
        parts = []
        for lack, part, block in zip(lacking, held, self.family.sector_blocks(self.recipe)):
            if lack:
                part = np.linalg.eigh(block)
            elif part is None:
                part = np.linalg.eigvalsh(block), None
            parts.append(part)
        return self._keep(parts, ground)

    def _lacking(self, wanted: Optional[np.ndarray]) -> np.ndarray:
        """Per sector, whether a column of the ascending order among these (every column for
        None) lies in it and it holds no eigenvectors, column 0 not counted while |0> is
        held; every sector without a kept solution."""
        solution = self.recipe.solution
        if solution is None:
            return np.ones(len(self.diagnostics["sector_sizes"]), dtype=bool)
        _, parts, order, ground = solution
        lacking = np.array([vecs is None for _, vecs in parts])
        if wanted is None:
            return lacking
        if ground is not None:
            wanted = wanted[wanted != 0]
        sector = np.searchsorted(np.cumsum([len(v) for v, _ in parts]), order[wanted],
                                 side="right")
        return lacking & (np.bincount(sector, minlength=len(parts)) > 0)

    def eigenvalues(self, k: Optional[int] = None) -> np.ndarray:
        """The lowest k eigenvalues (all without k), ascending and read-only, from the kept
        sector solves, or from one eigvalsh per sector, then kept."""
        solution = self.recipe.solution
        if solution is None:
            solution = self._solve(np.zeros(len(self.diagnostics["sector_sizes"]), dtype=bool))
        return solution[0][:k]

    def eigensystem(self, columns: Optional[Sequence[int]] = None):
        """(eigenvalues, eigenvectors) of H: every eigenvalue, ascending, and the
        eigenvectors of those columns of the ascending order, in the Fock basis.

        Each sector holds all of its eigenvectors or none.  A sector that holds none, while
        a column asked for lies in it, is solved by eigh (`_solve`), and then holds all of
        them; so is every sector without a kept solve.  Column 0 of a sector that holds none
        is |0> from the shifted solve of `solve_ground_apart`, which the recipe holds on its
        own.  Only the columns asked for are placed into the Fock basis, as a new
        (D, len(columns)) array.  Without columns every column is placed once, and that
        D x D matrix is kept read-only.  A tie between sectors keeps the even sector first.
        """
        wanted = None if columns is None else np.asarray(columns, dtype=int)
        lacking = self._lacking(wanted)
        if lacking.any():
            self._solve(lacking)
        vals, parts, order, ground = self.recipe.solution
        if wanted is None and self._vecs is not None:
            return vals, self._vecs
        # the position of each column asked for among the sectors' concatenated solutions
        wanted = order if wanted is None else order[wanted]
        vecs = np.zeros((self.space.dim, len(wanted)), dtype=complex, order="F")
        start = 0
        for place, (v, sector_vecs) in zip(self._places(), parts):
            hit = np.flatnonzero((wanted >= start) & (wanted < start + len(v)))
            if hit.size:
                held = ground[:, None] if sector_vecs is None else sector_vecs  # |0> alone
                place(vecs, hit, held[:, wanted[hit] - start])
            start += len(v)
        if columns is None:
            vecs.flags.writeable = False
            self._vecs = vecs
        return vals, vecs

    def solve_ground_apart(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Solve a quadrature-basis bundle for the transitions out of its ground state |0>:
        (parity, ground), the parity of each ascending level, +1 or -1, and |0> (D,) in the
        Fock basis; or None when this route does not apply.

        A detection operator linear in the field flips the photon parity, and with it the
        verified parity of the bundle, so from |0> it reaches only the other sector.  That
        sector is solved by eigh while it has fewer than LANCZOS_MIN_SECTOR levels, and by
        eigvalsh alone from that size on, where the measure of a state there comes from a
        Lanczos run (`reached_measure`).  The sector of the family's `ground_parity`, the
        guess that `QuadratureFamily.ground_energies` also trusts first, is solved by
        eigvalsh, and |0> at E0 by one shifted solve (`_shifted_solve`), placed and
        returned.  Two checks on the values found: the other sector's lowest level lies above
        E0, and the vector's residual in its sector, max|B u - E0 u|, is at most
        HERMITIAN_TOL * max(1, max|E|).  Both passing, the recipe holds |0> on its own, and
        `eigensystem` reads column 0 from it while |0>'s sector holds no eigenvectors.
        Either failing returns None; both sectors' solves are kept either way, so
        `eigensystem` then solves by eigh only the sectors that hold no eigenvectors.  A
        recipe that holds |0> already gives it and the kept eigenvalues without a solve, and
        one that holds only eigenvalues (`eigenvalues`) runs no eigvalsh again.  A bundle of
        a family that is not `sectored`, or one whose solve holds eigenvectors but not |0>,
        returns None at once.
        """
        solution = self.recipe.solution
        if not self.family.sectored or (solution is not None and solution[3] is None and any(
                vecs is not None for _, vecs in solution[1])):
            return None
        ground = 0 if self.family.ground_parity > 0 else 1
        if solution is None or solution[3] is None:
            kept = [None] * 2 if solution is None else [vals for vals, _ in solution[1]]
            parts, residual = [], 0.0
            for sector, block in enumerate(self.family.sector_blocks(self.recipe)):
                if sector != ground and len(block) < LANCZOS_MIN_SECTOR:
                    parts.append(np.linalg.eigh(block))
                    continue
                vals = np.linalg.eigvalsh(block) if kept[sector] is None else kept[sector]
                parts.append((vals, None))
                if sector == ground:
                    u = _shifted_solve(block, vals[0])
                    u /= np.linalg.norm(u)
                    residual = max_abs(block @ u - vals[0] * u)
            e0, above = parts[ground][0][0], parts[1 - ground][0][0]
            scale = max(1.0, *(abs(float(v[i])) for v, _ in parts for i in (0, -1)))
            solved = above > e0 and residual <= HERMITIAN_TOL * scale
            solution = self._keep(parts, u if solved else None)
            if not solved:
                return None
        _, parts, order, u = solution
        v = np.zeros((self.space.dim, 1), dtype=complex, order="F")
        self._places()[ground](v, np.array([0]), u[:, None])
        return np.where(order < len(parts[0][0]), 1, -1), v[:, 0]

    def reached_measure(self, psi: np.ndarray, tol: float, cap: int,
                        done: Callable[[Lanczos], bool]) -> tuple:
        """The spectral measure of the part of the Fock-basis state psi (D,) in the parity
        sector opposite the family's `ground_parity`, after `solve_ground_apart`:
        (y, vecs, run), y psi's coordinates in that sector's block
        (`QuadratureFamily.sector_start`).

        vecs is None where a Lanczos run (`hilbert.lanczos`) from y, on the block formed
        again and applied once per step, with `tol` and `cap`, was accepted by `done`: its
        Ritz pairs give the measure.  Otherwise vecs are the sector's eigenvectors U, and the
        measure is exact, the weight of the sector's k-th level |(U^dag y)_k|^2: a sector
        that holds them is read without a run (run None), and one whose run `done` does not
        accept is then solved by eigh and kept.
        """
        family, eps = self.family, -self.family.ground_parity
        sector = (1 - eps) // 2
        y = family.sector_start(self.gauge.theta, self.recipe, eps, psi)
        run = None
        if self.recipe.solution[1][sector][1] is None:
            run = lanczos(lambda x, block=next(family.sector_blocks(self.recipe, eps)):
                          _left_multiply(block, x[:, None])[:, 0], y, tol, cap, done)
            if done(run):
                return y, None, run
            self._solve(np.arange(2) == sector)
        return y, self.recipe.solution[1][sector][1], run

    def place_reached(self, out: np.ndarray, columns: np.ndarray, v: np.ndarray):
        """Write vectors v in the coordinates of `reached_measure` into those columns of the
        F-ordered Fock-basis out."""
        self._places()[(1 + self.family.ground_parity) // 2](out, columns, v)

    def shifted_vector(self, e0: float) -> np.ndarray:
        """A unit vector (D, 1) in the Fock basis at an energy E0 of H, by one step of
        inverse iteration in each sector (`_shifted_solve`).

        ||y|| is of order 1 / |E0 - lam| for the sector's level lam nearest E0, so the
        sector of the larger ||y|| holds E0 (the other's is of order 1 / gap), and only its
        y is placed (`_places`, with a quadrature-basis bundle's phases).  The vector leaves
        a residual near |E0 - lam| ||b|| / |<u, b>|, u the sector's eigenvector at lam and b
        the solve's right-hand side: for one mode at eta = 0.05-2.5 and N = 40-320 that
        ratio measured 2.2-3.7 for the basis vector `_shifted_solve` takes, against 5-1300
        for a random or a constant b.
        """
        ys = [_shifted_solve(block, e0) for block in self.family.sector_blocks(self.recipe)]
        norms = [np.linalg.norm(y) for y in ys]
        j = int(np.argmax(norms))
        v = np.zeros((self.space.dim, 1), dtype=complex, order="F")
        self._places()[j](v, np.array([0]), (ys[j] / norms[j])[:, None])
        return v


def _shifted_solve(block: np.ndarray, e0: float) -> np.ndarray:
    """y of (B - E0) y = b, one step of inverse iteration towards B's eigenvector at a level
    E0 of B: b is the basis vector whose diagonal entry of B lies nearest E0, and the shift
    sits one rounding below E0, so that a diagonal B (an uncoupled member's) is not
    singular.  A pivot that still rounds to exactly zero, as it did for 6 % of the 2 x 2
    and 3 x 3 sectors of random one-mode couplings, moves the shift 1024 roundings below
    E0.  B is left as it was."""
    shifted = block.copy()
    i = np.arange(len(block))
    rounding = np.finfo(float).eps * max(1.0, abs(e0))
    shifted[i, i] -= e0 - rounding
    start = np.zeros(len(block))
    start[np.argmin(np.abs(shifted.diagonal()))] = 1.0
    try:
        return np.linalg.solve(shifted, start)
    except np.linalg.LinAlgError:
        shifted[i, i] += 1023 * rounding
        return np.linalg.solve(shifted, start)


def _lowest_of_both(e0, other: np.ndarray):
    """min(E0, the lowest level of `other`), for blocks other (..., n, n) and their E0 (...):
    a Cholesky factorization of other - E0 proves every level of other above E0, so E0
    without an eigensolve; when it fails, one eigvalsh decides.  other is shifted in place,
    and restored before that eigvalsh."""
    i = np.arange(other.shape[-1])
    diag = other[..., i, i]
    other[..., i, i] -= np.asarray(e0)[..., None]
    try:
        np.linalg.cholesky(other)
        return e0
    except np.linalg.LinAlgError:
        other[..., i, i] = diag
        return np.minimum(e0, np.linalg.eigvalsh(other)[..., 0])


class FockMember(GaugeFamily):
    """A member formed in the Fock basis, D x D: the Hermitian part of its matrix h, checked
    once by `hilbert.hermitian_part`, with the symmetries declared on it verified.  It is
    the theta = 0 member a `FockFormed` recipe keeps, and the family and recipe of a
    `HamiltonianBundle` made from a matrix (whose `solution` it keeps).

    A parity is a label +1 or -1 per basis state, the diagonal of an operator Pi that
    commutes with h; it is verified as max|h[even, odd]| <= HERMITIAN_TOL * max(1, max|h|).
    Time reversal is that (-1)^(sum_mu n_mu) K, with K complex conjugation, commutes with h,
    so that p^dag h p is real symmetric for the phases p = i^[sum_mu n_mu odd]; it is
    verified the same way, max|Im(p^dag h p)| <= HERMITIAN_TOL * max(1, max|h|).  A wrong
    declaration raises `InvariantViolation`; it is never dropped silently.  The sectors are
    those of the parity (one without it), each solved as the real symmetric block p^dag h p
    under time reversal; its eigenvectors are p v, phased as they are scattered
    (`places`)."""

    def __init__(self, h: np.ndarray, space: HilbertSpec, what: str,
                 parity: Optional[np.ndarray] = None, time_reversal: bool = False):
        self.space, self.parity, self.time_reversal = space, parity, time_reversal
        m = self.h = hermitian_part(h, what)
        tol = HERMITIAN_TOL * max(1.0, max_abs(m))
        self.sectors, self.off = (np.arange(len(m)),), None
        self.imag = self.phases = self.solution = None
        if parity is not None:
            labels = self.parity = np.asarray(parity)
            if labels.shape != (len(m),) or np.any(np.abs(labels) != 1):
                raise ValueError("parity needs a label +1 or -1 per basis state")
            even, odd = np.flatnonzero(labels > 0), np.flatnonzero(labels < 0)
            self.off = np.array([max_abs(m[even[:, None], odd])])
            verify_members(self.off, tol, "declared parity does not commute with H",
                           "max|H[even, odd]|")
            self.sectors = tuple(s for s in (even, odd) if s.size)
        if time_reversal:
            odd_photons = parity_labels(space) < 0
            # max|Im(p^dag H p)|: Im(H) between states of equal photon parity, Re(H) between
            # states of opposite photon parity
            self.imag = np.array([max_abs(np.where(odd_photons[:, None] == odd_photons, m.imag,
                                                   m.real))])
            verify_members(self.imag, tol, "declared time reversal does not hold",
                           "max|Im(p^dag H p)|")
            self.phases = np.where(odd_photons, 1j, 1.0)

    def measure(self, recipe) -> tuple:
        """(parity off-block, max|Im(p^dag h p)|), each (1,) or None where not declared, as
        measured when h was checked."""
        return self.off, self.imag

    def member_matrix(self, theta: float, recipe) -> np.ndarray:
        """h, at any gauge: a matrix's bundle gives its gauge as a label."""
        return self.h

    def sector_blocks(self, recipe, first: int = 1):
        """The block of each sector, the sector of parity `first` first: the real symmetric
        p^dag h p under declared time reversal."""
        for s in self.sectors if first > 0 else self.sectors[::-1]:
            block = self.h if len(s) == len(self.h) else self.h[s[:, None], s]
            p = None if self.phases is None else self.phases[s]
            yield block if p is None else (block * np.multiply.outer(p.conj(), p)).real

    def places(self, theta: float, recipe) -> list:
        """`_scatter` per sector, even sector first."""
        return [partial(self._scatter, s) for s in self.sectors]

    def _scatter(self, rows: np.ndarray, vecs: np.ndarray, columns: np.ndarray, v: np.ndarray):
        """Write a sector's eigenvectors v into vecs[rows, columns], each row times its phase."""
        vecs[np.ix_(rows, columns)] = v if self.phases is None else v * self.phases[rows, None]


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


def field_terms(chi: np.ndarray, space: HilbertSpec):
    """The Kronecker terms of H_F = sum_{mu nu} chi_{mu nu} a_mu^dag a_nu over the photon
    factors of `space`, one per nonzero chi_{mu nu}: chi_mm n on mode m, rounded as the
    diagonal of (chi_mm a^dag) @ a, and chi_mn a_m^dag (x) a_n; real for a real chi.  Each
    is formed as it is asked for, so that a sum of them holds one at a time."""
    chi = np.atleast_2d(np.asarray(chi))
    ph = space.photon_indices
    if chi.shape != (len(ph),) * 2:
        raise ValueError("chi shape does not match photon factor count")
    chi = chi if np.any(np.imag(chi)) else chi.real
    a = lambda m: ladder_matrix(space.factors[ph[m]].fock_cutoff).real
    for m, n in zip(*np.nonzero(chi)):
        if m == n:
            root_n = np.sqrt(np.arange(space.factors[ph[m]].dim))
            yield {ph[m]: np.diag((chi[m, m] * root_n) * root_n)}
        else:
            yield {ph[m]: chi[m, n] * a(m).T, ph[n]: a(n)}


def drive_terms(space: HilbertSpec, b) -> list[dict]:
    """The Kronecker terms of sum_mu a_mu (x) b_mu + H.c. over the photon factors of `space`:
    a_mu (x) b_mu and its adjoint for a matrix b_mu on the matter factor, or one term
    b_mu a_mu + H.c. for a scalar b_mu, a photon-only drive.  A zero b_mu gives no term."""
    terms = []
    for b_mu, fi in zip(b, space.photon_indices):
        if not np.any(b_mu):
            continue
        a = ladder_matrix(space.factors[fi].fock_cutoff).real
        if np.ndim(b_mu) == 0:
            terms.append({fi: (m := b_mu * a) + m.conj().T})
        else:
            mi = space.matter_indices[0]
            terms += [{fi: a, mi: b_mu}, {fi: a.T, mi: np.conj(b_mu).T}]
    return terms


def field_hamiltonian(chi: np.ndarray, space: HilbertSpec) -> np.ndarray:
    """H_F on `space`, the sum of its `field_terms`."""
    return space.dense(field_terms(chi, space))


def _check_cutoff_headroom(cutoffs, theta: float, cs: CouplingSet):
    """Warn when the cutoff fails the displacement heuristic."""
    disp = max(abs(theta), abs(1.0 - theta)) * max_abs(cs.eta_matrices)
    needed = 4.0 * disp**2 + 10.0
    if min(cutoffs) < needed:
        warnings.warn(
            f"Fock cutoff {min(cutoffs)} below the displacement heuristic "
            f"4*(theta*eta)^2 + 10 = {needed:.1f}; spectra may not be converged",
            FockCutoffWarning, stacklevel=3)


def _sectors(part: np.ndarray, anti: np.ndarray, diag: Optional[np.ndarray] = None, first=1):
    """`part`, a stack of copies of M0, turned in place into each parity sector in turn,
    epsilon = first then -first: epsilon anti added on the antidiagonal and epsilon diag on
    the diagonal of every member, from the entries `part` had."""
    i = np.arange(part.shape[-1])
    base_diag, base_anti = part[..., i, i], part[..., i, i[::-1]]
    for eps in (first, -first):
        part[..., i, i] = base_diag
        part[..., i, i[::-1]] = base_anti + eps * anti
        if diag is not None:
            part[..., i, i] += eps * diag
        yield part


def _sectored(g: np.ndarray, d: np.ndarray, parity_signs: Optional[np.ndarray]) -> bool:
    """Whether a `QuadratureFamily` of these (g, D) is solved in its quadrature basis: two
    levels with a parity, coupled."""
    return len(d) == 2 and parity_signs is not None and bool(np.any(g))


def _half_sum_and_diff(beta: np.ndarray):
    """The real form of diag(beta) J: (beta + J beta) / 2 on the antidiagonal and
    i (beta - J beta) / 2 on the diagonal."""
    return (beta + beta[:, ::-1]) / 2, 0.5j * (beta - beta[:, ::-1])


@dataclass(eq=False)
class MemberRecipe:
    """Members of a gauge family: H(theta) at any theta, or with `order` the naive theta = 0
    series of that order, at each coupling scale c (S,).  A recipe does not read theta, which
    enters only the vectors of the bundle that holds it.  Of a `sectored` `QuadratureFamily`
    it holds no block: a member's parity sectors are P (M0 +- diag(beta) J) P^dag,
    P = diag(p), with the family's M0, and beta (S, n) is all a member adds; theta enters the
    phases p = e^(-i theta lam_0 c nu).  Of any other family (`FockFormed`) a recipe of one
    keeps its verified theta = 0 member, a `FockMember`, once measured.  A recipe of one
    member keeps the sector solves (`HamiltonianBundle._solve`) of every bundle that holds it
    in `solution`."""

    scales: np.ndarray
    order: Optional[int]
    beta: Optional[np.ndarray] = None
    member: Optional[FockMember] = field(default=None, init=False, repr=False)
    solution: Optional[tuple] = field(default=None, init=False, repr=False)


class QuadratureFamily(GaugeFamily):
    """The gauge family of an emitter whose couplings factor, eta_mu = g_mu D, at per-mode
    Fock cutoffs, in its field-quadrature basis.

    The basis is w = (x)_mu R_mu v_mu (x) U: v_mu is `fock_quadrature`'s
    cached eigenbasis of a_mu + a_mu^dag, R_mu = diag(e^(i n arg g_mu)) (the
    identity for g_mu = 0, where v_mu is the identity too unless the family
    is `sectored`, which keeps it so that the photon parity is the reversal J
    of the flattened photon index), and U holds the eigenvectors of the L x L
    matrix D, D U = U diag(lam).  There X = diag(nu lam_k) with
    nu = (+)_mu |g_mu| x_mu, so in the matter-major order (k, n), with n the
    flattened photon index, the gauge map W_theta at coupling scale c is the diagonal
    phase P_theta = diag(p_k), p_k = e^(-i theta lam_k c nu), and
    H(theta) = P_theta M' P_theta^dag with a theta-free M':

        M'_kk = K + h0'_kk,   M'_kl = diag(beta_kl),   beta_kl = h0'_kl e^(i (lam_k - lam_l) c nu),

    with K = w^dag H_F w and h0' = U^dag h0 U.  K is summed from local factors (`_field`): as
    R_mu^dag a_mu R_mu = g^_mu a_mu with g^ = g / |g| (+-1 for a real g, 1 for g = 0), it
    is v^T H_F(chi~) v, the `field_terms` of the rotated chi~_mn = chi_mn g^_m^* g^_n with
    each local matrix L taken to v_mu^T L v_mu.  The naive theta = 0 series cuts beta_kl's
    exponential to its Taylor polynomial.  So the members of a family differ only in O(n)
    numbers: their phases and beta (`_off_diagonal`).

    A two-level emitter with a parity S and couplings not all zero is solved here
    (`sectored`): with u_1 = S u_0 the parity (-1)^(sum n) (x) S is J (x) swap, and
    J nu = -nu gives p_1 = p_0^* = J p_0.  With M0 = K + h0'_00, beta = beta_01 and
    P = diag(p_0), a member's parity sectors are P (M0 +- diag(beta) J) P^dag when K = J K J,
    h0'_11 = h0'_00 and beta = J beta^* (b = J b^* for the B_01 = diag(b), b = beta p_0^2,
    of H); the even one is +, and `ground_parity` is the sign of the one holding vacuum (x)
    h0's lowest level.  Time reversal is R P K R^dag here, with R = (x)_mu R_mu, P the photon
    parity and K complex conjugation: it is declared when D and h0 are real and
    max|Im chi~| <= HERMITIAN_TOL * max(1, max|chi~|) (a single mode's chi~ = chi_00 is real
    for any phase of g, and modes that share one phase have a chi~ real to rounding), and
    then K is formed from Re chi~, v, U and K are real and J C J = C^* for
    C = M0 +- diag(beta) J, so Q^dag C Q = M0 +- (diag(Re beta) J - diag(Im beta)) with
    Q = (1 + iJ) / sqrt(2) is real symmetric with C's spectrum.  Any other emitter's family
    (an N-level emitter, one without a parity, uncoupled modes) is `FockFormed`: a recipe
    keeps its theta = 0 member, formed in the Fock basis (`fock_matrix`) and verified, and
    solves that member's sectors.

    What a `sectored` family holds: K, its only n x n block (n = D/2), formed on first use,
    and the O(n) vectors of its basis.  Its members are `MemberRecipe`s: `measure` checks K
    once per family and each member's beta; a sector handed to LAPACK (`sector_blocks`, or
    a stack of them in `ground_energies`) is a copy of M0 plus O(n) writes; eigenvectors
    take p on the way out (`_place`); and `apply_member` works from K.
    """

    @classmethod
    def of(cls, ms: ModeSet, em: EmitterSpec,
           cutoffs: Union[int, Sequence[int]]) -> GaugeFamily:
        """The gauge family of an emitter in a mode set at these cutoffs (`of_couplings`)."""
        return cls.of_couplings(couplings(ms, em), em.h0, em.parity_signs,
                                _normalize_cutoffs(cutoffs, ms.n_modes))

    @classmethod
    def of_couplings(cls, cs: CouplingSet, h0: np.ndarray, parity_signs: Optional[np.ndarray],
                     cutoffs: tuple[int, ...]) -> GaugeFamily:
        """The gauge family of a coupling set with matter Hamiltonian h0 and the emitter's
        parity signs (or None): a `QuadratureFamily` when `common_matter_matrix` factors the
        couplings, `FockFormed` unless it is `sectored`, else their `EigenbasisFamily`.  None
        forms a D x D matrix here."""
        split = cs.common_matter_matrix()
        if split is None:
            return EigenbasisFamily(cs, h0, cutoffs, parity_signs)
        kind = cls if _sectored(*split, parity_signs) else _FockQuadrature
        return kind(cs, *split, parity_signs, h0, cutoffs)

    def __init__(self, cs: CouplingSet, g: np.ndarray, d: np.ndarray,
                 parity_signs: Optional[np.ndarray], h0: np.ndarray, cutoffs: tuple[int, ...]):
        self.cs, self.g, self.cutoffs = cs, g, cutoffs
        self.space = standard_space(cutoffs, len(d))
        self.photons = HilbertSpec(self.space.factors[:-1])  # they precede the matter factor
        self.sectored = _sectored(g, d, parity_signs)
        unit = np.divide(g, abs(g), out=np.ones_like(g), where=g != 0)  # g^ = g / |g|, or 1
        rotation = np.multiply.outer(unit.conj(), unit)
        np.fill_diagonal(rotation, 1.0)  # |g^_m|^2 = 1 exactly, which the product rounds
        chi_tilde = cs.chi * rotation
        # max|Im chi~|: 0 for one mode, rounding for modes that share a phase (inf if D or h0
        # is complex, which declares nothing)
        self._chi_imag = max_abs(chi_tilde.imag) if _real(d, h0) else np.inf
        reversal = self._chi_imag <= HERMITIAN_TOL * max(1.0, max_abs(chi_tilde))
        self.chi_tilde = chi_tilde.real if reversal else chi_tilde
        lam, u = np.linalg.eigh(d.real if reversal else d)
        if self.sectored:
            lam = np.array([lam[0], -lam[0]])
            u = np.column_stack([u[:, 0], np.asarray(parity_signs) * u[:, 0]])
        self.lam, self.u = lam, u
        self.h0 = u.conj().T @ h0 @ u
        # the time reversal its members declare: R P K R^dag here when sectored, else P K on
        # the Fock-basis members of `FockFormed`
        self._declare(parity_signs, h0,
                      reversal if self.sectored else _real(cs.chi, cs.eta_matrices, h0))
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
        """K = w^dag H_F w, the `field_terms` of the rotated chi~ summed on the photon factors,
        each local matrix L conjugated to v_mu^T L v_mu: w_mu = R_mu v_mu and
        R_mu^dag a_mu R_mu = g^_mu a_mu, so w^dag H_F(chi) w = v^T H_F(chi~) v.  The one-factor
        term chi_mm n is diagonal, L = diag(l), and takes one product, (v^T * l) v, with
        v^T * l laid out in C order as v^T L is, so that the product rounds as v^T L v does.
        Real when chi~ is."""
        rotated = lambda t: {f: (np.multiply(self.v[f].T, local.diagonal(), order="C")
                                 if len(t) == 1 else self.v[f].T @ local) @ self.v[f]
                             for f, local in t.items()}
        terms = map(rotated, field_terms(self.chi_tilde, self.photons))
        if len(self.v) > 1:
            return self.photons.dense(terms)
        # one mode: K is its one term (none at chi = 0), a new matrix, taken as it is
        return next(terms, {0: np.zeros((self.photons.dim,) * 2)})[0]

    def _phases(self, theta: float, scales) -> np.ndarray:
        """The diagonal of P_theta of every member at its coupling scale c, (S, n, L):
        e^(-i theta lam_k c nu), photon-major."""
        t = np.multiply.outer(np.asarray(scales, dtype=float), self.x)
        return np.exp(-1j * theta * np.multiply.outer(t, self.lam))

    def _off_diagonal(self, scales, order: Optional[int], k=slice(None),
                      l=slice(None)) -> np.ndarray:
        """beta (L, L, S, n), whose (k, l) entry is the diagonal of M'_kl - delta_kl K at each
        coupling scale (beta_kk = h0'_kk); with `order`, of the naive theta = 0 series of
        that order; with level indices k and l, only that entry, (S, n).  It does not depend
        on theta."""
        t = np.multiply.outer(np.asarray(scales, dtype=float), self.x)
        z = 1j * np.subtract.outer(self.lam[k], self.lam[l])[..., None, None] * t
        series = (np.exp(z) if order is None
                  else sum(z**j / math.factorial(j) for j in range(order + 1)))
        return self.h0[k, l][..., None, None] * series

    def recipe(self, scales, order: Optional[int] = None) -> MemberRecipe:
        """The recipe of a two-level H(theta), at any theta, at each coupling scale, or with
        `order` of the naive theta = 0 series of that order: beta = beta_01 alone, no n x n
        block."""
        scales = np.asarray(scales, dtype=float)
        return MemberRecipe(scales, order, self._off_diagonal(scales, order, 0, 1))

    @cached_property
    def _k_checks(self) -> tuple[float, float, float]:
        """(max|M0|, max|M0 - J M0 J|, max|Im| of K's real form and of chi~, 0 without time
        reversal) of a `sectored` family, measured once on the raw K, HERMITIAN_CHUNK entries
        at a time, and each held to HERMITIAN_TOL * max(1, max|M0|): K is Hermitian,
        K = J K J and h0'_11 = h0'_00, and under time reversal (K + JKJ + i(KJ - JK)) / 2 is
        real."""
        k, n = self.k, len(self.x)
        jk = k[::-1]  # J K; K J is k[:, ::-1] and J K J is jk[:, ::-1]
        largest = max_abs(k.diagonal() + self.h0[0, 0])
        herm = off = 0.0
        imag = self._chi_imag if self.time_reversal else 0.0  # K was formed from Re chi~
        rows = max(1, HERMITIAN_CHUNK // n)
        for r in (slice(i, i + rows) for i in range(0, n, rows)):
            largest = max(largest, max_abs(k[r]))
            herm = max(herm, max_abs(k[r] - k[:, r].T.conj()))
            off = max(off, max_abs(k[r] - jk[r, ::-1]))
            if self.time_reversal:
                imag = max(imag, max_abs(np.imag(k[r]) + np.imag(jk[r, ::-1])
                                         + np.real(k[r, ::-1]) - np.real(jk[r])) / 2)
        off = max(off, abs(self.h0[1, 1] - self.h0[0, 0]))
        tol = HERMITIAN_TOL * max(1.0, largest)
        for value, claim, what in (
                (herm, "quadrature-basis K is not Hermitian before symmetrization",
                 "max|K - K^dag|"),
                (off, "declared parity does not commute with H", "max|M0 - J M0 J|"),
                (imag, "declared time reversal does not hold", "max|Im| of K's real form")):
            if value > tol:
                raise InvariantViolation(f"{claim} ({what} = {value:.3e})")
        return largest, off, imag

    def measure(self, recipe: MemberRecipe):
        """(parity off-block, max|Im| of the real forms or None) of every member of a recipe.

        K is checked once per family (`_k_checks`), and each member only by its beta, held to
        HERMITIAN_TOL * max(1, max|M0|, its max|beta|): the parity beta = J beta^* (the same
        as b = J b^*, since b = beta p^2 and J p = p^*).  `InvariantViolation` names the
        first member that fails.  Under time reversal the imaginary part of the real form of
        diag(beta) J is the real and the imaginary part of (beta - J beta^*) / 2, so the
        parity check holds it too: it is reported, not checked again.  A value reported is
        the larger of K's and the member's."""
        largest, k_off, k_imag = self._k_checks
        beta = recipe.beta
        tol = HERMITIAN_TOL * np.maximum(max(1.0, largest), np.abs(beta).max(axis=-1))
        off = np.maximum(k_off, np.abs(beta - beta[:, ::-1].conj()).max(axis=-1))
        verify_members(off, tol, "declared parity does not commute with H",
                       "max|M0 - J M0 J|, max|beta - J beta^*|")
        if not self.time_reversal:
            return off, None
        half_sum, half_diff = _half_sum_and_diff(beta)
        return off, np.maximum(k_imag, np.maximum(np.abs(half_sum.imag),
                                                  np.abs(half_diff.imag)).max(axis=-1))

    def _sector_stack(self, recipe: MemberRecipe, first: int = 1):
        """Each parity sector of every member, epsilon = first then -first, as one stack
        (S, n, n) turned in place: a copy of M0 per member with epsilon beta on its
        antidiagonal, or under time reversal its real form, epsilon Re beta there and
        -epsilon Im beta on the diagonal."""
        beta, n = recipe.beta, recipe.beta.shape[-1]
        i = np.arange(n)
        if not self.time_reversal:
            stack = np.empty(beta.shape + (n,), dtype=complex)
            stack[...] = self.k
            stack[..., i, i] += self.h0[0, 0]
            return _sectors(stack, beta, first=first)
        stack = np.empty(beta.shape + (n,))
        stack[...] = np.real(self.k)
        stack[..., i, i] += self.h0[0, 0].real
        half_sum, half_diff = _half_sum_and_diff(beta)
        return _sectors(stack, half_sum.real, half_diff.real, first)

    def ground_energies(self, recipe: MemberRecipe) -> np.ndarray:
        """Ground energies (S,) of every member of a recipe, after `measure`: E0 of the
        sector `ground_parity` once a Cholesky factorization of the other sector minus E0
        proves that sector's levels lie above it, else the lower ground level of the two."""
        self.measure(recipe)
        sectors = self._sector_stack(recipe, self.ground_parity)
        e0 = np.linalg.eigvalsh(next(sectors))[:, 0]
        return _lowest_of_both(e0, next(sectors))

    def sector_blocks(self, recipe: MemberRecipe, first: int = 1):
        """The parity sectors of the member of a recipe of one, sector `first` (the even one
        by default) first, as `HamiltonianBundle` solves them: one copy of M0 turned in place
        into the next, so solve it before asking for the next one."""
        return (sector[0] for sector in self._sector_stack(recipe, first))

    def places(self, theta: float, recipe: MemberRecipe) -> list:
        """`_place` per parity sector, the even sector first, of the member of a recipe of
        one at gauge theta, with its phases p."""
        p = self._phases(theta, recipe.scales)[0, :, 0]
        return [partial(self._place, eps, p) for eps in (1, -1)]

    def _place(self, eps: int, p: np.ndarray, vecs: np.ndarray, columns: np.ndarray,
               y: np.ndarray):
        """Write eigenvectors y of sector eps into those columns of vecs, in the Fock basis.

        The member's eigenvectors are [c; eps J c] / sqrt(2) with c = p y, or c = p Q y under
        time reversal: diag(p) takes the sector's eigenvectors to the member's.  With w the
        photon part of the basis, w J = P w for the photon parity P, so only z = w c is
        mapped: the Fock vector is z (x) (u_0 + eps P u_1) / sqrt(2).  Each column of y is
        mapped on its own, so its bits do not depend on which other columns are placed with
        it: one product over all of them rounds a column differently as their number
        changes.
        """
        c = (y + 1j * y[::-1]) / np.sqrt(2) if self.time_reversal else y
        out = vecs.T.reshape(vecs.shape[1], -1, 2)  # a view of the F-ordered vecs
        out[columns] = self.sector_fock(eps, (c * p[:, None]).T)

    def _coef(self, eps: int) -> np.ndarray:
        """(u_0 + eps P u_1) / sqrt(2) per photon state, (n, 2), P the photon parity: the
        matter factor of sector eps.  u_1 = S u_0, so each entry on a level of the other
        parity is exactly zero."""
        parity = parity_labels(self.photons)[:, None]
        return (self.u[:, 0] + eps * parity * self.u[:, 1]) / np.sqrt(2)

    def sector_fock(self, eps: int, c: np.ndarray) -> np.ndarray:
        """The Fock-basis states (k, n, 2), photon-major, of the states [c; eps J c] / sqrt(2)
        of this basis, c (k, n): z (x) (u_0 + eps P u_1) / sqrt(2) with z = w c, w the
        photon part of the basis, each row of c mapped on its own."""
        z = _kron_apply(self.basis.factors[:-1], c[:, :, None])[:, :, 0]
        return z[:, :, None] * self._coef(eps)

    def sector_coordinates(self, eps: int, psi: np.ndarray) -> np.ndarray:
        """c (n,) of the part of a Fock-basis state psi (D,) in sector eps, the inverse of
        `sector_fock` there: w^dag z with z the matter factor's overlap with
        (u_0 + eps P u_1) / sqrt(2), whose entries on the other parity are zero."""
        z = np.einsum("nk,nk->n", self._coef(eps).conj(), psi.reshape(-1, 2))
        return _kron_apply([f.conj().T for f in self.basis.factors[:-1]], z)

    def sector_start(self, theta: float, recipe: MemberRecipe, eps: int,
                     psi: np.ndarray) -> np.ndarray:
        """y (n,) of the part of a Fock-basis state psi (D,) in sector eps of the member of a
        recipe of one at gauge theta, in the coordinates of that sector's block
        (`sector_blocks`): the inverse of `_place`, y = c p^* from the `sector_coordinates`
        c, or Q^dag (c p^*) = (x - i J x) / sqrt(2) for x = c p^* under time reversal."""
        x = self.sector_coordinates(eps, psi) * self._phases(theta, recipe.scales)[0, :, 0].conj()
        return (x - 1j * x[::-1]) / np.sqrt(2) if self.time_reversal else x

    @cached_property
    def _m0(self) -> np.ndarray:
        """M0 = K + h0'_00 of a `sectored` family, after `measure` has checked K and the parity
        of h0'_01 once: beta - J beta^* = (h0'_01 - h0'_01^*) e^(i (lam_0 - lam_1) c nu), so
        one coupling scale checks every scale."""
        self.measure(self.recipe([1.0]))
        h00 = self.h0[0, 0].real if self.time_reversal else self.h0[0, 0]
        m0 = self.k.astype(np.result_type(self.k, h00))
        m0.flat[::len(m0) + 1] += h00
        return m0

    @cached_property
    def sector_xi(self) -> np.ndarray:
        """lam_0 nu, X's diagonal on a sector's coordinates."""
        return self.lam[0] * self.x

    @cached_property
    def _sector_exponents(self) -> tuple:
        """The constant columns (n, 1) of H(t)'s sectors: i (lam_0 - lam_1) nu, -i lam_0 nu and
        lam_0 nu (`sector_xi`)."""
        lam_x = self.sector_xi[:, None]
        return 1j * (self.lam[0] - self.lam[1]) * self.x[:, None], -1j * lam_x, lam_x

    def sector_members(self, theta: float, scales: np.ndarray, drives: np.ndarray,
                       sectors: tuple) -> list:
        """The parity sectors eps of H(theta, c) + drive X at each coupling scale c and drive
        (k,), one flat tuple (M0, q, q^*, b, d) per scale, as `sector_matrix` and
        `apply_sectors` take it: q, q^* and d are columns (n, 1) or None.

        With p = e^(-i theta lam_0 c nu), a state [a; eps J a] / sqrt(2) of sector eps is
        mapped to [H_eps a; eps J H_eps a] / sqrt(2),

            H_eps a = p (M0 (p^* a)) + eps p beta J (p^* a) + drive lam_0 nu a,

        beta = h0'_01 e^(i (lam_0 - lam_1) c nu); J p = p^*, so the coupling term is
        eps b J a with b = h0'_01 e^(i (1 - theta) (lam_0 - lam_1) c nu).  q = p is None at
        theta = 0 and b the constant h0'_01 at theta = 1, so at either gauge endpoint the
        k members take one exponential of (k, n) entries.  The columns of the sectors' block
        are the sectors in their order, and b is (n, s), or (1, s) at theta = 1."""
        off, phase, lam_x = self._sector_exponents
        k = len(scales)
        q = q_conj = d = [None] * k
        if theta != 0.0:
            q = np.exp(np.multiply.outer(theta * scales, phase))
            q_conj = q.conj()
        b = self.h0[0, 1] * np.array(sectors, dtype=float)[None, :]
        b = ([b] * k if theta == 1.0
             else np.exp(np.multiply.outer((1 - theta) * scales, off)) * b)
        if np.any(drives):
            d = np.multiply.outer(drives, lam_x)
        return list(zip([self._m0] * k, q, q_conj, b, d))

    def sector_matrix(self, member) -> np.ndarray:
        """H_eps of a member of one sector (`sector_members`), n x n: M0 between the phases,
        b on the antidiagonal and the drive on the diagonal."""
        m0, q, q_conj, b, d = member
        h = m0 * (q * q_conj.T) if q is not None else m0.astype(complex)
        i = np.arange(len(h))
        h[i, i[::-1]] += b[:, 0]
        if d is not None:
            h[i, i] += d[:, 0]
        return h

    def apply_sectors(self, member, a: np.ndarray) -> np.ndarray:
        """H_eps a for the block a (n, s) of a member's sectors (`sector_members`), one n x n
        product."""
        m0, q, q_conj, b, d = member
        y = _left_multiply(m0, a) if q is None else q * _left_multiply(m0, q_conj * a)
        y += b * a[::-1]
        if d is not None:
            y += d * a
        return y

    def apply_member(self, theta: float, recipe: MemberRecipe, x: np.ndarray) -> np.ndarray:
        """H x in the Fock basis for the member of a recipe of one at gauge theta, x a vector
        (D,) or a block (D, k): H = P M' P^dag, M' = [[M0, diag(beta)], [diag(beta^*), M0]],
        is applied in this basis, photon-major, as P (M' (P^* v)), so that neither H nor M0
        is formed."""
        p = self._phases(theta, recipe.scales)[0][:, :, None]
        beta = recipe.beta[0][:, None]
        n = len(beta)
        y = self.basis.from_fock(x).reshape(n, 2, -1) * p.conj()
        z = _left_multiply(self.k, y.reshape(n, -1)).reshape(y.shape) + self.h0[0, 0] * y
        z[:, 0] += beta * y[:, 1]
        z[:, 1] += beta.conj() * y[:, 0]
        return self.basis.to_fock((p * z).reshape(x.shape))

    def fock_matrix(self, theta: float, scale: float, order: Optional[int] = None) -> np.ndarray:
        """w P_theta M' P_theta^dag w^dag, not symmetrized: H(theta), or with `order` the
        naive theta = 0 series of that order, at one coupling scale, in the Fock basis,
        photon-major."""
        n, levels = len(self.x), len(self.lam)
        m = kron(self.k, np.eye(levels, dtype=complex)).reshape(n, levels, n, levels)
        i = np.arange(n)
        # the diagonals beta_kl of every block; beta_kk = h0'_kk, its exponent being zero
        m[i, :, i, :] += np.moveaxis(self._off_diagonal([scale], order)[:, :, 0], -1, 0)
        p = self._phases(theta, [scale])[0]
        m *= p[:, :, None, None]
        m *= p.conj()
        return self.basis.fock_matrix(m.reshape(n * levels, n * levels))


class FockFormed(GaugeFamily):
    """The member interface of a family whose members are formed in the Fock basis: an
    `EigenbasisFamily`, and a `QuadratureFamily` that is not `sectored` (N-level emitters,
    emitters without a parity, uncoupled modes).

    The members of a family are exactly unitarily equivalent at any cutoff,
    H(theta) = W_theta H(0) W_theta^dag with W_theta = e^(-i theta c X), so a recipe
    (`recipe`) does not read theta.  Its member is the theta = 0 one, `fock_matrix(0, c,
    order)`, formed once and verified (`FockMember`: its Hermiticity, the emitter's parity
    (-1)^(sum n) (x) S, and time reversal when chi, the couplings and h0 are real), and its
    parity sectors are solved, real symmetric under time reversal (`sector_blocks`).
    theta enters only the vectors: a sector's eigenvector is scattered into the Fock basis
    and mapped by W_theta, `basis.apply`, each column on its own (`places`).  `apply_member`
    and `member_matrix` read H(theta) = `fock_matrix(theta, c)` itself, so that a pairing
    check against it (`detect.rate_table`) is not W H(0) W^dag again."""

    def recipe(self, scales, order: Optional[int] = None) -> MemberRecipe:
        """The recipe of H(theta), at any theta, at each coupling scale, or with `order` of
        the naive theta = 0 series of that order; a member is formed as it is measured."""
        return MemberRecipe(np.asarray(scales, dtype=float), order)

    def _member(self, recipe: MemberRecipe) -> FockMember:
        """The theta = 0 member of a recipe of one, formed and verified on first use and kept
        on the recipe."""
        if recipe.member is None:
            recipe.member = FockMember(self.fock_matrix(0.0, recipe.scales[0], recipe.order),
                                       self.space, "H(0)", self.parity, self.time_reversal)
        return recipe.member

    def measure(self, recipe: MemberRecipe) -> tuple:
        """(parity off-block, max|Im(p^dag H p)|) of the member of a recipe of one, each (1,)
        or None where not declared, from its verification."""
        return self._member(recipe).measure(recipe)

    def ground_energies(self, recipe: MemberRecipe) -> np.ndarray:
        """Ground energies (S,) of every member of a recipe, each member formed, verified and
        let go in turn: E0 of the sector `ground_parity` once a Cholesky factorization of the
        other sector minus E0 proves that sector's levels lie above it, else the lower
        ground level of the two."""
        e0 = []
        for scale in recipe.scales:
            sectors = self.sector_blocks(MemberRecipe([scale], recipe.order), self.ground_parity)
            ground, other = np.linalg.eigvalsh(next(sectors))[0], next(sectors, None)
            e0.append(ground if other is None else _lowest_of_both(ground, other))
        return np.array(e0)

    def sector_blocks(self, recipe: MemberRecipe, first: int = 1):
        """The parity sectors of the theta = 0 member of a recipe of one, sector `first`
        first."""
        return self._member(recipe).sector_blocks(recipe, first)

    def places(self, theta: float, recipe: MemberRecipe) -> list:
        """place(vecs, columns, v) per sector, even sector first: the member's `places`,
        each vector then mapped by W_theta (none at theta = 0)."""
        places, s = self._member(recipe).places(0.0, recipe), -theta * recipe.scales[0]
        return places if s == 0.0 else [partial(self._place, s, place) for place in places]

    def _place(self, s: float, place: Callable, vecs: np.ndarray, columns: np.ndarray,
               v: np.ndarray):
        """Write place's vectors, mapped by e^(i s X), into those columns of vecs.  Each column
        is mapped on its own, a stack (k, D, 1), so that its bits do not depend on which
        other columns are placed with it."""
        z = np.zeros((len(columns), self.space.dim, 1), dtype=complex)
        place(z[:, :, 0].T, np.arange(len(columns)), v)
        vecs[:, columns] = self.basis.apply(s, z)[:, :, 0].T

    # the default, ahead of a sectored `QuadratureFamily`'s in a `_FockQuadrature`
    apply_member = GaugeFamily.apply_member


class _FockQuadrature(FockFormed, QuadratureFamily):
    """A `QuadratureFamily` that is not `sectored`, whose members come from its `fock_matrix`
    (`FockFormed`)."""


class EigenbasisFamily(FockFormed):
    """The gauge family of any coupling set, in the eigenbasis B of its generator X
    (`CouplingSet.generator`), X = B diag(xi) B^dag, where every gauge exponential exp(i s X)
    is the diagonal phase e^(i s xi).

    The family holds K = B^dag (H_F (x) 1) B and M = B^dag (1 (x) h0) B, each formed on first
    use and checked once by `hermitian_part`.  Its member at gauge theta and coupling scale c
    is H'(theta, c) = Q K Q^dag + R M R^dag, Q = e^(-i theta c xi), R = e^(i (1 - theta) c xi):
    `fock_matrix` gives B H' B^dag, the members of couplings that do not factor
    (`FockFormed`).  For H(t) it offers the sector interface of a `sectored`
    `QuadratureFamily` as its one-sector case, the sector None of the whole space:
    `sector_members` gives the phases (with a drive d xi for H(t)'s mu' term),
    `sector_matrix` forms H', `apply_sectors` applies it, `sector_fock` and
    `sector_coordinates` map through B, and `sector_xi` is xi.  The emitter's parity, when
    declared, does not split H(t) yet.  A phase whose gauge weight (theta for Q, 1 - theta
    for R) is zero is not formed.  The naive theta = 0 series is H'(0, c) with R M R^dag's
    entries e^(i c (xi_i - xi_j)) cut to their Taylor polynomial.  The family declares the
    emitter's parity signs, when given, and time reversal when chi, the couplings and h0 are
    real.
    """

    def __init__(self, cs: CouplingSet, h0: np.ndarray, cutoffs: tuple[int, ...],
                 parity_signs: Optional[np.ndarray] = None):
        self.cs, self.h0, self.cutoffs = cs, h0, cutoffs
        self.space = standard_space(cutoffs, cs.matter_dim)
        self._declare(parity_signs, h0, _real(cs.chi, cs.eta_matrices, h0))

    @cached_property
    def basis(self) -> Eigenbasis:
        """B, X's eigenbasis, formed on first use."""
        return self.cs.generator(self.space)

    @cached_property
    def k(self) -> np.ndarray:
        """K = B^dag (H_F (x) 1) B, Hermitian."""
        return hermitian_part(self.basis.transform(field_hamiltonian(self.cs.chi, self.space)),
                              "eigenbasis field term K")

    @cached_property
    def m(self) -> np.ndarray:
        """M = B^dag (1 (x) h0) B, Hermitian."""
        return hermitian_part(self.basis.transform(self.space.dense(
            [{self.space.matter_indices[0]: self.h0}])), "eigenbasis matter term M")

    @property
    def sector_xi(self) -> np.ndarray:
        """xi, X's diagonal on the coordinates of its one sector (None), the whole space."""
        return self.basis.xi

    def sector_members(self, theta: float, scales: np.ndarray, drives: np.ndarray,
                       sectors: tuple) -> list:
        """H'(theta, c) + diag(d), d = drive xi (None for a zero drive), at each coupling
        scale c and drive (k,), on its one sector (None): per scale the flat tuple
        (b, p, p^*, c, q, q^*, d) that `sector_matrix` and `apply_sectors` take, the terms
        (block, phase, its conjugate) of K and of M, the one whose gauge weight is zero (its
        phase None) first.  theta and 1 - theta are not both zero, so the second term always
        has a phase.  Each phase is exp((i w c) xi) for the weight w = -theta or 1 - theta,
        evaluated in that order, and each phase and d is a column (D, 1)."""
        xi, members = self.basis.xi[:, None], []
        for scale, drive in zip(scales, drives):
            q = None if theta == 0.0 else np.exp((1j * -theta * scale) * xi)
            r = None if theta == 1.0 else np.exp((1j * (1 - theta) * scale) * xi)
            k = self.k, q, q if q is None else q.conj()
            m = self.m, r, r if r is None else r.conj()
            members.append((k + m if q is None else m + k) + (drive * xi if drive else None,))
        return members

    def sector_matrix(self, member) -> np.ndarray:
        """H' of a member (`sector_members`) in the eigenbasis of X, Hermitian to rounding:
        the phased block of the second term formed in place, and the first term added."""
        b, p, p_conj, c, q, q_conj, d = member
        h = q * q_conj.T  # entry (i, j) e^(i w c (xi_i - xi_j))
        h *= c
        h += b if p is None else (p * p_conj.T) * b
        if d is not None:
            h.reshape(-1)[::len(h) + 1] += d[:, 0]
        return h

    def apply_sectors(self, member, a: np.ndarray) -> np.ndarray:
        """H' a in the eigenbasis of X for a block a (D, 1) of a member (`sector_members`),
        with H' not formed: a block without a phase is one product, a phased one
        P (block (P^* a))."""
        b, p, p_conj, c, q, q_conj, d = member
        y = b @ a if p is None else p * (b @ (p_conj * a))
        y += q * (c @ (q_conj * a))
        if d is not None:
            y += d * a
        return y

    def sector_fock(self, sector, c: np.ndarray) -> np.ndarray:
        """The Fock-basis states (k, D) of coordinates c (k, D) in its one sector: B c."""
        return self.basis.to_fock(c.T).T

    def sector_coordinates(self, sector, psi: np.ndarray) -> np.ndarray:
        """The coordinates (D,) of a Fock-basis state psi in its one sector: B^dag psi."""
        return self.basis.from_fock(psi)

    def fock_matrix(self, theta: float, scale: float, order: Optional[int] = None) -> np.ndarray:
        """B H'(theta, c) B^dag, not symmetrized, or with `order` the naive theta = 0 series of
        that order, sum_{j <= order} ((i c)^j / j!) ad_X^j(1 (x) h0) + H_F: in B, the entries
        e^(i c (xi_i - xi_j)) of R M R^dag cut to their Taylor polynomial, as
        `QuadratureFamily._off_diagonal` cuts beta's (`build_naive` and the scan ask for it
        at theta = 0 only)."""
        if order is None:
            member = self.sector_members(theta, [scale], [0.0], (None,))[0]
            return self.basis.fock_matrix(self.sector_matrix(member))
        z = 1j * scale * np.subtract.outer(self.basis.xi, self.basis.xi)
        series = sum(z**j / math.factorial(j) for j in range(order + 1))
        return self.basis.fock_matrix(self.k + self.m * series)


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
    """h (x) 1 plus the hook's field and drive terms on the auxiliary factor, the last photon
    factor of the extended space (the other modes' chi and b are zero: they give no term)."""
    ext = HilbertSpec(list(space.factors) + [photon(lc.cutoff)])
    d_mat = np.einsum("cij,c->ij", em.dipole, np.asarray(lc.direction, dtype=float).reshape(3))
    pad = [0.0] * len(space.photon_indices)
    aux = ext.dense([*field_terms(np.diag(pad + [lc.omega]), ext),
                     *drive_terms(ext, pad + [lc.coupling * d_mat])])
    return kron(h, np.eye(lc.cutoff + 1)) + aux, ext


def _family_bundle(cs: CouplingSet, h0: np.ndarray, parity_signs: Optional[Sequence[int]],
                   cutoffs: tuple[int, ...], gauge: GaugeParam, meta: dict,
                   order: Optional[int] = None, hook: Optional[Callable] = None,
                   family: Optional[GaugeFamily] = None,
                   recipe: Optional[MemberRecipe] = None) -> HamiltonianBundle:
    """The member at this gauge, or with `order` the naive theta = 0 series, of the couplings
    cs with matter Hamiltonian h0, of the family of cs (`QuadratureFamily.of_couplings`)
    unless a family of them is given: from `recipe` when one of this member is given, else
    from a new one of the family (`in_quadrature_basis`).  With hook(h, space) -> (h, space)
    the family's member is formed at this gauge in the Fock basis instead (`fock_matrix`)
    and the hook appends the longitudinal factor to it; that bundle declares the parity of
    parity_signs, when given, and no time reversal."""
    if family is None:
        family = QuadratureFamily.of_couplings(cs, h0, parity_signs, cutoffs)
    elif family.cutoffs != cutoffs or not (np.array_equal(family.cs.eta_matrices, cs.eta_matrices)
                                           and np.array_equal(family.cs.chi, cs.chi)):
        raise ValueError("the family given is not of these couplings and cutoffs")
    if order is not None and gauge.theta != 0.0:
        raise ValueError("the naive series is built at theta = 0 only")
    if hook is None:
        return HamiltonianBundle.in_quadrature_basis(
            family, gauge, family.recipe([1.0], order) if recipe is None else recipe, meta)
    return _bundle(*hook(family.fock_matrix(gauge.theta, 1.0, order), family.space), gauge,
                   meta, parity_signs)


def build_dipole(ms: ModeSet, em: EmitterSpec, g: GaugeParam,
                 cutoffs: Union[int, Sequence[int]],
                 longitudinal: Optional[LongitudinalCoupling] = None, *,
                 family: Optional[GaugeFamily] = None,
                 recipe: Optional[MemberRecipe] = None) -> HamiltonianBundle:
    """Dipole-approximation Hamiltonian at gauge parameter theta.

    H = V H_F V^dag + U H_0 U^dag with V = exp(-i theta X) and
    U = exp(+i (1 - theta) X), both exact on the truncated space: diagonal
    phases in an eigenbasis of X.  The medium-assisted longitudinal term is off unless a
    `LongitudinalCoupling` hook is supplied.  The bundle declares the
    emitter's parity whenever `EmitterSpec.parity_signs` finds one; the
    auxiliary factor of the hook counts as one more photon factor in it.
    Without the hook it declares time reversal when chi, the couplings and
    h0 are real.  The member is a recipe of the gauge family of the couplings
    (`_family_bundle`: a `QuadratureFamily` when they factor, else an
    `EigenbasisFamily`); the hook extends the member formed in the Fock basis;
    `family`, `QuadratureFamily.of(ms, em, cutoffs)` when the caller already
    has it (`build_gauge_pair`), is used instead of making it again, and so
    is `recipe`, the `MemberRecipe` of a correct member of that family, which
    does not read theta (`build_gauge_pair` hands the Coulomb member's to the
    multipolar one).
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
    return _family_bundle(cs, em.h0, em.parity_signs, cutoffs, g, meta, hook=hook,
                          family=family, recipe=recipe)


def build_gauge_pair(ms: ModeSet, em: EmitterSpec, cutoffs: Union[int, Sequence[int]],
                     naive_order: Optional[int] = None, *,
                     family: Optional[GaugeFamily] = None
                     ) -> tuple[HamiltonianBundle, HamiltonianBundle]:
    """The Coulomb and the multipolar bundle of `build_dipole`, the Coulomb one
    `build_naive`'s theta = 0 series of `naive_order` when that is given.  Both bundles are
    members of one gauge family of the couplings, `QuadratureFamily.of(ms, em, cutoffs)`
    unless the caller gives it: K is formed once when the couplings factor, and X is
    eigendecomposed once when they do not.  A correct pair holds one `MemberRecipe`, which
    does not read theta, so its two bundles have one solve owner and one spectrum."""
    if family is None:
        family = QuadratureFamily.of(ms, em, cutoffs)
    coulomb = (build_dipole(ms, em, COULOMB, cutoffs, family=family) if naive_order is None
               else build_naive(ms, em, COULOMB, cutoffs, naive_order, family=family))
    return coulomb, build_dipole(ms, em, MULTIPOLAR, cutoffs, family=family,
                                 recipe=coulomb.recipe if naive_order is None else None)


def _eta_summary(cs: CouplingSet):
    """The scalar eta_mu of each mode, or None without them."""
    try:
        return cs.scalars.tolist()
    except ValueError:
        return None


def multipolar_interaction(cs: CouplingSet, space: HilbertSpec) -> list[dict]:
    """The Kronecker terms of -i sum_{mu nu} chi*_{mu nu} a_mu (x) eta_nu^dag + H.c., the
    canonical multipolar drive: `drive_terms` of b_mu = B_mu = -i sum_nu chi*_{mu nu}
    eta_nu^dag."""
    return drive_terms(space, -1j * np.einsum("mn,nji->mij", cs.chi.conj(),
                                              cs.eta_matrices.conj()))


def polarization_squared(cs: CouplingSet) -> np.ndarray:
    """sum_{mu nu} chi_{mu nu} eta_mu^dag eta_nu, the multipolar P^2 term as a matter matrix."""
    eta = cs.eta_matrices
    return np.einsum("mn,mji,njk->ik", cs.chi, eta.conj(), eta)


def canonical_terms(cs: CouplingSet, matter: np.ndarray, space: HilbertSpec) -> list[dict]:
    """The Kronecker terms of the canonical multipolar H = H_F + `multipolar_interaction` +
    matter at theta = 1 on `space`, the matter term (h0, with the P^2 term or without it)
    on its matter factor.  It truncates the Fock space after the gauge map, not before, so
    it is no member of the gauge family: for couplings that factor, the family's theta = 1
    member of h0 approaches its form with h0 + `polarization_squared` only as the cutoff
    converges."""
    return [*field_terms(cs.chi, space), *multipolar_interaction(cs, space),
            {space.matter_indices[0]: matter}]


def _multipolar_bundle(cs: CouplingSet, matter: np.ndarray, cutoffs: tuple[int, ...],
                       meta: dict, parity_signs: Optional[Sequence[int]] = None,
                       time_reversal: bool = False) -> HamiltonianBundle:
    """`dense` of the `canonical_terms` on the `standard_space` of the cutoffs; parity and
    time reversal declared as in `_bundle`."""
    space = standard_space(cutoffs, cs.matter_dim)
    return _bundle(space.dense(canonical_terms(cs, matter, space)), space, MULTIPOLAR, meta,
                   parity_signs, time_reversal)


def build_naive(ms: ModeSet, em: EmitterSpec, g: GaugeParam,
                cutoffs: Union[int, Sequence[int]], order: int = 1, *,
                family: Optional[GaugeFamily] = None) -> HamiltonianBundle:
    """Gauge-violating reference Hamiltonians from direct (naive) truncation.

    theta = 0: the minimal-coupling conjugation U H_0 U^dag is replaced by its
    Taylor series in the generator, truncated at `order` (order 1 keeps the
    linear drive only): the family's recipe of that order, the exponential of
    each phase cut to its Taylor polynomial in the family's basis.  theta = 1:
    the correct multipolar form minus the mode-truncated polarization-squared
    correction.  Other theta values are not defined.  Parity and time
    reversal are declared, and `family` taken, as in `build_dipole`.
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
        return _family_bundle(cs, em.h0, em.parity_signs, cutoffs, g, meta, order,
                              family=family)
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

    H(t) is the family's member at theta = 0 (Coulomb) or theta = 1 (multipolar) and
    coupling scale c = mu(t), plus the drive sign * mu'(t) X, in the family's eigenbasis of
    X.  X, H_F and h0 commute with the parity (-1)^(sum n) (x) S at every t, so a state of
    one parity sector stays there, and H(t) is kept per sector through one interface of the
    family: `sector_members` gives the members of given sectors at given coupling scales and
    drives, `sector_matrix` forms one sector's block, `apply_sectors` applies the sectors'
    blocks to a block of their coordinates (n, s), one column per sector, `sector_fock` and
    `sector_coordinates` map coordinates to the Fock basis and back, and `sector_xi` is X's
    diagonal on a sector's coordinates.  The sectors are (1, -1) for a `sectored`
    `QuadratureFamily` (a two-level emitter with a parity), each of n = D/2 coordinates, and
    (None,), the whole space, for an `EigenbasisFamily`.  `split` takes a Fock-basis state
    to the sectors where its coordinates are nonzero and to those coordinates, `to_fock`
    back; `operators(times, sectors)` applies H(t) to those coordinates without forming it,
    at the stage times of a step of the propagator's dynamic pieces; `matrix(t, sector)`
    forms one sector's block and `eigensystem(t, sector)` diagonalizes it, for static pieces
    and the ground state.  A sector that is not in `sectors` raises `ValueError`.
    """

    def __init__(self, gauge: str, family: GaugeFamily, profile: TimeProfile,
                 extra_term_sign: float = TD_EXTRA_TERM_SIGN):
        if gauge not in ("coulomb", "multipolar"):
            raise ValueError(f"unknown gauge {gauge!r}")
        self.gauge, self.family, self.profile = gauge, family, profile
        self.theta = 0.0 if gauge == "coulomb" else 1.0
        self.space, self.extra_term_sign = family.space, float(extra_term_sign)
        self.sectors = (1, -1) if family.sectored else (None,)
        self._eig = {}

    def _drive(self, t: float) -> float:
        """sign * mu'(t) in the multipolar gauge (theta = 1), none in the Coulomb gauge."""
        return self.extra_term_sign * self.profile.mu_dot(t) if self.theta else 0.0

    def _members(self, times, sectors: tuple) -> list:
        """The family's member at mu(t) on these sectors for each t, with the drive
        sign * mu'(t) X in the multipolar gauge, all from one exponential."""
        if not set(sectors) <= set(self.sectors):
            raise ValueError(f"H(t) has the sectors {self.sectors}, not {sectors}")
        return self.family.sector_members(
            self.theta, np.array([self.profile.mu(t) for t in times]),
            np.array([self._drive(t) for t in times]), sectors)

    def split(self, psi: np.ndarray) -> tuple:
        """(sectors, a) of a Fock-basis state psi: the sectors where its coordinates are
        nonzero, such as (1,), (-1,), (1, -1) or (None,), and those coordinates a (n, s),
        one column per sector.  Off its sector a state's coordinates are exact zeros."""
        found = [(eps, self.family.sector_coordinates(eps, psi)) for eps in self.sectors]
        sectors, a = zip(*((eps, c) for eps, c in found if np.any(c)))
        return sectors, np.column_stack(a)

    def to_fock(self, a: np.ndarray, sectors: tuple) -> np.ndarray:
        """The Fock-basis states (k, D) of coordinates a (k, n, s) in these sectors (`split`)."""
        return sum(self.family.sector_fock(eps, a[..., j])
                   for j, eps in enumerate(sectors)).reshape(len(a), -1)

    def eigensystem(self, t: float, sector=None):
        """np.linalg.eigh of `matrix(t, sector)`, read-only and kept per sector for the last
        (mu(t), mu'(t)) asked: the ground state and a static piece at the same coupling
        share one eigh."""
        key = (self.profile.mu(t), self.profile.mu_dot(t))
        kept = self._eig.get(sector)
        if kept is None or kept[0] != key:
            eig = np.linalg.eigh(self.matrix(t, sector))
            for arr in eig:
                arr.flags.writeable = False
            self._eig[sector] = kept = (key, eig)
        return kept[1]

    def ground_sector(self, t: float):
        """The sector of H(t)'s ground state: the only one, or the family's `ground_parity`
        eps, once a Cholesky factorization of the other sector's block minus E0 proves that
        its levels lie above E0, or otherwise unless one eigvalsh finds the other sector's
        lowest level below E0."""
        if len(self.sectors) == 1:
            return self.sectors[0]
        eps = self.family.ground_parity
        e0 = self.eigensystem(t, eps)[0][0]
        return -eps if _lowest_of_both(e0, self.matrix(t, -eps)) < e0 else eps

    def matrix(self, t: float, sector=None) -> np.ndarray:
        """H(t) on one sector's coordinates, formed from the family's checked blocks
        (`sector_matrix`), Hermitian to rounding."""
        return self.family.sector_matrix(self._members([t], (sector,))[0])

    def operators(self, times, sectors: Optional[tuple] = None) -> list:
        """x -> H(t) x at each of these times, for the flattened coordinates x (n s,) of
        these sectors (`split`; every sector without them), with H(t) not formed
        (`apply_sectors`): on a `sectored` family one n x n product and O(n) phase products,
        on an `EigenbasisFamily` two D x D matrix-vector products and O(D) phase
        products."""
        members = self._members(times, self.sectors if sectors is None else sectors)
        n, apply = len(self.family.sector_xi), self.family.apply_sectors
        return [lambda x, m=member: apply(m, x.reshape(n, -1)).reshape(-1)
                for member in members]

    def gauge_map(self, s: float, psi: np.ndarray) -> np.ndarray:
        """exp(i s X) psi for a Fock-basis state psi, a phase on its coordinates (`split`)."""
        sectors, a = self.split(psi)
        phase = np.exp((1j * s) * self.family.sector_xi)[:, None]
        return self.to_fock((phase * a)[None], sectors)[0]


def build_time_dependent(ms: ModeSet, em: EmitterSpec, gauge: str,
                         profile: TimeProfile, cutoffs: Union[int, Sequence[int]],
                         extra_term_sign: float = TD_EXTRA_TERM_SIGN) -> TimeDependentHamiltonian:
    """Time-dependent Hamiltonian for coupling modulated by mu(t).

    mu == 1 reproduces the static builders; mu == 0 decouples the emitter.
    `extra_term_sign` exists so the sign convention of the multipolar extra
    term can be negated as a control; the default is the physically-correct
    choice.  H(t) is kept per sector of its family (`TimeDependentHamiltonian`): the two
    parity sectors, at n = D/2, of the `sectored` family that
    `QuadratureFamily.of_couplings` gives a coupled two-level emitter with a parity, its
    checked blocks formed at the first H(t) formed or applied; and for every other emitter
    the one sector of its `EigenbasisFamily`, the whole space.  Nothing of size D x D is
    formed here: X's eigenbasis and the blocks are formed at the first H(t) asked for.
    """
    cs, cutoffs = couplings(ms, em), _normalize_cutoffs(cutoffs, ms.n_modes)
    family = QuadratureFamily.of_couplings(cs, em.h0, em.parity_signs, cutoffs)
    if not family.sectored:
        family = EigenbasisFamily(cs, em.h0, cutoffs)
    return TimeDependentHamiltonian(gauge, family, profile, extra_term_sign)
