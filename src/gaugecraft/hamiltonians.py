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
phi_mu = g_mu a_mu^dag + g_mu^* a_mu.  `CouplingSet.generator` then returns
a `KroneckerGenerator`, and H(theta), the gauge unitaries and H(t) are
assembled from Kronecker products of local exponentials in O(D^2), without
a D x D eigendecomposition.  Couplings that do not factor (an N-level
emitter coupled through several dipole axes) take the dense
`HermitianGenerator` branch.  `HamiltonianBundle` checks each assembled
matrix once for Hermiticity before it symmetrizes away the rounding.

The family keeps the emitter's parity at any Fock cutoff.  Let
Pi = (-1)^(sum_mu n_mu) (x) S with S = diag(s), s_i = +-1, the signs of
`EmitterSpec.parity_signs`.  A truncated ladder links n only to n +- 1, so
(-1)^n a (-1)^n = -a holds exactly on the truncated space; the couplings are
odd, S eta_mu S = -eta_mu, and h0 is diagonal.  Hence X is even under Pi, and
so are exp(i s X), H_F, H_0, every H(theta), and the naive builders, whose
terms are nested commutators with X or products a (x) eta^dag.  `build_dipole`
(with or without the longitudinal hook, whose auxiliary factor joins the
photon factors), `build_naive`, the single-mode two-level, the 1D and the
beyond-dipole Coulomb builders declare Pi on their bundle, which verifies it
and diagonalizes the even and odd sectors separately.  The beyond-dipole
multipolar form and H(t) declare none: its drive g_even,mu 1 is even under S.

The family is also time-reversal symmetric whenever chi, every eta_mu and h0
are real.  Let P = (-1)^(sum_mu n_mu) on the photon factors and K be complex
conjugation.  The truncated a is real, so real couplings give K X K = X, and
P X P = -X as above; hence P K exp(i s X) K P = exp(i s X), and P K commutes
with H_F, H_0 and every H(theta).  It commutes with the naive builders too:
each of their terms pairs an odd power of i with an odd power of a or X, or
an even power with an even one.  With the phases p = i^[sum_mu n_mu odd],
p^dag H p is therefore real symmetric.  `build_dipole` (without the
longitudinal hook), `build_naive`, the two single-mode two-level builders,
the 1D builders and the beyond-dipole Coulomb form declare it when their
inputs are real; `HamiltonianBundle` verifies it and solves each sector in
real arithmetic.  A complex chi (a lossy grid's) or complex couplings, the
hook and the beyond-dipole multipolar form declare nothing.

Every builder is a `CouplingSet` fed to one of two cores; the models differ
only in their couplings.  The exact-conjugation core, `CouplingSet.generator`
with `conjugate_photon` and `conjugate_matter`, gives `build_dipole`, H(t),
the beyond-dipole Coulomb form (eta_mu = (eta_bar_mu / 2) sigma_x) and the 1D
gC form (eta_mu = h_mu(x0) d_hat / sqrt(2 omega_mu)).  The canonical
multipolar core, `multipolar_interaction` plus the matter matrix
`polarization_squared`, gives the theta = 1 naive builder and the
beyond-dipole and 1D multipolar forms; the theta = 0 naive builder truncates
the commutator series of the same generator (`nested_commutators`).  Only
the two explicit single-mode two-level builders are written out by hand, as
closed forms that the tests compare the cores against.

Explicit single-mode two-level forms, beyond-dipole builders for effective
single-particle emitters, normal-mode (lossless 1D dielectric) builders in
the generalized Coulomb/multipolar gauges, and time-dependent coupling
variants are provided alongside.  Units: hbar = eps0 = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hilbert import (HERMITIAN_TOL, HermitianGenerator, HilbertSpec, KroneckerGenerator,
                      Operator, PAULI_X, PAULI_Y, PAULI_Z, hermitian_part, kron, ladder_matrix,
                      matter_levels, max_abs, parity_labels, photon)
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

    def generator(self, space: HilbertSpec):
        """The gauge generator X on `space`, factored whenever the couplings allow it.

        Returns a `KroneckerGenerator` when `common_matter_matrix` finds one
        matter matrix and the matter factor comes last, as in
        `standard_space`; otherwise the dense `HermitianGenerator`.
        """
        mi = self._check_space(space)
        split = self.common_matter_matrix()
        if split is None or mi != len(space.factors) - 1:
            return HermitianGenerator(self.generator_matrix(space), space)
        g, d = split
        local = []
        for g_mu, fi in zip(g, space.photon_indices):
            a = ladder_matrix(space.factors[fi].fock_cutoff)
            local.append(g_mu * a.conj().T + np.conj(g_mu) * a)
        return KroneckerGenerator(local, d, space)


def couplings(ms: ModeSet, em: EmitterSpec) -> CouplingSet:
    """Coupling set of an emitter sitting at its profile point of a mode set."""
    f = ms.profile(em.position_label)  # (M, 3)
    chi_d = ms.chi_diag
    eta = np.einsum("cij,mc->mij", em.dipole, f.conj()) / np.sqrt(2 * chi_d)[:, None, None]
    return CouplingSet(eta, ms.chi)


@dataclass(frozen=True)
class HamiltonianBundle:
    """A built Hamiltonian with its space, gauge and builder metadata.

    `H` is passed as assembled, a matrix or an `Operator`, checked once with
    `hilbert.hermitian_part` and stored as an `Operator` of its Hermitian part.

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
    the sector's copy; eigenvectors are p v, phased in the one D x D result.

    `diagnostics` reports the sector sizes, the measured off-block maximum
    (None without a parity) and, when time reversal is declared, the measured
    max|Im(p^dag H p)| as "time_reversal_imag".
    """

    H: Union[np.ndarray, Operator]  # stored as an Operator
    space: HilbertSpec
    gauge: GaugeParam
    metadata: dict = field(default_factory=dict)
    parity: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    time_reversal: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        raw = self.H.matrix if isinstance(self.H, Operator) else self.H
        m = hermitian_part(raw, f"{self.metadata.get('builder', 'bundle')} Hamiltonian")
        object.__setattr__(self, "H", Operator(m, self.space))
        if m.ndim != 2:
            raise ValueError("a bundle holds one Hamiltonian, not a stack")
        n = m.shape[-1]
        tol = HERMITIAN_TOL * max(1.0, max_abs(m))
        sectors, off_block = (np.arange(n),), None
        if self.parity is not None:
            labels = np.asarray(self.parity)
            if labels.shape != (n,) or np.any(np.abs(labels) != 1):
                raise ValueError("parity needs a label +1 or -1 per basis state")
            even, odd = np.flatnonzero(labels > 0), np.flatnonzero(labels < 0)
            off_block = max_abs(m[even[:, None], odd])
            if off_block > tol:
                raise InvariantViolation(f"declared parity does not commute with H "
                                         f"(max|H[even, odd]| = {off_block:.3e})")
            sectors = tuple(s for s in (even, odd) if s.size)
        object.__setattr__(self, "_sectors", sectors)
        diagnostics = {"sector_sizes": [len(s) for s in sectors], "parity_off_block": off_block}
        phases = None
        if self.time_reversal:
            odd_photons = parity_labels(self.space) < 0
            # max|Im(p^dag H p)|: Im(H) between states of equal photon parity, Re(H) between
            # states of opposite photon parity
            imag = max_abs(np.where(odd_photons[:, None] == odd_photons, m.imag, m.real))
            if imag > tol:
                raise InvariantViolation(f"declared time reversal does not hold "
                                         f"(max|Im(p^dag H p)| = {imag:.3e})")
            diagnostics["time_reversal_imag"] = imag
            phases = np.where(odd_photons, 1j, 1.0)
        object.__setattr__(self, "_phases", phases)
        object.__setattr__(self, "diagnostics", diagnostics)

    def _sector_blocks(self):
        """(indices, block) per sector; the real symmetric p^dag H p blocks under declared
        time reversal."""
        m = self.H.matrix
        for s in self._sectors:
            if self._phases is None:
                yield s, (m if len(s) == len(m) else m[s[:, None], s])
                continue
            block = m[s[:, None], s]
            p = self._phases[s]
            block *= p.conj()[:, None]
            block *= p
            yield s, block.real

    def eigenvalues(self, k: Optional[int] = None) -> np.ndarray:
        """Ascending eigenvalues, from the cached eigensystem when there is one,
        otherwise merged from one eigvalsh per sector."""
        cached = self.__dict__.get("_eigensystem")
        if cached is not None:
            vals = cached[0]
        else:
            vals = np.sort(np.concatenate([np.linalg.eigvalsh(block)
                                           for _, block in self._sector_blocks()]))
        return vals[:k]

    def eigensystem(self):
        """(eigenvalues, eigenvectors) of H, computed once and kept read-only.

        Columns are in ascending energy; a tie between sectors keeps the
        even sector first.
        """
        cached = self.__dict__.get("_eigensystem")
        if cached is None:
            m = self.H.matrix
            n = len(m)
            if len(self._sectors) == 1 and self._phases is None:
                cached = np.linalg.eigh(m)
            else:
                # allocated before the sector solves: allocated after their freed
                # temporaries, it raised the peak RSS of `detect` at D = 882 by
                # 5 MB (retained heap), with the same data alive
                vecs = np.zeros((n, n), dtype=complex)
                parts = [(s, *np.linalg.eigh(block)) for s, block in self._sector_blocks()]
                vals = np.concatenate([v for _, v, _ in parts])
                order = np.argsort(vals, kind="stable")
                column = np.empty_like(order)
                column[order] = np.arange(n)
                start = 0
                for s, v, sector_vecs in parts:
                    vecs[np.ix_(s, column[start:start + len(v)])] = sector_vecs
                    start += len(v)
                if self._phases is not None:
                    vecs *= self._phases[:, None]
                cached = (vals[order], vecs)
            for arr in cached:
                arr.flags.writeable = False
            object.__setattr__(self, "_eigensystem", cached)
        return cached


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
    h0 are real.
    """
    cutoffs = _normalize_cutoffs(cutoffs, ms.n_modes)
    cs = couplings(ms, em)
    _check_cutoff_headroom(cutoffs, g.theta, cs)
    space = standard_space(cutoffs, em.n_levels)
    gen = cs.generator(space)
    h = gen.conjugate_photon(-g.theta, field_hamiltonian(ms.chi, _photon_part(space)))
    h += gen.conjugate_matter(1.0 - g.theta, em.h0)
    meta = {"builder": "build_dipole", "truncation": "correct",
            "cutoffs": cutoffs, "theta": g.theta, "eta": _eta_summary(cs)}
    if longitudinal is not None:
        h, space = _apply_longitudinal(h, space, em, longitudinal)
        meta["longitudinal"] = "custom"
    return _bundle(h, space, g, meta, em.parity_signs,
                   longitudinal is None and _real(cs.chi, cs.eta_matrices, em.h0))


def _eta_summary(cs: CouplingSet):
    """The scalar eta_mu of each mode, or None without them."""
    try:
        return cs.scalars.tolist()
    except ValueError:
        return None


def build_tls_coulomb_single(chi: float, omega0: float, eta: complex,
                             cutoff: int) -> HamiltonianBundle:
    """Single-mode two-level Coulomb-form Hamiltonian via matrix trigonometry.

    H = chi a^dag a + (omega0/2) [cos(2 Phi) sigma_z + sin(2 Phi) sigma_y]
    with Phi = eta a^dag + eta^* a.  Identical, as an operator identity on the
    truncated space, to build_dipole at theta = 0.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    space = standard_space((cutoff,), 2)
    a = ladder_matrix(cutoff)
    vals, vecs = np.linalg.eigh(2 * (eta * a.conj().T + np.conj(eta) * a))
    cos_m = (vecs * np.cos(vals)) @ vecs.conj().T
    sin_m = (vecs * np.sin(vals)) @ vecs.conj().T
    h = (chi * np.kron(a.conj().T @ a, np.eye(2))
         + (omega0 / 2) * (np.kron(cos_m, PAULI_Z) + np.kron(sin_m, PAULI_Y)))
    meta = {"builder": "build_tls_coulomb_single", "truncation": "correct",
            "cutoffs": (cutoff,), "eta": [complex(eta)], "chi": chi, "omega0": omega0}
    return _bundle(h, space, COULOMB, meta, TLS_PARITY_SIGNS, _real(chi, eta, omega0))


def build_tls_multipolar_single(chi: float, omega0: float, eta: complex,
                                cutoff: int) -> HamiltonianBundle:
    """Single-mode two-level multipolar-form Hamiltonian (canonical algebra).

    H = chi a^dag a + (omega0/2) sigma_z + i chi (eta a^dag - eta^* a) sigma_x
        + chi |eta|^2.
    The c-number term is kept so operator-level gauge comparisons close; the
    form matches build_dipole at theta = 1 on the low-energy sector once the
    cutoff is converged.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    space = standard_space((cutoff,), 2)
    a = ladder_matrix(cutoff)
    drive = 1j * chi * (eta * a.conj().T - np.conj(eta) * a)
    h = (chi * np.kron(a.conj().T @ a, np.eye(2))
         + (omega0 / 2) * np.kron(np.eye(cutoff + 1), PAULI_Z)
         + np.kron(drive, PAULI_X)
         + chi * abs(eta) ** 2 * np.eye(space.dim))
    meta = {"builder": "build_tls_multipolar_single", "truncation": "correct",
            "cutoffs": (cutoff,), "eta": [complex(eta)], "chi": chi, "omega0": omega0}
    return _bundle(h, space, MULTIPOLAR, meta, TLS_PARITY_SIGNS, _real(chi, eta, omega0))


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


def build_naive(ms: ModeSet, em: EmitterSpec, g: GaugeParam,
                cutoffs: Union[int, Sequence[int]], order: int = 1) -> HamiltonianBundle:
    """Gauge-violating reference Hamiltonians from direct (naive) truncation.

    theta = 0: the minimal-coupling conjugation U H_0 U^dag is replaced by its
    Taylor series in the generator, truncated at `order` (order 1 keeps the
    linear drive only); a factored generator sums it from its Kronecker
    factors (`nested_commutators`).  theta = 1: the correct multipolar form
    minus the mode-truncated polarization-squared correction.  Other theta
    values are not defined.  Parity and time reversal are declared as in
    `build_dipole`.
    """
    if order < 1:
        raise ValueError(f"unsupported naive order {order}")
    if g.theta not in (0.0, 1.0):
        raise ValueError("naive builders are defined at theta = 0 and theta = 1 only")
    cutoffs = _normalize_cutoffs(cutoffs, ms.n_modes)
    cs = couplings(ms, em)
    space = standard_space(cutoffs, em.n_levels)
    meta = {"builder": "build_naive", "truncation": "naive", "cutoffs": cutoffs,
            "theta": g.theta, "order": order, "eta": _eta_summary(cs)}
    if g.theta == 0.0:
        h = cs.generator(space).nested_commutators(em.h0, order)
        h += field_hamiltonian(ms.chi, space)
    else:
        h = field_hamiltonian(ms.chi, space) + space.kron({space.matter_indices[0]: em.h0})
        h += multipolar_interaction(cs, space)
    return _bundle(h, space, g, meta, em.parity_signs, _real(cs.chi, cs.eta_matrices, em.h0))


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
    is the exact conjugation with eta_mu = (eta_bar_mu / 2) sigma_x, which
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
    space = standard_space(cutoffs, 2)
    h = field_hamiltonian(chi, space)
    meta = {"builder": "build_beyond_dipole", "truncation": "correct",
            "cutoffs": cutoffs, "gauge_label": gauge,
            "eta_bar": [complex(v) for v in eta_bar]}
    half_sx = 0.5 * eta_bar[:, None, None] * PAULI_X
    if gauge == "coulomb":
        h += CouplingSet(half_sx, chi).generator(space).conjugate_matter(1.0, h_matter)
        return _bundle(h, space, COULOMB, meta, TLS_PARITY_SIGNS, _real(chi, eta_bar))
    cs = CouplingSet(g_even[:, None, None] * np.eye(2) + half_sx, chi)
    h += multipolar_interaction(cs, space)
    h += space.kron({space.matter_indices[0]: h_matter + polarization_squared(cs)})
    return _bundle(h, space, MULTIPOLAR, meta)


def build_generalized_1d(nm: NormalModeSet1D, em: EmitterSpec, gauge: str,
                         n_modes: int, cutoffs: Union[int, Sequence[int]],
                         x0: float, truncation: str = "correct",
                         polarization_axis: int = 0) -> HamiltonianBundle:
    """Normal-mode Hamiltonians of a lossless 1D dielectric, dipole approximation.

    The couplings are eta_mu = h_mu(x0) d_hat / sqrt(2 omega_mu) with
    chi = diag(omega), the d.f* / sqrt(2 chi) convention of `couplings`.
    gauge "gC":  H = sum_mu omega_mu a_mu^dag a_mu + U H_0 U^dag with the
    exact truncated minimal-coupling unitary U = exp(i d.A(x0)).
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
    space = standard_space(cutoffs, em.n_levels)
    h = field_hamiltonian(cs.chi, space)
    meta = {"builder": "build_generalized_1d", "truncation": truncation,
            "cutoffs": cutoffs, "gauge_label": gauge, "n_modes": n_modes, "x0": x0}
    real = _real(every_mode.eta_matrices, em.h0)  # chi = diag(omega) is real
    if gauge == "gC":
        h += cs.generator(space).conjugate_matter(1.0, em.h0)
        return _bundle(h, space, COULOMB, meta, em.parity_signs, real)
    p2 = polarization_squared(cs if truncation == "correct" else every_mode)
    h += multipolar_interaction(cs, space)
    h += space.kron({space.matter_indices[0]: em.h0 + p2})
    return _bundle(h, space, MULTIPOLAR, meta, em.parity_signs, real)


class TimeDependentHamiltonian:
    """H(t) for a modulated coupling mu(t), reentrant and cheap to evaluate.

    Coulomb gauge:    H(t) = H_F + U(t) H_0 U(t)^dag,   U(t) = exp(+i mu(t) X)
    Multipolar gauge: H(t) = V(t) H_F V(t)^dag + H_0 + sign * mu'(t) X,
                      V(t) = exp(-i mu(t) X)
    where the extra multipolar term compensates the explicitly time-dependent
    gauge condition; its sign is pinned by the gauge-equivalence of the
    resulting dynamics (see dynamics.td_gauge_equivalence).  H_F is passed as
    its block on the photon factors and H_0 as its matter matrix, so that a
    factored generator conjugates only those blocks.
    """

    def __init__(self, gauge: str, generator, h_field: np.ndarray,
                 h_matter: np.ndarray, profile: TimeProfile, space: HilbertSpec,
                 extra_term_sign: float = TD_EXTRA_TERM_SIGN):
        if gauge not in ("coulomb", "multipolar"):
            raise ValueError(f"unknown gauge {gauge!r}")
        self.gauge = gauge
        self.generator = generator
        self.h_field = h_field
        self.h_matter = h_matter
        self.h_f = np.kron(h_field, np.eye(h_matter.shape[0]))
        self.h_0 = np.kron(np.eye(h_field.shape[0]), h_matter)
        self.profile = profile
        self.space = space
        self.extra_term_sign = float(extra_term_sign)

    def matrix(self, t: float) -> np.ndarray:
        mu = self.profile.mu(t)
        if self.gauge == "coulomb":
            h = self.h_f + self.generator.conjugate_matter(mu, self.h_matter)
        else:
            h = self.generator.conjugate_photon(-mu, self.h_field) + self.h_0
            mu_dot = self.profile.mu_dot(t)
            if mu_dot != 0.0:
                h += self.extra_term_sign * mu_dot * self.generator.matrix
        return hermitian_part(h, "H(t)")


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
    return TimeDependentHamiltonian(gauge, cs.generator(space), h_field, em.h0, profile,
                                    space, extra_term_sign)
