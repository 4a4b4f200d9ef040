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
`HermitianGenerator` branch.  Every builder checks that its assembled matrix
is Hermitian before it symmetrizes away the rounding.

The family keeps the emitter's parity at any Fock cutoff.  Let
Pi = (-1)^(sum_mu n_mu) (x) S with S = diag(s), s_i = +-1, the signs of
`EmitterSpec.parity_signs`.  A truncated ladder links n only to n +- 1, so
(-1)^n a (-1)^n = -a holds exactly on the truncated space; the couplings are
odd, S eta_mu S = -eta_mu, and h0 is diagonal.  Hence X is even under Pi, and
so are exp(i s X), H_F, H_0, every H(theta), and the naive builders, whose
terms are nested commutators with X or products a (x) eta^dag.  `build_dipole`
(with or without the longitudinal hook, whose auxiliary factor joins the
photon factors), `build_naive` and the two explicit single-mode two-level
builders declare Pi on their bundle, which verifies it and diagonalizes the
even and odd sectors separately.  The beyond-dipole and 1D builders and H(t)
declare none: a profile that is not even about the emitter breaks the parity
of the beyond-dipole forms.

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
from .hilbert import (HERMITIAN_TOL, Factor, HermitianGenerator, HilbertSpec,
                      KroneckerGenerator, Operator, PAULI_X, PAULI_Y, PAULI_Z, kron,
                      ladder_matrix, matter_levels, max_abs, parity_labels, photon)
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
        d = b * np.exp(-0.5j * np.angle(b[i, j] * b[j, i]))
        if max_abs(d - d.conj().T) > FACTOR_TOL * max_abs(d):
            return None
        d = (d + d.conj().T) / 2
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

    Hermiticity is verified at 1e-12 on construction.

    A builder may declare a parity: a label +1 or -1 per basis state, the
    diagonal of an operator Pi that commutes with H.  The declaration is
    verified here, max|H[even, odd]| <= HERMITIAN_TOL * max(1, max|H|), and a
    wrong one raises `InvariantViolation`; it is never dropped silently.  The
    spectrum is then solved in the even and the odd sector separately, so two
    (D/2)^3 eigensolves replace one D^3 solve, and eigenvectors are scattered
    back into the full basis in ascending energy.  A bundle without a parity
    is the one-sector case.  `diagnostics` reports the sector sizes and the
    measured off-block maximum (None without a parity).
    """

    H: Operator
    space: HilbertSpec
    gauge: GaugeParam
    metadata: dict = field(default_factory=dict)
    parity: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = self.H.matrix
        dev = max_abs(m - m.conj().T)
        scale = max(1.0, max_abs(m))
        if dev >= HERMITIAN_TOL * scale:
            raise InvariantViolation(f"built Hamiltonian is not Hermitian (dev {dev:.3e})")
        sectors, off_block = (np.arange(len(m)),), None
        if self.parity is not None:
            labels = np.asarray(self.parity)
            if labels.shape != (len(m),) or np.any(np.abs(labels) != 1):
                raise ValueError("parity needs a label +1 or -1 per basis state")
            even, odd = np.flatnonzero(labels > 0), np.flatnonzero(labels < 0)
            off_block = max_abs(m[np.ix_(even, odd)])
            if off_block > HERMITIAN_TOL * scale:
                raise InvariantViolation(f"declared parity does not commute with H "
                                         f"(max|H[even, odd]| = {off_block:.3e})")
            sectors = tuple(s for s in (even, odd) if s.size)
        object.__setattr__(self, "_sectors", sectors)
        object.__setattr__(self, "diagnostics", {
            "sector_sizes": [len(s) for s in sectors], "parity_off_block": off_block})

    def _sector_blocks(self):
        m = self.H.matrix
        for s in self._sectors:
            yield s, (m if len(s) == len(m) else m[np.ix_(s, s)])

    def eigenvalues(self, k: Optional[int] = None) -> np.ndarray:
        """Ascending eigenvalues, from the cached eigensystem when there is one,
        otherwise merged from one eigvalsh per sector."""
        cached = self.__dict__.get("_eigensystem")
        if cached is not None:
            vals = cached[0]
        else:
            vals = np.sort(np.concatenate([np.linalg.eigvalsh(block)
                                           for _, block in self._sector_blocks()]))
        return vals if k is None else vals[:k]

    def eigensystem(self):
        """(eigenvalues, eigenvectors) of H, computed once and kept read-only.

        Columns are in ascending energy; a tie between sectors keeps the
        even sector first.
        """
        cached = self.__dict__.get("_eigensystem")
        if cached is None:
            n = len(self.H.matrix)
            # allocated before the sector solves: allocated after their freed
            # temporaries, it raised the peak RSS of `detect` at D = 882 by
            # 5 MB (retained heap), with the same data alive
            vecs = np.zeros((n, n), dtype=complex) if len(self._sectors) > 1 else None
            parts = [(s, *np.linalg.eigh(block)) for s, block in self._sector_blocks()]
            if vecs is None:
                cached = parts[0][1:]
            else:
                vals = np.concatenate([v for _, v, _ in parts])
                order = np.argsort(vals, kind="stable")
                column = np.empty_like(order)
                column[order] = np.arange(n)
                start = 0
                for s, v, sector_vecs in parts:
                    vecs[np.ix_(s, column[start:start + len(v)])] = sector_vecs
                    start += len(v)
                cached = (vals[order], vecs)
            for arr in cached:
                arr.flags.writeable = False
            object.__setattr__(self, "_eigensystem", cached)
        return cached


def _hermitian_part(h: np.ndarray, what: str) -> np.ndarray:
    """(h + h^dag) / 2, after checking that h itself is Hermitian.

    The deviation ||h - h^dag||_max is measured before symmetrizing, so the
    check sees what the assembly produced; it must not exceed
    HERMITIAN_TOL * max(1, max|h|).
    """
    h_dag = h.conj().T
    dev = max_abs(h - h_dag)
    # the scale max(1, max|h|) is needed only once dev exceeds the absolute tolerance
    if dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * max_abs(h):
        raise InvariantViolation(f"{what} is not Hermitian before symmetrization "
                                 f"(||h - h^dag||_max = {dev:.3e})")
    out = h + h_dag
    out *= 0.5
    return out


def _bundle(h: np.ndarray, space: HilbertSpec, gauge: GaugeParam, meta: dict,
            parity_signs: Optional[Sequence[int]] = None) -> HamiltonianBundle:
    """Bundle of the Hermitian part of h, declaring the parity
    (-1)^(photon number) (x) diag(parity_signs) when signs are given."""
    h = _hermitian_part(h, f"{meta['builder']} Hamiltonian")
    parity = None if parity_signs is None else parity_labels(space, parity_signs)
    return HamiltonianBundle(Operator(h, space, hermitian=True), space, gauge, meta, parity)


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
                h += space.kron({fm: chi[m, m] * a[m].conj().T @ a[m]})
            else:
                h += space.kron({fm: chi[m, n] * a[m].conj().T, fn: a[n]})
    return h


def _photon_part(space: HilbertSpec) -> HilbertSpec:
    """The photon factors of a `standard_space`, which precede the matter factor."""
    return HilbertSpec(space.factors[:-1])


def _check_cutoff_headroom(cutoffs, theta: float, cs: CouplingSet):
    eta_max = float(np.abs(cs.eta_matrices).max()) if cs.eta_matrices.size else 0.0
    disp = max(abs(theta), abs(1.0 - theta)) * eta_max
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
    h_ext = (np.kron(h, np.eye(lc.cutoff + 1))
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
    """
    cutoffs = _normalize_cutoffs(cutoffs, ms.n_modes)
    cs = couplings(ms, em)
    _check_cutoff_headroom(cutoffs, g.theta, cs)
    space = standard_space(cutoffs, em.n_levels)
    gen = cs.generator(space)
    h = (gen.conjugate_photon(-g.theta, field_hamiltonian(ms.chi, _photon_part(space)))
         + gen.conjugate_matter(1.0 - g.theta, em.h0))
    meta = {"builder": "build_dipole", "truncation": "correct",
            "cutoffs": cutoffs, "theta": g.theta,
            "eta": _eta_summary(cs)}
    if longitudinal is not None:
        h, space = _apply_longitudinal(h, space, em, longitudinal)
        meta["longitudinal"] = "custom"
    return _bundle(h, space, g, meta, em.parity_signs)


def _eta_summary(cs: CouplingSet):
    try:
        return [complex(v) for v in cs.scalars]
    except ValueError:
        return None


def _single_mode_tls_space(cutoff: int) -> HilbertSpec:
    return standard_space((cutoff,), 2)


def _trig_pair(arg: np.ndarray):
    """cos(arg) and sin(arg) for a Hermitian matrix argument."""
    vals, vecs = np.linalg.eigh((arg + arg.conj().T) / 2)
    cos_m = (vecs * np.cos(vals)) @ vecs.conj().T
    sin_m = (vecs * np.sin(vals)) @ vecs.conj().T
    return cos_m, sin_m


def build_tls_coulomb_single(chi: float, omega0: float, eta: complex,
                             cutoff: int) -> HamiltonianBundle:
    """Single-mode two-level Coulomb-form Hamiltonian via matrix trigonometry.

    H = chi a^dag a + (omega0/2) [cos(2 Phi) sigma_z + sin(2 Phi) sigma_y]
    with Phi = eta a^dag + eta^* a.  Identical, as an operator identity on the
    truncated space, to build_dipole at theta = 0.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    space = _single_mode_tls_space(cutoff)
    a = ladder_matrix(cutoff)
    phi = eta * a.conj().T + np.conj(eta) * a
    cos_m, sin_m = _trig_pair(2 * phi)
    h = (chi * np.kron(a.conj().T @ a, np.eye(2))
         + (omega0 / 2) * (np.kron(cos_m, PAULI_Z) + np.kron(sin_m, PAULI_Y)))
    meta = {"builder": "build_tls_coulomb_single", "truncation": "correct",
            "cutoffs": (cutoff,), "eta": [complex(eta)], "chi": chi, "omega0": omega0}
    return _bundle(h, space, COULOMB, meta, TLS_PARITY_SIGNS)


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
    space = _single_mode_tls_space(cutoff)
    a = ladder_matrix(cutoff)
    drive = 1j * chi * (eta * a.conj().T - np.conj(eta) * a)
    h = (chi * np.kron(a.conj().T @ a, np.eye(2))
         + (omega0 / 2) * np.kron(np.eye(cutoff + 1), PAULI_Z)
         + np.kron(drive, PAULI_X)
         + chi * abs(eta) ** 2 * np.eye(space.dim))
    meta = {"builder": "build_tls_multipolar_single", "truncation": "correct",
            "cutoffs": (cutoff,), "eta": [complex(eta)], "chi": chi, "omega0": omega0}
    return _bundle(h, space, MULTIPOLAR, meta, TLS_PARITY_SIGNS)


def _nested_commutator_series(x: np.ndarray, h0: np.ndarray, order: int) -> np.ndarray:
    """sum_{j<=order} (i^j / j!) ad_X^j(H_0): the naive Taylor truncation of U H_0 U^dag."""
    out = h0.copy()
    term = h0.copy()
    fact = 1.0
    for j in range(1, order + 1):
        term = x @ term - term @ x
        fact *= j
        out = out + (1j ** j / fact) * term
    return out


def multipolar_interaction(cs: CouplingSet, space: HilbertSpec) -> np.ndarray:
    """-i sum_{mu nu} chi*_{mu nu} a_mu (x) eta_nu^dag + H.c., the canonical multipolar drive."""
    mi = space.matter_indices[0]
    chi = cs.chi
    inter = np.zeros((space.dim, space.dim), dtype=complex)
    for mu, fi in enumerate(space.photon_indices):
        a = ladder_matrix(space.factors[fi].fock_cutoff)
        for nu in range(cs.n_modes):
            if chi[mu, nu] == 0:
                continue
            inter += space.kron({fi: -1j * np.conj(chi[mu, nu]) * a,
                                 mi: cs.eta_matrices[nu].conj().T})
    return inter + inter.conj().T


def build_naive(ms: ModeSet, em: EmitterSpec, g: GaugeParam,
                cutoffs: Union[int, Sequence[int]], order: int = 1) -> HamiltonianBundle:
    """Gauge-violating reference Hamiltonians from direct (naive) truncation.

    theta = 0: the minimal-coupling conjugation U H_0 U^dag is replaced by its
    Taylor series in the generator, truncated at `order` (order 1 keeps the
    linear drive only).  theta = 1: the correct multipolar form minus the
    mode-truncated polarization-squared correction.  Other theta values are
    not defined.
    """
    if order < 1:
        raise ValueError(f"unsupported naive order {order}")
    cutoffs = _normalize_cutoffs(cutoffs, ms.n_modes)
    cs = couplings(ms, em)
    space = standard_space(cutoffs, em.n_levels)
    h_f = field_hamiltonian(ms.chi, space)
    h_0 = space.kron({space.matter_indices[0]: em.h0})
    meta = {"builder": "build_naive", "truncation": "naive", "cutoffs": cutoffs,
            "theta": g.theta, "order": order, "eta": _eta_summary(cs)}
    if g.theta == 0.0:
        x = cs.generator_matrix(space)
        h = h_f + _nested_commutator_series(x, h_0, order)
    elif g.theta == 1.0:
        h = h_f + h_0 + multipolar_interaction(cs, space)
    else:
        raise ValueError("naive builders are defined at theta = 0 and theta = 1 only")
    return _bundle(h, space, g, meta, em.parity_signs)


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

    Profiles are sampled along the displacement segment s r_dip, s in [-1, 1].
    The Coulomb form exponentiates the line-integrated vector potential; the
    multipolar form carries the segment-averaged field drive, the odd-field
    (sigma_x-free) drive that vanishes for even profiles, and the
    mode-truncated polarization-squared correction with
    [int_0^1 f]^2 - [int_-1^0 f]^2 weights.  Constant profiles reduce exactly
    to the dipole builders.
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
    omega0 = float(em.levels[0] - em.levels[1])

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
    mi = space.matter_indices[0]
    h_f = field_hamiltonian(chi, space)
    a = [ladder_matrix(space.factors[fi].fock_cutoff) for fi in space.photon_indices]
    meta = {"builder": "build_beyond_dipole", "truncation": "correct",
            "cutoffs": cutoffs, "gauge_label": gauge,
            "eta_bar": [complex(v) for v in eta_bar]}

    if gauge == "coulomb":
        # Phi acts on the photon factors only, so its trigonometric functions do too
        photons = _photon_part(space)
        phi = sum(photons.kron({fi: eta_bar[mu] * a[mu].conj().T + np.conj(eta_bar[mu]) * a[mu]})
                  for mu, fi in enumerate(photons.photon_indices))
        cos_m, sin_m = _trig_pair(phi)
        h = h_f + (omega0 / 2) * (kron(cos_m, PAULI_Z) + kron(sin_m, PAULI_Y))
        bundle_gauge = COULOMB
    else:
        # xi_mu = -(g_even,mu 1 + (eta_bar,mu / 2) sigma_x) on the matter factor
        xi = np.array([-(g_even[mu] * np.eye(2, dtype=complex) + 0.5 * eta_bar[mu] * PAULI_X)
                       for mu in range(m_modes)])
        inter = np.zeros((space.dim, space.dim), dtype=complex)
        for mu, fi in enumerate(space.photon_indices):
            for nu in range(m_modes):
                if chi[mu, nu] != 0:
                    inter += space.kron({fi: 1j * np.conj(chi[mu, nu]) * a[mu],
                                         mi: xi[nu].conj().T})
        p2 = np.zeros((2, 2), dtype=complex)
        for mu in range(m_modes):
            for nu in range(m_modes):
                p2 += chi[mu, nu] * xi[mu].conj().T @ xi[nu]
        h = h_f + inter + inter.conj().T + space.kron({mi: (omega0 / 2) * PAULI_Z + p2})
        bundle_gauge = MULTIPOLAR
    return _bundle(h, space, bundle_gauge, meta)


def build_generalized_1d(nm: NormalModeSet1D, em: EmitterSpec, gauge: str,
                         n_modes: int, cutoffs: Union[int, Sequence[int]],
                         x0: float, truncation: str = "correct",
                         polarization_axis: int = 0) -> HamiltonianBundle:
    """Normal-mode Hamiltonians of a lossless 1D dielectric, dipole approximation.

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
    h_at_x0 = nm.profile_at(x0)
    omega = nm.omega[:n_modes]
    d_mat = em.dipole[polarization_axis]
    cutoffs = _normalize_cutoffs(cutoffs, n_modes)
    space = standard_space(cutoffs, em.n_levels)
    mi = space.matter_indices[0]
    h_f = field_hamiltonian(np.diag(omega), space)
    a = [ladder_matrix(space.factors[fi].fock_cutoff) for fi in space.photon_indices]
    meta = {"builder": "build_generalized_1d", "truncation": truncation,
            "cutoffs": cutoffs, "gauge_label": gauge, "n_modes": n_modes, "x0": x0}

    if gauge == "gC":
        # X = sum_mu h_mu(x0) / sqrt(2 omega_mu) (a_mu + a_mu^dag) (x) d_hat
        local = [h_at_x0[mu] / np.sqrt(2 * omega[mu]) * (a[mu] + a[mu].conj().T)
                 for mu in range(n_modes)]
        gen = KroneckerGenerator(local, d_mat, space)
        h = h_f + gen.conjugate_matter(1.0, em.h0)
        bundle_gauge = COULOMB
    else:
        h = h_f + space.kron({mi: em.h0})
        for mu, fi in enumerate(space.photon_indices):
            drive = 1j * np.sqrt(omega[mu] / 2) * h_at_x0[mu] * (a[mu].conj().T - a[mu])
            h += space.kron({fi: drive, mi: d_mat})
        p2_modes = range(n_modes) if truncation == "correct" else range(nm.n_modes)
        d_sq = d_mat @ d_mat
        p2 = sum((h_at_x0[mu] ** 2 / 2) * d_sq for mu in p2_modes)
        h += space.kron({mi: p2})
        bundle_gauge = MULTIPOLAR
    return _bundle(h, space, bundle_gauge, meta)


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
        return _hermitian_part(h, "H(t)")

    def __call__(self, t: float) -> Operator:
        return Operator(self.matrix(t), self.space, hermitian=True)

    def gauge_map(self, t: float) -> Operator:
        """W(t) = exp(-i mu(t) X), mapping Coulomb-gauge states to multipolar ones."""
        return self.generator.unitary(-self.profile.mu(t))


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
