"""Discrete mode sets for quantized fields in lossy and lossless media.

A `ModeSet` holds the Hermitian frequency matrix chi of a finite family of
discrete modes together with vector-potential mode profiles f_mu at named
points and the derived profiles f'_mu that expand the correctly-truncated
electric field.  Mode sets can be built three ways:

* from a discretized polariton continuum (`build_from_grid`),
* from quasinormal-mode data via overlap-spectrum quadrature (`chi_from_qnm`),
* directly from user data (`ModeSet(...)`).

The module also solves the 1D closed-boundary dielectric eigenproblem
(`solve_dielectric_1d`), whose normal modes feed the generalized-gauge
builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hilbert import hermitian_part, max_abs

ORTHONORMALITY_TOL = 1e-10
DERIVED_PROFILE_TOL = 1e-10
SQRT_EIGENVALUE_FLOOR = 1e-14


def derived_profiles_from(chi: np.ndarray, profiles: Mapping[str, np.ndarray]) -> dict:
    """f'_mu = sum_nu chi*_{mu nu} / sqrt(chi_mm chi_nn) f_nu at every stored point."""
    d = np.sqrt(np.diag(chi).real)
    weight = chi.conj() / np.outer(d, d)
    return {label: np.einsum("mn,nc->mc", weight, f) for label, f in profiles.items()}


@dataclass(frozen=True)
class ModeSet:
    """M discrete modes: Hermitian positive-definite chi, profiles, derived profiles.

    ``profiles`` maps a point label to an (M, 3) complex array of mode profile
    vectors f_mu at that point; ``derived_profiles`` has the same shape and is
    computed from chi when not supplied (and verified when it is).
    """

    chi: np.ndarray
    profiles: dict = field(default_factory=dict)
    derived_profiles: Optional[dict] = None

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex)
        if chi.size:
            chi = np.atleast_2d(chi)
        else:
            chi = chi.reshape(0, 0)
        m = chi.shape[0]
        if chi.shape != (m, m):
            raise ValueError("chi must be square")
        chi = hermitian_part(chi, "chi")
        object.__setattr__(self, "chi", chi)
        if m > 0:
            evals = np.linalg.eigvalsh(chi)
            if evals[0] <= 0:
                raise InvariantViolation(
                    f"chi is not positive-definite, min eigenvalue {evals[0]:.3e}")
        profiles = {k: np.asarray(v, dtype=complex).reshape(m, 3) for k, v in self.profiles.items()}
        object.__setattr__(self, "profiles", profiles)
        computed = derived_profiles_from(chi, profiles)
        if self.derived_profiles is None:
            object.__setattr__(self, "derived_profiles", computed)
        else:
            given = {k: np.asarray(v, dtype=complex).reshape(m, 3)
                     for k, v in self.derived_profiles.items()}
            for label in profiles:
                if label not in given:
                    raise InvariantViolation(f"derived profile missing for point {label!r}")
                dev = max_abs(given[label] - computed[label])
                if dev >= DERIVED_PROFILE_TOL * max(1.0, max_abs(computed[label])):
                    raise InvariantViolation(
                        f"stored derived profile at {label!r} inconsistent with chi (dev {dev:.3e})")
            object.__setattr__(self, "derived_profiles", given)

    @property
    def n_modes(self) -> int:
        return self.chi.shape[0]

    @property
    def chi_diag(self) -> np.ndarray:
        return np.diag(self.chi).real

    def profile(self, label: str) -> np.ndarray:
        if label not in self.profiles:
            raise KeyError(f"no profiles stored at point {label!r}")
        return self.profiles[label]

    def derived_profile(self, label: str) -> np.ndarray:
        if label not in self.derived_profiles:
            raise KeyError(f"no derived profiles stored at point {label!r}")
        return self.derived_profiles[label]

    @staticmethod
    def single_mode(chi: float, profiles: Mapping[str, Sequence[complex]]) -> "ModeSet":
        """Convenience constructor for one mode; profile values are 3-vectors."""
        return ModeSet(np.array([[chi]], dtype=complex),
                       {k: np.asarray(v, dtype=complex).reshape(1, 3) for k, v in profiles.items()})


@dataclass(frozen=True)
class PolaritonGrid:
    """Quadrature discretization of the polariton continuum.

    ``nodes`` are (label, frequency, weight) triples collapsing the combined
    space-frequency integral into one sum; ``projections`` is an (M, K) array
    whose rows are orthonormal under the weighted inner product
    sum_k w_k L_mu(k) L*_nu(k) = delta_{mu nu}.
    """

    labels: tuple
    omega: np.ndarray
    weight: np.ndarray
    projections: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        L = np.asarray(self.projections, dtype=complex)
        if L.ndim != 2:
            L = np.atleast_2d(L)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "projections", L)
        object.__setattr__(self, "labels", tuple(self.labels))
        k = omega.shape[0]
        if len(self.labels) != k or weight.shape[0] != k:
            raise ValueError("labels, omega, weight must have equal length")
        if L.shape[1] != k:
            raise ValueError("projection rows must have one entry per node")
        if np.any(omega <= 0):
            raise InvariantViolation("node frequencies must be positive")
        if np.any(weight <= 0):
            raise InvariantViolation("quadrature weights must be positive")
        gram = np.einsum("k,mk,nk->mn", weight, L, L.conj())
        dev = max_abs(gram - np.eye(L.shape[0]))
        if dev >= ORTHONORMALITY_TOL:
            raise InvariantViolation(f"projections not orthonormal, residual {dev:.3e}")

    @property
    def n_nodes(self) -> int:
        return self.omega.shape[0]

    @property
    def n_modes(self) -> int:
        return self.projections.shape[0]


def build_from_grid(grid: PolaritonGrid, profile_points: Mapping[str, np.ndarray]) -> ModeSet:
    """Mode set from a discretized continuum: chi_mn = sum_k w_k omega_k L_m(k) L*_n(k)."""
    L = grid.projections
    chi = np.einsum("k,mk,nk->mn", grid.weight * grid.omega, L, L.conj())
    return ModeSet(chi, dict(profile_points))


def completeness_residual(ms: ModeSet, grid: PolaritonGrid) -> float:
    """Max-norm distance of the mode-family projector from the identity on the grid.

    With B_{k mu} = sqrt(w_k) L_mu(k) this is ||B B^dag - 1||_max; it is zero
    exactly when the orthonormal family spans the whole grid, and the removal
    of any mode raises it by at least that mode's largest projector weight.
    """
    if ms.n_modes != grid.n_modes:
        raise ValueError("mode set was not built from this grid (mode count mismatch)")
    chi = np.einsum("k,mk,nk->mn", grid.weight * grid.omega,
                    grid.projections, grid.projections.conj())
    if max_abs(chi - ms.chi) >= 1e-10 * max(1.0, max_abs(ms.chi)):
        raise ValueError("mode set was not built from this grid (chi mismatch)")
    b = (np.sqrt(grid.weight)[None, :] * grid.projections).T  # (K, M)
    return max_abs(b @ b.conj().T - np.eye(grid.n_nodes))


@dataclass(frozen=True)
class QnmSet:
    """Quasinormal modes: complex frequencies and sampled overlap spectra.

    ``omega`` and ``gamma`` are the real and dissipative parts of the complex
    frequencies omega - i gamma (both positive).  The overlap spectrum
    S_{mu nu}(omega), combining non-radiative and radiative contributions, is
    either a constant Hermitian matrix or tabulated on ``overlap_freqs`` as an
    (K, M, M) array and interpolated linearly.  A copy is stored; the
    caller's array is never written.
    """

    omega: np.ndarray
    gamma: np.ndarray
    overlap: np.ndarray
    overlap_freqs: Optional[np.ndarray] = None

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "gamma", gamma)
        m = omega.shape[0]
        if gamma.shape != (m,):
            raise ValueError("omega and gamma must have equal length")
        if np.any(omega <= 0) or np.any(gamma <= 0):
            raise InvariantViolation("QNM frequencies need omega > 0 and gamma > 0")
        ov = np.asarray(self.overlap, dtype=complex)
        if self.overlap_freqs is None:
            ov = np.atleast_2d(ov)
            if ov.shape != (m, m):
                raise ValueError("constant overlap must be an MxM matrix")
            object.__setattr__(self, "overlap", hermitian_part(ov, "overlap spectrum"))
        else:
            freqs = np.asarray(self.overlap_freqs, dtype=float)
            if ov.shape != (freqs.shape[0], m, m):
                raise ValueError("tabulated overlap must have shape (K, M, M)")
            checked = np.empty_like(ov)
            for k, w in enumerate(freqs):
                checked[k] = hermitian_part(ov[k], f"overlap spectrum at omega = {w:g}")
            object.__setattr__(self, "overlap", checked)
            object.__setattr__(self, "overlap_freqs", freqs)

    @property
    def n_modes(self) -> int:
        return self.omega.shape[0]

    @property
    def quality(self) -> np.ndarray:
        return self.omega / (2 * self.gamma)

    def overlap_at(self, freqs: np.ndarray) -> np.ndarray:
        """S(omega) sampled on `freqs`, shape (len(freqs), M, M)."""
        if self.overlap_freqs is None:
            return np.broadcast_to(self.overlap, (len(freqs),) + self.overlap.shape).copy()
        m = self.n_modes
        out = np.empty((len(freqs), m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                re = np.interp(freqs, self.overlap_freqs, self.overlap[:, i, j].real)
                im = np.interp(freqs, self.overlap_freqs, self.overlap[:, i, j].imag)
                out[:, i, j] = re + 1j * im
        return out


def qnm_frequency_grid(qnm: QnmSet, span_factor: float = 3.0,
                       points_per_gamma: float = 40.0, pole_halfwidth: float = 50.0,
                       n_background: int = 4001) -> np.ndarray:
    """Quadrature grid over [0, span_factor * max(omega)] resolving every pole.

    A coarse background grid is merged with a dense window of
    `points_per_gamma` nodes per gamma extending `pole_halfwidth` gammas to
    either side of each resonance.
    """
    hi = span_factor * float(qnm.omega.max())
    pieces = [np.linspace(0.0, hi, n_background)]
    for w, g in zip(qnm.omega, qnm.gamma):
        lo_w = max(0.0, w - pole_halfwidth * g)
        hi_w = min(hi, w + pole_halfwidth * g)
        n = int(np.ceil((hi_w - lo_w) / g * points_per_gamma)) + 1
        pieces.append(np.linspace(lo_w, hi_w, n))
    return np.unique(np.concatenate(pieces))


@dataclass(frozen=True)
class QnmChiResult:
    """chi built from QNM data plus the per-mode relative deviation |chi_mm - omega_m| / omega_m."""

    modeset: ModeSet
    relative_deviation: np.ndarray


def _hermitian_inv_sqrt(s: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(s)
    floor = SQRT_EIGENVALUE_FLOOR * max(1.0, float(vals.max()) if vals.size else 1.0)
    if vals.min() <= floor:
        raise InvariantViolation(
            f"overlap matrix not positive-definite (min eigenvalue {vals.min():.3e}); "
            "cannot form S^(-1/2)")
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def chi_from_qnm(qnm: QnmSet, freq_grid: Optional[np.ndarray] = None) -> QnmChiResult:
    """chi of a QNM mode family by quadrature of the overlap-spectrum integrals.

    Both the symmetrizing matrix S and its frequency-weighted counterpart are
    integrated over the grid with pole factors 1 / ((w - wt_mu)(w - wt*_nu));
    chi = S^(-1/2) T S^(-1/2).  For a high-quality resonance the diagonal
    approaches the QNM frequency, and the reported relative deviation
    quantifies how far it still is.
    """
    if freq_grid is None:
        freq_grid = qnm_frequency_grid(qnm)
    freq_grid = np.asarray(freq_grid, dtype=float)
    if freq_grid.ndim != 1 or freq_grid.shape[0] < 2:
        raise ValueError("freq_grid must be a 1D array with at least two nodes")
    m = qnm.n_modes
    for w, g in zip(qnm.omega, qnm.gamma):
        window = freq_grid[np.abs(freq_grid - w) < g]
        if window.size < 10:
            raise ConvergenceError(
                f"frequency grid resolves the resonance at {w:g} with only {window.size} "
                "points per gamma; need >= 10")
    wtilde = qnm.omega - 1j * qnm.gamma
    samples = qnm.overlap_at(freq_grid)  # (K, M, M)
    pref = np.sqrt(np.outer(qnm.omega, qnm.omega)) / (2 * np.pi)
    denom = ((freq_grid[:, None, None] - wtilde[None, :, None])
             * (freq_grid[:, None, None] - wtilde.conj()[None, None, :]))
    core = samples / denom
    s_mat = hermitian_part(pref * np.trapezoid(core, freq_grid, axis=0), "overlap integral S")
    t_mat = hermitian_part(pref * np.trapezoid(freq_grid[:, None, None] * core, freq_grid, axis=0),
                           "overlap integral T")
    s_inv_sqrt = _hermitian_inv_sqrt(s_mat)
    chi = s_inv_sqrt @ t_mat @ s_inv_sqrt
    deviation = np.abs(np.diag(chi).real - qnm.omega) / qnm.omega
    return QnmChiResult(ModeSet(chi), deviation)


@dataclass(frozen=True)
class Dielectric1D:
    """Closed 1D dielectric slab: length, uniform grid, positive epsilon samples."""

    length: float
    eps: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "eps", eps)
        if self.length <= 0:
            raise ValueError("length must be positive")
        if eps.ndim != 1 or eps.shape[0] < 16:
            raise ValueError("need at least 16 grid points")
        if np.any(eps <= 0):
            raise InvariantViolation("epsilon must be positive everywhere")

    @property
    def n_points(self) -> int:
        return self.eps.shape[0]

    @property
    def dx(self) -> float:
        return self.length / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_points)


@dataclass(frozen=True)
class NormalModeSet1D:
    """Normal modes of a 1D dielectric: ascending frequencies, profiles on the grid.

    Profiles satisfy the epsilon-weighted orthonormality
    sum_k dx eps(x_k) h_mu(x_k) h_nu(x_k) = delta_{mu nu}.
    """

    omega: np.ndarray
    profiles: np.ndarray  # (n_modes, N_x), zero at both ends
    x: np.ndarray
    eps: np.ndarray
    dx: float

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        profiles = np.atleast_2d(np.asarray(self.profiles, dtype=float))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "eps", np.asarray(self.eps, dtype=float))
        if np.any(np.diff(omega) < 0):
            raise InvariantViolation("mode frequencies must be ascending")
        gram = self.dx * np.einsum("k,mk,nk->mn", self.eps, profiles, profiles)
        dev = max_abs(gram - np.eye(profiles.shape[0]))
        if dev >= 1e-8:
            raise InvariantViolation(f"modes not eps-orthonormal, residual {dev:.3e}")

    @property
    def n_modes(self) -> int:
        return self.omega.shape[0]

    def profile_at(self, x0: float) -> np.ndarray:
        """Linear interpolation of every mode profile at position x0."""
        if not 0 <= x0 <= self.x[-1]:
            raise ValueError(f"position {x0} outside [0, {self.x[-1]}]")
        return np.array([np.interp(x0, self.x, h) for h in self.profiles])


def solve_dielectric_1d(d: Dielectric1D, n_modes: int) -> NormalModeSet1D:
    """Lowest normal modes of -h'' = (omega^2/c^2) eps(x) h with h = 0 at both ends.

    Second-order central differences on the interior points give A h =
    lambda B h with B = diag(eps) > 0, solved densely as the symmetric
    B^-1/2 A B^-1/2 y = lambda y, h = B^-1/2 y; eigenvectors are scaled to the
    eps-weighted normalization and signed so the largest-magnitude sample is
    positive.
    """
    n_int = d.n_points - 2
    if not 1 <= n_modes <= n_int:
        raise ValueError(f"n_modes must be in [1, {n_int}]")
    dx = d.dx
    main = 2.0 * np.ones(n_int) / dx**2
    off = -np.ones(n_int - 1) / dx**2
    a = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    w = 1.0 / np.sqrt(d.eps[1:-1])  # the diagonal of B^-1/2
    vals, vecs = np.linalg.eigh(w[:, None] * a * w)
    vecs *= w[:, None]
    omega = d.c * np.sqrt(np.maximum(vals[:n_modes], 0.0))
    profiles = np.zeros((n_modes, d.n_points))
    for mu in range(n_modes):
        v = vecs[:, mu] / np.sqrt(dx)
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        profiles[mu, 1:-1] = v
    return NormalModeSet1D(omega, profiles, d.x, d.eps, dx)
