"""Dense reference assembly of the gauge family: the oracle for the factored builders.

Every operator is embedded in the full space with `HilbertSpec.embed` and
combined by D x D matrix products, and every exponential exp(i s X) goes
through one D x D eigendecomposition of the generator.  This is slow, and
independent of the Kronecker factoring that the package uses.

`beyond_dipole` and `generalized_1d` write the beyond-dipole and the 1D
normal-mode Hamiltonians out term by term, as closed forms that do not go
through a `CouplingSet`.

`herm_eig` and `matrix_exp` are the general dense eigendecomposition and
exponential of an `Operator`, and `dielectric_modes` solves the 1D dielectric
finite-difference problem with scipy's generalized symmetric eigensolver.
"""

import numpy as np
import scipy.linalg

from gaugecraft.errors import InvariantViolation
from gaugecraft.hamiltonians import couplings, segment_integral, standard_space
from gaugecraft.hilbert import (HERMITIAN_TOL, Operator, PAULI_X, PAULI_Y, PAULI_Z,
                                ladder_matrix, max_abs)

EIG_RESIDUAL_TOL = 1e-10


def field_hamiltonian(chi, space):
    """H_F = sum_{mu nu} chi_{mu nu} a_mu^dag a_nu from embedded ladders."""
    chi = np.atleast_2d(np.asarray(chi, dtype=complex))
    ph = space.photon_indices
    ops = [space.embed(fi, ladder_matrix(space.factors[fi].fock_cutoff)) for fi in ph]
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for m in range(len(ph)):
        for n in range(len(ph)):
            if chi[m, n] != 0:
                h += chi[m, n] * ops[m].conj().T @ ops[n]
    return h


def generator_matrix(eta_matrices, space):
    """X = sum_mu (a_mu^dag eta_mu + a_mu eta_mu^dag) from embedded factors."""
    mi = space.matter_indices[0]
    x = np.zeros((space.dim, space.dim), dtype=complex)
    for mu, fi in enumerate(space.photon_indices):
        adag = space.embed(fi, ladder_matrix(space.factors[fi].fock_cutoff)).conj().T
        term = adag @ space.embed(mi, eta_matrices[mu])
        x += term + term.conj().T
    return x


class DenseSystem:
    """H_F, H_0 and X of one emitter in one mode set, with dense exponentials."""

    def __init__(self, ms, em, cutoffs):
        self.space = standard_space(tuple(cutoffs), em.n_levels)
        self.h_f = field_hamiltonian(ms.chi, self.space)
        self.h_0 = self.space.embed(self.space.matter_indices[0], em.h0)
        self.x = generator_matrix(couplings(ms, em).eta_matrices, self.space)
        self._vals, self._vecs = np.linalg.eigh(self.x)

    def unitary(self, s):
        """exp(i s X)."""
        return (self._vecs * np.exp(1j * s * self._vals)) @ self._vecs.conj().T

    def conjugate(self, s, m):
        u = self.unitary(s)
        return u @ m @ u.conj().T

    def hamiltonian(self, theta):
        """H(theta) = V H_F V^dag + U H_0 U^dag, V = exp(-i theta X), U = exp(i (1 - theta) X)."""
        return self.conjugate(-theta, self.h_f) + self.conjugate(1.0 - theta, self.h_0)

    def gauge_unitary(self, theta_from, theta_to):
        return self.unitary(-(theta_to - theta_from))

    def td_matrix(self, gauge, profile, t, extra_term_sign=1.0):
        mu = profile.mu(t)
        if gauge == "coulomb":
            return self.h_f + self.conjugate(mu, self.h_0)
        return (self.conjugate(-mu, self.h_f) + self.h_0
                + extra_term_sign * profile.mu_dot(t) * self.x)


def _ladders(space):
    return [space.embed(fi, ladder_matrix(space.factors[fi].fock_cutoff))
            for fi in space.photon_indices]


def beyond_dipole(chi, profile_fns, em, gauge, cutoffs, quad_nodes=65, quad_tol=1e-8):
    """(H, metadata) of the beyond-dipole two-level Hamiltonian, written out.

    With eta_bar_mu and g_even,mu from the line integrals of f_mu along
    s r_dip, s in [-1, 1]:
    Coulomb:    H_F + (omega0/2) [cos(Phi) sigma_z + sin(Phi) sigma_y],
                Phi = sum_mu eta_bar_mu a_mu^dag + H.c., from one eigh of Phi;
    multipolar: H_F + i sum_{mu nu} chi*_{mu nu} a_mu xi_nu^dag + H.c.
                + (omega0/2) sigma_z + sum_{mu nu} chi_{mu nu} xi_mu^dag xi_nu,
                xi_mu = -(g_even,mu 1 + (eta_bar_mu / 2) sigma_x).
    """
    chi = np.atleast_2d(np.asarray(chi, dtype=complex))
    m_modes = chi.shape[0]
    sp = em.single_particle
    d = sp.q * sp.r_dip
    omega0 = float(em.levels[0] - em.levels[1])
    chi_d = np.diag(chi).real
    a_int = np.zeros((m_modes, 3), dtype=complex)  # int_0^1 f(s r_dip) ds
    b_int = np.zeros((m_modes, 3), dtype=complex)  # int_-1^0 f(s r_dip) ds
    for mu, fn in enumerate(profile_fns):
        sampler = lambda s: np.asarray(fn(s * sp.r_dip), dtype=complex).reshape(3)
        a_int[mu] = segment_integral(sampler, 0.0, 1.0, quad_nodes, quad_tol)
        b_int[mu] = segment_integral(sampler, -1.0, 0.0, quad_nodes, quad_tol)
    eta_bar = (d @ (a_int + b_int).conj().T) / np.sqrt(2 * chi_d)
    g_even = (d @ (a_int - b_int).conj().T) / (2 * np.sqrt(2 * chi_d))

    space = standard_space(tuple(cutoffs), 2)
    mi = space.matter_indices[0]
    h_f = field_hamiltonian(chi, space)
    meta = {"builder": "build_beyond_dipole", "truncation": "correct",
            "cutoffs": tuple(cutoffs), "gauge_label": gauge,
            "eta_bar": [complex(v) for v in eta_bar]}
    if gauge == "coulomb":
        photons = standard_space(tuple(cutoffs), 1)  # a one-level matter factor
        phi = sum(eta_bar[mu] * a.conj().T + np.conj(eta_bar[mu]) * a
                  for mu, a in enumerate(_ladders(photons)))
        vals, vecs = np.linalg.eigh(phi)
        cos_m = (vecs * np.cos(vals)) @ vecs.conj().T
        sin_m = (vecs * np.sin(vals)) @ vecs.conj().T
        return h_f + (omega0 / 2) * (np.kron(cos_m, PAULI_Z) + np.kron(sin_m, PAULI_Y)), meta
    xi = [-(g_even[mu] * np.eye(2) + 0.5 * eta_bar[mu] * PAULI_X) for mu in range(m_modes)]
    h = h_f + space.embed(mi, (omega0 / 2) * PAULI_Z)
    for mu, a in enumerate(_ladders(space)):
        for nu in range(m_modes):
            term = 1j * np.conj(chi[mu, nu]) * a @ space.embed(mi, xi[nu].conj().T)
            h += term + term.conj().T
            h += chi[mu, nu] * space.embed(mi, xi[mu].conj().T @ xi[nu])
    return h, meta


def generalized_1d(nm, em, gauge, n_modes, cutoffs, x0, truncation="correct",
                   polarization_axis=0):
    """(H, metadata) of the 1D normal-mode Hamiltonian, written out.

    gC:  H_F + U H_0 U^dag with U = exp(i X) from one eigh of
         X = sum_mu h_mu(x0) / sqrt(2 omega_mu) (a_mu + a_mu^dag) d_hat;
    gmp: H_F + H_0 + i sum_mu sqrt(omega_mu / 2) h_mu(x0) (a_mu^dag - a_mu) d_hat
         + sum_mu h_mu(x0)^2 / 2 d_hat^2, the last sum over the kept modes
         ("correct") or every mode of `nm` ("naive").
    """
    h_at_x0 = nm.profile_at(x0)
    omega = nm.omega[:n_modes]
    space = standard_space(tuple(cutoffs), em.n_levels)
    mi = space.matter_indices[0]
    d_hat = space.embed(mi, em.dipole[polarization_axis])
    h_0 = space.embed(mi, em.h0)
    h = field_hamiltonian(np.diag(omega), space)
    a = _ladders(space)
    meta = {"builder": "build_generalized_1d", "truncation": truncation,
            "cutoffs": tuple(cutoffs), "gauge_label": gauge, "n_modes": n_modes, "x0": x0}
    if gauge == "gC":
        x = sum(h_at_x0[mu] / np.sqrt(2 * omega[mu]) * (a[mu] + a[mu].conj().T)
                for mu in range(n_modes)) @ d_hat
        vals, vecs = np.linalg.eigh(x)
        u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
        return h + u @ h_0 @ u.conj().T, meta
    h = h + h_0
    for mu in range(n_modes):
        h += 1j * np.sqrt(omega[mu] / 2) * h_at_x0[mu] * (a[mu].conj().T - a[mu]) @ d_hat
    p2_modes = range(n_modes) if truncation == "correct" else range(nm.n_modes)
    return h + sum(h_at_x0[mu] ** 2 / 2 for mu in p2_modes) * d_hat @ d_hat, meta


def herm_eig(op, tol=HERMITIAN_TOL):
    """Eigendecomposition of a Hermitian operator.

    Returns eigenvalues in ascending order and the unitary of column
    eigenvectors; the reconstruction residual ||M V - V diag(lam)||_max is
    checked against 1e-10.  Non-Hermitian input is rejected.
    """
    m = op.matrix
    dev = max_abs(m - m.conj().T)
    if dev >= tol:
        raise InvariantViolation(f"herm_eig requires Hermitian input, ||M - M^dag||_max = {dev:.3e}")
    vals, vecs = np.linalg.eigh(m)
    resid = max_abs(m @ vecs - vecs * vals)
    scale = max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
    if resid >= EIG_RESIDUAL_TOL * scale:
        raise InvariantViolation(f"eigendecomposition residual {resid:.3e} too large")
    return vals, Operator(vecs, op.space, unitary=True)


def matrix_exp(op):
    """Matrix exponential exp(M).

    Hermitian and anti-Hermitian inputs go through an eigendecomposition
    (anti-Hermitian input yields an output whose unitary flag is verified);
    everything else uses scaling-and-squaring Pade.
    """
    m = op.matrix
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp: non-finite entries")
    herm_dev = max_abs(m - m.conj().T)
    anti_dev = max_abs(m + m.conj().T)
    scale = max(1.0, max_abs(m))
    if anti_dev < HERMITIAN_TOL * scale:
        # M = iH with H Hermitian: exp(M) = V exp(i lam) V^dag, exactly unitary
        h = (-1j * m + (-1j * m).conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        e = (vecs * np.exp(1j * vals)) @ vecs.conj().T
        return Operator(e, op.space, unitary=True)
    if herm_dev < HERMITIAN_TOL * scale:
        h = (m + m.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        e = (vecs * np.exp(vals)) @ vecs.conj().T
        return Operator(e, op.space, hermitian=True)
    return Operator(scipy.linalg.expm(m), op.space)


def dielectric_modes(d, n_modes):
    """(omega, interior profiles) of the lowest modes, from scipy.linalg.eigh(A, B).

    The same central-difference A and B = diag(eps) as `solve_dielectric_1d`;
    profiles are eps-normalized and signed so the largest-magnitude sample is
    positive.
    """
    n_int = d.n_points - 2
    off = -np.ones(n_int - 1) / d.dx**2
    a = np.diag(2.0 * np.ones(n_int) / d.dx**2) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = scipy.linalg.eigh(a, np.diag(d.eps[1:-1]))
    profiles = vecs[:, :n_modes].T / np.sqrt(d.dx)
    peaks = profiles[np.arange(n_modes), np.argmax(np.abs(profiles), axis=1)]
    return d.c * np.sqrt(np.maximum(vals[:n_modes], 0.0)), profiles * np.sign(peaks)[:, None]
