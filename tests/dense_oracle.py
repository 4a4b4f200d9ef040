"""Dense reference assembly of the gauge family: the oracle for the package's builders.

Every operator is embedded in the full space with `HilbertSpec.embed` and
combined by D x D matrix products, and every exponential exp(i s X) goes
through one D x D eigendecomposition of the generator (`DenseSystem`).  This
is slow, and independent of the field-quadrature basis and the local factors
that the package uses: no function here calls the package's gauge
conjugation (`CouplingSet.generator`, `QuadratureFamily`,
`HermitianGenerator`), but for three: `spectra` reads a `QuadratureFamily`'s K,
h0', lam and nu, forms every member of a recipe at a gauge theta with its
phases entry by entry as a whole 2n x 2n matrix and solves it, the oracle of the family's
theta-free parity sectors (`QuadratureFamily.ground_energies`, which solves
one sector and certifies the other); `sector_stack` forms those sectors as new copies of
M0, the oracle of the blocks the family turns its K into in place; and `fock_td_matrix`
maps H(t)'s sector blocks to the Fock basis with the package's own `to_fock`.

`beyond_dipole` and `generalized_1d` write the beyond-dipole and the 1D
normal-mode Hamiltonians out term by term, as closed forms that do not go
through a `CouplingSet`.

`dipole_matrix` and `naive_matrix` are H(theta) and the naive theta = 0
series of `DenseSystem`, and `dense_bundle` their bundle, declaring the
builders' parity and time reversal: the oracle of `build_dipole` and
`build_naive`.

`nested_commutator_series` is the naive Taylor truncation of U H_0 U^dag, and
`with_longitudinal` appends the longitudinal hook's factor to a Hamiltonian.
`ambiguity_row` is a row of the coupling scan from one coupling's own three
scalar cutoff ladders (`ambiguity_ladders`, `converged_ground_energy`): the
closed Coulomb form `build_tls_coulomb_single`, and the multipolar member and
the naive series of `dense_bundle`.
`detection_operator` is the golden-rule operator of `detect` as one D x D
matrix, written out with numpy.kron; `rate_table` and
`significant_transitions` apply it, and the formed gauge unitary W of
`DenseSystem`, as whole matrices.
`basis_matrix` forms the eigenbasis of a generator with numpy.kron, and
`fock_td_matrix` sums H(t), which the package writes per sector of that basis, back
into the Fock basis.
`herm_eig` and `matrix_exp` are the general dense eigendecomposition and
exponential of a matrix, and `dielectric_modes` solves the 1D dielectric
finite-difference problem with scipy's generalized symmetric eigensolver.

`tls_single_mode_modeset` is the single-mode two-level system most tests start from.

The rest are the dense forms the package itself no longer needs: the embedded
`ladder` and `pauli` operators, the explicit
single-mode two-level Coulomb and multipolar Hamiltonians
(`build_tls_coulomb_single`, `build_tls_multipolar_single`), and the
truncated field operators A and E at a point with the residual of the
Heisenberg identity E = i [A, H_F] between them (`field_commutator_residual`).
"""

import math
from functools import cached_property, reduce

import numpy as np
import scipy.linalg

from gaugecraft.errors import ConvergenceError, InvariantViolation
from gaugecraft.gaugecheck import AmbiguityRow
from gaugecraft.hamiltonians import (COULOMB, MULTIPOLAR, TLS_PARITY_SIGNS, HamiltonianBundle,
                                     _normalize_cutoffs, couplings, segment_integral,
                                     standard_space)
from gaugecraft.hilbert import (HERMITIAN_TOL, HilbertSpec, PAULI_X, PAULI_Y, PAULI_Z,
                                ladder_matrix, max_abs, parity_labels, photon)
from gaugecraft.matter import tls
from gaugecraft.modes import ModeSet

EIG_RESIDUAL_TOL = 1e-10


def _field_hamiltonian(chi, space):
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
        self.h_f = _field_hamiltonian(ms.chi, self.space)
        self.h_0 = self.space.embed(self.space.matter_indices[0], em.h0)
        self.x = generator_matrix(couplings(ms, em).eta_matrices, self.space)

    @cached_property
    def _eig(self):
        return np.linalg.eigh(self.x)

    def unitary(self, s):
        """exp(i s X)."""
        vals, vecs = self._eig
        return (vecs * np.exp(1j * s * vals)) @ vecs.conj().T

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


def basis_matrix(basis):
    """The eigenbasis B of an `Eigenbasis` as one D x D matrix, numpy.kron of its factors,
    checked to be unitary."""
    b = reduce(np.kron, basis.factors)
    return _verified(b, b.conj().T @ b - np.eye(len(b)), "unitary")


def fock_td_matrix(tdh, t):
    """H(t) of a `TimeDependentHamiltonian` in the Fock basis, the sum over its sectors of
    F H_eps F^dag, H_eps = matrix(t, eps) and F the Fock-basis states of the sector's
    coordinates (`to_fock`); F = B for the one sector of an `EigenbasisFamily`."""
    n = len(tdh.family.sector_xi)
    return sum(f @ tdh.matrix(t, eps) @ f.conj().T
               for eps in tdh.sectors
               for f in [tdh.to_fock(np.eye(n)[:, :, None], (eps,)).T])


def dipole_matrix(ms, em, theta, cutoffs):
    """(H(theta), space) of `DenseSystem`."""
    dense = DenseSystem(ms, em, _normalize_cutoffs(cutoffs, ms.n_modes))
    return dense.hamiltonian(theta), dense.space


def naive_matrix(ms, em, cutoffs, order):
    """(H, space) of the naive theta = 0 series, `nested_commutator_series` of the dense X."""
    dense = DenseSystem(ms, em, _normalize_cutoffs(cutoffs, ms.n_modes))
    return dense.h_f + nested_commutator_series(dense.x, dense.h_0, order), dense.space


def dense_bundle(ms, em, gauge, cutoffs, order=None):
    """`build_dipole`, or with `order` the theta = 0 `build_naive`, from `DenseSystem`,
    declaring the parity and time reversal as the builders do."""
    h, space = (dipole_matrix(ms, em, gauge.theta, cutoffs) if order is None
                else naive_matrix(ms, em, cutoffs, order))
    cs = couplings(ms, em)
    real = not any(np.any(np.imag(a)) for a in (cs.chi, cs.eta_matrices, em.h0))
    parity = None if em.parity_signs is None else parity_labels(space, em.parity_signs)
    meta = {"builder": "dense", "cutoffs": _normalize_cutoffs(cutoffs, ms.n_modes)}
    return HamiltonianBundle(h, space, gauge, meta, parity, real)


def with_longitudinal(h, em, lc):
    """h (x) 1 + omega b^dag b + (1 (x) d_hat . direction) (x) g (b + b^dag): a
    `LongitudinalCoupling`'s auxiliary factor appended to h on the photon and matter
    factors, with numpy.kron."""
    n = lc.cutoff + 1
    b = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    d = np.einsum("cij,c->ij", em.dipole, np.asarray(lc.direction, dtype=float))
    photons = np.eye(len(h) // em.n_levels)
    return (np.kron(h, np.eye(n)) + np.kron(np.eye(len(h)), lc.omega * b.T @ b)
            + np.kron(np.kron(photons, d), lc.coupling * (b + b.T)))


def nested_commutator_series(x, h0, order):
    """sum_{j<=order} (i^j / j!) ad_X^j(H_0), ad_X(Y) = XY - YX, from D x D products."""
    out, term = h0.copy(), h0.copy()
    for j in range(1, order + 1):
        term = (1j / j) * (x @ term - term @ x)
        out = out + term
    return out


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
    h_f = _field_hamiltonian(chi, space)
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
    h = _field_hamiltonian(np.diag(omega), space)
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


def detection_operator(bundle, ms, det, em=None):
    """The golden-rule operator in the bundle's gauge as one D x D matrix.

    Coulomb (theta = 0): omega_d d_d . A(r_d), A = sum_mu f_mu a_mu / sqrt(2 chi_mm)
    + H.c.  Multipolar (theta = 1): sum_mu c_mu (a_mu + i eta_mu) + H.c. with
    c = i chi^* eta_d^*, eta_d,mu = f_mu(r_d)^* . d_d / sqrt(2 chi_mm).  Every
    term is embedded with numpy.kron on its own.
    """
    space = bundle.space
    dims = [f.dim for f in space.factors]

    def embed(index, m):
        return reduce(np.kron, [m if k == index else np.eye(n) for k, n in enumerate(dims)])

    ladders = [embed(fi, ladder_matrix(dims[fi] - 1)) for fi in space.photon_indices]
    f = ms.profile(det.r_d)
    if bundle.gauge.theta == 0.0:
        c = det.omega_d * (f @ det.d_d) / np.sqrt(2 * ms.chi_diag)
        m = sum(c_mu * a for c_mu, a in zip(c, ladders))
    else:
        c = 1j * ms.chi.conj() @ ((f.conj() @ det.d_d) / np.sqrt(2 * ms.chi_diag)).conj()
        eta = couplings(ms, em).eta_matrices
        m = sum(c_mu * (a + 1j * embed(space.matter_indices[0], eta_mu))
                for c_mu, a, eta_mu in zip(c, ladders, eta))
    return m + m.conj().T


def _rate(theta, omega, op, u, v):
    """Golden-rule rate between states u and v with the operator at omega_d = 1: the
    Coulomb operator scales with the transition frequency omega, the multipolar one not."""
    return (omega ** 2 if theta == 0.0 else 1.0) * abs(u.conj() @ op @ v) ** 2


def rate_table(bundle_a, bundle_b, ms, em, det, transitions):
    """(rates in a, rates in b) over transitions indexed in gauge a, at a's transition
    frequencies; the rates in b are read between the partners W |i_a>, W |j_a>, with W
    the formed exp(-i (theta_b - theta_a) X) of `DenseSystem` times a's eigenvectors."""
    unit = type(det)(1.0, det.d_d, det.r_d)
    op_a, op_b = (detection_operator(b, ms, unit, em) for b in (bundle_a, bundle_b))
    w = DenseSystem(ms, em, bundle_a.metadata["cutoffs"]).gauge_unitary(
        bundle_a.gauge.theta, bundle_b.gauge.theta)
    vals, vecs = bundle_a.eigensystem()
    partners = w @ vecs
    rates_a, rates_b = [], []
    for i, j in transitions:
        omega = vals[j] - vals[i]
        rates_a.append(_rate(bundle_a.gauge.theta, omega, op_a, vecs[:, i], vecs[:, j]))
        rates_b.append(_rate(bundle_b.gauge.theta, omega, op_b, partners[:, i], partners[:, j]))
    return np.array(rates_a), np.array(rates_b)


def significant_transitions(bundle, ms, det, count, i=0, em=None, floor=1e-10):
    """The first `count` upward transitions out of |i>, among the next 39 states,
    whose rate exceeds `floor` times the largest, one dense matrix element each."""
    vals, vecs = bundle.eigensystem()
    op = detection_operator(bundle, ms, type(det)(1.0, det.d_d, det.r_d), em)
    rates = {j: _rate(bundle.gauge.theta, vals[j] - vals[i], op, vecs[:, i], vecs[:, j])
             for j in range(i + 1, min(len(vals), i + 40)) if vals[j] > vals[i]}
    if not rates:
        return []
    top = max(rates.values())
    return [(i, j) for j, r in rates.items() if r > floor * top][:count]


def _verified(m, deviation, claim, tol=1e-12):
    """m, after checking that the deviation matrix of the claimed property is below tol."""
    if max_abs(deviation) >= tol:
        raise InvariantViolation(f"result is not {claim}: deviation {max_abs(deviation):.3e}")
    return m


def herm_eig(m, tol=HERMITIAN_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary of column
    eigenvectors; the reconstruction residual ||M V - V diag(lam)||_max is
    checked against 1e-10.  Non-Hermitian input is rejected.
    """
    dev = max_abs(m - m.conj().T)
    if dev >= tol:
        raise InvariantViolation(f"herm_eig requires Hermitian input, "
                                 f"||M - M^dag||_max = {dev:.3e}")
    vals, vecs = np.linalg.eigh(m)
    resid = max_abs(m @ vecs - vecs * vals)
    scale = max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
    if resid >= EIG_RESIDUAL_TOL * scale:
        raise InvariantViolation(f"eigendecomposition residual {resid:.3e} too large")
    return vals, _verified(vecs, vecs.conj().T @ vecs - np.eye(len(vals)), "unitary")


def matrix_exp(m):
    """Matrix exponential exp(M).

    Hermitian and anti-Hermitian inputs go through an eigendecomposition
    (the output is verified Hermitian or unitary, respectively); everything
    else uses scaling-and-squaring Pade.
    """
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
        return _verified(e, e.conj().T @ e - np.eye(len(e)), "unitary")
    if herm_dev < HERMITIAN_TOL * scale:
        h = (m + m.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        e = (vecs * np.exp(vals)) @ vecs.conj().T
        return _verified(e, e - e.conj().T, "Hermitian")
    return scipy.linalg.expm(m)


def dielectric_modes(d, n_modes):
    """(omega, interior profiles) of the lowest modes, from scipy.linalg.eigh(A, B).

    The same central-difference A and B = diag(eps) as `solve_dielectric_1d`;
    profiles are eps-normalized and signed so the first interior sample is
    positive.
    """
    n_int = d.n_points - 2
    off = -np.ones(n_int - 1) / d.dx**2
    a = np.diag(2.0 * np.ones(n_int) / d.dx**2) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = scipy.linalg.eigh(a, np.diag(d.eps[1:-1]))
    profiles = vecs[:, :n_modes].T / np.sqrt(d.dx)
    return (d.c * np.sqrt(np.maximum(vals[:n_modes], 0.0)),
            profiles * np.sign(profiles[:, :1]))


def spectra(family, recipe, theta):
    """Ascending eigenvalues (S, 2n) of every member of a recipe of a two-level
    `QuadratureFamily` at gauge theta, each solved whole: in the family's basis,
    matter-major, the member at coupling scale c is [[A_0, B], [B^dag, A_1]] with the phased blocks
    A_k = diag(p_k) K diag(p_k)^* + h0'_kk, p_k = e^(-i theta lam_k c nu), and
    B = h0'_01 diag(e^(i (1 - theta) (lam_0 - lam_1) c nu)), whose exponential the naive
    series of the recipe's order cuts to its Taylor polynomial."""
    n = len(family.x)
    values = []
    for c in recipe.scales:
        t = c * family.x
        a = [np.exp(-1j * theta * lam * t)[:, None] * family.k
             * np.exp(1j * theta * lam * t) + family.h0[k, k] * np.eye(n)
             for k, lam in enumerate(family.lam)]
        z = 1j * (family.lam[0] - family.lam[1]) * t
        series = (np.exp((1.0 - theta) * z) if recipe.order is None
                  else sum(z**j / math.factorial(j) for j in range(recipe.order + 1)))
        b = np.diag(family.h0[0, 1] * series)
        values.append(np.linalg.eigvalsh(np.block([[a[0], b], [b.conj().T, a[1]]])))
    return np.array(values)


def sector_stack(family, recipe, first=1):
    """The parity sectors of every member of a recipe of a `sectored` `QuadratureFamily`,
    (S, n, n) each, sector `first` first, each formed as a new copy of M0 = K + h0'_00
    with epsilon beta on its antidiagonal, or under time reversal its real form, epsilon
    Re beta there and -epsilon Im beta on the diagonal: the blocks that the family turns
    K into in place (`sector_blocks`) and the stacks of `ground_energies`, bit for bit."""
    beta, n = recipe.beta, recipe.beta.shape[-1]
    i = np.arange(n)
    real = family.time_reversal
    h00 = family.h0[0, 0].real if real else family.h0[0, 0]
    anti, diag = beta, None
    if real:
        anti, diag = ((beta + beta[:, ::-1]) / 2).real, (0.5j * (beta - beta[:, ::-1])).real
    m0 = np.empty(beta.shape + (n,), dtype=float if real else complex)
    m0[...] = family.k.real if real else family.k
    m0[..., i, i] += h00
    sectors = []
    for eps in (first, -first):
        block = m0.copy()
        block[..., i, i[::-1]] = m0[..., i, i[::-1]] + eps * anti
        if diag is not None:
            block[..., i, i] += eps * diag
        sectors.append(block)
    return sectors


def tls_single_mode_modeset(chi, eta, omega0):
    """Single-mode mode set (chi, unit profile along x) and a two-level emitter of
    frequency omega0 whose sigma_x coupling is eta."""
    em = tls(omega0, (float(eta) * np.sqrt(2 * chi), 0.0, 0.0))
    return ModeSet.single_mode(chi, {em.position_label: (1.0, 0.0, 0.0)}), em


def converged_ground_energy(build, tol=1e-7, start_cutoff=20, max_cutoff=640):
    """(E0, cutoff) of one scalar doubling ladder: build(n) at n = start_cutoff,
    2 start_cutoff, ... until two successive ground energies differ by < tol."""
    n, prev = start_cutoff, None
    while n <= max_cutoff:
        e0 = float(build(n).eigenvalues(1)[0])
        if prev is not None and abs(e0 - prev) < tol:
            return e0, n
        prev = e0
        n *= 2
    raise ConvergenceError(f"ground energy not converged at cutoff {max_cutoff}")


def ambiguity_ladders(chi, omega0, eta, start_cutoff=20, tol=1e-7, order=1):
    """{ladder: (E0, cutoff)} of one coupling's three scalar ladders (Coulomb,
    multipolar, naive Coulomb), on its own `tls_single_mode_modeset`."""
    ms, em = tls_single_mode_modeset(chi, eta, omega0)
    builds = {"coulomb": lambda n: build_tls_coulomb_single(chi, omega0, eta, n),
              "multipolar": lambda n: dense_bundle(ms, em, MULTIPOLAR, n),
              "naive": lambda n: dense_bundle(ms, em, COULOMB, n, order)}
    return {name: converged_ground_energy(build, tol, start_cutoff)
            for name, build in builds.items()}


def ambiguity_row(eta, e0):
    """The scan's row of one coupling from its `ambiguity_ladders` e0."""
    return AmbiguityRow(eta=float(eta), naive_gap=abs(e0["naive"][0] - e0["multipolar"][0]),
                        correct_gap=abs(e0["coulomb"][0] - e0["multipolar"][0]),
                        cutoff=max(n for _, n in e0.values()), converged=True)


def ladder(space, mode_index):
    """Annihilation operator of one photon factor, embedded in the full space.

    `mode_index` counts photon factors (0-based, in factor order).
    """
    photon_idx = space.photon_indices
    if not 0 <= mode_index < len(photon_idx):
        raise IndexError(f"mode index {mode_index} out of range "
                         f"(have {len(photon_idx)} photon factors)")
    fi = photon_idx[mode_index]
    return space.embed(fi, ladder_matrix(space.factors[fi].fock_cutoff))


def pauli(space, matter_index):
    """(sigma_x, sigma_y, sigma_z) of a two-level matter factor, embedded.

    Basis order is |e>, |g>, so sigma_z = |e><e| - |g><g| = diag(+1, -1).
    """
    matter_idx = space.matter_indices
    if not 0 <= matter_index < len(matter_idx):
        raise IndexError(f"matter index {matter_index} out of range")
    fi = matter_idx[matter_index]
    if space.factors[fi].dim != 2:
        raise ValueError(f"matter factor has dim {space.factors[fi].dim}, need 2 for Pauli algebra")
    return tuple(space.embed(fi, p) for p in (PAULI_X, PAULI_Y, PAULI_Z))


def _photon_diagonal(space, keep):
    """numpy.kron over the factors of keep(n, N) on each photon factor of cutoff N (n its
    photon numbers) and of ones on the others."""
    return reduce(np.kron, [keep(np.arange(f.dim), f.dim - 1) if f.kind == "photon"
                            else np.ones(f.dim) for f in space.factors])


def _tls_bundle(h, space, gauge, meta, *inputs):
    """Bundle of a single-mode two-level h, declaring the parity (-1)^n (x) sigma_z and,
    when every input is real, time reversal."""
    return HamiltonianBundle(h, space, gauge, meta, parity_labels(space, TLS_PARITY_SIGNS),
                             not any(np.any(np.imag(v)) for v in inputs))


def build_tls_coulomb_single(chi, omega0, eta, cutoff):
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
    return _tls_bundle(h, space, COULOMB, meta, chi, eta, omega0)


def build_tls_multipolar_single(chi, omega0, eta, cutoff):
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
    return _tls_bundle(h, space, MULTIPOLAR, meta, chi, eta, omega0)


def photon_space(ms, cutoffs):
    """The photon factors of a mode set at the given cutoffs, one per mode."""
    return HilbertSpec([photon(n) for n in _normalize_cutoffs(cutoffs, ms.n_modes)])


def _field_components(ms, cutoffs, profile, weights):
    """The three components sum_mu weights_mu profile_mu,c a_mu + H.c. as dense operators."""
    space = photon_space(ms, cutoffs)
    out = []
    for c in range(3):
        m = sum(w * p * a for w, p, a in
                zip(weights, profile[:, c], (ladder(space, mu) for mu in range(ms.n_modes))))
        out.append(m + m.conj().T)
    return out


def vector_potential_operator(ms, point, cutoffs):
    """Components of the truncated vector potential at a stored point.

    A_c(x) = sum_mu f_mu,c(x) a_mu / sqrt(2 chi_mm) + H.c. on the bosonic
    factors only.
    """
    return _field_components(ms, cutoffs, ms.profile(point), 1.0 / np.sqrt(2 * ms.chi_diag))


def truncated_E_operator(ms, point, cutoffs, naive=False):
    """Components of the mode-truncated transverse electric field at a point.

    E_c(x) = i sum_mu sqrt(chi_mm / 2) f'_mu,c(x) a_mu + H.c.  With
    naive=True the raw profiles f_mu are used instead of the derived f'_mu,
    reproducing the gauge-inconsistent direct truncation of the field
    expansion.
    """
    f = ms.profile(point) if naive else ms.derived_profile(point)
    return _field_components(ms, cutoffs, f, 1j * np.sqrt(ms.chi_diag / 2))


def field_commutator_residual(ms, point, cutoffs, naive=False):
    """Max deviation of E from i [A, H_F] per component, away from the ladder top.

    The Heisenberg identity E = -dA/dt = i [A, H_F] holds exactly on the
    truncated space except on the top Fock level of each mode, where any
    finite ladder necessarily distorts cross-mode commutators; the comparison
    therefore projects that level out on both sides.  With naive=True the
    residual instead measures how far the directly-truncated field is from
    the Heisenberg derivative (nonzero whenever chi has off-diagonal
    entries).
    """
    space = photon_space(ms, cutoffs)
    h_f = _field_hamiltonian(ms.chi, space)
    below_top = _photon_diagonal(space, lambda n, top: n < top).astype(bool)
    interior = np.ix_(below_top, below_top)
    worst = 0.0
    for a_c, e_c in zip(vector_potential_operator(ms, point, cutoffs),
                        truncated_E_operator(ms, point, cutoffs, naive=naive)):
        comm = 1j * (a_c @ h_f - h_f @ a_c)
        worst = max(worst, max_abs((e_c - comm)[interior]))
    return worst
