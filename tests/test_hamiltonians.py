"""Builders of the gauge family, naive references, beyond-dipole and 1D variants."""

import numpy as np
import pytest

from gaugecraft import (COULOMB, MULTIPOLAR, ConvergenceError, Dielectric1D,
                        FockCutoffWarning, GaugeParam,
                        LongitudinalCoupling, ModeSet, build_beyond_dipole,
                        build_dipole, build_generalized_1d, build_naive,
                        build_time_dependent, constant_profile, couplings,
                        raised_cosine_ramp, solve_dielectric_1d, tls,
                        tls_single_mode_modeset)
from gaugecraft.gaugecheck import gauge_unitary
from gaugecraft.hamiltonians import field_hamiltonian
from gaugecraft.hilbert import PAULI_X, PAULI_Y, PAULI_Z, ladder_matrix, max_abs

from dense_oracle import (build_tls_coulomb_single, build_tls_multipolar_single, fock_td_matrix,
                          low_sector_projector)

RNG = np.random.default_rng(11)


class TestCouplings:
    def test_direct_substitution(self):
        ms = ModeSet.single_mode(1.0, {"emitter": (1.0, 0.0, 0.0)})
        em = tls(1.0, (1.0, 0.0, 0.0))
        cs = couplings(ms, em)
        assert abs(cs.scalars[0] - 1 / np.sqrt(2)) < 1e-15

    def test_orthogonal_dipole_gives_zero(self):
        ms = ModeSet.single_mode(1.0, {"emitter": (1.0, 0.0, 0.0)})
        em = tls(1.0, (0.0, 1.0, 0.0))
        assert abs(couplings(ms, em).scalars[0]) == 0.0

    def test_complex_profile_hand_value(self):
        f = ((1 + 1j) / np.sqrt(2), 0.0, 0.0)
        ms = ModeSet.single_mode(1.0, {"emitter": f})
        em = tls(1.0, (1.0, 0.0, 0.0))
        eta = couplings(ms, em).scalars[0]
        assert abs(eta - (1 - 1j) / 2) < 1e-15

    def test_real_inputs_give_real_couplings(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            f = rng.normal(size=3)
            d = rng.normal(size=3)
            ms = ModeSet.single_mode(1.3, {"emitter": f})
            em = tls(1.0, d)
            assert abs(couplings(ms, em).scalars[0].imag) == 0.0

    def test_missing_profile_point(self):
        ms = ModeSet.single_mode(1.0, {"elsewhere": (1.0, 0.0, 0.0)})
        em = tls(1.0, (1.0, 0.0, 0.0))
        with pytest.raises(KeyError):
            couplings(ms, em)


def explicit_multipolar_matrix(chi, omega0, eta, cutoff):
    """Independent construction of the single-mode multipolar form."""
    a = ladder_matrix(cutoff)
    i_ph = np.eye(cutoff + 1)
    return (chi * np.kron(a.conj().T @ a, np.eye(2))
            + omega0 / 2 * np.kron(i_ph, PAULI_Z)
            + np.kron(1j * chi * (eta * a.conj().T - np.conj(eta) * a), PAULI_X)
            + chi * abs(eta) ** 2 * np.kron(i_ph, np.eye(2)))


def explicit_coulomb_matrix(chi, omega0, eta, cutoff):
    """Independent construction of the single-mode trigonometric Coulomb form."""
    a = ladder_matrix(cutoff)
    phi = eta * a.conj().T + np.conj(eta) * a
    vals, vecs = np.linalg.eigh(phi)
    cos2 = (vecs * np.cos(2 * vals)) @ vecs.conj().T
    sin2 = (vecs * np.sin(2 * vals)) @ vecs.conj().T
    return (chi * np.kron(a.conj().T @ a, np.eye(2))
            + omega0 / 2 * (np.kron(cos2, PAULI_Z) + np.kron(sin2, PAULI_Y)))


class TestBuildDipole:
    def test_decoupled_spectrum(self):
        ms, em = tls_single_mode_modeset(1.0, 0.0, 1.0)
        for theta in (0.0, 0.37, 1.0):
            b = build_dipole(ms, em, GaugeParam(theta), 12)
            vals = b.eigenvalues()
            expected = np.sort([n + s for n in range(13) for s in (0.5, -0.5)])
            assert max_abs(vals - expected) < 1e-12

    def test_multipolar_matches_explicit_form_low_sector(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        b = build_dipole(ms, em, MULTIPOLAR, 40)
        explicit = np.linalg.eigvalsh(explicit_multipolar_matrix(1.0, 1.0, 0.5, 40))
        assert max_abs(b.eigenvalues(10) - explicit[:10]) < 1e-8

    def test_coulomb_matches_trigonometric_form(self):
        ms, em = tls_single_mode_modeset(1.0, 0.4, 1.0)
        b = build_dipole(ms, em, COULOMB, 30)
        explicit = explicit_coulomb_matrix(1.0, 1.0, 0.4, 30)
        assert max_abs(b.H - explicit) < 1e-12

    def test_theta_family_shares_spectrum_exactly(self):
        ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
        ref = build_dipole(ms, em, COULOMB, 35).eigenvalues(8)
        for theta in (0.25, 0.5, 0.75, 1.0):
            vals = build_dipole(ms, em, GaugeParam(theta), 35).eigenvalues(8)
            assert max_abs(vals - ref) < 1e-12

    def test_gauge_unitary_relates_family_members(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        theta = 0.6
        b0 = build_dipole(ms, em, COULOMB, 24)
        bt = build_dipole(ms, em, GaugeParam(theta), 24)
        w = gauge_unitary(b0.space, couplings(ms, em), 0.0, theta)
        p_low = low_sector_projector(b0.space)
        resid = np.linalg.norm((w @ b0.H @ w.conj().T - bt.H) @ p_low, 2)
        assert resid < 1e-12

    def test_every_output_hermitian(self):
        ms, em = tls_single_mode_modeset(1.3, 0.7, 0.9)
        for theta in (0.0, 0.5, 1.0):
            b = build_dipole(ms, em, GaugeParam(theta), 20)
            assert max_abs(b.H - b.H.conj().T) < 1e-12

    def test_small_cutoff_warns(self):
        ms, em = tls_single_mode_modeset(1.0, 1.5, 1.0)
        with pytest.warns(FockCutoffWarning):
            build_dipole(ms, em, MULTIPOLAR, 8)

    def test_multimode_nondiagonal_chi(self):
        chi = np.array([[1.0, 0.1 + 0.02j], [0.1 - 0.02j, 1.4]])
        ms = ModeSet(chi, {"emitter": [(1.0, 0, 0), (0.7, 0, 0)]})
        em = tls(1.0, (0.5, 0.0, 0.0))
        b0 = build_dipole(ms, em, COULOMB, (12, 12))
        b1 = build_dipole(ms, em, MULTIPOLAR, (12, 12))
        assert max_abs(b0.eigenvalues(6) - b1.eigenvalues(6)) < 1e-12


class TestExplicitSingleModeBuilders:
    def test_coulomb_decoupled(self):
        b = build_tls_coulomb_single(1.0, 1.0, 0.0, 15)
        expected = np.sort([n + s for n in range(16) for s in (0.5, -0.5)])
        assert max_abs(b.eigenvalues() - expected) < 1e-13

    def test_coulomb_free_field_doubly_degenerate(self):
        b = build_tls_coulomb_single(1.0, 0.0, 0.3, 25)
        vals = b.eigenvalues(10)
        expected = np.repeat(np.arange(5), 2).astype(float)
        assert max_abs(vals - expected) < 1e-10

    def test_coulomb_cross_builder_ground_energy(self):
        ms, em = tls_single_mode_modeset(1.0, 0.3, 1.0)
        e_explicit = build_tls_coulomb_single(1.0, 1.0, 0.3, 60).eigenvalues(1)[0]
        e_family = build_dipole(ms, em, COULOMB, 60).eigenvalues(1)[0]
        assert abs(e_explicit - e_family) < 1e-10

    def test_multipolar_displaced_oscillator_oracle(self):
        # omega0 = 0: exact displaced ladders, eigenvalues n*chi doubly degenerate
        chi, eta = 1.0, 0.5
        b = build_tls_multipolar_single(chi, 0.0, eta, 40)
        vals = b.eigenvalues(8)
        expected = np.repeat(np.arange(4) * chi, 2).astype(float)
        assert max_abs(vals - expected) < 1e-10
        assert abs(vals[0]) < 1e-12  # the |eta|^2 shift cancels the displacement energy

    def test_multipolar_cross_builder_low_spectrum(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        explicit = build_tls_multipolar_single(1.0, 1.0, 0.5, 50).eigenvalues(8)
        family = build_dipole(ms, em, MULTIPOLAR, 50).eigenvalues(8)
        assert max_abs(explicit - family) < 1e-10

    def test_decoupled_multipolar(self):
        b = build_tls_multipolar_single(1.0, 1.0, 0.0, 15)
        expected = np.sort([n + s for n in range(16) for s in (0.5, -0.5)])
        assert max_abs(b.eigenvalues() - expected) < 1e-13


class TestBuildNaive:
    def test_zero_coupling_matches_correct(self):
        ms, em = tls_single_mode_modeset(1.0, 0.0, 1.0)
        naive = build_naive(ms, em, COULOMB, 15, order=1)
        correct = build_dipole(ms, em, COULOMB, 15)
        assert max_abs(naive.H - correct.H) < 1e-13

    def test_order_one_form(self):
        ms, em = tls_single_mode_modeset(1.0, 0.3, 1.0)
        naive = build_naive(ms, em, COULOMB, 12, order=1)
        a = ladder_matrix(12)
        phi = 0.3 * (a + a.conj().T)
        expected = (np.kron(a.conj().T @ a, np.eye(2))
                    + 0.5 * np.kron(np.eye(13), PAULI_Z)
                    + 1.0 * np.kron(phi, PAULI_Y))
        assert max_abs(naive.H - expected) < 1e-13

    def test_high_order_approaches_correct(self):
        ms, em = tls_single_mode_modeset(1.0, 0.2, 1.0)
        correct = build_dipole(ms, em, COULOMB, 25).eigenvalues(5)
        errs = []
        for order in (1, 3, 7):
            naive = build_naive(ms, em, COULOMB, 25, order=order)
            errs.append(max_abs(naive.eigenvalues(5) - correct))
        assert errs[0] > errs[1] > errs[2]

    def test_ground_gap_positive_and_growing(self):
        gaps = []
        for eta in (0.05, 0.5):
            ms, em = tls_single_mode_modeset(1.0, eta, 1.0)
            e_naive = build_naive(ms, em, COULOMB, 60, order=1).eigenvalues(1)[0]
            e_mp = build_dipole(ms, em, MULTIPOLAR, 60).eigenvalues(1)[0]
            gaps.append(abs(e_naive - e_mp))
        assert gaps[0] > 1e-4
        assert gaps[1] > gaps[0]

    def test_naive_multipolar_drops_polarization_squared(self):
        ms, em = tls_single_mode_modeset(1.0, 0.4, 1.0)
        naive = build_naive(ms, em, MULTIPOLAR, 20)
        explicit = explicit_multipolar_matrix(1.0, 1.0, 0.4, 20)
        # for a two-level emitter the dropped correction is the c-number chi |eta|^2
        delta = explicit - naive.H
        assert max_abs(delta - 0.16 * np.eye(42)) < 1e-13

    def test_unsupported_order(self):
        ms, em = tls_single_mode_modeset(1.0, 0.3, 1.0)
        with pytest.raises(ValueError):
            build_naive(ms, em, COULOMB, 10, order=0)

    def test_interior_theta_rejected(self):
        ms, em = tls_single_mode_modeset(1.0, 0.3, 1.0)
        with pytest.raises(ValueError):
            build_naive(ms, em, GaugeParam(0.5), 10)


class TestLongitudinalHook:
    def test_zero_coupling_factorizes(self):
        ms, em = tls_single_mode_modeset(1.0, 0.3, 1.0)
        base = build_dipole(ms, em, COULOMB, 12)
        hooked = build_dipole(ms, em, COULOMB, 12,
                              longitudinal=LongitudinalCoupling(0.8, 0.0, 3))
        assert hooked.space.dim == base.space.dim * 4
        vals = np.sort(np.add.outer(base.eigenvalues(), 0.8 * np.arange(4)).ravel())
        assert max_abs(hooked.eigenvalues() - vals) < 1e-10

    def test_nonzero_coupling_is_hermitian_and_shifts(self):
        ms, em = tls_single_mode_modeset(1.0, 0.3, 1.0)
        hooked = build_dipole(ms, em, COULOMB, 12,
                              longitudinal=LongitudinalCoupling(0.8, 0.2, 3))
        assert max_abs(hooked.H - hooked.H.conj().T) < 1e-12
        base = build_dipole(ms, em, COULOMB, 12,
                            longitudinal=LongitudinalCoupling(0.8, 0.0, 3))
        assert abs(hooked.eigenvalues(1)[0] - base.eigenvalues(1)[0]) > 1e-6


def constant_fn(value):
    v = np.asarray(value, dtype=complex)
    return lambda x: v


class TestBeyondDipole:
    def setup_method(self):
        self.em = tls(1.0, (0.5 * np.sqrt(2), 0.0, 0.0), charge=1.0)
        self.chi = 1.0

    def test_constant_profile_reduces_to_dipole_coulomb(self):
        b = build_beyond_dipole(self.chi, [constant_fn((1.0, 0, 0))], self.em,
                                "coulomb", 30)
        dipole = build_tls_coulomb_single(1.0, 1.0, 0.5, 30)
        assert max_abs(b.H - dipole.H) < 1e-12

    def test_constant_profile_reduces_to_dipole_multipolar(self):
        b = build_beyond_dipole(self.chi, [constant_fn((1.0, 0, 0))], self.em,
                                "multipolar", 30)
        dipole = build_tls_multipolar_single(1.0, 1.0, 0.5, 30)
        assert max_abs(b.H - dipole.H) < 1e-12

    def test_even_profile_drops_sigma_x_free_drive(self):
        # parity (-1)^n (x) sigma_z commutes with H exactly when the
        # sigma_x-free drive vanishes, which an even profile enforces
        even = lambda x: np.array([np.cos(3.0 * x[0]), 0, 0], dtype=complex)
        skew = lambda x: np.array([np.cos(3.0 * x[0] - 0.7), 0, 0], dtype=complex)
        cutoff = 16
        parity = np.kron(np.diag((-1.0) ** np.arange(cutoff + 1)), PAULI_Z)
        b_even = build_beyond_dipole(self.chi, [even], self.em, "multipolar", cutoff)
        assert max_abs(b_even.H @ parity - parity @ b_even.H) < 1e-12
        b_skew = build_beyond_dipole(self.chi, [skew], self.em, "multipolar", cutoff)
        assert max_abs(b_skew.H @ parity - parity @ b_skew.H) > 1e-6

    def test_sinc_suppression_matches_adaptive_quadrature_oracle(self):
        r = self.em.single_particle.r_dip[0]
        k = np.pi / r  # k |r_dip| = pi: segment average of cos vanishes
        fn = lambda x: np.array([np.cos(k * x[0]), 0, 0], dtype=complex)
        b = build_beyond_dipole(self.chi, [fn], self.em, "coulomb", 30)
        eta_bar = b.metadata["eta_bar"][0]
        oracle, _ = scipy_quad_segment(k, r)
        d = self.em.single_particle.q * r
        expected = d * oracle / np.sqrt(2 * self.chi)
        assert abs(eta_bar - expected) < 1e-8
        assert abs(eta_bar) < 1e-10  # fully suppressed at k r = pi

    def test_quadrature_non_convergence_raises(self):
        step = lambda x: np.array([1.0 if x[0] < 0.1 * np.pi else 0.0, 0, 0],
                                  dtype=complex)
        with pytest.raises(ConvergenceError):
            build_beyond_dipole(self.chi, [step], self.em, "coulomb", 10,
                                quad_nodes=17, quad_tol=1e-10)

    def test_requires_single_particle(self):
        em = tls(1.0, (0.5, 0, 0))
        with pytest.raises(ValueError):
            build_beyond_dipole(1.0, [constant_fn((1, 0, 0))], em, "coulomb", 10)


def scipy_quad_segment(k, r):
    import scipy.integrate

    re, err = scipy.integrate.quad(lambda s: np.cos(k * s * r), -1.0, 1.0,
                                   epsabs=1e-13)
    return re, err


class TestGeneralized1D:
    def setup_method(self):
        self.diel = Dielectric1D(np.pi, np.ones(241))
        self.nm = solve_dielectric_1d(self.diel, 6)

    def _emitter(self, kappa1, x0):
        # dipole chosen so the first-mode dimensionless coupling equals kappa1
        h1 = self.nm.profile_at(x0)[0]
        d = kappa1 * np.sqrt(2 * self.nm.omega[0]) / h1
        return tls(1.0, (d, 0.0, 0.0))

    def test_antinode_coupling_pattern(self):
        x0 = np.pi / 2  # antinode of odd modes, node of even modes
        h = self.nm.profile_at(x0)
        expected = np.sqrt(2 / np.pi) * np.sin(np.arange(1, 7) * x0)
        assert max_abs(np.abs(h) - np.abs(expected)) < 1e-3  # sign is a solver convention

    def test_gauges_agree_on_low_spectrum(self):
        x0 = 0.9
        em = self._emitter(0.5, x0)
        b_gc = build_generalized_1d(self.nm, em, "gC", 2, (24, 20), x0)
        b_gmp = build_generalized_1d(self.nm, em, "gmp", 2, (24, 20), x0)
        assert max_abs(b_gc.eigenvalues(5) - b_gmp.eigenvalues(5)) < 1e-6

    def test_naive_minus_correct_is_identity_on_photons(self):
        x0 = 0.9
        em = self._emitter(0.4, x0)
        b_c = build_generalized_1d(self.nm, em, "gmp", 2, (8, 8), x0)
        b_n = build_generalized_1d(self.nm, em, "gmp", 2, (8, 8), x0, truncation="naive")
        delta = b_n.H - b_c.H
        ph_dim = 81
        block = delta[:2, :2]
        assert max_abs(delta - np.kron(np.eye(ph_dim), block)) < 1e-12
        assert max_abs(block) > 1e-12  # the dropped tail is actually nonzero

    def test_emitter_outside_grid_rejected(self):
        em = self._emitter(0.2, 1.0)
        with pytest.raises(ValueError):
            build_generalized_1d(self.nm, em, "gC", 2, (8, 8), 4.0)

    def test_too_many_modes_rejected(self):
        em = self._emitter(0.2, 1.0)
        with pytest.raises(ValueError):
            build_generalized_1d(self.nm, em, "gC", 7, 8, 1.0)

    def test_naive_coulomb_not_defined(self):
        em = self._emitter(0.2, 1.0)
        with pytest.raises(ValueError):
            build_generalized_1d(self.nm, em, "gC", 2, (8, 8), 1.0, truncation="naive")


class TestTimeDependent:
    def test_constant_unity_equals_static(self):
        ms, em = tls_single_mode_modeset(1.0, 0.4, 1.0)
        tdh = build_time_dependent(ms, em, "coulomb", constant_profile(1.0), 20)
        static = build_dipole(ms, em, COULOMB, 20)
        assert max_abs(fock_td_matrix(tdh, 3.7) - static.H) < 1e-12
        tdh_mp = build_time_dependent(ms, em, "multipolar", constant_profile(1.0), 20)
        static_mp = build_dipole(ms, em, MULTIPOLAR, 20)
        assert max_abs(fock_td_matrix(tdh_mp, 0.1) - static_mp.H) < 1e-12

    def test_zero_profile_decouples(self):
        ms, em = tls_single_mode_modeset(1.0, 0.4, 1.0)
        for gauge in ("coulomb", "multipolar"):
            tdh = build_time_dependent(ms, em, gauge, constant_profile(0.0), 12)
            h_f = field_hamiltonian(ms.chi, tdh.space)
            h_0 = tdh.space.embed(1, em.h0)
            assert max_abs(fock_td_matrix(tdh, 1.0) - h_f - h_0) < 1e-12

    def test_hermitian_along_ramp(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        profile = raised_cosine_ramp(duration=10.0)
        tdh = build_time_dependent(ms, em, "multipolar", profile, 16)
        for t in (0.0, 2.5, 5.0, 9.9, 12.0):
            m = tdh.matrix(t)
            assert max_abs(m - m.conj().T) < 1e-12
