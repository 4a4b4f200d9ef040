"""Emitter models, the even/odd position decomposition, and time profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecraft import (EmitterSpec, InvariantViolation, TimeProfile,
                        constant_profile, linear_ramp, raised_cosine_ramp, tls,
                        truncated_position_function)
from gaugecraft.hilbert import PAULI_X, max_abs


class TestTls:
    def test_levels_and_sigma_z_coefficient(self):
        em = tls(1.0, (1.0, 0.0, 0.0))
        assert np.allclose(em.levels, [0.5, -0.5])
        assert np.allclose(em.h0, np.diag([0.5, -0.5]))

    def test_dipole_is_sigma_x(self):
        em = tls(1.0, (1.0, 0.0, 0.0))
        assert max_abs(em.dipole[0] - PAULI_X) == 0.0
        assert max_abs(em.dipole[1]) == 0.0

    def test_diagonal_dipole_elements_vanish(self):
        em = tls(2.0, (0.3, -0.4, 0.1))
        for c in range(3):
            assert em.dipole[c, 0, 0] == 0.0
            assert em.dipole[c, 1, 1] == 0.0

    def test_zero_dipole_allowed(self):
        em = tls(1.0, (0.0, 0.0, 0.0))
        assert max_abs(em.dipole) == 0.0

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            tls(-1.0, (1.0, 0.0, 0.0))

    def test_charge_attaches_single_particle(self):
        em = tls(1.0, (0.6, 0.0, 0.0), charge=2.0)
        assert em.single_particle is not None
        assert np.allclose(em.single_particle.r_dip, [0.3, 0.0, 0.0])


class TestEmitterSpec:
    def test_non_hermitian_dipole_rejected(self):
        d = np.zeros((3, 2, 2), dtype=complex)
        d[0] = [[0, 1], [0.5, 0]]
        with pytest.raises(InvariantViolation):
            EmitterSpec(np.array([0.5, -0.5]), d)

    def test_three_level_emitter(self):
        d = np.zeros((3, 3, 3), dtype=complex)
        d[0] = [[0, 1, 0], [1, 0, 2], [0, 2, 0]]
        em = EmitterSpec(np.array([1.5, 0.5, -0.5]), d)
        assert em.n_levels == 3
        assert not em.is_tls


def _sp_emitter(r=(0.4, 0.0, 0.0), q=1.0):
    return tls(1.0, tuple(q * v for v in r), charge=q)


class TestTruncatedPositionFunction:
    def test_odd_function_gives_sigma_x(self):
        em = _sp_emitter()
        for c in range(3):
            op = truncated_position_function(lambda r, c=c: r[c], em)
            expected = em.single_particle.r_dip[c] * PAULI_X
            assert max_abs(op - expected) < 1e-15

    def test_even_function_gives_identity(self):
        em = _sp_emitter((0.4, 0.2, -0.1))
        op = truncated_position_function(lambda r: float(r @ r), em)
        r2 = float(em.single_particle.r_dip @ em.single_particle.r_dip)
        assert max_abs(op - r2 * np.eye(2)) < 1e-15

    def test_plane_wave_matches_two_point_oracle(self):
        em = _sp_emitter((0.3, 0.1, 0.0))
        k = np.array([2.0, -1.0, 0.5])
        op = truncated_position_function(lambda r: np.exp(1j * (k @ r)), em)
        kr = k @ em.single_particle.r_dip
        expected = np.cos(kr) * np.eye(2) + 1j * np.sin(kr) * PAULI_X
        assert max_abs(op - expected) < 1e-14
        # oracle: direct two-point evaluation
        fp = np.exp(1j * kr)
        fm = np.exp(-1j * kr)
        direct = (fp + fm) / 2 * np.eye(2) + (fp - fm) / 2 * PAULI_X
        assert max_abs(op - direct) < 1e-15

    def test_vector_valued_function(self):
        em = _sp_emitter((0.2, 0.5, 0.0))
        blocks = truncated_position_function(lambda r: r, em)
        assert blocks.shape == (3, 2, 2)
        for c in range(3):
            assert max_abs(blocks[c] - em.single_particle.r_dip[c] * PAULI_X) < 1e-15

    def test_requires_single_particle_data(self):
        em = tls(1.0, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            truncated_position_function(lambda r: 1.0, em)

    @settings(max_examples=30, deadline=None)
    @given(c0=st.floats(-2, 2), c1=st.floats(-2, 2), c2=st.floats(-2, 2),
           c3=st.floats(-2, 2))
    def test_commutes_with_sigma_x_and_is_linear(self, c0, c1, c2, c3):
        em = _sp_emitter((0.7, 0.0, 0.0))

        def poly(r):
            x = r[0]
            return c0 + c1 * x + c2 * x**2 + c3 * x**3

        op = truncated_position_function(poly, em)
        assert max_abs(op @ PAULI_X - PAULI_X @ op) < 1e-12
        # linearity: poly = even part + odd part evaluated separately
        op_even = truncated_position_function(lambda r: c0 + c2 * r[0] ** 2, em)
        op_odd = truncated_position_function(lambda r: c1 * r[0] + c3 * r[0] ** 3, em)
        assert max_abs(op - op_even - op_odd) < 1e-12


class TestTimeProfile:
    def test_constant(self):
        p = constant_profile(0.7)
        assert p.mu(3.0) == 0.7
        assert p.mu_dot(3.0) == 0.0

    def test_raised_cosine_endpoints_and_midpoint(self):
        p = raised_cosine_ramp(duration=10.0)
        assert p.mu(-1.0) == 0.0
        assert p.mu(10.0) == 1.0
        assert abs(p.mu(5.0) - 0.5) < 1e-15
        assert p.mu_dot(0.0) == 0.0
        assert p.mu_dot(10.0) == 0.0

    def test_linear_ramp(self):
        p = linear_ramp(duration=4.0, start=0.2, stop=1.0)
        assert abs(p.mu(2.0) - 0.6) < 1e-15
        assert abs(p.mu_dot(1.0) - 0.2) < 1e-15

    @pytest.mark.parametrize("profile", [
        raised_cosine_ramp(duration=7.0, t0=1.0),
        linear_ramp(duration=3.0, start=0.1, stop=0.9),
        TimeProfile("tabulated", times=np.linspace(0, 5, 21),
                    values=np.linspace(0, 5, 21) ** 2 / 25),
    ])
    def test_derivative_matches_finite_differences(self, profile):
        # oracle: centered finite differences away from kinks and nodes
        for t in (1.3 + 0.011, 2.6 + 0.007, 3.9 + 0.013):
            h = 1e-6
            fd = (profile.mu(t + h) - profile.mu(t - h)) / (2 * h)
            assert abs(profile.mu_dot(t) - fd) < 1e-5

    def test_tabulated_interpolation(self):
        p = TimeProfile("tabulated", times=np.array([0.0, 1.0, 2.0]),
                        values=np.array([0.0, 1.0, 0.0]))
        assert abs(p.mu(0.5) - 0.5) < 1e-15
        assert abs(p.mu_dot(0.5) - 1.0) < 1e-15
        assert abs(p.mu_dot(1.5) + 1.0) < 1e-15
        assert p.mu_dot(2.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeProfile("wiggle")
        with pytest.raises(ValueError):
            TimeProfile("linear", duration=-1.0)
        with pytest.raises(ValueError):
            TimeProfile("tabulated", times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
