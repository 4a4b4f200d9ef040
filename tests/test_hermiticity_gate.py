"""The one Hermiticity rule, `hilbert.hermitian_part`, at every place a matrix enters."""

import numpy as np
import pytest

from gaugecraft import (COULOMB, EmitterSpec, HamiltonianBundle, HermitianGenerator,
                        InvariantViolation, ModeSet, Operator, QnmSet)
from gaugecraft.hilbert import HERMITIAN_TOL, HilbertSpec, hermitian_part, matter_levels, photon

RNG = np.random.default_rng(7)


def random_hermitian(n, scale=1.0):
    m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2


def anti_hermitian(n, size):
    """A perturbation with ||p - p^dag||_max = size exactly."""
    p = np.zeros((n, n), dtype=complex)
    p[0, 1] = size / 2
    p[1, 0] = -size / 2
    return p


def assert_exactly_hermitian(m):
    assert np.array_equal(m, m.conj().T)


class TestHermitianPart:
    def test_returns_the_hermitian_part_of_a_matrix_within_tolerance(self):
        h = random_hermitian(5)
        m = h + anti_hermitian(5, 0.5 * HERMITIAN_TOL)
        out = hermitian_part(m, "test matrix")
        assert_exactly_hermitian(out)
        assert np.abs(out - h).max() <= HERMITIAN_TOL

    def test_tolerance_scales_with_the_largest_entry(self):
        big = random_hermitian(4, scale=1e4)
        hermitian_part(big + anti_hermitian(4, 1e-9), "big")  # 1e-9 < 1e-12 * max|m|
        with pytest.raises(InvariantViolation, match="small is not Hermitian before"):
            hermitian_part(random_hermitian(4, scale=1e-3) + anti_hermitian(4, 1e-11), "small")


class TestBundleGate:
    SPACE = HilbertSpec([photon(2), matter_levels(2)])

    def test_raises_on_non_hermitian_matrix(self):
        h = random_hermitian(6) + anti_hermitian(6, 1e-8)
        with pytest.raises(InvariantViolation, match="bundle Hamiltonian is not Hermitian"):
            HamiltonianBundle(h, self.SPACE, COULOMB)

    def test_builder_name_in_message(self):
        h = random_hermitian(6) + anti_hermitian(6, 1e-8)
        with pytest.raises(InvariantViolation, match="my_builder Hamiltonian"):
            HamiltonianBundle(Operator(h, self.SPACE), self.SPACE, COULOMB,
                              {"builder": "my_builder"})

    @pytest.mark.parametrize("wrap", [lambda h, s: h, Operator])
    def test_stores_an_exactly_hermitian_matrix_within_tolerance(self, wrap):
        h = random_hermitian(6)
        raw = h + anti_hermitian(6, 1e-14)
        bundle = HamiltonianBundle(wrap(raw, self.SPACE), self.SPACE, COULOMB)
        assert isinstance(bundle.H, Operator)
        assert_exactly_hermitian(bundle.H.matrix)
        assert np.abs(bundle.H.matrix - h).max() <= 1e-14
        assert np.abs(bundle.eigenvalues() - np.linalg.eigvalsh(h)).max() < 1e-12


class TestStoredMatricesAreChecked:
    def test_tabulated_qnm_overlap_leaves_caller_array_untouched(self):
        freqs = np.linspace(0.0, 3.0, 5)
        samples = np.array([np.eye(2) + 0.1 * f * np.array([[0, 1j], [-1j, 0]])
                            for f in freqs], dtype=complex)
        samples[2] += anti_hermitian(2, 1e-14)
        before = samples.copy()
        qnm = QnmSet([1.0, 1.3], [1e-3, 2e-3], samples, overlap_freqs=freqs)
        assert np.array_equal(samples, before)
        assert qnm.overlap is not samples
        for s in qnm.overlap:
            assert_exactly_hermitian(s)
        assert np.abs(qnm.overlap - samples).max() <= 1e-14

    def test_tabulated_qnm_overlap_names_the_frequency(self):
        freqs = np.array([0.0, 1.5, 3.0])
        samples = np.array([np.eye(2)] * 3, dtype=complex)
        samples[1] += anti_hermitian(2, 1e-6)
        with pytest.raises(InvariantViolation, match="omega = 1.5"):
            QnmSet([1.0, 1.3], [1e-3, 2e-3], samples, overlap_freqs=freqs)

    def test_constant_qnm_overlap_and_chi_and_dipole_are_symmetrized(self):
        near = np.array([[1.0, 0.2], [0.2, 1.5]], dtype=complex) + anti_hermitian(2, 1e-14)
        assert_exactly_hermitian(QnmSet([1.0, 1.3], [1e-3, 2e-3], near).overlap)
        assert_exactly_hermitian(ModeSet(near).chi)
        dipole = np.array([anti_hermitian(2, 1e-14) + [[0, 0.4], [0.4, 0]]] * 3)
        em = EmitterSpec([0.5, -0.5], dipole)
        for c in range(3):
            assert_exactly_hermitian(em.dipole[c])

    def test_dense_generator_stores_the_hermitian_part(self):
        space = HilbertSpec([matter_levels(3)])
        x = random_hermitian(3)
        gen = HermitianGenerator(x + anti_hermitian(3, 1e-14), space)
        assert_exactly_hermitian(gen.matrix)
        with pytest.raises(InvariantViolation, match="generator is not Hermitian"):
            HermitianGenerator(x + anti_hermitian(3, 1e-6), space)
