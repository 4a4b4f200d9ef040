"""Tensor-space operator algebra: ladders, Paulis, eigensolves, exponentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import herm_eig, matrix_exp
from gaugecraft import (HilbertSpec, InvariantViolation, Operator, ladder, matter_levels, pauli,
                        photon)
from gaugecraft.hilbert import ladder_matrix, max_abs

RNG = np.random.default_rng(20240817)


def random_hermitian(n, rng=RNG):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


class TestLadder:
    def test_single_mode_cutoff_2(self):
        space = HilbertSpec([photon(2)])
        a = ladder(space, 0).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2)
        assert max_abs(a - expected) == 0.0

    def test_cutoff_zero_is_vacuum_only(self):
        space = HilbertSpec([photon(0)])
        assert max_abs(ladder(space, 0).matrix) == 0.0
        assert ladder(space, 0).matrix.shape == (1, 1)

    def test_two_mode_embedding_and_commutator(self):
        # oracle: direct matrix computation of [a, a^dag] on the second mode
        n = 4
        space = HilbertSpec([photon(3), photon(n)])
        a = ladder(space, 1).matrix
        expected = np.kron(np.eye(4), ladder_matrix(n))
        assert max_abs(a - expected) == 0.0
        comm = a @ a.conj().T - a.conj().T @ a
        top = np.zeros((n + 1, n + 1))
        top[n, n] = 1.0
        deviation = np.kron(np.eye(4), np.eye(n + 1) - (n + 1) * top)
        assert max_abs(comm - deviation) < 1e-14

    def test_index_out_of_range(self):
        space = HilbertSpec([photon(2)])
        with pytest.raises(IndexError):
            ladder(space, 1)

    def test_matter_only_space_has_no_modes(self):
        space = HilbertSpec([matter_levels(2)])
        with pytest.raises(IndexError):
            ladder(space, 0)


class TestPauli:
    def test_sigma_z_excited_first(self):
        space = HilbertSpec([matter_levels(2)])
        _, _, sz = pauli(space, 0)
        assert max_abs(sz.matrix - np.diag([1.0, -1.0])) == 0.0

    def test_su2_product(self):
        space = HilbertSpec([matter_levels(2)])
        sx, sy, sz = pauli(space, 0)
        assert max_abs(sx.matrix @ sy.matrix - 1j * sz.matrix) < 1e-15

    def test_sigma_x_eigenvalues(self):
        space = HilbertSpec([matter_levels(2)])
        sx, _, _ = pauli(space, 0)
        vals, _ = herm_eig(sx)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_disjoint_factors_commute(self):
        space = HilbertSpec([photon(3), matter_levels(2)])
        a = ladder(space, 0).matrix
        sx = pauli(space, 0)[0].matrix
        assert max_abs(a @ sx - sx @ a) < 1e-15

    def test_requires_two_levels(self):
        space = HilbertSpec([matter_levels(3)])
        with pytest.raises(ValueError):
            pauli(space, 0)


class TestHermEig:
    def test_sigma_x(self):
        space = HilbertSpec([matter_levels(2)])
        sx, _, _ = pauli(space, 0)
        vals, vecs = herm_eig(sx)
        assert np.allclose(vals, [-1.0, 1.0])
        assert vecs.unitary

    def test_diagonal_permutation(self):
        space = HilbertSpec([matter_levels(3)])
        op = Operator(np.diag([3.0, 1.0, 2.0]).astype(complex), space, hermitian=True)
        vals, vecs = herm_eig(op)
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        # eigenvectors are basis permutations
        assert np.allclose(np.abs(vecs.matrix), np.eye(3)[:, [1, 2, 0]])

    def test_block_characteristic_polynomial_oracle(self):
        # oracle: closed-form 2x2 eigenvalues of each diagonal block
        def eig2(block):
            tr, det = block.trace().real, np.linalg.det(block).real
            disc = np.sqrt(tr**2 / 4 - det)
            return np.array([tr / 2 - disc, tr / 2 + disc])

        b1, b2 = random_hermitian(2), random_hermitian(2)
        m = np.block([[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]])
        space = HilbertSpec([matter_levels(4)])
        vals, vecs = herm_eig(Operator(m, space, hermitian=True))
        expected = np.sort(np.concatenate([eig2(b1), eig2(b2)]))
        assert max_abs(vals - expected) < 1e-12
        assert max_abs(m @ vecs.matrix - vecs.matrix * vals) < 1e-10

    def test_residual_larger_dimension(self):
        n = 300
        m = random_hermitian(n)
        space = HilbertSpec([matter_levels(n)])
        vals, vecs = herm_eig(Operator(m, space, hermitian=True))
        assert max_abs(m @ vecs.matrix - vecs.matrix * vals) < 1e-10 * max(1, np.abs(vals).max())

    def test_rejects_non_hermitian(self):
        space = HilbertSpec([matter_levels(2)])
        op = Operator(np.array([[0, 1], [0, 0]], dtype=complex), space)
        with pytest.raises(InvariantViolation):
            herm_eig(op)


class TestMatrixExp:
    def test_exp_zero(self):
        space = HilbertSpec([matter_levels(3)])
        e = matrix_exp(Operator(np.zeros((3, 3), dtype=complex), space))
        assert max_abs(e.matrix - np.eye(3)) < 1e-15

    def test_euler_identity(self):
        space = HilbertSpec([matter_levels(2)])
        sx = pauli(space, 0)[0]
        e = matrix_exp(Operator(1j * np.pi / 2 * sx.matrix, space))
        assert max_abs(e.matrix - 1j * sx.matrix) < 1e-14

    def test_anti_hermitian_unitarity_and_taylor_oracle(self):
        n = 6
        g = random_hermitian(n)
        anti = 1j * g * 0.7
        space = HilbertSpec([matter_levels(n)])
        e = matrix_exp(Operator(anti, space))
        assert e.unitary
        assert max_abs(e.matrix.conj().T @ e.matrix - np.eye(n)) < 1e-12
        # oracle: 30-term Taylor series
        taylor = np.eye(n, dtype=complex)
        term = np.eye(n, dtype=complex)
        for k in range(1, 31):
            term = term @ anti / k
            taylor += term
        assert max_abs(e.matrix - taylor) < 1e-10

    def test_hermitian_input(self):
        g = random_hermitian(4) * 0.3
        space = HilbertSpec([matter_levels(4)])
        e = matrix_exp(Operator(g, space))
        assert e.hermitian
        vals = np.linalg.eigvalsh(g)
        assert np.allclose(np.sort(np.linalg.eigvalsh(e.matrix)), np.exp(vals))

    def test_rejects_non_finite(self):
        space = HilbertSpec([matter_levels(2)])
        bad = np.array([[np.inf, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            matrix_exp(Operator(bad, space))


class TestOperatorFlags:
    def test_false_hermitian_claim_rejected(self):
        space = HilbertSpec([matter_levels(2)])
        with pytest.raises(InvariantViolation):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex), space, hermitian=True)

    def test_false_unitary_claim_rejected(self):
        space = HilbertSpec([matter_levels(2)])
        with pytest.raises(InvariantViolation):
            Operator(2 * np.eye(2, dtype=complex), space, unitary=True)

    def test_dimension_mismatch(self):
        space = HilbertSpec([matter_levels(2)])
        with pytest.raises(ValueError):
            Operator(np.eye(3, dtype=complex), space)


@settings(max_examples=25, deadline=None)
@given(n1=st.integers(1, 3), n2=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_disjoint_factor_operators_commute(n1, n2, seed):
    """Tensor embedding preserves commutation exactly for random local operators."""
    rng = np.random.default_rng(seed)
    space = HilbertSpec([photon(n1), matter_levels(n2 + 1)])
    m1 = rng.normal(size=(n1 + 1, n1 + 1)) + 1j * rng.normal(size=(n1 + 1, n1 + 1))
    m2 = rng.normal(size=(n2 + 1, n2 + 1)) + 1j * rng.normal(size=(n2 + 1, n2 + 1))
    a = space.embed(0, m1)
    b = space.embed(1, m2)
    scale = max_abs(a) * max_abs(b)
    assert max_abs(a @ b - b @ a) < 1e-15 * max(1.0, scale)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_per_mode_commutator_deviation_is_top_projector(n, seed):
    """[a, a^dag] = 1 - (N+1)|N><N| exactly on any truncated ladder."""
    space = HilbertSpec([photon(n)])
    a = ladder(space, 0).matrix
    dev = a @ a.conj().T - a.conj().T @ a - np.eye(n + 1)
    expected = np.zeros((n + 1, n + 1))
    expected[n, n] = -(n + 1)
    assert max_abs(dev - expected) < 1e-13
