"""Tensor-space operator algebra: ladders, Paulis, Kronecker sums, eigensolves,
exponentials."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import herm_eig, ladder, matrix_exp, pauli
from gaugecraft import HilbertSpec, InvariantViolation, matter_levels, photon
from gaugecraft.hilbert import Operator, ladder_matrix, max_abs

RNG = np.random.default_rng(20240817)


def random_hermitian(n, rng=RNG):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


class TestLadder:
    def test_single_mode_cutoff_2(self):
        space = HilbertSpec([photon(2)])
        a = ladder(space, 0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2)
        assert max_abs(a - expected) == 0.0

    def test_cutoff_zero_is_vacuum_only(self):
        space = HilbertSpec([photon(0)])
        assert max_abs(ladder(space, 0)) == 0.0
        assert ladder(space, 0).shape == (1, 1)

    def test_two_mode_embedding_and_commutator(self):
        # oracle: direct matrix computation of [a, a^dag] on the second mode
        n = 4
        space = HilbertSpec([photon(3), photon(n)])
        a = ladder(space, 1)
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
        assert max_abs(sz - np.diag([1.0, -1.0])) == 0.0

    def test_su2_product(self):
        space = HilbertSpec([matter_levels(2)])
        sx, sy, sz = pauli(space, 0)
        assert max_abs(sx @ sy - 1j * sz) < 1e-15

    def test_sigma_x_eigenvalues(self):
        space = HilbertSpec([matter_levels(2)])
        sx, _, _ = pauli(space, 0)
        vals, _ = herm_eig(sx)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_disjoint_factors_commute(self):
        space = HilbertSpec([photon(3), matter_levels(2)])
        a = ladder(space, 0)
        sx = pauli(space, 0)[0]
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
        assert max_abs(vecs.conj().T @ vecs - np.eye(2)) < 1e-12

    def test_diagonal_permutation(self):
        vals, vecs = herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        # eigenvectors are basis permutations
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    def test_block_characteristic_polynomial_oracle(self):
        # oracle: closed-form 2x2 eigenvalues of each diagonal block
        def eig2(block):
            tr, det = block.trace().real, np.linalg.det(block).real
            disc = np.sqrt(tr**2 / 4 - det)
            return np.array([tr / 2 - disc, tr / 2 + disc])

        b1, b2 = random_hermitian(2), random_hermitian(2)
        m = np.block([[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]])
        assert max_abs(m - m.conj().T) == 0.0
        vals, vecs = herm_eig(m)
        expected = np.sort(np.concatenate([eig2(b1), eig2(b2)]))
        assert max_abs(vals - expected) < 1e-12
        assert max_abs(m @ vecs - vecs * vals) < 1e-10

    def test_residual_larger_dimension(self):
        n = 300
        m = random_hermitian(n)
        assert max_abs(m - m.conj().T) == 0.0
        vals, vecs = herm_eig(m)
        assert max_abs(m @ vecs - vecs * vals) < 1e-10 * max(1, np.abs(vals).max())

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestMatrixExp:
    def test_exp_zero(self):
        e = matrix_exp(np.zeros((3, 3), dtype=complex))
        assert max_abs(e - np.eye(3)) < 1e-15

    def test_euler_identity(self):
        space = HilbertSpec([matter_levels(2)])
        sx = pauli(space, 0)[0]
        e = matrix_exp(1j * np.pi / 2 * sx)
        assert max_abs(e - 1j * sx) < 1e-14

    def test_anti_hermitian_unitarity_and_taylor_oracle(self):
        n = 6
        g = random_hermitian(n)
        anti = 1j * g * 0.7
        e = matrix_exp(anti)
        assert max_abs(e.conj().T @ e - np.eye(n)) < 1e-12
        # oracle: 30-term Taylor series
        taylor = np.eye(n, dtype=complex)
        term = np.eye(n, dtype=complex)
        for k in range(1, 31):
            term = term @ anti / k
            taylor += term
        assert max_abs(e - taylor) < 1e-10

    def test_hermitian_input(self):
        g = random_hermitian(4) * 0.3
        e = matrix_exp(g)
        assert max_abs(e - e.conj().T) < 1e-12
        vals = np.linalg.eigvalsh(g)
        assert np.allclose(np.sort(np.linalg.eigvalsh(e)), np.exp(vals))

    def test_rejects_non_finite(self):
        bad = np.array([[np.inf, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            matrix_exp(bad)


class TestOperatorFlags:
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
    a = ladder(space, 0)
    dev = a @ a.conj().T - a.conj().T @ a - np.eye(n + 1)
    expected = np.zeros((n + 1, n + 1))
    expected[n, n] = -(n + 1)
    assert max_abs(dev - expected) < 1e-13


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 300, 640])
def test_ladder_matrix_is_bit_identical_to_the_loop(cutoff):
    want = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(1, cutoff + 1):
        want[n - 1, n] = np.sqrt(n)
    got = ladder_matrix(cutoff)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       kinds=st.lists(st.booleans(), max_size=5), seed=st.integers(0, 2**31 - 1))
def test_dense_is_the_sum_of_its_kronecker_terms(dims, kinds, seed):
    """`HilbertSpec.dense` equals sum_t kron(t), formed by np.kron, to 1e-15; it is float64
    exactly when every term is real, whichever order real and complex terms come in, and
    it leaves the local matrices it is given as they were."""
    space = HilbertSpec([photon(d - 1) for d in dims])
    rng = np.random.default_rng(seed)
    terms = []
    for real in kinds:  # random local matrices on a random subset of the factors
        on = rng.random(len(dims)) < 0.6
        terms.append({i: rng.normal(size=(d, d)) + (0 if real else 1j * rng.normal(size=(d, d)))
                      for i, d in enumerate(dims) if on[i]})
    kept = [{i: m.copy() for i, m in t.items()} for t in terms]
    want = sum((reduce(np.kron, [t.get(i, np.eye(d)) for i, d in enumerate(dims)])
                for t in terms), np.zeros((space.dim, space.dim)))
    got = space.dense(terms)
    assert got.shape == want.shape
    assert max_abs(got - want) <= 1e-15 * max(1.0, max_abs(want))
    real = all(np.isrealobj(m) for t in terms for m in t.values())
    assert got.dtype == (np.float64 if real else np.complex128)
    assert all(np.array_equal(t[i], k[i]) for t, k in zip(terms, kept) for i in t)
