"""`hilbert.lanczos` against numpy.linalg.eigh on random Hermitian matrices: the Ritz pairs
it reports converged are levels of the spectral measure of its start vector.

A run that outlives the Krylov space of v (its beta falling to rounding, not below tol)
goes on from a rounding direction, which may meet a level of v's measure once more; the
weight of a level is the sum over the converged pairs at it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecraft.hilbert import HERMITIAN_TOL, lanczos

REL_TOL = 1e-12


def random_hermitian(rng, n, real, levels=None):
    """A random Hermitian (or real symmetric) n x n matrix, with these eigenvalues when
    given, and a random start vector of its kind."""
    shape = (n, n)
    m = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if levels is None:
        return (m + m.conj().T) / 2, _vector(rng, n, real)
    q = np.linalg.qr(m)[0]
    return (q * levels) @ q.conj().T, _vector(rng, n, real)


def _vector(rng, n, real):
    return rng.normal(size=n) if real else rng.normal(size=n) + 1j * rng.normal(size=n)


def run_on(h, v, cap=None, done=lambda run: False):
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(h)).max()))
    return lanczos(lambda x: h @ x, v, HERMITIAN_TOL * scale, cap or len(v), done), scale


def measure(h, v, tol):
    """(levels, weights) of v's spectral measure, eigenvalues within tol merged."""
    vals, vecs = np.linalg.eigh(h)
    weights = np.abs(vecs.conj().T @ v) ** 2
    merged = np.concatenate([[True], np.diff(vals) > tol])
    groups = np.cumsum(merged) - 1
    return vals[merged], np.bincount(groups, weights=weights)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 500), real=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_converged_ritz_pairs_are_levels_and_weights_of_the_measure(n, real, seed):
    h, v = random_hermitian(np.random.default_rng(seed), n, real)
    run, scale = run_on(h, v, cap=min(n, 150), done=lambda run: run.converged.sum() >= 3)
    assert run.converged.sum() >= min(3, n)
    levels, weights = measure(h, v, HERMITIAN_TOL * scale)
    norm_sq = float(np.vdot(v, v).real)
    assert abs(run.weights.sum() - norm_sq) <= REL_TOL * norm_sq
    found = np.zeros(len(levels))
    for k in np.flatnonzero(run.converged):
        q = np.argmin(np.abs(levels - run.values[k]))
        assert abs(run.values[k] - levels[q]) <= REL_TOL * scale
        found[q] += run.weights[k]
    hit = np.unique([np.argmin(np.abs(levels - t)) for t in run.values[run.converged]])
    assert np.all(np.abs(found[hit] - weights[hit]) <= REL_TOL * norm_sq)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 200), real=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_reported_residual_bounds_the_true_one(n, real, seed):
    """beta_m |s_mk| >= ||H y_k - theta_k y_k||_2, up to the rounding of forming H y_k."""
    rng = np.random.default_rng(seed)
    h, v = random_hermitian(rng, n, real)
    run, scale = run_on(h, v, cap=int(rng.integers(1, n + 1)))
    y = run.vectors(range(run.iterations))
    true = np.linalg.norm(h @ y - y * run.values, axis=0)
    assert np.all(true <= run.residuals + 1e-13 * scale)
    assert np.allclose(np.linalg.norm(y, axis=0), 1.0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(6, 300), real=st.booleans(), seed=st.integers(0, 2**31 - 1),
       multiplicity=st.integers(2, 5))
def test_a_degenerate_level_carries_its_summed_weight(n, real, seed, multiplicity):
    rng = np.random.default_rng(seed)
    levels = rng.uniform(-3.0, 3.0, size=n)
    levels[:multiplicity] = levels[0]
    h, v = random_hermitian(rng, n, real, levels)
    vals, vecs = np.linalg.eigh(h)
    run, scale = run_on(h, v)
    assert np.all(run.converged)
    degenerate = np.abs(vals - levels[0]) <= 1e-10 * scale
    assert degenerate.sum() == multiplicity
    want = float(np.sum(np.abs(vecs[:, degenerate].conj().T @ v) ** 2))
    near = np.abs(run.values - levels[0]) <= 1e-10 * scale
    assert near.any()
    assert abs(run.weights[near].sum() - want) <= REL_TOL * float(np.vdot(v, v).real)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 300), real=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_a_start_orthogonal_to_an_eigenvector_leaves_its_level_out(n, real, seed):
    rng = np.random.default_rng(seed)
    h, v = random_hermitian(rng, n, real)
    vals, vecs = np.linalg.eigh(h)
    k = int(rng.integers(n))
    u = vecs[:, k]
    v = v - u * np.vdot(u, v)
    run, _ = run_on(h, v)
    assert np.all(run.converged)
    gap = np.min(np.abs(np.delete(vals, k) - vals[k]))
    near = np.abs(run.values - vals[k]) < gap / 2
    # no Ritz pair at E_k, or one from a rounding direction, whose weight is rounding
    assert run.weights[near].sum() <= REL_TOL * float(np.vdot(v, v).real)


def test_a_zero_start_vector_has_the_empty_measure():
    run = lanczos(lambda x: 2 * x, np.zeros(4, dtype=complex), 1e-12, 10)
    assert run.iterations == 0 and run.vectors([]).shape == (4, 0)


def test_done_stops_the_run_at_a_check():
    h, v = random_hermitian(np.random.default_rng(3), 120, False)
    seen = []
    run, _ = run_on(h, v, done=lambda run: seen.append(run.iterations) or len(seen) == 3)
    assert seen == [10, 20, 30] and run.iterations == 30
