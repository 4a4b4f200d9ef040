"""The numpy 1D dielectric solver against scipy's generalized symmetric eigensolver."""

import numpy as np
import pytest

import dense_oracle
from gaugecraft import Dielectric1D, solve_dielectric_1d
from gaugecraft.hilbert import max_abs


@pytest.mark.parametrize("n_x", [16, 121, 401])
@pytest.mark.parametrize("shape", ["uniform", "step", "gaussian", "random"])
def test_dielectric_solver_matches_generalized_scipy_oracle(shape, n_x):
    x = np.linspace(0.0, 2.0, n_x)
    eps = {"uniform": np.full(n_x, 2.25), "step": np.where(x < 0.7, 1.0, 6.0),
           "gaussian": 1.0 + 3.0 * np.exp(-((x - 1.2) ** 2) / 0.05),
           "random": np.random.default_rng(n_x).uniform(1.0, 12.0, size=n_x)}[shape]
    d = Dielectric1D(2.0, eps, c=0.8)
    n_modes = min(8, n_x - 2)
    nm = solve_dielectric_1d(d, n_modes)
    omega, profiles = dense_oracle.dielectric_modes(d, n_modes)
    # omega^2 / c^2 are eigenvalues of B^-1/2 A B^-1/2, whose norm is at most
    # 4 / (dx^2 min eps): a dense symmetric eigensolver is accurate to rounding
    # times that norm, not relative to each small eigenvalue
    norm = 4 * d.c**2 / (d.dx**2 * eps.min())
    assert max_abs(nm.omega**2 - omega**2) <= 1e-15 * norm
    # both solvers sign each profile by its first interior sample
    assert max_abs(nm.profiles[:, 1:-1] - profiles) <= 1e-11 * max_abs(profiles)
    assert np.all(nm.profiles[:, 1] > 0)
    assert np.all(nm.profiles[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("n_x", [401, 801])
def test_uniform_slab_signs_match_the_oracle(n_x):
    """A mirror-symmetric eps has mirror peaks of equal magnitude; the first-sample
    rule signs every mode as the oracle does, with no freedom of sign."""
    d = Dielectric1D(2.0, np.full(n_x, 2.25), c=0.8)
    nm = solve_dielectric_1d(d, 8)
    _, profiles = dense_oracle.dielectric_modes(d, 8)
    assert np.array_equal(np.sign(np.einsum("mk,mk->m", nm.profiles[:, 1:-1], profiles)),
                          np.ones(8))
    assert max_abs(nm.profiles[:, 1:-1] - profiles) <= 1e-11 * max_abs(profiles)
