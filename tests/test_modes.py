"""Mode-set construction: polariton grids, QNM quadrature, 1D dielectric modes."""

import numpy as np
import pytest

from gaugecraft import (ConvergenceError, Dielectric1D, InvariantViolation, ModeSet,
                        PolaritonGrid, QnmSet, build_from_grid, chi_from_qnm,
                        completeness_residual, qnm_frequency_grid, solve_dielectric_1d)
from gaugecraft.hilbert import max_abs
from gaugecraft.scenario import modeset_from_json, modeset_to_json

RNG = np.random.default_rng(7)


def weighted_orthonormal_rows(n_modes, weight, rng=RNG, complex_valued=True):
    """Random family of rows orthonormal under sum_k w_k u_m(k) u*_n(k)."""
    k = weight.shape[0]
    raw = rng.normal(size=(k, n_modes))
    if complex_valued:
        raw = raw + 1j * rng.normal(size=(k, n_modes))
    q, _ = np.linalg.qr(np.sqrt(weight)[:, None] * raw)
    return (q / np.sqrt(weight)[:, None]).T  # (M, K)


def make_grid(n_nodes=12, n_modes=4, rng=RNG):
    omega = np.linspace(0.5, 2.0, n_nodes)
    weight = rng.uniform(0.5, 1.5, size=n_nodes)
    proj = weighted_orthonormal_rows(n_modes, weight, rng)
    labels = tuple(f"k{i}" for i in range(n_nodes))
    return PolaritonGrid(labels, omega, weight, proj)


class TestBuildFromGrid:
    def test_single_node_delta_projection(self):
        grid = PolaritonGrid(("only",), np.array([1.0]), np.array([1.0]),
                             np.array([[1.0 + 0j]]))
        ms = build_from_grid(grid, {})
        assert np.allclose(ms.chi, [[1.0]])

    def test_indicator_basis_gives_diagonal_frequencies(self):
        omega = np.array([0.7, 1.1, 1.9])
        weight = np.array([0.5, 2.0, 1.0])
        proj = np.diag(1 / np.sqrt(weight)).astype(complex)
        grid = PolaritonGrid(("a", "b", "c"), omega, weight, proj)
        ms = build_from_grid(grid, {})
        assert max_abs(ms.chi - np.diag(omega)) < 1e-14

    def test_lorentzian_overlap_matches_direct_sum_oracle(self):
        # two overlapping Lorentzian-profile rows, orthonormalized
        k = 101
        omega = np.linspace(0.2, 3.0, k)
        weight = np.full(k, (omega[-1] - omega[0]) / (k - 1))
        raw = np.array([1.0 / ((omega - 1.0) ** 2 + 0.04),
                        1.0 / ((omega - 1.3) ** 2 + 0.09)])
        q, _ = np.linalg.qr(np.sqrt(weight)[:, None] * raw.T)
        proj = (q / np.sqrt(weight)[:, None]).T.astype(complex)
        grid = PolaritonGrid(tuple(map(str, range(k))), omega, weight, proj)
        ms = build_from_grid(grid, {})
        # independent oracle: elementwise loops over the weighted inner product
        chi_oracle = np.zeros((2, 2), dtype=complex)
        for m in range(2):
            for n in range(2):
                acc = 0.0 + 0j
                for i in range(k):
                    acc += weight[i] * omega[i] * proj[m, i] * np.conj(proj[n, i])
                chi_oracle[m, n] = acc
        assert max_abs(ms.chi - chi_oracle) < 1e-12
        assert abs(ms.chi[0, 1]) > 1e-3  # genuinely overlapping
        assert max_abs(ms.chi - ms.chi.conj().T) < 1e-12

    def test_derived_profiles_definition(self):
        grid = make_grid()
        f = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
        ms = build_from_grid(grid, {"pt": f})
        d = np.sqrt(np.diag(ms.chi).real)
        expected = np.zeros_like(f)
        for mu in range(4):
            for nu in range(4):
                expected[mu] += ms.chi[mu, nu].conj() / (d[mu] * d[nu]) * f[nu]
        assert max_abs(ms.derived_profile("pt") - expected) < 1e-12

    def test_rejects_non_orthonormal_projections(self):
        grid = make_grid()
        bad = np.array(grid.projections)
        bad[0] *= 1.01
        with pytest.raises(InvariantViolation):
            PolaritonGrid(grid.labels, grid.omega, grid.weight, bad)

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(InvariantViolation):
            PolaritonGrid(("x",), np.array([-1.0]), np.array([1.0]),
                          np.array([[1.0 + 0j]]))

    def test_chi_positive_definite_random_family(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            grid = make_grid(n_nodes=10, n_modes=3, rng=rng)
            ms = build_from_grid(grid, {})
            assert np.linalg.eigvalsh(ms.chi).min() > 0


class TestCompleteness:
    def test_complete_basis(self):
        weight = RNG.uniform(0.5, 2.0, size=8)
        omega = np.linspace(0.4, 1.6, 8)
        proj = weighted_orthonormal_rows(8, weight)
        grid = PolaritonGrid(tuple(map(str, range(8))), omega, weight, proj)
        ms = build_from_grid(grid, {})
        assert completeness_residual(ms, grid) < 1e-10

    def test_removing_a_mode_leaves_its_projector_weight(self):
        weight = RNG.uniform(0.5, 2.0, size=6)
        omega = np.linspace(0.4, 1.6, 6)
        proj = weighted_orthonormal_rows(6, weight)
        grid_small = PolaritonGrid(tuple(map(str, range(6))), omega, weight, proj[:-1])
        ms = build_from_grid(grid_small, {})
        residual = completeness_residual(ms, grid_small)
        # oracle: the dropped row's projector, computed directly
        removed = np.sqrt(weight) * proj[-1]
        removed_weight = np.abs(np.outer(removed, removed.conj())).max()
        assert residual >= removed_weight - 1e-12

    def test_empty_family_residual_is_one(self):
        weight = np.array([1.0, 1.0])
        omega = np.array([1.0, 2.0])
        grid = PolaritonGrid(("a", "b"), omega, weight, np.zeros((0, 2), dtype=complex))
        ms = build_from_grid(grid, {})
        assert completeness_residual(ms, grid) == 1.0

    def test_monotone_nonincreasing_as_modes_added(self):
        weight = RNG.uniform(0.5, 2.0, size=7)
        omega = np.linspace(0.5, 1.8, 7)
        proj = weighted_orthonormal_rows(7, weight)
        residuals = []
        for m in range(1, 8):
            grid = PolaritonGrid(tuple(map(str, range(7))), omega, weight, proj[:m])
            ms = build_from_grid(grid, {})
            residuals.append(completeness_residual(ms, grid))
        assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(6))

    def test_mismatched_grid_rejected(self):
        grid_a = make_grid(rng=np.random.default_rng(1))
        grid_b = make_grid(rng=np.random.default_rng(2))
        ms = build_from_grid(grid_a, {})
        with pytest.raises(ValueError):
            completeness_residual(ms, grid_b)


def analytic_single_pole_chi(omega0, gamma, grid):
    """Closed-form Lorentzian moments on the quadrature window (constant overlap)."""
    lo, hi = grid[0], grid[-1]
    s_int = (np.arctan((hi - omega0) / gamma) - np.arctan((lo - omega0) / gamma)) / gamma
    t_int = omega0 * s_int + 0.5 * np.log(
        ((hi - omega0) ** 2 + gamma**2) / ((lo - omega0) ** 2 + gamma**2))
    return t_int / s_int


class TestChiFromQnm:
    def test_quadrature_matches_analytic_moment_oracle(self):
        q = 500.0
        qnm = QnmSet(np.array([1.0]), np.array([1.0 / (2 * q)]), np.eye(1))
        grid = qnm_frequency_grid(qnm)
        result = chi_from_qnm(qnm, grid)
        expected = analytic_single_pole_chi(1.0, 1.0 / (2 * q), grid)
        assert abs(result.modeset.chi[0, 0].real - expected) < 1e-8
        assert result.relative_deviation[0] < 1e-2

    def test_high_q_limit(self):
        qnm = QnmSet(np.array([1.0]), np.array([0.5e-6]), np.eye(1))
        result = chi_from_qnm(qnm)
        assert result.relative_deviation[0] < 1e-5

    def test_deviation_decreases_over_q_ladder(self):
        devs = []
        for q in (10.0, 100.0, 1000.0):
            qnm = QnmSet(np.array([1.0]), np.array([1.0 / (2 * q)]), np.eye(1))
            devs.append(chi_from_qnm(qnm).relative_deviation[0])
        assert devs[0] > devs[1] > devs[2]

    def test_decoupled_modes_give_diagonal_chi(self):
        overlap = np.diag([1.0, 0.7]).astype(complex)
        qnm = QnmSet(np.array([1.0, 1.6]), np.array([0.002, 0.004]), overlap)
        result = chi_from_qnm(qnm)
        off = result.modeset.chi[0, 1]
        assert abs(off) < 1e-10 * abs(result.modeset.chi[0, 0])

    def test_coupled_modes_give_offdiagonal_chi(self):
        overlap = np.array([[1.0, 0.3], [0.3, 0.8]], dtype=complex)
        qnm = QnmSet(np.array([1.0, 1.4]), np.array([0.005, 0.007]), overlap)
        result = chi_from_qnm(qnm)
        assert abs(result.modeset.chi[0, 1]) > 1e-4

    def test_insufficient_resolution_rejected(self):
        qnm = QnmSet(np.array([1.0]), np.array([1e-4]), np.eye(1))
        coarse = np.linspace(0.0, 3.0, 501)
        with pytest.raises(ConvergenceError):
            chi_from_qnm(qnm, coarse)

    def test_non_positive_overlap_rejected(self):
        # identical poles with fully-correlated overlap make S exactly rank-1
        overlap = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        qnm = QnmSet(np.array([1.0, 1.0]), np.array([0.002, 0.002]), overlap)
        with pytest.raises(InvariantViolation):
            chi_from_qnm(qnm)

    def test_tabulated_overlap_interpolation(self):
        freqs = np.linspace(0.0, 3.0, 31)
        samples = np.array([np.eye(1) * (1.0 + 0.1 * f) for f in freqs], dtype=complex)
        qnm = QnmSet(np.array([1.0]), np.array([0.001]), samples, overlap_freqs=freqs)
        result = chi_from_qnm(qnm)
        assert result.relative_deviation[0] < 1e-2


class TestDielectric1D:
    def test_uniform_box_frequencies(self):
        d = Dielectric1D(np.pi, np.ones(401))
        nm = solve_dielectric_1d(d, 3)
        dx = d.dx
        for n in (1, 2, 3):
            assert abs(nm.omega[n - 1] - n) < 2.0 * n**3 * dx**2  # second-order accurate

    def test_uniform_box_profiles_are_sines(self):
        d = Dielectric1D(np.pi, np.ones(301))
        nm = solve_dielectric_1d(d, 2)
        x = nm.x
        for n in (1, 2):
            target = np.sqrt(2 / np.pi) * np.sin(n * x)
            sign = np.sign(np.vdot(target, nm.profiles[n - 1]).real)
            assert max_abs(nm.profiles[n - 1] - sign * target) < 5e-3

    def test_grid_doubling_reduces_error_fourfold(self):
        errs = []
        for n_x in (101, 201):
            d = Dielectric1D(np.pi, np.ones(n_x))
            nm = solve_dielectric_1d(d, 1)
            errs.append(abs(nm.omega[0] - 1.0))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_piecewise_epsilon_matches_independent_eigensolver(self):
        n_x = 161
        x = np.linspace(0, 1.0, n_x)
        eps = np.where(x < 0.5, 1.0, 4.0)
        d = Dielectric1D(1.0, eps)
        nm = solve_dielectric_1d(d, 4)
        # oracle: symmetric reduction B^(-1/2) A B^(-1/2) with plain numpy eigh
        dx = d.dx
        n_int = n_x - 2
        a = (np.diag(2.0 * np.ones(n_int)) - np.diag(np.ones(n_int - 1), 1)
             - np.diag(np.ones(n_int - 1), -1)) / dx**2
        b_inv_sqrt = np.diag(1.0 / np.sqrt(eps[1:-1]))
        vals = np.linalg.eigvalsh(b_inv_sqrt @ a @ b_inv_sqrt)
        assert max_abs(nm.omega**2 - vals[:4]) < 1e-10 * max(1.0, vals[3])

    def test_orthonormality_under_eps_weight(self):
        x = np.linspace(0, 2.0, 120)
        eps = 1.0 + 0.8 * np.exp(-((x - 1.0) ** 2) / 0.1)
        nm = solve_dielectric_1d(Dielectric1D(2.0, eps), 5)
        gram = nm.dx * np.einsum("k,mk,nk->mn", nm.eps, nm.profiles, nm.profiles)
        assert max_abs(gram - np.eye(5)) < 1e-8

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvariantViolation):
            Dielectric1D(1.0, np.concatenate([np.ones(20), [-0.1]]))

    def test_rejects_too_many_modes(self):
        d = Dielectric1D(1.0, np.ones(16))
        with pytest.raises(ValueError):
            solve_dielectric_1d(d, 15)


class TestModeSetSerialization:
    def test_round_trip(self):
        grid = make_grid()
        f = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
        ms = build_from_grid(grid, {"emitter": f})
        doc = modeset_to_json(ms)
        ms2 = modeset_from_json(doc)
        assert max_abs(ms2.chi - ms.chi) == 0.0
        assert max_abs(ms2.profile("emitter") - ms.profile("emitter")) == 0.0
        assert max_abs(ms2.derived_profile("emitter") - ms.derived_profile("emitter")) < 1e-12

    def test_inconsistent_derived_profiles_rejected(self):
        grid = make_grid()
        f = RNG.normal(size=(4, 3)) + 1j * RNG.normal(size=(4, 3))
        ms = build_from_grid(grid, {"emitter": f})
        doc = modeset_to_json(ms)
        doc["derived_profiles"]["emitter"][0][0] += 0.5
        from gaugecraft.errors import ConfigError
        with pytest.raises(ConfigError):
            modeset_from_json(doc)

    def test_chi_validation(self):
        with pytest.raises(InvariantViolation):
            ModeSet(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not Hermitian
        with pytest.raises(InvariantViolation):
            ModeSet(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not positive-definite
