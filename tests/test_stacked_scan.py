"""Stacked builds and the rung-major coupling scan, against one-coupling-at-a-time oracles."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from gaugecraft import (COULOMB, MULTIPOLAR, ConvergenceError, FockCutoffWarning, GaugeParam,
                        HamiltonianBundle, InvariantViolation, LongitudinalCoupling, ModeSet,
                        ambiguity_scan, build_dipole, build_naive, couplings, field_hamiltonian,
                        gaugecheck, tls_single_mode_modeset)
from gaugecraft.cli import main
from gaugecraft.hilbert import (PAULI_X, HilbertSpec, KroneckerGenerator, _local_eig,
                                ladder_matrix, matter_levels, max_abs, photon)
from gaugecraft.scenario import emitter_to_json, modeset_to_json
from test_factored import random_system

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

KINDS = ("tls", "single_axis", "multi_axis")
MAX_CUTOFF = {1: 10, 2: 4}
LADDERS = {("build_dipole", 0.0): "coulomb", ("build_dipole", 1.0): "multipolar",
           ("build_naive", 0.0): "naive"}


def assert_members_close(got, want, what, rel=1e-11):
    dev = max_abs(got - want)
    assert dev <= rel * max(1.0, max_abs(want)), f"{what}: deviation {dev:.3e}"


def scaled_modes(ms, em, c):
    """The mode set with the emitter's profile times c: couplings c eta_mu, and nothing
    else changed, the oracle of coupling_scale c."""
    return ModeSet(ms.chi, {em.position_label: c * ms.profile(em.position_label)})


@st.composite
def stacked_systems(draw):
    n_modes = draw(st.sampled_from((1, 2)))
    cutoffs = tuple(draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                                  max_size=n_modes)))
    ms, em = random_system(draw(st.integers(0, 2**31 - 1)), n_modes,
                           draw(st.sampled_from(KINDS)))
    # rounded: a subnormal scale makes the oracle's scaled profile underflow
    base = draw(st.lists(st.floats(-1.5, 1.5).map(lambda c: round(c, 3)), min_size=1,
                         max_size=3))
    scales = draw(st.permutations(base + [0.0, base[0]]))  # zero and a duplicate
    return ms, em, cutoffs, np.array(scales)


@settings(max_examples=25, deadline=None)
@given(system=stacked_systems(), theta=st.sampled_from((0.0, 0.37, 1.0)))
def test_stacked_build_dipole_members_equal_their_own_builds(system, theta):
    ms, em, cutoffs, scales = system
    stack = build_dipole(ms, em, GaugeParam(theta), cutoffs, coupling_scale=scales)
    assert stack.H.matrix.shape == (len(scales),) + (stack.space.dim,) * 2
    values = stack.eigenvalues(3)
    assert values.shape == (len(scales), min(3, stack.space.dim))
    for i, c in enumerate(scales):
        single = build_dipole(scaled_modes(ms, em, c), em, GaugeParam(theta), cutoffs)
        assert_members_close(stack.H.matrix[i], single.H.matrix, f"member {i}")
        assert_members_close(values[i], single.eigenvalues(3), f"member {i} eigenvalues")
        scalar = build_dipole(ms, em, GaugeParam(theta), cutoffs, coupling_scale=c)
        assert_members_close(stack.H.matrix[i], scalar.H.matrix, f"scalar scale {c}")


@settings(max_examples=25, deadline=None)
@given(system=stacked_systems(), theta=st.sampled_from((0.0, 1.0)), order=st.integers(1, 3))
def test_stacked_build_naive_members_equal_their_own_builds(system, theta, order):
    ms, em, cutoffs, scales = system
    stack = build_naive(ms, em, GaugeParam(theta), cutoffs, order=order, coupling_scale=scales)
    values = stack.eigenvalues(2)
    for i, c in enumerate(scales):
        single = build_naive(scaled_modes(ms, em, c), em, GaugeParam(theta), cutoffs,
                             order=order)
        assert_members_close(stack.H.matrix[i], single.H.matrix, f"member {i}")
        assert_members_close(values[i], single.eigenvalues(2), f"member {i} eigenvalues")


def test_stacked_build_with_the_longitudinal_hook():
    ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
    hook = LongitudinalCoupling(omega=0.7, coupling=0.2, cutoff=2)
    scales = np.array([0.3, -0.8])
    stack = build_dipole(ms, em, GaugeParam(0.37), 6, longitudinal=hook, coupling_scale=scales)
    for i, c in enumerate(scales):
        single = build_dipole(scaled_modes(ms, em, c), em, GaugeParam(0.37), 6,
                              longitudinal=hook)
        assert_members_close(stack.H.matrix[i], single.H.matrix, f"member {i}")


def test_stack_of_one_keeps_its_axis_and_eigensystem_refuses_stacks():
    ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
    stack = build_dipole(ms, em, COULOMB, 8, coupling_scale=[0.6])
    single = build_dipole(ms, em, COULOMB, 8, coupling_scale=0.6)
    assert stack.eigenvalues(2).shape == (1, 2) and single.eigenvalues(2).shape == (2,)
    assert_members_close(stack.H.matrix[0], single.H.matrix, "stack of one", rel=1e-13)
    with pytest.raises(ValueError, match="stack"):
        stack.eigensystem()
    for bad in ([], [[0.5]], [np.nan]):
        with pytest.raises(ValueError, match="coupling_scale"):
            build_dipole(ms, em, COULOMB, 8, coupling_scale=bad)


def test_cutoff_warning_once_per_stacked_build_names_the_largest_scale():
    ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_dipole(ms, em, MULTIPOLAR, 12, coupling_scale=[0.1, -2.5, 1.0])
    assert len(caught) == 1 and caught[0].category is FockCutoffWarning
    assert "largest coupling scale 2.5" in str(caught[0].message)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_dipole(ms, em, MULTIPOLAR, 12, coupling_scale=[0.1, 0.3])
    assert not caught


class TestForgedMembers:
    """Each check of a stacked bundle is made on every member, at that member's scale."""

    SCALES = [0.2, 0.5, 0.9, 1.3]

    def stack(self):
        ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
        return build_dipole(ms, em, COULOMB, 6, coupling_scale=self.SCALES)

    def rebundle(self, bundle, h, time_reversal=False):
        return HamiltonianBundle(h, bundle.space, bundle.gauge, {"builder": "forged"},
                                 bundle.parity, time_reversal)

    def test_non_hermitian_member_is_named(self):
        bundle = self.stack()
        h = bundle.H.matrix.copy()
        h[2, 0, 3] += 1e-8  # a lone entry: neither Hermitian nor parity-breaking alone
        h[2, 3, 0] -= 1e-8
        with pytest.raises(InvariantViolation,
                           match="forged Hamiltonian is not Hermitian .* in stack member 2 "):
            self.rebundle(bundle, h)

    def test_each_member_is_held_to_its_own_scale(self):
        bundle = self.stack()
        h = bundle.H.matrix.copy()
        h[0] *= 1e6
        h[0, 0, 2] += 1e-8  # within 1e-12 * 1e6 of the large member
        self.rebundle(bundle, h)
        h[1, 0, 2] += 1e-8  # beyond 1e-12 * max(1, max|H_1|) of a small one
        with pytest.raises(InvariantViolation, match="stack member 1"):
            self.rebundle(bundle, h)

    def test_parity_breaking_member_is_named(self):
        bundle = self.stack()
        even = int(np.flatnonzero(bundle.parity > 0)[0])
        odd = int(np.flatnonzero(bundle.parity < 0)[0])
        h = bundle.H.matrix.copy()
        h[3, even, odd] += 1e-6
        h[3, odd, even] += 1e-6
        with pytest.raises(InvariantViolation, match="parity .* in stack member 3"):
            self.rebundle(bundle, h)

    def test_time_reversal_breaking_member_is_named(self):
        bundle = self.stack()
        h = bundle.H.matrix.copy()
        i, j = 0, 4  # |0, e> and |2, e>: equal parity and equal photon parity
        h[1, i, j] += 1e-6j
        h[1, j, i] -= 1e-6j
        self.rebundle(bundle, h)  # Hermitian, and its parity still holds
        with pytest.raises(InvariantViolation, match="time reversal .* in stack member 1"):
            self.rebundle(bundle, h, time_reversal=True)

    def test_diagnostics_report_the_worst_member(self):
        bundle = self.stack()
        h = bundle.H.matrix
        assert bundle.diagnostics["sector_sizes"] == [bundle.space.dim // 2] * 2
        assert 0.0 <= bundle.diagnostics["parity_off_block"] <= 1e-12 * max(1.0, max_abs(h))


@st.composite
def eta_grids(draw, largest):
    """Unsorted grids with a duplicate, zero and a negative coupling."""
    base = draw(st.lists(st.floats(0.05, largest), min_size=1, max_size=2))
    return draw(st.permutations(base + [base[0], 0.0, -base[-1]]))


@settings(max_examples=8, deadline=None)
@given(data=st.data(), order=st.sampled_from((1, 2)))
def test_stacked_scan_matches_the_per_eta_oracle(data, order):
    # the order-2 naive energy is unbounded below from eta ~ 0.5 on; see the next test
    grid = data.draw(eta_grids(1.2 if order == 1 else 0.4))
    ladders = [dense_oracle.ambiguity_ladders(1.0, 1.0, eta, order=order) for eta in grid]
    rows = ambiguity_scan(1.0, 1.0, grid, order=order)
    want = [dense_oracle.ambiguity_row(eta, e0) for eta, e0 in zip(grid, ladders)]
    assert [r.eta for r in rows] == [float(eta) for eta in grid]
    for row, ref, e0 in zip(rows, want, ladders):
        assert row.cutoff == ref.cutoff
        tol = 1e-12 * max(1.0, abs(e0["multipolar"][0]))
        assert abs(row.naive_gap - ref.naive_gap) <= tol
        assert abs(row.correct_gap - ref.correct_gap) <= tol
        assert all(type(v) is float for v in (row.eta, row.naive_gap, row.correct_gap))


def test_scan_raises_where_the_per_eta_ladder_does_not_converge():
    with pytest.raises(ConvergenceError):
        dense_oracle.ambiguity_ladders(1.0, 1.0, 0.8, order=2)
    with pytest.raises(ConvergenceError, match="cutoff 640"):
        ambiguity_scan(1.0, 1.0, [0.2, 0.8, 0.1], order=2)


def record_builds(monkeypatch):
    """Count the scan's builds through `build_dipole` and `build_naive`: (ladder, n, scales)."""
    calls = []
    for name in ("build_dipole", "build_naive"):
        orig = getattr(gaugecheck, name)

        def counted(ms, em, g, n, *args, orig=orig, name=name, **kwargs):
            calls.append((LADDERS[name, g.theta], n, np.array(kwargs["coupling_scale"])))
            return orig(ms, em, g, n, *args, **kwargs)

        monkeypatch.setattr(gaugecheck, name, counted)
    return calls


@pytest.mark.parametrize("budget", [gaugecheck.STACK_BYTES, 3 * 16 * 42**2])
def test_one_stacked_build_per_ladder_rung_and_chunk(monkeypatch, budget):
    grid = [1.4, 0.1, 0.9, 0.3, 1.4, 0.6, 1.1]
    ladders = [dense_oracle.ambiguity_ladders(1.0, 1.0, eta) for eta in grid]
    monkeypatch.setattr(gaugecheck, "STACK_BYTES", budget)  # the second: 3 members at D = 42
    calls = record_builds(monkeypatch)
    ambiguity_scan(1.0, 1.0, grid)
    for ladder in ("coulomb", "multipolar", "naive"):
        cutoffs = np.array([e0[ladder][1] for e0 in ladders])
        n, expected = 20, []
        while n <= cutoffs.max():
            live = np.flatnonzero(cutoffs >= n)  # members still climbing at rung n
            size = gaugecheck.stack_chunk(2 * (n + 1))
            expected += [(n, np.array(grid)[live[i:i + size]])
                         for i in range(0, live.size, size)]
            n *= 2
        got = [(n, scales) for name, n, scales in calls if name == ladder]
        assert [n for n, _ in got] == [n for n, _ in expected]
        for (_, scales), (_, want) in zip(got, expected):
            assert np.array_equal(scales, want)


def test_chunk_sizes_bound_a_stack_to_the_budget():
    assert [gaugecheck.stack_chunk(d) for d in (42, 82, 162, 322, 642)] == [283, 74, 19, 4, 1]
    assert gaugecheck.stack_chunk(10**5) == 1


def test_strong_coupling_grid_climbs_in_bounded_memory(monkeypatch):
    # chi = 1/4: every coupling of the grid climbs to N = 320 (D = 642) under the default tol
    chi, grid = 0.25, np.linspace(2.0, 2.5, 40)
    ambiguity_scan(chi, 1.0, [2.0])  # fill the Fock quadrature cache outside the trace
    calls = record_builds(monkeypatch)
    tracemalloc.start()
    try:
        rows = ambiguity_scan(chi, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {r.cutoff for r in rows} == {320}
    assert max(len(s) for _, n, s in calls if n == 160) == 4  # D = 322 climbs 4 at a time
    top = [s for _, n, s in calls if n == 320]
    assert all(len(s) == 1 for s in top)  # D = 642: one member per build
    assert set(np.concatenate(top)) == set(grid)
    assert peak <= 4 * gaugecheck.STACK_BYTES


def test_converged_ground_energy_is_the_one_member_ladder():
    ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
    for g in (COULOMB, MULTIPOLAR):
        build = lambda n: build_dipole(ms, em, g, n)
        got = gaugecheck.converged_ground_energy(build)
        want = dense_oracle.converged_ground_energy(build)
        assert got == want and type(got[0]) is float and type(got[1]) is int
    with pytest.raises(ConvergenceError, match="cutoff 40"):
        gaugecheck.converged_ground_energy(lambda n: build_dipole(ms, em, COULOMB, n),
                                           tol=0.0, max_cutoff=40)


def product_form(chi, space):
    """H_F with its diagonal terms as the products (chi_mm a^dag) @ a."""
    a = [ladder_matrix(space.factors[fi].fock_cutoff) for fi in space.photon_indices]
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for m, fm in enumerate(space.photon_indices):
        for n, fn in enumerate(space.photon_indices):
            if m == n:
                h += space.kron({fm: chi[m][m] * a[m].conj().T @ a[m]})
            else:
                h += space.kron({fm: chi[m][n] * a[m].conj().T, fn: a[n]})
    return h


@pytest.mark.parametrize("n", list(range(65)) + [127, 128, 300, 320, 639, 640])
def test_field_hamiltonian_diagonal_is_bit_identical_to_the_product(n):
    for chi in (0.83 - 0.27j, -1.7):
        space = HilbertSpec([photon(n)])
        assert np.array_equal(field_hamiltonian([[chi]], space), product_form([[chi]], space))
    if n <= 16:
        chi = np.array([[0.9 + 0.1j, 0.2 - 0.3j], [0.2 + 0.3j, -1.1]])
        space = HilbertSpec([photon(n), photon(2), matter_levels(2)])
        assert np.array_equal(field_hamiltonian(chi, space), product_form(chi, space))


@pytest.mark.parametrize("g", [0.7, -1.3, 0.4 - 0.9j])
def test_local_exponentials_match_the_complex_path(g):
    n = 30
    a = ladder_matrix(n)
    phi = g * a.conj().T + np.conj(g) * a
    gen = KroneckerGenerator([phi], PAULI_X, HilbertSpec([photon(n), matter_levels(2)]))
    nu, v = _local_eig(phi)
    assert (v.dtype.kind == "f") == (np.imag(g) == 0)
    t = np.array([[0.0, 0.3, -0.3], [1.7, -2.2, 0.3]])
    got = gen._local_exps(t)[0]
    want = (v.astype(complex) * np.exp(1j * np.multiply.outer(t, nu))[..., None, :]) @ v.conj().T
    assert max_abs(got - want) <= 1e-13
    w, u = np.linalg.eigh(phi)
    dense = (u * np.exp(1j * np.multiply.outer(t, w))[..., None, :]) @ u.conj().T
    assert max_abs(got - dense) <= 1e-12


def test_gauge_check_report_does_not_depend_on_jobs(tmp_path):
    ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"k": 3, "eta_grid": [0.9, 0.1, 0.5, 0.1]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert main(["gauge-check", "--config", str(config), "--out", str(out),
                     "--jobs", jobs]) == 0
        reports.append((out / "gauge_report.csv").read_bytes())
    assert reports[0] == reports[1]
    lines = reports[0].decode("utf-8").splitlines()
    assert len(lines) == 5 and lines[2].startswith("0.1,") and lines[4].startswith("0.1,")
    assert math.isclose(float(lines[1].split(",")[0]), 0.9)
