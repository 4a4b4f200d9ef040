"""Stacked quadrature-basis builds and the rung-major coupling scan, against
one-coupling-at-a-time Fock-basis oracles."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from gaugecraft import (COULOMB, MULTIPOLAR, ConvergenceError, CouplingSet, GaugeParam,
                        HamiltonianBundle, InvariantViolation, ModeSet, ambiguity_scan,
                        build_dipole, build_naive, field_hamiltonian, gaugecheck, tls,
                        tls_single_mode_modeset)
from gaugecraft.cli import main
from gaugecraft.gaugecheck import QuadratureFamily
from gaugecraft.hilbert import (PAULI_X, PAULI_Z, Eigenbasis, HilbertSpec, fock_quadrature,
                                ladder_matrix, matter_levels, max_abs, photon)
from gaugecraft.scenario import emitter_to_json, modeset_to_json

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

LADDERS = {(0.0, None): "coulomb", (1.0, None): "multipolar", (0.0, 1): "naive"}


def assert_members_close(got, want, what, rel=1e-12):
    dev = max_abs(got - want)
    assert dev <= rel * max(1.0, max_abs(want)), f"{what}: deviation {dev:.3e}"


def scaled_modes(ms, em, c):
    """The mode set with the emitter's profile times c: couplings c eta, and nothing else
    changed, the oracle of a member at coupling scale c."""
    return ModeSet(ms.chi, {em.position_label: c * ms.profile(em.position_label)})


@st.composite
def quadrature_systems(draw):
    """A single-mode two-level system at |eta| = 1 with a real or a complex-phase
    coupling, a cutoff in [1, 80] and a stack of scales in [-2.5, 2.5] with a zero and
    a duplicate."""
    phase = draw(st.just(0.0) | st.floats(-np.pi, np.pi))
    chi, omega0 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.3, 2.0))
    em = tls(omega0, (np.sqrt(2 * chi), 0.0, 0.0))
    ms = ModeSet.single_mode(chi, {em.position_label: (np.exp(-1j * phase), 0.0, 0.0)})
    # rounded: a subnormal scale makes the oracle's scaled profile underflow
    base = draw(st.lists(st.floats(-2.5, 2.5).map(lambda c: round(c, 3)), min_size=1,
                         max_size=3))
    scales = draw(st.permutations(base + [0.0, base[0]]))
    return ms, em, draw(st.integers(1, 80)), np.array(scales)


@settings(max_examples=30, deadline=None)
@given(system=quadrature_systems(), theta=st.sampled_from((0.0, 0.37, 1.0)))
def test_stacked_build_dipole_members_equal_their_own_builds(system, theta):
    ms, em, cutoff, scales = system
    family = QuadratureFamily.of(ms, em, cutoff)
    assert family.time_reversal == (np.imag(ms.profile(em.position_label)[0, 0]) == 0)
    values = family.spectra(*family.blocks(theta, scales))
    assert values.shape == (len(scales), 2 * (cutoff + 1))
    for i, c in enumerate(scales):
        single = dense_oracle.dense_bundle(scaled_modes(ms, em, c), em, GaugeParam(theta),
                                           cutoff)
        assert_members_close(values[i], single.eigenvalues(), f"member {i} at scale {c}")


@settings(max_examples=30, deadline=None)
@given(system=quadrature_systems(), order=st.integers(1, 3))
def test_stacked_build_naive_members_equal_their_own_builds(system, order):
    ms, em, cutoff, scales = system
    family = QuadratureFamily.of(ms, em, cutoff)
    values = family.spectra(*family.blocks(0.0, scales, order))
    for i, c in enumerate(scales):
        single = dense_oracle.dense_bundle(scaled_modes(ms, em, c), em, COULOMB, cutoff, order)
        assert_members_close(values[i], single.eigenvalues(), f"member {i} at scale {c}")


def test_stack_of_one_keeps_its_axis_and_eigensystem_refuses_stacks():
    ms, em = tls_single_mode_modeset(1.0, 0.6, 1.0)
    family = QuadratureFamily.of(ms, em, 8)
    values = family.spectra(*family.blocks(0.0, [1.0]))
    assert values.shape == (1, 18)
    assert_members_close(values[0], build_dipole(ms, em, COULOMB, 8).eigenvalues(), "member")
    bundle = build_dipole(ms, em, COULOMB, 8)
    with pytest.raises(ValueError, match="must be square"):
        HamiltonianBundle(bundle.H[None], bundle.space, COULOMB)
    with pytest.raises(ValueError, match="theta = 0"):
        family.blocks(0.37, [1.0], order=1)


def test_the_family_reads_the_cached_quadrature_basis():
    ms, em = tls_single_mode_modeset(1.0, 0.6, 1.0)
    assert QuadratureFamily.of(ms, em, 12).v[0] is fock_quadrature(12)[1]


class TestForgedMembers:
    """Each check of a stacked quadrature-basis solve is made on every member's raw blocks,
    at that member's scale, and names the first failing member."""

    SCALES = [0.2, 0.5, 0.9, 1.3]

    def stack(self, phase=1.0):
        ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
        if phase != 1.0:
            ms = scaled_modes(ms, em, phase)
        family = QuadratureFamily.of(ms, em, 6)
        return family, [m.copy() for m in family.blocks(0.37, self.SCALES)]

    def test_non_hermitian_member_is_named(self):
        family, (a0, a1, b) = self.stack()
        family.spectra(a0, a1, b)
        a0[2, 0, 3] += 1e-8  # an asymmetric entry
        with pytest.raises(InvariantViolation,
                           match="not Hermitian before symmetrization in stack member 2 "):
            family.spectra(a0, a1, b)

    def test_each_member_is_held_to_its_own_scale(self):
        family, (a0, a1, b) = self.stack()
        for m in (a0, a1, b):
            m[0] *= 1e6
        a0[0, 0, 2] += 1e-8  # within 1e-12 * 1e6 of the large member
        family.spectra(a0, a1, b)
        a0[1, 0, 2] += 1e-8  # beyond 1e-12 * max(1, max|A_1|) of a small one
        with pytest.raises(InvariantViolation, match="stack member 1"):
            family.spectra(a0, a1, b)

    def test_parity_breaking_member_is_named(self):
        family, blocks = self.stack()
        a0, a1, b = (m.copy() for m in blocks)
        a1[3, 1, 2] += 1e-6  # a Hermitian change to A_1 alone breaks the reflection
        a1[3, 2, 1] += 1e-6
        with pytest.raises(InvariantViolation, match="parity .* in stack member 3"):
            family.spectra(a0, a1, b)
        a0, a1, b = (m.copy() for m in blocks)
        b[1, 0] += 1e-6  # so does one entry of B: B J != J B^dag
        with pytest.raises(InvariantViolation, match="parity .* in stack member 1"):
            family.spectra(a0, a1, b)

    def test_time_reversal_breaking_member_is_named(self):
        family, (a0, a1, b) = self.stack()
        n = a0.shape[-1]
        e = np.zeros((n, n), dtype=complex)
        e[0, 1], e[1, 0] = 1e-6j, -1e-6j  # Hermitian and imaginary
        a0[1] += e
        a1[1] += e[::-1, ::-1]  # keeps A_0 = J A_1 J
        with pytest.raises(InvariantViolation, match="time reversal .* in stack member 1"):
            family.spectra(a0, a1, b)
        complex_family, (c0, c1, cb) = self.stack(phase=np.exp(0.4j))
        assert not complex_family.time_reversal
        c0[1] += e
        c1[1] += e[::-1, ::-1]
        complex_family.spectra(c0, c1, cb)  # nothing declared, nothing to break

    def test_diagnostics_report_the_worst_member(self):
        ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
        bundle = build_dipole(ms, em, COULOMB, 6)
        h = bundle.H
        assert bundle.diagnostics["sector_sizes"] == [bundle.space.dim // 2] * 2
        assert 0.0 <= bundle.diagnostics["parity_off_block"] <= 1e-12 * max(1.0, max_abs(h))
        assert 0.0 <= bundle.diagnostics["time_reversal_imag"] <= 1e-12 * max(1.0, max_abs(h))


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
    # the order-2 naive ladder of eta = 0.8 is still falling at the top rung: its row is
    # reported as not converged, with the gap of that rung, and the others are unchanged
    rows = ambiguity_scan(1.0, 1.0, [0.2, 0.8, 0.1], order=2)
    assert [r.converged for r in rows] == [True, False, True]
    assert rows[1].cutoff == 640
    ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
    e0_naive = build_naive(ms, em, COULOMB, 640, order=2).eigenvalues(1)[0]
    e0_mp = dense_oracle.converged_ground_energy(lambda n: build_dipole(ms, em, MULTIPOLAR, n))[0]
    assert abs(rows[1].naive_gap - abs(e0_naive - e0_mp)) <= 1e-12 * max(1.0, abs(e0_naive))
    for row, eta in zip(rows[::2], (0.2, 0.1)):
        want = dense_oracle.ambiguity_row(eta, dense_oracle.ambiguity_ladders(1.0, 1.0, eta,
                                                                             order=2))
        assert row.cutoff == want.cutoff
        assert abs(row.naive_gap - want.naive_gap) <= 1e-12


def test_unconverged_naive_row_is_written_not_fatal(tmp_path, capsys):
    ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 40, "naive_order": 2, "gauge_check": {"eta_grid": [0.8, 0.2]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gauge-check", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    lines = (out / "gauge_report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",cutoff,converged")
    assert lines[1].startswith("0.8,") and lines[1].endswith(",640,False")
    assert lines[2].endswith(",True")


def record_builds(monkeypatch):
    """Count the scan's stacked builds through `QuadratureFamily.blocks`: (ladder, n, scales)."""
    calls = []
    orig = QuadratureFamily.blocks

    def counted(self, theta, scales, order=None):
        calls.append((LADDERS[theta, order], self.cutoffs[0], np.array(scales)))
        return orig(self, theta, scales, order)

    monkeypatch.setattr(QuadratureFamily, "blocks", counted)
    return calls


@pytest.mark.parametrize("budget", [gaugecheck.STACK_BYTES, 3 * 16 * 42**2])
def test_one_stacked_build_per_ladder_rung_and_chunk(monkeypatch, budget):
    grid = [1.4, 0.1, 0.9, 0.3, 1.4, 0.6, 1.1]
    ladders = [dense_oracle.ambiguity_ladders(1.0, 1.0, eta) for eta in grid]
    # the second: 4 members at N = 20, 1 from N = 40 on
    monkeypatch.setattr(gaugecheck, "STACK_BYTES", budget)
    calls = record_builds(monkeypatch)
    ambiguity_scan(1.0, 1.0, grid)
    for ladder in ("coulomb", "multipolar", "naive"):
        cutoffs = np.array([e0[ladder][1] for e0 in ladders])
        n, expected = 20, []
        while n <= cutoffs.max():
            live = np.flatnonzero(cutoffs >= n)  # members still climbing at rung n
            size = gaugecheck.stack_chunk(n + 1)
            expected += [(n, np.array(grid)[live[i:i + size]])
                         for i in range(0, live.size, size)]
            n *= 2
        got = [(n, scales) for name, n, scales in calls if name == ladder]
        assert [n for n, _ in got] == [n for n, _ in expected]
        for (_, scales), (_, want) in zip(got, expected):
            assert np.array_equal(scales, want)


def test_chunk_sizes_bound_a_stack_to_the_budget():
    sizes = [gaugecheck.stack_chunk(n + 1) for n in (20, 40, 80, 160, 320, 640)]
    assert sizes == [377, 99, 25, 6, 1, 1]
    assert gaugecheck.stack_chunk(10**5) == 1


def test_strong_coupling_grid_climbs_in_bounded_memory(monkeypatch):
    # chi = 1/4: every coupling of the grid climbs to N = 320 under the default tol
    chi, grid = 0.25, np.linspace(2.0, 2.5, 40)
    ambiguity_scan(chi, 1.0, [2.0])  # fill the Fock quadrature caches outside the trace
    calls = record_builds(monkeypatch)
    tracemalloc.start()
    try:
        rows = ambiguity_scan(chi, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {r.cutoff for r in rows} == {320}
    assert max(len(s) for _, n, s in calls if n == 160) == 6  # n = 161 climbs 6 at a time
    top = [s for _, n, s in calls if n == 320]
    assert all(len(s) == 1 for s in top)  # n = 321: one member per build
    assert set(np.concatenate(top)) == set(grid)
    assert peak <= 2 * gaugecheck.STACK_BYTES


def test_converged_ground_energy_is_the_one_member_ladder():
    ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
    for g in (COULOMB, MULTIPOLAR):
        build = lambda n: build_dipole(ms, em, g, n)
        e0, cutoff, converged = gaugecheck._climb(lambda n, _: build(n).eigenvalues(1), 1,
                                                  1e-7, 20, 640)
        assert (e0[0], cutoff[0]) == dense_oracle.converged_ground_energy(build) and converged[0]
    # a ladder that cannot converge reports its last rung
    e0, cutoff, converged = gaugecheck._climb(
        lambda n, _: build_dipole(ms, em, COULOMB, n).eigenvalues(1), 1, 0.0, 20, 40)
    assert cutoff[0] == 40 and not converged[0]
    assert e0[0] == build_dipole(ms, em, COULOMB, 40).eigenvalues(1)[0]


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
    """The family's local factor w = R v of a coupling g is real for a real g, and
    exp(i t phi) = w e^(i t nu) w^dag applied with it (a real product for a real w) equals
    the complex product and a dense eigh of phi = g a^dag + g^* a."""
    n = 30
    a = ladder_matrix(n)
    phi = g * a.conj().T + np.conj(g) * a
    cs = CouplingSet(g * PAULI_X[None], [[1.0]])
    family = QuadratureFamily(cs, np.array([g]), PAULI_X, (1, -1), PAULI_Z, (n,))
    w = family.basis.factors[0]
    assert (w.dtype.kind == "f") == (np.imag(g) == 0)
    x = np.random.default_rng(0).normal(size=(n + 1, 3)) + 0j
    vals, vecs = np.linalg.eigh(phi)
    for t in (0.0, 0.3, -0.3, 1.7, -2.2):
        got = Eigenbasis(family.x, (w,)).apply(t, x)
        want = Eigenbasis(family.x, (w.astype(complex),)).apply(t, x)
        assert max_abs(got - want) <= 1e-13 * max_abs(want)
        dense = (vecs * np.exp(1j * t * vals)) @ (vecs.conj().T @ x)
        assert max_abs(got - dense) <= 1e-12 * max_abs(dense)


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
