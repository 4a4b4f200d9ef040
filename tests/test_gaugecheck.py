"""Gauge unitaries, spectral-equivalence reports, and the coupling-grid scan."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from gaugecraft import (COULOMB, MULTIPOLAR, FockCutoffWarning, ambiguity_scan, build_dipole,
                        build_naive, couplings, gauge_unitary,
                        tls_single_mode_modeset, verify_spectral_equivalence)
from gaugecraft import EmitterSpec, HamiltonianBundle, ModeSet, tls
from gaugecraft.cli import main
from gaugecraft.gaugecheck import _climb, gauge_check_pair
from gaugecraft.hilbert import PAULI_X, PAULI_Y, HermitianGenerator, max_abs
from gaugecraft.scenario import emitter_to_json, modeset_to_json


def _setup(eta=0.5, cutoff=30, chi=1.0, omega0=1.0):
    ms, em = tls_single_mode_modeset(chi, eta, omega0)
    cs = couplings(ms, em)
    b = build_dipole(ms, em, COULOMB, max(cutoff, 12))
    return ms, em, cs, b.space


class TestGaugeUnitary:
    def test_identity_for_equal_endpoints(self):
        _, _, cs, space = _setup()
        w = gauge_unitary(space, cs, 0.3, 0.3)
        assert max_abs(w - np.eye(space.dim)) < 1e-14

    def test_multipolar_matter_transform_is_trivial(self):
        # the matter-side unitary of the multipolar member has zero generator
        _, _, cs, space = _setup()
        gen = HermitianGenerator(cs.generator_matrix(space), space)
        u_mp = gen.unitary(1.0 - MULTIPOLAR.theta)
        assert max_abs(u_mp - np.eye(space.dim)) < 1e-14

    def test_exact_unitarity_strong_coupling(self):
        _, _, cs, space = _setup(eta=0.8, cutoff=60)
        w = gauge_unitary(space, cs, 0.0, 1.0)
        assert max_abs(w.conj().T @ w - np.eye(space.dim)) < 1e-12

    def test_composition(self):
        _, _, cs, space = _setup(eta=1.0, cutoff=60)
        w_full = gauge_unitary(space, cs, 0.0, 1.0)
        w_half1 = gauge_unitary(space, cs, 0.0, 0.5)
        w_half2 = gauge_unitary(space, cs, 0.5, 1.0)
        assert max_abs(w_full - w_half2 @ w_half1) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(t0=st.floats(0, 1), t1=st.floats(0, 1), t2=st.floats(0, 1),
           eta_im=st.floats(-0.5, 0.5))
    def test_composition_property(self, t0, t1, t2, eta_im):
        from gaugecraft import ModeSet, tls

        em = tls(1.0, (0.4, 0.0, 0.0))
        f = (complex(0.5, eta_im), 0.0, 0.0)
        ms = ModeSet.single_mode(1.0, {"emitter": f})
        cs = couplings(ms, em)
        space = build_dipole(ms, em, COULOMB, 12).space
        lhs = gauge_unitary(space, cs, t0, t2)
        rhs = gauge_unitary(space, cs, t1, t2) @ gauge_unitary(space, cs, t0, t1)
        assert max_abs(lhs - rhs) < 1e-12

    def test_space_coupling_mismatch(self):
        from gaugecraft import HilbertSpec, matter_levels, photon

        _, _, cs, _ = _setup()
        two_mode_space = HilbertSpec([photon(5), photon(5), matter_levels(2)])
        with pytest.raises(ValueError):
            gauge_unitary(two_mode_space, cs, 0.0, 1.0)
        three_level_space = HilbertSpec([photon(5), matter_levels(3)])
        with pytest.raises(ValueError):
            gauge_unitary(three_level_space, cs, 0.0, 1.0)


class TestVerifySpectralEquivalence:
    def test_identical_inputs_give_zero(self):
        ms, em, cs, _ = _setup()
        b = build_dipole(ms, em, COULOMB, 25)
        rep = verify_spectral_equivalence(b, b, k=6, cs=cs)
        assert rep.max_abs_diff == 0.0
        assert np.all(rep.per_level == 0.0)
        assert rep.operator_residual < 1e-12

    def test_correct_endpoints_agree(self):
        ms, em, cs, _ = _setup(eta=0.5)
        b0 = build_dipole(ms, em, COULOMB, 40)
        b1 = build_dipole(ms, em, MULTIPOLAR, 40)
        rep = verify_spectral_equivalence(b0, b1, k=5, tol=1e-6, cs=cs)
        assert rep.max_abs_diff < 1e-6
        assert rep.operator_residual < 1e-10
        assert rep.converged

    def test_naive_versus_correct_disagrees(self):
        ms, em, cs, _ = _setup(eta=0.5)
        naive = build_naive(ms, em, COULOMB, 40, order=1)
        correct = build_dipole(ms, em, MULTIPOLAR, 40)
        rep = verify_spectral_equivalence(naive, correct, k=5, tol=1e-6, cs=cs)
        assert rep.max_abs_diff > 1e-2
        assert not rep.converged

    def test_symmetry(self):
        ms, em, cs, _ = _setup(eta=0.3)
        b0 = build_dipole(ms, em, COULOMB, 30)
        b1 = build_dipole(ms, em, MULTIPOLAR, 30)
        rep_ab = verify_spectral_equivalence(b0, b1, k=4)
        rep_ba = verify_spectral_equivalence(b1, b0, k=4)
        assert np.allclose(rep_ab.per_level, rep_ba.per_level)

    def test_k_exceeding_dimension_rejected(self):
        ms, em, _, _ = _setup(eta=0.0, cutoff=3)
        with pytest.warns(FockCutoffWarning):
            b = build_dipole(ms, em, COULOMB, 3)
        with pytest.raises(ValueError):
            verify_spectral_equivalence(b, b, k=b.space.dim + 1)

    def test_report_reproducible_bit_identically(self):
        ms, em, cs, _ = _setup(eta=0.4)
        b0 = build_dipole(ms, em, COULOMB, 20)
        b1 = build_dipole(ms, em, MULTIPOLAR, 20)
        r1 = verify_spectral_equivalence(b0, b1, k=5, cs=cs)
        r2 = verify_spectral_equivalence(b0, b1, k=5, cs=cs)
        assert r1.max_abs_diff == r2.max_abs_diff
        assert r1.operator_residual == r2.operator_residual
        assert np.array_equal(r1.per_level, r2.per_level)


class TestQuadraturePair:
    """gauge-check's verify pair in the quadrature basis against the Fock-basis builds."""

    @pytest.mark.parametrize("profile", [0.45, -0.8, 0.3 - 0.5j, 1.2j])
    @pytest.mark.parametrize("order", [None, 1, 2])
    def test_reports_match_the_fock_builds(self, profile, order):
        em = tls(1.0, (0.9, 0.0, 0.0))
        ms = ModeSet.single_mode(1.3, {em.position_label: (profile, 0.0, 0.0)})
        cs = couplings(ms, em)
        h_a, h_b = gauge_check_pair(ms, em, 30, order)
        assert h_a.basis == h_b.basis == "quadrature"
        # the same Hamiltonians assembled in the Fock basis, compared there
        fock_a = dense_oracle.dense_bundle(ms, em, COULOMB, 30, order)
        fock_b = dense_oracle.dense_bundle(ms, em, MULTIPOLAR, 30)
        assert fock_a.basis == fock_b.basis == "fock"
        for fraction in (0.5, 0.3, 1.0):
            got = verify_spectral_equivalence(h_a, h_b, k=6, low_fraction=fraction, cs=cs)
            want = verify_spectral_equivalence(fock_a, fock_b, k=6, low_fraction=fraction,
                                               cs=cs)
            assert got.cutoff == want.cutoff == (30,)
            assert max_abs(got.per_level - want.per_level) <= 1e-12
            if want.operator_residual >= 1e-6:
                assert abs(got.operator_residual / want.operator_residual - 1) <= 1e-10
            else:
                assert got.operator_residual <= 1e-10 and order is None

    def test_couplings_that_do_not_factor_are_built_in_the_fock_basis(self, tmp_path, capsys):
        # a circularly polarized mode: eta = sigma_x - i sigma_y is no phase times a
        # Hermitian matrix
        em = EmitterSpec(np.array([0.5, -0.5]), 0.3 * np.array([PAULI_X, PAULI_Y, 0 * PAULI_X]))
        ms = ModeSet.single_mode(1.0, {em.position_label: (1.0, 1.0j, 0.0)})
        assert couplings(ms, em).common_matter_matrix() is None
        h_a, h_b = gauge_check_pair(ms, em, 20)
        assert h_a.basis == h_b.basis == "fock"
        doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
               "fock_cutoffs": 20, "gauge_check": {"eta_grid": [0.3]}}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["gauge-check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
        assert meta["operator_residual"] <= 1e-10

    def test_a_short_cutoff_warns_as_the_fock_build_does(self):
        ms, em = tls_single_mode_modeset(1.0, 2.0, 1.0)  # heuristic 4 * 2^2 + 10 = 26
        with pytest.warns(FockCutoffWarning, match="26.0"):
            gauge_check_pair(ms, em, 12)
        with pytest.warns(FockCutoffWarning, match="26.0"):
            build_dipole(ms, em, MULTIPOLAR, 12)

    def test_residual_of_bundles_in_different_bases_is_formed_in_the_fock_basis(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        h_a, h_b = gauge_check_pair(ms, em, 12, 1)
        other, _ = gauge_check_pair(ms, em, 12, 1)  # separate builds share one basis
        fock = HamiltonianBundle(h_b.H, h_b.space, h_b.gauge, h_b.metadata)
        assert fock.basis == "fock"
        cs = couplings(ms, em)
        want = verify_spectral_equivalence(h_a, h_b, k=3, cs=cs).operator_residual
        assert want > 1e-3
        for a, b in ((other, h_b), (h_a, fock)):
            got = verify_spectral_equivalence(a, b, k=3, cs=cs).operator_residual
            assert abs(got / want - 1) <= 1e-10
        assert verify_spectral_equivalence(h_a, fock, k=3).max_abs_diff > 1e-3


class TestConvergenceProtocol:
    def test_ground_energy_doubling(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        (e0,), (cutoff,), (converged,) = _climb(
            lambda n, _: build_dipole(ms, em, MULTIPOLAR, n).eigenvalues(1), 1, 1e-7, 20, 640)
        assert converged
        e_ref = build_dipole(ms, em, MULTIPOLAR, 4 * cutoff).eigenvalues(1)[0]
        assert abs(e0 - e_ref) < 1e-6


class TestAmbiguityScan:
    def test_zero_coupling_row(self):
        rows = ambiguity_scan(1.0, 1.0, [0.0])
        assert rows[0].naive_gap < 1e-10
        assert rows[0].correct_gap < 1e-10

    def test_gap_growth_and_correct_flatness(self):
        rows = ambiguity_scan(1.0, 1.0, [0.1, 0.3, 0.5, 1.0])
        naive = [r.naive_gap for r in rows]
        assert all(naive[i + 1] > naive[i] for i in range(3))
        assert all(r.correct_gap < 1e-6 for r in rows)
        assert all(r.converged for r in rows)


@pytest.mark.parametrize("override, key", [
    ("gauge_check.k=abc", "'gauge_check.k'"),
    ("gauge_check.k=2.5", "'gauge_check.k'"),
    ("gauge_check.k=0", "'gauge_check.k'"),
    ("gauge_check.k=43", "'gauge_check.k'"),
    ('gauge_check.eta_grid=[0.3, "x"]', "'gauge_check.eta_grid[1]'"),
])
def test_gauge_check_command_names_a_bad_numeric_key(tmp_path, capsys, override, key):
    ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"k": 3}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["gauge-check", "--config", str(config), "--out", str(tmp_path / "out"),
            "--set", override]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def run_gauge_check(tmp_path, em, **section):
    """Exit code of `gauge-check` on a single-mode scenario of the emitter."""
    ms = ModeSet.single_mode(1.0, {em.position_label: (1.0, 0.0, 0.0)})
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"k": 3, **section}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return main(["gauge-check", "--config", str(config), "--out", str(tmp_path / "out")])


def test_default_grid_takes_a_coupling_that_is_sigma_x_up_to_phases(tmp_path, capsys):
    """Without an eta_grid the scan runs at |eta_eg|: a sigma_y dipole is a sigma_x one up
    to a matter phase, so it scans like the sigma_x dipole of the same strength."""
    reports = []
    for axis in (PAULI_X, PAULI_Y):
        em = EmitterSpec(np.array([0.5, -0.5]), 0.4 * np.array([axis, 0 * axis, 0 * axis]))
        out = tmp_path / f"run{len(reports)}"
        out.mkdir()
        assert run_gauge_check(out, em) == 0
        assert capsys.readouterr().out.startswith("PASS")
        reports.append((out / "out" / "gauge_report.csv").read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    assert abs(float(reports[0].splitlines()[1].split(",")[0]) - 0.4 / np.sqrt(2)) <= 1e-15


def test_default_grid_refuses_another_coupling(tmp_path, capsys):
    diagonal = np.diag([0.3, -0.1])  # not sigma_x up to phases: the grid must be given
    em = EmitterSpec(np.array([0.5, -0.5]), np.array([0.4 * PAULI_X + diagonal,
                                                     np.zeros((2, 2)), np.zeros((2, 2))]))
    assert run_gauge_check(tmp_path, em) == 2
    assert "'gauge_check.eta_grid'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "gauge_report.csv").exists()
