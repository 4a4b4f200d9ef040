"""Gauge unitaries, spectral-equivalence reports, and the coupling-grid scan."""

import importlib
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import tls_single_mode_modeset
from gaugecraft import (COULOMB, MULTIPOLAR, FockCutoffWarning, ambiguity_scan, build_dipole,
                        build_naive, couplings, gauge_unitary, verify_spectral_equivalence)
from gaugecraft import ConfigError, EmitterSpec, HamiltonianBundle, ModeSet, tls
from gaugecraft.cli import command_bytes, main
from gaugecraft.gaugecheck import _climb, canonical_residual, scan_cutoffs
from gaugecraft.hamiltonians import QuadratureFamily, build_gauge_pair
from gaugecraft.hilbert import PAULI_X, PAULI_Y, HermitianGenerator, max_abs
from gaugecraft.scenario import emitter_to_json, modeset_to_json
from memtrace import SEVEN_GIB, traced_peak
from test_stacked_scan import count_solves


def _setup(eta=0.5, cutoff=30, chi=1.0, omega0=1.0):
    ms, em = tls_single_mode_modeset(chi, eta, omega0)
    cs = couplings(ms, em)
    b = build_dipole(ms, em, COULOMB, max(cutoff, 12))
    return ms, em, cs, b.space


class TestGaugeUnitary:
    def test_identity_for_equal_endpoints(self):
        _, _, cs, space = _setup()
        w = gauge_unitary(cs.generator(space), 0.3, 0.3)
        assert max_abs(w - np.eye(space.dim)) < 1e-14

    def test_multipolar_matter_transform_is_trivial(self):
        # the matter-side unitary of the multipolar member has zero generator
        _, _, cs, space = _setup()
        gen = HermitianGenerator(cs.generator_matrix(space), space)
        u_mp = gen.unitary(1.0 - MULTIPOLAR.theta)
        assert max_abs(u_mp - np.eye(space.dim)) < 1e-14

    def test_exact_unitarity_strong_coupling(self):
        _, _, cs, space = _setup(eta=0.8, cutoff=60)
        w = gauge_unitary(cs.generator(space), 0.0, 1.0)
        assert max_abs(w.conj().T @ w - np.eye(space.dim)) < 1e-12

    def test_composition(self):
        _, _, cs, space = _setup(eta=1.0, cutoff=60)
        basis = cs.generator(space)
        w_full = gauge_unitary(basis, 0.0, 1.0)
        w_half1 = gauge_unitary(basis, 0.0, 0.5)
        w_half2 = gauge_unitary(basis, 0.5, 1.0)
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
        basis = cs.generator(build_dipole(ms, em, COULOMB, 12).space)
        lhs = gauge_unitary(basis, t0, t2)
        rhs = gauge_unitary(basis, t1, t2) @ gauge_unitary(basis, t0, t1)
        assert max_abs(lhs - rhs) < 1e-12

    def test_space_coupling_mismatch(self):
        from gaugecraft import HilbertSpec, matter_levels, photon

        _, _, cs, _ = _setup()
        two_mode_space = HilbertSpec([photon(5), photon(5), matter_levels(2)])
        with pytest.raises(ValueError):
            gauge_unitary(cs.generator(two_mode_space), 0.0, 1.0)
        three_level_space = HilbertSpec([photon(5), matter_levels(3)])
        with pytest.raises(ValueError):
            gauge_unitary(cs.generator(three_level_space), 0.0, 1.0)


class TestVerifySpectralEquivalence:
    def test_identical_inputs_give_zero(self):
        ms, em, cs, _ = _setup()
        b = build_dipole(ms, em, COULOMB, 25)
        rep = verify_spectral_equivalence(b, b, k=6)
        assert rep.max_abs_diff == 0.0
        assert np.all(rep.per_level == 0.0)

    def test_correct_endpoints_agree(self):
        ms, em, cs, _ = _setup(eta=0.5)
        b0 = build_dipole(ms, em, COULOMB, 40)
        b1 = build_dipole(ms, em, MULTIPOLAR, 40)
        rep = verify_spectral_equivalence(b0, b1, k=5, tol=1e-6)
        assert rep.max_abs_diff < 1e-6
        assert rep.converged
        # the multipolar member's ground level is one of the canonical multipolar form's
        assert canonical_residual(b1, cs, em.h0, b1.eigenvalues(1)[0]) < 1e-12

    def test_naive_versus_correct_disagrees(self):
        ms, em, cs, _ = _setup(eta=0.5)
        naive = build_naive(ms, em, COULOMB, 40, order=1)
        correct = build_dipole(ms, em, MULTIPOLAR, 40)
        rep = verify_spectral_equivalence(naive, correct, k=5, tol=1e-6)
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
        r1 = verify_spectral_equivalence(b0, b1, k=5)
        r2 = verify_spectral_equivalence(b0, b1, k=5)
        assert r1.max_abs_diff == r2.max_abs_diff
        assert np.array_equal(r1.per_level, r2.per_level)
        e0 = b1.eigenvalues(1)[0]
        assert canonical_residual(b1, cs, em.h0, e0) == canonical_residual(b1, cs, em.h0, e0)


def fock_copy(bundle):
    """A Fock-basis bundle of the same H, built on its own: its owner is itself."""
    return HamiltonianBundle(bundle.H, bundle.space, bundle.gauge, bundle.metadata)


class TestOneSolveOwner:
    """Bundles of one solve owner read one solution, so the report is zeros without a
    solve; bundles of two owners are solved and compared."""

    @pytest.mark.parametrize("pair", ["sectored correct pair", "fock bundle with itself"])
    def test_one_owner_gives_exact_zeros_without_an_eigensolve(self, monkeypatch, pair):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        h_a, h_b = build_gauge_pair(ms, em, 20)
        if pair == "fock bundle with itself":
            h_a = h_b = fock_copy(h_b)
            assert h_a.recipe is h_a.family and h_a.basis == "fock"
        else:
            assert h_a.recipe is h_b.recipe and h_a.basis == "quadrature"
        eigvalsh, eigh = count_solves(monkeypatch, ("eigvalsh", "eigh"))
        rep = verify_spectral_equivalence(h_a, h_b, k=5, tol=1e-6)
        assert eigvalsh == eigh == [] and h_a.recipe.solution is None
        assert rep.max_abs_diff == 0.0 and rep.converged
        assert rep.per_level.shape == (5,) and np.array_equal(rep.per_level, np.zeros(5))
        assert rep.cutoff == (20,)

    def test_one_owner_still_checks_k_and_the_spaces(self, monkeypatch):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        h_a, h_b = build_gauge_pair(ms, em, 20)
        other, _ = build_gauge_pair(ms, em, 21)
        eigvalsh, eigh = count_solves(monkeypatch, ("eigvalsh", "eigh"))
        for k in (0, h_a.space.dim + 1):
            with pytest.raises(ValueError, match="k must be in"):
                verify_spectral_equivalence(h_a, h_b, k=k)
            with pytest.raises(ValueError, match="k must be in"):
                verify_spectral_equivalence(h_a, h_a, k=k)
        with pytest.raises(ValueError, match="different spaces"):
            verify_spectral_equivalence(h_a, other, k=5)
        assert eigvalsh == eigh == []

    def test_a_naive_pair_solves_exactly_four_sectors(self, monkeypatch):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        h_a, h_b = build_gauge_pair(ms, em, 20, 1)
        assert h_a.recipe is not h_b.recipe
        eigvalsh, eigh = count_solves(monkeypatch, ("eigvalsh", "eigh"))
        rep = verify_spectral_equivalence(h_a, h_b, k=5)
        assert eigvalsh == [(21, 21)] * 4 and eigh == []
        assert rep.max_abs_diff > 1e-3

    def test_two_fock_bundles_built_apart_still_solve_and_compare(self, monkeypatch):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        h_a, h_b = build_gauge_pair(ms, em, 20)
        fock_a, fock_b = fock_copy(h_a), fock_copy(h_b)
        assert fock_a.recipe is fock_a.family and fock_b.recipe is fock_b.family
        eigvalsh, eigh = count_solves(monkeypatch, ("eigvalsh", "eigh"))
        rep = verify_spectral_equivalence(fock_a, fock_b, k=5, tol=1e-6)
        assert eigvalsh == [(42, 42)] * 2 and eigh == []  # one each: no parity is declared
        assert rep.max_abs_diff < 1e-12 and rep.converged
        assert np.array_equal(rep.per_level, np.abs(fock_a.eigenvalues(5) - fock_b.eigenvalues(5)))


class TestQuadraturePair:
    """gauge-check's verify pair in the quadrature basis against the Fock-basis builds."""

    @pytest.mark.parametrize("profile", [0.45, -0.8, 0.3 - 0.5j, 1.2j])
    @pytest.mark.parametrize("order", [None, 1, 2])
    def test_reports_match_the_fock_builds(self, profile, order):
        em = tls(1.0, (0.9, 0.0, 0.0))
        ms = ModeSet.single_mode(1.3, {em.position_label: (profile, 0.0, 0.0)})
        h_a, h_b = build_gauge_pair(ms, em, 30, order)
        assert h_a.basis == h_b.basis == "quadrature"
        # the same Hamiltonians assembled in the Fock basis, compared there
        fock_a = dense_oracle.dense_bundle(ms, em, COULOMB, 30, order)
        fock_b = dense_oracle.dense_bundle(ms, em, MULTIPOLAR, 30)
        assert fock_a.basis == fock_b.basis == "fock"
        got = verify_spectral_equivalence(h_a, h_b, k=6)
        want = verify_spectral_equivalence(fock_a, fock_b, k=6)
        assert got.cutoff == want.cutoff == (30,)
        assert max_abs(got.per_level - want.per_level) <= 1e-12
        # the certificate reads the multipolar member's sectors and phases from either basis
        cs, e0 = couplings(ms, em), h_b.eigenvalues(1)[0]
        for bundle in (h_b, fock_b):
            assert canonical_residual(bundle, cs, em.h0, e0) <= 1e-12

    def test_couplings_that_do_not_factor_are_built_in_the_fock_basis(self, tmp_path, capsys):
        # a circularly polarized mode: eta = sigma_x - i sigma_y is no phase times a
        # Hermitian matrix
        em = EmitterSpec(np.array([0.5, -0.5]), 0.3 * np.array([PAULI_X, PAULI_Y, 0 * PAULI_X]))
        ms = ModeSet.single_mode(1.0, {em.position_label: (1.0, 1.0j, 0.0)})
        assert couplings(ms, em).common_matter_matrix() is None
        h_a, h_b = build_gauge_pair(ms, em, 20)
        assert h_a.basis == h_b.basis == "fock"
        doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
               "fock_cutoffs": 20, "gauge_check": {"eta_grid": [0.3]}}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["gauge-check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
        assert meta["canonical_residual"] is None  # certified only where couplings factor

    @pytest.mark.parametrize("order", [None, 2])
    def test_the_pair_shares_one_family_and_forms_k_once(self, monkeypatch, order):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        fields = []
        field = QuadratureFamily._field
        monkeypatch.setattr(QuadratureFamily, "_field",
                            lambda family: fields.append(family) or field(family))
        h_a, h_b = build_gauge_pair(ms, em, 14, order)
        assert h_a.family is h_b.family and fields == [h_a.family]
        want_a = (build_dipole(ms, em, COULOMB, 14) if order is None
                  else build_naive(ms, em, COULOMB, 14, order=order))
        for got, want in ((h_a, want_a), (h_b, build_dipole(ms, em, MULTIPOLAR, 14))):
            assert got.metadata == want.metadata and got.gauge == want.gauge
            assert np.array_equal(got.H, want.H)

    def test_a_family_of_other_inputs_is_refused(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        family = QuadratureFamily.of(ms, em, 14)
        with pytest.raises(ValueError, match="not of these couplings"):
            build_dipole(ms, em, COULOMB, 12, family=family)
        with pytest.raises(ValueError, match="not of these couplings"):
            build_naive(*tls_single_mode_modeset(1.0, 0.7, 1.0), COULOMB, 14, family=family)

    def test_a_short_cutoff_warns_as_the_fock_build_does(self):
        ms, em = tls_single_mode_modeset(1.0, 2.0, 1.0)  # heuristic 4 * 2^2 + 10 = 26
        with pytest.warns(FockCutoffWarning, match="26.0"):
            build_gauge_pair(ms, em, 12)
        with pytest.warns(FockCutoffWarning, match="26.0"):
            build_dipole(ms, em, MULTIPOLAR, 12)

    def test_bundles_in_different_bases_compare_by_their_eigenvalues(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        h_a, h_b = build_gauge_pair(ms, em, 12, 1)
        other, _ = build_gauge_pair(ms, em, 12, 1)  # separate builds share one basis
        fock = HamiltonianBundle(h_b.H, h_b.space, h_b.gauge, h_b.metadata)
        assert fock.basis == "fock"
        want = verify_spectral_equivalence(h_a, h_b, k=3).max_abs_diff
        assert want > 1e-3
        for a, b in ((other, h_b), (h_a, fock)):
            got = verify_spectral_equivalence(a, b, k=3).max_abs_diff
            assert abs(got / want - 1) <= 1e-10


class TestConvergenceProtocol:
    def test_ground_energy_doubling(self):
        ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
        (e0,), (cutoff,), (converged,) = _climb(
            lambda n, _: build_dipole(ms, em, MULTIPOLAR, n).eigenvalues(1), 1, 1e-7,
            scan_cutoffs(1, 2))
        assert converged
        e_ref = build_dipole(ms, em, MULTIPOLAR, 4 * cutoff).eigenvalues(1)[0]
        assert abs(e0 - e_ref) < 1e-6


class TestAmbiguityScan:
    def test_zero_coupling_row(self):
        rows, residual = ambiguity_scan(*tls_single_mode_modeset(1.0, 1.0, 1.0), [0.0])
        assert rows[0].naive_gap < 1e-10
        assert rows[0].correct_gap < 1e-10
        assert residual < 1e-12

    def test_rungs_follow_the_member_dimension(self):
        """From the smallest N with L (N + 1)^M >= 42, doubled while it is <= 1282."""
        assert scan_cutoffs(1, 2) == [20, 40, 80, 160, 320, 640]
        assert scan_cutoffs(2, 2) == [4, 8, 16]
        assert scan_cutoffs(1, 3) == [13, 26, 52, 104, 208, 416]
        assert scan_cutoffs(10, 2) == []

    def test_a_scan_without_a_ladder_or_a_scale_is_refused(self):
        ms, em = tls_single_mode_modeset(1.0, 0.0, 1.0)
        assert ambiguity_scan(ms, em)[0][0].eta == 0.0  # the uncoupled system's own strength
        with pytest.raises(ConfigError, match="couplings are all zero"):
            ambiguity_scan(ms, em, [0.3])
        ten_modes = ModeSet(np.eye(10), {em.position_label: np.full((10, 3), 0.1)})
        with pytest.raises(ConfigError, match="no cutoff ladder"):
            ambiguity_scan(ten_modes, tls(1.0, (0.5, 0.0, 0.0)), [0.3])

    def test_gap_growth_and_correct_flatness(self):
        rows, residual = ambiguity_scan(*tls_single_mode_modeset(1.0, 1.0, 1.0),
                                        [0.1, 0.3, 0.5, 1.0])
        naive = [r.naive_gap for r in rows]
        assert all(naive[i + 1] > naive[i] for i in range(3))
        assert all(r.correct_gap < 1e-6 for r in rows)
        assert all(r.converged for r in rows)
        assert residual < 1e-12  # the strongest coupling's ladder, certified


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
    """Without an eta_grid the scan runs at the couplings' own strength max|eta_mu|.  A sigma_y
    dipole is a sigma_x one up to a matter phase; its scan climbs its own complex family,
    so its gaps equal the sigma_x dipole's to rounding (2.7e-14 measured), not bitwise."""
    reports = []
    for axis in (PAULI_X, PAULI_Y):
        em = EmitterSpec(np.array([0.5, -0.5]), 0.4 * np.array([axis, 0 * axis, 0 * axis]))
        out = tmp_path / f"run{len(reports)}"
        out.mkdir()
        assert run_gauge_check(out, em) == 0
        assert capsys.readouterr().out.startswith("PASS")
        lines = (out / "out" / "gauge_report.csv").read_text(encoding="utf-8").splitlines()
        reports.append(lines[1].split(","))
    (eta_x, *gaps_x, cutoff_x, ok_x), (eta_y, *gaps_y, cutoff_y, ok_y) = reports
    assert abs(float(eta_x) - 0.4 / np.sqrt(2)) <= 1e-15 and float(eta_y) == float(eta_x)
    assert (cutoff_x, ok_x) == (cutoff_y, ok_y) == ("40", "True")
    assert max(abs(float(x) - float(y)) for x, y in zip(gaps_x, gaps_y)) <= 1e-12


def test_default_grid_scans_the_scenarios_own_coupling(tmp_path, capsys):
    """A sigma_x dipole plus a diagonal part is another system than the sigma_x dipole: at
    the same eta its scan gives other gaps."""
    reports = []
    for diagonal in (np.zeros((2, 2)), np.diag([0.3, -0.1])):
        em = EmitterSpec(np.array([0.5, -0.5]), np.array([0.4 * PAULI_X + diagonal,
                                                         np.zeros((2, 2)), np.zeros((2, 2))]))
        out = tmp_path / f"run{len(reports)}"
        out.mkdir()
        assert run_gauge_check(out, em, eta_grid=[0.2828]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        lines = (out / "out" / "gauge_report.csv").read_text(encoding="utf-8").splitlines()
        reports.append([float(v) for v in lines[1].split(",")[:3]])
    (eta_x, naive_x, correct_x), (eta_d, naive_d, correct_d) = reports
    assert eta_x == eta_d == 0.2828
    assert correct_x <= 1e-9 and correct_d <= 1e-9
    assert abs(naive_d - naive_x) > 1e-3 * naive_x


def write_config(tmp_path, doc):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def test_metadata_records_the_pair_and_the_ladder(tmp_path, capsys):
    ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
    config = write_config(tmp_path, {"seed": 0, "modeset": modeset_to_json(ms),
                                     "emitter": emitter_to_json(em), "fock_cutoffs": 24,
                                     "gauge_check": {"eta_grid": [0.3]}})
    assert main(["gauge-check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["cutoffs"] == [24] and meta["dimension"] == 50 and meta["basis"] == "quadrature"
    assert meta["ladder"] == {"start_cutoff": 20, "route": "stacked sectors",
                              "ladders": ["correct", "naive"]}
    for gauge in ("coulomb", "multipolar"):
        diagnostics = meta["diagnostics"][gauge]
        assert diagnostics["sector_sizes"] == [25, 25]
        assert 0.0 <= diagnostics["parity_off_block"] <= 1e-12
        assert 0.0 <= diagnostics["time_reversal_imag"] <= 1e-12


@pytest.fixture
def bench_inputs(monkeypatch):
    """perfbench/inputs.py, imported read-only and forgotten afterwards."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    yield importlib.import_module("inputs")
    sys.modules.pop("inputs", None)


@pytest.mark.parametrize("truncation, verdict", [("correct", "PASS"), ("naive", "FAIL")])
def test_the_multimode_workloads_own_system_is_gauge_checked(bench_inputs, tmp_path, capsys,
                                                             truncation, verdict):
    """The two-mode system with complex off-diagonal chi of the `multimode` benchmark: the
    scan climbs its own family at its own strength, from per-mode cutoff 4."""
    md = bench_inputs.polariton_modes(2, 64)
    config = write_config(tmp_path, bench_inputs.scenario(md, [20, 20], truncation=truncation))
    out = tmp_path / "out"
    assert main(["gauge-check", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(verdict)
    (header, row) = (out / "gauge_report.csv").read_text(encoding="utf-8").splitlines()
    eta, naive_gap, correct_gap, cutoff, converged = row.split(",")
    assert float(eta) == pytest.approx(max(bench_inputs.MULTIMODE_ETA), rel=1e-12)
    assert (cutoff, converged) == ("16", "True")
    assert float(correct_gap) <= 1e-9 and float(naive_gap) > 0.1
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["ladder"] == {"start_cutoff": 4, "route": "stacked sectors",
                              "ladders": ["correct", "naive"]}
    assert meta["dimension"] == 882 and meta["basis"] == "quadrature"
    assert "time_reversal_imag" not in meta["diagnostics"]["coulomb"]


def test_an_oversized_verify_pair_is_refused_up_front(tmp_path, capsys, monkeypatch):
    """Three modes at N = 24 give D = 31250: the quadrature pair alone needs about 8.0 GB,
    more than half of a 7 GiB machine, so the command exits 2 before it allocates."""
    monkeypatch.setattr(os, "sysconf", SEVEN_GIB.__getitem__)
    em = tls(1.0, (0.5, 0.0, 0.0))
    ms = ModeSet(np.diag([1.0, 1.1, 1.2]),
                 {em.position_label: [(0.3, 0.0, 0.0), (0.2, 0.0, 0.0), (0.1, 0.0, 0.0)]})
    config = write_config(tmp_path, {"seed": 0, "modeset": modeset_to_json(ms),
                                     "emitter": emitter_to_json(em), "fock_cutoffs": 24})
    tracemalloc.start()
    try:
        code = main(["gauge-check", "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "fock_cutoffs [24, 24, 24]" in err and "D = 31250" in err and "8.0 GB" in err
    assert peak < 10_000_000
    assert not (tmp_path / "out" / "gauge_report.csv").exists()


def verify_pair_peak(monkeypatch, order):
    """(report, peak, eigvalsh calls) of building and verifying the pair of two modes at
    N = 20 with complex chi (D = 882, complex sectors of n = 441), the Fock quadrature
    caches filled outside the trace, and LAPACK's untraced arrays counted while it holds
    them (`memtrace.traced_peak`)."""
    em = tls(1.0, (1.0, 0.0, 0.0))
    ms = ModeSet(np.array([[1.0, 0.2j], [-0.2j, 1.3]]),
                 {em.position_label: [(0.5, 0.0, 0.0), (0.3, 0.0, 0.0)]})
    build_gauge_pair(ms, em, 20, order)
    pair = []

    def verified():
        pair[:] = build_gauge_pair(ms, em, 20, order)
        return verify_spectral_equivalence(*pair, k=5)

    rep, peak, calls = traced_peak(monkeypatch, verified)
    assert pair[0].basis == pair[1].basis == "quadrature"
    return rep, peak, calls.count("eigvalsh")


def test_a_sectored_verify_pair_peaks_at_its_command_bytes(monkeypatch):
    """The naive pair (order 1) solves its four sectors one at a time, each in the family's
    K turned in place, and holds K and LAPACK's copy of one sector then: it peaks at the
    gauge-check's `command_bytes`, and the estimate is not loose either."""
    rep, peak, solves = verify_pair_peak(monkeypatch, 1)
    assert rep.max_abs_diff > 1e-3 and solves == 4
    budget = command_bytes("gauge-check", 882, True)
    assert 0.9 * budget <= peak <= budget, f"{peak / (16 * 882**2):.3f} x 16 D^2"


def test_a_correct_sectored_verify_pair_holds_k_alone(monkeypatch):
    """The correct pair shares one recipe, so nothing is solved: it holds K, and the local
    terms and slabs K is summed from while it is formed, 0.346 x 16 D^2 measured (0.523
    when a Kronecker term of K's size was formed beside the sum)."""
    rep, peak, solves = verify_pair_peak(monkeypatch, None)
    assert rep.max_abs_diff == 0.0 and solves == 0
    assert peak <= 0.37 * 16 * 882**2, f"{peak / (16 * 882**2):.3f} x 16 D^2"


def beta_exponent_scaled(monkeypatch):
    """Every beta with its exponent i (lam_0 - lam_1) c nu scaled by 0.9."""
    original = QuadratureFamily._off_diagonal
    monkeypatch.setattr(QuadratureFamily, "_off_diagonal",
                        lambda family, scales, order, *levels: original(
                            family, 0.9 * np.asarray(scales, dtype=float), order, *levels))


def coulomb_phases_placed_at_theta_1(monkeypatch):
    """Every member's eigenvectors placed with the theta = 0 phases whatever its theta."""
    original = QuadratureFamily.places
    monkeypatch.setattr(QuadratureFamily, "places",
                        lambda family, theta, recipe: original(family, 0.0, recipe))


@pytest.mark.parametrize("mutate", [beta_exponent_scaled, coulomb_phases_placed_at_theta_1])
def test_a_wrong_member_fails_the_certificate(tmp_path, capsys, monkeypatch, mutate):
    """The correct ladder and the verify pair share one recipe, so a wrong beta or wrong
    phases leave correct_gap and the pair's difference at 0: only the canonical form sees
    them.  The verdict then reads FAIL, and the command still exits 0."""
    ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
    config = write_config(tmp_path, {"seed": 0, "modeset": modeset_to_json(ms),
                                     "emitter": emitter_to_json(em), "fock_cutoffs": 40,
                                     "gauge_check": {"eta_grid": [0.05, 0.5]}})
    metas = []
    for run in ("correct", "mutated"):
        if run == "mutated":
            mutate(monkeypatch)
        out = tmp_path / run
        assert main(["gauge-check", "--config", str(config), "--out", str(out)]) == 0
        metas.append((capsys.readouterr().out,
                      json.loads((out / "metadata.json").read_text(encoding="utf-8"))))
    (stdout, meta), (stdout_bad, meta_bad) = metas
    assert stdout.startswith("PASS") and meta["verdict"] == "PASS"
    assert meta["canonical_residual"] <= 1e-12
    assert stdout_bad.startswith("FAIL") and meta_bad["verdict"] == "FAIL"
    assert meta_bad["canonical_residual"] > 1e-2 and meta_bad["max_abs_diff"] == 0.0
    assert "canonical residual" in stdout_bad
