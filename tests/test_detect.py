"""Detection operators, cross-gauge rates, the naive-field gap and the detect command."""

import json
import tracemalloc

import numpy as np
import pytest

import dense_oracle
from dense_oracle import (field_commutator_residual, photon_space, truncated_E_operator,
                          vector_potential_operator)
from gaugecraft import (COULOMB, MULTIPOLAR, DetectorSpec, InvariantViolation, ModeSet,
                        build_dipole, naive_rate_gap, rate_table, significant_transitions, tls)
from gaugecraft.cli import main
from gaugecraft.hamiltonians import build_gauge_pair, field_hamiltonian
from gaugecraft.hilbert import Eigenbasis, max_abs
from gaugecraft.scenario import emitter_to_json, modeset_to_json
from test_stacked_scan import count_solves

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

OFF_DIAGONAL_CHI = np.array([[1.0, 0.2], [0.2, 1.3]])
# exact binary squares: sqrt(chi_mm)^2 == chi_mm, so f' == f holds bit for bit
DIAGONAL_CHI = np.diag([1.0, 2.25])
CUTOFFS = (8, 7)


def two_mode_system(chi):
    """Real standing-wave profiles, as cross-gauge rate equality requires."""
    ms = ModeSet(chi, {"emitter": [(0.6, 0.1, 0.0), (0.3, -0.2, 0.1)],
                       "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6)]})
    return ms, tls(1.0, (0.8, 0.3, 0.0))


def detector(omega_d=1.0):
    return DetectorSpec(omega_d, (0.3, 0.9, 0.2), "detector")


def test_cross_gauge_rates_agree_with_off_diagonal_chi():
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    b_c = build_dipole(ms, em, COULOMB, CUTOFFS)
    b_mp = build_dipole(ms, em, MULTIPOLAR, CUTOFFS)
    transitions = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert len(transitions) == 3
    rows = rate_table(b_c, b_mp, ms, em, detector(), transitions, b_c.family.basis)
    assert all(r.rate_coulomb > 0 for r in rows)
    assert max(r.rel_diff for r in rows) <= 1e-8


def test_significant_transitions_match_one_matrix_element_per_transition():
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    for bundle in (build_dipole(ms, em, COULOMB, CUTOFFS),
                   build_dipole(ms, em, MULTIPOLAR, CUTOFFS)):
        for i in (0, 2):
            want = dense_oracle.significant_transitions(bundle, ms, detector(), 5, i=i, em=em)
            assert len(want) == 5
            assert significant_transitions(bundle, ms, detector(), 5, i=i, em=em) == want


@pytest.mark.parametrize("chi, expect_gap", [(OFF_DIAGONAL_CHI, True), (DIAGONAL_CHI, False)])
def test_naive_rate_gap(chi, expect_gap):
    ms, em = two_mode_system(chi)
    bundle = build_dipole(ms, em, COULOMB, CUTOFFS)
    i, j = significant_transitions(bundle, ms, detector(), 1, em=em)[0]
    vals = bundle.eigenvalues()
    gap = naive_rate_gap(bundle, ms, detector(float(vals[j] - vals[i])), i, j)
    if expect_gap:
        assert gap.relative_gap > 1e-6
    else:
        assert gap.relative_gap == 0.0


def test_field_commutator_residual_matches_projected_form():
    ms, _ = two_mode_system(OFF_DIAGONAL_CHI)
    for naive in (False, True):
        space = photon_space(ms, (4, 3))
        h_f = field_hamiltonian(ms.chi, space)
        keep = np.ones(1)
        for f in space.factors:
            keep = np.kron(keep, np.r_[np.ones(f.dim - 1), 0.0])
        p = np.diag(keep)
        worst = max(max_abs(p @ (e - 1j * (a @ h_f - h_f @ a)) @ p)
                    for a, e in zip(vector_potential_operator(ms, "detector", (4, 3)),
                                    truncated_E_operator(ms, "detector", (4, 3), naive=naive)))
        got = field_commutator_residual(ms, "detector", (4, 3), naive=naive)
        assert abs(got - worst) <= 1e-14 * max(1.0, worst)
        assert (got > 1e-3) == naive


def test_rate_table_refuses_partners_that_are_not_multipolar_eigenvectors(monkeypatch):
    """A multipolar bundle of other couplings, and the gauge map with the wrong sign,
    each fail the residual check that pairs the gauges."""
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    b_c = build_dipole(ms, em, COULOMB, CUTOFFS)
    b_mp = build_dipole(ms, em, MULTIPOLAR, CUTOFFS)
    transitions = significant_transitions(b_c, ms, detector(), 3, em=em)
    basis = b_c.family.basis
    assert len(rate_table(b_c, b_mp, ms, em, detector(), transitions, basis)) == 3
    other = build_dipole(ms, tls(1.0, (0.5, -0.4, 0.2)), MULTIPOLAR, CUTOFFS)
    with pytest.raises(InvariantViolation, match="gauge pairing"):
        rate_table(b_c, other, ms, em, detector(), transitions, basis)
    apply = Eigenbasis.apply
    monkeypatch.setattr(Eigenbasis, "apply", lambda basis, s, x: apply(basis, -s, x))
    with pytest.raises(InvariantViolation, match="gauge pairing"):
        rate_table(b_c, b_mp, ms, em, detector(), transitions, basis)


def test_detect_command_diagonalizes_only_the_coulomb_bundle(tmp_path, monkeypatch):
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": list(CUTOFFS),
           "detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector",
                        "omega_d": 1.0, "count": 3}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    dim = 2 * (CUTOFFS[0] + 1) * (CUTOFFS[1] + 1)
    sizes = []
    original = np.linalg.eigh

    def counted(m, *args, **kwargs):
        sizes.append(np.shape(m)[-1])
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    # the Coulomb bundle, once, as two parity sectors; the multipolar partners are
    # W |i_C>, checked against H_mp without diagonalizing it
    assert sizes.count(dim) == 0
    assert sizes.count(dim // 2) == 2
    rows = (tmp_path / "out" / "rates.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 4
    assert max(float(r.split(",")[-1]) for r in rows[1:]) <= 1e-8
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["basis"] == "quadrature"
    diagnostics = meta["diagnostics"]
    for gauge in ("coulomb", "multipolar"):
        assert diagnostics[gauge]["sector_sizes"] == [dim // 2, dim // 2]
        assert 0.0 <= diagnostics[gauge]["parity_off_block"] <= 1e-12


@pytest.mark.parametrize("cutoffs, short", [((2, 2), True), ((12, 12), False)])
def test_detect_records_the_top_fock_population_of_the_states_it_reads(tmp_path, monkeypatch,
                                                                       cutoffs, short):
    """Per mode, the largest population of its top Fock level over the Coulomb states the
    rate table reads, from the kept sector solves: no eigensolve beyond the Coulomb
    bundle's two sectors.  A short cutoff shows it, a converged one does not."""
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": list(cutoffs),
           "detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector",
                        "omega_d": 1.0, "count": 3}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    n = (cutoffs[0] + 1) * (cutoffs[1] + 1)
    # beside the Coulomb sectors only the 2 x 2 and (N + 1) x (N + 1) matrices of the setup
    assert [s for s in eigh + eigvalsh if s[-1] > max(cutoffs) + 1] == [(n, n)] * 2
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    top = meta["diagnostics"]["top_fock_population"]
    # the oracle: eigh of the dense Coulomb H, its top-level populations per mode
    h = dense_oracle.dense_bundle(ms, em, COULOMB, cutoffs).H
    vecs = np.linalg.eigh(h)[1][:, sorted({i for pair in meta["transitions"] for i in pair})]
    probs = np.abs(vecs.reshape(cutoffs[0] + 1, cutoffs[1] + 1, 2, -1)) ** 2
    want = [probs[-1].sum(axis=(0, 1)).max(), probs[:, -1].sum(axis=(0, 1)).max()]
    assert np.allclose(top, want, rtol=1e-6, atol=1e-15)
    if short:
        assert top[0] > 1e-2 and top[1] > 1e-3
    else:
        assert max(top) < 1e-12


@pytest.mark.parametrize("cutoff", [16, 20])  # D = 578 and 882
def test_detect_path_holds_less_than_1_6_dense_matrices(cutoff):
    """Building both bundles, then the transitions and the rate table: the D x D eigenvector
    matrix is never placed, and the pair's one family forms K once, so the traced peak
    stays below 1.6 complex D x D matrices (2.4 when both were formed)."""
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    dim = 2 * (cutoff + 1) ** 2
    tracemalloc.start()
    try:
        b_c, b_mp = build_gauge_pair(ms, em, (cutoff, cutoff))
        transitions = significant_transitions(b_c, ms, detector(), 3, em=em)
        rows = rate_table(b_c, b_mp, ms, em, detector(), transitions, b_c.family.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3 and max(r.rel_diff for r in rows) <= 1e-8
    assert peak < 1.6 * 16 * dim**2, f"traced peak {peak / (16 * dim**2):.2f} x 16 D^2"


@pytest.mark.parametrize("pair", [[0, 500], [0, -1]])
def test_out_of_range_transition_is_a_config_error(tmp_path, capsys, pair):
    ms = ModeSet(np.array([[1.0]]), {"emitter": [(0.6, 0.1, 0.0)],
                                      "detector": [(0.4, 0.5, -0.2)]})
    doc = {"seed": 0, "modeset": modeset_to_json(ms),
           "emitter": emitter_to_json(tls(1.0, (0.8, 0.3, 0.0))), "fock_cutoffs": [10],
           "detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector",
                        "transitions": [pair]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'detector.transitions'" in err and "D = 22" in err
    assert not (tmp_path / "out" / "rates.csv").exists()


def test_photon_space_refuses_a_cutoff_per_missing_mode():
    ms, _ = two_mode_system(OFF_DIAGONAL_CHI)
    with pytest.raises(ValueError, match="need 2 cutoffs"):
        vector_potential_operator(ms, "detector", (8,))
    assert photon_space(ms, 3).dim == 16
