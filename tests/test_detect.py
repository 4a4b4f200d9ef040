"""Detection operators, cross-gauge rates, the naive-field gap and the detect command."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dense_oracle
from dense_oracle import (field_commutator_residual, photon_space, truncated_E_operator,
                          vector_potential_operator)
from gaugecraft import (COULOMB, MULTIPOLAR, DetectorSpec, HamiltonianBundle,
                        InvariantViolation, ModeSet, build_dipole, naive_rate_gap,
                        rate_table, significant_transitions, tls)
from gaugecraft import detect as detect_module
from gaugecraft import hamiltonians
from gaugecraft.cli import main
from gaugecraft.hamiltonians import QuadratureFamily, build_gauge_pair, field_hamiltonian
from gaugecraft.hilbert import PAULI_Z, Eigenbasis, max_abs
from gaugecraft.scenario import emitter_to_json, modeset_to_json
from test_stacked_scan import count_solves
from test_time_reversal import real_system

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
    rows, _ = rate_table(b_c, b_mp, ms, em, detector(), transitions, b_c.family.basis)
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
    assert len(rate_table(b_c, b_mp, ms, em, detector(), transitions, basis)[0]) == 3
    other = build_dipole(ms, tls(1.0, (0.5, -0.4, 0.2)), MULTIPOLAR, CUTOFFS)
    with pytest.raises(InvariantViolation, match="gauge pairing"):
        rate_table(b_c, other, ms, em, detector(), transitions, basis)
    apply = Eigenbasis.apply
    monkeypatch.setattr(Eigenbasis, "apply", lambda basis, s, x: apply(basis, -s, x))
    with pytest.raises(InvariantViolation, match="gauge pairing"):
        rate_table(b_c, b_mp, ms, em, detector(), transitions, basis)


def sector_solves(shapes, cutoffs):
    """The shapes larger than the setup's 2 x 2 and (N + 1) x (N + 1) matrices."""
    return [s for s in shapes if s[-1] > max(cutoffs) + 1]


def test_detect_command_diagonalizes_only_the_coulomb_bundle(tmp_path, monkeypatch):
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": list(CUTOFFS),
           "detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector",
                        "omega_d": 1.0, "count": 3}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    dim = 2 * (CUTOFFS[0] + 1) * (CUTOFFS[1] + 1)
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    # the Coulomb bundle, once, as its two parity sectors: eigh of the sector the transitions
    # out of |0> reach, eigvalsh of the sector of |0>; the multipolar partners are W |i_C>,
    # checked against H_mp without diagonalizing it
    assert (sector_solves(eigh, CUTOFFS) == sector_solves(eigvalsh, CUTOFFS)
            == [(dim // 2, dim // 2)])
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
    bundle's two sectors, one eigh and one eigvalsh.  A short cutoff shows it, a converged
    one does not."""
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
    assert sector_solves(eigh, cutoffs) == sector_solves(eigvalsh, cutoffs) == [(n, n)]
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
        rows, _ = rate_table(b_c, b_mp, ms, em, detector(), transitions, b_c.family.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3 and max(r.rel_diff for r in rows) <= 1e-8
    assert peak < 1.6 * 16 * dim**2, f"traced peak {peak / (16 * dim**2):.2f} x 16 D^2"


def single_mode_scenario(tmp_path, detector_section):
    """The path of a single-mode detect scenario at N = 10 (D = 22) with this detector."""
    ms = ModeSet(np.array([[1.0]]), {"emitter": [(0.6, 0.1, 0.0)],
                                      "detector": [(0.4, 0.5, -0.2)]})
    doc = {"seed": 0, "modeset": modeset_to_json(ms),
           "emitter": emitter_to_json(tls(1.0, (0.8, 0.3, 0.0))), "fock_cutoffs": [10],
           "detector": detector_section}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


@pytest.mark.parametrize("pair", [[0, 500], [0, -1]])
def test_out_of_range_transition_is_a_config_error(tmp_path, capsys, pair):
    config = single_mode_scenario(tmp_path, {"dipole": [0.3, 0.9, 0.2],
                                             "position_label": "detector",
                                             "transitions": [pair]})
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'detector.transitions'" in err and "D = 22" in err
    assert not (tmp_path / "out" / "rates.csv").exists()


@pytest.mark.parametrize("section, key", [
    ({}, "'detector.dipole'"),  # the default dipole (0, 0, 0): every rate is zero
    ({"dipole": [0.3, 0.9, 0.2], "count": 0}, "'detector.count'"),
    ({"dipole": [0.3, 0.9, 0.2], "transitions": []}, "'detector.transitions'")])
def test_a_detect_without_transitions_is_a_config_error(tmp_path, capsys, section, key):
    config = single_mode_scenario(tmp_path, section)
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "rates.csv").exists()


def test_detect_places_each_state_once(tmp_path, monkeypatch):
    """The rate table hands back the Coulomb states it placed, and the top Fock populations
    are read from them: each state the transitions name is placed into the Fock basis once."""
    config = single_mode_scenario(tmp_path, {"dipole": [0.3, 0.9, 0.2],
                                             "transitions": [[0, 1], [0, 3], [1, 4]]})
    placed = []
    place = QuadratureFamily._place

    def counted(family, eps, p, vecs, columns, y):
        placed.append(len(columns))
        return place(family, eps, p, vecs, columns, y)

    monkeypatch.setattr(QuadratureFamily, "_place", counted)
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert sum(placed) == 4  # |0>, |1>, |3> and |4>
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert len(meta["diagnostics"]["top_fock_population"]) == 1


def test_picked_states_are_placed_once_and_handed_to_the_rate_table(monkeypatch):
    """`significant_transitions` places |0> and its candidates of the other parity sector,
    each once; `rate_table` reads |0> and the picked states from its `Transitions` and
    places none, nor forms the Coulomb detection terms again.  Given the same pairs as a
    plain list, it places each state they name and forms both gauges' terms."""
    ms, em, (b_c, b_mp) = two_mode_pair(CUTOFFS)
    placed, formed = [], []
    place, operator = QuadratureFamily._place, detect_module.detection_operator

    def counted(family, eps, p, vecs, columns, y):
        placed.append(len(columns))
        return place(family, eps, p, vecs, columns, y)

    monkeypatch.setattr(QuadratureFamily, "_place", counted)
    monkeypatch.setattr(detect_module, "detection_operator",
                        lambda bundle, *args: formed.append(bundle.gauge.theta)
                        or operator(bundle, *args))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    n = b_c.space.dim // 2
    even = b_c.owner.solution[2][:40] < n  # the sector of each of the lowest 40 levels
    others = int(np.sum(even[1:] != even[0]))
    assert placed == ([1, others] if even[0] else [others, 1]) and formed == [0.0]
    assert len(got) == 3 and got.vecs.shape == (b_c.space.dim, 4)
    placed.clear()
    formed.clear()
    rows, states = rate_table(b_c, b_mp, ms, em, detector(), got, b_c.family.basis)
    assert placed == [] and formed == [1.0]  # the multipolar terms alone are formed here
    assert states is got.vecs
    again, again_states = rate_table(b_c, b_mp, ms, em, detector(), list(got),
                                     b_c.family.basis)
    assert sum(placed) == 4 and formed == [1.0, 0.0, 1.0]
    assert again == rows and np.array_equal(again_states, states)


def assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em):
    """`detect`'s transitions equal the dense-eigh oracle's, and its omega_ij and both rates
    agree with the oracle's to 1e-10 relative."""
    want = dense_oracle.significant_transitions(dense_c, ms, detector(), 3, em=em)
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert got == want and len(got) == 3
    rows, _ = rate_table(b_c, b_mp, ms, em, detector(), got, b_c.family.basis)
    vals = dense_c.eigenvalues()
    omega = np.array([vals[j] - vals[i] for i, j in got])
    for name, value in zip(("omega_ij", "rate_coulomb", "rate_multipolar"),
                           (omega, *dense_oracle.rate_table(dense_c, dense_mp, ms, em,
                                                            detector(), got))):
        have = np.array([getattr(r, name) for r in rows])
        assert np.all(np.abs(have - value) <= 1e-10 * np.abs(value)), name


def two_mode_pair(cutoffs):
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    return ms, em, build_gauge_pair(ms, em, cutoffs)


def single_mode_real_pair(cutoffs):
    ms, em = real_system(5, 1, "tls")
    ms = ModeSet(ms.chi, {"emitter": ms.profile("emitter"), "detector": [(0.4, 0.5, -0.2)]})
    return ms, em, build_gauge_pair(ms, em, cutoffs)


@pytest.mark.parametrize("pair, cutoffs", [(two_mode_pair, (2, 2)), (two_mode_pair, (6, 6)),
                                           (two_mode_pair, (12, 12)),
                                           (single_mode_real_pair, (30,))])
def test_transitions_out_of_the_ground_state_solve_one_sector_by_eigh(monkeypatch, pair,
                                                                      cutoffs):
    """The selection rule: |0>'s sector by eigvalsh and one shifted solve, the other by
    eigh, with the transitions, omega_ij and rates of the dense-eigh oracle."""
    ms, em, (b_c, b_mp) = pair(cutoffs)
    n = b_c.space.dim // 2
    assert b_c.basis == "quadrature"
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    significant_transitions(b_c, ms, detector(), 3, em=em)
    assert eigh == [(n, n)] and eigvalsh == [(n, n)]
    ground = 0 if b_c.family.ground_parity > 0 else 1
    assert b_c.owner.solution[3][ground] == 1  # |0> alone of its sector
    assert b_c.owner.solution[3][1 - ground] == min(n, 40)
    monkeypatch.undo()
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, cutoffs)
                         for g in (COULOMB, MULTIPOLAR))
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


def dense_twin(bundle):
    """A Fock-basis bundle of the member's H as `apply` forms it, with its parity."""
    h = bundle.apply(np.eye(bundle.space.dim, dtype=complex))
    return HamiltonianBundle(h, bundle.space, bundle.gauge,
                             {"cutoffs": bundle.metadata["cutoffs"]}, bundle.parity)


def assert_both_sectors_solved_by_eigh(eigh, eigvalsh, bundle):
    n = bundle.space.dim // 2
    # the other sector by eigh and |0>'s by eigvalsh, then |0>'s by eigh, the other's kept
    assert eigh == [(n, n)] * 2 and eigvalsh == [(n, n)]
    assert bundle.owner.solution[3] == (min(n, 40),) * 2


def test_a_ground_state_in_the_other_sector_falls_back_to_solving_both(monkeypatch):
    """beta of the opposite sign swaps the sectors (the levels of h0 swapped), so |0> lies
    in the sector that `ground_parity` does not guess: the other sector's lowest level
    lies below E0, and both sectors are solved by eigh, the other sector's solve kept."""
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    cutoffs = (6, 6)
    family = QuadratureFamily.of(ms, em, cutoffs)
    recipe = family.recipe([1.0])
    pair = lambda flipped: (HamiltonianBundle.in_quadrature_basis(family, g, flipped,
                                                                  {"cutoffs": cutoffs})
                            for g in (COULOMB, MULTIPOLAR))
    probe, _ = pair(replace(recipe, beta=-recipe.beta))
    assert probe.solve_ground_apart(40) is None
    ground = 0 if family.ground_parity > 0 else 1
    kept = probe.owner.solution[3]  # the other sector's 40 vectors, none of |0>'s guess
    assert kept[ground] == 0 and kept[1 - ground] == 40
    b_c, b_mp = pair(replace(recipe, beta=-recipe.beta))
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    significant_transitions(b_c, ms, detector(), 3, em=em)
    assert_both_sectors_solved_by_eigh(eigh, eigvalsh, b_c)
    monkeypatch.undo()
    dense_c, dense_mp = dense_twin(b_c), dense_twin(b_mp)
    assert dense_c.eigensystem([0])[1][b_c.parity != b_c.family.ground_parity].any()
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


def test_a_shifted_solve_that_misses_falls_back_to_solving_both(monkeypatch):
    """A vector from the shifted solve whose residual exceeds HERMITIAN_TOL (here the solve's
    right-hand side alone) is not kept: |0>'s sector is solved by eigh as well."""
    ms, em, (b_c, b_mp) = two_mode_pair((6, 6))
    monkeypatch.setattr(hamiltonians, "_shifted_solve",
                        lambda block, e0: np.eye(len(block))[np.argmin(np.abs(
                            block.diagonal() - e0))])
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    significant_transitions(b_c, ms, detector(), 3, em=em)
    assert_both_sectors_solved_by_eigh(eigh, eigvalsh, b_c)
    monkeypatch.undo()
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, (6, 6))
                         for g in (COULOMB, MULTIPOLAR))
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


def test_a_parity_even_detection_term_falls_back_to_solving_both(monkeypatch):
    """A term sigma_z on the emitter keeps the parity, so O |0> has a part in |0>'s sector:
    every candidate is read, |0>'s sector solved by eigh as well."""
    ms, em, (b_c, b_mp) = two_mode_pair((6, 6))
    even = {b_c.space.matter_indices[0]: 0.3 * PAULI_Z}
    operator, oracle = detect_module.detection_operator, dense_oracle.detection_operator
    monkeypatch.setattr(detect_module, "detection_operator",
                        lambda bundle, *args: operator(bundle, *args) + [even])
    monkeypatch.setattr(dense_oracle, "detection_operator",
                        lambda bundle, *args: oracle(bundle, *args) + bundle.space.kron(even))
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert_both_sectors_solved_by_eigh(eigh, eigvalsh, b_c)
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, (6, 6))
                         for g in (COULOMB, MULTIPOLAR))
    # the even term reaches |0>'s own sector: a transition the selection rule would skip
    vecs = b_c.eigensystem(sorted({k for pair in got for k in pair}))[1]
    parities = [set(b_c.parity[np.abs(v) > 1e-8]) for v in vecs.T]
    assert parities[0] in parities[1:]
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


def test_photon_space_refuses_a_cutoff_per_missing_mode():
    ms, _ = two_mode_system(OFF_DIAGONAL_CHI)
    with pytest.raises(ValueError, match="need 2 cutoffs"):
        vector_potential_operator(ms, "detector", (8,))
    assert photon_space(ms, 3).dim == 16
