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
from gaugecraft.hamiltonians import (LANCZOS_MIN_SECTOR, QuadratureFamily, build_gauge_pair,
                                     canonical_terms, field_hamiltonian, polarization_squared)
from gaugecraft.hilbert import HERMITIAN_TOL, PAULI_Z, Eigenbasis, max_abs
from gaugecraft.scenario import emitter_to_json, modeset_to_json
from test_apply import assert_rates_agree_in_amplitude
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


def test_a_level_at_the_energy_of_i_is_not_a_transition():
    """A candidate that is not upward in energy has rate zero, whatever <j| O |i>: a
    multipolar Fock-basis bundle of a diagonal H with |0 photons, g> and |1 photon, g> at
    one energy, which O connects with |<1| O |0>|^2 = 0.14, picks (0, 2) alone."""
    ms = ModeSet(np.array([[1.0]]), {"emitter": [(0.6, 0.1, 0.0)],
                                      "detector": [(0.4, 0.5, -0.2)]})
    em = tls(1.0, (0.8, 0.3, 0.0))
    space = build_dipole(ms, em, MULTIPOLAR, 5).space
    photons, level = np.divmod(np.arange(space.dim), 2)
    energies = np.where((photons <= 1) & (level == 0), 0.0, 1.0 + photons + 0.3 * level)
    bundle = HamiltonianBundle(np.diag(energies).astype(complex), space, MULTIPOLAR)
    vals, vecs = bundle.eigensystem([0, 1])
    operator = dense_oracle.detection_operator(bundle, ms, detector(), em)
    assert vals[1] == vals[0] and abs(vecs[:, 1].conj() @ operator @ vecs[:, 0]) ** 2 > 0.1
    got = significant_transitions(bundle, ms, detector(), 3, em=em)
    assert got == dense_oracle.significant_transitions(bundle, ms, detector(), 3, em=em)
    assert got == [(0, 2)]


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
    # a sector below the crossover: its candidates read from eigh, nothing fell back
    assert diagnostics["transitions_route"] == {"route": "dense", "iterations": 0,
                                                "max_ritz_residual": None, "fallback": None}
    assert diagnostics["canonical_pairing_residual"] >= 0.0


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
    # the partners' residual against the canonical form, reported and not checked, falls
    # as the cutoff converges (3.0e-2 at (2, 2), 5.9e-8 at (12, 12))
    canonical = meta["diagnostics"]["canonical_pairing_residual"]
    if short:
        assert top[0] > 1e-2 and top[1] > 1e-3
        assert canonical > 1e-2
    else:
        assert max(top) < 1e-12
        assert canonical < 1e-6


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


def test_a_zero_dipole_on_the_lanczos_route_is_a_config_error(tmp_path, capsys, monkeypatch):
    """O |0> = 0 has the empty spectral measure: the run takes no step and certifies no
    transition, and detect exits 2 naming the dipole."""
    monkeypatch.setattr(hamiltonians, "LANCZOS_MIN_SECTOR", 0)
    config = single_mode_scenario(tmp_path, {})
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "'detector.dipole'" in capsys.readouterr().err


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
    """`significant_transitions` places |0> and the states it picks, each once, and no other
    candidate; `rate_table` reads |0> and the picked states from its `Transitions` and
    places none, nor forms the Coulomb detection terms again.  Given the same pairs as a
    plain list, it places each state they name from the kept solves, |0> from the shifted
    solve, without a further eigensolve, and forms both gauges' terms."""
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
    assert placed == [1, 3] and formed == [0.0]
    assert len(got) == 3 and got.vecs.shape == (b_c.space.dim, 4)
    placed.clear()
    formed.clear()
    rows, states = rate_table(b_c, b_mp, ms, em, detector(), got, b_c.family.basis)
    assert placed == [] and formed == [1.0]  # the multipolar terms alone are formed here
    assert states is got.vecs
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    again, again_states = rate_table(b_c, b_mp, ms, em, detector(), list(got),
                                     b_c.family.basis)
    assert sum(placed) == 4 and formed == [1.0, 0.0, 1.0]
    assert eigh == [] and eigvalsh == []
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


def holds_vectors(bundle):
    """Per sector, even sector first, whether its kept solve holds its eigenvectors (each
    holds all of them or none), and whether |0> from the shifted solve is held on its own."""
    _, parts, _, ground = bundle.recipe.solution
    return [vecs is not None for _, vecs in parts], ground is not None


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
    """The selection rule below the Lanczos crossover: |0>'s sector by eigvalsh and one
    shifted solve, the other by eigh, with the transitions, omega_ij and rates of the
    dense-eigh oracle."""
    ms, em, (b_c, b_mp) = pair(cutoffs)
    n = b_c.space.dim // 2
    assert b_c.basis == "quadrature" and n < LANCZOS_MIN_SECTOR
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert eigh == [(n, n)] and eigvalsh == [(n, n)]
    assert got.route == {"route": "dense", "iterations": 0, "max_ritz_residual": None,
                         "fallback": None}
    # the reached sector holds every eigenvector, |0>'s sector none, |0> held on its own
    assert holds_vectors(b_c) == ([b_c.family.ground_parity < 0,
                                   b_c.family.ground_parity > 0], True)
    monkeypatch.undo()
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, cutoffs)
                         for g in (COULOMB, MULTIPOLAR))
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


LANCZOS_CUTOFFS = (14, 14)  # D = 450: two sectors of 225 levels, above the crossover


def square_solves(shapes, n):
    """The calls on an (n, n) array, beside the small tridiagonal ones of a Lanczos run."""
    return [s for s in shapes if s == (n, n)]


def assert_takes_the_lanczos_route(got, bundle):
    tol = HERMITIAN_TOL * max(1.0, *np.abs(bundle.eigenvalues()[[0, -1]])) / 2
    route = got.route
    assert route["route"] == "lanczos" and route["fallback"] is None
    assert 0 < route["iterations"] <= detect_module.LANCZOS_CAP
    assert 0.0 <= route["max_ritz_residual"] <= tol


def complex_two_mode_pair(cutoffs):
    """Complex chi and couplings: no time reversal, complex sectors."""
    em = tls(1.0, (0.6, 0.2, 0.0))
    ms = ModeSet(np.array([[1.0, 0.1 - 0.05j], [0.1 + 0.05j, 1.2]]),
                 {em.position_label: [(0.5, 0.2j, 0.0), (0.3, -0.3, 0.1j)],
                  "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6)]})
    return ms, em, build_gauge_pair(ms, em, cutoffs)


@pytest.mark.parametrize("pair, cutoffs", [(two_mode_pair, LANCZOS_CUTOFFS),
                                           (two_mode_pair, (16, 16)),
                                           (complex_two_mode_pair, LANCZOS_CUTOFFS),
                                           (single_mode_real_pair, (300,))])
def test_transitions_above_the_crossover_take_the_lanczos_route(monkeypatch, pair, cutoffs):
    """From the crossover on, both sectors by eigvalsh, |0> by one shifted solve, and no
    eigh of the reached sector: the rates are Ritz weights and the states Ritz vectors,
    with the transitions, omega_ij and rates of the dense-eigh oracle: complex sectors,
    and the real ones of time reversal."""
    ms, em, (b_c, b_mp) = pair(cutoffs)
    n = b_c.space.dim // 2
    assert n >= LANCZOS_MIN_SECTOR
    eigh, eigvalsh, solve = count_solves(monkeypatch, ("eigh", "eigvalsh", "solve"))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert square_solves(eigh, n) == [] and square_solves(eigvalsh, n) == [(n, n)] * 2
    assert solve == [(n, n)]
    assert_takes_the_lanczos_route(got, b_c)
    assert holds_vectors(b_c) == ([False, False], True)
    monkeypatch.undo()
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, cutoffs)
                         for g in (COULOMB, MULTIPOLAR))
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


@pytest.mark.parametrize("cutoffs", [(6, 6), LANCZOS_CUTOFFS])
def test_a_second_call_reads_the_held_ground_state_without_solving(monkeypatch, cutoffs):
    """The recipe holds |0> from the first call's shifted solve and both sectors' eigenvalues,
    and below the crossover the reached sector's eigenvectors: a second call on the same
    bundle makes no (n, n) eigh, eigvalsh or solve, and returns the same pairs and route
    (above the crossover from a second Lanczos run)."""
    ms, em, (b_c, _) = two_mode_pair(cutoffs)
    n = b_c.space.dim // 2
    first = significant_transitions(b_c, ms, detector(), 3, em=em)
    shapes = count_solves(monkeypatch, ("eigh", "eigvalsh", "solve"))
    again = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert [square_solves(calls, n) for calls in shapes] == [[], [], []]
    assert again == first and again.route == first.route
    assert first.route["fallback"] is None
    assert np.array_equal(again.vecs[:, 0], first.vecs[:, 0])


@pytest.mark.parametrize("cutoffs", [(6, 6), LANCZOS_CUTOFFS])
def test_a_ground_solve_after_eigenvalues_reuses_them(monkeypatch, cutoffs):
    """After a plain `eigenvalues()`, `solve_ground_apart` runs no eigvalsh: only the shifted
    solve, and eigh of the reached sector below the crossover.  Its (parity, |0>) equals,
    bit for bit, that of a bundle that did not ask for the eigenvalues first."""
    ms, em, (fresh, _) = two_mode_pair(cutoffs)
    want = fresh.solve_ground_apart()
    _, _, (b_c, _) = two_mode_pair(cutoffs)
    b_c.eigenvalues()
    n = b_c.space.dim // 2
    eigh, eigvalsh, solve = count_solves(monkeypatch, ("eigh", "eigvalsh", "solve"))
    got = b_c.solve_ground_apart()
    assert eigvalsh == [] and solve == [(n, n)]
    assert eigh == ([(n, n)] if n < LANCZOS_MIN_SECTOR else [])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert holds_vectors(b_c) == holds_vectors(fresh)


def test_the_lanczos_route_reproduces_the_eigh_route_to_1e_12():
    """The same bundle's transitions by the eigh route (the crossover above its sectors):
    the same pairs, omega_ij and both rates to 1e-12 relative, and states that differ by a
    phase alone."""
    ms, em, (b_c, b_mp) = two_mode_pair(LANCZOS_CUTOFFS)
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    rows, states = rate_table(b_c, b_mp, ms, em, detector(), got, b_c.family.basis)
    d_c, d_mp = build_gauge_pair(ms, em, LANCZOS_CUTOFFS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamiltonians, "LANCZOS_MIN_SECTOR", d_c.space.dim)
        want = significant_transitions(d_c, ms, detector(), 3, em=em)
    assert want.route["route"] == "dense" and got == want
    want_rows, want_states = rate_table(d_c, d_mp, ms, em, detector(), want,
                                        d_c.family.basis)
    for name in ("omega_ij", "rate_coulomb", "rate_multipolar"):
        have, value = (np.array([getattr(r, name) for r in t]) for t in (rows, want_rows))
        assert np.all(np.abs(have - value) <= 1e-12 * np.abs(value)), name
    overlaps = np.abs(np.einsum("dk,dk->k", states.conj(), want_states))
    assert np.allclose(overlaps, 1.0, atol=1e-12)


@pytest.mark.parametrize("count, floor", [(1, 0.1), (2, 0.05)])
def test_a_larger_rate_the_run_has_not_converged_still_sets_the_floor(count, floor):
    """The strongest transition, (0, 4), converges after the weak (0, 1) and (0, 2): until it
    does, the weight no Ritz pair accounts for bounds the largest rate, so the weak ones are
    not picked against the largest converged rate alone."""
    ms, em, (b_c, _) = two_mode_pair(LANCZOS_CUTOFFS)
    got = significant_transitions(b_c, ms, detector(), count, em=em, floor=floor)
    assert got.route["route"] == "lanczos"
    dense_c = dense_oracle.dense_bundle(ms, em, COULOMB, LANCZOS_CUTOFFS)
    want = dense_oracle.significant_transitions(dense_c, ms, detector(), count, em=em,
                                                floor=floor)
    assert got == want and (0, 4) in got


def test_picked_ritz_vectors_are_placed_once_and_handed_to_the_rate_table(monkeypatch):
    """|0> and the picked states, each placed once: the Ritz vectors of the picks alone,
    not the candidates."""
    ms, em, (b_c, b_mp) = two_mode_pair(LANCZOS_CUTOFFS)
    placed = []
    place = QuadratureFamily._place

    def counted(family, eps, p, vecs, columns, y):
        placed.append(len(columns))
        return place(family, eps, p, vecs, columns, y)

    monkeypatch.setattr(QuadratureFamily, "_place", counted)
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert placed == [1, 3] and got.vecs.shape == (b_c.space.dim, 4)
    placed.clear()
    _, states = rate_table(b_c, b_mp, ms, em, detector(), got, b_c.family.basis)
    assert placed == [] and states is got.vecs


def test_an_uncertified_lanczos_run_falls_back_to_eigh_of_the_reached_sector(monkeypatch):
    """A run cut at 10 steps certifies nothing: the reached sector is solved by eigh, the
    ground sector's shifted solve kept, and the dense route's transitions returned."""
    ms, em, (b_c, b_mp) = two_mode_pair(LANCZOS_CUTOFFS)
    n = b_c.space.dim // 2
    monkeypatch.setattr(detect_module, "LANCZOS_CAP", 10)
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert square_solves(eigh, n) == [(n, n)] and square_solves(eigvalsh, n) == [(n, n)] * 2
    assert got.route == {"route": "dense", "iterations": 10, "max_ritz_residual": None,
                         "fallback": "no certified selection in 10 Lanczos steps"}
    assert holds_vectors(b_c) == ([b_c.family.ground_parity < 0,
                                   b_c.family.ground_parity > 0], True)
    monkeypatch.undo()
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, LANCZOS_CUTOFFS)
                         for g in (COULOMB, MULTIPOLAR))
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


# diagonal chi: O |0> has no weight on some levels of the reached sector
BOTH_MODES = {"emitter": [(0.6, 0.1, 0.0), (0.3, -0.2, 0.1)],
              "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6)]}
# a detector that reaches one mode alone
ONE_DETECTED_MODE = {"emitter": [(0.6, 0.1, 0.0), (0.3, -0.2, 0.1)],
                     "detector": [(0.4, 0.5, -0.2), (0.0, 0.0, 0.0)]}
# an emitter that couples to one mode alone: the other mode's excitations of the
# polaritons carry no weight, level 11 among them, below the eighth pick
ONE_COUPLED_MODE = {"emitter": [(0.6, 0.1, 0.0), (0.0, 0.0, 0.0)],
                    "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6)]}


@pytest.mark.parametrize("profiles, count, cutoffs, relative", [
    pytest.param(BOTH_MODES, 3, LANCZOS_CUTOFFS, True, id="profiles0-3"),
    pytest.param(ONE_DETECTED_MODE, 3, LANCZOS_CUTOFFS, True, id="profiles1-3"),
    pytest.param(ONE_COUPLED_MODE, 8, LANCZOS_CUTOFFS, True, id="profiles2-8"),
    # below the crossover: the exact measure
    pytest.param(BOTH_MODES, 3, (6, 6), True, id="profiles0-3-below"),
    pytest.param(ONE_DETECTED_MODE, 3, (6, 6), True, id="profiles1-3-below"),
    pytest.param(ONE_COUPLED_MODE, 8, (6, 6), False, id="profiles2-8-below")])
def test_a_symmetric_system_certifies_its_picks_or_falls_back(profiles, count, cutoffs,
                                                              relative):
    """Levels of the reached sector that O |0> does not reach stay unmatched by any Ritz
    pair.  The run either certifies the picks or falls back to eigh; below the crossover
    the exact measure of the sector's eigenvectors, matched to its levels by index, reads
    them as zero.  Either way the transitions are the dense oracle's, and so are omega_ij
    and both rates: the rates in amplitude, to RATE_TOL f ||O||_2, and each to 1e-10 of
    itself, but for the one-coupled-mode system at (6, 6), whose eighth Coulomb rate,
    7.7e-10 against a largest of 0.14, rounds 1.2e-10 of itself off the oracle's."""
    ms = ModeSet(DIAGONAL_CHI, profiles)
    em = tls(1.0, (0.8, 0.3, 0.0))
    b_c, b_mp = build_gauge_pair(ms, em, cutoffs)
    got = significant_transitions(b_c, ms, detector(), count, em=em)
    if b_c.space.dim // 2 < LANCZOS_MIN_SECTOR:
        assert got.route == detect_module.dense_route()
    elif got.route["route"] == "lanczos":
        assert_takes_the_lanczos_route(got, b_c)
    else:
        assert got.route["fallback"].startswith("no certified selection")
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, cutoffs)
                         for g in (COULOMB, MULTIPOLAR))
    vals = dense_c.eigenvalues()
    want = dense_oracle.significant_transitions(dense_c, ms, detector(), count, em=em)
    assert got == want and len(got) == count
    rows, _ = rate_table(b_c, b_mp, ms, em, detector(), got, b_c.family.basis)
    rates = dense_oracle.rate_table(dense_c, dense_mp, ms, em, detector(), got)
    assert_rates_agree_in_amplitude(rows, *rates, dense_c, dense_mp, ms, em)
    for name, value in zip(("omega_ij", "rate_coulomb", "rate_multipolar"),
                           ([vals[j] - vals[i] for i, j in got], *rates)):
        have = np.array([getattr(r, name) for r in rows])
        if relative or name == "omega_ij":
            assert np.all(np.abs(have - value) <= 1e-10 * np.abs(value)), name


def test_degenerate_reached_levels_are_read_level_by_level():
    """Three modes of one frequency, each coupled alike to the emitter: permuting them
    commutes with H, and the permutations' two-dimensional representation makes levels of
    the reached sector twofold, several with weight from O |0>.  Below the crossover the
    exact measure reads them by index in the sector's own eigenbasis, which splits a
    degenerate level's weight as that basis falls.  So the picks are the first 20
    candidates whose rate, as `rate_table` reads it for every candidate, exceeds 1e-10 of
    the largest, which passes over a reached level without weight (level 23); and those
    rates, summed over each level's eigenspace, are the dense oracle's in amplitude, to
    RATE_TOL f ||O||_2."""
    ms = ModeSet(np.eye(3), {"emitter": [(0.6, 0.1, 0.0)] * 3,
                             "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6),
                                          (0.1, -0.4, 0.3)]})
    em = tls(1.0, (0.8, 0.3, 0.0))
    cutoffs = (3, 3, 3)  # D = 128: sectors of 64 levels
    b_c, b_mp = build_gauge_pair(ms, em, cutoffs)
    got = significant_transitions(b_c, ms, detector(), 20, em=em)
    assert got.route == detect_module.dense_route()
    candidates = [(0, j) for j in range(1, 40)]
    rows, _ = rate_table(b_c, b_mp, ms, em, detector(), candidates, b_c.family.basis)
    coulomb = np.array([r.rate_coulomb for r in rows])
    assert got == [pair for pair, r in zip(candidates, coulomb) if r > 1e-10 * coulomb.max()][:20]
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, cutoffs)
                         for g in (COULOMB, MULTIPOLAR))
    vals = dense_c.eigenvalues()
    assert np.allclose(b_c.eigenvalues()[:41], vals[:41], rtol=0.0, atol=1e-10)
    # the eigenspace of each candidate, and of state 40: none is cut at the last candidate
    level = np.cumsum(np.diff(vals[:41]) > 1e-9)
    assert level[-1] != level[-2]
    level = level[:-1]
    want = dense_oracle.rate_table(dense_c, dense_mp, ms, em, detector(), candidates)
    have = [[getattr(r, name) for r in rows] for name in ("rate_coulomb", "rate_multipolar")]
    size = np.bincount(level)
    sums = [np.bincount(level, weights=w)[size > 0] for w in (*have, *want)]
    assert np.sum((size[size > 0] == 2) & (sums[0] > 1e-10 * sums[0].max())) >= 3
    firsts = np.unique(level, return_index=True)[1]
    summed = [replace(rows[k], rate_coulomb=c, rate_multipolar=m)
              for k, c, m in zip(firsts, *sums[:2])]
    assert_rates_agree_in_amplitude(summed, *sums[2:], dense_c, dense_mp, ms, em)


def test_detect_command_above_the_crossover_reports_its_lanczos_route(tmp_path, monkeypatch):
    """No (n, n) eigh, two (n, n) eigvalsh and one shifted solve; the metadata names the
    route, its steps and the largest residual of the picked Ritz pairs, and the canonical
    pairing residual, against the dense H_can applied to the dense oracle's partners."""
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": list(LANCZOS_CUTOFFS),
           "detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector",
                        "omega_d": 1.0, "count": 3}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    n = (LANCZOS_CUTOFFS[0] + 1) * (LANCZOS_CUTOFFS[1] + 1)
    eigh, eigvalsh, solve = count_solves(monkeypatch, ("eigh", "eigvalsh", "solve"))
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert square_solves(eigh, n) == [] and square_solves(eigvalsh, n) == [(n, n)] * 2
    assert square_solves(solve, n) == [(n, n)]
    monkeypatch.undo()
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    route = meta["diagnostics"]["transitions_route"]
    assert route["route"] == "lanczos" and route["fallback"] is None
    assert 0 < route["iterations"] <= 100 and route["max_ritz_residual"] <= 1e-10
    # the oracle: dense eigenvectors of H_C, the formed W, the formed H_can
    dense_c = dense_oracle.dense_bundle(ms, em, COULOMB, LANCZOS_CUTOFFS)
    states = sorted({i for pair in meta["transitions"] for i in pair})
    vals, vecs = dense_c.eigensystem()
    partners = dense_oracle.DenseSystem(ms, em, LANCZOS_CUTOFFS).gauge_unitary(0.0, 1.0) @ (
        vecs[:, states])
    cs = hamiltonians.couplings(ms, em)
    h_can = dense_c.space.dense(canonical_terms(cs, em.h0 + polarization_squared(cs),
                                                dense_c.space))
    want = np.linalg.norm(h_can @ partners - partners * vals[states], axis=0).max()
    got = meta["diagnostics"]["canonical_pairing_residual"]
    assert abs(got - want) <= 1e-10 * max(1.0, abs(vals[-1]))


def dense_twin(bundle):
    """A Fock-basis bundle of the member's H as `apply` forms it, with its parity."""
    h = bundle.apply(np.eye(bundle.space.dim, dtype=complex))
    return HamiltonianBundle(h, bundle.space, bundle.gauge,
                             {"cutoffs": bundle.metadata["cutoffs"]}, bundle.parity)


def assert_both_sectors_solved_by_eigh(eigh, eigvalsh, bundle, held):
    n = bundle.space.dim // 2
    if n < LANCZOS_MIN_SECTOR:
        # the other sector by eigh and |0>'s by eigvalsh, then |0>'s by eigh, the other's kept
        assert eigh == [(n, n)] * 2 and eigvalsh == [(n, n)]
    else:
        # both sectors by eigvalsh, then both by eigh: no Lanczos run
        assert eigh == [(n, n)] * 2 and eigvalsh == [(n, n)] * 2
    assert holds_vectors(bundle) == ([True, True], held)


FALLBACK_CUTOFFS = [(6, 6), (14, 14)]  # sectors of 49 and 225 levels, about the crossover


@pytest.mark.parametrize("cutoffs", FALLBACK_CUTOFFS)
def test_a_ground_state_in_the_other_sector_falls_back_to_solving_both(monkeypatch, cutoffs):
    """beta of the opposite sign swaps the sectors (the levels of h0 swapped), so |0> lies
    in the sector that `ground_parity` does not guess: the other sector's lowest level
    lies below E0, and both sectors are solved by eigh, the other sector's solve kept."""
    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    family = QuadratureFamily.of(ms, em, cutoffs)
    recipe = family.recipe([1.0])
    pair = lambda flipped: (HamiltonianBundle.in_quadrature_basis(family, g, flipped,
                                                                  {"cutoffs": cutoffs})
                            for g in (COULOMB, MULTIPOLAR))
    probe, _ = pair(replace(recipe, beta=-recipe.beta))
    assert probe.solve_ground_apart() is None
    ground = 0 if family.ground_parity > 0 else 1
    # the other sector's vectors (none from the crossover on), none of |0>'s guess
    kept, held = holds_vectors(probe)
    assert not kept[ground] and kept[1 - ground] == (probe.space.dim // 2 < LANCZOS_MIN_SECTOR)
    assert not held
    b_c, b_mp = pair(replace(recipe, beta=-recipe.beta))
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert_both_sectors_solved_by_eigh(eigh, eigvalsh, b_c, False)
    assert got.route["route"] == "dense" and "not solved apart" in got.route["fallback"]
    monkeypatch.undo()
    dense_c, dense_mp = dense_twin(b_c), dense_twin(b_mp)
    assert dense_c.eigensystem([0])[1][b_c.parity != b_c.family.ground_parity].any()
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


@pytest.mark.parametrize("cutoffs", FALLBACK_CUTOFFS)
def test_a_shifted_solve_that_misses_falls_back_to_solving_both(monkeypatch, cutoffs):
    """A vector from the shifted solve whose residual exceeds HERMITIAN_TOL (here the solve's
    right-hand side alone) is not kept: |0>'s sector is solved by eigh as well."""
    ms, em, (b_c, b_mp) = two_mode_pair(cutoffs)
    monkeypatch.setattr(hamiltonians, "_shifted_solve",
                        lambda block, e0: np.eye(len(block))[np.argmin(np.abs(
                            block.diagonal() - e0))])
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert_both_sectors_solved_by_eigh(eigh, eigvalsh, b_c, False)
    assert got.route["route"] == "dense" and "not solved apart" in got.route["fallback"]
    monkeypatch.undo()
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, cutoffs)
                         for g in (COULOMB, MULTIPOLAR))
    assert_matches_the_dense_oracle(b_c, b_mp, dense_c, dense_mp, ms, em)


@pytest.mark.parametrize("cutoffs", FALLBACK_CUTOFFS)
def test_a_parity_even_detection_term_falls_back_to_solving_both(monkeypatch, cutoffs):
    """A term sigma_z on the emitter keeps the parity, so O |0> has a part in |0>'s sector:
    every candidate is read, |0>'s sector solved by eigh as well."""
    ms, em, (b_c, b_mp) = two_mode_pair(cutoffs)
    even = {b_c.space.matter_indices[0]: 0.3 * PAULI_Z}
    operator, oracle = detect_module.detection_operator, dense_oracle.detection_operator
    monkeypatch.setattr(detect_module, "detection_operator",
                        lambda bundle, *args: operator(bundle, *args) + [even])
    monkeypatch.setattr(dense_oracle, "detection_operator",
                        lambda bundle, *args: oracle(bundle, *args) + bundle.space.kron(even))
    eigh, eigvalsh = count_solves(monkeypatch, ("eigh", "eigvalsh"))
    got = significant_transitions(b_c, ms, detector(), 3, em=em)
    assert_both_sectors_solved_by_eigh(eigh, eigvalsh, b_c, True)
    assert got.route["route"] == "dense" and "parity sector of |0>" in got.route["fallback"]
    dense_c, dense_mp = (dense_oracle.dense_bundle(ms, em, g, cutoffs)
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
