"""The commands on three-level emitters, against the dense oracle: a ladder with one dipole
axis, whose couplings factor and whose members are formed in the Fock basis from the gauge
family, and an emitter coupled through two axes, whose couplings do not factor and take
their `EigenbasisFamily` (the dense route), for static members and for H(t) alike."""

import csv
import json
import os
import tracemalloc

import numpy as np
import pytest

import dense_oracle
from gaugecraft import (COULOMB, MULTIPOLAR, DetectorSpec, EmitterSpec, GaugeParam, ModeSet,
                        ambiguity_scan, build_dipole, build_gauge_pair, build_time_dependent,
                        constant_profile, couplings, hamiltonians, hilbert,
                        raised_cosine_ramp, standard_space, td_gauge_equivalence, tls)
from gaugecraft import cli
from gaugecraft.cli import main
from gaugecraft.gaugecheck import scan_cutoffs
from gaugecraft.scenario import emitter_to_json, modeset_to_json
from memtrace import SEVEN_GIB, SIXTY_FOUR_MIB

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

REL_TOL = 1e-12
CUTOFFS = (4, 3)
CHI = np.array([[1.0, 0.15], [0.15, 1.3]])
LEVELS = np.array([0.9, 0.1, -0.8])
LADDER = np.array([[0.0, 0.8, 0.0], [0.8, 0.0, 0.5], [0.0, 0.5, 0.0]])
SECOND_AXIS = np.array([[0.0, 0.3, 0.0], [0.3, 0.0, -0.6], [0.0, -0.6, 0.0]])
PROFILES = {"emitter": [(0.5, 0.2, 0.0), (0.3, -0.4, 0.1)],
            "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6)]}
MS = ModeSet(CHI, PROFILES)
ONE_AXIS = EmitterSpec(LEVELS, np.array([LADDER, 0 * LADDER, 0 * LADDER]))
TWO_AXES = EmitterSpec(LEVELS, np.array([LADDER, SECOND_AXIS, 0 * LADDER]))


def run(tmp_path, command, em, **sections):
    """The output directory of one command, after checking that it exits 0."""
    doc = {"seed": 0, "modeset": modeset_to_json(MS), "emitter": emitter_to_json(em),
           "fock_cutoffs": list(CUTOFFS), **sections}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def read_rows(path):
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def assert_close(got, want, what):
    dev = np.abs(np.asarray(got) - want).max()
    assert dev <= REL_TOL * max(1.0, np.abs(want).max()), f"{what}: deviation {dev:.3e}"


def test_the_emitters_take_the_paths_they_cover():
    assert couplings(MS, ONE_AXIS).common_matter_matrix() is not None
    assert couplings(MS, TWO_AXES).common_matter_matrix() is None
    assert ONE_AXIS.parity_signs.tolist() == TWO_AXES.parity_signs.tolist() == [1, -1, 1]


@pytest.mark.parametrize("em", [ONE_AXIS, TWO_AXES], ids=["one_axis", "two_axes"])
@pytest.mark.parametrize("sections, order", [
    ({"gauge_theta": 0.37}, None),
    ({"gauge_theta": 0.0, "truncation": "naive", "naive_order": 2}, 2),
])
def test_spectrum_matches_the_dense_oracle(tmp_path, em, sections, order):
    out = run(tmp_path, "spectrum", em, **sections)
    got = [float(r["energy"]) for r in read_rows(out / "eigenvalues.csv")]
    want = dense_oracle.dense_bundle(MS, em, GaugeParam(sections["gauge_theta"]), CUTOFFS,
                                     order).eigenvalues()
    assert_close(got, want, "eigenvalues")
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["basis"] == "fock"
    assert meta["diagnostics"]["sector_sizes"] == [30, 30]


def test_detect_matches_the_dense_oracle(tmp_path):
    det = {"dipole": [0.3, 0.9, 0.2], "position_label": "detector", "count": 3}
    out = run(tmp_path, "detect", ONE_AXIS, detector=det)
    rows = read_rows(out / "rates.csv")
    assert len(rows) == 3
    transitions = [(int(r["i"]), int(r["j"])) for r in rows]
    bundles = [dense_oracle.dense_bundle(MS, ONE_AXIS, g, CUTOFFS) for g in (COULOMB, MULTIPOLAR)]
    want_c, want_mp = dense_oracle.rate_table(
        *bundles, MS, ONE_AXIS, DetectorSpec(1.0, det["dipole"], "detector"), transitions)
    assert_close([float(r["R_coulomb"]) for r in rows], want_c, "Coulomb rates")
    assert_close([float(r["R_multipolar"]) for r in rows], want_mp, "multipolar rates")


def test_evolve_matches_the_dense_propagator(tmp_path):
    """A constant coupling from the vacuum: psi(t) = exp(-i H t) |0>, H the dense Coulomb
    Hamiltonian, and the trajectory's photon number and X series are its expectations."""
    times = np.linspace(0.0, 3.0, 4)
    section = {"t_max": 3.0, "n_times": 4, "state_checkpoints": [1, 3], "initial": "vacuum"}
    out = run(tmp_path, "evolve", TWO_AXES, evolve=section)
    dense = dense_oracle.DenseSystem(MS, TWO_AXES, CUTOFFS)
    vals, vecs = np.linalg.eigh(dense.hamiltonian(0.0))
    psi0 = np.zeros(len(vals))
    psi0[0] = 1.0
    want = [vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi0)) for t in times]
    states = json.loads((out / "states.json").read_text(encoding="utf-8"))
    for dump, k in zip(states, (1, 3)):
        got = np.array([complex(re, im) for re, im in dump["state"]])
        assert_close(got, want[k], f"state at t = {times[k]}")
    space = standard_space(CUTOFFS, 3)
    n0 = space.embed(0, np.diag(np.arange(CUTOFFS[0] + 1)))
    rows = read_rows(out / "trajectory.csv")
    for row, psi in zip(rows, want):
        assert_close(float(row["n0"]), (psi.conj() @ n0 @ psi).real, "n0")
        assert_close(float(row["X"]), (psi.conj() @ dense.x @ psi).real, "X")


@pytest.mark.parametrize("em", [ONE_AXIS, TWO_AXES], ids=["one_axis", "two_axes"])
def test_gauge_check_scan_equals_the_per_coupling_dense_ladders(tmp_path, em):
    """The scan forms each member of a three-level emitter on its own and climbs one correct
    and one naive ladder.  Each row equals the three doubling ladders of the dense oracle at
    the couplings scaled to |eta|: per-mode cutoffs 3, 6, 12, since 3 (N + 1)^2 >= 42 from
    N = 3 and exceeds 1282 at N = 24."""
    grid = [0.15, -0.3]
    out = run(tmp_path, "gauge-check", em, gauge_check={"eta_grid": grid, "k": 4})
    rows = read_rows(out / "gauge_report.csv")
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["ladder"] == {"start_cutoff": 3, "route": "per-member builds",
                              "ladders": ["correct", "naive"]}
    assert meta["basis"] == "fock" and meta["verdict"] == "PASS"
    strength = np.abs(couplings(MS, em).eta_matrices).max()
    for eta, row in zip(grid, rows):
        scaled = ModeSet(CHI, {"emitter": eta / strength * np.array(PROFILES["emitter"])})
        e0 = {name: dense_oracle.converged_ground_energy(
                  lambda n: dense_oracle.dense_bundle(scaled, em, g, n, order), 1e-7, 3, 12)
              for name, g, order in (("coulomb", COULOMB, None), ("multipolar", MULTIPOLAR, None),
                                     ("naive", COULOMB, 1))}
        want = dense_oracle.ambiguity_row(eta, e0)
        assert float(row["eta"]) == eta and row["converged"] == "True"
        assert int(row["cutoff"]) == want.cutoff
        assert_close(float(row["naive_gap"]), want.naive_gap, "naive gap")
        assert_close(float(row["correct_gap"]), want.correct_gap, "correct gap")
        assert want.naive_gap > 1e-4


def test_the_per_member_scan_forms_k_once_per_cutoff(monkeypatch):
    """A three-level ladder's couplings factor but are not sectored: each member is formed
    in the Fock basis from the cached family of the couplings at strength 1, at scale eta,
    so the couplings are split and K formed once per distinct cutoff of the ladders."""
    calls = {"K": [], "split": 0}
    field = hamiltonians.QuadratureFamily._field
    split = hamiltonians.CouplingSet.common_matter_matrix
    monkeypatch.setattr(hamiltonians.QuadratureFamily, "_field",
                        lambda self: calls["K"].append(self.cutoffs) or field(self))
    monkeypatch.setattr(hamiltonians.CouplingSet, "common_matter_matrix",
                        lambda self: calls.__setitem__("split", calls["split"] + 1) or split(self))
    rows, _ = ambiguity_scan(MS, ONE_AXIS, [0.1, 0.2])
    assert {r.cutoff for r in rows} == {6}  # the rungs 3 and 6
    assert sorted(calls["K"]) == [(3, 3), (6, 6)] and calls["split"] == 2


@pytest.mark.parametrize("em", [ONE_AXIS, TWO_AXES], ids=["one_axis", "two_axes"])
def test_a_scan_that_is_not_sectored_climbs_one_correct_ladder(monkeypatch, em):
    """A correct recipe does not read theta on any family, so the scan of a three-level
    emitter climbs one correct and one naive ladder, each rung's couplings of the grid one
    recipe (the grid converges at N = 6); where the couplings factor, one more recipe, the
    certificate's multipolar member at the rung where the correct ladder converged."""
    recipes = []
    original = hamiltonians.FockFormed.recipe

    def counted(family, scales, order=None):
        recipes.append((order, family.cutoffs, len(scales)))
        return original(family, scales, order)

    monkeypatch.setattr(hamiltonians.FockFormed, "recipe", counted)
    rows, residual = ambiguity_scan(MS, em, [0.1, 0.2])
    assert {r.cutoff for r in rows} == {6} and {r.correct_gap for r in rows} == {0.0}
    certified = em is ONE_AXIS
    assert recipes == ([(None, (3, 3), 2), (None, (6, 6), 2)] + [(None, (6, 6), 1)] * certified
                       + [(1, (3, 3), 2), (1, (6, 6), 2)])
    assert (residual is None) != certified


def count_eigh_sizes(monkeypatch) -> list:
    """The size of every matrix np.linalg.eigh is called on from now on."""
    sizes, original = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m, *a, **k: sizes.append(np.shape(m)[-1]) or original(m, *a, **k))
    return sizes


def test_the_dense_route_eigendecomposes_x_once_per_pair_and_per_rung(tmp_path, monkeypatch):
    """The gauge pair's members share one `EigenbasisFamily`, and so do every coupling and
    every ladder of a scan rung: X is eigendecomposed (D x D eigh) once per pair, naive or
    not, and once per rung the scan visits.  The naive series takes no eigh, and the
    members' sectors are solved by eigvalsh.  The commands hand the pair's family basis to
    the rate table's and the verify pair's gauge unitary, so that `detect` and
    `gauge-check` at N = 12 (D = 507) each make one eigh of that size: `detect` then solves
    the Coulomb member's two sectors, and the scan's grid converges at N = 6, below D."""
    sizes = count_eigh_sizes(monkeypatch)
    for naive_order in (None, 2):
        build_gauge_pair(MS, TWO_AXES, CUTOFFS, naive_order)
        assert sizes == [standard_space(CUTOFFS, 3).dim]
        sizes.clear()
    rows, _ = ambiguity_scan(MS, TWO_AXES, [0.1, 0.2, 0.3, 0.4])
    visited = [n for n in scan_cutoffs(2, 3) if n <= max(r.cutoff for r in rows)]
    assert len(visited) >= 2 and sizes == [3 * (n + 1) ** 2 for n in visited]
    for command, section, want in (
            ("detect", {"detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector"}},
             [507, 254, 253]),
            ("gauge-check", {"gauge_check": {"eta_grid": [0.1, 0.2]}}, [48, 147, 507])):
        doc = {"seed": 0, "modeset": modeset_to_json(MS), "emitter": emitter_to_json(TWO_AXES),
               "fock_cutoffs": [12, 12], **section}
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        sizes.clear()
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
        assert sizes == want, command


def test_td_gauge_equivalence_forms_x_eigenbasis_once(monkeypatch):
    """Both gauges of `td_gauge_equivalence` read one `EigenbasisFamily`: for the two-axis
    emitter at (4, 4), D = 75, X takes one D x D eigh and K and M one transform each."""
    cutoffs = (4, 4)
    x = couplings(MS, TWO_AXES).generator_matrix(standard_space(cutoffs, 3)).real
    solved, transforms = [], []
    eigh, transform = np.linalg.eigh, hilbert.Eigenbasis.transform
    monkeypatch.setattr(np.linalg, "eigh", lambda m, *a, **k:
                        solved.append(np.array_equal(m, x)) or eigh(m, *a, **k))
    monkeypatch.setattr(hilbert.Eigenbasis, "transform", lambda basis, m:
                        transforms.append(len(m)) or transform(basis, m))
    result = td_gauge_equivalence(MS, TWO_AXES, raised_cosine_ramp(duration=2.0, t0=0.5),
                                  np.linspace(0.0, 3.0, 7), cutoffs)
    assert result.max_deviation <= 1e-8
    assert solved.count(True) == 1 and transforms == [75, 75]

@pytest.mark.parametrize("gauge, theta", [("coulomb", COULOMB), ("multipolar", MULTIPOLAR)])
def test_h_t_at_a_constant_coupling_is_the_static_member(gauge, theta):
    """At mu = 1 and mu' = 0, H(t) is the family's member at theta = 0 or 1: B H(t) B^dag is
    `build_dipole`'s H of the two-axis emitter."""
    tdh = build_time_dependent(MS, TWO_AXES, gauge, constant_profile(1.0), CUTOFFS)
    b = dense_oracle.basis_matrix(tdh.family.basis)
    assert_close(b @ tdh.matrix(0.7) @ b.conj().T, build_dipole(MS, TWO_AXES, theta, CUTOFFS).H,
                 f"{gauge} H(t) at mu = 1")


@pytest.mark.parametrize("command, need", [("spectrum", "4.1 GB"), ("detect", "5.7 GB")])
def test_an_oversized_dense_route_command_is_refused_before_the_family_forms(
        tmp_path, capsys, monkeypatch, command, need):
    """The two-axis emitter at N = 40 (D = 5043) needs 10 (spectrum) and 14 (detect) complex
    D x D matrices on the dense route, more than half of a 7 GiB machine: both exit 2 before
    the family forms X, its eigenbasis, K or M."""
    monkeypatch.setattr(os, "sysconf", SEVEN_GIB.__getitem__)
    doc = {"seed": 0, "modeset": modeset_to_json(MS), "emitter": emitter_to_json(TWO_AXES),
           "fock_cutoffs": [40, 40],
           "detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector"}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "fock_cutoffs [40, 40]" in err and "D = 5043" in err and need in err
    assert peak < 10_000_000
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("em, cutoffs, dim", [(TWO_AXES, 12, 507),
                                              (tls(1.0, (0.6, 0.2, 0.0)), 23, 1152)],
                         ids=["eigenbasis", "sectored"])
def test_an_oversized_evolve_is_refused_before_h_t_forms(tmp_path, capsys, monkeypatch, em,
                                                         cutoffs, dim):
    """On a 64 MiB machine, `evolve` of the two-axis emitter at D = 507 (9.1 complex D x D
    matrices) and of a two-level emitter in its parity sectors at D = 1152 (1.8) needs
    more than half of memory: it exits 2 before X's eigenbasis, K or any H(t) forms."""
    monkeypatch.setattr(os, "sysconf", SIXTY_FOUR_MIB.__getitem__)
    doc = {"seed": 0, "modeset": modeset_to_json(MS), "emitter": emitter_to_json(em),
           "fock_cutoffs": [cutoffs, cutoffs],
           "time_profile": {"kind": "raised_cosine", "t0": 1.0, "duration": 2.0},
           "evolve": {"t_max": 4.0, "n_times": 5}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"fock_cutoffs [{cutoffs}, {cutoffs}]" in err and f"D = {dim}" in err
    assert peak < 1_000_000
    assert list((tmp_path / "out").iterdir()) == []


def test_an_evolve_of_many_recorded_states_is_refused_up_front(tmp_path, capsys, monkeypatch):
    """`evolve` holds about 2.3 complex arrays of n_times x D in its sectors (the Fock-basis
    states, the conjugate and product their norm check takes, the last piece's block of
    coordinates and the populations): the two-mode emitter at (5, 5) (D = 72) with
    n_times = 20000 needs about 53 MB, more than half of a 64 MiB machine, though its
    D x D blocks take 0.1 MB.  It exits 2 naming n_times before the time grid or any
    state is allocated, and n_times = 201 still runs."""
    monkeypatch.setattr(os, "sysconf", SIXTY_FOUR_MIB.__getitem__)
    em = tls(1.0, (0.6, 0.2, 0.0))
    doc = {"seed": 0, "modeset": modeset_to_json(MS), "emitter": emitter_to_json(em),
           "fock_cutoffs": [5, 5],
           "time_profile": {"kind": "raised_cosine", "t0": 1.0, "duration": 2.0},
           "evolve": {"t_max": 4.0, "n_times": 20000}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["evolve", "--config", str(config), "--out", str(tmp_path / "out")]
    with monkeypatch.context() as unrun:  # were it not refused, nothing large would run
        unrun.setattr(cli, "evolve", lambda *args, **kwargs: pytest.fail("evolve ran"))
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "20000 recorded states (evolve.n_times)" in err and "D = 72" in err
    assert "0.1 GB" in err and peak < 1_000_000
    doc["evolve"]["n_times"] = 201
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(argv) == 0

@pytest.mark.parametrize("em", [ONE_AXIS, TWO_AXES], ids=["one_axis", "two_axes"])
def test_gauge_check_certifies_the_couplings_that_factor(tmp_path, capsys, em):
    """The one-axis ladder's couplings factor: its strongest coupling's multipolar member is
    certified by the canonical multipolar form, below the spectral tolerance.  The two-axis
    emitter's truncated couplings do not commute, so the canonical form is not the limit of
    its theta = 1 member: it writes no canonical residual."""
    out = run(tmp_path, "gauge-check", em, gauge_check={"eta_grid": [0.1, 0.2]})
    stdout = capsys.readouterr().out
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert stdout.startswith("PASS") and meta["verdict"] == "PASS"
    if em is ONE_AXIS:
        assert 0.0 < meta["canonical_residual"] < meta["spectral_tol"]
    else:
        assert meta["canonical_residual"] is None and "canonical residual n/a" in stdout
