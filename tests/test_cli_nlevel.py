"""The commands on three-level emitters, against the dense oracle: a ladder with one dipole
axis, whose couplings factor and whose members are formed in the Fock basis from the gauge
family, and an emitter coupled through two axes, whose couplings do not factor and take
the dense generator."""

import csv
import json

import numpy as np
import pytest

import dense_oracle
from gaugecraft import (COULOMB, MULTIPOLAR, DetectorSpec, EmitterSpec, GaugeParam, ModeSet,
                        couplings, standard_space)
from gaugecraft.cli import main
from gaugecraft.scenario import emitter_to_json, modeset_to_json

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
    want_c, want_mp, worst = dense_oracle.rate_table(
        *bundles, MS, ONE_AXIS, DetectorSpec(1.0, det["dipole"], "detector"), transitions)
    assert worst > 0.9
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
