"""Scenario inputs through `cli.main`: malformed values exit 2 naming their key path, and
the input forms no other test reaches (a mode set by file, a tabulated QNM overlap, a
constant beyond-dipole profile) give what their inline or library equivalents give."""

import json

import numpy as np
import pytest

from gaugecraft import ModeSet, QnmSet, chi_from_qnm, tls
from gaugecraft.cli import main
from gaugecraft.hilbert import max_abs
from gaugecraft.scenario import (emitter_to_json, encode_complex_matrix, modeset_from_json,
                                 modeset_to_json)

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

CHI = np.array([[1.0, 0.15], [0.15, 1.3]])
PROFILES = {"emitter": [(0.5, 0.2, 0.0), (0.3, -0.3, 0.1)],
            "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6)]}
TWO_MODES = ModeSet(CHI, PROFILES)
EMITTER = tls(1.0, (0.6, 0.2, 0.0), charge=1.0)
CONSTANT = {"kind": "constant", "value": [[1.0, 0.0], [0.2, 0.0], [0.0, 0.0]]}
GRID = {"omega": [1.0, 2.0], "weight": [1.0, 1.0],
        "projections": [encode_complex_matrix([1.0, 0.0])]}


def scenario(**sections):
    doc = {"seed": 0, "modeset": modeset_to_json(TWO_MODES), "emitter": emitter_to_json(EMITTER),
           "fock_cutoffs": [4, 3]}
    doc.update(sections)
    return doc


def run(tmp_path, command, doc):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return main([command, "--config", str(config), "--out", str(tmp_path / "out")])


def eigenvalues(out):
    rows = (out / "eigenvalues.csv").read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(row.split(",")[1]) for row in rows])


def with_emitter(key, value):
    return scenario(emitter={**emitter_to_json(EMITTER), key: value})


@pytest.mark.parametrize("command, doc, path", [
    ("spectrum", scenario(modeset={"file": 5}), "modeset.file"),
    ("spectrum", scenario(modeset={"file": "not_json.txt"}), "modeset.file"),
    ("spectrum", with_emitter("levels", ["a", "b"]), "emitter"),
    ("spectrum", scenario(fock_cutoffs=-1), "fock_cutoffs"),
    ("spectrum", scenario(beyond_dipole={"profile": 5}), "beyond_dipole.profile"),
    ("spectrum", scenario(beyond_dipole={"profile": {"kind": "cosine",
                                                      "amplitude": CONSTANT["value"]}}),
     "beyond_dipole.profile"),
    ("detect", scenario(detector={"position_label": "detector", "count": -1}),
     "detector.count"),
    ("modes", {"modes": {"grid": {**GRID, "omega": ["x"]}}}, "modes.grid"),
    ("modes", {"modes": {"grid": GRID, "profile_points": [[1.0, 0.0]]}},
     "modes.profile_points"),
    ("modes", {"modes": {"dielectric": {"length": 1.0, "epsilon": "abc"}}},
     "modes.dielectric"),
    ("modes", {"modes": {"qnm": {"omega": ["a"], "gamma": [0.1], "overlap": [[1.0, 0.0]]}}},
     "modes.qnm"),
], ids=["modeset-file-not-a-string", "modeset-file-not-json", "emitter-levels",
        "negative-cutoff", "beyond-dipole-profile-not-an-object", "cosine-profile-without-k",
        "negative-detector-count", "grid-omega", "profile-points-list", "dielectric-epsilon",
        "qnm-omega"])
def test_malformed_value_exits_2_naming_its_key_path(tmp_path, capsys, command, doc, path):
    (tmp_path / "not_json.txt").write_text("not json", encoding="utf-8")
    assert run(tmp_path, command, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{path}" in err


def test_mode_set_by_file_equals_the_same_mode_set_inline(tmp_path):
    (tmp_path / "modes.json").write_text(json.dumps(modeset_to_json(TWO_MODES)), encoding="utf-8")
    assert run(tmp_path, "spectrum", scenario(modeset={"file": "modes.json"})) == 0
    by_file = eigenvalues(tmp_path / "out")
    inline = tmp_path / "inline"
    inline.mkdir()
    assert run(inline, "spectrum", scenario()) == 0
    assert np.array_equal(by_file, eigenvalues(inline / "out"))


def test_mode_set_file_that_is_missing_exits_2(tmp_path, capsys):
    assert run(tmp_path, "spectrum", scenario(modeset={"file": "absent.json"})) == 2
    assert "'modeset.file' references missing file" in capsys.readouterr().err


def test_tabulated_qnm_overlap_writes_the_chi_of_chi_from_qnm(tmp_path):
    freqs = np.linspace(0.0, 4.0, 9)
    samples = [np.array([[1.0 + 0.1 * w, 0.2], [0.2, 0.9]]) for w in freqs]
    section = {"omega": [1.0, 1.4], "gamma": [0.05, 0.08],
               "overlap": {"freqs": freqs.tolist(),
                           "samples": [encode_complex_matrix(s) for s in samples]}}
    assert run(tmp_path, "modes", {"modes": {"qnm": section}}) == 0
    written = modeset_from_json(json.loads((tmp_path / "out" / "modeset.json")
                                           .read_text(encoding="utf-8")))
    qnm = QnmSet(section["omega"], section["gamma"], np.array(samples), overlap_freqs=freqs)
    want = chi_from_qnm(qnm).modeset.chi
    assert max_abs(written.chi - want) <= 1e-12 * max_abs(want)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_constant_beyond_dipole_profile_equals_the_cosine_profile_at_k_0(tmp_path, theta):
    em = tls(1.0, (0.5 * np.sqrt(2), 0.0, 0.0), charge=1.0)
    ms = ModeSet.single_mode(1.0, {em.position_label: (1.0, 0.0, 0.0)})
    cosine = {"kind": "cosine", "k": [0.0, 0.0, 0.0], "amplitude": CONSTANT["value"]}
    spectra = []
    for k, profile in enumerate((CONSTANT, cosine)):
        work = tmp_path / str(k)
        work.mkdir()
        doc = scenario(modeset=modeset_to_json(ms), emitter=emitter_to_json(em),
                       fock_cutoffs=12, gauge_theta=theta, beyond_dipole={"profile": profile})
        assert run(work, "spectrum", doc) == 0
        spectra.append(eigenvalues(work / "out"))
    assert np.array_equal(*spectra)
