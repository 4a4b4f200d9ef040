"""Scenario inputs through `cli.main`: malformed values and unknown keys exit 2 naming
their key path, and the input forms no other test reaches (a mode set by file, a tabulated
QNM overlap, a constant beyond-dipole profile) give what their inline or library
equivalents give."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecraft import ModeSet, QnmSet, chi_from_qnm, tls
from gaugecraft.cli import UNREAD, main
from gaugecraft.hilbert import max_abs
from gaugecraft.scenario import (SCENARIO, Either, ListOf, Scenario, Section, emitter_to_json,
                                 encode_complex_matrix, modeset_from_json, modeset_to_json)

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

CHI = np.array([[1.0, 0.15], [0.15, 1.3]])
PROFILES = {"emitter": [(0.5, 0.2, 0.0), (0.3, -0.3, 0.1)],
            "detector": [(0.4, 0.5, -0.2), (-0.3, 0.2, 0.6)]}
TWO_MODES = ModeSet(CHI, PROFILES)
EMITTER = tls(1.0, (0.6, 0.2, 0.0), charge=1.0)
CONSTANT = {"kind": "constant", "value": [[1.0, 0.0], [0.2, 0.0], [0.0, 0.0]]}
GRID = {"omega": [1.0, 2.0], "weight": [1.0, 1.0],
        "projections": [encode_complex_matrix([1.0, 0.0])]}
DIELECTRIC = {"length": 1.0, "epsilon": [1.0] * 16}  # 14 interior points, so 14 modes at most
ONE_QNM = {"omega": [1.0], "gamma": [0.1], "overlap": [[1.0, 0.0]]}


def scenario(**sections):
    doc = {"seed": 0, "modeset": modeset_to_json(TWO_MODES), "emitter": emitter_to_json(EMITTER),
           "fock_cutoffs": [4, 3]}
    doc.update(sections)
    return doc


def run(tmp_path, command, doc, *overrides):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    return main(argv + [arg for item in overrides for arg in ("--set", item)])


def eigenvalues(out):
    rows = (out / "eigenvalues.csv").read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(row.split(",")[1]) for row in rows])


def with_emitter(key, value):
    return scenario(emitter={**emitter_to_json(EMITTER), key: value})


@pytest.mark.parametrize("command, doc, path", [
    ("spectrum", scenario(modeset={"file": 5}), "modeset.file"),
    ("spectrum", scenario(modeset={"file": "not_json.txt"}), "modeset.file"),
    ("spectrum", with_emitter("levels", ["a", "b"]), "emitter.levels[0]"),
    ("spectrum", scenario(fock_cutoffs=-1), "fock_cutoffs"),
    ("spectrum", scenario(fock_cutoffs=True), "fock_cutoffs"),
    ("spectrum", scenario(fock_cutoffs=[True, 2]), "fock_cutoffs"),
    ("spectrum", scenario(gauge_theta=True), "gauge_theta"),
    ("spectrum", scenario(seed=True), "seed"),
    ("spectrum", scenario(truncation="naive", naive_order=True), "naive_order"),
    ("spectrum", scenario(longitudinal={"omega": 1.0, "coupling": 0.1, "cutoff": True}),
     "longitudinal.cutoff"),
    ("spectrum", scenario(beyond_dipole={"profile": 5}), "beyond_dipole.profile"),
    ("spectrum", scenario(beyond_dipole={"profile": {"kind": "cosine",
                                                      "amplitude": CONSTANT["value"]}}),
     "beyond_dipole.profile[0].k"),
    ("spectrum", scenario(beyond_dipole={"profile": {"kind": "cosine", "k": ["1", True, 0],
                                                      "amplitude": CONSTANT["value"]}}),
     "beyond_dipole.profile[0].k[0]"),
    ("spectrum", scenario(beyond_dipole={"profile": {"kind": "cosine", "k": [1.0, True, 0],
                                                      "amplitude": CONSTANT["value"]}}),
     "beyond_dipole.profile[0].k[1]"),
    ("spectrum", scenario(beyond_dipole={"profile": {"kind": "cosine", "k": [1.0, 0.0],
                                                      "amplitude": CONSTANT["value"]}}),
     "beyond_dipole.profile[0].k"),
    ("spectrum", scenario(longitudinal={"omega": 1.0, "coupling": 0.1, "cutoff": 2,
                                        "direction": ["1", True, 0]}),
     "longitudinal.direction[0]"),
    ("spectrum", scenario(longitudinal={"omega": 1.0, "coupling": 0.1, "cutoff": 2,
                                        "direction": [1.0, True, 0]}),
     "longitudinal.direction[1]"),
    ("spectrum", scenario(longitudinal={"omega": 1.0, "coupling": 0.1, "cutoff": 2,
                                        "direction": [1.0, 0.0]}),
     "longitudinal.direction"),
    ("detect", scenario(detector={"position_label": "detector", "count": -1}),
     "detector.count"),
    ("detect", scenario(detector={"position_label": "detector", "count": True}),
     "detector.count"),
    ("modes", {"modes": {"grid": {**GRID, "omega": ["x"]}}}, "modes.grid.omega[0]"),
    ("modes", {"modes": {"grid": GRID, "profile_points": [[1.0, 0.0]]}},
     "modes.profile_points"),
    ("modes", {"modes": {"dielectric": {"length": 1.0, "epsilon": "abc"}}},
     "modes.dielectric.epsilon"),
    ("modes", {"modes": {"qnm": {"omega": ["a"], "gamma": [0.1], "overlap": [[1.0, 0.0]]}}},
     "modes.qnm.omega[0]"),
    ("spectrum", scenario(longitudinal={"omega": 1.0, "coupling": 0.1, "cutoff": -1}),
     "longitudinal.cutoff"),
    ("modes", {"modes": {"dielectric": DIELECTRIC, "n_modes": 0}}, "modes.n_modes"),
    ("modes", {"modes": {"dielectric": DIELECTRIC, "n_modes": -2}}, "modes.n_modes"),
    ("modes", {"modes": {"dielectric": DIELECTRIC, "n_modes": 15}}, "modes.n_modes"),
    ("modes", {"modes": {"qnm": ONE_QNM, "frequency_grid": {"n_background": -5}}},
     "modes.frequency_grid.n_background"),
    ("modes", {"modes": {"qnm": ONE_QNM, "frequency_grid": {"span_factor": -1}}},
     "modes.frequency_grid.span_factor"),
    ("spectrum", with_emitter("position_label", 3), "emitter.position_label"),
    ("detect", scenario(detector={"position_label": ["x"]}), "detector.position_label"),
    ("modes", {"modes": {"qnm": ONE_QNM, "frequency_grid": [1]}}, "modes.frequency_grid"),
], ids=["modeset-file-not-a-string", "modeset-file-not-json", "emitter-levels",
        "negative-cutoff", "boolean-cutoff", "boolean-cutoff-in-a-list", "boolean-theta",
        "boolean-seed", "boolean-naive-order", "boolean-longitudinal-cutoff",
        "beyond-dipole-profile-not-an-object", "cosine-profile-without-k",
        "cosine-profile-k-string", "cosine-profile-k-boolean", "cosine-profile-k-too-short",
        "longitudinal-direction-string", "longitudinal-direction-boolean",
        "longitudinal-direction-too-short",
        "negative-detector-count", "boolean-detector-count", "grid-omega",
        "profile-points-list", "dielectric-epsilon", "qnm-omega",
        "negative-longitudinal-cutoff", "zero-mode-count", "negative-mode-count",
        "more-modes-than-the-dielectric-gives", "negative-background-nodes",
        "negative-span-factor", "emitter-label-not-a-string", "detector-label-a-list",
        "frequency-grid-a-list"])
def test_malformed_value_exits_2_naming_its_key_path(tmp_path, capsys, command, doc, path):
    (tmp_path / "not_json.txt").write_text("not json", encoding="utf-8")
    assert run(tmp_path, command, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{path}'" in err
    assert not (tmp_path / "out" / "metadata.json").exists()


@pytest.mark.parametrize("doc, message", [
    (scenario(modeset={"file": 5}), "'modeset.file' must be a string, got 5"),
    (with_emitter("levels", ["a", "b"]), "'emitter.levels[0]' must be a number, got 'a'"),
], ids=["modeset-file-not-a-string", "emitter-levels"])
def test_a_key_inside_a_section_is_named_in_a_plain_message(tmp_path, capsys, doc, message):
    assert run(tmp_path, "spectrum", doc) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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


def test_a_mode_set_file_is_checked_against_the_modeset_entries(tmp_path, capsys):
    doc = {**modeset_to_json(TWO_MODES), "chis": encode_complex_matrix(CHI)}
    (tmp_path / "modes.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run(tmp_path, "spectrum", scenario(modeset={"file": "modes.json"})) == 2
    assert capsys.readouterr().err == "config error: unknown key 'modeset.chis'\n"


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


SINGLE_MODE = ModeSet.single_mode(1.0, {EMITTER.position_label: (1.0, 0.0, 0.0)})
QNM = {"omega": [1.0, 1.4], "gamma": [0.05, 0.08],
       "overlap": {"freqs": [0.0, 2.0, 4.0],
                   "samples": [encode_complex_matrix(np.eye(2))] * 3}}
TABULATED = {"kind": "tabulated", "times": [0.0, 1.0, 2.0], "values": [0.0, 0.5, 1.0]}


def gauge_check(**section):
    return scenario(modeset=modeset_to_json(SINGLE_MODE), fock_cutoffs=12,
                    gauge_check={"eta_grid": [0.3], **section})


def with_key(section, key, value):
    return {**section, key: value}


@pytest.mark.parametrize("command, doc, path", [
    ("gauge-check", gauge_check(k="3"), "gauge_check.k"),
    ("gauge-check", gauge_check(spectral_tol=float("nan")), "gauge_check.spectral_tol"),
    ("gauge-check", gauge_check(ground_tol=float("nan")), "gauge_check.ground_tol"),
    ("gauge-check", gauge_check(ground_tol=float("inf")), "gauge_check.ground_tol"),
    ("modes", {"modes": {"dielectric": {"length": 1.0, "epsilon": [1.0, 2.0, 1.5, True]}}},
     "modes.dielectric.epsilon[3]"),
    ("modes", {"modes": {"dielectric": {"length": 1.0, "epsilon": [1.0, "1.5"]}}},
     "modes.dielectric.epsilon[1]"),
    ("modes", {"modes": {"dielectric": {"length": 1.0, "epsilon": ["abc"]}}},
     "modes.dielectric.epsilon[0]"),
    ("modes", {"modes": {"grid": with_key(GRID, "omega", [1.0, float("nan")])}},
     "modes.grid.omega[1]"),
    ("modes", {"modes": {"grid": with_key(GRID, "weight", ["1.0", 1.0])}},
     "modes.grid.weight[0]"),
    ("modes", {"modes": {"qnm": with_key(QNM, "omega", [1.0, True])}}, "modes.qnm.omega[1]"),
    ("modes", {"modes": {"qnm": with_key(QNM, "gamma", ["0.05", 0.08])}}, "modes.qnm.gamma[0]"),
    ("modes", {"modes": {"qnm": with_key(QNM, "overlap", with_key(QNM["overlap"], "freqs",
                                                                  [0.0, "x", 4.0]))}},
     "modes.qnm.overlap.freqs[1]"),
    ("evolve", scenario(evolve={}, time_profile=with_key(TABULATED, "times", [0.0, "x", 2.0])),
     "time_profile.times[1]"),
    ("evolve", scenario(evolve={}, time_profile=with_key(TABULATED, "values", [0.0, True, 1.0])),
     "time_profile.values[1]"),
], ids=["numeric-string-k", "nan-spectral-tol", "nan-ground-tol", "infinite-ground-tol",
        "boolean-epsilon", "numeric-string-epsilon", "string-epsilon", "nan-grid-omega",
        "numeric-string-grid-weight", "boolean-qnm-omega", "numeric-string-qnm-gamma",
        "string-qnm-freq", "string-profile-time", "boolean-profile-value"])
def test_strings_booleans_and_non_finite_values_exit_2_naming_their_index(tmp_path, capsys,
                                                                          command, doc, path):
    """Python's json reads NaN and Infinity, and np.asarray(..., dtype=float) would take
    True and "1.5": each is refused, and the message names the entry's key path."""
    assert run(tmp_path, command, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{path}' must be " in err
    assert not (tmp_path / "out" / "metadata.json").exists()


@pytest.mark.parametrize("command, key, value", [
    ("gauge-check", "gauge_check", False), ("gauge-check", "gauge_check", []),
    ("gauge-check", "gauge_check", 0), ("gauge-check", "gauge_check", ""),
    ("detect", "detector", 0), ("evolve", "evolve", False),
    ("spectrum", "beyond_dipole", []), ("spectrum", "beyond_dipole", False),
])
def test_a_section_that_is_not_an_object_exits_2_naming_it(tmp_path, capsys, command, key,
                                                           value):
    """A falsy section is refused like any other non-object, not read as an empty one."""
    assert run(tmp_path, command, scenario(**{key: value})) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}' must be an object" in err
    assert not (tmp_path / "out" / "metadata.json").exists()


@pytest.mark.parametrize("key", ["spectral_tol", "ground_tol"])
@pytest.mark.parametrize("value", [-1, 0])
def test_a_non_positive_tolerance_exits_2_before_any_work(tmp_path, capsys, key, value):
    """A ground_tol of -1 used to climb every rung up to N = 640 and exit 3, and a
    spectral_tol of -1 to print FAIL and exit 0; both are refused at load, before the
    output directory is made."""
    assert run(tmp_path, "gauge-check", gauge_check(**{key: value})) == 2
    assert f"'gauge_check.{key}' must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc, path", [
    ("spectrum", scenario(fock_cutof=3), "fock_cutof"),
    ("evolve", scenario(evolve={"t_mx": 3}), "evolve.t_mx"),
    ("gauge-check", gauge_check(spectral_tl=1e-30), "gauge_check.spectral_tl"),
    ("detect", scenario(detector={"position_label": "detector", "omega": 1.0}),
     "detector.omega"),
    ("spectrum", with_emitter("level", [0.5, -0.5]), "emitter.level"),
    ("modes", {"modes": {"grid": with_key(GRID, "weights", [1.0, 1.0])}}, "modes.grid.weights"),
    ("evolve", scenario(evolve={}, time_profile={"kind": "raised_cosine", "duraton": 5.0}),
     "time_profile.duraton"),
])
def test_a_misspelled_key_exits_2_naming_it(tmp_path, capsys, command, doc, path):
    """Each of these used to run with the key ignored: a gauge-check with spectral_tl 1e-30
    passed at the default tolerance of 1e-6."""
    assert run(tmp_path, command, doc) == 2
    assert capsys.readouterr().err == f"config error: unknown key '{path}'\n"
    assert not (tmp_path / "out" / "metadata.json").exists()


MODEL_KEYS = {"gauge_theta": 0.5, "longitudinal": {"omega": 0.8, "coupling": 0.1, "cutoff": 2},
              "beyond_dipole": {"profile": CONSTANT}, "truncation": "naive"}
RUNNABLE = {"gauge-check": gauge_check(), "detect": scenario(detector={}),
            "evolve": scenario(evolve={})}


@pytest.mark.parametrize("command, key", [
    ("gauge-check", "gauge_theta"), ("gauge-check", "longitudinal"),
    ("gauge-check", "beyond_dipole"),
    ("detect", "gauge_theta"), ("detect", "longitudinal"), ("detect", "beyond_dipole"),
    ("detect", "truncation"),
    ("evolve", "gauge_theta"), ("evolve", "longitudinal"), ("evolve", "beyond_dipole"),
    ("evolve", "truncation"),
])
def test_a_model_key_the_command_does_not_read_exits_2_naming_it(tmp_path, capsys, command,
                                                                 key):
    """gauge-check, detect and evolve used to run with these keys ignored; each is refused
    at load, before the output directory is made, unless it is at its default."""
    assert run(tmp_path, command, {**RUNNABLE[command], key: MODEL_KEYS[key]}) == 2
    err = capsys.readouterr().err
    assert err == f"config error: '{key}' is not read by {command}: leave it out\n"
    assert not (tmp_path / "out").exists()
    defaults = {"gauge_theta": 0, "longitudinal": "off", "truncation": "correct"}
    Scenario({**RUNNABLE[command], **defaults}).refuse(command, UNREAD[command])


def test_an_override_goes_through_the_same_table(tmp_path, capsys):
    assert run(tmp_path, "evolve", scenario(evolve={}), "evolve.t_mx=3") == 2
    assert capsys.readouterr().err == "config error: unknown key 'evolve.t_mx'\n"
    assert not (tmp_path / "out" / "metadata.json").exists()


def test_config_hash_is_of_the_document_as_given_with_overrides_and_no_defaults(tmp_path):
    doc = scenario()
    assert run(tmp_path, "spectrum", doc, "gauge_theta=0.5", "gauge_check.k=3") == 0
    given_doc = {**doc, "gauge_theta": 0.5, "gauge_check": {"k": 3}}
    want = hashlib.sha256(json.dumps(given_doc, sort_keys=True).encode("utf-8")).hexdigest()
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["config_hash"] == want and meta["gauge_theta"] == 0.5


# a valid scenario with every section of the table, and each of its optional forms
EVERY_SECTION = scenario(
    gauge_theta=0.0, truncation="correct", naive_order=1,
    longitudinal={"omega": 1.0, "coupling": 0.1, "cutoff": 2, "direction": [1.0, 0.0, 0.0]},
    time_profile={"kind": "raised_cosine", "start": 0.0, "stop": 1.0, "t0": 1.0,
                  "duration": 5.0},
    beyond_dipole={"profile": [CONSTANT, {"kind": "cosine", "k": [0.0, 0.0, 1.0],
                                          "amplitude": CONSTANT["value"]}],
                   "quadrature_order": 33},
    gauge_check={"spectral_tol": 1e-6, "ground_tol": 1e-7, "k": 3, "eta_grid": [0.3]},
    detector={"dipole": [0.0, 1.0, 0.0], "position_label": "detector", "omega_d": 1.0,
              "transitions": [[0, 1]], "count": 2},
    evolve={"t_max": 2.0, "n_times": 5, "state_checkpoints": [0, 4], "tol": 1e-9,
            "gauge": "multipolar", "initial": "vacuum"},
    modes={"grid": {**GRID, "labels": ["a", "b"]},
           "profile_points": {"emitter": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
           "qnm": QNM, "frequency_grid": {"span_factor": 3.0, "points_per_gamma": 4.0,
                                          "pole_halfwidth": 5.0, "n_background": 11},
           "dielectric": {**DIELECTRIC, "n_points": 16, "c": 1.0}, "n_modes": 3})


def sections(value, kind, path=""):
    """(key path, object, table entry) of every section of a valid document, depth first;
    a map of point labels, which takes any key, is none."""
    if isinstance(kind, Either):
        kind = next(option for option in kind.options if isinstance(value, option.types))
    if isinstance(kind, ListOf):
        items = [value] if kind.one and isinstance(value, dict) else value
        for k, item in enumerate(items):
            yield from sections(item, kind.item, f"{path}[{k}]")
    elif isinstance(kind, Section) and kind.each is None:
        yield path, value, kind
        for key, item in value.items():
            yield from sections(item, kind.keys[key], f"{path}.{key}" if path else key)


def table_sections(kind) -> list:
    """Every section entry of the table under `kind`, maps of point labels aside."""
    if isinstance(kind, Either):
        return [s for option in kind.options for s in table_sections(option)]
    if isinstance(kind, ListOf):
        return table_sections(kind.item)
    if isinstance(kind, Section) and kind.each is None:
        return [kind] + [s for item in kind.keys.values() for s in table_sections(item)]
    return []


def test_the_every_section_scenario_has_every_section_and_passes_the_table():
    Scenario(EVERY_SECTION)
    found = list(sections(EVERY_SECTION, SCENARIO))
    assert {id(kind) for _, _, kind in found} == {id(kind) for kind in table_sections(SCENARIO)}
    assert len(found) == 17 and "beyond_dipole.profile[1]" in [path for path, _, _ in found]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_unknown_key_at_any_depth_exits_2_naming_its_path(data):
    doc = json.loads(json.dumps(EVERY_SECTION))
    path, section, kind = data.draw(st.sampled_from(list(sections(doc, SCENARIO))))
    key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12)
                    .filter(lambda k: k not in kind.keys))
    section[key] = data.draw(st.sampled_from([1, 0.5, "x", [], {}, None]))
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(Path(tmp), "spectrum", doc) == 2
        where = f"{path}.{key}" if path else key
        assert err.getvalue() == f"config error: unknown key '{where}'\n"
        assert not (Path(tmp) / "out" / "metadata.json").exists()
