"""The spectrum command on the builders only it reaches: naive truncation at both
endpoints, a beyond-dipole section and a longitudinal hook, each against the library
builder it calls."""

import json

import numpy as np
import pytest

from gaugecraft import (COULOMB, MULTIPOLAR, GaugeParam, LongitudinalCoupling, ModeSet,
                        build_beyond_dipole, build_dipole, build_naive, tls)
from gaugecraft.cli import main
from gaugecraft.scenario import emitter_to_json, modeset_to_json

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

CHI = np.array([[1.0, 0.15], [0.15, 1.3]])
TWO_MODES = ModeSet(CHI, {"emitter": [(0.5, 0.2, 0.0), (0.3, -0.3, 0.1)]})
EMITTER = tls(1.0, (0.6, 0.2, 0.0))
CUTOFFS = (4, 3)


def spectrum(tmp_path, ms, em, **sections):
    """eigenvalues.csv of one `spectrum` run, after checking that it exits 0."""
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           **sections}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "eigenvalues.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "index,energy"
    return np.array([float(row.split(",")[1]) for row in rows[1:]])


def assert_same_spectrum(got, bundle):
    want = bundle.eigenvalues()
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("gauge, order", [(COULOMB, 2), (MULTIPOLAR, 1)])
def test_naive_truncation(tmp_path, gauge, order):
    got = spectrum(tmp_path, TWO_MODES, EMITTER, fock_cutoffs=list(CUTOFFS),
                   gauge_theta=gauge.theta, truncation="naive", naive_order=order)
    assert_same_spectrum(got, build_naive(TWO_MODES, EMITTER, gauge, CUTOFFS, order=order))


@pytest.mark.parametrize("gauge, label", [(COULOMB, "coulomb"), (MULTIPOLAR, "multipolar")])
def test_beyond_dipole_section(tmp_path, gauge, label):
    em = tls(1.0, (0.5 * np.sqrt(2), 0.0, 0.0), charge=1.0)
    ms = ModeSet.single_mode(1.0, {em.position_label: (1.0, 0.0, 0.0)})
    amplitude, k = np.array([1.0, 0.2j, 0.0]), np.array([2.0, 0.0, 0.5])
    section = {"profile": {"kind": "cosine", "k": k.tolist(),
                           "amplitude": [[v.real, v.imag] for v in amplitude]}}
    got = spectrum(tmp_path, ms, em, fock_cutoffs=12, gauge_theta=gauge.theta,
                   beyond_dipole=section)
    profile = lambda x: amplitude * np.cos(k @ np.asarray(x, dtype=float))
    assert_same_spectrum(got, build_beyond_dipole(ms.chi, [profile], em, label, (12,)))


def test_longitudinal_hook(tmp_path):
    hook = {"omega": 0.8, "coupling": 0.3, "cutoff": 3, "direction": [1.0, 0.5, 0.0]}
    got = spectrum(tmp_path, TWO_MODES, EMITTER, fock_cutoffs=[3, 2], gauge_theta=0.37,
                   longitudinal=hook)
    want = build_dipole(TWO_MODES, EMITTER, GaugeParam(0.37), (3, 2),
                        longitudinal=LongitudinalCoupling(0.8, 0.3, 3, (1.0, 0.5, 0.0)))
    assert_same_spectrum(got, want)


@pytest.mark.parametrize("sections, basis", [
    ({"gauge_theta": 0.37}, "quadrature"),
    ({"gauge_theta": 0.0, "truncation": "naive", "naive_order": 2}, "quadrature"),
    ({"gauge_theta": 1.0, "truncation": "naive"}, "fock"),
    ({"gauge_theta": 0.37, "longitudinal": {"omega": 0.8, "coupling": 0.3, "cutoff": 2}},
     "fock"),
])
def test_metadata_records_the_basis_and_its_measured_symmetries(tmp_path, sections, basis):
    spectrum(tmp_path, TWO_MODES, EMITTER, fock_cutoffs=[3, 2], **sections)
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["basis"] == basis
    diagnostics = meta["diagnostics"]
    assert diagnostics["sector_sizes"] == [meta["dimension"] // 2] * 2
    assert 0.0 <= diagnostics["parity_off_block"] <= 1e-12
    hooked = "longitudinal" in sections
    assert ("time_reversal_imag" in diagnostics) == (not hooked)  # real chi and couplings
    if not hooked:
        assert 0.0 <= diagnostics["time_reversal_imag"] <= 1e-12


def run(tmp_path, ms, em, **sections):
    """Exit code of one `spectrum` run."""
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           **sections}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")])


def test_beyond_dipole_section_without_single_particle_data_exits_2(tmp_path, capsys):
    section = {"profile": {"kind": "constant", "value": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}
    assert run(tmp_path, TWO_MODES, EMITTER, fock_cutoffs=list(CUTOFFS),
               beyond_dipole=section) == 2
    assert "'q' and 'r_dip'" in capsys.readouterr().err


def test_naive_truncation_between_the_endpoints_exits_2(tmp_path, capsys):
    assert run(tmp_path, TWO_MODES, EMITTER, fock_cutoffs=list(CUTOFFS), gauge_theta=0.5,
               truncation="naive") == 2
    assert "'gauge_theta' 0 and 1 only" in capsys.readouterr().err
