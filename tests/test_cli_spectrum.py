"""The spectrum command on the builders only it reaches: naive truncation at both
endpoints, a beyond-dipole section and a longitudinal hook, each against the library
builder it calls."""

import json
import os
import tracemalloc

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


SEVEN_GIB = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (7 << 30) // 4096}


def three_mode_config(tmp_path, cutoff):
    em = tls(1.0, (0.5, 0.0, 0.0))
    ms = ModeSet(np.diag([1.0, 1.1, 1.2]),
                 {em.position_label: [(0.3, 0.0, 0.0), (0.2, 0.0, 0.0), (0.1, 0.0, 0.0)],
                  "detector": [(0.4, 0.0, 0.0), (0.1, 0.0, 0.0), (0.3, 0.0, 0.0)]})
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": cutoff, "detector": {"dipole": [1.0, 0.0, 0.0]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


@pytest.mark.parametrize("command", ["spectrum", "detect"])
def test_an_oversized_command_is_refused_up_front(tmp_path, capsys, monkeypatch, command):
    """Three modes at N = 20 give D = 18522, so one (D/2)^2 block takes 1.37 GB: a sectored
    spectrum needs about 4.2 GB (K, one sector and LAPACK's copy of it) and detect about
    9.7 GB (K, one sector's eigenvectors, the other sector, and eigh's eigenvectors, copy
    and workspace, where it falls back to solving both sectors), each more than half
    of a 7 GiB machine.  Both exit 2 before they allocate; without the refusal this
    scenario would run out of memory, so it is never run without it."""
    monkeypatch.setattr(os, "sysconf", SEVEN_GIB.__getitem__)
    config = three_mode_config(tmp_path, 20)
    tracemalloc.start()
    try:
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    need = {"spectrum": "4.2 GB", "detect": "9.7 GB"}[command]
    assert "fock_cutoffs [20, 20, 20]" in err and "D = 18522" in err and need in err
    assert peak < 10_000_000
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "detect"])
def test_a_command_within_the_budget_runs(tmp_path, monkeypatch, command):
    monkeypatch.setattr(os, "sysconf", SEVEN_GIB.__getitem__)
    config = three_mode_config(tmp_path, 4)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["basis"] == "quadrature" and meta["cutoffs"] == [4, 4, 4]


@pytest.mark.parametrize("command, blocks", [("spectrum", 2.5), ("detect", 3.5)])
def test_a_sectored_command_holds_a_few_member_blocks(tmp_path, command, blocks):
    """Two modes at N = 20 with complex chi and couplings (D = 882, complex sectors of
    n = 441, B = 16 n^2 bytes): the family's K is the only block it keeps.  spectrum holds
    K and one sector at a time (2.2 B traced), and detect K, the sector and the reached
    sector formed again for its Lanczos run (3.0 B traced).  LAPACK's copy of the sector
    is not traced: about 1 B more."""
    em = tls(1.0, (0.6, 0.2, 0.0))
    ms = ModeSet(np.array([[1.0, 0.1 - 0.05j], [0.1 + 0.05j, 1.2]]),
                 {em.position_label: [(0.5, 0.2j, 0.0), (0.3, -0.3, 0.1j)],
                  "detector": [(0.4, 0.0, 0.1), (0.1, 0.2j, 0.3)]})
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "detector": {"dipole": [1.0, 0.0, 0.0]}}
    if command == "spectrum":  # detect builds both gauge endpoints and refuses gauge_theta
        doc["gauge_theta"] = 0.37
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # the Fock quadrature caches are filled outside the trace
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["basis"] == "quadrature" and "time_reversal_imag" not in str(meta)
    assert peak <= blocks * 16 * 441**2, f"{peak / (16 * 441**2):.2f} B"
