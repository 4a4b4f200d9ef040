"""The `modes` command on its three sources, and exit codes 3 and 4 through `cli.main`."""

import csv
import json

import numpy as np

from gaugecraft.cli import main
from gaugecraft.hilbert import max_abs
from gaugecraft.scenario import encode_complex_matrix, modeset_from_json

RNG = np.random.default_rng(20261018)


def run_modes(tmp_path, section):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"seed": 0, "modes": section}), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["modes", "--config", str(config), "--out", str(out)])
    return code, out


def read_rows(path):
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_grid_source_writes_chi_and_completeness(tmp_path):
    n_nodes, n_modes = 7, 3
    q, _ = np.linalg.qr(RNG.normal(size=(n_nodes, n_modes))
                        + 1j * RNG.normal(size=(n_nodes, n_modes)))
    omega = RNG.uniform(0.5, 2.0, size=n_nodes)
    weight = RNG.uniform(0.1, 1.0, size=n_nodes)
    proj = (q / np.sqrt(weight)[:, None]).T  # rows orthonormal under the weights
    f = RNG.normal(size=(n_modes, 3)) + 1j * RNG.normal(size=(n_modes, 3))
    code, out = run_modes(tmp_path, {
        "grid": {"omega": omega.tolist(), "weight": weight.tolist(),
                 "projections": [encode_complex_matrix(row) for row in proj]},
        "profile_points": {"emitter": encode_complex_matrix(f)}})
    assert code == 0
    ms = modeset_from_json(json.loads((out / "modeset.json").read_text(encoding="utf-8")))
    want = (proj * weight * omega) @ proj.conj().T
    assert max_abs(ms.chi - want) <= 1e-12 * max_abs(want)
    assert max_abs(ms.profile("emitter") - f) == 0.0
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["n_modes"] == n_modes
    # B_{k mu} = sqrt(w_k) L_mu(k) = q, so the residual is ||q q^dag - 1||_max
    assert abs(meta["completeness_residual"]
               - max_abs(q @ q.conj().T - np.eye(n_nodes))) <= 1e-12


def lorentzian_chi(omega0, gamma, lo, hi):
    """T / S of one pole with a constant overlap, integrated in closed form over [lo, hi]."""
    s_int = (np.arctan((hi - omega0) / gamma) - np.arctan((lo - omega0) / gamma)) / gamma
    t_int = omega0 * s_int + 0.5 * np.log(
        ((hi - omega0) ** 2 + gamma**2) / ((lo - omega0) ** 2 + gamma**2))
    return t_int / s_int


def test_qnm_source_matches_closed_form_moments(tmp_path):
    gamma = 1e-3
    code, out = run_modes(tmp_path, {
        "qnm": {"omega": [1.0], "gamma": [gamma], "overlap": [[1.0, 0.0]]},
        "frequency_grid": {"span_factor": 3.0}})
    assert code == 0
    want = lorentzian_chi(1.0, gamma, 0.0, 3.0)
    ms = modeset_from_json(json.loads((out / "modeset.json").read_text(encoding="utf-8")))
    assert abs(ms.chi[0, 0] - want) < 1e-8
    (row,) = read_rows(out / "qnm_deviation.csv")
    assert float(row["chi_diag"]) == ms.chi[0, 0].real
    assert abs(float(row["rel_deviation"]) - abs(want - 1.0)) < 1e-8
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["n_modes"] == 1
    assert meta["max_rel_deviation"] == float(row["rel_deviation"])


def test_dielectric_source_matches_uniform_box_closed_form(tmp_path):
    length, eps, c, n_points, n_modes = 2.0, 2.25, 1.5, 101, 4
    code, out = run_modes(tmp_path, {
        "dielectric": {"length": length, "epsilon": [eps] * n_points, "c": c},
        "n_modes": n_modes})
    assert code == 0
    # central differences on a uniform box: lambda_n = (2 - 2 cos(n pi dx / L)) / dx^2
    dx = length / (n_points - 1)
    n = np.arange(1, n_modes + 1)
    want = c * np.sqrt((2 - 2 * np.cos(n * np.pi * dx / length)) / dx**2 / eps)
    rows = read_rows(out / "modes1d.csv")
    got = np.array([float(r["omega"]) for r in rows])
    assert [int(r["mode"]) for r in rows] == list(range(n_modes))
    assert max_abs(got - want) <= 1e-12 * want[-1]
    # and the continuum limit n pi c / (L sqrt(eps)) to second order in dx
    assert max_abs(got - n * np.pi * c / (length * np.sqrt(eps))) < (n_modes * dx) ** 2
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["n_modes"] == n_modes
    assert meta["orthonormality_residual"] < 1e-12


def test_coarse_qnm_grid_exits_3(tmp_path, capsys):
    code, out = run_modes(tmp_path, {
        "qnm": {"omega": [1.0], "gamma": [1e-3], "overlap": [[1.0, 0.0]]},
        "frequency_grid": {"points_per_gamma": 2.0, "n_background": 101}})
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err
    assert not (out / "modeset.json").exists()


def test_indefinite_qnm_overlap_exits_4(tmp_path, capsys):
    # two identical poles: S is a positive multiple of the overlap, here indefinite
    overlap = np.array([[1.0, 2.0], [2.0, 1.0]])
    code, out = run_modes(tmp_path, {
        "qnm": {"omega": [1.0, 1.0], "gamma": [2e-3, 2e-3],
                "overlap": encode_complex_matrix(overlap)}})
    assert code == 4
    err = capsys.readouterr().err
    assert "internal invariant violation" in err and "positive-definite" in err
    assert not (out / "modeset.json").exists()
