"""Repository hygiene: no unused imports in the package, a reversible perf tracer that
still describes the quadrature-basis gauge-check and the matrix-free detect, a
command-line tool that runs without scipy, a rate table that holds no D x D matrix
of its own, and repeated commands that reuse the pages their temporaries freed."""

import ast
import ctypes
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugecraft"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names if a.name != "annotations"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_package_modules_use_every_import():
    unused = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" for name in unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_uninstall_restores_numpy(monkeypatch):
    tracer = load_tracer(monkeypatch)
    eigh = np.linalg.eigh
    uninstall = tracer.install(tracer.Tracer())
    try:
        assert np.linalg.eigh is not eigh
    finally:
        uninstall()
    assert np.linalg.eigh is eigh


def test_cli_import_does_not_load_scipy():
    probe = "import sys, gaugecraft.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_traced_gauge_check_spans_describe_the_stacked_builds(monkeypatch, tmp_path, capsys):
    from gaugecraft import cli, tls_single_mode_modeset
    from gaugecraft.scenario import emitter_to_json, modeset_to_json

    ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"eta_grid": [0.1, 0.4, 0.7]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    tracer = load_tracer(monkeypatch)
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    spans.enabled = True
    try:
        assert cli.main(["gauge-check", "--config", str(config), "--out",
                         str(tmp_path / "out")]) == 0
    finally:
        uninstall()
    assert capsys.readouterr().out.startswith("PASS")
    names = [s.name for s in spans.spans]
    assert names.count("gaugecheck.ambiguity_scan") == 1 and names.count("gaugecheck.verify") == 1
    # the ladders and the verify pair are solved in the field-quadrature basis: no Fock
    # build under the scan, and no formed gauge unitary
    assert "hamiltonians.build" not in names
    assert "gaugecheck.gauge_unitary" not in names
    assert names.count("linalg.eigvalsh") > 0
    metrics = tracer.span_metrics(spans.spans)
    assert metrics["gaugecheck.ladder_builds"] == 0
    assert metrics["gaugecheck.gauge_unitary.calls"] == 0


@pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")
def test_traced_detect_applies_the_gauge_map_without_forming_it(monkeypatch, tmp_path):
    from gaugecraft import cli
    from gaugecraft.scenario import emitter_to_json, modeset_to_json
    from test_detect import CUTOFFS, OFF_DIAGONAL_CHI, two_mode_system

    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": list(CUTOFFS),
           "detector": {"dipole": [0.3, 0.9, 0.2], "position_label": "detector", "count": 3}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    tracer = load_tracer(monkeypatch)
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    spans.enabled = True
    try:
        assert cli.main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        uninstall()
    names = [s.name for s in spans.spans]
    assert names.count("gaugecheck.gauge_unitary") == 0
    assert names.count("detect.detection_operator") >= 1


def test_rate_table_peaks_below_one_dense_matrix():
    from gaugecraft import COULOMB, MULTIPOLAR, build_dipole, rate_table, significant_transitions
    from test_detect import OFF_DIAGONAL_CHI, detector, two_mode_system

    ms, em = two_mode_system(OFF_DIAGONAL_CHI)
    bundle_c = build_dipole(ms, em, COULOMB, (16, 16))
    bundle_mp = build_dipole(ms, em, MULTIPOLAR, (16, 16))
    dim = bundle_c.space.dim
    assert dim == 578
    for bundle in (bundle_c, bundle_mp):
        bundle.eigensystem()  # cached: the table reads it, as the detect command does
    transitions = significant_transitions(bundle_c, ms, detector(), 3, em=em)
    tracemalloc.start()
    try:
        rows = rate_table(bundle_c, bundle_mp, ms, em, detector(), transitions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3 and max(r.rel_diff for r in rows) <= 1e-8
    assert peak < 16 * dim * dim, f"rate_table peaked at {peak} bytes"


FAULT_PROBE = """
import io, json, resource, sys
from contextlib import redirect_stdout
from pathlib import Path
from gaugecraft import cli, tls_single_mode_modeset
from gaugecraft.scenario import emitter_to_json, modeset_to_json
ms, em = tls_single_mode_modeset(1.0, 0.6, 1.0)
tmp = Path(sys.argv[1])
config = tmp / "scenario.json"
config.write_text(json.dumps({"seed": 0, "modeset": modeset_to_json(ms),
                              "emitter": emitter_to_json(em), "fock_cutoffs": 200}))
faults = []
for theta in (0.0, 1.0, 0.0, 1.0):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with redirect_stdout(io.StringIO()):
        assert cli.main(["spectrum", "--config", str(config), "--out", str(tmp / "out"),
                         "--set", f"gauge_theta={theta}"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc mallopt")
def test_repeated_commands_reuse_the_freed_pages(tmp_path):
    # a spectrum at D = 402 frees about 15 MB of temporaries; the runs after the first
    # find them in the heap instead of page-faulting them in again (about 3000 faults)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    faults = json.loads(out.stdout)
    assert max(faults[1:]) < 300, faults
