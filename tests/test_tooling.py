"""Repository hygiene: no unused imports in the package, a reversible perf tracer that
still describes the stacked builds, and a command-line tool that runs without scipy."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    builds = [s for s in spans.spans if s.name == "hamiltonians.build"]
    ladder = [s for s in builds if s.parent is not None
              and spans.spans[s.parent].name == "gaugecheck.ambiguity_scan"]
    # three ladders of two rungs (20 and 40), each rung one stack of the three couplings
    assert len(ladder) == 6 and len(builds) == 8
    assert {s.attrs["builder"] for s in ladder} == {"build_dipole", "build_naive"}
    assert sorted(s.attrs["dim"] for s in ladder) == [42] * 3 + [82] * 3
    metrics = tracer.span_metrics(spans.spans)
    assert metrics["gaugecheck.ladder_builds"] == 6
    assert metrics["hamiltonians.build.calls"] == 8
    assert metrics["hamiltonians.build.max_dim"] == 82
