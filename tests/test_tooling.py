"""Repository hygiene: no unused imports in the package, and a reversible perf tracer."""

import ast
import importlib.util
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


def test_tracer_uninstall_restores_numpy(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    eigh = np.linalg.eigh
    uninstall = tracer.install(tracer.Tracer())
    try:
        assert np.linalg.eigh is not eigh
    finally:
        uninstall()
    assert np.linalg.eigh is eigh
