"""Repository hygiene: no unused imports, orphaned private helpers or unreferenced public
functions in the package, no line over 100 characters in it or the tests, no scenario
value read past the table of scenario keys, no `Operator` built by it, no Kronecker sum
formed and no gauge exponential named outside `hilbert`, one H(t) route for every gauge
family, no dense oracle that no test reads, a reversible perf tracer that still describes
the quadrature-basis gauge-check and the matrix-free detect, a command-line tool that runs
without scipy, a rate table that holds no D x D matrix of its own, repeated commands that
reuse the pages their temporaries freed, and a failing hypothesis test that is reported as
a failure."""

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


def test_test_modules_use_every_import():
    """No module here takes a pytest fixture or `importorskip` by import: each would be
    listed with its reason."""
    unused = [f"{path.stem}: {name}" for path in sorted((ROOT / "tests").glob("*.py"))
              for name in unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_line_of_the_package_or_the_tests_exceeds_100_characters():
    long = [f"{path.relative_to(ROOT)}:{number}"
            for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert not long, "lines over 100 characters: " + ", ".join(long)


def private_helpers(trees: dict) -> list[str]:
    """"module.name" of every module-level _private function or class."""
    return [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def test_package_private_helpers_are_referenced_in_the_package():
    """A helper whose last caller moved out of the package (into the tests, say) is
    orphaned: it has to go with its caller."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    helpers = private_helpers(trees)
    assert len(helpers) > 20
    orphaned = [name for name in helpers if name.split(".", 1)[1] not in used]
    assert not orphaned, "private helpers that no module references: " + ", ".join(orphaned)


# public functions and methods that no other code in the package references, each with the
# reason it stays
LIBRARY_API = {
    "matter.constant_profile": "a TimeProfile constructor of the library API",
    "matter.linear_ramp": "a TimeProfile constructor of the library API",
    "matter.raised_cosine_ramp": "a TimeProfile constructor of the library API",
    "matter.truncated_position_function": "the even/odd position split of a single-particle "
                                          "emitter, library API",
    "scenario.emitter_to_json": "writes a scenario's emitter section, the inverse of "
                                "reading it through the table",
    "detect.naive_rate_gap": "the photodetection claim's naive control, not yet a CLI output",
    "dynamics.td_gauge_equivalence": "the time-dependent gauge check, not yet a CLI command",
    "hamiltonians.build_generalized_1d": "the 1D dielectric builder, not yet a CLI source",
    "matter.tls": "the two-level emitter constructor of the library API",
    "modes.ModeSet.single_mode": "the single-mode ModeSet constructor of the library API",
    "hilbert.HilbertSpec.embed": "wrapped by perfbench/tracer.py as hilbert.embed; goes with "
                                 "that wrap once the tracer reads stage timers",
    "hilbert.HermitianGenerator.conjugate": "perfbench/tracer.py wraps it by name; delete with "
                                            "ROADMAP item 4 step B",
    "gaugecheck.gauge_unitary": "perfbench/tracer.py wraps it by name as "
                                "gaugecheck.gauge_unitary; the tests' formed W",
}


def table_keys(kind) -> set:
    """Every key name of the scenario table under `kind`."""
    keys = set(getattr(kind, "keys", {}))
    subs = [*getattr(kind, "keys", {}).values(), *getattr(kind, "options", ()),
            getattr(kind, "item", None), getattr(kind, "each", None)]
    return keys.union(*(table_keys(sub) for sub in subs if sub is not None))


def test_cli_reads_scenario_values_only_from_the_table():
    """`scenario.SCENARIO` is the one place that holds a key's kind, default and range: the
    command-line module converts no value itself and gives no scenario key a default."""
    from gaugecraft.scenario import SCENARIO

    keys = table_keys(SCENARIO)
    assert {"spectral_tol", "t_max", "n_background", "position_label"} <= keys
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ("number", "number_list"):
            found.append(f"{name}() at line {node.lineno}")
        elif (name == "get" and len(node.args) + len(node.keywords) >= 2
              and isinstance(node.args[0], ast.Constant) and node.args[0].value in keys):
            found.append(f".get({node.args[0].value!r}, ...) at line {node.lineno}")
    assert not found, "cli.py reads scenario values itself: " + ", ".join(found)


def test_package_modules_construct_no_operator():
    """Dense operators are bare ndarrays: `hilbert.Operator` stays only as the class whose
    `__post_init__` perfbench/tracer.py wraps, and no package module calls it."""
    calls = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "Operator" in (getattr(node.func, "id", None),
                                                              getattr(node.func, "attr", None))]
    assert not calls, "Operator(...) called at " + ", ".join(calls)


def test_only_hilbert_forms_kronecker_terms():
    """`HilbertSpec.dense` is the one place where a list of Kronecker terms becomes a matrix:
    no package module but `hilbert` calls `HilbertSpec.kron`, so none sums its own
    products."""
    calls = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "hilbert.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "kron"]
    assert not calls, "HilbertSpec.kron called at " + ", ".join(calls)


def test_only_hilbert_names_a_gauge_exponential_matrix():
    """Every gauge exponential is a diagonal phase in an eigenbasis of X: no package module
    but `hilbert` references an attribute named `conjugate` or `unitary`, so none forms
    exp(i s X) as a D x D matrix through `HermitianGenerator`."""
    found = [f"{path.stem}:{node.lineno} .{node.attr}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "hilbert.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("conjugate", "unitary")]
    assert not found, "gauge exponential matrices named at " + ", ".join(found)



def test_time_dependent_hamiltonian_keeps_one_route():
    """`TimeDependentHamiltonian` reads every family through one sector interface: no method
    but `__init__`, which picks the sectors, reads `.sectored` or names a family class."""
    tree = ast.parse((PACKAGE / "hamiltonians.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "TimeDependentHamiltonian")
    found = [f"{method.name}:{node.lineno}" for method in cls.body
             if isinstance(method, ast.FunctionDef) and method.name != "__init__"
             for node in ast.walk(method)
             if (isinstance(node, ast.Attribute) and node.attr == "sectored")
             or (isinstance(node, ast.Name)
                 and node.id in ("EigenbasisFamily", "QuadratureFamily"))]
    assert not found, "a second H(t) route at " + ", ".join(found)

def public_functions(trees: dict):
    """("module.name" or "module.Class.name", node) of every public module-level function and
    every public method."""
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{stem}.{node.name}.{item.name}", item


def references(trees: dict) -> dict:
    """{identifier: [the ids of the functions enclosing each reference]} over every Name and
    Attribute node of the trees."""
    refs = {}

    def visit(node, enclosing):
        if isinstance(node, (ast.Name, ast.Attribute)):
            refs.setdefault(node.id if isinstance(node, ast.Name) else node.attr,
                            []).append(enclosing)
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees.values():
        visit(tree, frozenset())
    return refs


def test_package_public_functions_are_referenced_in_the_package():
    """Every public function and method is referenced somewhere in the package other than
    its own definition and `__init__.py`, or is library API listed with its reason; a
    listed name that gains a reference leaves the list."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    refs = references(trees)
    functions = list(public_functions(trees))
    assert len(functions) > 100
    unreferenced = {name for name, node in functions
                    if all(id(node) in enclosing for enclosing in refs.get(node.name, []))}
    assert unreferenced == set(LIBRARY_API), (
        f"unreferenced and not listed: {sorted(unreferenced - set(LIBRARY_API))}; "
        f"listed but referenced: {sorted(set(LIBRARY_API) - unreferenced)}")


def test_every_dense_oracle_is_read_by_a_test_module():
    """Each public function and class of tests/dense_oracle.py is imported from it or read as
    `dense_oracle.<name>` by some tests/test_*.py, so that an oracle whose package form is
    gone (`spectra`, say) cannot rot unseen."""
    oracle = ast.parse((ROOT / "tests" / "dense_oracle.py").read_text(encoding="utf-8"))
    names = {node.name for node in oracle.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    read = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dense_oracle":
                read.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "dense_oracle"):
                read.add(node.attr)
    assert len(names) >= 30
    assert not names - read, f"oracles no test reads: {sorted(names - read)}"


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


def test_every_name_the_tracer_wraps_resolves():
    """Each method(cls, "attr", ...) and function(module, "attr", ...) target of
    `perfbench/tracer.py`'s `install` exists, so that `--trace 1` does not crash on a
    deleted or moved name (methods must be defined on the class itself)."""
    import gaugecraft
    from gaugecraft import cli, detect, dynamics, gaugecheck, hamiltonians, hilbert, modes
    from gaugecraft import scenario

    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    namespace = {"np": np, "gaugecraft": gaugecraft, "cli": cli, "detect": detect,
                 "dynamics": dynamics, "gaugecheck": gaugecheck, "hamiltonians": hamiltonians,
                 "hilbert": hilbert, "modes": modes, "scenario": scenario}
    targets, missing = 0, []
    for node in ast.walk(install):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("method", "function")):
            continue
        owner = eval(compile(ast.Expression(node.args[0]), "tracer.py", "eval"), namespace)
        attr = node.args[1].value
        targets += 1
        found = attr in vars(owner) if node.func.id == "method" else hasattr(owner, attr)
        if not found:
            missing.append(f"{ast.unparse(node.args[0])}.{attr}")
    assert targets > 20
    assert not missing, "names the tracer wraps that do not exist: " + ", ".join(missing)


def test_cli_import_does_not_load_scipy():
    probe = "import sys, gaugecraft.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def eigvalsh_under(spans: list, name: str) -> list:
    """The linalg.eigvalsh spans that descend from a span of that name."""
    def under(span):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False
    return [s for s in spans if s.name == "linalg.eigvalsh" and under(s)]


def test_traced_gauge_check_spans_describe_the_stacked_builds(monkeypatch, tmp_path, capsys):
    from dense_oracle import tls_single_mode_modeset
    from gaugecraft import cli
    from gaugecraft.scenario import emitter_to_json, modeset_to_json

    ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"eta_grid": [0.1, 0.4, 0.7]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    tracer = load_tracer(monkeypatch)

    def traced(*extra):
        spans = tracer.Tracer()
        uninstall = tracer.install(spans)
        spans.enabled = True
        try:
            assert cli.main(["gauge-check", "--config", str(config), "--out",
                             str(tmp_path / "out"), *extra]) == 0
        finally:
            uninstall()
        return spans.spans, capsys.readouterr().out

    spans, out = traced()
    assert out.startswith("PASS")
    names = [s.name for s in spans]
    assert names.count("gaugecheck.ambiguity_scan") == 1 and names.count("gaugecheck.verify") == 1
    # the ladders and the verify pair are solved in the field-quadrature basis: no build
    # under the scan, the verify pair's two builds, and no formed gauge unitary
    assert names.count("hamiltonians.build") == 2
    assert "gaugecheck.gauge_unitary" not in names
    assert names.count("linalg.eigvalsh") > 0
    # the correct pair shares one solve, so verifying it solves nothing
    assert eigvalsh_under(spans, "gaugecheck.verify") == []
    metrics = tracer.span_metrics(spans)
    assert metrics["gaugecheck.ladder_builds"] == 0
    assert metrics["gaugecheck.gauge_unitary.calls"] == 0
    # a naive pair is two recipes: each solves its two parity sectors, n = 21 (D = 42)
    spans, out = traced("--set", "truncation=naive")
    assert out.startswith("FAIL")
    assert [s.attrs["n"] for s in eigvalsh_under(spans, "gaugecheck.verify")] == [21] * 4


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
    bundle_c.eigensystem()  # cached: the table reads it, as the detect command does
    transitions = significant_transitions(bundle_c, ms, detector(), 3, em=em)
    tracemalloc.start()
    try:
        rows, _ = rate_table(bundle_c, bundle_mp, ms, em, detector(), transitions,
                             bundle_c.family.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3 and max(r.rel_diff for r in rows) <= 1e-8
    assert peak < 16 * dim * dim, f"rate_table peaked at {peak} bytes"


FAULT_PROBE = """
import io, json, resource, sys
from contextlib import redirect_stdout
from pathlib import Path
from dense_oracle import tls_single_mode_modeset
from gaugecraft import cli
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
        [str(ROOT / "src"), str(ROOT / "tests")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    faults = json.loads(out.stdout)
    assert max(faults[1:]) < 300, faults


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    """Under the repository's pytest settings (warnings are errors) a failing @given test
    is one failure, not an INTERNALERROR from the hypothesis plugin's failure report."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          "test_property.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed" in out.stdout, out.stdout
