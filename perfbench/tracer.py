"""Span tracing around gaugecraft's public functions, from outside the package.

`install` wraps each traced function or method in place and returns a
callable that restores the originals.  Modules such as `cli`, `gaugecheck`,
`detect` and `dynamics` bind names with `from .x import y`, so a function is
replaced in every gaugecraft namespace that holds it, not only where it is
defined; methods are replaced on their class, and `numpy.linalg.eigh` /
`eigvalsh` on `numpy.linalg`.

Spans (name, start, end, parent span, run id) are kept in memory and written
out once, after the traced iteration.  A layer's self time is its spans'
durations minus the time covered by their direct children.  The tracer keeps
one call stack, so it assumes the CLI runs with `--jobs 1`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self.enabled = False
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.run_id, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """`fn` recording a span per call; `attrs(args, result)` annotates it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def write(self, path: Path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "run": s.run,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


def _dim(args, result):
    return {"n": int(args[0].shape[-1])}


def _build(args, result):
    return {"dim": int(result.space.dim), "builder": result.metadata.get("builder")}


def _td(args, result):
    return {"static": bool(args[0].profile.mu_dot(args[1]) == 0.0)}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced layers; returns the function that unwraps them."""
    from gaugecraft import cli, detect, dynamics, gaugecheck, hamiltonians, hilbert, modes
    from gaugecraft import scenario

    undo = []
    namespaces = [m for name, m in sys.modules.items()
                  if name == "gaugecraft" or name.startswith("gaugecraft.")]

    def function(module, attr, name, attrs=None):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig, attrs)
        for ns in namespaces + [module]:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapped)
                    undo.append((ns, key, orig))

    def method(cls, attr, name, attrs=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, attrs)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, attrs))
        undo.append((cls, attr, raw))

    method(scenario.Scenario, "load", "scenario.load")
    function(modes, "build_from_grid", "modes.build_from_grid")
    function(modes, "completeness_residual", "modes.completeness_residual")
    method(hilbert.HilbertSpec, "embed", "hilbert.embed")
    method(hilbert.HermitianGenerator, "__init__", "hilbert.generator_eigh")
    method(hilbert.HermitianGenerator, "unitary", "hilbert.unitary")
    method(hilbert.HermitianGenerator, "conjugate", "hilbert.conjugate")
    method(hilbert.Operator, "__post_init__", "hilbert.operator_check")
    function(hamiltonians, "field_hamiltonian", "hamiltonians.field_hamiltonian")
    method(hamiltonians.CouplingSet, "generator_matrix", "hamiltonians.generator_matrix")
    function(hamiltonians, "build_dipole", "hamiltonians.build", _build)
    function(hamiltonians, "build_naive", "hamiltonians.build", _build)
    method(hamiltonians.HamiltonianBundle, "eigenvalues", "hamiltonians.eigenvalues")
    method(hamiltonians.HamiltonianBundle, "eigensystem", "hamiltonians.eigensystem")
    method(hamiltonians.TimeDependentHamiltonian, "matrix", "hamiltonians.td_matrix", _td)
    function(gaugecheck, "ambiguity_scan", "gaugecheck.ambiguity_scan")
    function(gaugecheck, "verify_spectral_equivalence", "gaugecheck.verify")
    function(gaugecheck, "gauge_unitary", "gaugecheck.gauge_unitary")
    function(detect, "significant_transitions", "detect.significant_transitions")
    function(detect, "rate_table", "detect.rate_table")
    function(detect, "detection_operator", "detect.detection_operator")
    function(dynamics, "evolve", "dynamics.evolve")
    function(np.linalg, "eigh", "linalg.eigh", _dim)
    function(np.linalg, "eigvalsh", "linalg.eigvalsh", _dim)
    function(cli, "write_csv", "cli.write")
    function(cli, "write_metadata", "cli.write")

    def uninstall():
        for ns, key, orig in reversed(undo):
            setattr(ns, key, orig)

    return uninstall


# Per-layer metrics read from the spans: (metric, unit).  The rest of the
# per-layer list is measured by run.py around the traced iteration.
SPAN_METRICS = [
    ("scenario.load.calls", "count"), ("scenario.load.s", "s"),
    ("modes.build_from_grid.s", "s"), ("modes.completeness_residual.s", "s"),
    ("hilbert.embed.calls", "count"), ("hilbert.embed.s", "s"),
    ("hilbert.generator_eigh.calls", "count"), ("hilbert.generator_eigh.s", "s"),
    ("hilbert.unitary.calls", "count"), ("hilbert.unitary.s", "s"),
    ("hilbert.conjugate.calls", "count"), ("hilbert.conjugate.s", "s"),
    ("hilbert.operator_check.s", "s"),
    ("hamiltonians.field_hamiltonian.s", "s"), ("hamiltonians.generator_matrix.s", "s"),
    ("hamiltonians.build.calls", "count"), ("hamiltonians.build.s", "s"),
    ("hamiltonians.build.max_dim", "count"),
    ("hamiltonians.eigenvalues.calls", "count"), ("hamiltonians.eigenvalues.s", "s"),
    ("hamiltonians.eigensystem.calls", "count"), ("hamiltonians.eigensystem.s", "s"),
    ("hamiltonians.td_matrix.calls", "count"), ("hamiltonians.td_matrix.s", "s"),
    ("hamiltonians.td_matrix.static_calls", "count"),
    ("gaugecheck.ambiguity_scan.s", "s"), ("gaugecheck.ladder_builds", "count"),
    ("gaugecheck.verify.s", "s"),
    ("gaugecheck.gauge_unitary.calls", "count"), ("gaugecheck.gauge_unitary.s", "s"),
    ("detect.significant_transitions.s", "s"), ("detect.rate_table.s", "s"),
    ("detect.detection_operator.calls", "count"), ("detect.detection_operator.s", "s"),
    ("dynamics.evolve.s", "s"),
    ("linalg.eigh.calls", "count"), ("linalg.eigh.s", "s"),
    ("linalg.eigh.work_computed", "count"),
    ("linalg.eigvalsh.calls", "count"), ("linalg.eigvalsh.s", "s"),
    ("linalg.eigvalsh.work_computed", "count"),
    ("cli.write.s", "s"),
    # one build_dipole at the largest D of the run (D = 882 on multimode),
    # inclusive times, median over those builds: the ROADMAP baseline row
    ("build_row.field_hamiltonian.ms", "ms"), ("build_row.generator_matrix.ms", "ms"),
    ("build_row.generator_eigh.ms", "ms"), ("build_row.conjugate.ms", "ms"),
    ("build_row.total.ms", "ms"), ("build_row.eigvalsh.ms", "ms"),
]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def span_metrics(spans: list) -> dict:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def descendants(span):
        for child in children[span.id]:
            yield child
            yield from descendants(child)

    def has_ancestor(span, name):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    out = {}
    for name, group in by_name.items():
        out[f"{name}.calls"] = len(group)
        out[f"{name}.s"] = sum(s.duration - sum(c.duration for c in children[s.id])
                               for s in group)
    for kernel in ("linalg.eigh", "linalg.eigvalsh"):
        out[f"{kernel}.work_computed"] = sum(s.attrs["n"] ** 3 for s in by_name[kernel])
    builds = by_name["hamiltonians.build"]
    out["hamiltonians.build.max_dim"] = max((s.attrs["dim"] for s in builds), default=0)
    out["hamiltonians.td_matrix.static_calls"] = sum(
        s.attrs["static"] for s in by_name["hamiltonians.td_matrix"])
    out["gaugecheck.ladder_builds"] = sum(
        has_ancestor(s, "gaugecheck.ambiguity_scan") for s in builds)

    top = max((s.attrs["dim"] for s in builds if s.attrs["builder"] == "build_dipole"),
              default=0)
    row = defaultdict(list)
    for b in builds:
        if b.attrs["builder"] != "build_dipole" or b.attrs["dim"] != top:
            continue
        inner = defaultdict(float)
        for d in descendants(b):
            inner[d.name] += d.duration
        for key, name in (("field_hamiltonian", "hamiltonians.field_hamiltonian"),
                          ("generator_matrix", "hamiltonians.generator_matrix"),
                          ("generator_eigh", "hilbert.generator_eigh"),
                          ("conjugate", "hilbert.conjugate")):
            row[key].append(inner[name] * 1e3)
        row["total"].append(b.duration * 1e3)
    row["eigvalsh"] = [s.duration * 1e3 for s in by_name["linalg.eigvalsh"]
                       if s.attrs["n"] == top]
    for key in ("field_hamiltonian", "generator_matrix", "generator_eigh", "conjugate",
                "total", "eigvalsh"):
        out[f"build_row.{key}.ms"] = _median(row[key])
    return {name: out.get(name, 0) for name, _ in SPAN_METRICS}
