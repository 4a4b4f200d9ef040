"""Scenario documents: JSON import/export of mode sets, emitters, and run inputs.

Complex matrices travel as row-major lists of [re, im] pairs.  A scenario
document holds a mode set (inline or by file reference), an emitter, the
gauge parameter, Fock cutoffs, and optional sections consumed by individual
CLI commands.  `SCENARIO` is the one table of its key paths, each with its
kind, default and range; a document is checked against it once, at load.
The sections a command requires and the rules that tie values to one another
are checked where they are read.  Every error names the offending key path.
"""

from __future__ import annotations

import json
import math
import operator
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .dynamics import NORM_TOL
from .errors import ConfigError
from .hamiltonians import LongitudinalCoupling
from .matter import EmitterSpec, SingleParticle, TimeProfile
from .modes import Dielectric1D, ModeSet, PolaritonGrid, QnmSet


def encode_complex_matrix(m: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex matrix."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(m, dtype=complex).reshape(-1)]


def decode_complex_matrix(pairs: Sequence, path: str, shape: tuple) -> np.ndarray:
    """Checked [re, im] pairs as a complex matrix of `shape`."""
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.size != int(np.prod(shape)):
        raise ConfigError(f"'{path}' has {flat.size} entries, expected {np.prod(shape)}")
    return flat.reshape(shape)


def _subpath(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@contextmanager
def _decoding(path: str):
    """Run a decoder's body: a `ConfigError` passes, any other error becomes one,
    "'<path>' is not valid: <error>"."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"'{path}' is not valid: {exc}") from exc


# ------------------------------------------------------------- key kinds
# Each kind's `check(value, path)` returns the typed value or raises a ConfigError naming
# `path`; `default` is what an absent key reads as (None: absent), and `types` the JSON
# types an `Either` dispatches on.

class Num:
    """A JSON number read as `kind` (float or int) within the bounds gt, ge and le.

    A boolean, a string (even a numeric one) and a non-finite value are refused: NaN and
    Infinity are no JSON numbers, though Python's json reads them.  So is an int where the
    value has a fractional part, rather than truncated.
    """

    types = (int, float)
    BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "le": (operator.le, "<=")}

    def __init__(self, kind=float, default=None, **bounds):
        self.kind, self.default, self.bounds = kind, default, bounds

    def check(self, value, path: str):
        try:
            out = self.kind(value)
            if (isinstance(value, (bool, str)) or not math.isfinite(out)
                    or self.kind is int and out != float(value)):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"'{path}' must be {'an integer' if self.kind is int else 'a number'}"
                              f", got {value!r}") from None
        if self.bounds and not all(self.BOUNDS[op][0](out, b) for op, b in self.bounds.items()):
            span = " and ".join(f"{self.BOUNDS[op][1]} {b:g}" for op, b in self.bounds.items())
            raise ConfigError(f"'{path}' must be {span}, got {out:g}")
        return out


class Text:
    """A JSON string, one of `choices` if any are given."""

    types = (str,)

    def __init__(self, *choices, default=None):
        self.choices, self.default = choices, default

    def check(self, value, path: str):
        if self.choices and value not in self.choices:
            raise ConfigError(f"'{path}' must be one of {', '.join(self.choices)}, got {value!r}")
        if not isinstance(value, str):
            raise ConfigError(f"'{path}' must be a string, got {value!r}")
        return value


class ListOf:
    """A JSON list of `item`s, of `length` entries if one is given, each named by its index
    (by the list's own path if not `named`).  With `one`, an object alone stands for every
    entry and is named as entry [0]."""

    types = (list,)

    def __init__(self, item, default=None, length=None, named=True, one=False):
        self.item, self.default, self.length = item, default, length
        self.named, self.one = named, one

    def check(self, value, path: str):
        if self.one and isinstance(value, Mapping):
            return self.item.check(value, f"{path}[0]")
        if not isinstance(value, list) or self.length not in (None, len(value)):
            of = "" if self.length is None else f" of {self.length} entries"
            raise ConfigError(f"'{path}' must be a list{of}, got {value!r}")
        return [self.item.check(v, f"{path}[{k}]" if self.named else path)
                for k, v in enumerate(value)]


class Section:
    """A JSON object of `keys`, each with its kind, or of any labels, each an `each`.  An
    unknown key is refused, a `required` one must be given, and any other absent key reads
    as its default (an object default is checked in turn).  With `kinds`, the key `kind`
    names the keys read: only those are kept, and each of them without a default must be
    given.  With `make`, the section reads as `make(**keys)`, its errors named by path."""

    types = (Mapping,)

    def __init__(self, required=(), default=None, kinds=None, each=None, make=None, **keys):
        self.default, self.kinds, self.each, self.make = default, kinds, each, make
        self.required = ("kind",) if kinds else required
        self.keys = {"kind": Text(*kinds), **keys} if kinds else keys

    def check(self, value, path: str):
        if not isinstance(value, Mapping):
            raise ConfigError(f"'{path}' must be an object, got {value!r}")
        out = {}
        for key, item in value.items():
            kind = self.keys.get(key, self.each)
            if kind is None:
                raise ConfigError(f"unknown key '{_subpath(path, key)}'")
            out[key] = kind.check(item, _subpath(path, key))
        for key, kind in self.keys.items():
            if key in self.required and key not in out:
                raise ConfigError(f"missing key '{_subpath(path, key)}'")
            if key not in out:
                d = kind.default
                out[key] = kind.check(d, _subpath(path, key)) if isinstance(d, dict) else d
        if self.kinds:
            read = ("kind",) + self.kinds[out["kind"]]
            missing = [key for key in read if out[key] is None]
            if missing:
                raise ConfigError(f"missing key '{_subpath(path, missing[0])}'")
            out = {key: out[key] for key in read}
        if self.make is None:
            return out
        with _decoding(path):
            return self.make(**out)


class Either:
    """The one of `options` that takes the value's JSON type; `what` describes them all."""

    def __init__(self, what: str, *options, default=None):
        self.what, self.options, self.default = what, options, default

    def check(self, value, path: str):
        for option in self.options:
            if isinstance(value, option.types):
                return option.check(value, path)
        raise ConfigError(f"'{path}' must be {self.what}, got {value!r}")


NUMBERS = ListOf(Num())
VECTOR = ListOf(Num(), length=3)
PAIRS = ListOf(ListOf(Num(), length=2))  # row-major [re, im] pairs of a complex array
CUTOFF = Num(int, ge=0)
RAMP = ("start", "stop", "t0", "duration")


# -------------------------------------------- sections read as objects

def _emitter(levels, dipole_x, dipole_y, dipole_z, position_label, q, r_dip) -> EmitterSpec:
    if (q is None) != (r_dip is None):
        raise ConfigError(f"missing key 'emitter.{'q' if q is None else 'r_dip'}'")
    n = len(levels)
    dipole = [decode_complex_matrix(pairs, f"emitter.dipole_{c}", (n, n))
              for c, pairs in zip("xyz", (dipole_x, dipole_y, dipole_z))]
    return EmitterSpec(levels, dipole, position_label=position_label,
                       single_particle=None if q is None else SingleParticle(q, r_dip))


def _grid(omega, weight, labels, projections) -> PolaritonGrid:
    proj = [decode_complex_matrix(row, f"modes.grid.projections[{m}]", (len(omega),))
            for m, row in enumerate(projections)]
    return PolaritonGrid(labels or [str(k) for k in range(len(omega))], omega, weight, proj)


def _qnm(omega, gamma, overlap) -> QnmSet:
    m, path = len(omega), "modes.qnm.overlap"
    if not isinstance(overlap, Mapping):
        return QnmSet(omega, gamma, decode_complex_matrix(overlap, path, (m, m)))
    samples = [decode_complex_matrix(s, f"{path}.samples[{k}]", (m, m))
               for k, s in enumerate(overlap["samples"])]
    return QnmSet(omega, gamma, samples, overlap_freqs=overlap["freqs"])


def _dielectric(length, epsilon, n_points, c) -> Dielectric1D:
    if n_points not in (None, len(epsilon)):
        raise ConfigError(f"'modes.dielectric.n_points' = {n_points} does not match epsilon "
                          f"length {len(epsilon)}")
    return Dielectric1D(length, epsilon, c=c)


SCENARIO = Section(
    seed=Num(int, 0),
    modeset=Section(file=Text(), chi=PAIRS, profiles=Section(default={}, each=PAIRS),
                    derived_profiles=Section(each=PAIRS)),
    emitter=Section(("levels", "dipole_x", "dipole_y", "dipole_z"), make=_emitter,
                    levels=NUMBERS, dipole_x=PAIRS, dipole_y=PAIRS, dipole_z=PAIRS,
                    position_label=Text(default="emitter"), q=Num(), r_dip=VECTOR),
    gauge_theta=Num(float, 0.0, ge=0, le=1),
    fock_cutoffs=Either("an integer >= 0 or a list of them", CUTOFF,
                        ListOf(CUTOFF, named=False)),
    truncation=Text("correct", "naive", default="correct"),
    naive_order=Num(int, 1, ge=1),
    longitudinal=Either("'off' or an object", Text("off"), Section(
        ("omega", "coupling", "cutoff"), make=LongitudinalCoupling, omega=Num(),
        coupling=Num(), cutoff=CUTOFF, direction=ListOf(Num(), (1.0, 0.0, 0.0), length=3)),
        default="off"),
    time_profile=Section(
        default={"kind": "constant"}, make=TimeProfile,
        kinds={"constant": ("value",), "linear": RAMP, "raised_cosine": RAMP,
               "tabulated": ("times", "values")},
        value=Num(float, 1.0), start=Num(float, 0.0), stop=Num(float, 1.0),
        t0=Num(float, 0.0), duration=Num(gt=0), times=NUMBERS, values=NUMBERS),
    beyond_dipole=Section(("profile",), profile=ListOf(Section(
        kinds={"constant": ("value",), "cosine": ("amplitude", "k")},
        value=PAIRS, amplitude=PAIRS, k=VECTOR), one=True),
        quadrature_order=Num(int, 65, ge=1)),
    gauge_check=Section(default={}, spectral_tol=Num(float, 1e-6, gt=0), eta_grid=NUMBERS,
                        ground_tol=Num(float, 1e-7, gt=0), k=Num(int, 5, ge=1)),
    detector=Section(dipole=ListOf(Num(), (0.0, 0.0, 0.0), length=3),
                     position_label=Text(default="detector"), omega_d=Num(float, 1.0, gt=0),
                     transitions=ListOf(ListOf(Num(int), length=2)), count=Num(int, 3, ge=1)),
    evolve=Section(t_max=Num(float, 10.0, gt=0), n_times=Num(int, 101, ge=2),
                   state_checkpoints=ListOf(Num(int), ()),
                   tol=Num(float, NORM_TOL, gt=0, le=NORM_TOL),  # looser fails the norm check
                   gauge=Text("coulomb", "multipolar", default="coulomb"),
                   initial=Text("ground", "vacuum", default="ground")),
    modes=Section(
        grid=Section(("omega", "weight", "projections"), make=_grid, omega=NUMBERS,
                     weight=NUMBERS, labels=ListOf(Text()), projections=ListOf(PAIRS)),
        profile_points=Section(default={}, each=PAIRS),
        qnm=Section(("omega", "gamma", "overlap"), make=_qnm, omega=NUMBERS, gamma=NUMBERS,
                    overlap=Either("a list of [re, im] pairs or an object", PAIRS, Section(
                        ("freqs", "samples"), freqs=NUMBERS, samples=ListOf(PAIRS)))),
        frequency_grid=Section(default={}, span_factor=Num(float, 3.0, gt=0),
                               points_per_gamma=Num(float, 40.0, gt=0),
                               pole_halfwidth=Num(float, 50.0, ge=0),
                               n_background=Num(int, 4001, ge=0)),
        dielectric=Section(("length", "epsilon"), make=_dielectric, length=Num(gt=0),
                           epsilon=NUMBERS, n_points=Num(int), c=Num(float, 1.0, gt=0)),
        n_modes=Num(int, 5, ge=1)),
)


def apply_override(doc: dict, item: str):
    """Set the dotted key path of a "key=value" item, its value read as JSON or a string."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *parents, last = key.split(".")
    node = doc
    for p in parents:
        node = node.setdefault(p, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(f"override '{key}' does not address an object")
    node[last] = value


# ---------------------------------------------------------------- mode sets

def modeset_to_json(ms: ModeSet) -> dict:
    return {
        "chi": encode_complex_matrix(ms.chi),
        "profiles": {k: encode_complex_matrix(v) for k, v in ms.profiles.items()},
        "derived_profiles": {k: encode_complex_matrix(v)
                             for k, v in ms.derived_profiles.items()},
    }


def modeset_from_json(doc: Mapping, path: str = "modeset") -> ModeSet:
    """The mode set of a document checked against the table's `modeset` entries."""
    return _modeset(SCENARIO.keys["modeset"].check(doc, path), path)


def _modeset(section: Mapping, path: str) -> ModeSet:
    if section["chi"] is None:
        raise ConfigError(f"missing key '{path}.chi'")
    m = math.isqrt(len(section["chi"]))
    with _decoding(path):
        chi = decode_complex_matrix(section["chi"], f"{path}.chi", (m, m))
        profiles, derived = ({label: decode_complex_matrix(pairs, f"{path}.{key}.{label}", (m, 3))
                              for label, pairs in (section[key] or {}).items()}
                             for key in ("profiles", "derived_profiles"))
        return ModeSet(chi, profiles, derived or None)


def save_modeset(ms: ModeSet, path: Path):
    path.write_text(json.dumps(modeset_to_json(ms), sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def emitter_to_json(em: EmitterSpec) -> dict:
    doc = {
        "levels": [float(v) for v in em.levels],
        "dipole_x": encode_complex_matrix(em.dipole[0]),
        "dipole_y": encode_complex_matrix(em.dipole[1]),
        "dipole_z": encode_complex_matrix(em.dipole[2]),
        "position_label": em.position_label,
    }
    if em.single_particle is not None:
        doc["q"] = float(em.single_particle.q)
        doc["r_dip"] = [float(v) for v in em.single_particle.r_dip]
    return doc


# ------------------------------------------------------------- full document

class Scenario:
    """A scenario document checked against `SCENARIO`, with typed accessors.

    `doc` is the document as given, overrides applied; `values` is its checked form, every
    value typed and every absent key at its default.  Kinds, ranges and unknown keys are
    checked once, when the scenario is made.  The sections a command requires are checked
    by the accessors it calls, still before any numerics start.
    """

    def __init__(self, doc: Mapping, base_dir: Optional[Path] = None):
        if not isinstance(doc, Mapping):
            raise ConfigError("scenario document must be a JSON object")
        self.doc = dict(doc)
        self.values = SCENARIO.check(self.doc, "")
        self.base_dir = base_dir or Path(".")

    @classmethod
    def load(cls, path, overrides: Sequence[str] = ()) -> "Scenario":
        """The scenario of a JSON file, each "key=value" override applied before the check."""
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"scenario file {path} does not exist")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
        for item in overrides:
            apply_override(doc, item)
        return cls(doc, base_dir=path.parent)

    def refuse(self, command: str, keys: Sequence[str]):
        """`ConfigError` naming the first of these top-level keys whose value is not its
        default: a command that does not read a key refuses it rather than run without it."""
        for key in keys:
            if self.values[key] != SCENARIO.keys[key].default:
                raise ConfigError(f"'{key}' is not read by {command}: leave it out")

    def section(self, key: str) -> dict:
        """The checked top-level entry `key`; ConfigError if the document has none."""
        if self.values[key] is None:
            raise ConfigError(f"missing key '{key}'")
        return self.values[key]

    def modeset(self) -> ModeSet:
        section = self.section("modeset")
        if section["file"] is None:
            return _modeset(section, "modeset")
        ref = self.base_dir / section["file"]
        if not ref.exists():
            raise ConfigError(f"'modeset.file' references missing file {ref}")
        with _decoding("modeset.file"):
            return modeset_from_json(json.loads(ref.read_text(encoding="utf-8")))

    def cutoffs(self, n_modes: int):
        raw = self.section("fock_cutoffs")
        cutoffs = [raw] * n_modes if isinstance(raw, int) else raw
        if len(cutoffs) != n_modes:
            raise ConfigError(f"'fock_cutoffs' has {len(cutoffs)} entries, need {n_modes}")
        return tuple(cutoffs)
