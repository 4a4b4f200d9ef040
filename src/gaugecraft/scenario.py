"""Scenario documents: JSON import/export of mode sets, emitters, and run inputs.

Complex matrices travel as row-major lists of [re, im] pairs.  A scenario
document holds a mode set (inline or by file reference), an emitter, the
gauge parameter, Fock cutoffs, and optional sections consumed by individual
CLI commands.  Every validation error names the offending key path.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .hamiltonians import GaugeParam, LongitudinalCoupling
from .matter import EmitterSpec, SingleParticle, TimeProfile, constant_profile
from .modes import Dielectric1D, ModeSet, PolaritonGrid, QnmSet


def encode_complex_matrix(m: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


def decode_complex_matrix(pairs: Sequence, path: str,
                          shape: Optional[tuple] = None) -> np.ndarray:
    try:
        flat = np.array([complex(p[0], p[1]) for p in pairs])
    except (TypeError, IndexError) as exc:
        raise ConfigError(f"'{path}' must be a list of [re, im] pairs") from exc
    if shape is None:
        n = math.isqrt(flat.size)
        if n * n != flat.size:
            raise ConfigError(f"'{path}' has {flat.size} entries, not a square matrix")
        shape = (n, n)
    if flat.size != int(np.prod(shape)):
        raise ConfigError(f"'{path}' has {flat.size} entries, expected {np.prod(shape)}")
    return flat.reshape(shape)


def _get(doc: Mapping, key: str, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"missing key '{path}.{key}'" if path else f"missing key '{key}'")
        return default
    return doc[key]


def number(value, path: str, kind=float):
    """`value` converted by `kind` (float or int); ConfigError naming `path` otherwise.

    A boolean, a string (even a numeric one) and a non-finite value are refused: NaN and
    Infinity are no JSON numbers, though Python's json reads them.  So is an int where the
    value has a fractional part, rather than truncated.
    """
    try:
        out = kind(value)
        if (isinstance(value, (bool, str)) or not math.isfinite(out)
                or kind is int and out != float(value)):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{path}' must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None
    return out


def number_list(values, path: str, kind=float, length: Optional[int] = None) -> list:
    """Each entry of a JSON list (of `length` entries, if given) through `number`, its
    index in the key path."""
    if not isinstance(values, list) or length is not None and len(values) != length:
        of = f" of {length} numbers" if length is not None else ""
        raise ConfigError(f"'{path}' must be a list{of}, got {values!r}")
    return [number(v, f"{path}[{k}]", kind) for k, v in enumerate(values)]


def _subpath(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _numbers(doc: Mapping, key: str, path: str) -> np.ndarray:
    """The required list doc[key] as a float array, each entry through `number`."""
    return np.array(number_list(_get(doc, key, path), _subpath(path, key)), dtype=float)


@contextmanager
def _decoding(path: str, what: str):
    """Run a decoder's body: a `ConfigError` passes, any other error becomes one,
    "'<path>' is not a valid <what>: <error>"."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"'{path}' is not a valid {what}: {exc}") from exc


# ---------------------------------------------------------------- mode sets

def modeset_to_json(ms: ModeSet) -> dict:
    return {
        "chi": encode_complex_matrix(ms.chi),
        "profiles": {k: encode_complex_matrix(v) for k, v in ms.profiles.items()},
        "derived_profiles": {k: encode_complex_matrix(v)
                             for k, v in ms.derived_profiles.items()},
    }


def modeset_from_json(doc: Mapping, path: str = "modeset") -> ModeSet:
    with _decoding(path, "mode set"):
        chi = decode_complex_matrix(_get(doc, "chi", path), _subpath(path, "chi"))
        m = chi.shape[0]
        profiles = {}
        for label, pairs in _get(doc, "profiles", path, required=False, default={}).items():
            profiles[label] = decode_complex_matrix(pairs, f"{path}.profiles.{label}", (m, 3))
        derived = None
        if "derived_profiles" in doc and doc["derived_profiles"]:
            derived = {label: decode_complex_matrix(pairs, f"{path}.derived_profiles.{label}",
                                                    (m, 3))
                       for label, pairs in doc["derived_profiles"].items()}
            for label in profiles:
                if label not in derived:
                    raise ConfigError(f"'{path}.derived_profiles' is missing point {label!r}")
        return ModeSet(chi, profiles, derived)


def save_modeset(ms: ModeSet, path: Path):
    path.write_text(json.dumps(modeset_to_json(ms), sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


# ------------------------------------------------------------------ emitter

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


def emitter_from_json(doc: Mapping, path: str = "emitter") -> EmitterSpec:
    with _decoding(path, "emitter"):
        levels = np.array(number_list(_get(doc, "levels", path), _subpath(path, "levels")))
        n = levels.shape[0]
        dipole = np.array([
            decode_complex_matrix(_get(doc, key, path), _subpath(path, key), (n, n))
            for key in ("dipole_x", "dipole_y", "dipole_z")
        ])
        label = _get(doc, "position_label", path, required=False, default="emitter")
        sp = None
        if "q" in doc or "r_dip" in doc:
            r_dip = np.array(number_list(_get(doc, "r_dip", path), _subpath(path, "r_dip")))
            if r_dip.shape != (3,):
                raise ConfigError(f"'{path}.r_dip' must be a 3-vector")
            sp = SingleParticle(number(_get(doc, "q", path), _subpath(path, "q")), r_dip)
        return EmitterSpec(levels, dipole, position_label=label, single_particle=sp)


# ------------------------------------------------------------ other inputs

def time_profile_from_json(doc: Mapping, path: str = "time_profile") -> TimeProfile:
    with _decoding(path, "time profile"):
        kind = _get(doc, "kind", path)
        if kind == "constant":
            return constant_profile(number(doc.get("value", 1.0), f"{path}.value"))
        if kind in ("linear", "raised_cosine"):
            return TimeProfile(kind,
                               start=number(doc.get("start", 0.0), f"{path}.start"),
                               stop=number(doc.get("stop", 1.0), f"{path}.stop"),
                               t0=number(doc.get("t0", 0.0), f"{path}.t0"),
                               duration=number(_get(doc, "duration", path), f"{path}.duration"))
        if kind == "tabulated":
            return TimeProfile("tabulated", times=_numbers(doc, "times", path),
                               values=_numbers(doc, "values", path))
    raise ConfigError(f"'{path}.kind' must be one of constant, linear, raised_cosine, tabulated")


def dielectric_from_json(doc: Mapping, path: str = "dielectric") -> Dielectric1D:
    with _decoding(path, "dielectric"):
        eps = _numbers(doc, "epsilon", path)
        n_points = doc.get("n_points")
        if n_points is not None and number(n_points, f"{path}.n_points", int) != eps.shape[0]:
            raise ConfigError(f"'{path}.n_points' = {n_points} does not match epsilon length "
                              f"{eps.shape[0]}")
        return Dielectric1D(number(_get(doc, "length", path), f"{path}.length"), eps,
                            c=number(doc.get("c", 1.0), f"{path}.c"))


def polariton_grid_from_json(doc: Mapping, path: str = "grid") -> PolaritonGrid:
    with _decoding(path, "polariton grid"):
        omega, weight = _numbers(doc, "omega", path), _numbers(doc, "weight", path)
        labels = doc.get("labels", [str(k) for k in range(omega.shape[0])])
        k = omega.shape[0]
        proj_pairs = _get(doc, "projections", path)
        proj = np.array([decode_complex_matrix(row, f"{path}.projections[{m}]", (k,))
                         for m, row in enumerate(proj_pairs)])
        return PolaritonGrid(tuple(labels), omega, weight, proj)


def qnm_from_json(doc: Mapping, path: str = "qnm") -> QnmSet:
    with _decoding(path, "QNM set"):
        omega, gamma = _numbers(doc, "omega", path), _numbers(doc, "gamma", path)
        m = omega.shape[0]
        overlap_doc = _get(doc, "overlap", path)
        if isinstance(overlap_doc, Mapping):
            freqs = _numbers(overlap_doc, "freqs", _subpath(path, "overlap"))
            sample_pairs = _get(overlap_doc, "samples", _subpath(path, "overlap"))
            samples = np.array([
                decode_complex_matrix(s, f"{path}.overlap.samples[{k}]", (m, m))
                for k, s in enumerate(sample_pairs)])
            return QnmSet(omega, gamma, samples, overlap_freqs=freqs)
        return QnmSet(omega, gamma, decode_complex_matrix(overlap_doc,
                                                          _subpath(path, "overlap"), (m, m)))


# ------------------------------------------------------------- full document

class Scenario:
    """Validated scenario document with typed accessors.

    Required sections are checked lazily by the accessors so each CLI command
    can demand exactly what it needs, still before any numerics start.
    """

    def __init__(self, doc: Mapping, base_dir: Optional[Path] = None):
        if not isinstance(doc, Mapping):
            raise ConfigError("scenario document must be a JSON object")
        self.doc = dict(doc)
        self.base_dir = base_dir or Path(".")

    @classmethod
    def load(cls, path) -> "Scenario":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"scenario file {path} does not exist")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
        return cls(doc, base_dir=path.parent)

    @property
    def seed(self) -> int:
        seed = self.doc.get("seed", 0)
        if type(seed) is not int:
            raise ConfigError("'seed' must be an integer")
        return seed

    def modeset(self) -> ModeSet:
        section = _get(self.doc, "modeset", "")
        if isinstance(section, Mapping) and "file" in section:
            if not isinstance(section["file"], str):
                raise ConfigError(f"'modeset.file' must be a string, got {section['file']!r}")
            with _decoding("modeset.file", "mode set file"):
                ref = self.base_dir / section["file"]
                if not ref.exists():
                    raise ConfigError(f"'modeset.file' references missing file {ref}")
                section = json.loads(ref.read_text(encoding="utf-8"))
        return modeset_from_json(section)

    def emitter(self) -> EmitterSpec:
        return emitter_from_json(_get(self.doc, "emitter", ""))

    def gauge(self) -> GaugeParam:
        theta = self.doc.get("gauge_theta", 0.0)
        if type(theta) not in (int, float):
            raise ConfigError("'gauge_theta' must be a number")
        with _decoding("gauge_theta", "gauge parameter"):
            return GaugeParam(float(theta))

    def cutoffs(self, n_modes: int):
        raw = _get(self.doc, "fock_cutoffs", "")
        cutoffs = [raw] * n_modes if type(raw) is int else raw
        if not isinstance(cutoffs, list) or not all(type(v) is int and v >= 0 for v in cutoffs):
            raise ConfigError("'fock_cutoffs' must be an integer >= 0 or a list of them")
        if len(cutoffs) != n_modes:
            raise ConfigError(f"'fock_cutoffs' has {len(cutoffs)} entries, need {n_modes}")
        return tuple(cutoffs)

    def truncation(self) -> str:
        val = self.doc.get("truncation", "correct")
        if val not in ("correct", "naive"):
            raise ConfigError("'truncation' must be 'correct' or 'naive'")
        return val

    def naive_order(self) -> int:
        order = self.doc.get("naive_order", 1)
        if type(order) is not int or order < 1:
            raise ConfigError("'naive_order' must be a positive integer")
        return order

    def longitudinal(self) -> Optional[LongitudinalCoupling]:
        section = self.doc.get("longitudinal", "off")
        if section == "off":
            return None
        if not isinstance(section, Mapping):
            raise ConfigError("'longitudinal' must be 'off' or an object")
        with _decoding("longitudinal", "longitudinal coupling"):
            return LongitudinalCoupling(
                omega=number(_get(section, "omega", "longitudinal"), "longitudinal.omega"),
                coupling=number(_get(section, "coupling", "longitudinal"), "longitudinal.coupling"),
                cutoff=number(_get(section, "cutoff", "longitudinal"), "longitudinal.cutoff", int),
                direction=tuple(number_list(section.get("direction", [1.0, 0.0, 0.0]),
                                            "longitudinal.direction", length=3)))

    def time_profile(self) -> TimeProfile:
        section = self.doc.get("time_profile")
        if section is None:
            return constant_profile()
        return time_profile_from_json(section)

    def section(self, key: str, required: bool = True) -> Mapping:
        val = _get(self.doc, key, "", required=required, default={})
        if not isinstance(val, Mapping):
            raise ConfigError(f"'{key}' must be an object")
        return val
