"""Truncated matter models: level structure, dipole matrices, coupling profiles.

An `EmitterSpec` collects the bare energies of an N-level system, the three
Cartesian components of its truncated dipole matrix, the label of the field
point where its coupling profiles are evaluated, and (optionally) the
effective single-particle data used by the beyond-dipole builders.

Basis order matters: matrices are written in the order of `levels`, and for a
two-level emitter the convention is |e> first, so sigma_z = diag(+1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .hilbert import PAULI_X, hermitian_part


@dataclass(frozen=True)
class SingleParticle:
    """Effective single-particle data: charge q and displacement r_dip = d/q.

    Models one charge +q with a two-state position operator r_dip * sigma_x
    plus a static -q at the origin.
    """

    q: float
    r_dip: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_dip, dtype=float).reshape(3)
        object.__setattr__(self, "r_dip", r)
        if self.q == 0:
            raise ValueError("charge must be nonzero")


@dataclass(frozen=True)
class EmitterSpec:
    """N-level emitter: energies, Hermitian dipole components, profile point.

    `parity_signs` gives the emitter's parity S = diag(s), a sign s_i = +-1
    per level under which every dipole component is odd, S d S = -d.  The
    signs 2-colour the graph whose edges are the nonzero off-diagonal dipole
    entries; there are none when that graph has an odd cycle or a dipole
    diagonal entry is nonzero.  Because h0 = diag(levels) is even under any
    S, (-1)^(photon number) (x) S then commutes with every correctly or
    naively truncated dipole-gauge Hamiltonian of the emitter (see
    `hamiltonians`).
    """

    levels: np.ndarray
    dipole: np.ndarray  # (3, N, N) complex, Hermitian in each component
    position_label: str = "emitter"
    single_particle: Optional[SingleParticle] = None

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        dipole = np.asarray(self.dipole, dtype=complex)
        object.__setattr__(self, "levels", levels)
        n = levels.shape[0]
        if n < 1:
            raise ValueError("need at least one level")
        if dipole.shape != (3, n, n):
            raise ValueError(f"dipole must have shape (3, {n}, {n})")
        object.__setattr__(self, "dipole", np.array(
            [hermitian_part(dipole[c], f"dipole component {c}") for c in range(3)]))

    @property
    def n_levels(self) -> int:
        return self.levels.shape[0]

    @property
    def h0(self) -> np.ndarray:
        """Bare Hamiltonian diag(levels) in the emitter basis."""
        return np.diag(self.levels).astype(complex)

    @cached_property
    def parity_signs(self) -> Optional[np.ndarray]:
        """+-1 per level with S d S = -d for every dipole component, or None; computed
        once per emitter and kept read-only.

        Levels that no dipole entry connects get +1, as does the first level
        of every connected group, so a two-level emitter has (+1, -1).
        """
        d = self.dipole
        if np.any(np.diagonal(d, axis1=1, axis2=2) != 0):
            return None
        linked = np.any(d != 0, axis=0)
        signs = np.zeros(self.n_levels, dtype=int)
        for root in range(self.n_levels):
            if signs[root]:
                continue
            signs[root] = 1
            stack = [root]
            while stack:
                i = stack.pop()
                for j in np.flatnonzero(linked[i]):
                    if not signs[j]:
                        signs[j] = -signs[i]
                        stack.append(j)
                    elif signs[j] == signs[i]:
                        return None
        signs.flags.writeable = False
        return signs

    @property
    def is_tls(self) -> bool:
        return self.n_levels == 2


def tls(omega0: float, d: Sequence[float], position_label: str = "emitter",
        charge: Optional[float] = None) -> EmitterSpec:
    """Two-level emitter with parity symmetry.

    Levels are (+omega0/2, -omega0/2) in the |e>, |g> basis and the dipole is
    purely off-diagonal, d * sigma_x per component; diagonal elements vanish.
    A zero dipole gives a decoupled emitter.  When `charge` is supplied the
    effective single-particle data (q, r_dip = d/q) is attached.
    """
    if omega0 <= 0:
        raise ValueError("transition frequency must be positive")
    d = np.asarray(d, dtype=float).reshape(3)
    dipole = np.array([d[c] * PAULI_X for c in range(3)])
    sp = None
    if charge is not None:
        sp = SingleParticle(charge, d / charge)
    return EmitterSpec(np.array([+omega0 / 2, -omega0 / 2]), dipole,
                       position_label=position_label, single_particle=sp)


def truncated_position_function(f: Callable, spec: EmitterSpec) -> np.ndarray:
    """Even/odd decomposition of f(r) over the two-state position operator.

    Returns [f(r) + f(-r)]/2 * 1 + [f(r) - f(-r)]/2 * sigma_x evaluated at
    r = r_dip.  For scalar-valued f the result is the 2x2 matrix; for
    array-valued f an array with two trailing matrix axes is returned, one
    2x2 block per component.  The result always commutes with sigma_x and is
    linear in f.
    """
    if not spec.is_tls or spec.single_particle is None:
        raise ValueError("requires a two-level emitter with single_particle data")
    r = spec.single_particle.r_dip
    fp = np.asarray(f(r), dtype=complex)
    fm = np.asarray(f(-r), dtype=complex)
    if fp.shape != fm.shape:
        raise ValueError("f must return arrays of one fixed shape")
    even = (fp + fm) / 2
    odd = (fp - fm) / 2
    return even[..., None, None] * np.eye(2, dtype=complex) + odd[..., None, None] * PAULI_X


PROFILE_KINDS = ("constant", "linear", "raised_cosine", "tabulated")


@dataclass(frozen=True)
class TimeProfile:
    """Piecewise-C1 coupling modulation mu(t) with an analytic derivative.

    Kinds: "constant" (value), "linear" and "raised_cosine" (ramps from
    `start` to `stop` over [t0, t0 + duration]), and "tabulated" (linear
    interpolation of (times, values) with the segment slope as derivative).
    `breakpoints` lists the times where mu' may jump; time evolution splits
    its grid there and propagates exactly wherever mu' = 0.
    """

    kind: str
    value: float = 1.0
    start: float = 0.0
    stop: float = 1.0
    t0: float = 0.0
    duration: float = 1.0
    times: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind in ("linear", "raised_cosine") and self.duration <= 0:
            raise ValueError("ramp duration must be positive")
        if self.kind == "tabulated":
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.shape[0] < 2:
                raise ValueError("tabulated profile needs matching 1D times and values")
            if np.any(np.diff(t) <= 0):
                raise ValueError("tabulated times must be strictly increasing")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)

    def mu(self, t: float) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "tabulated":
            return float(np.interp(t, self.times, self.values))
        s = (t - self.t0) / self.duration
        if s <= 0:
            return self.start
        if s >= 1:
            return self.stop
        if self.kind == "linear":
            shape = s
        else:
            shape = 0.5 * (1 - np.cos(np.pi * s))
        return self.start + (self.stop - self.start) * shape

    def mu_dot(self, t: float) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "tabulated":
            t_nodes, v_nodes = self.times, self.values
            if t <= t_nodes[0] or t >= t_nodes[-1]:
                return 0.0
            k = int(np.searchsorted(t_nodes, t, side="right")) - 1
            return float((v_nodes[k + 1] - v_nodes[k]) / (t_nodes[k + 1] - t_nodes[k]))
        s = (t - self.t0) / self.duration
        if s <= 0 or s >= 1:
            return 0.0
        if self.kind == "linear":
            slope = 1.0
        else:
            slope = 0.5 * np.pi * np.sin(np.pi * s)
        return (self.stop - self.start) * slope / self.duration

    def breakpoints(self) -> tuple:
        """Increasing times at which mu'(t) may be discontinuous.

        (t0, t0 + duration) for the ramps, the nodes for "tabulated", and
        none for "constant".  Between two consecutive breakpoints mu' is
        either identically zero or zero at no interior point, so its value at
        the midpoint tells which.
        """
        if self.kind == "constant":
            return ()
        if self.kind == "tabulated":
            return tuple(float(t) for t in self.times)
        return (float(self.t0), float(self.t0 + self.duration))


def constant_profile(value: float = 1.0) -> TimeProfile:
    return TimeProfile("constant", value=value)


def raised_cosine_ramp(duration: float, t0: float = 0.0,
                       start: float = 0.0, stop: float = 1.0) -> TimeProfile:
    return TimeProfile("raised_cosine", start=start, stop=stop, t0=t0, duration=duration)


def linear_ramp(duration: float, t0: float = 0.0,
                start: float = 0.0, stop: float = 1.0) -> TimeProfile:
    return TimeProfile("linear", start=start, stop=stop, t0=t0, duration=duration)
