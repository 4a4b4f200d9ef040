"""Unitary time evolution and time-dependent gauge-equivalence checks.

Static Hamiltonians are propagated exactly through their eigendecomposition;
time-dependent ones use the classic fourth-order one-step method with an
embedded step-halving error estimate.  Trajectories record normalized states
on the requested time grid together with real observable series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hamiltonians import (HamiltonianBundle, TimeDependentHamiltonian,
                           build_time_dependent, TD_EXTRA_TERM_SIGN)
from .hilbert import HilbertSpec, Operator, PAULI_Z, ladder_matrix
from .matter import EmitterSpec, TimeProfile
from .modes import ModeSet

NORM_TOL = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Time grid, normalized state vectors, and recorded observable series."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim) complex
    observables: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        norms = np.linalg.norm(states, axis=1)
        worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
        if worst >= NORM_TOL:
            raise InvariantViolation(f"trajectory norm drift {worst:.3e} exceeds {NORM_TOL:g}")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def default_observables(space: HilbertSpec,
                        generator: Optional[np.ndarray] = None) -> dict:
    """Photon numbers per mode, sigma_z for a two-level matter factor, and
    (when available) the coupling generator X.  The sigma_z and X series are
    gauge-relative quantities: meaningful within one gauge, not across
    gauges."""
    obs = {}
    for k, fi in enumerate(space.photon_indices):
        a = space.embed(fi, ladder_matrix(space.factors[fi].fock_cutoff))
        obs[f"n{k}"] = a.conj().T @ a
    for fi in space.matter_indices:
        if space.factors[fi].dim == 2:
            obs["sz"] = space.embed(fi, PAULI_Z)
    if generator is not None:
        obs["X"] = generator
    return obs


def _as_matrix_fn(h) -> tuple[Callable[[float], np.ndarray], Optional[HilbertSpec], bool]:
    """Normalize the Hamiltonian argument; returns (matrix_fn, space, static?)."""
    if isinstance(h, HamiltonianBundle):
        m = h.H.matrix
        return (lambda t: m), h.space, True
    if isinstance(h, Operator):
        m = h.matrix
        return (lambda t: m), h.space, True
    if isinstance(h, np.ndarray):
        return (lambda t: h), None, True
    if isinstance(h, TimeDependentHamiltonian):
        return h.matrix, h.space, False
    if callable(h):
        return (lambda t: np.asarray(h(t), dtype=complex)), None, False
    raise TypeError(f"cannot evolve under {type(h).__name__}")


def _rk4_step(fn, t, psi, h):
    h_mid = fn(t + h / 2)  # the two midpoint stages share one H(t + h/2)
    k1 = -1j * (fn(t) @ psi)
    k2 = -1j * (h_mid @ (psi + (h / 2) * k1))
    k3 = -1j * (h_mid @ (psi + (h / 2) * k2))
    k4 = -1j * (fn(t + h) @ (psi + h * k3))
    return psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _advance_adaptive(fn, t0, t1, psi, tol_per_time, h_init):
    """Integrate from t0 to t1 with step-halving error control; returns (psi, h)."""
    t, h = t0, min(h_init, t1 - t0)
    min_step = max((t1 - t0), 1.0) * 1e-12
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        full = _rk4_step(fn, t, psi, h)
        half = _rk4_step(fn, t + h / 2, _rk4_step(fn, t, psi, h / 2), h / 2)
        err = float(np.linalg.norm(full - half)) / 15.0
        tol = tol_per_time * h
        if err <= tol or h <= min_step:
            if h <= min_step and err > tol:
                raise ConvergenceError(
                    f"step control failed near t = {t:g} (error {err:.3e} at minimum step)")
            psi = half
            t += h
            growth = (tol / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.5, 0.9 * growth))
        else:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
    return psi, h


def evolve(h, psi0: np.ndarray, t_grid: Sequence[float],
           observables: Optional[Mapping[str, np.ndarray]] = None,
           tol: float = NORM_TOL, fixed_step: Optional[float] = None) -> Trajectory:
    """Propagate a normalized state over `t_grid` under a (possibly t-dependent) H.

    Static inputs (bundle, Operator, ndarray) evolve exactly through one
    eigendecomposition.  Time-dependent inputs integrate with adaptive RK4 at
    local error `tol` per unit time, or with a plain fixed step when
    `fixed_step` is given (used by convergence tests).
    """
    fn, space, static = _as_matrix_fn(h)
    t_grid = np.asarray(t_grid, dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state is not normalized (norm {nrm:.6f})")
    if observables is None:
        gen = h.generator.matrix if isinstance(h, TimeDependentHamiltonian) else None
        observables = default_observables(space, gen) if space is not None else {}
    obs_mats = {k: (v.matrix if isinstance(v, Operator) else np.asarray(v, dtype=complex))
                for k, v in observables.items()}

    states = np.empty((len(t_grid), psi0.shape[0]), dtype=complex)
    if static:
        m = fn(t_grid[0])
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        coeff = vecs.conj().T @ psi0
        for k, t in enumerate(t_grid):
            states[k] = vecs @ (np.exp(-1j * vals * (t - t_grid[0])) * coeff)
    else:
        psi = psi0.copy()
        states[0] = psi
        h_step = fixed_step if fixed_step is not None else (t_grid[-1] - t_grid[0]) / max(len(t_grid) * 4, 100)
        for k in range(1, len(t_grid)):
            if fixed_step is not None:
                t = t_grid[k - 1]
                while t < t_grid[k] - 1e-15 * max(1.0, abs(t_grid[k])):
                    step = min(fixed_step, t_grid[k] - t)
                    psi = _rk4_step(fn, t, psi, step)
                    t += step
            else:
                psi, h_step = _advance_adaptive(fn, t_grid[k - 1], t_grid[k], psi, tol, h_step)
            states[k] = psi
        # keep roundoff from accumulating into the recorded norms
        drift = np.abs(np.linalg.norm(states, axis=1) - 1.0).max()
        if drift >= tol:
            raise ConvergenceError(f"norm drift {drift:.3e} exceeds tolerance {tol:g}")

    obs = {label: np.real(np.einsum("ki,ij,kj->k", states.conj(), m, states))
           for label, m in obs_mats.items()}
    return Trajectory(t_grid, states, obs)


@dataclass(frozen=True)
class TdEquivalenceResult:
    """Deviation series of multipolar evolution from gauge-mapped Coulomb evolution."""

    max_deviation: float
    times: np.ndarray
    deviations: np.ndarray
    trajectory_coulomb: Trajectory
    trajectory_multipolar: Trajectory


def td_gauge_equivalence(ms: ModeSet, em: EmitterSpec, profile: TimeProfile,
                         t_grid: Sequence[float], cutoffs,
                         psi0: Optional[np.ndarray] = None, tol: float = NORM_TOL,
                         extra_term_sign: float = TD_EXTRA_TERM_SIGN) -> TdEquivalenceResult:
    """max over t of || psi_mp(t) - W(t) psi_C(t) || for a modulated coupling.

    Both gauges are evolved from gauge-consistently prepared initial states
    (psi_mp(0) = W(0) psi_C(0), default psi_C(0) = ground state of H_C(0));
    W(t) = exp(-i mu(t) X).  Passing a flipped `extra_term_sign` provides the
    negative control that pins the sign of the multipolar extra term.
    """
    td_c = build_time_dependent(ms, em, "coulomb", profile, cutoffs)
    td_mp = build_time_dependent(ms, em, "multipolar", profile, cutoffs,
                                 extra_term_sign=extra_term_sign)
    t_grid = np.asarray(t_grid, dtype=float)
    if psi0 is None:
        vals, vecs = np.linalg.eigh(td_c.matrix(t_grid[0]))
        psi0 = vecs[:, 0].astype(complex)
    psi_mp0 = td_c.gauge_map(t_grid[0]).matrix @ psi0
    traj_c = evolve(td_c, psi0, t_grid, tol=tol)
    traj_mp = evolve(td_mp, psi_mp0, t_grid, tol=tol)
    devs = np.empty(len(t_grid))
    for k, t in enumerate(t_grid):
        w = td_c.gauge_map(t).matrix
        devs[k] = np.linalg.norm(traj_mp.states[k] - w @ traj_c.states[k])
    return TdEquivalenceResult(float(devs.max()), t_grid, devs, traj_c, traj_mp)
