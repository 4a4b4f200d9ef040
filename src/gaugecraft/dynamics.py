"""Unitary time evolution and time-dependent gauge-equivalence checks.

`evolve` is one piecewise propagator.  It splits the time grid once at the
breakpoints of the coupling modulation (`TimeProfile.breakpoints`, where
mu'(t) may jump).  On a piece where mu'(t) = 0, H(t) is one fixed matrix in
either gauge: it is evaluated and diagonalized once, and the state at every
grid point of the piece is written exactly from the piece's start state.
Only pieces where mu'(t) != 0 (the ramp) are integrated, with the classic
fourth-order Runge-Kutta step and an embedded step-halving error estimate;
no step crosses a kink of mu'.  Static Hamiltonians are the one-static-piece
case and bare callables the one-dynamic-piece case.  Trajectories record
normalized states on the requested time grid, real observable series and the
propagator's counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hamiltonians import (HamiltonianBundle, TimeDependentHamiltonian,
                           build_time_dependent, TD_EXTRA_TERM_SIGN)
from .hilbert import HilbertSpec, Operator, PAULI_Z, hermitian_part, ladder_matrix
from .matter import EmitterSpec, TimeProfile, constant_profile
from .modes import ModeSet

NORM_TOL = 1e-8
# how far inside a dynamic piece (relative to |t|) H(t) is evaluated at its ends
EDGE_OFFSET = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """Time grid, normalized state vectors, recorded observable series, and the
    propagator's counters (`stats`, see `evolve`)."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim) complex
    observables: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

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


def _as_matrix_fn(h) -> tuple[Callable[[float], np.ndarray], Optional[HilbertSpec],
                              Optional[TimeProfile]]:
    """Normalize the Hamiltonian argument; returns (matrix_fn, space, profile).

    Static inputs carry a constant profile, a bare callable none.
    """
    if isinstance(h, HamiltonianBundle):
        m = h.H.matrix
        return (lambda t: m), h.space, constant_profile()
    if isinstance(h, (Operator, np.ndarray)):  # checked here, where it enters
        m = hermitian_part(getattr(h, "matrix", h), "static Hamiltonian")
        return (lambda t: m), getattr(h, "space", None), constant_profile()
    if isinstance(h, TimeDependentHamiltonian):
        return h.matrix, h.space, h.profile
    if callable(h):
        return (lambda t: np.asarray(h(t), dtype=complex)), None, None
    raise TypeError(f"cannot evolve under {type(h).__name__}")


def _pieces(profile: Optional[TimeProfile], t0: float, t1: float) -> list:
    """Maximal pieces (t_start, t_end, static?) of [t0, t1] between breakpoints.

    A piece is static exactly when mu' vanishes at its midpoint; without a
    profile (a bare callable) the whole horizon is one dynamic piece.
    """
    if profile is None:
        return [(t0, t1, False)]
    edges = [t0, *(b for b in profile.breakpoints() if t0 < b < t1), t1]
    return [(a, b, profile.mu_dot((a + b) / 2) == 0.0) for a, b in zip(edges, edges[1:])]


def _static_piece(m: np.ndarray, psi: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """States V exp(-i Lambda tau) V^dag psi at each offset tau from the piece start."""
    vals, vecs = np.linalg.eigh(m)
    coeff = vecs.conj().T @ psi
    return (np.exp(-1j * np.outer(offsets, vals)) * coeff) @ vecs.T


def _rk4_step(h_0, h_mid, h_1, psi, dt):
    """One classic RK4 step given H at its start, midpoint and end."""
    k1 = -1j * (h_0 @ psi)
    k2 = -1j * (h_mid @ (psi + (dt / 2) * k1))
    k3 = -1j * (h_mid @ (psi + (dt / 2) * k2))
    k4 = -1j * (h_1 @ (psi + dt * k3))
    return psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _advance_adaptive(fn, t0, t1, psi, h_t0, tol_per_time, dt_init, stats):
    """Integrate from t0 to t1 with step-halving error control.

    `h_t0` is H(t0).  Each attempted step compares one RK4 step with two half
    steps, which share H at the five times t, t + dt/4, ..., t + dt; an
    accepted step hands H(t + dt) on as the next step's H(t).  Returns
    (psi, H at the end, next step size).
    """
    t, dt = t0, min(dt_init, t1 - t0)
    min_step = max((t1 - t0), 1.0) * 1e-12
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        dt = min(dt, t1 - t)
        t_half = t + dt / 2
        h_q1, h_half, h_q3, h_end = fn(t + dt / 4), fn(t_half), fn(t_half + dt / 4), fn(t + dt)
        full = _rk4_step(h_t0, h_half, h_end, psi, dt)
        half = _rk4_step(h_half, h_q3, h_end,
                         _rk4_step(h_t0, h_q1, h_half, psi, dt / 2), dt / 2)
        err = float(np.linalg.norm(full - half)) / 15.0
        tol = tol_per_time * dt
        if err <= tol or dt <= min_step:
            if dt <= min_step and err > tol:
                raise ConvergenceError(
                    f"step control failed near t = {t:g} (error {err:.3e} at minimum step)")
            psi, h_t0 = half, h_end
            t += dt
            stats["accepted_steps"] += 1
            growth = (tol / err) ** 0.2 if err > 0 else 5.0
            dt *= min(5.0, max(0.5, 0.9 * growth))
        else:
            stats["rejected_steps"] += 1
            dt *= max(0.2, 0.9 * (tol / err) ** 0.2)
    return psi, h_t0, dt


def _interior(fn, t_start, t_end):
    """H(t) on one piece, continued to its ends from the inside.

    Evaluation times are clamped EDGE_OFFSET (relative) inside the piece, so a
    step that starts or ends on a breakpoint sees the piece's own one-sided
    mu'(t), not the value on the other side of the kink.
    """
    edge = min(EDGE_OFFSET * max(1.0, abs(t_start), abs(t_end)), (t_end - t_start) / 4)
    lo, hi = t_start + edge, t_end - edge
    return lambda t: fn(min(max(t, lo), hi))


def evolve(h, psi0: np.ndarray, t_grid: Sequence[float],
           observables: Optional[Mapping[str, np.ndarray]] = None,
           tol: float = NORM_TOL) -> Trajectory:
    """Propagate a normalized state over a strictly increasing `t_grid`.

    The horizon is split at the breakpoints of a `TimeDependentHamiltonian`'s
    profile.  Pieces where mu'(t) = 0 (all of a static bundle, Operator or
    ndarray) are propagated exactly: one H evaluation and one eigh per piece,
    each grid state written from the piece's start state.  Pieces where
    mu'(t) != 0 (all of a bare callable) integrate with adaptive RK4 at local
    error `tol` per unit time.  A non-Hermitian static Operator or ndarray
    raises InvariantViolation, and norms that drift by `tol` or more raise
    ConvergenceError.  `Trajectory.stats` counts H evaluations,
    accepted and rejected steps, static and dynamic pieces, and records the
    final norm error.
    """
    fn, space, profile = _as_matrix_fn(h)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("time grid must be a non-empty 1D sequence")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state is not normalized (norm {nrm:.6f})")
    if observables is None:
        gen = h.generator.matrix if isinstance(h, TimeDependentHamiltonian) else None
        observables = default_observables(space, gen) if space is not None else {}
    obs_mats = {k: (v.matrix if isinstance(v, Operator) else np.asarray(v, dtype=complex))
                for k, v in observables.items()}

    stats = {"h_evaluations": 0, "accepted_steps": 0, "rejected_steps": 0,
             "static_pieces": 0, "dynamic_pieces": 0}

    def counted(t):
        stats["h_evaluations"] += 1
        return fn(t)

    states = np.empty((len(t_grid), psi0.shape[0]), dtype=complex)
    states[0] = psi = psi0
    filled = 1  # grid points up to the current piece's start are written
    dt = (t_grid[-1] - t_grid[0]) / max(len(t_grid) * 4, 100)
    for t_start, t_end, piece_static in _pieces(profile, t_grid[0], t_grid[-1]):
        stop = int(np.searchsorted(t_grid, t_end, side="right"))
        stops = t_grid[filled:stop]
        if stops.size == 0 or stops[-1] < t_end:
            stops = np.append(stops, t_end)  # the next piece starts from here
        if piece_static:
            stats["static_pieces"] += 1
            out = _static_piece(counted((t_start + t_end) / 2), psi, stops - t_start)
        else:
            stats["dynamic_pieces"] += 1
            piece_fn = counted if profile is None else _interior(counted, t_start, t_end)
            out = np.empty((stops.size, psi.shape[0]), dtype=complex)
            t, h_t = t_start, piece_fn(t_start)
            for j, t_next in enumerate(stops):
                psi, h_t, dt = _advance_adaptive(piece_fn, t, t_next, psi, h_t, tol, dt, stats)
                out[j] = psi
                t = t_next
        states[filled:stop] = out[:stop - filled]
        psi, filled = out[-1], stop
    # RK4 does not conserve the norm: refuse a trajectory that drifted too far
    drift = np.abs(np.linalg.norm(states, axis=1) - 1.0).max()
    if drift >= tol:
        raise ConvergenceError(f"norm drift {drift:.3e} exceeds tolerance {tol:g}")
    stats["norm_error"] = float(abs(np.linalg.norm(states[-1]) - 1.0))

    obs = {label: np.real(np.einsum("ki,ij,kj->k", states.conj(), m, states))
           for label, m in obs_mats.items()}
    return Trajectory(t_grid, states, obs, stats)


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
