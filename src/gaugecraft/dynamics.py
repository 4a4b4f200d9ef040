"""Unitary time evolution and time-dependent gauge-equivalence checks.

`evolve` is one piecewise propagator of a `TimeDependentHamiltonian`, the
H_C(t) or H_mp(t) of a coupling modulated by mu(t).  It splits the time grid
once at the breakpoints of the profile (`TimeProfile.breakpoints`, where
mu'(t) may jump).  On a piece where mu'(t) = 0, H(t) is one fixed matrix in
either gauge: it is diagonalized once, sharing `ground_state`'s eigh at the
same coupling, and every grid state of the piece is written exactly from the
piece's start state.
Only pieces where mu'(t) != 0 (the ramp) are integrated, with the classic
fourth-order Runge-Kutta step and an embedded step-halving error estimate;
no step crosses a kink of mu', and H(t) is applied there, never formed.  The
state is propagated in the eigenbasis of the generator X, where H(t) applies
from two fixed matrices and diagonal phases: the start state is mapped into
that basis and the recorded states back to the Fock basis.
Trajectories record normalized states on the requested time grid, real
observable series and the propagator's counters.  Every observable is read
from a diagonal, so no D x D observable is formed: photon numbers and
sigma_z from each factor's Fock populations, and <X> from the populations
of X's eigenbasis.
`ground_state` fixes the global phase of a start state by a Fock-basis
convention, so it does not depend on the basis H(t) is diagonalized in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hamiltonians import TimeDependentHamiltonian, build_time_dependent, TD_EXTRA_TERM_SIGN
from .hilbert import HilbertSpec
from .matter import EmitterSpec, TimeProfile
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


def factor_populations(space: HilbertSpec, states: np.ndarray) -> list:
    """Per factor of `space`, the populations of its levels in each Fock-basis state:
    one (n_states, factor dim) array per factor, summed over the other factors."""
    probs = np.abs(states.reshape((len(states),) + tuple(f.dim for f in space.factors))) ** 2
    axes = range(1, probs.ndim)
    return [probs.sum(axis=tuple(a for a in axes if a != k)) for k in axes]


def ground_state(tdh: TimeDependentHamiltonian, t: float) -> np.ndarray:
    """The ground state of H(t) in the Fock basis, with its global phase fixed: the
    largest-magnitude Fock amplitude (the first one on a tie) is real and positive,
    whatever basis H(t) was diagonalized in."""
    psi = tdh.basis.to_fock(tdh.eigensystem(t)[1][:, 0])
    top = psi[np.argmax(np.abs(psi))]
    return psi * (np.conj(top) / abs(top))


def _pieces(profile: TimeProfile, t0: float, t1: float) -> list:
    """Maximal pieces (t_start, t_end, static?) of [t0, t1] between the profile's
    breakpoints; a piece is static exactly when mu' vanishes at its midpoint."""
    edges = [t0, *(b for b in profile.breakpoints() if t0 < b < t1), t1]
    return [(a, b, profile.mu_dot((a + b) / 2) == 0.0) for a, b in zip(edges, edges[1:])]


def _static_piece(vals: np.ndarray, vecs: np.ndarray, psi: np.ndarray,
                  offsets: np.ndarray) -> np.ndarray:
    """States V exp(-i Lambda tau) V^dag psi at each offset tau from the piece start."""
    coeff = vecs.conj().T @ psi
    return (np.exp(-1j * np.outer(offsets, vals)) * coeff) @ vecs.T


def _rk4_step(k1, h_mid, h_1, psi, dt):
    """One classic RK4 step from its first stage k1 = -i H psi and H at its midpoint and end."""
    k2 = -1j * h_mid(psi + (dt / 2) * k1)
    k3 = -1j * h_mid(psi + (dt / 2) * k2)
    k4 = -1j * h_1(psi + dt * k3)
    return psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _advance_adaptive(op, t0, t1, psi, h_t0, tol_per_time, dt_init, stats):
    """Integrate from t0 to t1 with step-halving error control.

    `op(t)` is the operator x -> H(t) x and `h_t0` is op(t0).  Each attempted
    step compares one RK4 step with two half steps, which share H at the five
    times t, t + dt/4, ..., t + dt and the first stage -i H(t) psi: eleven
    applications of H.  An accepted step hands H(t + dt) on as the next step's
    H(t).  Returns (psi, H at the end, next step size).
    """
    t, dt = t0, min(dt_init, t1 - t0)
    min_step = max((t1 - t0), 1.0) * 1e-12
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        dt = min(dt, t1 - t)
        t_half = t + dt / 2
        h_q1, h_half, h_q3, h_end = op(t + dt / 4), op(t_half), op(t_half + dt / 4), op(t + dt)
        stats["h_evaluations"] += 4
        k1 = -1j * h_t0(psi)
        full = _rk4_step(k1, h_half, h_end, psi, dt)
        first = _rk4_step(k1, h_q1, h_half, psi, dt / 2)
        half = _rk4_step(-1j * h_half(first), h_q3, h_end, first, dt / 2)
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
    """fn(t) on one piece, continued to its ends from the inside.

    Evaluation times are clamped EDGE_OFFSET (relative) inside the piece, so a
    step that starts or ends on a breakpoint sees the piece's own one-sided
    mu'(t), not the value on the other side of the kink.
    """
    edge = min(EDGE_OFFSET * max(1.0, abs(t_start), abs(t_end)), (t_end - t_start) / 4)
    lo, hi = t_start + edge, t_end - edge
    return lambda t: fn(min(max(t, lo), hi))


def evolve(h: TimeDependentHamiltonian, psi0: np.ndarray, t_grid: Sequence[float],
           tol: float = NORM_TOL) -> Trajectory:
    """Propagate a normalized state under H(t) over a strictly increasing `t_grid`.

    The horizon is split at the breakpoints of `h.profile`.  Pieces where
    mu'(t) = 0 are propagated exactly: one eigh of H per piece, each grid
    state written from the piece's start state.  Pieces where mu'(t) != 0
    integrate with adaptive RK4 at local error `tol` per unit time, applying
    H(t) unformed; a piece that ends on a breakpoint evaluates H(t) from its
    own side.  psi0 and the returned states are in the Fock basis.  Norms
    that drift by `tol` or more raise ConvergenceError.

    The observables are the photon number n<k> of each mode, sigma_z of a
    two-level emitter and the generator X ("X"); the sigma_z and X series
    are gauge-relative, meaningful within one gauge, not across gauges.
    `Trajectory.stats` counts H evaluations (formed or applied), accepted and
    rejected steps, static and dynamic pieces, and records the final norm
    error.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("time grid must be a non-empty 1D sequence")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.space.dim,):
        raise ValueError(f"initial state has shape {psi0.shape}, the space has D = {h.space.dim}")
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state is not normalized (norm {nrm:.6f})")

    stats = {"h_evaluations": 0, "accepted_steps": 0, "rejected_steps": 0,
             "static_pieces": 0, "dynamic_pieces": 0}

    states = np.empty((len(t_grid), psi0.shape[0]), dtype=complex)
    states[0] = psi = h.basis.from_fock(psi0)
    filled = 1  # grid points up to the current piece's start are written
    dt = (t_grid[-1] - t_grid[0]) / max(len(t_grid) * 4, 100)
    for t_start, t_end, piece_static in _pieces(h.profile, t_grid[0], t_grid[-1]):
        stats["h_evaluations"] += 1  # H at the piece's midpoint or start; steps count theirs
        stop = int(np.searchsorted(t_grid, t_end, side="right"))
        stops = t_grid[filled:stop]
        if stops.size == 0 or stops[-1] < t_end:
            stops = np.append(stops, t_end)  # the next piece starts from here
        if piece_static:
            stats["static_pieces"] += 1
            out = _static_piece(*h.eigensystem((t_start + t_end) / 2), psi, stops - t_start)
        else:
            stats["dynamic_pieces"] += 1
            piece_fn = _interior(h.operator, t_start, t_end)
            out = np.empty((stops.size, psi.shape[0]), dtype=complex)
            t, h_t = t_start, piece_fn(t_start)
            for j, t_next in enumerate(stops):
                psi, h_t, dt = _advance_adaptive(piece_fn, t, t_next, psi, h_t, tol, dt, stats)
                out[j] = psi
                t = t_next
        states[filled:stop] = out[:stop - filled]
        psi, filled = out[-1], stop
    obs = {"X": np.abs(states) ** 2 @ h.basis.xi}  # <X> = sum_i xi_i |y_i|^2
    states = h.basis.to_fock(states.T).T
    # RK4 does not conserve the norm: refuse a trajectory that drifted too far
    drift = np.abs(np.linalg.norm(states, axis=1) - 1.0).max()
    if drift >= tol:
        raise ConvergenceError(f"norm drift {drift:.3e} exceeds tolerance {tol:g}")
    stats["norm_error"] = float(abs(np.linalg.norm(states[-1]) - 1.0))

    space = h.space
    pops = factor_populations(space, states)
    for k, fi in enumerate(space.photon_indices):
        obs[f"n{k}"] = pops[fi] @ np.arange(space.factors[fi].dim)
    for fi in space.matter_indices:
        if space.factors[fi].dim == 2:  # sigma_z = diag(+1, -1) on |e>, |g>
            obs["sz"] = pops[fi][:, 0] - pops[fi][:, 1]
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
    (psi_mp(0) = W(0) psi_C(0), default psi_C(0) = `ground_state` of H_C(0));
    W(t) = exp(-i mu(t) X).  Passing a flipped `extra_term_sign` provides the
    negative control that pins the sign of the multipolar extra term.
    """
    td_c = build_time_dependent(ms, em, "coulomb", profile, cutoffs)
    td_mp = build_time_dependent(ms, em, "multipolar", profile, cutoffs,
                                 extra_term_sign=extra_term_sign)
    t_grid = np.asarray(t_grid, dtype=float)
    if psi0 is None:
        psi0 = ground_state(td_c, t_grid[0])
    psi_mp0 = td_c.basis.apply(-profile.mu(t_grid[0]), psi0)
    traj_c = evolve(td_c, psi0, t_grid, tol=tol)
    traj_mp = evolve(td_mp, psi_mp0, t_grid, tol=tol)
    devs = np.array([np.linalg.norm(psi_mp - td_c.basis.apply(-profile.mu(t), psi_c))
                     for t, psi_c, psi_mp in zip(t_grid, traj_c.states, traj_mp.states)])
    return TdEquivalenceResult(float(devs.max()), t_grid, devs, traj_c, traj_mp)
