"""Unitary time evolution and time-dependent gauge-equivalence checks.

`evolve` is one piecewise propagator.  It splits the time grid once at the
breakpoints of the coupling modulation (`TimeProfile.breakpoints`, where
mu'(t) may jump).  On a piece where mu'(t) = 0, H(t) is one fixed matrix in
either gauge: it is diagonalized once, sharing `ground_state`'s eigh at the
same coupling, and every grid state of the piece is written exactly from the
piece's start state.
Only pieces where mu'(t) != 0 (the ramp) are integrated, with the classic
fourth-order Runge-Kutta step and an embedded step-halving error estimate;
no step crosses a kink of mu', and H(t) is applied there, never formed.  A
`TimeDependentHamiltonian` is propagated in the eigenbasis of its generator,
where it applies H(t) from two fixed matrices and diagonal phases: the start
state is mapped into that basis and the recorded states back to the Fock
basis.  Static Hamiltonians are the one-static-piece case, and a bare
callable is dynamic throughout, split only at the breakpoints it is given.
Trajectories record normalized states on the requested time grid, real
observable series and the propagator's counters.
`ground_state` fixes the global phase of a start state by a Fock-basis
convention, so it does not depend on the basis H(t) is diagonalized in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvariantViolation
from .hamiltonians import (HamiltonianBundle, TimeDependentHamiltonian,
                           build_time_dependent, TD_EXTRA_TERM_SIGN)
from .hilbert import HilbertSpec, Operator, PAULI_Z, hermitian_part
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


def default_observables(space: HilbertSpec,
                        generator: Optional[np.ndarray] = None) -> dict:
    """Photon numbers per mode, sigma_z for a two-level matter factor, and
    (when available) the coupling generator X.  The sigma_z and X series are
    gauge-relative quantities: meaningful within one gauge, not across
    gauges."""
    obs = {}
    for k, fi in enumerate(space.photon_indices):
        obs[f"n{k}"] = space.embed(fi, np.diag(np.arange(space.factors[fi].dim)))
    for fi in space.matter_indices:
        if space.factors[fi].dim == 2:
            obs["sz"] = space.embed(fi, PAULI_Z)
    if generator is not None:
        obs["X"] = generator
    return obs


def ground_state(tdh: TimeDependentHamiltonian, t: float) -> np.ndarray:
    """The ground state of H(t) in the Fock basis, with its global phase fixed: the
    largest-magnitude Fock amplitude (the first one on a tie) is real and positive,
    whatever basis H(t) was diagonalized in."""
    psi = tdh.basis.to_fock(tdh.eigensystem(t)[1][:, 0])
    top = psi[np.argmax(np.abs(psi))]
    return psi * (np.conj(top) / abs(top))


def _as_hamiltonian(h) -> tuple:
    """Normalize the Hamiltonian argument; returns (eigh_fn, operator_fn, space,
    profile, basis): eigh_fn(t) diagonalizes H(t), operator_fn(t) is x -> H(t) x.

    Static inputs carry a constant profile and no operator_fn, a bare callable
    no eigh_fn and no profile; only a `TimeDependentHamiltonian` has a basis.
    Matrices are checked where they enter.
    """
    if isinstance(h, HamiltonianBundle):
        return (lambda t: h.eigensystem()), None, h.space, constant_profile(), None
    if isinstance(h, (Operator, np.ndarray)):
        eig = np.linalg.eigh(hermitian_part(getattr(h, "matrix", h), "static Hamiltonian"))
        return (lambda t: eig), None, getattr(h, "space", None), constant_profile(), None
    if isinstance(h, TimeDependentHamiltonian):
        return h.eigensystem, h.operator, h.space, h.profile, h.basis
    if callable(h):
        return None, (lambda t: hermitian_part(h(t), "H(t)").__matmul__), None, None, None
    raise TypeError(f"cannot evolve under {type(h).__name__}")


def _pieces(profile: Optional[TimeProfile], t0: float, t1: float,
            breakpoints: Sequence[float] = ()) -> list:
    """Maximal pieces (t_start, t_end, static?) of [t0, t1] between breakpoints: the
    profile's, or for a bare callable the given ones.

    A piece is static exactly when mu' vanishes at its midpoint; every piece
    of a bare callable is dynamic.
    """
    cuts = profile.breakpoints() if profile is not None else sorted(breakpoints)
    edges = [t0, *(b for b in cuts if t0 < b < t1), t1]
    return [(a, b, profile is not None and profile.mu_dot((a + b) / 2) == 0.0)
            for a, b in zip(edges, edges[1:])]


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


def evolve(h, psi0: np.ndarray, t_grid: Sequence[float],
           observables: Optional[Mapping[str, np.ndarray]] = None,
           tol: float = NORM_TOL, breakpoints: Sequence[float] = ()) -> Trajectory:
    """Propagate a normalized state over a strictly increasing `t_grid`.

    The horizon is split at the breakpoints of a `TimeDependentHamiltonian`'s
    profile, or of a bare callable at the given `breakpoints` (times where
    its H(t) may jump; no other input takes them).  Pieces where mu'(t) = 0
    (all of a static bundle, Operator or ndarray) are propagated exactly: one
    eigh of H per piece, each grid state written from the
    piece's start state.  Pieces where mu'(t) != 0 (all of a bare callable)
    integrate with adaptive RK4 at local error `tol` per unit time, applying
    H(t) unformed; a piece that ends on a breakpoint evaluates H(t) from its
    own side.  psi0 and the returned states are in the Fock basis (a bare
    callable's in its own).  A non-Hermitian H, static or returned by a
    callable, raises InvariantViolation, and norms that drift by `tol` or
    more raise ConvergenceError.  `Trajectory.stats` counts H evaluations
    (formed or applied), accepted and rejected steps, static and dynamic
    pieces, and records the final norm error.
    """
    eigh, operator, space, profile, basis = _as_hamiltonian(h)
    if len(breakpoints) and (profile is not None or basis is not None):
        raise ValueError("breakpoints are given for a bare callable only; a "
                         "TimeDependentHamiltonian takes them from its profile")
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
        gen = (h.couplings.generator_matrix(h.space)
               if isinstance(h, TimeDependentHamiltonian) else None)
        observables = default_observables(space, gen) if space is not None else {}
    obs_mats = {k: (v.matrix if isinstance(v, Operator) else np.asarray(v, dtype=complex))
                for k, v in observables.items()}

    stats = {"h_evaluations": 0, "accepted_steps": 0, "rejected_steps": 0,
             "static_pieces": 0, "dynamic_pieces": 0}

    states = np.empty((len(t_grid), psi0.shape[0]), dtype=complex)
    states[0] = psi = psi0 if basis is None else basis.from_fock(psi0)
    filled = 1  # grid points up to the current piece's start are written
    dt = (t_grid[-1] - t_grid[0]) / max(len(t_grid) * 4, 100)
    for t_start, t_end, piece_static in _pieces(profile, t_grid[0], t_grid[-1], breakpoints):
        stats["h_evaluations"] += 1  # H at the piece's midpoint or start; steps count theirs
        stop = int(np.searchsorted(t_grid, t_end, side="right"))
        stops = t_grid[filled:stop]
        if stops.size == 0 or stops[-1] < t_end:
            stops = np.append(stops, t_end)  # the next piece starts from here
        if piece_static:
            stats["static_pieces"] += 1
            out = _static_piece(*eigh((t_start + t_end) / 2), psi, stops - t_start)
        else:
            stats["dynamic_pieces"] += 1
            split = profile is not None or len(breakpoints)
            piece_fn = _interior(operator, t_start, t_end) if split else operator
            out = np.empty((stops.size, psi.shape[0]), dtype=complex)
            t, h_t = t_start, piece_fn(t_start)
            for j, t_next in enumerate(stops):
                psi, h_t, dt = _advance_adaptive(piece_fn, t, t_next, psi, h_t, tol, dt, stats)
                out[j] = psi
                t = t_next
        states[filled:stop] = out[:stop - filled]
        psi, filled = out[-1], stop
    if basis is not None:
        states = basis.to_fock(states.T).T
    # RK4 does not conserve the norm: refuse a trajectory that drifted too far
    drift = np.abs(np.linalg.norm(states, axis=1) - 1.0).max()
    if drift >= tol:
        raise ConvergenceError(f"norm drift {drift:.3e} exceeds tolerance {tol:g}")
    stats["norm_error"] = float(abs(np.linalg.norm(states[-1]) - 1.0))

    obs = {label: ((states.conj() @ m) * states).sum(axis=1).real
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
