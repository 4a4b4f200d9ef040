"""Unitary time evolution and time-dependent gauge-equivalence checks.

`evolve` is one piecewise propagator of a `TimeDependentHamiltonian`, the
H_C(t) or H_mp(t) of a coupling modulated by mu(t).  It splits the time grid
once at the breakpoints of the profile (`TimeProfile.breakpoints`, where
mu'(t) may jump).  On a piece where mu'(t) = 0, H(t) is one fixed matrix in
either gauge: it is diagonalized once, sharing `ground_state`'s eigh at the
same coupling, and every grid state of the piece is written exactly from the
piece's start state.
Only pieces where mu'(t) != 0 (the ramp) are integrated, with DOP853, the
12-stage Dormand-Prince 8(5,3) pair: an 8th-order step whose 5th- and
3rd-order embedded estimates control the step size.  Each attempted step
evaluates H(t) at its eleven new stage times and applies each once; the
first stage reuses the previous step's last H, at the step's end (first same
as last).  No step crosses a kink of mu', and H(t) is applied there, never
formed.
H(t) is propagated in the sectors of its family (`TimeDependentHamiltonian.sectors`),
which it never leaves: the start state is split into the sectors where its coordinates
are nonzero (`TimeDependentHamiltonian.split`), and only those are propagated, as one
block (n, s) of their coordinates in the eigenbasis of the generator X.  A static piece
takes one n x n eigh per sector and a stage one product of each sector's block.  A
two-level emitter with a parity has two sectors of n = D/2, since X, H_F and h0
commute with (-1)^(sum n) (x) S at every t in either gauge, and the `ground` and
`vacuum` starts lie in one of them; every other emitter has one sector, the whole
space, where H(t) applies from two fixed D x D matrices and diagonal phases.  The
recorded states are mapped back to the Fock basis, where the amplitudes of a sector
not propagated are exactly zero.
Trajectories record normalized states on the requested time grid, real
observable series and the propagator's counters.  Every observable is read
from a diagonal, so no D x D observable is formed: photon numbers and
sigma_z from each factor's Fock populations, and <X> from the populations
of the coordinates propagated, where X is diagonal.
`ground_state` takes the ground state of H(t) from the sector of the family's
`ground_parity`, certified against the other sector by one Cholesky factorization
(`TimeDependentHamiltonian.ground_sector`), and fixes its global phase by a Fock-basis
convention, so it does not depend on the basis H(t) is diagonalized in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
    """The ground state of H(t) in the Fock basis, from the eigh of its sector
    (`TimeDependentHamiltonian.ground_sector`), with its global phase fixed: the
    largest-magnitude Fock amplitude (the first one on a tie) is real and positive,
    whatever basis H(t) was diagonalized in."""
    sector = tdh.ground_sector(t)
    psi = tdh.to_fock(tdh.eigensystem(t, sector)[1][None, :, :1], (sector,))[0]
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


# DOP853, the 12-stage Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed. 1993, Sec. II.10), with the coefficients of
# scipy/integrate/_ivp/dop853_coefficients.py.  Stage s is evaluated at t + C[s] dt on
# psi + dt * sum_j A[s, j] k_j; B weighs the 8th-order step, E5 and E3 the 5th- and
# 3rd-order error estimates.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])


def _strictly_lower(rows) -> np.ndarray:
    """The square matrix whose row s starts with rows[s - 1], zero elsewhere."""
    a = np.zeros((len(rows) + 1, len(rows) + 1))
    for s, row in enumerate(rows, start=1):
        a[s, :len(row)] = row
    return a


_A = _strictly_lower([
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
])
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1])
_E3 = _B - np.array([  # B minus the 3rd-order weights
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1])
_WEIGHTS = np.array([_B, _E5, _E3])


def _dop853_step(stages, t, psi, dt, k):
    """One DOP853 step of psi' = -i H(t) psi from t to t + dt.

    `stages(times)` gives the operators x -> H(t) x at the step's stage times
    t + C[1:] dt, all at once.  On entry k[0] holds the first stage -i H(t) psi;
    stages 2..12 are written to k[1:], stage s from H(t + C[s] dt) applied to
    psi + dt * (A[s, :s] @ k[:s]).  The last stage has C = 1, so its H is
    H(t + dt).  Returns the 8th-order state at t + dt, H(t + dt) and Hairer's
    error estimate per unit time, |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2) with
    e5 = E5 @ k and e3 = E3 @ k.
    """
    for s, h in enumerate(stages(t + _C[1:] * dt), start=1):
        k[s] = -1j * h(psi + dt * (_A[s, :s] @ k[:s]))
    step, e5, e3 = _WEIGHTS @ k
    sq5, sq3 = np.vdot(e5, e5).real, np.vdot(e3, e3).real
    rate = sq5 / np.sqrt(sq5 + 0.01 * sq3) if sq5 > 0 else 0.0
    return psi + dt * step, h, float(rate)


def _advance_adaptive(stages, t0, t1, psi, h_t0, tol_per_time, dt_init, stats):
    """Integrate from t0 to t1 with the DOP853 pair and its embedded error estimate.

    `stages(times)` gives the operators x -> H(t) x at those times and `h_t0` is
    H(t0)'s.  Each attempted
    step evaluates H at its eleven new stage times, the last at t + dt, and
    applies each once (`_dop853_step`).  A step is accepted when Hairer's
    error estimate dt |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2) is at most
    `tol_per_time` * dt; the step size then scales by
    0.9 (tol_per_time * dt / error)^(1/8), within [0.5, 5] after an accepted
    step and at least 0.2 after a rejected one.  An accepted step hands
    H(t + dt) on as the next step's H(t), and the next step's first stage
    -i H(t + dt) psi is its one further application (first same as last).
    So `stats` gains eleven H evaluations per attempted step and eleven
    applications plus one per accepted step.  Returns (psi, H at the end,
    next step size).
    """
    t, dt = t0, min(dt_init, t1 - t0)
    min_step = max((t1 - t0), 1.0) * 1e-12
    k = np.empty((len(_C), psi.shape[0]), dtype=complex)
    first_stage_due = True
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        if first_stage_due:
            k[0] = -1j * h_t0(psi)
            stats["h_applications"] += 1
        dt = min(dt, t1 - t)
        new, h_end, rate = _dop853_step(stages, t, psi, dt, k)
        stats["h_evaluations"] += len(_C) - 1
        stats["h_applications"] += len(_C) - 1
        growth = 0.9 * (tol_per_time / rate) ** 0.125 if rate > 0 else 5.0
        accepted = rate <= tol_per_time
        if not accepted and dt <= min_step:
            raise ConvergenceError(f"step control failed near t = {t:g} "
                                   f"(error {rate * dt:.3e} at minimum step)")
        if accepted:
            psi, h_t0 = new, h_end
            t += dt
            stats["accepted_steps"] += 1
            dt *= min(5.0, max(0.5, growth))
        else:
            stats["rejected_steps"] += 1
            dt *= max(0.2, growth)
        first_stage_due = accepted
    return psi, h_t0, dt


def _interior(fn, t_start, t_end):
    """fn(times) on one piece, continued to its ends from the inside.

    Evaluation times are clamped EDGE_OFFSET (relative) inside the piece, so a
    step that starts or ends on a breakpoint sees the piece's own one-sided
    mu'(t), not the value on the other side of the kink.
    """
    edge = min(EDGE_OFFSET * max(1.0, abs(t_start), abs(t_end)), (t_end - t_start) / 4)
    lo, hi = t_start + edge, t_end - edge
    return lambda times: fn(np.clip(times, lo, hi))


def evolve(h: TimeDependentHamiltonian, psi0: np.ndarray, t_grid: Sequence[float],
           tol: float = NORM_TOL) -> Trajectory:
    """Propagate a normalized state under H(t) over a strictly increasing `t_grid`.

    The horizon is split at the breakpoints of `h.profile`.  Only the sectors of `h` where
    psi0's coordinates are nonzero are propagated (`TimeDependentHamiltonian.split`), as one
    block of their coordinates.  Pieces where mu'(t) = 0 are propagated exactly: one eigh of
    H per piece and sector, each grid state written from the piece's start state.  Pieces
    where mu'(t) != 0 integrate with the adaptive DOP853 pair (`_advance_adaptive`) at local
    error `tol` per unit time, applying H(t) unformed, from a first step of an eighth of the
    piece; a piece that ends on a breakpoint evaluates H(t) from its own side.  The step
    control reads the norm of the whole block, so the steps are those of the state in the
    Fock basis.  psi0 and the returned states are in the Fock basis.  Norms that drift by
    `tol` or more raise ConvergenceError.

    The observables are the photon number n<k> of each mode, sigma_z of a
    two-level emitter and the generator X ("X"); the sigma_z and X series
    are gauge-relative, meaningful within one gauge, not across gauges.
    `Trajectory.stats` counts H evaluations ("h_evaluations": one per piece,
    at its midpoint or start, plus eleven per attempted step), applications
    of an unformed H ("h_applications": eleven per attempted step plus one
    per accepted step), accepted and rejected steps, static and dynamic
    pieces, and records the final norm error, the sectors propagated
    ("parity_sectors", such as [1], or None without sectors) and the
    dimension of each ("evolved_dim").
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

    stats = {"h_evaluations": 0, "h_applications": 0, "accepted_steps": 0,
             "rejected_steps": 0, "static_pieces": 0, "dynamic_pieces": 0}

    sectors, block = h.split(psi0)
    n, width = block.shape
    stats.update(parity_sectors=None if sectors == (None,) else list(sectors), evolved_dim=n)
    states = np.empty((len(t_grid), block.size), dtype=complex)
    states[0] = psi = block.ravel()
    stages = partial(h.operators, sectors=sectors)
    filled = 1  # grid points up to the current piece's start are written
    for t_start, t_end, piece_static in _pieces(h.profile, t_grid[0], t_grid[-1]):
        stats["h_evaluations"] += 1  # H at the piece's midpoint or start; steps count theirs
        stop = int(np.searchsorted(t_grid, t_end, side="right"))
        stops = t_grid[filled:stop]
        if stops.size == 0 or stops[-1] < t_end:
            stops = np.append(stops, t_end)  # the next piece starts from here
        if piece_static:
            stats["static_pieces"] += 1
            columns = psi.reshape(n, width).T
            out = np.stack([_static_piece(*h.eigensystem((t_start + t_end) / 2, sector), a,
                                          stops - t_start)
                            for sector, a in zip(sectors, columns)], axis=-1)
            out = out.reshape(len(stops), -1)
        else:
            stats["dynamic_pieces"] += 1
            piece_fn = _interior(stages, t_start, t_end)
            out = np.empty((stops.size, psi.shape[0]), dtype=complex)
            t, h_t, dt = t_start, piece_fn([t_start])[0], (t_end - t_start) / 8
            for j, t_next in enumerate(stops):
                psi, h_t, dt = _advance_adaptive(piece_fn, t, t_next, psi, h_t, tol, dt, stats)
                out[j] = psi
                t = t_next
        states[filled:stop] = out[:stop - filled]
        psi, filled = out[-1], stop
    states = states.reshape(len(t_grid), n, width)
    obs = {"X": (np.abs(states) ** 2).sum(axis=-1) @ h.family.sector_xi}  # <X> = sum xi |a|^2
    states = h.to_fock(states, sectors)
    # Runge-Kutta steps do not conserve the norm: refuse a trajectory that drifted too far
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
    W(t) = exp(-i mu(t) X), applied as a phase on the coordinates of each sector
    (`TimeDependentHamiltonian.gauge_map`), so that W(0) psi_C(0) keeps the sector of
    psi_C(0).  Both gauges read one family, so X's eigenbasis and its blocks are formed
    once.  Passing a flipped `extra_term_sign` provides the negative control that pins the
    sign of the multipolar extra term.
    """
    td_c = build_time_dependent(ms, em, "coulomb", profile, cutoffs)
    td_mp = TimeDependentHamiltonian("multipolar", td_c.family, profile, extra_term_sign)
    t_grid = np.asarray(t_grid, dtype=float)
    if psi0 is None:
        psi0 = ground_state(td_c, t_grid[0])
    psi_mp0 = td_c.gauge_map(-profile.mu(t_grid[0]), psi0)
    traj_c = evolve(td_c, psi0, t_grid, tol=tol)
    traj_mp = evolve(td_mp, psi_mp0, t_grid, tol=tol)
    devs = np.array([np.linalg.norm(psi_mp - td_c.gauge_map(-profile.mu(t), psi_c))
                     for t, psi_c, psi_mp in zip(t_grid, traj_c.states, traj_mp.states)])
    return TdEquivalenceResult(float(devs.max()), t_grid, devs, traj_c, traj_mp)
