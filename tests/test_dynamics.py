"""The piecewise propagator against independent integrators, its counters, and `evolve` input
errors."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import gaugecraft.dynamics as dynamics
from dense_oracle import DenseSystem, fock_td_matrix, generator_matrix, ladder, pauli
from gaugecraft import (ConvergenceError, ModeSet, TimeProfile, build_time_dependent,
                        constant_profile, couplings, evolve, linear_ramp, raised_cosine_ramp,
                        standard_space, tls)
from gaugecraft.cli import main
from gaugecraft.dynamics import ground_state
from gaugecraft.scenario import emitter_to_json, modeset_to_json

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

TOL = 1e-8
STAGES = len(dynamics._C)  # stages per Runge-Kutta step
CHI = np.array([[1.0, 0.15], [0.15, 1.3]])
TWO_MODES = ModeSet(CHI, {"emitter": [(0.5, 0.2, 0.0), (0.3, -0.3, 0.1)]})
EMITTER = tls(1.0, (0.6, 0.2, 0.0))
CUTOFFS = (3, 3)  # D = 32
# each profile with the times where its mu' jumps, written out independently
PROFILES = {
    "raised_cosine": (raised_cosine_ramp(duration=5.0, t0=1.0), (1.0, 6.0)),
    "linear": (linear_ramp(duration=5.0, t0=1.0), (1.0, 6.0)),
    "tabulated": (TimeProfile("tabulated", times=np.array([1.0, 2.0, 3.5, 6.0]),
                              values=np.array([0.0, 0.5, 0.5, 1.0])), (1.0, 2.0, 3.5, 6.0)),
}
GRIDS = {
    "on_breakpoints": np.linspace(0.0, 12.0, 25),   # every kink is a grid point
    "straddling": np.linspace(0.3, 11.7, 20),       # every kink falls between grid points
}


def counting(td):
    """Wrap td.operators, td.eigensystem and td.matrix; returns the times H(t) is evaluated
    at (applied or diagonalized), the times it is diagonalized at, the times it is
    formed at, and the times an operator H(t) is applied at, once per application.
    `eigensystem` forms H through `td.matrix`, so every formed H is counted, whoever
    forms it; a piece that shares the ground state's eigh forms none."""
    times, diagonalized, formed, applied = [], [], [], []
    operators, eigensystem, matrix = td.operators, td.eigensystem, td.matrix

    def counted_operators(ts, *args, **kwargs):
        times.extend(ts)
        return [lambda x, t=t, h=h: applied.append(t) or h(x)
                for t, h in zip(ts, operators(ts, *args, **kwargs))]

    def counted_eigensystem(t, *args):
        times.append(t)
        diagonalized.append(t)
        return eigensystem(t, *args)

    def counted_matrix(t, *args):
        formed.append(t)
        return matrix(t, *args)

    td.operators, td.eigensystem, td.matrix = counted_operators, counted_eigensystem, counted_matrix
    return times, diagonalized, formed, applied


def dop853_reference(h, psi0, t_grid, kinks):
    """solve_ivp(DOP853) under the callable h(t) segment by segment between the given
    kinks of mu'.

    Inside a segment H is smooth; its ends take the segment's one-sided H,
    evaluated a hair inside.
    """
    edges = [t_grid[0], *(k for k in kinks if t_grid[0] < k < t_grid[-1]), t_grid[-1]]
    states = np.empty((len(t_grid), psi0.shape[0]), dtype=complex)
    states[0] = psi = psi0
    for a, b in zip(edges, edges[1:]):
        lo, hi = a + 1e-12, b - 1e-12
        inside = np.flatnonzero((t_grid > a) & (t_grid <= b))
        t_eval = np.union1d(t_grid[inside], [b])
        sol = solve_ivp(lambda t, y: -1j * (h(min(max(t, lo), hi)) @ y), (a, b), psi,
                        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=t_eval)
        states[inside] = sol.y[:, :len(inside)].T
        psi = sol.y[:, -1]
    return states


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("gauge", ["coulomb", "multipolar"])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_agrees_with_dop853(kind, gauge, grid):
    profile, kinks = PROFILES[kind]
    t_grid = GRIDS[grid]
    td = build_time_dependent(TWO_MODES, EMITTER, gauge, profile, CUTOFFS)
    psi0 = ground_state(td, t_grid[0])
    traj = evolve(td, psi0, t_grid, tol=TOL)
    dense = DenseSystem(TWO_MODES, EMITTER, CUTOFFS)  # H(t) in the Fock basis
    ref = dop853_reference(lambda t: dense.td_matrix(gauge, profile, t), psi0, t_grid, kinks)
    err = np.linalg.norm(traj.states - ref, axis=1).max()
    assert err <= TOL * (t_grid[-1] - t_grid[0])


def test_constant_profile_is_exact():
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", constant_profile(0.8), CUTOFFS)
    psi0 = np.zeros(td.space.dim, dtype=complex)
    psi0[0] = 1.0
    t_grid = np.linspace(0.0, 30.0, 13)
    traj = evolve(td, psi0, t_grid)
    h = fock_td_matrix(td, 0.0)
    ref = np.array([expm(-1j * h * t) @ psi0 for t in t_grid])
    assert np.abs(traj.states - ref).max() <= 1e-12
    assert traj.stats["static_pieces"] == 1 and traj.stats["dynamic_pieces"] == 0
    assert traj.stats["h_evaluations"] == 1


@pytest.mark.parametrize("t_max", [3000.0, 6000.0])
def test_long_horizon_keeps_the_norm(t_max):
    ms = ModeSet(np.array([[1.0]]), {"emitter": [(0.7, 0.0, 0.0)]})
    td = build_time_dependent(ms, tls(1.0, (1.0, 0.0, 0.0)), "multipolar",
                              raised_cosine_ramp(duration=5.0, t0=0.0), 15)
    t_grid = np.linspace(0.0, t_max, 601)
    traj = evolve(td, ground_state(td, 0.0), t_grid)
    assert traj.stats["norm_error"] <= 1e-9
    assert np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() <= 1e-9


def test_calls_do_not_grow_past_the_ramp():
    profile, _ = PROFILES["raised_cosine"]
    counts = []
    for t_max in (50.0, 500.0, 5000.0):
        td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", profile, CUTOFFS)
        psi0 = ground_state(td, 0.0)
        times, diagonalized, formed, _ = counting(td)
        t_grid = np.concatenate([np.linspace(0.0, 8.0, 17), np.linspace(10.0, t_max, 40)])
        traj = evolve(td, psi0, t_grid)
        assert traj.stats["h_evaluations"] == len(times)
        assert traj.stats["static_pieces"] == len(diagonalized) == 2
        # no H(t) formed on the ramp; the first piece shares the ground state's H(0)
        assert formed == diagonalized[1:]
        counts.append(len(times))
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_calls_where_mu_dot_vanishes_are_one_per_static_piece(kind):
    profile, _ = PROFILES[kind]
    td = build_time_dependent(TWO_MODES, EMITTER, "coulomb", profile, CUTOFFS)
    psi0 = ground_state(td, 0.0)
    times, diagonalized, formed, _ = counting(td)
    traj = evolve(td, psi0, GRIDS["on_breakpoints"])
    flat = [t for t in times if profile.mu_dot(t) == 0.0]
    assert len(flat) <= traj.stats["static_pieces"] == len(diagonalized)
    assert all(profile.mu_dot(t) == 0.0 for t in diagonalized)
    assert formed == diagonalized[1:]  # the first piece shares the ground state's H(0)


@pytest.mark.parametrize("gauge", ["coulomb", "multipolar"])
def test_ground_state_and_the_first_static_piece_share_one_eigh(gauge, monkeypatch):
    """t = 0 lies in the profile's first static piece: H(0) is diagonalized once for the
    start state and that piece, and the states are those of separate solves.  The ground
    state lies in one parity sector, so each static piece solves one D/2 x D/2 block."""
    profile, _ = PROFILES["tabulated"]
    build = lambda: build_time_dependent(TWO_MODES, EMITTER, gauge, profile, CUTOFFS)
    td, fresh = build(), build()
    psi0 = ground_state(fresh, 0.0)
    fresh.eigensystem(11.0, fresh.ground_sector(0.0))  # drops the kept H(0): the first
    # piece solves its own
    want = evolve(fresh, psi0, GRIDS["on_breakpoints"])
    sizes = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m, *a, **k: sizes.append(len(m)) or original(m, *a, **k))
    got = evolve(td, ground_state(td, 0.0), GRIDS["on_breakpoints"])
    assert sizes == [td.space.dim // 2] * got.stats["static_pieces"]
    assert got.stats == want.stats
    assert np.array_equal(got.states, want.states)


def test_steps_reuse_hamiltonians():
    """One new H per stage after the first of each attempted step (the first reuses the
    previous step's last) plus H at the start of each piece, and the first H(t) of a
    piece that shares the ground state's eigh is not formed again.  The start state
    spreads over the whole spectrum, so the first step of a piece is too long.  It has
    weight in both parity sectors: each static piece diagonalizes one block per sector,
    and only the ground state's sector shares its eigh of H(0)."""
    profile, _ = PROFILES["tabulated"]
    td = build_time_dependent(TWO_MODES, EMITTER, "coulomb", profile, CUTOFFS)
    ground_state(td, 0.0)  # the first static piece shares this eigh of H(0)
    psi0 = np.full(td.space.dim, td.space.dim ** -0.5, dtype=complex)
    assert td.split(psi0)[0] == td.sectors == (1, -1)
    shared = td.sectors.index(td.ground_sector(0.0))
    times, diagonalized, formed, _ = counting(td)
    s = evolve(td, psi0, GRIDS["straddling"]).stats
    assert s["dynamic_pieces"] == 2 and s["static_pieces"] == 3
    assert len(diagonalized) == 2 * s["static_pieces"]
    assert s["rejected_steps"] > 0  # too long a step fails and shrinks
    assert formed == diagonalized[:shared] + diagonalized[shared + 1:]
    attempted = s["accepted_steps"] + s["rejected_steps"]
    assert s["h_evaluations"] == (STAGES - 1) * attempted + s["dynamic_pieces"] + s["static_pieces"]
    assert len(times) == s["h_evaluations"] + s["static_pieces"]


@pytest.mark.parametrize("start", ["ground", "spread"])
def test_applications_are_one_per_stage(start):
    """Each attempted step applies H once per stage after the first; an accepted step's
    last H, H(t + dt), is applied once more to the new state as the next step's first
    stage (first same as last).  The piece's first stage is applied at its start, and
    its last step's, which no step needs, is not."""
    profile, _ = PROFILES["raised_cosine"]
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", profile, CUTOFFS)
    psi0 = ground_state(td, 0.0)
    if start == "spread":
        psi0 = np.full(td.space.dim, td.space.dim ** -0.5, dtype=complex)
    _, _, _, applied = counting(td)
    s = evolve(td, psi0, GRIDS["straddling"]).stats
    attempted = s["accepted_steps"] + s["rejected_steps"]
    assert s["dynamic_pieces"] == 1 and (s["rejected_steps"] > 0) == (start == "spread")
    assert s["h_applications"] == len(applied)
    assert len(applied) == (STAGES - 1) * attempted + s["accepted_steps"]
    assert all(profile.mu_dot(t) != 0.0 for t in applied)


def test_tableau_order_conditions():
    """Each stage's weights sum to its time, the 8th-order weights integrate t^q exactly
    for q <= 7, and both error weights annihilate a constant."""
    assert STAGES == 12
    assert np.abs(dynamics._A.sum(axis=1) - dynamics._C).max() <= 4e-15
    assert np.array_equal(dynamics._A, np.tril(dynamics._A, -1))
    for q in range(8):
        assert abs(dynamics._B @ dynamics._C ** q - 1 / (q + 1)) <= 4e-15
    assert abs(dynamics._B @ dynamics._C ** 8 - 1 / 9) > 1e-6  # order 8, not 9
    assert abs(dynamics._E5.sum()) <= 4e-15 and abs(dynamics._E3.sum()) <= 4e-15


def test_one_step_error_is_of_ninth_order():
    """One step on a smooth 2 x 2 H(t): a spin in a field rotating at rate w, solved
    exactly in the co-rotating frame.  Halving dt shrinks the local error by 2^9."""
    sx, sy, sz = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    delta, rabi, w = 0.7, 0.9, 1.3
    h = lambda t: 0.5 * delta * sz + rabi * (np.cos(w * t) * sx + np.sin(w * t) * sy)
    frame = lambda t: np.diag(np.exp([-0.5j * w * t, 0.5j * w * t]))
    h_rot = 0.5 * (delta - w) * sz + rabi * sx
    t0, psi = 0.3, np.array([0.6, 0.8j])

    def error(dt):
        k = np.empty((STAGES, 2), dtype=complex)
        k[0] = -1j * h(t0) @ psi
        stages = lambda times: [lambda x, t=t: h(t) @ x for t in times]
        got, _, _ = dynamics._dop853_step(stages, t0, psi, dt, k)
        want = (frame(t0 + dt) @ expm(-1j * h_rot * dt) @ frame(t0).conj().T) @ psi
        return np.linalg.norm(got - want)

    errors = [error(dt) for dt in (0.8, 0.4, 0.2)]
    assert errors[-1] > 1e-13  # above rounding
    for big, small in zip(errors, errors[1:]):
        assert 2 ** 8.5 <= big / small <= 2 ** 9.5


def test_step_control_failure_raises_and_exits_3(tmp_path, monkeypatch, capsys):
    """The multipolar H(t) of a linear ramp jumps by mu' X at the ramp's ends.  Integrated
    as one dynamic piece, unsplit at those jumps, a step that lands on one cannot meet the
    tolerance at any step size: `evolve` raises, and the command exits 3."""
    profile = linear_ramp(3.0, 0.7)
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", profile, CUTOFFS)
    psi0 = ground_state(td, 0.0)
    config = write_scenario(tmp_path, {"kind": "linear", "t0": 0.7, "duration": 3.0})
    assert run_evolve(config, tmp_path / "split", "evolve.t_max=7.3") == 0
    monkeypatch.setattr(dynamics, "_pieces", lambda profile, t0, t1: [(t0, t1, False)])
    with pytest.raises(ConvergenceError, match="step control failed"):
        evolve(td, psi0, np.linspace(0.05, 7.3, 30))
    assert run_evolve(config, tmp_path / "whole", "evolve.t_max=7.3") == 3
    assert "step control failed" in capsys.readouterr().err


def test_norm_drift_raises(monkeypatch):
    """A step that grows the norm at a rate of 1e-6 is caught by the drift check.

    The growth scales the step's result, not its stages, so the embedded error
    estimate does not see it."""
    step = dynamics._dop853_step

    def growing(op, t, psi, dt, k):
        new, h_end, rate = step(op, t, psi, dt, k)
        return new * (1 + 1e-6 * dt), h_end, rate

    monkeypatch.setattr(dynamics, "_dop853_step", growing)
    td = build_time_dependent(ModeSet(np.array([[1.0]]), {"emitter": [(0.7, 0.0, 0.0)]}),
                              tls(1.0, (1.0, 0.0, 0.0)), "coulomb", linear_ramp(2.0), 1)
    with pytest.raises(ConvergenceError, match="norm drift"):
        evolve(td, ground_state(td, 0.0), [0.0, 1.0, 2.0])


@pytest.mark.parametrize("length", [9, 16])
def test_start_state_of_the_wrong_length_is_refused(length):
    td = build_time_dependent(ModeSet(np.array([[1.0]]), {"emitter": [(0.7, 0.0, 0.0)]}),
                              tls(1.0, (1.0, 0.0, 0.0)), "coulomb", linear_ramp(2.0), 3)
    assert td.space.dim == 8
    psi0 = np.zeros(length, dtype=complex)
    psi0[0] = 1.0
    with pytest.raises(ValueError, match=rf"shape \({length},\).*D = 8"):
        evolve(td, psi0, [0.0, 1.0])


def test_observables_match_the_einsum_form():
    """Each series read from a diagonal equals <psi|O|psi> of its dense matrix."""
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", PROFILES["linear"][0], CUTOFFS)
    traj = evolve(td, ground_state(td, 0.0), GRIDS["straddling"])
    space = td.space
    a = [ladder(space, k) for k in range(2)]
    obs = {"n0": a[0].conj().T @ a[0], "n1": a[1].conj().T @ a[1],
           "sz": pauli(space, 0)[2],
           "X": generator_matrix(couplings(TWO_MODES, EMITTER).eta_matrices, space)}
    assert sorted(traj.observables) == ["X", "n0", "n1", "sz"]
    for label, m in obs.items():
        want = np.einsum("ki,ij,kj->k", traj.states.conj(), m, traj.states).real
        assert np.abs(traj.observables[label] - want).max() <= 1e-13


@pytest.mark.parametrize("t_grid", [[0.0, 1.0, 1.0, 2.0], [0.0, -5.0], [3.0, 2.0, 1.0]])
def test_grid_must_increase(t_grid):
    td = build_time_dependent(TWO_MODES, EMITTER, "coulomb", PROFILES["linear"][0], CUTOFFS)
    with pytest.raises(ValueError, match="strictly increasing"):
        evolve(td, ground_state(td, 0.0), t_grid)


# ------------------------------------------------------------------ CLI

def write_scenario(tmp_path, profile=None):
    section = {"t_max": 20.0, "n_times": 41, "gauge": "multipolar",
               "state_checkpoints": [0, 10, 40]}
    doc = {"seed": 0, "modeset": modeset_to_json(TWO_MODES), "emitter": emitter_to_json(EMITTER),
           "fock_cutoffs": list(CUTOFFS), "evolve": section,
           "time_profile": profile or {"kind": "raised_cosine", "t0": 1.0, "duration": 5.0}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def run_evolve(config, out, *overrides):
    argv = ["evolve", "--config", str(config), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    return main(argv)


def test_evolve_command_golden(tmp_path):
    out = tmp_path / "out"
    assert run_evolve(write_scenario(tmp_path), out) == 0
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    counters = meta["counters"]
    assert counters["static_pieces"] == 2 and counters["dynamic_pieces"] == 1
    assert counters["accepted_steps"] > 0 and counters["rejected_steps"] >= 0
    attempted = counters["accepted_steps"] + counters["rejected_steps"]
    assert counters["h_evaluations"] == (STAGES - 1) * attempted + 3
    assert counters["h_applications"] == (STAGES - 1) * attempted + counters["accepted_steps"]
    assert 0.0 <= meta["diagnostics"]["norm_error"] <= TOL
    states = json.loads((out / "states.json").read_text(encoding="utf-8"))
    assert [s["time"] for s in states] == [0.0, 5.0, 20.0]
    rows = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 42


def test_evolve_metadata_reports_top_fock_population(tmp_path):
    """Per mode, the largest population of |N> over the recorded states, against a dense
    reduction of every state in states.json."""
    out = tmp_path / "out"
    assert run_evolve(write_scenario(tmp_path), out, "evolve.initial=vacuum", "fock_cutoffs=[3,2]",
                      f"evolve.state_checkpoints={list(range(41))}") == 0
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    states = json.loads((out / "states.json").read_text(encoding="utf-8"))
    psi = np.array([[complex(*c) for c in s["state"]] for s in states])
    space = standard_space((3, 2), 2)
    want = []
    for fi in space.photon_indices:
        top = np.zeros(space.factors[fi].dim)
        top[-1] = 1.0
        projector = space.embed(fi, np.diag(top))
        want.append(np.einsum("ki,ij,kj->k", psi.conj(), projector, psi).real.max())
    got = meta["diagnostics"]["top_fock_population"]
    assert len(got) == 2 and min(got) > 1e-6
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("gauge", ["coulomb", "multipolar"])
def test_initial_ground_state_has_the_fock_phase_convention(tmp_path, gauge):
    """The t = 0 state of states.json is the dense Fock-basis ground state of H(0), its
    largest-magnitude amplitude made real and positive: no phase from the basis H(0) is
    diagonalized in.  The ramp is under way at t = 0, so H(0) couples."""
    out = tmp_path / "out"
    assert run_evolve(write_scenario(tmp_path), out, f"evolve.gauge={gauge}",
                      "time_profile.t0=-2.0") == 0
    state = json.loads((out / "states.json").read_text(encoding="utf-8"))[0]
    got = np.array([complex(*c) for c in state["state"]])
    profile = raised_cosine_ramp(duration=5.0, t0=-2.0)
    vals, vecs = np.linalg.eigh(DenseSystem(TWO_MODES, EMITTER, CUTOFFS).td_matrix(
        gauge, profile, 0.0))
    assert vals[1] - vals[0] > 1e-3
    want = vecs[:, 0]
    top = want[np.argmax(np.abs(want))]
    want = want * (np.conj(top) / abs(top))
    assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("overrides, key", [
    (("evolve.t_max=-5", "time_profile.t0=-4"), "'evolve.t_max'"),
    (("evolve.t_max=0",), "'evolve.t_max'"),
    (("evolve.n_times=1",), "'evolve.n_times'"),
    (("evolve.n_times=0",), "'evolve.n_times'"),
    (("evolve.n_times=201", "evolve.state_checkpoints=[0,500]"),
     "'evolve.state_checkpoints[1]'"),
    (("evolve.state_checkpoints=[-1]",), "'evolve.state_checkpoints[0]'"),
    (("evolve.n_times=abc",), "'evolve.n_times'"),
    (('evolve.state_checkpoints=["x"]',), "'evolve.state_checkpoints[0]'"),
    # a tol above the trajectory's norm check drifts past it (exit 4), one <= 0 stalls (exit 3)
    (("evolve.tol=1e-2", "evolve.t_max=200"), "'evolve.tol'"),
    (("evolve.tol=0",), "'evolve.tol'"),
    (("evolve.tol=-1e-9",), "'evolve.tol'"),
])
def test_evolve_command_rejects_bad_input(tmp_path, capsys, overrides, key):
    assert run_evolve(write_scenario(tmp_path), tmp_path / "out", *overrides) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("doc, profile", [
    ({"kind": "constant", "value": 0.8}, constant_profile(0.8)),
    ({"kind": "linear", "t0": 1.0, "duration": 5.0}, linear_ramp(5.0, 1.0)),
    ({"kind": "tabulated", "times": [1.0, 2.0, 3.5, 6.0], "values": [0.0, 0.5, 0.5, 1.0]},
     PROFILES["tabulated"][0]),
])
def test_evolve_command_reads_each_time_profile(tmp_path, doc, profile):
    """The command's trajectory and states equal the library's under the same profile."""
    out = tmp_path / "out"
    assert run_evolve(write_scenario(tmp_path, doc), out) == 0
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", profile, CUTOFFS)
    want = evolve(td, ground_state(td, 0.0), np.linspace(0.0, 20.0, 41))
    header, *rows = [line.split(",") for line in
                     (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()]
    got = np.array(rows, dtype=float)
    assert header == ["time"] + sorted(want.observables)
    assert np.abs(got[:, 0] - want.times).max() <= 1e-12
    for k, label in enumerate(header[1:], start=1):
        assert np.abs(got[:, k] - want.observables[label]).max() <= 1e-12
    for state in json.loads((out / "states.json").read_text(encoding="utf-8")):
        psi = np.array([complex(*c) for c in state["state"]])
        assert np.abs(psi - want.states[round(state["time"] * 2)]).max() <= 1e-12


@pytest.mark.parametrize("doc, message", [
    ({"kind": "cubic", "duration": 5.0}, "'time_profile.kind' must be one of"),
    ({"kind": "linear", "t0": 1.0}, "missing key 'time_profile.duration'"),
    ({"kind": "tabulated", "times": [1.0, 3.0, 2.0], "values": [0.0, 0.5, 1.0]},
     "tabulated times must be strictly increasing"),
])
def test_evolve_command_rejects_a_bad_time_profile(tmp_path, capsys, doc, message):
    assert run_evolve(write_scenario(tmp_path, doc), tmp_path / "out") == 2
    assert message in capsys.readouterr().err
