"""The piecewise propagator against independent integrators, its counters, and `evolve` input errors."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import gaugecraft.dynamics as dynamics
from dense_oracle import DenseSystem, fock_td_matrix
from gaugecraft import (ConvergenceError, GaugeParam, ModeSet, TimeProfile, build_dipole,
                        build_time_dependent, constant_profile, evolve, linear_ramp,
                        raised_cosine_ramp, standard_space, tls)
from gaugecraft.cli import main
from gaugecraft.dynamics import ground_state
from gaugecraft.scenario import emitter_to_json, modeset_to_json

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

TOL = 1e-8
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
    """Wrap td.operator and td.matrix; returns the times H(t) is evaluated at, applied or
    formed, and the times it is formed at."""
    times, formed = [], []
    operator, matrix = td.operator, td.matrix

    def counted_operator(t):
        times.append(t)
        return operator(t)

    def counted_matrix(t):
        times.append(t)
        formed.append(t)
        return matrix(t)

    td.operator, td.matrix = counted_operator, counted_matrix
    return times, formed


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


def test_static_bundle_is_one_static_piece():
    bundle = build_dipole(TWO_MODES, EMITTER, GaugeParam(0.37), CUTOFFS)
    psi0 = np.linalg.eigh(bundle.H.matrix)[1][:, 3].astype(complex)
    traj = evolve(bundle, psi0, np.linspace(0.0, 5.0, 6))
    phase = np.vdot(psi0, traj.states[-1])
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert traj.stats["static_pieces"] == 1 and traj.stats["h_evaluations"] == 1


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
        times, formed = counting(td)
        t_grid = np.concatenate([np.linspace(0.0, 8.0, 17), np.linspace(10.0, t_max, 40)])
        traj = evolve(td, psi0, t_grid)
        assert traj.stats["h_evaluations"] == len(times)
        assert traj.stats["static_pieces"] == len(formed) == 2  # no H(t) formed on the ramp
        counts.append(len(times))
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_calls_where_mu_dot_vanishes_are_one_per_static_piece(kind):
    profile, _ = PROFILES[kind]
    td = build_time_dependent(TWO_MODES, EMITTER, "coulomb", profile, CUTOFFS)
    psi0 = ground_state(td, 0.0)
    times, formed = counting(td)
    traj = evolve(td, psi0, GRIDS["on_breakpoints"])
    flat = [t for t in times if profile.mu_dot(t) == 0.0]
    assert len(flat) <= traj.stats["static_pieces"] == len(formed)
    assert all(profile.mu_dot(t) == 0.0 for t in formed)


def test_steps_reuse_hamiltonians():
    """At most four new H per attempted step plus H at the start of each dynamic piece."""
    profile, _ = PROFILES["tabulated"]
    td = build_time_dependent(TWO_MODES, EMITTER, "coulomb", profile, CUTOFFS)
    psi0 = ground_state(td, 0.0)
    calls = []
    traj = evolve(lambda t: calls.append(t) or td.matrix(t), td.basis.from_fock(psi0),
                  GRIDS["straddling"])
    s = traj.stats
    assert s["dynamic_pieces"] == 1 and s["static_pieces"] == 0
    assert s["rejected_steps"] > 0  # steps across the kinks of mu' fail and shrink
    assert len(calls) == s["h_evaluations"] <= 4 * (s["accepted_steps"] + s["rejected_steps"]) + 1

    times, formed = counting(td)
    s = evolve(td, psi0, GRIDS["straddling"]).stats
    assert s["dynamic_pieces"] == 2 and s["static_pieces"] == 3 == len(formed)
    attempted = s["accepted_steps"] + s["rejected_steps"]
    assert len(times) <= 4 * attempted + s["dynamic_pieces"] + s["static_pieces"]


def test_bare_callable_splits_at_explicit_breakpoints():
    """The multipolar H(t) of a linear ramp jumps by mu' X at its ends: as a bare callable
    it fails once a step lands on a jump, and with the ramp's breakpoints it matches the
    `TimeDependentHamiltonian` it was taken from."""
    profile = linear_ramp(3.0, 0.7)
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", profile, CUTOFFS)
    psi0 = ground_state(td, 0.0)
    t_grid = np.linspace(0.05, 7.3, 30)
    with pytest.raises(ConvergenceError, match="step control failed"):
        evolve(lambda t: td.matrix(t), td.basis.from_fock(psi0), t_grid)
    traj = evolve(lambda t: td.matrix(t), td.basis.from_fock(psi0), t_grid,
                  breakpoints=profile.breakpoints())
    assert traj.stats["dynamic_pieces"] == 3 and traj.stats["static_pieces"] == 0
    want = evolve(td, psi0, t_grid).states
    assert np.abs(td.basis.to_fock(traj.states.T).T - want).max() <= 1e-6
    with pytest.raises(ValueError, match="bare callable"):
        evolve(td, psi0, t_grid, breakpoints=profile.breakpoints())


def test_norm_drift_raises(monkeypatch):
    """A step that grows the norm at a rate of 1e-6 is caught by the drift check.

    The growth is proportional to the step, so step halving does not see it."""
    rk4_step = dynamics._rk4_step

    def growing(h_0, h_mid, h_1, psi, dt):
        return rk4_step(h_0, h_mid, h_1, psi, dt) * (1 + 1e-6 * dt)

    monkeypatch.setattr(dynamics, "_rk4_step", growing)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    hermitian = np.array([[1.0, 0.2], [0.2, -1.0]])
    with pytest.raises(ConvergenceError, match="norm drift"):
        evolve(lambda t: hermitian, psi0, [0.0, 1.0, 2.0])


def test_observables_match_the_einsum_form():
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", PROFILES["linear"][0], CUTOFFS)
    traj = evolve(td, ground_state(td, 0.0), GRIDS["straddling"])
    obs = dynamics.default_observables(td.space, td.couplings.generator_matrix(td.space))
    assert sorted(traj.observables) == sorted(obs) == ["X", "n0", "n1", "sz"]
    for label, m in obs.items():
        want = np.einsum("ki,ij,kj->k", traj.states.conj(), m, traj.states).real
        assert np.abs(traj.observables[label] - want).max() <= 1e-13


@pytest.mark.parametrize("t_grid", [[0.0, 1.0, 1.0, 2.0], [0.0, -5.0], [3.0, 2.0, 1.0]])
def test_grid_must_increase(t_grid):
    td = build_time_dependent(TWO_MODES, EMITTER, "coulomb", PROFILES["linear"][0], CUTOFFS)
    with pytest.raises(ValueError, match="strictly increasing"):
        evolve(td, ground_state(td, 0.0), t_grid)


# ------------------------------------------------------------------ CLI

def write_scenario(tmp_path):
    section = {"t_max": 20.0, "n_times": 41, "gauge": "multipolar",
               "state_checkpoints": [0, 10, 40]}
    doc = {"seed": 0, "modeset": modeset_to_json(TWO_MODES), "emitter": emitter_to_json(EMITTER),
           "fock_cutoffs": list(CUTOFFS), "evolve": section,
           "time_profile": {"kind": "raised_cosine", "t0": 1.0, "duration": 5.0}}
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
    assert counters["h_evaluations"] <= 4 * (counters["accepted_steps"]
                                             + counters["rejected_steps"]) + 3
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
