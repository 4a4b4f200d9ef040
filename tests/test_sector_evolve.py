"""H(t) of a two-level emitter with a parity, evolved in its parity sectors at half the
dimension, against the `EigenbasisFamily` route and the dense oracle."""

import json

import numpy as np
import pytest

from dense_oracle import DenseSystem
from gaugecraft import (EmitterSpec, ModeSet, TimeDependentHamiltonian, TimeProfile,
                        build_time_dependent, couplings, evolve, linear_ramp,
                        raised_cosine_ramp, td_gauge_equivalence, tls)
from gaugecraft.cli import main
from gaugecraft.dynamics import ground_state
from gaugecraft.hamiltonians import EigenbasisFamily, QuadratureFamily
from gaugecraft.hilbert import parity_labels
from gaugecraft.scenario import emitter_to_json, modeset_to_json

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

CHI = np.array([[1.0, 0.15 + 0.05j], [0.15 - 0.05j, 1.3]])  # complex sectors
TWO_MODES = ModeSet(CHI, {"emitter": [(0.9, 0.2, 0.0), (0.5, -0.3, 0.1)]})
EMITTER = tls(1.0, (0.6, 0.2, 0.0))
PROFILES = {
    "linear": linear_ramp(duration=4.0, t0=1.0),
    "raised_cosine": raised_cosine_ramp(duration=4.0, t0=1.0),
    "tabulated": TimeProfile("tabulated", times=np.array([1.0, 2.0, 3.5, 5.0]),
                             values=np.array([0.0, 0.5, 0.5, 1.0])),
}
T_GRID = np.linspace(0.0, 9.0, 19)
TOL = 1e-10
COUNTERS = ("h_evaluations", "h_applications", "accepted_steps", "rejected_steps",
            "static_pieces", "dynamic_pieces")


def eigenbasis_route(gauge, profile, cutoffs):
    """The same H(t) on the `EigenbasisFamily` route, one D x D sector."""
    family = EigenbasisFamily(couplings(TWO_MODES, EMITTER), EMITTER.h0, cutoffs)
    return TimeDependentHamiltonian(gauge, family, profile)


def start_state(kind, td):
    if kind == "ground":
        return ground_state(td, 0.0)
    if kind == "vacuum":
        psi = np.zeros(td.space.dim, dtype=complex)
        psi[0] = 1.0
        return psi
    rng = np.random.default_rng(7)  # weight in both sectors
    psi = rng.normal(size=td.space.dim) + 1j * rng.normal(size=td.space.dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("cutoffs", [(2, 2), (4, 3), (5, 5)])
@pytest.mark.parametrize("kind", sorted(PROFILES))
@pytest.mark.parametrize("gauge", ["coulomb", "multipolar"])
def test_sector_route_matches_the_eigenbasis_route(gauge, kind, cutoffs):
    """Each start evolves in the sectors it has weight in, at n = D/2, to the trajectory
    and observables of the D x D route; a one-sector start takes the same steps."""
    td = build_time_dependent(TWO_MODES, EMITTER, gauge, PROFILES[kind], cutoffs)
    ref = eigenbasis_route(gauge, PROFILES[kind], cutoffs)
    assert isinstance(td.family, QuadratureFamily) and td.family.sectored
    n = td.space.dim // 2
    ground = td.family.ground_parity
    assert np.abs(ground_state(td, 0.0) - ground_state(ref, 0.0)).max() <= TOL
    for start, sectors in (("ground", [ground]), ("vacuum", [1]), ("both", [1, -1])):
        psi0 = start_state(start, td)
        got, want = evolve(td, psi0, T_GRID), evolve(ref, psi0, T_GRID)
        assert got.stats["parity_sectors"] == sectors and got.stats["evolved_dim"] == n
        assert want.stats["parity_sectors"] is None and want.stats["evolved_dim"] == 2 * n
        assert np.abs(got.states - want.states).max() <= TOL, start
        for label, series in want.observables.items():
            assert np.abs(got.observables[label] - series).max() <= TOL, (start, label)
        if len(sectors) == 1:
            assert [got.stats[c] for c in COUNTERS] == [want.stats[c] for c in COUNTERS]
            # the other parity's amplitudes stay exactly zero
            labels = parity_labels(td.space, td.family.parity_signs)
            assert not np.any(got.states[:, labels != sectors[0]])


@pytest.mark.parametrize("gauge", ["coulomb", "multipolar"])
def test_sector_blocks_are_the_dense_hamiltonian_between_sector_states(gauge):
    """matrix(t, eps) is V_eps^dag H_dense(t) V_eps for the Fock-basis states V_eps of the
    sector's coordinates (`to_fock`), and H_dense(t) keeps each sector: V_-eps^dag H V_eps
    vanishes, before, inside and after the ramp."""
    profile = PROFILES["raised_cosine"]
    td = build_time_dependent(TWO_MODES, EMITTER, gauge, profile, (4, 3))
    dense = DenseSystem(TWO_MODES, EMITTER, (4, 3))
    n = td.space.dim // 2
    basis = {eps: td.to_fock(np.eye(n)[:, :, None], (eps,)).T for eps in (1, -1)}
    for eps, v in basis.items():
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-13
    for t in (0.5, 2.2, 4.9, 7.0):
        h = dense.td_matrix(gauge, profile, t)
        for eps, v in basis.items():
            want = v.conj().T @ h @ v
            assert np.abs(td.matrix(t, eps) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            assert np.abs(basis[-eps].conj().T @ h @ v).max() <= 1e-12


def test_a_ground_state_outside_ground_parity_is_found_by_the_certificate(monkeypatch):
    """With `ground_parity` guessing the wrong sector, the Cholesky certificate fails and
    the ground state comes from the other sector, equal to the dense ground state."""
    profile = PROFILES["raised_cosine"]
    td = build_time_dependent(TWO_MODES, EMITTER, "coulomb", profile, (4, 3))
    right = td.ground_sector(3.0)
    want = ground_state(td, 3.0)
    monkeypatch.setattr(td.family, "ground_parity", -right)
    td._eig.clear()  # no solve is shared with the right guess
    assert td.ground_sector(3.0) == right
    assert np.abs(ground_state(td, 3.0) - want).max() <= 1e-12
    vals, vecs = np.linalg.eigh(DenseSystem(TWO_MODES, EMITTER, (4, 3)).td_matrix(
        "coulomb", profile, 3.0))
    assert abs(abs(np.vdot(vecs[:, 0], want)) - 1.0) <= 1e-10


def test_td_gauge_equivalence_holds_in_one_sector_and_its_controls_fail():
    """The gauge map W(t) = exp(-i mu(t) X) ties the two sector trajectories, each of one
    sector; a flipped or omitted mu'(t) X term breaks it."""
    profile = PROFILES["raised_cosine"]
    good = td_gauge_equivalence(TWO_MODES, EMITTER, profile, T_GRID, (4, 3))
    assert good.max_deviation <= 7e-9
    for traj in (good.trajectory_coulomb, good.trajectory_multipolar):
        assert len(traj.stats["parity_sectors"]) == 1
    for sign in (-1.0, 0.0):
        bad = td_gauge_equivalence(TWO_MODES, EMITTER, profile, T_GRID, (4, 3),
                                   extra_term_sign=sign)
        assert bad.max_deviation > 1e-3


@pytest.mark.parametrize("emitter", [
    EmitterSpec(np.array([0.7, 0.0, -0.6]),  # three levels along one axis
                np.multiply.outer([0.4, 0.2, 0.0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])),
    EmitterSpec(np.array([0.7, 0.0, -0.6]),  # three levels, a different matrix per axis
                np.array([[[0, 0.4, 0], [0.4, 0, 0], [0, 0, 0]],
                          [[0, 0, 0], [0, 0, 0.3], [0, 0.3, 0]],
                          np.zeros((3, 3))])),
    tls(1.0, (0.0, 0.0, 0.0)),  # uncoupled: no sectors
])
def test_emitters_without_sectors_keep_the_eigenbasis_route(emitter):
    td = build_time_dependent(TWO_MODES, emitter, "multipolar", PROFILES["linear"], (3, 2))
    assert isinstance(td.family, EigenbasisFamily) and td.sectors == (None,)
    traj = evolve(td, ground_state(td, 0.0), T_GRID)
    assert traj.stats["parity_sectors"] is None and traj.stats["evolved_dim"] == td.space.dim


def test_evolve_metadata_names_the_sectors_evolved(tmp_path):
    """`evolve` records the sectors it evolved and their dimension; the counters keep their
    names."""
    doc = {"seed": 0, "modeset": modeset_to_json(TWO_MODES), "emitter": emitter_to_json(EMITTER),
           "fock_cutoffs": [4, 3], "time_profile": {"kind": "raised_cosine", "t0": 1.0,
                                                    "duration": 4.0},
           "evolve": {"t_max": 9.0, "n_times": 19, "gauge": "multipolar"}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    td = build_time_dependent(TWO_MODES, EMITTER, "multipolar", PROFILES["raised_cosine"], (4, 3))
    for initial, sectors in (("ground", [td.family.ground_parity]), ("vacuum", [1])):
        out = tmp_path / initial
        assert main(["evolve", "--config", str(config), "--out", str(out),
                     "--set", f"evolve.initial={initial}"]) == 0
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        assert meta["diagnostics"]["parity_sectors"] == sectors
        assert meta["diagnostics"]["evolved_dim"] == 20
        assert sorted(meta["counters"]) == sorted(COUNTERS)
