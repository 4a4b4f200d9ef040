"""Parity sectors: the emitter signs, the per-state labels, and sector-wise spectra
against full-matrix eigensolves."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecraft import (COULOMB, MULTIPOLAR, EmitterSpec, GaugeParam, HamiltonianBundle,
                        InvariantViolation, LongitudinalCoupling, ModeSet, build_beyond_dipole,
                        build_dipole, build_naive, couplings, tls)
from gaugecraft.cli import main
from gaugecraft.hilbert import HilbertSpec, PAULI_X, matter_levels, max_abs, parity_labels, photon
from gaugecraft.scenario import emitter_to_json, modeset_to_json

from dense_oracle import build_tls_coulomb_single, build_tls_multipolar_single

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

REL_TOL = 1e-10
KINDS = ("tls", "ladder", "triangle")
MAX_CUTOFF = {1: 12, 2: 5, 3: 3}
LADDER = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)  # 0 - 1 - 2
TRIANGLE = ~np.eye(3, dtype=bool)  # 0 - 1 - 2 - 0: an odd cycle


def random_dipole(rng, pattern):
    """Three Hermitian dipole components, nonzero exactly on the off-diagonal `pattern`."""
    m = rng.normal(size=(3,) + pattern.shape) + 1j * rng.normal(size=(3,) + pattern.shape)
    m = np.where(pattern, m, 0.0)
    return (m + m.conj().swapaxes(1, 2)) / 2


def random_system(seed, n_modes, kind):
    """Off-diagonal chi and a two-level, ladder (bipartite) or triangle (odd-cycle) emitter.

    The 3-level dipoles differ per axis, so their couplings do not factor and
    `build_dipole` takes the dense generator.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    chi = a @ a.conj().T / (2 * n_modes) + np.diag(rng.uniform(0.6, 1.4, size=n_modes))
    if kind == "tls":
        em = tls(rng.uniform(0.5, 1.5), rng.normal(size=3))
    else:
        levels = np.sort(rng.uniform(-1.0, 1.0, size=3))[::-1]
        em = EmitterSpec(levels, random_dipole(rng, LADDER if kind == "ladder" else TRIANGLE))
    f = rng.normal(size=(n_modes, 3)) + 1j * rng.normal(size=(n_modes, 3))
    ms = ModeSet(chi, {"emitter": f})
    eta_max = max_abs(couplings(ms, em).eta_matrices)
    return ModeSet(chi, {"emitter": f * rng.uniform(0.2, 0.6) / eta_max}), em


@st.composite
def systems(draw):
    n_modes = draw(st.sampled_from((1, 2, 3)))
    cutoffs = draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                            max_size=n_modes, unique=True))
    kind = draw(st.sampled_from(KINDS))
    ms, em = random_system(draw(st.integers(0, 2**31 - 1)), n_modes, kind)
    return ms, em, tuple(cutoffs), kind


def bundles(ms, em, cutoffs):
    for theta in (0.0, 0.37, 1.0):
        yield build_dipole(ms, em, GaugeParam(theta), cutoffs)
    for g in (COULOMB, MULTIPOLAR):
        yield build_naive(ms, em, g, cutoffs)


def assert_sectors_solve(bundle):
    h = bundle.H
    want = np.linalg.eigvalsh(h)
    scale = max(1.0, max_abs(want))
    assert max_abs(bundle.eigenvalues() - want) <= REL_TOL * scale
    vals, vecs = bundle.eigensystem()
    assert max_abs(vals - want) <= REL_TOL * scale
    assert max_abs(h @ vecs - vecs * vals) <= REL_TOL * max(1.0, max_abs(h))
    assert max_abs(vecs.conj().T @ vecs - np.eye(len(vals))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(system=systems())
def test_sector_spectra_match_full_eigensolves(system):
    ms, em, cutoffs, kind = system
    for bundle in bundles(ms, em, cutoffs):
        if kind == "triangle":
            assert bundle.parity is None
            assert bundle.diagnostics["sector_sizes"] == [bundle.space.dim]
        else:
            assert np.array_equal(bundle.parity, parity_labels(bundle.space, em.parity_signs))
            assert bundle.diagnostics["sector_sizes"] == [np.sum(bundle.parity > 0),
                                                          np.sum(bundle.parity < 0)]
        assert_sectors_solve(bundle)


@pytest.mark.parametrize("kind, signs", [("tls", [1, -1]), ("ladder", [1, -1, 1]),
                                         ("triangle", None)])
def test_emitter_signs_two_colour_the_dipole_graph(kind, signs):
    _, em = random_system(4, 1, kind)
    got = em.parity_signs
    assert (got is None) if signs is None else got.tolist() == signs
    if got is not None:
        s = np.diag(got)
        assert max_abs(s @ em.dipole @ s + em.dipole) == 0.0
        # computed once per emitter and shared read-only
        assert em.parity_signs is got and not got.flags.writeable


def test_nonzero_dipole_diagonal_has_no_signs():
    dipole = np.array([PAULI_X + 0.1 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
    assert EmitterSpec(np.array([0.5, -0.5]), dipole).parity_signs is None


def test_labels_are_the_diagonal_of_the_kronecker_parity():
    space = HilbertSpec([photon(3), photon(2), matter_levels(3), photon(1)])
    signs = (1, -1, 1)
    want = np.ones(1)
    for f in space.factors:
        local = (-1.0) ** np.arange(f.dim) if f.kind == "photon" else np.array(signs)
        want = np.kron(want, local)
    assert np.array_equal(parity_labels(space, signs), want)
    with pytest.raises(ValueError):
        parity_labels(space, (1, -1))


def test_explicit_single_mode_builders_and_longitudinal_hook_declare_parity():
    ms, em = random_system(6, 2, "tls")
    hook = LongitudinalCoupling(omega=0.8, coupling=0.3, cutoff=3)
    for bundle in (build_tls_coulomb_single(1.0, 1.0, 0.6, 15),
                   build_tls_multipolar_single(1.0, 1.0, 0.6, 15),
                   build_dipole(ms, em, GaugeParam(0.37), (3, 2), longitudinal=hook)):
        dim = bundle.space.dim
        assert bundle.diagnostics["sector_sizes"] == [dim // 2, dim // 2]
        assert_sectors_solve(bundle)


def test_injected_parity_breaking_entry_raises():
    ms, em = random_system(8, 2, "tls")
    bundle = build_dipole(ms, em, COULOMB, (4, 3))
    even = int(np.flatnonzero(bundle.parity > 0)[0])
    odd = int(np.flatnonzero(bundle.parity < 0)[0])
    h = bundle.H.copy()
    h[even, odd] += 1e-6
    h[odd, even] += 1e-6
    assert max_abs(h - h.conj().T) == 0.0
    with pytest.raises(InvariantViolation, match="parity"):
        HamiltonianBundle(h, bundle.space, bundle.gauge, {}, bundle.parity)


def test_beyond_dipole_with_skew_profile_declares_no_parity():
    em = tls(1.0, (0.5 * np.sqrt(2), 0.0, 0.0), charge=1.0)
    skew = lambda x: np.array([np.cos(3.0 * x[0] - 0.7), 0, 0], dtype=complex)
    bundle = build_beyond_dipole(1.0, [skew], em, "multipolar", 16)
    assert bundle.parity is None
    assert bundle.diagnostics == {"sector_sizes": [bundle.space.dim], "parity_off_block": None}
    assert_sectors_solve(bundle)


def test_spectrum_command_reports_sector_diagnostics(tmp_path):
    ms, em = random_system(9, 2, "tls")
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": [4, 3], "gauge_theta": 0.37}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["dimension"] == 40
    assert meta["diagnostics"]["sector_sizes"] == [20, 20]
    assert 0.0 <= meta["diagnostics"]["parity_off_block"] <= 1e-12
    energies = [float(r.split(",")[1])
                for r in (out / "eigenvalues.csv").read_text(encoding="utf-8").splitlines()[1:]]
    want = np.linalg.eigvalsh(build_dipole(ms, em, GaugeParam(0.37), (4, 3)).H)
    assert max_abs(np.array(energies) - want) <= REL_TOL * max(1.0, max_abs(want))
