"""Every builder routed through the gauge family against `DenseSystem`: `build_dipole` with
and without the longitudinal hook, the theta = 0 `build_naive`, the beyond-dipole Coulomb
form and the 1D gC form, over L-level emitters with and without a parity, one or two
modes, per-mode cutoffs, real and complex couplings.  Each route (the quadrature-basis
sector solve, the family's member formed in the Fock basis, the hook and the dense
generator) verifies the symmetries it declares: a forged entry makes it raise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugecraft.hamiltonians as hamiltonians
from dense_oracle import DenseSystem, nested_commutator_series, with_longitudinal
from gaugecraft import (COULOMB, Dielectric1D, EmitterSpec, GaugeParam, InvariantViolation,
                        LongitudinalCoupling, ModeSet, build_beyond_dipole, build_dipole,
                        build_generalized_1d, build_naive, couplings, solve_dielectric_1d, tls)
from gaugecraft.hilbert import HermitianGenerator, max_abs

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

REL_TOL = 1e-12
MAX_CUTOFF = {1: 10, 2: 4}
HOOK = LongitudinalCoupling(omega=0.8, coupling=0.3, cutoff=2, direction=(1.0, 0.5, 0.0))
X = np.linspace(0.0, np.pi, 121)
NM = solve_dielectric_1d(Dielectric1D(np.pi, 1.0 + 0.8 * np.exp(-(X - 1.2) ** 2)), 3)


def ladder_dipole(rng, levels, parity, complex_couplings):
    """A Hermitian matrix linking neighbouring levels only (odd under the alternating
    parity), with a diagonal entry when the emitter has no parity."""
    links = rng.uniform(0.3, 1.0, size=levels - 1)
    if complex_couplings:
        links = links * np.exp(1j * rng.uniform(-np.pi, np.pi, size=levels - 1))
    d = np.diag(links, 1)
    d = d + d.conj().T
    if not parity:
        d[0, 0] = 0.4
    return d


@st.composite
def systems(draw):
    """(ms, em, cutoffs): one dipole axis, so the couplings factor."""
    levels, n_modes = draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((1, 2)))
    cutoffs = tuple(draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                                  max_size=n_modes)))
    parity, complex_couplings = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a = rng.normal(size=(n_modes, n_modes))
    if complex_couplings:
        a = a + 1j * rng.normal(size=(n_modes, n_modes))
    chi = a @ a.conj().T / (2 * n_modes) + np.diag(rng.uniform(0.6, 1.4, size=n_modes))
    axis = rng.normal(size=3)
    d = ladder_dipole(rng, levels, parity, complex_couplings)
    em = EmitterSpec(np.sort(rng.uniform(-1.0, 1.0, size=levels))[::-1],
                     np.array([c * d for c in axis]))
    f = rng.normal(size=(n_modes, 3))
    if complex_couplings:
        f = f * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n_modes, 1)))
    strength = draw(st.just(0.0) | st.floats(0.05, 0.8))
    eta = max_abs(couplings(ModeSet(chi, {"emitter": f}), em).eta_matrices)
    return ModeSet(chi, {"emitter": f * strength / eta}), em, cutoffs


def real(ms, em):
    """Whether chi, the couplings and h0 are real, so that time reversal is declared."""
    return not any(np.any(np.imag(a)) for a in (ms.chi, couplings(ms, em).eta_matrices))


def assert_matches(bundle, h, real, hook=False):
    """bundle.H and its eigenvalues against the oracle's h; the declared symmetries were
    verified when the bundle was made."""
    got = bundle.eigenvalues()
    want = np.linalg.eigvalsh(h)
    assert max_abs(got - want) <= REL_TOL * max_abs(want)
    assert max_abs(bundle.H - h) <= REL_TOL * max(1.0, max_abs(h))
    assert (bundle.diagnostics["parity_off_block"] is None) == (bundle.parity is None)
    assert bundle.time_reversal == (real and not hook)
    assert ("time_reversal_imag" in bundle.diagnostics) == bundle.time_reversal


@settings(max_examples=40, deadline=None)
@given(system=systems(), theta=st.floats(0, 1))
def test_build_dipole_matches_the_dense_oracle(system, theta):
    ms, em, cutoffs = system
    dense = DenseSystem(ms, em, cutoffs)
    bundle = build_dipole(ms, em, GaugeParam(theta), cutoffs)
    assert bundle.basis == ("quadrature" if em.n_levels == 2 and em.parity_signs is not None
                            and max_abs(dense.x) > 0 else "fock")
    assert (bundle.parity is None) == (em.parity_signs is None)
    assert_matches(bundle, dense.hamiltonian(theta), real(ms, em))
    hooked = build_dipole(ms, em, GaugeParam(theta), cutoffs, longitudinal=HOOK)
    assert hooked.basis == "fock"
    assert_matches(hooked, with_longitudinal(dense.hamiltonian(theta), em, HOOK), False, True)


@settings(max_examples=30, deadline=None)
@given(system=systems(), order=st.sampled_from((1, 2)))
def test_build_naive_matches_the_dense_series(system, order):
    ms, em, cutoffs = system
    dense = DenseSystem(ms, em, cutoffs)
    want = dense.h_f + nested_commutator_series(dense.x, dense.h_0, order)
    assert_matches(build_naive(ms, em, COULOMB, cutoffs, order=order), want, real(ms, em))


@settings(max_examples=20, deadline=None)
@given(system=systems())
def test_beyond_dipole_coulomb_matches_the_dense_oracle(system):
    """Constant profiles: the segment-averaged coupling is the dipole coupling, so the
    Coulomb form is the dipole Coulomb member of a two-level emitter with charge."""
    ms, _, cutoffs = system
    em = tls(1.3, (0.7, -0.2, 0.4), charge=2.0)
    f = ms.profile("emitter")
    bundle = build_beyond_dipole(ms.chi, [lambda x, v=v: v for v in f], em, "coulomb", cutoffs)
    assert bundle.basis == ("quadrature" if max_abs(f) > 0 else "fock")
    ms = ModeSet(ms.chi, {"emitter": f})
    assert_matches(bundle, DenseSystem(ms, em, cutoffs).hamiltonian(0.0), real(ms, em))


@settings(max_examples=20, deadline=None)
@given(system=systems(), x0=st.floats(0.2, 2.9), axis=st.integers(0, 2))
def test_generalized_1d_gc_matches_the_dense_oracle(system, x0, axis):
    """eta_mu = h_mu(x0) d_hat / sqrt(2 omega_mu) are the couplings of a mode set with
    chi = diag(omega) and the profiles h_mu(x0) along x, seen by d_hat along x."""
    ms, em, cutoffs = system
    n_modes = ms.n_modes
    bundle = build_generalized_1d(NM, em, "gC", n_modes, cutoffs, x0, polarization_axis=axis)
    f = np.zeros((n_modes, 3))
    f[:, 0] = NM.profile_at(x0)[:n_modes]
    d_hat = EmitterSpec(em.levels, np.array([em.dipole[axis], 0 * em.h0, 0 * em.h0]))
    dense_ms = ModeSet(np.diag(NM.omega[:n_modes]), {"emitter": f})
    dense = DenseSystem(dense_ms, d_hat, cutoffs)
    assert_matches(bundle, dense.hamiltonian(0.0), real(dense_ms, d_hat))


LADDER = EmitterSpec([0.9, 0.1, -0.8], np.array([ladder_dipole(np.random.default_rng(3), 3,
                                                                True, False)] * 3))
TWO_AXES = EmitterSpec([0.9, 0.1, -0.8], np.array([
    [[0.0, 0.8, 0.0], [0.8, 0.0, 0.5], [0.0, 0.5, 0.0]],
    [[0.0, 0.3, 0.0], [0.3, 0.0, -0.6], [0.0, -0.6, 0.0]], np.zeros((3, 3))]))
TWO_MODES = ModeSet(np.array([[1.0, 0.15], [0.15, 1.3]]),
                    {"emitter": [(0.5, 0.2, 0.0), (0.3, -0.4, 0.1)]})
# (0, 0, level 0) is even and (0, 0, level 1) odd; (0, 0, level 2) is in the even sector
# with the same photon parity as (0, 0, level 0)
PARITY_BREAKING = {(0, 1): 1e-6, (1, 0): 1e-6}
TIME_REVERSAL_BREAKING = {(0, 2): 1e-6j, (2, 0): -1e-6j}


def forge(monkeypatch, owner, name, entries):
    """Wrap owner.name so that the matrix it returns (first of a tuple) gets the entries."""
    original = getattr(owner, name)

    def forged(*args, **kwargs):
        out = original(*args, **kwargs)
        h = (out[0] if isinstance(out, tuple) else out).copy()
        for index, value in entries.items():
            h[index] += value
        return (h, *out[1:]) if isinstance(out, tuple) else h

    monkeypatch.setattr(owner, name, forged)


@pytest.mark.parametrize("entries, claim", [(PARITY_BREAKING, "parity"),
                                            (TIME_REVERSAL_BREAKING, "time reversal")])
def test_a_forged_fock_route_member_raises(monkeypatch, entries, claim):
    build_dipole(TWO_MODES, LADDER, GaugeParam(0.37), (3, 2))
    forge(monkeypatch, hamiltonians.QuadratureFamily, "fock_matrix", entries)
    with pytest.raises(InvariantViolation, match=claim):
        build_dipole(TWO_MODES, LADDER, GaugeParam(0.37), (3, 2))
    with pytest.raises(InvariantViolation, match=claim):
        build_naive(TWO_MODES, LADDER, COULOMB, (3, 2), order=2)


def test_a_forged_hook_member_breaks_the_declared_parity(monkeypatch):
    build_dipole(TWO_MODES, LADDER, GaugeParam(0.37), (3, 2), longitudinal=HOOK)
    # (0, 0, level 0, aux 0) is even and (0, 0, level 1, aux 0) odd
    forge(monkeypatch, hamiltonians, "_apply_longitudinal", {(0, 3): 1e-6, (3, 0): 1e-6})
    with pytest.raises(InvariantViolation, match="parity"):
        build_dipole(TWO_MODES, LADDER, GaugeParam(0.37), (3, 2), longitudinal=HOOK)


@pytest.mark.parametrize("entries, claim", [(PARITY_BREAKING, "parity"),
                                            (TIME_REVERSAL_BREAKING, "time reversal")])
def test_a_forged_dense_route_member_raises(monkeypatch, entries, claim):
    assert couplings(TWO_MODES, TWO_AXES).common_matter_matrix() is None
    build_dipole(TWO_MODES, TWO_AXES, GaugeParam(0.37), (3, 2))
    forge(monkeypatch, HermitianGenerator, "conjugate", entries)
    with pytest.raises(InvariantViolation, match=claim):
        build_dipole(TWO_MODES, TWO_AXES, GaugeParam(0.37), (3, 2))
