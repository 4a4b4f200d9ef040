"""Beyond-dipole and 1D normal-mode builders against their written-out closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from gaugecraft import (Dielectric1D, EmitterSpec, build_beyond_dipole, build_generalized_1d,
                        solve_dielectric_1d, tls)
from gaugecraft.hamiltonians import TLS_PARITY_SIGNS
from gaugecraft.hilbert import max_abs, parity_labels

REL_TOL = 1e-12
SECTOR_TOL = 1e-10
MAX_CUTOFF = {1: 12, 2: 5, 3: 3}
PROFILE_KINDS = ("even", "skew", "vector")
# an inhomogeneous slab, so the mode profiles are not plain sines
NM = solve_dielectric_1d(Dielectric1D(np.pi, 1.0 + 0.8 * np.exp(-(np.linspace(0, np.pi, 121)
                                                                     - 2.0) ** 2)), 5)


def assert_matches(bundle, want, meta, parity_signs):
    dev = max_abs(bundle.H.matrix - want)
    assert dev <= REL_TOL * max(1.0, max_abs(want)), f"deviation {dev:.3e}"
    assert bundle.metadata == meta
    if parity_signs is None:
        assert bundle.parity is None
    else:
        # a declared parity is verified, and its two sector solves give the full spectrum
        assert np.array_equal(bundle.parity, parity_labels(bundle.space, parity_signs))
        assert len(bundle.diagnostics["sector_sizes"]) == 2
        full = np.linalg.eigvalsh(want)
        assert max_abs(bundle.eigenvalues() - full) <= SECTOR_TOL * max(1.0, max_abs(full))


def beyond_dipole_signs(gauge):
    """The Coulomb form declares the two-level parity; the multipolar form none."""
    return TLS_PARITY_SIGNS if gauge == "coulomb" else None


def random_chi(rng, n_modes):
    """Hermitian positive-definite chi with off-diagonal entries."""
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    return a @ a.conj().T / (2 * n_modes) + np.diag(rng.uniform(0.6, 1.4, size=n_modes))


def random_profile(rng, kind):
    """f(r) even in r, of no parity ("skew"), or with one shape per component ("vector")."""
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    k = rng.uniform(-2.5, 2.5, size=3)
    if kind == "even":
        return lambda r: c * np.cos(k @ r)
    if kind == "skew":
        phase = rng.uniform(0.3, 1.2)
        return lambda r: c * np.cos(k @ r - phase)
    kk = rng.uniform(-2.5, 2.5, size=(3, 3))
    phases = rng.uniform(0, np.pi, size=3)
    return lambda r: c * np.cos(kk @ r + phases)


@st.composite
def beyond_dipole_systems(draw):
    n_modes = draw(st.sampled_from((1, 2)))
    cutoffs = draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                            max_size=n_modes))
    kinds = draw(st.lists(st.sampled_from(PROFILE_KINDS), min_size=n_modes,
                          max_size=n_modes))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    em = tls(rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8) * rng.normal(size=3) / np.sqrt(3),
             charge=rng.uniform(0.8, 1.5))
    return random_chi(rng, n_modes), [random_profile(rng, k) for k in kinds], em, tuple(cutoffs)


@settings(max_examples=30, deadline=None)
@given(system=beyond_dipole_systems())
def test_beyond_dipole_matches_closed_form(system):
    chi, fns, em, cutoffs = system
    for gauge in ("coulomb", "multipolar"):
        assert_matches(build_beyond_dipole(chi, fns, em, gauge, cutoffs),
                       *dense_oracle.beyond_dipole(chi, fns, em, gauge, cutoffs),
                       beyond_dipole_signs(gauge))


def ladder_emitter(rng, axis):
    """Three levels linked 0-1 and 1-2 along the polarization axis, by complex elements."""
    levels = np.sort(rng.uniform(-1.0, 1.0, size=3))[::-1]
    dipole = np.zeros((3, 3, 3), dtype=complex)
    d01, d12 = rng.uniform(0.2, 0.7, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    dipole[axis] = [[0, d01, 0], [np.conj(d01), 0, d12], [0, np.conj(d12), 0]]
    return EmitterSpec(levels, dipole)


@st.composite
def generalized_1d_systems(draw):
    n_modes = draw(st.integers(1, 3))
    cutoffs = draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                            max_size=n_modes))
    axis = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        d = np.zeros(3)
        d[axis] = rng.uniform(0.2, 0.8)
        em = tls(rng.uniform(0.5, 1.5), d)
    else:
        em = ladder_emitter(rng, axis)
    return em, n_modes, tuple(cutoffs), rng.uniform(0.1, np.pi - 0.1), axis


CASES_1D = (("gC", "correct"), ("gmp", "correct"), ("gmp", "naive"))


@settings(max_examples=30, deadline=None)
@given(system=generalized_1d_systems())
def test_generalized_1d_matches_closed_form(system):
    em, n_modes, cutoffs, x0, axis = system
    for gauge, truncation in CASES_1D:
        assert_matches(build_generalized_1d(NM, em, gauge, n_modes, cutoffs, x0, truncation,
                                            polarization_axis=axis),
                       *dense_oracle.generalized_1d(NM, em, gauge, n_modes, cutoffs, x0,
                                                    truncation, polarization_axis=axis),
                       em.parity_signs)


@pytest.mark.parametrize("gauge", ["coulomb", "multipolar"])
def test_beyond_dipole_zero_couplings(gauge):
    em = tls(1.0, (0.4, 0.0, 0.0), charge=1.0)
    chi = np.array([[1.0, 0.2], [0.2, 1.3]])
    fns = [lambda r: np.zeros(3)] * 2
    bundle = build_beyond_dipole(chi, fns, em, gauge, (4, 3))
    assert_matches(bundle, *dense_oracle.beyond_dipole(chi, fns, em, gauge, (4, 3)),
                   beyond_dipole_signs(gauge))


@pytest.mark.parametrize("gauge, truncation", CASES_1D)
def test_generalized_1d_zero_couplings(gauge, truncation):
    em = tls(1.0, (0.0, 0.0, 0.0))
    bundle = build_generalized_1d(NM, em, gauge, 2, (4, 3), 1.1, truncation)
    assert_matches(bundle, *dense_oracle.generalized_1d(NM, em, gauge, 2, (4, 3), 1.1,
                                                        truncation), em.parity_signs)
