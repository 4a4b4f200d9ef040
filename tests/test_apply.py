"""Gauge maps and detection operators applied to vectors, against formed D x D matrices.

A gauge map exp(i s X) reaches a vector through the generator's eigenbasis,
`Eigenbasis.apply`, for the factored and the dense generator alike."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from gaugecraft import (COULOMB, MULTIPOLAR, DetectorSpec, GaugeParam, HamiltonianBundle,
                        ModeSet, build_dipole, build_naive, couplings, rate_table,
                        significant_transitions)
from gaugecraft.detect import detection_operator
from gaugecraft.gaugecheck import canonical_residual
from gaugecraft import hamiltonians
from gaugecraft.hamiltonians import build_gauge_pair, standard_space
from gaugecraft.hilbert import HermitianGenerator, max_abs
from test_factored import KINDS, random_system
from test_time_reversal import real_system

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

APPLY_TOL = 1e-13
RATE_TOL = 1e-12
MAX_CUTOFF = {1: 10, 2: 4}
DETECTOR = DetectorSpec(1.0, (0.3, 0.9, 0.2), "detector")
ENDPOINTS = ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0))


@st.composite
def systems(draw):
    """(ms, em, cutoffs) over M in {1, 2} and every emitter kind, with a detector point."""
    n_modes = draw(st.sampled_from((1, 2)))
    cutoffs = tuple(draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                                  max_size=n_modes)))
    seed = draw(st.integers(0, 2**31 - 1))
    ms, em = random_system(seed, n_modes, draw(st.sampled_from(KINDS)))
    detector = np.random.default_rng(seed).normal(size=(n_modes, 3))
    return ModeSet(ms.chi, {"emitter": ms.profile("emitter"), "detector": detector}), em, cutoffs


def random_block(seed, dim, k):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))


@settings(max_examples=40, deadline=None)
@given(system=systems(), theta=st.floats(-2.0, 2.0), k=st.integers(1, 5))
def test_generator_apply_matches_the_formed_unitary(system, theta, k):
    ms, em, cutoffs = system
    cs = couplings(ms, em)
    space = standard_space(cutoffs, em.n_levels)
    block = random_block(k, space.dim, k)
    # the package's generator (the family's basis unless the couplings do not factor) and
    # the dense one of the same X, against the formed dense unitary
    u = HermitianGenerator(cs.generator_matrix(space), space).unitary(theta)
    for basis in (cs.generator(space), HermitianGenerator(cs.generator_matrix(space),
                                                          space).eigenbasis()):
        for x in (block[:, 0], block):
            want = u @ x
            got = basis.apply(theta, x)
            assert got.shape == want.shape
            assert max_abs(got - want) <= APPLY_TOL * max(1.0, max_abs(want))


@settings(max_examples=20, deadline=None)
@given(system=systems(), theta=st.floats(-2.0, 2.0))
def test_dense_unitary_matches_apply_to_the_identity(system, theta):
    ms, em, cutoffs = system
    space = standard_space(cutoffs, em.n_levels)
    gen = HermitianGenerator(couplings(ms, em).generator_matrix(space), space)
    got = gen.unitary(theta)
    want = gen.eigenbasis().apply(theta, np.eye(space.dim))
    assert got.shape == (space.dim, space.dim)
    assert max_abs(got - want) <= APPLY_TOL


@settings(max_examples=40, deadline=None)
@given(system=systems(), k=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
def test_space_apply_matches_the_summed_kron(system, k, seed):
    """Random terms on random subsets of the factors, identity on the rest."""
    _, em, cutoffs = system
    space = standard_space(cutoffs, em.n_levels)
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(rng.integers(1, 4)):
        on = rng.random(len(space.factors)) < 0.6
        terms.append({i: rng.normal(size=(f.dim, f.dim)) + 1j * rng.normal(size=(f.dim, f.dim))
                      for i, f in enumerate(space.factors) if on[i]})
    dense = sum(space.kron(t) for t in terms)
    block = random_block(seed, space.dim, k)
    for x in (block[:, 0], block):
        want = dense @ x
        got = space.apply(terms, x)
        assert got.shape == want.shape
        assert max_abs(got - want) <= APPLY_TOL * max(1.0, max_abs(want))


@settings(max_examples=30, deadline=None)
@given(system=systems(), theta=st.sampled_from((0.0, 1.0)))
def test_detection_terms_sum_to_the_dense_operator(system, theta):
    ms, em, cutoffs = system
    bundle = build_dipole(ms, em, GaugeParam(theta), cutoffs)
    det = DetectorSpec(1.7, DETECTOR.d_d, DETECTOR.r_d)
    want = dense_oracle.detection_operator(bundle, ms, det, em)
    got = sum(bundle.space.kron(t) for t in detection_operator(bundle, ms, det, em))
    assert max_abs(got - want) <= APPLY_TOL * max(1.0, max_abs(want))


@settings(max_examples=30, deadline=None)
@given(system=systems(), thetas=st.sampled_from(ENDPOINTS), k=st.integers(1, 5),
       seed=st.integers(0, 2**31 - 1))
def test_rate_table_matches_dense_oracle(system, thetas, k, seed):
    """Degenerate levels included: the partners W |i_a> need no pairing."""
    ms, em, cutoffs = system
    a, b = (build_dipole(ms, em, GaugeParam(t), cutoffs) for t in thetas)
    rng = np.random.default_rng(seed)
    transitions = [tuple(int(n) for n in np.sort(rng.choice(a.space.dim, 2, replace=False)))
                   for _ in range(k)]
    want_a, want_b = dense_oracle.rate_table(a, b, ms, em, DETECTOR, transitions)
    rows, _ = rate_table(a, b, ms, em, DETECTOR, transitions,
                         couplings(ms, em).generator(a.space))
    assert [(r.i, r.j) for r in rows] == transitions
    assert_rates_agree_in_amplitude(rows, want_a, want_b, a, b, ms, em)


def assert_rates_agree_in_amplitude(rows, want_a, want_b, a, b, ms, em):
    """Each column agrees with the oracle's in amplitude, sqrt(rate) = f |<i| O |j>|, to
    RATE_TOL f ||O||_2 with its own gauge's O: a rate's rounding scales with ||O||, so that
    next to a large ||O|| a tiny rate's rounding exceeds RATE_TOL of the table's largest
    rate (1.15e-12 relative on one draw of a lone rate of 1.43e-6).  The b column is read
    between the partners W |i_a>, formed here and applied there."""
    unit = DetectorSpec(1.0, DETECTOR.d_d, DETECTOR.r_d)
    for bundle, name, want in ((a, "rate_coulomb", want_a), (b, "rate_multipolar", want_b)):
        norm = np.linalg.norm(dense_oracle.detection_operator(bundle, ms, unit, em), 2)
        factor = np.array([abs(r.omega_ij) if bundle.gauge.theta == 0.0 else 1.0
                           for r in rows])
        got = np.sqrt([getattr(r, name) for r in rows])
        assert np.all(np.abs(got - np.sqrt(want)) <= RATE_TOL * factor * norm), name


@settings(max_examples=30, deadline=None)
@given(system=systems(), theta=st.floats(0.0, 1.0), k=st.integers(1, 5))
def test_bundle_apply_matches_the_formed_hamiltonian(system, theta, k):
    """A quadrature-basis bundle (a two-level emitter with a parity) and a Fock-basis
    bundle of the same H."""
    ms, em, cutoffs = system
    bundle = build_dipole(ms, em, GaugeParam(theta), cutoffs)
    block = random_block(k, bundle.space.dim, k)
    h = bundle.H
    for b in (bundle, HamiltonianBundle(h, bundle.space, bundle.gauge)):
        for x in (block[:, 0], block):
            want = h @ x
            got = b.apply(x)
            assert got.shape == want.shape
            # a matvec rounds to about max|H| times the largest column sum of |x|
            tol = APPLY_TOL * max(1.0, max_abs(h)) * np.abs(x).sum(axis=0).max()
            assert max_abs(got - want) <= tol


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_modes=st.sampled_from((1, 2)),
       real=st.booleans(), theta=st.floats(0.0, 1.0), order=st.sampled_from((None, 1, 3)),
       k=st.integers(1, 4))
def test_quadrature_bundle_reads_from_k_equal_the_dense_oracle(seed, n_modes, real, theta,
                                                                 order, k):
    """A two-level member keeps only its recipe: `apply` works as P (M' (P^* x)) from K,
    `H` is formed from K, beta and the phases P, and the multipolar partner's canonical
    residual from its sectors and phases.  Each equals the embedded-product oracle's, with
    and without time reversal: a single
    mode's rotated chi~ = chi_00 is real whatever the phase of its coupling, so its complex
    member declares time reversal as well."""
    ms, em = (real_system if real else random_system)(seed, n_modes, "tls")
    cutoffs = (7,) if n_modes == 1 else (4, 3)
    gauge = COULOMB if order is not None else GaugeParam(theta)
    bundle = (build_dipole(ms, em, gauge, cutoffs) if order is None
              else build_naive(ms, em, COULOMB, cutoffs, order=order))
    dense = dense_oracle.dense_bundle(ms, em, gauge, cutoffs, order)
    assert bundle.basis == "quadrature" and bundle.time_reversal == (real or n_modes == 1)
    h = dense.H
    scale = max(1.0, max_abs(h))
    assert max_abs(bundle.H - h) <= 1e-12 * scale
    block = random_block(seed, bundle.space.dim, k)
    for x in (block[:, 0], block):
        tol = APPLY_TOL * scale * np.abs(x).sum(axis=0).max()
        assert max_abs(bundle.apply(x) - h @ x) <= tol
    partner = build_dipole(ms, em, MULTIPOLAR, cutoffs)
    cs, e0 = couplings(ms, em), partner.eigenvalues(1)[0]
    got = canonical_residual(partner, cs, em.h0, e0)
    want = canonical_residual(dense_oracle.dense_bundle(ms, em, MULTIPOLAR, cutoffs), cs,
                              em.h0, e0)
    assert abs(got - want) <= 1e-12 * max(1.0, want)


@settings(max_examples=30, deadline=None)
@given(system=systems(), theta=st.sampled_from((0.0, 1.0)), count=st.integers(1, 5),
       i=st.integers(0, 3))
def test_significant_transitions_match_dense_oracle(system, theta, count, i):
    ms, em, cutoffs = system
    bundle = build_dipole(ms, em, GaugeParam(theta), cutoffs)
    i = min(i, bundle.space.dim - 1)
    want = dense_oracle.significant_transitions(bundle, ms, DETECTOR, count, i=i, em=em)
    assert significant_transitions(bundle, ms, DETECTOR, count, i=i, em=em) == want


@pytest.mark.parametrize("seed, cutoff", [(5, 2), (6, 1), (15, 1)])
def test_a_shifted_solve_whose_pivot_rounds_to_zero_shifts_lower(seed, cutoff):
    """One-mode systems whose 2 x 2 or 3 x 3 sector minus E0 has a pivot that rounds to
    exactly zero at one rounding below E0: |0> still comes from the shifted solve, and the
    transitions are the dense oracle's."""
    ms, em = random_system(seed, 1, "tls")
    detector = np.random.default_rng(seed).normal(size=(1, 3))
    ms = ModeSet(ms.chi, {"emitter": ms.profile("emitter"), "detector": detector})
    for gauge in (COULOMB, MULTIPOLAR):
        bundle = build_dipole(ms, em, gauge, (cutoff,))
        got = significant_transitions(bundle, ms, DETECTOR, 2, em=em)
        assert got.route["fallback"] is None
        assert got == dense_oracle.significant_transitions(bundle, ms, DETECTOR, 2, em=em)


@settings(max_examples=30, deadline=None)
@given(system=systems(), count=st.integers(1, 5))
def test_the_lanczos_route_matches_dense_oracle(system, count):
    """Every sector taken by the Lanczos route (the crossover at 0): the transitions out of
    |0> of the Coulomb bundle, and the rate table of the pair, are the dense oracle's."""
    ms, em, cutoffs = system
    a, b = build_gauge_pair(ms, em, cutoffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamiltonians, "LANCZOS_MIN_SECTOR", 0)
        got = significant_transitions(a, ms, DETECTOR, count, em=em)
    want = dense_oracle.significant_transitions(a, ms, DETECTOR, count, em=em)
    assert got == want
    if not got:
        return
    rows, _ = rate_table(a, b, ms, em, DETECTOR, got, couplings(ms, em).generator(a.space))
    assert [(r.i, r.j) for r in rows] == list(got)
    assert_rates_agree_in_amplitude(rows, *dense_oracle.rate_table(a, b, ms, em, DETECTOR, got),
                                    a, b, ms, em)
