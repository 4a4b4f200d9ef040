"""Every gauge family's members are theta-free recipes, against the dense oracle: a sectored
two-level emitter, the one-axis and the two-axis three-level emitters of
`test_cli_nlevel`, a two-level emitter without a parity and an uncoupled mode, at theta 0,
0.37 and 1 and as the naive series of orders 1 to 3.  Eigenvalues and H x match the
oracle's, every placed eigenvector is one of the oracle's H, and a correct pair is one
solve owner whose verify pair solves nothing; a pair formed in the Fock basis pairs its
states against a multipolar H formed on its own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import DenseSystem, nested_commutator_series
from gaugecraft import (COULOMB, MULTIPOLAR, DetectorSpec, EmitterSpec, GaugeParam,
                        InvariantViolation, ModeSet, build_dipole, build_gauge_pair, build_naive,
                        couplings, rate_table, significant_transitions, tls,
                        verify_spectral_equivalence)
from gaugecraft.hamiltonians import EigenbasisFamily, FockFormed, QuadratureFamily
from gaugecraft.hilbert import Eigenbasis, max_abs
from test_cli_nlevel import CHI, ONE_AXIS, PROFILES, TWO_AXES
from test_stacked_scan import count_solves

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

REL_TOL = 1e-12
NO_PARITY = EmitterSpec([0.5, -0.5], np.array([[[0.3, 0.8], [0.8, 0.0]],
                                               [[0.0, 0.2], [0.2, 0.0]], np.zeros((2, 2))]))
# kind -> (emitter, whether its family is sectored); the two-axis emitter's couplings
# factor for one mode, and take the `EigenbasisFamily` for two
EMITTERS = {"sectored": (tls(1.0, (0.8, 0.3, 0.0)), True), "one_axis": (ONE_AXIS, False),
            "two_axes": (TWO_AXES, False), "no_parity": (NO_PARITY, False),
            "uncoupled": (tls(1.0, (0.8, 0.3, 0.0)), False)}


@st.composite
def members(draw):
    """(ms, em, cutoffs, theta, order, kind): one or two modes of `test_cli_nlevel`'s mode
    set with the emitter's profile scaled, an uncoupled mode's scaled by zero, and a gauge
    or, at theta = 0, a naive order."""
    kind = draw(st.sampled_from(sorted(EMITTERS)))
    n_modes = draw(st.sampled_from((1, 2)))
    cutoffs = tuple(draw(st.lists(st.integers(1, 6 if n_modes == 1 else 4),
                                  min_size=n_modes, max_size=n_modes)))
    scale = 0.0 if kind == "uncoupled" else draw(st.floats(0.1, 1.2))
    profiles = {label: np.array(f)[:n_modes] for label, f in PROFILES.items()}
    profiles["emitter"] = scale * profiles["emitter"]
    ms = ModeSet(CHI[:n_modes, :n_modes], profiles)
    theta = draw(st.sampled_from((0.0, 0.37, 1.0)))
    order = draw(st.sampled_from((None, 1, 2, 3))) if theta == 0.0 else None
    return ms, EMITTERS[kind][0], cutoffs, theta, order, kind


def assert_relative(got, want, what):
    dev = max_abs(got - want)
    assert dev <= REL_TOL * max(1.0, max_abs(want)), f"{what}: deviation {dev:.3e}"


@settings(max_examples=80, deadline=None)
@given(member=members(), seed=st.integers(0, 2**31 - 1))
def test_members_match_the_dense_oracle(member, seed):
    ms, em, cutoffs, theta, order, kind = member
    dense = DenseSystem(ms, em, cutoffs)
    if order is None:
        bundle, h = build_dipole(ms, em, GaugeParam(theta), cutoffs), dense.hamiltonian(theta)
    else:
        bundle = build_naive(ms, em, COULOMB, cutoffs, order=order)
        h = dense.h_f + nested_commutator_series(dense.x, dense.h_0, order)
    sectored = EMITTERS[kind][1]
    factors = couplings(ms, em).common_matter_matrix() is not None
    assert isinstance(bundle.family, QuadratureFamily if factors else EigenbasisFamily)
    assert bundle.family.sectored == sectored != isinstance(bundle.family, FockFormed)
    assert bundle.basis == ("quadrature" if sectored else "fock")
    want = np.linalg.eigvalsh(h)
    vals, vecs = bundle.eigensystem()
    assert_relative(vals, want, "eigenvalues")
    x = np.random.default_rng(seed).normal(size=(len(h), 3)) @ np.array([1.0, 1j, 0.5])
    assert_relative(bundle.apply(x), h @ x, "H x")
    residual = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    assert residual.max() <= REL_TOL * max(1.0, max_abs(vals)), "eigenvector residual"
    assert np.allclose(vecs.conj().T @ vecs, np.eye(len(h)), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(member=members())
def test_a_correct_pair_is_one_owner_that_verifies_without_a_solve(member):
    ms, em, cutoffs, *_ = member
    h_a, h_b = build_gauge_pair(ms, em, cutoffs)
    assert h_a.owner is h_b.owner and h_a.recipe is h_b.recipe and h_a.family is h_b.family
    with pytest.MonkeyPatch.context() as patch:
        solves = count_solves(patch, ("eigh", "eigvalsh", "cholesky", "solve"))
        report = verify_spectral_equivalence(h_a, h_b, k=min(4, h_a.space.dim))
    assert solves == ([], [], [], []) and report.max_abs_diff == 0.0
    assert h_a.owner.solution is None


@pytest.mark.parametrize("em", [ONE_AXIS, TWO_AXES], ids=["one_axis", "two_axes"])
def test_a_fock_formed_pair_pairs_its_states_against_the_formed_multipolar_h(monkeypatch, em):
    """The multipolar H a `FockFormed` pair applies is `fock_matrix(1, c)` itself, not
    W H(0) W^dag: the partners W |i_C> pass its pairing check, and a gauge map of the wrong
    sign fails it, as a member of other couplings does."""
    ms, cutoffs = ModeSet(CHI, PROFILES), (3, 2)
    det = DetectorSpec(1.0, (0.3, 0.9, 0.2), "detector")
    b_c, b_mp = build_gauge_pair(ms, em, cutoffs)
    assert isinstance(b_c.family, FockFormed) and b_c.owner is b_mp.owner
    transitions = significant_transitions(b_c, ms, det, 3, em=em)
    formed = []
    fock_matrix = type(b_c.family).fock_matrix
    monkeypatch.setattr(type(b_c.family), "fock_matrix",
                        lambda family, theta, *args: formed.append(theta)
                        or fock_matrix(family, theta, *args))
    rows, _ = rate_table(b_c, b_mp, ms, em, det, transitions, b_c.family.basis)
    assert formed == [1.0] and len(rows) == 3
    other = build_dipole(ms, tls(1.0, (0.5, -0.4, 0.2)), MULTIPOLAR, cutoffs)
    with pytest.raises(InvariantViolation, match="gauge pairing"):
        rate_table(b_c, other, ms, em, det, transitions, b_c.family.basis)
    apply = Eigenbasis.apply
    monkeypatch.setattr(Eigenbasis, "apply", lambda basis, s, x: apply(basis, -s, x))
    with pytest.raises(InvariantViolation, match="gauge pairing"):
        rate_table(b_c, b_mp, ms, em, det, transitions, b_c.family.basis)
