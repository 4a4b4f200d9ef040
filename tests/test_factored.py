"""The factored gauge family and the dense generator against the dense oracle, and their
structural guards."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaugecraft.hamiltonians as hamiltonians
import dense_oracle
from dense_oracle import DenseSystem, low_sector_projector
from gaugecraft import (COULOMB, MULTIPOLAR, EmitterSpec, GaugeParam, InvariantViolation,
                        ModeSet, build_dipole, build_naive, build_time_dependent, couplings,
                        field_hamiltonian, gauge_unitary, raised_cosine_ramp, standard_space,
                        td_gauge_equivalence, tls, verify_spectral_equivalence)
from gaugecraft.hilbert import HermitianGenerator, HilbertSpec, max_abs, photon

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

REL_TOL = 1e-10
KINDS = ("tls", "single_axis", "multi_axis")
# largest Fock cutoff per mode count, so that D stays at most a few hundred
MAX_CUTOFF = {1: 12, 2: 5, 3: 3}
RAMP = raised_cosine_ramp(duration=2.0, t0=1.0)
RAMP_TIMES = (0.5, 1.7, 2.6, 4.0)  # before, inside (twice) and after the ramp


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_system(seed, n_modes, kind):
    """Mode set with positive-definite off-diagonal chi, and an emitter of the given kind.

    "tls" and "single_axis" (a 3-level emitter with one dipole matrix along
    a random axis) have couplings that share one matter matrix; "multi_axis"
    (a 3-level emitter with independent dipole matrices per axis) does not.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    chi = a @ a.conj().T / (2 * n_modes) + np.diag(rng.uniform(0.6, 1.4, size=n_modes))
    if kind == "tls":
        em = tls(rng.uniform(0.5, 1.5), rng.normal(size=3))
    else:
        levels = np.sort(rng.uniform(-1.0, 1.0, size=3))[::-1]
        if kind == "single_axis":
            axis, dm = rng.normal(size=3), random_hermitian(rng, 3)
            dipole = np.array([axis[c] * dm for c in range(3)])
        else:
            dipole = np.array([random_hermitian(rng, 3) for _ in range(3)])
        em = EmitterSpec(levels, dipole)
    f = rng.normal(size=(n_modes, 3)) + 1j * rng.normal(size=(n_modes, 3))
    ms = ModeSet(chi, {"emitter": f})
    eta_max = max_abs(couplings(ms, em).eta_matrices)
    ms = ModeSet(chi, {"emitter": f * rng.uniform(0.2, 0.6) / eta_max})
    return ms, em


@st.composite
def systems(draw):
    n_modes = draw(st.sampled_from((1, 2, 3)))
    cutoffs = draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                            max_size=n_modes, unique=True))
    kind = draw(st.sampled_from(KINDS))
    ms, em = random_system(draw(st.integers(0, 2**31 - 1)), n_modes, kind)
    return ms, em, tuple(cutoffs), kind


def assert_close(got, want, what):
    dev = max_abs(got - want)
    assert dev <= REL_TOL * max(1.0, max_abs(want)), f"{what}: deviation {dev:.3e}"


@settings(max_examples=30, deadline=None)
@given(system=systems())
def test_kronecker_sums_match_embedded_products(system):
    ms, em, cutoffs, _ = system
    dense = DenseSystem(ms, em, cutoffs)
    assert_close(field_hamiltonian(ms.chi, dense.space), dense.h_f, "H_F")
    assert_close(couplings(ms, em).generator_matrix(dense.space), dense.x, "X")
    basis = couplings(ms, em).generator(dense.space)
    b = dense_oracle.basis_matrix(basis)
    assert_close((b * basis.xi) @ b.conj().T, dense.x, "B diag(xi) B^dag")


def basis_factors(n_modes, kind):
    """Factors of the generator's eigenbasis: one per mode and the matter eigenvectors for
    couplings that factor, the one dense eigenbasis of X otherwise."""
    return 1 if kind == "multi_axis" else n_modes + 1


@settings(max_examples=30, deadline=None)
@given(system=systems())
def test_generator_branch_follows_the_couplings(system):
    ms, em, cutoffs, kind = system
    basis = couplings(ms, em).generator(DenseSystem(ms, em, cutoffs).space)
    assert len(basis.factors) == basis_factors(ms.n_modes, kind)


@settings(max_examples=30, deadline=None)
@given(system=systems())
def test_build_dipole_matches_dense_oracle(system):
    ms, em, cutoffs, _ = system
    dense = DenseSystem(ms, em, cutoffs)
    for theta in (0.0, 0.37, 1.0):
        h = build_dipole(ms, em, GaugeParam(theta), cutoffs).H
        want = dense.hamiltonian(theta)
        assert_close(h, want, f"H({theta})")
        assert_close(np.linalg.eigvalsh(h), np.linalg.eigvalsh(want), f"spectrum({theta})")


@settings(max_examples=30, deadline=None)
@given(system=systems(), thetas=st.lists(st.floats(0, 1), min_size=3, max_size=3))
def test_gauge_unitary_matches_oracle_and_composes(system, thetas):
    ms, em, cutoffs, _ = system
    a, b, c = thetas
    dense = DenseSystem(ms, em, cutoffs)
    cs = couplings(ms, em)
    w_ab = gauge_unitary(dense.space, cs, a, b)
    assert max_abs(w_ab.conj().T @ w_ab - np.eye(dense.space.dim)) < 1e-12
    assert_close(w_ab, dense.gauge_unitary(a, b), "W")
    w_ac = gauge_unitary(dense.space, cs, a, c)
    w_bc = gauge_unitary(dense.space, cs, b, c)
    assert max_abs(w_ab @ w_bc - w_ac) < 1e-12


@settings(max_examples=30, deadline=None)
@given(system=systems())
@example(system=(*random_system(11, 2, "multi_axis"), (3, 2), "multi_axis"))
def test_time_dependent_matrix_matches_oracle(system):
    """B diag(xi) B^dag is X and B matrix(t) B^dag the dense H(t), B formed with numpy.kron,
    on either generator kind (the example's couplings do not factor)."""
    ms, em, cutoffs, kind = system
    dense = DenseSystem(ms, em, cutoffs)
    for gauge in ("coulomb", "multipolar"):
        tdh = build_time_dependent(ms, em, gauge, RAMP, cutoffs)
        assert len(tdh.basis.factors) == basis_factors(ms.n_modes, kind)
        b = dense_oracle.basis_matrix(tdh.basis)
        assert_close((b * tdh.basis.xi) @ b.conj().T, dense.x, "B diag(xi) B^dag")
        for t in RAMP_TIMES:
            assert_close(b @ tdh.matrix(t) @ b.conj().T, dense.td_matrix(gauge, RAMP, t),
                         f"{gauge} H({t})")


@settings(max_examples=30, deadline=None)
@given(system=systems(), seed=st.integers(0, 2**31 - 1))
@example(system=(*random_system(11, 2, "multi_axis"), (3, 2), "multi_axis"), seed=0)
def test_time_dependent_operator_matches_the_formed_and_dense_hamiltonian(system, seed):
    """operator(t), applied to each column of a D x 3 block x, equals matrix(t) x and
    B^dag H_dense(t) B x on either generator kind, in both gauges, before, inside (where
    mu' != 0) and after the ramp."""
    ms, em, cutoffs, _ = system
    dense = DenseSystem(ms, em, cutoffs)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dense.space.dim, 3)) + 1j * rng.normal(size=(dense.space.dim, 3))
    assert any(RAMP.mu_dot(t) != 0.0 for t in RAMP_TIMES)
    for gauge in ("coulomb", "multipolar"):
        tdh = build_time_dependent(ms, em, gauge, RAMP, cutoffs)
        b = dense_oracle.basis_matrix(tdh.basis)
        for t in RAMP_TIMES:
            apply = tdh.operator(t)
            got = np.column_stack([apply(v) for v in x.T])
            for want, what in ((tdh.matrix(t) @ x, "matrix(t) x"),
                               (b.conj().T @ (dense.td_matrix(gauge, RAMP, t) @ (b @ x)),
                                "B^dag H_dense(t) B x")):
                dev = max_abs(got - want)
                assert dev <= 1e-12 * max(1.0, max_abs(want)), f"{gauge} {what}, t = {t}: {dev:.3e}"


@pytest.mark.parametrize("kind", ["tls", "multi_axis"])
def test_eigenbasis_maps_match_the_formed_basis(kind):
    ms, em = random_system(4, 2, kind)
    space = standard_space((3, 4), em.n_levels)
    basis = couplings(ms, em).generator(space)
    b = dense_oracle.basis_matrix(basis)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    m = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    assert_close(basis.to_fock(x), b @ x, "B x")
    assert_close(basis.from_fock(x[:, 0]), b.conj().T @ x[:, 0], "B^dag x")
    assert_close(basis.transform(m), b.conj().T @ m @ b, "B^dag M B")


def test_static_build_makes_no_full_size_eigendecomposition(monkeypatch):
    """Two modes at cutoff 20 (D = 882): only local and matter matrices are diagonalized."""
    ms, em = random_system(5, 2, "tls")
    sizes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(m, *args, _original=original, **kwargs):
            sizes.append(np.shape(m)[-1])
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    bundle = build_dipole(ms, em, GaugeParam(0.37), (20, 20))
    assert bundle.space.dim == 882
    assert sizes and max(sizes) <= 21


def test_td_gauge_equivalence_bound_and_sign_control():
    chi = np.array([[1.0, 0.15 + 0.05j], [0.15 - 0.05j, 1.3]])
    ms = ModeSet(chi, {"emitter": [(0.9, 0.2, 0.0), (0.5, -0.3, 0.1)]})
    em = tls(1.0, (0.6, 0.2, 0.0))
    profile = raised_cosine_ramp(duration=4.0, t0=1.0)
    t_grid = np.linspace(0.0, 8.0, 17)
    good = td_gauge_equivalence(ms, em, profile, t_grid, (4, 3))
    assert good.max_deviation < 1e-8
    flipped = td_gauge_equivalence(ms, em, profile, t_grid, (4, 3), extra_term_sign=-1.0)
    assert flipped.max_deviation > 1e-3


class TestHermiticityBeforeSymmetrization:
    """A non-Hermitian term in the assembly raises instead of being averaged away."""

    @pytest.fixture
    def skewed_field(self, monkeypatch):
        """H_F with a non-Hermitian upper triangle, in the Fock and the quadrature basis."""
        original = hamiltonians.field_hamiltonian
        original_k = hamiltonians.QuadratureFamily._field

        def skewed(chi, space):
            h = original(chi, space)
            return h + 1e-9 * np.triu(np.ones_like(h), 1)

        def skewed_k(family):
            k = original_k(family)
            return k + 1e-9 * np.triu(np.ones_like(k), 1)

        monkeypatch.setattr(hamiltonians, "field_hamiltonian", skewed)
        monkeypatch.setattr(hamiltonians.QuadratureFamily, "_field", skewed_k)

    def _system(self):
        return random_system(3, 2, "tls")

    def test_build_dipole(self, skewed_field):
        ms, em = self._system()
        with pytest.raises(InvariantViolation, match="before symmetrization"):
            build_dipole(ms, em, GaugeParam(0.37), (4, 3))

    def test_build_naive(self, skewed_field):
        ms, em = self._system()
        with pytest.raises(InvariantViolation, match="before symmetrization"):
            build_naive(ms, em, COULOMB, (4, 3))

    def test_time_dependent_matrix(self, skewed_field):
        """K and M, from which H(t) is formed or applied, are checked where they enter."""
        ms, em = self._system()
        for gauge in ("coulomb", "multipolar"):
            with pytest.raises(InvariantViolation, match="before symmetrization"):
                build_time_dependent(ms, em, gauge, RAMP, (4, 3))


def test_generator_rejects_a_space_of_the_wrong_shape():
    cs = couplings(*random_system(1, 2, "tls"))
    with pytest.raises(ValueError, match="matter factor dimension"):
        cs.generator(standard_space((3, 2), 3))
    with pytest.raises(ValueError, match="modes or matter factor"):
        cs.generator(standard_space((3,), 2))
    with pytest.raises(ValueError, match="modes or matter factor"):
        cs.generator(HilbertSpec([photon(3), photon(2)]))


def test_zero_couplings_give_identity_unitary():
    ms, em = random_system(1, 2, "tls")
    em = tls(1.0, (0.0, 0.0, 0.0))
    space = hamiltonians.standard_space((3, 2), 2)
    w = gauge_unitary(space, couplings(ms, em), 0.0, 1.0)
    assert max_abs(w - np.eye(space.dim)) < 1e-15


def test_masked_residual_equals_projector_form():
    ms, em = random_system(7, 1, "tls")
    cs = couplings(ms, em)
    naive = build_naive(ms, em, COULOMB, 16)
    correct = build_dipole(ms, em, MULTIPOLAR, 16)
    rep = verify_spectral_equivalence(naive, correct, k=3, cs=cs)
    w = gauge_unitary(naive.space, cs, 0.0, 1.0)
    p_low = low_sector_projector(naive.space)
    delta = (w @ naive.H @ w.conj().T - correct.H) @ p_low
    assert rep.operator_residual > 1e-3
    assert abs(rep.operator_residual - np.linalg.norm(delta, 2)) < 1e-12 * rep.operator_residual


def test_eigensystem_is_computed_once(monkeypatch):
    ms, em = random_system(2, 1, "tls")
    bundle = build_dipole(ms, em, COULOMB, 10)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(m, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    vals, vecs = bundle.eigensystem()
    assert calls == ["eigh", "eigh"]  # one per parity sector
    again = bundle.eigensystem()
    assert again[0] is vals and again[1] is vecs
    assert np.array_equal(bundle.eigenvalues(4), vals[:4])
    assert calls == ["eigh", "eigh"]
    with pytest.raises(ValueError):
        vals[0] = 0.0



@settings(max_examples=30, deadline=None)
@given(system=systems(), order=st.integers(1, 3))
def test_nested_commutators_match_dense_series(system, order):
    ms, em, cutoffs, _ = system
    dense = DenseSystem(ms, em, cutoffs)
    want = dense_oracle.nested_commutator_series(dense.x, dense.h_0, order)
    gen = HermitianGenerator(couplings(ms, em).generator_matrix(dense.space), dense.space)
    dev = max_abs(gen.nested_commutators(dense.h_0, order) - want)
    assert dev <= 1e-12 * max(1.0, max_abs(want)), f"order {order}: deviation {dev:.3e}"
    h = build_naive(ms, em, COULOMB, cutoffs, order=order).H
    assert_close(h, dense.h_f + want, "naive theta = 0")


def test_naive_build_on_factored_couplings_forms_no_dense_generator(monkeypatch):
    ms, em = random_system(4, 2, "tls")

    def refused(self, space):
        raise AssertionError("dense generator formed")

    monkeypatch.setattr(hamiltonians.CouplingSet, "generator_matrix", refused)
    build_naive(ms, em, COULOMB, (5, 4), order=3)
