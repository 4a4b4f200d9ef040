"""The factored gauge family and the dense generator against the dense oracle, and their
structural guards."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaugecraft.hamiltonians as hamiltonians
import dense_oracle
from dense_oracle import DenseSystem
from gaugecraft import (COULOMB, MULTIPOLAR, EmitterSpec, GaugeParam, InvariantViolation,
                        LongitudinalCoupling, ModeSet, build_dipole, build_naive,
                        build_time_dependent, couplings, field_hamiltonian, gauge_unitary,
                        raised_cosine_ramp, standard_space, td_gauge_equivalence, tls)
from gaugecraft.gaugecheck import canonical_residual
from gaugecraft.hilbert import HilbertSpec, max_abs, photon
from test_time_reversal import real_system

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
    basis = couplings(ms, em).generator(dense.space)
    w_ab = gauge_unitary(basis, a, b)
    assert max_abs(w_ab.conj().T @ w_ab - np.eye(dense.space.dim)) < 1e-12
    assert_close(w_ab, dense.gauge_unitary(a, b), "W")
    w_ac = gauge_unitary(basis, a, c)
    w_bc = gauge_unitary(basis, b, c)
    assert max_abs(w_ab @ w_bc - w_ac) < 1e-12


@settings(max_examples=30, deadline=None)
@given(system=systems())
@example(system=(*random_system(11, 2, "multi_axis"), (3, 2), "multi_axis"))
def test_time_dependent_matrix_matches_oracle(system):
    """B diag(xi) B^dag is X, B formed with numpy.kron, and H(t) summed from its sector
    blocks (`fock_td_matrix`) the dense H(t), on either generator kind (the example's
    couplings do not factor)."""
    ms, em, cutoffs, kind = system
    dense = DenseSystem(ms, em, cutoffs)
    for gauge in ("coulomb", "multipolar"):
        tdh = build_time_dependent(ms, em, gauge, RAMP, cutoffs)
        assert len(tdh.family.basis.factors) == basis_factors(ms.n_modes, kind)
        b = dense_oracle.basis_matrix(tdh.family.basis)
        assert_close((b * tdh.family.basis.xi) @ b.conj().T, dense.x, "B diag(xi) B^dag")
        for t in RAMP_TIMES:
            assert_close(dense_oracle.fock_td_matrix(tdh, t), dense.td_matrix(gauge, RAMP, t),
                         f"{gauge} H({t})")


@settings(max_examples=30, deadline=None)
@given(system=systems(), seed=st.integers(0, 2**31 - 1))
@example(system=(*random_system(11, 2, "multi_axis"), (3, 2), "multi_axis"), seed=0)
def test_time_dependent_operator_matches_the_formed_and_dense_hamiltonian(system, seed):
    """operators([t], sectors), applied to the coordinates of each column of a D x 3 Fock-basis
    block psi in the sectors it has weight in (`split`) and mapped back (`to_fock`), equals
    the formed sector blocks (`fock_td_matrix`) and H_dense(t) applied to psi on either
    generator kind, in both gauges, before, inside (where mu' != 0) and after the ramp."""
    ms, em, cutoffs, _ = system
    dense = DenseSystem(ms, em, cutoffs)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(dense.space.dim, 3)) + 1j * rng.normal(size=(dense.space.dim, 3))
    assert any(RAMP.mu_dot(t) != 0.0 for t in RAMP_TIMES)
    for gauge in ("coulomb", "multipolar"):
        tdh = build_time_dependent(ms, em, gauge, RAMP, cutoffs)
        for t in RAMP_TIMES:
            got = []
            for v in psi.T:
                sectors, a = tdh.split(v)
                assert sectors == tdh.sectors  # a random state has weight in every sector
                y = tdh.operators([t], sectors)[0](a.ravel()).reshape(a.shape)
                got.append(tdh.to_fock(y[None], sectors)[0])
            got = np.column_stack(got)
            for want, what in ((dense_oracle.fock_td_matrix(tdh, t) @ psi, "formed H(t) psi"),
                               (dense.td_matrix(gauge, RAMP, t) @ psi, "H_dense(t) psi")):
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
    dropped = td_gauge_equivalence(ms, em, profile, t_grid, (4, 3), extra_term_sign=0.0)
    assert dropped.max_deviation > 1e-3


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
        """K and M, from which H(t) is formed or applied, are checked where they enter: at
        the first H(t) formed or applied."""
        ms, em = self._system()
        for gauge in ("coulomb", "multipolar"):
            for first_use in ("matrix", "operators"):
                tdh = build_time_dependent(ms, em, gauge, RAMP, (4, 3))
                with pytest.raises(InvariantViolation, match="before symmetrization"):
                    if first_use == "matrix":
                        tdh.matrix(0.5, tdh.sectors[0])
                    else:
                        tdh.operators([0.5])


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
    w = gauge_unitary(couplings(ms, em).generator(space), 0.0, 1.0)
    assert max_abs(w - np.eye(space.dim)) < 1e-15


def test_the_certificate_equals_the_dense_eigenvector_residual():
    """`canonical_residual`, from one shifted solve per sector at the member's ground energy,
    equals ||H_can v - E0 v|| for eigh's ground vector v of the member and the dense oracle's
    canonical multipolar form, at a cutoff where it is far from zero and at a converged one."""
    ms, em = random_system(7, 1, "tls")
    cs = couplings(ms, em)
    omega0 = em.levels[0] - em.levels[1]
    for cutoff, floor in ((4, 1e-3), (40, 0.0)):
        bundle = build_dipole(ms, em, MULTIPOLAR, cutoff)
        vals, vecs = np.linalg.eigh(bundle.H)
        h_can = dense_oracle.build_tls_multipolar_single(ms.chi[0, 0].real, omega0,
                                                         cs.scalars[0], cutoff).H
        want = np.linalg.norm(h_can @ vecs[:, 0] - vals[0] * vecs[:, 0])
        got = canonical_residual(bundle, cs, em.h0, vals[0])
        assert want >= floor and abs(got - want) <= 1e-12 * max(1.0, want)


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


ROUTES = {  # kind -> (basis, sector count, time reversal) of its Coulomb bundle
    "tls": ("quadrature", 2, False), "real tls": ("quadrature", 2, True),
    "hook": ("fock", 2, False), "real ladder": ("fock", 2, True),
    "multi_axis": ("fock", 1, False), "real multi_axis": ("fock", 1, True)}


def route_bundle(kind, seed, theta, cutoffs):
    """A bundle of the given kind of `ROUTES`: a quadrature-basis member, or a Fock-basis one
    with two parity sectors or one, each with time reversal and without."""
    if kind.startswith("real "):
        ms, em = real_system(seed, len(cutoffs), kind[5:])
    else:
        ms, em = random_system(seed, len(cutoffs), "tls" if kind == "hook" else kind)
    hook = LongitudinalCoupling(0.8, 0.1, 2) if kind == "hook" else None
    return build_dipole(ms, em, GaugeParam(theta), cutoffs, longitudinal=hook)


@pytest.mark.parametrize("kind", sorted(ROUTES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), theta=st.sampled_from((0.0, 0.37, 1.0)),
       cutoffs=st.sampled_from(((6,), (9,), (3, 2), (2, 4))), data=st.data())
def test_eigensystem_columns_are_those_of_the_full_matrix(kind, seed, theta, cutoffs, data):
    """Each column is placed on its own, so the columns asked for before the full matrix
    is placed equal its columns bit for bit, and so do those of a later call that asks for
    other columns."""
    bundle = route_bundle(kind, seed, theta, cutoffs)
    basis, sectors, reversal = ROUTES[kind]
    # a single mode's rotated chi~ = chi_00 is real whatever the phase of its coupling
    reversal = reversal or (kind == "tls" and len(cutoffs) == 1)
    assert (bundle.basis, len(bundle.diagnostics["sector_sizes"]),
            bundle.time_reversal) == (basis, sectors, reversal)
    n = bundle.space.dim
    columns = data.draw(st.lists(st.integers(-n, n - 1), max_size=12))
    higher = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    vals, part = bundle.eigensystem(columns)
    assert part.shape == (n, len(columns)) and part.flags.writeable
    later_vals, later = bundle.eigensystem(higher)
    full_vals, full = bundle.eigensystem()
    assert np.array_equal(vals, full_vals) and np.array_equal(later_vals, full_vals)
    assert not full.flags.writeable
    assert np.array_equal(part, full[:, columns])
    assert np.array_equal(later, full[:, higher])
    assert max_abs(bundle.H @ part - part * vals[columns]) <= 1e-10 * max(1.0, max_abs(vals))


def test_eigh_runs_once_per_sector_that_a_column_lies_in(monkeypatch):
    """A sector solved by eigh keeps all of its eigenvectors: once the first columns are
    read, no other column, nor the eigenvalues or the full matrix, costs a further eigh or
    eigvalsh.  After the eigenvalues alone, one eigvalsh per sector, a column solves by
    eigh only the sector it lies in, and the full matrix each sector that holds no
    eigenvectors."""
    bundles = [route_bundle(kind, 3, 0.37, (3, 2)) for kind in sorted(ROUTES)]
    fresh = [route_bundle(kind, 3, 0.37, (3, 2)) for kind in sorted(ROUTES)]
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(m, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    solves = sum(len(b.diagnostics["sector_sizes"]) for b in bundles)
    firsts = [bundle.eigensystem([0, 3])[0] for bundle in bundles]
    for bundle, first in zip(bundles, firsts):
        for columns in (range(2, 4), [], range(3, 9), [bundle.space.dim - 1]):
            assert bundle.eigensystem(columns)[0] is first
        assert np.array_equal(bundle.eigenvalues(3), first[:3])
        full = bundle.eigensystem()
        bundle.eigensystem([1])
        assert bundle.eigensystem()[1] is full[1] and full[0] is first
    assert calls == ["eigh"] * solves
    for bundle in fresh:
        sectors = len(bundle.diagnostics["sector_sizes"])
        calls.clear()
        bundle.eigenvalues()
        bundle.eigensystem([0])
        assert calls == ["eigvalsh"] * sectors + ["eigh"]
        bundle.eigensystem()
        assert calls == ["eigvalsh"] * sectors + ["eigh"] * sectors


@settings(max_examples=30, deadline=None)
@given(system=systems(), order=st.integers(1, 3))
def test_nested_commutators_match_dense_series(system, order):
    """The naive theta = 0 series of every kind, the exponential of the gauge map cut to its
    Taylor polynomial in the family's basis, against the dense nested commutators."""
    ms, em, cutoffs, _ = system
    dense = DenseSystem(ms, em, cutoffs)
    want = dense_oracle.nested_commutator_series(dense.x, dense.h_0, order)
    h = build_naive(ms, em, COULOMB, cutoffs, order=order).H
    assert_close(h, dense.h_f + want, "naive theta = 0")


def test_naive_build_on_factored_couplings_forms_no_dense_generator(monkeypatch):
    ms, em = random_system(4, 2, "tls")

    def refused(self, space):
        raise AssertionError("dense generator formed")

    monkeypatch.setattr(hamiltonians.CouplingSet, "generator_matrix", refused)
    build_naive(ms, em, COULOMB, (5, 4), order=3)
