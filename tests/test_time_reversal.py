"""Time reversal: real-coupling bundles solve their sectors in real arithmetic, and the
gauge family takes its local eigensystems from one Fock quadrature per cutoff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecraft import (COULOMB, MULTIPOLAR, CouplingSet, EmitterSpec, GaugeParam,
                        HamiltonianBundle, InvariantViolation, LongitudinalCoupling, ModeSet,
                        build_beyond_dipole, build_dipole, build_generalized_1d, build_naive,
                        couplings, Dielectric1D, solve_dielectric_1d, tls)
from gaugecraft.hamiltonians import TLS_PARITY_SIGNS, QuadratureFamily
from gaugecraft.hilbert import (PAULI_X, PAULI_Z, HilbertSpec, fock_quadrature, ladder_matrix,
                                matter_levels, max_abs, parity_labels, photon)

from dense_oracle import build_tls_coulomb_single, build_tls_multipolar_single

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

KINDS = ("tls", "ladder", "multi_axis")
MAX_CUTOFF = {1: 12, 2: 5, 3: 3}
LADDER = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)


def real_system(seed, n_modes, kind):
    """Real positive-definite chi with off-diagonal entries, real profiles and a real emitter.

    "ladder" is a parity-symmetric 3-level emitter with one dipole matrix per
    axis; "multi_axis" has independent real symmetric dipoles (diagonal
    included), so it has no parity and its couplings take the dense generator.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_modes, n_modes))
    chi = a @ a.T / (2 * n_modes) + np.diag(rng.uniform(0.6, 1.4, size=n_modes))
    if kind == "tls":
        em = tls(rng.uniform(0.5, 1.5), rng.normal(size=3))
    else:
        levels = np.sort(rng.uniform(-1.0, 1.0, size=3))[::-1]
        m = rng.normal(size=(3, 3, 3))
        m = (m + m.swapaxes(1, 2)) / 2
        em = EmitterSpec(levels, np.where(LADDER, m, 0.0) if kind == "ladder" else m)
    f = rng.normal(size=(n_modes, 3))
    eta_max = max_abs(couplings(ModeSet(chi, {"emitter": f}), em).eta_matrices)
    return ModeSet(chi, {"emitter": f * rng.uniform(0.2, 0.6) / eta_max}), em


@st.composite
def systems(draw):
    n_modes = draw(st.sampled_from((1, 2, 3)))
    cutoffs = draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                            max_size=n_modes))
    kind = draw(st.sampled_from(KINDS))
    ms, em = real_system(draw(st.integers(0, 2**31 - 1)), n_modes, kind)
    return ms, em, tuple(cutoffs)


def assert_real_solve_matches_complex(bundle):
    h = bundle.H
    want = np.linalg.eigvalsh(h)
    scale = max(1.0, max_abs(want))
    assert max_abs(bundle.eigenvalues() - want) <= 1e-12 * scale
    vals, vecs = bundle.eigensystem()
    assert max_abs(vals - want) <= 1e-12 * scale
    assert max_abs(h @ vecs - vecs * vals) <= 1e-10 * max(1.0, max_abs(h))
    assert max_abs(vecs.conj().T @ vecs - np.eye(len(vals))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(system=systems(), theta=st.floats(0, 1))
def test_real_sector_solves_match_complex_eigensolves(system, theta):
    ms, em, cutoffs = system
    for bundle in (build_dipole(ms, em, GaugeParam(theta), cutoffs),
                   build_naive(ms, em, COULOMB, cutoffs, order=2),
                   build_naive(ms, em, MULTIPOLAR, cutoffs)):
        assert bundle.time_reversal
        assert 0.0 <= bundle.diagnostics["time_reversal_imag"] <= 1e-12 * max(
            1.0, max_abs(bundle.H))
        assert_real_solve_matches_complex(bundle)


def test_explicit_and_1d_builders_declare_time_reversal_for_real_couplings():
    em = tls(1.0, (0.5 * np.sqrt(2), 0.0, 0.0), charge=1.0)
    eps = np.where(np.linspace(0.0, 2.0, 41) < 0.8, 1.0, 4.0)
    nm = solve_dielectric_1d(Dielectric1D(2.0, eps, c=1.0), 3)
    bundles = [build_tls_coulomb_single(1.0, 1.0, 0.6, 15),
               build_tls_multipolar_single(1.0, 1.0, 0.6, 15),
               build_beyond_dipole(1.0, [lambda x: np.array([np.cos(x[0]), 0, 0])], em,
                                   "coulomb", 12)]
    bundles += [build_generalized_1d(nm, em, gauge, 2, 5, 0.7, truncation)
                for gauge, truncation in (("gC", "correct"), ("gmp", "correct"),
                                          ("gmp", "naive"))]
    for bundle in bundles:
        assert bundle.time_reversal, bundle.metadata["builder"]
        assert_real_solve_matches_complex(bundle)


def test_complex_inputs_declare_nothing():
    ms, em = real_system(3, 2, "tls")
    chi = ms.chi + np.array([[0.0, 0.1j], [-0.1j, 0.0]])
    complex_chi = ModeSet(chi, ms.profiles)
    complex_eta = ModeSet(ms.chi, {"emitter": ms.profiles["emitter"] * np.exp(0.3j)})
    hook = LongitudinalCoupling(omega=0.8, coupling=0.3, cutoff=2)
    em1 = tls(1.0, (0.5 * np.sqrt(2), 0.0, 0.0), charge=1.0)
    bundles = [build_dipole(complex_chi, em, GaugeParam(0.37), (4, 3)),
               build_dipole(complex_eta, em, GaugeParam(0.37), (4, 3)),
               build_naive(complex_chi, em, COULOMB, (4, 3)),
               build_naive(complex_eta, em, MULTIPOLAR, (4, 3)),
               build_dipole(ms, em, COULOMB, (3, 2), longitudinal=hook),
               build_tls_coulomb_single(1.0, 1.0, 0.6j, 10),
               build_tls_multipolar_single(1.0, 1.0, 0.6 + 0.1j, 10),
               build_beyond_dipole(1.0, [lambda x: np.array([np.cos(x[0]), 0, 0])], em1,
                                   "multipolar", 12)]
    for bundle in bundles:
        assert not bundle.time_reversal
        assert "time_reversal_imag" not in bundle.diagnostics
        assert_real_solve_matches_complex(bundle)


def test_forged_declaration_raises():
    ms, em = real_system(8, 2, "tls")
    bundle = build_dipole(ms, em, GaugeParam(0.37), (4, 3))
    assert bundle.time_reversal
    # |n1=0, n2=0, e> and |n1=2, n2=0, e>: the same photon parity and the same Pi sector
    j, k = 0, 2 * 4 * 2
    assert parity_labels(bundle.space)[[j, k]].tolist() == [1, 1]
    assert bundle.parity[j] == bundle.parity[k]
    h = bundle.H.copy()
    h[j, k] += 1e-6j
    h[k, j] -= 1e-6j
    assert max_abs(h - h.conj().T) == 0.0
    HamiltonianBundle(h, bundle.space, bundle.gauge, {}, bundle.parity)  # parity still holds
    with pytest.raises(InvariantViolation, match="time reversal"):
        HamiltonianBundle(h, bundle.space, bundle.gauge, {}, bundle.parity, True)


def test_sector_solves_of_real_couplings_receive_float64(monkeypatch):
    ms, em = real_system(5, 1, "tls")
    bundles = [build_dipole(ms, em, GaugeParam(theta), 30) for theta in (0.0, 0.37, 1.0)]
    bundles.append(build_naive(ms, em, COULOMB, 30))
    multi = real_system(6, 1, "multi_axis")
    bundles.append(build_dipole(*multi, GaugeParam(0.5), 10))  # one sector, no parity
    dtypes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(m, *args, _original=original, **kwargs):
            dtypes.append(np.asarray(m).dtype)
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    for bundle in bundles:
        bundle.eigenvalues()
        bundle.eigensystem()
    assert len(dtypes) == 2 * 4 * 2 + 2
    assert all(d == np.float64 for d in dtypes)


@pytest.mark.parametrize("cutoff", [1, 2, 7, 40, 160])
def test_fock_quadrature_is_scaled_hermite_roots(cutoff):
    x, v = fock_quadrature(cutoff)
    assert fock_quadrature(cutoff)[1] is v
    assert not x.flags.writeable and not v.flags.writeable
    roots = np.polynomial.hermite.hermgauss(cutoff + 1)[0] * np.sqrt(2)
    assert max_abs(x - roots) <= 1e-12 * max_abs(roots)
    a = ladder_matrix(cutoff).real
    assert max_abs((a + a.T) @ v - v * x) <= 1e-12 * max_abs(x)
    assert max_abs(v.T @ v - np.eye(cutoff + 1)) <= 1e-12
    # the photon parity reverses the columns: (-1)^n v = v J
    parity = (-1.0) ** np.arange(cutoff + 1)
    assert max_abs(parity[:, None] * v - v[:, ::-1]) <= 1e-12


def local_eig(g, cutoff):
    """(nu, w): the eigensystem of phi = g a^dag + g^* a that the gauge family of a single
    mode with coupling g keeps, nu = |g| x and w = R v."""
    cs = CouplingSet(g * PAULI_X[None], [[1.0]])
    family = QuadratureFamily(cs, np.array([g]), PAULI_X, TLS_PARITY_SIGNS, PAULI_Z, (cutoff,))
    return family.x, family.basis.factors[0]


@settings(max_examples=40, deadline=None)
@given(cutoff=st.integers(1, 60), modulus=st.floats(1e-3, 3.0), angle=st.floats(-np.pi, np.pi))
def test_cached_local_eigs_match_direct_eigh(cutoff, modulus, angle):
    g = modulus * np.exp(1j * angle)
    a = ladder_matrix(cutoff)
    phi = g * a.conj().T + np.conj(g) * a
    nu, v = local_eig(g, cutoff)
    scale = max(1.0, max_abs(nu))
    assert max_abs(nu - np.linalg.eigvalsh(phi)) <= 1e-13 * scale
    assert max_abs(phi @ v - v * nu) <= 1e-13 * scale
    assert max_abs(v.conj().T @ v - np.eye(cutoff + 1)) <= 1e-13


def test_local_eigs_of_zero_and_real_couplings():
    nu, v = local_eig(0j, 4)
    assert np.array_equal(nu, np.zeros(5)) and np.array_equal(v, np.eye(5))
    a = ladder_matrix(6)
    phi = -0.7 * (a + a.T)
    nu, v = local_eig(-0.7 + 0j, 6)  # a real coupling keeps real eigenvectors
    assert np.isrealobj(v)
    assert max_abs(phi @ v - v * nu) <= 1e-13
    space = HilbertSpec([photon(6), matter_levels(2)])
    cs = CouplingSet(-0.7 * np.diag([1.0, -1.0])[None], [[1.0]])
    want = np.linalg.eigh(np.kron(phi, np.diag([1.0, -1.0])))
    u = (want[1] * np.exp(0.4j * want[0])) @ want[1].conj().T
    assert max_abs(cs.generator(space).apply(0.4, np.eye(space.dim)) - u) <= 1e-12
