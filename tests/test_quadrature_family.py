"""Two-level dipole builds in the field-quadrature basis against the dense Fock-basis
assembly of `DenseSystem`, their tie order, and the measured checks on the raw blocks."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from gaugecraft import (COULOMB, MULTIPOLAR, CouplingSet, GaugeParam, HamiltonianBundle,
                        InvariantViolation, ModeSet, build_dipole, build_naive, couplings,
                        field_hamiltonian, tls)
from gaugecraft.gaugecheck import canonical_residual
from gaugecraft.hamiltonians import QuadratureFamily
from gaugecraft.hilbert import HilbertSpec, max_abs, parity_labels

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

MAX_CUTOFF = {1: 14, 2: 5}


@st.composite
def systems(draw):
    """M in {1, 2} modes with unequal cutoffs, a real or a complex positive-definite chi, a
    two-level emitter along a random axis and complex profiles of a drawn strength."""
    n_modes = draw(st.sampled_from((1, 2)))
    cutoffs = draw(st.lists(st.integers(1, MAX_CUTOFF[n_modes]), min_size=n_modes,
                            max_size=n_modes, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a = rng.normal(size=(n_modes, n_modes))
    if draw(st.booleans()):
        a = a + 1j * rng.normal(size=(n_modes, n_modes))
    chi = a @ a.conj().T / (2 * n_modes) + np.diag(rng.uniform(0.6, 1.4, size=n_modes))
    em = tls(rng.uniform(0.5, 1.5), rng.normal(size=3))
    phases = np.exp(1j * np.array([draw(st.sampled_from((0.0, np.pi, 0.7, -2.1)))
                                   for _ in range(n_modes)]))
    f = phases[:, None] * rng.normal(size=(n_modes, 3))
    strength = draw(st.floats(0.05, 1.2))
    ms = ModeSet(chi, {"emitter": f})
    eta = np.abs(ms.profile("emitter") @ em.dipole[:, 0, 1]).max()
    return ModeSet(chi, {"emitter": f * strength / eta}), em, tuple(cutoffs)


def assert_matches_the_fock_assembly(bundle, h):
    assert bundle.basis == "quadrature"
    want = np.linalg.eigvalsh(h)
    scale = max(1.0, max_abs(want))
    assert max_abs(bundle.eigenvalues() - want) <= 1e-12 * scale
    vals, vecs = bundle.eigensystem()
    assert max_abs(vals - want) <= 1e-12 * scale
    assert np.linalg.norm(h @ vecs - vecs * vals, axis=0).max() <= 1e-10 * max(1.0, max_abs(h))
    assert max_abs(vecs.conj().T @ vecs - np.eye(len(vals))) <= 1e-12
    assert max_abs(bundle.H - h) <= 1e-12 * max(1.0, max_abs(h))


@pytest.mark.parametrize("chi", [[[1.0]], [[1.0, 0.2], [0.2, 1.4]]])
def test_the_field_block_of_real_couplings_is_real_and_is_w_dag_h_f_w(chi):
    """K, assembled through `HilbertSpec.kron` on the photon factors, keeps the real dtype
    of a real chi and real couplings, so that the sector solves stay real."""
    ms = ModeSet(chi, {"emitter": [(0.4, 0.1, 0.0), (-0.3, 0.2, 0.0)][:len(chi)]})
    family = QuadratureFamily.of(ms, tls(1.0, (1.0, 0.0, 0.0)), (6, 5)[:len(chi)])
    assert family.k.dtype.kind == "f"
    w = reduce(np.kron, family.basis.factors[:-1])
    want = w.conj().T @ field_hamiltonian(ms.chi, family.photons) @ w
    assert max_abs(family.k - want) <= 1e-12 * max_abs(want)


def test_forming_k_holds_k_and_a_slab():
    """K of two complex modes at N = 20 (n = 441, the size of the `multimode` benchmark's)
    is summed by `HilbertSpec.dense` slab by slab of each term, into one sum allocated in
    K's dtype.  Its traced peak is K, one slab, numpy's ufunc buffers and the local
    matrices, 1.14 K measured: 2.09 K while a whole term of K's size was formed beside the
    sum."""
    em = tls(1.0, (0.8, 0.0, 0.0))
    ms = ModeSet(np.array([[1.0, 0.2 + 0.15j], [0.2 - 0.15j, 1.3]]),
                 {em.position_label: [(0.5, 0.0, 0.0), (0.3j, 0.0, 0.0)]})
    family = QuadratureFamily.of(ms, em, (20, 20))
    assert not family.time_reversal
    tracemalloc.start()
    try:
        k = family.k
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k.shape == (441, 441) and k.dtype == np.complex128
    assert peak <= 1.2 * k.nbytes, f"{peak / k.nbytes:.2f} K"


def test_a_single_modes_k_is_its_one_term_bit_for_bit(monkeypatch):
    """A single mode's K is one Kronecker term on one factor, v^T diag(chi_00 n) v, at
    N = 300 (the `coupling-scan` benchmark's cutoff).  `_field` takes that term as K,
    neither added to a zero matrix nor copied by `HilbertSpec.dense`, and K is bit for bit
    that sum, which is a new matrix: the sum never is the caller's local one."""
    em = tls(1.0, (0.6 * np.sqrt(2.0), 0.0, 0.0))
    family = QuadratureFamily.of(ModeSet.single_mode(1.0, {em.position_label: (1, 0, 0)}),
                                 em, 300)
    v, root_n = family.v[0], np.sqrt(np.arange(301.0))
    # chi_00 n rounded as `field_terms` rounds it, taken to v^T L v as `_field` takes it
    local = np.multiply(v.T, (family.chi_tilde[0, 0] * root_n) * root_n, order="C") @ v
    want = family.photons.dense([{0: local}])
    assert want is not local and not np.shares_memory(want, local)
    monkeypatch.setattr(HilbertSpec, "dense", None)  # one mode: K is not summed
    assert family.k.dtype == want.dtype and family.k.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(system=systems(), theta=st.floats(0, 1))
def test_build_dipole_matches_the_fock_assembly(system, theta):
    ms, em, cutoffs = system
    h, _ = dense_oracle.dipole_matrix(ms, em, theta, cutoffs)
    assert_matches_the_fock_assembly(build_dipole(ms, em, GaugeParam(theta), cutoffs), h)


@settings(max_examples=20, deadline=None)
@given(system=systems(), order=st.integers(1, 3))
def test_build_naive_matches_the_fock_series(system, order):
    ms, em, cutoffs = system
    h, _ = dense_oracle.naive_matrix(ms, em, cutoffs, order)
    assert_matches_the_fock_assembly(build_naive(ms, em, COULOMB, cutoffs, order=order), h)


def two_modes(complex_chi=True):
    chi = np.array([[1.0, 0.25 + (0.1j if complex_chi else 0.0)],
                    [0.25 - (0.1j if complex_chi else 0.0), 1.3]])
    return ModeSet(chi, {"emitter": [(0.5, 0.2, 0.0), (0.3, -0.3, 0.1)]}), tls(1.0, (0.6, 0.2, 0.0))


def test_a_tie_between_sectors_keeps_the_even_sector_first(monkeypatch):
    ms, em = two_modes()
    bundle = build_dipole(ms, em, GaugeParam(0.37), (4, 3))
    eigh = np.linalg.eigh

    def tied(m):  # every eigenvalue 0: all of them tie across the sectors
        vals, vecs = eigh(m)
        return np.zeros_like(vals), vecs

    monkeypatch.setattr(np.linalg, "eigh", tied)
    vals, vecs = bundle.eigensystem()
    assert not vals.any()
    # the parity expectation of every column: +1 for the first half, -1 for the second
    labels = parity_labels(bundle.space, em.parity_signs)
    parity = (labels[:, None] * np.abs(vecs) ** 2).sum(axis=0)
    half = len(vals) // 2
    assert max_abs(parity - np.repeat([1.0, -1.0], half)) <= 1e-12


def test_the_quadrature_path_is_taken_for_every_two_level_system_that_factors():
    ms, em = two_modes()
    family = QuadratureFamily.of(ms, em, (4, 3))
    assert family.cutoffs == (4, 3) and family.space.dim == 40
    assert not family.time_reversal and QuadratureFamily.of(*two_modes(False), 4).time_reversal
    zero_mode = ModeSet(ms.chi, {"emitter": [(0.5, 0.2, 0.0), (0.0, 0.0, 0.0)]})
    assert build_dipole(zero_mode, em, COULOMB, (4, 3)).basis == "quadrature"
    uncoupled = ModeSet(ms.chi, {"emitter": np.zeros((2, 3))})
    assert build_dipole(uncoupled, em, COULOMB, (4, 3)).basis == "fock"
    assert not QuadratureFamily.of(uncoupled, em, (4, 3)).sectored  # formed in the Fock basis


class TestMutations:
    """A two-mode family whose K carries one injected entry before K is first checked: K is
    checked once per family when a member is first measured, and each check raises."""

    def build(self, complex_chi=True):
        self.measured(QuadratureFamily.of(*two_modes(complex_chi), (4, 3)))  # passes intact
        return QuadratureFamily.of(*two_modes(complex_chi), (4, 3))

    def measured(self, family):
        return HamiltonianBundle.in_quadrature_basis(family, GaugeParam(0.37),
                                                     family.recipe([1.0]), {})

    def test_hermiticity(self):
        family = self.build()
        family.k[1, 3] += 1e-8  # an asymmetric entry
        with pytest.raises(InvariantViolation, match="not Hermitian before symmetrization"):
            self.measured(family)

    def test_parity(self):
        family = self.build()
        family.k[1, 3] += 1e-8  # Hermitian, but K != J K J
        family.k[3, 1] += 1e-8
        with pytest.raises(InvariantViolation, match="parity"):
            self.measured(family)

    def test_time_reversal(self):
        family = self.build(complex_chi=False)
        assert family.time_reversal and family.k.dtype.kind == "f"
        n = len(family.x)
        e = np.zeros((n, n), dtype=complex)
        e[1, 3], e[3, 1] = 1e-8j, -1e-8j  # Hermitian and imaginary, mirrored to keep the parity
        e[n - 2, n - 4], e[n - 4, n - 2] = 1e-8j, -1e-8j
        family.k = family.k + e
        with pytest.raises(InvariantViolation, match="time reversal"):
            self.measured(family)


def test_two_mode_certificate_equals_the_fock_basis_certificate():
    """The canonical residual of a multipolar member read from its quadrature-basis sectors
    and phases and from the same H as a Fock-basis bundle, for a complex chi and complex
    couplings at a cutoff where the residual is far from zero (9.0e-6)."""
    ms, em = two_modes()
    ms = ModeSet(ms.chi, {"emitter": ms.profile("emitter") * np.exp([[0.4j], [-1.1j]])})
    h_b = build_dipole(ms, em, MULTIPOLAR, (5, 3))
    fock_b = HamiltonianBundle(h_b.H, h_b.space, h_b.gauge, h_b.metadata)
    assert h_b.basis == "quadrature" and fock_b.basis == "fock"
    cs, e0 = couplings(ms, em), h_b.eigenvalues(1)[0]
    got, want = (canonical_residual(b, cs, em.h0, e0) for b in (h_b, fock_b))
    assert want > 1e-6 and abs(got - want) <= 1e-12


@pytest.mark.parametrize("differ", ["chi", "h0", "eta"])
def test_the_certificate_fails_a_member_of_other_inputs(differ):
    """A converged multipolar member (one mode, eta = 0.5, N = 40) is certified by its own
    canonical form to 1e-12, and not by one of another chi, h0 or coupling strength."""
    ms, em = dense_oracle.tls_single_mode_modeset(1.0, 0.5, 1.0)
    bundle = build_dipole(ms, em, MULTIPOLAR, 40)
    cs, e0 = couplings(ms, em), bundle.eigenvalues(1)[0]
    assert canonical_residual(bundle, cs, em.h0, e0) <= 1e-12
    other = {"chi": (CouplingSet(cs.eta_matrices, 1.1 * cs.chi), em.h0),
             "h0": (cs, tls(1.1, (0.5, 0.0, 0.0)).h0),
             "eta": (CouplingSet(0.9 * cs.eta_matrices, cs.chi), em.h0)}[differ]
    assert canonical_residual(bundle, *other, e0) > 1e-2
