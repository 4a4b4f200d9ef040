"""Two-level dipole builds in the field-quadrature basis against the dense Fock-basis
assembly of `DenseSystem`, their tie order, and the measured checks on the raw blocks."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from gaugecraft import (COULOMB, GaugeParam, HamiltonianBundle, InvariantViolation, ModeSet,
                        build_dipole, build_naive, couplings, field_hamiltonian, tls,
                        verify_spectral_equivalence)
from gaugecraft.hamiltonians import QuadratureFamily
from gaugecraft.hilbert import max_abs, parity_labels

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
    """A two-mode build's raw blocks with one injected entry: each measured check raises."""

    def build(self, complex_chi=True):
        family = QuadratureFamily.of(*two_modes(complex_chi), (4, 3))
        blocks = [m.copy() for m in family.blocks(0.37, [1.0])]
        HamiltonianBundle.in_quadrature_basis(family, GaugeParam(0.37), blocks, {})
        return family, blocks

    def test_hermiticity(self):
        family, (a0, a1, b) = self.build()
        a0[0, 1, 3] += 1e-8  # an asymmetric entry
        with pytest.raises(InvariantViolation, match="not Hermitian before symmetrization"):
            HamiltonianBundle.in_quadrature_basis(family, GaugeParam(0.37), (a0, a1, b), {})

    def test_parity(self):
        family, (a0, a1, b) = self.build()
        a1[0, 1, 3] += 1e-8  # Hermitian, but A_0 != J A_1 J
        a1[0, 3, 1] += 1e-8
        with pytest.raises(InvariantViolation, match="parity"):
            HamiltonianBundle.in_quadrature_basis(family, GaugeParam(0.37), (a0, a1, b), {})

    def test_time_reversal(self):
        family, (a0, a1, b) = self.build(complex_chi=False)
        assert family.time_reversal
        n = a0.shape[-1]
        a0[0, 1, 3] += 1e-8j  # Hermitian and imaginary, mirrored to keep the parity
        a0[0, 3, 1] -= 1e-8j
        a1[0, n - 2, n - 4] += 1e-8j
        a1[0, n - 4, n - 2] -= 1e-8j
        with pytest.raises(InvariantViolation, match="time reversal"):
            HamiltonianBundle.in_quadrature_basis(family, GaugeParam(0.37), (a0, a1, b), {})


@pytest.mark.parametrize("order", [None, 2])
def test_two_mode_residual_equals_the_fock_basis_residual(order):
    """W H_a W^dag - H_b on the low sector, as a diagonal phase in the quadrature basis and
    with W and both H formed in the Fock basis, for a complex chi and complex couplings."""
    ms, em = two_modes()
    ms = ModeSet(ms.chi, {"emitter": ms.profile("emitter") * np.exp([[0.4j], [-1.1j]])})
    cs = couplings(ms, em)
    h_a = (build_dipole(ms, em, COULOMB, (5, 3)) if order is None
           else build_naive(ms, em, COULOMB, (5, 3), order=order))
    h_b = build_dipole(ms, em, GaugeParam(0.6), (5, 3))
    fock_b = HamiltonianBundle(h_b.H, h_b.space, h_b.gauge, h_b.metadata)
    for fraction in (0.5, 0.3, 1.0):
        got = verify_spectral_equivalence(h_a, h_b, k=4, low_fraction=fraction, cs=cs)
        want = verify_spectral_equivalence(h_a, fock_b, k=4, low_fraction=fraction, cs=cs)
        if order is None:
            assert got.operator_residual <= 1e-10 and want.operator_residual <= 1e-10
        else:
            assert abs(got.operator_residual / want.operator_residual - 1) <= 1e-10
