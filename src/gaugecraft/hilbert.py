"""Operator algebra over tensor-product Hilbert spaces.

Provides the ordered tensor-factor layout (`HilbertSpec`), dense complex
operators bound to it (`Operator`), ladder and Pauli operators embedded in
the full product space, and the gauge generators.  Operators on the full
space are dense matrices aimed at desk-scale dimensions (up to ~10^4); they
are assembled as Kronecker products of local factor matrices
(`HilbertSpec.kron`), never by multiplying embedded D x D matrices.

The package has one Hermiticity rule, `hermitian_part`, applied once to each
matrix where it enters (generator terms, chi, overlaps, dipoles, built and
static Hamiltonians): a non-Hermitian matrix is refused, never averaged into
a Hermitian one.

Gauge generators come in two forms with one interface.  When the generator
is a sum of local terms on the leading factors times one matrix on the last
factor, X = (sum_i phi_i) (x) D, `KroneckerGenerator` keeps only the local
eigendecompositions and assembles exp(i s X) and its conjugations from
Kronecker products in O(D^2).  Any other Hermitian generator goes through
`HermitianGenerator`, which eigendecomposes the D x D matrix once.  Values
are immutable after construction and safe to share across threads.

Conventions: hbar = 1 and eps0 = 1 throughout the package.  Fock states are
ordered |0>, |1>, ..., |N>; a two-level matter factor is ordered |e>, |g>,
so that sigma_z = diag(+1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InvariantViolation

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class Factor:
    """One tensor factor: a photon mode with a Fock cutoff, or a matter system.

    For photon factors ``dim = fock_cutoff + 1`` (states |0> .. |N>).
    """

    kind: str  # "photon" | "matter"
    dim: int

    def __post_init__(self):
        if self.kind not in ("photon", "matter"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("factor dimension must be >= 1")

    @property
    def fock_cutoff(self) -> int:
        if self.kind != "photon":
            raise ValueError("fock_cutoff only defined for photon factors")
        return self.dim - 1


def photon(fock_cutoff: int) -> Factor:
    """Photon factor with Fock states |0> .. |fock_cutoff|."""
    if fock_cutoff < 0:
        raise ValueError("fock_cutoff must be >= 0")
    return Factor("photon", fock_cutoff + 1)


def matter_levels(dim: int) -> Factor:
    """Matter factor with `dim` energy levels."""
    return Factor("matter", dim)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes; leading (stack) axes broadcast."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def kron_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k kron(left[k], right[k]) for stacks of matrices, as one product over k."""
    (k, p, q), (_, i, j) = left.shape, right.shape
    out = (left.reshape(k, p * q).T @ right.reshape(k, i * j)).reshape(p, q, i, j)
    return out.transpose(0, 2, 1, 3).reshape(p * i, q * j)


@dataclass(frozen=True)
class HilbertSpec:
    """Ordered list of tensor factors defining the full Hilbert space."""

    factors: tuple[Factor, ...]

    def __init__(self, factors: Iterable[Factor]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("HilbertSpec needs at least one factor")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        d = 1
        for f in self.factors:
            d *= f.dim
        return d

    @property
    def photon_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f.kind == "photon")

    @property
    def matter_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f.kind == "matter")

    def kron(self, local: Mapping[int, np.ndarray]) -> np.ndarray:
        """Kronecker product of local matrices on the given factors, identity elsewhere."""
        out = np.ones((1, 1), dtype=complex)
        idle = 1  # dimension of the run of identity factors not yet multiplied in
        for index in local:
            if not 0 <= index < len(self.factors):
                raise IndexError(f"factor index {index} out of range")
        for i, f in enumerate(self.factors):
            if i not in local:
                idle *= f.dim
                continue
            m = np.asarray(local[i], dtype=complex)
            if m.shape != (f.dim, f.dim):
                raise ValueError("local matrix does not match factor dimension")
            if idle > 1:
                out = kron(out, np.eye(idle))
                idle = 1
            out = kron(out, m)
        return kron(out, np.eye(idle)) if idle > 1 else out

    def embed(self, index: int, local: np.ndarray) -> np.ndarray:
        """Embed a single-factor matrix into the full space by Kronecker products."""
        return self.kron({index: local})


def fock_mask(space: HilbertSpec, top: Callable[[int], int]) -> np.ndarray:
    """Boolean mask of the product states with photon number n <= top(N) on every
    photon factor of cutoff N; the diagonal of the projector onto that sector."""
    keep = np.ones(1, dtype=bool)
    for f in space.factors:
        local = np.ones(f.dim, dtype=bool)
        if f.kind == "photon":
            local[top(f.fock_cutoff) + 1:] = False
        keep = np.logical_and.outer(keep, local).ravel()
    return keep


def parity_labels(space: HilbertSpec, matter_signs: Sequence[int]) -> np.ndarray:
    """Eigenvalue (+1 or -1) of the parity (-1)^(sum_mu n_mu) (x) diag(matter_signs)
    on every product state; the diagonal of that operator."""
    labels = np.ones(1, dtype=int)
    for f in space.factors:
        if f.kind == "photon":
            local = 1 - 2 * (np.arange(f.dim) % 2)
        else:
            local = np.asarray(matter_signs, dtype=int)
            if local.shape != (f.dim,):
                raise ValueError("need one sign per level of the matter factor")
        labels = np.multiply.outer(labels, local).ravel()
    return labels


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-abs norm, zero for empty arrays."""
    return float(np.abs(m).max()) if m.size else 0.0


def hermitian_part(m: np.ndarray, what: str) -> np.ndarray:
    """(m + m^dag) / 2, after checking that ||m - m^dag||_max of the raw m is at
    most HERMITIAN_TOL * max(1, max|m|); `InvariantViolation` names `what`."""
    m = np.asarray(m, dtype=complex)
    m_dag = m.conj().T
    dev = max_abs(m - m_dag)
    # the scale max(1, max|m|) is needed only once dev exceeds the absolute tolerance
    if dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * max_abs(m):
        raise InvariantViolation(f"{what} is not Hermitian before symmetrization "
                                 f"(||m - m^dag||_max = {dev:.3e})")
    out = m + m_dag
    out *= 0.5
    return out


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix bound to a HilbertSpec.

    The ``hermitian``/``unitary`` flags are *verified* at construction when
    claimed (never merely asserted): claiming a property that the matrix does
    not satisfy raises ``InvariantViolation``.  A flag value of ``None`` means
    unchecked.
    """

    matrix: np.ndarray
    space: HilbertSpec
    hermitian: Optional[bool] = field(default=None)
    unitary: Optional[bool] = field(default=None)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[0] != self.space.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} != space dimension {self.space.dim}"
            )
        if self.hermitian:
            dev = max_abs(m - m.conj().T)
            if dev >= HERMITIAN_TOL:
                raise InvariantViolation(f"hermitian flag set but ||M - M^dag||_max = {dev:.3e}")
        if self.unitary:
            dev = max_abs(m.conj().T @ m - np.eye(m.shape[0]))
            if dev >= UNITARY_TOL:
                raise InvariantViolation(f"unitary flag set but ||M^dag M - 1||_max = {dev:.3e}")

    @classmethod
    def unitary_from_factors(cls, matrix: np.ndarray, space: HilbertSpec) -> "Operator":
        """Unitary operator assembled from factors whose unitarity the caller verified.

        A Kronecker product of unitaries, and a sum of them weighted by
        orthogonal projectors that resolve the identity, is exactly unitary,
        so the D x D product check that `unitary=True` would run is skipped.
        """
        op = cls(matrix, space)
        object.__setattr__(op, "unitary", True)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def ladder_matrix(fock_cutoff: int) -> np.ndarray:
    """Truncated annihilation matrix with <n-1|a|n> = sqrt(n)."""
    a = np.zeros((fock_cutoff + 1, fock_cutoff + 1), dtype=complex)
    for n in range(1, fock_cutoff + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def ladder(space: HilbertSpec, mode_index: int) -> Operator:
    """Annihilation operator of one photon factor, embedded in the full space.

    `mode_index` counts photon factors (0-based, in factor order).
    """
    photon_idx = space.photon_indices
    if not 0 <= mode_index < len(photon_idx):
        raise IndexError(f"mode index {mode_index} out of range (have {len(photon_idx)} photon factors)")
    fi = photon_idx[mode_index]
    local = ladder_matrix(space.factors[fi].fock_cutoff)
    return Operator(space.embed(fi, local), space)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli(space: HilbertSpec, matter_index: int) -> tuple[Operator, Operator, Operator]:
    """(sigma_x, sigma_y, sigma_z) of a two-level matter factor, embedded.

    Basis order is |e>, |g>, so sigma_z = |e><e| - |g><g| = diag(+1, -1).
    """
    matter_idx = space.matter_indices
    if not 0 <= matter_index < len(matter_idx):
        raise IndexError(f"matter index {matter_index} out of range")
    fi = matter_idx[matter_index]
    if space.factors[fi].dim != 2:
        raise ValueError(f"matter factor has dim {space.factors[fi].dim}, need 2 for Pauli algebra")
    return tuple(
        Operator(space.embed(fi, p), space, hermitian=True)
        for p in (PAULI_X, PAULI_Y, PAULI_Z)
    )


def _check_unitary_columns(v: np.ndarray, what: str):
    dev = max_abs(v.conj().T @ v - np.eye(v.shape[1]))
    if dev >= UNITARY_TOL:
        raise InvariantViolation(f"{what}: ||V^dag V - 1||_max = {dev:.3e}")


class HermitianGenerator:
    """Cached eigendecomposition of a Hermitian generator X.

    unitary(s) returns exp(i s X) as an exactly-unitary matrix; repeated
    evaluations (gauge sweeps, time-dependent couplings) reuse the
    factorization.  This is the dense form, for generators that do not
    factor as a `KroneckerGenerator`.
    """

    def __init__(self, matrix: np.ndarray, space: HilbertSpec):
        self.space = space
        self.matrix = hermitian_part(matrix, "generator")
        self._vals, self._vecs = np.linalg.eigh(self.matrix)

    def unitary(self, s: float) -> Operator:
        u = (self._vecs * np.exp(1j * s * self._vals)) @ self._vecs.conj().T
        return Operator(u, self.space, unitary=True)

    def conjugate(self, s: float, m: np.ndarray) -> np.ndarray:
        """exp(i s X) M exp(-i s X) as a plain matrix."""
        u = self.unitary(s).matrix
        return u @ m @ u.conj().T

    def conjugate_photon(self, s: float, a: np.ndarray) -> np.ndarray:
        """exp(i s X) (A (x) 1) exp(-i s X) for A on all factors but the last."""
        return self.conjugate(s, kron(a, np.eye(self.space.factors[-1].dim)))

    def conjugate_matter(self, s: float, b: np.ndarray) -> np.ndarray:
        """exp(i s X) (1 (x) B) exp(-i s X) for B on the last factor."""
        return self.conjugate(s, kron(np.eye(self.space.dim // b.shape[0]), b))


def _kron_apply(local: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(A_0 (x) A_1 (x) ...) @ x one factor at a time, never forming the product.

    Each A_i may be a stack of matrices; stack axes broadcast against x's.
    """
    rows, cols = x.shape[-2:]
    before = 1
    for a in local:
        n = a.shape[-1]
        x = a[..., None, :, :] @ x.reshape(x.shape[:-2] + (before, n, -1))
        x = x.reshape(x.shape[:-3] + (rows, cols))
        before *= n
    return x


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


class KroneckerGenerator:
    """Hermitian generator X = (sum_i phi_i) (x) D, kept as local eigendecompositions.

    phi_i acts on leading factor i of `space` and D on its last factor.  The
    terms act on different factors and commute, so with D = sum_k lam_k P_k

        exp(i s X) = sum_k E(s lam_k) (x) P_k,   E(t) = (x)_i exp(i t phi_i),

    exactly on the truncated space.  Only the (N_i + 1)^2 local and n x n
    matter eigendecompositions are computed.  Unitarity of the local
    eigenvector matrices and orthogonality and completeness of the P_k are
    verified once here, which makes every assembled exp(i s X) exactly
    unitary; no D x D check is repeated.  The interface matches
    `HermitianGenerator`.
    """

    def __init__(self, local_terms: Sequence[np.ndarray], matter: np.ndarray,
                 space: HilbertSpec):
        if len(local_terms) != len(space.factors) - 1:
            raise ValueError("need one local term per leading factor")
        for f, phi in zip(space.factors, local_terms):
            if np.shape(phi) != (f.dim, f.dim):
                raise ValueError("local term does not match factor dimension")
        if np.shape(matter) != (space.factors[-1].dim,) * 2:
            raise ValueError("matter matrix does not match the last factor")
        self.space = space
        self._local_terms = [hermitian_part(p, "local generator term") for p in local_terms]
        self._matter = hermitian_part(matter, "matter generator term")
        self._local_eigs = []
        for p in self._local_terms:
            nu, v = np.linalg.eigh(p)
            _check_unitary_columns(v, "local eigenvector matrix is not unitary")
            self._local_eigs.append((1j * nu, v, v.conj().T))
        self._lam, vecs = np.linalg.eigh(self._matter)
        _check_unitary_columns(vecs, "matter eigenprojectors are not orthogonal")
        self._proj = np.einsum("ik,jk->kij", vecs, vecs.conj())  # P_k
        dev = max_abs(self._proj.sum(axis=0) - np.eye(len(self._lam)))
        if dev >= UNITARY_TOL:
            raise InvariantViolation(f"matter eigenprojectors are not complete, dev {dev:.3e}")
        gaps = self._lam[:, None] - self._lam[None, :]
        self._coupled = gaps != 0  # pairs (k, l) with lam_k != lam_l
        self._gaps = gaps[self._coupled]
        self._leading = HilbertSpec(space.factors[:-1])

    def _local_exps(self, t: np.ndarray) -> list:
        """exp(i t phi_i) for every entry of t: one stack of matrices per leading factor."""
        return [(v * np.exp(np.multiply.outer(t, i_nu))[:, None, :]) @ vh
                for i_nu, v, vh in self._local_eigs]

    def _photon_unitaries(self, t: np.ndarray) -> np.ndarray:
        """E(t) = (x)_i exp(i t phi_i) on the leading factors, for every entry of t."""
        return reduce(kron, self._local_exps(t))

    @cached_property
    def matrix(self) -> np.ndarray:
        """X as a dense matrix, built once on first use."""
        phi = sum(self._leading.kron({i: p}) for i, p in enumerate(self._local_terms))
        return kron(phi, self._matter)

    def unitary(self, s: float) -> Operator:
        w = kron_sum(self._photon_unitaries(s * self._lam), self._proj)
        return Operator.unitary_from_factors(w, self.space)

    def conjugate_photon(self, s: float, a: np.ndarray) -> np.ndarray:
        """exp(i s X) (A (x) 1) exp(-i s X) = sum_k E A E^dag (x) P_k, E = E(s lam_k)."""
        e = self._local_exps(s * self._lam)
        return kron_sum(_dagger(_kron_apply(e, _dagger(_kron_apply(e, a)))), self._proj)

    def conjugate_matter(self, s: float, b: np.ndarray) -> np.ndarray:
        """exp(i s X) (1 (x) B) exp(-i s X) = sum_kl E(s (lam_k - lam_l)) (x) P_k B P_l."""
        b = np.asarray(b, dtype=complex)
        blocks = self._proj[:, None] @ b @ self._proj[None, :]
        out = kron_sum(self._photon_unitaries(s * self._gaps), blocks[self._coupled])
        # pairs with lam_k = lam_l have E(0) = 1: add them on the photon diagonal
        n, m = self._leading.dim, b.shape[0]
        diagonal = np.arange(n)
        out.reshape(n, m, n, m)[diagonal, :, diagonal, :] += blocks[~self._coupled].sum(axis=0)
        return out
