"""Operator algebra over tensor-product Hilbert spaces.

Provides the ordered tensor-factor layout (`HilbertSpec`), dense complex
operators bound to it (`Operator`), ladder and Pauli operators embedded in
the full product space, and the gauge generators.  Operators on the full
space are either dense matrices for desk-scale D (up to ~10^4), assembled
as Kronecker products of local factor matrices (`HilbertSpec.kron`), or sums
of Kronecker terms that `HilbertSpec.apply` applies factor by factor.

The package has one Hermiticity rule, `hermitian_part`, applied once to each
matrix where it enters (generator terms, chi, overlaps, dipoles, built and
static Hamiltonians): a non-Hermitian matrix is refused, never averaged into
a Hermitian one.

Gauge generators come in two forms with one interface.  When the generator
is a sum of local terms on the leading factors times one matrix on the last
factor, X = (sum_i phi_i) (x) D, `KroneckerGenerator` keeps only the local
eigendecompositions and assembles exp(i s X) and its conjugations from
Kronecker products in O(D^2).  Any other Hermitian generator goes through
`HermitianGenerator`, which eigendecomposes the D x D matrix once.  Both
apply exp(i s X) to vectors (`apply`) without forming it.  Values are
immutable after construction and safe to share across threads.

Conventions: hbar = 1 and eps0 = 1 throughout the package.  Fock states are
ordered |0>, |1>, ..., |N>; a two-level matter factor is ordered |e>, |g>,
so that sigma_z = diag(+1, -1).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
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
    """sum_k kron(left[..., k, :, :], right[..., k, :, :]), as one product over k.

    Stack axes in front of k broadcast between the operands, so a stack of
    left factors against one set of right factors gives a stack of sums.
    """
    p, q = left.shape[-2:]
    i, j = right.shape[-2:]
    out = (left.reshape(left.shape[:-2] + (p * q,)).swapaxes(-1, -2)
           @ right.reshape(right.shape[:-2] + (i * j,)))
    out = out.reshape(out.shape[:-2] + (p, q, i, j)).swapaxes(-3, -2)
    return out.reshape(out.shape[:-4] + (p * i, q * j))


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

    def _checked(self, local: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        """One Kronecker term's local matrices in factor order, each checked against its factor."""
        out = {i: np.asarray(local[i], dtype=complex) for i in sorted(local)}
        for i, m in out.items():
            if not 0 <= i < len(self.factors):
                raise IndexError(f"factor index {i} out of range")
            if m.shape != (self.factors[i].dim,) * 2:
                raise ValueError("local matrix does not match factor dimension")
        return out

    def kron(self, local: Mapping[int, np.ndarray]) -> np.ndarray:
        """Kronecker product of local matrices on the given factors, identity elsewhere."""
        local = self._checked(local)
        out = np.ones((1, 1), dtype=complex)
        idle = 1  # dimension of the run of identity factors not yet multiplied in
        for i, f in enumerate(self.factors):
            if i not in local:
                idle *= f.dim
                continue
            if idle > 1:
                out = kron(out, np.eye(idle))
                idle = 1
            out = kron(out, local[i])
        return kron(out, np.eye(idle)) if idle > 1 else out

    def apply(self, terms: Iterable[Mapping[int, np.ndarray]], x: np.ndarray) -> np.ndarray:
        """(sum_t kron(t)) @ x for a vector or a D x K block x, one factor at a time;
        each term t is a {factor: local matrix} map, as `kron` takes."""
        x = np.asarray(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"vector dimension {x.shape[0]} != space dimension {self.dim}")
        block = x.reshape(self.dim, -1)
        out = np.zeros(block.shape, dtype=complex)
        for term in terms:
            y = block
            for i, m in self._checked(term).items():
                before = int(np.prod([f.dim for f in self.factors[:i]]))
                y = _left_multiply(m, y.reshape(before, len(m), -1))
            out += y.reshape(block.shape)
        return out.reshape(x.shape)

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


def parity_labels(space: HilbertSpec,
                  matter_signs: Optional[Sequence[int]] = None) -> np.ndarray:
    """Eigenvalue (+1 or -1) of the parity (-1)^(sum_mu n_mu) (x) diag(matter_signs)
    on every product state; the diagonal of that operator.  Without matter
    signs it is the photon parity (-1)^(sum_mu n_mu) alone."""
    labels = np.ones(1, dtype=int)
    for f in space.factors:
        if f.kind == "photon":
            local = 1 - 2 * (np.arange(f.dim) % 2)
        elif matter_signs is None:
            local = np.ones(f.dim, dtype=int)
        else:
            local = np.asarray(matter_signs, dtype=int)
            if local.shape != (f.dim,):
                raise ValueError("need one sign per level of the matter factor")
        labels = np.multiply.outer(labels, local).ravel()
    return labels


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-abs norm, zero for empty arrays."""
    return float(np.abs(m).max()) if m.size else 0.0


def member_max_abs(m: np.ndarray) -> np.ndarray:
    """Entrywise max-abs norm of each matrix of a stack (..., D, D), zero when empty."""
    return np.abs(m).max(axis=(-2, -1)) if m.size else np.zeros(m.shape[:-2])


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def verify_members(measured: np.ndarray, tol: np.ndarray, claim: str, what: str):
    """Raise `InvariantViolation` "<claim> in stack member i (<what> = value)" for the first
    member i of a stack whose measured value exceeds its own tol."""
    bad = np.flatnonzero(measured > tol)
    if bad.size:
        raise InvariantViolation(f"{claim} in stack member {bad[0]} ({what} = "
                                 f"{measured[bad[0]]:.3e})")


def hermitian_part(m: np.ndarray, what: str) -> np.ndarray:
    """(m + m^dag) / 2, after checking that ||m - m^dag||_max of the raw m is at
    most HERMITIAN_TOL * max(1, max|m|); `InvariantViolation` names `what`.
    """
    m = np.asarray(m, dtype=complex)
    m_dag = _dagger(m)
    dev = max_abs(m - m_dag)
    if dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * max_abs(m):  # tol * max(1, max|m|)
        raise InvariantViolation(f"{what} is not Hermitian before symmetrization "
                                 f"(||m - m^dag||_max = {dev:.3e})")
    out = m + m_dag
    out *= 0.5
    return out


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix bound to a HilbertSpec, or a stack (S, D, D) of them."""

    matrix: np.ndarray
    space: HilbertSpec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError("operator matrix must be square, or a stack of square matrices")
        if m.shape[-1] != self.space.dim:
            raise ValueError(
                f"matrix dimension {m.shape[-1]} != space dimension {self.space.dim}"
            )


def ladder_matrix(fock_cutoff: int) -> np.ndarray:
    """Truncated annihilation matrix with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, fock_cutoff + 1)), 1).astype(complex)


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
    return tuple(Operator(space.embed(fi, p), space) for p in (PAULI_X, PAULI_Y, PAULI_Z))


def _check_unitary_columns(v: np.ndarray, what: str):
    dev = max_abs(v.conj().T @ v - np.eye(v.shape[1]))
    if dev >= UNITARY_TOL:
        raise InvariantViolation(f"{what}: ||V^dag V - 1||_max = {dev:.3e}")


class HermitianGenerator:
    """Cached eigendecomposition of a Hermitian generator X.

    apply(s, x) returns exp(i s X) x and unitary(s) the matrix exp(i s X);
    repeated evaluations (gauge sweeps, time-dependent couplings) reuse the
    factorization, which is computed on first use and whose eigenvectors are
    checked to be unitary then, once.  Every method takes s as a float or as
    a 1-D array; an array gives the stack of the results at each of its
    entries.  This is the dense form, for generators that do not factor as a
    `KroneckerGenerator`.
    """

    def __init__(self, matrix: np.ndarray, space: HilbertSpec):
        self.space = space
        self.matrix = hermitian_part(matrix, "generator")

    @cached_property
    def _eig(self):
        vals, vecs = np.linalg.eigh(self.matrix)
        _check_unitary_columns(vecs, "generator eigenvectors are not unitary")
        return vals, vecs

    def apply(self, s, x: np.ndarray) -> np.ndarray:
        """exp(i s X) x for a vector or a D x K block x; shape (S,) + x.shape for an array s."""
        vals, vecs = self._eig
        x = np.asarray(x)
        y = vecs.conj().T @ x.reshape(len(vals), -1)
        out = vecs @ (np.exp(1j * np.multiply.outer(s, vals))[..., None] * y)
        return out.reshape(np.shape(s) + x.shape)

    def unitary(self, s) -> Operator:
        """exp(i s X) = (V e^{i s Lambda}) V^dag; a stack (S, D, D) for an array s."""
        vals, vecs = self._eig
        phases = np.exp(1j * np.multiply.outer(s, vals))[..., None, :]
        return Operator((vecs * phases) @ vecs.conj().T, self.space)

    def conjugate(self, s, m: np.ndarray) -> np.ndarray:
        """exp(i s X) M exp(-i s X) as a plain matrix."""
        u = self.unitary(s).matrix
        return u @ m @ _dagger(u)

    def conjugate_photon(self, s, a: np.ndarray) -> np.ndarray:
        """exp(i s X) (A (x) 1) exp(-i s X) for A on all factors but the last."""
        return self.conjugate(s, kron(a, np.eye(self.space.factors[-1].dim)))

    def conjugate_matter(self, s, b: np.ndarray) -> np.ndarray:
        """exp(i s X) (1 (x) B) exp(-i s X) for B on the last factor."""
        return self.conjugate(s, kron(np.eye(self.space.dim // b.shape[0]), b))

    def nested_commutators(self, b: np.ndarray, order: int) -> np.ndarray:
        """sum_{j<=order} (i^j / j!) ad_X^j(1 (x) B), ad_X(Y) = [X, Y], for B on the
        last factor: the Taylor series of `conjugate_matter(1, B)` cut at `order`."""
        x = self.matrix
        terms = [kron(np.eye(self.space.dim // b.shape[0]), b)]
        for j in range(1, order + 1):
            terms.append((1j / j) * (x @ terms[-1] - terms[-1] @ x))
        return sum(terms)


@lru_cache(maxsize=8)
def fock_quadrature(fock_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, v): the real eigensystem of the truncated a + a^dag on |0> .. |N>.

    x, ascending, are sqrt(2) times the roots of the Hermite polynomial
    H_{N+1}; the columns of v are orthonormal eigenvectors, checked here.
    Kept read-only for the eight most recent cutoffs.  v outlives every
    build, so it is copied into its own anonymous memory map: left in the
    malloc heap among the large short-lived D x D temporaries, it kept the
    heap from shrinking and raised the peak RSS of a 40-coupling
    gauge-check at D = 602 by 2 MB.
    """
    a = ladder_matrix(fock_cutoff).real
    x, v = np.linalg.eigh(a + a.T)
    _check_unitary_columns(v, "Fock quadrature eigenvectors are not orthogonal")
    kept = np.frombuffer(mmap.mmap(-1, v.nbytes), dtype=v.dtype).reshape(v.shape)
    kept[...] = v
    for arr in (x, kept):
        arr.flags.writeable = False
    return x, kept


def _local_eig(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, unitary eigenvectors) of a Hermitian local term.

    A term g a^dag + g^* a equals |g| R (a + a^dag) R^dag, R = diag(e^(i n arg g)),
    so its eigensystem is (|g| x, R v) with (x, v) = `fock_quadrature`; g = 0
    gives the identity.  Any other term is eigendecomposed on its own.  The
    eigenvectors are real whenever the term is: for a real g, and for any
    other term without an imaginary part.
    """
    n = len(phi)
    g = phi[1, 0] if n > 1 else 0j
    a = ladder_matrix(n - 1)
    if np.array_equal(phi, g * a.conj().T + np.conj(g) * a):
        if g == 0:
            return np.zeros(n), np.eye(n)
        x, v = fock_quadrature(n - 1)
        k = np.arange(n)
        # exactly +-1 for real g, so a real coupling keeps real eigenvectors
        phase = np.sign(g.real) ** k if g.imag == 0 else np.exp(1j * np.angle(g) * k)
        return abs(g) * x, phase[:, None] * v
    nu, v = np.linalg.eigh(phi if np.any(phi.imag) else phi.real)
    _check_unitary_columns(v, "local eigenvector matrix is not unitary")
    return nu, v


def _left_multiply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x; a real a acts on the real and imaginary parts of a complex x alike, so
    that is one real product where numpy would promote a to a complex one."""
    if a.dtype.kind == "f" and x.dtype.kind == "c":
        return (a @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)
    return a @ x


def _kron_apply(local: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(A_0 (x) A_1 (x) ...) @ x one factor at a time, never forming the product.

    Each A_i may be a stack of matrices; stack axes broadcast against x's.
    """
    rows, cols = x.shape[-2:]
    before = 1
    for a in local:
        n = a.shape[-1]
        x = _left_multiply(a[..., None, :, :], x.reshape(x.shape[:-2] + (before, n, -1)))
        x = x.reshape(x.shape[:-3] + (rows, cols))
        before *= n
    return x


class KroneckerGenerator:
    """Hermitian generator X = (sum_i phi_i) (x) D, kept as local eigendecompositions.

    phi_i acts on leading factor i of `space` and D on its last factor.  The
    terms act on different factors and commute, so with D = sum_k lam_k P_k

        exp(i s X) = sum_k E(s lam_k) (x) P_k,   E(t) = (x)_i exp(i t phi_i),

    exactly on the truncated space.  Only the local and the n x n matter
    eigendecompositions are needed.  A coupling term phi_i = g a^dag + g^* a
    takes its eigensystem from the one `fock_quadrature` of its cutoff,
    rotated by the phase of g, so modes and gauges of one cutoff share a
    single eigensolve; any other local term is eigendecomposed here.
    Unitarity of the local eigenvector matrices (of the quadrature's v once
    per cutoff; R is a diagonal of unit phases) and orthogonality and
    completeness of the P_k are verified once, which makes every assembled
    exp(i s X) exactly unitary; no D x D check is repeated.  The interface
    matches `HermitianGenerator`, s a float or a 1-D array.
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
        # per leading factor (i nu, v, v^dag), v^dag contiguous for the products below
        self._local_eigs = [(1j * nu, v, np.ascontiguousarray(_dagger(v)))
                            for nu, v in map(_local_eig, self._local_terms)]
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
        """exp(i t phi_i) = v exp(i t nu) v^dag for every entry of t: one stack of
        matrices per leading factor, a real product for a real v."""
        return [_left_multiply(v, np.exp(np.multiply.outer(t, i_nu))[..., :, None] * vh)
                for i_nu, v, vh in self._local_eigs]

    def _photon_term(self) -> np.ndarray:
        """sum_i phi_i on the leading factors."""
        return sum(self._leading.kron({i: p}) for i, p in enumerate(self._local_terms))

    @cached_property
    def matrix(self) -> np.ndarray:
        """X as a dense matrix, built once on first use."""
        return kron(self._photon_term(), self._matter)

    def nested_commutators(self, b: np.ndarray, order: int) -> np.ndarray:
        """sum_{j<=order} (i^j / j!) ad_X^j(1 (x) B), ad_X(Y) = [X, Y], B on the last factor.

        With phi = sum_i phi_i, [phi (x) D, phi^j (x) C] = phi^(j+1) (x) [D, C],
        so ad_X^j(1 (x) B) = phi^j (x) ad_D^j(B) and the series is one Kronecker
        sum over j, without a D x D product.
        """
        phi = self._photon_term()
        powers, terms = [np.eye(len(phi), dtype=complex)], [np.asarray(b, dtype=complex)]
        for j in range(1, order + 1):
            powers.append(powers[-1] @ phi)
            # (i^j / j!) ad_D^j(B) from the previous term
            terms.append((1j / j) * (self._matter @ terms[-1] - terms[-1] @ self._matter))
        return kron_sum(np.array(powers), np.array(terms))

    def apply(self, s, x: np.ndarray) -> np.ndarray:
        """exp(i s X) x = sum_k (E(s lam_k) (x) P_k) x for a vector or a D x K block x,
        factor by factor; shape (S,) + x.shape for an array s."""
        x = np.asarray(x)
        e = self._local_exps(np.multiply.outer(s, self._lam))
        out = _kron_apply(e + [self._proj], x.reshape(self.space.dim, -1)).sum(axis=-3)
        return out.reshape(np.shape(s) + x.shape)

    def unitary(self, s) -> Operator:
        w = kron_sum(reduce(kron, self._local_exps(np.multiply.outer(s, self._lam))), self._proj)
        return Operator(w, self.space)

    def conjugate_photon(self, s, a: np.ndarray) -> np.ndarray:
        """exp(i s X) (A (x) 1) exp(-i s X) = sum_k E A E^dag (x) P_k, E = E(s lam_k)."""
        e = self._local_exps(np.multiply.outer(s, self._lam))
        return kron_sum(_dagger(_kron_apply(e, _dagger(_kron_apply(e, a)))), self._proj)

    def conjugate_matter(self, s, b: np.ndarray) -> np.ndarray:
        """exp(i s X) (1 (x) B) exp(-i s X) = sum_kl E(s (lam_k - lam_l)) (x) P_k B P_l."""
        b = np.asarray(b, dtype=complex)
        blocks = self._proj[:, None] @ b @ self._proj[None, :]
        out = kron_sum(reduce(kron, self._local_exps(np.multiply.outer(s, self._gaps))),
                       blocks[self._coupled])
        # pairs with lam_k = lam_l have E(0) = 1: add them on the photon diagonal
        n, m = self._leading.dim, b.shape[0]
        diagonal = np.arange(n)
        uncoupled = blocks[~self._coupled].sum(axis=0)
        out.reshape(-1, n, m, n, m)[:, diagonal, :, diagonal, :] += uncoupled
        return out
