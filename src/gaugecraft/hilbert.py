"""Operator algebra over tensor-product Hilbert spaces.

Provides the ordered tensor-factor layout (`HilbertSpec`), dense complex
matrices bound to it (`Operator`), the truncated ladder and Pauli matrices,
and the gauge generators.  Operators on the full space are either dense
matrices for desk-scale D (up to ~10^4), assembled as Kronecker products of
local factor matrices (`HilbertSpec.kron`), or sums of Kronecker terms that
`HilbertSpec.apply` applies factor by factor.

The package has one Hermiticity rule, `hermitian_part`, applied once to each
matrix where it enters (generator terms, chi, overlaps, dipoles, built and
static Hamiltonians): a non-Hermitian matrix is refused, never averaged into
a Hermitian one.

Gauge generators come in two forms with one interface.  When the couplings
share one Hermitian matter matrix D, X = (sum_mu phi_mu) (x) D with
phi_mu = g_mu a_mu^dag + g_mu^* a_mu, and `KroneckerGenerator` keeps only
each phi_mu's eigensystem, taken from the one `fock_quadrature` of its
cutoff, and the n x n eigensystem of D.  Any other Hermitian generator goes
through `HermitianGenerator`, which eigendecomposes the D x D matrix once.
Both give the eigenbasis B of X, X = B diag(xi) B^dag, as an `Eigenbasis`
that keeps B as Kronecker factors; there every exp(i s X) is a diagonal
phase, and `Eigenbasis.apply` is the one way a gauge map reaches a vector.
Values are immutable after construction and safe to share across threads.

Conventions: hbar = 1 and eps0 = 1 throughout the package.  Fock states are
ordered |0>, |1>, ..., |N>; a two-level matter factor is ordered |e>, |g>,
so that sigma_z = diag(+1, -1).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InvariantViolation

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
HERMITIAN_CHUNK = 1 << 15  # entries of m - m^dag that `hermitian_part` holds at once


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
    """sum_k kron(left[k], right[k]) over two stacks (K, p, q) and (K, i, j), as one
    product over k."""
    k, p, q = left.shape
    i, j = right.shape[1:]
    out = left.reshape(k, p * q).T @ right.reshape(k, i * j)
    return out.reshape(p, q, i, j).swapaxes(1, 2).reshape(p * i, q * j)


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

    m^dag is copied once, into the result, and m - m^dag is measured
    HERMITIAN_CHUNK entries at a time, so no other temporary of m's size is
    allocated.
    """
    m = np.asarray(m, dtype=complex)
    out = np.conjugate(m.swapaxes(-1, -2), order="C")
    rows = max(1, HERMITIAN_CHUNK // max(1, m.shape[-1]))
    dev = max((max_abs(m[..., i:i + rows, :] - out[..., i:i + rows, :])
               for i in range(0, m.shape[-2], rows)), default=0.0)
    if dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * max_abs(m):  # tol * max(1, max|m|)
        raise InvariantViolation(f"{what} is not Hermitian before symmetrization "
                                 f"(||m - m^dag||_max = {dev:.3e})")
    out += m
    out *= 0.5
    return out


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix bound to a HilbertSpec."""

    matrix: np.ndarray
    space: HilbertSpec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[-1] != self.space.dim:
            raise ValueError(
                f"matrix dimension {m.shape[-1]} != space dimension {self.space.dim}"
            )


def ladder_matrix(fock_cutoff: int) -> np.ndarray:
    """Truncated annihilation matrix with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, fock_cutoff + 1)), 1).astype(complex)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check_unitary_columns(v: np.ndarray, what: str):
    dev = max_abs(v.conj().T @ v - np.eye(v.shape[1]))
    if dev >= UNITARY_TOL:
        raise InvariantViolation(f"{what}: ||V^dag V - 1||_max = {dev:.3e}")


class HermitianGenerator:
    """Cached eigendecomposition of a Hermitian generator X.

    unitary(s) returns the matrix exp(i s X), and `eigenbasis` the basis in
    which `Eigenbasis.apply` applies it to vectors; repeated evaluations
    (gauge sweeps, time-dependent couplings) reuse the factorization, which
    is computed on first use and whose eigenvectors are checked to be unitary
    then, once.  s is a float.  This is the dense form, for generators that
    do not factor as a `KroneckerGenerator`.
    """

    def __init__(self, matrix: np.ndarray, space: HilbertSpec):
        self.space = space
        self.matrix = hermitian_part(matrix, "generator")

    @cached_property
    def _eig(self):
        vals, vecs = np.linalg.eigh(self.matrix)
        _check_unitary_columns(vecs, "generator eigenvectors are not unitary")
        return vals, vecs

    def eigenbasis(self) -> Eigenbasis:
        """X = V diag(Lambda) V^dag, from the cached eigendecomposition."""
        vals, vecs = self._eig
        return Eigenbasis(vals, (vecs,))

    def unitary(self, s: float) -> Operator:
        """exp(i s X) = (V e^{i s Lambda}) V^dag."""
        vals, vecs = self._eig
        return Operator((vecs * np.exp(1j * (s * vals))) @ vecs.conj().T, self.space)

    def conjugate(self, s: float, m: np.ndarray) -> np.ndarray:
        """exp(i s X) M exp(-i s X) as a plain matrix."""
        u = self.unitary(s).matrix
        return u @ m @ _dagger(u)

    def conjugate_photon(self, s: float, a: np.ndarray) -> np.ndarray:
        """exp(i s X) (A (x) 1) exp(-i s X) for A on all factors but the last."""
        return self.conjugate(s, kron(a, np.eye(self.space.factors[-1].dim)))

    def conjugate_matter(self, s: float, b: np.ndarray) -> np.ndarray:
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
    H_{N+1}, so x_{N-i} = -x_i; the columns of v are orthonormal eigenvectors,
    signed so that the photon parity reverses them, (-1)^n v = v J with J the
    reversal of the columns.  Both properties are checked here, once per
    cutoff, and the arrays are kept read-only for the eight most recent
    cutoffs.  v outlives every build, so it is copied into its own anonymous
    memory map: left in the malloc heap among the large short-lived D x D
    temporaries, it kept the heap from shrinking and raised the peak RSS of
    a 40-coupling gauge-check at D = 602 by 2 MB.
    """
    a = ladder_matrix(fock_cutoff).real
    x, v = np.linalg.eigh(a + a.T)
    _check_unitary_columns(v, "Fock quadrature eigenvectors are not orthogonal")
    n = fock_cutoff + 1
    p = 1 - 2 * (np.arange(n) % 2)
    # (-1)^n maps column i to +-column N - i: sign the upper half to make it +
    s = np.sign(np.einsum("n,ni,ni->i", p, v, v[:, ::-1]))
    v = v * np.where(np.arange(n) >= n - n // 2, s, 1.0)
    dev = max_abs(p[:, None] * v - v[:, ::-1])
    if dev >= UNITARY_TOL:
        raise InvariantViolation(f"photon parity does not reverse the quadrature basis ({dev:.3e})")
    kept = np.frombuffer(mmap.mmap(-1, v.nbytes), dtype=v.dtype).reshape(v.shape)
    kept[...] = v
    for arr in (x, kept):
        arr.flags.writeable = False
    return x, kept


def _local_eig(g: complex, fock_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, unitary eigenvectors) of phi = g a^dag + g^* a on |0> .. |N>.

    phi = |g| R (a + a^dag) R^dag with R = diag(e^(i n arg g)), so its
    eigensystem is (|g| x, R v) with (x, v) = `fock_quadrature`; g = 0 gives
    the identity.  The eigenvectors are real for a real g.
    """
    n = fock_cutoff + 1
    if g == 0:
        return np.zeros(n), np.eye(n)
    x, v = fock_quadrature(fock_cutoff)
    return abs(g) * x, mode_phase(g, n)[:, None] * v


def mode_phase(g: complex, n: int) -> np.ndarray:
    """The diagonal e^(i k arg g), k = 0 .. n - 1, of the R with
    g a^dag + g^* a = |g| R (a + a^dag) R^dag; exactly +-1 for a real g, so that a real
    coupling keeps real matrices, and 1 for g = 0."""
    k = np.arange(n)
    if np.imag(g) == 0:
        return np.where(np.real(g) < 0, (-1.0) ** k, 1.0)
    return np.exp(1j * np.angle(g) * k)


def _left_multiply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x; a real a acts on the real and imaginary parts of a complex x alike, so
    that is one real product where numpy would promote a to a complex one."""
    if a.dtype.kind == "f" and x.dtype.kind == "c":
        return (a @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)
    return a @ x


def _kron_apply(local: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(A_0 (x) A_1 (x) ...) @ x one factor at a time, never forming the product.

    x is a vector or a block; each A_i may be a stack of matrices, whose
    stack axes broadcast against a block's.
    """
    if x.ndim == 1:
        return _kron_apply(local, x[:, None])[:, 0]
    rows, cols = x.shape[-2:]
    before = 1
    for a in local:
        n = a.shape[-1]
        x = _left_multiply(a[..., None, :, :], x.reshape(x.shape[:-2] + (before, n, -1)))
        x = x.reshape(x.shape[:-3] + (rows, cols))
        before *= n
    return x


@dataclass(frozen=True)
class Eigenbasis:
    """X = B diag(xi) B^dag, with the unitary B kept as its Kronecker factors; maps a
    vector or a D x K block x between the Fock basis and B, factor by factor."""

    xi: np.ndarray
    factors: tuple

    def to_fock(self, x: np.ndarray) -> np.ndarray:
        """B x."""
        return _kron_apply(self.factors, x)

    def from_fock(self, x: np.ndarray) -> np.ndarray:
        """B^dag x."""
        return _kron_apply([_dagger(f) for f in self.factors], x)

    def transform(self, m: np.ndarray) -> np.ndarray:
        """B^dag M B, not symmetrized."""
        return self.from_fock(_dagger(self.from_fock(_dagger(m))))

    def apply(self, s: float, x: np.ndarray) -> np.ndarray:
        """exp(i s X) x = B e^{i s xi} B^dag x for a vector or a D x K block x."""
        y = self.from_fock(np.asarray(x))
        phase = np.exp(1j * (s * self.xi))
        return self.to_fock(phase.reshape(phase.shape + (1,) * (y.ndim - 1)) * y)


class KroneckerGenerator:
    """Hermitian generator X = (sum_i phi_i) (x) D, phi_i = g_i a_i^dag + g_i^* a_i, kept
    as local eigendecompositions.

    The couplings g_i act on the leading (photon) factors of `space` and the
    Hermitian matter matrix D on its last factor, the (g, D) that
    `CouplingSet.common_matter_matrix` returns.  The terms act on different
    factors and commute, so with D = sum_k lam_k P_k

        exp(i s X) = sum_k E(s lam_k) (x) P_k,   E(t) = (x)_i exp(i t phi_i),

    exactly on the truncated space.  Only the local and the n x n matter
    eigendecompositions are needed, and each phi_i takes its eigensystem from
    the one `fock_quadrature` of its cutoff, rotated by the phase of g_i
    (`_local_eig`), so modes and gauges of one cutoff share a single
    eigensolve.  Unitarity of the quadrature's v (once per cutoff; the
    rotation is a diagonal of unit phases) and orthogonality and completeness
    of the P_k are verified once, which makes every assembled exp(i s X)
    exactly unitary; no D x D check is repeated.  The interface matches
    `HermitianGenerator`.
    """

    def __init__(self, couplings: Sequence[complex], matter: np.ndarray,
                 space: HilbertSpec):
        if len(couplings) != len(space.factors) - 1:
            raise ValueError("need one coupling per leading factor")
        if np.shape(matter) != (space.factors[-1].dim,) * 2:
            raise ValueError("matter matrix does not match the last factor")
        self.space = space
        self._couplings = list(couplings)
        self._matter = hermitian_part(matter, "matter generator term")
        # per leading factor (i nu, v, v^dag), v^dag contiguous for the products below
        self._local_eigs = [(1j * nu, v, np.ascontiguousarray(_dagger(v)))
                            for nu, v in (_local_eig(g, f.fock_cutoff)
                                          for g, f in zip(self._couplings, space.factors))]
        self._lam, vecs = np.linalg.eigh(self._matter)
        _check_unitary_columns(vecs, "matter eigenprojectors are not orthogonal")
        self._vecs = vecs
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
        terms = []
        for i, (g, f) in enumerate(zip(self._couplings, self._leading.factors)):
            a = ladder_matrix(f.fock_cutoff)
            terms.append(self._leading.kron({i: g * a.conj().T + np.conj(g) * a}))
        return sum(terms)

    @cached_property
    def matrix(self) -> np.ndarray:
        """X as a dense matrix, built once on first use."""
        return kron(self._photon_term(), self._matter)

    def nested_commutators(self, b: np.ndarray, order: int) -> np.ndarray:
        """sum_{j<=order} (i^j / j!) ad_X^j(1 (x) B), ad_X(Y) = [X, Y], B on the last factor.

        With phi = sum_i phi_i, [phi (x) D, phi^j (x) C] = phi^(j+1) (x) [D, C],
        so ad_X^j(1 (x) B) = phi^j (x) ad_D^j(B) and the series is one Kronecker
        sum over j, without a D x D product.  Two-level emitters sum it in the
        field-quadrature basis (`hamiltonians.QuadratureFamily`); this form is
        kept for N-level emitters, where routed through the `eigenbasis` it
        took 116 ms against 40 ms at order 2 and D = 882 (two modes, N = 20,
        a two-level emitter, 2 cores).
        """
        phi = self._photon_term()
        powers, terms = [np.eye(len(phi), dtype=complex)], [np.asarray(b, dtype=complex)]
        for j in range(1, order + 1):
            powers.append(powers[-1] @ phi)
            # (i^j / j!) ad_D^j(B) from the previous term
            terms.append((1j / j) * (self._matter @ terms[-1] - terms[-1] @ self._matter))
        return kron_sum(np.array(powers), np.array(terms))

    def eigenbasis(self) -> Eigenbasis:
        """X = B diag(xi) B^dag with B = v_0 (x) v_1 (x) ... (x) W, the local eigenvectors
        v_i and the matter eigenvectors W, and xi = (nu_0 (+) nu_1 (+) ...) (x) lam."""
        nu = reduce(np.add.outer, [i_nu.imag for i_nu, _, _ in self._local_eigs], 0.0)
        return Eigenbasis(np.multiply.outer(nu, self._lam).ravel(),
                          tuple(v for _, v, _ in self._local_eigs) + (self._vecs,))

    def unitary(self, s: float) -> Operator:
        """exp(i s X) = sum_k E(s lam_k) (x) P_k, one Kronecker sum.  Kept in this form
        rather than formed as B e^{i s xi} B^dag from the `eigenbasis`: that took
        32 ms against 14 ms at D = 882 (two modes, N = 20, 2 cores)."""
        w = kron_sum(reduce(kron, self._local_exps(s * self._lam)), self._proj)
        return Operator(w, self.space)

    def conjugate_photon(self, s: float, a: np.ndarray) -> np.ndarray:
        """exp(i s X) (A (x) 1) exp(-i s X) = sum_k E A E^dag (x) P_k, E = E(s lam_k).

        Two-level emitters are built in the field-quadrature basis
        (`hamiltonians.QuadratureFamily`); this form is kept for N-level
        emitters and the longitudinal hook, where B Phi (B^dag (A (x) 1) B) Phi^*
        B^dag in the `eigenbasis`, with `conjugate_matter` likewise, took 107 ms
        against 33 ms for the assembly at D = 882 (two modes, N = 20, theta =
        0.37, a two-level emitter, 2 cores)."""
        e = self._local_exps(s * self._lam)
        return kron_sum(_dagger(_kron_apply(e, _dagger(_kron_apply(e, a)))), self._proj)

    def conjugate_matter(self, s: float, b: np.ndarray) -> np.ndarray:
        """exp(i s X) (1 (x) B) exp(-i s X) = sum_kl E(s (lam_k - lam_l)) (x) P_k B P_l.

        Kept in this form, for the systems and the reason `conjugate_photon` gives."""
        b = np.asarray(b, dtype=complex)
        blocks = self._proj[:, None] @ b @ self._proj[None, :]
        out = kron_sum(reduce(kron, self._local_exps(s * self._gaps)),
                       blocks[self._coupled])
        # pairs with lam_k = lam_l have E(0) = 1: add them on the photon diagonal
        n, m = self._leading.dim, b.shape[0]
        diagonal = np.arange(n)
        uncoupled = blocks[~self._coupled].sum(axis=0)
        out.reshape(-1, n, m, n, m)[:, diagonal, :, diagonal, :] += uncoupled
        return out
