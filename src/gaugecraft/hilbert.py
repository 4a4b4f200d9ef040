"""Operator algebra over tensor-product Hilbert spaces.

Provides the ordered tensor-factor layout (`HilbertSpec`), the truncated
ladder and Pauli matrices, and the gauge generators.  A dense operator on the
full space is a bare D x D ndarray, for desk-scale D (up to ~10^4).  Products
of local factor matrices have one Kronecker engine.  An operator is a list of
Kronecker terms, each a {factor: local matrix} map with identities on the
factors it leaves out: `HilbertSpec.dense` is the one place where such a list
becomes a D x D matrix (summed in place, slab by slab of each term, in the
dtype of its terms), and `_kron_apply` is the one apply,
factor by factor, which `HilbertSpec.apply` sums over the terms.

The package has one Hermiticity rule, `hermitian_part`, applied once to each
matrix where it enters (generator terms, chi, overlaps, dipoles, built and
static Hamiltonians, the fixed K and M that H(t) is formed or applied from):
a non-Hermitian matrix is refused, never averaged into a Hermitian one.

A gauge generator X is known by its eigenbasis B, X = B diag(xi) B^dag, an
`Eigenbasis` that keeps B as Kronecker factors; there every exp(i s X) is a
diagonal phase, so no gauge exponential is formed as a matrix: `Eigenbasis.apply`
is the one way a gauge map reaches a vector, and `transform` and `fock_matrix`
take a matrix into B and back.  When the couplings share one Hermitian matter
matrix D, B is the field-quadrature basis of `hamiltonians.QuadratureFamily`,
built from the one `fock_quadrature` of each cutoff (rotated by `mode_phase`)
and the eigenvectors of D.  Any other Hermitian generator goes through
`HermitianGenerator`, which eigendecomposes the D x D matrix once; the
package reads only its eigenbasis.
`lanczos` is the one matrix-free eigensolver: it reads a Hermitian operator only
through a callable that applies it, and returns the Ritz pairs of its start vector's
spectral measure (`Lanczos`).
Values are immutable after construction and safe to share across threads.

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
HERMITIAN_CHUNK = 1 << 15  # entries of m - m^dag that `hermitian_part` holds at once
DENSE_SLAB = 1 << 13  # entries of one Kronecker term that `HilbertSpec.dense` forms at once
RITZ_CHECK_STEPS = 10  # Lanczos steps between two looks at the Ritz pairs


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
    """Kronecker product over the last two axes; leading (stack) axes broadcast.  The
    product is formed in C order, so that the reshape is a view: a transposed factor would
    otherwise order it by its strides and the reshape copy it."""
    out = np.multiply(a[..., :, None, :, None], b[..., None, :, None, :], order="C")
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


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

    def _checked(self, local: Mapping[int, np.ndarray], identity: Callable) -> list:
        """One Kronecker term's local matrices in factor order, each checked against its
        factor, with identity(dim) on the factors it leaves out."""
        for i in sorted(local):
            if not 0 <= i < len(self.factors):
                raise IndexError(f"factor index {i} out of range")
            if np.shape(local[i]) != (self.factors[i].dim,) * 2:
                raise ValueError("local matrix does not match factor dimension")
        return [np.asarray(local[i]) if i in local else identity(f.dim)
                for i, f in enumerate(self.factors)]

    def kron(self, local: Mapping[int, np.ndarray]) -> np.ndarray:
        """Kronecker product of local matrices on the given factors, identity elsewhere; a new
        array, a copy of the one local matrix of a one-factor space."""
        factors = self._checked(local, np.eye)
        return reduce(kron, factors) if len(factors) > 1 else factors[0].copy()

    def dense(self, terms: Iterable[Mapping[int, np.ndarray]], dtype=float) -> np.ndarray:
        """sum_t kron(t) as one D x D matrix, each term t a {factor: local matrix} map, as
        `apply` takes.  The sum is allocated once, in the result dtype of `dtype` and every
        local matrix, and each term is added into it slab by slab, the rows of a few rows of
        its first factor at a time (at most DENSE_SLAB entries, or one row of it), so that no
        D x D temporary of a term is made.  Each entry is still ((0 + t_1) + t_2) + ...,
        each t_i one product of local entries formed as `kron` forms it."""
        terms = [self._checked(term, np.eye) for term in terms]
        total = np.zeros((self.dim, self.dim),
                         dtype=np.result_type(dtype, *(m for t in terms for m in t)))
        first = self.factors[0].dim
        rest = self.dim // first
        rows = max(1, DENSE_SLAB // (rest * self.dim))
        for factors in terms:
            for r in range(0, first, rows):
                total[r * rest:(r + rows) * rest] += reduce(kron, [factors[0][r:r + rows],
                                                                   *factors[1:]])
        return total

    def apply(self, terms: Iterable[Mapping[int, np.ndarray]], x: np.ndarray) -> np.ndarray:
        """(sum_t kron(t)) @ x for a vector or a D x K block x, each term applied factor by
        factor by `_kron_apply`; each term t is a {factor: local matrix} map, as `kron` takes."""
        x = np.asarray(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"vector dimension {x.shape[0]} != space dimension {self.dim}")
        return sum((_kron_apply(self._checked(term, int), x) for term in terms),
                   np.zeros(x.shape, dtype=complex))

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


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| for two arrays (..., n, m) of one shape, with a - b formed
    HERMITIAN_CHUNK entries at a time, so that no temporary of their size is made; zero
    when they are empty."""
    rows = max(1, HERMITIAN_CHUNK // max(1, a.shape[-1]))
    return max((max_abs(a[..., i:i + rows, :] - b[..., i:i + rows, :])
                for i in range(0, a.shape[-2], rows)), default=0.0)


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def verify_members(measured: np.ndarray, tol: np.ndarray, claim: str, what: str):
    """Raise `InvariantViolation` "<claim> in stack member i (<what> = value)" for the first
    member i of a stack whose measured value exceeds its own tol; "<claim> (<what> =
    value)" for a stack of one."""
    bad = np.flatnonzero(measured > tol)
    if bad.size:
        where = f" in stack member {bad[0]}" if measured.size > 1 else ""
        raise InvariantViolation(f"{claim}{where} ({what} = {measured[bad[0]]:.3e})")


def hermitian_part(m: np.ndarray, what: str) -> np.ndarray:
    """(m + m^dag) / 2, after checking that ||m - m^dag||_max of the raw m is at
    most HERMITIAN_TOL * max(1, max|m|); `InvariantViolation` names `what`.

    m^dag is copied once, into the result, and m - m^dag is measured by
    `max_abs_diff`, so no other temporary of m's size is allocated.
    """
    m = np.asarray(m, dtype=complex)
    out = np.conj(m.swapaxes(-1, -2), order="C")
    dev = max_abs_diff(m, out)
    if dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * max_abs(m):  # tol * max(1, max|m|)
        raise InvariantViolation(f"{what} is not Hermitian before symmetrization "
                                 f"(||m - m^dag||_max = {dev:.3e})")
    out += m
    out *= 0.5
    return out


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix bound to a HilbertSpec.

    The package builds none: its dense operators are bare ndarrays.  The class
    stays as the target whose `__post_init__` `perfbench/tracer.py` wraps.
    """

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

    `eigenbasis` is the basis in which every exp(i s X) is a diagonal phase
    (`Eigenbasis.apply`, `hamiltonians.EigenbasisFamily`); repeated evaluations
    (gauge sweeps, time-dependent couplings) reuse the factorization, which
    is computed on first use and whose eigenvectors are checked to be unitary
    then, once, in real arithmetic when X is real.  s is a float.  This is the
    dense form, for couplings that do not share one matter matrix.
    `unitary(s)`, the matrix exp(i s X), and `conjugate` stay for the tests'
    oracles and the perf tracer, which wraps both by name; no other module
    calls either.
    """

    def __init__(self, matrix: np.ndarray, space: HilbertSpec):
        self.space = space
        self.matrix = hermitian_part(matrix, "generator")

    @cached_property
    def _eig(self):
        """eigh of X, in real arithmetic when X is real (real couplings): then B is real, and
        a real matrix is taken into B and back by real products."""
        vals, vecs = np.linalg.eigh(self.matrix if np.any(self.matrix.imag) else self.matrix.real)
        _check_unitary_columns(vecs, "generator eigenvectors are not unitary")
        return vals, vecs

    def eigenbasis(self) -> Eigenbasis:
        """X = V diag(Lambda) V^dag, from the cached eigendecomposition."""
        vals, vecs = self._eig
        return Eigenbasis(vals, (vecs,))

    def unitary(self, s: float) -> np.ndarray:
        """exp(i s X) = (V e^{i s Lambda}) V^dag."""
        vals, vecs = self._eig
        return (vecs * np.exp(1j * (s * vals))) @ vecs.conj().T

    def conjugate(self, s: float, m: np.ndarray) -> np.ndarray:
        """exp(i s X) M exp(-i s X)."""
        u = self.unitary(s)
        return u @ m @ _dagger(u)


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


def _kron_apply(local: Sequence, x: np.ndarray) -> np.ndarray:
    """(A_0 (x) A_1 (x) ...) @ x one factor at a time, never forming the product.

    x is a vector or a block; each A_i may be a stack of matrices, whose
    stack axes broadcast against a block's, or an int, the dimension of an
    identity factor, which is skipped.
    """
    if x.ndim == 1:
        return _kron_apply(local, x[:, None])[:, 0]
    rows, cols = x.shape[-2:]
    before = 1
    for a in local:
        if isinstance(a, int):
            before *= a
            continue
        n = a.shape[-1]
        x = _left_multiply(a[..., None, :, :], x.reshape(x.shape[:-2] + (before, n, -1)))
        x = x.reshape(x.shape[:-3] + (rows, cols))
        before *= n
    return x


@dataclass(frozen=True)
class Lanczos:
    """The Ritz pairs of a Lanczos run of m steps on a Hermitian H from a start vector v.

    T = V^dag H V is the tridiagonal matrix of the orthonormal Lanczos vectors V (n, m),
    T s_k = theta_k s_k.  The Ritz values theta_k and weights ||v||^2 |s_1k|^2 are the
    m-node Gauss quadrature of the spectral measure sum_j |<j|v>|^2 delta(E - E_j) of v
    (Golub & Welsch, Math. Comp. 23, 221 (1969)), so a converged pair carries the weight
    of its level, summed over a degenerate eigenspace, and a level orthogonal to v has
    none.  residuals_k = beta_m |s_mk| = ||H y_k - theta_k y_k||_2 for the Ritz vector
    y_k = V s_k, in exact arithmetic; a pair is converged when it is at most `tol`.
    """

    values: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    tol: float
    basis: np.ndarray  # the Lanczos vectors as rows, (m, n)
    ritz: np.ndarray  # s, (m, m)

    @property
    def iterations(self) -> int:
        return len(self.values)

    @property
    def converged(self) -> np.ndarray:
        return self.residuals <= self.tol

    def vectors(self, k: Sequence[int]) -> np.ndarray:
        """The Ritz vectors y_k = V s_k (n, len(k)) of these pairs."""
        return self.basis.T @ self.ritz[:, k]


def lanczos(apply: Callable[[np.ndarray], np.ndarray], start: np.ndarray, tol: float,
            cap: int, done: Callable[[Lanczos], bool] = lambda run: False) -> Lanczos:
    """Lanczos with full reorthogonalization on the Hermitian H of `apply` (x -> H x for a
    vector x (n,)), from `start`; no matrix of H is formed or read.

    Each new vector is orthogonalized against every earlier one twice (classical
    Gram-Schmidt twice), so that V stays orthonormal to rounding and no ghost copy of a
    converged level appears.  Every RITZ_CHECK_STEPS steps the Ritz pairs are formed from
    T, by an eigh that costs about as much as a few steps at m = 60, and handed to
    `done`; the run stops when `done` accepts them, after `cap` steps (at most n), or when
    beta_m <= tol, where the Krylov space of v is invariant and every pair converged.  A
    run whose beta falls to rounding above tol goes on from a rounding direction, which
    can meet a level of v's measure once more: its weight is then the sum over the pairs
    at it.  A zero start vector has the empty measure and takes no step.
    """
    norm = float(np.linalg.norm(start))
    cap = min(cap, len(start))
    if norm == 0.0 or cap == 0:
        empty = np.empty(0)
        return Lanczos(empty, empty, empty, tol, np.empty((0, len(start))), np.empty((0, 0)))
    v = start / norm
    w = apply(v)
    basis = np.empty((cap, len(start)), dtype=np.result_type(v, w))
    basis[0] = v
    alpha, beta = np.empty(cap), np.empty(cap)
    for j in range(cap):
        if j:
            w = apply(basis[j])
        m = j + 1
        # twice against every earlier vector; V^dag w as (V w^*)^*, with no conjugate of V
        h = (basis[:m] @ w.conj()).conj()
        w = w - h @ basis[:m]
        h2 = (basis[:m] @ w.conj()).conj()
        w -= h2 @ basis[:m]
        alpha[j] = (h[j] + h2[j]).real
        beta[j] = np.linalg.norm(w)
        last = m == cap or beta[j] <= tol
        if last or m % RITZ_CHECK_STEPS == 0:
            run = _ritz(alpha[:m], beta[:m], norm, tol, basis[:m])
            if last or done(run):
                return run
        basis[m] = w / beta[j]
    raise AssertionError("unreachable: the last step returns")


def _ritz(alpha: np.ndarray, beta: np.ndarray, norm: float, tol: float,
          basis: np.ndarray) -> Lanczos:
    """The Ritz pairs of the tridiagonal T with diagonal alpha and off-diagonal beta[:-1],
    beta[-1] the coupling to the next Lanczos vector."""
    t = np.diag(alpha)
    i = np.arange(len(alpha) - 1)
    t[i, i + 1] = t[i + 1, i] = beta[:-1]
    values, s = np.linalg.eigh(t)
    return Lanczos(values, norm**2 * s[0] ** 2, beta[-1] * np.abs(s[-1]), tol, basis, s)


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

    def fock_matrix(self, m: np.ndarray) -> np.ndarray:
        """B M B^dag, not symmetrized: the inverse of `transform`.  (B M) B^dag =
        (B^* (B M)^T)^T, so the factors are conjugated, not the D x D matrices."""
        return _kron_apply([f.conj() for f in self.factors], self.to_fock(m).T).T

    def apply(self, s: float, x: np.ndarray) -> np.ndarray:
        """exp(i s X) x = B e^{i s xi} B^dag x for a vector, a D x K block or a stack of
        blocks x (..., D, K)."""
        y = self.from_fock(np.asarray(x))
        phase = np.exp(1j * (s * self.xi))
        return self.to_fock((phase if y.ndim == 1 else phase[:, None]) * y)
