"""Dense reference assembly of the gauge family: the oracle for the factored builders.

Every operator is embedded in the full space with `HilbertSpec.embed` and
combined by D x D matrix products, and every exponential exp(i s X) goes
through one D x D eigendecomposition of the generator.  This is slow, and
independent of the Kronecker factoring that the package uses.
"""

import numpy as np

from gaugecraft.hamiltonians import couplings, standard_space
from gaugecraft.hilbert import ladder_matrix


def field_hamiltonian(chi, space):
    """H_F = sum_{mu nu} chi_{mu nu} a_mu^dag a_nu from embedded ladders."""
    chi = np.atleast_2d(np.asarray(chi, dtype=complex))
    ph = space.photon_indices
    ops = [space.embed(fi, ladder_matrix(space.factors[fi].fock_cutoff)) for fi in ph]
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for m in range(len(ph)):
        for n in range(len(ph)):
            if chi[m, n] != 0:
                h += chi[m, n] * ops[m].conj().T @ ops[n]
    return h


def generator_matrix(eta_matrices, space):
    """X = sum_mu (a_mu^dag eta_mu + a_mu eta_mu^dag) from embedded factors."""
    mi = space.matter_indices[0]
    x = np.zeros((space.dim, space.dim), dtype=complex)
    for mu, fi in enumerate(space.photon_indices):
        adag = space.embed(fi, ladder_matrix(space.factors[fi].fock_cutoff)).conj().T
        term = adag @ space.embed(mi, eta_matrices[mu])
        x += term + term.conj().T
    return x


class DenseSystem:
    """H_F, H_0 and X of one emitter in one mode set, with dense exponentials."""

    def __init__(self, ms, em, cutoffs):
        self.space = standard_space(tuple(cutoffs), em.n_levels)
        self.h_f = field_hamiltonian(ms.chi, self.space)
        self.h_0 = self.space.embed(self.space.matter_indices[0], em.h0)
        self.x = generator_matrix(couplings(ms, em).eta_matrices, self.space)
        self._vals, self._vecs = np.linalg.eigh(self.x)

    def unitary(self, s):
        """exp(i s X)."""
        return (self._vecs * np.exp(1j * s * self._vals)) @ self._vecs.conj().T

    def conjugate(self, s, m):
        u = self.unitary(s)
        return u @ m @ u.conj().T

    def hamiltonian(self, theta):
        """H(theta) = V H_F V^dag + U H_0 U^dag, V = exp(-i theta X), U = exp(i (1 - theta) X)."""
        return self.conjugate(-theta, self.h_f) + self.conjugate(1.0 - theta, self.h_0)

    def gauge_unitary(self, theta_from, theta_to):
        return self.unitary(-(theta_to - theta_from))

    def td_matrix(self, gauge, profile, t, extra_term_sign=1.0):
        mu = profile.mu(t)
        if gauge == "coulomb":
            return self.h_f + self.conjugate(mu, self.h_0)
        return (self.conjugate(-mu, self.h_f) + self.h_0
                + extra_term_sign * profile.mu_dot(t) * self.x)
