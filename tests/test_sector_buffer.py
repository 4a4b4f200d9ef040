"""A `sectored` family's one n x n block: every sector is K turned in place and restored.

Each route that solves a sector (`eigenvalues`, `eigensystem`, `solve_ground_apart`,
`reached_measure` by Lanczos or by eigh, `shifted_vector`) must leave K bit for bit as a
freshly built family forms it, also when LAPACK raises mid-solve; and the blocks LAPACK is
handed must be, bit for bit, the copies of M0 that `dense_oracle.sector_stack` forms.
"""

import numpy as np
import pytest

from dense_oracle import sector_stack
from gaugecraft import GaugeParam, ModeSet, build_dipole, tls
from gaugecraft.hamiltonians import LANCZOS_MIN_SECTOR, QuadratureFamily

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

REAL = (ModeSet(np.array([[1.0, 0.2], [0.2, 1.3]]),
                {"emitter": [(0.6, 0.1, 0.0), (0.3, -0.2, 0.1)]}), tls(1.0, (0.8, 0.3, 0.0)))
COMPLEX = (ModeSet(np.array([[1.0, 0.1 - 0.05j], [0.1 + 0.05j, 1.2]]),
                   {"emitter": [(0.5, 0.2j, 0.0), (0.3, -0.3, 0.1j)]}), tls(1.0, (0.6, 0.2, 0.0)))
# n = 15 x 15 = 225 (odd: the middle entry lies on both diagonals) and 14 x 15 = 210, both
# past LANCZOS_MIN_SECTOR, so that the reached sector takes a Lanczos run
SYSTEMS = {"real-odd": (REAL, (14, 14)), "real-even": (REAL, (13, 14)),
           "complex-odd": (COMPLEX, (14, 14)), "complex-even": (COMPLEX, (14, 13))}


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    (ms, em), cutoffs = SYSTEMS[request.param]
    bundle = build_dipole(ms, em, GaugeParam(0.37), cutoffs)
    fresh = QuadratureFamily.of(ms, em, cutoffs).k
    assert bundle.family.sectored and len(fresh) > LANCZOS_MIN_SECTOR
    assert bundle.family.time_reversal == request.param.startswith("real")
    assert fresh.dtype == (np.float64 if bundle.family.time_reversal else np.complex128)
    return bundle, fresh


def assert_k_intact(bundle, fresh):
    k = bundle.family.k
    assert k.dtype == fresh.dtype and k.tobytes() == fresh.tobytes()


def start_vector(bundle):
    return np.random.default_rng(5).normal(size=bundle.space.dim) + 0j


ROUTES = {
    "eigenvalues": lambda b: b.eigenvalues(),
    "eigensystem": lambda b: b.eigensystem([0, 1, 2, 7]),
    "solve_ground_apart": lambda b: b.solve_ground_apart(),
    "lanczos": lambda b: (b.solve_ground_apart(),
                          b.reached_measure(start_vector(b), 1e-9, 40, lambda run: True)),
    "lanczos then eigh": lambda b: (b.solve_ground_apart(),
                                    b.reached_measure(start_vector(b), 1e-9, 20,
                                                      lambda run: False)),
    "shifted_vector": lambda b: b.shifted_vector(b.eigenvalues()[0]),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_k_survives_every_route(system, route):
    bundle, fresh = system
    ROUTES[route](bundle)
    assert_k_intact(bundle, fresh)


def test_a_run_that_falls_back_to_eigh_solves_the_reached_sector(system):
    """The eigh after an undecided Lanczos run solves the sector the run read: its
    eigenvectors are those of the oracle's copy of that sector."""
    bundle, _ = system
    y, vecs, run = ROUTES["lanczos then eigh"](bundle)[1]
    assert run is not None and run.iterations == 20 and vecs is not None
    eps = -bundle.family.ground_parity
    block = sector_stack(bundle.family, bundle.recipe, eps)[0][0]
    vals = bundle.recipe.solution[1][(1 - eps) // 2][0]
    assert np.abs(block @ vecs - vecs * vals).max() <= 1e-10 * max(1.0, np.abs(vals).max())


def test_the_ground_residual_is_read_on_the_unshifted_sector(system):
    """The shifted solve of |0> restores the diagonal it shifted in K's buffer, so |0>'s
    residual is measured on its sector and passes: |0> is held apart, and it is the lowest
    eigenvector of the oracle's copy of its sector."""
    bundle, _ = system
    parity, ground = bundle.solve_ground_apart()
    vals, parts, order, u = bundle.recipe.solution
    assert u is not None
    eps = bundle.family.ground_parity
    block = sector_stack(bundle.family, bundle.recipe, eps)[0][0]
    assert np.abs(block @ u - vals[0] * u).max() <= 1e-10 * max(1.0, np.abs(vals).max())


def test_an_exception_mid_solve_leaves_k_intact(system, monkeypatch):
    """LAPACK raising in the second sector's solve, after K was turned into both."""
    bundle, fresh = system
    calls = []

    def failing(a, *args, original=np.linalg.eigvalsh, **kwargs):
        calls.append(a.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError):
        bundle.eigenvalues()
    assert len(calls) == 2
    assert_k_intact(bundle, fresh)


def test_an_early_exit_leaves_k_intact(system):
    bundle, fresh = system
    for first in (1, -1):
        with bundle.family.sector_blocks(bundle.recipe, first) as blocks:
            blocks[1]()
        assert_k_intact(bundle, fresh)


@pytest.mark.parametrize("first", [1, -1])
def test_the_blocks_are_the_copies_of_m0_bit_for_bit(system, first):
    """Every sector K is turned into, in either order and turned again, is the copy of M0
    with epsilon beta written on it that `dense_oracle.sector_stack` forms."""
    bundle, _ = system
    want = [s[0] for s in sector_stack(bundle.family, bundle.recipe, first)]
    with bundle.family.sector_blocks(bundle.recipe, first) as blocks:
        for j in (0, 1, 1, 0):
            got = blocks[j]()
            assert got.dtype == want[j].dtype and got.tobytes() == want[j].tobytes()


def test_lapack_is_handed_the_copies_of_m0(system, monkeypatch):
    """The inputs of the eigvalsh, eigh and shifted solves of `eigenvalues`, `eigensystem`
    and `shifted_vector` are the oracle's sectors, each shifted solve's with E0, less one
    rounding, taken off its diagonal."""
    bundle, fresh = system
    handed = []
    for name in ("eigvalsh", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, original=getattr(np.linalg, name), **kwargs:
                            handed.append(a.copy()) or original(a, *args, **kwargs))
    e0 = bundle.eigenvalues()[0]
    bundle.eigensystem([0])
    bundle.shifted_vector(e0)
    want = [s[0] for s in sector_stack(bundle.family, bundle.recipe)]
    solved = [m for m in handed if m.shape == want[0].shape]
    assert len(solved) == 5  # eigvalsh of each sector, eigh of |0>'s, a shifted solve each
    vectors = [vecs is not None for _, vecs in bundle.recipe.solution[1]]
    for got, sector in zip(solved[:2] + solved[2:3], want + [want[vectors.index(True)]]):
        assert got.tobytes() == sector.tobytes()
    i = np.arange(len(fresh))
    for got, sector in zip(solved[3:], want):
        sector[i, i] -= e0 - np.finfo(float).eps * max(1.0, abs(e0))
        assert got.tobytes() == sector.tobytes()
    assert_k_intact(bundle, fresh)
