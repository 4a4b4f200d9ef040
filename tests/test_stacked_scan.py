"""Stacked quadrature-basis builds and the rung-major coupling scan, against
one-coupling-at-a-time Fock-basis oracles."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import sector_stack, tls_single_mode_modeset
from gaugecraft import (COULOMB, MULTIPOLAR, ConvergenceError, CouplingSet, EmitterSpec,
                        GaugeParam, HamiltonianBundle, InvariantViolation, ModeSet,
                        ambiguity_scan, build_dipole, build_naive, couplings, field_hamiltonian,
                        gaugecheck, tls)
from gaugecraft.cli import main
from gaugecraft.gaugecheck import QuadratureFamily
from gaugecraft.hamiltonians import _family_bundle
from gaugecraft.hilbert import (PAULI_X, PAULI_Y, PAULI_Z, Eigenbasis, HilbertSpec, fock_quadrature,
                                ladder_matrix, matter_levels, max_abs, photon)
from gaugecraft.scenario import emitter_to_json, modeset_to_json

pytestmark = pytest.mark.filterwarnings("ignore::gaugecraft.FockCutoffWarning")

LADDERS = {None: "correct", 1: "naive"}  # a scan's stacked ladders, by naive order


def assert_members_close(got, want, what, rel=1e-12):
    dev = max_abs(got - want)
    assert dev <= rel * max(1.0, max_abs(want)), f"{what}: deviation {dev:.3e}"


def sector_spectra(family, recipe):
    """Ascending eigenvalues (S, 2n) of every member of a recipe from the family's own
    theta-free parity sectors, both solved in full, after `measure`."""
    family.measure(recipe)
    sectors = [np.linalg.eigvalsh(s) for s in sector_stack(family, recipe)]
    return np.sort(np.concatenate(sectors, axis=-1), axis=-1)


def scaled_modes(ms, em, c):
    """The mode set with the emitter's profile times c: couplings c eta, and nothing else
    changed, the oracle of a member at coupling scale c."""
    return ModeSet(ms.chi, {em.position_label: c * ms.profile(em.position_label)})


def sigma_y(em):
    """A two-level emitter with its d sigma_x dipole turned into d sigma_y: the same parity,
    and a complex matter matrix D, so that its family declares no time reversal."""
    return EmitterSpec(em.levels, em.dipole[:, 0, 1].real[:, None, None] * PAULI_Y,
                       position_label=em.position_label)


@st.composite
def quadrature_systems(draw):
    """A single-mode two-level system at |eta| = 1 with a real or a complex-phase
    coupling through sigma_x or sigma_y, a cutoff in [1, 80] and a stack of scales in
    [-2.5, 2.5] with a zero and a duplicate."""
    phase = draw(st.just(0.0) | st.floats(-np.pi, np.pi))
    chi, omega0 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.3, 2.0))
    em = tls(omega0, (np.sqrt(2 * chi), 0.0, 0.0))
    em = sigma_y(em) if draw(st.booleans()) else em
    ms = ModeSet.single_mode(chi, {em.position_label: (np.exp(-1j * phase), 0.0, 0.0)})
    # rounded: a subnormal scale makes the oracle's scaled profile underflow
    base = draw(st.lists(st.floats(-2.5, 2.5).map(lambda c: round(c, 3)), min_size=1,
                         max_size=3))
    scales = draw(st.permutations(base + [0.0, base[0]]))
    return ms, em, draw(st.integers(1, 80)), np.array(scales)


@settings(max_examples=30, deadline=None)
@given(system=quadrature_systems(), theta=st.sampled_from((0.0, 0.37, 1.0)))
def test_stacked_build_dipole_members_equal_their_own_builds(system, theta):
    ms, em, cutoff, scales = system
    family = QuadratureFamily.of(ms, em, cutoff)
    # a single mode's rotated chi~ = chi_00 is real whatever the phase of its coupling: only
    # the complex D of sigma_y breaks time reversal
    assert family.time_reversal == (not np.any(np.imag(em.dipole)))
    recipe = family.recipe(scales)
    values = sector_spectra(family, recipe)
    assert values.shape == (len(scales), 2 * (cutoff + 1))
    assert_members_close(values, dense_oracle.spectra(family, recipe, theta), "phased blocks")
    for i, c in enumerate(scales):
        single = dense_oracle.dense_bundle(scaled_modes(ms, em, c), em, GaugeParam(theta),
                                           cutoff)
        assert_members_close(values[i], single.eigenvalues(), f"member {i} at scale {c}")


@settings(max_examples=30, deadline=None)
@given(system=quadrature_systems(), order=st.integers(1, 3))
def test_stacked_build_naive_members_equal_their_own_builds(system, order):
    ms, em, cutoff, scales = system
    family = QuadratureFamily.of(ms, em, cutoff)
    recipe = family.recipe(scales, order)
    values = sector_spectra(family, recipe)
    assert_members_close(values, dense_oracle.spectra(family, recipe, 0.0), "phased blocks")
    for i, c in enumerate(scales):
        single = dense_oracle.dense_bundle(scaled_modes(ms, em, c), em, COULOMB, cutoff, order)
        assert_members_close(values[i], single.eigenvalues(), f"member {i} at scale {c}")


@settings(max_examples=40, deadline=None)
@given(system=quadrature_systems(),
       ladder=st.sampled_from([(0.0, None), (0.37, None), (1.0, None), (0.0, 1), (0.0, 2),
                               (0.0, 3)]))
def test_ground_energies_are_the_lowest_level_of_both_sectors(system, ladder):
    ms, em, cutoff, scales = system
    family = QuadratureFamily.of(ms, em, cutoff)
    recipe = family.recipe(scales, ladder[1])
    want = dense_oracle.spectra(family, recipe, ladder[0])
    assert_members_close(family.ground_energies(recipe), want[:, 0], f"{ladder}")
    # -beta swaps the two sectors: where the certificate held, it fails there, and the
    # other sector is solved too
    swapped = replace(recipe, beta=-recipe.beta)
    assert_members_close(sector_spectra(family, swapped), want, f"{ladder} swapped")
    assert_members_close(family.ground_energies(swapped), want[:, 0], f"{ladder} swapped")


def count_solves(monkeypatch, names=("eigvalsh", "cholesky")):
    """The shapes of the arrays that each of these `numpy.linalg` functions is called on, one
    list per name: (eigvalsh, cholesky) by default."""
    shapes = tuple([] for _ in names)
    for name, seen in zip(names, shapes):
        def counted(m, *args, original=getattr(np.linalg, name), seen=seen, **kwargs):
            seen.append(np.shape(m))
            return original(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_swapped_sectors_fall_back_to_solving_both(monkeypatch):
    ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
    family = QuadratureFamily.of(ms, em, 20)
    recipe = family.recipe([0.3, 1.1, 2.4])
    want = sector_spectra(family, recipe)[:, 0]
    assert_members_close(want, dense_oracle.spectra(family, recipe, 0.0)[:, 0], "phased blocks")
    eigvalsh, cholesky = count_solves(monkeypatch)
    assert np.array_equal(family.ground_energies(recipe), want)
    assert eigvalsh == cholesky == [(3, 21, 21)]  # one sector solved, the other certified
    del eigvalsh[:], cholesky[:]
    assert np.array_equal(family.ground_energies(replace(recipe, beta=-recipe.beta)), want)
    assert eigvalsh == [(3, 21, 21)] * 2 and cholesky == [(3, 21, 21)]  # the fallback


def test_gauge_check_solves_one_sector_and_certifies_the_other_per_rung(tmp_path,
                                                                        monkeypatch):
    ms, em = tls_single_mode_modeset(1.0, 0.6, 1.0)
    grid = np.linspace(0.05, 2.5, 12).tolist()
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"eta_grid": grid}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    solves = []
    original = QuadratureFamily.ground_energies

    def counted(family, recipe):
        solves.append((LADDERS[recipe.order], recipe.beta.shape + recipe.beta.shape[-1:]))
        return original(family, recipe)

    monkeypatch.setattr(QuadratureFamily, "ground_energies", counted)
    eigvalsh, cholesky, solve = count_solves(monkeypatch, ("eigvalsh", "cholesky", "solve"))
    assert main(["gauge-check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "gauge_report.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == len(grid) + 1
    # two ladders, the correct one (both gauges: its recipes do not read theta) and then the
    # naive one, each climbing from N = 20 with the whole grid, one rung solve per rung
    names = [name for name, _ in solves]
    assert names == sorted(names) and {"correct", "naive"} == set(names)
    for ladder in ("correct", "naive"):
        shapes = [shape for name, shape in solves if name == ladder]
        assert len(shapes) >= 3 and shapes[0][0] == len(grid)
        assert [shape[1:] for shape in shapes] == [(20 * 2**i + 1,) * 2 for i in range(len(shapes))]
    assert max(int(r.split(",")[3]) for r in rows[1:]) == max(s[1] for _, s in solves) - 1
    # every rung solve: one sector's eigvalsh and one Cholesky factorization of the other, on
    # the solve's whole stack; the fallback never runs.  The verify pair shares one recipe,
    # so it compares one solution with itself and solves no sector; the mode set checks its
    # 1 x 1 chi when it is loaded.  The certificate takes the strongest coupling's multipolar
    # member at the correct ladder's top rung, where it converged, and makes one shifted
    # solve per sector; it solves no eigenproblem.
    assert [s for s in eigvalsh if len(s) == 3] == [shape for _, shape in solves]
    assert cholesky == [shape for _, shape in solves]
    assert [s for s in eigvalsh if len(s) == 2] == [(1, 1)]
    top = [shape for name, shape in solves if name == "correct"][-1][1]
    assert solve == [(top, top)] * 2


def test_a_sectored_gauge_check_solves_no_eigenvectors(tmp_path, monkeypatch):
    """The certificate takes the multipolar member's ground vector from the ladder's E0 by
    shifted solves, and nothing else of a sectored gauge-check asks for eigenvectors: once a
    first run has cached the rungs' Fock quadrature bases, `numpy.linalg.eigh` sees only the
    emitter's 2 x 2 dipole matrix, once per family, and no block of a Hamiltonian."""
    ms, em = tls_single_mode_modeset(1.0, 0.6, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"eta_grid": np.linspace(0.05, 2.5, 12).tolist()}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["gauge-check", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    (eigh,) = count_solves(monkeypatch, ("eigh",))
    assert main(argv) == 0
    assert eigh and set(eigh) == {(2, 2)}


def assert_the_correct_ladder_is_both_gauges(monkeypatch, grid):
    """The scan's one correct ladder at rungs N = 20 and 40 (every coupling climbs both)
    against the ground energy of each coupling's own Fock-basis member of the dense oracle,
    at theta = 0 and at theta = 1, to 1e-12 relative.  At strength 1 a grid entry is the
    coupling scale of its members."""
    ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
    got = {}
    original = QuadratureFamily.ground_energies

    def recorded(family, recipe):
        e0 = original(family, recipe)
        if recipe.order is None:
            got.update(((family.cutoffs[0], float(c)), e) for c, e in zip(recipe.scales, e0))
        return e0

    monkeypatch.setattr(QuadratureFamily, "ground_energies", recorded)
    ambiguity_scan(ms, em, grid)
    for n in (20, 40):
        for c in grid:
            for gauge in (COULOMB, MULTIPOLAR):
                want = dense_oracle.dense_bundle(scaled_modes(ms, em, c), em, gauge,
                                                 n).eigenvalues(1)[0]
                assert abs(got[n, c] - want) <= 1e-12 * abs(want), (n, c, gauge.theta)


def test_the_one_correct_ladder_is_both_gauges_fock_basis_members(monkeypatch):
    """correct_gap is 0 by construction for a sectored family, so the ladder it reads is
    held to an independent route; a beta that reads theta fails it."""
    grid = [0.3, 0.9, 1.4]
    assert_the_correct_ladder_is_both_gauges(monkeypatch, grid)
    original = QuadratureFamily._off_diagonal

    def multipolar_beta(family, scales, order, *levels):
        """The correct beta replaced by h0'_01 e^(i (1 - theta) (lam_0 - lam_1) c nu), the
        multipolar member's off-diagonal block before its phases, at theta = 1."""
        beta = original(family, scales, order, *levels)
        return (beta if order is not None
                else family.h0[levels][..., None, None] * np.ones_like(beta))

    monkeypatch.setattr(QuadratureFamily, "_off_diagonal", multipolar_beta)
    with pytest.raises(AssertionError):
        assert_the_correct_ladder_is_both_gauges(monkeypatch, grid)


def test_stack_of_one_keeps_its_axis_and_eigensystem_refuses_stacks():
    ms, em = tls_single_mode_modeset(1.0, 0.6, 1.0)
    family = QuadratureFamily.of(ms, em, 8)
    values = sector_spectra(family, family.recipe([1.0]))
    assert values.shape == (1, 18)
    assert_members_close(values[0], build_dipole(ms, em, COULOMB, 8).eigenvalues(), "member")
    bundle = build_dipole(ms, em, COULOMB, 8)
    with pytest.raises(ValueError, match="must be square"):
        HamiltonianBundle(bundle.H[None], bundle.space, COULOMB)
    # a recipe does not read theta: the naive series meets a gauge only in a bundle
    with pytest.raises(ValueError, match="theta = 0"):
        _family_bundle(couplings(ms, em), em.h0, em.parity_signs, (8,), GaugeParam(0.37), {},
                       1, family=family)


def test_the_family_reads_the_cached_quadrature_basis():
    ms, em = tls_single_mode_modeset(1.0, 0.6, 1.0)
    assert QuadratureFamily.of(ms, em, 12).v[0] is fock_quadrature(12)[1]


class TestForgedMembers:
    """The checks of a stacked quadrature-basis solve: K, which every member shares, once per
    family, and each member's beta at that member's scale, naming the first failing member.
    A forged K is injected before the family first checks it."""

    SCALES = [0.2, 0.5, 0.9, 1.3]

    def stack(self, cutoff=6, scales=SCALES, complex_d=False):
        ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
        family = QuadratureFamily.of(ms, sigma_y(em) if complex_d else em, cutoff)
        return family, family.recipe(scales)

    def forged(self, entries, **kwargs):
        """A family whose K gets these {(i, j): value} entries added before its first check,
        with negative indices counted from the end, and its recipe."""
        family, recipe = self.stack(**kwargs)
        e = np.zeros(family.k.shape, dtype=complex)
        for index, value in entries.items():
            e[index] += value
        family.k = family.k + e
        return family, recipe

    def test_non_hermitian_k_is_found(self):
        self.stack()[0].ground_energies(self.stack()[1])
        # asymmetric, and kept J-symmetric so that only the Hermiticity check can see it
        family, recipe = self.forged({(0, 3): 1e-8, (-1, -4): 1e-8})
        with pytest.raises(InvariantViolation,
                           match="K is not Hermitian before symmetrization"):
            family.ground_energies(recipe)

    def test_each_member_is_held_to_its_own_scale(self):
        family, recipe = self.stack()
        recipe.beta[0] *= 1e6  # keeps beta = J beta^*, and raises member 0's largest entry
        recipe.beta[0, 2] += 1e-8  # breaks it within 1e-12 * 1e6 |beta| of the large member
        family.ground_energies(recipe)
        recipe.beta[1, 2] += 1e-8  # beyond 1e-12 * max(1, max|M0|, max|beta|) of a small one
        with pytest.raises(InvariantViolation, match="parity .* in stack member 1"):
            family.ground_energies(recipe)

    def test_parity_breaking_member_is_named(self):
        family, recipe = self.stack()
        recipe.beta[3, 1] += 1e-6  # one entry of beta breaks b = J b^*: B J != J B^dag
        with pytest.raises(InvariantViolation, match="parity .* in stack member 3"):
            family.ground_energies(recipe)
        # a Hermitian change to K that breaks K = J K J reaches every member
        family, recipe = self.forged({(1, 2): 1e-6, (2, 1): 1e-6})
        with pytest.raises(InvariantViolation, match="parity .*max.M0 - J M0 J"):
            family.ground_energies(recipe)

    def test_time_reversal_breaking_field_block_is_found(self):
        """A Hermitian, imaginary change to K that keeps K = J K J breaks only time
        reversal."""
        entries = {(0, 1): 1e-6j, (1, 0): -1e-6j, (-1, -2): 1e-6j, (-2, -1): -1e-6j}
        family, recipe = self.forged(entries)
        with pytest.raises(InvariantViolation, match="time reversal .*K's real form"):
            family.ground_energies(recipe)
        complex_family, recipe = self.forged(entries, complex_d=True)
        assert not complex_family.time_reversal
        complex_family.ground_energies(recipe)  # nothing declared, nothing to break

    def test_h0_the_parity_does_not_keep_is_found(self):
        """h0 = sigma_z + 0.3 sigma_x is not even under S = sigma_z: h0'_11 != h0'_00, while
        beta = J beta^* still holds."""
        cs = CouplingSet(0.7 * PAULI_X[None], [[1.0]])
        for h0, breaks in ((PAULI_Z, False), (PAULI_Z + 0.3 * PAULI_X, True)):
            family = QuadratureFamily(cs, np.array([0.7]), PAULI_X, (1, -1), h0, (6,))
            recipe = family.recipe([1.0])
            assert max_abs(recipe.beta - recipe.beta[:, ::-1].conj()) <= 1e-15
            if not breaks:
                family.measure(recipe)
                continue
            with pytest.raises(InvariantViolation, match="parity .*max.M0 - J M0 J"):
                family.measure(recipe)

    @pytest.mark.parametrize("cutoff", [6, 340])
    def test_far_corner_changes_are_found_and_name_the_same_member(self, cutoff):
        """K is checked a chunk of rows at a time past HERMITIAN_CHUNK entries; a change at
        its far corner is still found, and a member's beta still names that member."""
        kwargs = {"cutoff": cutoff, "scales": self.SCALES[:3]}
        family, recipe = self.stack(**kwargs)
        family.measure(recipe)
        recipe.beta[2, -1] += 1e-8
        with pytest.raises(InvariantViolation, match="parity .* in stack member 2"):
            family.measure(recipe)
        family, recipe = self.forged({(0, -1): 1e-8}, **kwargs)  # an asymmetric entry
        with pytest.raises(InvariantViolation, match="not Hermitian"):
            family.measure(recipe)
        # Hermitian, but its reflection (1, -1), (-1, 1) is not changed
        family, recipe = self.forged({(-2, 0): 1e-6, (0, -2): 1e-6}, **kwargs)
        with pytest.raises(InvariantViolation, match="parity"):
            family.measure(recipe)

    def test_diagnostics_report_the_worst_member(self):
        ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
        bundle = build_dipole(ms, em, COULOMB, 6)
        h = bundle.H
        assert bundle.diagnostics["sector_sizes"] == [bundle.space.dim // 2] * 2
        assert 0.0 <= bundle.diagnostics["parity_off_block"] <= 1e-12 * max(1.0, max_abs(h))
        assert 0.0 <= bundle.diagnostics["time_reversal_imag"] <= 1e-12 * max(1.0, max_abs(h))


@st.composite
def eta_grids(draw, largest):
    """Unsorted grids with a duplicate, zero and a negative coupling."""
    base = draw(st.lists(st.floats(0.05, largest), min_size=1, max_size=2))
    return draw(st.permutations(base + [base[0], 0.0, -base[-1]]))


@settings(max_examples=8, deadline=None)
@given(data=st.data(), order=st.sampled_from((1, 2)))
def test_stacked_scan_matches_the_per_eta_oracle(data, order):
    # the order-2 naive energy is unbounded below from eta ~ 0.5 on; see the next test
    grid = data.draw(eta_grids(1.2 if order == 1 else 0.4))
    ladders = [dense_oracle.ambiguity_ladders(1.0, 1.0, eta, order=order) for eta in grid]
    rows, _ = ambiguity_scan(*tls_single_mode_modeset(1.0, 1.0, 1.0), grid, order=order)
    want = [dense_oracle.ambiguity_row(eta, e0) for eta, e0 in zip(grid, ladders)]
    assert [r.eta for r in rows] == [float(eta) for eta in grid]
    for row, ref, e0 in zip(rows, want, ladders):
        assert row.cutoff == ref.cutoff
        tol = 1e-12 * max(1.0, abs(e0["multipolar"][0]))
        assert abs(row.naive_gap - ref.naive_gap) <= tol
        assert abs(row.correct_gap - ref.correct_gap) <= tol
        assert all(type(v) is float for v in (row.eta, row.naive_gap, row.correct_gap))


def test_scan_raises_where_the_per_eta_ladder_does_not_converge():
    with pytest.raises(ConvergenceError):
        dense_oracle.ambiguity_ladders(1.0, 1.0, 0.8, order=2)
    # the order-2 naive ladder of eta = 0.8 is still falling at the top rung: its row is
    # reported as not converged, with the gap of that rung, and the others are unchanged
    rows, _ = ambiguity_scan(*tls_single_mode_modeset(1.0, 1.0, 1.0), [0.2, 0.8, 0.1], order=2)
    assert [r.converged for r in rows] == [True, False, True]
    assert rows[1].cutoff == 640
    ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
    e0_naive = build_naive(ms, em, COULOMB, 640, order=2).eigenvalues(1)[0]
    e0_mp = dense_oracle.converged_ground_energy(lambda n: build_dipole(ms, em, MULTIPOLAR, n))[0]
    assert abs(rows[1].naive_gap - abs(e0_naive - e0_mp)) <= 1e-12 * max(1.0, abs(e0_naive))
    for row, eta in zip(rows[::2], (0.2, 0.1)):
        want = dense_oracle.ambiguity_row(eta, dense_oracle.ambiguity_ladders(1.0, 1.0, eta,
                                                                             order=2))
        assert row.cutoff == want.cutoff
        assert abs(row.naive_gap - want.naive_gap) <= 1e-12


def test_unconverged_naive_row_is_written_not_fatal(tmp_path, capsys):
    ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 40, "naive_order": 2, "gauge_check": {"eta_grid": [0.8, 0.2]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gauge-check", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    lines = (out / "gauge_report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",cutoff,converged")
    assert lines[1].startswith("0.8,") and lines[1].endswith(",640,False")
    assert lines[2].endswith(",True")


def record_builds(monkeypatch):
    """Count the scan's stacked builds through `QuadratureFamily.recipe`: (ladder, n, scales)."""
    calls = []
    orig = QuadratureFamily.recipe

    def counted(self, scales, order=None):
        calls.append((LADDERS[order], self.cutoffs[0], np.array(scales)))
        return orig(self, scales, order)

    monkeypatch.setattr(QuadratureFamily, "recipe", counted)
    return calls


@pytest.mark.parametrize("budget", [gaugecheck.STACK_BYTES, 5 * 9072])
def test_one_stacked_build_per_ladder_rung_and_chunk(monkeypatch, budget):
    grid = [1.4, 0.1, 0.9, 0.3, 1.4, 0.6, 1.1]
    ladders = [dense_oracle.ambiguity_ladders(1.0, 1.0, eta) for eta in grid]
    # the second: 5 members of 9072 bytes at N = 20, 1 from N = 40 on
    monkeypatch.setattr(gaugecheck, "STACK_BYTES", budget)
    calls = record_builds(monkeypatch)
    ambiguity_scan(*tls_single_mode_modeset(1.0, 1.0, 1.0), grid)
    # the one correct ladder climbs as the dense oracle's Coulomb and multipolar ladders do,
    # and no multipolar ladder is built besides it
    assert [e0["multipolar"][1] for e0 in ladders] == [e0["coulomb"][1] for e0 in ladders]
    assert {name for name, _, _ in calls} == {"correct", "naive"}
    for ladder, oracle in (("correct", "coulomb"), ("naive", "naive")):
        cutoffs = np.array([e0[oracle][1] for e0 in ladders])
        n, expected = 20, []
        while n <= cutoffs.max():
            live = np.flatnonzero(cutoffs >= n)  # members still climbing at rung n
            size = gaugecheck.stack_chunk(n + 1, True)
            expected += [(n, np.array(grid)[live[i:i + size]])
                         for i in range(0, live.size, size)]
            n *= 2
        if ladder == "correct":  # the certificate's member: the strongest coupling, converged
            expected.append((cutoffs.max(), np.array([max(grid)])))
        got = [(n, scales) for name, n, scales in calls if name == ladder]
        assert [n for n, _ in got] == [n for n, _ in expected]
        for (_, scales), (_, want) in zip(got, expected):
            assert np.array_equal(scales, want)


def test_chunk_sizes_bound_a_stack_to_the_budget():
    sizes = [gaugecheck.stack_chunk(n + 1, True) for n in (20, 40, 80, 160, 320, 640)]
    assert sizes == [881, 259, 70, 18, 4, 1]
    assert [gaugecheck.stack_chunk(n + 1, False) for n in (20, 40, 80, 160)] == [496, 138, 36, 9]
    # the rungs of the `coupling-scan` benchmark (40 couplings) each fit in one chunk: the
    # correct ladders climb 40, 40, 17 and 2 members at N = 20 .. 160, the naive 40, 40, 7
    assert all(size >= live for size, live in zip(sizes, (40, 40, 17, 2)))
    assert gaugecheck.stack_chunk(10**5, True) == gaugecheck.stack_chunk(10**5, False) == 1


@pytest.mark.parametrize("n", [21, 41, 81])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_one_chunk_of_a_single_mode_family_stays_within_the_budget(n, real):
    """A chunk of `stack_chunk` members, from `recipe` through `ground_energies`, holds at
    most STACK_BYTES traced: its stack of sectors and Cholesky factors, its O(n) vectors
    and the chunk's fixed temporaries, for real and complex couplings.  LAPACK copies one
    member at a time, outside the trace."""
    ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
    if not real:
        em = sigma_y(em)
    family = QuadratureFamily.of(ms, em, n - 1)
    assert family.time_reversal == real
    size = gaugecheck.stack_chunk(n, real)
    family.k  # formed once per family, outside the chunks
    for order in (None, 1):
        tracemalloc.start()
        try:
            family.ground_energies(family.recipe(np.linspace(0.1, 2.0, size), order))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gaugecheck.STACK_BYTES, f"{order}: {peak} bytes"
        assert peak >= 0.9 * gaugecheck.STACK_BYTES  # the count is not loose either


@pytest.mark.parametrize("cutoffs", [(4, 4), (8, 8)])
def test_a_complex_chunk_stays_within_the_budget(cutoffs):
    """Without time reversal a member's sectors are complex: a chunk of `stack_chunk`
    members of a two-mode family with complex chi solves within STACK_BYTES.  Counted as a
    real member, the 25 members at N = 8 peaked at 10.75 MB."""
    em = tls(1.0, (1.0, 0.0, 0.0))
    ms = ModeSet(np.array([[1.0, 0.2j], [-0.2j, 1.3]]),
                 {em.position_label: [(0.5, 0.0, 0.0), (0.3, 0.0, 0.0)]})
    family = QuadratureFamily.of(ms, em, cutoffs)
    assert family.sectored and not family.time_reversal
    size = gaugecheck.stack_chunk(len(family.x), False)
    assert size < gaugecheck.stack_chunk(len(family.x), True)
    family.k  # formed once per family, outside the chunks
    for order in (None, 1):
        tracemalloc.start()
        try:
            family.ground_energies(family.recipe(np.linspace(0.1, 2.0, size), order))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gaugecheck.STACK_BYTES, f"{order}: {peak} bytes"


def test_strong_coupling_grid_climbs_in_bounded_memory(monkeypatch):
    # chi = 1/4: every coupling of the grid climbs to N = 320 under the default tol
    chi, grid = 0.25, np.linspace(2.0, 2.5, 40)
    ms, em = tls_single_mode_modeset(chi, 1.0, 1.0)
    ambiguity_scan(ms, em, [2.0])  # fill the Fock quadrature caches outside the trace
    calls = record_builds(monkeypatch)
    tracemalloc.start()
    try:
        rows, residual = ambiguity_scan(ms, em, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {r.cutoff for r in rows} == {320}
    # the certificate's member, the strongest coupling at the rung where its correct ladder
    # converged, after the correct ladder's builds and before the naive ladder's
    certificate = [i for i, (name, n, s) in enumerate(calls) if len(s) == 1]
    assert len(certificate) == 1 and calls[certificate[0]][0] == "correct"
    _, n, scales = calls.pop(certificate[0])
    assert n == 160 and scales.tolist() == [2.5] and residual <= 1e-12
    assert max(len(s) for _, n, s in calls if n == 160) == 18  # n = 161 climbs 18 at a time
    top = [s for _, n, s in calls if n == 320]
    assert all(len(s) == 4 for s in top)  # n = 321: four members per build
    assert set(np.concatenate(top)) == set(grid)
    assert peak <= 2 * gaugecheck.STACK_BYTES


def test_converged_ground_energy_is_the_one_member_ladder():
    ms, em = tls_single_mode_modeset(1.0, 0.8, 1.0)
    for g in (COULOMB, MULTIPOLAR):
        build = lambda n: build_dipole(ms, em, g, n)
        e0, cutoff, converged = gaugecheck._climb(lambda n, _: build(n).eigenvalues(1), 1,
                                                  1e-7, gaugecheck.scan_cutoffs(1, 2))
        assert (e0[0], cutoff[0]) == dense_oracle.converged_ground_energy(build) and converged[0]
    # a ladder that cannot converge reports its last rung
    e0, cutoff, converged = gaugecheck._climb(
        lambda n, _: build_dipole(ms, em, COULOMB, n).eigenvalues(1), 1, 0.0, [20, 40])
    assert cutoff[0] == 40 and not converged[0]
    assert e0[0] == build_dipole(ms, em, COULOMB, 40).eigenvalues(1)[0]


def product_form(chi, space):
    """H_F with its diagonal terms as the products (chi_mm a^dag) @ a."""
    a = [ladder_matrix(space.factors[fi].fock_cutoff) for fi in space.photon_indices]
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for m, fm in enumerate(space.photon_indices):
        for n, fn in enumerate(space.photon_indices):
            if m == n:
                h += space.kron({fm: chi[m][m] * a[m].conj().T @ a[m]})
            else:
                h += space.kron({fm: chi[m][n] * a[m].conj().T, fn: a[n]})
    return h


@pytest.mark.parametrize("n", list(range(65)) + [127, 128, 300, 320, 639, 640])
def test_field_hamiltonian_diagonal_is_bit_identical_to_the_product(n):
    for chi in (0.83 - 0.27j, -1.7):
        space = HilbertSpec([photon(n)])
        assert np.array_equal(field_hamiltonian([[chi]], space), product_form([[chi]], space))
    if n <= 16:
        chi = np.array([[0.9 + 0.1j, 0.2 - 0.3j], [0.2 + 0.3j, -1.1]])
        space = HilbertSpec([photon(n), photon(2), matter_levels(2)])
        assert np.array_equal(field_hamiltonian(chi, space), product_form(chi, space))


@pytest.mark.parametrize("g", [0.7, -1.3, 0.4 - 0.9j])
def test_local_exponentials_match_the_complex_path(g):
    """The family's local factor w = R v of a coupling g is real for a real g, and
    exp(i t phi) = w e^(i t nu) w^dag applied with it (a real product for a real w) equals
    the complex product and a dense eigh of phi = g a^dag + g^* a."""
    n = 30
    a = ladder_matrix(n)
    phi = g * a.conj().T + np.conj(g) * a
    cs = CouplingSet(g * PAULI_X[None], [[1.0]])
    family = QuadratureFamily(cs, np.array([g]), PAULI_X, (1, -1), PAULI_Z, (n,))
    w = family.basis.factors[0]
    assert (w.dtype.kind == "f") == (np.imag(g) == 0)
    x = np.random.default_rng(0).normal(size=(n + 1, 3)) + 0j
    vals, vecs = np.linalg.eigh(phi)
    for t in (0.0, 0.3, -0.3, 1.7, -2.2):
        got = Eigenbasis(family.x, (w,)).apply(t, x)
        want = Eigenbasis(family.x, (w.astype(complex),)).apply(t, x)
        assert max_abs(got - want) <= 1e-13 * max_abs(want)
        dense = (vecs * np.exp(1j * t * vals)) @ (vecs.conj().T @ x)
        assert max_abs(got - dense) <= 1e-12 * max_abs(dense)


def test_gauge_check_report_does_not_depend_on_jobs(tmp_path):
    ms, em = tls_single_mode_modeset(1.0, 0.5, 1.0)
    doc = {"seed": 0, "modeset": modeset_to_json(ms), "emitter": emitter_to_json(em),
           "fock_cutoffs": 20, "gauge_check": {"k": 3, "eta_grid": [0.9, 0.1, 0.5, 0.1]}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert main(["gauge-check", "--config", str(config), "--out", str(out),
                     "--jobs", jobs]) == 0
        reports.append((out / "gauge_report.csv").read_bytes())
    assert reports[0] == reports[1]
    lines = reports[0].decode("utf-8").splitlines()
    assert len(lines) == 5 and lines[2].startswith("0.1,") and lines[4].startswith("0.1,")
    assert math.isclose(float(lines[1].split(",")[0]), 0.9)


@pytest.mark.parametrize("members, cutoff", [(40, 20), (40, 40), (17, 80), (2, 160)])
@pytest.mark.parametrize("complex_d", [False, True], ids=["sigma_x", "sigma_y"])
def test_a_recipe_forms_beta_01_alone_bit_for_bit(members, cutoff, complex_d):
    """At the rung shapes of the `coupling-scan` benchmark's correct ladder, a recipe's beta
    is the (0, 1) entry of the whole (L, L, S, n) off-diagonal array, byte for byte, for the
    correct member and the naive series."""
    ms, em = tls_single_mode_modeset(1.0, 1.0, 1.0)
    family = QuadratureFamily.of(ms, sigma_y(em) if complex_d else em, cutoff)
    scales = np.random.default_rng(cutoff).uniform(0.05, 2.5, members)
    for order in (None, 1):
        beta = family.recipe(scales, order).beta
        assert beta.shape == (members, cutoff + 1)
        assert beta.tobytes() == family._off_diagonal(scales, order)[0, 1].tobytes()
