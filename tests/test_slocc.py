import math

import numpy as np
import pytest

from islocc import slocc
from islocc.amplitudes import BOSON, FERMION, ElementaryKet
from islocc.ensembles import MixedState, PureNState, matrix_element, mixed_trace
from islocc.slocc import (ProjectedDensityMatrix, ProjectionUndefinedError,
                          computational_kets, project, spin_configurations)
from islocc.states import DOWN, UP, ModeBasis, SpatialWave, make_peaked
from islocc.verify import random_single_particle
from islocc.werner import (WernerSpec, closed_form_probability_minus,
                           closed_form_probability_plus, spec_from_l,
                           werner_direct)

LR = ModeBasis(("L", "R"))
SQRT_HALF = 1.0 / math.sqrt(2.0)

SINGLET = np.zeros((4, 4), dtype=complex)
SINGLET[1, 1] = SINGLET[2, 2] = 0.5
SINGLET[1, 2] = SINGLET[2, 1] = -0.5


def _peaked(l, r, theta, spin):
    return make_peaked(SpatialWave(l, r, theta), spin, LR)


class TestBasisOrder:
    def test_spin_configurations_order(self):
        assert spin_configurations(2) == [(UP, UP), (UP, DOWN), (DOWN, UP), (DOWN, DOWN)]

    def test_computational_kets_localized(self):
        kets = computational_kets(LR, ("L", "R"), FERMION)
        assert len(kets) == 4
        assert kets[1].particles[0].amplitudes == {("L", UP): (1 + 0j)}
        assert kets[1].particles[1].amplitudes == {("R", DOWN): (1 + 0j)}

    def test_region_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            computational_kets(LR, ("L", "L"), FERMION)
        with pytest.raises(ValueError, match="not a mode"):
            computational_kets(LR, ("L", "Q"), FERMION)


class TestProject:
    def test_noise_free_overlapping_fermions_give_singlet(self):
        spec = spec_from_l(1.0, "1_minus", SQRT_HALF, SQRT_HALF, FERMION)
        projected = project(werner_direct(spec), ("L", "R"))
        np.testing.assert_allclose(projected.matrix, SINGLET, atol=1e-12)
        assert projected.probability == pytest.approx(0.5, abs=1e-12)

    def test_separated_state_projects_to_itself(self):
        ket = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        mixed = MixedState(((1.0, PureNState(((1.0, ket),))),))
        projected = project(mixed, ("L", "R"))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(projected.matrix, expected, atol=1e-14)
        assert projected.probability == pytest.approx(1.0, abs=1e-14)

    def test_boson_worst_case_probability(self):
        spec = spec_from_l(1.0, "1_minus", SQRT_HALF, SQRT_HALF, BOSON)
        projected = project(werner_direct(spec), ("L", "R"))
        assert projected.probability == pytest.approx(0.25, abs=1e-12)

    def test_subspace_supported_state_is_fixed_point(self, rng):
        kets = computational_kets(LR, ("L", "R"), FERMION)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = PureNState(tuple(zip(coeffs, kets)))
        mixed = MixedState(((1.0, state),))
        projected = project(mixed, ("L", "R"))
        expected = np.outer(coeffs, coeffs.conj())
        expected /= np.trace(expected).real
        np.testing.assert_allclose(projected.matrix, expected, atol=1e-12)
        assert projected.probability == pytest.approx(1.0, abs=1e-12)

    def test_zero_detection_weight_raises(self):
        both_left = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(1, 0, 0, DOWN)), FERMION)
        mixed = MixedState(((1.0, PureNState(((1.0, both_left),))),))
        with pytest.raises(ProjectionUndefinedError):
            project(mixed, ("L", "R"))

    def test_zero_global_trace_raises(self):
        # the symmetric pseudospin Bell state of two identical fermions in the
        # same spatial wave function has vanishing norm
        psi = _peaked(0.8, 0.6, 0.0, UP), _peaked(0.8, 0.6, 0.0, DOWN)
        plus = PureNState(((SQRT_HALF, ElementaryKet(psi, FERMION)),
                           (SQRT_HALF, ElementaryKet(psi[::-1], FERMION))))
        mixed = MixedState(((1.0, plus),))
        with pytest.raises(ValueError, match="global trace"):
            project(mixed, ("L", "R"))

    def test_region_count_must_match_particle_number(self):
        ket = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        mixed = MixedState(((1.0, PureNState(((1.0, ket),))),))
        with pytest.raises(ValueError, match="regions"):
            project(mixed, ("L",))


class TestProjectedMatrixInvariants:
    @pytest.mark.parametrize("target", ["1_minus", "1_plus"])
    def test_hermitian_unit_trace_psd(self, rng, target):
        for _ in range(60):
            l, lp = rng.uniform(0.05, 0.95, size=2)
            theta = rng.uniform(0, 2 * math.pi)
            stats = BOSON if rng.integers(2) else FERMION
            spec = WernerSpec(rng.uniform(0, 1), target, SpatialWave.from_l(l),
                              SpatialWave.from_l(lp, theta), stats)
            projected = project(werner_direct(spec), ("L", "R"))
            m = projected.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert abs(np.trace(m).real - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
            assert np.min(projected.eigenvalues()) >= 0.0
            assert 0.0 <= projected.probability <= 1.0 + 1e-12

    def test_constructor_validates(self):
        bad_trace = np.eye(4) * 0.3
        with pytest.raises(ValueError, match="trace"):
            ProjectedDensityMatrix(bad_trace, 0.5, ("L", "R"))
        non_hermitian = np.eye(4, dtype=complex) / 4
        non_hermitian[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            ProjectedDensityMatrix(non_hermitian, 0.5, ("L", "R"))
        negative = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            ProjectedDensityMatrix(negative, 0.5, ("L", "R"))


class TestCheckedOnce:
    def test_project_checks_each_matrix_once(self, monkeypatch):
        calls = []
        check = slocc.check_density_matrix
        monkeypatch.setattr("islocc.slocc.check_density_matrix",
                            lambda m, p: calls.append(m.shape) or check(m, p))
        spec = spec_from_l(0.3, "1_minus", 0.8, 0.6, FERMION)
        projected = project(werner_direct(spec), ("L", "R"))
        assert calls == [(4, 4)]
        assert abs(np.trace(projected.matrix).real - 1.0) <= 1e-12
        slocc.normalize_block(2.0 * SINGLET, 2.0, ("L", "R"))
        assert calls == [(4, 4)] * 2
        with pytest.raises(ProjectionUndefinedError):
            slocc.normalize_block(np.zeros((4, 4), dtype=complex), 1.0, ("L", "R"))
        assert calls == [(4, 4)] * 2  # nothing to check when nothing is divided

    @pytest.mark.parametrize("matrix, probability, match", [
        (np.diag([0.6, 0.5, 0.0, -0.1]), 0.5, "negative eigenvalue"),
        (np.diag([0.5, 0.5, 0.5, 0.0]), 0.5, "trace"),
        (SINGLET, 1.0 + 1e-9, "probability"),
        (SINGLET, math.nan, "probability"),
    ])
    def test_direct_construction_still_checks(self, matrix, probability, match):
        with pytest.raises(ValueError, match=match):
            ProjectedDensityMatrix(matrix, probability, ("L", "R"))

    def test_probability_within_rounding_slack_is_stored_in_unit_interval(self):
        assert ProjectedDensityMatrix(SINGLET, 1.0 + 1e-13, ("L", "R")).probability == 1.0
        assert ProjectedDensityMatrix(SINGLET, -1e-13, ("L", "R")).probability == 0.0


def _random_ensemble(rng, basis, n, statistics):
    """Three members of two random N-particle product kets each."""
    members = []
    for _ in range(3):
        terms = tuple((complex(*rng.standard_normal(2)), ElementaryKet(tuple(
            random_single_particle(rng, basis) for _ in range(n)), statistics))
            for _ in range(2))
        members.append((float(rng.uniform(0.1, 1.0)), PureNState(terms)))
    return MixedState(tuple(members))


class TestGlobalTrace:
    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("regions", [("A", "B"), ("A", "B", "C")])
    def test_fock_sum_equals_the_ensemble_norms(self, rng, statistics, regions):
        # the detection weight plus every other Fock state of the basis
        # resolves sum_e w_e <psi_e|psi_e>, multiply occupied slots included
        basis = ModeBasis(("A", "B", "C"))
        for _ in range(5):
            mixed = _random_ensemble(rng, basis, len(regions), statistics)
            _, _, global_trace = slocc._detection(mixed, regions)
            assert global_trace == pytest.approx(mixed_trace(mixed), rel=1e-12)


class TestGeneralN:
    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("labels, regions", [
        (("A", "B", "C"), ("A", "B", "C")),
        (("A", "B", "C"), ("C", "A", "B")),
        (("A", "B", "C"), ("C", "A")),
        (("L", "R"), ("R", "L")),
    ])
    def test_block_and_trace_match_the_dense_references(self, rng, statistics, labels,
                                                        regions):
        # the one Fock-basis pass against <bra|m|ket> over the detection kets
        # and against sum_e w_e <psi_e|psi_e>, regions against basis order too
        basis = ModeBasis(labels)
        kets = computational_kets(basis, regions, statistics)
        for _ in range(3):
            mixed = _random_ensemble(rng, basis, len(regions), statistics)
            block = np.array([[matrix_element(bra, mixed, ket) for ket in kets]
                              for bra in kets])
            _, raw, global_trace = slocc._detection(mixed, regions)
            np.testing.assert_allclose(raw, block, rtol=0, atol=1e-12)
            assert global_trace == pytest.approx(mixed_trace(mixed), rel=1e-12)
            projected = project(mixed, regions)
            weight = np.trace(block).real
            np.testing.assert_allclose(projected.matrix, block / weight, rtol=0, atol=1e-12)
            assert projected.probability == pytest.approx(weight / mixed_trace(mixed),
                                                          rel=1e-12)


class TestSloccProbability:
    def test_fermion_probability_is_noise_independent(self):
        for l in np.linspace(0.1, 0.9, 9):
            expected = 2 * l * l * (1 - l * l)
            for p in (0.0, 0.3, 0.7, 1.0):
                spec = spec_from_l(p, "1_minus", float(l), float(l), FERMION)
                got = project(werner_direct(spec), ("L", "R")).probability
                assert got == pytest.approx(expected, abs=1e-12)

    def test_distinguishable_detection_is_certain(self):
        for p in (0.0, 0.5, 1.0):
            spec = spec_from_l(p, "1_minus", 1.0, 0.0, FERMION)
            assert project(werner_direct(spec), ("L", "R")).probability == \
                pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("target", ["1_minus", "1_plus"])
    def test_matches_closed_form_on_random_grid(self, rng, statistics, target):
        closed = (closed_form_probability_minus if target == "1_minus"
                  else closed_form_probability_plus)
        for l in rng.uniform(0.05, 0.95, size=10):
            for lp in rng.uniform(0.05, 0.95, size=10):
                for p in rng.uniform(0, 1, size=5):
                    spec = spec_from_l(float(p), target, float(l), float(lp), statistics)
                    got = project(werner_direct(spec), ("L", "R")).probability
                    expected = closed(l, math.sqrt(1 - l * l), lp,
                                      math.sqrt(1 - lp * lp), p, statistics)
                    assert got == pytest.approx(expected, abs=1e-10)
