import math
from itertools import permutations

import pytest

from islocc.indistinguishability import (degree_n, degree_two,
                                         region_probability)
from islocc.states import (DOWN, UP, ModeBasis, SingleParticleState, SpatialWave,
                           make_peaked)

LR = ModeBasis(("L", "R"))
R3 = ModeBasis(("R1", "R2", "R3"))
SQRT_HALF = 1.0 / math.sqrt(2.0)


def _peaked(l, theta=0.0, spin=UP):
    return make_peaked(SpatialWave.from_l(l, theta), spin, LR)


class TestRegionProbability:
    def test_sums_spatial_marginal_over_spin(self):
        state = SingleParticleState(LR, {("L", UP): 0.6, ("L", DOWN): 0.4j, ("R", UP): 0.2})
        assert region_probability(state, "L") == pytest.approx(0.52, abs=1e-15)

    def test_unknown_region_raises(self):
        with pytest.raises(ValueError, match="not a mode"):
            region_probability(_peaked(1.0), "Q")


class TestDegreeTwo:
    def test_fully_distinguishable_is_exactly_zero(self):
        result = degree_two(_peaked(1.0), _peaked(0.0))
        assert result.entropy == 0.0
        assert result.joint_probs[(0, 1)] == 1.0
        assert result.joint_probs[(1, 0)] == 0.0

    def test_equal_shapes_give_exactly_one(self):
        for l in (0.55, SQRT_HALF, 0.8, 0.93):
            result = degree_two(_peaked(l), _peaked(l))
            assert result.entropy == 1.0

    def test_derived_partial_overlap_value(self):
        # l = 0.8, l' = 0.6: joint probabilities 0.4096 and 0.1296
        result = degree_two(_peaked(0.8), _peaked(0.6))
        assert result.joint_probs[(0, 1)] == pytest.approx(0.4096, abs=1e-15)
        assert result.joint_probs[(1, 0)] == pytest.approx(0.1296, abs=1e-15)
        assert result.normalizer == pytest.approx(0.5392, abs=1e-15)
        assert result.entropy == pytest.approx(0.795631931823833, abs=1e-12)

    def test_normalizer_is_sum_of_joints(self):
        result = degree_two(_peaked(0.9), _peaked(0.35))
        assert result.normalizer == pytest.approx(sum(result.joint_probs.values()),
                                                  abs=1e-15)

    def test_symmetric_under_state_exchange(self):
        a, b = _peaked(0.77), _peaked(0.31)
        assert degree_two(a, b).entropy == pytest.approx(degree_two(b, a).entropy,
                                                         abs=1e-14)

    def test_spin_is_ignored(self):
        assert degree_two(_peaked(0.8, spin=UP), _peaked(0.6, spin=DOWN)).entropy == \
            pytest.approx(degree_two(_peaked(0.8), _peaked(0.6)).entropy, abs=1e-15)

    def test_undetectable_configuration_raises(self):
        both_left = _peaked(1.0)
        with pytest.raises(ValueError, match="undefined"):
            degree_two(both_left, both_left)

    def test_requires_two_regions(self):
        with pytest.raises(ValueError, match="two regions"):
            degree_two(_peaked(0.8), _peaked(0.6), regions=("L",))


class TestDegreeN:
    def test_localized_particles_are_distinguishable(self):
        states = [SingleParticleState.localized(R3, mode, UP) for mode in R3.labels]
        assert degree_n(states, R3.labels).entropy == 0.0

    def test_uniform_spread_reaches_log2_factorial(self):
        amp = 1.0 / math.sqrt(3.0)
        states = [SingleParticleState(R3, {(m, UP): amp for m in R3.labels})
                  for _ in range(3)]
        result = degree_n(states, R3.labels)
        assert abs(result.entropy - math.log2(6)) <= 1e-12
        assert len(result.joint_probs) == 6

    def test_two_particle_reduction_matches_degree_two(self):
        a, b = _peaked(0.85), _peaked(0.4)
        assert degree_n((a, b), ("L", "R")).entropy == \
            pytest.approx(degree_two(a, b).entropy, abs=1e-15)

    def test_relabeling_invariance(self, rng):
        for _ in range(30):
            amps = rng.uniform(0.2, 0.95, size=3)
            states = [SingleParticleState(
                R3, {(m, UP): v for m, v in zip(R3.labels, row / math.sqrt((row ** 2).sum()))})
                for row in rng.uniform(0.05, 1.0, size=(3, 3))]
            base = degree_n(states, R3.labels).entropy
            for perm in permutations(range(3)):
                shuffled = [states[i] for i in perm]
                assert abs(degree_n(shuffled, R3.labels).entropy - base) <= 1e-14

    def test_bounds_and_equality_conditions(self):
        # single detectable assignment: exactly zero
        states = [SingleParticleState.localized(R3, "R1", UP),
                  SingleParticleState.localized(R3, "R2", UP),
                  SingleParticleState.localized(R3, "R3", UP)]
        assert degree_n(states, R3.labels).entropy == 0.0
        # generic spread stays inside (0, log2 N!)
        rows = [(0.9, 0.3, math.sqrt(1 - 0.81 - 0.09)),
                (0.5, 0.7, math.sqrt(1 - 0.25 - 0.49)),
                (0.4, 0.4, math.sqrt(1 - 0.16 - 0.16))]
        generic = [SingleParticleState(R3, {(m, UP): v for m, v in zip(R3.labels, row)})
                   for row in rows]
        entropy = degree_n(generic, R3.labels).entropy
        assert 0.0 < entropy < math.log2(6)

    def test_shape_mismatch_raises(self):
        states = [SingleParticleState.localized(R3, "R1", UP)]
        with pytest.raises(ValueError, match="as many regions"):
            degree_n(states, R3.labels)
