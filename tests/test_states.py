import math

import numpy as np
import pytest

from islocc.states import (DOWN, UP, ModeBasis, SingleParticleState, SpatialWave, inner,
                           make_peaked)

LR = ModeBasis(("L", "R"))
SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestModeBasis:
    def test_membership_and_index(self):
        basis = ModeBasis(("L", "R", "R1"))
        assert "R1" in basis and "Q" not in basis
        assert basis.index("R") == 1
        assert len(basis) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            ModeBasis(("L", "L"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModeBasis(())


class TestMakePeaked:
    def test_fully_localized(self):
        state = make_peaked(SpatialWave(1.0, 0.0), UP, LR)
        assert state.amplitudes[("L", UP)] == 1.0
        assert state.amplitudes == {("L", UP): (1 + 0j)}

    def test_theta_pi_flips_right_sign(self):
        state = make_peaked(SpatialWave(SQRT_HALF, SQRT_HALF, math.pi), DOWN, LR)
        assert state.amplitudes[("L", DOWN)] == pytest.approx(0.7071067811865476, abs=1e-12)
        assert state.amplitudes[("R", DOWN)] == pytest.approx(-0.7071067811865476, abs=1e-12)
        assert state.amplitudes.get(("L", UP), 0) == 0

    def test_direct_substitution(self):
        state = make_peaked(SpatialWave(0.8, 0.6), UP, LR)
        assert state.amplitudes[("L", UP)] == pytest.approx(0.8, abs=1e-15)
        assert state.amplitudes[("R", UP)] == pytest.approx(0.6, abs=1e-15)

    def test_requires_l_and_r_modes(self):
        with pytest.raises(ValueError, match="'R'"):
            make_peaked(SpatialWave(1.0, 0.0), UP, ModeBasis(("L", "M")))

    def test_rejects_norm_violation(self):
        with pytest.raises(ValueError, match="must equal 1"):
            SpatialWave(0.9, 0.6)

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpatialWave(-0.6, 0.8)

    @pytest.mark.parametrize("l, r", [(1.0 + 1e-13, 0.0), (0.0, 1.0 + 1e-13)])
    def test_rejects_amplitudes_above_one(self, l, r):
        # within the norm check's slack, but not a wave WernerFamily accepts
        with pytest.raises(ValueError, match="at most 1"):
            SpatialWave(l, r)

    def test_from_l_rejects_l_above_one(self):
        with pytest.raises(ValueError, match="at most 1"):
            SpatialWave.from_l(1.0000000000001)
        assert SpatialWave.from_l(1.0).r == 0.0

    @pytest.mark.parametrize("l, r, theta", [(math.nan, math.nan, 0.0), (0.6, 0.8, math.inf),
                                             (0.6, 0.8, math.nan), (math.inf, 0.0, 0.0)])
    def test_rejects_non_finite(self, l, r, theta):
        with pytest.raises(ValueError, match="finite"):
            SpatialWave(l, r, theta)

    def test_norm_one_for_random_params(self, rng):
        for _ in range(1000):
            phi = rng.uniform(0.0, math.pi / 2.0)
            wave = SpatialWave(math.cos(phi), math.sin(phi), rng.uniform(0.0, 2.0 * math.pi))
            state = make_peaked(wave, UP if rng.integers(2) else DOWN, LR)
            assert abs(inner(state, state).real - 1.0) <= 1e-12


class TestInner:
    def test_orthonormal_modes(self):
        a = SingleParticleState.localized(LR, "L", UP)
        b = SingleParticleState.localized(LR, "R", UP)
        assert inner(a, b) == 0

    def test_self_overlap_is_one(self):
        state = make_peaked(SpatialWave(0.8, 0.6, 1.3), UP, LR)
        assert inner(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_hand_expanded_overlap(self):
        a = make_peaked(SpatialWave(0.8, 0.6), UP, LR)
        b = make_peaked(SpatialWave(0.6, 0.8), UP, LR)
        assert inner(a, b) == pytest.approx(0.96, abs=1e-14)

    def test_spin_orthogonality_exact(self, rng):
        for _ in range(50):
            phi1, phi2 = rng.uniform(0, math.pi / 2, size=2)
            a = make_peaked(SpatialWave(math.cos(phi1), math.sin(phi1),
                                        rng.uniform(0, 2 * math.pi)), UP, LR)
            b = make_peaked(SpatialWave(math.cos(phi2), math.sin(phi2),
                                        rng.uniform(0, 2 * math.pi)), DOWN, LR)
            assert inner(a, b) == 0

    def test_conjugate_symmetry(self, rng, make_random_state):
        basis = ModeBasis(("L", "R", "R1"))
        for _ in range(200):
            a = make_random_state(rng, basis)
            b = make_random_state(rng, basis)
            assert abs(inner(a, b) - inner(b, a).conjugate()) <= 1e-14

    def test_basis_mismatch_raises(self):
        a = SingleParticleState.localized(LR, "L", UP)
        b = SingleParticleState.localized(ModeBasis(("L", "R", "X")), "L", UP)
        with pytest.raises(ValueError, match="different mode bases"):
            inner(a, b)


class TestStateHelpers:
    def test_sparse_storage_drops_zeros(self):
        state = SingleParticleState(LR, {("L", UP): 0.0, ("R", DOWN): 0.5j})
        assert ("L", UP) not in state.amplitudes

    def test_dense_vector_ordering(self):
        state = SingleParticleState(LR, {("L", DOWN): 0.3, ("R", UP): 0.7j})
        np.testing.assert_array_equal(state.vector, [0.0, 0.3, 0.7j, 0.0])
        assert not state.vector.flags.writeable

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_amplitudes(self, value):
        with pytest.raises(ValueError, match="finite"):
            SingleParticleState(LR, {("L", UP): value, ("R", DOWN): 0.5})
        with pytest.raises(ValueError, match="finite"):
            SingleParticleState(LR, [value, 0.0, 0.5, 0.0])

    def test_vector_must_match_the_basis(self):
        with pytest.raises(ValueError, match="does not match"):
            SingleParticleState(LR, [1.0, 0.0, 0.0])

    def test_amplitudes_are_a_read_only_view_of_the_vector(self):
        state = SingleParticleState(LR, [0.0, 0.3, 0.7j, 0.0])
        assert state.amplitudes == {("L", DOWN): 0.3, ("R", UP): 0.7j}
        with pytest.raises(TypeError):
            state.amplitudes[("L", UP)] = 1.0
        with pytest.raises(ValueError):
            state.vector[0] = 1.0

    def test_equality_is_basis_and_amplitudes(self):
        state = SingleParticleState(LR, {("L", DOWN): 0.3, ("R", UP): 0.7j})
        assert state == SingleParticleState(LR, [0.0, 0.3, 0.7j, 0.0])
        assert state != SingleParticleState(LR, {("L", DOWN): 0.3, ("R", UP): 0.7})
        assert state != SingleParticleState(ModeBasis(("L", "R", "X")),
                                            {("L", DOWN): 0.3, ("R", UP): 0.7j})
        assert state != {("L", DOWN): 0.3, ("R", UP): 0.7j}  # a mapping is not a state
        with pytest.raises(TypeError, match="unhashable"):
            hash(state)

    def test_substitute_modes(self):
        wide = ModeBasis(("L", "R"))
        state = SingleParticleState(ModeBasis(("L1",)), {("L1", UP): 1.0})
        moved = state.substitute_modes({"L1": {"L": 0.6, "R": 0.8j}}, wide)
        assert moved.amplitudes[("L", UP)] == pytest.approx(0.6)
        assert moved.amplitudes[("R", UP)] == pytest.approx(0.8j)

    def test_from_l_builds_unit_wave(self):
        wave = SpatialWave.from_l(0.3, 1.0)
        assert wave.l ** 2 + wave.r ** 2 == pytest.approx(1.0, abs=1e-15)
        assert abs(wave.right_amplitude) == pytest.approx(wave.r, abs=1e-15)
