import math
import warnings
from itertools import permutations

import numpy as np
import pytest

from islocc.amplitudes import (BOSON, FERMION, ElementaryKet,
                               PermutationCapExceeded, amplitude_fast,
                               amplitude_permsum, overlap_matrix,
                               permanent_ryser, _amplitudes, _permutations_with_parity)
from islocc.states import (DOWN, UP, ModeBasis, SingleParticleState, SpatialWave,
                           make_peaked)
from islocc.verify import random_single_particle

LR = ModeBasis(("L", "R"))
ABC = ModeBasis(("A", "B", "C"))


def _loc(mode, spin, basis=LR):
    return SingleParticleState.localized(basis, mode, spin)


def _peaked(l, r, theta, spin):
    return make_peaked(SpatialWave(l, r, theta), spin, LR)


def _naive_permanent(m):
    n = m.shape[0]
    return sum(math.prod(m[i, p[i]] for i in range(n)) for p in permutations(range(n)))


class TestOverlapMatrix:
    def test_orthonormal_pair_gives_identity(self):
        ket = ElementaryKet((_loc("L", UP), _loc("R", DOWN)), FERMION)
        np.testing.assert_allclose(overlap_matrix(ket, ket), np.eye(2))

    def test_entrywise_inner_products(self):
        bra = ElementaryKet((_loc("L", UP), _loc("R", UP)), FERMION)
        ket = ElementaryKet((_peaked(0.8, 0.6, 0, UP), _peaked(0.6, 0.8, 0, UP)), FERMION)
        np.testing.assert_allclose(overlap_matrix(bra, ket),
                                   [[0.8, 0.6], [0.6, 0.8]], atol=1e-15)

    def test_spin_mismatch_gives_zero_matrix(self):
        bra = ElementaryKet((_loc("L", UP), _loc("R", DOWN)), BOSON)
        ket = ElementaryKet((_loc("L", DOWN), _loc("R", UP)), BOSON)
        np.testing.assert_array_equal(overlap_matrix(bra, ket), np.zeros((2, 2)))

    def test_mismatches_raise(self):
        two = ElementaryKet((_loc("L", UP), _loc("R", UP)), FERMION)
        one = ElementaryKet((_loc("L", UP),), FERMION)
        boson_two = ElementaryKet((_loc("L", UP), _loc("R", UP)), BOSON)
        with pytest.raises(ValueError, match="particle numbers"):
            overlap_matrix(two, one)
        with pytest.raises(ValueError, match="statistics"):
            overlap_matrix(two, boson_two)
        other = ElementaryKet((_loc("A", UP, ABC), _loc("B", UP, ABC)), FERMION)
        with pytest.raises(ValueError, match="bases"):
            overlap_matrix(two, other)


class TestPermutationGeneration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_each_permutation_once_with_inversion_parity(self, n):
        seen = {}
        for perm, sign in _permutations_with_parity(n):
            assert perm not in seen
            seen[perm] = sign
        assert len(seen) == math.factorial(n)
        for perm, sign in seen.items():
            inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                             if perm[i] > perm[j])
            assert sign == (-1) ** inversions


class TestPermutationSum:
    def test_pauli_exclusion(self):
        chi = _peaked(0.8, 0.6, 0.4, UP)
        ket = ElementaryKet((chi, chi), FERMION)
        assert amplitude_permsum(ket, ket) == 0

    def test_boson_double_occupation_norm(self):
        psi = _peaked(0.6, 0.8, 0.0, UP)
        ket = ElementaryKet((psi, psi), BOSON)
        assert amplitude_permsum(ket, ket) == pytest.approx(2.0, abs=1e-14)

    def test_two_particle_hand_expansion(self):
        bra = ElementaryKet((_loc("L", UP), _loc("R", DOWN)), FERMION)
        ket = ElementaryKet((_peaked(0.8, 0.6, 0, UP), _peaked(0.6, 0.8, 0, DOWN)), FERMION)
        # direct term 0.8*0.8; exchange term killed by spin orthogonality
        assert amplitude_permsum(bra, ket) == pytest.approx(0.64, abs=1e-14)

    def test_cap_signals_fast_path(self):
        chi = _loc("L", UP)
        big = ElementaryKet((chi,) * 9, BOSON)
        with pytest.raises(PermutationCapExceeded, match="amplitude_fast"):
            amplitude_permsum(big, big)
        small = ElementaryKet((chi,) * 4, BOSON)
        with pytest.raises(PermutationCapExceeded):
            amplitude_permsum(small, small, cap=3)


class TestFastPath:
    def test_boson_all_equal_three(self):
        psi = _peaked(0.6, 0.8, 0.0, UP)
        ket = ElementaryKet((psi,) * 3, BOSON)
        assert amplitude_fast(ket, ket) == pytest.approx(6.0, abs=1e-13)
        assert amplitude_permsum(ket, ket) == pytest.approx(6.0, abs=1e-13)

    def test_orthonormal_fermion_quadruple_is_determinant(self, rng):
        basis = ModeBasis(("A", "B", "C", "D"))
        dim = 2 * len(basis)
        keys = [(m, s) for m in basis.labels for s in (UP, DOWN)]

        def unitary_states(seed_mat):
            q, _ = np.linalg.qr(seed_mat)
            return [SingleParticleState(basis, dict(zip(keys, q[:, i]))) for i in range(4)]

        bra_states = unitary_states(rng.standard_normal((dim, dim))
                                    + 1j * rng.standard_normal((dim, dim)))
        ket_states = unitary_states(rng.standard_normal((dim, dim))
                                    + 1j * rng.standard_normal((dim, dim)))
        bra = ElementaryKet(tuple(bra_states), FERMION)
        ket = ElementaryKet(tuple(ket_states), FERMION)
        det = np.linalg.det(overlap_matrix(bra, ket))
        assert amplitude_fast(bra, ket) == pytest.approx(det, abs=1e-12)
        assert amplitude_permsum(bra, ket) == pytest.approx(det, abs=1e-12)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_permutation_sum(self, rng, statistics, n):
        for _ in range(30):
            bra = ElementaryKet(tuple(random_single_particle(rng, ABC) for _ in range(n)),
                                statistics)
            ket = ElementaryKet(tuple(random_single_particle(rng, ABC) for _ in range(n)),
                                statistics)
            assert abs(amplitude_fast(bra, ket) - amplitude_permsum(bra, ket)) <= 1e-10


class TestStackedKernel:
    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_stack_matches_permutation_sum_matrix_by_matrix(self, rng, statistics, n):
        pairs = [tuple(ElementaryKet(tuple(random_single_particle(rng, ABC) for _ in range(n)),
                                     statistics) for _ in range(2)) for _ in range(12)]
        stack = np.array([overlap_matrix(bra, ket) for bra, ket in pairs]).reshape(3, 4, n, n)
        values = _amplitudes(stack, statistics)
        assert values.shape == (3, 4)
        for value, (bra, ket) in zip(values.ravel(), pairs):
            assert abs(value - amplitude_permsum(bra, ket)) <= 1e-10

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_subnormal_two_particle_stack_warns_nothing(self, statistics):
        # np.linalg.det divides by zero on this matrix and returns NaN; its
        # amplitude underflows to 0 (pytest turns RuntimeWarnings into errors)
        tiny = 2.2e-313
        stack = np.array([[[0, tiny], [tiny, tiny]], [[tiny, 0], [0, 1]]], dtype=complex)
        assert np.array_equal(_amplitudes(stack, statistics), [0, tiny])

    @pytest.mark.parametrize("l, expected", [(2.2e-313, 0.0), (1e-160, -1e-320)])
    def test_subnormal_fermion_triple_warns_nothing(self, l, expected):
        # overlap matrix [[0, l, 0], [l, l, 0], [0, 0, 1]] with determinant -l^2:
        # np.linalg.det divides by zero on the first l and returns NaN
        bra = ElementaryKet(tuple(_loc(mode, UP, ABC) for mode in "ABC"), FERMION)
        ket = ElementaryKet((SingleParticleState.localized(ABC, "B", UP, l),
                             SingleParticleState(ABC, {("A", UP): l, ("B", UP): l}),
                             _loc("C", UP, ABC)), FERMION)
        assert np.array_equal(overlap_matrix(bra, ket), [[0, l, 0], [l, l, 0], [0, 0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert amplitude_fast(bra, ket) == expected


class TestExchangeSymmetry:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fermion_swap_negates(self, rng, n):
        for _ in range(25):
            particles = [random_single_particle(rng, ABC) for _ in range(n)]
            bra = ElementaryKet(tuple(random_single_particle(rng, ABC) for _ in range(n)),
                                FERMION)
            ket = ElementaryKet(tuple(particles), FERMION)
            swapped = list(particles)
            swapped[0], swapped[-1] = swapped[-1], swapped[0]
            flipped = ElementaryKet(tuple(swapped), FERMION)
            assert abs(amplitude_permsum(bra, flipped) + amplitude_permsum(bra, ket)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_boson_swap_preserves(self, rng, n):
        for _ in range(25):
            particles = [random_single_particle(rng, ABC) for _ in range(n)]
            bra = ElementaryKet(tuple(random_single_particle(rng, ABC) for _ in range(n)),
                                BOSON)
            ket = ElementaryKet(tuple(particles), BOSON)
            swapped = list(particles)
            swapped[0], swapped[-1] = swapped[-1], swapped[0]
            flipped = ElementaryKet(tuple(swapped), BOSON)
            assert abs(amplitude_permsum(bra, flipped) - amplitude_permsum(bra, ket)) <= 1e-14

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_self_amplitude_real_non_negative(self, rng, statistics):
        for n in (2, 3, 4):
            for _ in range(20):
                ket = ElementaryKet(tuple(random_single_particle(rng, ABC)
                                          for _ in range(n)), statistics)
                value = amplitude_fast(ket, ket)
                assert abs(value.imag) <= 1e-12
                assert value.real >= -1e-12


class TestPermanentRyser:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_naive_permanent(self, rng, n):
        for _ in range(20):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert permanent_ryser(m) == pytest.approx(_naive_permanent(m), rel=1e-11,
                                                       abs=1e-11)

    def test_all_ones(self):
        assert permanent_ryser(np.ones((3, 3))) == pytest.approx(6.0)

    def test_empty_matrix_is_one(self):
        assert permanent_ryser(np.zeros((0, 0))) == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            permanent_ryser(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            permanent_ryser(np.ones(3))
