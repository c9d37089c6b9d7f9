import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from islocc.amplitudes import BOSON, FERMION, ElementaryKet
from islocc.ensembles import (MixedState, PureNState, matrix_element,
                              mixed_trace, pure_norm_sq, state_overlap)
from islocc.states import (DOWN, UP, ModeBasis, SingleParticleState, SpatialWave,
                           make_peaked)
from islocc.werner import (WernerSpec, bell_states, werner_direct)
from islocc.verify import random_single_particle

LR = ModeBasis(("L", "R"))
SQRT_HALF = 1.0 / math.sqrt(2.0)


def symmetrized_basis(basis, n, statistics):
    """Orthogonal product-ket basis of the N-particle (anti)symmetric sector,
    as (ket, squared norm) pairs: the oracle for the global trace.

    Bosonic kets are multisets of single-particle basis states with squared
    norm prod_k occupation_k!; fermionic kets are strictly increasing tuples
    with squared norm 1.
    """
    singles = [SingleParticleState.localized(basis, mode, spin)
               for mode in basis.labels for spin in (UP, DOWN)]
    indices = range(len(singles))
    out = []
    if statistics is FERMION:
        for combo in combinations(indices, n):
            out.append((ElementaryKet(tuple(singles[i] for i in combo), statistics), 1.0))
    else:
        for combo in combinations_with_replacement(indices, n):
            norm_sq = 1.0
            for i in set(combo):
                norm_sq *= math.factorial(combo.count(i))
            out.append((ElementaryKet(tuple(singles[i] for i in combo), statistics), norm_sq))
    return out


def _peaked(l, r, theta, spin):
    return make_peaked(SpatialWave(l, r, theta), spin, LR)


def _wave_overlap_sq(l, lp, theta):
    r = math.sqrt(1 - l * l)
    rp = math.sqrt(1 - lp * lp)
    return abs(l * lp + r * rp * np.exp(1j * theta)) ** 2


class TestPureNormSq:
    def test_orthogonal_spatial_parts(self):
        bells = bell_states(SpatialWave.from_l(1.0), SpatialWave.from_l(0.0), FERMION)
        assert pure_norm_sq(bells["1_minus"]) == pytest.approx(1.0, abs=1e-14)

    def test_fermion_half_overlap(self):
        # psi1 = |L>, psi2 with l' = 1/sqrt(2) gives |<psi1|psi2>|^2 = 1/2
        bells = bell_states(SpatialWave.from_l(1.0), SpatialWave.from_l(SQRT_HALF), FERMION)
        assert pure_norm_sq(bells["1_minus"]) == pytest.approx(1.5, abs=1e-12)

    def test_boson_quarter_overlap(self):
        bells = bell_states(SpatialWave.from_l(1.0), SpatialWave.from_l(0.5), BOSON)
        assert pure_norm_sq(bells["2_plus"]) == pytest.approx(1.25, abs=1e-12)

    def test_all_bell_norms_match_closed_constants(self, rng):
        for _ in range(100):
            l, lp = rng.uniform(0, 1, size=2)
            theta = rng.uniform(0, 2 * math.pi)
            stats = BOSON if rng.integers(2) else FERMION
            x = stats.eta * _wave_overlap_sq(l, lp, theta)
            bells = bell_states(SpatialWave.from_l(l), SpatialWave.from_l(lp, theta), stats)
            assert pure_norm_sq(bells["1_minus"]) == pytest.approx(1 - x, abs=1e-12)
            for name in ("1_plus", "2_plus", "2_minus"):
                assert pure_norm_sq(bells[name]) == pytest.approx(1 + x, abs=1e-12)

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_rejects_non_finite_coefficients(self, coefficient):
        ket = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        with pytest.raises(ValueError, match="finite"):
            PureNState(((1.0, ket), (coefficient, ket)))

    def test_nan_norm_fails_the_check(self, monkeypatch):
        # a NaN total must not pass as a non-negative real
        ket = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        monkeypatch.setattr("islocc.ensembles.amplitude", lambda bra, k: complex(math.nan, 0))
        with pytest.raises(ValueError, match="non-negative real"):
            pure_norm_sq(PureNState(((1.0, ket),)))

    def test_rejects_inconsistent_terms(self):
        one = ElementaryKet((_peaked(1, 0, 0, UP),), FERMION)
        two = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        with pytest.raises(ValueError, match="share N"):
            PureNState(((1.0, one), (1.0, two)))


class TestSymmetrizedBasis:
    def test_boson_double_occupation_norm_pin(self):
        # convention pin: <psi psi|psi psi> = 2 for identical bosons
        psi = _peaked(0.8, 0.6, 0.3, UP)
        state = PureNState(((1.0, ElementaryKet((psi, psi), BOSON)),))
        assert pure_norm_sq(state) == pytest.approx(2.0, abs=1e-13)

    def test_sizes_and_norms(self):
        bosonic = symmetrized_basis(LR, 2, BOSON)
        fermionic = symmetrized_basis(LR, 2, FERMION)
        assert len(bosonic) == 10  # multisets of size 2 over 4 slots
        assert len(fermionic) == 6  # pairs of distinct slots
        assert {n for _, n in fermionic} == {1.0}
        assert sorted(n for _, n in bosonic) == [1.0] * 6 + [2.0] * 4

    def test_orthogonality_with_norms(self):
        for stats in (BOSON, FERMION):
            basis = symmetrized_basis(LR, 2, stats)
            for i, (b1, n1) in enumerate(basis):
                for j, (b2, n2) in enumerate(basis):
                    expected = n1 if i == j else 0.0
                    got = state_overlap(b1, PureNState(((1.0, b2),)))
                    assert got == pytest.approx(expected, abs=1e-13)


class TestMixedTrace:
    def test_werner_matches_closed_normalization(self, rng):
        for _ in range(200):
            l, lp = rng.uniform(0, 1, size=2)
            theta = rng.uniform(0, 2 * math.pi)
            p = rng.uniform(0, 1)
            stats = BOSON if rng.integers(2) else FERMION
            target = "1_minus" if rng.integers(2) else "1_plus"
            spec = WernerSpec(p, target, SpatialWave.from_l(l),
                              SpatialWave.from_l(lp, theta), stats)
            sign = -1.0 if target == "1_minus" else 1.0
            expected = 1 + stats.eta * _wave_overlap_sq(l, lp, theta) * (p / 2 + sign * (1 - p))
            assert mixed_trace(werner_direct(spec)) == pytest.approx(expected, abs=1e-10)

    def test_separated_ensemble_sums_weights(self):
        up_down = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        down_up = ElementaryKet((_peaked(1, 0, 0, DOWN), _peaked(0, 1, 0, UP)), FERMION)
        mixed = MixedState(((0.3, PureNState(((1.0, up_down),))),
                            (0.9, PureNState(((1.0, down_up),)))))
        assert mixed_trace(mixed) == pytest.approx(1.2, abs=1e-13)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION], ids=["boson", "fermion"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_dense_matrix_trace(self, rng, statistics, n):
        # assemble the full matrix over the symmetrized basis as the oracle
        basis = symmetrized_basis(LR, n, statistics)
        for _ in range(10):
            states = []
            for _ in range(2):
                terms = tuple(
                    (complex(rng.standard_normal(), rng.standard_normal()),
                     ElementaryKet(tuple(random_single_particle(rng, LR) for _ in range(n)),
                                   statistics))
                    for _ in range(2))
                states.append(PureNState(terms))
            mixed = MixedState(((rng.uniform(0.1, 1.0), states[0]),
                                (rng.uniform(0.1, 1.0), states[1])))
            dense = np.zeros((len(basis), len(basis)), dtype=complex)
            for i, (bi, ni) in enumerate(basis):
                for j, (bj, nj) in enumerate(basis):
                    dense[i, j] = matrix_element(bi, mixed, bj) / math.sqrt(ni * nj)
            assert mixed_trace(mixed) == pytest.approx(np.trace(dense).real, rel=1e-12)

    def test_matches_sum_of_pure_norms(self, rng):
        for stats in (BOSON, FERMION):
            terms = tuple(
                (complex(rng.standard_normal(), rng.standard_normal()),
                 ElementaryKet((random_single_particle(rng, LR),
                                random_single_particle(rng, LR)), stats))
                for _ in range(3))
            state = PureNState(terms)
            mixed = MixedState(((0.7, state),))
            assert mixed_trace(mixed) == pytest.approx(0.7 * pure_norm_sq(state), abs=1e-12)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, weight):
        up_down = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        down_up = ElementaryKet((_peaked(1, 0, 0, DOWN), _peaked(0, 1, 0, UP)), FERMION)
        with pytest.raises(ValueError, match="finite"):
            MixedState(((1.0, PureNState(((1.0, up_down),))),
                        (weight, PureNState(((1.0, down_up),)))))

    def test_rejects_negative_weights(self):
        ket = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        state = PureNState(((1.0, ket),))
        with pytest.raises(ValueError, match="non-negative"):
            MixedState(((-0.1, state),))
        with pytest.raises(ValueError, match="positive"):
            MixedState(((0.0, state),))


class TestMatrixElement:
    def test_diagonal_of_separated_pure_state_is_weight(self):
        ket = ElementaryKet((_peaked(1, 0, 0, UP), _peaked(0, 1, 0, DOWN)), FERMION)
        mixed = MixedState(((0.42, PureNState(((1.0, ket),))),))
        assert matrix_element(ket, mixed, ket) == pytest.approx(0.42, abs=1e-14)

    def test_werner_off_diagonal_hand_value(self):
        # maximally overlapping fermion pair, theta = 0, no noise: the raw
        # (unnormalized) off-diagonal between |L up, R down> and |L down, R up>
        # equals -1/2
        spec = WernerSpec(0.0, "1_minus", SpatialWave.from_l(SQRT_HALF),
                          SpatialWave.from_l(SQRT_HALF), FERMION)
        mixed = werner_direct(spec)
        bra = ElementaryKet((SingleParticleState.localized(LR, "L", UP),
                             SingleParticleState.localized(LR, "R", DOWN)), FERMION)
        ket = ElementaryKet((SingleParticleState.localized(LR, "L", DOWN),
                             SingleParticleState.localized(LR, "R", UP)), FERMION)
        assert matrix_element(bra, mixed, ket) == pytest.approx(-0.5, abs=1e-12)

    def test_hermiticity(self, rng):
        for stats in (BOSON, FERMION):
            for _ in range(25):
                members = []
                for _ in range(2):
                    terms = tuple(
                        (complex(rng.standard_normal(), rng.standard_normal()),
                         ElementaryKet((random_single_particle(rng, LR),
                                        random_single_particle(rng, LR)), stats))
                        for _ in range(2))
                    members.append((rng.uniform(0.05, 1.0), PureNState(terms)))
                mixed = MixedState(tuple(members))
                bra = ElementaryKet((random_single_particle(rng, LR),
                                     random_single_particle(rng, LR)), stats)
                ket = ElementaryKet((random_single_particle(rng, LR),
                                     random_single_particle(rng, LR)), stats)
                lhs = matrix_element(bra, mixed, ket)
                rhs = matrix_element(ket, mixed, bra).conjugate()
                assert abs(lhs - rhs) <= 1e-12
