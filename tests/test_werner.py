import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from islocc.amplitudes import BOSON, FERMION
from islocc.ensembles import mixed_trace, pure_norm_sq, state_overlap
from islocc.entanglement import analyze, concurrence
from islocc.slocc import (ProjectionUndefinedError, ZeroTraceError, computational_kets,
                          project)
from islocc.sweeps import FLAG_PROBABILITY, _flagged
from islocc.states import DOWN, UP, ModeBasis, SingleParticleState, SpatialWave
from islocc.werner import (LR_BASIS, TARGETS, KrausSet, WaveStack, WernerFamily,
                           WernerSpec, _PATTERNS, _bell_overlaps, bell_states,
                           canonical_theta,
                           closed_form_concurrence_minus,
                           closed_form_concurrence_plus,
                           closed_form_probability_minus,
                           closed_form_probability_plus,
                           depolarize_then_deform, depolarizing_kraus,
                           project_werner, spec_from_l, werner_direct)

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestBellStates:
    def test_separated_modes_are_normalized(self):
        bells = bell_states(SpatialWave.from_l(1.0), SpatialWave.from_l(0.0), FERMION)
        for state in bells.values():
            assert pure_norm_sq(state) == pytest.approx(1.0, abs=1e-14)

    def test_pauli_forbidden_symmetric_state(self):
        psi = SpatialWave.from_l(0.8)
        bells = bell_states(psi, psi, FERMION)
        assert pure_norm_sq(bells["1_plus"]) == pytest.approx(0.0, abs=1e-14)

    def test_boson_overlap_half(self):
        bells = bell_states(SpatialWave.from_l(1.0), SpatialWave.from_l(SQRT_HALF), BOSON)
        assert pure_norm_sq(bells["2_plus"]) == pytest.approx(1.5, abs=1e-12)
        assert pure_norm_sq(bells["2_minus"]) == pytest.approx(1.5, abs=1e-12)


class TestWernerDirect:
    def test_zero_noise_projects_to_pure_target(self):
        spec = spec_from_l(0.0, "1_minus", 0.8, 0.55, FERMION)
        projected = project_werner(spec)
        assert concurrence(projected) == pytest.approx(
            closed_form_concurrence_minus(0.8, 0.6, 0.55, math.sqrt(1 - 0.55 ** 2), 0.0),
            abs=1e-11)
        # rank one: a single unit eigenvalue
        eigs = np.sort(projected.eigenvalues())
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert eigs[-2] == pytest.approx(0.0, abs=1e-12)

    def test_full_noise_is_flat_bell_mixture(self):
        spec = spec_from_l(1.0, "1_minus", 1.0, 0.0, FERMION)
        projected = project_werner(spec)
        np.testing.assert_allclose(projected.matrix, np.eye(4) / 4, atol=1e-12)

    def test_ensemble_layout_matches_mixture_definition(self):
        spec = spec_from_l(0.3, "1_plus", 0.8, 0.6, BOSON)
        mixed = werner_direct(spec)
        weights = [w for w, _ in mixed.ensemble]
        assert weights == pytest.approx([0.7, 0.075, 0.075, 0.075, 0.075])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="noise probability"):
            spec_from_l(1.2, "1_minus", 0.8, 0.6, FERMION)
        with pytest.raises(ValueError, match="target"):
            WernerSpec(0.2, "2_plus", SpatialWave.from_l(0.5), SpatialWave.from_l(0.5),
                       FERMION)


class TestDepolarizingChannel:
    def test_kraus_completeness(self):
        for p in (0.0, 0.3, 1.0):
            depolarizing_kraus(p, "L1")  # constructor enforces completeness

    def test_incomplete_set_rejected(self):
        bad = (np.eye(2) * 0.5,)
        with pytest.raises(ValueError, match="identity"):
            KrausSet(bad, "L1")

    def test_trace_preserved_before_deformation(self):
        # deform onto separated waves so the staging state is just relabeled
        for p in (0.0, 0.4, 1.0):
            mixed = depolarize_then_deform(p, "1_minus", SpatialWave.from_l(1.0),
                                           SpatialWave.from_l(0.0), FERMION)
            assert mixed_trace(mixed) == pytest.approx(1.0, abs=1e-12)

    def test_zero_noise_keeps_pure_bell_state(self):
        psi1, psi2 = SpatialWave.from_l(0.85), SpatialWave.from_l(0.6, 1.1)
        channel = project(depolarize_then_deform(0.0, "1_minus", psi1, psi2, FERMION),
                          ("L", "R"))
        direct = project_werner(WernerSpec(0.0, "1_minus", psi1, psi2, FERMION))
        np.testing.assert_allclose(channel.matrix, direct.matrix, atol=1e-12)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_channel_equals_direct_mixture(self, rng, statistics):
        for _ in range(25):
            psi1 = SpatialWave.from_l(rng.uniform(0.1, 0.95))
            psi2 = SpatialWave.from_l(rng.uniform(0.1, 0.95), rng.uniform(0, 2 * math.pi))
            p = rng.uniform(0, 1)
            target = "1_minus" if rng.integers(2) else "1_plus"
            direct = project(werner_direct(WernerSpec(p, target, psi1, psi2, statistics)),
                             ("L", "R"))
            channel = project(depolarize_then_deform(p, target, psi1, psi2, statistics),
                              ("L", "R"))
            assert np.max(np.abs(direct.matrix - channel.matrix)) <= 1e-10
            assert abs(direct.probability - channel.probability) <= 1e-10

    def test_delocalized_input_rejected(self):
        # the channel acts on a staging mode; a particle straddling it and
        # another mode has no well-defined localized spin to depolarize
        from islocc.werner import _apply_kraus_branch
        from islocc.ensembles import PureNState
        from islocc.amplitudes import ElementaryKet
        staging = ModeBasis(("L1", "L2"))
        spread = SingleParticleState(staging, {("L1", UP): SQRT_HALF, ("L2", UP): SQRT_HALF})
        okay = SingleParticleState.localized(staging, "L2", DOWN)
        state = PureNState(((1.0, ElementaryKet((spread, okay), FERMION)),))
        with pytest.raises(ValueError, match="fully localized"):
            _apply_kraus_branch(np.eye(2, dtype=complex), state, "L1")


class TestClosedForms:
    def test_maximally_indistinguishable_singlet_is_noise_free(self):
        for p in np.linspace(0, 1, 7):
            assert closed_form_concurrence_minus(SQRT_HALF, SQRT_HALF, SQRT_HALF,
                                                 SQRT_HALF, float(p)) == \
                pytest.approx(1.0, abs=1e-12)

    def test_distinguishable_limit(self):
        assert closed_form_concurrence_minus(1.0, 0.0, 0.0, 1.0, 0.4) == \
            pytest.approx(0.4, abs=1e-15)
        assert closed_form_concurrence_plus(1.0, 0.0, 0.0, 1.0, 0.4) == \
            pytest.approx(0.4, abs=1e-15)

    def test_partial_overlap_frozen_value(self):
        got = closed_form_concurrence_minus(0.8, 0.6, 0.6, 0.8, 0.5)
        assert got == pytest.approx(0.910146699266504, abs=1e-14)

    def test_triplet_target_closed_form_at_full_overlap(self):
        assert closed_form_concurrence_plus(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF,
                                            0.4) == pytest.approx(5.0 / 9.0, abs=1e-13)
        for p in (0.8, 0.9, 1.0):
            assert closed_form_concurrence_plus(SQRT_HALF, SQRT_HALF, SQRT_HALF,
                                                SQRT_HALF, p) == 0.0

    def test_probability_special_points(self):
        args = (SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF)
        for p in (0.0, 0.3, 0.8):
            assert closed_form_probability_minus(*args, p, FERMION) == \
                pytest.approx(0.5, abs=1e-13)
            assert closed_form_probability_minus(*args, p, BOSON) == \
                pytest.approx(1 - 0.75 * p, abs=1e-13)
            assert closed_form_probability_plus(*args, p, FERMION) == \
                pytest.approx(1 - 0.25 * p, abs=1e-13)
            assert closed_form_probability_plus(*args, p, BOSON) == \
                pytest.approx(0.5, abs=1e-13)

    def test_degenerate_geometry_raises(self):
        with pytest.raises(ValueError, match="never detected"):
            closed_form_concurrence_minus(1.0, 0.0, 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_random_tuples_match_pipeline(self, rng, statistics):
        for _ in range(40):
            l, lp = rng.uniform(0.05, 0.95, size=2)
            p = rng.uniform(0, 1)
            r, rp = math.sqrt(1 - l * l), math.sqrt(1 - lp * lp)
            for target, c_closed, p_closed in (
                    ("1_minus", closed_form_concurrence_minus, closed_form_probability_minus),
                    ("1_plus", closed_form_concurrence_plus, closed_form_probability_plus)):
                expected_p = p_closed(l, r, lp, rp, p, statistics)
                if expected_p <= 1e-6:
                    continue
                projected = project_werner(spec_from_l(p, target, l, lp, statistics))
                assert concurrence(projected) == pytest.approx(
                    c_closed(l, r, lp, rp, p), abs=1e-9)
                assert projected.probability == pytest.approx(expected_p, abs=1e-9)


class TestPhaseSwitch:
    @pytest.mark.parametrize("target", ["1_minus", "1_plus"])
    def test_fermion_theta_equals_boson_theta_plus_pi(self, rng, target):
        for _ in range(25):
            l = rng.uniform(SQRT_HALF, 1.0)
            lprime = math.sqrt(1 - l * l)  # r' = l family
            theta = rng.uniform(0, 2 * math.pi)
            p = rng.uniform(0, 1)
            fermion = analyze(project_werner(
                spec_from_l(p, target, l, lprime, FERMION, theta)))
            boson = analyze(project_werner(
                spec_from_l(p, target, l, lprime, BOSON, theta + math.pi)))
            assert abs(fermion.concurrence - boson.concurrence) <= 1e-10
            assert abs(fermion.bell - boson.bell) <= 1e-10

    def test_canonical_theta_pairing(self):
        assert canonical_theta("1_minus", FERMION) == 0.0
        assert canonical_theta("1_minus", BOSON) == math.pi
        assert canonical_theta("1_plus", FERMION) == math.pi
        assert canonical_theta("1_plus", BOSON) == 0.0


class TestWernerFamily:
    def test_rejects_noise_outside_unit_interval(self):
        family = WernerFamily("1_minus", SpatialWave.from_l(0.8), SpatialWave.from_l(0.6),
                              FERMION)
        for p in ([math.nan], [0.2, 1.5], [-0.1], [[0.5]]):
            with pytest.raises(ValueError, match="noise probabilities"):
                family.evaluate(np.array(p))

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            WernerFamily("2_plus", SpatialWave.from_l(0.8), SpatialWave.from_l(0.6), BOSON)


class TestClosedFormBellOverlaps:
    """The stacked path's closed forms against the amplitude engine."""

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    def test_overlaps_and_norms_match_amplitude_engine(self, rng, statistics):
        n = 50
        l1, l2 = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        theta1, theta2 = rng.uniform(0, 2 * math.pi, n), rng.uniform(0, 2 * math.pi, n)
        psi1, psi2 = WaveStack.from_l(l1, theta1), WaveStack.from_l(l2, theta2)
        c, norms = _bell_overlaps(psi1, psi2, np.full(n, float(statistics.eta)))
        overlaps = c[:, :, None] * _PATTERNS
        kets = computational_kets(LR_BASIS, ("L", "R"), statistics)
        for f in range(n):
            bells = bell_states(SpatialWave.from_l(l1[f], theta1[f]),
                                SpatialWave.from_l(l2[f], theta2[f]), statistics)
            for b, name in enumerate(TARGETS):
                v = np.array([state_overlap(k, bells[name]) for k in kets])
                assert np.max(np.abs(overlaps[f, b] - v)) <= 1e-12, (f, name)
                assert abs(norms[f, b] - pure_norm_sq(bells[name])) <= 1e-12, (f, name)

    @pytest.mark.parametrize("statistics", [BOSON, FERMION])
    @pytest.mark.parametrize("target", ["1_minus", "1_plus"])
    def test_family_blocks_and_traces_match_amplitude_engine(self, rng, statistics, target):
        n = 20
        l1, l2 = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        theta = rng.uniform(0, 2 * math.pi, n)
        family = WernerFamily(target, WaveStack.from_l(l1), WaveStack.from_l(l2, theta),
                              statistics)
        kets = computational_kets(LR_BASIS, ("L", "R"), statistics)
        for f in range(n):
            bells = bell_states(SpatialWave.from_l(l1[f]), SpatialWave.from_l(l2[f], theta[f]),
                                statistics)
            vs = {name: np.array([state_overlap(k, s) for k in kets])
                  for name, s in bells.items()}
            target_block = np.outer(vs[target], vs[target].conj())
            noise_block = sum(np.outer(v, v.conj()) for v in vs.values())
            assert np.max(np.abs(family._target_block[f] - target_block)) <= 1e-12
            assert np.max(np.abs(family._noise_block[f] - noise_block)) <= 1e-12
            assert abs(family._target_trace[f] - pure_norm_sq(bells[target])) <= 1e-12
            assert abs(family._noise_trace[f]
                       - sum(pure_norm_sq(s) for s in bells.values())) <= 1e-12


class TestWernerFamilyStack:
    def test_probability_never_exceeds_one(self):
        # P_LR = 1 in closed form; the amplitude path rounds it to 1 + 2.2e-16
        psi1, psi2 = SpatialWave.from_l(0.0), SpatialWave.from_l(0.5)
        ref = project_werner(WernerSpec(0.0, "1_minus", psi1, psi2, BOSON))
        projected, _ = WernerFamily("1_minus", psi1, psi2, BOSON).evaluate(np.array([0.0]))
        assert ref.probability <= 1.0
        assert projected.probability[0] <= 1.0
        assert projected.probability[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_families, n_p", [(300, 1), (3, 200), (7, 41)])
    def test_blocks_match_single_family_evaluation(self, rng, n_families, n_p):
        l1, l2 = rng.uniform(0, 1, n_families), rng.uniform(0, 1, n_families)
        theta = rng.uniform(0, 2 * math.pi, n_families)
        targets = [("1_minus", "1_plus")[i] for i in rng.integers(2, size=n_families)]
        stats = [(BOSON, FERMION)[i] for i in rng.integers(2, size=n_families)]
        ps = rng.uniform(0, 1, n_p)
        projected, report = WernerFamily(targets, WaveStack.from_l(l1),
                                         WaveStack.from_l(l2, theta), stats).evaluate(ps)
        assert projected.matrices.shape == (n_families * n_p, 4, 4)
        for f in range(n_families):
            one, one_report = WernerFamily(targets[f], SpatialWave.from_l(l1[f]),
                                           SpatialWave.from_l(l2[f], theta[f]),
                                           stats[f]).evaluate(ps)
            rows = slice(f * n_p, (f + 1) * n_p)
            np.testing.assert_allclose(projected.matrices[rows], one.matrices, atol=1e-15)
            np.testing.assert_allclose(projected.probability[rows], one.probability,
                                       atol=1e-15)
            np.testing.assert_allclose(report.concurrence[rows], one_report.concurrence,
                                       atol=1e-15)


def _golden_min(f, a: float, b: float, tol: float = 1e-7) -> tuple[float, float]:
    """Golden-section minimum of a function on [a, b], assumed unimodal."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def grid_golden_worst_bell(family: WernerFamily, grid_points: int = 101) -> tuple[float, float]:
    """Oracle of ``WernerFamily.worst_bell`` for one family: the minimum of the
    CHSH value over a coarse grid in p, refined by golden-section search
    between the grid neighbours of the smallest grid value."""
    def bell_at(p: float) -> float:
        return float(family.evaluate(np.array([p]))[1].bell[0])

    ps = np.linspace(0.0, 1.0, grid_points)
    vals = family.evaluate(ps)[1].bell
    i = int(np.argmin(vals))
    lo, hi = float(ps[max(0, i - 1)]), float(ps[min(grid_points - 1, i + 1)])
    p_star, b_star = _golden_min(bell_at, lo, hi)
    if vals[i] < b_star:
        return float(ps[i]), float(vals[i])
    return p_star, b_star


class TestWorstBell:
    """The closed-form minimum over p against a grid plus golden-section
    search and against a dense grid."""

    DENSE = np.linspace(0.0, 1.0, 2001)

    def test_random_families_match_or_beat_both_searches(self, rng):
        n = 200
        l1, l2 = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        theta = rng.uniform(0, 2 * math.pi, n)
        targets = [("1_minus", "1_plus")[i] for i in rng.integers(2, size=n)]
        stats = [(BOSON, FERMION)[i] for i in rng.integers(2, size=n)]
        assert {*targets} == {"1_minus", "1_plus"} and {*stats} == {BOSON, FERMION}
        family = WernerFamily(targets, WaveStack.from_l(l1), WaveStack.from_l(l2, theta),
                              stats)
        with np.errstate(all="raise"):
            worst_p, worst = family.worst_bell()
        dense = family.evaluate(self.DENSE)[1].bell.reshape(n, -1).min(axis=1)
        assert worst_p.shape == worst.shape == (n,)
        assert np.all((0.0 <= worst_p) & (worst_p <= 1.0))
        assert np.all(worst <= dense + 1e-12)
        for f in range(n):
            one = WernerFamily(targets[f], SpatialWave.from_l(l1[f]),
                               SpatialWave.from_l(l2[f], theta[f]), stats[f])
            _, oracle = grid_golden_worst_bell(one)
            assert worst[f] <= oracle + 1e-12, f
            # a family alone gives what it gives inside the stack
            assert [a[0] for a in one.worst_bell()] == [worst_p[f], worst[f]]

    @pytest.mark.parametrize("case", [
        # psi1 = psi2: the fermionic triplet-type target has zero norm, so the
        # global trace vanishes at p = 0 and that row reads B = 0
        ("1_plus", SpatialWave.from_l(SQRT_HALF), SpatialWave.from_l(SQRT_HALF), FERMION),
        # both waves on L: never detected, every row reads B = 0
        ("1_minus", SpatialWave.from_l(1.0), SpatialWave.from_l(1.0), FERMION),
    ], ids=["zero-global-trace", "never-detected"])
    def test_undefined_rows_read_zero(self, case):
        family = WernerFamily(*case)
        with np.errstate(all="raise"):
            worst_p, worst = family.worst_bell()
        assert (worst_p.tolist(), worst.tolist()) == ([0.0], [0.0])
        assert grid_golden_worst_bell(family)[1] == 0.0

    def test_sharp_dip_near_zero_noise(self):
        # boson triplet-type target on the r' = l family at l = 1/sqrt(2),
        # theta just below pi: the target norm is ~1e-11, so B falls from
        # 2 sqrt(2) at p = 0 to 2 within p ~ 1e-11 and climbs back; the grid
        # plus golden-section search misses the dip
        family = WernerFamily("1_plus", SpatialWave.from_l(SQRT_HALF),
                              SpatialWave.from_l(math.sqrt(0.5), 3.14159), BOSON)
        with np.errstate(all="raise"):
            worst_p, worst = family.worst_bell()
        assert 0.0 < worst_p[0] < 1e-10
        assert worst[0] == pytest.approx(2.0, abs=1e-9)
        near_zero = np.concatenate((self.DENSE, np.logspace(-14, 0, 2001)))
        assert worst[0] <= family.evaluate(near_zero)[1].bell.min() + 1e-12
        assert grid_golden_worst_bell(family)[1] > 2.8


finite_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
families = st.lists(st.tuples(finite_unit, finite_unit,
                              st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
                              st.sampled_from([BOSON, FERMION]),
                              st.sampled_from(["1_minus", "1_plus"])),
                    min_size=1, max_size=4)


class TestWernerFamilyProperties:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(cases=families, ps=st.lists(finite_unit, min_size=1, max_size=6))
    def test_rows_are_states_and_flags_match_pointwise(self, cases, ps):
        ls, lps, thetas, stats, targets = zip(*cases)
        projected, report = WernerFamily(
            targets, WaveStack.from_l(ls), WaveStack.from_l(lps, np.array(thetas)),
            stats).evaluate(np.array(ps))
        flagged = _flagged(projected)
        for f, (l, lprime, theta, statistics, target) in enumerate(cases):
            psi1, psi2 = SpatialWave.from_l(l), SpatialWave.from_l(lprime, theta)
            for k, p in enumerate(ps, start=f * len(ps)):
                try:
                    ref = project_werner(WernerSpec(p, target, psi1, psi2, statistics))
                    expect_flag = ref.probability < FLAG_PROBABILITY
                except (ProjectionUndefinedError, ZeroTraceError):
                    expect_flag = True
                assert flagged[k] == expect_flag, f"row {k} (p={p!r})"
                if flagged[k]:
                    continue
                m = projected.matrices[k]
                assert np.max(np.abs(m - m.conj().T)) <= 1e-12
                assert abs(np.trace(m).real - 1.0) <= 1e-12
                assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
                # the C and B upper bounds carry the rounding slack of
                # check_density_stack; the probability is clipped to [0, 1]
                assert 0.0 <= report.concurrence[k] <= 1.0 + 1e-12
                assert report.bell[k] <= 2.0 * math.sqrt(2.0) + 1e-12
                assert 0.0 <= projected.probability[k] <= 1.0
