import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from islocc.amplitudes import BOSON, FERMION
from islocc.ensembles import mixed_trace, pure_norm_sq, state_overlap
from islocc.entanglement import analyze, concurrence
from islocc.slocc import (ProjectionUndefinedError, ZeroTraceError, computational_kets,
                          normalize_block, project)
from islocc.sweeps import (FLAG_PROBABILITY, GridSpec, SweepConfig, _flagged,
                           find_threshold, run_sweep)
from islocc.states import DOWN, UP, ModeBasis, SingleParticleState, SpatialWave
from islocc.werner import (LR_BASIS, TARGETS, KrausSet, WaveStack, WernerFamily,
                           WernerSpec, _bell_overlaps, _check_rows, bell_states,
                           canonical_theta,
                           closed_form_concurrence_minus,
                           closed_form_concurrence_plus,
                           closed_form_probability_minus,
                           closed_form_probability_plus,
                           depolarize_then_deform, depolarizing_kraus,
                           project_werner, spec_from_l, werner_direct)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def x_block(u, v, x, y) -> np.ndarray:
    """The real X-shaped 4x4 block with diagonal (u, v, v, u) and
    anti-diagonal entries x = m03 = m30, y = m12 = m21."""
    return np.array([[u, 0, 0, x], [0, v, y, 0], [0, y, v, 0], [x, 0, 0, u]], dtype=float)


#: Spin patterns of the four Bell states' overlaps with the detection kets
#: |L s, R s'> (TARGETS order; spins up-up, up-down, down-up, down-down),
#: and the sign s_b of the exchange term in each Bell state's norm.
PATTERNS = np.array([[0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]], dtype=float)
NORM_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])


def bell_table(psi1, psi2, eta):
    """Every Bell state's overlap amplitude c_b (its overlaps with the
    detection kets are c_b PATTERNS[b]) and the double-occupancy part
    (1 + eta s_b) S of its norm, both (n, 4) in TARGETS order, from the
    closed forms of ``_bell_overlaps``."""
    a, b, same_region = _bell_overlaps(psi1, psi2, eta)
    double = (1.0 + NORM_SIGNS * eta[:, None]) * same_region[:, None]
    return np.stack([a, b, a, a], axis=-1), double


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
        c, double = bell_table(psi1, psi2, np.full(n, float(statistics.eta)))
        overlaps = c[:, :, None] * PATTERNS
        norms = 2.0 * np.abs(c) ** 2 + double  # one per region + both in one region
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
            # the target's W u and both W x are 0: the full blocks, rho00
            # and rho03 included, are built from the kept entries
            tv, ty = (entry[f] for entry in family._target)
            nu, nv, ny = (entry[f] for entry in family._noise)
            target_x, noise_x = x_block(0.0, tv, 0.0, ty), x_block(nu, nv, 0.0, ny)
            assert np.max(np.abs(target_x - target_block)) <= 1e-12
            assert np.max(np.abs(noise_x - noise_block)) <= 1e-12
            assert abs(np.trace(target_x) + family._target_double[f]
                       - pure_norm_sq(bells[target])) <= 1e-12
            assert abs(np.trace(noise_x) + family._noise_double[f]
                       - sum(pure_norm_sq(s) for s in bells.values())) <= 1e-12


class TestWernerFamilyStack:
    def test_probability_never_exceeds_one(self):
        # P_LR = 1 in closed form; the amplitude path rounds it to 1 + 2.2e-16
        psi1, psi2 = SpatialWave.from_l(0.0), SpatialWave.from_l(0.5)
        ref = project_werner(WernerSpec(0.0, "1_minus", psi1, psi2, BOSON))
        rows = WernerFamily("1_minus", psi1, psi2, BOSON).evaluate(np.array([0.0]))
        assert ref.probability <= 1.0
        assert rows.probability[0] <= 1.0
        assert rows.probability[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_families, n_p", [(300, 1), (3, 200), (7, 41)])
    def test_blocks_match_single_family_evaluation(self, rng, n_families, n_p):
        l1, l2 = rng.uniform(0, 1, n_families), rng.uniform(0, 1, n_families)
        theta = rng.uniform(0, 2 * math.pi, n_families)
        targets = [("1_minus", "1_plus")[i] for i in rng.integers(2, size=n_families)]
        stats = [(BOSON, FERMION)[i] for i in rng.integers(2, size=n_families)]
        ps = rng.uniform(0, 1, n_p)
        stacked = WernerFamily(targets, WaveStack.from_l(l1),
                               WaveStack.from_l(l2, theta), stats).evaluate(ps)
        matrices = stacked.matrices()
        assert matrices.shape == (n_families * n_p, 4, 4)
        for f in range(n_families):
            one = WernerFamily(targets[f], SpatialWave.from_l(l1[f]),
                               SpatialWave.from_l(l2[f], theta[f]), stats[f]).evaluate(ps)
            rows = slice(f * n_p, (f + 1) * n_p)
            np.testing.assert_allclose(matrices[rows], one.matrices(), atol=1e-15)
            np.testing.assert_allclose(stacked.probability[rows], one.probability,
                                       atol=1e-15)
            np.testing.assert_allclose(stacked.concurrence[rows], one.concurrence,
                                       atol=1e-15)


def eigen_oracle(targets, l1, l2, theta, stats, ps):
    """The rows of ``WernerFamily.evaluate`` through 4x4 blocks: raw
    projected blocks (1-p) v_t v_t^+ + (p/4) sum_b v_b v_b^+ from the closed
    overlaps v_b = c_b P_b, global traces (1-p) T_t + (p/4) sum_b T_b from
    the closed norms, then ``normalize_block`` and ``analyze`` row by row.
    Rows that raise read 0 in every field, as in ``XStateRows``."""
    eta = np.array([s.eta for s in stats], dtype=float)
    c, double = bell_table(WaveStack.from_l(l1), WaveStack.from_l(l2, theta), eta)
    v = c[:, :, None] * PATTERNS                       # (n, 4 Bell, 4 kets)
    blocks = v[:, :, :, None] * v[:, :, None, :].conj()
    norms = 2.0 * np.abs(c) ** 2 + double
    t = np.array([TARGETS.index(name) for name in targets])
    f = np.arange(len(t))
    keep, noise = (1.0 - ps)[None, :], (ps / 4.0)[None, :]
    raw = (keep[..., None, None] * blocks[f, t][:, None]
           + noise[..., None, None] * blocks.sum(axis=1)[:, None]).reshape(-1, 4, 4)
    global_trace = (keep * norms[f, t][:, None] + noise * norms.sum(axis=1)[:, None]).ravel()
    n = len(raw)
    oracle = SimpleNamespace(zero_trace=np.zeros(n, bool), undefined=np.zeros(n, bool),
                             matrices=np.zeros((n, 4, 4), complex), probability=np.zeros(n),
                             concurrence=np.zeros(n), eof=np.zeros(n), bell=np.zeros(n),
                             lambdas=np.zeros((n, 4)))
    for k in range(n):
        try:
            projected = normalize_block(raw[k], float(global_trace[k]), ("L", "R"))
        except ZeroTraceError:
            oracle.zero_trace[k] = True
            continue
        except ProjectionUndefinedError:
            oracle.undefined[k] = True
            continue
        report = analyze(projected)
        oracle.matrices[k], oracle.probability[k] = projected.matrix, projected.probability
        oracle.concurrence[k], oracle.eof[k], oracle.bell[k] = \
            report.concurrence, report.eof, report.bell
        oracle.lambdas[k] = report.lambdas
    return oracle


class TestXStateRows:
    """The closed-form X-state rows against the eigen-solver path."""

    #: psi1 = psi2 (zero-norm targets), both waves on L (never detected) and
    #: both on R, each for every target and statistics; then the r' = l
    #: family at l = 0.7071, whose singlet norm is ~1e-8 for bosons at
    #: theta = 0 (detection probability 1 at p = 0): (l, l', theta, targets,
    #: statistics)
    SPECIAL = ((0.6, 0.6, 0.0, ("1_minus", "1_plus"), (BOSON, FERMION)),
               (1.0, 1.0, 0.0, ("1_minus", "1_plus"), (BOSON, FERMION)),
               (0.0, 0.0, 0.0, ("1_minus", "1_plus"), (BOSON, FERMION)),
               (0.7071, math.sqrt(1 - 0.7071 ** 2), 0.0, ("1_minus",), (BOSON, FERMION)))

    def cases(self, rng, n=300):
        """Random families of mixed target, statistics and theta (half of
        them at theta = 0, pi or 2 pi), then the ``SPECIAL`` ones."""
        theta = np.where(rng.integers(2, size=n), rng.choice([0.0, math.pi, 2 * math.pi], n),
                         rng.uniform(0, 2 * math.pi, n))
        families = list(zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n), theta,
                            rng.choice(["1_minus", "1_plus"], n).tolist(),
                            [(BOSON, FERMION)[i] for i in rng.integers(2, size=n)]))
        families += [(l, lp, th, target, statistics) for l, lp, th, targets, stats in self.SPECIAL
                     for target in targets for statistics in stats]
        l1, l2, theta, targets, stats = zip(*families)
        return list(targets), np.array(l1), np.array(l2), np.array(theta), list(stats)

    def test_rows_match_eigen_oracle(self, rng):
        targets, l1, l2, theta, stats = self.cases(rng)
        ps = np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 5)))
        with np.errstate(all="raise"):
            rows = WernerFamily(targets, WaveStack.from_l(l1), WaveStack.from_l(l2, theta),
                                stats).evaluate(ps)
            oracle = eigen_oracle(targets, l1, l2, theta, stats, ps)
        assert rows.zero_trace.any() and rows.undefined.any() and rows.defined.any()
        np.testing.assert_array_equal(rows.zero_trace, oracle.zero_trace)
        np.testing.assert_array_equal(rows.undefined, oracle.undefined)
        matrices = rows.matrices()
        assert np.max(np.abs(matrices - oracle.matrices)) <= 1e-12
        assert np.max(np.abs(rows.probability - oracle.probability)) <= 1e-12
        assert np.max(np.abs(rows.concurrence - oracle.concurrence)) <= 1e-9
        assert np.max(np.abs(rows.eof - oracle.eof)) <= 1e-9
        assert np.max(np.abs(rows.bell - oracle.bell)) <= 1e-12
        # the PSD test reads the eigenvalues u, u, v +- y directly
        smallest = np.minimum(rows.u, rows.v - np.abs(rows.y))
        np.testing.assert_allclose(smallest, np.linalg.eigvalsh(matrices)[:, 0], atol=1e-15)
        assert np.all(rows.probability <= 1.0)

    @pytest.mark.parametrize("statistics, theta", [(FERMION, 0.0), (BOSON, math.pi)])
    def test_near_pure_rows_match_the_wootters_spectrum(self, statistics, theta):
        # triplet-type target on the r' = l family at l = 0.7071: the rows are
        # nearly pure, rho00 ~ 1e-10, so two eigenvalues of rho rho~ are
        # ~1e-20.  The eigen solver gets every eigenvalue to ~4e-16, but the
        # square roots in C = sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4) turn
        # that into ~4e-9 in the oracle's C; the X rows give the spectrum
        # u^2, u^2, (v +- |y|)^2 and C = 2 max(0, |y| - u) directly
        ps = np.linspace(0.0, 1.0, 11)
        lp = math.sqrt(1 - 0.7071 ** 2)
        rows = WernerFamily("1_plus", SpatialWave.from_l(0.7071),
                            SpatialWave.from_l(lp, theta), statistics).evaluate(ps)
        oracle = eigen_oracle(["1_plus"], np.array([0.7071]), np.array([lp]),
                              np.array([theta]), [statistics], ps)
        spectrum = np.stack([rows.u ** 2, rows.u ** 2,
                             (rows.v + np.abs(rows.y)) ** 2, (rows.v - np.abs(rows.y)) ** 2], 1)
        assert np.min(rows.u[1:]) < 1e-9
        assert np.max(np.abs(-np.sort(-spectrum, axis=1) - oracle.lambdas)) <= 1e-15
        roots = np.sqrt(-np.sort(-spectrum, axis=1))
        np.testing.assert_allclose(
            rows.concurrence, np.clip(roots[:, 0] - roots[:, 1:].sum(axis=1), 0.0, 1.0),
            rtol=0, atol=1e-15)

    def test_cancelling_singlet_norm_detects_with_probability_one(self):
        # the boson singlet norm 1 - |<psi1|psi2>|^2 is ~1e-8 here: taken
        # from the overlap it rounds apart from the detection weight
        # (P_LR = 1.00000061 before); split by detection sector it is exact
        family = WernerFamily("1_minus", SpatialWave.from_l(0.7071),
                              SpatialWave.from_l(math.sqrt(1 - 0.7071 ** 2)), BOSON)
        with np.errstate(all="raise"):
            rows = family.evaluate(np.array([0.0, 0.5, 1.0]))
        assert rows.probability[0] == 1.0
        assert rows.concurrence[0] == pytest.approx(1.0, abs=1e-12)
        assert rows.bell[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert np.all((rows.probability > 0.0) & (rows.probability <= 1.0))

    def test_fields_are_one_dimensional(self, rng):
        targets, l1, l2, theta, stats = self.cases(rng, n=10)
        rows = WernerFamily(targets, WaveStack.from_l(l1), WaveStack.from_l(l2, theta),
                            stats).evaluate(np.linspace(0, 1, 7))
        assert {getattr(rows, f.name).shape for f in dataclasses.fields(rows)} \
            == {(len(l1) * 7,)}

    @pytest.mark.parametrize("row, match", [
        ((0.3, 0.3, 0.0, 0.5), "trace"),
        ((-0.1, 0.6, 0.0, 0.5), "negative eigenvalue"),
        ((0.1, 0.4, -0.45, 0.5), "negative eigenvalue"),
        ((math.nan, 0.5, 0.0, 0.5), "trace"),
        ((0.25, 0.25, math.nan, 0.5), "negative eigenvalue"),
        ((0.25, 0.25, 0.0, 1.0 + 2.3e-16), "probability"),
        ((0.25, 0.25, 0.0, -1e-300), "probability"),
        ((0.25, 0.25, 0.0, math.nan), "probability"),
    ])
    def test_row_checks_reject_non_states(self, row, match):
        u, v, y, probability = (np.array([value, 0.0]) for value in row)
        with pytest.raises(ValueError, match=match):
            _check_rows(np.array([True, False]), u, v, y, probability)
        # rows outside the mask (zeroed: zero trace or undefined) are not checked
        _check_rows(np.array([False, False]), u, v, y, probability)

    def test_production_path_calls_no_eigen_solver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the production path reached an eigen solver or 4x4 stack")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for name in ("islocc.slocc.project", "islocc.slocc.normalize_block",
                     "islocc.slocc.check_density_matrix", "islocc.entanglement.analyze",
                     "islocc.werner.project_werner"):
            monkeypatch.setattr(name, forbidden)
        config = SweepConfig(statistics=FERMION, target="1_minus",
                             indist_grid=GridSpec(0, 1, 41), p_grid=GridSpec(0, 1, 41))
        with np.errstate(all="raise"):
            assert len(run_sweep(config)) == 41 * 41
            for statistics, target in ((FERMION, "1_minus"), (BOSON, "1_plus")):
                find_threshold(SweepConfig(statistics=statistics, target=target))


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
        return float(family.evaluate(np.array([p])).bell[0])

    ps = np.linspace(0.0, 1.0, grid_points)
    vals = family.evaluate(ps).bell
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

    def test_random_families_match_or_beat_both_searches(self, rng, monkeypatch):
        n = 200
        l1, l2 = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        theta = rng.uniform(0, 2 * math.pi, n)
        targets = [("1_minus", "1_plus")[i] for i in rng.integers(2, size=n)]
        stats = [(BOSON, FERMION)[i] for i in rng.integers(2, size=n)]
        assert {*targets} == {"1_minus", "1_plus"} and {*stats} == {BOSON, FERMION}
        family = WernerFamily(targets, WaveStack.from_l(l1), WaveStack.from_l(l2, theta),
                              stats)
        evaluate, levels = WernerFamily._evaluate, []

        def counting(self, p):
            levels.append(p.shape)
            return evaluate(self, p)

        with monkeypatch.context() as patch, np.errstate(all="raise"):
            patch.setattr(WernerFamily, "_evaluate", counting)
            worst_p, worst = family.worst_bell()
        # one pass over p = 0, p = 1, the root of y and the foot of the
        # perpendicular for every family
        assert levels == [(n, 4)]
        dense = family.evaluate(self.DENSE).bell.reshape(n, -1).min(axis=1)
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
        assert worst[0] <= family.evaluate(near_zero).bell.min() + 1e-12
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
        rows = WernerFamily(
            targets, WaveStack.from_l(ls), WaveStack.from_l(lps, np.array(thetas)),
            stats).evaluate(np.array(ps))
        flagged, matrices = _flagged(rows), rows.matrices()
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
                m = matrices[k]
                assert np.max(np.abs(m - m.conj().T)) <= 1e-12
                assert abs(np.trace(m).real - 1.0) <= 1e-12
                assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
                # the C and B upper bounds carry the rounding slack of the
                # row checks; the probability is at most 1 by construction
                assert 0.0 <= rows.concurrence[k] <= 1.0 + 1e-12
                assert rows.bell[k] <= 2.0 * math.sqrt(2.0) + 1e-12
                assert 0.0 <= rows.probability[k] <= 1.0


#: Noise levels and l values: the ends, 1/sqrt(2) and 0.7071, or anywhere.
levels = st.one_of(st.sampled_from([0.0, 1.0, SQRT_HALF, 0.7071]), finite_unit)
phases = st.one_of(st.sampled_from([0.0, math.pi, 2 * math.pi]),
                   st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))


class TestPointOracleProperties:
    """``project_werner`` followed by ``analyze``, the per-point oracle of
    the sweep rows, at any input."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(l=levels, lprime=levels, theta=phases, p=levels,
           statistics=st.sampled_from([BOSON, FERMION]),
           target=st.sampled_from(["1_minus", "1_plus"]))
    @example(l=1.0, lprime=1.0, theta=0.0, p=0.5, statistics=BOSON, target="1_minus")
    @example(l=0.6, lprime=0.6, theta=0.0, p=0.0, statistics=FERMION, target="1_plus")
    # nearly equal boson waves: a global trace from the cancelling norm
    # 1 - |<psi1|psi2>|^2 gave P_LR = 1 + 3.7e-12 here
    @example(l=0.796875, lprime=0.79296875, theta=0.0, p=0.0, statistics=BOSON,
             target="1_minus")
    def test_defined_points_are_states_with_bounded_diagnostics(
            self, l, lprime, theta, p, statistics, target):
        spec = WernerSpec(p, target, SpatialWave.from_l(l), SpatialWave.from_l(lprime, theta),
                          statistics)
        try:
            projected = project_werner(spec)
        except (ZeroTraceError, ProjectionUndefinedError):
            return  # the only two ways a point may be undefined
        m = projected.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
        assert 0.0 <= projected.probability <= 1.0
        report = analyze(projected)
        assert 0.0 <= report.concurrence <= 1.0
        assert 0.0 <= report.eof <= 1.0
        assert report.bell <= 2.0 * math.sqrt(2.0) + 1e-12
