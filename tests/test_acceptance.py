"""Acceptance suite: one test per release criterion, each printing a pass line
with the measured figure (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math

import numpy as np
import pytest

from islocc import verify
from islocc.amplitudes import BOSON, FERMION, ElementaryKet, amplitude_permsum
from islocc.entanglement import analyze
from islocc.indistinguishability import degree_n, degree_two
from islocc.slocc import ProjectionUndefinedError, ZeroTraceError, project
from islocc.states import UP, ModeBasis, SingleParticleState, SpatialWave, make_peaked
from islocc.verify import random_single_particle
from islocc.werner import project_werner, spec_from_l, werner_direct

SQRT_HALF = 1.0 / math.sqrt(2.0)
LR = ModeBasis(("L", "R"))


def _report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def _run_suite(suite, seed, calls):
    """Run a verify suite ``calls`` times on one seeded generator (each call
    draws fresh cases); returns the summary line of each call."""
    rng = np.random.default_rng(seed)
    return [suite(rng) for _ in range(calls)]


def test_criterion_1_noise_free_preparation():
    worst = 0.0
    for l in (0.6, SQRT_HALF, 0.85):
        for p in np.linspace(0.0, 1.0, 11):
            for stats in (FERMION, BOSON):
                spec = spec_from_l(float(p), "1_minus", l, l, stats)
                worst = max(worst, abs(analyze(project_werner(spec)).concurrence - 1.0))
    assert worst <= 1e-9
    _report(1, f"singlet target at full indistinguishability stays maximally "
               f"entangled for every noise level, worst |C - 1| = {worst:.2e}")


def test_criterion_2_detection_probabilities():
    p_values = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst_f = worst_b = 0.0
    for l in np.linspace(0.05, 0.95, 20):
        l = float(l)
        fermion_values = []
        for p in p_values:
            spec_f = spec_from_l(p, "1_minus", l, l, FERMION)
            got_f = project(werner_direct(spec_f), ("L", "R")).probability
            fermion_values.append(got_f)
            worst_f = max(worst_f, abs(got_f - 2 * l * l * (1 - l * l)))
            spec_b = spec_from_l(p, "1_minus", l, l, BOSON)
            got_b = project(werner_direct(spec_b), ("L", "R")).probability
            expected_b = (2 * l * l * (1 - l * l) * (4 - 3 * p)
                          / (2 - (1 - 2 * l * l) ** 2 * (2 - 3 * p)))
            worst_b = max(worst_b, abs(got_b - expected_b))
        assert max(fermion_values) - min(fermion_values) <= 1e-12  # p-independent
    assert worst_f <= 1e-9 and worst_b <= 1e-9
    # maxima at l^2 = 1/2
    for p in p_values:
        spec_f = spec_from_l(p, "1_minus", SQRT_HALF, SQRT_HALF, FERMION)
        assert project(werner_direct(spec_f), ("L", "R")).probability == \
            pytest.approx(0.5, abs=1e-9)
        spec_b = spec_from_l(p, "1_minus", SQRT_HALF, SQRT_HALF, BOSON)
        assert project(werner_direct(spec_b), ("L", "R")).probability == \
            pytest.approx(1 - 0.75 * p, abs=1e-9)
    _report(2, f"detection probabilities match the closed expressions "
               f"(fermions p-independent), worst diffs {worst_f:.2e} / {worst_b:.2e}")


def test_criterion_3_triplet_target_closed_form():
    worst = 0.0
    for stats in (FERMION, BOSON):
        for l in (0.6, SQRT_HALF, 0.8):
            for p in np.linspace(0.0, 1.0, 50):
                spec = spec_from_l(float(p), "1_plus", l, l, stats)
                expected = max(0.0, (4 - 5 * p) / (4 - p))
                worst = max(worst, abs(analyze(project_werner(spec)).concurrence - expected))
    assert worst <= 1e-9
    _report(3, f"triplet target at full indistinguishability follows "
               f"(4-5p)/(4-p) with cutoff at p = 4/5, worst diff = {worst:.2e}")


def test_criterion_4_distinguishable_limit():
    worst = 0.0
    for target in ("1_minus", "1_plus"):
        for stats in (FERMION, BOSON):
            for p in np.linspace(0.0, 1.0, 21):
                spec = spec_from_l(float(p), target, 1.0, 0.0, stats)
                expected = max(0.0, 1 - 1.5 * p)
                worst = max(worst, abs(analyze(project_werner(spec)).concurrence - expected))
    assert worst <= 1e-9
    _report(4, f"fully distinguishable pair reproduces the standard noisy-qubit "
               f"concurrence 1 - 3p/2, worst diff = {worst:.2e}")


def test_criterion_5_closed_forms_vs_pipeline():
    # 120 accepted (tuple, target) cases per call, concurrence and
    # probability each within 1e-9
    details = _run_suite(verify.suite_closed_forms, 505, calls=5)
    _report(5, "; ".join(details))


def test_criterion_6_channel_model_equivalence():
    # 40 random runs per call (20 per statistics), matrices and
    # probabilities within 1e-10
    details = _run_suite(verify.suite_channel_equivalence, 606, calls=5)
    _report(6, "; ".join(details))


def test_criterion_7_bell_thresholds():
    # the all-noise threshold in [0.75, 0.77] and the violation boundaries
    # 0.292 (distinguishable) and 0.363 (triplet target, both statistics)
    # within 2e-3
    (detail,) = _run_suite(verify.suite_violation_thresholds, 707, calls=1)
    _report(7, detail)


def test_criterion_8_indistinguishability_bounds():
    def peaked(l, theta=0.0):
        return make_peaked(SpatialWave.from_l(l, theta), UP, LR)

    for l in (0.55, SQRT_HALF, 0.8, 0.95):
        assert degree_two(peaked(l), peaked(l)).entropy == 1.0
    assert degree_two(peaked(1.0), peaked(0.0)).entropy == 0.0

    basis3 = ModeBasis(("R1", "R2", "R3"))
    amp = 1.0 / math.sqrt(3.0)
    uniform = [SingleParticleState(basis3, {(m, UP): amp for m in basis3.labels})
               for _ in range(3)]
    entropy3 = degree_n(uniform, basis3.labels).entropy
    assert abs(entropy3 - math.log2(6)) <= 1e-12
    _report(8, f"degree of indistinguishability hits 1 and 0 exactly at the "
               f"extremes; three uniformly spread particles give "
               f"{entropy3:.12f} = log2(3!)")


def test_criterion_9_amplitude_engine_cross_validation():
    # 250 instances per call (n = 2..6, 25 each, both statistics), within 1e-10
    details = _run_suite(verify.suite_amplitude_cross_validation, 909, calls=4)

    rng = np.random.default_rng(909)
    basis = ModeBasis(("A", "B", "C"))
    worst_exchange = 0.0
    for stats in (BOSON, FERMION):
        for n in (2, 3, 4):
            for _ in range(50):
                particles = [random_single_particle(rng, basis) for _ in range(n)]
                bra = ElementaryKet(tuple(random_single_particle(rng, basis)
                                          for _ in range(n)), stats)
                swapped = list(particles)
                swapped[0], swapped[-1] = swapped[-1], swapped[0]
                direct = amplitude_permsum(bra, ElementaryKet(tuple(particles), stats))
                exchanged = amplitude_permsum(bra, ElementaryKet(tuple(swapped), stats))
                expected = -direct if stats is FERMION else direct
                worst_exchange = max(worst_exchange, abs(exchanged - expected))
    assert worst_exchange <= 1e-14
    _report(9, f"permutation sum vs permanent/determinant on 1000 random "
               f"instances ({'; '.join(details)}); exchange (anti)symmetry "
               f"exact to {worst_exchange:.1e}")


def test_criterion_10_property_suite():
    # 50 draws per call: Hermitian and unit trace within 1e-12, PSD within
    # 1e-10, probability in [0, 1]
    projection = _run_suite(verify.suite_projection_properties, 1010, calls=6)
    # 200 singlet-target draws per call, X-state CHSH vs Horodecki within 1e-9
    bell = _run_suite(verify.suite_bell_fast_path, 1011, calls=5)

    worst_switch = 0.0
    for target in ("1_minus", "1_plus"):
        for l in np.linspace(SQRT_HALF, 0.999, 12):
            lprime = math.sqrt(1 - float(l) ** 2)
            for theta in (0.0, 0.7, math.pi):
                for p in np.linspace(0.0, 1.0, 6):
                    try:
                        c_f = analyze(project_werner(
                            spec_from_l(float(p), target, float(l), lprime,
                                        FERMION, theta))).concurrence
                        c_b = analyze(project_werner(
                            spec_from_l(float(p), target, float(l), lprime, BOSON,
                                        theta + math.pi))).concurrence
                    except (ProjectionUndefinedError, ZeroTraceError):
                        continue  # degenerate point: no detectable state
                    worst_switch = max(worst_switch, abs(c_f - c_b))
    assert worst_switch <= 1e-10
    _report(10, f"{projection[-1]} (300 draws); {bell[-1]} (1000 draws); "
                f"statistics-phase switch identity (worst {worst_switch:.2e})")
