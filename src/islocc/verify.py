"""Self-verification: numerical identity suites on seeded randomness.

Each suite checks one identity between two independent computations of the
same quantity on cases drawn from the generator it is given, returns a
one-line summary of the worst deviation and raises ``AssertionError`` past
its tolerance.  The amplitude and eigen path
(:func:`~islocc.werner.project_werner`, :func:`~islocc.slocc.project`,
:func:`~islocc.entanglement.analyze`) is the oracle here of the closed-form
rows of :mod:`islocc.xstate` that the sweeps use.  :func:`run_verify` runs
every suite on a fresh generator of one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import werner as werner_mod
from .amplitudes import BOSON, FERMION, ElementaryKet, amplitude_fast, amplitude_permsum
from .entanglement import analyze, bell_horodecki, bell_xstate
from .ensembles import mixed_trace, pure_norm_sq
from .slocc import ProjectionUndefinedError, ZeroTraceError, project
from .states import ModeBasis, SingleParticleState, SpatialWave
from .sweeps import FLAG_PROBABILITY, ConfigError, SweepConfig, _flagged, find_threshold
from .werner import (WernerSpec, bell_states, depolarize_then_deform, project_werner,
                     spec_from_l, werner_direct)
from .xstate import _SQRT_HALF, WernerFamily, XStateRows

__all__ = [
    "SuiteResult",
    "VerifyReport",
    "SUITES",
    "run_verify",
    "random_single_particle",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.suites)

    def summary_lines(self) -> list[str]:
        lines = [f"[{'PASS' if s.passed else 'FAIL'}] {s.name}: {s.detail}"
                 for s in self.suites]
        passed = sum(1 for s in self.suites if s.passed)
        lines.append(f"{passed}/{len(self.suites)} suites passed")
        return lines


def _require(condition, message: str) -> None:
    """Fail the suite with ``message`` unless ``condition`` holds.  Unlike
    ``assert`` this is not stripped by ``python -O``; write the condition so
    that NaN fails it (``worst < tol``, not ``not worst >= tol``)."""
    if not condition:
        raise AssertionError(message)


def _worst(*deviations) -> float:
    """The largest of ``deviations``, NaN if any is NaN (``max`` skips NaN
    when it comes second)."""
    return float(np.max(deviations))


def x_state_matrices(rows: XStateRows) -> np.ndarray:
    """The rows as an (n, 4, 4) stack of complex density matrices, rho03 = 0."""
    m = np.zeros((len(rows.u), 4, 4), dtype=complex)
    m[:, 0, 0] = m[:, 3, 3] = rows.u
    m[:, 1, 1] = m[:, 2, 2] = rows.v
    m[:, 1, 2] = m[:, 2, 1] = rows.y
    return m


def random_single_particle(rng: np.random.Generator, basis: ModeBasis) -> SingleParticleState:
    """Random normalized state spread over every (mode, spin) slot of the basis."""
    parts = rng.standard_normal((2 * len(basis), 2))  # (real, imaginary) per slot
    vector = parts[:, 0] + 1j * parts[:, 1]
    return SingleParticleState(basis, vector / np.linalg.norm(vector))


def suite_amplitude_cross_validation(rng: np.random.Generator) -> str:
    basis = ModeBasis(("A", "B", "C"))
    worst = 0.0
    for statistics in (BOSON, FERMION):
        for n in range(2, 7):
            for _ in range(25):
                bra = ElementaryKet(tuple(random_single_particle(rng, basis)
                                          for _ in range(n)), statistics)
                ket = ElementaryKet(tuple(random_single_particle(rng, basis)
                                          for _ in range(n)), statistics)
                worst = _worst(worst, abs(amplitude_fast(bra, ket) - amplitude_permsum(bra, ket)))
    _require(worst < 1e-10, f"permutation sum and fast path disagree by {worst:.3e}")
    return f"naive permutation sum vs permanent/determinant, worst |diff| = {worst:.2e}"


def suite_bell_state_norms(rng: np.random.Generator) -> str:
    worst = 0.0
    for _ in range(100):
        l, lp = rng.uniform(0, 1), rng.uniform(0, 1)
        theta = rng.uniform(0, 2 * math.pi)
        stats = BOSON if rng.integers(2) else FERMION
        psi1, psi2 = SpatialWave.from_l(l), SpatialWave.from_l(lp, theta)
        overlap_sq = abs(l * lp + math.sqrt(1 - l * l) * math.sqrt(1 - lp * lp)
                         * np.exp(1j * theta)) ** 2
        bells = bell_states(psi1, psi2, stats)
        eta = stats.eta
        expected = {"1_minus": 1 - eta * overlap_sq, "1_plus": 1 + eta * overlap_sq,
                    "2_plus": 1 + eta * overlap_sq, "2_minus": 1 + eta * overlap_sq}
        for name, state in bells.items():
            worst = _worst(worst, abs(pure_norm_sq(state) - expected[name]))
    _require(worst < 1e-12, f"Bell-state norms off closed form by {worst:.3e}")
    return f"Bell-state squared norms vs closed constants, worst |diff| = {worst:.2e}"


def suite_global_trace(rng: np.random.Generator) -> str:
    worst = 0.0
    for _ in range(100):
        l, lp = rng.uniform(0, 1), rng.uniform(0, 1)
        theta = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0, 1)
        stats = BOSON if rng.integers(2) else FERMION
        target = "1_minus" if rng.integers(2) else "1_plus"
        spec = spec_from_l(p, target, l, lp, stats, theta)
        overlap_sq = abs(l * lp + math.sqrt(1 - l * l) * math.sqrt(1 - lp * lp)
                         * np.exp(1j * theta)) ** 2
        sign = -1.0 if target == "1_minus" else 1.0
        expected = 1 + stats.eta * overlap_sq * (p / 2 + sign * (1 - p))
        worst = _worst(worst, abs(mixed_trace(werner_direct(spec)) - expected))
    _require(worst < 1e-10, f"global trace off closed form by {worst:.3e}")
    return f"ensemble trace vs closed normalization constant, worst |diff| = {worst:.2e}"


def suite_closed_forms(rng: np.random.Generator) -> str:
    worst_c = worst_p = 0.0
    checked = 0
    while checked < 120:
        l, lp = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        p = rng.uniform(0, 1)
        stats = BOSON if rng.integers(2) else FERMION
        r, rp = math.sqrt(1 - l * l), math.sqrt(1 - lp * lp)
        for target in ("1_minus", "1_plus"):
            if target == "1_minus":
                c_ref = werner_mod.closed_form_concurrence_minus(l, r, lp, rp, p)
                p_ref = werner_mod.closed_form_probability_minus(l, r, lp, rp, p, stats)
            else:
                c_ref = werner_mod.closed_form_concurrence_plus(l, r, lp, rp, p)
                p_ref = werner_mod.closed_form_probability_plus(l, r, lp, rp, p, stats)
            if p_ref <= 1e-6:
                continue
            projected = project_werner(spec_from_l(p, target, l, lp, stats))
            worst_c = _worst(worst_c, abs(analyze(projected).concurrence - c_ref))
            worst_p = _worst(worst_p, abs(projected.probability - p_ref))
            checked += 1
    _require(worst_c < 1e-9 and worst_p < 1e-9,
             f"closed forms vs pipeline: concurrence {worst_c:.3e}, probability {worst_p:.3e}")
    return (f"closed forms vs numeric pipeline on {checked} cases, "
            f"worst concurrence diff {worst_c:.2e}, probability diff {worst_p:.2e}")


def suite_channel_equivalence(rng: np.random.Generator) -> str:
    worst = 0.0
    for stats in (BOSON, FERMION):
        for _ in range(20):
            l, lp = rng.uniform(0.1, 0.95), rng.uniform(0.1, 0.95)
            theta = rng.uniform(0, 2 * math.pi)
            p = rng.uniform(0, 1)
            target = "1_minus" if rng.integers(2) else "1_plus"
            psi1, psi2 = SpatialWave.from_l(l), SpatialWave.from_l(lp, theta)
            direct = project(werner_direct(WernerSpec(p, target, psi1, psi2, stats)), ("L", "R"))
            channel = project(depolarize_then_deform(p, target, psi1, psi2, stats), ("L", "R"))
            worst = _worst(worst, float(np.max(np.abs(direct.matrix - channel.matrix))),
                        abs(direct.probability - channel.probability))
    _require(worst < 1e-10, f"channel and direct constructions disagree by {worst:.3e}")
    return f"depolarize-then-deform vs direct mixture after projection, worst |diff| = {worst:.2e}"


def suite_projection_properties(rng: np.random.Generator) -> str:
    worst_herm = worst_trace = worst_neg = 0.0
    for _ in range(50):
        l, lp = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        theta = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0, 1)
        stats = BOSON if rng.integers(2) else FERMION
        target = "1_minus" if rng.integers(2) else "1_plus"
        spec = spec_from_l(p, target, l, lp, stats, theta)
        try:
            projected = project_werner(spec)
        except ProjectionUndefinedError:
            continue
        m = projected.matrix
        worst_herm = _worst(worst_herm, float(np.max(np.abs(m - m.conj().T))))
        worst_trace = _worst(worst_trace, abs(float(np.trace(m).real) - 1.0))
        worst_neg = _worst(worst_neg, 0.0, -float(np.min(np.linalg.eigvalsh(m))))
        _require(0.0 <= projected.probability <= 1.0 + 1e-12,
                 f"detection probability {projected.probability!r} outside [0, 1]")
    _require(worst_herm < 1e-12 and worst_trace < 1e-12 and worst_neg < 1e-10,
             f"projected matrices: Hermiticity {worst_herm:.3e}, trace {worst_trace:.3e}, "
             f"negative eigenvalue {worst_neg:.3e}")
    return (f"projected matrices Hermitian ({worst_herm:.1e}), unit trace "
            f"({worst_trace:.1e}), PSD (worst negative {worst_neg:.1e})")


def suite_bell_fast_path(rng: np.random.Generator) -> str:
    worst = 0.0
    for _ in range(200):
        l, lp = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        theta = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0, 1)
        stats = BOSON if rng.integers(2) else FERMION
        spec = spec_from_l(p, "1_minus", l, lp, stats, theta)
        try:
            projected = project_werner(spec)
        except ProjectionUndefinedError:
            continue
        worst = _worst(worst, abs(bell_xstate(projected).bell - bell_horodecki(projected)))
    _require(worst < 1e-9, f"X-state fast path departs from the general criterion by {worst:.3e}")
    return f"X-state CHSH vs unrestricted criterion (singlet target), worst |diff| = {worst:.2e}"


def suite_phase_switch(rng: np.random.Generator) -> str:
    worst = 0.0
    for _ in range(60):
        l = rng.uniform(_SQRT_HALF, 1.0)
        lprime = math.sqrt(1 - l * l)
        theta = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0, 1)
        target = "1_minus" if rng.integers(2) else "1_plus"
        try:
            c_f = analyze(project_werner(
                spec_from_l(p, target, l, lprime, FERMION, theta))).concurrence
            c_b = analyze(project_werner(
                spec_from_l(p, target, l, lprime, BOSON, theta + math.pi))).concurrence
        except (ProjectionUndefinedError, ZeroTraceError):
            continue  # degenerate point: no detectable state on one side
        worst = _worst(worst, abs(c_f - c_b))
    _require(worst < 1e-10, f"phase switch identity broken by {worst:.3e}")
    return f"(fermion, theta) vs (boson, theta+pi) concurrence, worst |diff| = {worst:.2e}"


def suite_batched_vs_pointwise(rng: np.random.Generator) -> str:
    ps = np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 9)))
    # random tuples, plus psi1 = psi2 (a target with zero norm at p = 0 for
    # fermion/1_plus and boson/1_minus) and both waves on L (no detection)
    cases = [(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi),
              BOSON if rng.integers(2) else FERMION,
              "1_minus" if rng.integers(2) else "1_plus") for _ in range(40)]
    cases += [(0.6, 0.6, 0.0, FERMION, "1_plus"), (0.6, 0.6, 0.0, BOSON, "1_minus"),
              (1.0, 1.0, 0.0, FERMION, "1_minus")]
    # one stack per (target, statistics), as a sweep evaluates them
    groups: dict[tuple, list] = {}
    for case in cases:
        groups.setdefault(case[3:], []).append(case)
    worst_m = worst_r = 0.0
    for (stats, target), group in groups.items():
        ls, lps, thetas, _, _ = zip(*group)
        rows = WernerFamily(target, ls, lps, stats, thetas).evaluate(ps)
        matrices, flagged = x_state_matrices(rows), _flagged(rows)
        for f, (l, lp, theta, _, _) in enumerate(group):
            psi1, psi2 = SpatialWave.from_l(l), SpatialWave.from_l(lp, theta)
            for k, p in enumerate(ps, start=f * len(ps)):
                try:
                    ref = project_werner(WernerSpec(float(p), target, psi1, psi2, stats))
                except (ProjectionUndefinedError, ZeroTraceError):
                    _require(flagged[k], f"batched row defined where the projection is not "
                                         f"({l=}, {lp=}, {theta=}, {stats}, {target}, {p=})")
                    continue
                _require(flagged[k] == (ref.probability < FLAG_PROBABILITY),
                         f"flags differ at ({l=}, {lp=}, {theta=}, {stats}, {target}, {p=})")
                expected = analyze(ref)
                worst_m = _worst(worst_m, float(np.max(np.abs(matrices[k] - ref.matrix))),
                                 abs(rows.probability[k] - ref.probability))
                worst_r = _worst(worst_r, abs(rows.concurrence[k] - expected.concurrence),
                                 abs(rows.eof[k] - expected.eof),
                                 abs(rows.bell[k] - expected.bell))
    _require(worst_m <= 1e-12 and worst_r <= 1e-9,
             f"batched vs per-point: matrix/P_LR {worst_m:.3e}, C/EoF/B {worst_r:.3e}")
    return (f"{len(groups)} stacks of {len(cases)} families x {len(ps)} noise values vs "
            f"per-point projection, worst matrix/P_LR diff {worst_m:.2e}, "
            f"C/EoF/B diff {worst_r:.2e}")


def _bisect_violation_boundary(target, l, lprime, statistics, theta) -> float:
    """Noise probability where the family's CHSH value falls through 2."""
    family = WernerFamily(target, l, lprime, statistics, theta)

    def bell_at(p: float) -> float:
        return float(family.evaluate(np.array([p])).bell[0])

    lo, hi = 0.0, 1.0
    bell_lo, bell_hi = bell_at(lo), bell_at(hi)
    _require(bell_lo > 2.0 and bell_hi < 2.0,
             f"no violation boundary in p: B = {bell_lo!r} at p = 0, {bell_hi!r} at p = 1")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bell_at(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def suite_violation_thresholds(rng: np.random.Generator) -> str:
    # distinguishable pair: violation up to p = 1 - 1/sqrt(2)
    p_dist = _bisect_violation_boundary("1_minus", 1.0, 0.0, FERMION, 0.0)
    _require(abs(p_dist - 0.292) <= 2e-3, f"distinguishable boundary {p_dist:.5f}")
    # triplet target at full indistinguishability: boundary 4/11, for both
    # statistics at their canonical phase
    p_plus = _bisect_violation_boundary("1_plus", _SQRT_HALF, _SQRT_HALF, FERMION, math.pi)
    _require(abs(p_plus - 0.363) <= 2e-3, f"triplet-target boundary {p_plus:.5f}")
    p_plus_boson = _bisect_violation_boundary("1_plus", _SQRT_HALF, _SQRT_HALF, BOSON, 0.0)
    _require(abs(p_plus_boson - 0.363) <= 2e-3,
             f"boson triplet-target boundary {p_plus_boson:.5f}")
    # all-noise violation threshold on the singlet target
    result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"))
    _require(result.found and 0.75 <= result.indist <= 0.77,
             f"all-noise threshold {result.indist!r}")
    return (f"violation boundaries: distinguishable p={p_dist:.4f}, triplet p={p_plus:.4f} "
            f"(boson {p_plus_boson:.4f}), all-noise indistinguishability threshold "
            f"{result.indist:.4f}")


SUITES: tuple[tuple[str, Callable[[np.random.Generator], str]], ...] = (
    ("amplitude-cross-validation", suite_amplitude_cross_validation),
    ("bell-state-norms", suite_bell_state_norms),
    ("werner-global-trace", suite_global_trace),
    ("closed-forms-vs-pipeline", suite_closed_forms),
    ("channel-vs-direct", suite_channel_equivalence),
    ("projection-properties", suite_projection_properties),
    ("bell-fast-path", suite_bell_fast_path),
    ("statistics-phase-switch", suite_phase_switch),
    ("batched-vs-pointwise", suite_batched_vs_pointwise),
    ("violation-thresholds", suite_violation_thresholds),
)


def run_verify(seed: int = 20250808) -> VerifyReport:
    """Run every numerical identity suite on fresh seeded randomness; a
    negative seed is a :class:`~islocc.sweeps.ConfigError`."""
    if seed < 0:
        raise ConfigError(f"verification seed must be non-negative, got {seed}")
    results = []
    for name, suite in SUITES:
        rng = np.random.default_rng(seed)
        try:
            detail = suite(rng)
            results.append(SuiteResult(name, True, detail))
        except Exception as exc:  # report, never crash the verifier
            results.append(SuiteResult(name, False, f"{type(exc).__name__}: {exc}"))
    return VerifyReport(tuple(results))
