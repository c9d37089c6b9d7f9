"""Deterministic parameter sweeps, Bell-violation maps, threshold search and
self-verification for the noisy-preparation pipeline.

Grids of indistinguishability are realized through the one-parameter family
r' = l (with l' fixed by normalization): on it the degree of spatial
indistinguishability decreases monotonically from 1 at l = 1/sqrt(2) to 0
at l = 1, so target degrees are inverted by bisection.

A sweep is one stacked family array: every family of the outer grid and
every noise probability are evaluated together by one
:class:`~islocc.werner.WernerFamily`, each row a closed-form X state read
off four entries, with no 4x4 matrix and no eigen solver (the amplitude
and eigen path of :func:`~islocc.werner.project_werner` and
:func:`~islocc.entanglement.analyze` is its oracle in :func:`run_verify`
and the tests); identical configurations produce byte-identical CSV output,
and a configuration asking for more than ``MAX_SWEEP_ROWS`` rows is
rejected before any grid is built.

The threshold search bisects l on the same family directly.  At each step
the worst noise level comes in closed form from
:meth:`~islocc.werner.WernerFamily.worst_bell`: the CHSH value of an X
state is the length of a point moving along straight lines in p, so its
minimum sits at one of at most six candidate noise levels.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import werner as werner_mod
from .amplitudes import (BOSON, FERMION, ElementaryKet, ParticleStatistics,
                         amplitude_fast, amplitude_permsum)
from .entanglement import analyze, bell_horodecki, bell_xstate, binary_entropy
from .ensembles import mixed_trace, pure_norm_sq
from .slocc import ProjectionUndefinedError, ZeroTraceError, project
from .states import DOWN, UP, ModeBasis, SingleParticleState, SpatialWave
from .werner import (WaveStack, WernerFamily, WernerSpec, XStateRows, bell_states,
                     canonical_theta, depolarize_then_deform, project_werner,
                     spec_from_l, werner_direct)

__all__ = [
    "ConfigError",
    "GridSpec",
    "SweepConfig",
    "SweepRecord",
    "BellRegionRecord",
    "ThresholdResult",
    "run_sweep",
    "run_bell_region",
    "find_threshold",
    "run_verify",
    "VerifyReport",
    "SuiteResult",
    "indist_on_family",
    "l_for_indist",
    "records_to_csv",
    "records_to_json",
    "CSV_FIELDS",
    "BELL_REGION_FIELDS",
    "FLAG_PROBABILITY",
    "MAX_SWEEP_ROWS",
]

CSV_FIELDS = ("p", "l", "lprime", "theta", "statistics", "indist",
              "concurrence", "eof", "p_lr", "bell")
BELL_REGION_FIELDS = ("p", "indist", "bell", "violated")
CONSTRAINTS = ("l_eq_rprime", "l_eq_lprime", "free")

#: Rows with detection probability below this are flagged, never dropped.
FLAG_PROBABILITY = 1e-12

#: Largest sweep (outer steps x noise steps) a configuration may ask for; a
#: 301 x 301 sweep rendered to CSV peaks at about 1.2 KB per row, so this
#: bounds a run at about 1.1 GiB.
MAX_SWEEP_ROWS = 1_000_000

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class ConfigError(ValueError):
    """Invalid sweep configuration (maps to CLI exit code 2)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Inclusive linear grid start..stop with ``steps`` points."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"grid needs at least one point, got steps={self.steps}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(f"grid bounds must be finite, got {self.start}:{self.stop}")
        if not self.start <= self.stop:
            raise ConfigError(f"grid start {self.start} exceeds stop {self.stop}")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be 'start:stop:steps', got {text!r}")
        try:
            return cls(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ConfigError(f"bad grid {text!r}: {exc}") from None

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


#: Outer grid of an l_eq_rprime sweep given neither grid.
_DEFAULT_INDIST_GRID = GridSpec(0.0, 1.0, 11)


@dataclass
class SweepConfig:
    """Sweep parameters; grids of the degree of indistinguishability require
    the r' = l family, plain l grids work with any constraint."""

    statistics: ParticleStatistics = FERMION
    target: str = "1_minus"
    theta: float | None = None
    constraint: str = "l_eq_rprime"
    p_grid: GridSpec = GridSpec(0.0, 1.0, 51)
    indist_grid: GridSpec | None = None
    l_grid: GridSpec | None = None
    lprime: float | None = None
    output: str | None = None
    format: str = "csv"

    def resolved_theta(self) -> float:
        if self.theta is None:
            return canonical_theta(self.target, self.statistics)
        return float(self.theta)

    def validate(self) -> None:
        if self.target not in ("1_minus", "1_plus"):
            raise ConfigError(f"target must be 1_minus or 1_plus, got {self.target!r}")
        if self.constraint not in CONSTRAINTS:
            raise ConfigError(f"constraint must be one of {CONSTRAINTS}, got {self.constraint!r}")
        if self.format not in ("csv", "json", "svg"):
            raise ConfigError(f"format must be csv, json or svg, got {self.format!r}")
        if self.indist_grid is not None and self.l_grid is not None:
            raise ConfigError("give either indist_grid or l_grid, not both")
        if self.indist_grid is not None and self.constraint != "l_eq_rprime":
            raise ConfigError("indistinguishability grids require the l_eq_rprime constraint")
        if self.constraint == "free" and self.lprime is None:
            raise ConfigError("the free constraint needs an explicit lprime value")
        if self.constraint != "free" and self.lprime is not None:
            raise ConfigError(f"lprime is only meaningful with the free constraint")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ConfigError(f"theta must be finite, got {self.theta!r}")
        if self.lprime is not None and not 0.0 <= self.lprime <= 1.0:
            raise ConfigError(f"lprime must lie in [0, 1], got {self.lprime!r}")
        for name, grid in (("indistinguishability", self.indist_grid), ("l", self.l_grid),
                           ("noise-probability", self.p_grid)):
            if grid is not None and not (0.0 <= grid.start and grid.stop <= 1.0):
                raise ConfigError(f"{name} grid must lie in [0, 1]")
        outer = (self.indist_grid or self.l_grid or _DEFAULT_INDIST_GRID).steps
        if outer * self.p_grid.steps > MAX_SWEEP_ROWS:
            raise ConfigError(f"a sweep of {outer} x {self.p_grid.steps} points exceeds "
                              f"the limit of {MAX_SWEEP_ROWS} rows")


# ---------------------------------------------------------------------------
# the r' = l family and its indistinguishability degree
# ---------------------------------------------------------------------------

def _peaked_degree(l1, r1, l2, r2, zero_undefined: bool = False):
    """Degree of indistinguishability of the peaked waves l1|L> + r1|R> and
    l2|L> + r2|R> (phases drop out): h(l1^2 r2^2 / (l1^2 r2^2 + r1^2 l2^2)),
    elementwise over arrays.

    Where neither assignment is detectable (both waves on one mode) the
    degree is undefined: that raises ``ValueError``, as
    :func:`~islocc.indistinguishability.degree_n` does, or reads 0 with
    ``zero_undefined``.
    """
    p12 = l1 * l1 * (r2 * r2)
    p21 = l2 * l2 * (r1 * r1)
    z = np.asarray(p12 + p21)
    defined = z > 0.0
    if not (zero_undefined or defined.all()):
        raise ValueError("no assignment of particles to regions is detectable; "
                         "the indistinguishability degree is undefined")
    return binary_entropy(np.divide(p12, z, out=np.zeros_like(z), where=defined))


def indist_on_family(l):
    """Degree of indistinguishability on the r' = l family (so l' = r),
    elementwise over an array of l."""
    l = np.asarray(l, dtype=float)
    r = _lprime_for("l_eq_rprime", l, None)
    return _peaked_degree(l, r, r, l)


def l_for_indist(target, tol: float = 1e-12):
    """Invert :func:`indist_on_family` on the monotone branch l in [1/sqrt(2), 1],
    elementwise over an array of degrees."""
    target = np.asarray(target, dtype=float)
    if not np.all((0.0 <= target) & (target <= 1.0)):
        raise ConfigError(f"indistinguishability degree must lie in [0, 1], got {target!r}")
    # each entry bisects on its own interval until that interval is below tol;
    # the degree falls monotonically from 1 to 0
    lo = np.full(target.shape, _SQRT_HALF)
    hi = np.ones(target.shape)
    active = (hi - lo > tol) & (0.0 < target) & (target < 1.0)
    while active.any():
        mid = 0.5 * (lo + hi)
        above = active & (indist_on_family(mid) > target)
        np.copyto(lo, mid, where=above)
        np.copyto(hi, mid, where=active & ~above)
        active &= hi - lo > tol
    l = np.where(target >= 1.0, _SQRT_HALF, np.where(target <= 0.0, 1.0, 0.5 * (lo + hi)))
    return l[()]


def _lprime_for(constraint: str, l, lprime_fixed: float | None):
    if constraint == "l_eq_rprime":
        return WaveStack.from_l(l).r  # r' = l
    if constraint == "l_eq_lprime":
        return l
    return np.full_like(l, lprime_fixed)


def _family_ls(config: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """The l and l' of each family of the outer grid."""
    if config.indist_grid is not None:
        l = l_for_indist(config.indist_grid.values())
    elif config.l_grid is not None:
        l = config.l_grid.values()
    elif config.constraint == "l_eq_rprime":
        l = l_for_indist(_DEFAULT_INDIST_GRID.values())
    else:
        raise ConfigError(f"constraint {config.constraint!r} needs an explicit l_grid")
    return l, _lprime_for(config.constraint, l, config.lprime)


# ---------------------------------------------------------------------------
# record types and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep.  ``flagged`` marks rows whose detection
    probability fell below ``FLAG_PROBABILITY`` (metrics zeroed when the
    projection itself is undefined); it is not part of the CSV schema."""

    p: float
    l: float
    lprime: float
    theta: float
    statistics: str
    indist: float
    concurrence: float
    eof: float
    p_lr: float
    bell: float
    flagged: bool = False

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_FIELDS}


@dataclass(frozen=True)
class BellRegionRecord:
    p: float
    indist: float
    bell: float
    violated: int

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in BELL_REGION_FIELDS}


def _flagged(rows: XStateRows) -> np.ndarray:
    """Rows whose projection is undefined or whose detection probability is
    below ``FLAG_PROBABILITY``."""
    return ~rows.defined | (rows.probability < FLAG_PROBABILITY)


def _warn_flagged(records: Sequence[SweepRecord]) -> None:
    """Warn about flagged rows, attributed to the caller of the public
    function that calls this."""
    flagged = sum(1 for r in records if r.flagged)
    if flagged:
        warnings.warn(f"{flagged} grid point(s) have detection probability below "
                      f"{FLAG_PROBABILITY:g}; rows kept with metrics zeroed where undefined",
                      RuntimeWarning, stacklevel=3)


def _sweep(config: SweepConfig) -> list[SweepRecord]:
    """The rows of :func:`run_sweep`, without the flagged-row warning."""
    config.validate()
    theta = config.resolved_theta()
    p = config.p_grid.values()
    l, lprime = _family_ls(config)
    psi1, psi2 = WaveStack.from_l(l), WaveStack.from_l(lprime, theta)
    # both waves on one mode: degree and projection undefined, rows zeroed and flagged
    indist = _peaked_degree(psi1.l, psi1.r, psi2.l, psi2.r, zero_undefined=True)
    rows = WernerFamily(config.target, psi1, psi2, config.statistics).evaluate(p)

    def per_family(values: np.ndarray) -> list:
        return np.repeat(values, len(p)).tolist()

    stats = str(config.statistics)
    return [SweepRecord(pv, lv, lpv, theta, stats, dv, c, e, p_lr, b, flagged=f)
            for pv, lv, lpv, dv, c, e, p_lr, b, f in zip(
                np.tile(p, len(l)).tolist(), per_family(l), per_family(lprime),
                per_family(indist), rows.concurrence.tolist(), rows.eof.tolist(),
                rows.probability.tolist(), rows.bell.tolist(), _flagged(rows).tolist())]


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the full pipeline over the configured grid: every family of
    the outer grid as one :class:`~islocc.werner.WernerFamily` stack.

    Rows are ordered by the outer (l or indistinguishability) grid first and
    the noise-probability grid second.
    """
    records = _sweep(config)
    _warn_flagged(records)
    return records


def run_bell_region(config: SweepConfig) -> list[BellRegionRecord]:
    """CHSH value and violation flag over the (indistinguishability, noise)
    grid: the rows of :func:`run_sweep`, reduced to those columns."""
    records = _sweep(config)
    _warn_flagged(records)
    return [BellRegionRecord(r.p, r.indist, r.bell, int(r.bell > 2.0)) for r in records]


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    """Smallest degree of indistinguishability for which the CHSH inequality
    is violated at every noise probability (``found`` False when no degree
    achieves that)."""

    found: bool
    target: str
    statistics: str
    indist: float | None = None
    l: float | None = None
    worst_p: float | None = None
    bell_at_worst: float | None = None
    concurrence_at_worst: float | None = None

    def as_dict(self) -> dict:
        return {
            "found": self.found,
            "target": self.target,
            "statistics": self.statistics,
            "indist": self.indist,
            "l": self.l,
            "worst_p": self.worst_p,
            "bell_at_worst": self.bell_at_worst,
            "concurrence_at_worst": self.concurrence_at_worst,
        }


def _family(statistics: ParticleStatistics, target: str, theta: float,
            l: float, lprime: float) -> WernerFamily:
    return WernerFamily(target, SpatialWave.from_l(l), SpatialWave.from_l(lprime, theta),
                        statistics)


def _bell_at(family: WernerFamily, p: float) -> float:
    """CHSH value at one noise probability (0 where the projection is undefined)."""
    return float(family.evaluate(np.array([p])).bell[0])


class _Probe(NamedTuple):
    """One family of the r' = l line and its worst noise level."""

    l: float
    degree: float
    family: WernerFamily
    worst_p: float
    bell: float


def find_threshold(config: SweepConfig, tol: float = 1e-4) -> ThresholdResult:
    """Smallest degree of indistinguishability with min_p B > 2 on the r' = l
    family, by one bisection in l.

    The degree falls monotonically from 1 at l = 1/sqrt(2) to 0 at l = 1, so
    l itself is bisected between a violating and a non-violating end until
    the degrees of the two ends differ by at most ``tol``; the violating
    end's degree and l are reported.  Each step takes min_p B in closed form
    from :meth:`~islocc.werner.WernerFamily.worst_bell` (at most six
    candidate noise levels evaluated together), so no minimization and no
    inversion of the degree is iterated.
    """
    config.validate()
    if config.constraint != "l_eq_rprime":
        raise ConfigError("threshold search is defined on the l_eq_rprime family")
    theta = config.resolved_theta()
    stats = config.statistics

    def probe(l: float) -> _Probe:
        family = _family(stats, config.target, theta, l,
                         float(_lprime_for("l_eq_rprime", l, None)))
        worst_p, bell = family.worst_bell()
        return _Probe(l, float(indist_on_family(l)), family, float(worst_p[0]),
                      float(bell[0]))

    inside = probe(_SQRT_HALF)  # the violating end of the bracket, degree 1
    if inside.bell <= 2.0:
        return ThresholdResult(False, config.target, str(stats))
    outside = probe(1.0)  # degree 0
    if outside.bell > 2.0:
        inside = outside  # violated everywhere, threshold at zero
    while inside.degree - outside.degree > tol:
        mid = 0.5 * (inside.l + outside.l)
        if mid in (inside.l, outside.l):
            break  # the bracket is down to adjacent floats
        at_mid = probe(mid)
        if at_mid.bell > 2.0:
            inside = at_mid
        else:
            outside = at_mid
    concurrence_at = float(inside.family.evaluate(np.array([inside.worst_p])).concurrence[0])
    return ThresholdResult(True, config.target, str(stats), inside.degree, inside.l,
                           inside.worst_p, inside.bell, concurrence_at)


# ---------------------------------------------------------------------------
# output encoding
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    return f"{float(x):.12g}"


def _encode_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format_float(value)


def records_to_csv(records: Sequence, fields: Sequence[str] | None = None) -> str:
    """Render records as CSV with a fixed header; floats carry 12 significant
    digits so identical configurations give byte-identical files."""
    records = list(records)
    if fields is None:
        fields = records[0].as_dict().keys() if records else CSV_FIELDS
    lines = [",".join(fields)]
    for record in records:
        row = record.as_dict()
        lines.append(",".join(_encode_value(row[name]) for name in fields))
    return "\n".join(lines) + "\n"


def records_to_json(records: Sequence, fields: Sequence[str] | None = None) -> str:
    """JSON encoding of the same rows as :func:`records_to_csv` (numbers are
    rounded through the same 12-significant-digit representation)."""
    records = list(records)
    if fields is None:
        fields = records[0].as_dict().keys() if records else CSV_FIELDS
    payload = []
    for record in records:
        row = record.as_dict()
        entry = {}
        for name in fields:
            value = row[name]
            if isinstance(value, str):
                entry[name] = value
            elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                entry[name] = int(value)
            else:
                entry[name] = float(format_float(value))
        payload.append(entry)
    return json.dumps({"records": payload}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# self-verification
# ---------------------------------------------------------------------------

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


def _random_single_particle(rng: np.random.Generator, basis: ModeBasis,
                            spins=(UP, DOWN)) -> SingleParticleState:
    amps = {}
    for mode in basis.labels:
        for spin in spins:
            amps[(mode, spin)] = complex(rng.standard_normal(), rng.standard_normal())
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    return SingleParticleState(basis, {k: v / norm for k, v in amps.items()})


def _suite_amplitude_cross_validation(rng: np.random.Generator) -> str:
    basis = ModeBasis(("A", "B", "C"))
    worst = 0.0
    for statistics in (BOSON, FERMION):
        for n in range(2, 6):
            for _ in range(25):
                bra = ElementaryKet(tuple(_random_single_particle(rng, basis)
                                          for _ in range(n)), statistics)
                ket = ElementaryKet(tuple(_random_single_particle(rng, basis)
                                          for _ in range(n)), statistics)
                worst = max(worst, abs(amplitude_fast(bra, ket) - amplitude_permsum(bra, ket)))
    assert worst < 1e-10, f"permutation sum and fast path disagree by {worst:.3e}"
    return f"naive permutation sum vs permanent/determinant, worst |diff| = {worst:.2e}"


def _suite_bell_state_norms(rng: np.random.Generator) -> str:
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
            worst = max(worst, abs(pure_norm_sq(state) - expected[name]))
    assert worst < 1e-12, f"Bell-state norms off closed form by {worst:.3e}"
    return f"Bell-state squared norms vs closed constants, worst |diff| = {worst:.2e}"


def _suite_global_trace(rng: np.random.Generator) -> str:
    worst = 0.0
    for _ in range(100):
        l, lp = rng.uniform(0, 1), rng.uniform(0, 1)
        theta = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0, 1)
        stats = BOSON if rng.integers(2) else FERMION
        target = "1_minus" if rng.integers(2) else "1_plus"
        spec = WernerSpec(p, target, SpatialWave.from_l(l), SpatialWave.from_l(lp, theta), stats)
        overlap_sq = abs(l * lp + math.sqrt(1 - l * l) * math.sqrt(1 - lp * lp)
                         * np.exp(1j * theta)) ** 2
        sign = -1.0 if target == "1_minus" else 1.0
        expected = 1 + stats.eta * overlap_sq * (p / 2 + sign * (1 - p))
        worst = max(worst, abs(mixed_trace(werner_direct(spec)) - expected))
    assert worst < 1e-10, f"global trace off closed form by {worst:.3e}"
    return f"ensemble trace vs closed normalization constant, worst |diff| = {worst:.2e}"


def _suite_closed_forms(rng: np.random.Generator) -> str:
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
            worst_c = max(worst_c, abs(analyze(projected).concurrence - c_ref))
            worst_p = max(worst_p, abs(projected.probability - p_ref))
            checked += 1
    assert worst_c < 1e-9 and worst_p < 1e-9, \
        f"closed forms vs pipeline: concurrence {worst_c:.3e}, probability {worst_p:.3e}"
    return (f"closed forms vs numeric pipeline on {checked} cases, "
            f"worst concurrence diff {worst_c:.2e}, probability diff {worst_p:.2e}")


def _suite_channel_equivalence(rng: np.random.Generator) -> str:
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
            worst = max(worst, float(np.max(np.abs(direct.matrix - channel.matrix))),
                        abs(direct.probability - channel.probability))
    assert worst < 1e-10, f"channel and direct constructions disagree by {worst:.3e}"
    return f"depolarize-then-deform vs direct mixture after projection, worst |diff| = {worst:.2e}"


def _suite_projection_properties(rng: np.random.Generator) -> str:
    worst_herm = worst_trace = worst_neg = 0.0
    for _ in range(50):
        l, lp = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        theta = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0, 1)
        stats = BOSON if rng.integers(2) else FERMION
        target = "1_minus" if rng.integers(2) else "1_plus"
        spec = WernerSpec(p, target, SpatialWave.from_l(l), SpatialWave.from_l(lp, theta), stats)
        try:
            projected = project_werner(spec)
        except ProjectionUndefinedError:
            continue
        m = projected.matrix
        worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
        worst_trace = max(worst_trace, abs(float(np.trace(m).real) - 1.0))
        worst_neg = max(worst_neg, max(0.0, -float(np.min(np.linalg.eigvalsh(m)))))
        assert 0.0 <= projected.probability <= 1.0 + 1e-12
    assert worst_herm < 1e-12 and worst_trace < 1e-12 and worst_neg < 1e-10
    return (f"projected matrices Hermitian ({worst_herm:.1e}), unit trace "
            f"({worst_trace:.1e}), PSD (worst negative {worst_neg:.1e})")


def _suite_bell_fast_path(rng: np.random.Generator) -> str:
    worst = 0.0
    for _ in range(200):
        l, lp = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        theta = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0, 1)
        stats = BOSON if rng.integers(2) else FERMION
        spec = WernerSpec(p, "1_minus", SpatialWave.from_l(l), SpatialWave.from_l(lp, theta),
                          stats)
        try:
            projected = project_werner(spec)
        except ProjectionUndefinedError:
            continue
        worst = max(worst, abs(bell_xstate(projected).bell - bell_horodecki(projected)))
    assert worst < 1e-9, f"X-state fast path departs from the general criterion by {worst:.3e}"
    return f"X-state CHSH vs unrestricted criterion (singlet target), worst |diff| = {worst:.2e}"


def _suite_phase_switch(rng: np.random.Generator) -> str:
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
        worst = max(worst, abs(c_f - c_b))
    assert worst < 1e-10, f"phase switch identity broken by {worst:.3e}"
    return f"(fermion, theta) vs (boson, theta+pi) concurrence, worst |diff| = {worst:.2e}"


def _suite_batched_vs_pointwise(rng: np.random.Generator) -> str:
    ps = np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 9)))
    # random tuples, plus psi1 = psi2 (a target with zero norm at p = 0 for
    # fermion/1_plus and boson/1_minus) and both waves on L (no detection)
    cases = [(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2 * math.pi),
              BOSON if rng.integers(2) else FERMION,
              "1_minus" if rng.integers(2) else "1_plus") for _ in range(40)]
    cases += [(0.6, 0.6, 0.0, FERMION, "1_plus"), (0.6, 0.6, 0.0, BOSON, "1_minus"),
              (1.0, 1.0, 0.0, FERMION, "1_minus")]
    ls, lps, thetas, statistics, targets = zip(*cases)
    rows = WernerFamily(targets, WaveStack.from_l(ls), WaveStack.from_l(lps, np.array(thetas)),
                        statistics).evaluate(ps)
    matrices, flagged = rows.matrices(), _flagged(rows)
    worst_m = worst_r = 0.0
    for f, (l, lp, theta, stats, target) in enumerate(cases):
        psi1, psi2 = SpatialWave.from_l(l), SpatialWave.from_l(lp, theta)
        for k, p in enumerate(ps, start=f * len(ps)):
            try:
                ref = project_werner(WernerSpec(float(p), target, psi1, psi2, stats))
            except (ProjectionUndefinedError, ZeroTraceError):
                assert flagged[k], f"batched row defined where the projection is not " \
                                   f"({l=}, {lp=}, {theta=}, {stats}, {target}, {p=})"
                continue
            assert flagged[k] == (ref.probability < FLAG_PROBABILITY), \
                f"flags differ at ({l=}, {lp=}, {theta=}, {stats}, {target}, {p=})"
            expected = analyze(ref)
            worst_m = max(worst_m, float(np.max(np.abs(matrices[k] - ref.matrix))),
                          abs(rows.probability[k] - ref.probability))
            worst_r = max(worst_r, abs(rows.concurrence[k] - expected.concurrence),
                          abs(rows.eof[k] - expected.eof), abs(rows.bell[k] - expected.bell))
    assert worst_m <= 1e-12 and worst_r <= 1e-9, \
        f"batched vs per-point: matrix/P_LR {worst_m:.3e}, C/EoF/B {worst_r:.3e}"
    return (f"one stack of {len(cases)} families x {len(ps)} noise values vs per-point "
            f"projection, worst matrix/P_LR diff {worst_m:.2e}, C/EoF/B diff {worst_r:.2e}")


def _bisect_violation_boundary(statistics, target, theta, l, lprime) -> float:
    family = _family(statistics, target, theta, l, lprime)
    lo, hi = 0.0, 1.0
    assert _bell_at(family, lo) > 2.0
    assert _bell_at(family, hi) < 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _bell_at(family, mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _suite_violation_thresholds(rng: np.random.Generator) -> str:
    # distinguishable pair: violation up to p = 1 - 1/sqrt(2)
    p_dist = _bisect_violation_boundary(FERMION, "1_minus", 0.0, 1.0, 0.0)
    assert abs(p_dist - 0.292) <= 2e-3, f"distinguishable boundary {p_dist:.5f}"
    # triplet target at full indistinguishability: boundary 4/11
    p_plus = _bisect_violation_boundary(FERMION, "1_plus", math.pi, _SQRT_HALF, _SQRT_HALF)
    assert abs(p_plus - 0.363) <= 2e-3, f"triplet-target boundary {p_plus:.5f}"
    # all-noise violation threshold on the singlet target
    result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"))
    assert result.found and 0.75 <= result.indist <= 0.77, \
        f"all-noise threshold {result.indist!r}"
    return (f"violation boundaries: distinguishable p={p_dist:.4f}, triplet p={p_plus:.4f}, "
            f"all-noise indistinguishability threshold {result.indist:.4f}")


_VERIFY_SUITES: tuple[tuple[str, Callable[[np.random.Generator], str]], ...] = (
    ("amplitude-cross-validation", _suite_amplitude_cross_validation),
    ("bell-state-norms", _suite_bell_state_norms),
    ("werner-global-trace", _suite_global_trace),
    ("closed-forms-vs-pipeline", _suite_closed_forms),
    ("channel-vs-direct", _suite_channel_equivalence),
    ("projection-properties", _suite_projection_properties),
    ("bell-fast-path", _suite_bell_fast_path),
    ("statistics-phase-switch", _suite_phase_switch),
    ("batched-vs-pointwise", _suite_batched_vs_pointwise),
    ("violation-thresholds", _suite_violation_thresholds),
)


def run_verify(seed: int = 20250808) -> VerifyReport:
    """Run every numerical identity suite on fresh seeded randomness."""
    results = []
    for name, suite in _VERIFY_SUITES:
        rng = np.random.default_rng(seed)
        try:
            detail = suite(rng)
            results.append(SuiteResult(name, True, detail))
        except Exception as exc:  # report, never crash the verifier
            results.append(SuiteResult(name, False, f"{type(exc).__name__}: {exc}"))
    return VerifyReport(tuple(results))
