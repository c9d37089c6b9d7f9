"""Deterministic parameter sweeps, Bell-violation maps, threshold search and
output encoding for the noisy-preparation pipeline.

Grids of indistinguishability are realized through the one-parameter family
r' = l (with l' fixed by normalization): on it the degree of spatial
indistinguishability decreases monotonically from 1 at l = 1/sqrt(2) to 0
at l = 1, so target degrees are inverted by bisection.

A sweep evaluates every family of the outer grid at every noise
probability with one :class:`~islocc.werner.WernerFamily`, each row a
closed-form X state read off three entries (rho03 is 0), with no 4x4
matrix and no eigen solver (the amplitude and eigen path is its oracle in
:mod:`islocc.verify` and the tests); identical configurations produce
byte-identical CSV output, and a configuration asking for more than
``MAX_SWEEP_ROWS`` rows is rejected before any grid is built.

Every sweep row is one :class:`SweepRecord`.  A Bell-violation map is the
same rows written with the ``BELL_REGION_FIELDS`` columns, whose
``violated`` is ``B > 2``.  The CSV and JSON encoders take the columns to
write and read each one once, choosing the cell format once per column.

The threshold search bisects l on the same family directly.  At each step
the worst noise level comes in closed form from
:meth:`~islocc.werner.WernerFamily.worst_bell`: the CHSH value of an X
state is the length of a point moving along a straight line in p, so its
minimum sits at one of four candidate noise levels.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .amplitudes import FERMION, ParticleStatistics
from .entanglement import binary_entropy
from .states import SpatialWave
from .werner import WaveStack, WernerFamily, XStateRows, canonical_theta

__all__ = [
    "ConfigError",
    "GridSpec",
    "SweepConfig",
    "SweepRecord",
    "ThresholdResult",
    "run_sweep",
    "find_threshold",
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


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise ConfigError(f"tolerance must be finite, got {tol!r}")


def l_for_indist(target, tol: float = 1e-12):
    """Invert :func:`indist_on_family` on the monotone branch l in [1/sqrt(2), 1],
    elementwise over an array of degrees.  A non-finite ``tol`` raises
    :class:`ConfigError`."""
    _check_tol(tol)
    target = np.asarray(target, dtype=float)
    if not np.all((0.0 <= target) & (target <= 1.0)):
        raise ConfigError(f"indistinguishability degree must lie in [0, 1], got {target!r}")
    # each entry bisects on its own interval until that interval is below tol
    # or down to adjacent floats; the degree falls monotonically from 1 to 0
    lo = np.full(target.shape, _SQRT_HALF)
    hi = np.ones(target.shape)
    active = (hi - lo > tol) & (0.0 < target) & (target < 1.0)
    while active.any():
        mid = 0.5 * (lo + hi)
        active &= (lo < mid) & (mid < hi)
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
    projection itself is undefined); it is not part of the CSV schema.
    ``violated`` is the Bell-region column."""

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

    @property
    def violated(self) -> int:
        """1 where the CHSH inequality is violated (B > 2), else 0."""
        return int(self.bell > 2.0)


def _flagged(rows: XStateRows) -> np.ndarray:
    """Rows whose projection is undefined or whose detection probability is
    below ``FLAG_PROBABILITY``."""
    return ~rows.defined | (rows.probability < FLAG_PROBABILITY)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the full pipeline over the configured grid: every family of
    the outer grid as one :class:`~islocc.werner.WernerFamily` stack.

    Rows are ordered by the outer (l or indistinguishability) grid first and
    the noise-probability grid second.  Flagged rows are kept, with one
    ``RuntimeWarning`` attributed to the caller.
    """
    config.validate()
    theta = config.resolved_theta()
    p = config.p_grid.values()
    l, lprime = _family_ls(config)
    psi1, psi2 = WaveStack.from_l(l), WaveStack.from_l(lprime, theta)
    # both waves on one mode: degree and projection undefined, rows zeroed and flagged
    indist = _peaked_degree(psi1.l, psi1.r, psi2.l, psi2.r, zero_undefined=True)
    rows = WernerFamily(config.target, psi1, psi2, config.statistics).evaluate(p)
    flagged = _flagged(rows)
    count = int(np.count_nonzero(flagged))
    if count:
        warnings.warn(f"{count} grid point(s) have detection probability below "
                      f"{FLAG_PROBABILITY:g}; rows kept with metrics zeroed where undefined",
                      RuntimeWarning, stacklevel=2)

    def per_family(values: np.ndarray) -> list:
        return np.repeat(values, len(p)).tolist()

    stats = str(config.statistics)
    return [SweepRecord(pv, lv, lpv, theta, stats, dv, c, e, p_lr, b, flagged=f)
            for pv, lv, lpv, dv, c, e, p_lr, b, f in zip(
                np.tile(p, len(l)).tolist(), per_family(l), per_family(lprime),
                per_family(indist), rows.concurrence.tolist(), rows.eof.tolist(),
                rows.probability.tolist(), rows.bell.tolist(), flagged.tolist())]


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
        return asdict(self)


def _family(statistics: ParticleStatistics, target: str, theta: float,
            l: float, lprime: float) -> WernerFamily:
    return WernerFamily(target, SpatialWave.from_l(l), SpatialWave.from_l(lprime, theta),
                        statistics)


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
    from :meth:`~islocc.werner.WernerFamily.worst_bell` (four candidate
    noise levels evaluated together), so no minimization and no
    inversion of the degree is iterated.  A non-finite ``tol`` raises
    :class:`ConfigError`.
    """
    _check_tol(tol)
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


def _columns(records: Sequence[SweepRecord], fields: Sequence[str]) -> list[tuple[list, type]]:
    """Each field of ``records`` read once, as a column of text cells, with
    the type JSON reads those cells back as.  The column's first value picks
    the rule for the whole column: text is kept as is, an integer is written
    with ``str``, anything else is a float with 12 significant digits."""
    records = list(records)  # read once per column, so an iterator is not enough
    columns = []
    for name in fields:
        values = [getattr(record, name) for record in records]
        first = values[0] if values else None
        if isinstance(first, str):
            columns.append((values, str))
        elif isinstance(first, (int, np.integer)) and not isinstance(first, bool):
            columns.append(([str(int(v)) for v in values], int))
        else:
            columns.append(([format_float(v) for v in values], float))
    return columns


def records_to_csv(records: Sequence[SweepRecord], fields: Sequence[str]) -> str:
    """Render records as CSV with a fixed header; floats carry 12 significant
    digits so identical configurations give byte-identical files."""
    cells = [column for column, _ in _columns(records, fields)]
    lines = [",".join(fields), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def records_to_json(records: Sequence[SweepRecord], fields: Sequence[str]) -> str:
    """JSON encoding of the same rows as :func:`records_to_csv` (numbers are
    rounded through the same 12-significant-digit representation)."""
    values = [list(map(kind, column)) for column, kind in _columns(records, fields)]
    payload = [dict(zip(fields, row)) for row in zip(*values)]
    return json.dumps({"records": payload}, indent=2) + "\n"
