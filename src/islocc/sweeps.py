"""Deterministic parameter sweeps, Bell-violation maps, threshold search and
output encoding for the noisy-preparation pipeline.

Grids of indistinguishability are realized through the one-parameter family
r' = l (with l' fixed by normalization): on it the degree of spatial
indistinguishability decreases monotonically from 1 at l = 1/sqrt(2) to 0
at l = 1, so target degrees are inverted by bisection in l.  Each root is
first guessed in closed form, and the bisection's halvings are walked taking
each step by the guess; one evaluation of the degree at every visited
midpoint then checks each step against the bisection's own test, and a target
with a step in doubt is bisected again, so the result is the bisection's to the
bit.

A sweep evaluates every family of the outer grid at every noise probability
with one :class:`~islocc.xstate.WernerFamily`, each row a closed-form X state
read off three entries (rho03 is 0), with no 4x4 matrix and no eigen solver.
This module imports nothing of the package but :mod:`islocc.xstate`; the
amplitude and eigen path is its oracle in :mod:`islocc.verify` and the tests.
Identical configurations produce byte-identical CSV output.  A
:class:`SweepConfig` is frozen and checked once, when built: one holding a value
of the wrong type, asking for more than ``MAX_SWEEP_ROWS`` rows or breaking any
other rule cannot exist, so no runner checks it again.

A sweep is computed as its layout: l, l' and the degree once per family, the
noise grid, theta and the statistics once per sweep, and only the computed
columns (and ``violated``, ``flagged``) once per row.  :func:`run_sweep` expands
the layout into one ``numpy.recarray`` of ``ROW_DTYPE``, each field filled as a
whole column; :func:`sweep_text`, which the CLI writes its CSV and JSON with,
encodes the layout itself and builds no flat table.  A Bell-violation map is
the same sweep written with the ``BELL_REGION_FIELDS`` columns, whose
``violated`` is ``B > 2``.  Every encoding goes through one core, which takes a
flat table as a layout of one noise level whose columns are all per row.  A
column whose bit patterns are all equal (a sweep's ``theta`` and ``statistics``)
is written once into the literal text around it; one bit-identical to the
previous written column of its kind (``lprime`` where l' = l) reuses that
column's cells; a float column whose sample of rows repeats has each distinct
pattern formatted once.  Each noise level's and each family's cells are
formatted once and joined with the text around them, and the texts and row
cells of a block of rows fill one list that is joined once.  CSV writes a
computed float column that does not repeat inline, through one ``%`` template
per block, so no cell is built for it.  The JSON text is that of
``json.dumps(..., indent=2)``, and its float cells are the CSV cells, read back
only where ``repr`` can differ.

The threshold search bisects l on the same family a step at a time, reading
each probe from one :class:`~islocc.xstate.WernerFamily` stack and one pass of
its rows: the degree-1 end and the path a guide predicts, which walks the
bisection's rules on the same closed form taken in ``math`` floats.  The guide
only steers: each step is decided on the stack's checked rows, and a midpoint
off the predicted path is probed alone, so every result is the bisection's to
the bit.  At each step the worst noise level comes in closed form
from :meth:`~islocc.xstate.WernerFamily.worst_bell`: the CHSH value of an X
state is the length of a point moving along a straight line in p, so its
minimum sits at one of four candidate noise levels, and the reported
concurrence is read off the same evaluation.  Both bisections stop at a fixed
tolerance or at adjacent floats, whichever is first.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .xstate import (_SQRT_HALF, _UNDEFINED_RTOL, FERMION, ParticleStatistics, WernerFamily,
                     XStateRows, _entropy, _unit_r, binary_entropy, canonical_theta)

__all__ = [
    "ConfigError",
    "GridSpec",
    "SweepConfig",
    "ROW_DTYPE",
    "ThresholdResult",
    "run_sweep",
    "find_threshold",
    "indist_on_family",
    "l_for_indist",
    "records_to_csv",
    "records_to_json",
    "sweep_text",
    "CSV_FIELDS",
    "BELL_REGION_FIELDS",
    "FLAG_PROBABILITY",
    "MAX_SWEEP_ROWS",
]

CSV_FIELDS = ("p", "l", "lprime", "theta", "statistics", "indist",
              "concurrence", "eof", "p_lr", "bell")
BELL_REGION_FIELDS = ("p", "indist", "bell", "violated")
TARGETS = ("1_minus", "1_plus")
CONSTRAINTS = ("l_eq_rprime", "l_eq_lprime", "free")
FORMATS = ("csv", "json", "svg")

#: Rows with detection probability below this are flagged, never dropped.
FLAG_PROBABILITY = 1e-12

#: Largest sweep (outer x noise steps) a configuration may ask for: it bounds the
#: run time.  Memory grows with the rows: 301 x 301 peaks at 69 MiB as CSV and
#: 101 MiB as JSON, a sweep at the cap at 385 MiB as CSV and 724 MiB as JSON
#: (Python 3.11, numpy 2.4).
MAX_SWEEP_ROWS = 1_000_000

#: Bracket widths at which the bisections stop: in l (:func:`l_for_indist`)
#: and in degree (:func:`find_threshold`).
_L_TOL = 1e-12
_DEGREE_TOL = 1e-4
_NEWTON_STEPS = 4  # Newton steps of l_for_indist's closed-form guess
_TINY = np.finfo(float).tiny


class ConfigError(ValueError):
    """Invalid sweep configuration (maps to CLI exit code 2)."""


def _real(value, name: str) -> float:
    """``value`` as a float; :class:`ConfigError` unless a finite real, not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            if math.isfinite(number := float(value)):
                return number
    raise ConfigError(f"{name} must be finite and real, got {_shown(value)}")


def _bounded(text: str) -> str:
    """``text``, or its first 60 characters and its length where longer, so
    that a message echoing outside input stays one short line."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _shown(value) -> str:
    """``repr(value)`` cut by :func:`_bounded`, or its type where repr raises (a huge int)."""
    try:
        return _bounded(repr(value))
    except ValueError:
        return f"<{type(value).__name__} too long to write>"


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
        if isinstance(self.steps, bool) or not isinstance(self.steps, int):
            raise ConfigError(f"grid steps must be an int, got {_shown(self.steps)}")
        if self.steps < 1:
            raise ConfigError(f"grid needs at least one point, got steps={_shown(self.steps)}")
        for name in ("start", "stop"):  # stored as floats, the type the grid is made of
            object.__setattr__(self, name, _real(getattr(self, name), f"grid {name}"))
        if not self.start <= self.stop:
            raise ConfigError(f"grid start {self.start} exceeds stop {self.stop}")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be 'start:stop:steps', got {_shown(text)}")
        try:
            return cls(float(parts[0]), float(parts[1]), int(parts[2]))
        except ConfigError as exc:
            raise ConfigError(f"bad grid {_shown(text)}: {exc}") from None
        except ValueError as exc:  # float and int echo the text they read
            raise ConfigError(f"bad grid {_shown(text)}: {_bounded(str(exc))}") from None

    def values(self) -> np.ndarray:
        return (np.array([self.start]) if self.steps == 1
                else np.linspace(self.start, self.stop, self.steps))


#: Outer grid of an l_eq_rprime sweep given neither grid.
_DEFAULT_INDIST_GRID = GridSpec(0.0, 1.0, 11)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters, checked once when built; degree grids (and the default
    outer grid) need the r' = l family, plain l grids work with any constraint."""

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
        return canonical_theta(self.target, self.statistics) if self.theta is None else self.theta

    def __post_init__(self) -> None:
        if not isinstance(self.statistics, ParticleStatistics):
            raise ConfigError("statistics must be a ParticleStatistics, got "
                              + _shown(self.statistics))
        grids = (self.p_grid, *(g for g in (self.indist_grid, self.l_grid) if g is not None))
        if not all(isinstance(grid, GridSpec) for grid in grids):
            raise ConfigError(f"grids must be GridSpecs, got {_shown(grids)}")
        for name in ("theta", "lprime"):  # stored as floats
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (isinstance(self.target, str) and self.target in TARGETS):
            raise ConfigError(f"target must be 1_minus or 1_plus, got {_shown(self.target)}")
        if not (isinstance(self.constraint, str) and self.constraint in CONSTRAINTS):
            raise ConfigError(f"constraint must be one of {CONSTRAINTS}, got "
                              + _shown(self.constraint))
        if not (isinstance(self.format, str) and self.format in FORMATS):
            raise ConfigError(f"format must be csv, json or svg, got {_shown(self.format)}")
        if self.indist_grid is not None and self.l_grid is not None:
            raise ConfigError("give either indist_grid or l_grid, not both")
        if self.indist_grid is not None and self.constraint != "l_eq_rprime":
            raise ConfigError("indistinguishability grids require the l_eq_rprime constraint")
        if self.constraint == "free" and self.lprime is None:
            raise ConfigError("the free constraint needs an explicit lprime value")
        if self.constraint != "free" and self.lprime is not None:
            raise ConfigError("lprime is only meaningful with the free constraint")
        if self.lprime is not None and not 0.0 <= self.lprime <= 1.0:
            raise ConfigError(f"lprime must lie in [0, 1], got {self.lprime!r}")
        for name, grid in (("indistinguishability", self.indist_grid), ("l", self.l_grid),
                           ("noise-probability", self.p_grid)):
            if grid is not None and not (0.0 <= grid.start and grid.stop <= 1.0):
                raise ConfigError(f"{name} grid must lie in [0, 1]")
        outer = (self.indist_grid or self.l_grid or _DEFAULT_INDIST_GRID).steps
        if outer * self.p_grid.steps > MAX_SWEEP_ROWS:
            raise ConfigError(f"a sweep of {_shown(outer)} x {_shown(self.p_grid.steps)} points "
                              f"exceeds the limit of {MAX_SWEEP_ROWS} rows")
        if self.l_grid is None and self.constraint != "l_eq_rprime":
            raise ConfigError(f"constraint {self.constraint!r} needs an explicit l_grid")


# ---------------------------------------------------------------------------
# the r' = l family and its indistinguishability degree
# ---------------------------------------------------------------------------

def _peaked_degree(l1, r1, l2, r2):
    """Degree of indistinguishability of the peaked waves l1|L> + r1|R> and
    l2|L> + r2|R> (phases drop out): h(l1^2 r2^2 / (l1^2 r2^2 + r1^2 l2^2)),
    elementwise over arrays.  Where neither assignment is detectable (both
    waves on one mode) the degree is undefined and reads 0; that cannot
    happen on the r' = l family, where the denominator is l^4 + r^4 >= 1/2.
    """
    p12 = l1 * l1 * (r2 * r2)
    p21 = l2 * l2 * (r1 * r1)
    z = np.asarray(p12 + p21)
    defined = z > 0.0
    return binary_entropy(np.divide(p12, z, out=np.zeros_like(z), where=defined))


def _family_degree(l: np.ndarray) -> np.ndarray:
    """``_peaked_degree(l, r, r, l)`` for r = sqrt(1 - l^2), with no check of l: the
    same arithmetic in the same order, less the zero guard, since z = l^4 + r^4 >= 1/2."""
    r = _unit_r(l)
    ll, rr = l * l, r * r
    p12 = ll * ll
    return _entropy(p12 / (p12 + rr * rr))


def indist_on_family(l):
    """Degree of indistinguishability on the r' = l family (so l' = r),
    elementwise over an array of l.  An l that is not finite or lies
    outside [0, 1] raises :class:`ConfigError`."""
    l = np.asarray(l, dtype=float)
    if not np.all((0.0 <= l) & (l <= 1.0)):
        raise ConfigError(f"l must be finite and lie in [0, 1], got {l!r}")
    return _family_degree(l)[()]


def l_for_indist(target):
    """Invert :func:`indist_on_family` on the monotone branch l in [1/sqrt(2), 1],
    elementwise over an array of degrees, to within ``_L_TOL`` in l.

    The result is the bisection's (:func:`_bisect`) to the bit.  Each root is first
    guessed in closed form (:func:`_root_guess`), and the bisection's halvings are
    walked taking each step by ``mid < guess``, as many as halve the bracket to
    ``_L_TOL``.  Each step is then checked against the bisection's own rules at
    once: its test ``degree > target``, in one evaluation of the degree at every
    visited midpoint, and its stop, which must come after the last step and not
    before.  A target with any step in doubt is bisected again."""
    target = np.asarray(target, dtype=float)
    if not np.all((0.0 <= target) & (target <= 1.0)):
        raise ConfigError(f"indistinguishability degree must lie in [0, 1], got {target!r}")
    flat = target.ravel()
    guess = _root_guess(flat)
    lo, hi = np.full(flat.shape, _SQRT_HALF), np.ones(flat.shape)
    los, his, mids = [], [], []  # each step's bracket and midpoint
    for _ in range(_halvings()):
        mid = 0.5 * (lo + hi)
        above = mid < guess
        los.append(lo)
        his.append(hi)
        mids.append(mid)
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    # the bisection stops at the first bracket no wider than _L_TOL; at one of two
    # adjacent floats it stops too, but that bracket is wider than any below _L_TOL
    # and no halving narrows it, so the width tests below find it
    doubt = ~(hi - lo <= _L_TOL)
    if mids:
        los, his, mids = np.array(los), np.array(his), np.array(mids)
        doubt |= ~(his - los > _L_TOL).all(axis=0)
        doubt |= ((_family_degree(mids) > flat) != (mids < guess)).any(axis=0)
    doubt &= (0.0 < flat) & (flat < 1.0)
    l = 0.5 * (lo + hi)
    if doubt.any():
        l[doubt] = _bisect(flat[doubt])
    l = np.where(flat >= 1.0, _SQRT_HALF, np.where(flat <= 0.0, 1.0, l))
    return l.reshape(target.shape)[()]


def _halvings() -> int:
    """How many halvings take the bracket [1/sqrt(2), 1] to ``_L_TOL`` wide, in exact
    arithmetic: the steps of every interior bisection, unless rounding moves a
    bracket across ``_L_TOL`` (then :func:`l_for_indist` finds it in doubt).  0 where
    the bisection stops at adjacent floats only, so that every target is bisected."""
    return max(0, math.ceil(math.log2((1.0 - _SQRT_HALF) / _L_TOL))) if _L_TOL > 0.0 else 0


def _bisect(target: np.ndarray) -> np.ndarray:
    """The plain bisection of :func:`l_for_indist` for a 1-D array of degrees in
    [0, 1], the interior ones at least: each entry halves its own interval of l
    until it is below ``_L_TOL`` or down to adjacent floats; the degree falls
    monotonically from 1 at 1/sqrt(2) to 0 at 1."""
    lo = np.full(target.shape, _SQRT_HALF)
    hi = np.ones(target.shape)
    active = (hi - lo > _L_TOL) & (0.0 < target) & (target < 1.0)
    while active.any():
        mid = 0.5 * (lo + hi)
        # adjacent floats: each interior target stops at _L_TOL after exactly 39
        # halvings, never here, but this is what stops the loop at a tolerance <= 0
        active &= (lo < mid) & (mid < hi)
        above = active & (_family_degree(mid) > target)
        np.copyto(lo, mid, where=above)
        np.copyto(hi, mid, where=active & ~above)
        active &= hi - lo > _L_TOL
    return 0.5 * (lo + hi)


def _root_guess(target: np.ndarray) -> np.ndarray:
    """An estimate of the l in [1/sqrt(2), 1] at which the family degree is each
    target, for a 1-D array of degrees (the entries outside (0, 1) read as 1/2).

    On the family the degree is h(c) with c = r^4 / (l^4 + r^4) in [0, 1/2], so
    c = h^-1(D) and l = sqrt(sqrt(q) / (sqrt(q) + sqrt(c))) with q = 1 - c.  The
    root c starts below from the bound h(c) <= (4 c (1 - c))^(1/ln 4), and Newton's
    steps on the concave h rise from there towards it."""
    d = np.where((0.0 < target) & (target < 1.0), target, 0.5)
    y = d ** math.log(4.0)
    c = y / (2.0 + 2.0 * np.sqrt(1.0 - y))  # (1 - sqrt(1 - y)) / 2, with no cancellation
    for _ in range(_NEWTON_STEPS):
        c = np.clip(c, _TINY, 0.5)
        slope = np.log2((1.0 - c) / c)  # h'(c), 0 at c = 1/2 only
        c = c - np.divide(_entropy(c) - d, slope, out=np.zeros_like(c), where=slope > 0.0)
    c = np.clip(c, _TINY, 0.5)
    q = 1.0 - c
    return np.sqrt(np.sqrt(q) / (np.sqrt(q) + np.sqrt(c)))


def _second_wave(constraint: str, l, lprime_fixed: float | None):
    """l' and r' of the second wave of each family.  On the r' = l family
    r' is l itself, so the degree there is :func:`indist_on_family`'s."""
    if constraint == "l_eq_rprime":
        return _unit_r(l), l
    lprime = l if constraint == "l_eq_lprime" else np.full_like(l, lprime_fixed)
    return lprime, _unit_r(lprime)


def _family_ls(config: SweepConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The l, l' and r' of each family of the outer grid."""
    if config.indist_grid is not None:
        l = l_for_indist(config.indist_grid.values())
    elif config.l_grid is not None:
        l = config.l_grid.values()
    else:  # the r' = l family, the only one a config may leave without a grid
        l = l_for_indist(_DEFAULT_INDIST_GRID.values())
    return (l, *_second_wave(config.constraint, l, config.lprime))


# ---------------------------------------------------------------------------
# the row table and its evaluation
# ---------------------------------------------------------------------------

#: One sweep row: the ``CSV_FIELDS`` columns, ``violated`` (the Bell-region
#: column, 1 where B > 2) and ``flagged`` (detection probability below
#: ``FLAG_PROBABILITY``, metrics zeroed where the projection is undefined),
#: which no encoder writes.
ROW_DTYPE = np.dtype([(name, "U7" if name == "statistics" else "f8") for name in CSV_FIELDS]
                     + [("violated", "i8"), ("flagged", "?")])


def _flagged(rows: XStateRows) -> np.ndarray:
    """Rows whose projection is undefined or whose detection probability is
    below ``FLAG_PROBABILITY``."""
    return ~rows.defined | (rows.probability < FLAG_PROBABILITY)


class _Layout(NamedTuple):
    """A sweep as it is computed, each column held at the size it varies on: ``grid``
    columns have one entry per noise level (``n_p`` of them), ``families`` columns one
    per family and ``rows`` columns one per row, family-major (row ``f * n_p + k`` is
    family f at level k).  A flat table is a layout of one noise level whose columns
    are all rows."""

    n_p: int
    grid: dict[str, np.ndarray]
    families: dict[str, np.ndarray]
    rows: dict[str, np.ndarray]

    @property
    def size(self) -> int:
        return len(self.rows["flagged"])

    def column(self, name: str) -> tuple[str, np.ndarray]:
        """The kind of the column ``name`` (``grid``, ``families`` or ``rows``) and its entries."""
        return next((kind, getattr(self, kind)[name]) for kind in ("grid", "families", "rows")
                    if name in getattr(self, kind))


def _sweep_layout(config: SweepConfig) -> _Layout:
    """The layout of the sweep of ``config``: every family of the outer grid as one
    :class:`~islocc.xstate.WernerFamily` stack evaluated at every noise level."""
    theta = config.resolved_theta()
    p = config.p_grid.values()
    l, lprime, rprime = _family_ls(config)
    # both waves on one mode: degree and projection undefined, rows zeroed and flagged
    indist = _peaked_degree(l, _unit_r(l), lprime, rprime)
    rows = WernerFamily(config.target, l, lprime, config.statistics, theta).evaluate(p)
    families = {"l": l, "lprime": lprime, "theta": np.full(len(l), theta),
                "statistics": np.full(len(l), str(config.statistics)), "indist": indist}
    return _Layout(len(p), {"p": p}, families, {
        "concurrence": rows.concurrence, "eof": rows.eof, "p_lr": rows.probability,
        "bell": rows.bell, "violated": (rows.bell > 2.0).astype(np.int64),
        "flagged": _flagged(rows)})


def _warn_flagged(layout: _Layout) -> None:
    """One ``RuntimeWarning`` for the flagged rows of ``layout``, if any, attributed to
    the caller of the function that calls this one."""
    count = int(np.count_nonzero(layout.rows["flagged"]))
    if count:
        warnings.warn(f"{count} grid point(s) have detection probability below "
                      f"{FLAG_PROBABILITY:g}; rows kept with metrics zeroed where undefined",
                      RuntimeWarning, stacklevel=3)


def run_sweep(config: SweepConfig) -> np.recarray:
    """Evaluate the full pipeline over the configured grid: every family of
    the outer grid as one :class:`~islocc.xstate.WernerFamily` stack.

    Returns one ``ROW_DTYPE`` table, each field filled as a whole column.
    Rows are ordered by the outer (l or indistinguishability) grid first and
    the noise-probability grid second.  Flagged rows are kept, with one
    ``RuntimeWarning`` attributed to the caller.
    """
    layout = _sweep_layout(config)
    _warn_flagged(layout)
    table = np.recarray(layout.size, dtype=ROW_DTYPE)
    for name, values in layout.grid.items():  # each family's rows take the grid in turn
        table[name].reshape(-1, layout.n_p)[...] = values
    for name, values in layout.families.items():  # and their family's entry
        table[name].reshape(-1, layout.n_p)[...] = values[:, None]
    for name, values in layout.rows.items():
        table[name] = values
    return table


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
        return {field.name: getattr(self, field.name) for field in fields(self)}


class _Probe(NamedTuple):
    """One family of the r' = l line, its worst noise level and the CHSH value and
    concurrence there, in ThresholdResult's order."""

    degree: float
    l: float
    worst_p: float
    bell: float
    concurrence: float


def _guide_bell(target: str, eta: int, theta: float, l: float) -> float:
    """B* of the r' = l family at ``l`` in plain floats, as ``worst_bell`` takes it:
    D = l^2 e^{i theta}, X = eta r^2, |a|^2 and |b|^2 = |D +- X|^2 / 2, and
    B = 2 |(a0 + a1 p, b0 + b1 p)| / w with w = w0 + w1 p, least at p = 0, at p = 1,
    at the root of y or at the foot in [0, 1]; B reads 0 where w is at most
    ``_UNDEFINED_RTOL``, as an undefined projection does."""
    ll = l * l
    d_re, d_im, x = ll * math.cos(theta), ll * math.sin(theta), eta * max(0.0, 1.0 - ll)
    a2, b2 = 0.5 * ((d_re + x) ** 2 + d_im ** 2), 0.5 * ((d_re - x) ** 2 + d_im ** 2)
    v0, y0 = (a2, a2) if target == "1_plus" else (b2, -b2)
    u1, v1, y1 = 0.5 * a2, 0.25 * (a2 + b2) - v0, 0.25 * (a2 - b2) - y0
    w0, a1, w1, b0, b1 = 2.0 * v0, 2.0 * (u1 - v1), 2.0 * (u1 + v1), 2.0 * y0, 2.0 * y1
    g0, g1 = b0 * b1 - w0 * a1, a1 * a1 + b1 * b1  # a0 = -w0
    best = math.inf
    for p in (0.0, 1.0, -y0 / y1 if y1 else 0.0,
              (w1 * (w0 * w0 + b0 * b0) - g0 * w0) / c1 if (c1 := g1 * w0 - g0 * w1) else 0.0):
        if 0.0 <= p <= 1.0:
            w = w0 + w1 * p
            bell = 2.0 * math.hypot(a1 * p - w0, b0 + b1 * p) / w if w > _UNDEFINED_RTOL else 0.0
            best = bell if bell < best else best
    return best


def _guided_path(target: str, eta: int, theta: float) -> list[float]:
    """l = 1/sqrt(2), then the midpoints :func:`find_threshold`'s bisection visits if
    each probe's B* is :func:`_guide_bell`'s and its degree is taken as
    :func:`_family_degree` takes it, in plain floats; 1/sqrt(2) alone where the
    guide finds no threshold.  It only steers which families are probed together
    and never decides a step."""

    def degree(l: float) -> float:
        r = math.sqrt(max(0.0, 1.0 - l * l))
        p12, p21 = (l * l) ** 2, (r * r) ** 2
        x = p12 / (p12 + p21)
        return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)) if 0.0 < x < 1.0 else 0.0

    path, lo, hi, lo_degree, hi_degree = [_SQRT_HALF], _SQRT_HALF, 1.0, degree(_SQRT_HALF), 0.0
    if _guide_bell(target, eta, theta, _SQRT_HALF) <= 2.0:
        return path
    while lo_degree - hi_degree > _DEGREE_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        path.append(mid)
        if _guide_bell(target, eta, theta, mid) > 2.0:
            lo, lo_degree = mid, degree(mid)
        else:
            hi, hi_degree = mid, degree(mid)
    return path


def find_threshold(config: SweepConfig) -> ThresholdResult:
    """Smallest degree of indistinguishability with min_p B > 2 on the r' = l
    family, by one bisection in l.

    The degree falls monotonically from 1 at l = 1/sqrt(2) to 0 at l = 1, so
    l itself is bisected between a violating and a non-violating end until
    the degrees of the two ends differ by at most ``_DEGREE_TOL``; the
    violating end's degree and l are reported.  Each step takes min_p B in
    closed form from :meth:`~islocc.xstate.WernerFamily.worst_bell` (four
    candidate noise levels evaluated together), so no minimization and no
    inversion of the degree is iterated; the reported concurrence comes from
    the same four rows.  The probes are read from one family stack built up
    front: l = 1/sqrt(2) and the path a plain-float guide (:func:`_guided_path`)
    predicts.  The guide only steers, never decides: every step is taken on the
    stack's checked rows, whose bits are each family's alone, and a midpoint the
    stack does not hold is probed alone, so the result is the bisection's to the bit.
    """
    _check_threshold_family(config.constraint)
    theta, stats = config.resolved_theta(), config.statistics

    def probe(ls: list[float]) -> dict[float, _Probe]:  # each l's _Probe, keyed on l
        ls = np.array(ls)
        worst = WernerFamily(config.target, ls, _unit_r(ls), stats, theta).worst_bell()
        fields = (a.tolist() for a in (_family_degree(ls), ls, *worst))
        return {probed.l: probed for probed in map(_Probe._make, zip(*fields))}

    held = probe(_guided_path(config.target, stats.eta, theta))
    inside = held[_SQRT_HALF]  # the degree-1 end
    if inside.bell <= 2.0:
        return ThresholdResult(False, config.target, str(stats))
    # the other end needs no probe: at l = 1 (degree 0) the waves are |L> and
    # e^{i theta}|R>, so the p = 1 candidate is the maximally mixed state, B = 0
    outside_l, outside_degree = 1.0, 0.0
    while inside.degree - outside_degree > _DEGREE_TOL:
        mid = 0.5 * (inside.l + outside_l)
        if mid in (inside.l, outside_l):
            # adjacent floats: searches stop at _DEGREE_TOL within 14 halvings,
            # never here, but this is what stops the loop at a tolerance <= 0
            break
        at_mid = held[mid] if mid in held else probe([mid])[mid]
        if at_mid.bell > 2.0:
            inside = at_mid
        else:
            outside_l, outside_degree = at_mid.l, at_mid.degree
    return ThresholdResult(True, config.target, str(stats), *inside)


def _check_threshold_family(constraint: str) -> None:
    """:class:`ConfigError` unless ``constraint`` names the r' = l family, the only
    one :func:`find_threshold` searches; ``islocc threshold`` checks a config
    file's value with it before the rest of the config."""
    if constraint != "l_eq_rprime":
        raise ConfigError("threshold search is defined on the l_eq_rprime family")


# ---------------------------------------------------------------------------
# output encoding
# ---------------------------------------------------------------------------

#: Rows per block: the encoders write the rows a block at a time, so the template,
#: values and text of one block bound the memory an encoding takes.
_BLOCK_ROWS = 2 ** 14

#: Largest even sample of a row column from which the encoders guess whether its
#: float cells repeat; the sample holds between this and twice as many rows.
_SAMPLE_ROWS = 128

#: The cells ``json`` writes for the floats that are not JSON numbers.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _check_fields(fields: Sequence[str]) -> None:  # before any cell
    if unwritten := [name for name in fields if name not in (*CSV_FIELDS, "violated")]:
        raise ValueError(f"no encoder writes a field {unwritten[0]!r}")


def _table_layout(rows, fields: Sequence[str]) -> _Layout:
    """A table (or a list of its rows) as the layout of one noise level whose every
    column is a row column, once ``fields`` are checked."""
    _check_fields(fields)
    table = np.asarray(rows, dtype=ROW_DTYPE)
    return _Layout(1, {}, {}, {name: table[name] for name in ROW_DTYPE.names})


def _distinct_cells(write, column: np.ndarray) -> list[str] | None:
    """``write(column)`` for a float column, with each distinct bit pattern written once
    and its cell spread back over the rows; None when over half the patterns are distinct.
    Keyed on bits, not values, which would merge ``-0.0`` with ``0.0`` and NaNs."""
    keys, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    if 2 * len(keys) > len(column):
        return None
    return np.array(write(keys.view(np.float64)), dtype=object)[inverse].tolist()


def _repeats(column: np.ndarray) -> bool:
    """Whether a float column may repeat enough that writing each distinct bit pattern
    once pays: at most half the patterns of an even sample of its rows are distinct.
    The sample costs a fraction of the sort that finds the column's own patterns."""
    sample = column[::max(1, len(column) // _SAMPLE_ROWS)].view(np.uint64).tolist()
    return 2 * len(set(sample)) <= len(sample)


def _csv_floats(values: np.ndarray) -> list[str]:
    """The floats with 12 significant digits, as ``"%.12g" %`` writes them."""
    return list(map(float.__format__, values.tolist(), itertools.repeat(".12g")))


def _json_floats(values: np.ndarray) -> list[str]:
    """The floats as ``json`` writes the values their CSV cells read back as: only
    odd cells (near an integer, so also huge or tiny, or not finite) change.  A float
    more than 1e-11 * max(|x|, 1) from every integer lies between 1e-11 and 5e10 and
    its cell is no integer, so the cell's <= 12 digits read back as a normal double
    whose ``repr`` is the cell itself: ``%g`` and ``repr`` differ in form only from
    1e12 up."""
    cells = _csv_floats(values)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and a NaN is odd
        odd = ~(np.abs(values - np.round(values)) > 1e-11 * np.maximum(np.abs(values), 1.0))
    for i in np.flatnonzero(odd).tolist():
        cells[i] = _JSON_NON_FINITE.get(cells[i]) or repr(float(cells[i]))
    return cells


def _cells(column: np.ndarray, floats, quote, raw: bool = False, dedup: bool = True) -> list:
    """The cells of one column or block: floats by ``floats``, each distinct bit pattern
    once where ``dedup`` and at most half are distinct; ints in decimal; text by
    ``quote``, once per text.  ``raw`` leaves the floats as floats, for a ``%``
    conversion to write."""
    if raw:
        return column.tolist()
    if column.dtype.kind == "f":
        cells = _distinct_cells(floats, column) if dedup else None
        return floats(column) if cells is None else cells
    values = column.tolist()
    if column.dtype.kind == "i":
        return list(map(str, values))
    return list(map({text: quote(text) for text in set(values)}.get, values))


def _bits(column: np.ndarray) -> np.ndarray:
    """A float column's bit patterns; any other column itself."""
    return column.view(np.uint64) if column.dtype.kind == "f" else column


def _encode(layout: _Layout, fields: Sequence[str], cells, inline: str | None,
            keys: Sequence[str], *, head: str, end: str, sep: str, tail: str) -> str:
    """``head``, the rows separated by ``sep``, then ``tail``; a row is ``keys[k]``
    and the cell of ``fields[k]`` for each k, then ``end``.  ``cells(column, ...)``
    writes the cells of a column or of a block of it (:func:`_cells`); ``inline``,
    where given, is the ``%`` conversion that writes a float.

    Each column is written at the size it varies on (:class:`_Layout`).  A column
    whose bit patterns are all equal is written once into the literal text around it;
    one bit-identical to the previous written column of its kind and dtype reuses
    that column's cells; on the program's layouts twins sit in such runs (``l``,
    ``lprime``).  A float column has each distinct bit pattern written once where
    :func:`_repeats` says its patterns repeat.  The cells of each grid point and of
    each family are joined once with the texts around them.  Each block of
    ``_BLOCK_ROWS`` rows is one list of those texts and of the row columns' cells,
    filled by slice assignment and joined once.  With ``inline``, a float row column
    with no twin and no repeats is written by it: the joined block is then a ``%``
    template of those columns, so no cell is built for their floats."""
    rows = layout.size
    if not (rows and len(fields)):  # as if no rows
        return head + tail
    # where floats are written by a % conversion, every other % is escaped
    escape = (lambda text: text.replace("%", "%%")) if inline else (lambda text: text)
    pieces = [("text", escape(sep))]  # a row: texts, grid and family cells, row columns
    row_columns = []  # [column, inline, dedup, index of the twin whose cells it reuses]
    previous = {}  # (kind, dtype) -> the last written column of them and its cells or index
    for key, name in zip(keys, fields):
        kind, column = layout.column(name)
        pieces.append(("text", escape(key)))
        bits = _bits(column)
        if (bits == bits[0]).all():
            pieces.append(("text", escape(cells(column[:1], dedup=False)[0])))
            continue
        last = previous.get((kind, column.dtype))
        twin = last[1] if last is not None and (_bits(last[0]) == bits).all() else None
        dedup = column.dtype.kind == "f" and _repeats(column)
        if kind == "rows":
            if twin is not None:  # its cells are written once, for both
                row_columns[twin][1] = False
            previous[kind, column.dtype] = (column, len(row_columns))
            pieces.append((kind, len(row_columns)))
            row_columns.append([column, inline is not None and column.dtype.kind == "f"
                                and not dedup and twin is None, dedup, twin])
        else:
            written = twin if twin is not None else cells(column, dedup=dedup)
            if twin is None and column.dtype.kind == "U":
                written = list(map(escape, written))
            previous[kind, column.dtype] = (column, written)
            pieces.append((kind, written))
    pieces.append(("text", escape(end)))
    segments = _segments(pieces, [inline if raw else None for _, raw, _, _ in row_columns])
    row = [texts if kind is None else None for kind, texts in segments]
    varying = [(j, kind, texts) for j, (kind, texts) in enumerate(segments) if kind is not None]
    blocks = []
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        at = np.arange(start, stop)
        index = {"grid": at % layout.n_p, "families": at // layout.n_p}
        written = []
        for column, raw, dedup, twin in row_columns:
            block = column[start:stop]
            written.append(written[twin] if twin is not None
                           else list(map(escape, cells(block))) if block.dtype.kind == "U"
                           else cells(block, raw=raw, dedup=dedup))
        parts = row * (stop - start)
        for j, kind, texts in varying:
            parts[j::len(row)] = (written[texts] if kind == "rows"
                                  else texts.take(index[kind]).tolist())
        if not start:  # no sep before the first row
            parts[0] = escape(head) + parts[0][len(escape(sep)):]
        if stop == rows:
            parts[-1] += escape(tail)
        text = "".join(parts)
        if inline:  # the inline floats, row by row
            values = [column for column, (_, raw, _, _) in zip(written, row_columns) if raw]
            interleaved = [None] * ((stop - start) * len(values))
            for j, column in enumerate(values):
                interleaved[j::len(values)] = column
            text %= tuple(interleaved)
        blocks.append(text)
    return "".join(blocks)


def _segments(pieces: list, inline: list) -> list[tuple[str | None, object]]:
    """A row's pieces as segments: runs of texts and grid cells, or of texts and family
    cells, each joined to one text per grid point or family (an object array), or to one
    text where the run holds neither; and each row column alone, by its index.  A row
    column ``j`` written by the conversion ``inline[j]`` is that text instead."""
    segments, run, current = [], [], None
    for kind, payload in pieces:
        if kind == "rows" and inline[payload]:
            kind, payload = "text", inline[payload]
        if kind == "text":
            run.append(payload)
            continue
        if kind == "rows" or current not in (None, kind):
            segments.append(_joined(current, run))
            run, current = [], None
        if kind == "rows":
            segments.append((kind, payload))
        else:
            run.append(payload)
            current = kind
    segments.append(_joined(current, run))
    return segments


def _joined(kind: str | None, run: list) -> tuple[str | None, object]:
    """A run of texts and of lists of cells joined: one text per entry of the lists,
    as an object array, or one text where the run holds only texts."""
    if kind is None:
        return None, "".join(run)
    columns = [itertools.repeat(piece) if isinstance(piece, str) else piece for piece in run]
    return kind, np.array(list(map("".join, zip(*columns))), dtype=object)


def _write_csv(layout: _Layout, fields: Sequence[str]) -> str:
    return _encode(layout, fields, functools.partial(_cells, floats=_csv_floats, quote=str),
                   "%.12g", ["", *[","] * (len(fields) - 1)],
                   head=",".join(fields) + "\n", end="\n", sep="", tail="")


def _write_json(layout: _Layout, fields: Sequence[str]) -> str:
    if not (layout.size and len(fields)):
        return json.dumps({"records": []}, indent=2) + "\n"
    keys = [("," if k else "") + f"\n      {json.dumps(name)}: " for k, name in enumerate(fields)]
    return _encode(layout, fields, functools.partial(_cells, floats=_json_floats,
                                                     quote=json.dumps),
                   None, keys, head='{\n  "records": [\n    {', end="\n    }", sep=",\n    {",
                   tail="\n  ]\n}\n")


def records_to_csv(rows, fields: Sequence[str]) -> str:
    """Render sweep rows (a ``ROW_DTYPE`` table or a list of its rows) as CSV, floats
    with 12 significant digits, so identical configurations give identical bytes.
    Only the varying columns are written per row (see :func:`_encode`); a float
    column of repeated values has each distinct cell written once."""
    return _write_csv(_table_layout(rows, fields), fields)


def records_to_json(rows, fields: Sequence[str]) -> str:
    """The rows of :func:`records_to_csv` as ``json.dumps({"records": [...]},
    indent=2)`` writes their CSV cells read back: a float cell is its CSV text, read
    back only where its ``repr`` can differ."""
    return _write_json(_table_layout(rows, fields), fields)


def sweep_text(config: SweepConfig, fields: Sequence[str]) -> str:
    """The sweep of ``config`` in its format, CSV or JSON, with the columns ``fields``:
    the bytes of :func:`records_to_csv` or :func:`records_to_json` of
    :func:`run_sweep`, written from the sweep's layout with no flat table built.
    Flagged rows are kept, with one ``RuntimeWarning`` attributed to the caller."""
    _check_fields(fields)
    layout = _sweep_layout(config)
    _warn_flagged(layout)
    return (_write_csv if config.format == "csv" else _write_json)(layout, fields)
