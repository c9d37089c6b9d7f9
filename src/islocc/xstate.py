"""Closed-form X-state rows of noisy Werner preparations: the production
path of ``islocc sweep``, ``bell-region`` and ``threshold``.

:class:`WernerFamily` evaluates a stack of families at an array of noise
levels from three entries per row (every projected row is a real X state
with rho03 = 0), with no 4x4 matrix and no eigen solver, and gives each
family's worst CHSH noise level in closed form, from one checked pass over four
candidate levels per family: a threshold probe is one :class:`WernerFamily` and
that one pass.  This module imports only numpy and the standard library.  The
amplitude and eigen path (:mod:`islocc.werner`, :mod:`islocc.slocc`,
:mod:`islocc.entanglement`) is its oracle in :mod:`islocc.verify` and the tests;
it takes the exchange statistics, the state-check tolerances and the entropy
formula from here, so each has one definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ParticleStatistics",
    "BOSON",
    "FERMION",
    "binary_entropy",
    "canonical_theta",
    "XStateRows",
    "WernerFamily",
]

#: A global trace at or below this is an empty state.
_ZERO_TRACE_ATOL = 1e-12
#: Detection weight at or below this times max(global trace, 1) is no detection.
_UNDEFINED_RTOL = 1e-14

_HERM_ATOL = 1e-12
_EIG_ATOL = 1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class ParticleStatistics(Enum):
    """Exchange statistics: +1 (boson) or -1 (fermion)."""

    BOSON = 1
    FERMION = -1

    @property
    def eta(self) -> int:
        return self.value

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "ParticleStatistics":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"statistics must be 'boson' or 'fermion', got {text!r}") from None


BOSON = ParticleStatistics.BOSON
FERMION = ParticleStatistics.FERMION


def _entropy(x: np.ndarray) -> np.ndarray:
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)  # keeps log2(0) out of the masked entries
    return -(y * np.log2(y) + (1.0 - y) * np.log2(1.0 - y)) * inside


def _eof(c: np.ndarray) -> np.ndarray:
    c = np.clip(c, 0.0, 1.0)
    return _entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), continuous at 0 and 1; elementwise
    over an array, a float for a float."""
    return _entropy(np.asarray(x, dtype=float))[()]


def _check_target(target: str) -> None:
    if target not in ("1_minus", "1_plus"):
        raise ValueError(f"target must be '1_minus' or '1_plus', got {target!r}")


def canonical_theta(target: str, statistics: ParticleStatistics) -> float:
    """Phase of psi2 for which the closed forms of each target apply
    (singlet target: fermions theta=0, bosons theta=pi; triplet target: the
    opposite)."""
    if target == "1_minus":
        return 0.0 if statistics is FERMION else math.pi
    if target == "1_plus":
        return math.pi if statistics is FERMION else 0.0
    raise ValueError(f"unknown target {target!r}")


def _unit_r(l):
    """r = sqrt(1 - l^2) elementwise: the R amplitude of a unit peaked wave,
    as :meth:`~islocc.states.SpatialWave.from_l` takes it."""
    return np.sqrt(np.maximum(0.0, 1.0 - l * l))


def _bell_overlaps(l1, l2, theta, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of what :func:`~islocc.werner.bell_states` gives through
    the amplitude engine, for n families of peaked waves l1|L> + r1|R> and
    l2|L> + r2 e^{i theta}|R> with r = sqrt(1 - l^2) (``eta`` the exchange
    sign).

    With D = l1 r2 e^{i theta} and X = eta l2 r1, let
    a = (D + X)/sqrt(2) and b = (D - X)/sqrt(2).  The overlaps of the Bell
    states with the detection kets |L s, R s'> (up-up, up-down, down-up,
    down-down) are a (0, 1, 1, 0) for 1_plus, b (0, 1, -1, 0) for 1_minus
    and a (1, 0, 0, +-1) for 2_plus and 2_minus.  A squared norm splits by
    detection sector: 2|c|^2 (one particle per region, c = a or b) plus
    (1 + eta s)(l1^2 l2^2 + r1^2 r2^2) (both in L or both in R), with
    s = -1 for 1_minus and +1 for the others; this is 1 + eta s
    |<psi1|psi2>|^2 without its cancellation.  Returns a, b and
    ``same_region`` = l1^2 l2^2 + r1^2 r2^2, one entry per family.  A
    phase on psi1's R amplitude would enter |a| and |b| only through its
    difference with theta, so psi1 carries none.
    """
    r1, r2 = _unit_r(l1), _unit_r(l2)
    d = l1 * (r2 * np.exp(1j * theta))
    x = eta * l2 * r1
    same_region = l1 ** 2 * l2 ** 2 + r1 ** 2 * r2 ** 2
    return (d + x) * _SQRT_HALF, (d - x) * _SQRT_HALF, same_region


@dataclass(frozen=True)
class XStateRows:
    """Post-selected X states and their diagnostics, one array entry per
    row (family x noise level).

    ``u, v, y`` are the entries rho00 = rho33, rho11 = rho22 and rho12 of
    each real, X-shaped, unit-trace matrix; its rho03 is 0.  Rows whose
    input has zero global trace (``zero_trace``) or whose detection weight
    vanishes (``undefined``) read 0 in every field.  ``eof`` is no field:
    it is derived from ``concurrence`` when first read, so a caller that
    reads only the CHSH value (the threshold search) takes no logarithm.
    """

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    probability: np.ndarray
    zero_trace: np.ndarray
    undefined: np.ndarray
    concurrence: np.ndarray
    bell: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return ~(self.zero_trace | self.undefined)

    @cached_property
    def eof(self) -> np.ndarray:
        return _eof(self.concurrence)


class WernerFamily:
    """All noise levels of a stack of preparations of one target and one
    statistics, one family per entry of (l, l', theta).

    Family f prepares psi1 = l|L> + r|R> and psi2 = l'|L> + r' e^{i theta}|R>,
    with r = sqrt(1 - l^2) and r' = sqrt(1 - l'^2); ``l``, ``lprime`` and
    ``theta`` are scalars or 1-D arrays that broadcast together, and l, l'
    must be finite and in [0, 1] and theta finite, else ``ValueError``.  The
    constructor takes the Bell overlap amplitudes a, b and the Bell-state
    norms in closed form (:func:`_bell_overlaps`; the amplitude path of
    :func:`~islocc.werner.project_werner` is its oracle).  Every projected
    row is a real X state with rho03 = 0, so each family keeps the target's
    raw entries (W v, W y) = (T, tau T), with T = |a|^2 and tau = +1 for
    1_plus, T = |b|^2 and tau = -1 for 1_minus (its W u is 0); the noise
    sum's (W u, W v, W y) = (2|a|^2, |a|^2 + |b|^2, |a|^2 - |b|^2); and the
    double-occupancy parts of both global traces, (1 + tau eta) S and
    (4 + 2 eta) S with S = l^2 l'^2 + r^2 r'^2.  :meth:`evaluate` combines
    them as (1-p) target + (p/4) sum for an array of noise probabilities and
    normalizes, checks and analyzes every row elementwise.  It agrees with
    :func:`~islocc.werner.project_werner` followed by
    :func:`~islocc.entanglement.analyze` at each family and noise level.
    """

    def __init__(self, target: str, l, lprime, statistics: ParticleStatistics, theta):
        _check_target(target)
        l, lprime, theta = (np.asarray(v, dtype=float) for v in (l, lprime, theta))
        valid = np.atleast_1d((0.0 <= l) & (l <= 1.0) & (0.0 <= lprime) & (lprime <= 1.0)
                              & np.isfinite(theta))
        if not (valid.ndim == 1 and valid.all()):
            raise ValueError(f"l and l' must be finite and lie in [0, 1] and theta must be "
                             f"finite, one family per entry of 1-D arrays; got l={l!r}, "
                             f"lprime={lprime!r}, theta={theta!r}")
        # theta needs no broadcast: every entry below takes its shape from l and l'
        l, lprime = (v if v.shape == valid.shape else np.broadcast_to(v, valid.shape)
                     for v in (l, lprime))
        eta, tau = statistics.eta, 1.0 if target == "1_plus" else -1.0
        a, b, same_region = _bell_overlaps(l, lprime, theta, eta)
        a2, b2 = a.real ** 2 + a.imag ** 2, b.real ** 2 + b.imag ** 2
        t = a2 if tau > 0.0 else b2
        self._target = (t, tau * t)  # (W v, W y)
        self._noise = (2.0 * a2, a2 + b2, a2 - b2)  # (W u, W v, W y)
        self._target_double = (1.0 + tau * eta) * same_region
        self._noise_double = (4.0 + 2.0 * eta) * same_region

    def evaluate(self, p: np.ndarray) -> XStateRows:
        """Projected states and their diagnostics for each family and noise
        probability, family-major: row ``f * len(p) + k`` is family f at p[k].

        Rows whose global trace or detection weight vanishes are zeroed
        (``XStateRows.defined`` is False there) and read 0 in every
        diagnostic.
        """
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError(f"noise probabilities must lie in [0, 1], got {p!r}")
        return self._evaluate(p)

    def worst_bell(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Noise probability p* in [0, 1] minimizing each family's CHSH value, that
        value B* and the concurrence C* at p* (the bits ``evaluate([p*])`` gives the
        family alone), as three arrays with one entry per family.

        The raw entries W (u, v, y)(p) = E + p (N/4 - E) of every row are
        affine in p, and so are the contrast a = 2 W (u - v), the detection
        weight w = 2 W (u + v) and b = 2 W y.  So (a, b)/w runs along a
        straight line, and B = 2|(a, b)|/w (reflecting b at the root of y
        leaves it unchanged) is smallest at p = 0, at p = 1 or at the foot
        of the perpendicular from the origin, where (a a' + b b') w =
        (a^2 + b^2) w': linear in p, the p^2 terms cancel.  The root of y
        is a candidate too: where the minimum sits there, it can give B to
        the last bit when the foot rounds above it.  The candidates that
        fall in [0, 1] go through the checked path of :meth:`evaluate`
        together, and the smallest CHSH value wins, with C* read off its row.
        A zero weight can only sit at p = 0 or 1 (w is affine and >= 0); such
        rows read B = 0, as in :meth:`evaluate`; no entanglement of formation is computed.
        """
        v0, y0 = self._target
        noise_u, noise_v, noise_y = self._noise
        u1, v1, y1 = noise_u / 4.0, noise_v / 4.0 - v0, noise_y / 4.0 - y0
        w0, a1, w1 = 2.0 * v0, 2.0 * (u1 - v1), 2.0 * (u1 + v1)
        a0, b0, b1 = -w0, 2.0 * y0, 2.0 * y1  # the target's W u is 0
        g0, g1 = a0 * a1 + b0 * b1, a1 * a1 + b1 * b1
        p = np.zeros((len(w0), 4))
        p[:, 1] = 1.0
        _root_in_unit(y0, y1, p[:, 2])
        _root_in_unit(g0 * w0 - w1 * (a0 * a0 + b0 * b0), g1 * w0 - g0 * w1, p[:, 3])
        rows = self._evaluate(p)
        # the flat index of each family's best row
        best = np.arange(0, p.size, 4) + rows.bell.reshape(p.shape).argmin(axis=1)
        return p.ravel().take(best), rows.bell.take(best), rows.concurrence.take(best)

    def _evaluate(self, p: np.ndarray) -> XStateRows:
        """Rows of every family at its noise levels: ``p`` is one array of
        levels for all families or one row of levels per family."""
        keep, noise = 1.0 - p, p / 4.0  # broadcast against the (n, 1) entries below
        target_v, target_y = (entry[:, None] for entry in self._target)
        noise_u, noise_v, noise_y = (entry[:, None] for entry in self._noise)
        wu = noise * noise_u
        wv = keep * target_v + noise * noise_v
        wy = keep * target_y + noise * noise_y
        weight = 2.0 * (wu + wv)
        # the same float weight plus the double-occupancy terms (>= 0), so
        # weight / global_trace <= 1 holds in floating point
        global_trace = (weight + keep * self._target_double[:, None]
                        + noise * self._noise_double[:, None])
        zero_trace = ~(global_trace > _ZERO_TRACE_ATOL)
        undefined = ~zero_trace & ~(weight > _UNDEFINED_RTOL * np.maximum(global_trace, 1.0))
        ok = ~(zero_trace | undefined)
        u, v, y, probability = np.zeros((4, *weight.shape))
        for entry, total, into in ((wu, weight, u), (wv, weight, v), (wy, weight, y),
                                   (weight, global_trace, probability)):
            np.divide(entry, total, out=into, where=ok)
        _check_rows(ok, u, v, y, probability)
        concurrence = np.minimum(np.maximum(2.0 * (np.abs(y) - u), 0.0), 1.0)
        bell = 4.0 * np.sqrt((u - v) ** 2 + y * y)
        return XStateRows(*(a.ravel() for a in (
            u, v, y, probability, zero_trace, undefined, concurrence, bell)))


def _check_rows(ok, u, v, y, probability) -> None:
    """Raise ``ValueError`` unless every row in ``ok`` is of unit trace and
    positive semidefinite (its eigenvalues are u, u and v +- y) and its
    detection probability lies in [0, 1]: the tests of
    :func:`~islocc.slocc.check_density_matrix`, written so that NaN fails."""
    skip = ~ok
    if not (skip | (np.abs(2.0 * (u + v) - 1.0) <= _HERM_ATOL)).all():
        raise ValueError("projected row trace != 1")
    if not (skip | ((u >= -_EIG_ATOL) & (v >= np.abs(y) - _EIG_ATOL))).all():
        raise ValueError("projected row has a significantly negative eigenvalue")
    in_unit = (probability >= 0.0) & (probability <= 1.0)
    if not (skip | in_unit).all():
        raise ValueError(f"probability {probability[ok & ~in_unit]!r} outside [0, 1]")


def _root_in_unit(c0: np.ndarray, c1: np.ndarray, out: np.ndarray) -> None:
    """Write into the zeros of ``out`` the root -c0/c1 of c0 + c1 p where it lies in
    [0, 1], leaving 0 (always a candidate) elsewhere; only quotients of magnitude
    <= 1 are formed."""
    inside = (c1 != 0.0) & (np.sign(c0) != np.sign(c1)) & (np.abs(c0) <= np.abs(c1))
    np.divide(-c0, c1, out=out, where=inside)
