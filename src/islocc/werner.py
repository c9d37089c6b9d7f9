"""Werner-state preparation for two identical qubits under white noise.

Two constructions of the same family are provided and tested against each
other:

* :func:`werner_direct` — the Bell-basis mixture
  (1-p) |target><target| + (p/4) sum over the four Bell states, written
  with the *unnormalized* Bell states of the overlapping wave functions;
* :func:`depolarize_then_deform` — the physical pipeline: a localized
  single-particle depolarizing channel on one of two initially separated
  qubits, followed by a spatial deformation that makes the wave functions
  overlap.

:func:`project_werner` projects one noise level of one family through the
amplitude engine (:func:`bell_states`, ``state_overlap``, ``pure_norm_sq``)
and the eigen solvers of :mod:`~islocc.entanglement`; it is the oracle of
the production path.  That path is :class:`WernerFamily`, which evaluates
a whole stack of families, each over an array of noise levels, in closed
form: for peaked waves the Bell overlaps with the detection kets and the
Bell-state norms have closed forms (:func:`_bell_overlaps`).  Neither
target has weight on up-up or down-down, and the two ``2_`` states enter
the noise with equal weight, so their rho03 coherences cancel: every
projected row is a real X state with rho03 = 0, fixed by three entries
u = rho00 = rho33, v = rho11 = rho22 and y = rho12 that are affine in p,
as is the global trace.  Its concurrence and CHSH value follow from those
entries elementwise, with no 4x4 matrix and no eigen solver.  The same
affinity gives each family's worst noise level for the CHSH value in
closed form (:meth:`WernerFamily.worst_bell`).

Closed forms for the post-selected concurrence and detection probability
of both targets are included as independent references for the numeric
pipeline.  They hold for the canonical phase pairings (singlet target:
fermions theta=0, bosons theta=pi; triplet target: the opposite), which is
also what :func:`canonical_theta` returns; the numeric pipeline itself
accepts any theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitudes import FERMION, ElementaryKet, ParticleStatistics
from .ensembles import MixedState, PureNState
from .entanglement import _eof
from .slocc import (_EIG_ATOL, _HERM_ATOL, _UNDEFINED_RTOL, _ZERO_TRACE_ATOL,
                    ProjectedDensityMatrix, project)
from .states import (DOWN, UP, ModeBasis, PeakedParams, SingleParticleState,
                     SpatialWave, Spin, make_peaked)

__all__ = [
    "LR_BASIS",
    "TARGETS",
    "WernerSpec",
    "canonical_theta",
    "spec_from_l",
    "wave_state",
    "bell_states",
    "werner_direct",
    "KrausSet",
    "depolarizing_kraus",
    "apply_spin_operator",
    "depolarize_then_deform",
    "project_werner",
    "WaveStack",
    "XStateRows",
    "WernerFamily",
    "closed_form_concurrence_minus",
    "closed_form_probability_minus",
    "closed_form_concurrence_plus",
    "closed_form_probability_plus",
]

LR_BASIS = ModeBasis(("L", "R"))

#: Bell-state keys in the fixed mixture order.
TARGETS = ("1_plus", "1_minus", "2_plus", "2_minus")

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class WernerSpec:
    """Parameters of one noisy preparation: noise probability, target Bell
    state, the two spatial wave functions and the exchange statistics."""

    p: float
    target: str
    psi1: SpatialWave
    psi2: SpatialWave
    statistics: ParticleStatistics

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability must lie in [0, 1], got {self.p!r}")
        _check_target(self.target)


def _check_target(target: str) -> None:
    if target not in ("1_minus", "1_plus"):
        raise ValueError(f"target must be '1_minus' or '1_plus', got {target!r}")


def canonical_theta(target: str, statistics: ParticleStatistics) -> float:
    """Phase of psi2 for which the closed forms of each target apply."""
    if target == "1_minus":
        return 0.0 if statistics is FERMION else math.pi
    if target == "1_plus":
        return math.pi if statistics is FERMION else 0.0
    raise ValueError(f"unknown target {target!r}")


def spec_from_l(p: float, target: str, l: float, lprime: float,
                statistics: ParticleStatistics,
                theta: float | None = None) -> WernerSpec:
    """Convenience constructor: psi1 from l (no phase), psi2 from l' and theta
    (canonical pairing when theta is omitted)."""
    if theta is None:
        theta = canonical_theta(target, statistics)
    return WernerSpec(p, target, SpatialWave.from_l(l), SpatialWave.from_l(lprime, theta),
                      statistics)


def wave_state(wave: SpatialWave, spin: Spin, basis: ModeBasis = LR_BASIS) -> SingleParticleState:
    """Peaked single-particle state carrying ``spin``."""
    return make_peaked(PeakedParams(wave.l, wave.r, wave.theta, spin), basis)


def bell_states(psi1: SpatialWave, psi2: SpatialWave, statistics: ParticleStatistics,
                basis: ModeBasis = LR_BASIS) -> dict[str, PureNState]:
    """The four Bell superpositions over |psi1 s1, psi2 s2> with coefficients
    +-1/sqrt(2).  They are unnormalized as two-particle states whenever the
    wave functions overlap."""
    def ket(s1: Spin, s2: Spin) -> ElementaryKet:
        return ElementaryKet((wave_state(psi1, s1, basis), wave_state(psi2, s2, basis)),
                             statistics)

    ud, du = ket(UP, DOWN), ket(DOWN, UP)
    uu, dd = ket(UP, UP), ket(DOWN, DOWN)
    return {
        "1_plus": PureNState(((_SQRT_HALF, ud), (_SQRT_HALF, du))),
        "1_minus": PureNState(((_SQRT_HALF, ud), (-_SQRT_HALF, du))),
        "2_plus": PureNState(((_SQRT_HALF, uu), (_SQRT_HALF, dd))),
        "2_minus": PureNState(((_SQRT_HALF, uu), (-_SQRT_HALF, dd))),
    }


def werner_direct(spec: WernerSpec, basis: ModeBasis = LR_BASIS) -> MixedState:
    """Bell-basis mixture (1-p)|target><target| + (p/4) sum of all four Bell
    states, kept unnormalized; the global trace is evaluated downstream."""
    bells = bell_states(spec.psi1, spec.psi2, spec.statistics, basis)
    ensemble = [(1.0 - spec.p, bells[spec.target])]
    ensemble += [(spec.p / 4.0, bells[name]) for name in TARGETS]
    return MixedState(tuple(ensemble))


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of a single-particle spin channel localized on one mode."""

    operators: tuple[np.ndarray, ...]
    acting_mode: str

    _COMPLETENESS_ATOL = 1e-12

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        if any(k.shape != (2, 2) for k in ops):
            raise ValueError("Kraus operators must be 2x2 spin matrices")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(2))) > self._COMPLETENESS_ATOL:
            raise ValueError("Kraus operators do not resolve the identity")


def depolarizing_kraus(p: float, acting_mode: str) -> KrausSet:
    """Depolarizing channel: K0 = sqrt(1 - 3p/4) I, K_i = sqrt(p/4) sigma_i."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must lie in [0, 1], got {p!r}")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    k0 = math.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=complex)
    scale = math.sqrt(p / 4.0)
    return KrausSet((k0, scale * sx, scale * sy, scale * sz), acting_mode)


def apply_spin_operator(op: np.ndarray, state: SingleParticleState,
                        mode: str) -> SingleParticleState:
    """Apply a 2x2 spin operator (rows/columns ordered up, down) to the
    component of ``state`` supported on ``mode``; other modes are untouched."""
    op = np.asarray(op, dtype=complex)
    out: dict[tuple[str, Spin], complex] = {}
    for (m, spin), value in state.amplitudes.items():
        if m != mode:
            out[(m, spin)] = out.get((m, spin), 0j) + value
            continue
        col = 0 if spin is UP else 1
        for row, new_spin in enumerate((UP, DOWN)):
            key = (m, new_spin)
            out[key] = out.get(key, 0j) + op[row, col] * value
    return SingleParticleState(state.basis, out)


def _apply_kraus_branch(k: np.ndarray, state: PureNState, mode: str) -> PureNState:
    new_terms = []
    for coeff, ket in state.terms:
        particles = []
        touched = 0
        for particle in ket.particles:
            support = particle.spatial_support()
            if mode in support:
                if support != {mode}:
                    raise ValueError(
                        f"channel on {mode!r} requires the particle fully localized there")
                particles.append(apply_spin_operator(k, particle, mode))
                touched += 1
            else:
                particles.append(particle)
        if touched != 1:
            raise ValueError(
                f"channel on {mode!r} expects exactly one particle there per ket, found {touched}")
        new_terms.append((coeff, ElementaryKet(tuple(particles), ket.statistics)))
    return PureNState(tuple(new_terms))


def depolarize_then_deform(p: float, target: str, psi1: SpatialWave, psi2: SpatialWave,
                           statistics: ParticleStatistics,
                           basis: ModeBasis = LR_BASIS) -> MixedState:
    """Physical noisy preparation: start from the target Bell state on two
    separated staging modes, depolarize the pseudospin of the first qubit,
    then deform the staging modes onto the overlapping wave functions."""
    _check_target(target)
    staging = ModeBasis(("L1", "L2"))

    def staged(mode: str, spin: Spin) -> SingleParticleState:
        return SingleParticleState.localized(staging, mode, spin)

    sign = 1.0 if target == "1_plus" else -1.0
    initial = PureNState((
        (_SQRT_HALF, ElementaryKet((staged("L1", UP), staged("L2", DOWN)), statistics)),
        (sign * _SQRT_HALF, ElementaryKet((staged("L1", DOWN), staged("L2", UP)), statistics)),
    ))

    channel = depolarizing_kraus(p, "L1")
    branches = [_apply_kraus_branch(k, initial, channel.acting_mode)
                for k in channel.operators]

    substitution = {
        "L1": {"L": complex(psi1.l), "R": psi1.right_amplitude},
        "L2": {"L": complex(psi2.l), "R": psi2.right_amplitude},
    }
    deformed = []
    for branch in branches:
        terms = tuple(
            (coeff, ElementaryKet(tuple(part.substitute_modes(substitution, basis)
                                        for part in ket.particles), ket.statistics))
            for coeff, ket in branch.terms)
        deformed.append((1.0, PureNState(terms)))
    return MixedState(tuple(deformed))


def project_werner(spec: WernerSpec, regions=("L", "R"),
                   basis: ModeBasis = LR_BASIS) -> ProjectedDensityMatrix:
    """Full numeric pipeline: build the mixture and post-select one particle
    per operational region."""
    return project(werner_direct(spec, basis), regions)


class WaveStack(NamedTuple):
    """Peaked spatial waves l|L> + r e^{i theta}|R> of a stack of families,
    one array entry per family.  :class:`WernerFamily` reads the same three
    fields from a single :class:`~islocc.states.SpatialWave`."""

    l: np.ndarray
    r: np.ndarray
    theta: np.ndarray | float = 0.0

    @classmethod
    def from_l(cls, l, theta=0.0) -> "WaveStack":
        """r = sqrt(1 - l^2) elementwise, as :meth:`SpatialWave.from_l`."""
        l = np.asarray(l, dtype=float)
        return cls(l, np.sqrt(np.maximum(0.0, 1.0 - l * l)), theta)


def _bell_overlaps(psi1, psi2, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of what :func:`bell_states` gives through the amplitude
    engine, for n families of peaked waves (``eta`` the exchange sign).

    With D = l1 r2 e^{i theta2} and X = eta l2 r1 e^{i theta1}, let
    a = (D + X)/sqrt(2) and b = (D - X)/sqrt(2).  The overlaps of the Bell
    states with the detection kets |L s, R s'> (up-up, up-down, down-up,
    down-down) are a (0, 1, 1, 0) for 1_plus, b (0, 1, -1, 0) for 1_minus
    and a (1, 0, 0, +-1) for 2_plus and 2_minus.  A squared norm splits by
    detection sector: 2|c|^2 (one particle per region, c = a or b) plus
    (1 + eta s)(l1^2 l2^2 + r1^2 r2^2) (both in L or both in R), with
    s = -1 for 1_minus and +1 for the others; this is 1 + eta s
    |<psi1|psi2>|^2 without its cancellation.  Returns a, b and
    ``same_region`` = l1^2 l2^2 + r1^2 r2^2, one entry per family.
    """
    a1 = psi1.r * np.exp(1j * psi1.theta)
    a2 = psi2.r * np.exp(1j * psi2.theta)
    d = psi1.l * a2
    x = eta * psi2.l * a1
    same_region = psi1.l ** 2 * psi2.l ** 2 + psi1.r ** 2 * psi2.r ** 2
    return (d + x) * _SQRT_HALF, (d - x) * _SQRT_HALF, same_region


@dataclass(frozen=True)
class XStateRows:
    """Post-selected X states and their diagnostics, one array entry per
    row (family x noise level).

    ``u, v, y`` are the entries rho00 = rho33, rho11 = rho22 and rho12 of
    each real, X-shaped, unit-trace matrix; its rho03 is 0.  Rows whose
    input has zero global trace (``zero_trace``) or whose detection weight
    vanishes (``undefined``) read 0 in every field.
    """

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    probability: np.ndarray
    zero_trace: np.ndarray
    undefined: np.ndarray
    concurrence: np.ndarray
    eof: np.ndarray
    bell: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return ~(self.zero_trace | self.undefined)

    def matrices(self) -> np.ndarray:
        """The rows as an (n, 4, 4) stack of complex density matrices, in
        the layout of :class:`~islocc.slocc.ProjectedDensityMatrix`, with
        rho03 = rho30 = 0."""
        m = np.zeros((len(self.u), 4, 4), dtype=complex)
        m[:, 0, 0] = m[:, 3, 3] = self.u
        m[:, 1, 1] = m[:, 2, 2] = self.v
        m[:, 1, 2] = m[:, 2, 1] = self.y
        return m


class WernerFamily:
    """All noise levels of a stack of (target, psi1, psi2, statistics)
    preparations, one family per entry.

    ``psi1`` and ``psi2`` are :class:`~islocc.states.SpatialWave` objects
    (one family) or :class:`WaveStack` arrays (one family per entry);
    ``target`` and ``statistics`` are one value for every family or one per
    family.  The constructor takes the Bell overlap amplitudes a, b and the
    Bell-state norms in closed form (:func:`_bell_overlaps`; the amplitude
    path of :func:`project_werner` is its oracle).  Every projected row is
    a real X state with rho03 = 0, so each family keeps the target's raw
    entries (W v, W y) = (T, tau T), with T = |a|^2 and tau = +1 for
    1_plus, T = |b|^2 and tau = -1 for 1_minus (its W u is 0); the noise
    sum's (W u, W v, W y) = (2|a|^2, |a|^2 + |b|^2, |a|^2 - |b|^2); and
    the double-occupancy parts of both global traces, (1 + tau eta) S and
    (4 + 2 eta) S with S = l1^2 l2^2 + r1^2 r2^2.  :meth:`evaluate`
    combines them as (1-p) target + (p/4) sum for an array of noise
    probabilities and normalizes, checks and analyzes every row
    elementwise.  It agrees with :func:`project_werner` followed by
    :func:`~islocc.entanglement.analyze` at each family and noise level.
    """

    def __init__(self, target, psi1, psi2, statistics):
        targets = (target,) if isinstance(target, str) else tuple(target)
        for name in targets:
            _check_target(name)
        stats = ((statistics,) if isinstance(statistics, ParticleStatistics)
                 else tuple(statistics))
        l1, r1, t1, l2, r2, t2, eta, tau = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (
                psi1.l, psi1.r, psi1.theta, psi2.l, psi2.r, psi2.theta,
                [s.eta for s in stats],
                [1.0 if name == "1_plus" else -1.0 for name in targets])))
        a, b, same_region = _bell_overlaps(WaveStack(l1, r1, t1), WaveStack(l2, r2, t2), eta)
        a2, b2 = a.real ** 2 + a.imag ** 2, b.real ** 2 + b.imag ** 2
        t = np.where(tau > 0.0, a2, b2)
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

    def worst_bell(self) -> tuple[np.ndarray, np.ndarray]:
        """Noise probability p* in [0, 1] minimizing each family's CHSH value,
        and that value B*, as two arrays with one entry per family.

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
        together, and the smallest CHSH value wins.  A zero weight can only
        sit at p = 0 or 1 (w is affine and >= 0); such rows read B = 0, as
        in :meth:`evaluate`.
        """
        v0, y0 = self._target
        noise_u, noise_v, noise_y = self._noise
        u1, v1, y1 = noise_u / 4.0, noise_v / 4.0 - v0, noise_y / 4.0 - y0
        w0, a1, w1 = 2.0 * v0, 2.0 * (u1 - v1), 2.0 * (u1 + v1)
        a0, b0, b1 = -w0, 2.0 * y0, 2.0 * y1  # the target's W u is 0
        g0, g1 = a0 * a1 + b0 * b1, a1 * a1 + b1 * b1
        p = np.stack([np.zeros_like(w0), np.ones_like(w0), _root_in_unit(y0, y1),
                      _root_in_unit(g0 * w0 - w1 * (a0 * a0 + b0 * b0), g1 * w0 - g0 * w1)],
                     axis=1)
        bell = self._evaluate(p).bell.reshape(p.shape)
        best = (np.arange(len(p)), np.argmin(bell, axis=1))
        return p[best], bell[best]

    def _evaluate(self, p: np.ndarray) -> XStateRows:
        """Rows of every family at its noise levels: ``p`` is one array of
        levels for all families or one row of levels per family."""
        shape = (len(self._noise_double), p.shape[-1])
        keep, noise = np.broadcast_to(1.0 - p, shape), np.broadcast_to(p / 4.0, shape)
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
        u, v, y = (np.divide(entry, weight, out=np.zeros(shape), where=ok)
                   for entry in (wu, wv, wy))
        probability = np.divide(weight, global_trace, out=np.zeros(shape), where=ok)
        _check_rows(ok, u, v, y, probability)
        concurrence = np.clip(2.0 * (np.abs(y) - u), 0.0, 1.0)
        bell = 4.0 * np.sqrt((u - v) ** 2 + y * y)
        return XStateRows(*(a.ravel() for a in (
            u, v, y, probability, zero_trace, undefined, concurrence, _eof(concurrence), bell)))


def _check_rows(ok, u, v, y, probability) -> None:
    """Raise ``ValueError`` unless every row in ``ok`` is of unit trace and
    positive semidefinite (its eigenvalues are u, u and v +- y) and its
    detection probability lies in [0, 1]: the tests of
    :func:`~islocc.slocc.check_density_matrix`, written so that NaN fails."""
    if not np.all(~ok | (np.abs(2.0 * (u + v) - 1.0) <= _HERM_ATOL)):
        raise ValueError("projected row trace != 1")
    if not np.all(~ok | ((u >= -_EIG_ATOL) & (v >= np.abs(y) - _EIG_ATOL))):
        raise ValueError("projected row has a significantly negative eigenvalue")
    in_unit = (probability >= 0.0) & (probability <= 1.0)
    if not np.all(~ok | in_unit):
        raise ValueError(f"probability {probability[ok & ~in_unit]!r} outside [0, 1]")


def _root_in_unit(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """The root -c0/c1 of c0 + c1 p where it lies in [0, 1], else 0 (always
    a candidate); only quotients of magnitude <= 1 are formed."""
    inside = (c1 != 0.0) & (np.sign(c0) != np.sign(c1)) & (np.abs(c0) <= np.abs(c1))
    return np.divide(-c0, c1, out=np.zeros_like(c0), where=inside)


# ---------------------------------------------------------------------------
# closed-form references (singlet target: fermions theta=0 / bosons theta=pi;
# triplet target: fermions theta=pi / bosons theta=0)
# ---------------------------------------------------------------------------

def _cross_terms(l: float, r: float, lp: float, rp: float) -> tuple[float, float, float]:
    s_plus = (l * rp + lp * r) ** 2
    s_minus = (l * rp - lp * r) ** 2
    q = l * lp * r * rp
    return s_plus, s_minus, q


def closed_form_concurrence_minus(l: float, r: float, lp: float, rp: float,
                                  p: float) -> float:
    """Post-selected concurrence for the singlet-type target."""
    s_plus, s_minus, q = _cross_terms(l, r, lp, rp)
    den = 4.0 * (l * l * rp * rp + lp * lp * r * r + q * (2.0 - 3.0 * p))
    if abs(den) < 1e-30:
        raise ValueError("closed form undefined: the pair is never detected in both regions")
    return max(0.0, ((4.0 - 3.0 * p) * s_plus - 3.0 * p * s_minus) / den)


def closed_form_probability_minus(l: float, r: float, lp: float, rp: float, p: float,
                                  statistics: ParticleStatistics) -> float:
    """Detection probability for the singlet-type target."""
    eta = statistics.eta
    _, _, q = _cross_terms(l, r, lp, rp)
    num = 2.0 * (l * l * rp * rp + lp * lp * r * r + q * (2.0 - 3.0 * p))
    den = 2.0 - eta * (2.0 - 3.0 * p) * (l * lp - eta * r * rp) ** 2
    return num / den


def closed_form_concurrence_plus(l: float, r: float, lp: float, rp: float,
                                 p: float) -> float:
    """Post-selected concurrence for the triplet-type target."""
    s_plus, s_minus, q = _cross_terms(l, r, lp, rp)
    den = 4.0 * (l * l * rp * rp + lp * lp * r * r + q * (2.0 - p))
    if abs(den) < 1e-30:
        raise ValueError("closed form undefined: the pair is never detected in both regions")
    return max(0.0, ((4.0 - 5.0 * p) * s_plus - p * s_minus) / den)


def closed_form_probability_plus(l: float, r: float, lp: float, rp: float, p: float,
                                 statistics: ParticleStatistics) -> float:
    """Detection probability for the triplet-type target."""
    eta = statistics.eta
    _, _, q = _cross_terms(l, r, lp, rp)
    num = 2.0 * (l * l * rp * rp + lp * lp * r * r + q * (2.0 - p))
    den = 2.0 + eta * (2.0 - p) * (l * lp + eta * r * rp) ** 2
    return num / den
