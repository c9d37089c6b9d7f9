"""Werner-state preparation through the amplitude engine: the oracle of the
closed-form rows of :mod:`islocc.xstate`, held against them in
:mod:`islocc.verify` and the tests and run by no sweep or threshold search.

Two constructions of the same family are tested against each other:
:func:`werner_direct`, the Bell-basis mixture (1-p) |target><target| +
(p/4) sum over the four *unnormalized* Bell states of the overlapping wave
functions, and :func:`depolarize_then_deform`, a localized depolarizing
channel on one of two separated qubits followed by a spatial deformation
that makes the wave functions overlap.  :func:`project_werner` projects one
noise level of one family for the eigen solvers of
:mod:`~islocc.entanglement`.

The closed forms for the post-selected concurrence and detection
probability of both targets are independent references for the numeric
pipeline.  They hold for the canonical phase pairings of
:func:`~islocc.xstate.canonical_theta` (singlet target: fermions theta=0,
bosons theta=pi; triplet target: the opposite); the pipeline accepts any
theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .amplitudes import ElementaryKet
from .ensembles import MixedState, PureNState
from .entanglement import SIGMA_X, SIGMA_Y, SIGMA_Z
from .slocc import ProjectedDensityMatrix, project
from .states import (DOWN, UP, ModeBasis, SingleParticleState, SpatialWave, Spin,
                     make_peaked)
from .xstate import _SQRT_HALF, ParticleStatistics, _check_target, canonical_theta

__all__ = [
    "LR_BASIS",
    "TARGETS",
    "WernerSpec",
    "spec_from_l",
    "bell_states",
    "werner_direct",
    "KrausSet",
    "depolarizing_kraus",
    "apply_spin_operator",
    "depolarize_then_deform",
    "project_werner",
    "closed_form_concurrence_minus",
    "closed_form_probability_minus",
    "closed_form_concurrence_plus",
    "closed_form_probability_plus",
]

LR_BASIS = ModeBasis(("L", "R"))

#: Bell-state keys in the fixed mixture order.
TARGETS = ("1_plus", "1_minus", "2_plus", "2_minus")


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


def spec_from_l(p: float, target: str, l: float, lprime: float,
                statistics: ParticleStatistics,
                theta: float | None = None) -> WernerSpec:
    """Convenience constructor: psi1 from l (no phase), psi2 from l' and theta
    (canonical pairing when theta is omitted)."""
    if theta is None:
        theta = canonical_theta(target, statistics)
    return WernerSpec(p, target, SpatialWave.from_l(l), SpatialWave.from_l(lprime, theta),
                      statistics)


def bell_states(psi1: SpatialWave, psi2: SpatialWave,
                statistics: ParticleStatistics) -> dict[str, PureNState]:
    """The four Bell superpositions over |psi1 s1, psi2 s2> on ``LR_BASIS``
    with coefficients +-1/sqrt(2).  They are unnormalized as two-particle
    states whenever the wave functions overlap."""
    def ket(s1: Spin, s2: Spin) -> ElementaryKet:
        return ElementaryKet((make_peaked(psi1, s1, LR_BASIS),
                              make_peaked(psi2, s2, LR_BASIS)), statistics)

    ud, du = ket(UP, DOWN), ket(DOWN, UP)
    uu, dd = ket(UP, UP), ket(DOWN, DOWN)
    return {
        "1_plus": PureNState(((_SQRT_HALF, ud), (_SQRT_HALF, du))),
        "1_minus": PureNState(((_SQRT_HALF, ud), (-_SQRT_HALF, du))),
        "2_plus": PureNState(((_SQRT_HALF, uu), (_SQRT_HALF, dd))),
        "2_minus": PureNState(((_SQRT_HALF, uu), (-_SQRT_HALF, dd))),
    }


def werner_direct(spec: WernerSpec) -> MixedState:
    """Bell-basis mixture (1-p)|target><target| + (p/4) sum of all four Bell
    states, kept unnormalized; the global trace is evaluated downstream."""
    bells = bell_states(spec.psi1, spec.psi2, spec.statistics)
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
    k0 = math.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=complex)
    scale = math.sqrt(p / 4.0)
    return KrausSet((k0, scale * SIGMA_X, scale * SIGMA_Y, scale * SIGMA_Z), acting_mode)


def apply_spin_operator(op: np.ndarray, state: SingleParticleState,
                        mode: str) -> SingleParticleState:
    """Apply a 2x2 spin operator (rows/columns ordered up, down) to the
    component of ``state`` supported on ``mode``; other modes are untouched."""
    rows = state.vector.reshape(-1, 2).copy()
    i = state.basis.index(mode)
    rows[i] = np.asarray(op, dtype=complex) @ rows[i]
    return SingleParticleState(state.basis, rows.ravel())


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
                           statistics: ParticleStatistics) -> MixedState:
    """Physical noisy preparation: start from the target Bell state on two
    separated staging modes, depolarize the pseudospin of the first qubit,
    then deform the staging modes onto the overlapping wave functions of
    ``LR_BASIS``."""
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
            (coeff, ElementaryKet(tuple(part.substitute_modes(substitution, LR_BASIS)
                                        for part in ket.particles), ket.statistics))
            for coeff, ket in branch.terms)
        deformed.append((1.0, PureNState(terms)))
    return MixedState(tuple(deformed))


def project_werner(spec: WernerSpec) -> ProjectedDensityMatrix:
    """Full numeric pipeline: build the mixture and post-select one particle
    in each of the regions L and R."""
    return project(werner_direct(spec), ("L", "R"))




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
