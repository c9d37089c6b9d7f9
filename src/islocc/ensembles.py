"""Superpositions and weighted ensembles of identical-particle product kets.

States here are in general *unnormalized*: once single-particle wave
functions overlap, the norm of a product ket departs from 1, and fixing it
early would break the bookkeeping of detection probabilities.  Norms are
therefore evaluated on demand — per pure state with :func:`pure_norm_sq`,
or globally with :func:`mixed_trace`, the weighted sum sum_e w_e <psi_e|psi_e>
of the members' squared norms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .amplitudes import ElementaryKet, ParticleStatistics, amplitude
from .states import NORM_ATOL, ModeBasis

__all__ = [
    "PureNState",
    "MixedState",
    "pure_norm_sq",
    "mixed_trace",
]


@dataclass(frozen=True)
class PureNState:
    """Superposition sum_a c_a |ket_a> of elementary kets."""

    terms: tuple[tuple[complex, ElementaryKet], ...]

    def __post_init__(self):
        terms = tuple((complex(c), k) for c, k in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("a pure state needs at least one term")
        if not all(cmath.isfinite(c) for c, _ in terms):
            raise ValueError("superposition coefficients must be finite")
        first = terms[0][1]
        for _, ket in terms[1:]:
            if ket.n != first.n or ket.statistics is not first.statistics \
                    or ket.basis != first.basis:
                raise ValueError("all kets must share N, statistics and mode basis")

    @property
    def n(self) -> int:
        return self.terms[0][1].n

    @property
    def statistics(self) -> ParticleStatistics:
        return self.terms[0][1].statistics

    @property
    def basis(self) -> ModeBasis:
        return self.terms[0][1].basis


@dataclass(frozen=True)
class MixedState:
    """Weighted ensemble sum_e w_e |state_e><state_e| (weights need not sum to 1)."""

    ensemble: tuple[tuple[float, PureNState], ...]

    def __post_init__(self):
        ensemble = tuple((float(w), s) for w, s in self.ensemble)
        object.__setattr__(self, "ensemble", ensemble)
        if not ensemble:
            raise ValueError("an ensemble needs at least one member")
        if not all(0 <= w < math.inf for w, _ in ensemble):  # NaN fails too
            raise ValueError("ensemble weights must be finite and non-negative")
        if not any(w > 0 for w, _ in ensemble):
            raise ValueError("at least one ensemble weight must be positive")
        first = ensemble[0][1]
        for _, state in ensemble[1:]:
            if state.n != first.n or state.statistics is not first.statistics \
                    or state.basis != first.basis:
                raise ValueError("all ensemble members must share N, statistics and basis")

    @property
    def n(self) -> int:
        return self.ensemble[0][1].n

    @property
    def statistics(self) -> ParticleStatistics:
        return self.ensemble[0][1].statistics

    @property
    def basis(self) -> ModeBasis:
        return self.ensemble[0][1].basis


def pure_norm_sq(state: PureNState) -> float:
    """Squared norm sum_{a,b} conj(c_a) c_b <ket_a|ket_b>; real and >= 0.

    For overlapping wave functions this is where the statistics-dependent
    normalization constants of the Bell-state family come from.
    """
    total = 0j
    for ca, keta in state.terms:
        for cb, ketb in state.terms:
            total += ca.conjugate() * cb * amplitude(keta, ketb)
    if not (abs(total.imag) <= NORM_ATOL and total.real >= -NORM_ATOL):  # NaN fails too
        raise ValueError(f"squared norm is not a non-negative real: {total!r}")
    return max(total.real, 0.0)


def mixed_trace(m: MixedState) -> float:
    """Trace sum_e w_e <state_e|state_e> of the (generally unnormalized) ensemble.

    This is the global normalization constant of the state;
    :mod:`islocc.slocc` sums the same trace over the Fock states of the basis.
    """
    return math.fsum(w * pure_norm_sq(s) for w, s in m.ensemble if w > 0)
