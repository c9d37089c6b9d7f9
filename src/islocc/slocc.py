"""Projection onto separated operational regions, one detection per region.

Post-selecting exactly one particle in each of N separated modes maps an
N-particle state of identical particles onto a 2^N-dimensional register of
addressable pseudospins.  The projected density matrix is normalized to
unit trace; the detection probability is the projected weight divided by
the global trace of the input ensemble.  :func:`normalize_stack` does this,
and checks the result with :func:`check_density_stack`, for a whole stack
of raw blocks at once; :func:`project` divides a stack of one the same way
and leaves the check to :class:`ProjectedDensityMatrix`.

This general-N path, with its eigen-solver check, is the oracle of the
sweep and threshold rows, which :class:`~islocc.werner.WernerFamily`
evaluates as closed-form X states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .amplitudes import ElementaryKet
from .ensembles import MixedState, mixed_trace, state_overlap
from .states import DOWN, UP, ModeBasis, SingleParticleState, Spin

__all__ = [
    "ProjectionUndefinedError",
    "ZeroTraceError",
    "ProjectedDensityMatrix",
    "ProjectedStack",
    "spin_configurations",
    "computational_kets",
    "check_density_stack",
    "normalize_stack",
    "project",
    "slocc_probability",
]

#: Fixed computational ordering of the two spin values.
SPIN_ORDER = (UP, DOWN)

#: A global trace at or below this is an empty state.
_ZERO_TRACE_ATOL = 1e-12
#: Detection weight at or below this times max(global trace, 1) is no detection.
_UNDEFINED_RTOL = 1e-14

_HERM_ATOL = 1e-12
_EIG_ATOL = 1e-10


class ProjectionUndefinedError(ValueError):
    """The state has (numerically) zero weight in the detection subspace."""


class ZeroTraceError(ValueError):
    """The input ensemble has zero global trace (an empty physical state)."""


def spin_configurations(n: int) -> list[tuple[Spin, ...]]:
    """Spin tuples in fixed computational order; for n=2 this is
    (up,up), (up,down), (down,up), (down,down)."""
    return list(product(SPIN_ORDER, repeat=n))


def _check_regions(basis: ModeBasis, regions: Sequence[str]) -> tuple[str, ...]:
    regions = tuple(regions)
    if len(set(regions)) != len(regions):
        raise ValueError(f"region labels must be distinct, got {regions!r}")
    for label in regions:
        if label not in basis:
            raise ValueError(f"region {label!r} is not a mode of the basis {basis.labels!r}")
    return regions


def computational_kets(basis: ModeBasis, regions: Sequence[str],
                       statistics) -> list[ElementaryKet]:
    """Elementary kets |R_1 s_1, ..., R_N s_N> spanning the detection subspace."""
    regions = _check_regions(basis, regions)
    kets = []
    for spins in spin_configurations(len(regions)):
        particles = tuple(SingleParticleState.localized(basis, mode, spin)
                          for mode, spin in zip(regions, spins))
        kets.append(ElementaryKet(particles, statistics))
    return kets


def check_density_stack(matrices: np.ndarray, probability: np.ndarray) -> None:
    """Raise ``ValueError`` unless every matrix of an (n, d, d) stack is
    Hermitian, of unit trace and positive semidefinite, and every detection
    probability lies in [0, 1].  Written so that NaN fails each test."""
    herm = np.max(np.abs(matrices - matrices.conj().swapaxes(-1, -2)), axis=(-2, -1))
    if not np.all(herm <= _HERM_ATOL):
        raise ValueError("projected matrix is not Hermitian")
    trace = np.trace(matrices, axis1=-2, axis2=-1)
    if not np.all(np.abs(trace.real - 1.0) <= _HERM_ATOL):
        raise ValueError(f"projected matrix trace {trace[np.argmax(np.abs(trace - 1.0))]!r} != 1")
    if not np.all(np.linalg.eigvalsh(matrices)[..., 0] >= -_EIG_ATOL):
        raise ValueError("projected matrix has a significantly negative eigenvalue")
    if not np.all((probability >= -1e-12) & (probability <= 1 + 1e-12)):
        raise ValueError(f"probability {probability!r} outside [0, 1]")


@dataclass(frozen=True)
class ProjectedDensityMatrix:
    """Unit-trace density matrix on the post-selected (region, spin) register.

    ``matrix`` is 2^N x 2^N over the computational basis ordered as in
    :func:`spin_configurations`; ``probability`` is the chance of the
    post-selection succeeding on the globally normalized input.
    """

    matrix: np.ndarray
    probability: float
    regions: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "regions", tuple(self.regions))
        dim = 2 ** len(self.regions)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match {len(self.regions)} regions")
        check_density_stack(m[None], np.array([self.probability], dtype=float))
        # accepted within the check's rounding slack, stored in [0, 1]
        object.__setattr__(self, "probability", min(max(float(self.probability), 0.0), 1.0))

    @property
    def n(self) -> int:
        return len(self.regions)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues with float-level negatives clamped to zero."""
        vals = np.linalg.eigvalsh(self.matrix)
        return np.clip(vals, 0.0, None)


@dataclass(frozen=True)
class ProjectedStack:
    """Post-selected states of a stack of raw projected blocks.  Rows whose
    input has zero global trace (``zero_trace``) or whose detection weight
    vanishes (``undefined``) hold a zero matrix and zero probability."""

    matrices: np.ndarray
    probability: np.ndarray
    zero_trace: np.ndarray
    undefined: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return ~(self.zero_trace | self.undefined)


def normalize_stack(raw: np.ndarray, global_trace: np.ndarray) -> ProjectedStack:
    """Divide each raw block of an (n, d, d) stack by its trace and each
    detection weight by its global trace.  Rows with nothing to divide by
    are masked before any division and come back zeroed.  The other rows
    must pass :func:`check_density_stack`; their detection probabilities,
    accepted there within its rounding slack, are then clipped to [0, 1]."""
    projected = _divide_stack(raw, global_trace)
    ok = projected.defined
    check_density_stack(projected.matrices[ok], projected.probability[ok])
    np.clip(projected.probability, 0.0, 1.0, out=projected.probability)
    return projected


def _divide_stack(raw: np.ndarray, global_trace: np.ndarray) -> ProjectedStack:
    """The division of :func:`normalize_stack`, unchecked and unclipped."""
    weight = np.trace(raw, axis1=-2, axis2=-1).real
    zero_trace = ~(global_trace > _ZERO_TRACE_ATOL)
    undefined = ~zero_trace & ~(weight > _UNDEFINED_RTOL * np.maximum(global_trace, 1.0))
    ok = ~(zero_trace | undefined)
    matrices = np.zeros_like(raw)
    probability = np.zeros(len(raw))
    m = raw[ok] / weight[ok, None, None]
    matrices[ok] = (m + m.conj().swapaxes(-1, -2)) / 2.0
    probability[ok] = weight[ok] / global_trace[ok]
    return ProjectedStack(matrices, probability, zero_trace, undefined)


def _projected_weight(m: MixedState, kets: list[ElementaryKet]) -> tuple[np.ndarray, float]:
    """Raw projected block and its trace (the unnormalized detection weight)."""
    dim = len(kets)
    raw = np.zeros((dim, dim), dtype=complex)
    for w, s in m.ensemble:
        if w == 0:
            continue
        v = np.array([state_overlap(k, s) for k in kets], dtype=complex)
        raw += w * np.outer(v, v.conj())
    return raw, float(np.trace(raw).real)


def project(m: MixedState, regions: Sequence[str]) -> ProjectedDensityMatrix:
    """Post-select one particle per region and return the normalized register state.

    Raises :class:`ProjectionUndefinedError` when the detection weight
    vanishes (the post-selected state does not exist), and ``ValueError``
    when the global trace of the input is zero.
    """
    regions = _check_regions(m.basis, regions)
    if len(regions) != m.n:
        raise ValueError(f"{m.n} particles need {m.n} regions, got {len(regions)}")
    kets = computational_kets(m.basis, regions, m.statistics)
    raw, _ = _projected_weight(m, kets)
    # ProjectedDensityMatrix runs the checks of normalize_stack, once
    projected = _divide_stack(raw[None], np.array([mixed_trace(m)]))
    if projected.zero_trace[0]:
        raise ZeroTraceError("state has zero global trace; nothing to project")
    if projected.undefined[0]:
        raise ProjectionUndefinedError(
            "detection probability vanishes for regions " + repr(regions))
    return ProjectedDensityMatrix(projected.matrices[0], float(projected.probability[0]),
                                  regions)


def slocc_probability(m: MixedState, regions: Sequence[str]) -> float:
    """Probability of detecting one particle in each region (post-selection rate)."""
    regions = _check_regions(m.basis, regions)
    if len(regions) != m.n:
        raise ValueError(f"{m.n} particles need {m.n} regions, got {len(regions)}")
    global_trace = mixed_trace(m)
    if not global_trace > _ZERO_TRACE_ATOL:
        raise ZeroTraceError("state has zero global trace")
    kets = computational_kets(m.basis, regions, m.statistics)
    _, weight = _projected_weight(m, kets)
    return weight / global_trace
