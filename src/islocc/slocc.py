"""Projection onto separated operational regions, one detection per region.

Post-selecting exactly one particle in each of N separated modes maps an
N-particle state of identical particles onto a 2^N-dimensional register of
addressable pseudospins.  The projected density matrix is normalized to
unit trace; the detection probability is the projected weight divided by
the global trace of the input ensemble; one pass over the Fock states of
the mode basis gives both.  :func:`normalize_block` divides one raw
projected block, and :class:`ProjectedDensityMatrix` checks the result
once, with :func:`check_density_matrix`.

This general-N path, with its eigen-solver check, is the oracle of the
sweep and threshold rows, which :class:`~islocc.xstate.WernerFamily`
evaluates as closed-form X states.  The state-check tolerances are that
module's, so both paths accept the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

import numpy as np

from .amplitudes import BOSON, ElementaryKet
from .ensembles import MixedState, state_overlap
from .states import SPIN_ORDER, ModeBasis, SingleParticleState, Spin
from .xstate import _EIG_ATOL, _HERM_ATOL, _UNDEFINED_RTOL, _ZERO_TRACE_ATOL

__all__ = [
    "ProjectionUndefinedError",
    "ZeroTraceError",
    "ProjectedDensityMatrix",
    "spin_configurations",
    "computational_kets",
    "check_density_matrix",
    "normalize_block",
    "project",
]

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


def check_density_matrix(matrix: np.ndarray, probability: float) -> None:
    """Raise ``ValueError`` unless the matrix is Hermitian, of unit trace and
    positive semidefinite and the detection probability lies in [0, 1],
    each within rounding slack.  Written so that NaN fails each test."""
    if not np.max(np.abs(matrix - matrix.conj().T)) <= _HERM_ATOL:
        raise ValueError("projected matrix is not Hermitian")
    trace = np.trace(matrix)
    if not abs(trace.real - 1.0) <= _HERM_ATOL:
        raise ValueError(f"projected matrix trace {trace!r} != 1")
    if not np.linalg.eigvalsh(matrix)[0] >= -_EIG_ATOL:
        raise ValueError("projected matrix has a significantly negative eigenvalue")
    if not -1e-12 <= probability <= 1 + 1e-12:
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
        probability = float(self.probability)
        check_density_matrix(m, probability)
        # accepted within the check's rounding slack, stored in [0, 1]
        object.__setattr__(self, "probability", min(max(probability, 0.0), 1.0))

    @property
    def n(self) -> int:
        return len(self.regions)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues with float-level negatives clamped to zero."""
        vals = np.linalg.eigvalsh(self.matrix)
        return np.clip(vals, 0.0, None)


def normalize_block(raw: np.ndarray, global_trace: float,
                    regions: Sequence[str]) -> ProjectedDensityMatrix:
    """Divide a raw projected block by its trace, the detection weight, and
    that weight by the global trace of the input ensemble.

    Raises :class:`ZeroTraceError` when the global trace vanishes and
    :class:`ProjectionUndefinedError` when the detection weight does, both
    before any division.
    """
    weight = float(np.trace(raw).real)
    if not global_trace > _ZERO_TRACE_ATOL:
        raise ZeroTraceError("state has zero global trace; nothing to project")
    if not weight > _UNDEFINED_RTOL * max(global_trace, 1.0):
        raise ProjectionUndefinedError(
            "detection probability vanishes for regions " + repr(tuple(regions)))
    m = raw / weight
    return ProjectedDensityMatrix((m + m.conj().T) / 2.0, weight / global_trace, regions)


def _detection(m: MixedState,
               regions: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray, float]:
    """Checked regions, the raw projected block and the global trace, from
    one pass over the normalized Fock states b of the (mode, spin) slots.
    The overlaps <b|state_e> of the detection kets (one particle per region)
    fill the block; every other b adds w_e |<b|state_e>|^2 to the block's
    trace.  No norm is formed as a difference such as 1 - |<psi1|psi2>|^2,
    so weight / global trace <= 1 holds in floating point.
    """
    regions = _check_regions(m.basis, regions)
    if len(regions) != m.n:
        raise ValueError(f"{m.n} particles need {m.n} regions, got {len(regions)}")
    members = [(w, s) for w, s in m.ensemble if w > 0]
    weights = np.array([w for w, _ in members])
    slots = [(mode, spin) for mode in m.basis.labels for spin in SPIN_ORDER]
    singles = {slot: SingleParticleState.localized(m.basis, *slot) for slot in slots}
    columns = {spins: k for k, spins in enumerate(spin_configurations(m.n))}
    choose = combinations_with_replacement if m.statistics is BOSON else combinations
    detected = np.zeros((len(columns), len(members)), dtype=complex)
    undetected = 0.0
    for occupied in choose(slots, m.n):
        detection = sorted(mode for mode, _ in occupied) == sorted(regions)
        if detection:  # the computational ket, its particles in region order
            occupied = sorted(occupied, key=lambda slot: regions.index(slot[0]))
        ket = ElementaryKet(tuple(singles[slot] for slot in occupied), m.statistics)
        overlaps = np.array([state_overlap(ket, s) for _, s in members])
        if detection:
            detected[columns[tuple(spin for _, spin in occupied)]] = overlaps
        else:
            # <b|b> = prod n! over the slot occupations (1 for fermions)
            norm_sq = math.prod(math.factorial(occupied.count(slot)) for slot in set(occupied))
            undetected += float(weights @ np.abs(overlaps) ** 2) / norm_sq
    raw = (detected * weights) @ detected.conj().T
    return regions, raw, float(np.trace(raw).real) + undetected


def project(m: MixedState, regions: Sequence[str]) -> ProjectedDensityMatrix:
    """Post-select one particle per region and return the normalized register state.

    Raises :class:`ProjectionUndefinedError` when the detection weight
    vanishes (the post-selected state does not exist), and
    :class:`ZeroTraceError` when the global trace of the input is zero.
    """
    regions, raw, global_trace = _detection(m, regions)
    return normalize_block(raw, global_trace, regions)
