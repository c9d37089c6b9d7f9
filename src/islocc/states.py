"""Single-particle states on a finite orthonormal spatial-mode basis with pseudospin.

Spatial wave functions are represented over a finite set of orthonormal
modes, so a state is one dense complex vector over the (mode, spin) product
basis and every overlap is a vector product.  The workhorse configuration
is a wave function peaked on two measurement regions,

    |psi> = l |L> + r e^{i theta} |R>,      l, r >= 0,  l^2 + r^2 = 1,

tensored with a two-level pseudospin: :class:`SpatialWave` holds
(l, r, theta) and :func:`make_peaked` puts a spin on it.  All objects are
immutable and all operations are pure, so they are safe to evaluate
concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "Spin",
    "UP",
    "DOWN",
    "ModeBasis",
    "SingleParticleState",
    "SpatialWave",
    "make_peaked",
    "inner",
    "SPIN_ORDER",
    "NORM_ATOL",
]

NORM_ATOL = 1e-12


class Spin(Enum):
    """Two-level pseudospin."""

    UP = "up"
    DOWN = "down"

    def __repr__(self):
        return f"Spin.{self.name}"


UP = Spin.UP
DOWN = Spin.DOWN

#: Order of the two spin values in state vectors and computational kets.
SPIN_ORDER = (UP, DOWN)


@dataclass(frozen=True)
class ModeBasis:
    """Ordered set of distinct orthonormal spatial-mode labels.

    The order is fixed for the lifetime of a computation; dense vectors and
    detection kets follow it.  Global traces need no basis at all: they are
    sum_e w_e <psi_e|psi_e> over the ensemble members.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("mode basis must contain at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"mode labels must be unique, got {self.labels!r}")

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"mode {label!r} is not in the basis {self.labels!r}")
        return self.labels.index(label)


@dataclass(frozen=True, init=False, eq=False)
class SingleParticleState:
    """Complex amplitude vector over the (mode, spin) product basis.

    Built from a mapping (mode, spin) -> amplitude or from the whole vector.
    ``vector`` is read-only and ordered mode-major, spin (up, down) minor;
    :attr:`amplitudes` is a derived mapping of its nonzero entries.  States
    are equal when they share the basis and every amplitude, and are not
    hashable.  States are not required to be normalized; constructors that
    promise normalization check it to ``NORM_ATOL``.
    """

    basis: ModeBasis
    vector: np.ndarray

    def __init__(self, basis: ModeBasis,
                 amplitudes: Mapping[tuple[str, Spin], complex] | np.ndarray):
        if isinstance(amplitudes, Mapping):
            vector = np.zeros(2 * len(basis), dtype=complex)
            for (mode, spin), value in amplitudes.items():
                vector[_slot(basis, mode, spin)] = complex(value)
        else:
            vector = np.array(amplitudes, dtype=complex)
        if vector.shape != (2 * len(basis),):
            raise ValueError(f"amplitude vector of shape {vector.shape} does not match "
                             f"the {len(basis)} modes of {basis.labels!r}")
        if not np.isfinite(vector).all():
            raise ValueError("amplitudes must be finite")
        vector.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "vector", vector)

    def __eq__(self, other):
        if not isinstance(other, SingleParticleState):
            return NotImplemented
        return self.basis == other.basis and bool(np.array_equal(self.vector, other.vector))

    @classmethod
    def localized(cls, basis: ModeBasis, mode: str, spin: Spin,
                  amplitude: complex = 1.0) -> "SingleParticleState":
        """Basis ket |mode, spin> scaled by ``amplitude``."""
        return cls(basis, {(mode, spin): amplitude})

    @property
    def amplitudes(self) -> Mapping[tuple[str, Spin], complex]:
        """Read-only mapping (mode, spin) -> amplitude of the nonzero entries."""
        keys = product(self.basis.labels, SPIN_ORDER)
        return MappingProxyType({k: v for k, v in zip(keys, self.vector.tolist()) if v != 0})

    def amplitude(self, mode: str, spin: Spin) -> complex:
        return complex(self.vector[_slot(self.basis, mode, spin)])

    def norm_sq(self) -> float:
        return float(np.vdot(self.vector, self.vector).real)

    def spatial_support(self) -> frozenset[str]:
        """Modes carrying nonzero amplitude."""
        rows = self.vector.reshape(-1, 2)
        return frozenset(mode for mode, row in zip(self.basis.labels, rows) if row.any())

    def substitute_modes(self, mapping: Mapping[str, Mapping[str, complex]],
                         basis: ModeBasis) -> "SingleParticleState":
        """Linear substitution on the spatial part, |m> -> sum_m' c_{m'} |m'>.

        Modes absent from ``mapping`` are carried over unchanged; spin is
        untouched.  The result lives on ``basis``.
        """
        matrix = np.zeros((len(basis), len(self.basis)), dtype=complex)
        for j, mode in enumerate(self.basis.labels):
            for new_mode, coeff in mapping.get(mode, {mode: 1.0}).items():
                matrix[basis.index(new_mode), j] += complex(coeff)
        return SingleParticleState(basis, (matrix @ self.vector.reshape(-1, 2)).ravel())


def _slot(basis: ModeBasis, mode: str, spin: Spin) -> int:
    """Index of |mode, spin> in a state's vector."""
    if not isinstance(spin, Spin):
        raise TypeError(f"spin must be a Spin member, got {spin!r}")
    return 2 * basis.index(mode) + SPIN_ORDER.index(spin)


def inner(a: SingleParticleState, b: SingleParticleState) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.basis != b.basis:
        raise ValueError("states live on different mode bases")
    return complex(np.vdot(a.vector, b.vector))


@dataclass(frozen=True)
class SpatialWave:
    """Spatial part of a peaked wave function, l|L> + r e^{i theta}|R>."""

    l: float
    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.l, self.r, self.theta)):
            raise ValueError(f"peaked-wave parameters must be finite, got "
                             f"l={self.l!r}, r={self.r!r}, theta={self.theta!r}")
        if not (0 <= self.l <= 1 and 0 <= self.r <= 1):
            raise ValueError(f"peaked amplitudes l, r must be non-negative and at most 1, "
                             f"got l={self.l!r}, r={self.r!r}")
        if not abs(self.l ** 2 + self.r ** 2 - 1.0) <= NORM_ATOL:
            raise ValueError(f"l^2 + r^2 must equal 1, got {self.l ** 2 + self.r ** 2!r}")

    @classmethod
    def from_l(cls, l: float, theta: float = 0.0) -> "SpatialWave":
        return cls(l, math.sqrt(max(0.0, 1.0 - l * l)), theta)

    @property
    def right_amplitude(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


def make_peaked(wave: SpatialWave, spin: Spin, basis: ModeBasis) -> SingleParticleState:
    """Build l|L,spin> + r e^{i theta}|R,spin> on ``basis`` from the peaked
    ``wave``.

    The basis must contain modes "L" and "R"; the result is normalized by
    construction.
    """
    for required in ("L", "R"):
        if required not in basis:
            raise ValueError(f"basis must contain mode {required!r} for a peaked state")
    return SingleParticleState(basis, {("L", spin): wave.l, ("R", spin): wave.right_amplitude})
