"""Single-particle states on a finite orthonormal spatial-mode basis with pseudospin.

Spatial wave functions are represented over a finite set of orthonormal
modes, so every overlap and trace in the package is a finite sum.  The
workhorse configuration is a wave function peaked on two measurement
regions,

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
        return self.labels.index(label)


@dataclass(frozen=True)
class SingleParticleState:
    """Sparse complex amplitude table over the (mode, spin) product basis.

    Only nonzero entries are stored.  States are not required to be
    normalized; constructors that promise normalization check it to
    ``NORM_ATOL``.
    """

    basis: ModeBasis
    amplitudes: Mapping[tuple[str, Spin], complex]

    def __post_init__(self):
        cleaned: dict[tuple[str, Spin], complex] = {}
        for key, value in dict(self.amplitudes).items():
            mode, spin = key
            if mode not in self.basis:
                raise ValueError(f"mode {mode!r} is not in the basis {self.basis.labels!r}")
            if not isinstance(spin, Spin):
                raise TypeError(f"spin must be a Spin member, got {spin!r}")
            value = complex(value)
            if value != 0:
                cleaned[(mode, spin)] = value
        object.__setattr__(self, "amplitudes", cleaned)

    @classmethod
    def localized(cls, basis: ModeBasis, mode: str, spin: Spin,
                  amplitude: complex = 1.0) -> "SingleParticleState":
        """Basis ket |mode, spin> scaled by ``amplitude``."""
        return cls(basis, {(mode, spin): amplitude})

    def amplitude(self, mode: str, spin: Spin) -> complex:
        return self.amplitudes.get((mode, spin), 0j)

    def norm_sq(self) -> float:
        return math.fsum(abs(v) ** 2 for v in self.amplitudes.values())

    def spatial_support(self) -> frozenset[str]:
        """Modes carrying nonzero amplitude."""
        return frozenset(mode for mode, _ in self.amplitudes)

    def dense(self) -> np.ndarray:
        """Amplitude vector ordered mode-major, spin (up, down) minor."""
        vec = np.zeros(2 * len(self.basis), dtype=complex)
        for (mode, spin), value in self.amplitudes.items():
            vec[2 * self.basis.index(mode) + (0 if spin is UP else 1)] = value
        return vec

    def substitute_modes(self, mapping: Mapping[str, Mapping[str, complex]],
                         basis: ModeBasis) -> "SingleParticleState":
        """Linear substitution on the spatial part, |m> -> sum_m' c_{m'} |m'>.

        Modes absent from ``mapping`` are carried over unchanged; spin is
        untouched.  The result lives on ``basis``.
        """
        out: dict[tuple[str, Spin], complex] = {}
        for (mode, spin), value in self.amplitudes.items():
            targets = mapping.get(mode)
            if targets is None:
                out[(mode, spin)] = out.get((mode, spin), 0j) + value
            else:
                for new_mode, coeff in targets.items():
                    key = (new_mode, spin)
                    out[key] = out.get(key, 0j) + value * complex(coeff)
        return SingleParticleState(basis, out)


def inner(a: SingleParticleState, b: SingleParticleState) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.basis != b.basis:
        raise ValueError("states live on different mode bases")
    if len(a.amplitudes) <= len(b.amplitudes):
        return sum((va.conjugate() * b.amplitudes[k]
                    for k, va in a.amplitudes.items() if k in b.amplitudes), 0j)
    return sum((a.amplitudes[k].conjugate() * vb
                for k, vb in b.amplitudes.items() if k in a.amplitudes), 0j)


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
