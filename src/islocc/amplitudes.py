"""Transition amplitudes between product kets of N identical particles.

In the no-label description of identical particles the amplitude between
two elementary (product) kets is a permutation sum over single-particle
overlaps,

    <x'_1,...,x'_N | x_1,...,x_N> = sum_P eta^P prod_i <x'_i|x_{P_i}>,

with eta = +1 for bosons and eta = -1 for fermions (eta^P = parity of P).
That is a permanent or a determinant of the overlap matrix
M[i][j] = <x'_i|x_j>, formed in one product of the stacked particle vectors.

Two independent evaluation paths are kept side by side on purpose: the
explicit permutation sum below is the correctness root for everything
downstream, and the fast permanent/determinant path, which evaluates whole
stacks of overlap matrices at once, is pinned against it by the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import ModeBasis, SingleParticleState
from .xstate import BOSON, FERMION, ParticleStatistics

__all__ = [
    "ParticleStatistics",
    "BOSON",
    "FERMION",
    "ElementaryKet",
    "overlap_matrix",
    "amplitude_permsum",
    "amplitude_fast",
    "amplitude",
    "permanent_ryser",
    "PermutationCapExceeded",
    "PERMSUM_CAP",
]

PERMSUM_CAP = 8


class PermutationCapExceeded(ValueError):
    """Raised when the naive permutation sum would be too large; use amplitude_fast."""


@dataclass(frozen=True)
class ElementaryKet:
    """Product ket |x_1, ..., x_N> of single-particle states sharing one basis."""

    particles: tuple[SingleParticleState, ...]
    statistics: ParticleStatistics

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))
        if not self.particles:
            raise ValueError("an elementary ket needs at least one particle")
        basis = self.particles[0].basis
        if any(p.basis != basis for p in self.particles):
            raise ValueError("all particles must share one mode basis")

    @property
    def n(self) -> int:
        return len(self.particles)

    @property
    def basis(self) -> ModeBasis:
        return self.particles[0].basis


def _check_pair(bra: ElementaryKet, ket: ElementaryKet) -> None:
    if bra.n != ket.n:
        raise ValueError(f"particle numbers differ: {bra.n} vs {ket.n}")
    if bra.statistics is not ket.statistics:
        raise ValueError("bra and ket carry different exchange statistics")
    if bra.basis != ket.basis:
        raise ValueError("bra and ket live on different mode bases")


def overlap_matrix(bra: ElementaryKet, ket: ElementaryKet) -> np.ndarray:
    """N x N matrix of single-particle overlaps M[i, j] = <bra_i|ket_j>, after
    the one check of the pair that every amplitude makes."""
    _check_pair(bra, ket)
    bras = np.array([p.vector for p in bra.particles])
    kets = np.array([p.vector for p in ket.particles])
    return bras.conj() @ kets.T


@functools.cache
def _permutations_with_parity(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(n) with its sign, (-1)^inversions, built once
    per n (at most ``PERMSUM_CAP``! entries: the sum refuses larger n first)."""
    return tuple((perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
                 for perm in itertools.permutations(range(n)))


def amplitude_permsum(bra: ElementaryKet, ket: ElementaryKet) -> complex:
    """Amplitude by explicit permutation sum (the naive reference path).

    Terms are accumulated with exact summation, so exchange symmetry of the
    result under particle swaps holds to the last bit.  Refuses N >
    ``PERMSUM_CAP`` (N! terms); use :func:`amplitude_fast` there.
    """
    m = overlap_matrix(bra, ket)
    n = bra.n
    if n > PERMSUM_CAP:
        raise PermutationCapExceeded(
            f"permutation sum over {n}! terms exceeds cap {PERMSUM_CAP}; use amplitude_fast")
    fermionic = bra.statistics is FERMION
    real_parts: list[float] = []
    imag_parts: list[float] = []
    for perm, sign in _permutations_with_parity(n):
        term = 1 + 0j
        for i, j in enumerate(perm):
            term *= m[i, j]
        if fermionic and sign < 0:
            term = -term
        real_parts.append(term.real)
        imag_parts.append(term.imag)
    return complex(math.fsum(real_parts), math.fsum(imag_parts))


def permanent_ryser(matrix: np.ndarray) -> complex | np.ndarray:
    """Permanent of a square complex matrix or of each of a stack (..., n, n), by
    Ryser's inclusion-exclusion formula with Gray-code subset updates (O(2^n n))."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    row_sums = np.zeros(a.shape[:-1], dtype=complex)
    total = np.full(a.shape[:-2], complex(n == 0))  # the empty matrix has permanent 1
    gray = 0
    included = 0
    for k in range(1, 1 << n):
        code = k ^ (k >> 1)
        changed = code ^ gray
        j = changed.bit_length() - 1
        if code & changed:
            row_sums += a[..., j]
            included += 1
        else:
            row_sums -= a[..., j]
            included -= 1
        gray = code
        term = row_sums.prod(axis=-1)
        total = total + term if (n - included) % 2 == 0 else total - term
    return total[()]


def _amplitudes(m: np.ndarray, statistics: ParticleStatistics) -> np.ndarray:
    """Amplitudes of a stack of N x N overlap matrices of shape (..., N, N)."""
    n = m.shape[-1]
    if n == 1:
        return m[..., 0, 0]
    if n == 2:  # expanded: np.linalg.det divides by zero on subnormal 2 x 2 matrices
        return m[..., 0, 0] * m[..., 1, 1] + statistics.eta * m[..., 0, 1] * m[..., 1, 0]
    if statistics is FERMION:
        # np.linalg.det divides by zero on subnormal entries: rows are scaled
        # to a largest entry in [0.5, 1) by exact powers of two, then unscaled
        _, exponent = np.frexp(np.abs(m).max(axis=-1))
        row = -exponent[..., None]
        det = np.linalg.det(np.ldexp(m.real, row) + 1j * np.ldexp(m.imag, row))
        total = exponent.sum(axis=-1)
        return np.ldexp(det.real, total) + 1j * np.ldexp(det.imag, total)
    return permanent_ryser(m)


def amplitude_fast(bra: ElementaryKet, ket: ElementaryKet) -> complex:
    """Amplitude via determinant (fermions) or Ryser permanent (bosons).

    Agrees with :func:`amplitude_permsum` wherever the latter is defined and
    stays polynomial-in-memory for larger N (bosons remain exponential in
    time, as any exact permanent must).
    """
    return complex(_amplitudes(overlap_matrix(bra, ket), bra.statistics))


#: The oracle's amplitude (the fast path), which :mod:`~islocc.ensembles` uses;
#: no sweep or threshold search evaluates one.
amplitude = amplitude_fast
