"""Entanglement and nonlocality measures on the projected two-qubit state.

Everything here acts on 4x4 density matrices in the fixed computational
order (up,up), (up,down), (down,up), (down,down): Wootters concurrence
from the spin-flipped product rho * rho~, the entanglement of formation
through the binary entropy, and two CHSH evaluators — the unrestricted
Horodecki criterion from the spin-correlation matrix, and the closed-form
X-state expression 2*sqrt(P^2 + Q^2) used by the sweep layer.

:func:`analyze` reports all of them for one matrix.  This eigen path is
the oracle of the sweep and threshold rows: those are real X states with
rho03 = 0, which :class:`~islocc.werner.WernerFamily` analyzes from their
three distinct entries u = rho00, v = rho11 and y = rho12 in closed form,
C = 2 max(0, |y| - u) and B = 2 sqrt(P^2 + Q^2) = 4 sqrt((u - v)^2 + y^2),
with no 4x4 matrix and no eigen solver; it shares the elementwise
entanglement-of-formation formula.

For the singlet-type states produced by the noisy-preparation pipeline the
two CHSH evaluators coincide exactly; for triplet-type X states whose
transverse correlations dominate, the unrestricted criterion can exceed
the X-state expression (the latter fixes one measurement axis along z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .slocc import ProjectedDensityMatrix

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "spin_flip",
    "wootters_lambdas",
    "concurrence",
    "binary_entropy",
    "eof",
    "correlation_matrix",
    "bell_horodecki",
    "bell_xstate",
    "XStateBell",
    "NotXShapedError",
    "EntanglementReport",
    "analyze",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_FLIP = np.kron(SIGMA_Y, SIGMA_Y)

#: Entries an X-shaped two-qubit matrix may carry: diagonal and anti-diagonal.
_X_SHAPE = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]

_IMAG_TOL = 1e-8
_X_ATOL = 1e-10

MatrixLike = Union[np.ndarray, ProjectedDensityMatrix]


class NotXShapedError(ValueError):
    """The matrix carries weight outside the diagonal and anti-diagonal."""


def _as_matrix(rho: MatrixLike) -> np.ndarray:
    if isinstance(rho, ProjectedDensityMatrix):
        rho = rho.matrix
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {m.shape}")
    return m


def spin_flip(rho: MatrixLike) -> np.ndarray:
    """Spin-flipped conjugate (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    return _FLIP @ _as_matrix(rho).conj() @ _FLIP


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _lambdas(m: np.ndarray, imag_tol: float) -> np.ndarray:
    """Descending, clamped eigenvalues of rho * rho~."""
    flipped = spin_flip(m)
    vals = np.linalg.eigvals(m @ flipped)
    if np.max(np.abs(vals.imag)) > imag_tol:
        root = _sqrtm_psd(m)
        vals = np.linalg.eigvalsh(root @ flipped @ root)
    return np.sort(np.clip(vals.real, 0.0, None))[::-1]


def _concurrence(lambdas: np.ndarray) -> np.ndarray:
    roots = np.sqrt(lambdas)
    return np.clip(roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3], 0.0, 1.0)


def _entropy(x: np.ndarray) -> np.ndarray:
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)  # keeps log2(0) out of the masked entries
    return -(y * np.log2(y) + (1.0 - y) * np.log2(1.0 - y)) * inside


def _eof(c: np.ndarray) -> np.ndarray:
    c = np.clip(c, 0.0, 1.0)
    return _entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def _xstate(m: np.ndarray) -> tuple[float, float, float, float]:
    """X-state CHSH value, P, Q and the largest off-X entry of the matrix."""
    off_x = float(np.max(np.abs(np.where(_X_SHAPE, 0.0, m))))
    p = float((m[0, 0] + m[3, 3] - m[1, 1] - m[2, 2]).real)
    q = 2.0 * float(abs(m[0, 3]) + abs(m[1, 2]))
    return 2.0 * math.sqrt(p * p + q * q), p, q, off_x


def wootters_lambdas(rho: MatrixLike, imag_tol: float = _IMAG_TOL) -> np.ndarray:
    """Eigenvalues of rho * rho~ sorted descending, clamped to >= 0.

    The product is non-Hermitian but has real non-negative spectrum; a
    general solver is used first and the Hermitian form
    sqrt(rho) rho~ sqrt(rho) serves as fallback if residual imaginary
    parts exceed ``imag_tol``.
    """
    return _lambdas(_as_matrix(rho), imag_tol)


def concurrence(rho: MatrixLike) -> float:
    """Wootters concurrence max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))
    with l1 the largest eigenvalue of rho * rho~."""
    return float(_concurrence(wootters_lambdas(rho)))


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), continuous at 0 and 1; elementwise
    over an array, a float for a float."""
    return _entropy(np.asarray(x, dtype=float))[()]


def eof(concurrence_value: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) of a two-qubit state."""
    return float(_eof(np.asarray(float(concurrence_value))))


def correlation_matrix(rho: MatrixLike) -> np.ndarray:
    """3x3 spin-correlation matrix T[i, j] = Tr(rho sigma_i x sigma_j)."""
    m = _as_matrix(rho)
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    t = np.empty((3, 3), dtype=float)
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = np.trace(m @ np.kron(si, sj)).real
    return t


def bell_horodecki(rho: MatrixLike) -> float:
    """Unrestricted optimized CHSH value 2*sqrt(m1 + m2), with m1 >= m2 the
    two largest eigenvalues of T^T T; violation iff the result exceeds 2."""
    t = correlation_matrix(rho)
    eig = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(eig[-1] + eig[-2], 0.0))


class XStateBell(NamedTuple):
    bell: float
    p: float
    q: float


def bell_xstate(rho: MatrixLike, atol: float = _X_ATOL) -> XStateBell:
    """Closed-form CHSH value 2*sqrt(P^2 + Q^2) for an X-shaped matrix,
    with P the diagonal contrast r11+r44-r22-r33 and Q = 2(|r14| + |r23|).

    Raises :class:`NotXShapedError` if entries off the diagonal and
    anti-diagonal exceed ``atol`` — use :func:`bell_horodecki` there.
    """
    bell, p, q, off_x = _xstate(_as_matrix(rho))
    if not off_x <= atol:
        raise NotXShapedError(
            f"matrix has off-X weight {off_x:.3e} > {atol:.1e}; use bell_horodecki")
    return XStateBell(bell, p, q)


@dataclass(frozen=True)
class EntanglementReport:
    """Bundle of the entanglement and nonlocality diagnostics of one state."""

    concurrence: float
    lambdas: tuple[float, float, float, float]
    eof: float
    bell: float
    bell_p: float
    bell_q: float


def analyze(rho: MatrixLike) -> EntanglementReport:
    """Full diagnostic report for a projected two-qubit state.

    ``bell`` is the X-state closed form when the matrix is X-shaped (the
    convention of the sweep layer and of the violation thresholds it
    reports), and the unrestricted Horodecki value otherwise, with
    ``bell_p``/``bell_q`` set to NaN in that case.
    """
    m = _as_matrix(rho)
    lambdas = _lambdas(m, _IMAG_TOL)
    c = float(_concurrence(lambdas))
    bell, bell_p, bell_q, off_x = _xstate(m)
    if not off_x <= _X_ATOL:
        bell, bell_p, bell_q = bell_horodecki(m), math.nan, math.nan
    return EntanglementReport(c, tuple(float(v) for v in lambdas), eof(c), bell, bell_p, bell_q)
