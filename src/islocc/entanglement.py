"""Entanglement and nonlocality measures on the projected two-qubit state.

Everything here acts on 4x4 density matrices in the fixed computational
order (up,up), (up,down), (down,up), (down,down): Wootters concurrence
from the spectrum of rho * rho~, read as the squared singular values of
tau = Psi^T (sigma_y x sigma_y) Psi with rho = Psi Psi^+ from a Hermitian
eigendecomposition, the entanglement of formation through the binary
entropy, and two CHSH evaluators — the unrestricted Horodecki criterion
from the spin-correlation matrix, and the closed-form X-state expression
2*sqrt(P^2 + Q^2) used by the sweep layer.

:func:`analyze` reports all of them for one matrix, and its ``concurrence``
and ``lambdas`` fields are the way to read the Wootters quantities.  This
eigen path is the oracle of the sweep and threshold rows: those are real X
states with rho03 = 0, which :class:`~islocc.xstate.WernerFamily` analyzes
from their three distinct entries u = rho00, v = rho11 and y = rho12 in
closed form, C = 2 max(0, |y| - u) and B = 2 sqrt(P^2 + Q^2) =
4 sqrt((u - v)^2 + y^2), with no 4x4 matrix and no eigen solver.  The
elementwise entropy and entanglement-of-formation formulas
(:func:`binary_entropy`) are defined there and shared.

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
from .xstate import _HERM_ATOL, _eof, binary_entropy

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
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

#: sigma_i x sigma_j for i, j in x, y, z, row-major.
_PAULI_PAIRS = [np.kron(si, sj) for si in (SIGMA_X, SIGMA_Y, SIGMA_Z)
                for sj in (SIGMA_X, SIGMA_Y, SIGMA_Z)]

#: Entries an X-shaped two-qubit matrix may carry: diagonal and anti-diagonal.
_X_SHAPE = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]

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
    # the Wootters spectrum reads one triangle of the matrix (eigh)
    if not np.max(np.abs(m - m.conj().T)) <= _HERM_ATOL:
        raise ValueError("expected a Hermitian matrix")
    return m


def _lambdas(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of rho * rho~, as sigma^2 with sigma the
    singular values of tau = Psi^T (sigma_y x sigma_y) Psi, where
    rho = Psi Psi^+ with the columns of Psi the eigenvectors of rho scaled
    by the square roots of its (clamped) eigenvalues (Wootters, PRL 80,
    2245, 1998).  Unlike the eigenvalues of the non-Hermitian product, sigma
    is accurate to rounding of the largest one even where rho is nearly
    pure."""
    vals, vecs = np.linalg.eigh(m)
    psi = vecs * np.sqrt(np.clip(vals, 0.0, None))
    sigma = np.linalg.svd(psi.T @ _FLIP @ psi, compute_uv=False)
    return sigma * sigma


def _xstate(m: np.ndarray) -> tuple[float, float, float, float]:
    """X-state CHSH value, P, Q and the largest off-X entry of the matrix."""
    off_x = float(np.max(np.abs(np.where(_X_SHAPE, 0.0, m))))
    p = float((m[0, 0] + m[3, 3] - m[1, 1] - m[2, 2]).real)
    q = 2.0 * float(abs(m[0, 3]) + abs(m[1, 2]))
    return 2.0 * math.sqrt(p * p + q * q), p, q, off_x


def eof(concurrence_value: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) of a two-qubit state."""
    return float(_eof(np.asarray(float(concurrence_value))))


def correlation_matrix(rho: MatrixLike) -> np.ndarray:
    """3x3 spin-correlation matrix T[i, j] = Tr(rho sigma_i x sigma_j)."""
    m = _as_matrix(rho)
    return np.array([np.trace(m @ pair).real for pair in _PAULI_PAIRS]).reshape(3, 3)


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


def bell_xstate(rho: MatrixLike) -> XStateBell:
    """Closed-form CHSH value 2*sqrt(P^2 + Q^2) for an X-shaped matrix,
    with P the diagonal contrast r11+r44-r22-r33 and Q = 2(|r14| + |r23|).

    Raises :class:`NotXShapedError` if entries off the diagonal and
    anti-diagonal exceed ``_X_ATOL`` — use :func:`bell_horodecki` there.
    """
    bell, p, q, off_x = _xstate(_as_matrix(rho))
    if not off_x <= _X_ATOL:
        raise NotXShapedError(
            f"matrix has off-X weight {off_x:.3e} > {_X_ATOL:.1e}; use bell_horodecki")
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
    lambdas = _lambdas(m)
    roots = np.sqrt(lambdas)
    c = float(np.clip(roots[0] - roots[1] - roots[2] - roots[3], 0.0, 1.0))
    bell, bell_p, bell_q, off_x = _xstate(m)
    if not off_x <= _X_ATOL:
        bell, bell_p, bell_q = bell_horodecki(m), math.nan, math.nan
    return EntanglementReport(c, tuple(float(v) for v in lambdas), eof(c), bell, bell_p, bell_q)
