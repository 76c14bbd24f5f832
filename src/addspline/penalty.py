"""Difference penalty on spline coefficients.

The order-m penalty is the quadratic form b' Q_m b with Q_m = D_m' D_m, where
D_m stacks the m-th forward differences of the coefficient vector.  Q_m is
symmetric positive semidefinite with bandwidth m; its nullspace is exactly the
degree-(m-1) polynomial sequences, so constants (m >= 1) are never penalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = ["PenaltyMatrix", "difference_matrix", "penalty_matrix"]


@dataclass(frozen=True)
class PenaltyMatrix:
    """Order-m difference penalty Q_m = D_m' D_m on q coefficients."""

    order: int
    size: int
    values: np.ndarray

    def quad_form(self, b: np.ndarray) -> float:
        """Penalty value b' Q_m b."""
        return float(b @ self.values @ b)


def difference_matrix(order: int, size: int) -> np.ndarray:
    """The (size - order) x size matrix of order-th forward differences.

    Row i holds the signed binomial pattern (-1)^(order-j) C(order, j) at
    columns i..i+order; e.g. order 2 rows look like (1, -2, 1).
    """
    if order < 1:
        raise ValueError(f"difference order must be >= 1, got {order}")
    if size <= order:
        raise ValueError(f"need size > order, got size={size}, order={order}")
    D = np.zeros((size - order, size))
    coeffs = [(-1) ** (order - j) * comb(order, j) for j in range(order + 1)]
    for i in range(size - order):
        D[i, i : i + order + 1] = coeffs
    return D


def penalty_matrix(order: int, size: int) -> PenaltyMatrix:
    """Assemble Q_m = D_m' D_m for q = size coefficients."""
    D = difference_matrix(order, size)
    Q = D.T @ D
    return PenaltyMatrix(order=order, size=size, values=Q)
