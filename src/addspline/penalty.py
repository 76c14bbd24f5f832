"""Difference penalty on spline coefficients.

The order-m penalty is the quadratic form b' Q_m b with Q_m = D_m' D_m, where
D_m stacks the m-th forward differences of the coefficient vector.  Q_m is
symmetric positive semidefinite with bandwidth m; its nullspace is exactly the
degree-(m-1) polynomial sequences, so constants (m >= 1) are never penalized.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = ["PenaltyMatrix", "difference_matrix", "penalty_matrix"]


@dataclass(frozen=True)
class PenaltyMatrix:
    """Order-m difference penalty Q_m = D_m' D_m on q coefficients; q, its
    `size`, is read off the matrix."""

    order: int
    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def quad_form(self, b: np.ndarray) -> float:
        """Penalty value b' Q_m b."""
        return float(b @ self.values @ b)


def _check_order(order: int, size: int) -> None:
    """The ValueError of a difference order below 1, not below `size`, or beyond a float."""
    if order < 1:
        raise ValueError(f"difference order must be >= 1, got {order}")
    if size <= order:
        raise ValueError(f"need size > order, got size={size}, order={order}")
    # exact integers, checked before any cast: no entry of Q_m = D'D exceeds
    # sum_j C(order, j)^2 = C(2 order, order), a float up to order 514
    if comb(2 * order, order) > sys.float_info.max:
        raise ValueError(f"difference order {order} is too large: its penalty overflows a float")


def difference_matrix(order: int, size: int) -> np.ndarray:
    """The (size - order) x size matrix of order-th forward differences.

    Row i holds the signed binomial pattern (-1)^(order-j) C(order, j) at
    columns i..i+order; e.g. order 2 rows look like (1, -2, 1).
    """
    _check_order(order, size)
    i, j = np.arange(size - order)[:, None], np.arange(order + 1)
    D = np.zeros((size - order, size))
    D[i, i + j] = [(-1) ** (order - k) * comb(order, k) for k in range(order + 1)]
    return D


def penalty_matrix(order: int, size: int) -> PenaltyMatrix:
    """Assemble Q_m = D_m' D_m for q = size coefficients without D: row i of D
    is the stencil c at columns i..i+m, so Q = sum_i of c_j c_l at (i + j, i + l),
    added along the diagonal through (j, l).  The terms are integers, so Q is
    D'D bit for bit wherever D'D is exact."""
    _check_order(order, size)
    m, q = order, size
    c = [(-1) ** (m - j) * comb(m, j) for j in range(m + 1)]
    Q = np.zeros((q, q))
    for j in range(m + 1):
        # row l of this view is the diagonal through (j, l), entry i at
        # (i + j, i + l): one step adds c_j c_l to all m + 1 of them, and an
        # entry meets one l per j, so it takes its terms in j order; each
        # product is the exact integer, rounded once
        diagonals = np.ndarray((m + 1, q - m), buffer=Q, offset=j * q * Q.itemsize,
                               strides=(Q.itemsize, (q + 1) * Q.itemsize))
        diagonals += np.array([c[j] * c_l for c_l in c], dtype=float)[:, None]
    return PenaltyMatrix(order=order, values=Q)
