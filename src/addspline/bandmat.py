"""Symmetric banded matrices and banded Cholesky solves.

Storage is the lower band form: `bands[d, j] = A[j + d, j]` for diagonals
d = 0..w, zero-padded past the matrix edge.  This is the layout scipy's
banded Cholesky routines consume directly, so factorization costs O(q w^2)
and each solve O(q w); an n x n smoother matrix never needs to exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import DesignMatrix
from .penalty import PenaltyMatrix

__all__ = [
    "BandedMatrix",
    "BandedCholesky",
    "NotPositiveDefiniteError",
    "gram_banded",
    "penalized_gram",
]


class NotPositiveDefiniteError(Exception):
    """A banded (or dense) Cholesky factorization met a nonpositive pivot."""


@dataclass(frozen=True)
class BandedMatrix:
    """Symmetric q x q matrix stored as its lower band."""

    size: int
    bandwidth: int
    bands: np.ndarray  # shape (bandwidth + 1, size)

    def __post_init__(self) -> None:
        w1, q = self.bands.shape
        if q != self.size or w1 != self.bandwidth + 1:
            raise ValueError(
                f"band storage shape {self.bands.shape} inconsistent with "
                f"size={self.size}, bandwidth={self.bandwidth}"
            )

    @classmethod
    def from_dense(cls, dense: np.ndarray, bandwidth: int) -> "BandedMatrix":
        q = dense.shape[0]
        bands = np.zeros((bandwidth + 1, q))
        for d in range(bandwidth + 1):
            bands[d, : q - d] = np.diagonal(dense, -d)
        out = cls(size=q, bandwidth=bandwidth, bands=bands)
        # only the lower band was read; reject input it cannot represent
        gap = np.abs(out.to_dense() - dense).max()
        if gap > 1e-12 * (1.0 + np.abs(dense).max()):
            raise ValueError(
                f"matrix is not symmetric within bandwidth {bandwidth} "
                f"(worst dropped entry {gap:.3e})"
            )
        return out

    def to_dense(self) -> np.ndarray:
        q, w = self.size, self.bandwidth
        A = np.zeros((q, q))
        for d in range(w + 1):
            idx = np.arange(q - d)
            A[idx + d, idx] = self.bands[d, : q - d]
            if d:
                A[idx, idx + d] = self.bands[d, : q - d]
        return A

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v for a vector or a q x k block v."""
        q, w = self.size, self.bandwidth
        if np.ndim(v) == 1:  # BLAS reads this band layout as it is
            return scipy.linalg.blas.dsbmv(w, 1.0, self.bands, v, lower=1)
        out = self.bands[0, :, None] * v
        for d in range(1, w + 1):
            out[d:] += self.bands[d, : q - d, None] * v[: q - d]
            out[: q - d] += self.bands[d, : q - d, None] * v[d:]
        return out

    def add(self, other: "BandedMatrix", scale: float = 1.0) -> "BandedMatrix":
        """self + scale * other, widening the band as needed."""
        w = max(self.bandwidth, other.bandwidth)
        bands = np.zeros((w + 1, self.size))
        bands[: self.bandwidth + 1] = self.bands
        bands[: other.bandwidth + 1] += scale * other.bands
        return BandedMatrix(size=self.size, bandwidth=w, bands=bands)


class BandedCholesky:
    """Factor once, solve many.  Wraps LAPACK's banded Cholesky (lower form)."""

    def __init__(self, matrix: BandedMatrix):
        self.matrix = matrix
        try:
            self._factor = scipy.linalg.cholesky_banded(matrix.bands, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for a vector or a q x k block rhs.

        Calls LAPACK dpbtrs on the factor, as `scipy.linalg.cho_solve_banded`
        does, without that wrapper's argument checks (about 10 us a call).
        Only the row count is checked.  Finiteness is not: the factor is
        finite, and the right-hand sides of the estimator come from
        `AdditiveDesign`, which rejects a non-finite response.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.matrix.size:
            raise ValueError(
                f"right-hand side has {rhs.shape[0]} rows, the matrix {self.matrix.size}"
            )
        x, _ = scipy.linalg.lapack.dpbtrs(self._factor, rhs, lower=1)
        return x


def gram_banded(X: DesignMatrix, weights: np.ndarray | None = None) -> BandedMatrix:
    """X'X, or X' diag(weights) X, as a banded matrix of bandwidth p.

    Basis functions more than p indices apart never share support, so every
    out-of-band entry of the dense Gram matrix is an exact zero and the band
    stores it without loss.
    """
    return BandedMatrix(size=X.cols, bandwidth=X.config.degree, bands=X.gram_bands(weights))


def penalized_gram(
    gram: BandedMatrix, lam: float, Q: PenaltyMatrix, blocks: int = 1
) -> BandedMatrix:
    """X'X + lam * Q_m, bandwidth max(p, m).

    With `blocks` > 1, X'X is block diagonal with that many q x q blocks and
    each block gets lam * Q_m: the penalty band is tiled, and its zero padding
    past the edge of each block keeps the sum block diagonal.
    """
    if lam < 0:
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    if Q.size * blocks != gram.size:
        raise ValueError(f"size mismatch: gram {gram.size}, penalty {Q.size} x {blocks}")
    Qb = BandedMatrix.from_dense(Q.values, Q.order)
    if blocks > 1:
        Qb = BandedMatrix(size=gram.size, bandwidth=Q.order, bands=np.tile(Qb.bands, blocks))
    return gram.add(Qb, scale=lam)
