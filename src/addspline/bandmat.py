"""Symmetric banded matrices and their factorization.

Storage is the lower band form: `bands[d, j] = A[j + d, j]` for diagonals
d = 0..w, zero-padded past the matrix edge, so a product with a band costs
O(q w) and an n x n smoother matrix never needs to exist.  A matrix may be
block diagonal (`blocks` equal diagonal blocks, the systems of independent
designs side by side); its band is then zero past the edge of each block.

The systems solved here are small: one block is q x q with q = K + p basis
functions.  `BandedCholesky` factors each block densely with numpy's
Cholesky and keeps each block's inverse, so that every solve is one batched
matrix product, the same product for every block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Symmetric q x q matrix stored as its lower band.

    With `blocks` > 1 the matrix is block diagonal with that many blocks of
    size q / blocks, and the band holds zeros past the edge of each block.
    """

    size: int
    bandwidth: int
    bands: np.ndarray  # shape (bandwidth + 1, size)
    blocks: int = 1

    def __post_init__(self) -> None:
        w1, q = self.bands.shape
        if q != self.size or w1 != self.bandwidth + 1:
            raise ValueError(
                f"band storage shape {self.bands.shape} inconsistent with "
                f"size={self.size}, bandwidth={self.bandwidth}"
            )
        if self.blocks < 1 or self.size % self.blocks:
            raise ValueError(f"size {self.size} does not split into {self.blocks} blocks")

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

    def block_stack(self) -> np.ndarray:
        """The diagonal blocks as one dense array, shape (blocks, m, m), m = size / blocks."""
        m = self.size // self.blocks
        out = np.zeros((self.blocks, m, m))
        idx = np.arange(m)
        for d in range(min(self.bandwidth, m - 1) + 1):
            band = self.bands[d].reshape(self.blocks, m)[:, : m - d]
            out[:, idx[d:], idx[: m - d]] = band
            out[:, idx[: m - d], idx[d:]] = band
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v for a vector or a q x k block v."""
        q, w = self.size, self.bandwidth
        bands = self.bands if np.ndim(v) == 1 else self.bands[:, :, None]
        out = bands[0] * v
        for d in range(1, w + 1):
            out[d:] += bands[d, : q - d] * v[: q - d]
            out[: q - d] += bands[d, : q - d] * v[d:]
        return out

    def add(self, other: "BandedMatrix", scale: float = 1.0) -> "BandedMatrix":
        """self + scale * other, widening the band as needed."""
        w = max(self.bandwidth, other.bandwidth)
        bands = np.zeros((w + 1, self.size))
        bands[: self.bandwidth + 1] = self.bands
        bands[: other.bandwidth + 1] += scale * other.bands
        return BandedMatrix(size=self.size, bandwidth=w, bands=bands, blocks=self.blocks)


class BandedCholesky:
    """Factor once, solve many: the inverse of each diagonal block.

    Each block is factored as L L' by numpy's Cholesky, which also checks
    that it is positive definite, and its inverse L'^{-1} L^{-1} is kept
    (`inverse`, shape (blocks, m, m)).  A solve is then one batched matrix
    product; every block runs the same product, so a block's solution does
    not depend on the blocks beside it.
    """

    def __init__(self, matrix: BandedMatrix):
        self.matrix = matrix
        A = matrix.block_stack()
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                f"{_first_bad_minor(A)}-th leading minor not positive definite"
            ) from None
        Linv = _triangular_inverse(L, matrix.bandwidth)
        self.inverse = Linv.swapaxes(1, 2) @ Linv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for a vector or a q x k block rhs."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.matrix.size:
            raise ValueError(
                f"right-hand side has {rhs.shape[0]} rows, the matrix {self.matrix.size}"
            )
        blocks, m, _ = self.inverse.shape
        return (self.inverse @ rhs.reshape(blocks, m, -1)).reshape(rhs.shape)


def _triangular_inverse(L: np.ndarray, bandwidth: int) -> np.ndarray:
    """Inverses of a stack of lower triangular factors of the given bandwidth.

    Split each factor into its diagonal halves, L = [[A, 0], [B, D]], so
    L^{-1} = [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]].  B is zero outside its
    top-right w x w corner, so the coupling needs only w columns of D^{-1} and
    w rows of A^{-1}; two inverses of half the size cost less than one of the
    whole.
    """
    m = L.shape[1]
    h, w = m // 2, bandwidth
    if 2 * w > m or m < 2:
        return np.linalg.inv(L)
    Ai = np.linalg.inv(L[:, :h, :h])
    Di = np.linalg.inv(L[:, h:, h:])
    out = np.zeros_like(L)
    out[:, :h, :h] = Ai
    out[:, h:, h:] = Di
    out[:, h:, :h] = -(Di[:, :, :w] @ L[:, h : h + w, h - w : h]) @ Ai[:, h - w :]
    return out


def _first_bad_minor(A: np.ndarray) -> int:
    """1-based order, counted over the whole block diagonal matrix, of the
    first leading minor whose Cholesky factorization fails: the block's offset
    plus the smallest failing order within the first block that fails."""
    m = A.shape[1]
    b = next(b for b, block in enumerate(A) if not _factors(block))
    lo, hi = 0, m  # the minor of order hi fails; bisect for the smallest such
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _factors(A[b, :mid, :mid]) else (lo, mid)
    return b * m + hi


def _factors(block: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return False
    return True


def gram_banded(X: DesignMatrix, weights: np.ndarray | None = None) -> BandedMatrix:
    """X'X, or X' diag(weights) X, as a banded matrix of bandwidth p.

    Basis functions more than p indices apart never share support, so every
    out-of-band entry of the dense Gram matrix is an exact zero and the band
    stores it without loss.  A block diagonal design gives a block diagonal
    matrix of as many blocks.
    """
    return BandedMatrix(
        size=X.cols, bandwidth=X.config.degree, bands=X.gram_bands(weights), blocks=X.blocks
    )


def penalized_gram(gram: BandedMatrix, lam: float, Q: PenaltyMatrix) -> BandedMatrix:
    """X'X + lam * Q_m, bandwidth max(p, m).

    With `gram.blocks` > 1, X'X is block diagonal and each block gets
    lam * Q_m: the penalty band is tiled, and its zero padding past the edge
    of each block keeps the sum block diagonal.
    """
    if lam < 0:
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    if Q.size * gram.blocks != gram.size:
        raise ValueError(
            f"size mismatch: gram {gram.size}, penalty {Q.size} x {gram.blocks}"
        )
    Qb = BandedMatrix(
        size=gram.size, bandwidth=Q.order, bands=np.tile(Q.bands, gram.blocks),
        blocks=gram.blocks,
    )
    return gram.add(Qb, scale=lam)
