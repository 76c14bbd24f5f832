"""Symmetric block diagonal matrices of a known bandwidth, and their factors.

A matrix here is block diagonal with `blocks` equal diagonal blocks (the
systems of independent designs side by side), and each block is zero more
than `bandwidth` places off its diagonal.  It is stored as the dense stack of
its diagonal blocks, shape (blocks, m, m), so every product with it is one
batched matrix product (`_block_matmul`), the same product for every block.
The blocks are small: one is q x q with q = K + p basis functions.  The
chunked Gram accumulators add up the p + 1 lower bands of X'X
(`DesignChunk.gram_bands`), and `BandedMatrix.from_bands` scatters those into
the stack once.

`BandedCholesky` factors each block densely with numpy's Cholesky and keeps
each block's inverse, so that every solve is one batched matrix product too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DesignMatrix

__all__ = [
    "BandedMatrix",
    "BandedCholesky",
    "NotPositiveDefiniteError",
    "gram_banded",
]


class NotPositiveDefiniteError(Exception):
    """A Cholesky factorization met a nonpositive pivot."""


@dataclass(frozen=True)
class BandedMatrix:
    """Symmetric block diagonal matrix of bandwidth `bandwidth`, stored as the
    stack of its diagonal blocks, shape (blocks, m, m); its size is blocks m."""

    stack: np.ndarray
    bandwidth: int

    def __post_init__(self) -> None:
        if self.stack.ndim != 3 or self.stack.shape[1] != self.stack.shape[2]:
            raise ValueError(f"block stack shape {self.stack.shape} is not (blocks, m, m)")

    @property
    def blocks(self) -> int:
        return self.stack.shape[0]

    @property
    def size(self) -> int:
        return self.stack.shape[0] * self.stack.shape[1]

    @classmethod
    def from_bands(cls, bands: np.ndarray, blocks: int = 1) -> "BandedMatrix":
        """The matrix of lower bands `bands[d, j] = A[j + d, j]`, shape
        (bandwidth + 1, size), split into `blocks` diagonal blocks; the bands
        past the edge of each block are not read."""
        w, size = bands.shape[0] - 1, bands.shape[1]
        if size % blocks:
            raise ValueError(f"size {size} does not split into {blocks} blocks")
        m = size // blocks
        out = np.zeros((blocks, m, m))
        idx = np.arange(m)
        for d in range(min(w, m - 1) + 1):
            band = bands[d].reshape(blocks, m)[:, : m - d]
            out[:, idx[d:], idx[: m - d]] = band
            out[:, idx[: m - d], idx[d:]] = band
        return cls(stack=out, bandwidth=w)

    def to_dense(self) -> np.ndarray:
        """The q x q matrix, for a matrix of one block."""
        if self.blocks != 1:
            raise ValueError(f"a matrix of {self.blocks} blocks is its stack")
        return self.stack[0]


def _block_matmul(stack: np.ndarray, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """A v, or A' v, for the block diagonal A of the square blocks `stack`
    (blocks, m, m) and a vector or a block of columns v of blocks m rows, or
    v of shape (blocks, m, k), its rows block by block."""
    A = stack.swapaxes(1, 2) if transpose else stack
    blocks, m, _ = A.shape
    return (A @ v.reshape(blocks, m, -1)).reshape(v.shape)


class BandedCholesky:
    """Factor once, solve many: the inverse of each diagonal block.

    Each block is factored as L L' by numpy's Cholesky, which also checks
    that it is positive definite, and its inverse L'^{-1} L^{-1} is kept
    (`inverse`, shape (blocks, m, m)).  A solve is then one batched matrix
    product; every block runs the same product, so a block's solution does
    not depend on the blocks beside it.
    """

    def __init__(self, matrix: BandedMatrix):
        self.size = matrix.size
        A = matrix.stack
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
        if rhs.shape[0] != self.size:
            raise ValueError(
                f"right-hand side has {rhs.shape[0]} rows, the matrix {self.size}"
            )
        return _block_matmul(self.inverse, rhs)


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
    """X'X, or X' diag(weights) X, as a matrix of bandwidth p.

    Basis functions more than p indices apart never share support, so every
    entry of X'X outside the band is an exact zero: the chunks add up the
    p + 1 bands alone, and the stack is built from them once.  A block
    diagonal design gives a block diagonal matrix of as many blocks.
    """
    return BandedMatrix.from_bands(X.gram_bands(weights), X.blocks)
