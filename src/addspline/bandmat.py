"""Stacks of symmetric diagonal blocks, and their factors.

A matrix here is block diagonal with `blocks` equal-sized diagonal blocks
(the systems of independent designs side by side), stored as the dense stack
of those blocks, shape (blocks, m, m), so every product with it is one
batched matrix product (`_block_matmul`), the same product for every block.
The blocks are small: one is q x q with q = K + p basis functions.  Only the
Gram assembly sees bands: the chunked accumulators add up the p + 1 lower
bands of X'X (`DesignChunk.gram_bands`), and `_stack_from_bands` scatters
those into the stack once.

`BandedCholesky` factors each block densely with numpy's Cholesky and keeps
each block's inverse, so that every solve is one batched matrix product too.
"""

from __future__ import annotations

import numpy as np

from .basis import DesignMatrix

__all__ = [
    "BandedCholesky",
    "NotPositiveDefiniteError",
    "gram_banded",
]


class NotPositiveDefiniteError(Exception):
    """A Cholesky factorization met a pivot at or below its floor.  Raised by
    `backfit.NormalEquations`, it names the `component` and its `cause`."""

    component = cause = None


def _stack_from_bands(bands: np.ndarray, blocks: int = 1) -> np.ndarray:
    """The stack (blocks, m, m) of the symmetric matrix of lower bands
    `bands[d, j] = A[j + d, j]`, shape (w + 1, blocks m), split into `blocks`
    diagonal blocks; the bands past the edge of each block are not read."""
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
    return out


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

    def __init__(self, A: np.ndarray):
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError(f"block stack shape {A.shape} is not (blocks, m, m)")
        self.size = A.shape[0] * A.shape[1]
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                f"{_first_bad_minor(A)}-th leading minor not positive definite"
            ) from None
        Linv = _triangular_inverse(L)
        self.inverse = Linv.swapaxes(1, 2) @ Linv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for a vector or a q x k block rhs."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.size:
            raise ValueError(
                f"right-hand side has {rhs.shape[0]} rows, the matrix {self.size}"
            )
        return _block_matmul(self.inverse, rhs)


def _triangular_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower triangular factors.

    Split each factor into its diagonal halves, L = [[A, 0], [B, D]], so
    L^{-1} = [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]]: two inverses of half
    the size and one product cost less than one inverse of the whole.
    """
    m = L.shape[1]
    if m < 2:
        return np.linalg.inv(L)
    h = m // 2
    Ai = np.linalg.inv(L[:, :h, :h])
    Di = np.linalg.inv(L[:, h:, h:])
    out = np.zeros_like(L)
    out[:, :h, :h] = Ai
    out[:, h:, h:] = Di
    out[:, h:, :h] = -(Di @ L[:, h:, :h]) @ Ai
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


def gram_banded(X: DesignMatrix, weights: np.ndarray | None = None) -> np.ndarray:
    """X'X, or X' diag(weights) X, as the stack of its diagonal blocks.

    Basis functions more than p indices apart never share support, so every
    entry of X'X outside the band is an exact zero: the chunks add up the
    p + 1 bands alone, and the stack is built from them once.  A block
    diagonal design gives a stack of as many blocks.
    """
    return _stack_from_bands(X.gram_bands(weights), X.blocks)
