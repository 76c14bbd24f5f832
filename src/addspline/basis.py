"""Uniform B-spline basis on the unit interval.

The basis lives on equidistant knots kappa_k = k/K for k = -p..K+p and holds
q = K + p functions indexed k = -p+1..K.  Degree-0 splines are indicators of the
half-open interval (kappa_{k-1}, kappa_k], so every x in (0, 1] lies in exactly
one base interval and the partition of unity holds on (0, 1] (and fails at 0,
which is outside the data domain by convention).

A design is stored compactly: each point lies in one knot interval, where only
p + 1 consecutive functions are non-zero, so a `DesignMatrix` keeps the first
non-zero column and those p + 1 values per row.  Every product the estimator
needs (the banded Gram matrix, the cross-product of two designs, X'y and Xb)
is formed from that layout in O(n p^2) time and O(n p) memory; the dense
n x q matrix is built only on request, as the `values` view.  Several designs
stacked block diagonally (`DesignMatrix.block_diagonal`) share all of these
products, one block per design.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "SplineConfig",
    "DesignMatrix",
    "make_knots",
    "bspline_eval",
    "design_matrix",
    "basis_integral",
    "eval_grid",
]


@dataclass(frozen=True)
class SplineConfig:
    """Degree and knot layout of a uniform B-spline basis on (0, 1].

    Attributes
    ----------
    degree : int
        Polynomial degree p >= 0 of the basis.
    num_intervals : int
        Number K >= 1 of knot intervals inside (0, 1].
    knots : ndarray
        The K + 2p + 1 knots k/K for k = -p..K+p, ascending.
    """

    degree: int
    num_intervals: int
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.num_intervals < 1:
            raise ValueError(f"num_intervals must be >= 1, got {self.num_intervals}")
        p, K = self.degree, self.num_intervals
        knots = np.arange(-p, K + p + 1, dtype=float) / K
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def num_basis(self) -> int:
        """Number of basis functions, K + p."""
        return self.num_intervals + self.degree

    def knot(self, i: int) -> float:
        """Knot kappa_i for i in [-p, K+p]."""
        return float(self.knots[i + self.degree])


@dataclass(frozen=True)
class DesignMatrix:
    """Basis evaluations of one covariate sample, in compact row form.

    Row i holds the p + 1 possibly non-zero values `vals[i, r]` = B_k(x_i) of
    columns `first[i] + r`, r = 0..p, where column c is the basis index
    k = c - p + 1: column 0 is the leftmost function B_{-p+1} and column
    q - 1 is B_K.  `values` is the dense n x q view, built on first access and
    cached; the products below never build it.
    """

    rows: int
    cols: int
    first: np.ndarray  # shape (rows,), int: first non-zero column of each row
    vals: np.ndarray  # shape (rows, p + 1)
    covariate: np.ndarray
    config: SplineConfig

    def basis_index(self, col: int) -> int:
        return col - self.config.degree + 1

    @property
    def columns(self) -> np.ndarray:
        """Column index of each entry of `vals`, shape (rows, p + 1)."""
        return self.first[:, None] + np.arange(self.vals.shape[1])

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The dense n x q matrix; `values[i, c]` is B_k(x_i), k = c - p + 1."""
        X = np.zeros((self.rows, self.cols))
        X[np.arange(self.rows)[:, None], self.columns] = self.vals
        return X

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """X b, shape (rows,)."""
        return np.einsum("ir,ir->i", self.vals, np.asarray(b, dtype=float)[self.columns])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """X'y, shape (cols,)."""
        w = self.vals * np.asarray(y, dtype=float)[:, None]
        return np.bincount(self.columns.ravel(), w.ravel(), minlength=self.cols)

    def gram_bands(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Lower bands of X' diag(weights) X, shape (p + 1, cols).

        `bands[d, c]` is the (c + d, c) entry; basis functions more than p
        columns apart share no support, so the bands hold the whole matrix.
        """
        p1, q = self.vals.shape[1], self.cols
        v = self.vals
        if weights is not None:
            v = v * np.asarray(weights, dtype=float)[:, None]
        bands = np.zeros((p1, q))
        for r in range(p1):
            col = self.first + r
            for s in range(r, p1):  # entry pair (r, s) of every row, on band s - r
                bands[s - r] += np.bincount(col, v[:, r] * self.vals[:, s], minlength=q)
        return bands

    def block_diagonal(self, blocks: int) -> "DesignMatrix":
        """The rows as `blocks` independent designs of rows / blocks consecutive
        rows each: block b's rows move to columns b q .. b q + q - 1.

        Every product of the result is block diagonal, with exact zeros off
        the blocks, so one banded system serves all blocks at once.
        """
        n, rem = divmod(self.rows, blocks)
        if rem:
            raise ValueError(f"{self.rows} rows do not split into {blocks} blocks")
        offsets = np.repeat(np.arange(blocks) * self.cols, n)
        return replace(self, cols=blocks * self.cols, first=self.first + offsets)

    def cross(self, other: "DesignMatrix") -> np.ndarray:
        """X'Z for a design Z on the same points, dense shape (cols, other.cols)."""
        return self.block_cross(other, 1)[0]

    def block_cross(self, other: "DesignMatrix", blocks: int) -> np.ndarray:
        """The diagonal blocks of X'Z for block diagonal designs X and Z on the
        same points (see `block_diagonal`), shape (blocks, q, q') with
        q = cols / blocks and q' = other.cols / blocks; the rest of X'Z is zero.
        """
        if other.rows != self.rows:
            raise ValueError(f"row mismatch: {self.rows} and {other.rows}")
        q, q2 = self.cols // blocks, other.cols // blocks
        # entry (c, c2) of block b, at c = b q + i and c2 = b q2 + k, is entry
        # b q q2 + i q2 + k of the flat stack, that is c q2 + k
        idx = (self.first * q2 + other.first % q2)[:, None] + np.arange(other.vals.shape[1])
        size = self.cols * q2
        out = np.zeros(size)
        for r in range(self.vals.shape[1]):  # column offset r of X moves c by r
            w = self.vals[:, r, None] * other.vals
            out[r * q2 :] += np.bincount(idx.ravel(), w.ravel(), minlength=size)[: size - r * q2]
        return out.reshape(blocks, q, q2)


def make_knots(degree: int, num_intervals: int) -> SplineConfig:
    """Build the uniform-knot configuration for the given degree and interval count."""
    return SplineConfig(degree=degree, num_intervals=num_intervals)


def _bspline_recursive(cfg: SplineConfig, k: int, d: int, x: float) -> float:
    # Cox-de Boor with left-open base intervals; 0/0 terms are dropped.
    if x <= cfg.knot(k - 1) or x > cfg.knot(k + d):
        return 0.0
    if d == 0:
        return 1.0
    total = 0.0
    den_left = cfg.knot(k + d - 1) - cfg.knot(k - 1)
    if den_left > 0.0:
        b = _bspline_recursive(cfg, k, d - 1, x)
        if b != 0.0:
            total += (x - cfg.knot(k - 1)) / den_left * b
    den_right = cfg.knot(k + d) - cfg.knot(k)
    if den_right > 0.0:
        b = _bspline_recursive(cfg, k + 1, d - 1, x)
        if b != 0.0:
            total += (cfg.knot(k + d) - x) / den_right * b
    return total


def bspline_eval(cfg: SplineConfig, k: int, x: float) -> float:
    """Value of the degree-p basis function B_k at a single point.

    Reference implementation of the recursion; `design_matrix` evaluates the
    whole basis with an equivalent bottom-up table scheme.
    """
    if not (-cfg.degree + 1 <= k <= cfg.num_intervals):
        raise ValueError(
            f"basis index {k} outside [-p+1, K] = "
            f"[{-cfg.degree + 1}, {cfg.num_intervals}]"
        )
    return _bspline_recursive(cfg, k, cfg.degree, float(x))


def _interval_index(cfg: SplineConfig, x: np.ndarray) -> np.ndarray:
    """Index j in 1..K with x in (kappa_{j-1}, kappa_j], exact on stored knots.

    On uniform knots j = ceil(x K).  The product x K can round across an
    integer when x lies on or next to a knot, so j moves by one where the
    stored knots say so.
    """
    p, K = cfg.degree, cfg.num_intervals
    j = np.clip(np.ceil(x * K), 1, K).astype(np.intp)
    kn = cfg.knots  # kappa_i is kn[i + p]
    j -= x <= kn[j - 1 + p]
    j += x > kn[j + p]
    return j


def design_matrix(cfg: SplineConfig, points) -> DesignMatrix:
    """Evaluate all K + p basis functions at points in (0, 1].

    Each row carries the p + 1 possibly-nonzero values; rows sum to 1.  Raises
    ValueError when a point falls outside the (0, 1] domain (the preprocessing
    layer is responsible for nudging exact zeros into the domain).
    """
    x = np.ascontiguousarray(points, dtype=float).ravel()
    p, K = cfg.degree, cfg.num_intervals
    q = K + p
    if x.size:
        if not np.all(np.isfinite(x)):
            raise ValueError("covariate values must be finite")
        lo, hi = x.min(), x.max()
        if lo <= 0.0 or hi > 1.0:
            raise ValueError(
                f"covariate values must lie in (0, 1]; saw range [{lo}, {hi}]"
            )
    j = _interval_index(cfg, x)

    # Bottom-up de Boor table over the p+1 active functions per point, one
    # column per function.  At degree d the active indices are k = j-d..j and
    # the uniform denominators collapse to d/K; knot kappa_{j+i} is (j + i)/K,
    # the stored value.
    jf = j.astype(float)
    cols = [np.ones(x.size)]
    for d in range(1, p + 1):
        prev, cols = cols, []
        for r in range(d + 1):  # k = j-d+r, from the two functions below it
            v = (x - (jf + (r - d - 1)) / K) * prev[r - 1] if r else 0.0
            if r < d:
                v = v + ((jf + r) / K - x) * prev[r]
            if r:
                prev[r - 1] = None  # its last use: free it before the next column
            v *= K / d
            cols.append(v)
    vals = np.column_stack(cols)

    j -= 1
    return DesignMatrix(rows=x.size, cols=q, first=j, vals=vals, covariate=x, config=cfg)


def basis_integral(cfg: SplineConfig, k: int) -> float:
    """Integral of B_k over [0, 1] by per-interval Gauss-Legendre quadrature.

    Uses ceil((p+1)/2) + 1 nodes per knot interval, exact for degree-p
    polynomial pieces.  Interior functions (1 <= k <= K - p) integrate to 1/K.
    """
    p, K = cfg.degree, cfg.num_intervals
    if not (-p + 1 <= k <= K):
        raise ValueError(f"basis index {k} outside [-p+1, K]")
    n_nodes = -(-(p + 1) // 2) + 1
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    lo_j, hi_j = max(k, 1), min(k + p, K)  # knot intervals meeting the support
    if lo_j > hi_j:
        return 0.0
    total = 0.0
    half = 0.5 / K
    for jj in range(lo_j, hi_j + 1):
        mid = (cfg.knot(jj - 1) + cfg.knot(jj)) / 2.0
        xs = mid + half * nodes
        col = design_matrix(cfg, xs).values[:, k + p - 1]
        total += half * float(weights @ col)
    return total


def eval_grid(num_points: int = 201) -> np.ndarray:
    """Equispaced evaluation grid k/num_points, k = 1..num_points, inside (0, 1]."""
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    return np.arange(1, num_points + 1, dtype=float) / num_points
