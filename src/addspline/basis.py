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
is formed from that layout in O(n p^2) time and memory; the dense n x q matrix
is built only on request, as the `values` view.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
        r, s = np.triu_indices(p1)  # entry pairs (r, s), s >= r, on band d = s - r
        idx = ((s - r) * q + r) + self.first[:, None]
        w = v[:, r] * self.vals[:, s]
        return np.bincount(idx.ravel(), w.ravel(), minlength=p1 * q).reshape(p1, q)

    def cross(self, other: "DesignMatrix") -> np.ndarray:
        """X'Z for a design Z on the same points, dense shape (cols, other.cols)."""
        if other.rows != self.rows:
            raise ValueError(f"row mismatch: {self.rows} and {other.rows}")
        p1, s1 = self.vals.shape[1], other.vals.shape[1]
        offsets = (np.arange(p1)[:, None] * other.cols + np.arange(s1)).ravel()
        idx = (self.first * other.cols + other.first)[:, None] + offsets
        w = self.vals[:, :, None] * other.vals[:, None, :]
        size = self.cols * other.cols
        return np.bincount(idx.ravel(), w.ravel(), minlength=size).reshape(
            self.cols, other.cols
        )


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
    """Index j in 1..K with x in (kappa_{j-1}, kappa_j], exact on stored knots."""
    p, K = cfg.degree, cfg.num_intervals
    interior = cfg.knots[p + 1 : p + K + 1]  # kappa_1..kappa_K
    return np.searchsorted(interior, x, side="left") + 1


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

    # Bottom-up de Boor table over the p+1 active functions per point.  At
    # degree d the active indices are k = j-d..j and the uniform denominators
    # collapse to d/K.
    vals = np.ones((x.size, 1))
    kn = cfg.knots
    for d in range(1, p + 1):
        prev = vals
        vals = np.empty((x.size, d + 1))
        for r in range(d + 1):
            k = j - d + r
            acc = np.zeros(x.size)
            if r > 0:
                acc += (x - kn[k - 1 + p]) * prev[:, r - 1]
            if r < d:
                acc += (kn[k + d + p] - x) * prev[:, r]
            vals[:, r] = acc * (K / d)

    return DesignMatrix(
        rows=x.size, cols=q, first=j - 1, vals=vals, covariate=x, config=cfg
    )


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
