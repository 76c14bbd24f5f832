"""Uniform B-spline basis on the unit interval.

The basis lives on equidistant knots kappa_k = k/K for k = -p..K+p and holds
q = K + p functions indexed k = -p+1..K.  Degree-0 splines are indicators of the
half-open interval (kappa_{k-1}, kappa_k], so every x in (0, 1] lies in exactly
one base interval and the partition of unity holds on (0, 1] (and fails at 0,
which is outside the data domain by convention).

A design is lazy: a `DesignMatrix` holds its covariate values, and each
product evaluates the basis one chunk of rows at a time (`DesignChunk`).  Each
point lies in one knot interval, where only p + 1 consecutive functions are
non-zero, so a chunk keeps the first non-zero column and those p + 1 values
per row.  Every product the estimator needs is added up over chunks in
O(n p^2) time and O(chunk p) memory: the p + 1 lower bands of the Gram
matrix X'X (the rest of it is exactly zero), the dense q x q diagonal blocks
of the cross-product X_1'X_2 of two designs, X'y and Xb.  The normal
equations scatter the Gram bands once into the dense per-block stacks that
every solve and product then uses (`bandmat._stack_from_bands`).  No
n-row array of basis values exists on the fit path; the compact rows of all
points and the dense n x q matrix are built only on request, as the `first`,
`vals` and `values` views.  Several designs stacked block diagonally
(`DesignMatrix.block_diagonal`) share all of these products, one block per
design.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

# Byte budget of a block of work, and the allowance per row of a pass over
# rows for the basis values, indices and products of its chunk (tracemalloc
# measures 178 bytes at degree 3, the peak of the normal-equation statistics
# of 8192 rows).  A chunk takes half the budget: products run over chunks of
# _BLOCK_BYTES // 2 // _ROW_BYTES = 8192 rows.  The Monte Carlo harness gives
# the other half to what the replications of one block hold beside the chunk.
_BLOCK_BYTES = 4 << 20
_ROW_BYTES = 256
_CHUNK_ROWS = _BLOCK_BYTES // 2 // _ROW_BYTES

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
class DesignChunk:
    """Basis evaluations of consecutive rows of a design, in compact row form.

    Row i holds the p + 1 possibly non-zero values `vals[r, i]` = B_k(x_i) of
    columns `first[i] + r`, r = 0..p, where column c is the basis index
    k = c - p + 1 (shifted by b q in block b of a block diagonal design).
    The values of one offset r lie together, so every operation below runs
    along whole rows of the chunk.  The products below are the only product
    code: a design runs them chunk by chunk, adding each chunk's share into
    one accumulator.
    """

    first: np.ndarray  # shape (rows,), int: first non-zero column of each row
    vals: np.ndarray  # shape (p + 1, rows)
    cols: int

    @property
    def columns(self) -> np.ndarray:
        """Column index of each entry of `vals`, shape (p + 1, rows)."""
        return self.first + np.arange(self.vals.shape[0])[:, None]

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """X b, shape (rows,)."""
        out = self.vals[0] * b[self.first]
        for r in range(1, self.vals.shape[0]):
            out += self.vals[r] * b[self.first + r]
        return out

    def rmatvec(self, y: np.ndarray, out: np.ndarray) -> None:
        """Add X'y to `out` (shape (cols,))."""
        w = self.vals * y
        out += np.bincount(self.columns.ravel(), w.ravel(), minlength=self.cols)

    def gram_bands(self, out: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Add the lower bands of X' diag(weights) X to `out` (shape (p + 1, cols)).

        `out[d, c]` is the (c + d, c) entry; basis functions more than p
        columns apart share no support, so the bands hold the whole matrix.
        """
        p1, q = self.vals.shape[0], self.cols
        v = self.vals if weights is None else self.vals * weights
        for r in range(p1):
            col = self.first + r
            for s in range(r, p1):  # entry pair (r, s) of every row, on band s - r
                out[s - r] += np.bincount(col, v[r] * self.vals[s], minlength=q)

    def block_cross(self, other: "DesignChunk", out: np.ndarray) -> None:
        """Add the diagonal blocks of X'Z, for Z the same rows of another block
        diagonal design, to `out` (shape (blocks, q, q'))."""
        if not self.first.size:
            return
        q, q2 = out.shape[1:]
        # the rows run block after block: they touch blocks lo..hi - 1 alone,
        # and only those blocks' entries get bins
        lo, hi = self.first[0] // q, self.first[-1] // q + 1
        flat = out.reshape(-1)[lo * q * q2 : hi * q * q2]
        size = flat.size
        # entry (c, c2) of block b, at c = b q + i and c2 = b q2 + k, is entry
        # (b - lo) q q2 + i q2 + k of the blocks' flat stack, (c - lo q) q2 + k
        idx = ((self.first - lo * q) * q2 + other.first % q2
               + np.arange(other.vals.shape[0])[:, None]).ravel()
        w = np.empty_like(other.vals)  # one product buffer for every offset
        for r in range(self.vals.shape[0]):  # column offset r of X moves c by r
            np.multiply(self.vals[r], other.vals, out=w)
            flat[r * q2 :] += np.bincount(idx, w.ravel(), minlength=size)[: size - r * q2]


@dataclass(frozen=True)
class DesignMatrix:
    """Basis evaluations of one covariate sample, evaluated a chunk of rows at a time.

    The design holds its covariate values and nothing of size n besides them.
    Every product evaluates the basis on at most `_CHUNK_ROWS` rows at a time
    (`cuts`, `chunk`) and adds up the chunks' products, so it takes
    O(chunk p) memory at any n.  With `blocks` > 1 the rows are that many
    independent designs of rows / blocks consecutive rows each, and block b's
    rows use columns b q .. b q + q - 1 (see `block_diagonal`).  `first` and
    the dense n x q `values` are views of all rows at once, built on first
    access and cached, for tests, oracles and small grids; the products never
    build them.
    """

    covariate: np.ndarray
    config: SplineConfig
    blocks: int = 1

    @property
    def rows(self) -> int:
        return self.covariate.shape[0]

    @property
    def cols(self) -> int:
        return self.blocks * self.config.num_basis

    def basis_index(self, col: int) -> int:
        return col - self.config.degree + 1

    def chunk(self, start: int, stop: int) -> DesignChunk:
        """Rows start..stop - 1, evaluated."""
        first, vals = _basis_rows(self.config, self.covariate[start:stop])
        if self.blocks > 1:
            block_rows = self.rows // self.blocks
            first += np.arange(start, stop) // block_rows * self.config.num_basis
        return DesignChunk(first=first, vals=vals, cols=self.cols)

    def cuts(self) -> list[slice]:
        """The slices of rows of the chunks that cover the design, each of at
        most `_CHUNK_ROWS` rows.

        A block diagonal design is cut only between its blocks, as many
        whole blocks to a chunk as fit, or, for blocks of more than
        `_CHUNK_ROWS` rows, within each block where a design of that block
        alone is cut.  Either way each block's rows are summed in the chunks
        of its own design, so its sums are bit for bit that design's."""
        size = self.rows // self.blocks
        if 0 < size <= _CHUNK_ROWS:
            step = _CHUNK_ROWS // size * size
            return [slice(s, min(s + step, self.rows)) for s in range(0, self.rows, step)]
        return [slice(b * size + s, b * size + min(s + _CHUNK_ROWS, size))  # 0 rows: 1 empty
                for b in range(self.blocks) for s in range(0, max(size, 1), _CHUNK_ROWS)]

    @functools.cached_property
    def first(self) -> np.ndarray:
        """First non-zero column of every row, shape (rows,)."""
        return self.chunk(0, self.rows).first

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The dense n x q matrix; `values[i, c]` is B_k(x_i), k = c - p + 1."""
        rows = self.chunk(0, self.rows)
        X = np.zeros((self.rows, self.cols))
        X[np.arange(self.rows), rows.columns] = rows.vals
        return X

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """X b, shape (rows,)."""
        b = np.asarray(b, dtype=float)
        out = np.empty(self.rows)
        for rows in self.cuts():
            out[rows] = self.chunk(rows.start, rows.stop).matvec(b)
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """X'y, shape (cols,)."""
        y = np.asarray(y, dtype=float)
        out = np.zeros(self.cols)
        for rows in self.cuts():
            self.chunk(rows.start, rows.stop).rmatvec(y[rows], out)
        return out

    def gram_bands(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Lower bands of X' diag(weights) X, shape (p + 1, cols); see
        `DesignChunk.gram_bands`."""
        bands = np.zeros((self.config.degree + 1, self.cols))
        w = None if weights is None else np.asarray(weights, dtype=float)
        for rows in self.cuts():
            self.chunk(rows.start, rows.stop).gram_bands(bands, None if w is None else w[rows])
        return bands

    def block_diagonal(self, blocks: int) -> "DesignMatrix":
        """The rows as `blocks` independent designs of rows / blocks consecutive
        rows each: block b's rows move to columns b q .. b q + q - 1.

        Every product of the result is block diagonal, with exact zeros off
        the blocks, so one block diagonal system serves all blocks at once.
        """
        if self.rows % blocks:
            raise ValueError(f"{self.rows} rows do not split into {blocks} blocks")
        return replace(self, blocks=blocks)


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
    """The design of all K + p basis functions at points in (0, 1].

    Each row carries the p + 1 possibly-nonzero values; rows sum to 1.  Raises
    ValueError when a point falls outside the (0, 1] domain (the preprocessing
    layer is responsible for nudging exact zeros into the domain).  The points
    are checked here and evaluated by each product, a chunk of rows at a time;
    a one-dimensional float array is kept as it is, without a copy, so it
    must not change while the design is in use.
    """
    x = np.asarray(points, dtype=float).reshape(-1)
    if x.size:
        if not np.all(np.isfinite(x)):
            raise ValueError("covariate values must be finite")
        lo, hi = x.min(), x.max()
        if lo <= 0.0 or hi > 1.0:
            raise ValueError(
                f"covariate values must lie in (0, 1]; saw range [{lo}, {hi}]"
            )
    return DesignMatrix(covariate=x, config=cfg)


def _basis_rows(cfg: SplineConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First non-zero column of each point, and the p + 1 basis values of
    each point, shape (p + 1, points)."""
    p, K = cfg.degree, cfg.num_intervals
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
    j -= 1
    return j, np.stack(cols)


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
