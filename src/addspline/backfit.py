"""Penalized backfitting for the bivariate additive spline model.

The fitted model is y_i = f_1(x_i1) + f_2(x_i2) + e_i with each component a
spline B(x)'b_j, estimated by minimizing

    ||y - X_1 b_1 - X_2 b_2||^2 + lam_1 b_1' Q_m b_1 + lam_2 b_2' Q_m b_2.

Stages alternate the two penalized normal-equation solves (block Gauss-Seidel);
each solve is a product with the inverse of a q x q system, and no n x n
smoother matrix is ever formed.  The fit reads the data only through X_j'X_j,
X_1'X_2, X_j'y and y'y, added up in one pass over chunks of rows
(`NormalEquations`): no n-row array of basis values exists on the fit path,
whatever n.

Identification: both bases sum to one and the difference penalty ignores
constants, so moving a constant between the components changes nothing: the
stacked normal-equation matrix is exactly singular for every lam >= 0.  Where
that shift is a null vector (`joint_system_singular`), the gauge l'b_2 = 0,
l = X_2'1 (f_hat_2 sums to zero over the data), picks one minimizer.  The
sweeps conserve l'b_2, so the zero-start backfit keeps it; `backfit` projects
a given start onto it, and `NormalEquations.solve` imposes it.

At zero penalty a basis column that holds no data leaves its half-step system
singular; such columns are pinned (`NormalEquations.pinned`): their
coefficients are fixed at exactly 0.0, the minimum-norm solution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .bandmat import BandedCholesky, NotPositiveDefiniteError
from .bandmat import _block_matmul, _stack_from_bands, gram_banded
from .basis import DesignMatrix, SplineConfig, design_matrix, make_knots
from .penalty import PenaltyMatrix, penalty_matrix

__all__ = [
    "AdditiveDesign",
    "BackfitResult",
    "HessianReport",
    "NormalEquations",
    "NormalStatistics",
    "kn_rule",
    "lambda_rule",
    "build_design",
    "criterion",
    "backfit",
    "backfit_stages",
    "joint_solve",
    "univariate_penalized",
    "predict",
    "hessian_check",
]


def kn_rule(n: int) -> int:
    """Default interval count K = round(2 n^{2/5})."""
    return int(round(2.0 * n ** 0.4))


def lambda_rule(n: int, num_intervals: int) -> float:
    """Default penalty weight 2 n^{2/5} / sqrt(K)."""
    return 2.0 * n ** 0.4 / np.sqrt(num_intervals)


@dataclass(frozen=True)
class AdditiveDesign:
    """Response, the two design matrices, penalty weights, and the penalty.

    `blocks` > 1 stacks that many independent designs of equal size, with
    block diagonal design matrices (`DesignMatrix.block_diagonal`) and the
    responses one after another: the normal equations, the sweeps and
    `StageSmoother` then serve all of them at once, block by block, as does
    `joint_solve`; the dense `hessian_check` and `criterion` take one block.

    `statistics`, when given, are the design's `NormalStatistics`, added up
    elsewhere (say, over parts of the rows in several processes); otherwise
    the normal equations add them up from y, X1 and X2.  A design given its
    statistics may hold no rows (y, X1 and X2 empty): it then reads its `n`
    rows only through them, and has no residual pass of its own.
    """

    y: np.ndarray
    X1: DesignMatrix
    X2: DesignMatrix
    lambda1: float
    lambda2: float
    penalty: PenaltyMatrix
    blocks: int = 1
    statistics: "NormalStatistics | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.y.shape[0]
        if self.X1.rows != n or self.X2.rows != n:
            raise ValueError(
                f"row mismatch: y has {n}, X1 {self.X1.rows}, X2 {self.X2.rows}"
            )
        bad = np.flatnonzero(~np.isfinite(self.y))
        if bad.size:
            raise ValueError(f"response y must be finite; row {bad[0]} is {self.y[bad[0]]}")
        if self.X1.cols != self.X2.cols:
            raise ValueError("both components must use the same basis size")
        if self.penalty.size * self.blocks != self.X1.cols:
            raise ValueError(
                f"penalty size {self.penalty.size} != basis size {self.X1.cols}"
                + (f" / {self.blocks} blocks" if self.blocks > 1 else "")
            )
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("penalty weights must be >= 0")
        if self.statistics is not None and self.statistics.u1.shape != (self.X1.cols,):
            raise ValueError(
                f"statistics of {self.statistics.u1.shape[0]} columns for a basis "
                f"of {self.X1.cols}"
            )

    @property
    def num_coef(self) -> int:
        return self.X1.cols

    @property
    def n(self) -> int:
        """The rows of the data: the statistics' count where given, else y's."""
        return self.y.shape[0] if self.statistics is None else self.statistics.n

    def residual_sum_of_squares(self, b1: np.ndarray, b2: np.ndarray) -> float:
        """||y - X_1 b_1 - X_2 b_2||^2; a ValueError where the design lacks its rows."""
        if self.y.shape[0] != self.n:
            raise ValueError(f"the design holds {self.y.shape[0]} of its {self.n} rows")
        return _residual_sum_of_squares(self.y, self.X1, self.X2, b1, b2)

    @functools.cached_property
    def normal_equations(self) -> "NormalEquations":
        """The design's one factored system, built on first use and shared by
        the sweeps, the smoother weights, the joint solve and the diagnostics."""
        return NormalEquations(self)


@dataclass
class BackfitResult:
    """Coefficients after backfitting plus convergence bookkeeping.

    `converged` is meaningful only for tolerance-based runs (`backfit`): it
    records that both the sup-norm coefficient change and the normal-equation
    residual sup-norm dropped to tol.  Fixed-stage runs (`backfit_stages`)
    report converged=False by construction.
    """

    b1: np.ndarray
    b2: np.ndarray
    stages: int
    converged: bool
    residual_norm: float
    history: list[tuple[np.ndarray, np.ndarray]] | None = None


def build_design(
    y,
    x1,
    x2,
    degree: int = 3,
    diff_order: int = 2,
    num_intervals: int | None = None,
    lambda1: float | None = None,
    lambda2: float | None = None,
    statistics: "NormalStatistics | None" = None,
) -> AdditiveDesign:
    """Assemble an AdditiveDesign from raw samples using the default rules;
    `statistics` as `AdditiveDesign` takes them.  Samples of None, with
    statistics, give the design without rows, whose n is the statistics'."""
    rows = y is not None
    y = np.asarray(y if rows else (), dtype=float).reshape(-1)
    n = y.shape[0] if statistics is None else statistics.n
    K = kn_rule(n) if num_intervals is None else int(num_intervals)
    cfg = make_knots(degree, K)
    lam_default = lambda_rule(n, K)
    X1, X2 = (design_matrix(cfg, x) if rows else DesignMatrix(y, cfg) for x in (x1, x2))
    return AdditiveDesign(
        y=y,
        X1=X1,
        X2=X2,
        lambda1=lam_default if lambda1 is None else float(lambda1),
        lambda2=lam_default if lambda2 is None else float(lambda2),
        penalty=penalty_matrix(diff_order, cfg.num_basis),
        statistics=statistics,
    )


@dataclass(frozen=True)
class NormalStatistics:
    """Everything the estimator reads of the data, as sums over rows.

    The p + 1 lower bands of each Gram matrix X_j'X_j (`bands1`, `bands2`,
    see `DesignChunk.gram_bands`), the diagonal blocks of C = X_1'X_2
    (`C_blocks`, shape (blocks, q, q)), u_j = X_j'y, y'y and the row count n.
    Being sums over rows, the statistics of two sets of rows add up (`+`) to
    those of both: a design's rows can be summed in parts, in any processes,
    as long as every part uses the same basis.
    """

    bands1: np.ndarray
    bands2: np.ndarray
    C_blocks: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    yy: float
    n: int

    @classmethod
    def of(cls, y: np.ndarray, X1: DesignMatrix, X2: DesignMatrix) -> "NormalStatistics":
        """The statistics of the rows of y, X1 and X2, added up in one pass over
        chunks of rows (`DesignMatrix.chunks`), which evaluates each
        component's basis once per chunk, in O(q^2 + chunk) memory at any n."""
        q, blocks, p = X1.cols, X1.blocks, X1.config.degree
        bands1, bands2 = np.zeros((p + 1, q)), np.zeros((p + 1, q))
        C_blocks = np.zeros((blocks, q // blocks, q // blocks))
        u1, u2 = np.zeros(q), np.zeros(q)
        yy = 0.0
        for (rows, R1), (_, R2) in zip(X1.chunks(), X2.chunks()):
            yr = y[rows]
            yy += float(yr @ yr)
            R1.gram_bands(bands1)
            R2.gram_bands(bands2)
            R1.block_cross(R2, C_blocks)
            R1.rmatvec(yr, u1)
            R2.rmatvec(yr, u2)
        return cls(bands1, bands2, C_blocks, u1, u2, yy, y.shape[0])

    def __add__(self, other: "NormalStatistics") -> "NormalStatistics":
        return NormalStatistics(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


class _PinnedCholesky(BandedCholesky):
    """Factor of Lam_j = X_j'X_j + lam_j Q_m with data-free columns pinned.

    A column whose diagonal entry is at or below the rounding floor
    q eps max(diag) carries neither data nor a penalty above rounding, which
    happens only at lam_j = 0 in practice.  Its row and column are factored as
    a unit diagonal, and then zeroed in the inverse, so its coefficient solves
    to exactly 0.0: the minimum-norm solution on that block.  `pinned` lists
    those columns.  A block that is rank-deficient for any other reason still
    raises NotPositiveDefiniteError.  A stack of several blocks takes each
    block's floor from that block's diagonal.
    """

    def __init__(self, stack: np.ndarray):
        diag = np.diagonal(stack, axis1=1, axis2=2)
        floor = diag.shape[1] * np.finfo(float).eps * diag.max(axis=1, keepdims=True)
        block, col = np.nonzero(diag <= floor)
        self.pinned = block * diag.shape[1] + col
        if self.pinned.size:
            stack = stack.copy()
            stack[block, col, :] = 0.0
            stack[block, :, col] = 0.0
            stack[block, col, col] = 1.0
        super().__init__(stack)
        self.inverse[block, col, :] = 0.0
        self.inverse[block, :, col] = 0.0


def _check_penalty(Q: PenaltyMatrix) -> None:
    """Raise ValueError unless Q_m is symmetric: the factors read the lower
    triangle of each Lam_j alone, and the products with it the whole."""
    V = Q.values
    gap = np.abs(V - V.T).max(initial=0.0)
    if gap > 1e-12 * (1.0 + np.abs(V).max(initial=0.0)):
        raise ValueError(f"penalty is not symmetric (worst asymmetry {gap:.3e})")


class NormalEquations:
    """Factored per-component systems shared by sweeps, weights, and oracles.

    Every q x q matrix here is block diagonal over the design's blocks and
    stored as the dense stack of its diagonal blocks, shape (blocks, q, q):
    the Gram matrices G_j = X_j'X_j (`G1`, `G2`), the systems
    Lam_j = G_j + lam_j Q_m (`Lam1`, `Lam2`), the cross-product C = X_1'X_2
    (`C_blocks`) and the inverses in the factors `L1`, `L2` (with data-free
    columns pinned, see _PinnedCholesky).  Every product with them is one
    batched matrix product, and none of them keeps a bandwidth, so Q_m may be
    any symmetric matrix.  Beside them: the right-hand sides u_j = X_j'y,
    the response's sum of squares `yy` and the column sums X_j'1
    (`column_sums`, read off the Gram matrices).  `pinned` holds the pinned
    column indices of each component; `stacked_matrix`, the residual and the
    shift check use the unpinned Lam_j.

    These statistics are all the estimator reads of the data, the residual
    sum of squares included (`rss_estimate`).  They come from the design's
    `NormalStatistics`: its `statistics` when given, else one pass over its
    rows (`NormalStatistics.of`).
    """

    def __init__(self, design: AdditiveDesign):
        # no reference back to the design: the design caches this object, and
        # a cycle would leave both to the cyclic garbage collector
        _check_penalty(design.penalty)
        self.num_coef = design.num_coef
        self.blocks = blocks = design.blocks
        s = design.statistics
        if s is None:
            s = NormalStatistics.of(design.y, design.X1, design.X2)
        self.C_blocks, self.u1, self.u2, self.yy = s.C_blocks, s.u1, s.u2, s.yy
        Q = design.penalty
        self.G1 = _stack_from_bands(s.bands1, blocks)
        self.G2 = _stack_from_bands(s.bands2, blocks)
        # every row of a design sums to one, so X_j'1 = X_j'X_j 1: no third
        # product per chunk, for sums that only the display centring reads
        self.column_sums = (self.G1.sum(axis=2).ravel(), self.G2.sum(axis=2).ravel())
        with np.errstate(over="ignore"):  # an overflow is named below
            self.Lam1 = self.G1 + design.lambda1 * Q.values
            self.Lam2 = self.G2 + design.lambda2 * Q.values
        for j, Lam in enumerate((self.Lam1, self.Lam2), start=1):
            if not np.isfinite(Lam).all():
                lam = getattr(design, f"lambda{j}")
                raise ValueError(f"penalty weight lambda{j} = {lam:g} is too large: "
                                 f"Lam_{j} = G_{j} + lambda{j} Q exceeds the float range")
        self.L1 = _PinnedCholesky(self.Lam1)
        self.L2 = _PinnedCholesky(self.Lam2)
        self.pinned = (self.L1.pinned, self.L2.pinned)

    @property
    def C(self) -> np.ndarray:
        """C = X_1'X_2 as one q x q matrix, for a design of one block."""
        if self.blocks != 1:
            raise ValueError(f"C of {self.blocks} blocks is the stack C_blocks")
        return self.C_blocks[0]

    def cross(self, v: np.ndarray, transpose: bool = False) -> np.ndarray:
        """C v, or C' v, block by block, for a vector or a block of columns."""
        return _block_matmul(self.C_blocks, v, transpose)

    def sweep(self, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One stage: b1 = Lam_1^{-1}(u1 - C b2), then b2 = Lam_2^{-1}(u2 - C' b1)."""
        b1 = self.L1.solve(self.u1 - self.cross(b2))
        b2_new = self.L2.solve(self.u2 - self.cross(b1, transpose=True))
        return b1, b2_new

    def residual_norm(self, b1: np.ndarray, b2: np.ndarray) -> float:
        r1 = _block_matmul(self.Lam1, b1) + self.cross(b2) - self.u1
        r2 = self.cross(b1, transpose=True) + _block_matmul(self.Lam2, b2) - self.u2
        return float(max(np.abs(r1).max(), np.abs(r2).max()))

    def rss_estimate(self, b1: np.ndarray, b2: np.ndarray) -> tuple[float, float]:
        """||y - X_1 b_1 - X_2 b_2||^2 from the statistics, and its rounding bound.

        RSS = y'y - 2 b'u + b'Gb, with b'u = b1'u1 + b2'u2 and
        b'Gb = b1'G1 b1 + b2'G2 b2 + 2 b1'C b2 for the unpenalized Grams.
        The bound, relative to RSS, is _RSS_ROUNDING eps (y'y + 2|b'u| + |b'Gb|)
        / RSS: the cancellation the formula suffers when the fit leaves little
        residual.  It is infinite when the computed RSS is not positive.
        """
        fit_y = float(b1 @ self.u1 + b2 @ self.u2)
        fit_fit = float(
            b1 @ _block_matmul(self.G1, b1)
            + b2 @ _block_matmul(self.G2, b2)
            + 2.0 * (b1 @ self.cross(b2))
        )
        rss = self.yy - 2.0 * fit_y + fit_fit
        if not rss > 0.0:
            return rss, np.inf
        scale = self.yy + 2.0 * abs(fit_y) + abs(fit_fit)
        return rss, _RSS_ROUNDING * np.finfo(float).eps * scale / rss

    @functools.cached_property
    def constant_shift(self) -> tuple[float, float]:
        """||H z||_inf at the constant shift z = (1_q, -1_q), and its rounding floor.

        H is the stacked matrix, so H z = (Lam_1 1 - C 1, C'1 - Lam_2 1).  Both
        bases sum to one and Q_m 1 = 0, which makes H z exactly zero on full
        bases.  The floor is 2q eps ||H||_inf, with ||H||_inf the largest
        absolute row sum, read off the stacks.  O(q^2), and no 2q x 2q matrix.
        """
        ones = np.ones(self.num_coef)
        shift = np.concatenate(
            [
                _block_matmul(self.Lam1, ones) - self.cross(ones),
                self.cross(ones, transpose=True) - _block_matmul(self.Lam2, ones),
            ]
        )
        abs_C = np.abs(self.C_blocks)
        row_sums = np.concatenate(
            [
                np.abs(self.Lam1).sum(axis=2).ravel() + abs_C.sum(axis=2).ravel(),
                np.abs(self.Lam2).sum(axis=2).ravel() + abs_C.sum(axis=1).ravel(),
            ]
        )
        floor = shift.size * np.finfo(float).eps * float(row_sums.max())
        return float(np.abs(shift).max()), floor

    @property
    def joint_system_singular(self) -> bool:
        """The constant shift is a null vector of the stacked system to rounding:
        its residual `constant_shift` is at or below the floor."""
        residual, floor = self.constant_shift
        return bool(residual <= floor)

    def stacked_matrix(self) -> np.ndarray:
        """The 2q x 2q penalized normal-equation matrix, i.e. the Hessian H1 + H2."""
        return np.block([[self.Lam1[0], self.C], [self.C.T, self.Lam2[0]]])

    def gauge(self, b2: np.ndarray) -> np.ndarray:
        """b2, a vector or columns, moved onto l'b2 = 0 (l = X_2'1) along the
        ones vector with zeros at component 2's pinned columns, where
        `joint_system_singular` holds; b2 as it is otherwise."""
        if not self.joint_system_singular:
            return b2
        ell = self.column_sums[1].reshape(self.blocks, 1, -1)
        ones = np.isin(np.arange(self.num_coef), self.pinned[1], invert=True)
        g = b2.reshape(self.blocks, ell.shape[2], -1)
        ones = ones.reshape(g.shape[:2] + (1,))
        return (g - ones * (ell @ g) / ell.sum(axis=2, keepdims=True)).reshape(b2.shape)

    @functools.cached_property
    def _schur(self) -> _PinnedCholesky:
        """Factor of S = Lam_2 - C'Lam_1^{-1}C (plus l l'/l'1 where S 1 = 0) with
        component 2's pinned columns pinned.  A failed factor, a further pinned
        column or a pivot 1/(S^{-1})_jj (column j's, eliminated last) at or below
        _PIVOT_RTOL max(diag Lam_2) leaves the split undetermined beyond the shift."""
        S = self.Lam2 - self.C_blocks.swapaxes(1, 2) @ self.L1.inverse @ self.C_blocks
        if self.joint_system_singular:
            ell = self.column_sums[1].reshape(self.blocks, 1, -1)
            S += ell.swapaxes(1, 2) * ell / ell.sum(axis=2, keepdims=True)
        block, col = np.divmod(self.pinned[1], S.shape[1])
        S[block, col, :] = S[block, :, col] = 0.0
        pivot, floor = 0.0, _PIVOT_RTOL * np.diagonal(self.Lam2, axis1=1, axis2=2).max()
        try:
            factor = _PinnedCholesky(S)
        except NotPositiveDefiniteError:
            factor = None
        if factor is not None and factor.pinned.size == self.pinned[1].size:
            pivot = 1.0 / np.diagonal(factor.inverse, axis1=1, axis2=2).max()
        if not pivot > floor:
            raise NotPositiveDefiniteError(
                "the joint system is singular beyond the constant shift between "
                f"the components (smallest pivot {pivot:.3e}, floor {floor:.3e})"
            )
        return factor

    def solve(self, v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(b1, b2) with H (b1, b2) = (v1, v2), vectors or columns, in the gauge
        l'b2 = 0 (`gauge`), b1 eliminated through Lam_1^{-1}.  For any (v1, v2)
        this is the top left block of [[H, w], [w', 0]]^{-1}, w = (0, l): the
        map is symmetric.  Pinned coefficients are exactly 0.0."""
        b2 = self.gauge(self._schur.solve(v2 - self.cross(self.L1.solve(v1), transpose=True)))
        return self.L1.solve(v1 - self.cross(b2)), b2


# Multiple of eps (y'y + 2|b'u| + |b'Gb|) taken as the rounding error of
# `NormalEquations.rss_estimate`.
_RSS_ROUNDING = 16.0

# Smallest pivot of the gauged Schur complement over max(diag Lam_2) that `solve`
# accepts: measured, x2 = x1 gave at most 3.2e-11, identified designs 9.2e-11 and up.
_PIVOT_RTOL = 5e-11


def _residual_sum_of_squares(y, X1: DesignMatrix, X2: DesignMatrix, b1, b2) -> float:
    """||y - X_1 b_1 - X_2 b_2||^2 of the rows y, X1, X2, added up over chunks of rows."""
    b1, b2 = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    total = 0.0
    for (rows, R1), (_, R2) in zip(X1.chunks(), X2.chunks()):
        resid = y[rows] - R1.matvec(b1) - R2.matvec(b2)
        total += float(np.sum(resid**2))
    return total


def criterion(design: AdditiveDesign, b1: np.ndarray, b2: np.ndarray) -> float:
    """Penalized least-squares objective at the given coefficients."""
    return float(
        design.residual_sum_of_squares(b1, b2)
        + design.lambda1 * design.penalty.quad_form(b1)
        + design.lambda2 * design.penalty.quad_form(b2)
    )


def _run(
    eq: NormalEquations,
    b2_init: np.ndarray | None,
    tol: float | None,
    max_stages: int,
    keep_history: bool,
) -> BackfitResult:
    q = eq.num_coef
    b2 = np.zeros(q) if b2_init is None else np.asarray(b2_init, dtype=float).copy()
    if b2.shape != (q,):
        raise ValueError(f"b2_init must have shape ({q},), got {b2.shape}")
    b2 = b2 if b2_init is None else eq.gauge(b2)  # the sweeps conserve l'b2
    b1 = np.zeros(q)
    history: list[tuple[np.ndarray, np.ndarray]] | None = [] if keep_history else None
    converged = False
    stages = 0
    residual = np.inf
    for stage in range(1, max_stages + 1):
        b1_new, b2_new = eq.sweep(b2)
        change = max(
            float(np.abs(b1_new - b1).max()) if stage > 1 else np.inf,
            float(np.abs(b2_new - b2).max()),
        )
        b1, b2 = b1_new, b2_new
        stages = stage
        if history is not None:
            history.append((b1.copy(), b2.copy()))
        if tol is not None:
            residual = eq.residual_norm(b1, b2)
            if change <= tol and residual <= tol:
                converged = True
                break
    if tol is None:  # otherwise the last stage's residual is the final one
        residual = eq.residual_norm(b1, b2)
    return BackfitResult(
        b1=b1,
        b2=b2,
        stages=stages,
        converged=converged,
        residual_norm=residual,
        history=history,
    )


def backfit(
    design: AdditiveDesign,
    b2_init: np.ndarray | None = None,
    tol: float = 1e-10,
    max_stages: int = 100,
    keep_history: bool = False,
) -> BackfitResult:
    """Iterate sweeps until coefficients and normal-equation residual settle.

    Stops when the sup-norm coefficient change and the normal-equation residual
    sup-norm are both <= tol; otherwise runs max_stages sweeps and returns with
    converged=False (the result is still usable -- non-convergence is a flag,
    not an exception).  A given `b2_init` is first moved onto the gauge
    l'b2 = 0 (`NormalEquations.gauge`), which the sweeps then conserve.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if max_stages < 1:
        raise ValueError("max_stages must be >= 1")
    return _run(design.normal_equations, b2_init, tol, max_stages, keep_history)


def backfit_stages(design: AdditiveDesign, stages: int) -> BackfitResult:
    """Run exactly `stages` sweeps from zero: the fixed-stage estimator whose
    weights `inference.StageSmoother` computes."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    return _run(design.normal_equations, None, None, stages, False)


def joint_solve(design: AdditiveDesign) -> tuple[np.ndarray, np.ndarray]:
    """The oracle for `backfit`: `NormalEquations.solve` of (u1, u2), with two
    full bases in the gauge l'b2 = 0 of the zero-start backfit.  Raises
    NotPositiveDefiniteError where x2 = x1, say, leaves the split undetermined."""
    eq = design.normal_equations
    return eq.solve(eq.u1, eq.u2)


def univariate_penalized(
    X: DesignMatrix, y: np.ndarray, lam: float, Q: PenaltyMatrix, x
):
    """Univariate penalized spline estimate B(x)'(X'X + lam Q)^{-1} X'y.

    At lam = 0, columns without data are pinned to zero (see _PinnedCholesky).
    """
    if lam < 0:
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    if Q.size != X.config.num_basis:
        raise ValueError(f"penalty size {Q.size} != basis size {X.config.num_basis}")
    _check_penalty(Q)
    y = np.asarray(y, dtype=float).ravel()
    b = _PinnedCholesky(gram_banded(X) + lam * Q.values).solve(X.rmatvec(y))
    out = design_matrix(X.config, x).matvec(b)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def predict(result: BackfitResult, cfg: SplineConfig, x1, x2):
    """Evaluate the two fitted components and their sum at new points."""
    f1 = design_matrix(cfg, x1).matvec(result.b1)
    f2 = design_matrix(cfg, x2).matvec(result.b2)
    if np.ndim(x1) == 0 and np.ndim(x2) == 0:
        return float(f1[0]), float(f2[0]), float(f1[0] + f2[0])
    return f1, f2, f1 + f2


@dataclass(frozen=True)
class HessianReport:
    """Positive-definiteness diagnostic of the objective's Hessian split H1 + H2.

    `constant_shift_quadform` is the (normalized) quadratic form of the Hessian
    at the direction (1,...,1,-1,...,-1) that moves a constant from one
    component to the other; an exact zero there certifies the partition-of-unity
    null direction.
    """

    is_pd: bool
    min_eig: float
    constant_shift_quadform: float


def hessian_check(design: AdditiveDesign) -> HessianReport:
    """Report whether the stacked Hessian is numerically positive definite."""
    H = design.normal_equations.stacked_matrix()
    q = design.num_coef
    eigs = np.linalg.eigvalsh(H)
    floor = 2 * q * np.finfo(float).eps * max(abs(eigs[0]), abs(eigs[-1]))
    chol_ok = True
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        chol_ok = False
    z = np.concatenate([np.ones(q), -np.ones(q)]) / np.sqrt(2 * q)
    return HessianReport(
        is_pd=bool(chol_ok and eigs[0] > floor),
        min_eig=float(eigs[0]),
        constant_shift_quadform=float(z @ H @ z),
    )
