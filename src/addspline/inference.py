"""Pointwise inference for the backfitting estimator.

The estimator is linear in y and touches y only through u = (X_1'y, X_2'y):
an estimate r'b of the coefficients b = (b1, b2) is a'u for one weight a in
coefficient space.  `StageSmoother._weights` is the one map from seeds r to
weights a: a fixed stage count runs the backfit sweep backwards from r
(`_coef_weights`), and stages=None, the backfitting solution the stages
converge to, maps r by the symmetric joint solve.  The observation weights of
a are X_1 a_1 + X_2 a_2, so two of them have the inner product a'G c, G the
stacked Gram matrix of (X_1, X_2): interval variances need no n-vector per
point.  The n-vector weights (`component_weights`, `smoother_weights`,
`exact_covariance`) serve heteroskedastic noise and test oracles.  No n x n
matrix is ever formed.

Reported confidence intervals use the exact finite-sample covariance of the
linear smoother (weights times the noise variance); the asymptotic bias and
variance formulas are provided as diagnostics with empirical plug-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .backfit import AdditiveDesign, BackfitResult
from .bandmat import gram_banded
from .basis import SplineConfig, design_matrix, eval_grid

__all__ = [
    "SmootherWeights",
    "IntervalEstimate",
    "PopulationSpec",
    "StageSmoother",
    "uniform_population",
    "smoother_weights",
    "exact_covariance",
    "sigma2_hat",
    "confidence_interval",
    "asymptotic_variance",
    "asymptotic_bias",
    "population_G",
]


@dataclass(frozen=True)
class SmootherWeights:
    """Weights w_j with f_hat_j(x_j) = w_j . y, for one evaluation point pair."""

    w1: np.ndarray
    w2: np.ndarray
    x1: float
    x2: float
    stages: int | None = None


@dataclass(frozen=True)
class IntervalEstimate:
    estimate: float
    variance: float
    level: float
    lower: float
    upper: float


class StageSmoother:
    """The weights of the backfit estimator at any evaluation points: with an
    int `stages`, the fixed-stage estimator, that many sweeps
    (`NormalEquations.sweep`) started from b2 = 0; with stages=None, their
    limit, the gauged solution of the normal equations (`NormalEquations.solve`).

    `evaluate_rows` gives estimates and weight inner products of basis rows,
    `component_weights` the observation weights of one estimate.  On a design
    of several blocks (`AdditiveDesign.blocks`) every block gets the same
    evaluation points, and one run of the kernel serves all blocks.
    """

    def __init__(self, design: AdditiveDesign, stages: int | None):
        if stages is not None and stages < 1:
            raise ValueError("stages must be >= 1")
        self.design = design
        self.stages = stages

    def _weights(self, seeds: list[np.ndarray]) -> np.ndarray:
        """Coefficient weights of the seed columns `seeds` = [S1, S2] (q x k
        each) in every block, shape (blocks, 2q, k).  The stage kernel takes
        the seeds out of the list (`_coef_weights`); the solution map is
        symmetric, so it maps the seeds themselves."""
        eq = self.design.normal_equations
        if eq.blocks > 1:
            seeds[:] = [np.tile(S, (eq.blocks, 1)) for S in seeds]
        if self.stages is not None:
            return _coef_weights(eq, self.stages, seeds)
        k = seeds[0].shape[1]
        return np.concatenate([b.reshape(eq.blocks, -1, k) for b in eq.solve(*seeds)], axis=1)

    def evaluate_rows(self, r1: np.ndarray, r2: np.ndarray):
        """Estimates of f_hat_1 at basis rows r1 = B(x1)' and f_hat_2 at r2
        (m x q each), shape (m, 2), and the inner products w_j . w_k of their
        observation weights, shape (m, 2, 2): times the noise variance, their
        exact covariance under homoskedastic noise.  With several blocks the
        leading axis runs over the m rows of block 0, then of block 1, ..."""
        eq = self.design.normal_equations
        (m, q), blocks = r1.shape, eq.blocks
        A = self._weights(_seeds(r1, r2))
        u = np.concatenate([eq.u1.reshape(blocks, 1, q), eq.u2.reshape(blocks, 1, q)], axis=2)
        estimates = (u @ A).reshape(blocks, 2, m).swapaxes(1, 2).reshape(-1, 2)
        # both bases sum to one, so moving a constant between the components
        # leaves the weights X_1 a_1 + X_2 a_2 as they are; taking the mean
        # such shift out of a first cuts the rounding of a'G a tenfold
        ones = np.ones((1, q))
        shift = (ones @ A[:, :q] - ones @ A[:, q:]) / (2 * q)
        A[:, :q] -= shift
        A[:, q:] += shift
        # per block and row i: P[a, b] = a_a' G a_b over the 2q coefficients,
        # a_0 and a_1 the weights of f_hat_1 and f_hat_2 at row i.  G a is
        # formed for one estimate's m columns at a time and reduced to its
        # entries of P before the next: no 2q x 2m product lives beside A
        A = A.reshape(blocks, 2 * q, 2, m)
        P = np.empty((blocks, m, 2, 2))
        cross = []
        for a in range(2):
            Aa = A[:, :, a]
            GA = np.empty_like(Aa)
            np.matmul(eq.G1, Aa[:, :q], out=GA[:, :q])
            GA[:, :q] += eq.C_blocks @ Aa[:, q:]
            np.matmul(eq.C_blocks.swapaxes(1, 2), Aa[:, :q], out=GA[:, q:])
            GA[:, q:] += eq.G2 @ Aa[:, q:]
            P[:, :, a, a] = (Aa * GA).sum(axis=1)
            cross.append((A[:, :, 1 - a] * GA).sum(axis=1))
            del GA
        P[:, :, 0, 1] = P[:, :, 1, 0] = (cross[1] + cross[0]) / 2
        return estimates, P.reshape(-1, 2, 2)

    def component_weights(self, j: int, x: float) -> np.ndarray:
        """Observation weights w with f_hat_j(x) = w . y."""
        if j not in (1, 2):
            raise ValueError(f"component index must be 1 or 2, got {j}")
        w = smoother_weights(self.design, x, x, self.stages)
        return w.w1 if j == 1 else w.w2


def _seeds(r1: np.ndarray, r2: np.ndarray) -> list[np.ndarray]:
    """Seed columns [S1, S2] = [[r1', 0], [0, r2']] of basis rows r1 (m1 x q)
    and r2 (m2 x q): f_hat_1 at the rows r1, then f_hat_2 at r2, each half of
    shape (q, m1 + m2) in its own array."""
    (m1, q), m2 = r1.shape, r2.shape[0]
    S1, S2 = np.zeros((q, m1 + m2)), np.zeros((q, m1 + m2))
    S1[:, :m1] = r1.T
    S2[:, m1:] = r2.T
    return [S1, S2]


def _coef_weights(eq, stages: int, seeds: list[np.ndarray]) -> np.ndarray:
    """Coefficient weights of the seed columns `seeds` = [S1, S2], shape
    (blocks, 2q, k).

    S1 and S2 hold q x k seeds per block, stacked block after block.  With
    (b1, b2) the coefficients after `stages` sweeps from b2 = 0, each seed
    column r = (r1, r2) gets the weight a = (a1, a2) with
    r1'b1 + r2'b2 = a1'u1 + a2'u2.  The sweep runs backwards: per stage one
    Lam_2 and one Lam_1 solve on k columns, with C and C' in between.  The
    pinned solves are symmetric, so they are their own adjoints.  Beyond 2q
    columns it is cheaper to sweep the 2q unit seeds and multiply by S.

    The kernel takes the seeds out of the list, so that a caller that keeps
    no other reference has them freed once the first stage has spent them.
    """
    blocks = eq.blocks
    g1, g2 = seeds.pop(0), seeds.pop()
    q, k = g1.shape[0] // blocks, g1.shape[1]
    if k > 2 * q:
        unit = np.eye(2 * q)
        T = _coef_weights(eq, stages, [np.tile(unit[:q], (blocks, 1)),
                                       np.tile(unit[q:], (blocks, 1))])
        S = np.concatenate([g1.reshape(blocks, q, k), g2.reshape(blocks, q, k)], axis=1)
        return T @ S
    A = np.zeros((blocks, 2 * q, k))
    a1, a2 = A[:, :q], A[:, q:]
    for _ in range(stages):
        # each array is dropped as soon as it is spent, the seeds within the
        # first stage, and the right-hand sides are formed in place: besides
        # A at most three q x k arrays live at once
        t = eq.L2.solve(g2)
        del g2
        a2 += t.reshape(blocks, q, k)
        rhs = eq.cross(t)
        del t
        t = eq.L1.solve(np.subtract(g1, rhs, out=rhs))  # g1 - C t
        a1 += t.reshape(blocks, q, k)
        # a stage's b1 reaches later stages only through that stage's b2
        g1, rhs = 0.0, None
        g2 = eq.cross(t, transpose=True)
        g2 *= -1.0
    return A


def smoother_weights(
    design: AdditiveDesign, x1: float, x2: float, stages: int | None = 10
) -> SmootherWeights:
    """Observation weights of the estimator at the evaluation point (x1, x2):
    the backfit of `stages` sweeps from zero, or with stages=None their limit,
    which with two full bases is the solution in the gauge l'b2 = 0
    (`StageSmoother`)."""
    seeds = _seeds(*(design_matrix(design.X1.config, float(x)).values for x in (x1, x2)))
    A = StageSmoother(design, stages)._weights(seeds)
    q = A.shape[1] // 2
    # the observation weights X_1 a_1 + X_2 a_2 of every block's rows, block after block
    w1, w2 = (design.X1.matvec(a[:, :q].ravel()) + design.X2.matvec(a[:, q:].ravel())
              for a in (A[:, :, 0], A[:, :, 1]))
    return SmootherWeights(w1=w1, w2=w2, x1=float(x1), x2=float(x2), stages=stages)


def exact_covariance(weights: SmootherWeights, noise) -> np.ndarray:
    """Exact 2x2 covariance of (f_hat_1, f_hat_2): W diag(sigma^2) W'.

    `noise` is the noise variance, a scalar for homoskedastic errors or a
    per-observation array.
    """
    n = weights.w1.shape[0]
    s2 = np.broadcast_to(np.asarray(noise, dtype=float), (n,))
    if np.any(s2 < 0):
        raise ValueError("noise variance must be >= 0")
    w1, w2 = weights.w1, weights.w2
    return np.array(
        [
            [float(np.sum(s2 * w1 * w1)), float(np.sum(s2 * w1 * w2))],
            [float(np.sum(s2 * w1 * w2)), float(np.sum(s2 * w2 * w2))],
        ]
    )


# Largest relative rounding bound at which `sigma2_hat` reads the residual sum
# of squares off the normal-equation statistics.
_RSS_RTOL = 1e-12


def sigma2_hat(design: AdditiveDesign, result: BackfitResult,
               residual_sum_of_squares: Callable | None = None) -> float:
    """Mean squared residual of the fitted additive model.

    The residual sum of squares is read off the statistics of the normal
    equations (`NormalEquations.rss_estimate`) when its rounding bound is
    below 1e-12, and added up over the rows again otherwise, as for a near
    noise-free fit: by `residual_sum_of_squares(b1, b2)` where given (say,
    over rows kept elsewhere, for a design without rows), else by
    `AdditiveDesign.residual_sum_of_squares`.
    """
    rss, bound = design.normal_equations.rss_estimate(result.b1, result.b2)
    if not bound < _RSS_RTOL:
        rss = (residual_sum_of_squares or design.residual_sum_of_squares)(result.b1, result.b2)
    return rss / design.n


def confidence_interval(
    estimate: float, variance: float, level: float = 0.95
) -> IntervalEstimate:
    """Normal-quantile interval estimate +- z_{(1+level)/2} sqrt(variance)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * float(np.sqrt(variance))
    return IntervalEstimate(
        estimate=float(estimate),
        variance=float(variance),
        level=float(level),
        lower=float(estimate) - half,
        upper=float(estimate) + half,
    )


def _plug_in(design: AdditiveDesign, j: int, x: float):
    """Component j's design matrix and t = G_n^{-1} B(x), with G_n = X_j'X_j / n
    read off the normal equations, for a design of one block."""
    if j not in (1, 2):
        raise ValueError(f"component index must be 1 or 2, got {j}")
    if design.blocks != 1:
        raise ValueError(
            f"the plug-in formulas take a design of one block, not {design.blocks} blocks"
        )
    eq = design.normal_equations
    X = design.X1 if j == 1 else design.X2
    Gn = (eq.G1 if j == 1 else eq.G2)[0] / design.n
    return X, np.linalg.solve(Gn, design_matrix(X.config, float(x)).values[0])


def asymptotic_variance(design: AdditiveDesign, j: int, x: float, noise) -> float:
    """Plug-in variance (1/n) B(x)' G_n^{-1} S_n G_n^{-1} B(x).

    G_n = X'X/n and S_n = X' diag(sigma^2) X / n are the empirical moment
    matrices of component j; only S_n reads the rows.
    """
    X, t = _plug_in(design, j, x)
    n = design.n
    s2 = np.broadcast_to(np.asarray(noise, dtype=float), (n,))
    Sn = gram_banded(X, s2)[0] / n
    return float(t @ Sn @ t) / n


def asymptotic_bias(
    design: AdditiveDesign,
    j: int,
    x: float,
    lam: float,
    true_fn: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Shrinkage bias -(lam/n) B(x)' G_n^{-1} Q b*.

    b* is the best spline approximation of `true_fn`, computed as a dense-grid
    least-squares projection on 2000 points of (0, 1].
    """
    X, t = _plug_in(design, j, x)
    grid = eval_grid(2000)
    Xg = design_matrix(X.config, grid).values
    b_star, *_ = np.linalg.lstsq(Xg, np.asarray(true_fn(grid), dtype=float), rcond=None)
    return float(-(lam / design.n) * (t @ (design.penalty.values @ b_star)))


@dataclass(frozen=True)
class PopulationSpec:
    """Covariate densities and noise variance of the data-generating law.

    Marginal densities are validated to integrate to 1 over (0, 1] at
    construction (quadrature tolerance 1e-6).
    """

    density_x1: Callable[[np.ndarray], np.ndarray]
    density_x2: Callable[[np.ndarray], np.ndarray]
    joint_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise_variance: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        nodes, weights = _panel_quadrature(64, 8)
        for name, dens in (("density_x1", self.density_x1), ("density_x2", self.density_x2)):
            total = float(weights @ np.asarray(dens(nodes), dtype=float))
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"{name} integrates to {total}, expected 1 +- 1e-6")


def uniform_population(noise_variance: float = 1.0 / 12.0) -> PopulationSpec:
    """Independent uniform covariates on (0, 1] with constant noise variance."""
    return PopulationSpec(
        density_x1=lambda u: np.ones_like(u),
        density_x2=lambda u: np.ones_like(u),
        joint_density=lambda u, v: np.ones_like(u) * np.ones_like(v),
        noise_variance=lambda u, v: np.full_like(np.asarray(u, dtype=float), noise_variance),
    )


def _panel_quadrature(panels: int, nodes_per_panel: int):
    """Gauss-Legendre nodes/weights tiled over `panels` equal panels of [0, 1]."""
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(nodes_per_panel)
    h = 1.0 / panels
    mids = (np.arange(panels) + 0.5) * h
    xs = (mids[:, None] + 0.5 * h * gl_nodes[None, :]).ravel()
    ws = np.tile(0.5 * h * gl_weights, panels)
    return xs, ws


def population_G(cfg: SplineConfig, spec: PopulationSpec, which: str) -> np.ndarray:
    """Population moment matrices, q x q, by per-knot-interval Gauss-Legendre
    quadrature.

    which="g1"/"g2": G_j with entries int B_i B_k q_j over (0, 1].
    which="sigma1"/"sigma2": Sigma_j with the integrand weighted by
    int sigma^2(x1, x2) q(x1, x2) d(other coordinate).

    Eight nodes per knot interval on the component axis; the inner integral for
    Sigma_j uses the same panel rule on the other axis.
    """
    K = cfg.num_intervals
    xs, ws = _panel_quadrature(K, 8)

    if which in ("g1", "g2"):
        dens = spec.density_x1 if which == "g1" else spec.density_x2
        weight_fn = np.asarray(dens(xs), dtype=float)
    elif which in ("sigma1", "sigma2"):
        inner_x, inner_w = _panel_quadrature(max(K, 16), 8)
        if which == "sigma1":
            s2 = np.asarray(spec.noise_variance(xs[:, None], inner_x[None, :]), dtype=float)
            qd = np.asarray(spec.joint_density(xs[:, None], inner_x[None, :]), dtype=float)
        else:
            s2 = np.asarray(spec.noise_variance(inner_x[None, :], xs[:, None]), dtype=float)
            qd = np.asarray(spec.joint_density(inner_x[None, :], xs[:, None]), dtype=float)
        s2 = np.broadcast_to(s2, (xs.size, inner_x.size))
        qd = np.broadcast_to(qd, (xs.size, inner_x.size))
        weight_fn = (s2 * qd) @ inner_w
    else:
        raise ValueError(
            f"which must be one of 'g1', 'g2', 'sigma1', 'sigma2'; got {which!r}"
        )

    return gram_banded(design_matrix(cfg, xs), ws * weight_fn)[0]
