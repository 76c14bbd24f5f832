"""Monte Carlo harness for the bivariate additive spline estimator.

Three studies plus a coverage experiment:

1. fit-vs-truth curves and per-component RMSE on one simulated dataset;
2. closeness of the backfit components to the two univariate penalized fits;
3. the standardized bivariate statistic at one evaluation point, replicated,
   standardized by the exact smoother covariance, and summarized against the
   standard bivariate normal (mean, covariance, KS, kernel density grid).

Replication r of a scenario draws its own generator from (seed, r), so results
are independent of execution order and safe to parallelize.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .backfit import (
    AdditiveDesign,
    backfit_stages,
    build_design,
    kn_rule,
    lambda_rule,
    predict,
    univariate_penalized,
)
from .basis import design_matrix, eval_grid
from .inference import StageSmoother, confidence_interval

__all__ = [
    "ScenarioConfig",
    "SimDataset",
    "Sim1Result",
    "Sim2Result",
    "StandardizedSample",
    "MonteCarloSummary",
    "Kde2dResult",
    "truth_f1",
    "truth_f2",
    "uniform_errors",
    "generate_dataset",
    "scenario_design",
    "run_sim1",
    "run_sim2",
    "sim3_replication",
    "run_sim3",
    "coverage_experiment",
    "kde2d",
    "std_normal_density2d",
]


def truth_f1(x):
    """Default first component sin(2 pi x)."""
    return np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


def truth_f2(x):
    """Default second component cos(pi x) / 2."""
    return 0.5 * np.cos(np.pi * np.asarray(x, dtype=float))


def uniform_errors(rng: np.random.Generator, size: int) -> np.ndarray:
    """Default error law: uniform on (-1/2, 1/2), variance 1/12."""
    return rng.uniform(-0.5, 0.5, size)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation scenario needs to be reproduced exactly."""

    n: int
    seed: int = 42
    f1: Callable = truth_f1
    f2: Callable = truth_f2
    error_law: Callable[[np.random.Generator, int], np.ndarray] = uniform_errors
    error_variance: float = 1.0 / 12.0
    degree: int = 3
    diff_order: int = 2
    k_rule: Callable[[int], int] = kn_rule
    lam_rule: Callable[[int, int], float] = lambda_rule
    stages: int = 10
    eval_point: tuple[float, float] = (0.5, 0.5)
    replications: int = 1000
    grid_points: int = 201


@dataclass(frozen=True)
class SimDataset:
    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    replication: int


def generate_dataset(cfg: ScenarioConfig, replication: int) -> SimDataset:
    """Draw one replication's data from its own (seed, replication) stream.

    Covariates are uniform on (0, 1]: computed as 1 - U with U in [0, 1) so
    that the domain's open-at-zero convention holds exactly.
    """
    rng = np.random.default_rng([cfg.seed, replication])
    x1 = 1.0 - rng.random(cfg.n)
    x2 = 1.0 - rng.random(cfg.n)
    eps = cfg.error_law(rng, cfg.n)
    y = np.asarray(cfg.f1(x1), dtype=float) + np.asarray(cfg.f2(x2), dtype=float) + eps
    return SimDataset(y=y, x1=x1, x2=x2, replication=replication)


def scenario_design(cfg: ScenarioConfig, data: SimDataset) -> AdditiveDesign:
    """Assemble the design with the scenario's K and lambda rules."""
    K = cfg.k_rule(cfg.n)
    lam = cfg.lam_rule(cfg.n, K)
    return build_design(
        data.y,
        data.x1,
        data.x2,
        degree=cfg.degree,
        diff_order=cfg.diff_order,
        num_intervals=K,
        lambda1=lam,
        lambda2=lam,
    )


@dataclass(frozen=True)
class Sim1Result:
    grid: np.ndarray
    true1: np.ndarray
    true2: np.ndarray
    fit1: np.ndarray
    fit2: np.ndarray
    rmse: np.ndarray  # shape (2,)
    n: int
    seed: int
    stages: int


def run_sim1(cfg: ScenarioConfig) -> Sim1Result:
    """One dataset, one fixed-stage fit, fit-vs-truth table plus RMSE."""
    data = generate_dataset(cfg, 0)
    design = scenario_design(cfg, data)
    res = backfit_stages(design, cfg.stages)
    grid = eval_grid(cfg.grid_points)
    fit1, fit2, _ = predict(res, design.X1.config, grid, grid)
    true1 = np.asarray(cfg.f1(grid), dtype=float)
    true2 = np.asarray(cfg.f2(grid), dtype=float)
    rmse = np.array(
        [
            float(np.sqrt(np.mean((fit1 - true1) ** 2))),
            float(np.sqrt(np.mean((fit2 - true2) ** 2))),
        ]
    )
    return Sim1Result(
        grid=grid,
        true1=true1,
        true2=true2,
        fit1=fit1,
        fit2=fit2,
        rmse=rmse,
        n=cfg.n,
        seed=cfg.seed,
        stages=cfg.stages,
    )


@dataclass(frozen=True)
class Sim2Result:
    grid: np.ndarray
    fit1: np.ndarray
    fit2: np.ndarray
    pen1: np.ndarray
    pen2: np.ndarray
    sup_diff: np.ndarray  # shape (2,)
    n: int
    seed: int
    stages: int


def run_sim2(cfg: ScenarioConfig) -> Sim2Result:
    """Backfit components against the univariate penalized fits, shared grid."""
    data = generate_dataset(cfg, 0)
    design = scenario_design(cfg, data)
    res = backfit_stages(design, cfg.stages)
    grid = eval_grid(cfg.grid_points)
    fit1, fit2, _ = predict(res, design.X1.config, grid, grid)
    pen1 = univariate_penalized(design.X1, design.y, design.lambda1, design.penalty, grid)
    pen2 = univariate_penalized(design.X2, design.y, design.lambda2, design.penalty, grid)
    sup_diff = np.array(
        [float(np.abs(fit1 - pen1).max()), float(np.abs(fit2 - pen2).max())]
    )
    return Sim2Result(
        grid=grid,
        fit1=fit1,
        fit2=fit2,
        pen1=pen1,
        pen2=pen2,
        sup_diff=sup_diff,
        n=cfg.n,
        seed=cfg.seed,
        stages=cfg.stages,
    )


@dataclass(frozen=True)
class StandardizedSample:
    """Standardized replication rows, keyed by replication index.

    Any row can be recomputed bit-exactly from (seed, replication_ids[i]).
    """

    values: np.ndarray  # shape (kept, 2)
    replication_ids: np.ndarray
    seed: int
    rejected: int


@dataclass(frozen=True)
class MonteCarloSummary:
    mean: np.ndarray  # (2,)
    covariance: np.ndarray  # (2, 2)
    ks_stat: np.ndarray  # (2,)
    coverage: np.ndarray  # (2,)
    runtime_seconds: float
    replications: int
    rejected: int


_EIG_FLOOR = 1e-14


def _replicate(cfg: ScenarioConfig, replication: int) -> tuple[np.ndarray, np.ndarray]:
    """The deviation f_hat - f_true at the evaluation point and its exact
    covariance V, from one replication's fixed-stage fit."""
    data = generate_dataset(cfg, replication)
    design = scenario_design(cfg, data)
    x1e, x2e = cfg.eval_point
    rows = design_matrix(design.X1.config, [x1e, x2e]).values
    est, P = StageSmoother(design, cfg.stages).evaluate_rows(rows[:1], rows[1:])
    truth = [float(np.asarray(cfg.f1(x1e))), float(np.asarray(cfg.f2(x2e)))]
    return est[0] - truth, cfg.error_variance * P[0]


def sim3_replication(cfg: ScenarioConfig, replication: int) -> np.ndarray | None:
    """One standardized row V^{-1/2} (f_hat - f_true) at the evaluation point.

    Returns None when the exact covariance is numerically degenerate (an
    eigenvalue at or below the 1e-14 floor); callers count such rejections.
    """
    dev, V = _replicate(cfg, replication)
    evals, evecs = np.linalg.eigh(V)
    if evals.min() <= _EIG_FLOOR:
        return None
    inv_half = evecs @ ((evals**-0.5)[:, None] * evecs.T)
    return inv_half @ dev


def _summarize(values: np.ndarray, runtime: float, replications: int, rejected: int,
               level: float = 0.95) -> MonteCarloSummary:
    # imported here: scipy.stats takes about a second to load, and only the
    # Monte Carlo summaries need it
    from scipy.stats import kstest

    z = confidence_interval(0.0, 1.0, level).upper
    return MonteCarloSummary(
        mean=values.mean(axis=0),
        covariance=np.cov(values.T, ddof=1),
        ks_stat=np.array(
            [
                float(kstest(values[:, 0], "norm").statistic),
                float(kstest(values[:, 1], "norm").statistic),
            ]
        ),
        coverage=np.array(
            [
                float(np.mean(np.abs(values[:, 0]) <= z)),
                float(np.mean(np.abs(values[:, 1]) <= z)),
            ]
        ),
        runtime_seconds=runtime,
        replications=replications,
        rejected=rejected,
    )


def run_sim3(cfg: ScenarioConfig) -> tuple[StandardizedSample, MonteCarloSummary]:
    """Replicate the standardized statistic and summarize against N(0, I)."""
    start = time.perf_counter()
    M = cfg.replications
    rows = np.full((M, 2), np.nan)
    kept = np.zeros(M, dtype=bool)
    for r in range(M):
        row = sim3_replication(cfg, r)
        if row is not None:
            rows[r] = row
            kept[r] = True
    values = rows[kept]
    ids = np.flatnonzero(kept)
    rejected = int(M - kept.sum())
    sample = StandardizedSample(
        values=values, replication_ids=ids, seed=cfg.seed, rejected=rejected
    )
    summary = _summarize(values, time.perf_counter() - start, M, rejected)
    return sample, summary


def coverage_experiment(
    cfg: ScenarioConfig, level: float = 0.95
) -> MonteCarloSummary:
    """Interval coverage at the evaluation point with known noise variance.

    Per replication the deviation is standardized per component by its exact
    smoother standard deviation; the normal-quantile interval covers the true
    value exactly when that standardized deviation is at most z_{(1+level)/2}
    in size, which is the summary's coverage.
    """
    confidence_interval(0.0, 1.0, level)  # reject a bad level before replicating
    start = time.perf_counter()
    M = cfg.replications
    devs = np.empty((M, 2))
    for r in range(M):
        dev, V = _replicate(cfg, r)
        devs[r] = dev / np.sqrt(np.diag(V))
    return _summarize(devs, time.perf_counter() - start, M, 0, level)


@dataclass(frozen=True)
class Kde2dResult:
    x: np.ndarray
    y: np.ndarray
    density: np.ndarray  # shape (len(x), len(y))
    bandwidth: np.ndarray  # (2,)


def kde2d(
    sample: np.ndarray,
    grid_size: int = 101,
    bandwidth: tuple[float, float] | None = None,
    pad: float = 4.0,
) -> Kde2dResult:
    """Product-Gaussian kernel density of a bivariate sample on a grid.

    Bandwidth defaults to the per-coordinate normal reference for two
    dimensions, h_j = sigma_hat_j * M^{-1/6}.  The grid extends `pad`
    bandwidths past the sample range so the density mass is captured.
    """
    pts = np.asarray(sample, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"sample must have shape (M, 2), got {pts.shape}")
    M = pts.shape[0]
    if M < 2:
        raise ValueError("need at least two sample points")
    if bandwidth is None:
        sd = pts.std(axis=0, ddof=1)
        if np.any(sd == 0):
            raise ValueError(
                "degenerate sample (zero variance); pass an explicit bandwidth"
            )
        h = sd * M ** (-1.0 / 6.0)
    else:
        h = np.asarray(bandwidth, dtype=float)
        if h.ndim == 0:
            h = np.full(2, float(h))
        if h.shape != (2,) or np.any(h <= 0):
            raise ValueError("bandwidth must be positive (a scalar or one per coordinate)")
    axes = []
    for j in range(2):
        lo = pts[:, j].min() - pad * h[j]
        hi = pts[:, j].max() + pad * h[j]
        axes.append(np.linspace(lo, hi, grid_size))
    norm1 = 1.0 / (h[0] * np.sqrt(2.0 * np.pi))
    norm2 = 1.0 / (h[1] * np.sqrt(2.0 * np.pi))
    A = norm1 * np.exp(-0.5 * ((axes[0][:, None] - pts[None, :, 0]) / h[0]) ** 2)
    B = norm2 * np.exp(-0.5 * ((axes[1][:, None] - pts[None, :, 1]) / h[1]) ** 2)
    density = (A @ B.T) / M
    return Kde2dResult(x=axes[0], y=axes[1], density=density, bandwidth=h)


def std_normal_density2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Standard bivariate normal density tabulated on the grid x cross y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        np.exp(-0.5 * (x[:, None] ** 2 + y[None, :] ** 2)) / (2.0 * np.pi)
    )
