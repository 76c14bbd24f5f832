"""Monte Carlo harness for the bivariate additive spline estimator.

Three studies plus a coverage experiment:

1. fit-vs-truth curves and per-component RMSE on one simulated dataset;
2. closeness of the backfit components to the two univariate penalized fits;
3. the standardized bivariate statistic at one evaluation point, replicated,
   standardized by the exact smoother covariance, and summarized against the
   standard bivariate normal (mean, covariance, KS, kernel density grid).

Replication r of a scenario draws its own generator from (seed, r), so results
are independent of execution order and safe to parallelize.

The replications of a study run in blocks.  A block of R replications is one
block diagonal system (`AdditiveDesign.blocks`): one basis evaluation of the
R n covariate values per component, one banded factorization per component,
and one run of the weight kernel, 2 * stages banded solves, for all R.  The
blocks do not interact, so each replication's row is bit for bit the row a
block of one computes: any row is recomputable alone (`sim3_replication`).
R is the largest count whose R n rows of temporaries fit in a fixed byte
budget, so memory stays bounded at any n.

The blocks of a study run on up to two CPUs, the second share in a forked
worker (`_replicate_all`).  The blocks and their arithmetic do not depend on
the worker count, so the rows are bit for bit those of the serial loop.
Studies below `_FORK_ROWS` data rows, of a single block, on one CPU or on a
platform other than Linux run serially in the calling process
(`forking.workers`).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import forking
from .backfit import (
    AdditiveDesign,
    backfit_stages,
    kn_rule,
    lambda_rule,
    predict,
    univariate_penalized,
)
from .basis import _BLOCK_BYTES, _ROW_BYTES, design_matrix, eval_grid, make_knots
from .inference import StageSmoother, confidence_interval
from .penalty import penalty_matrix

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
    return _stacked_design(cfg, [data])


def _stacked_design(cfg: ScenarioConfig, datasets: list[SimDataset]) -> AdditiveDesign:
    """The designs of several datasets as the blocks of one design, each
    component's basis evaluated in one call on all datasets' values."""
    K = cfg.k_rule(cfg.n)
    lam = cfg.lam_rule(cfg.n, K)
    basis, blocks = make_knots(cfg.degree, K), len(datasets)
    X1, X2 = (
        design_matrix(basis, np.concatenate([getattr(d, x) for d in datasets]))
        .block_diagonal(blocks)
        for x in ("x1", "x2")
    )
    return AdditiveDesign(
        y=np.concatenate([d.y for d in datasets]),
        X1=X1,
        X2=X2,
        lambda1=lam,
        lambda2=lam,
        penalty=penalty_matrix(cfg.diff_order, basis.num_basis),
        blocks=blocks,
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
    workers: int  # processes that ran the replication blocks
    block_seconds: tuple[float, ...]  # wall time of each block, in block order


_EIG_FLOOR = 1e-14
_SQRT2 = math.sqrt(2.0)
# A block holds as many replications as fit in the byte budget of one pass
# over rows (`basis._BLOCK_BYTES`, at `basis._ROW_BYTES` per data row), at
# least one; a block of R n <= 8192 rows is then one chunk of that pass.


def _block_size(n: int) -> int:
    """Replications per block at n observations each."""
    return max(1, _BLOCK_BYTES // (_ROW_BYTES * n))


def _replicate_block(cfg: ScenarioConfig, replications) -> tuple[np.ndarray, np.ndarray]:
    """The deviations f_hat - f_true at the evaluation point, shape (R, 2), and
    their exact covariances V, shape (R, 2, 2), of R replications' fixed-stage
    fits, computed as the blocks of one system."""
    design = _stacked_design(cfg, [generate_dataset(cfg, r) for r in replications])
    x1e, x2e = cfg.eval_point
    rows = design_matrix(design.X1.config, [x1e, x2e]).values
    est, P = StageSmoother(design, cfg.stages).evaluate_rows(rows[:1], rows[1:])
    truth = [float(np.asarray(cfg.f1(x1e))), float(np.asarray(cfg.f2(x2e)))]
    return est - truth, cfg.error_variance * P


# Measured on a 2-vCPU Linux host in a 39 MB process whose OpenBLAS threads
# had started: fork + _exit + waitpid takes 3-4.5 ms, and a worker costs about
# 10 ms of wall time in all once its copy-on-write faults and its pipe are
# counted (two workers against one at 16000-48000 rows, n = 200 and 1000).
# A study's blocks cost 1.0-1.6 us per data row, so a second worker breaks
# even near 20000 rows; from 32768 rows it saves a fifth of the study or more.
_FORK_ROWS = 32_768


def _worker_count(rows: int, blocks: int) -> int:
    """Processes to run a study of `rows` data rows in `blocks` blocks: those
    `forking.workers` allows when the study has two blocks or more and at
    least `_FORK_ROWS` rows; one otherwise."""
    if blocks < 2 or rows < _FORK_ROWS:
        return 1
    return forking.workers()


def _run_blocks(cfg: ScenarioConfig, starts: range, R: int) -> list:
    """(deviations, covariances, wall seconds) of each block of R replications
    that begins at `starts`."""
    blocks = []
    for s in starts:
        t = time.perf_counter()
        dev, V = _replicate_block(cfg, range(s, min(s + R, cfg.replications)))
        blocks.append((dev, V, time.perf_counter() - t))
    return blocks


def _replicate_all(
    cfg: ScenarioConfig,
) -> tuple[np.ndarray, np.ndarray, int, tuple[float, ...]]:
    """Deviations (M, 2) and covariances (M, 2, 2) of all M replications, in
    blocks of `_block_size`, the number of processes that ran them, and the
    wall time of each block.

    The blocks are cut into one contiguous share per worker
    (`_worker_count`).  This process runs the first, largest share; a forked
    worker (`forking.Worker`) runs each other one and sends its blocks back.
    The shares come back in order, so the rows are those of the serial loop.
    A worker's exception is raised again here, and every worker is killed
    and reaped before this returns or raises.
    """
    M, R = cfg.replications, _block_size(cfg.n)
    starts = range(0, M, R)
    workers = _worker_count(cfg.n * M, len(starts))
    cuts = [-(-len(starts) * w // workers) for w in range(workers + 1)]
    shares = [starts[a:b] for a, b in zip(cuts, cuts[1:])]
    with contextlib.ExitStack() as stack:
        children: list[forking.Worker] = []
        for share in shares[1:]:
            child = forking.Worker(_send_blocks, cfg, share, R, siblings=children)
            children.append(stack.enter_context(child))
        blocks = _run_blocks(cfg, shares[0], R)
        for child in children:
            blocks += child.recv()
    devs, Vs, seconds = zip(*blocks)
    return np.concatenate(devs), np.concatenate(Vs), workers, seconds


def _send_blocks(channel: forking.Channel, cfg: ScenarioConfig, share: range, R: int) -> None:
    """In a forked worker: run the blocks of `share` and send them."""
    channel.send(_run_blocks(cfg, share, R))


def _standardize(dev: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows V^{-1/2} dev of the replications whose V has every eigenvalue above
    the 1e-14 floor, and the mask of those replications."""
    evals, evecs = np.linalg.eigh(V)
    kept = evals.min(axis=1) > _EIG_FLOOR
    evals, evecs = evals[kept], evecs[kept]
    inv_half = evecs @ ((evals**-0.5)[:, :, None] * evecs.swapaxes(1, 2))
    return (inv_half @ dev[kept][:, :, None])[:, :, 0], kept


def sim3_replication(cfg: ScenarioConfig, replication: int) -> np.ndarray | None:
    """One standardized row V^{-1/2} (f_hat - f_true) at the evaluation point.

    Returns None when the exact covariance is numerically degenerate (an
    eigenvalue at or below the 1e-14 floor); callers count such rejections.
    """
    values, kept = _standardize(*_replicate_block(cfg, [replication]))
    return values[0] if kept[0] else None


def _ks_normal(sample) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic against N(0, 1).

    D = max_i max(i/n - Phi(x_(i)), Phi(x_(i)) - (i-1)/n) over the sorted
    sample, with Phi(x) = erfc(-x / sqrt 2) / 2 as `statistics.NormalDist`
    computes it, accurate in both tails.  An empty sample gives NaN.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        return float("nan")
    cdf = np.array([0.5 * math.erfc(-v / _SQRT2) for v in x.tolist()])
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def _summarize(values: np.ndarray, runtime: float, replications: int, rejected: int,
               level: float = 0.95, *, workers: int = 1,
               block_seconds: tuple[float, ...] = ()) -> MonteCarloSummary:
    if len(values) < 2:
        raise ValueError(
            f"the summary needs at least two replications, got {len(values)} of "
            f"{replications} ({rejected} rejected at the {_EIG_FLOOR:g} eigenvalue floor)"
        )
    z = confidence_interval(0.0, 1.0, level).upper
    return MonteCarloSummary(
        mean=values.mean(axis=0),
        covariance=np.cov(values.T, ddof=1),
        ks_stat=np.array([_ks_normal(values[:, 0]), _ks_normal(values[:, 1])]),
        coverage=np.array(
            [
                float(np.mean(np.abs(values[:, 0]) <= z)),
                float(np.mean(np.abs(values[:, 1]) <= z)),
            ]
        ),
        runtime_seconds=runtime,
        replications=replications,
        rejected=rejected,
        workers=workers,
        block_seconds=block_seconds,
    )


def run_sim3(
    cfg: ScenarioConfig, level: float = 0.95
) -> tuple[StandardizedSample, MonteCarloSummary]:
    """Replicate the standardized statistic and summarize against N(0, I);
    the coverage is that of the normal-quantile interval at `level`."""
    confidence_interval(0.0, 1.0, level)  # reject a bad level before replicating
    start = time.perf_counter()
    M = cfg.replications
    dev, V, workers, block_seconds = _replicate_all(cfg)
    values, kept = _standardize(dev, V)
    ids = np.flatnonzero(kept)
    rejected = int(M - kept.sum())
    sample = StandardizedSample(
        values=values, replication_ids=ids, seed=cfg.seed, rejected=rejected
    )
    summary = _summarize(
        values, time.perf_counter() - start, M, rejected, level,
        workers=workers, block_seconds=block_seconds,
    )
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
    dev, V, workers, block_seconds = _replicate_all(cfg)
    devs = dev / np.sqrt(np.diagonal(V, axis1=1, axis2=2))
    return _summarize(
        devs, time.perf_counter() - start, cfg.replications, 0, level,
        workers=workers, block_seconds=block_seconds,
    )


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
