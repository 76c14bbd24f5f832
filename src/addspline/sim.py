"""Monte Carlo harness for the bivariate additive spline estimator.

Three studies plus a coverage experiment:

1. fit-vs-truth curves and per-component RMSE on one simulated dataset;
2. closeness of the backfit components to the two univariate penalized fits;
3. the standardized bivariate statistic at one evaluation point, replicated,
   standardized by the exact smoother covariance, and summarized against the
   standard bivariate normal (mean, covariance, KS, kernel density grid).

Replication r of a scenario draws its own generator from (seed, r), so results
are independent of execution order and safe to parallelize.

Every design comes from `backfit.build_design` with the scenario's K and
lambda; study 2's univariate fits B(x)'Lam_j^{-1} X_j'y solve with the
factors of Lam_j = X_j'X_j + lam_j Q_m the backfit sweeps with.

The replications of a study run in blocks.  A block of R replications is the
block diagonal design (`AdditiveDesign.blocks`) of their R n rows: one basis
evaluation per component, one factorization per component of the stack of
R q x q blocks, and one run of the weight kernel for all R.  The blocks do
not interact, and the pass over a block's rows is cut only between
replications (`DesignMatrix.cuts`), so each replication's row is bit for
bit the row a block of one computes: any row is recomputable alone
(`sim3_replication`).  R is the largest count whose data and q x q stacks
fit in half of a fixed byte budget, the pass's chunk taking the other half
(`_block_size`), so memory stays bounded at any n.

The blocks of a study run on up to two CPUs: the calling process and a
forked worker take blocks from one queue until it is empty
(`_replicate_all`).  The blocks and their arithmetic do not depend on the
worker count or on which process runs a block, so the rows are bit for bit
those of the serial loop.  Studies below `_FORK_ROWS` data rows, of a
single block, on one CPU or on a platform other than Linux run serially in
the calling process (`forking.workers`).
"""

from __future__ import annotations

import math
import select
import time
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from . import forking
from .backfit import (
    AdditiveDesign, NormalStatistics, backfit_stages, build_design, kn_rule, lambda_rule,
)
from .basis import _BLOCK_BYTES, design_matrix, eval_grid
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
]


def truth_f1(x):
    """The first component sin(2 pi x)."""
    return np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


def truth_f2(x):
    """The second component cos(pi x) / 2."""
    return 0.5 * np.cos(np.pi * np.asarray(x, dtype=float))


def uniform_errors(rng: np.random.Generator, size: int) -> np.ndarray:
    """The error law: uniform on (-1/2, 1/2), variance 1/12."""
    return rng.uniform(-0.5, 0.5, size)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation scenario needs to be reproduced exactly.

    The law is fixed: y = `truth_f1`(x1) + `truth_f2`(x2) + `uniform_errors`,
    so the noise variance is 1/12; every fit runs 10 stages from zero, and
    study 3 and the coverage evaluate at (0.5, 0.5).
    """

    n: int
    seed: int = 42
    degree: int = 3
    diff_order: int = 2
    k_rule: Callable[[int], int] = kn_rule
    lam_rule: Callable[[int, int], float] = lambda_rule
    replications: int = 1000
    grid_points: int = 201
    error_variance: ClassVar[float] = 1.0 / 12.0
    stages: ClassVar[int] = 10
    eval_point: ClassVar[tuple[float, float]] = (0.5, 0.5)


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
    y, x1, x2 = _draw(cfg, [replication])
    return SimDataset(y=y, x1=x1, x2=x2, replication=replication)


def _draw(cfg: ScenarioConfig, replications) -> np.ndarray:
    """The rows (y, x1, x2), shape (3, R n), of R replications' data
    (`generate_dataset`), one replication after another: the draws of each
    stream go straight into its rows, and f1(x1) + f2(x2) is added to the
    errors of all rows at once."""
    n = cfg.n
    y, x1, x2 = data = np.empty((3, len(replications) * n))
    for i, r in enumerate(replications):
        rows = slice(i * n, (i + 1) * n)
        rng = np.random.default_rng([cfg.seed, r])
        for x in (x1[rows], x2[rows]):
            rng.random(out=x)
            np.subtract(1.0, x, out=x)
        y[rows] = uniform_errors(rng, n)
    y += truth_f1(x1) + truth_f2(x2)
    return data


def scenario_design(cfg: ScenarioConfig, data: SimDataset) -> AdditiveDesign:
    """Assemble the design with the scenario's K and lambda rules."""
    return _design(cfg, data.y, data.x1, data.x2, 1)


def _block_design(cfg: ScenarioConfig, replications) -> AdditiveDesign:
    """The designs of the given replications as the blocks of one design, on
    the data `_draw` gives them (`generate_dataset`'s values, bit for bit)."""
    return _design(cfg, *_draw(cfg, replications), len(replications))


def _design(cfg: ScenarioConfig, y, x1, x2, blocks: int) -> AdditiveDesign:
    """The design of `blocks` datasets of n rows each, one after another in
    y, x1 and x2, as the blocks of one design: each component's basis is
    evaluated on all their values in one pass."""
    K = cfg.k_rule(cfg.n)
    lam = cfg.lam_rule(cfg.n, K)
    design = build_design(
        y, x1, x2,
        degree=cfg.degree, diff_order=cfg.diff_order, num_intervals=K, lambda1=lam, lambda2=lam,
    )
    X1, X2 = design.X1.block_diagonal(blocks), design.X2.block_diagonal(blocks)
    return replace(design, X1=X1, X2=X2, blocks=blocks)


def _fit_on_grid(cfg: ScenarioConfig):
    """Dataset 0's design, the evaluation grid, the grid's basis rows (one
    `DesignChunk`, evaluated once) and the fixed-stage fit's two curves."""
    design = scenario_design(cfg, generate_dataset(cfg, 0))
    res = backfit_stages(design, cfg.stages)
    grid = eval_grid(cfg.grid_points)
    rows = design_matrix(design.X1.config, grid).chunk(0, grid.size)
    return design, grid, rows, rows.matvec(res.b1), rows.matvec(res.b2)


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
    _, grid, _, fit1, fit2 = _fit_on_grid(cfg)
    true1, true2 = truth_f1(grid), truth_f2(grid)
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
    """Backfit components against the univariate penalized fits, shared grid:
    B(x)'Lam_j^{-1} X_j'y, solved with the backfit's own factors of Lam_j."""
    design, grid, rows, fit1, fit2 = _fit_on_grid(cfg)
    eq = design.normal_equations
    pen1, pen2 = rows.matvec(eq.L1.solve(eq.u1)), rows.matvec(eq.L2.solve(eq.u2))
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
    block_workers: tuple[int, ...]  # the process that ran each block: 0 the caller, 1 the worker


_EIG_FLOOR = 1e-14
_SQRT2 = math.sqrt(2.0)
# The q x q stacks a replication holds at once in a block, at their most:
# G1, G2 and C, the kept inverse of Lam_1, and, while Lam_2 is factored,
# Lam_2, its factor, the factor's inverse and the inverse being formed.
_HELD_STACKS = 8


def _block_size(cfg: ScenarioConfig) -> int:
    """Replications per block: as many as fit in half of the byte budget
    `basis._BLOCK_BYTES`, at least one.  The other half is the budget of the
    pass over the block's rows, which is cut into chunks of whole
    replications (`DesignMatrix.cuts`) whatever R is.  A replication holds
    its 3 n data values and `_HELD_STACKS` q x q stacks, 8 bytes an entry:
    R = 20 at n = 1000 (q = 35) and 111 at n = 100 (q = 16)."""
    q = cfg.k_rule(cfg.n) + cfg.degree
    return max(1, _BLOCK_BYTES // 2 // (8 * (3 * cfg.n + _HELD_STACKS * q * q)))


def _replicate_block(cfg: ScenarioConfig, replications) -> tuple[np.ndarray, np.ndarray]:
    """The deviations f_hat - f_true at the evaluation point, shape (R, 2), and
    their exact covariances V, shape (R, 2, 2), of R replications' fixed-stage
    fits, computed as the blocks of one system (`_block_design`).  The weights
    read the rows only through their sums, so the block's data go once those
    are added up, before the factors and the weights are formed."""
    design, empty = _block_design(cfg, replications), np.empty(0)
    design = replace(
        design, y=empty, X1=replace(design.X1, covariate=empty),
        X2=replace(design.X2, covariate=empty),
        statistics=NormalStatistics.of(design.y, design.X1, design.X2),
    )
    x1e, x2e = cfg.eval_point
    rows = design_matrix(design.X1.config, [x1e, x2e]).values
    est, P = StageSmoother(design, cfg.stages).evaluate_rows(rows[:1], rows[1:])
    truth = [float(truth_f1(x1e)), float(truth_f2(x2e))]
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


def _run_blocks(cfg: ScenarioConfig, R: int, blocks, worker: int) -> list:
    """(index, deviations, covariances, wall seconds, `worker`) of each block
    of R replications whose index `blocks` yields, block b holding
    replications b R .. b R + R - 1."""
    done = []
    for b in blocks:
        t = time.perf_counter()
        dev, V = _replicate_block(cfg, range(b * R, min(b * R + R, cfg.replications)))
        done.append((b, dev, V, time.perf_counter() - t, worker))
    return done


def _replicate_all(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, dict]:
    """Deviations (M, 2) and covariances (M, 2, 2) of all M replications, in
    blocks of `_block_size`, and how they ran, as `MonteCarloSummary` fields:
    the number of processes (`workers`), and the wall time of each block and
    the process that ran it (0 this one, 1 the worker), in block order.

    With two processes (`_worker_count`) this process and one forked worker
    (`forking.Worker`) take blocks from one `forking.Queue` until it is
    empty, so the process that runs faster runs more blocks: the fork,
    the first block's copy-on-write faults and a busy host slow the two
    unequally.  The worker sends back its (index, rows) pairs, and the
    blocks are put back in block order, so the rows are those of the serial
    loop.  The worker's exception is raised again here, after the running block,
    and the worker is killed and reaped before this returns or raises.
    """
    M, R = cfg.replications, _block_size(cfg)
    count = -(-M // R)
    workers = _worker_count(cfg.n * M, count)
    if workers == 1:
        done = _run_blocks(cfg, R, range(count), 0)
    else:
        with forking.Queue(count) as queue, forking.Worker(_send_blocks, cfg, R, queue) as child:
            done, theirs = [], None
            for b in queue:
                done += _run_blocks(cfg, R, [b], 0)
                if theirs is None and select.select([child.channel.read_fd], [], [], 0)[0]:
                    theirs = child.recv()  # it writes only when done or failed
            done += child.recv() if theirs is None else theirs
        done.sort(key=lambda block: block[0])
    _, devs, Vs, seconds, ran_by = zip(*done)
    runs = {"workers": workers, "block_seconds": seconds, "block_workers": ran_by}
    return np.concatenate(devs), np.concatenate(Vs), runs


def _send_blocks(channel: forking.Channel, cfg: ScenarioConfig, R: int,
                 queue: forking.Queue) -> None:
    """In a forked worker: run the blocks it takes from `queue`, then send them."""
    channel.send(_run_blocks(cfg, R, queue, 1))


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
               level: float = 0.95, *, workers: int = 1, block_seconds: tuple[float, ...] = (),
               block_workers: tuple[int, ...] = ()) -> MonteCarloSummary:
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
        block_workers=block_workers,
    )


def run_sim3(
    cfg: ScenarioConfig, level: float = 0.95
) -> tuple[StandardizedSample, MonteCarloSummary]:
    """Replicate the standardized statistic and summarize against N(0, I);
    the coverage is that of the normal-quantile interval at `level`."""
    confidence_interval(0.0, 1.0, level)  # reject a bad level before replicating
    start = time.perf_counter()
    M = cfg.replications
    dev, V, runs = _replicate_all(cfg)
    values, kept = _standardize(dev, V)
    ids = np.flatnonzero(kept)
    rejected = int(M - kept.sum())
    sample = StandardizedSample(
        values=values, replication_ids=ids, seed=cfg.seed, rejected=rejected
    )
    summary = _summarize(values, time.perf_counter() - start, M, rejected, level, **runs)
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
    dev, V, runs = _replicate_all(cfg)
    devs = dev / np.sqrt(np.diagonal(V, axis1=1, axis2=2))
    return _summarize(devs, time.perf_counter() - start, cfg.replications, 0, level, **runs)


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
) -> Kde2dResult:
    """Product-Gaussian kernel density of a bivariate sample on a grid.

    Bandwidth defaults to the per-coordinate normal reference for two
    dimensions, h_j = sigma_hat_j * M^{-1/6}.  The grid extends four
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
        lo = pts[:, j].min() - 4.0 * h[j]
        hi = pts[:, j].max() + 4.0 * h[j]
        axes.append(np.linspace(lo, hi, grid_size))
    norm1 = 1.0 / (h[0] * np.sqrt(2.0 * np.pi))
    norm2 = 1.0 / (h[1] * np.sqrt(2.0 * np.pi))
    A = norm1 * np.exp(-0.5 * ((axes[0][:, None] - pts[None, :, 0]) / h[0]) ** 2)
    B = norm2 * np.exp(-0.5 * ((axes[1][:, None] - pts[None, :, 1]) / h[1]) ** 2)
    density = (A @ B.T) / M
    return Kde2dResult(x=axes[0], y=axes[1], density=density, bandwidth=h)
