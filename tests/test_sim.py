"""Simulation harness: data generation, the three studies, KDE utilities."""

import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from addspline import forking, sim
from addspline.backfit import NormalStatistics, univariate_penalized
from addspline.bandmat import BandedCholesky, NotPositiveDefiniteError
from addspline.basis import design_matrix
from addspline.inference import StageSmoother
from addspline.sim import (
    ScenarioConfig,
    coverage_experiment,
    generate_dataset,
    kde2d,
    run_sim1,
    run_sim2,
    run_sim3,
    scenario_design,
    sim3_replication,
    truth_f1,
    truth_f2,
    uniform_errors,
)


class TestDataGeneration:
    def test_truth_functions(self):
        x = np.array([0.25, 0.5, 1.0])
        assert np.allclose(truth_f1(x), np.sin(2 * np.pi * x))
        assert np.allclose(truth_f2(x), 0.5 * np.cos(np.pi * x))

    def test_uniform_errors_law(self):
        rng = np.random.default_rng(0)
        e = uniform_errors(rng, 200_000)
        assert e.min() >= -0.5 and e.max() < 0.5
        assert abs(e.mean()) < 5e-3
        assert e.var() == pytest.approx(1.0 / 12.0, rel=0.02)

    def test_replications_are_deterministic_and_distinct(self):
        cfg = ScenarioConfig(n=80)
        a = generate_dataset(cfg, 5)
        b = generate_dataset(cfg, 5)
        c = generate_dataset(cfg, 6)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x1, b.x1)
        assert not np.array_equal(a.x1, c.x1)
        assert a.replication == 5

    def test_covariates_in_left_open_unit_interval(self):
        cfg = ScenarioConfig(n=5000)
        d = generate_dataset(cfg, 0)
        for x in (d.x1, d.x2):
            assert x.min() > 0.0
            assert x.max() <= 1.0

    def test_response_assembly(self):
        cfg = ScenarioConfig(n=60)
        d = generate_dataset(cfg, 2)
        resid = d.y - truth_f1(d.x1) - truth_f2(d.x2)
        assert np.abs(resid).max() < 0.5

    def test_the_scenario_sets_only_its_size_seed_basis_and_counts(self):
        names = [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert names == ["n", "seed", "degree", "diff_order", "k_rule", "lam_rule",
                         "replications", "grid_points"]
        cfg = ScenarioConfig(n=100)
        assert (cfg.stages, cfg.error_variance, cfg.eval_point) == (10, 1.0 / 12.0, (0.5, 0.5))
        assert cfg.k_rule(100) == 13

    @pytest.mark.parametrize("field, value", [
        ("stages", 5), ("error_law", uniform_errors), ("error_variance", 1.0),
        ("eval_point", (0.3, 0.3)), ("f1", truth_f1), ("f2", truth_f2),
    ])
    def test_the_law_stages_and_point_are_fixed(self, field, value):
        with pytest.raises(TypeError, match=field):
            ScenarioConfig(n=100, **{field: value})

    @pytest.mark.parametrize("seed, replication", [(42, 0), (3, 7)])
    def test_dataset_is_the_fixed_law_bitwise(self, seed, replication):
        d = generate_dataset(ScenarioConfig(n=300, seed=seed), replication)
        rng = np.random.default_rng([seed, replication])
        x1, x2 = 1.0 - rng.random(300), 1.0 - rng.random(300)
        y = truth_f1(x1) + truth_f2(x2) + uniform_errors(rng, 300)
        assert np.array_equal(d.x1, x1) and np.array_equal(d.x2, x2)
        assert np.array_equal(d.y, y)

    def test_seed_changes_stream(self):
        a = generate_dataset(ScenarioConfig(n=40, seed=1), 0)
        b = generate_dataset(ScenarioConfig(n=40, seed=2), 0)
        assert not np.array_equal(a.y, b.y)

    def test_scenario_design_wiring(self):
        cfg = ScenarioConfig(n=200)
        d = scenario_design(cfg, generate_dataset(cfg, 0))
        assert d.X1.config.num_intervals == cfg.k_rule(200)
        assert d.lambda1 == cfg.lam_rule(200, cfg.k_rule(200))
        assert d.penalty.order == 2


class TestSim1:
    def test_frozen_snapshot_n100(self):
        r = run_sim1(ScenarioConfig(n=100))
        assert r.grid.shape == r.fit1.shape == r.true1.shape == (201,)
        assert r.rmse[0] == pytest.approx(0.10413796903887326, abs=1e-6)
        assert r.rmse[1] == pytest.approx(0.05680498879813961, abs=1e-6)

    def test_frozen_snapshot_n1000(self):
        r = run_sim1(ScenarioConfig(n=1000))
        assert r.rmse[0] == pytest.approx(0.04040585812398528, abs=1e-6)
        assert r.rmse[1] == pytest.approx(0.02676740143563413, abs=1e-6)

    def test_rmse_matches_grid_arrays(self):
        r = run_sim1(ScenarioConfig(n=100))
        want1 = np.sqrt(np.mean((r.fit1 - r.true1) ** 2))
        want2 = np.sqrt(np.mean((r.fit2 - r.true2) ** 2))
        assert r.rmse[0] == pytest.approx(want1, rel=1e-12)
        assert r.rmse[1] == pytest.approx(want2, rel=1e-12)

    def test_components_are_centered(self):
        r = run_sim1(ScenarioConfig(n=100))
        # centered comparison: the reported truth is centered the same way
        assert abs(np.trapezoid(r.true1, r.grid)) < 0.02


class TestSim2:
    def test_frozen_snapshot(self):
        r = run_sim2(ScenarioConfig(n=100))
        assert r.sup_diff[0] == pytest.approx(0.11765640279970047, abs=1e-6)
        assert r.sup_diff[1] == pytest.approx(0.32321301524022394, abs=1e-6)

    def test_sup_diff_matches_curves(self):
        r = run_sim2(ScenarioConfig(n=100))
        assert r.sup_diff[0] == pytest.approx(np.abs(r.fit1 - r.pen1).max(), rel=1e-12)
        assert r.sup_diff[1] == pytest.approx(np.abs(r.fit2 - r.pen2).max(), rel=1e-12)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_penalized_curves_are_the_univariate_estimator_bitwise(self, n):
        # the design's own factors give univariate_penalized's numbers exactly
        cfg = ScenarioConfig(n=n)
        r = run_sim2(cfg)
        d = scenario_design(cfg, generate_dataset(cfg, 0))
        for X, lam, pen in ((d.X1, d.lambda1, r.pen1), (d.X2, d.lambda2, r.pen2)):
            assert np.array_equal(pen, univariate_penalized(X, d.y, lam, d.penalty, r.grid))

    def test_interior_one_stage_agreement_shrinks(self):
        # companion of the acceptance sup-norm claim: compare the backfit to
        # the one-stage pair (marginal fit for component 1, residual fit for
        # component 2) away from the right boundary spike; there the
        # agreement is within 3/K and tightens with n.  run_sim2 itself
        # compares against two marginal fits, where component 2 absorbs
        # part of component 1's signal.
        from addspline import backfit_stages, predict
        from addspline.basis import design_matrix, eval_grid
        from addspline.sim import scenario_design

        sups = {}
        for n in (100, 1000):
            cfg = ScenarioConfig(n=n)
            d = scenario_design(cfg, generate_dataset(cfg, 0))
            r = backfit_stages(d, cfg.stages)
            X1, X2, P = d.X1.values, d.X2.values, d.penalty.values
            b1u = np.linalg.solve(X1.T @ X1 + d.lambda1 * P, X1.T @ d.y)
            b2u = np.linalg.solve(X2.T @ X2 + d.lambda2 * P, X2.T @ (d.y - X1 @ b1u))
            g = eval_grid(cfg.grid_points)
            Bg = design_matrix(d.X1.config, g).values
            f1, f2, _ = predict(r, d.X1.config, g, g)
            inner = (g >= 0.1) & (g <= 0.9)
            s1 = np.abs(f1 - Bg @ b1u)[inner].max()
            s2 = np.abs(f2 - Bg @ b2u)[inner].max()
            sups[n] = (s1, s2, 3.0 / cfg.k_rule(n))
        s1_1000, s2_1000, bound_1000 = sups[1000]
        assert s1_1000 <= bound_1000
        assert s2_1000 <= bound_1000
        assert s1_1000 <= sups[100][0] + 1e-12
        assert s2_1000 <= sups[100][1] + 1e-12


class TestOneFitOnTheGrid:
    @pytest.mark.parametrize("run", [run_sim1, run_sim2], ids=["sim1", "sim2"])
    def test_one_factorization_per_component_and_one_grid_evaluation(self, monkeypatch, run):
        # the two designs' rows and the grid are evaluated once each, and the
        # univariate fits solve with the backfit's own two factors
        basis = importlib.import_module("addspline.basis")
        init, basis_rows = BandedCholesky.__init__, basis._basis_rows
        stacks, sizes = [], []

        def counting_init(self, stack):
            stacks.append(stack.shape)
            init(self, stack)

        def counting_rows(cfg, x):
            sizes.append(x.size)
            return basis_rows(cfg, x)

        monkeypatch.setattr(BandedCholesky, "__init__", counting_init)
        monkeypatch.setattr(basis, "_basis_rows", counting_rows)
        cfg = ScenarioConfig(n=1000)
        run(cfg)
        q = cfg.k_rule(cfg.n) + cfg.degree
        assert stacks == [(1, q, q)] * 2
        assert sizes == [1000, 1000, cfg.grid_points]


class TestSim3:
    def test_replication_row_is_deterministic(self):
        cfg = ScenarioConfig(n=120, replications=8)
        a = sim3_replication(cfg, 3)
        b = sim3_replication(cfg, 3)
        assert a is not None
        assert np.array_equal(a, b)
        assert a.shape == (2,)

    def test_rows_independent_of_run_order(self):
        cfg = ScenarioConfig(n=120, replications=12)
        sample, summary = run_sim3(cfg)
        # recompute a few rows in reverse order; they must match bit for bit
        for rep in (11, 6, 0):
            row = sim3_replication(cfg, rep)
            idx = list(sample.replication_ids).index(rep)
            assert np.array_equal(sample.values[idx], row)

    def test_summary_fields(self):
        cfg = ScenarioConfig(n=120, replications=30)
        sample, s = run_sim3(cfg)
        assert sample.values.shape == (30 - s.rejected, 2)
        assert s.replications == 30
        assert 0.0 <= s.ks_stat[0] <= 1.0 and 0.0 <= s.ks_stat[1] <= 1.0
        assert s.covariance.shape == (2, 2)
        assert s.covariance[0, 1] == s.covariance[1, 0]
        assert np.all(np.diag(s.covariance) >= 0)
        assert s.mean.shape == (2,)
        assert 0.0 <= s.coverage[0] <= 1.0 and 0.0 <= s.coverage[1] <= 1.0
        assert s.runtime_seconds >= 0.0

    def test_standardized_statistics_are_roughly_normal_small_run(self):
        # a coarse sanity band wide enough for 150 replications
        cfg = ScenarioConfig(n=200, replications=150)
        _, s = run_sim3(cfg)
        assert np.abs(s.mean).max() < 0.35
        assert s.ks_stat.max() < 0.15


# the module, not the function that the package exports under the same name
backfit = importlib.import_module("addspline.backfit")


class TestReplicationKernel:
    def test_one_map_per_replication(self, monkeypatch):
        # the estimates come from the coefficient weights (A'u): two banded
        # solves per stage, and no separate backfit sweep
        solves, sweeps = [], []
        solve = BandedCholesky.solve

        def counting(self, rhs):
            solves.append(rhs.shape)
            return solve(self, rhs)

        monkeypatch.setattr(BandedCholesky, "solve", counting)
        for module in (backfit, sim):
            monkeypatch.setattr(module, "backfit_stages", lambda *a, **k: sweeps.append(a))
        cfg = ScenarioConfig(n=1000)
        (dev,), _ = sim._replicate_block(cfg, [0])
        assert len(solves) == 20
        assert sweeps == []
        monkeypatch.undo()
        design = scenario_design(cfg, generate_dataset(cfg, 0))
        res = backfit.backfit_stages(design, cfg.stages)
        x1e, x2e = cfg.eval_point
        f1, f2, _ = backfit.predict(res, design.X1.config, x1e, x2e)
        want = np.array([f1 - truth_f1(x1e), f2 - truth_f2(x2e)])
        assert dev == pytest.approx(want, rel=0, abs=1e-12)

    def test_basis_evaluated_once_at_the_evaluation_point(self, monkeypatch):
        # two designs plus one evaluation of both points; the weight products
        # reuse those rows instead of evaluating the basis again
        calls = []
        inference = importlib.import_module("addspline.inference")
        for module in (backfit, inference, sim):
            original = module.design_matrix

            def counting(cfg, points, original=original):
                calls.append(np.size(points))
                return original(cfg, points)

            monkeypatch.setattr(module, "design_matrix", counting)
        cfg = ScenarioConfig(n=1000)
        _, (V,) = sim._replicate_block(cfg, [0])
        assert calls == [1000, 1000, 2]
        monkeypatch.undo()
        d = scenario_design(cfg, generate_dataset(cfg, 0))
        want = cfg.error_variance * _weight_products(d, cfg.stages, *cfg.eval_point)
        assert V == pytest.approx(want, rel=1e-12, abs=0)


def _weight_products(design, stages, x1, x2):
    """The 2 x 2 inner products of the weights of f_hat_1(x1) and f_hat_2(x2)
    after `stages` sweeps (`StageSmoother.evaluate_rows`)."""
    r1, r2 = (design_matrix(design.X1.config, float(x)).values for x in (x1, x2))
    return StageSmoother(design, stages).evaluate_rows(r1, r2)[1][0]


def _zero_penalty(n, K):
    return 0.0


class TestReplicationBlocks:
    """R replications as the blocks of one system, against blocks of one."""

    def test_block_rows_bitwise_equal_blocks_of_one(self):
        cfg = ScenarioConfig(n=300, seed=5)
        ids = [4, 0, 9, 2, 7, 3, 11]
        dev, V = sim._replicate_block(cfg, ids)
        assert dev.shape == (7, 2) and V.shape == (7, 2, 2)
        for i, r in enumerate(ids):
            (d1,), (V1,) = sim._replicate_block(cfg, [r])
            assert np.array_equal(dev[i], d1)
            assert np.array_equal(V[i], V1)

    def test_studies_split_into_blocks_bitwise(self, monkeypatch):
        # 12 replications in blocks of 5, 5 and 2, against one block of 12
        cfg = ScenarioConfig(n=120, replications=12)
        whole, _ = run_sim3(cfg)
        cov = coverage_experiment(cfg)
        # half the budget holds 5 replications' data and q x q stacks
        q = cfg.k_rule(cfg.n) + cfg.degree
        monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * 5 * 8 * (3 * cfg.n + sim._HELD_STACKS * q * q))
        assert sim._block_size(cfg) == 5
        sizes = []
        block = sim._replicate_block

        def counting(cfg, replications):
            sizes.append(len(replications))
            return block(cfg, replications)

        monkeypatch.setattr(sim, "_replicate_block", counting)
        split, _ = run_sim3(cfg)
        assert sizes == [5, 5, 2]
        assert np.array_equal(split.values, whole.values)
        assert np.array_equal(split.replication_ids, whole.replication_ids)
        split_cov = coverage_experiment(cfg)
        assert np.array_equal(split_cov.mean, cov.mean)
        assert np.array_equal(split_cov.covariance, cov.covariance)

    def test_pinned_columns_per_replication(self):
        # at zero penalty and n = 20 some replications leave a boundary
        # interval empty and pin its column, others pin nothing; one block
        # holds both kinds
        cfg = ScenarioConfig(n=20, lam_rule=_zero_penalty, k_rule=lambda n: 6)
        q = cfg.k_rule(cfg.n) + cfg.degree
        own = {}
        for r in range(60):
            d = scenario_design(cfg, generate_dataset(cfg, r))
            try:
                own[r] = d.normal_equations.pinned
            except NotPositiveDefiniteError:
                continue
        ids = sorted(own)[:30]
        pins = [any(cols.size for cols in own[r]) for r in ids]
        assert any(pins) and not all(pins)
        design = sim._design(cfg, None, None, None, sim._block_statistics(cfg, ids))
        assert design.blocks == len(ids) and design.n == len(ids) * cfg.n
        got = design.normal_equations.pinned
        for j in (0, 1):
            want = np.concatenate([own[r][j] + i * q for i, r in enumerate(ids)])
            assert np.array_equal(got[j], want)
        dev, V = sim._replicate_block(cfg, ids)
        x1e, x2e = cfg.eval_point
        for i, r in enumerate(ids):
            (d1,), (V1,) = sim._replicate_block(cfg, [r])
            assert np.array_equal(dev[i], d1) and np.array_equal(V[i], V1)
            d = scenario_design(cfg, generate_dataset(cfg, r))
            res = backfit.backfit_stages(d, cfg.stages)
            f1, f2, _ = backfit.predict(res, d.X1.config, x1e, x2e)
            want = np.array([f1 - truth_f1(x1e), f2 - truth_f2(x2e)])
            assert np.abs(dev[i] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
            P = _weight_products(d, cfg.stages, x1e, x2e)
            want_V = cfg.error_variance * P
            assert np.abs(V[i] - want_V).max() <= 1e-10 * np.abs(want_V).max()

    def test_block_factors_once_and_sweeps_once(self, monkeypatch):
        cfg = ScenarioConfig(n=200)
        factors, solves = [], []
        init, solve = BandedCholesky.__init__, BandedCholesky.solve

        def counting_init(self, stack):
            factors.append(stack.shape[0] * stack.shape[1])
            init(self, stack)

        def counting_solve(self, rhs):
            solves.append(rhs.shape)
            return solve(self, rhs)

        monkeypatch.setattr(BandedCholesky, "__init__", counting_init)
        monkeypatch.setattr(BandedCholesky, "solve", counting_solve)
        R, q = 9, cfg.k_rule(cfg.n) + cfg.degree
        sim._replicate_block(cfg, range(R))
        assert factors == [R * q, R * q]
        assert solves == [(R * q, 2)] * (2 * cfg.stages)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_block_peak_memory_within_budget(self, n):
        cfg = ScenarioConfig(n=n)
        R = sim._block_size(cfg)
        assert R > 1
        sim._replicate_block(cfg, range(2))  # warm caches and lazy imports
        tracemalloc.start()
        try:
            sim._replicate_block(cfg, range(R))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sim._BLOCK_BYTES


# 200 replications of n = 200: 40000 rows in 3 blocks of 68, 68 and 64, above
# the fork floor
FORKED = ScenarioConfig(n=200, replications=200, seed=3)
FORKED_BLOCKS = 3
SINGULAR = "3-th leading minor not positive definite"


def _force_workers(monkeypatch, count):
    monkeypatch.setattr(sim, "_worker_count", lambda rows, blocks: count)


def _fail_at(monkeypatch, replication):
    block = sim._replicate_block

    def failing(cfg, replications):
        if replication in replications:
            raise NotPositiveDefiniteError(SINGULAR)
        return block(cfg, replications)

    monkeypatch.setattr(sim, "_replicate_block", failing)


def _assert_no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedStudies:
    """Blocks run by forked workers against the serial loop."""

    def test_worker_count(self, monkeypatch):
        rows = sim._FORK_ROWS
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
        assert sim._worker_count(rows, 3) == 2
        assert sim._worker_count(100 * rows, 125) == 2  # two, the count measured
        assert sim._worker_count(rows - 1, 9) == 1
        assert sim._worker_count(rows, 1) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2})
        assert sim._worker_count(rows, 9) == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform other than Linux
        assert sim._worker_count(rows, 9) == 1

    @pytest.mark.parametrize("workers", [None, 2])
    def test_forked_study_is_bitwise_the_serial_one(self, monkeypatch, workers):
        assert FORKED.n * FORKED.replications >= sim._FORK_ROWS
        assert -(-FORKED.replications // sim._block_size(FORKED)) == FORKED_BLOCKS
        _force_workers(monkeypatch, 1)
        serial, serial_summary = run_sim3(FORKED)
        serial_cov = coverage_experiment(FORKED)
        monkeypatch.undo()
        if workers is None:  # as many as this process may use
            workers = sim._worker_count(FORKED.n * FORKED.replications, FORKED_BLOCKS)
        else:
            _force_workers(monkeypatch, workers)
        forked, forked_summary = run_sim3(FORKED)
        forked_cov = coverage_experiment(FORKED)
        _assert_no_child_remains()
        assert np.array_equal(forked.values, serial.values)
        assert np.array_equal(forked.replication_ids, serial.replication_ids)
        assert forked.rejected == serial.rejected
        for name in ("mean", "covariance", "ks_stat", "coverage"):
            assert np.array_equal(getattr(forked_cov, name), getattr(serial_cov, name))
        # the same partition: one time per block, and the process that ran it
        assert (serial_summary.workers, serial_cov.workers) == (1, 1)
        assert (forked_summary.workers, forked_cov.workers) == (workers, workers)
        for s in (serial_summary, serial_cov, forked_summary, forked_cov):
            assert len(s.block_seconds) == len(s.block_workers) == FORKED_BLOCKS
            assert all(t > 0 for t in s.block_seconds)
            assert set(s.block_workers) <= set(range(s.workers))
        assert serial_summary.block_workers == (0,) * FORKED_BLOCKS

    def test_every_block_runs_once_across_the_two_processes(self, monkeypatch, tmp_path):
        # blocks of 10: 20 blocks.  Each run of a block appends a line to one
        # file; this process runs its blocks slowly, so the worker takes some
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(sim, "_block_size", lambda cfg: 10)
        log, parent, block = tmp_path / "runs", os.getpid(), sim._replicate_block

        def logged(cfg, replications):
            with open(log, "a") as fh:  # appends of whole lines, from both processes
                fh.write(f"{replications[0]} {os.getpid()}\n")
            if os.getpid() == parent:
                time.sleep(0.05)
            return block(cfg, replications)

        monkeypatch.setattr(sim, "_replicate_block", logged)
        sample, summary = run_sim3(FORKED)
        _assert_no_child_remains()
        runs = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(first for first, _ in runs) == list(range(0, 200, 10))
        ran_by = dict(runs)
        assert summary.block_workers == tuple(
            0 if ran_by[first] == parent else 1 for first in range(0, 200, 10)
        )
        assert 1 in summary.block_workers  # the faster process ran blocks too
        monkeypatch.undo()
        serial, _ = run_sim3(FORKED)
        assert np.array_equal(sample.values, serial.values)

    def test_replications_across_the_former_chunk_boundary_bitwise(self, monkeypatch):
        # 16 replications of 1000 rows a block: replication 8 holds rows
        # 8000-8999, across row 8192, where the first 8192-row chunk ended
        # before chunks were cut between replications only
        cfg = ScenarioConfig(n=1000, replications=48, seed=7)
        monkeypatch.setattr(sim, "_block_size", lambda cfg: 16)
        cuts, of = [], NormalStatistics.of
        with monkeypatch.context() as m:  # the cuts of the rows a block sums
            m.setattr(NormalStatistics, "of", lambda y, X1, X2: cuts.append(X1.cuts())
                      or of(y, X1, X2))
            sim._block_statistics(cfg, range(16))
        assert cuts == [[slice(0, 8000), slice(8000, 16000)]]
        _force_workers(monkeypatch, 1)
        serial = sim._replicate_all(cfg)
        _force_workers(monkeypatch, 2)
        forked = sim._replicate_all(cfg)
        _assert_no_child_remains()
        assert forked[2]["workers"] == 2
        assert np.array_equal(forked[0], serial[0]) and np.array_equal(forked[1], serial[1])
        for r in (7, 8, 9, 24, 47):
            (d1,), (V1,) = sim._replicate_block(cfg, [r])
            assert np.array_equal(serial[0][r], d1) and np.array_equal(serial[1][r], V1)

    def test_a_queue_longer_than_a_pipe_holds_completes_with_one_fork(self, monkeypatch):
        # 20000 blocks of one replication, more indices than the 16384 that a
        # 64 KiB pipe holds; the stub kernel's row is its replication's index
        M = 20_000
        cfg = ScenarioConfig(n=2, replications=M)
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(sim, "_block_size", lambda cfg: 1)
        monkeypatch.setattr(sim, "_replicate_block", lambda cfg, replications: (
            np.array([[replications[0], 0.0]]), np.eye(2)[None]))
        forks, Worker = [], forking.Worker

        def counting(*args):
            forks.append(args[0])
            return Worker(*args)

        monkeypatch.setattr(forking, "Worker", counting)
        dev, V, runs = sim._replicate_all(cfg)
        _assert_no_child_remains()
        assert forks == [sim._send_blocks] and runs["workers"] == 2
        assert np.array_equal(dev[:, 0], np.arange(M))
        assert len(runs["block_seconds"]) == len(runs["block_workers"]) == M

    @pytest.mark.parametrize("replication", [190, 10])  # the last block, then the first
    def test_block_error_reaches_the_caller(self, monkeypatch, replication):
        _force_workers(monkeypatch, 2)
        _fail_at(monkeypatch, replication)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            run_sim3(FORKED)
        assert str(exc.value) == SINGULAR
        _assert_no_child_remains()

    def test_worker_error_mid_queue_reaches_the_caller(self, monkeypatch):
        # the worker fails on the first block it takes, while blocks remain:
        # this process raises the worker's error once the block it runs ends
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(sim, "_block_size", lambda cfg: 10)
        parent, block, ours = os.getpid(), sim._replicate_block, []

        def failing(cfg, replications):
            if os.getpid() != parent:
                raise NotPositiveDefiniteError(SINGULAR)
            ours.append(replications[0])
            time.sleep(0.05)
            return block(cfg, replications)

        monkeypatch.setattr(sim, "_replicate_block", failing)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            coverage_experiment(FORKED)
        assert str(exc.value) == SINGULAR
        _assert_no_child_remains()
        assert 0 < len(ours) <= 2 and len(set(ours)) == len(ours)

    @pytest.mark.parametrize("sent", [0, 40])
    def test_short_read_names_the_exit_status(self, monkeypatch, sent):
        # the worker sends the first `sent` bytes of its result, then exits
        _force_workers(monkeypatch, 2)
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj: dumps(obj)[:sent])
        with pytest.raises(ChildProcessError,
                           match=f"exited with status 0 after sending {sent} bytes"):
            coverage_experiment(FORKED)
        _assert_no_child_remains()


class _FakeBlas:
    """A BLAS thread count held in a Python int; `calls` records every set."""

    def __init__(self, threads):
        self.threads, self.calls = threads, []

    def scipy_openblas_set_num_threads64_(self, threads):
        self.calls.append(threads)
        self.threads = threads

    def scipy_openblas_get_num_threads64_(self):
        return self.threads


class _SetterOnly:
    """A library with a setter but no getter: no pair, so never called."""

    def __init__(self):
        self.calls = []

    def openblas_set_num_threads(self, threads):
        self.calls.append(threads)


# child interpreters import the package from the same tree as this process
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(sim.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
}


class TestBlasThreads:
    """A study on two processes runs each one's BLAS on one thread."""

    @staticmethod
    def _threads_kernel(monkeypatch, fake, fail_in_worker=False):
        # each block's row: the fake's thread count where it ran; a short
        # sleep lets the worker take blocks too
        parent = os.getpid()

        def kernel(cfg, replications):
            if fail_in_worker and os.getpid() != parent:
                raise NotPositiveDefiniteError(SINGULAR)
            time.sleep(0.01)
            R = len(replications)
            return np.full((R, 2), float(fake.threads)), np.tile(np.eye(2), (R, 1, 1))

        monkeypatch.setattr(sim, "_block_size", lambda cfg: 10)
        monkeypatch.setattr(sim, "_replicate_block", kernel)

    def test_both_processes_run_one_thread_and_the_count_is_restored(self, monkeypatch):
        fake = _FakeBlas(2)
        monkeypatch.setattr(sim, "_blas_library", lambda: fake)
        _force_workers(monkeypatch, 2)
        self._threads_kernel(monkeypatch, fake)
        dev, _, runs = sim._replicate_all(FORKED)
        _assert_no_child_remains()
        assert set(runs["block_workers"]) == {0, 1}
        assert np.all(dev == 1.0)  # in this process and in the worker
        assert fake.calls == [1, 2] and fake.threads == 2

    def test_count_is_restored_when_the_worker_raises(self, monkeypatch):
        fake = _FakeBlas(3)
        monkeypatch.setattr(sim, "_blas_library", lambda: fake)
        _force_workers(monkeypatch, 2)
        self._threads_kernel(monkeypatch, fake, fail_in_worker=True)
        with pytest.raises(NotPositiveDefiniteError, match=SINGULAR):
            sim._replicate_all(FORKED)
        _assert_no_child_remains()
        assert fake.calls == [1, 3] and fake.threads == 3

    def test_one_process_keeps_the_environments_count(self, monkeypatch):
        fake = _FakeBlas(2)
        monkeypatch.setattr(sim, "_blas_library", lambda: fake)
        _force_workers(monkeypatch, 1)
        self._threads_kernel(monkeypatch, fake)
        dev, _, _ = sim._replicate_all(FORKED)
        assert np.all(dev == 2.0) and fake.calls == []

    @pytest.mark.parametrize("library", [None, object(), _SetterOnly()],
                             ids=["not loaded", "no symbol", "no getter"])
    def test_no_pair_found_does_nothing(self, monkeypatch, library):
        monkeypatch.setattr(sim, "_blas_library", lambda: library)
        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(sim, "_block_size", lambda cfg: 50)
        forked = sim._replicate_all(FORKED)
        _assert_no_child_remains()
        _force_workers(monkeypatch, 1)
        serial = sim._replicate_all(FORKED)
        assert np.array_equal(forked[0], serial[0]) and np.array_equal(forked[1], serial[1])
        assert getattr(library, "calls", []) == []

    def test_numpys_own_library_reads_one_thread_inside(self):
        lib = sim._blas_library()
        pairs = [(getattr(lib, s), getattr(lib, g)) for s, g in sim._BLAS_THREADS
                 if hasattr(lib, s) and hasattr(lib, g)]
        if not pairs:
            pytest.skip("numpy's BLAS exports none of the known thread-count pairs")
        get = pairs[0][1]
        before = get()
        with sim._one_blas_thread():
            assert get() == 1
        assert get() == before

    @pytest.mark.skipif(forking.workers() < 2, reason="a study forks only on two CPUs")
    def test_study_bytes_do_not_depend_on_the_environments_thread_count(self, tmp_path):
        # at n = 1e5 one block of two BLAS threads summed differently from
        # one of one thread, in the last digits of mean, covariance, ks_stat
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-m", "addspline", "simulate", "sim3", "--n", "100000",
                 "--reps", "4", "--seed", "1", "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env={**CHILD_ENV, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                     "MKL_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            summary = json.loads((out / "sim3_n100000_seed1.json").read_text())
            assert summary["workers"] == 2
            for run_time in ("runtime_seconds", "block_seconds", "block_workers"):
                del summary[run_time]
            outputs.append((summary, (out / "sim3_n100000_seed1.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestCoverage:
    def test_small_run_bounds_and_level_ordering(self):
        cfg = ScenarioConfig(n=150, replications=60)
        low = coverage_experiment(cfg, level=0.5)
        high = coverage_experiment(cfg, level=0.99)
        for s in (low, high):
            assert 0.0 <= s.coverage[0] <= 1.0 and 0.0 <= s.coverage[1] <= 1.0
            assert s.rejected == 0
            assert s.replications == 60
        assert high.coverage[0] >= low.coverage[0]
        assert high.coverage[1] >= low.coverage[1]
        # the two runs share replication streams, so the standardized
        # deviations (and everything but coverage) coincide
        assert np.array_equal(low.mean, high.mean)
        assert np.array_equal(low.covariance, high.covariance)

    @pytest.mark.parametrize("study", [run_sim3, coverage_experiment])
    def test_bad_level_is_rejected_before_replicating(self, monkeypatch, study):
        def forbidden(cfg):
            raise AssertionError("no replication may run at a bad level")

        monkeypatch.setattr(sim, "_replicate_all", forbidden)
        with pytest.raises(ValueError, match="level must be in"):
            study(ScenarioConfig(n=50, replications=4), level=1.5)


class TestKsStatistic:
    """`sim._ks_normal` against scipy's two-sided `kstest(x, "norm")`."""

    @staticmethod
    def scipy_ks(x):
        from scipy.stats import kstest

        return float(kstest(x, "norm").statistic)

    @pytest.mark.parametrize("n", [1, 2, 5, 200, 1000])
    def test_matches_kstest_on_shifted_and_scaled_normals(self, n):
        rng = np.random.default_rng(n)
        for loc, scale in ((0.0, 1.0), (0.8, 1.0), (0.0, 2.5), (-1.5, 0.3)):
            x = rng.normal(loc, scale, n)  # unsorted, as the summaries pass it
            assert abs(sim._ks_normal(x) - self.scipy_ks(x)) <= 1e-15

    def test_leaves_unsorted_input_unchanged(self):
        # the summaries pass column views of the sample that sim3 writes out
        x = np.random.default_rng(3).normal(size=50)
        before = x.copy()
        sim._ks_normal(x)
        assert np.array_equal(x, before)

    def test_ties(self):
        x = np.array([0.3, -1.2, 0.3, 0.3, 2.0, -1.2, 0.0, 0.0])
        assert abs(sim._ks_normal(x) - self.scipy_ks(x)) <= 1e-15

    def test_far_tails(self):
        x = np.array([40.0, -40.0, -38.5, 9.0, -9.0, 0.1, 37.0, -0.4, 25.0])
        assert abs(sim._ks_normal(x) - self.scipy_ks(x)) <= 1e-15
        # a sample wholly in one far tail sits at distance one from N(0, 1)
        assert sim._ks_normal(np.array([39.0, 40.0])) == 1.0
        assert sim._ks_normal(np.array([-40.0, -39.0])) == 1.0

    def test_empty_sample_is_nan(self):
        assert np.isnan(sim._ks_normal(np.array([])))

    def test_summaries_need_two_rows(self):
        with pytest.raises(ValueError, match="at least two replications, got 1 of 3 "
                           r"\(2 rejected"):
            sim._summarize(np.zeros((1, 2)), 0.0, 3, 2)


class TestKde:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(8)
        sample = rng.normal(size=(400, 2))
        k = kde2d(sample, grid_size=121)
        dx = k.x[1] - k.x[0]
        dy = k.y[1] - k.y[0]
        mass = k.density.sum() * dx * dy
        assert mass == pytest.approx(1.0, abs=0.01)

    def test_matches_direct_kernel_sum(self):
        # density[i, j] is the product-kernel average at (x[i], y[j])
        rng = np.random.default_rng(9)
        sample = rng.normal(size=(60, 2)) * np.array([0.5, 1.5]) + np.array([1.0, -2.0])
        k = kde2d(sample, grid_size=17)
        h0, h1 = k.bandwidth
        for i in (0, 5, 16):
            for j in (2, 9):
                kx = np.exp(-0.5 * ((k.x[i] - sample[:, 0]) / h0) ** 2) / (h0 * np.sqrt(2 * np.pi))
                ky = np.exp(-0.5 * ((k.y[j] - sample[:, 1]) / h1) ** 2) / (h1 * np.sqrt(2 * np.pi))
                assert k.density[i, j] == pytest.approx(np.mean(kx * ky), rel=1e-12)

    def test_matches_standard_normal_at_origin(self):
        rng = np.random.default_rng(10)
        sample = rng.standard_normal(size=(6000, 2))
        k = kde2d(sample, grid_size=101)
        ix = np.argmin(np.abs(k.x))
        iy = np.argmin(np.abs(k.y))
        assert k.density[ix, iy] == pytest.approx(1.0 / (2 * np.pi), rel=0.15)

    def test_grid_extends_four_bandwidths_past_the_sample(self):
        sample = np.random.default_rng(12).normal(size=(50, 2))
        k = kde2d(sample, grid_size=11)
        lo, hi = sample.min(axis=0) - 4.0 * k.bandwidth, sample.max(axis=0) + 4.0 * k.bandwidth
        assert (k.x[0], k.y[0], k.x[-1], k.y[-1]) == (lo[0], lo[1], hi[0], hi[1])
        with pytest.raises(TypeError, match="pad"):
            kde2d(sample, pad=2.0)

    def test_bandwidth_override_and_validation(self):
        rng = np.random.default_rng(11)
        sample = rng.normal(size=(50, 2))
        k = kde2d(sample, bandwidth=0.7)
        assert np.array_equal(k.bandwidth, [0.7, 0.7])
        k2 = kde2d(sample, bandwidth=(0.5, 0.9))
        assert np.array_equal(k2.bandwidth, [0.5, 0.9])
        with pytest.raises(ValueError):
            kde2d(sample, bandwidth=0.0)
        with pytest.raises(ValueError):
            kde2d(sample[:1])
        with pytest.raises(ValueError):
            kde2d(np.zeros((40, 2)))
        with pytest.raises(ValueError):
            kde2d(rng.normal(size=(40, 3)))
