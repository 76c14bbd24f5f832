"""Backfitting estimator: rules, sweeps, optimality, identifiability behavior."""

import numpy as np
import pytest
from conftest import OZONE_CSV, ridged_design, sim_xy, stacked_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from addspline import basis
from addspline import (
    AdditiveDesign,
    backfit,
    backfit_stages,
    build_design,
    criterion,
    hessian_check,
    joint_solve,
    kn_rule,
    lambda_rule,
    penalty_matrix,
    predict,
    univariate_penalized,
)
from addspline.backfit import (
    NormalEquations,
    NormalStatistics,
)
from addspline.bandmat import BandedCholesky, NotPositiveDefiniteError
from addspline.basis import design_matrix, make_knots
from addspline.dataio import load_csv
from addspline.penalty import PenaltyMatrix, difference_matrix


class TestTuningRules:
    def test_interval_rule_values(self):
        assert [kn_rule(n) for n in (100, 111, 200, 500, 1000, 2000)] == [
            13,
            13,
            17,
            24,
            32,
            42,
        ]

    def test_interval_rule_formula(self):
        for n in (64, 300, 5000):
            assert kn_rule(n) == int(round(2.0 * n**0.4))

    def test_lambda_rule_formula(self):
        assert lambda_rule(1000, 32) == pytest.approx(2.0 * 1000**0.4 / np.sqrt(32), rel=1e-14)
        assert lambda_rule(1000, 32) == pytest.approx(5.6035, abs=1e-4)
        assert lambda_rule(111, 13) == pytest.approx(3.649114671261128, rel=1e-12)

    def test_build_design_wires_defaults(self):
        y, x1, x2 = sim_xy(200, seed=1)
        d = build_design(y, x1, x2)
        K = kn_rule(200)
        assert d.X1.config.num_intervals == K
        assert d.lambda1 == lambda_rule(200, K)
        assert d.lambda2 == d.lambda1
        assert d.penalty.order == 2
        assert d.num_coef == K + 3

    def test_build_design_overrides(self):
        y, x1, x2 = sim_xy(60, seed=2)
        d = build_design(y, x1, x2, degree=2, diff_order=1, num_intervals=7, lambda1=0.5, lambda2=2.0)
        assert d.X1.config.degree == 2
        assert d.penalty.order == 1
        assert d.X1.config.num_intervals == 7
        assert (d.lambda1, d.lambda2) == (0.5, 2.0)


class TestDesignValidation:
    def test_row_mismatch(self):
        y, x1, x2 = sim_xy(50, seed=3)
        cfg = make_knots(3, 6)
        with pytest.raises(ValueError):
            AdditiveDesign(
                y=y,
                X1=design_matrix(cfg, x1),
                X2=design_matrix(cfg, x2[:-1]),
                lambda1=1.0,
                lambda2=1.0,
                penalty=penalty_matrix(2, cfg.num_basis),
            )

    def test_penalty_size_mismatch(self):
        y, x1, x2 = sim_xy(50, seed=3)
        cfg = make_knots(3, 6)
        with pytest.raises(ValueError):
            AdditiveDesign(
                y=y,
                X1=design_matrix(cfg, x1),
                X2=design_matrix(cfg, x2),
                lambda1=1.0,
                lambda2=1.0,
                penalty=penalty_matrix(2, cfg.num_basis + 2),
            )

    def test_negative_penalty_weight(self):
        y, x1, x2 = sim_xy(50, seed=3)
        with pytest.raises(ValueError):
            build_design(y, x1, x2, num_intervals=6, lambda1=-1.0, lambda2=1.0)

    @pytest.mark.parametrize(
        "entries",
        [[(0, 1, 0.5)], [(0, 3, 0.5), (3, 0, 0.5)]],
        ids=["asymmetric", "wider_than_its_order"],
    )
    def test_penalty_outside_its_bandwidth(self, entries):
        # the factors take a symmetric penalty of any band, so one wider than
        # its order solves; there Q 1 != 0, so the constant shift is no null
        # vector and the minimizer is unique.  An asymmetric penalty is
        # rejected where a system is built, though PenaltyMatrix itself
        # stays unvalidated
        y, x1, x2 = sim_xy(50, seed=3)
        cfg = make_knots(3, 6)
        values = penalty_matrix(2, cfg.num_basis).values.copy()
        for i, j, v in entries:
            values[i, j] += v
        Q = PenaltyMatrix(order=2, values=values)
        d = AdditiveDesign(
            y=y,
            X1=design_matrix(cfg, x1),
            X2=design_matrix(cfg, x2),
            lambda1=1.0,
            lambda2=1.0,
            penalty=Q,
        )
        if not np.array_equal(values, values.T):
            with pytest.raises(ValueError, match="penalty is not symmetric"):
                d.normal_equations
            with pytest.raises(ValueError, match="penalty is not symmetric"):
                univariate_penalized(d.X1, y, 1.0, Q, 0.5)
            return
        assert not d.normal_equations.joint_system_singular
        A, rhs = stacked_dense(d)
        want = np.linalg.solve(A, rhs)
        fit = backfit(d, tol=1e-12, max_stages=5000)  # contracts slowly: 1813 stages
        assert fit.converged
        for b1, b2 in (joint_solve(d), (fit.b1, fit.b2)):
            got = np.concatenate([b1, b2])
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_non_convex_criterion_is_named(self):
        # the symmetric wider_than_its_order penalty has eigenvalue -0.183; at
        # lambda 10 the stacked Hessian's smallest is -1.18, each Lam_j still
        # factors, and the sweeps diverge (coefficients near 1e273 after 200
        # stages): the unconverged backfit and the joint solve name the
        # criterion instead, and the fixed-stage run checks nothing
        y, x1, x2 = sim_xy(50, seed=3)
        cfg = make_knots(3, 6)
        values = penalty_matrix(2, cfg.num_basis).values.copy()
        values[0, 3] += 0.5
        values[3, 0] += 0.5
        d = AdditiveDesign(
            y=y,
            X1=design_matrix(cfg, x1),
            X2=design_matrix(cfg, x2),
            lambda1=10.0,
            lambda2=10.0,
            penalty=PenaltyMatrix(order=2, values=values),
        )
        assert np.linalg.eigvalsh(d.normal_equations.stacked_matrix())[0] < -1.0
        with pytest.raises(ValueError, match="penalized criterion is not convex"):
            backfit(d, max_stages=200)
        with pytest.raises(ValueError, match="penalized criterion is not convex"):
            joint_solve(d)
        assert backfit_stages(d, 200).stages == 200

    def test_slow_convex_fit_stops_unconverged_without_an_error(self):
        # ozone at zero penalty contracts at rate 0.90 and needs 245 stages
        r = backfit(ozone_design(0.0), max_stages=100)
        assert not r.converged and r.stages == 100

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_names_y_and_row(self, bad):
        y, x1, x2 = sim_xy(50, seed=3)
        y[[17, 31]] = bad
        with pytest.raises(ValueError, match=r"response y must be finite; row 17 is"):
            build_design(y, x1, x2, num_intervals=6)


def every_stage_residual_backfit(eq, b2_init, tol, max_stages):
    """The backfit loop that tests the residual at every stage, the reference
    `backfit` must equal bit for bit: (b1, b2, stages, converged, residual,
    the stages whose coefficient change is <= tol)."""
    q = eq.num_coef
    b2 = np.zeros(q) if b2_init is None else eq.gauge(np.array(b2_init, dtype=float))
    b1 = np.zeros(q)
    converged, residual, stoppable = False, np.inf, 0
    for stage in range(1, max_stages + 1):
        b1_new, b2_new = eq.sweep(b2)
        change = max(
            float(np.abs(b1_new - b1).max()) if stage > 1 else np.inf,
            float(np.abs(b2_new - b2).max()),
        )
        b1, b2 = b1_new, b2_new
        stoppable += change <= tol
        residual = eq.residual_norm(b1, b2)
        if change <= tol and residual <= tol:
            converged = True
            break
    return b1, b2, stage, converged, residual, stoppable


class TestSweeps:
    @pytest.mark.parametrize(
        "lam,x2,tol,max_stages,start",
        [
            (None, "wind", 1e-10, 100, False),  # the default fit: 26 stages
            (0.0, "wind", 1e-10, 400, False),  # 245 stages
            (None, "wind", 1e-10, 3, False),  # stopped at max_stages
            (None, "temperature", 1.0, 100, False),  # x2 = x1: 7 stages may stop
            (1e-6, "wind", 1e-10, 100, False),  # not converged in 100 stages
            (None, "wind", 1e-10, 100, True),
            (0.0, "wind", 1e-10, 400, True),
        ],
    )
    def test_residual_is_tested_only_where_a_stage_can_stop(
        self, monkeypatch, lam, x2, tol, max_stages, start
    ):
        data = load_csv(OZONE_CSV, "ozone", "temperature", x2)
        d = build_design(data.y, data.x1, data.x2, lambda1=lam, lambda2=lam)
        eq = d.normal_equations
        b2_init = np.random.default_rng(7).normal(size=d.num_coef) if start else None
        b1, b2, stages, converged, residual, stoppable = every_stage_residual_backfit(
            eq, b2_init, tol, max_stages
        )
        calls, residual_norm = [], NormalEquations.residual_norm
        monkeypatch.setattr(
            NormalEquations, "residual_norm",
            lambda self, *b: calls.append(1) or residual_norm(self, *b),
        )
        r = backfit(d, b2_init=b2_init, tol=tol, max_stages=max_stages)
        assert r.b1.tobytes() == b1.tobytes() and r.b2.tobytes() == b2.tobytes()
        assert (r.stages, r.converged, r.residual_norm) == (stages, converged, residual)
        assert len(calls) <= stoppable + 1

    def test_first_two_stages_match_closed_form(self):
        # stage updates alternate ridge solves against the other component's fit
        d = ridged_design(n=150, K=8)
        X1, X2 = d.X1.values, d.X2.values
        P = d.penalty.values
        inv1 = np.linalg.inv(X1.T @ X1 + d.lambda1 * P)
        inv2 = np.linalg.inv(X2.T @ X2 + d.lambda2 * P)
        b1 = inv1 @ X1.T @ d.y
        b2 = inv2 @ X2.T @ (d.y - X1 @ b1)
        got = backfit_stages(d, 1)
        assert np.allclose(got.b1, b1, atol=1e-12)
        assert np.allclose(got.b2, b2, atol=1e-12)
        b1 = inv1 @ X1.T @ (d.y - X2 @ b2)
        b2 = inv2 @ X2.T @ (d.y - X1 @ b1)
        got = backfit_stages(d, 2)
        assert np.allclose(got.b1, b1, atol=1e-12)
        assert np.allclose(got.b2, b2, atol=1e-12)

    def test_fixed_stage_prefix_of_tolerance_run(self):
        d = ridged_design()
        full = backfit(d, tol=1e-13, keep_history=True)
        for stages in (1, 3, full.stages):
            part = backfit_stages(d, stages)
            assert np.array_equal(part.b1, full.history[stages - 1][0])
            assert np.array_equal(part.b2, full.history[stages - 1][1])

    def test_criterion_never_increases(self):
        for seed in (0, 5):
            y, x1, x2 = sim_xy(120, seed=seed)
            d = build_design(y, x1, x2, num_intervals=9, lambda1=0.7, lambda2=1.3)
            r = backfit(d, tol=1e-12, keep_history=True)
            vals = [criterion(d, b1, b2) for b1, b2 in r.history]
            diffs = np.diff(vals)
            assert np.all(diffs <= 1e-10 * abs(vals[0]))

    def test_linearity_in_response(self):
        _, x1, x2 = sim_xy(100, seed=4)
        rng = np.random.default_rng(10)
        ya, yb = rng.normal(size=100), rng.normal(size=100)

        def fit(y):
            d = build_design(y, x1, x2, num_intervals=8, lambda1=1.0, lambda2=1.0)
            return backfit_stages(d, 6)

        ra, rb, rab = fit(ya), fit(yb), fit(ya + yb)
        assert np.allclose(rab.b1, ra.b1 + rb.b1, atol=1e-9)
        assert np.allclose(rab.b2, ra.b2 + rb.b2, atol=1e-9)

    def test_convergence_flags(self):
        d = ridged_design()
        r = backfit(d, tol=1e-13)
        assert r.converged
        assert r.stages >= 1
        assert r.residual_norm <= 1e-13
        short = backfit(d, tol=1e-13, max_stages=2)
        assert not short.converged
        assert short.stages == 2

    @pytest.mark.parametrize("max_stages", [0, -3])
    def test_fewer_than_one_stage_is_rejected(self, max_stages):
        # as backfit_stages rejects stages < 1, rather than return b = 0
        with pytest.raises(ValueError, match="max_stages must be >= 1"):
            backfit(ridged_design(), max_stages=max_stages)

    @pytest.mark.parametrize("tol,max_stages", [(1e-13, 400), (1e-13, 2), (None, 3)])
    def test_residual_is_that_of_the_returned_coefficients(self, tol, max_stages):
        d = ridged_design()
        if tol is None:
            r = backfit_stages(d, max_stages)
        else:
            r = backfit(d, tol=tol, max_stages=max_stages)
        assert r.residual_norm == d.normal_equations.residual_norm(r.b1, r.b2)

    def test_history_off_by_default(self):
        d = ridged_design()
        assert backfit(d).history is None

    @pytest.mark.parametrize("keyword", ["b2_init", "keep_history"])
    def test_fixed_stage_estimator_starts_from_zero_only(self, keyword):
        # the estimator whose weights StageSmoother computes: no start, no history
        d = ridged_design()
        with pytest.raises(TypeError, match=keyword):
            backfit_stages(d, 3, **{keyword: np.ones(d.num_coef)})
        assert backfit_stages(d, 3).history is None

    def test_argument_validation(self):
        d = ridged_design()
        with pytest.raises(ValueError):
            backfit(d, tol=-1.0)
        with pytest.raises(ValueError):
            backfit_stages(d, 0)
        with pytest.raises(ValueError):
            backfit(d, b2_init=np.zeros(3))


class TestNormalEquations:
    def test_residual_norm_is_estimating_equation_gap(self):
        d = ridged_design()
        eq = NormalEquations(d)
        r = backfit(d, tol=1e-13)
        assert eq.residual_norm(r.b1, r.b2) <= 1e-13
        rng = np.random.default_rng(0)
        b1 = r.b1 + 1e-3 * rng.normal(size=r.b1.size)
        assert eq.residual_norm(b1, r.b2) > 1e-6

    def test_stacked_matrix_matches_dense_blocks(self):
        d = ridged_design(n=90, K=6)
        A, _ = stacked_dense(d)
        assert np.allclose(NormalEquations(d).stacked_matrix(), A, atol=1e-12)

    def test_column_sums_are_the_design_column_sums(self):
        d = ridged_design(n=90, K=6)
        s1, s2 = NormalEquations(d).column_sums
        assert np.abs(s1 - d.X1.values.sum(axis=0)).max() <= 1e-13 * d.y.size
        assert np.abs(s2 - d.X2.values.sum(axis=0)).max() <= 1e-13 * d.y.size


def _statistics(design):
    """Everything the fit reads of the data, built afresh."""
    eq = NormalEquations(design)
    q = design.num_coef
    b = np.linspace(-1.0, 1.0, 2 * q)
    return {
        "G1": eq.G1,
        "G2": eq.G2,
        "C_blocks": eq.C_blocks,
        "u1": eq.u1,
        "u2": eq.u2,
        "yy": np.array([eq.yy]),
        "column_sums": np.concatenate(eq.column_sums),
        "rss": np.array([design.residual_sum_of_squares(b[:q], b[q:])]),
    }


class TestChunkedStatistics:
    """The statistics added up over chunks of rows equal those of one chunk."""

    CHUNK = basis._CHUNK_ROWS

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunks_match_one_chunk(self, n, monkeypatch):
        d = build_design(*sim_xy(n, seed=n), num_intervals=12)
        chunked = _statistics(d)
        monkeypatch.setattr(basis, "_CHUNK_ROWS", n)
        whole = _statistics(d)
        for name, want in whole.items():
            gap = np.abs(chunked[name] - want).max()
            assert gap <= 1e-13 * np.abs(want).max(), name

    def test_blocks_straddling_a_chunk_boundary(self, monkeypatch):
        # three blocks of 5000 rows: an 8192-row chunk holds one block, so
        # the chunks are cut between the blocks, not at row 8192 in block 1
        blocks, n = 3, 5000
        y, x1, x2 = sim_xy(blocks * n, seed=8)
        cfg = make_knots(3, 9)
        d = AdditiveDesign(
            y=y,
            X1=design_matrix(cfg, x1).block_diagonal(blocks),
            X2=design_matrix(cfg, x2).block_diagonal(blocks),
            lambda1=1.0,
            lambda2=1.0,
            penalty=penalty_matrix(2, cfg.num_basis),
        )
        assert d.X1.cuts() == [slice(0, 5000), slice(5000, 10000), slice(10000, 15000)]
        chunked = _statistics(d)
        monkeypatch.setattr(basis, "_CHUNK_ROWS", blocks * n)
        whole = _statistics(d)
        for name, want in whole.items():
            gap = np.abs(chunked[name] - want).max()
            assert gap <= 1e-13 * np.abs(want).max(), name
        # and each block's statistics are those of its rows alone
        q = cfg.num_basis
        for b in range(blocks):
            rows = slice(b * n, (b + 1) * n)
            alone = _statistics(build_design(y[rows], x1[rows], x2[rows], num_intervals=9,
                                             lambda1=1.0, lambda2=1.0))
            cols = slice(b * q, (b + 1) * q)
            for name in ("G1", "G2", "C_blocks"):
                gap = np.abs(whole[name][b] - alone[name][0]).max()
                assert gap <= 1e-13 * np.abs(alone[name]).max(), name
                # in the design's own chunks, bit for bit
                assert np.array_equal(chunked[name][b], alone[name][0]), name
            for name in ("u1", "u2"):
                gap = np.abs(whole[name][cols] - alone[name]).max()
                assert gap <= 1e-13 * np.abs(alone[name]).max(), name
                assert np.array_equal(chunked[name][cols], alone[name]), name

    def test_statistics_of_parts_add_up_to_the_design_given_them(self):
        # rows cut anywhere: the parts' statistics sum to one pass's, and a
        # design given that sum builds the normal equations from it alone
        y, x1, x2 = sim_xy(3000, seed=4)
        d = build_design(y, x1, x2, num_intervals=12)
        cfg, cut = d.X1.config, 1234
        parts = [
            NormalStatistics.of(y[rows], design_matrix(cfg, x1[rows]), design_matrix(cfg, x2[rows]))
            for rows in (slice(0, cut), slice(cut, None))
        ]
        given = build_design(y, x1, x2, num_intervals=12, statistics=parts[0] + parts[1])
        for name, want in _statistics(d).items():
            gap = np.abs(_statistics(given)[name] - want).max()
            assert gap <= 1e-13 * np.abs(want).max(), name
        assert given.normal_equations.u1 is given.statistics.u1
        with pytest.raises(ValueError, match="statistics of 15 columns for a basis of 18"):
            build_design(y, x1, x2, num_intervals=15, statistics=parts[0])

    def test_design_without_rows_reads_only_its_statistics(self):
        # the fit's design: n, the default rules and the normal equations come
        # from the statistics, and there is no row pass to take
        y, x1, x2 = sim_xy(3000, seed=4)
        stats = build_design(y, x1, x2).normal_equations
        d = build_design(y, x1, x2)
        cfg = d.X1.config
        given = NormalStatistics.of(y, design_matrix(cfg, x1), design_matrix(cfg, x2))
        rowless = build_design(None, None, None, statistics=given)
        assert given.n == rowless.n == d.n == 3000 and rowless.y.size == 0
        assert rowless.X1.config == cfg and rowless.lambda1 == d.lambda1
        for name in ("G1", "G2", "C_blocks", "u1", "u2", "yy"):
            got, want = getattr(rowless.normal_equations, name), getattr(stats, name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        res = backfit(rowless)
        assert np.array_equal(res.b1, backfit(d).b1)
        with pytest.raises(ValueError, match="the design holds 0 of its 3000 rows"):
            rowless.residual_sum_of_squares(res.b1, res.b2)

    def test_fit_reads_no_full_row_view(self):
        d = build_design(*sim_xy(3 * self.CHUNK, seed=1), num_intervals=12)
        res = backfit(d)
        d.normal_equations.column_sums  # the display centring's sums
        criterion(d, res.b1, res.b2)
        for X in (d.X1, d.X2):
            assert not {"first", "vals", "values"} & set(X.__dict__)


def ozone_design(lam):
    data = load_csv(OZONE_CSV, "ozone", "temperature", "wind")
    return build_design(data.y, data.x1, data.x2, lambda1=lam, lambda2=lam)


class TestPinnedColumns:
    """At zero penalty the scaled ozone covariates leave temperature columns
    0-4 and wind column 0 without data; those coefficients are pinned to 0."""

    def test_pinned_coefficients_are_exactly_zero(self):
        d = ozone_design(0.0)
        p1, p2 = d.normal_equations.pinned
        assert p1.tolist() == [0, 1, 2, 3, 4]
        assert p2.tolist() == [0]
        r = backfit(d, max_stages=400)
        assert r.converged
        assert np.all(r.b1[:5] == 0.0)
        assert r.b2[0] == 0.0

    def test_joint_solve_pins_the_same_columns(self):
        d = ozone_design(0.0)
        r = backfit(d, tol=1e-12, max_stages=1000)
        b1, b2 = joint_solve(d)
        assert np.all(b1[:5] == 0.0) and b2[0] == 0.0
        scale = max(np.abs(r.b1).max(), np.abs(r.b2).max())
        assert max(np.abs(b1 - r.b1).max(), np.abs(b2 - r.b2).max()) <= 1e-12 * scale

    def test_fitted_values_match_dense_least_squares(self):
        d = ozone_design(0.0)
        r = backfit(d, max_stages=400)
        X = np.hstack([d.X1.values, d.X2.values])
        want = X @ np.linalg.lstsq(X, d.y, rcond=None)[0]
        got = d.X1.values @ r.b1 + d.X2.values @ r.b2
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("j", [1, 2])
    def test_univariate_unpenalized_matches_least_squares_on_data_columns(self, j):
        d = ozone_design(0.0)
        X = d.X1 if j == 1 else d.X2
        keep = np.abs(X.values).max(axis=0) > 1e-20
        beta = np.linalg.lstsq(X.values[:, keep], d.y, rcond=None)[0]
        pts = np.linspace(0.025, 1.0, 40)
        want = design_matrix(X.config, pts).values[:, keep] @ beta
        got = univariate_penalized(X, d.y, 0.0, d.penalty, pts)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_positive_penalty_pins_nothing(self):
        for d in (ozone_design(None), ozone_design(1e-6), ridged_design()):
            assert all(cols.size == 0 for cols in d.normal_equations.pinned)

    def test_each_block_takes_its_own_floor(self):
        # a block diagonal system of the pinned ozone block, the same block
        # 1e20 times larger and a ridged block: each block pins its own
        # data-free columns, whatever the scale of the others, and solves
        # bit for bit as it does alone
        zero = ozone_design(0.0).normal_equations.Lam1
        ridged = ozone_design(1.0).normal_equations.Lam1
        parts = [zero, 1e20 * zero, ridged]
        q = zero.shape[1]
        L = BandedCholesky(np.concatenate(parts))
        assert L.pinned.tolist() == [0, 1, 2, 3, 4, q, q + 1, q + 2, q + 3, q + 4]
        rhs = np.random.default_rng(4).normal(size=(3 * q, 2))
        got = L.solve(rhs)
        for i, m in enumerate(parts):
            alone = BandedCholesky(m).solve(rhs[i * q : (i + 1) * q])
            assert np.array_equal(got[i * q : (i + 1) * q], alone)


class TestIllConditionedSolve:
    """At lambda = 1e-6 the ozone temperature columns 0-4 carry only the
    penalty, so Lam_1 has condition number about 1.9e9.  The factor solves
    through each block's explicit inverse; these checks bound what that form
    gives up against dense LAPACK solves at this conditioning."""

    def test_solves_are_backward_stable(self):
        # normwise backward error |b - A x| / (|A| |x| + |b|) within 1e-15
        # (measured 2.4e-16; LU's is 3e-17), forward error within
        # cond(A) eps of np.linalg.solve (measured 2.9e-9)
        eq = ozone_design(1e-6).normal_equations
        rng = np.random.default_rng(8)
        for L, lam in ((eq.L1, eq.Lam1), (eq.L2, eq.Lam2)):
            A = lam[0]
            cond = np.linalg.cond(A)
            assert cond > 1e7
            norm = np.linalg.norm(A, 2)
            for b in (eq.u1, rng.normal(size=A.shape[0]), A @ rng.normal(size=A.shape[0])):
                x = L.solve(b)
                backward = np.linalg.norm(b - A @ x) / (norm * np.linalg.norm(x) + np.linalg.norm(b))
                assert backward <= 1e-15
                want = np.linalg.solve(A, b)
                assert np.abs(x - want).max() <= cond * np.finfo(float).eps * np.abs(want).max()

    def test_fit_matches_dense_penalized_least_squares(self):
        # the reference: lstsq on [X_1 X_2; sqrt(lam) D 0; 0 sqrt(lam) D];
        # fitted values within 1e-12 (measured 3e-14), coefficients up to
        # the shared constant within 1e-7 (measured 2.3e-9, the same as the
        # banded triangular solves gave; cond(Lam_1) eps is 4.3e-7)
        d = ozone_design(1e-6)
        r = backfit(d, max_stages=1000)
        assert r.converged
        X1, X2 = d.X1.values, d.X2.values
        q = d.num_coef
        D = np.sqrt(1e-6) * difference_matrix(d.penalty.order, q)
        Z = np.zeros_like(D)
        M = np.vstack([np.hstack([X1, X2]), np.hstack([D, Z]), np.hstack([Z, D])])
        beta = np.linalg.lstsq(M, np.concatenate([d.y, np.zeros(2 * D.shape[0])]), rcond=None)[0]
        want = X1 @ beta[:q] + X2 @ beta[q:]
        assert np.abs(X1 @ r.b1 + X2 @ r.b2 - want).max() <= 1e-12 * np.abs(want).max()
        c = np.mean(r.b1 - beta[:q])
        assert np.abs(r.b1 - c - beta[:q]).max() <= 1e-7 * np.abs(beta[:q]).max()
        assert np.abs(r.b2 + c - beta[q:]).max() <= 1e-7 * np.abs(beta[q:]).max()


class TestOptimality:
    def test_converged_fit_beats_random_perturbations(self):
        y, x1, x2 = sim_xy(150, seed=6)
        d = build_design(y, x1, x2, num_intervals=10, lambda1=1.0, lambda2=1.0)
        r = backfit(d, tol=1e-12)
        base = criterion(d, r.b1, r.b2)
        rng = np.random.default_rng(99)
        q = d.num_coef
        for scale in (1e-3, 1.0):
            for _ in range(50):
                db1 = scale * rng.normal(size=q)
                db2 = scale * rng.normal(size=q)
                assert criterion(d, r.b1 + db1, r.b2 + db2) >= base - 1e-10 * (1 + base)

    def test_constant_transfer_leaves_criterion_unchanged(self):
        # the unpenalized shared-constant direction: moving c from one
        # component to the other changes neither the fit nor the penalty
        y, x1, x2 = sim_xy(150, seed=6)
        d = build_design(y, x1, x2, num_intervals=10, lambda1=1.0, lambda2=1.0)
        r = backfit(d, tol=1e-12)
        base = criterion(d, r.b1, r.b2)
        ones = np.ones(d.num_coef)
        for c in (-2.0, 0.5, 10.0):
            shifted = criterion(d, r.b1 + c * ones, r.b2 - c * ones)
            assert shifted == pytest.approx(base, rel=1e-12)


def gauged_oracle(design):
    """Dense oracle of the joint solve: lstsq of the stacked system, with the
    gauge row (0, l') = 0 appended where the constant shift is a null vector.
    The minimum-norm solution sets the pinned coefficients to 0."""
    A, rhs = stacked_dense(design)
    if design.normal_equations.joint_system_singular:
        ell = design.normal_equations.column_sums[1]
        A = np.vstack([A, np.concatenate([np.zeros(design.num_coef), ell])])
        rhs = np.append(rhs, 0.0)
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


@st.composite
def degenerate_designs(draw):
    """Designs at the edges the joint solve must handle: K near or above n at
    a positive penalty, zero penalty with data-free columns, and ridged
    penalties, where the constant shift is no null vector."""
    kind = draw(st.sampled_from(["k_near_n", "zero_penalty", "ridged"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "ridged":
        K, lam = draw(st.integers(4, 20)), draw(st.floats(0.01, 10.0))
        delta = draw(st.floats(0.1, 10.0))
        return kind, ridged_design(n=150, K=K, lam=lam, delta=delta, seed=seed)
    if kind == "k_near_n":
        n = draw(st.integers(20, 60))
        y, x1, x2 = sim_xy(n, seed=seed)
        K, lam = n + draw(st.integers(-5, 5)), draw(st.floats(0.1, 10.0))
    else:
        y, x1, x2 = sim_xy(draw(st.integers(100, 200)), seed=seed)
        K, lam = draw(st.integers(4, 8)), 0.0
        # x1 within the first k of K knot intervals: the columns of x1 above
        # them hold no data, and each column below holds a whole interval's
        x1 = x1 * draw(st.integers(K // 2, K - 1)) / K
    return kind, build_design(y, x1, x2, num_intervals=K, lambda1=lam, lambda2=lam)


class TestJointSolve:
    def test_raises_on_exactly_singular_full_design(self):
        # with x2 = x1 a linear trend moves between the components as freely
        # as a constant does, at every penalty, and the gauge fixes only the
        # constant: the joint system stays singular
        y, x1, _ = sim_xy(120, seed=0)
        for lam in (0.0, 1e-4, 1.0, 50.0):
            d = build_design(y, x1, x1.copy(), num_intervals=8, lambda1=lam, lambda2=lam)
            with pytest.raises(NotPositiveDefiniteError, match="beyond the constant shift"):
                joint_solve(d)

    def test_matches_zero_start_backfit_on_full_design(self):
        # the sweeps conserve l'b2, so the zero-start backfit stays in the
        # gauge l'b2 = 0 that the joint solve imposes: the two meet
        for seed, lam in ((0, 0.1), (1, 1.0), (2, 10.0)):
            y, x1, x2 = sim_xy(120, seed=seed)
            d = build_design(y, x1, x2, num_intervals=8, lambda1=lam, lambda2=lam)
            assert d.normal_equations.joint_system_singular
            r = backfit(d, tol=1e-13, max_stages=1000)
            b1, b2 = joint_solve(d)
            assert np.abs(b1 - r.b1).max() <= 1e-10
            assert np.abs(b2 - r.b2).max() <= 1e-10
            ell = d.normal_equations.column_sums[1]
            assert abs(ell @ b2) <= 1e-12 * (ell @ np.abs(b2))

    def test_blocks_solve_as_the_designs_alone(self):
        # every block takes its own gauge l_b'b2_b = 0 and its own solve
        blocks, n = 3, 120
        y, x1, x2 = sim_xy(blocks * n, seed=4)
        cfg = make_knots(3, 8)
        d = AdditiveDesign(
            y=y,
            X1=design_matrix(cfg, x1).block_diagonal(blocks),
            X2=design_matrix(cfg, x2).block_diagonal(blocks),
            lambda1=1.0,
            lambda2=1.0,
            penalty=penalty_matrix(2, cfg.num_basis),
        )
        b1, b2 = joint_solve(d)
        q = cfg.num_basis
        for b in range(blocks):
            rows, cols = slice(b * n, (b + 1) * n), slice(b * q, (b + 1) * q)
            alone = build_design(y[rows], x1[rows], x2[rows], num_intervals=8,
                                 lambda1=1.0, lambda2=1.0)
            a1, a2 = joint_solve(alone)
            assert np.abs(b1[cols] - a1).max() <= 1e-12 * np.abs(a1).max()
            assert np.abs(b2[cols] - a2).max() <= 1e-12 * np.abs(a2).max()

    def test_design_of_block_statistics_reads_their_block_count(self):
        # build_design without rows takes the block count off the statistics,
        # its default rules the rows of one block, and solves as the design
        # of the same rows does, bit for bit
        blocks, n = 3, 120
        y, x1, x2 = sim_xy(blocks * n, seed=4)
        cfg = make_knots(3, kn_rule(n))
        X1, X2 = (design_matrix(cfg, x).block_diagonal(blocks) for x in (x1, x2))
        d = build_design(None, None, None, statistics=NormalStatistics.of(y, X1, X2))
        assert d.blocks == d.X1.blocks == d.X2.blocks == blocks
        assert d.n == blocks * n and d.y.size == 0 and d.num_coef == blocks * cfg.num_basis
        assert d.lambda1 == d.lambda2 == lambda_rule(n, kn_rule(n))
        rows = AdditiveDesign(y=y, X1=X1, X2=X2, lambda1=d.lambda1, lambda2=d.lambda2,
                              penalty=d.penalty)
        assert rows.blocks == blocks
        for got, want in zip(joint_solve(d), joint_solve(rows)):
            assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="same basis size and blocks"):
            AdditiveDesign(y=y, X1=X1, X2=design_matrix(cfg, x2), lambda1=1.0, lambda2=1.0,
                           penalty=d.penalty)
        one = make_knots(3, blocks * cfg.num_basis - 3)  # as many columns in one block
        with pytest.raises(ValueError, match="statistics of 3 blocks for a design of 1"):
            AdditiveDesign(y=y, X1=design_matrix(one, x1), X2=design_matrix(one, x2),
                           lambda1=1.0, lambda2=1.0, penalty=penalty_matrix(2, one.num_basis),
                           statistics=NormalStatistics.of(y, X1, X2))

    @settings(max_examples=60, deadline=None)
    @given(degenerate_designs())
    def test_matches_the_dense_gauged_oracle(self, case):
        kind, d = case
        eq = d.normal_equations
        assert eq.joint_system_singular is (kind != "ridged")
        if kind == "zero_penalty":
            assert eq.pinned[0].size
        want = gauged_oracle(d)
        got = np.concatenate(joint_solve(d))
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        pinned = np.concatenate([eq.pinned[0], d.num_coef + eq.pinned[1]])
        assert np.all(got[pinned] == 0.0)

    def test_null_vector_is_exact(self):
        y, x1, x2 = sim_xy(120, seed=7)
        d = build_design(y, x1, x2, num_intervals=8, lambda1=3.0, lambda2=0.25)
        A, _ = stacked_dense(d)
        q = d.num_coef
        z = np.concatenate([np.ones(q), -np.ones(q)]) / np.sqrt(2 * q)
        assert np.abs(A @ z).max() < 1e-12 * np.abs(A).max()

    def test_matches_backfit_on_identified_design(self):
        # once the constant gauge is broken the joint minimizer is unique and
        # the backfit limit must land on it
        for seed in (3, 8, 21):
            d = ridged_design(seed=seed)
            b1, b2 = joint_solve(d)
            r = backfit(d, tol=1e-13)
            assert r.converged
            assert np.abs(b1 - r.b1).max() < 1e-8
            assert np.abs(b2 - r.b2).max() < 1e-8

    def test_matches_dense_solver_on_identified_design(self):
        d = ridged_design(seed=5)
        A, rhs = stacked_dense(d)
        want = np.linalg.solve(A, rhs)
        b1, b2 = joint_solve(d)
        got = np.concatenate([b1, b2])
        assert np.abs(got - want).max() < 1e-9


class TestInitInvariance:
    def test_identified_quantities_ignore_the_start(self):
        y, x1, x2 = sim_xy(200, seed=9)
        d = build_design(y, x1, x2, num_intervals=10, lambda1=1.0, lambda2=1.0)
        q = d.num_coef
        ra = backfit(d, tol=1e-12)
        rb = backfit(d, b2_init=3.0 * np.random.default_rng(1).normal(size=q), tol=1e-12)
        grid = np.linspace(0.05, 1.0, 60)
        _, _, sum_a = predict(ra, d.X1.config, grid, grid)
        _, _, sum_b = predict(rb, d.X1.config, grid, grid)
        assert np.abs(sum_a - sum_b).max() < 1e-8
        for j in (1, 2):
            ca = _centred(ra, d, j, grid)
            cb = _centred(rb, d, j, grid)
            assert np.abs(ca - cb).max() < 1e-8

    def test_projected_gap_contracts(self):
        # off the shared-constant direction the sweep map is a strong
        # contraction; along it the gap is exactly preserved
        y, x1, x2 = sim_xy(200, seed=9)
        d = build_design(y, x1, x2, num_intervals=10, lambda1=1.0, lambda2=1.0)
        q = d.num_coef
        init = 5.0 * np.random.default_rng(2).normal(size=q)
        ra = backfit(d, tol=1e-13, max_stages=12, keep_history=True)
        rb = backfit(d, b2_init=init, tol=1e-13, max_stages=12, keep_history=True)
        ones = np.ones(q) / np.sqrt(q)

        def projected_gap(stage):
            gap = rb.history[stage][1] - ra.history[stage][1]
            return np.linalg.norm(gap - (gap @ ones) * ones)

        gaps = [projected_gap(s) for s in range(12)]
        for prev, nxt in zip(gaps, gaps[1:]):
            if prev > 1e-9:
                assert nxt <= 0.5 * prev

    def test_constant_direction_is_exactly_neutral(self):
        # a start 1000 units up the constant direction is projected onto the
        # gauge l'b2 = 0 that the zero start already has, and lands on the
        # zero-start fit at every stage
        y, x1, x2 = sim_xy(150, seed=12)
        d = build_design(y, x1, x2, num_intervals=9, lambda1=1.0, lambda2=1.0)
        q = d.num_coef
        ra = backfit(d, tol=1e-13, max_stages=8, keep_history=True)
        rb = backfit(d, b2_init=1e3 * np.ones(q), tol=1e-13, max_stages=8, keep_history=True)
        for (a1, a2), (b1, b2) in zip(ra.history, rb.history):
            assert np.abs(b1 - a1).max() <= 1e-9
            assert np.abs(b2 - a2).max() <= 1e-9


class TestPointwiseHelpers:
    def test_univariate_penalized_matches_dense_ridge(self):
        y, x1, _ = sim_xy(130, seed=13)
        cfg = make_knots(3, 9)
        X = design_matrix(cfg, x1)
        Q = penalty_matrix(2, cfg.num_basis)
        lam = 0.8
        beta = np.linalg.solve(X.values.T @ X.values + lam * Q.values, X.values.T @ y)
        pts = np.array([0.21, 0.5, 0.93])
        want = design_matrix(cfg, pts).values @ beta
        got = univariate_penalized(X, y, lam, Q, pts)
        assert np.allclose(got, want, atol=1e-10)
        # scalar form
        assert univariate_penalized(X, y, lam, Q, 0.5) == pytest.approx(want[1], abs=1e-10)

    def test_one_stage_pair_closed_form(self):
        # the first sweep of the zero-start backfit: the univariate penalized
        # fit of y on X1, then that of its residual on X2
        y, x1, x2 = sim_xy(140, seed=14)
        d = build_design(y, x1, x2, num_intervals=8, lambda1=1.0, lambda2=1.0)
        X1, X2, P = d.X1.values, d.X2.values, d.penalty.values
        b1 = np.linalg.solve(X1.T @ X1 + P, X1.T @ y)
        b2 = np.linalg.solve(X2.T @ X2 + P, X2.T @ (y - X1 @ b1))
        v = design_matrix(d.X1.config, np.array([0.3])).values[0]
        f1, f2, _ = predict(backfit_stages(d, 1), d.X1.config, 0.3, 0.3)
        assert f1 == pytest.approx(v @ b1, abs=1e-10)
        assert f2 == pytest.approx(v @ b2, abs=1e-10)

    def test_predict_shapes_and_sum(self):
        d = ridged_design()
        r = backfit(d, tol=1e-12)
        g = np.linspace(0.1, 1.0, 11)
        f1, f2, total = predict(r, d.X1.config, g, g)
        assert f1.shape == f2.shape == total.shape == (11,)
        assert np.allclose(total, f1 + f2, atol=1e-12)

    def test_center_component_mean_zero_over_design(self):
        # the fit's display centring, (X_j'1)'b / n off the component, leaves
        # it mean zero over the data
        y, x1, x2 = sim_xy(170, seed=15)
        d = build_design(y, x1, x2, num_intervals=9)
        r = backfit(d, tol=1e-11)
        c1 = _centred(r, d, 1, x1)
        c2 = _centred(r, d, 2, x2)
        assert abs(c1.mean()) < 1e-12 * (1 + np.abs(c1).max())
        assert abs(c2.mean()) < 1e-12 * (1 + np.abs(c2).max())

    def test_center_component_accepts_scalar(self):
        # the centring needs the column sums alone: a design without rows
        # centres as the design with them does
        d = ridged_design()
        r = backfit(d, tol=1e-12)
        none = basis.DesignMatrix(np.zeros(0), d.X1.config)
        rowless = AdditiveDesign(np.zeros(0), none, none, d.lambda1, d.lambda2, d.penalty,
                                 statistics=NormalStatistics.of(d.y, d.X1, d.X2))
        val = _centred(r, rowless, 1, np.array([0.5]))
        assert val.shape == (1,) and np.isfinite(val[0])
        assert val[0] == _centred(r, d, 1, np.array([0.5]))[0]


def _centred(result, design, j, x):
    """Component j of `result` at x less its mean over the design's rows,
    (X_j'1)'b / n: the display centring of `addspline fit`."""
    b = (result.b1, result.b2)[j - 1]
    offset = float(design.normal_equations.column_sums[j - 1] @ b) / design.n
    return design_matrix(design.X1.config, x).matvec(b) - offset


class TestHessianCheck:
    def test_full_design_reports_the_zero_direction(self):
        y, x1, x2 = sim_xy(160, seed=16)
        for lam in (0.0, 1.0, 10.0):
            d = build_design(y, x1, x2, num_intervals=8, lambda1=lam, lambda2=lam)
            rep = hessian_check(d)
            assert not rep.is_pd
            assert abs(rep.constant_shift_quadform) < 1e-9
            assert abs(rep.min_eig) < 1e-9
            # the defect is one-dimensional: the next eigenvalue is real mass
            eigs = np.linalg.eigvalsh(NormalEquations(d).stacked_matrix())
            assert eigs[1] > 1e-3

    def test_identified_design_is_positive_definite(self):
        rep = hessian_check(ridged_design())
        assert rep.is_pd
        assert rep.min_eig > 0.0
        assert rep.constant_shift_quadform > 1.0


class TestShiftCheck:
    """`NormalEquations.constant_shift` and `joint_system_singular`: the O(q^2)
    check of the constant shift z = (1_q, -1_q) against the dense oracles."""

    def test_residual_and_floor_match_the_dense_stacked_matrix(self):
        for d in (build_design(*sim_xy(160, seed=16), num_intervals=8), ridged_design()):
            eq = NormalEquations(d)
            H = eq.stacked_matrix()
            q = d.num_coef
            z = np.concatenate([np.ones(q), -np.ones(q)])
            residual, floor = eq.constant_shift
            norm_inf = np.abs(H).sum(axis=1).max()
            assert floor == pytest.approx(2 * q * np.finfo(float).eps * norm_inf, rel=1e-14, abs=0)
            # the two sums differ only in their order of rounding
            assert abs(residual - np.abs(H @ z).max()) <= floor
        # the ridge delta I in the penalty leaves H z = (lam delta 1, -lam delta 1)
        assert eq.constant_shift[0] == pytest.approx(2.0 * 5.0, rel=1e-12, abs=0)

    def test_agrees_with_the_hessian_check_on_its_designs(self):
        y, x1, x2 = sim_xy(160, seed=16)
        for lam in (0.0, 1.0, 10.0):
            d = build_design(y, x1, x2, num_intervals=8, lambda1=lam, lambda2=lam)
            assert d.normal_equations.joint_system_singular is True
            assert d.normal_equations.joint_system_singular == (not hessian_check(d).is_pd)
        d = ridged_design()
        assert d.normal_equations.joint_system_singular is False
        assert hessian_check(d).is_pd

    @pytest.mark.parametrize("lam", [None, 0.0, 1e-6])
    def test_agrees_with_the_hessian_check_on_ozone(self, lam):
        d = ozone_design(lam)
        assert d.normal_equations.joint_system_singular
        assert d.normal_equations.joint_system_singular == (not hessian_check(d).is_pd)

    @pytest.mark.parametrize("lam", [None, 0.0])
    def test_zero_start_keeps_the_sum_of_f2_at_zero(self, lam):
        # l = X_2'1 is a left fixed vector of the b2 sweep map, so l'b2 =
        # sum_i f2_hat(x_i2) stays at its start, 0.  Each stage rounds its
        # length-q inner products, an error of at most q eps sum_k |l_k b2_k|,
        # and the stages add up.
        d = ozone_design(lam)
        res = backfit(d, max_stages=400)
        assert res.converged
        ell = d.normal_equations.column_sums[1]
        tol = res.stages * d.num_coef * np.finfo(float).eps * np.abs(ell * res.b2).sum()
        assert abs(ell @ res.b2) <= tol
