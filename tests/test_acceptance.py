"""Acceptance gate: twelve numbered criteria with stated tolerances and budgets.

Each test carries its runtime budget as an assertion.  Four criteria assert
properties the estimator does not have at its defaults, and they are left
failing on purpose rather than weakened; see README for the inventory.  In
short:

* Criteria 3 and 4 hold through one gauge.  Both full B-spline bases sum to
  one and the difference penalty ignores constants, so the stacked
  normal-equation matrix has the exact null vector (1, -1) for every penalty
  weight.  The gauge l'b2 = 0, l = X_2'1 (f_hat_2 sums to zero over the data)
  picks one point of the minimizing line: every sweep conserves l'b2, so the
  zero-start backfit keeps it, the joint solve imposes it, and `backfit`
  projects a given start onto it.

* Criterion 8 fails on that null vector: the stacked Hessian itself is never
  positive definite, and min_eig is rounding noise around zero.  Restricted
  to the gauge it is positive definite at zero penalty and at the default
  alike, so no one definition of is_pd gives the test's two halves.

* The covariance half of criterion 6 fails because the standardized
  statistic is centred on the raw truth (f1, f2), while the gauge estimates
  (f1 + m2, f2 - m2), m2 the mean of f2 over the design's x2 values; m2
  varies across Monte Carlo designs and inflates the variance.

* Criterion 5 and the factor-1.5 half of 9 fail because asymptotic claims are
  evaluated at the default desk-scale tuning, where the penalty term is
  material: the marginal univariate fit absorbs part of the other component's
  signal (and the right-boundary spike of component 1 exceeds the bound), and
  the penalty-free plug-in variance overstates the strongly shrunk smoother's
  variance by ~3.3x.  Interior/one-stage and light-penalty companions pass.
"""

import time
import tracemalloc

import numpy as np
import pytest
from conftest import OZONE_CSV

from addspline import (
    StageSmoother,
    asymptotic_variance,
    backfit,
    backfit_stages,
    build_design,
    confidence_interval,
    exact_covariance,
    hessian_check,
    joint_solve,
    penalty_matrix,
    population_G,
    sigma2_hat,
    smoother_weights,
    uniform_population,
)
from addspline.basis import basis_integral, bspline_eval, design_matrix, eval_grid, make_knots
from addspline.dataio import load_csv
from addspline.sim import (
    ScenarioConfig,
    coverage_experiment,
    generate_dataset,
    run_sim2,
    run_sim3,
    scenario_design,
)


def test_criterion_01_basis_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    x = 1.0 - rng.random(10_000)
    for degree in range(4):
        for K in range(2, 65):
            if K <= degree:
                continue
            cfg = make_knots(degree, K)
            D = design_matrix(cfg, x)
            assert np.abs(D.values.sum(axis=1) - 1.0).max() <= 1e-12
            # interior integrals: first, middle, last interior index
            interior = list(range(1, K - degree + 1))
            for k in {interior[0], interior[len(interior) // 2], interior[-1]}:
                assert abs(basis_integral(cfg, k) - 1.0 / K) <= 1e-12
    cfg = make_knots(3, 8)
    assert abs(bspline_eval(cfg, 2, cfg.knot(2)) - 1.0 / 6.0) <= 1e-12
    assert abs(bspline_eval(cfg, 2, cfg.knot(3)) - 2.0 / 3.0) <= 1e-12
    assert abs(bspline_eval(cfg, 2, cfg.knot(4)) - 1.0 / 6.0) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_02_penalty_suite():
    start = time.perf_counter()
    for m in (1, 2, 3):
        for q in range(5, 101):
            Q = penalty_matrix(m, q).values
            assert np.array_equal(Q, Q.T)
            i, j = np.indices(Q.shape)
            assert np.all(Q[np.abs(i - j) > m] == 0.0)
            assert np.any(np.diag(Q, m) != 0.0)
            eigs = np.linalg.eigvalsh(Q)
            assert eigs[0] > -1e-10
            assert int((eigs < 1e-10).sum()) == m
    assert time.perf_counter() - start < 5.0


def test_criterion_03_oracle_equivalence():
    # the stacked system is exactly singular on full bases; the joint solve
    # returns the solution in the gauge l'b2 = 0 that the zero-start backfit
    # keeps at every stage
    start = time.perf_counter()
    lambdas = (0.1, 1.0, 10.0)
    fits = []
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        x1 = 1.0 - rng.random(200)
        x2 = 1.0 - rng.random(200)
        y = np.sin(2 * np.pi * x1) + 0.5 * np.cos(np.pi * x2) + rng.uniform(-0.5, 0.5, 200)
        lam = lambdas[i % 3]
        d = build_design(y, x1, x2, num_intervals=12, lambda1=lam, lambda2=lam)
        r = backfit(d, tol=1e-12)
        assert r.residual_norm <= 1e-10
        fits.append((d, r))
    assert time.perf_counter() - start < 10.0
    for d, r in fits:
        b1, b2 = joint_solve(d)
        assert np.abs(b1 - r.b1).max() <= 1e-8
        assert np.abs(b2 - r.b2).max() <= 1e-8
    assert time.perf_counter() - start < 10.0


def test_criterion_04_contraction_from_any_start():
    # the all-ones start lies on the constant direction, which the sweep map
    # keeps with eigenvalue one; `backfit` projects it onto the gauge
    # l'b2 = 0 that the zero start has, so the two runs coincide
    start = time.perf_counter()
    cfg = ScenarioConfig(n=1000)
    d = scenario_design(cfg, generate_dataset(cfg, 0))
    q = d.num_coef
    ra = backfit(d, tol=1e-10, keep_history=True)
    rb = backfit(d, b2_init=1e3 * np.ones(q), tol=1e-10, keep_history=True)
    assert ra.converged and rb.converged
    assert np.abs(ra.b1 - rb.b1).max() <= 1e-8
    assert np.abs(ra.b2 - rb.b2).max() <= 1e-8
    stages = min(ra.stages, rb.stages)
    gaps = [
        np.linalg.norm(rb.history[s][1] - ra.history[s][1]) for s in range(stages)
    ]
    for prev, nxt in zip(gaps, gaps[1:]):
        if prev > 1e-10:
            assert nxt / prev <= 0.5
    assert time.perf_counter() - start < 10.0


def test_criterion_05_dominates_marginal_fit():
    # EXPECTED FAILURE: at the default tuning the marginal univariate fit of
    # component 2 absorbs part of component 1's signal (sup difference 0.176
    # at n=1000 against the 0.094 bound), and component 1's difference peaks
    # at the right boundary (0.160).  The interior one-stage version passes:
    # test_sim.py::TestSim2::test_interior_one_stage_agreement_shrinks
    start = time.perf_counter()
    sup = {}
    for n in (100, 1000):
        r = run_sim2(ScenarioConfig(n=n))
        sup[n] = r.sup_diff
    bound = 3.0 / ScenarioConfig(n=1000).k_rule(1000)
    assert sup[1000][0] <= bound
    assert sup[1000][1] <= bound
    assert sup[1000][0] <= sup[100][0]
    assert sup[1000][1] <= sup[100][1]
    assert time.perf_counter() - start < 30.0


def test_criterion_06_standardized_statistic_normality():
    # EXPECTED FAILURE (covariance half): the gauge estimates (f1 + m2,
    # f2 - m2), m2 the design mean of f2, and centring on the raw truth adds
    # m2's variation across replications: diagonal 1.153/1.163 against the
    # 1 +- 0.15 band, and 1.007/1.013 against the gauge's own estimand.
    # Mean, KS, and rejection clauses pass: test_sim.py companions and README.
    start = time.perf_counter()
    cfg = ScenarioConfig(n=1000, replications=1000)
    sample, s = run_sim3(cfg)
    runtime = time.perf_counter() - start
    assert s.rejected == 0
    assert np.abs(s.mean).max() <= 0.1
    assert s.ks_stat.max() <= 0.06
    assert np.abs(s.covariance - np.eye(2)).max() <= 0.15
    assert runtime < 300.0


def test_criterion_07_interval_coverage():
    start = time.perf_counter()
    cfg = ScenarioConfig(n=1000, replications=1000)
    s = coverage_experiment(cfg, level=0.95)
    assert 0.92 <= s.coverage[0] <= 0.98
    assert 0.92 <= s.coverage[1] <= 0.98
    assert s.rejected == 0
    assert time.perf_counter() - start < 300.0


def test_criterion_08_hessian_diagnostic():
    # EXPECTED FAILURE: the stacked Hessian has the exact shared-constant
    # null vector for every penalty weight, so it is never positive definite;
    # min_eig is rounding noise around zero.  The zero-penalty half passes.
    # Restricted to the gauge l'b2 = 0 the smallest eigenvalue is 0.0059 at
    # zero penalty and 1.36-1.63 at the default (n = 500), so a gauged is_pd
    # would fail the other half: no one definition passes both.
    start = time.perf_counter()
    data0 = generate_dataset(ScenarioConfig(n=500), 0)
    d0 = build_design(data0.y, data0.x1, data0.x2, lambda1=0.0, lambda2=0.0)
    rep0 = hessian_check(d0)
    assert not rep0.is_pd
    assert abs(rep0.constant_shift_quadform) <= 1e-9
    cfg = ScenarioConfig(n=500)
    for r in range(100):
        data = generate_dataset(cfg, r)
        d = scenario_design(cfg, data)
        rep = hessian_check(d)
        assert rep.is_pd
        assert rep.min_eig > 0.0
    assert time.perf_counter() - start < 60.0


def test_criterion_09_variance_formulas():
    # EXPECTED FAILURE (factor-1.5 half): the plug-in variance formula is
    # penalty-free, but the default tuning shrinks hard (lambda ~ 5.6 against
    # n/K ~ 31), so the plug-in overstates the exact smoother variance 3.3x.
    # At lambda = 0.1 the factor holds; see
    # test_inference.py::TestAsymptoticVariance::
    # test_penalty_free_formula_overstates_shrunk_smoother_variance
    start = time.perf_counter()
    corr = {}
    designs = {}
    for n in (100, 1000):
        cfg = ScenarioConfig(n=n)
        d = scenario_design(cfg, generate_dataset(cfg, 0))
        w = smoother_weights(d, 0.5, 0.5, stages=cfg.stages)
        C = exact_covariance(w, cfg.error_variance)
        corr[n] = C[0, 1] / np.sqrt(C[0, 0] * C[1, 1])
        designs[n] = (d, C)
    assert abs(corr[1000]) < abs(corr[100])
    d, C = designs[1000]
    for j in (1, 2):
        plug = asymptotic_variance(d, j, 0.5, 1.0 / 12.0)
        ratio = plug / C[j - 1, j - 1]
        assert max(ratio, 1.0 / ratio) <= 1.5
    assert time.perf_counter() - start < 60.0


def test_criterion_10_empirical_gram_convergence():
    start = time.perf_counter()
    vals = {}
    for n in (200, 2000):
        cfg = ScenarioConfig(n=n)
        d = scenario_design(cfg, generate_dataset(cfg, 0))
        K = cfg.k_rule(n)
        per_j = []
        for j, X in ((1, d.X1), (2, d.X2)):
            Gn = X.values.T @ X.values / n
            Gp = population_G(X.config, uniform_population(), f"g{j}")
            per_j.append(K * np.abs(np.linalg.eigvalsh(Gn - Gp)).max())
        vals[n] = per_j
    assert vals[2000][0] < vals[200][0]
    assert vals[2000][1] < vals[200][1]
    assert time.perf_counter() - start < 30.0


def test_criterion_11_ozone_pipeline():
    start = time.perf_counter()

    def pipeline():
        ds = load_csv(OZONE_CSV, "ozone", "temperature", "wind")
        assert ds.n == 111
        assert abs(ds.y.mean()) <= 1e-12 * np.abs(ds.y).max()
        assert ds.x1.max() == 1.0
        assert ds.x2.max() == 1.0
        d = build_design(ds.y, ds.x1, ds.x2)
        r = backfit(d)
        assert r.converged
        s2 = sigma2_hat(d, r)
        assert s2 > 0.0
        grid = eval_grid(201)
        sm = StageSmoother(d, stages=r.stages)
        bounds = []
        for j, b in ((1, r.b1), (2, r.b2)):
            X = (d.X1, d.X2)[j - 1]
            offset = float(np.mean(X.values @ b))
            est = design_matrix(X.config, grid).values @ b - offset
            for i, x in enumerate(grid):
                w = sm.component_weights(j, float(x))
                ci = confidence_interval(est[i], s2 * float(w @ w), 0.95)
                bounds.append((ci.lower, ci.upper))
        return r, s2, np.asarray(bounds)

    r1, s2_1, bounds1 = pipeline()
    assert np.all(np.isfinite(bounds1))
    assert np.all(bounds1[:, 0] <= bounds1[:, 1])
    # frozen snapshot of this machine's run; rerun must match bit for bit
    assert r1.stages == 26
    assert s2_1 == pytest.approx(315.0906703230097, rel=1e-9)
    assert r1.b1[0] == pytest.approx(-35.10240491481409, rel=1e-9)
    assert r1.b2[0] == pytest.approx(91.60031692695522, rel=1e-9)
    r2, s2_2, bounds2 = pipeline()
    assert s2_2 == s2_1
    assert np.array_equal(r1.b1, r2.b1)
    assert np.array_equal(r1.b2, r2.b2)
    assert np.array_equal(bounds1, bounds2)
    assert time.perf_counter() - start < 5.0


def test_criterion_12_fit_time_budget():
    cfg = ScenarioConfig(n=1000)
    data = generate_dataset(cfg, 0)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        d = build_design(data.y, data.x1, data.x2)
        backfit_stages(d, 10)
        times.append(time.perf_counter() - t0)
    assert float(np.median(times)) < 0.050


def test_criterion_12_no_dense_n_by_n_allocation():
    # an n x n smoother at n=1000 would need 8 MB; the 2 MB peak cap proves
    # every solve stays banded in the coefficient dimension
    cfg = ScenarioConfig(n=1000)
    data = generate_dataset(cfg, 0)
    tracemalloc.start()
    d = build_design(data.y, data.x1, data.x2)
    backfit_stages(d, 10)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2_000_000
