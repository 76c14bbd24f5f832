"""B-spline basis: knot layout, recursion values, design matrices, integrals."""

import tracemalloc

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

from addspline import basis
from addspline.backfit import AdditiveDesign, NormalEquations
from addspline.bandmat import _stack_from_bands
from addspline.basis import (
    SplineConfig,
    basis_integral,
    bspline_eval,
    design_matrix,
    eval_grid,
    make_knots,
)
from addspline.penalty import PenaltyMatrix


class TestKnots:
    def test_piecewise_constant_no_extension(self):
        cfg = make_knots(0, 2)
        assert np.array_equal(cfg.knots, np.array([0.0, 0.5, 1.0]))
        assert cfg.num_basis == 2

    def test_quadratic_layout(self):
        cfg = make_knots(2, 10)
        assert cfg.knots.shape == (15,)
        assert np.allclose(np.diff(cfg.knots), 0.1)
        # interior endpoints are exact grid values
        assert cfg.knot(0) == 0.0
        assert cfg.knot(10) == 1.0

    def test_cubic_extension(self):
        # degree 3 on 5 intervals: 12 equally spaced knots from -0.6 to 1.6
        cfg = make_knots(3, 5)
        assert cfg.knots.shape == (12,)
        assert np.allclose(cfg.knots, np.arange(-3, 9) / 5.0)
        assert cfg.num_basis == 8

    def test_knot_indexing_matches_offsets(self):
        cfg = make_knots(3, 7)
        for i in range(-3, 11):
            assert cfg.knot(i) == cfg.knots[i + 3]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_knots(-1, 5)
        with pytest.raises(ValueError):
            make_knots(2, 0)

    def test_config_is_frozen(self):
        cfg = make_knots(2, 4)
        with pytest.raises((AttributeError, ValueError)):
            cfg.degree = 1
        with pytest.raises(ValueError):
            cfg.knots[0] = 99.0


class TestRecursion:
    def test_degree0_left_open_indicator(self):
        cfg = make_knots(0, 4)
        # support of B_k is (knot(k-1), knot(k)]: right endpoint in, left out
        assert bspline_eval(cfg, 1, 0.25) == 1.0
        assert bspline_eval(cfg, 1, 0.0) == 0.0
        assert bspline_eval(cfg, 2, 0.25) == 0.0
        assert bspline_eval(cfg, 1, 0.2) == 1.0

    def test_hat_peak_at_knot(self):
        # degree 1: B_0 is the hat on (knot(-1), knot(1)] peaking at knot(0)
        cfg = make_knots(1, 4)
        assert bspline_eval(cfg, 0, cfg.knot(0)) == pytest.approx(1.0, abs=1e-15)
        assert bspline_eval(cfg, 0, cfg.knot(0) + 0.125) == pytest.approx(0.5, abs=1e-15)
        assert bspline_eval(cfg, 0, cfg.knot(1)) == pytest.approx(0.0, abs=1e-15)

    def test_cubic_values_at_knots(self):
        # uniform cubic B-spline takes 1/6, 2/3, 1/6 at its three interior knots
        cfg = make_knots(3, 8)
        k = 2
        assert bspline_eval(cfg, k, cfg.knot(k)) == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert bspline_eval(cfg, k, cfg.knot(k + 1)) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert bspline_eval(cfg, k, cfg.knot(k + 2)) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_support_bounds(self):
        # cubic B_3 lives on (knot(2), knot(6)) and vanishes continuously at both ends
        cfg = make_knots(3, 8)
        assert bspline_eval(cfg, 3, cfg.knot(2)) == 0.0
        assert bspline_eval(cfg, 3, cfg.knot(2) + 1e-9) > 0.0
        assert bspline_eval(cfg, 3, cfg.knot(6) - 1e-9) > 0.0
        assert bspline_eval(cfg, 3, cfg.knot(6)) == 0.0
        assert bspline_eval(cfg, 3, cfg.knot(6) + 1e-9) == 0.0

    def test_index_validation(self):
        cfg = make_knots(3, 8)
        with pytest.raises(ValueError):
            bspline_eval(cfg, -3, 0.5)
        with pytest.raises(ValueError):
            bspline_eval(cfg, 9, 0.5)

    def test_matches_scipy_at_random_points(self):
        rng = np.random.default_rng(42)
        for degree, K in [(1, 6), (2, 9), (3, 8)]:
            cfg = make_knots(degree, K)
            x = 1.0 - rng.random(200)
            D = design_matrix(cfg, x)
            for col in range(cfg.num_basis):
                k = D.basis_index(col)
                # scipy basis element over knots k-1 .. k+degree (array offset +degree)
                elem = scipy.interpolate.BSpline.basis_element(
                    cfg.knots[k - 1 + degree : k + 2 * degree + 1], extrapolate=False
                )
                got = D.values[:, col]
                want = elem(x)
                want = np.where(np.isnan(want), 0.0, want)
                assert np.allclose(got, want, atol=1e-12)


class TestDesignMatrix:
    def test_partition_of_unity_dense_sweep(self):
        rng = np.random.default_rng(7)
        x = 1.0 - rng.random(500)
        for degree in range(4):
            for K in (2, 5, 16):
                if K <= degree:
                    continue
                D = design_matrix(make_knots(degree, K), x)
                assert np.abs(D.values.sum(axis=1) - 1.0).max() < 1e-13
                assert D.values.min() >= 0.0
                assert D.values.max() <= 1.0 + 1e-15

    def test_rows_match_recursion(self):
        rng = np.random.default_rng(11)
        cfg = make_knots(3, 9)
        x = 1.0 - rng.random(40)
        D = design_matrix(cfg, x)
        for i in range(40):
            for col in range(cfg.num_basis):
                want = bspline_eval(cfg, D.basis_index(col), x[i])
                assert D.values[i, col] == pytest.approx(want, abs=1e-14)

    def test_exact_knot_points_use_left_piece(self):
        # at an interior knot the evaluation interval is the one ending there
        cfg = make_knots(0, 5)
        D = design_matrix(cfg, np.array([0.2, 0.4, 1.0]))
        assert D.values[0, 0] == 1.0
        assert D.values[1, 1] == 1.0
        assert D.values[2, 4] == 1.0

    def test_at_most_degree_plus_one_nonzeros(self):
        rng = np.random.default_rng(13)
        cfg = make_knots(3, 12)
        D = design_matrix(cfg, 1.0 - rng.random(300))
        counts = (D.values != 0.0).sum(axis=1)
        assert counts.max() <= 4
        # nonzeros are contiguous
        for row in D.values:
            nz = np.flatnonzero(row)
            if nz.size:
                assert nz[-1] - nz[0] + 1 == nz.size

    def test_domain_validation(self):
        cfg = make_knots(3, 8)
        for bad in (0.0, -0.1, 1.0 + 1e-9, np.nan, np.inf):
            with pytest.raises(ValueError):
                design_matrix(cfg, np.array([0.5, bad]))

    def test_metadata(self):
        cfg = make_knots(3, 8)
        x = np.array([0.25, 0.75])
        D = design_matrix(cfg, x)
        assert D.rows == 2
        assert D.cols == cfg.num_basis
        assert D.config is cfg
        assert np.array_equal(D.covariate, x)
        assert D.basis_index(0) == -2
        assert D.basis_index(D.cols - 1) == 8

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
        degree=st.integers(min_value=0, max_value=3),
        K=st.integers(min_value=4, max_value=24),
    )
    def test_partition_of_unity_property(self, x, degree, K):
        D = design_matrix(make_knots(degree, K), np.array([x]))
        row = D.values[0]
        assert abs(row.sum() - 1.0) < 1e-12
        assert row.min() >= 0.0


def _rel_err(got, want, scale):
    """Largest error relative to the same product of absolute values, the
    natural bound on its rounding."""
    return np.abs(got - want).max(initial=0.0) / max(scale.max(initial=0.0), 1e-300)


@st.composite
def _designs(draw):
    """Two designs on n points, on random points, on knots and at 1.0."""
    degree = draw(st.integers(0, 4))
    n = draw(st.integers(1, 30))
    K = draw(st.integers(1, n + 8))
    point = st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.integers(1, K).map(lambda j: j / K),
        st.just(1.0),
    )
    cfg = make_knots(degree, K)
    x1, x2 = (np.array(draw(st.lists(point, min_size=n, max_size=n))) for _ in "12")
    return design_matrix(cfg, x1), design_matrix(cfg, x2)


def _cross_blocks(X, Z):
    """The diagonal blocks of X'Z, as the normal equations of an additive
    design of X and Z hold them (`C_blocks`); a unit ridge keeps every factor
    positive definite."""
    q = X.config.num_basis
    design = AdditiveDesign(
        y=np.zeros(X.rows),
        X1=X,
        X2=Z,
        lambda1=1.0,
        lambda2=1.0,
        penalty=PenaltyMatrix(order=0, size=q, values=np.eye(q)),
        blocks=X.blocks,
    )
    return NormalEquations(design).C_blocks


class TestCompactProducts:
    """The O(n p^2) products of the compact rows equal the dense products."""

    @settings(max_examples=200, deadline=None)
    @given(_designs(), st.integers(0, 2**32 - 1))
    def test_products_match_dense_view(self, designs, seed):
        X, Z = designs
        rng = np.random.default_rng(seed)
        y, b, w = rng.normal(size=X.rows), rng.normal(size=X.cols), rng.random(X.rows)
        D, E = X.values, Z.values
        A = np.abs(D)
        bands = X.gram_bands()
        assert bands.shape == (X.config.degree + 1, X.cols)
        dense_gram = _stack_from_bands(bands)[0]
        assert _rel_err(dense_gram, D.T @ D, A.T @ A) <= 1e-12
        weighted = _stack_from_bands(X.gram_bands(w))[0]
        assert _rel_err(weighted, D.T @ (w[:, None] * D), A.T @ (w[:, None] * A)) <= 1e-12
        assert _rel_err(_cross_blocks(X, Z)[0], D.T @ E, A.T @ np.abs(E)) <= 1e-12
        assert _rel_err(X.rmatvec(y), D.T @ y, A.T @ np.abs(y)) <= 1e-12
        assert _rel_err(X.matvec(b), D @ b, A @ np.abs(b)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(_designs())
    def test_dense_view_matches_layout_and_scipy(self, designs):
        X, _ = designs
        p = X.config.degree
        rows = X.chunk(0, X.rows)
        assert np.array_equal(X.values[np.arange(X.rows), rows.columns], rows.vals)
        assert np.count_nonzero(X.values) == np.count_nonzero(rows.vals)
        if p >= 1:  # scipy's intervals are right-open, so degree 0 differs at knots
            want = scipy.interpolate.BSpline.design_matrix(
                X.covariate, X.config.knots, p
            ).toarray()
            assert np.abs(X.values - want).max() <= 1e-12

    def test_values_are_built_lazily_and_cached(self):
        X = design_matrix(make_knots(3, 8), np.array([0.25, 0.5, 1.0]))
        assert "values" not in X.__dict__
        assert X.values is X.values
        assert "values" in X.__dict__

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_products_over_many_chunks_match_dense_view(self, degree, monkeypatch):
        # 7-row chunks: every product is added up over 15 chunks, and the
        # 3 blocks of 33 rows start and end inside chunks
        monkeypatch.setattr(basis, "_CHUNK_ROWS", 7)
        rng = np.random.default_rng(degree)
        cfg = make_knots(degree, 9)
        X, Z = (design_matrix(cfg, 1.0 - rng.random(99)) for _ in "XZ")
        assert len(X.cuts()) == 15
        y, b, w = rng.normal(size=99), rng.normal(size=X.cols), rng.random(99)
        D, E = X.values, Z.values
        gram = _stack_from_bands(X.gram_bands(w))[0]
        assert np.abs(gram - D.T @ (w[:, None] * D)).max() <= 1e-12
        assert np.abs(_cross_blocks(X, Z)[0] - D.T @ E).max() <= 1e-12
        assert np.abs(X.rmatvec(y) - D.T @ y).max() <= 1e-12
        assert np.abs(X.matvec(b) - D @ b).max() <= 1e-12
        Xb, Zb = X.block_diagonal(3), Z.block_diagonal(3)
        q = cfg.num_basis
        crosses = _cross_blocks(Xb, Zb)
        for k in range(3):
            rows = slice(33 * k, 33 * (k + 1))
            cross = crosses[k]
            assert np.abs(cross - D[rows].T @ E[rows]).max() <= 1e-12
            assert np.array_equal(Xb.values[rows, k * q : (k + 1) * q], D[rows])
        assert not {"first", "vals"} & set(X.__dict__)

    @pytest.mark.parametrize("product", ["gram_bands", "rmatvec", "matvec"])
    def test_products_hold_one_chunk_at_a_time(self, product):
        # K = 32, degree 3: a product over three chunks of rows peaks within
        # 10% of its peak over one chunk, plus its larger output
        cfg, rng = make_knots(3, 32), np.random.default_rng(8)
        peaks = []
        for rows in (basis._CHUNK_ROWS, 3 * basis._CHUNK_ROWS):
            X = design_matrix(cfg, 1.0 - rng.random(rows))
            args = {"gram_bands": (), "rmatvec": (rng.normal(size=rows),),
                    "matvec": (rng.normal(size=X.cols),)}[product]
            tracemalloc.start()
            try:
                out = getattr(X, product)(*args)
                peaks.append((tracemalloc.get_traced_memory()[1], out.nbytes))
            finally:
                tracemalloc.stop()
        (one, out_one), (three, out_three) = peaks
        assert three <= 1.1 * one + (out_three - out_one)

    def test_cross_rejects_row_mismatch(self):
        # the cross-product of two designs is built only for an additive
        # design, which needs them on as many rows
        cfg = make_knots(2, 4)
        with pytest.raises(ValueError, match="row mismatch"):
            _cross_blocks(design_matrix(cfg, [0.5]), design_matrix(cfg, [0.5, 1.0]))

    @pytest.mark.parametrize("chunk_rows, cuts", [
        (14, [(0, 14), (14, 28), (28, 35)]),  # two whole blocks of 7 rows a chunk
        (5, [(0, 5), (5, 7), (7, 12), (12, 14), (14, 19), (19, 21), (21, 26), (26, 28),
             (28, 33), (33, 35)]),  # blocks of 7 rows cut as a design of 7 rows is
    ])
    def test_chunks_are_cut_between_blocks(self, monkeypatch, chunk_rows, cuts):
        monkeypatch.setattr(basis, "_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(4)
        cfg = make_knots(3, 5)
        X = design_matrix(cfg, 1.0 - rng.random(35)).block_diagonal(5)
        assert [(c.start, c.stop) for c in X.cuts()] == cuts
        # the chunks of the cuts, one after another, are the design's rows
        firsts = [X.chunk(c.start, c.stop).first for c in X.cuts()]
        assert np.array_equal(np.concatenate(firsts), X.first)
        if chunk_rows < 7:  # block 1 is cut where a design of its rows alone is
            one = design_matrix(cfg, X.covariate[7:14])
            assert [(c.start + 7, c.stop + 7) for c in one.cuts()] == cuts[2:4]

    @pytest.mark.parametrize("blocks_per_chunk", [1, 2, 3])
    def test_block_cross_bins_only_the_blocks_of_its_rows(self, monkeypatch, blocks_per_chunk):
        # 6 blocks of 9 rows, chunks of 1, 2 or 3 whole blocks: each chunk's
        # block_cross equals the sum over the bins of all blocks, bit for bit
        monkeypatch.setattr(basis, "_CHUNK_ROWS", 9 * blocks_per_chunk)
        rng = np.random.default_rng(blocks_per_chunk)
        cfg = make_knots(2, 6)
        q = cfg.num_basis
        X, Z = (design_matrix(cfg, 1.0 - rng.random(54)).block_diagonal(6) for _ in "XZ")
        out, full = np.zeros((6, q, q)), np.zeros((6, q, q))
        for rows in X.cuts():
            R1, R2 = X.chunk(rows.start, rows.stop), Z.chunk(rows.start, rows.stop)
            R1.block_cross(R2, out)
            # every block's bins, as the whole stack's flat index c q + k
            flat = full.reshape(-1)
            idx = (R1.first * q + R2.first % q + np.arange(3)[:, None]).ravel()
            for r in range(3):
                w = R1.vals[r] * R2.vals
                flat[r * q :] += np.bincount(idx, w.ravel(), minlength=full.size)[: full.size - r * q]
        assert np.array_equal(out, full)
        D, E = X.values, Z.values
        for b in range(6):
            rows, cols = slice(9 * b, 9 * b + 9), slice(q * b, q * b + q)
            assert np.abs(out[b] - D[rows, cols].T @ E[rows, cols]).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(_designs(), st.integers(1, 4))
    def test_block_diagonal_products(self, designs, blocks):
        # the same designs stacked `blocks` times: every product is block
        # diagonal, each block bit for bit the product of one copy
        X, Z = designs
        n, q = X.rows, X.cols
        Xb, Zb = (
            design_matrix(D.config, np.tile(D.covariate, blocks)).block_diagonal(blocks)
            for D in (X, Z)
        )
        assert (Xb.rows, Xb.cols) == (blocks * n, blocks * q)
        assert np.array_equal(Xb.first, np.tile(X.first, blocks) + np.repeat(np.arange(blocks) * q, n))
        gram = X.gram_bands()
        assert np.array_equal(Xb.gram_bands(), np.tile(gram, blocks))
        assert np.array_equal(_cross_blocks(Xb, Zb), np.tile(_cross_blocks(X, Z), (blocks, 1, 1)))
        assert np.array_equal(Xb.values[:n, :q], X.values)
        y = np.arange(n, dtype=float)
        assert np.array_equal(Xb.rmatvec(np.tile(y, blocks)), np.tile(X.rmatvec(y), blocks))
        if blocks > 1:
            with pytest.raises(ValueError, match="do not split"):
                design_matrix(X.config, np.tile(X.covariate, blocks)[1:]).block_diagonal(blocks)


@st.composite
def _knot_points(draw):
    """A knot layout and points on its interior knots and one ulp either side."""
    cfg = make_knots(draw(st.integers(0, 4)), draw(st.integers(1, 300)))
    K = cfg.num_intervals
    on = np.array(draw(st.lists(st.integers(1, K), min_size=1, max_size=20))) / K
    x = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, 2.0)])
    return cfg, x[(x > 0.0) & (x <= 1.0)]


class TestIntervalIndex:
    @settings(max_examples=200, deadline=None)
    @given(_knot_points())
    def test_first_column_is_the_searchsorted_interval(self, case):
        # kappa_{j-1} < x <= kappa_j on the stored knots, exactly, where x K
        # rounds across an integer
        cfg, x = case
        p, K = cfg.degree, cfg.num_intervals
        want = np.searchsorted(cfg.knots[p + 1 : p + K + 1], x, side="left")
        assert np.array_equal(design_matrix(cfg, x).first, want)


class TestIntegral:
    def test_interior_integral_is_reciprocal_intervals(self):
        for degree in range(4):
            for K in (4, 16):
                cfg = make_knots(degree, K)
                for k in range(1, K - degree + 1):
                    assert basis_integral(cfg, k) == pytest.approx(1.0 / K, rel=1e-12)

    def test_boundary_integrals_are_smaller(self):
        cfg = make_knots(3, 8)
        assert basis_integral(cfg, -2) < 1.0 / 8.0
        assert basis_integral(cfg, 8) < 1.0 / 8.0
        assert basis_integral(cfg, -2) > 0.0

    def test_integrals_sum_to_one(self):
        # sum_k int_0^1 B_k = int_0^1 1 = 1 by the partition of unity
        for degree in range(4):
            cfg = make_knots(degree, 10)
            total = sum(
                basis_integral(cfg, k) for k in range(-degree + 1, 10 + 1)
            )
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_symmetry_of_boundary_pairs(self):
        cfg = make_knots(3, 9)
        # the layout is symmetric under x -> 1 - x, so edge integrals pair up
        for off in range(3):
            left = basis_integral(cfg, -2 + off)
            right = basis_integral(cfg, 9 - off)
            assert left == pytest.approx(right, rel=1e-12)


class TestEvalGrid:
    def test_default_grid(self):
        g = eval_grid()
        assert g.shape == (201,)
        assert g[0] > 0.0
        assert g[-1] == 1.0
        assert np.all(np.diff(g) > 0)

    def test_custom_size_and_domain(self):
        g = eval_grid(7)
        assert np.allclose(g, np.arange(1, 8) / 7.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            eval_grid(0)
