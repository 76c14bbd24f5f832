"""Block stacks of symmetric matrices, Cholesky solves, Gram assembly, and
the stacks of the normal equations."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from addspline.backfit import (
    AdditiveDesign,
    lambda_rule,
    univariate_penalized,
)
from addspline.bandmat import (
    BandedCholesky,
    NotPositiveDefiniteError,
    _block_matmul,
    _stack_from_bands,
    _triangular_inverse,
    gram_banded,
)
from addspline.basis import design_matrix, make_knots
from addspline.penalty import penalty_matrix


def random_banded_spd(rng, size, bandwidth):
    dense = np.zeros((size, size))
    for d in range(bandwidth + 1):
        vals = rng.normal(size=size - d)
        dense += np.diag(vals, d)
        if d:
            dense += np.diag(vals, -d)
    # diagonal dominance forces positive definiteness
    dense += np.eye(size) * (np.abs(dense).sum(axis=1).max() + 1.0)
    return dense


def lower_bands(dense, bandwidth):
    """`bands[d, j] = dense[j + d, j]`, zero past the edge."""
    q = dense.shape[0]
    bands = np.zeros((bandwidth + 1, q))
    for d in range(bandwidth + 1):
        bands[d, : q - d] = np.diagonal(dense, -d)
    return bands


class TestStorage:
    def test_round_trip(self):
        # the lower bands of each block, side by side, scatter back into the
        # stack of the blocks
        rng = np.random.default_rng(0)
        for blocks, size, bw in [(1, 5, 0), (1, 8, 2), (1, 12, 5), (3, 7, 2), (2, 4, 3)]:
            dense = np.stack([random_banded_spd(rng, size, bw) for _ in range(blocks)])
            stack = _stack_from_bands(np.hstack([lower_bands(A, bw) for A in dense]), blocks)
            assert np.array_equal(stack, dense)

    def test_shape_validation(self):
        for shape in [(4, 4), (2, 3, 4)]:
            with pytest.raises(ValueError, match="is not"):
                BandedCholesky(np.zeros(shape))
        with pytest.raises(ValueError, match="does not split"):
            _stack_from_bands(np.zeros((2, 7)), blocks=2)

    def test_matvec_matches_dense(self):
        # the one batched product: A v and A' v, block by block
        rng = np.random.default_rng(1)
        for blocks, size in [(1, 10), (3, 6)]:
            stack = rng.normal(size=(blocks, size, size))
            dense = scipy.linalg.block_diag(*stack)
            for v in (rng.normal(size=blocks * size), rng.normal(size=(blocks * size, 3))):
                assert np.allclose(_block_matmul(stack, v), dense @ v, atol=1e-12)
                assert np.allclose(_block_matmul(stack, v, transpose=True), dense.T @ v, atol=1e-12)


class TestCholesky:
    def test_solve_matches_dense(self):
        rng = np.random.default_rng(3)
        for size, bw in [(6, 1), (15, 4), (30, 6), (1, 0), (2, 1), (3, 2), (16, 15), (35, 34)]:
            dense = random_banded_spd(rng, size, bw)
            chol = BandedCholesky(dense[None])
            rhs = rng.normal(size=size)
            assert np.allclose(chol.solve(rhs), np.linalg.solve(dense, rhs), atol=1e-9)
            rhs2 = rng.normal(size=(size, 3))
            assert np.allclose(chol.solve(rhs2), np.linalg.solve(dense, rhs2), atol=1e-9)

    def test_solve_matches_numpy_solve_on_block_stacks(self):
        # block diagonal SPD systems of several sizes and bandwidths, full
        # bands among them, with pinned columns (a unit row and column in the
        # factored matrix, a zero row and column in the inverse) in some blocks
        rng = np.random.default_rng(4)
        for blocks, size, bw in [(1, 16, 3), (1, 35, 3), (8, 35, 3), (3, 17, 2), (2, 203, 3),
                                 (4, 5, 3), (5, 9, 0), (2, 1, 0), (8, 35, 34), (1, 16, 15),
                                 (3, 2, 1), (2, 3, 2), (4, 4, 3)]:
            dense = [random_banded_spd(rng, size, bw) * rng.uniform(0.1, 1e3)
                     for _ in range(blocks)]
            pinned = []
            if size > 3:
                for b in range(0, blocks, 2):
                    cols = rng.choice(size, size=2, replace=False)
                    dense[b][cols, :] = dense[b][:, cols] = 0.0
                    pinned += (b * size + np.sort(cols)).tolist()
            stack = np.stack(dense)
            chol = BandedCholesky(stack)
            assert chol.pinned.tolist() == pinned
            assert np.array_equal(stack, np.stack(dense))  # the input is not changed
            for rhs in (
                rng.normal(size=blocks * size),
                rng.normal(size=(blocks * size, 2)),
                np.asfortranarray(rng.normal(size=(blocks * size, 5))),
                rng.normal(size=(7, blocks * size)).T,
            ):
                got = chol.solve(rhs)
                assert got.shape == rhs.shape
                assert np.all(got[pinned] == 0.0)
                for b, A in enumerate(dense):
                    rows = slice(b * size, (b + 1) * size)
                    keep = np.setdiff1d(np.arange(size), np.array(pinned) - b * size)
                    want = np.linalg.solve(A[np.ix_(keep, keep)], rhs[rows][keep])
                    part = got[rows][keep]
                    assert np.abs(part - want).max() <= 1e-12 * np.abs(want).max()

    def test_block_solve_is_bit_identical_to_solving_each_block(self):
        # the factor of a block diagonal system solves each block exactly as
        # the factor of that block alone does
        rng = np.random.default_rng(12)
        for blocks, size, bw in [(8, 35, 3), (3, 16, 3), (5, 7, 2), (8, 35, 34), (4, 1, 0),
                                 (3, 2, 1), (2, 3, 2)]:
            parts = [random_banded_spd(rng, size, bw) for _ in range(blocks)]
            whole = BandedCholesky(np.stack(parts))
            for rhs in (rng.normal(size=blocks * size), rng.normal(size=(blocks * size, 2))):
                got = whole.solve(rhs)
                for b, A in enumerate(parts):
                    rows = slice(b * size, (b + 1) * size)
                    alone = BandedCholesky(A[None]).solve(rhs[rows])
                    assert np.array_equal(got[rows], alone)

    def test_solve_rejects_a_wrong_row_count(self):
        chol = BandedCholesky(np.eye(6)[None] * 2.0)
        for rhs in (np.ones(5), np.ones((7, 2))):
            with pytest.raises(ValueError, match="rows"):
                chol.solve(rhs)

    def test_not_positive_definite(self):
        # a negative diagonal is no rounding of zero: it raises, not pins
        dense = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError, match="^2-th leading minor not positive"):
            BandedCholesky(dense[None])

    def test_exactly_singular_column_is_pinned(self):
        # a zero diagonal is pinned: its coefficient solves to exactly 0.0
        chol = BandedCholesky(np.diag([1.0, 0.0, 1.0])[None])
        assert chol.pinned.tolist() == [1]
        assert chol.solve(np.array([2.0, 5.0, 3.0])).tolist() == [2.0, 0.0, 3.0]

    def test_failure_names_the_leading_minor_of_the_whole_matrix(self):
        # the order counts over all blocks, as LAPACK's banded factor reported it
        dense = np.diag([1.0, 2.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError, match="^3-th leading minor not positive"):
            BandedCholesky(dense[None])
        # an indefinite second block of positive diagonal: its order-2 minor fails
        good, bad = np.eye(4) * 2.0, np.eye(4)
        bad[0, 1] = bad[1, 0] = 2.0
        with pytest.raises(NotPositiveDefiniteError, match="^6-th leading minor not positive"):
            BandedCholesky(np.stack([good, bad]))

    def test_pivot_at_the_rounding_floor_raises(self):
        # numpy's Cholesky passes the last pivot, one ulp of 1, but it is
        # below the floor q eps max(diag), two ulps
        dense = np.array([[1.0, 1.0], [1.0, np.nextafter(1.0, 2.0)]])
        with pytest.raises(NotPositiveDefiniteError, match="at or below the rounding floor"):
            BandedCholesky(dense[None])

    def test_triangular_inverse_of_full_factors(self):
        # the half split inverts lower triangular factors with no zero band,
        # one block or several, as numpy's inverse does
        rng = np.random.default_rng(13)
        for blocks, size in [(1, 1), (1, 2), (2, 3), (1, 16), (8, 35), (1, 203)]:
            A = np.stack([random_banded_spd(rng, size, size - 1) for _ in range(blocks)])
            L = np.linalg.cholesky(A)
            got, want = _triangular_inverse(L), np.linalg.inv(L)
            assert np.array_equal(np.triu(got, 1), np.zeros_like(got))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestGram:
    def test_matches_dense_cross_products(self):
        rng = np.random.default_rng(5)
        cfg = make_knots(3, 10)
        X = design_matrix(cfg, 1.0 - rng.random(80))
        G = gram_banded(X)
        assert G.shape == (1, X.cols, X.cols)
        assert np.allclose(G[0], X.values.T @ X.values, atol=1e-12)
        Gb = gram_banded(X.block_diagonal(4))
        assert Gb.shape == (4, X.cols, X.cols)
        for b in range(4):
            rows = X.values[20 * b : 20 * (b + 1)]
            assert np.allclose(Gb[b], rows.T @ rows, atol=1e-12)

    def test_out_of_band_entries_exactly_zero(self):
        # supports of B_k and B_h are disjoint when |k - h| > degree
        rng = np.random.default_rng(6)
        for degree in (1, 2, 3):
            cfg = make_knots(degree, 12)
            X = design_matrix(cfg, 1.0 - rng.random(200))
            dense = X.values.T @ X.values
            i, j = np.indices(dense.shape)
            assert np.all(dense[np.abs(i - j) > degree] == 0.0)

    def test_penalized_gram(self):
        # Lam_j = X_j'X_j + lam Q_m block by block, exactly zero more than
        # max(p, m) places off the diagonal
        rng = np.random.default_rng(7)
        cfg = make_knots(2, 9)
        Q = penalty_matrix(3, cfg.num_basis)
        for blocks in (1, 3):
            X1, X2 = (design_matrix(cfg, 1.0 - rng.random(60 * blocks)) for _ in "12")
            d = AdditiveDesign(
                y=rng.normal(size=60 * blocks),
                X1=X1.block_diagonal(blocks),
                X2=X2.block_diagonal(blocks),
                lambda1=1.7,
                lambda2=0.0,
                penalty=Q,
            )
            eq = d.normal_equations
            i, j = np.indices(Q.values.shape)
            for b in range(blocks):
                for Lam, X, lam in ((eq.Lam1, X1, 1.7), (eq.Lam2, X2, 0.0)):
                    rows = X.values[60 * b : 60 * (b + 1)]
                    assert np.allclose(Lam[b], rows.T @ rows + lam * Q.values, atol=1e-12)
                    assert np.all(Lam[b][np.abs(i - j) > 3] == 0.0)

    def test_penalized_gram_validation(self):
        rng = np.random.default_rng(8)
        cfg = make_knots(3, 9)
        X = design_matrix(cfg, 1.0 - rng.random(30))
        y = rng.normal(size=30)
        Q = penalty_matrix(2, cfg.num_basis)
        with pytest.raises(ValueError, match="penalty weight"):
            univariate_penalized(X, y, -0.5, Q, 0.5)
        with pytest.raises(ValueError, match="penalty size"):
            univariate_penalized(X, y, 1.0, penalty_matrix(2, cfg.num_basis + 1), 0.5)


@st.composite
def _stacked_designs(draw):
    """A block diagonal additive design of 1 to 3 blocks of n points each,
    some with K >= n, at lambda 0, 1e-6 or the default rule."""
    n = draw(st.integers(5, 300))
    K = draw(st.integers(1, 40))
    degree, order = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    blocks = draw(st.integers(1, 3))
    lam = draw(st.sampled_from([0.0, 1e-6, lambda_rule(n, K)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x1, x2 = 1.0 - rng.random(blocks * n), 1.0 - rng.random(blocks * n)
    return n, K, degree, order, blocks, lam, rng.normal(size=blocks * n), x1, x2


def _rel_gap(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


class TestNormalEquationStacks:
    """Every per-component system is a stack of dense diagonal blocks."""

    @settings(max_examples=150, deadline=None)
    @given(_stacked_designs())
    def test_blocks_match_the_dense_view(self, drawn):
        n, K, degree, order, blocks, lam, y, x1, x2 = drawn
        cfg = make_knots(degree, K)
        q = cfg.num_basis
        try:
            Q = penalty_matrix(order, q)
            d = AdditiveDesign(
                y=y,
                X1=design_matrix(cfg, x1).block_diagonal(blocks),
                X2=design_matrix(cfg, x2).block_diagonal(blocks),
                lambda1=lam,
                lambda2=lam,
                penalty=Q,
            )
            eq = d.normal_equations
        except (NotPositiveDefiniteError, ValueError):
            return  # too few coefficients for the order, or rank deficient
        D1, D2 = d.X1.values, d.X2.values
        for b in range(blocks):
            rows, cols = slice(b * n, (b + 1) * n), slice(b * q, (b + 1) * q)
            X1b, X2b = D1[rows, cols], D2[rows, cols]
            for G, Lam, X in ((eq.G1, eq.Lam1, X1b), (eq.G2, eq.Lam2, X2b)):
                assert _rel_gap(G[b], X.T @ X) <= 1e-13
                assert _rel_gap(Lam[b], X.T @ X + lam * Q.values) <= 1e-13
            assert _rel_gap(eq.C_blocks[b], X1b.T @ X2b) <= 1e-13
        if lam == 0.0:
            rhs = np.random.default_rng(n).normal(size=(blocks * q, 2))
            for L, pinned in zip((eq.L1, eq.L2), eq.pinned):
                assert np.all(L.solve(rhs)[pinned] == 0.0)
