"""Banded symmetric storage, Cholesky solves, Gram assembly."""

import numpy as np
import pytest

from addspline.backfit import _PinnedCholesky
from addspline.bandmat import (
    BandedCholesky,
    BandedMatrix,
    NotPositiveDefiniteError,
    gram_banded,
    penalized_gram,
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


class TestStorage:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for size, bw in [(5, 0), (8, 2), (12, 5)]:
            dense = random_banded_spd(rng, size, bw)
            B = BandedMatrix.from_dense(dense, bw)
            assert B.size == size
            assert B.bandwidth == bw
            assert np.array_equal(B.to_dense(), dense)

    def test_from_dense_rejects_out_of_band(self):
        dense = np.eye(6)
        dense[0, 3] = dense[3, 0] = 0.5
        with pytest.raises(ValueError):
            BandedMatrix.from_dense(dense, 2)

    def test_from_dense_rejects_asymmetric(self):
        dense = np.eye(4)
        dense[0, 1] = 0.5
        with pytest.raises(ValueError):
            BandedMatrix.from_dense(dense, 1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BandedMatrix(size=4, bandwidth=2, bands=np.zeros((2, 4)))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(1)
        dense = random_banded_spd(rng, 10, 3)
        B = BandedMatrix.from_dense(dense, 3)
        for _ in range(4):
            v = rng.normal(size=10)
            assert np.allclose(B.matvec(v), dense @ v, atol=1e-12)

    def test_add_widens_band(self):
        rng = np.random.default_rng(2)
        A = random_banded_spd(rng, 9, 1)
        C = random_banded_spd(rng, 9, 4)
        BA = BandedMatrix.from_dense(A, 1)
        BC = BandedMatrix.from_dense(C, 4)
        out = BA.add(BC, scale=2.5)
        assert out.bandwidth == 4
        assert np.allclose(out.to_dense(), A + 2.5 * C, atol=1e-12)
        # the other order narrows nothing
        out2 = BC.add(BA)
        assert out2.bandwidth == 4
        assert np.allclose(out2.to_dense(), A + C, atol=1e-12)

    def test_add_size_mismatch(self):
        A = BandedMatrix.from_dense(np.eye(4), 0)
        B = BandedMatrix.from_dense(np.eye(5), 0)
        with pytest.raises(ValueError):
            A.add(B)


class TestCholesky:
    def test_solve_matches_dense(self):
        rng = np.random.default_rng(3)
        for size, bw in [(6, 1), (15, 4), (30, 6)]:
            dense = random_banded_spd(rng, size, bw)
            chol = BandedCholesky(BandedMatrix.from_dense(dense, bw))
            rhs = rng.normal(size=size)
            assert np.allclose(chol.solve(rhs), np.linalg.solve(dense, rhs), atol=1e-9)
            rhs2 = rng.normal(size=(size, 3))
            assert np.allclose(chol.solve(rhs2), np.linalg.solve(dense, rhs2), atol=1e-9)

    def test_solve_matches_numpy_solve_on_block_stacks(self):
        # block diagonal SPD systems of several sizes and bandwidths, with
        # pinned columns (a unit row and column in the factored matrix, a
        # zero row and column in the inverse) in some blocks
        rng = np.random.default_rng(4)
        for blocks, size, bw in [(1, 16, 3), (1, 35, 3), (8, 35, 3), (3, 17, 2), (2, 203, 3),
                                 (4, 5, 3), (5, 9, 0), (2, 1, 0)]:
            dense = [random_banded_spd(rng, size, bw) * rng.uniform(0.1, 1e3)
                     for _ in range(blocks)]
            pinned = []
            if size > 3:
                for b in range(0, blocks, 2):
                    cols = rng.choice(size, size=2, replace=False)
                    dense[b][cols, :] = dense[b][:, cols] = 0.0
                    pinned += (b * size + np.sort(cols)).tolist()
            bands = np.hstack([BandedMatrix.from_dense(A, bw).bands for A in dense])
            chol = _PinnedCholesky(BandedMatrix(blocks * size, bw, bands, blocks))
            assert chol.pinned.tolist() == pinned
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
        for blocks, size, bw in [(8, 35, 3), (3, 16, 3), (5, 7, 2)]:
            parts = [BandedMatrix.from_dense(random_banded_spd(rng, size, bw), bw)
                     for _ in range(blocks)]
            whole = BandedCholesky(
                BandedMatrix(blocks * size, bw, np.hstack([m.bands for m in parts]), blocks)
            )
            for rhs in (rng.normal(size=blocks * size), rng.normal(size=(blocks * size, 2))):
                got = whole.solve(rhs)
                for b, m in enumerate(parts):
                    rows = slice(b * size, (b + 1) * size)
                    assert np.array_equal(got[rows], BandedCholesky(m).solve(rhs[rows]))

    def test_solve_rejects_a_wrong_row_count(self):
        chol = BandedCholesky(BandedMatrix.from_dense(np.eye(6) * 2.0, 1))
        for rhs in (np.ones(5), np.ones((7, 2))):
            with pytest.raises(ValueError, match="rows"):
                chol.solve(rhs)

    def test_not_positive_definite(self):
        dense = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            BandedCholesky(BandedMatrix.from_dense(dense, 0))

    def test_exactly_singular(self):
        dense = np.diag([1.0, 0.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            BandedCholesky(BandedMatrix.from_dense(dense, 0))

    def test_failure_names_the_leading_minor_of_the_whole_matrix(self):
        # the order counts over all blocks, as LAPACK's banded factor reported it
        dense = np.diag([1.0, 2.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError, match="^3-th leading minor not positive"):
            BandedCholesky(BandedMatrix.from_dense(dense, 0))
        good, bad = np.eye(4) * 2.0, np.diag([1.0, 0.0, 1.0, 1.0])
        bands = np.hstack([BandedMatrix.from_dense(A, 1).bands for A in (good, bad)])
        with pytest.raises(NotPositiveDefiniteError, match="^6-th leading minor not positive"):
            BandedCholesky(BandedMatrix(8, 1, bands, blocks=2))


class TestGram:
    def test_matches_dense_cross_products(self):
        rng = np.random.default_rng(5)
        cfg = make_knots(3, 10)
        X = design_matrix(cfg, 1.0 - rng.random(80))
        G = gram_banded(X)
        assert G.bandwidth == 3
        assert np.allclose(G.to_dense(), X.values.T @ X.values, atol=1e-12)

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
        rng = np.random.default_rng(7)
        cfg = make_knots(3, 9)
        X = design_matrix(cfg, 1.0 - rng.random(60))
        Q = penalty_matrix(2, cfg.num_basis)
        G = gram_banded(X)
        A = penalized_gram(G, 1.7, Q)
        assert A.bandwidth == 3
        assert np.allclose(A.to_dense(), X.values.T @ X.values + 1.7 * Q.values, atol=1e-12)

    def test_penalized_gram_validation(self):
        rng = np.random.default_rng(8)
        cfg = make_knots(3, 9)
        G = gram_banded(design_matrix(cfg, 1.0 - rng.random(30)))
        Q = penalty_matrix(2, cfg.num_basis)
        with pytest.raises(ValueError):
            penalized_gram(G, -0.5, Q)
        with pytest.raises(ValueError):
            penalized_gram(G, 1.0, penalty_matrix(2, cfg.num_basis + 1))
