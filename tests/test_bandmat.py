"""Banded symmetric storage, Cholesky solves, Gram assembly."""

import numpy as np
import pytest
import scipy.linalg

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

    def test_solve_is_bit_identical_to_cho_solve_banded(self):
        rng = np.random.default_rng(4)
        for size, bw in [(16, 3), (35, 3), (280, 3)]:
            chol = BandedCholesky(BandedMatrix.from_dense(random_banded_spd(rng, size, bw), bw))
            for rhs in (
                rng.normal(size=size),
                rng.normal(size=(size, 2)),
                np.asfortranarray(rng.normal(size=(size, 5))),
                rng.normal(size=(7, size)).T,
            ):
                want = scipy.linalg.cho_solve_banded((chol._factor, True), rhs)
                got = chol.solve(rhs)
                assert got.shape == want.shape
                assert np.array_equal(got, want)

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
