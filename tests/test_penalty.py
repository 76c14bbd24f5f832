"""Difference matrices and the induced penalty Q_m = D_m' D_m."""

from math import comb

import numpy as np
import pytest

from addspline.penalty import PenaltyMatrix, difference_matrix, penalty_matrix


def slice_by_slice_penalty(m, q):
    """Q_m summed one (j, l) stencil pair at a time, each product c_j c_l an
    exact integer rounded once, added along the diagonal through (j, l): the
    reference `penalty_matrix` must equal bit for bit at every order."""
    c = [(-1) ** (m - j) * comb(m, j) for j in range(m + 1)]
    Q = np.zeros((q, q))
    flat, rows = Q.reshape(-1), q - m
    for j in range(m + 1):
        for l in range(m + 1):
            first = j * q + l  # the entry (i + j, i + l) at i = 0
            flat[first : first + rows * (q + 1) : q + 1] += c[j] * c[l]
    return Q


class TestDifferenceMatrix:
    def test_first_order_rows(self):
        D = difference_matrix(1, 4)
        want = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        assert np.array_equal(D, want)

    def test_second_order_stencil(self):
        D = difference_matrix(2, 6)
        assert D.shape == (4, 6)
        for i in range(4):
            row = np.zeros(6)
            row[i : i + 3] = [1.0, -2.0, 1.0]
            assert np.array_equal(D[i], row)

    def test_composition(self):
        # m-th difference = first difference applied m times
        D2 = difference_matrix(2, 8)
        D1a = difference_matrix(1, 7)
        D1b = difference_matrix(1, 8)
        assert np.allclose(D2, D1a @ D1b)

    def test_binomial_coefficients(self):
        D = difference_matrix(3, 7)
        assert np.array_equal(D[0, :4], np.array([-1.0, 3.0, -3.0, 1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            difference_matrix(0, 5)
        with pytest.raises(ValueError):
            difference_matrix(3, 3)


class TestPenaltyMatrix:
    def test_equals_gram_of_differences(self):
        for m, q in [(1, 5), (2, 9), (3, 12)]:
            Q = penalty_matrix(m, q)
            D = difference_matrix(m, q)
            assert np.allclose(Q.values, D.T @ D, atol=1e-15)
            assert Q.order == m
            assert Q.size == q

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 60])
    def test_bands_are_the_difference_gram_bit_for_bit(self, m):
        # the bands are sums of integers, as every entry of D'D is while it
        # stays below C(2m, m) < 2^53 (m <= 28); at m = 60 D'D rounds, and
        # the reference is the sum slice by slice
        for q in sorted({m + 1, m + 2, 2 * m, 2 * m + 1, 2 * m + 2, 16, 35, 203, 505}):
            if q <= m:
                continue
            Q = penalty_matrix(m, q).values.tobytes()
            assert Q == slice_by_slice_penalty(m, q).tobytes()
            if m <= 8:
                D = difference_matrix(m, q)
                assert Q == (D.T @ D).tobytes()

    def test_symmetric_psd_banded(self):
        for m in (1, 2, 3):
            for q in (6, 15, 40):
                Q = penalty_matrix(m, q).values
                assert np.array_equal(Q, Q.T)
                assert np.linalg.eigvalsh(Q).min() > -1e-12
                i, j = np.indices(Q.shape)
                assert np.all(Q[np.abs(i - j) > m] == 0.0)
                assert np.any(np.diag(Q, m) != 0.0)

    def test_nullspace_is_low_degree_polynomials(self):
        for m in (1, 2, 3):
            q = 12
            Q = penalty_matrix(m, q)
            idx = np.arange(q, dtype=float)
            for deg in range(m):
                v = idx**deg
                assert np.abs(Q.values @ v).max() < 1e-9
                assert Q.quad_form(v) < 1e-9
            # one degree higher is penalized
            assert Q.quad_form(idx**m) > 1e-6
            eigs = np.linalg.eigvalsh(Q.values)
            assert int((eigs < 1e-10).sum()) == m

    def test_first_order_size4_spectrum(self):
        eigs = np.linalg.eigvalsh(penalty_matrix(1, 4).values)
        want = np.sort([0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        assert np.allclose(eigs, want, atol=1e-12)

    def test_quad_form_matches_two_definitions(self):
        rng = np.random.default_rng(5)
        Q = penalty_matrix(2, 10)
        D = difference_matrix(2, 10)
        for _ in range(5):
            b = rng.normal(size=10)
            qf = Q.quad_form(b)
            assert qf == pytest.approx(b @ Q.values @ b, rel=1e-12)
            assert qf == pytest.approx(np.sum((D @ b) ** 2), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            penalty_matrix(0, 5)
        with pytest.raises(ValueError):
            penalty_matrix(2, 2)

    def test_direct_construction_is_not_validated(self):
        # PenaltyMatrix is a plain container: shifted penalties can be built
        # directly (the test suite uses this to break the constant gauge)
        base = penalty_matrix(2, 6)
        shifted = PenaltyMatrix(order=2, values=base.values + np.eye(6))
        assert shifted.size == base.size == 6  # read off the matrix, not stored
        v = np.ones(6)
        assert shifted.quad_form(v) == pytest.approx(6.0, rel=1e-12)
