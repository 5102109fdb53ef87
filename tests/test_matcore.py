import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircur import matcore
from ircur.matcore import (
    frob_norm,
    inf_norm,
    pinv_factor,
    qr_thin,
    require_finite,
    submatrix,
    truncated_svd,
)

rng = np.random.default_rng(20240817)


def test_require_finite_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        M = rng.standard_normal((6, 5))
        M[4, 1] = bad
        with pytest.raises(ValueError):
            require_finite(M)
    with pytest.raises(ValueError):
        require_finite(np.array([1.0, 2.0]))


def test_require_finite_validates_without_copy():
    for M in (np.ones((3, 2)), np.asfortranarray(np.ones((3, 2))), np.zeros((0, 4))):
        assert require_finite(M) is M


def test_require_finite_allocates_no_full_size_temporary():
    M = rng.standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        require_finite(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_frob_norm_zero_matrix():
    assert frob_norm(np.zeros((2, 2))) == 0.0


def test_frob_norm_three_four_five():
    assert frob_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0, abs=0)


def test_frob_norm_matches_summation_oracle():
    M = rng.standard_normal((7, 5))
    oracle = sum(float(x) ** 2 for x in M.ravel()) ** 0.5
    assert abs(frob_norm(M) - oracle) <= 1e-12 * oracle


def test_inf_norm_examples():
    assert inf_norm(np.array([[-7.0, 2.0], [3.0, 1.0]])) == 7.0
    assert inf_norm(np.zeros((3, 3))) == 0.0


def test_inf_norm_matches_scan_oracle():
    M = rng.standard_normal((11, 4))
    oracle = max(abs(float(x)) for x in M.ravel())
    assert inf_norm(M) == oracle


def test_submatrix_identity_slicing():
    M = np.eye(3)
    out = submatrix(M, rows=np.array([0, 2]), cols=None)
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])


def test_submatrix_all_is_copy():
    M = rng.standard_normal((4, 4))
    out = submatrix(M)
    np.testing.assert_array_equal(out, M)
    out[0, 0] += 1.0
    assert M[0, 0] != out[0, 0]


def test_submatrix_matches_entrywise_oracle():
    M = rng.standard_normal((6, 6))
    rows, cols = np.array([1, 3]), np.array([0, 5])
    out = submatrix(M, rows, cols)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert out[a, b] == M[i, j]


def test_submatrix_composition():
    M = rng.standard_normal((8, 9))
    rows, cols = np.array([0, 2, 7]), np.array([1, 4])
    two_step = submatrix(submatrix(M, rows, None), None, cols)
    np.testing.assert_array_equal(two_step, submatrix(M, rows, cols))


def test_submatrix_out_of_range():
    with pytest.raises(IndexError):
        submatrix(np.eye(3), rows=np.array([3]))


def test_truncated_svd_diagonal():
    fac = truncated_svd(np.diag([3.0, 1.0]), 1)
    np.testing.assert_allclose(fac.sigma, [3.0])
    np.testing.assert_allclose(fac.dense(), np.diag([3.0, 0.0]), atol=1e-12)


def test_truncated_svd_full_rank_reproduces():
    M = rng.standard_normal((6, 4))
    fac = truncated_svd(M, 4)
    assert frob_norm(fac.dense() - M) <= 1e-10 * frob_norm(M)


def test_truncated_svd_exact_low_rank():
    A = rng.standard_normal((40, 5))
    B = rng.standard_normal((40, 5))
    M = A @ B.T
    fac = truncated_svd(M, 5)
    assert frob_norm(fac.dense() - M) <= 1e-9 * frob_norm(M)


def test_truncated_svd_best_approximation():
    # H_r(M) beats random rank-r competitors in Frobenius distance.
    M = rng.standard_normal((12, 10))
    r = 3
    best = frob_norm(truncated_svd(M, r).dense() - M)
    for _ in range(25):
        P = rng.standard_normal((12, r)) @ rng.standard_normal((r, 10))
        assert best <= frob_norm(P - M) + 1e-12


def test_truncated_svd_rejects_bad_rank():
    with pytest.raises(ValueError):
        truncated_svd(np.eye(2), 0)


def test_pinv_diagonal():
    fac = pinv_factor(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(fac.apply_left(np.eye(2)), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_orthogonal_is_transpose():
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    fac = pinv_factor(Q)
    np.testing.assert_allclose(fac.apply_left(Q), np.eye(5), atol=1e-10)


def test_pinv_matches_solve_oracle():
    U = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    fac = pinv_factor(U)
    oracle = np.linalg.solve(U, np.eye(8))
    np.testing.assert_allclose(fac.apply_left(np.eye(8)), oracle, atol=1e-9)
    np.testing.assert_allclose(fac.apply_left(U), np.eye(8), atol=1e-9)


def test_pinv_zero_matrix_maps_to_zero():
    fac = pinv_factor(np.zeros((3, 4)))
    assert not fac.apply_left(rng.standard_normal((3, 2))).any()
    assert not fac.apply_right(rng.standard_normal((5, 4)), np.eye(3)).any()


@pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7)])
def test_pinv_penrose_identities(shape):
    U = rng.standard_normal(shape)
    fac = pinv_factor(U)
    pinv = fac.apply_left(np.eye(shape[0]))
    scale = frob_norm(U)
    assert frob_norm(U @ pinv @ U - U) <= 1e-9 * scale
    assert frob_norm(pinv @ U @ pinv - pinv) <= 1e-9 * frob_norm(pinv)
    assert frob_norm((U @ pinv).T - U @ pinv) <= 1e-9
    assert frob_norm((pinv @ U).T - pinv @ U) <= 1e-9


def test_pinv_rank_deficient_projector():
    # U exactly rank-deficient at the cutoff: U * U+ * U == U.
    A = rng.standard_normal((6, 2))
    U = A @ A.T
    fac = pinv_factor(U)
    recon = fac.apply_right(U, np.eye(6)) @ U
    assert frob_norm(recon - U) <= 1e-10 * frob_norm(U)


def test_pinv_sides_agree():
    U = rng.standard_normal((5, 7))
    fac = pinv_factor(U)
    left = fac.apply_left(np.eye(5))
    right = fac.apply_right(np.eye(7), np.eye(5))
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_qr_thin_orthonormal_input():
    Q0 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    Q, Rfac = qr_thin(Q0)
    np.testing.assert_allclose(np.abs(np.diag(Rfac)), np.ones(3), atol=1e-12)
    np.testing.assert_allclose(Rfac - np.diag(np.diag(Rfac)), np.zeros((3, 3)), atol=1e-12)


def test_qr_thin_column_vector():
    Q, Rfac = qr_thin(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(np.abs(Q[:, 0]), [0.6, 0.8], atol=1e-14)
    assert abs(abs(Rfac[0, 0]) - 5.0) <= 1e-14


def test_qr_thin_reconstruction():
    M = rng.standard_normal((20, 4))
    Q, Rfac = qr_thin(M)
    assert frob_norm(Q.T @ Q - np.eye(4)) <= 1e-10
    assert frob_norm(Q @ Rfac - M) <= 1e-10 * frob_norm(M)


def test_qr_thin_shape_error():
    with pytest.raises(ValueError):
        qr_thin(np.ones((2, 5)))


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
@settings(max_examples=40)
def test_frob_norm_nonnegative_and_scales(vals):
    M = np.array(vals).reshape(2, 2)
    assert frob_norm(M) >= 0.0
    assert frob_norm(2.0 * M) == pytest.approx(2.0 * frob_norm(M), rel=1e-12, abs=1e-300)


def test_allocation_meter_counts_and_resets():
    matcore.ALLOCATIONS.reset()
    submatrix(np.zeros((10, 10)))
    assert matcore.ALLOCATIONS.count == 100
    bools = np.zeros((4, 4), dtype=bool)
    matcore.ALLOCATIONS.add_array(bools)
    assert matcore.ALLOCATIONS.count == 102
    matcore.ALLOCATIONS.reset()
    assert matcore.ALLOCATIONS.count == 0
