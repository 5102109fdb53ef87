import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircur import matcore
from ircur.matcore import (
    SvdFactors,
    frob_norm,
    frob_scale,
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
    for empty in (np.zeros((0, 3)), np.zeros((3, 0), order="F")):
        assert frob_norm(empty) == 0.0
        assert frob_norm(empty, empty) == inf_norm(empty, empty) == 0.0


def test_frob_norm_three_four_five():
    assert frob_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0, abs=0)


def scaled_ratio(nums, dens):
    """Sum of frob_norm(A, B) over ``nums`` over the sum of ||M||_F over
    ``dens``, both on the scale frob_scale picks for ``dens`` (0 for den 0)."""
    den, scale = frob_scale(*dens)
    num = sum(frob_norm(A, B, scale) for A, B in nums)
    return num / den if den else 0.0


def test_frob_ratio_tiny_entries_keep_their_precision():
    # Squared, these entries are subnormal or underflow to zero, so the
    # plain norms lose bits or read 0; frob_scale's power of two is exact.
    for tiny in (6.350034439369157e-161, 1e-170, 1e-300):
        M = np.array([[0.0, 0.0], [tiny, -tiny]])
        assert frob_norm(M) < matcore.FROB_RESCALE_BELOW
        assert frob_scale(M)[1] < 1.0
        assert scaled_ratio(((2.0 * M, None),), (M,)) == 2.0
        assert scaled_ratio(((M, 0.5 * M),), (M,)) == 0.5
        assert scaled_ratio(((np.full((2, 2), tiny), None),), (M,)) == pytest.approx(
            np.sqrt(2.0), rel=1e-15, abs=0.0)
    zero = np.zeros((3, 2))
    assert frob_scale(zero) == (0.0, 1.0)
    assert scaled_ratio(((zero, None),), (zero,)) == 0.0


def test_frob_ratio_huge_entries_do_not_overflow():
    # Squared, these entries overflow, and so does the plain norm.
    M = np.full((3, 3), 1e200)
    assert frob_norm(M) == np.inf
    den, scale = frob_scale(np.eye(3) * 1e200)
    assert scale > 1.0 and den < np.inf
    assert frob_norm(M, None, scale) / den == pytest.approx(np.sqrt(3.0), rel=1e-15, abs=0.0)


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


def multi_block(order):
    M = np.asarray(rng.standard_normal((600, 400)), order=order)
    assert M.nbytes > 3 * matcore.BLOCK_BYTES
    return M


@pytest.mark.parametrize("order", ["C", "F"])
def test_inf_norm_multi_block_is_bitwise_max(order):
    M = multi_block(order)
    for A in (M, M[::3, 1::2]):
        assert inf_norm(A) == np.max(np.abs(A))
        assert inf_norm(A, np.zeros_like(A)) == inf_norm(A)
    M[-1, -1] = -50.0  # the extreme entry in the last block, and negative
    assert inf_norm(M) == 50.0


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 2), (-2, -3)], ids=["first_block", "last_block"])
def test_inf_norm_rejects_non_finite_in_any_block(order, bad, where):
    # The scan runs over rows of a C-order M and columns of an F-order M,
    # so (1, 2) lies in the first block and (-2, -3) in the last.
    M = multi_block(order)
    M[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        inf_norm(M)


@pytest.mark.parametrize("orders", ["CC", "FF", "FC", "CF"])
def test_diff_norms_multi_block_matches_dense_norm(orders):
    A, B = multi_block(orders[0]), multi_block(orders[1])
    assert frob_norm(A, B) == pytest.approx(np.linalg.norm(A - B), rel=1e-13, abs=0.0)
    assert inf_norm(A, B) == np.max(np.abs(A - B))
    assert frob_norm(A) == pytest.approx(np.linalg.norm(A), rel=1e-13)


@pytest.mark.parametrize("orders", ["CC", "FF", "FC", "CF"])
def test_diff_norms_tiny_entries_take_the_rescale_path(orders):
    # Entries near 3e-160: their squares underflow, so the plain norm of
    # the difference lies below FROB_RESCALE_BELOW and frob_scale rescales.
    # Scaling by a power of two is exact here, so the oracle is the
    # unscaled difference.
    scale = 2.0**-530
    A0, B0 = multi_block(orders[0]), multi_block(orders[1])
    A, B = A0 * scale, B0 * scale
    assert frob_norm(A, B) < matcore.FROB_RESCALE_BELOW
    # The scale is 2^(p-1) with max |A| in [2^(p-1), 2^p).
    assert frob_scale(A0)[1] == 1.0
    assert frob_scale(A)[1] == math.ldexp(scale, math.frexp(inf_norm(A0))[1] - 1)
    assert scaled_ratio(((A, B),), (A,)) == scaled_ratio(((A0, B0),), (A0,))
    assert scaled_ratio(((A, B),), (A,)) == pytest.approx(
        np.linalg.norm(A0 - B0) / np.linalg.norm(A0), rel=1e-13, abs=0.0)
    assert inf_norm(A, B) == np.max(np.abs(A0 - B0)) * scale
    assert scaled_ratio(((B, B),), (A,)) == inf_norm(B, B) == frob_norm(B, B) == 0.0


@pytest.mark.parametrize("orders", ["CC", "FC"])
@pytest.mark.parametrize("where", [(1, 2), (-2, -3)], ids=["first_block", "last_block"])
def test_frob_norm_max_is_nan_or_inf_for_a_non_finite_entry(orders, where):
    # The norm of A - B propagates the entry; its max raises.
    A, B = multi_block(orders[0]), multi_block(orders[1])
    for bad in (np.nan, np.inf, -np.inf):
        A[where] = bad
        f = frob_norm(A, B)
        assert np.isnan(f) if np.isnan(bad) else f == np.inf
        with pytest.raises(ValueError, match="non-finite"):
            inf_norm(A, B)


@pytest.mark.parametrize("orders", ["CC", "FF", "FC", "CF"])
def test_frob_ratio_is_the_unscaled_ratio_where_the_norms_overflow(orders):
    # At unit scale the ratio is the plain one.  Entries near 1e307 (2^1020)
    # make every norm inf, and entries near 3e-160 (2^-530) make the squares
    # underflow, but a power-of-two scale is exact, so the ratio is bitwise
    # that of the unscaled matrices.
    A, B, C = multi_block(orders[0]), multi_block(orders[1]), multi_block(orders[0])
    den, scale = frob_scale(A, C)
    assert (den, scale) == (frob_norm(A) + frob_norm(C), 1.0)
    ratio = scaled_ratio(((A, B), (C, None)), (A, C))
    assert ratio == (frob_norm(A, B) + frob_norm(C)) / den
    for power in (1020, -530):
        X, Y, Z = (np.ldexp(M, power) for M in (A, B, C))
        for plain in (frob_norm(X), frob_norm(X, Y), frob_norm(Z)):
            assert not matcore.FROB_RESCALE_BELOW <= plain < np.inf
        assert scaled_ratio(((X, Y), (Z, None)), (X, Z)) == ratio
    assert scaled_ratio(((A, B),), (np.zeros_like(A),)) == 0.0
    # A NaN or +-Inf makes the plain sum NaN or inf, and inf_norm's scan raises.
    for bad in (np.nan, np.inf, -np.inf):
        C[-2, -3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            frob_scale(A, C)


@pytest.mark.parametrize("orders", ["CC", "FC"])
def test_diff_norms_allocates_no_slab_sized_temporary(orders):
    A = np.asarray(rng.standard_normal((1000, 1000)), order=orders[0])
    B = np.asarray(rng.standard_normal((1000, 1000)), order=orders[1])
    for norm in (frob_norm, inf_norm):
        tracemalloc.start()
        try:
            norm(A, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * matcore.BLOCK_BYTES < A.nbytes // 8, norm


def test_submatrix_identity_slicing():
    M = np.eye(3)
    out = submatrix(M, rows=np.array([0, 2]), cols=None)
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])


def test_submatrix_matches_entrywise_oracle():
    M = rng.standard_normal((6, 6))
    rows, cols = np.array([1, 3]), np.array([0, 5])
    out = submatrix(submatrix(M, rows, None), None, cols)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert out[a, b] == M[i, j]


def test_submatrix_composition():
    M = rng.standard_normal((8, 9))
    rows, cols = np.array([0, 2, 7]), np.array([1, 4])
    two_step = submatrix(submatrix(M, rows, None), None, cols)
    np.testing.assert_array_equal(two_step, M[np.ix_(rows, cols)])
    np.testing.assert_array_equal(submatrix(submatrix(M, None, cols), rows, None), two_step)


@pytest.mark.parametrize("selection", [(), (np.array([0, 1]), np.array([2]))],
                         ids=["neither", "both"])
def test_submatrix_takes_exactly_one_of_rows_and_cols(selection):
    with pytest.raises(ValueError, match="exactly one"):
        submatrix(rng.standard_normal((4, 4)), *selection)


def test_submatrix_out_of_range():
    with pytest.raises(IndexError):
        submatrix(np.eye(3), rows=np.array([3]))


@pytest.mark.parametrize("path", ["numpy", "blocked"])
def test_submatrix_takes_only_integer_selections(path):
    # A row gather from an F-order M wider than GATHER_LINES takes the
    # blocked np.take path; from a C-order M it is numpy indexing.  A
    # boolean mask or float indices raise, as float indices do in numpy;
    # lists of ints and empty selections are gathered.
    M = np.asarray(rng.standard_normal((3, 2 * matcore.GATHER_LINES)),
                   order="F" if path == "blocked" else "C")
    for bad in (np.array([True, False, True]), np.array([0.9, 2.2]), [0.0]):
        for sel in ({"rows": bad}, {"cols": bad}):
            with pytest.raises(IndexError, match="integers"):
                submatrix(M, **sel)
    assert np.array_equal(submatrix(M, rows=[2, 0]), M[[2, 0], :])
    assert np.array_equal(submatrix(M, cols=[1, 0]), M[:, [1, 0]])
    assert submatrix(M, rows=[]).shape == (0, M.shape[1])
    assert submatrix(M, rows=np.array([], dtype=np.float64)).shape == (0, M.shape[1])


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lines", [1023, 1024, 1025, 3000])
@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_submatrix_gather_is_bitwise_numpy_indexing(order, lines, axis):
    # A gather across the memory order runs in blocks of GATHER_LINES lines;
    # values and memory order must be those of one numpy indexing call, and
    # the meter counts the output and the one reused block buffer.
    shape = (40, lines) if axis == "rows" else (lines, 40)
    M = np.asarray(rng.standard_normal(shape), order=order)
    idx = np.array([7, 0, 39, 7, 12, 25])
    want = M[idx, :] if axis == "rows" else M[:, idx]
    before = matcore.ALLOCATIONS.count
    got = submatrix(M, idx, None) if axis == "rows" else submatrix(M, None, idx)
    units = matcore.ALLOCATIONS.count - before
    assert got.tobytes("A") == want.tobytes("A")
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        want.flags.c_contiguous, want.flags.f_contiguous)
    across = (axis == "rows") == (order == "F")
    blocked = across and lines > matcore.GATHER_LINES
    buffer = min(matcore.GATHER_LINES, lines) * idx.size if blocked else 0
    assert units == want.size + buffer


@pytest.mark.parametrize("lines", [1025, 3000])
@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_submatrix_blocked_gather_handles_negative_and_out_of_range_indices(lines, axis):
    # Gathers across the memory order longer than GATHER_LINES lines take
    # the np.take path: negative indices count from the end as in numpy,
    # and an index outside [-40, 40) raises IndexError.
    order = "F" if axis == "rows" else "C"
    shape = (40, lines) if axis == "rows" else (lines, 40)
    M = np.asarray(rng.standard_normal(shape), order=order)
    gather = (lambda i: submatrix(M, i, None)) if axis == "rows" else (
        lambda i: submatrix(M, None, i))
    idx = np.array([-1, 3, -40, 39, -17, 0])
    want = M[idx, :] if axis == "rows" else M[:, idx]
    assert gather(idx).tobytes("A") == want.tobytes("A")
    for bad in ([0, 40, 1], [-41, 2], [40], [-41]):
        with pytest.raises(IndexError):
            gather(np.array(bad))


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


@pytest.mark.parametrize("n", [10, 40], ids=["exact", "range_finder"])
def test_truncated_svd_rejects_singular_values_beyond_the_float_range(n):
    # Every entry is finite, but sigma_1 = n * 1.5e308 is not.
    assert (2 * (2 + matcore.RANGE_OVERSAMPLE) <= n) == (n == 40)
    with pytest.raises(ValueError, match="singular values overflow"):
        truncated_svd(np.full((n, n), 1.5e308), 2)


def exact_truncated_svd(M, r):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdFactors(W=U[:, :r], sigma=s[:r], V=Vt[:r].T)


def low_rank_core(shape, r, outlier_rate=0.0, outlier_size=0.0):
    M = rng.standard_normal((shape[0], r)) @ rng.standard_normal((r, shape[1]))
    hit = rng.random(shape) < outlier_rate
    return M + np.where(hit, rng.uniform(-outlier_size, outlier_size, shape), 0.0)


def test_truncated_svd_range_finder_matches_exact_svd():
    # Rank 5 plus 10% sparse outliers: sigma_5 / sigma_6 is about 300 here.
    M = low_rank_core((180, 180), 5, outlier_rate=0.1, outlier_size=0.1)
    assert 2 * (5 + matcore.RANGE_OVERSAMPLE) <= 180
    fac, exact = truncated_svd(M, 5), exact_truncated_svd(M, 5)
    H = exact.dense()
    assert frob_norm(fac.dense() - H) <= 1e-10 * frob_norm(H)
    np.testing.assert_allclose(fac.sigma, exact.sigma, rtol=1e-10)
    assert frob_norm(fac.W.T @ fac.W - np.eye(5)) <= 1e-12
    assert frob_norm(fac.V.T @ fac.V - np.eye(5)) <= 1e-12


@pytest.mark.parametrize("M", [np.zeros((60, 50)), low_rank_core((60, 50), 3)],
                         ids=["zero", "rank3"])
def test_truncated_svd_range_finder_keeps_effective_rank(M):
    # PINV_CUTOFF must zero the same trailing values as on the exact path.
    fast, exact = truncated_svd(M, 5), exact_truncated_svd(M, 5)
    assert fast.sigma.size == exact.sigma.size == 5
    assert fast.effective_rank == exact.effective_rank == np.linalg.matrix_rank(M)


@pytest.mark.parametrize("power", [520, -660])
def test_truncated_svd_range_finder_is_exact_under_power_of_two_scaling(power):
    # Unscaled, M (M^T Q) overflows at 2**520 and underflows at 2**-660.
    M = low_rank_core((180, 180), 5, outlier_rate=0.1, outlier_size=0.1)
    fac, scaled = truncated_svd(M, 5), truncated_svd(np.ldexp(M, power), 5)
    assert np.array_equal(fac.W, scaled.W) and np.array_equal(fac.V, scaled.V)
    assert np.array_equal(np.ldexp(fac.sigma, power), scaled.sigma)


def test_truncated_svd_is_deterministic():
    M = low_rank_core((120, 90), 5, outlier_rate=0.05, outlier_size=1.0)
    a, b = truncated_svd(M, 5), truncated_svd(M, 5)
    for x, y in ((a.W, b.W), (a.sigma, b.sigma), (a.V, b.V)):
        assert np.array_equal(x, y)


def test_truncated_svd_small_core_is_exact_svd():
    # 2 * (5 + RANGE_OVERSAMPLE) > 25: below the size rule, LAPACK decides.
    M = low_rank_core((25, 27), 5, outlier_rate=0.1, outlier_size=1.0)
    fac, exact = truncated_svd(M, 5), exact_truncated_svd(M, 5)
    for x, y in ((fac.W, exact.W), (fac.sigma, exact.sigma), (fac.V, exact.V)):
        assert np.array_equal(x, y)


def test_svd_factors_is_the_one_factor_type():
    assert matcore.PinvFactor is SvdFactors
    fac = SvdFactors(W=np.eye(3), sigma=np.array([4.0, 2.0, 1e-13]), V=np.eye(3))
    assert fac.inv_sigma.tolist() == [0.25, 0.5, 0.0] and fac.effective_rank == 2


@pytest.mark.parametrize("sigma, text", [
    ([math.inf, 1.0], "singular values overflow the float range"),
    ([math.nan, 1.0], "singular values overflow the float range"),
    ([2.0**-1040, 2.0**-1045], "reciprocal overflows the float range"),
])
def test_svd_factors_rejects_a_spectrum_beyond_the_float_range(sigma, text):
    # An overflow warning escaping 1/sigma would fail here (RuntimeWarning is an error).
    with pytest.raises(ValueError, match=text):
        SvdFactors(W=np.eye(2), sigma=np.array(sigma), V=np.eye(2))


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
    # frob_scale returns the plain norm with scale 1 in range; entries near
    # 1e-161 have subnormal squares, and there the norm is on its scale.
    M = np.array(vals).reshape(2, 2)
    assert frob_norm(M) >= 0.0
    den, scale = frob_scale(M)
    den2, scale2 = frob_scale(2.0 * M)
    assert den2 * scale2 == pytest.approx(2.0 * den * scale, rel=1e-12, abs=1e-300)


def test_allocation_meter_counts_and_resets():
    matcore.ALLOCATIONS.reset()
    submatrix(np.zeros((10, 10)), np.arange(10))
    assert matcore.ALLOCATIONS.count == 100
    bools = np.zeros((4, 4), dtype=bool)
    matcore.ALLOCATIONS.add_array(bools)
    assert matcore.ALLOCATIONS.count == 102
    matcore.ALLOCATIONS.reset()
    assert matcore.ALLOCATIONS.count == 0
