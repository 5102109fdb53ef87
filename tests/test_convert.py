import numpy as np
import pytest

from ircur import matcore
from ircur.convert import cur_to_svd
from ircur.matcore import frob_norm, inf_norm, pinv_factor
from ircur.sampling import RngSeed, sample_indices
from ircur.solver import cur_eval, sample_slabs, step
from ircur.synth import gen_low_rank

rng = np.random.default_rng(123)


def exact_cur(L, r, seed):
    n1, n2 = L.shape
    rows = sample_indices(n1, min(n1, 4 * r + 8), RngSeed(seed, 0))
    cols = sample_indices(n2, min(n2, 4 * r + 8), RngSeed(seed, 1))
    # At zeta = max |L| the sparse update stays 0: the CUR factors of L.
    cur, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), r)
    return cur


def test_singular_values_match_dense_oracle():
    L = gen_low_rank(30, 4, RngSeed(1))
    cur = exact_cur(L, 4, seed=2)
    fac = cur_to_svd(cur.C, cur.core_pinv, cur.R)
    oracle = np.linalg.svd(L, compute_uv=False)[:4]
    np.testing.assert_allclose(np.sort(fac.sigma)[::-1][:4], oracle, rtol=1e-9)


def test_rank_one_unit():
    C = np.zeros((5, 1))
    C[0, 0] = 1.0
    R = np.zeros((1, 5))
    R[0, 0] = 1.0
    fac = cur_to_svd(C, pinv_factor(np.array([[1.0]])), R)
    np.testing.assert_allclose(fac.sigma, [1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(fac.W[:, 0]), np.eye(5)[:, 0], atol=1e-14)
    np.testing.assert_allclose(np.abs(fac.V[:, 0]), np.eye(5)[:, 0], atol=1e-14)


def test_scaling_homogeneity():
    L = gen_low_rank(20, 3, RngSeed(5))
    cur = exact_cur(L, 3, seed=6)
    base = cur_to_svd(cur.C, cur.core_pinv, cur.R)
    scaled = cur_to_svd(10.0 * cur.C, cur.core_pinv, cur.R)
    np.testing.assert_allclose(scaled.sigma, 10.0 * base.sigma, rtol=1e-12)
    k = base.sigma.size
    flip = np.sign(np.sum(base.W[:, :k] * scaled.W[:, :k], axis=0))
    np.testing.assert_allclose(scaled.W[:, :k] * flip, base.W[:, :k], atol=1e-9)
    np.testing.assert_allclose(scaled.V[:, :k] * flip, base.V[:, :k], atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_reconstruction_and_orthonormality(seed):
    n = 40 + 25 * seed
    r = 2 + seed % 4
    L = gen_low_rank(n, r, RngSeed(seed, 3))
    cur = exact_cur(L, r, seed=seed + 10)
    fac = cur_to_svd(cur.C, cur.core_pinv, cur.R)
    product = cur_eval(cur)
    recon = (fac.W * fac.sigma) @ fac.V.T
    assert frob_norm(recon - product) <= 1e-10 * frob_norm(product)
    k = fac.sigma.size
    assert frob_norm(fac.W.T @ fac.W - np.eye(k)) <= 1e-10
    assert frob_norm(fac.V.T @ fac.V - np.eye(k)) <= 1e-10
    assert (np.diff(fac.sigma) <= 0).all()


def test_zero_input_keeps_orthonormal_completion():
    C = np.zeros((6, 2))
    R = np.zeros((2, 6))
    fac = cur_to_svd(C, pinv_factor(np.zeros((2, 2))), R)
    assert (fac.sigma == 0).all() and fac.sigma.size > 0
    np.testing.assert_allclose(fac.W.T @ fac.W, np.eye(fac.W.shape[1]), atol=1e-12)


def test_compact_rank_matches_core_truncation():
    # The core is rank-truncated, so converted sigma drops the null columns.
    L = gen_low_rank(25, 2, RngSeed(9))
    cur = exact_cur(L, 2, seed=11)
    fac = cur_to_svd(cur.C, cur.core_pinv, cur.R)
    assert fac.sigma.size == 2


def test_dimension_mismatch_raises():
    L = gen_low_rank(12, 2, RngSeed(13))
    cur = exact_cur(L, 2, seed=14)
    with pytest.raises(ValueError):
        cur_to_svd(cur.C[:, :1], cur.core_pinv, cur.R)
    with pytest.raises(ValueError):
        cur_to_svd(cur.C, cur.core_pinv, cur.R[:1, :])


def test_cost_scales_linearly_in_ambient_dimension():
    # Allocation grows proportionally to n when the sampled sizes are fixed.
    r = 3
    allocs = {}
    for n in (100, 200, 400):
        L = gen_low_rank(n, r, RngSeed(17))
        rows = sample_indices(n, 20, RngSeed(18))
        cols = sample_indices(n, 20, RngSeed(19))
        cur, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), r)
        matcore.ALLOCATIONS.reset()
        cur_to_svd(cur.C, cur.core_pinv, cur.R)
        allocs[n] = matcore.ALLOCATIONS.count
    assert allocs[200] <= 2.4 * allocs[100]
    assert allocs[400] <= 2.4 * allocs[200]
