from functools import cache

import numpy as np
import pytest

from ircur import matcore
from ircur.convert import cur_to_svd
from ircur.matcore import frob_norm, inf_norm, pinv_factor
from ircur.sampling import RngSeed, sample_indices
from ircur.solver import SolverConfig, cur_eval, sample_slabs, solve, step
from ircur.synth import SyntheticSpec, gen_low_rank, make_problem

rng = np.random.default_rng(123)


def exact_cur(L, r, seed):
    n1, n2 = L.shape
    rows = sample_indices(n1, min(n1, 4 * r + 8), RngSeed(seed, 0).generator())
    cols = sample_indices(n2, min(n2, 4 * r + 8), RngSeed(seed, 1).generator())
    # At zeta = max |L| the sparse update stays 0: the CUR factors of L.
    cur, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), r)
    return cur


def test_singular_values_match_dense_oracle():
    L = gen_low_rank(30, 4, RngSeed(1).generator())
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
    L = gen_low_rank(20, 3, RngSeed(5).generator())
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
    L = gen_low_rank(n, r, RngSeed(seed, 3).generator())
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
    L = gen_low_rank(25, 2, RngSeed(9).generator())
    cur = exact_cur(L, 2, seed=11)
    fac = cur_to_svd(cur.C, cur.core_pinv, cur.R)
    assert fac.sigma.size == 2


def test_dimension_mismatch_raises():
    L = gen_low_rank(12, 2, RngSeed(13).generator())
    cur = exact_cur(L, 2, seed=14)
    with pytest.raises(ValueError):
        cur_to_svd(cur.C[:, :1], cur.core_pinv, cur.R)
    with pytest.raises(ValueError):
        cur_to_svd(cur.C, cur.core_pinv, cur.R[:1, :])


def test_one_dimensional_factor_raises():
    L = gen_low_rank(12, 2, RngSeed(13).generator())
    cur = exact_cur(L, 2, seed=14)
    with pytest.raises(ValueError, match="must be 2-D"):
        cur_to_svd(cur.C[:, 0], cur.core_pinv, cur.R)


def test_cost_scales_linearly_in_ambient_dimension():
    # Allocation grows proportionally to n when the sampled sizes are fixed.
    r = 3
    allocs = {}
    for n in (100, 200, 400):
        L = gen_low_rank(n, r, RngSeed(17).generator())
        rows = sample_indices(n, 20, RngSeed(18).generator())
        cols = sample_indices(n, 20, RngSeed(19).generator())
        cur, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), r)
        matcore.ALLOCATIONS.reset()
        cur_to_svd(cur.C, cur.core_pinv, cur.R)
        allocs[n] = matcore.ALLOCATIONS.count
    assert allocs[200] <= 2.4 * allocs[100]
    assert allocs[400] <= 2.4 * allocs[200]


@cache
def sweep_instance():
    return make_problem(SyntheticSpec(120, 3, 0.1, RngSeed(3))).D


# Every 32nd binade from the smallest subnormal up, and the edges between.
SWEEP_POWERS = [*range(-1074, 1017, 32), -1030, 1017, 1018, 1020]


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
@pytest.mark.parametrize("power", SWEEP_POWERS)
def test_solve_and_convert_end_in_finite_factors_or_a_named_error(power, mode):
    # At any power-of-two scale a solve and its conversion give finite
    # factors or a ValueError that names why; never a LinAlgError (a
    # ValueError subclass), a RuntimeWarning (an error under pytest) or an
    # inf written into sigma.
    D = np.ldexp(sweep_instance(), power)
    try:
        cur, _, _ = solve(D, SolverConfig(rank=3, mode=mode, seed=RngSeed(1)))
        for M in (cur.C, cur.R, cur.core_pinv.sigma):
            assert np.isfinite(M).all()
        fac = cur_to_svd(cur.C, cur.core_pinv, cur.R)
        for M in (fac.W, fac.sigma, fac.V):
            assert np.isfinite(M).all()
    except Exception as exc:
        assert type(exc) is ValueError, repr(exc)
        assert "float range" in str(exc) or "non-finite entries" in str(exc), repr(exc)
