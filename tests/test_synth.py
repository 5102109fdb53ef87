import numpy as np
import pytest

from ircur.matcore import frob_norm, inf_norm
from ircur.sampling import RngSeed, sample_indices
from ircur.solver import SolverConfig, cur_eval, sample_slabs, solve, step
from ircur.synth import (
    SyntheticSpec,
    _support_sample,
    gen_low_rank,
    gen_sparse,
    make_data_matrix,
    make_problem,
    make_video,
    success_check,
)


def test_gen_low_rank_scalar_case():
    L = gen_low_rank(1, 1, RngSeed(0).generator())
    assert L.shape == (1, 1)


def test_gen_low_rank_has_exact_rank():
    L = gen_low_rank(50, 5, RngSeed(1).generator())
    s = np.linalg.svd(L, compute_uv=False)
    assert int(np.sum(s > 1e-10 * s[0])) == 5


def test_gen_low_rank_deterministic():
    np.testing.assert_array_equal(
        gen_low_rank(20, 3, RngSeed(2).generator()), gen_low_rank(20, 3, RngSeed(2).generator())
    )


def test_gen_low_rank_rejects_rank_above_n():
    with pytest.raises(ValueError):
        gen_low_rank(5, 6, RngSeed(3).generator())


def test_gen_sparse_empty_support():
    L = gen_low_rank(10, 2, RngSeed(4).generator())
    assert not gen_sparse(L, 0.0, RngSeed(5).generator()).any()


def test_gen_sparse_exact_count():
    L = gen_low_rank(100, 2, RngSeed(6).generator())
    S = gen_sparse(L, 0.1, RngSeed(7).generator())
    assert np.count_nonzero(S) == 1000


def test_gen_sparse_amplitude_law():
    # Nonzero values are uniform on [-a, a] with a = mean |L|, so the mean
    # magnitude of the nonzeros is a/2.
    L = gen_low_rank(200, 3, RngSeed(8).generator())
    S = gen_sparse(L, 0.2, RngSeed(9).generator())
    a = np.mean(np.abs(L))
    observed = np.abs(S[S != 0]).mean()
    assert abs(observed - a / 2) <= 0.05 * (a / 2)
    assert np.abs(S).max() <= a


def test_gen_sparse_support_is_uniform():
    # Over many draws every cell should be hit at roughly the same rate.
    L = gen_low_rank(20, 2, RngSeed(10).generator())
    hits = np.zeros(400)
    trials = 500
    for t in range(trials):
        S = gen_sparse(L, 0.25, RngSeed(11, t).generator())
        hits += (S.ravel() != 0)
    p = 0.25
    sigma = np.sqrt(trials * p * (1 - p))
    assert hits.min() >= trials * p - 5 * sigma
    assert hits.max() <= trials * p + 5 * sigma


def unique_based_support_sample(gen, total, k):
    """The support sampler that kept first appearances with np.unique."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < k:
        short = k - chosen.size
        batch = gen.integers(0, total, size=short + short // 4 + 16)
        merged = np.concatenate([chosen, batch])
        uniq, first_pos = np.unique(merged, return_index=True)
        chosen = uniq[np.argsort(first_pos)]
    return np.sort(chosen[:k])


@pytest.mark.parametrize("total, k", [
    (90_000, 9_000), (90_000, 27_000),
    (90_000, 36_000),  # needs a second round
    (10, 9), (1, 1), (5, 0),
    ((2**63 - 1) // 21, 4),  # 21 draws: the largest key fits int64
    (2**62, 4),  # 21 draws: the key would overflow, so np.unique takes over
])
def test_support_sample_matches_the_unique_based_sampler(total, k):
    for seed in range(3):
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _support_sample(gen, total, k)
        want = unique_based_support_sample(ref_gen, total, k)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_make_problem_is_exact_sum():
    inst = make_problem(SyntheticSpec(80, 4, 0.15, RngSeed(12)))
    np.testing.assert_array_equal(inst.D, inst.L + inst.S)
    assert np.count_nonzero(inst.S) == round(0.15 * 80 * 80)
    s = np.linalg.svd(inst.L, compute_uv=False)
    assert int(np.sum(s > 1e-10 * s[0])) == 4


def test_make_problem_deterministic():
    a = make_problem(SyntheticSpec(30, 2, 0.1, RngSeed(13)))
    b = make_problem(SyntheticSpec(30, 2, 0.1, RngSeed(13)))
    np.testing.assert_array_equal(a.D, b.D)
    np.testing.assert_array_equal(a.L, b.L)
    np.testing.assert_array_equal(a.S, b.S)


def test_make_problem_clean_instance_recovers():
    inst = make_problem(SyntheticSpec(100, 5, 0.0, RngSeed(14)))
    cur, _, trace = solve(inst.D, SolverConfig(rank=5, seed=RngSeed(15)))
    assert trace.converged
    err = frob_norm(cur_eval(cur) - inst.L) / frob_norm(inst.L)
    assert err <= 1e-5


def test_make_data_matrix_matches_full_instance():
    spec = SyntheticSpec(60, 3, 0.2, RngSeed(16))
    inst = make_problem(spec)
    D, l_inf = make_data_matrix(spec)
    np.testing.assert_array_equal(D, inst.D)
    assert l_inf == inf_norm(inst.L)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(10, 0, 0.1, RngSeed(0))
    with pytest.raises(ValueError):
        SyntheticSpec(10, 11, 0.1, RngSeed(0))
    with pytest.raises(ValueError):
        SyntheticSpec(10, 2, 1.0, RngSeed(0))
    with pytest.raises(ValueError):
        SyntheticSpec(10, 2, -0.1, RngSeed(0))
    with pytest.raises(ValueError, match="no uncorrupted entry"):
        SyntheticSpec(10, 2, 0.995, RngSeed(0))


@pytest.mark.parametrize("alpha", [-0.1, 1.0])
def test_gen_sparse_rejects_alpha_outside_unit_interval(alpha):
    L = gen_low_rank(10, 2, RngSeed(4).generator())
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        gen_sparse(L, alpha, RngSeed(5).generator())


def test_success_check_true_and_false():
    L = gen_low_rank(15, 2, RngSeed(19).generator())
    rows = sample_indices(15, 12, RngSeed(20).generator())
    cols = sample_indices(15, 12, RngSeed(21).generator())
    exact, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), 2)
    assert success_check(exact, L)
    zero, _, _ = step(sample_slabs(np.zeros((15, 15)), rows, cols), 0.0, 2)
    assert not success_check(zero, L)
    assert success_check(zero, np.zeros((15, 15)))  # absolute mode


def test_success_check_where_the_norms_overflow():
    # At 2**1015 ||L||_F overflows, so err / base would read 0.  An estimate
    # 5% off must still fail and an exact one pass.
    L = np.ldexp(make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(3))).L, 1015)
    assert frob_norm(L) == np.inf
    rows = sample_indices(300, 60, RngSeed(20).generator())
    cols = sample_indices(300, 60, RngSeed(21).generator())
    for factor, ok in ((1.0, True), (1.05, False)):
        cur, _, _ = step(sample_slabs(factor * L, rows, cols), inf_norm(factor * L), 5)
        assert success_check(cur, L) is ok, factor


def test_success_check_where_the_norms_underflow_and_on_a_non_finite_truth():
    # At 2**-660 the squares underflow and ||L||_F reads 0, yet L is not the
    # zero truth: the check stays relative.  A NaN or +-Inf truth raises.
    L = np.ldexp(make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(3))).L, -660)
    assert frob_norm(L) == 0.0
    rows = sample_indices(300, 60, RngSeed(20).generator())
    cols = sample_indices(300, 60, RngSeed(21).generator())
    for factor, ok in ((1.0, True), (1.05, False)):
        cur, _, _ = step(sample_slabs(factor * L, rows, cols), inf_norm(factor * L), 5)
        assert success_check(cur, L) is ok, factor
    for bad in (np.nan, np.inf, -np.inf):
        L[7, 11] = bad
        with pytest.raises(ValueError, match="non-finite"):
            success_check(cur, L)


def test_make_video_shapes_and_ground_truth():
    frames, background, boxes = make_video(80, 60, 12, RngSeed(22))
    assert frames.shape == (12, 60, 80)
    assert background.shape == (60, 80)
    assert len(boxes) == 12
    again, bg2, _ = make_video(80, 60, 12, RngSeed(22))
    np.testing.assert_array_equal(frames, again)
    np.testing.assert_array_equal(background, bg2)
    for t, (y0, y1, x0, x1) in enumerate(boxes):
        inside = frames[t, y0:y1, x0:x1].astype(float)
        truth = background[y0:y1, x0:x1].astype(float)
        assert np.abs(inside - truth).min() >= 25.0  # blob is a real outlier
        outside = frames[t].copy()
        outside[y0:y1, x0:x1] = background[y0:y1, x0:x1]
        np.testing.assert_array_equal(outside, background)


@pytest.mark.parametrize("width, height, n_frames, blob_size", [
    (16, 14, 3, 14),  # a side equal to the blob divided by zero
    (10, 10, 2, 14),  # a side below the blob clipped it and gave negative boxes
    (16, 12, 3, 0),
    (16, 12, 0, 4),
])
def test_make_video_rejects_a_frame_too_small_for_the_blob(width, height, n_frames, blob_size):
    with pytest.raises(ValueError, match="blob_size < min"):
        make_video(width, height, n_frames, RngSeed(22), blob_size=blob_size)


def test_make_video_boxes_lie_inside_the_smallest_frame():
    frames, _, boxes = make_video(16, 15, 9, RngSeed(22))  # blob_size 14
    assert frames.shape == (9, 15, 16)
    for y0, y1, x0, x1 in boxes:
        assert 0 <= y0 < y1 <= 15 and 0 <= x0 < x1 <= 16
        assert (y1 - y0, x1 - x0) == (14, 14)
