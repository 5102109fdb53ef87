import numpy as np
import pytest

from ircur.matcore import frob_norm, inf_norm
from ircur.sampling import RngSeed, sample_indices
from ircur.solver import SolverConfig, cur_eval, sample_slabs, solve, step
from ircur.synth import (
    SyntheticSpec,
    assumption_report,
    gen_low_rank,
    gen_sparse,
    make_data_matrix,
    make_problem,
    make_video,
    success_check,
)


def test_gen_low_rank_scalar_case():
    L = gen_low_rank(1, 1, RngSeed(0))
    assert L.shape == (1, 1)


def test_gen_low_rank_has_exact_rank():
    L = gen_low_rank(50, 5, RngSeed(1))
    s = np.linalg.svd(L, compute_uv=False)
    assert int(np.sum(s > 1e-10 * s[0])) == 5


def test_gen_low_rank_deterministic():
    np.testing.assert_array_equal(
        gen_low_rank(20, 3, RngSeed(2)), gen_low_rank(20, 3, RngSeed(2))
    )


def test_gen_low_rank_non_square():
    L = gen_low_rank(12, 2, RngSeed(3), n_cols=7)
    assert L.shape == (12, 7)
    with pytest.raises(ValueError):
        gen_low_rank(5, 6, RngSeed(3))


def test_gen_sparse_empty_support():
    L = gen_low_rank(10, 2, RngSeed(4))
    assert not gen_sparse(L, 0.0, RngSeed(5)).any()


def test_gen_sparse_exact_count():
    L = gen_low_rank(100, 2, RngSeed(6))
    S = gen_sparse(L, 0.1, RngSeed(7))
    assert np.count_nonzero(S) == 1000


def test_gen_sparse_amplitude_law():
    # Nonzero values are uniform on [-a, a] with a = mean |L|, so the mean
    # magnitude of the nonzeros is a/2.
    L = gen_low_rank(200, 3, RngSeed(8))
    S = gen_sparse(L, 0.2, RngSeed(9))
    a = np.mean(np.abs(L))
    observed = np.abs(S[S != 0]).mean()
    assert abs(observed - a / 2) <= 0.05 * (a / 2)
    assert np.abs(S).max() <= a


def test_gen_sparse_support_is_uniform():
    # Over many draws every cell should be hit at roughly the same rate.
    L = gen_low_rank(20, 2, RngSeed(10))
    hits = np.zeros(400)
    trials = 500
    for t in range(trials):
        S = gen_sparse(L, 0.25, RngSeed(11, t))
        hits += (S.ravel() != 0)
    p = 0.25
    sigma = np.sqrt(trials * p * (1 - p))
    assert hits.min() >= trials * p - 5 * sigma
    assert hits.max() <= trials * p + 5 * sigma


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


def test_assumption_report_spike_row():
    n, r = 12, 1
    L = np.zeros((n, n))
    L[3, :] = 1.0
    rep = assumption_report(L, np.zeros((n, n)), r)
    assert rep.mu_estimate == pytest.approx(n / r, rel=1e-12)


def test_assumption_report_flat_matrix():
    n = 16
    rep = assumption_report(np.ones((n, n)), np.zeros((n, n)), 1)
    assert rep.mu_estimate == pytest.approx(1.0, rel=1e-12)


def test_assumption_report_gaussian_range():
    L = gen_low_rank(200, 5, RngSeed(17))
    rep = assumption_report(L, np.zeros((200, 200)), 5)
    assert 1.0 <= rep.mu_estimate <= 10.0


def test_assumption_report_counts_sparsity():
    S = np.zeros((10, 10))
    S[2, :7] = 1.0
    S[:3, 9] = 1.0
    rep = assumption_report(np.ones((10, 10)), S, 1)
    assert rep.max_row_nnz == 8  # row 2 has 7 + the (2, 9) entry
    assert rep.max_col_nnz == 3
    assert rep.alpha_rowcol == pytest.approx(0.8)


def test_assumption_report_zero_matrix_flagged():
    rep = assumption_report(np.zeros((5, 5)), np.zeros((5, 5)), 2)
    assert rep.degenerate
    assert np.isnan(rep.mu_estimate)


def test_success_check_true_and_false():
    L = gen_low_rank(15, 2, RngSeed(19))
    rows = sample_indices(15, 12, RngSeed(20))
    cols = sample_indices(15, 12, RngSeed(21))
    exact, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), 2)
    assert success_check(exact, L)
    zero, _, _ = step(sample_slabs(np.zeros((15, 15)), rows, cols), 0.0, 2)
    assert not success_check(zero, L)
    assert success_check(zero, np.zeros((15, 15)))  # absolute mode


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
