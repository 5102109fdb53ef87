import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ircur.matcore import frob_norm, inf_norm, pinv_factor
from ircur.sampling import IndexSet, RngSeed, sample_indices
from ircur.solver import (
    CurFactors,
    SolverConfig,
    cur_eval,
    hard_threshold,
    sample_slabs,
    solve,
    step,
    threshold_at,
)
from ircur.synth import SyntheticSpec, gen_low_rank, make_problem

rng = np.random.default_rng(7)


def exact_cur(L, rows, cols, r):
    """CUR factors of an exactly rank-r L: at zeta = max |L| the sparse
    update of a step from L_0 = 0 stays 0."""
    cur, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), r)
    return cur


# ---------------------------------------------------------------- thresholding


def test_hard_threshold_example():
    X = np.array([[3.0, -1.0], [0.5, 2.0]])
    np.testing.assert_array_equal(hard_threshold(X, 1.0), [[3.0, 0.0], [0.0, 2.0]])


def test_hard_threshold_zero_cutoff_keeps_nonzeros():
    X = np.array([[0.0, -2.0], [1e-300, 0.0]])
    out = hard_threshold(X.copy(), 0.0)
    np.testing.assert_array_equal(out, X)


def test_hard_threshold_full_suppression():
    X = rng.standard_normal((5, 5))
    assert not hard_threshold(X, inf_norm(X)).any()


def test_hard_threshold_boundary_is_strict():
    assert hard_threshold(np.array([[1.0]]), 1.0)[0, 0] == 0.0


def test_hard_threshold_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        hard_threshold(np.eye(2), -0.1)


@given(
    hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
    st.floats(0, 5),
)
@settings(max_examples=50)
def test_hard_threshold_pointwise_definition(X, zeta):
    work = X.copy()
    out = hard_threshold(work, zeta)
    assert out is work  # in place
    for x, o in zip(X.ravel(), out.ravel()):
        assert o == (x if abs(x) > zeta else 0.0)


def test_threshold_at_examples():
    cfg = SolverConfig(rank=1, zeta0=1.0, gamma=0.65)
    assert threshold_at(cfg, 0) == 1.0
    assert threshold_at(cfg, 2) == pytest.approx(0.4225, rel=1e-15)
    cfg2 = SolverConfig(rank=1, zeta0=2.0, gamma=0.5)
    assert threshold_at(cfg2, 10) == 0.001953125  # exact in binary floating point


def test_threshold_at_requires_resolved_zeta0():
    with pytest.raises(ValueError):
        threshold_at(SolverConfig(rank=1), 0)


# ------------------------------------------------------------- CUR evaluation


def test_cur_eval_rank_one_example():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    L = np.outer(u, u)
    idx = IndexSet(np.array([0, 1]), 4)
    cur = exact_cur(L, idx, idx, 1)
    np.testing.assert_allclose(cur_eval(cur, rows=idx), L[:2, :], atol=1e-10)
    np.testing.assert_allclose(cur_eval(cur, cols=idx), L[:, :2], atol=1e-10)


def test_cur_eval_zero_factors_annihilate():
    rows = IndexSet(np.array([1, 3]), 6)
    cols = IndexSet(np.array([0, 2, 5]), 6)
    cur, _, _ = step(sample_slabs(np.zeros((6, 6)), rows, cols), 0.0, 2)
    assert not cur_eval(cur, rows=rows).any()
    assert not cur_eval(cur, cols=cols).any()


def test_cur_eval_reproduces_slabs_of_exact_decomposition():
    L = gen_low_rank(10, 3, RngSeed(5))
    rows = sample_indices(10, 8, RngSeed(1))
    cols = sample_indices(10, 8, RngSeed(2))
    cur = exact_cur(L, rows, cols, 3)
    np.testing.assert_allclose(cur_eval(cur, rows=rows), cur.R, atol=1e-9)
    np.testing.assert_allclose(cur_eval(cur, cols=cols), cur.C, atol=1e-9)


def test_materialize_recovers_full_matrix():
    L = gen_low_rank(12, 2, RngSeed(8))
    rows = sample_indices(12, 9, RngSeed(3))
    cols = sample_indices(12, 9, RngSeed(4))
    cur = exact_cur(L, rows, cols, 2)
    assert frob_norm(cur_eval(cur) - L) <= 1e-9 * frob_norm(L)


def test_cur_eval_rank_deficient_core_matches_dense_pinv():
    # A 9 x 7 estimate whose 3 x 4 core has rank 1, so some inv_sigma is 0;
    # C and R are unrelated to the core, so only the product is checked.
    g = np.random.default_rng(3)
    U = np.outer(g.standard_normal(3), g.standard_normal(4))
    fac = pinv_factor(U)
    assert fac.effective_rank == 1 and 0.0 in fac.inv_sigma
    cur = CurFactors(
        C=g.standard_normal((9, 4)), core_pinv=fac, R=g.standard_normal((3, 7)),
        rows=IndexSet(np.array([1, 4, 6]), 9), cols=IndexSet(np.array([0, 2, 3, 5]), 7),
    )
    U_pinv = np.linalg.pinv(U, rcond=1e-10)
    dense = cur.C @ U_pinv @ cur.R
    for rows in (None, IndexSet(np.array([0, 3, 4, 8]), 9)):
        for cols in (None, IndexSet(np.array([1, 2, 6]), 7)):
            expect = dense if rows is None else dense[rows.indices]
            expect = expect if cols is None else expect[:, cols.indices]
            np.testing.assert_allclose(cur_eval(cur, rows, cols), expect, atol=1e-10)
            out = np.empty_like(expect)
            assert cur_eval(cur, rows, cols, out) is out
            np.testing.assert_allclose(out, expect, atol=1e-10)
    X, Y = g.standard_normal((5, 4)), g.standard_normal((3, 6))
    np.testing.assert_allclose(fac.apply_right(X, Y), X @ U_pinv @ Y, atol=1e-10)


# ------------------------------------------------- one step: Phase I (sparse)


def test_phase1_full_suppression_at_init():
    D = rng.standard_normal((8, 8))
    rows = sample_indices(8, 5, RngSeed(0))
    cols = sample_indices(8, 5, RngSeed(1))
    _, sparse, _ = step(sample_slabs(D, rows, cols), inf_norm(D), 2)
    assert not sparse.row_values.any()
    assert not sparse.col_values.any()


def test_phase1_zero_residual_for_exact_factors():
    L = gen_low_rank(10, 2, RngSeed(2))
    rows = sample_indices(10, 8, RngSeed(5))
    cols = sample_indices(10, 8, RngSeed(6))
    cur = exact_cur(L, rows, cols, 2)
    _, sparse, _ = step(sample_slabs(L, rows, cols, cur), 1e-8, 2)
    assert not sparse.row_values.any()
    assert not sparse.col_values.any()


def test_phase1_support_containment():
    # With cutoff >= max |L - L_k| the thresholded residual can only keep
    # genuinely corrupted entries.
    inst = make_problem(SyntheticSpec(20, 2, 0.15, RngSeed(3)))
    rows = sample_indices(20, 15, RngSeed(7))
    cols = sample_indices(20, 15, RngSeed(8))
    _, sparse, _ = step(sample_slabs(inst.D, rows, cols), inf_norm(inst.L), 2)
    s_rows = inst.S[rows.indices, :]
    s_cols = inst.S[:, cols.indices]
    assert np.all((sparse.row_values != 0) <= (s_rows != 0))
    assert np.all((sparse.col_values != 0) <= (s_cols != 0))


def test_phase1_intersection_agrees_exactly():
    inst = make_problem(SyntheticSpec(15, 2, 0.1, RngSeed(9)))
    rows = sample_indices(15, 10, RngSeed(1))
    cols = sample_indices(15, 10, RngSeed(2))
    cur = exact_cur(gen_low_rank(15, 2, RngSeed(4)), rows, cols, 2)
    _, sparse, _ = step(sample_slabs(inst.D, rows, cols, cur), 0.3, 2)
    block_from_rows = sparse.row_values[:, cols.indices]
    block_from_cols = sparse.col_values[rows.indices, :]
    np.testing.assert_array_equal(block_from_rows, block_from_cols)


# ----------------------------------------------- one step: Phase II (low rank)


def test_phase2_reproduces_exact_rank_r():
    D = gen_low_rank(20, 3, RngSeed(12))
    rows = sample_indices(20, 15, RngSeed(3))
    cols = sample_indices(20, 15, RngSeed(4))
    cur = exact_cur(D, rows, cols, 3)
    assert frob_norm(cur_eval(cur) - D) <= 1e-9 * frob_norm(D)


def test_phase2_zero_input():
    rows = sample_indices(6, 4, RngSeed(5))
    cols = sample_indices(6, 4, RngSeed(6))
    cur = exact_cur(np.zeros((6, 6)), rows, cols, 2)
    assert not cur_eval(cur).any()


def test_phase2_no_truncation_when_rank_exceeds_samples():
    D = rng.standard_normal((9, 9))
    rows = IndexSet(np.array([1, 4, 6]), 9)
    cols = IndexSet(np.array([0, 2, 8]), 9)
    cur = exact_cur(D, rows, cols, 5)
    dense = cur_eval(cur)
    np.testing.assert_allclose(dense[rows.indices, :], D[rows.indices, :], atol=1e-10)
    np.testing.assert_allclose(dense[:, cols.indices], D[:, cols.indices], atol=1e-10)


def test_phase2_core_rank_bounded():
    D = rng.standard_normal((30, 30))
    rows = sample_indices(30, 20, RngSeed(0))
    cols = sample_indices(30, 20, RngSeed(1))
    cur = exact_cur(D, rows, cols, 4)
    assert cur.core_pinv.effective_rank <= 4


# -------------------------------------------------- one step: residual error


def test_residual_error_exact_decomposition_is_zero():
    L = gen_low_rank(10, 2, RngSeed(6))
    rows = sample_indices(10, 8, RngSeed(4))
    cols = sample_indices(10, 8, RngSeed(5))
    _, _, e = step(sample_slabs(L, rows, cols), inf_norm(L), 2)
    assert e <= 1e-12


def test_residual_error_matches_dense_oracle_after_perturbation():
    L = gen_low_rank(10, 2, RngSeed(16))
    rows = sample_indices(10, 8, RngSeed(14))
    cols = sample_indices(10, 8, RngSeed(15))
    D = L.copy()
    i, j = int(rows.indices[0]), 3
    D[i, j] += 0.25
    cur, sparse, e = step(sample_slabs(D, rows, cols), inf_norm(D), 2)
    assert not sparse.row_values.any() and not sparse.col_values.any()

    # Independent dense recomputation of the stopping statistic.
    L_dense = cur_eval(cur)
    num = np.linalg.norm((D - L_dense)[rows.indices, :], "fro") + np.linalg.norm(
        (D - L_dense)[:, cols.indices], "fro"
    )
    den = np.linalg.norm(D[rows.indices, :], "fro") + np.linalg.norm(
        D[:, cols.indices], "fro"
    )
    oracle = num / den
    assert oracle > 0
    assert abs(e - oracle) <= 1e-12 * oracle


def test_residual_error_zero_denominator():
    rows = sample_indices(5, 3, RngSeed(0))
    cols = sample_indices(5, 3, RngSeed(1))
    _, _, e = step(sample_slabs(np.zeros((5, 5)), rows, cols), 0.0, 1)
    assert e == 0.0


# ------------------------------------------------------------------- solve


def test_solve_exact_rank_r_converges_fast():
    D = gen_low_rank(50, 5, RngSeed(21))
    cfg = SolverConfig(rank=5, zeta0=inf_norm(D), gamma=0.65, seed=RngSeed(22))
    cur, sparse, trace = solve(D, cfg)
    assert trace.converged and trace.errors[-1] <= 1e-5
    assert frob_norm(cur_eval(cur) - D) <= 1e-5 * frob_norm(D)


def test_solve_zero_matrix():
    cur, sparse, trace = solve(np.zeros((9, 7)), SolverConfig(rank=2))
    assert trace.converged
    assert trace.errors == [0.0]
    assert trace.iterations == 0
    assert not cur_eval(cur).any()


def test_solve_corrupted_instance_meets_success_rule():
    inst = make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(30)))
    cfg = SolverConfig(
        rank=5, eps=1e-5, zeta0=2.0 * inf_norm(inst.L), gamma=0.65,
        c_rows=4, c_cols=4, seed=RngSeed(31),
    )
    cur, _, trace = solve(inst.D, cfg)
    assert trace.converged
    err = frob_norm(cur_eval(cur) - inst.L) / frob_norm(inst.L)
    assert err <= 1e-3


def test_solve_rejects_non_finite_input():
    D = np.ones((4, 4))
    D[2, 2] = np.nan
    with pytest.raises(ValueError):
        solve(D, SolverConfig(rank=1))


def test_solve_max_iter_cap_returns_unconverged():
    inst = make_problem(SyntheticSpec(60, 3, 0.2, RngSeed(33)))
    cfg = SolverConfig(rank=3, max_iter=1, seed=RngSeed(34))
    _, _, trace = solve(inst.D, cfg)
    assert trace.iterations == 1
    assert not trace.converged


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_is_bitwise_deterministic(mode):
    inst = make_problem(SyntheticSpec(80, 3, 0.1, RngSeed(40)))
    cfg = SolverConfig(rank=3, mode=mode, seed=RngSeed(41))
    a = solve(inst.D, cfg)
    b = solve(inst.D, cfg)
    assert a[2].errors == b[2].errors
    assert a[2].thresholds == b[2].thresholds
    np.testing.assert_array_equal(a[0].C, b[0].C)
    np.testing.assert_array_equal(a[0].R, b[0].R)
    np.testing.assert_array_equal(a[1].row_values, b[1].row_values)
    np.testing.assert_array_equal(a[1].col_values, b[1].col_values)


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_iteration_invariants(mode):
    inst = make_problem(SyntheticSpec(100, 4, 0.1, RngSeed(50)))
    cfg = SolverConfig(
        rank=4, zeta0=2.0 * inf_norm(inst.L), mode=mode, seed=RngSeed(51)
    )
    seen = []

    def observer(k, zeta, cur, sparse, e):
        inter_rows = sparse.row_values[:, sparse.cols.indices]
        inter_cols = sparse.col_values[sparse.rows.indices, :]
        seen.append(
            np.array_equal(inter_rows, inter_cols)
            and cur.core_pinv.effective_rank <= 4
        )

    _, _, trace = solve(inst.D, cfg, observer=observer)
    assert seen and all(seen)
    expected = [cfg.gamma**i * cfg.zeta0 for i in range(trace.iterations)]
    assert trace.thresholds == expected
    if trace.converged:
        assert trace.errors[-1] <= cfg.eps


def test_solve_matches_public_phase_ops_on_first_iteration():
    # The first solver iteration is one public step from L_0 = 0 on the
    # first draw, with the residual written where solve writes it: into
    # C-order buffers in fixed mode, into the D slabs (no scratch) in
    # resampled mode.  Everything, e included, agrees bitwise.
    inst = make_problem(SyntheticSpec(40, 3, 0.15, RngSeed(60)))
    for mode in ("resampled", "fixed"):
        cfg = SolverConfig(
            rank=3, zeta0=inf_norm(inst.D), mode=mode, max_iter=1, seed=RngSeed(61)
        )
        cur1, sp1, tr1 = solve(inst.D, cfg)
        scratch = None
        if mode == "fixed":
            scratch = (np.empty((cur1.rows.size, 40)), np.empty((40, cur1.cols.size)))
        slabs = sample_slabs(inst.D, cur1.rows, cur1.cols)
        cur, sp, e = step(slabs, cfg.zeta0, 3, scratch)
        np.testing.assert_array_equal(sp.row_values, sp1.row_values)
        np.testing.assert_array_equal(sp.col_values, sp1.col_values)
        np.testing.assert_array_equal(cur.C, cur1.C)
        np.testing.assert_array_equal(cur.R, cur1.R)
        np.testing.assert_array_equal(cur.core_pinv.sigma, cur1.core_pinv.sigma)
        assert e == tr1.errors[0]


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_allocation_stays_slab_sized(mode):
    n = 400
    inst = make_problem(SyntheticSpec(n, 5, 0.1, RngSeed(70)))
    cfg = SolverConfig(rank=5, mode=mode, max_iter=5, eps=1e-12, seed=RngSeed(71))
    _, _, trace = solve(inst.D, cfg)
    for alloc, isize, jsize in zip(
        trace.allocated, trace.sampled_rows, trace.sampled_cols
    ):
        assert alloc <= 8 * (isize + jsize) * n


def test_solve_resampled_redraws_indices():
    inst = make_problem(SyntheticSpec(90, 3, 0.1, RngSeed(80)))
    rows_seen = []
    cfg = SolverConfig(rank=3, mode="resampled", max_iter=4, eps=1e-14, seed=RngSeed(81))
    solve(inst.D, cfg, observer=lambda k, z, cur, sp, e: rows_seen.append(
        cur.rows.indices.copy()
    ))
    assert any(
        not np.array_equal(rows_seen[0], later) for later in rows_seen[1:]
    )


def test_solve_rectangular_matrix():
    L = gen_low_rank(40, 3, RngSeed(90), n_cols=25)
    cur, _, trace = solve(L, SolverConfig(rank=3, seed=RngSeed(91)))
    assert trace.converged
    assert frob_norm(cur_eval(cur) - L) <= 1e-5 * frob_norm(L)


def test_solve_with_overestimated_rank():
    # A core of rank < r leaves trailing zero singular values; the solver
    # proceeds with the deficient pseudoinverse instead of failing.
    L = gen_low_rank(60, 2, RngSeed(94))
    cur, _, trace = solve(L, SolverConfig(rank=5, seed=RngSeed(95)))
    assert trace.converged
    assert cur.core_pinv.effective_rank == 2
    assert frob_norm(cur_eval(cur) - L) <= 1e-5 * frob_norm(L)


def test_solve_tiny_matrices():
    # Sampling clamps to the full dimension and the core rank clamps to
    # min(r, dims); nothing should break below the sampled-size regime.
    # (With-replacement draws may still dedup below full coverage, so only
    # a rank the sampled core can capture is recoverable.)
    one = np.array([[2.5]])
    cur, _, trace = solve(one, SolverConfig(rank=1, seed=RngSeed(92)))
    assert trace.converged
    np.testing.assert_allclose(cur_eval(cur), one, atol=1e-12)
    small = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    cur, _, trace = solve(small, SolverConfig(rank=5, seed=RngSeed(93)))
    assert trace.converged
    np.testing.assert_allclose(cur_eval(cur), small, atol=1e-9)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rank=0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, gamma=1.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, mode="sometimes")
    with pytest.raises(ValueError):
        SolverConfig(rank=1, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, zeta0=-2.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, c_rows=0.0)
