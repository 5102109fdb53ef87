import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ircur import matcore, solver
from ircur.matcore import SvdFactors, frob_norm, inf_norm, pinv_factor
from ircur.sampling import IndexSet, RngSeed, sample_count, sample_indices
from ircur.solver import (
    CurFactors,
    SolverConfig,
    cur_eval,
    hard_threshold,
    sample_slabs,
    solve,
    step,
)
from ircur.synth import SyntheticSpec, gen_low_rank, make_problem, success_check

rng = np.random.default_rng(7)


def exact_cur(L, rows, cols, r):
    """CUR factors of an exactly rank-r L: at zeta = max |L| the sparse
    update of a step from L_0 = 0 stays 0."""
    cur, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), r)
    return cur


# ---------------------------------------------------------------- thresholding


def test_hard_threshold_example():
    D = np.array([[3.0, -1.0], [0.5, 2.0]])
    rest = hard_threshold(D, np.zeros((2, 2)), 1.0)
    np.testing.assert_array_equal(rest, [[0.0, -1.0], [0.5, 0.0]])
    np.testing.assert_array_equal(D - rest, [[3.0, 0.0], [0.0, 2.0]])  # S


def test_hard_threshold_zero_cutoff_keeps_nonzeros():
    X = np.array([[0.0, -2.0], [1e-300, 0.0]])
    rest = hard_threshold(X, np.zeros((2, 2)), 0.0)
    assert not rest.any()


def test_hard_threshold_full_suppression():
    X = rng.standard_normal((5, 5))
    rest = hard_threshold(X, np.zeros((5, 5)), inf_norm(X))
    assert rest.tobytes() == X.tobytes()


def test_hard_threshold_boundary_is_strict():
    # |x - y| == zeta is not kept: S = 0 there, so D - S = D.
    assert hard_threshold(np.array([[1.0]]), np.zeros((1, 1)), 1.0)[0, 0] == 1.0
    assert hard_threshold(np.array([[1.0]]), np.zeros((1, 1)), 0.5)[0, 0] == 0.0


def test_hard_threshold_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        hard_threshold(np.eye(2), np.zeros((2, 2)), -0.1)


@given(
    hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
    hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
    st.floats(0, 5),
)
@settings(max_examples=50)
def test_hard_threshold_pointwise_definition(D, L, zeta):
    D0, L0 = D.copy(), L.copy()
    rest = hard_threshold(D, L, zeta)
    assert D0.tobytes() == D.tobytes() and L0.tobytes() == L.tobytes()  # inputs only read
    for x, y, o in zip(D.ravel(), L.ravel(), rest.ravel()):
        assert o == x - (x - y if abs(x - y) > zeta else 0.0)


def whole_slab_rest(D, L, zeta):
    diff = D - L
    return D - diff * (np.abs(diff) > zeta)


@pytest.mark.parametrize("orders", ["CC", "FF", "FC", "CF"])
def test_hard_threshold_multi_block_matches_whole_slab_formula(orders):
    # The slab spans several blocks; any mix of memory orders gives the
    # whole-array d - s * keep bitwise, in D's order.
    D = np.asarray(rng.standard_normal((700, 150)), order=orders[0])
    L = np.asarray(rng.standard_normal((700, 150)), order=orders[1])
    assert D.nbytes > 3 * matcore.BLOCK_BYTES
    rest = hard_threshold(D, L, 1.0)
    assert rest.tobytes("C") == whole_slab_rest(D, L, 1.0).tobytes("C")
    assert rest.flags.f_contiguous == (orders[0] == "F")
    assert rest.flags.c_contiguous == (orders[0] == "C")


def test_sample_slabs_l_slabs_follow_d_slab_order():
    inst = make_problem(SyntheticSpec(60, 3, 0.1, RngSeed(65)))
    rows = sample_indices(60, 20, RngSeed(66).generator())
    cols = sample_indices(60, 20, RngSeed(67).generator())
    for D in (inst.D, np.asfortranarray(inst.D)):
        slabs = sample_slabs(D, rows, cols)
        cur, _, _ = step(slabs, inf_norm(D), 3)
        for s in (slabs, sample_slabs(D, rows, cols, cur)):
            assert s.l_rows.flags.f_contiguous == s.d_rows.flags.f_contiguous
            assert s.l_cols.flags.f_contiguous == s.d_cols.flags.f_contiguous
        assert slabs.d_cols.flags.f_contiguous  # a column gather


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("scale", [1.0, 2.0**520, 2.0**-660], ids=["unit", "2^520", "2^-660"])
def test_den_is_taken_at_the_draw(order, scale):
    # den is bitwise the two frob_norm passes over the D slabs, taken when
    # the draw is gathered, with or without an L to evaluate there, on a
    # C-order row slab and an F-order column slab of several blocks each.
    # Where the sum of squares overflows (2^520) or underflows (2^-660) it
    # is the plain sum, inf or 0, and step takes e from frob_ratio.
    D = np.asarray(rng.standard_normal((1200, 1100)) * scale, order=order)
    slabs = sample_slabs(D, sample_indices(1200, 200, RngSeed(68).generator()),
                         sample_indices(1100, 150, RngSeed(69).generator()))
    assert min(slabs.d_rows.nbytes, slabs.d_cols.nbytes) > 3 * matcore.BLOCK_BYTES
    assert slabs.d_rows.flags.c_contiguous and slabs.d_cols.flags.f_contiguous
    want = frob_norm(slabs.d_rows) + frob_norm(slabs.d_cols)
    assert slabs.den == want
    if scale == 1.0:
        assert 0.0 < want < math.inf
    else:
        assert want == (math.inf if scale > 1.0 else 0.0)
    # Steps on the same draw keep it.
    cur, _, _ = step(slabs, 2.0 * scale, 3)
    step(slabs, scale, 3)
    assert slabs.den == want
    assert sample_slabs(D, slabs.rows, slabs.cols, cur).den == want


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
    L = gen_low_rank(10, 3, RngSeed(5).generator())
    rows = sample_indices(10, 8, RngSeed(1).generator())
    cols = sample_indices(10, 8, RngSeed(2).generator())
    cur = exact_cur(L, rows, cols, 3)
    np.testing.assert_allclose(cur_eval(cur, rows=rows), cur.R, atol=1e-9)
    np.testing.assert_allclose(cur_eval(cur, cols=cols), cur.C, atol=1e-9)


def test_materialize_recovers_full_matrix():
    L = gen_low_rank(12, 2, RngSeed(8).generator())
    rows = sample_indices(12, 9, RngSeed(3).generator())
    cols = sample_indices(12, 9, RngSeed(4).generator())
    cur = exact_cur(L, rows, cols, 2)
    assert frob_norm(cur_eval(cur) - L) <= 1e-9 * frob_norm(L)


@pytest.mark.parametrize("order", ["C", "F"])
def test_cur_eval_rank_deficient_core_matches_dense_pinv(order):
    # A 9 x 7 estimate whose 3 x 4 core has rank 1, so some inv_sigma is 0;
    # C and R are unrelated to the core, so only the product is checked.
    # apply_right takes X V one way for a C-order X and another otherwise.
    g = np.random.default_rng(3)
    U = np.outer(g.standard_normal(3), g.standard_normal(4))
    fac = pinv_factor(U)
    assert fac.effective_rank == 1 and 0.0 in fac.inv_sigma
    cur = CurFactors(
        C=np.asarray(g.standard_normal((9, 4)), order=order), core_pinv=fac,
        R=g.standard_normal((3, 7)),
        rows=IndexSet(np.array([1, 4, 6]), 9), cols=IndexSet(np.array([0, 2, 3, 5]), 7),
    )
    U_pinv = np.linalg.pinv(U, rcond=1e-10)
    dense = cur.C @ U_pinv @ cur.R
    for rows in (None, IndexSet(np.array([0, 3, 4, 8]), 9)):
        for cols in (None, IndexSet(np.array([1, 2, 6]), 7)):
            expect = dense if rows is None else dense[rows.indices]
            expect = expect if cols is None else expect[:, cols.indices]
            np.testing.assert_allclose(cur_eval(cur, rows, cols), expect, atol=1e-10)
    X, Y = np.asarray(g.standard_normal((5, 4)), order=order), g.standard_normal((3, 6))
    assert X.flags.c_contiguous == (order == "C")
    np.testing.assert_allclose(fac.apply_right(X, Y), X @ U_pinv @ Y, atol=1e-10)


@pytest.mark.parametrize(
    "part,shape", [("C", (8, 4)), ("R", (3, 6)), ("core", (3, 3))], ids=["C", "R", "core"]
)
def test_cur_factors_reject_inconsistent_shapes(part, shape):
    g = np.random.default_rng(4)
    parts = {"C": (9, 4), "R": (3, 7), "core": (3, 4)}
    C, R, core = (g.standard_normal(shape if name == part else parts[name])
                  for name in ("C", "R", "core"))
    with pytest.raises(ValueError, match="inconsistent"):
        CurFactors(
            C=C, core_pinv=pinv_factor(core), R=R,
            rows=IndexSet(np.array([1, 4, 6]), 9), cols=IndexSet(np.array([0, 2, 3, 5]), 7),
        )


# ------------------------------------------------- one step: Phase I (sparse)


def test_phase1_full_suppression_at_init():
    D = rng.standard_normal((8, 8))
    rows = sample_indices(8, 5, RngSeed(0).generator())
    cols = sample_indices(8, 5, RngSeed(1).generator())
    _, sparse, _ = step(sample_slabs(D, rows, cols), inf_norm(D), 2)
    assert not sparse.row_values.any()
    assert not sparse.col_values.any()


def test_phase1_zero_residual_for_exact_factors():
    L = gen_low_rank(10, 2, RngSeed(2).generator())
    rows = sample_indices(10, 8, RngSeed(5).generator())
    cols = sample_indices(10, 8, RngSeed(6).generator())
    cur = exact_cur(L, rows, cols, 2)
    _, sparse, _ = step(sample_slabs(L, rows, cols, cur), 1e-8, 2)
    assert not sparse.row_values.any()
    assert not sparse.col_values.any()


def test_phase1_support_containment():
    # With cutoff >= max |L - L_k| the thresholded residual can only keep
    # genuinely corrupted entries.
    inst = make_problem(SyntheticSpec(20, 2, 0.15, RngSeed(3)))
    rows = sample_indices(20, 15, RngSeed(7).generator())
    cols = sample_indices(20, 15, RngSeed(8).generator())
    _, sparse, _ = step(sample_slabs(inst.D, rows, cols), inf_norm(inst.L), 2)
    s_rows = inst.S[rows.indices, :]
    s_cols = inst.S[:, cols.indices]
    assert np.all((sparse.row_values != 0) <= (s_rows != 0))
    assert np.all((sparse.col_values != 0) <= (s_cols != 0))


def test_phase1_intersection_agrees_exactly():
    inst = make_problem(SyntheticSpec(15, 2, 0.1, RngSeed(9)))
    rows = sample_indices(15, 10, RngSeed(1).generator())
    cols = sample_indices(15, 10, RngSeed(2).generator())
    cur = exact_cur(gen_low_rank(15, 2, RngSeed(4).generator()), rows, cols, 2)
    _, sparse, _ = step(sample_slabs(inst.D, rows, cols, cur), 0.3, 2)
    block_from_rows = sparse.row_values[:, cols.indices]
    block_from_cols = sparse.col_values[rows.indices, :]
    np.testing.assert_array_equal(block_from_rows, block_from_cols)


# ----------------------------------------------- one step: Phase II (low rank)


def test_phase2_reproduces_exact_rank_r():
    D = gen_low_rank(20, 3, RngSeed(12).generator())
    rows = sample_indices(20, 15, RngSeed(3).generator())
    cols = sample_indices(20, 15, RngSeed(4).generator())
    cur = exact_cur(D, rows, cols, 3)
    assert frob_norm(cur_eval(cur) - D) <= 1e-9 * frob_norm(D)


def test_phase2_zero_input():
    rows = sample_indices(6, 4, RngSeed(5).generator())
    cols = sample_indices(6, 4, RngSeed(6).generator())
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
    rows = sample_indices(30, 20, RngSeed(0).generator())
    cols = sample_indices(30, 20, RngSeed(1).generator())
    cur = exact_cur(D, rows, cols, 4)
    assert cur.core_pinv.effective_rank <= 4


# -------------------------------------------------- one step: residual error


def test_residual_error_exact_decomposition_is_zero():
    L = gen_low_rank(10, 2, RngSeed(6).generator())
    rows = sample_indices(10, 8, RngSeed(4).generator())
    cols = sample_indices(10, 8, RngSeed(5).generator())
    _, _, e = step(sample_slabs(L, rows, cols), inf_norm(L), 2)
    assert e <= 1e-12


def test_residual_error_matches_dense_oracle_after_perturbation():
    L = gen_low_rank(10, 2, RngSeed(16).generator())
    rows = sample_indices(10, 8, RngSeed(14).generator())
    cols = sample_indices(10, 8, RngSeed(15).generator())
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
    rows = sample_indices(5, 3, RngSeed(0).generator())
    cols = sample_indices(5, 3, RngSeed(1).generator())
    _, _, e = step(sample_slabs(np.zeros((5, 5)), rows, cols), 0.0, 1)
    assert e == 0.0


# ------------------------------------------------------------------- solve


def test_solve_exact_rank_r_converges_fast():
    D = gen_low_rank(50, 5, RngSeed(21).generator())
    cfg = SolverConfig(rank=5, zeta0=inf_norm(D), gamma=0.65, seed=RngSeed(22))
    cur, sparse, trace = solve(D, cfg)
    assert trace.converged and trace.errors[-1] <= 1e-5
    assert frob_norm(cur_eval(cur) - D) <= 1e-5 * frob_norm(D)


def test_solve_zero_matrix():
    calls = []
    cur, sparse, trace = solve(
        np.zeros((9, 7)), SolverConfig(rank=2), observer=lambda *a: calls.append(a[:2])
    )
    assert trace.converged
    assert trace.errors == [0.0] and trace.steps == [0]
    assert trace.iterations == 1 and len(trace.thresholds) == 1
    assert calls == [(1, trace.thresholds[0])]
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


@pytest.mark.parametrize("D", [np.ones(4), np.empty((0, 3))], ids=["1-D", "empty"])
def test_solve_rejects_a_non_matrix(D):
    with pytest.raises(ValueError, match="nonempty 2-D"):
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
    seen, ks = [], []

    def observer(k, zeta, cur, sparse, e):
        inter_rows = sparse.row_values[:, sparse.cols.indices]
        inter_cols = sparse.col_values[sparse.rows.indices, :]
        seen.append(
            np.array_equal(inter_rows, inter_cols)
            and cur.core_pinv.effective_rank <= 4
        )
        ks.append(k)

    _, _, trace = solve(inst.D, cfg, observer=observer)
    assert seen and all(seen)
    assert ks == [j + 1 for j in trace.steps]
    expected = [cfg.gamma**j * cfg.zeta0 for j in trace.steps]
    assert trace.thresholds == expected
    if trace.converged:
        assert trace.errors[-1] <= cfg.eps


def every_index_solve(D, cfg):
    """The solve loop with a step at every schedule index, built from the
    public pieces: (cur, sparse, errors, sampled sizes, converged)."""
    n1, n2 = D.shape
    if cfg.zeta0 is None:
        cfg = replace(cfg, zeta0=inf_norm(D))
    gen = cfg.seed.generator()
    m_rows = sample_count(n1, cfg.rank, cfg.c_rows)
    m_cols = sample_count(n2, cfg.rank, cfg.c_cols)
    slabs = sample_slabs(D, sample_indices(n1, m_rows, gen), sample_indices(n2, m_cols, gen))
    errors, sizes = [], []
    for k in range(cfg.max_iter):
        if cfg.mode == "resampled" and k > 0:
            rows = sample_indices(n1, m_rows, gen)
            cols = sample_indices(n2, m_cols, gen)
            slabs = sample_slabs(D, rows, cols, cur)
        cur, sparse, e = step(slabs, cfg.gamma**k * cfg.zeta0, cfg.rank)
        errors.append(e)
        sizes.append((slabs.rows.size, slabs.cols.size))
        if e <= cfg.eps:
            return cur, sparse, errors, sizes, True
    return cur, sparse, errors, sizes, False


def assert_matches_every_index_solve(D, cfg):
    cur, sparse, trace = solve(D, cfg)
    ref_cur, ref_sparse, errors, sizes, converged = every_index_solve(D, cfg)
    np.testing.assert_array_equal(cur.C, ref_cur.C)
    np.testing.assert_array_equal(cur.R, ref_cur.R)
    np.testing.assert_array_equal(cur.core_pinv.sigma, ref_cur.core_pinv.sigma)
    np.testing.assert_array_equal(sparse.row_values, ref_sparse.row_values)
    np.testing.assert_array_equal(sparse.col_values, ref_sparse.col_values)
    assert trace.iterations == len(errors)
    assert trace.converged == converged
    assert trace.errors == [errors[j] for j in trace.steps]
    assert list(zip(trace.sampled_rows, trace.sampled_cols)) == [sizes[j] for j in trace.steps]
    return trace


CORRUPTED = make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(30)))


@pytest.mark.parametrize("zeta0", [2.0 * inf_norm(CORRUPTED.L), None])
def test_fixed_solve_skips_idle_head_with_every_index_result(zeta0):
    cfg = SolverConfig(rank=5, zeta0=zeta0, max_iter=60, seed=RngSeed(31))
    trace = assert_matches_every_index_solve(CORRUPTED.D, cfg)
    assert trace.converged
    assert trace.steps[0] == 0 and trace.steps[1] > 1  # a skipped head
    assert trace.steps[1:] == list(range(trace.steps[1], trace.iterations))


def test_fixed_solve_max_iter_inside_skipped_head():
    cfg = SolverConfig(rank=5, zeta0=2.0 * inf_norm(CORRUPTED.L), seed=RngSeed(31))
    first_active = solve(CORRUPTED.D, cfg)[2].steps[1]
    max_iter = first_active - 1
    assert max_iter > 1
    trace = assert_matches_every_index_solve(CORRUPTED.D, replace(cfg, max_iter=max_iter))
    assert trace.steps == [0]
    assert trace.iterations == max_iter and not trace.converged


def test_fixed_solve_clean_instance_has_no_skip():
    inst = make_problem(SyntheticSpec(300, 5, 0.0, RngSeed(32)))
    cfg = SolverConfig(rank=5, seed=RngSeed(33))
    trace = assert_matches_every_index_solve(inst.D, cfg)
    assert trace.converged and trace.steps == list(range(trace.iterations))


def test_fixed_solve_active_first_step_has_no_skip():
    # Spikes far above zeta0 make step 1 threshold, and L_1 then fits the
    # rest of the slabs within a few later cutoffs: a skip taken there
    # would change the result.
    L = gen_low_rank(100, 3, RngSeed(36).generator())
    D = L.copy()
    D.flat[np.random.default_rng(37).choice(D.size, 100, replace=False)] = 100 * inf_norm(L)
    cfg = SolverConfig(rank=3, zeta0=10 * inf_norm(L), max_iter=60, seed=RngSeed(38))
    trace = assert_matches_every_index_solve(D, cfg)
    assert trace.converged and trace.steps == list(range(trace.iterations))


def solve_draws(cfg, shape, count):
    """The first ``count`` (I, J) draws of ``solve`` on a ``shape`` matrix."""
    gen = cfg.seed.generator()
    m_rows = sample_count(shape[0], cfg.rank, cfg.c_rows)
    m_cols = sample_count(shape[1], cfg.rank, cfg.c_cols)
    return [(sample_indices(shape[0], m_rows, gen), sample_indices(shape[1], m_cols, gen))
            for _ in range(count)]


def first_outside(sets, among=np.arange(300)):
    """The first of the indices ``among`` that none of the IndexSets ``sets`` holds."""
    return np.setdiff1d(among, np.concatenate([np.empty(0, np.int64), *(s.indices for s in sets)]))[0]


def test_fixed_solve_zeta0_between_slab_max_and_d_max_skips_the_idle_head():
    # A spike outside the first draw lifts max |D| above zeta0 while every
    # slab entry stays below it: step 1 thresholds nothing, and the skip,
    # decided from the slab maximum, is taken with every index's result.
    cfg = SolverConfig(rank=5, zeta0=inf_norm(CORRUPTED.D), max_iter=60, seed=RngSeed(31))
    [(rows, cols)] = solve_draws(cfg, CORRUPTED.D.shape, 1)
    D = CORRUPTED.D.copy()
    D[first_outside([rows]), first_outside([cols])] = 10.0 * cfg.zeta0
    trace = assert_matches_every_index_solve(D, cfg)
    assert trace.steps[0] == 0 and trace.steps[1] > 1


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_scans_all_of_d_only_for_the_default_zeta0(mode, monkeypatch):
    shapes = []

    def spy(M, B=None):
        shapes.append(M.shape)
        return inf_norm(M, B)

    monkeypatch.setattr(solver, "inf_norm", spy)
    monkeypatch.setattr(matcore, "inf_norm", spy)
    D = CORRUPTED.D
    for zeta0, full_scans in ((2.0 * inf_norm(CORRUPTED.L), 0), (None, 1)):
        shapes.clear()
        solve(D, SolverConfig(rank=5, zeta0=zeta0, mode=mode, max_iter=5, seed=RngSeed(31)))
        assert shapes.count(D.shape) == full_scans, zeta0
        # A fixed solve scans its first draw's two D slabs and, after the
        # idle step 1, the two slab residuals for m; resampled scans none.
        assert len(shapes) - full_scans == (4 if mode == "fixed" else 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("mode,draw", [("fixed", 0), ("resampled", 0), ("resampled", 1)])
def test_solve_rejects_a_non_finite_entry_in_a_sampled_slab(mode, draw, bad, monkeypatch):
    # The entry lies in draw ``draw``'s row slab and outside every earlier
    # draw, so only that draw's slabs can see it.  sample_slabs rejects it
    # as it gathers the draw, before any threshold pass on that draw.
    cfg = SolverConfig(rank=5, zeta0=2.0 * inf_norm(CORRUPTED.L), mode=mode, seed=RngSeed(31))
    *earlier, (rows, _) = solve_draws(cfg, CORRUPTED.D.shape, draw + 1)
    D = CORRUPTED.D.copy()
    D[first_outside([r for r, _ in earlier], rows.indices),
      first_outside([c for _, c in earlier])] = bad
    thresholded = []

    def spy(D, L, zeta):
        thresholded.append(D.shape)
        return hard_threshold(D, L, zeta)

    monkeypatch.setattr(solver, "hard_threshold", spy)
    seen = []
    with pytest.raises(ValueError, match="non-finite entries") as info:
        solve(D, cfg, observer=lambda k, *_: seen.append(k))
    assert type(info.value) is ValueError  # not numpy's LinAlgError from an SVD
    assert "sample_slabs" in [entry.name for entry in info.traceback]
    assert seen == list(range(1, draw + 1))
    assert len(thresholded) == 2 * draw  # both slabs of each earlier step only


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_with_zeta0_reads_no_entry_outside_its_draws(mode):
    # A NaN that no draw samples is never read, so it cannot be rejected,
    # and the factors come from the finite slabs alone.
    cfg = SolverConfig(rank=5, zeta0=2.0 * inf_norm(CORRUPTED.L), mode=mode, max_iter=3,
                       seed=RngSeed(31))
    draws = solve_draws(cfg, CORRUPTED.D.shape, 1 if mode == "fixed" else cfg.max_iter)
    D = CORRUPTED.D.copy()
    D[first_outside([r for r, _ in draws]), first_outside([c for _, c in draws])] = np.nan
    cur, _, trace = solve(D, cfg)
    assert len(trace.steps) >= 1
    assert np.isfinite(cur.C).all() and np.isfinite(cur.R).all()
    assert np.isfinite(cur.core_pinv.sigma).all()


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_zero_slabs_of_a_nonzero_matrix(mode):
    # The only nonzero entry lies outside the first draw, so the sampled
    # slabs are all zero (den = 0) while max |D| > 0.
    cfg = SolverConfig(rank=2, mode=mode, seed=RngSeed(35))
    gen = cfg.seed.generator()
    rows = sample_indices(200, sample_count(200, 2, cfg.c_rows), gen)
    cols = sample_indices(150, sample_count(150, 2, cfg.c_cols), gen)
    D = np.zeros((200, 150))
    D[np.setdiff1d(np.arange(200), rows.indices)[0],
      np.setdiff1d(np.arange(150), cols.indices)[0]] = 3.0
    trace = assert_matches_every_index_solve(D, cfg)
    assert trace.converged and trace.steps == [0] and trace.errors == [0.0]
    assert trace.thresholds == [3.0]


def test_resampled_solve_runs_every_index():
    cfg = SolverConfig(
        rank=5, zeta0=2.0 * inf_norm(CORRUPTED.L), mode="resampled", max_iter=60,
        seed=RngSeed(34),
    )
    trace = assert_matches_every_index_solve(CORRUPTED.D, cfg)
    assert trace.iterations > 1
    assert trace.steps == list(range(trace.iterations))
    assert trace.thresholds == [cfg.gamma**j * cfg.zeta0 for j in trace.steps]


def test_solve_matches_public_phase_ops_on_first_iteration():
    # The first solver iteration is one public step from L_0 = 0 on the
    # first draw, in either mode.  Everything, e included, agrees bitwise.
    inst = make_problem(SyntheticSpec(40, 3, 0.15, RngSeed(60)))
    for mode in ("resampled", "fixed"):
        cfg = SolverConfig(
            rank=3, zeta0=inf_norm(inst.D), mode=mode, max_iter=1, seed=RngSeed(61)
        )
        cur1, sp1, tr1 = solve(inst.D, cfg)
        cur, sp, e = step(sample_slabs(inst.D, cur1.rows, cur1.cols), cfg.zeta0, 3)
        np.testing.assert_array_equal(sp.row_values, sp1.row_values)
        np.testing.assert_array_equal(sp.col_values, sp1.col_values)
        np.testing.assert_array_equal(cur.C, cur1.C)
        np.testing.assert_array_equal(cur.R, cur1.R)
        np.testing.assert_array_equal(cur.core_pinv.sigma, cur1.core_pinv.sigma)
        assert e == tr1.errors[0]


def test_step_leaves_the_d_slabs_unchanged():
    inst = make_problem(SyntheticSpec(40, 3, 0.15, RngSeed(62)))
    rows = sample_indices(40, 20, RngSeed(63).generator())
    cols = sample_indices(40, 20, RngSeed(64).generator())
    slabs = sample_slabs(inst.D, rows, cols)
    d_rows, d_cols = slabs.d_rows.copy(), slabs.d_cols.copy()
    # The second step starts from L_1 and thresholds at a cutoff some
    # entries pass, so both phases write.
    for zeta in (inf_norm(inst.D), 1e-3):
        _, sparse, _ = step(slabs, zeta, 3)
        assert slabs.d_rows.tobytes() == d_rows.tobytes()
        assert slabs.d_cols.tobytes() == d_cols.tobytes()
    assert sparse.row_values.any()


def assert_l_slabs_are_cur_eval(slabs, cur):
    # Bitwise cur_eval on each slab, with the row slab's (I, J) block
    # copied into the column slab, in the D slabs' memory order.
    rows, cols = slabs.rows, slabs.cols
    want_rows = cur_eval(cur, rows, None)
    want_cols = cur_eval(cur, None, cols)
    want_cols[rows.indices, :] = want_rows[:, cols.indices]
    assert slabs.l_rows.tobytes("A") == want_rows.tobytes("C")
    assert slabs.l_cols.tobytes("A") == want_cols.tobytes("F")
    assert slabs.l_rows.flags.c_contiguous and slabs.l_cols.flags.f_contiguous


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_step_l_slabs_are_bitwise_cur_eval(mode, order):
    # A step evaluates L_{k+1} from the core it gathered (C[I] and R[:, J]),
    # and a resampled draw from fresh gathers of the last iterate's C and R;
    # either way the L slabs are those of cur_eval.  D is rectangular and
    # the cutoffs fall, so both phases write from the second step on.
    inst = make_problem(SyntheticSpec(150, 4, 0.1, RngSeed(97)))
    D = np.asarray(inst.D[:, :110], order=order)
    gen = RngSeed(98).generator()

    def draw():
        return sample_indices(150, 50, gen), sample_indices(110, 40, gen)

    slabs = sample_slabs(D, *draw())
    for zeta in (inf_norm(D), 0.5 * inf_norm(inst.L), 0.1 * inf_norm(inst.L)):
        if mode == "resampled" and zeta < inf_norm(D):
            slabs = sample_slabs(D, *draw(), cur)
            assert_l_slabs_are_cur_eval(slabs, cur)
        cur, sparse, _ = step(slabs, zeta, 4)
        assert_l_slabs_are_cur_eval(slabs, cur)
    assert sparse.row_values.any() and sparse.col_values.any()


@pytest.mark.parametrize("order", ["C", "F"])
def test_fixed_solve_skips_to_the_first_cutoff_below_the_slab_residual_max(order):
    # After an idle step 1, solve jumps to the first schedule index whose
    # cutoff lies below m = max |(D - S) - L_1| over both slabs of the first
    # draw, where D - S = D.
    inst = make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(94)))
    D = np.asarray(inst.D, order=order)
    cfg = SolverConfig(rank=5, max_iter=60, seed=RngSeed(95))
    [(rows, cols)] = solve_draws(cfg, D.shape, 1)
    slabs = sample_slabs(D, rows, cols)
    _, sparse, _ = step(slabs, inf_norm(D), 5)
    assert np.array_equal(sparse.rest_rows, slabs.d_rows)
    assert np.array_equal(sparse.rest_cols, slabs.d_cols)
    m = max(np.max(np.abs(slabs.d_rows - slabs.l_rows)),
            np.max(np.abs(slabs.d_cols - slabs.l_cols)))
    first = next(k for k in range(1, cfg.max_iter) if cfg.gamma**k * inf_norm(D) < m)
    _, _, trace = solve(D, cfg)
    assert first > 1 and trace.steps[:2] == [0, first]


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_registers_no_boolean_arrays(mode, monkeypatch):
    dtypes = []

    class RecordingMeter(matcore.AllocationMeter):
        def add_array(self, arr):
            dtypes.append(arr.dtype)
            return super().add_array(arr)

    monkeypatch.setattr(matcore, "ALLOCATIONS", RecordingMeter())
    inst = make_problem(SyntheticSpec(100, 4, 0.1, RngSeed(50)))
    cfg = SolverConfig(rank=4, zeta0=2.0 * inf_norm(inst.L), mode=mode, seed=RngSeed(51))
    _, sparse, trace = solve(inst.D, cfg)
    assert trace.iterations > 1 and sparse.row_values.any()
    assert dtypes and np.dtype(bool) not in dtypes


def exact_truncated_svd(M, r):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdFactors(W=U[:, :r], sigma=s[:r], V=Vt[:r].T)


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
@pytest.mark.parametrize("c,alpha", [(2.0, 0.2), (4.0, 0.3)])
def test_range_finder_core_matches_exact_svd_outcomes(mode, c, alpha, monkeypatch):
    # Cells at the edge of recovery, so both outcomes occur; at n=300 every
    # core is large enough for the range finder.
    outcomes = {}
    for kernel in ("range_finder", "exact"):
        if kernel == "exact":
            monkeypatch.setattr(solver, "truncated_svd", exact_truncated_svd)
        outcomes[kernel] = []
        for seed in range(4):
            inst = make_problem(SyntheticSpec(300, 5, alpha, RngSeed(seed, 90)))
            cfg = SolverConfig(rank=5, c_rows=c, c_cols=c, mode=mode, max_iter=60,
                               zeta0=2.0 * inf_norm(inst.L), seed=RngSeed(seed, 91))
            cur, _, trace = solve(inst.D, cfg)
            assert min(trace.sampled_rows) >= 2 * (5 + matcore.RANGE_OVERSAMPLE)
            outcomes[kernel].append((trace.iterations, trace.converged,
                                     success_check(cur, inst.L),
                                     cur.core_pinv.effective_rank))
    assert outcomes["range_finder"] == outcomes["exact"]


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


def test_steady_fixed_step_allocates_no_s_or_residual_slab():
    # Per steady step: the D - S slab pair (new R and C), block-sized
    # buffers and factor-sized products.  S slabs or a residual slab pair
    # would each add one more |I| * n2 + n1 * |J|.
    n = 2000
    inst = make_problem(SyntheticSpec(n, 5, 0.1, RngSeed(72)))
    cfg = SolverConfig(rank=5, max_iter=20, eps=1e-12, seed=RngSeed(73))
    _, _, trace = solve(inst.D, cfg)
    assert len(trace.allocated) > 2 and trace.steps[1] > 1  # steps after a skipped head
    for alloc, isize, jsize in list(zip(
        trace.allocated, trace.sampled_rows, trace.sampled_cols
    ))[1:]:
        assert alloc < 1.5 * (isize * n + n * jsize)


def test_fixed_solve_first_step_counts_its_draw():
    # Step 1 gathers the D slabs in either mode, so its trace entry holds
    # at least one slab pair more than a steady step's.
    n = 2000
    inst = make_problem(SyntheticSpec(n, 5, 0.1, RngSeed(72)))
    cfg = SolverConfig(rank=5, max_iter=20, eps=1e-12, seed=RngSeed(73))
    _, _, trace = solve(inst.D, cfg)
    isize, jsize = trace.sampled_rows[0], trace.sampled_cols[0]
    assert trace.allocated[0] - trace.allocated[1] >= isize * n + n * jsize


def s_writing_hard_threshold(D, L, zeta):
    """The threshold kernel that also wrote S: (S, D - S)."""
    S, rest = np.empty_like(D), np.empty_like(D)
    for d, l, s, keep in matcore.blocks(D, L, S, rest):
        np.subtract(d, l, out=s)
        np.abs(s, out=keep)
        np.greater(keep, zeta, out=keep)
        s *= keep
        np.subtract(d, s, out=keep)
    return S, rest


def slab_residual_norms(A, B=None, with_max=False):
    """frob_norm from a slab-sized A - B and a BLAS norm."""
    res = A if B is None else A - B
    f = float(np.linalg.norm(res, "fro"))
    if f < matcore.FROB_RESCALE_BELOW and res.any():
        f = inf_norm(res) * float(np.linalg.norm(res / inf_norm(res), "fro"))
    return (f, inf_norm(res)) if with_max else f


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_matches_the_kernels_that_wrote_s(mode, monkeypatch):
    # The solver with the kernels that wrote S and a residual slab swapped
    # back in, and den taken by two separate frob_norm passes: same
    # schedule, bitwise factors, and S = D - (D - S) equals the S those
    # kernels wrote.
    cases = [(c, alpha, seed) for c, alpha in [(4, .1), (2, .2), (1, .1), (4, .3)]
             for seed in range(2)]
    runs = {}
    for kernels in ("blocked", "s_writing"):
        written, residuals = [], []
        if kernels == "s_writing":
            def threshold_writing_s(D, L, zeta):
                S, rest = s_writing_hard_threshold(D, L, zeta)
                written.append(S)
                return rest
            def residual_norms(A, B=None, with_max=False):
                if B is None:  # den, at the draw
                    return matcore.frob_norm(A)
                residuals.append(with_max)
                return slab_residual_norms(A, B, with_max)
            monkeypatch.setattr(solver, "hard_threshold", threshold_writing_s)
            monkeypatch.setattr(solver, "frob_norm", residual_norms)
        runs[kernels] = []
        for c, alpha, seed in cases:
            inst = make_problem(SyntheticSpec(300, 5, alpha, RngSeed(seed, 92)))
            zeta0 = 2.0 * inf_norm(inst.L) if seed == 0 else None
            cfg = SolverConfig(rank=5, c_rows=c, c_cols=c, mode=mode, max_iter=60,
                               zeta0=zeta0, seed=RngSeed(seed, 93))
            cur, sparse, trace = solve(inst.D, cfg)
            S = written[-2:] if written else [sparse.row_values, sparse.col_values]
            runs[kernels].append((cur, S, trace))
    # Both swapped-in kernels ran on both slabs of every step.
    executed = sum(len(trace.steps) for _, _, trace in runs["s_writing"])
    assert len(written) == len(residuals) == 2 * executed
    for (cur, S, trace), (ref_cur, ref_S, ref) in zip(runs["blocked"], runs["s_writing"]):
        assert (trace.iterations, trace.steps, trace.converged) == (
            ref.iterations, ref.steps, ref.converged)
        for got, want in [(cur.C, ref_cur.C), (cur.R, ref_cur.R),
                          (cur.core_pinv.sigma, ref_cur.core_pinv.sigma)]:
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(trace.errors, ref.errors, rtol=1e-14, atol=0.0)
        for got, want in zip(S, ref_S):
            assert np.array_equal(got, want)


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
    gen = RngSeed(90).generator()
    L = gen.standard_normal((40, 3)) @ gen.standard_normal((25, 3)).T
    cur, _, trace = solve(L, SolverConfig(rank=3, seed=RngSeed(91)))
    assert trace.converged
    assert frob_norm(cur_eval(cur) - L) <= 1e-5 * frob_norm(L)


def test_solve_with_overestimated_rank():
    # A core of rank < r leaves trailing zero singular values; the solver
    # proceeds with the deficient pseudoinverse instead of failing.
    L = gen_low_rank(60, 2, RngSeed(94).generator())
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


@pytest.mark.parametrize("mode", ["fixed", "resampled"])
def test_solve_recovers_at_extreme_scales(mode):
    # At 2**520 the range finder's M (M^T Q) and the slab sums of squares
    # overflow; at 2**-660 they underflow; from 2**1015 the slab norms
    # themselves overflow, so e and success_check need one common scale.
    # All these scales are exact, so the unscaled L is an overflow-free oracle.
    inst = make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(3)))
    errors = {}
    for power in (0, 520, -660, 1015, 1016, 1017):
        D, L = np.ldexp(inst.D, power), np.ldexp(inst.L, power)
        cfg = SolverConfig(rank=5, zeta0=2.0 * inf_norm(L), mode=mode, seed=RngSeed(1))
        cur, _, trace = solve(D, cfg)
        oracle = frob_norm(np.ldexp(cur_eval(cur), -power) - inst.L) <= 1e-3 * frob_norm(inst.L)
        assert oracle and trace.converged and success_check(cur, L), power
        errors[power] = trace.errors
    # Where the slab sums of squares overflow or underflow, e comes from one
    # exact power-of-two scale, so it is bitwise e at unit scale.
    assert errors[520] == errors[0] == errors[-660]
    # At 2**1018 the core's singular values leave the float range: an
    # error, not a converged run with wrong factors.
    D, L = np.ldexp(inst.D, 1018), np.ldexp(inst.L, 1018)
    cfg = SolverConfig(rank=5, zeta0=2.0 * inf_norm(L), mode=mode, seed=RngSeed(1))
    with pytest.raises(ValueError, match="singular values overflow"):
        solve(D, cfg)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rank=0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, gamma=1.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, eps=np.inf)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, mode="sometimes")
    with pytest.raises(ValueError):
        SolverConfig(rank=1, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, zeta0=-2.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, zeta0=np.inf)
    with pytest.raises(ValueError):
        SolverConfig(rank=1, c_rows=0.0)
