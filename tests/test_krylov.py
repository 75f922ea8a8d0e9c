import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import csr_from_dense, random_csr
from gmres_sv.kernels import back_substitute, dense_lu_solve
from gmres_sv.krylov import CycleWorkspace, arnoldi_expand, finish_arnoldi, run_cycle
from gmres_sv.solvers import AugmentationSet, extract_singular_directions
from gmres_sv.sparse import gen_laplacian_1d, identity, spmv


def started(r0, m):
    """A workspace of dimension ``m`` whose first basis column is ``r0`` scaled to unit length."""
    ws = CycleWorkspace(r0.size, m)
    ws.Q[:, 0] = r0 / np.linalg.norm(r0)
    return ws


def expanded(A, ws, steps, in_place=False):
    """Drive ``steps`` Krylov steps of ``arnoldi_expand`` and the finishing pass; return the breakdown flag.

    ``in_place`` copies each product into the next basis column and passes
    ``direction=None``, as ``run_cycle`` does; otherwise the step gets the
    allocated product to copy.
    """
    for j in range(steps):
        if in_place:
            ws.Q[:, j + 1] = spmv(A, ws.Q[:, j])
            breakdown = arnoldi_expand(A, ws, j, None)
        else:
            breakdown = arnoldi_expand(A, ws, j, spmv(A, ws.Q[:, j]))
        if breakdown:
            break
    finish_arnoldi(ws, j + 1, j + 1, breakdown)
    return breakdown


def assert_factorization(dense, W, Q, H, tol=1e-12):
    """``Q`` orthonormal to ``tol`` and ``dense @ W = Q @ H`` to working accuracy."""
    assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))) <= tol
    fact_gap = np.linalg.norm(dense @ W - Q @ H)
    assert fact_gap <= 1e-10 * np.linalg.norm(dense) * np.linalg.norm(W)


class TestArnoldiExpand:
    def test_identity_breaks_down_immediately(self):
        A = identity(5)
        r0 = np.zeros(5)
        r0[0] = 1.0
        ws = started(r0, m=3)
        assert expanded(A, ws, 3) is True
        assert ws.H[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert abs(ws.H[1, 0]) <= 1e-15
        assert not ws.Q[:, 1].any()

    def test_symmetric_matrix_gives_tridiagonal_projection(self):
        A = gen_laplacian_1d(10)
        r0 = np.zeros(10)
        r0[0] = 1.0
        ws = started(r0, m=4)
        assert expanded(A, ws, 3) is False
        assert abs(ws.H[0, 2]) <= 1e-12

    def test_workspace_invariants_on_random_matrix(self):
        rng = np.random.default_rng(42)
        A, dense = random_csr(rng, 50, 50, density=0.4, shift=4.0)
        r0 = rng.standard_normal(50)
        m = 10
        ws = started(r0, m=m)
        assert expanded(A, ws, m) is False
        assert_factorization(dense, ws.Q[:, :m], ws.Q, ws.H, tol=1e-10)
        assert np.array_equal(np.tril(ws.H, -2), np.zeros_like(ws.H))
        beta = np.linalg.norm(r0)
        e1 = np.zeros(m + 1)
        e1[0] = beta
        assert np.linalg.norm(ws.Q.T @ r0 - e1) <= 1e-10 * beta

    def test_two_pass_orthogonality_on_graded_diagonal(self):
        # One classical Gram-Schmidt pass loses orthogonality to ~1e-8 on
        # this spectrum; the delayed second pass must restore it to working accuracy.
        dense = np.diag(np.logspace(0, 12, 100))
        A = csr_from_dense(dense)
        r0 = np.ones(100)
        m = 60
        ws = started(r0, m=m)
        assert ws.Q.flags.f_contiguous
        assert expanded(A, ws, m) is False
        assert_factorization(dense, ws.Q[:, :m], ws.Q, ws.H)

    @pytest.mark.parametrize("case", ["identity", "random", "graded"])
    def test_product_in_place_matches_allocated_product(self, case):
        # run_cycle's form must leave Q, S and H byte for byte as a copied direction does,
        # also when the step breaks down or measures the remainder
        rng = np.random.default_rng(3)
        if case == "identity":
            A, r0, m = identity(6), np.eye(6)[0], 4
        elif case == "random":
            A, _ = random_csr(rng, 50, 50, density=0.4, shift=4.0)
            r0, m = rng.standard_normal(50), 10
        else:
            A, r0, m = csr_from_dense(np.diag(np.logspace(0, 12, 100))), np.ones(100), 60
        runs = []
        for in_place in (False, True):
            ws = started(r0, m)
            # stale values, as an earlier cycle leaves them, must not reach the result
            ws.Q[:, 1:] = np.nan
            runs.append((expanded(A, ws, m, in_place), ws))
        (flag, ws), (flag_in_place, ws_in_place) = runs
        assert flag == flag_in_place == (case == "identity")
        for name in ("Q", "S", "H"):
            assert getattr(ws, name).tobytes() == getattr(ws_in_place, name).tobytes()

    def test_augmented_cycle_on_graded_diagonal(self):
        # The same spectrum through run_cycle with k = 4 carried directions,
        # whose exact products enter as the last four steps.
        dense = np.diag(np.logspace(0, 12, 100))
        A = csr_from_dense(dense)
        Y = np.random.default_rng(7).standard_normal((100, 4))
        aug = AugmentationSet(Y=Y, AY=dense @ Y, sigma_sq=np.ones(4))
        result = run_cycle(A, np.ones(100), np.zeros(100), aug, CycleWorkspace(100, 60))
        assert result.split() == (56, 4)
        assert_factorization(dense, result.W, result.Q, result.H)


@st.composite
def cycle_runs(draw):
    """A random system of order 2-12, a cycle dimension ``m``, an augmentation count and a cycle count.

    Orders below ``m`` end the first cycle in happy breakdown.
    """
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, _ = random_csr(rng, n, n, density=draw(st.floats(0.1, 0.6)), shift=draw(st.floats(1.0, 6.0)))
    m = draw(st.integers(2, 8))
    return A, rng.standard_normal(n), m, draw(st.integers(0, m - 1)), draw(st.integers(1, 4))


def assert_matches_lstsq(result, x0, b):
    """Compare a cycle's small-problem solve with ``np.linalg.lstsq`` (LAPACK's SVD route) on its ``H`` and ``beta``.

    Also checks ``W_times`` against the assembled ``W``, whose Krylov/augmentation split it shares.
    """
    p, H, beta = result.n_cols, result.H, result.beta
    rhs = np.eye(p + 1)[0] * beta
    d, squares, rank, _ = np.linalg.lstsq(H, rhs, rcond=None)
    # lstsq reports ||beta e1 - H d||**2 from its own factorization when H has full rank; forming the
    # difference would add roundoff near eps ||H|| ||d||, above 1e-13 beta when H is ill-conditioned
    assert rank == p
    residual = np.sqrt(squares[0])
    W = result.W
    x_ref = x0 + W @ d
    assert np.linalg.norm(result.W_times(d) - W @ d) <= 1e-13 * np.linalg.norm(W) * np.linalg.norm(d)
    bnorm = np.linalg.norm(b)
    assert np.max(np.abs(result.R.T @ result.R - H.T @ H)) <= 1e-12 * np.linalg.norm(H) ** 2
    assert abs(abs(result.rotated_rhs[p]) - residual) <= 1e-13 * beta
    assert abs(result.relres - residual / bnorm) <= 1e-13 * beta / bnorm
    assert np.linalg.norm(result.x_new - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


class TestRunCycle:
    def test_identity_solves_in_one_breakdown_cycle(self):
        A = identity(6)
        b = np.arange(1.0, 7.0)
        result = run_cycle(A, b, np.zeros(6), None, CycleWorkspace(b.size, 1))
        assert_allclose(result.x_new, b, rtol=0, atol=1e-14)
        assert result.relres <= 1e-14
        assert result.n_cols == 1

    def test_full_space_cycle_matches_lu_oracle(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        A = csr_from_dense(dense)
        b = rng.standard_normal(20)
        result = run_cycle(A, b, np.zeros(20), None, CycleWorkspace(b.size, 20))
        oracle = dense_lu_solve(dense, b)
        assert np.linalg.norm(result.x_new - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_first_cycle_residual_is_rotated_rhs_byproduct(self):
        A = gen_laplacian_1d(1000)
        b = np.zeros(1000)
        b[0] = 1.0
        b[-1] = 1.0
        result = run_cycle(A, b, np.zeros(1000), None, CycleWorkspace(b.size, 20))
        assert result.relres < 1.0
        byproduct = abs(result.rotated_rhs[result.n_cols]) / np.linalg.norm(b)
        assert result.relres == byproduct
        explicit = np.linalg.norm(b - spmv(A, result.x_new)) / np.linalg.norm(b)
        assert abs(result.relres - explicit) <= 1e-10

    def test_residual_never_exceeds_starting_residual(self):
        rng = np.random.default_rng(8)
        A, _ = random_csr(rng, 40, 40, density=0.3, shift=2.0)
        b = rng.standard_normal(40)
        x0 = rng.standard_normal(40)
        r0 = b - spmv(A, x0)
        result = run_cycle(A, b, x0, None, CycleWorkspace(b.size, 7))
        assert result.relres <= np.linalg.norm(r0) / np.linalg.norm(b) + 1e-12

    def test_matvec_count_excludes_augmented_columns(self):
        A = gen_laplacian_1d(60)
        b = np.ones(60)
        first = run_cycle(A, b, np.zeros(60), None, CycleWorkspace(b.size, 8))
        assert first.n_matvecs == 8
        aug = extract_singular_directions(first, 3)
        second = run_cycle(A, b, first.x_new, aug, CycleWorkspace(b.size, 8))
        assert second.n_matvecs == 5

    def test_gram_shortcut_on_augmented_cycle(self):
        A = gen_laplacian_1d(60)
        b = np.ones(60)
        first = run_cycle(A, b, np.zeros(60), None, CycleWorkspace(b.size, 10))
        aug = extract_singular_directions(first, 3)
        result = run_cycle(A, b, first.x_new, aug, CycleWorkspace(b.size, 10))
        R = result.R
        G = R.T @ R
        AW = np.column_stack([spmv(A, result.W[:, j]) for j in range(result.n_cols)])
        gap = np.linalg.norm(G - AW.T @ AW)
        assert gap <= 1e-8 * np.linalg.norm(G)

    def test_factorization_probe_on_augmented_cycle(self):
        rng = np.random.default_rng(12)
        A, _ = random_csr(rng, 80, 80, density=0.2, shift=3.0)
        b = rng.standard_normal(80)
        first = run_cycle(A, b, np.zeros(80), None, CycleWorkspace(b.size, 9))
        aug = extract_singular_directions(first, 2)
        result = run_cycle(A, b, first.x_new, aug, CycleWorkspace(b.size, 9))
        a_fro = np.sqrt(np.sum(A.values**2))
        for _ in range(5):
            u = rng.standard_normal(result.n_cols)
            gap = np.linalg.norm(spmv(A, result.W @ u) - result.Q @ (result.H @ u))
            assert gap <= 1e-9 * a_fro * np.linalg.norm(u)

    def test_cycle_correction_is_local_minimum(self):
        rng = np.random.default_rng(5)
        A, _ = random_csr(rng, 30, 30, density=0.4, shift=2.0)
        b = rng.standard_normal(30)
        result = run_cycle(A, b, np.zeros(30), None, CycleWorkspace(b.size, 6))
        p = result.n_cols
        d = back_substitute(result.R, result.rotated_rhs[:p])
        base = np.linalg.norm(b - spmv(A, result.W @ d))
        for i in range(p):
            for delta in (1e-3, -1e-3):
                d_pert = d.copy()
                d_pert[i] += delta
                perturbed = np.linalg.norm(b - spmv(A, result.W @ d_pert))
                assert perturbed >= base - 1e-12 * np.linalg.norm(b)

    def test_dependent_augmentation_column_is_dropped(self):
        # A y is a multiple of A q_1, so the trailing column of the
        # triangular factor collapses and the cycle must retry without it.
        dense = np.diag([1.0, 2.0, 3.0, 4.0])
        A = csr_from_dense(dense)
        b = np.ones(4)
        r0 = b.copy()
        aug = AugmentationSet(
            Y=r0[:, None].copy(), AY=spmv(A, r0)[:, None], sigma_sq=np.array([1.0])
        )
        result = run_cycle(A, b, np.zeros(4), aug, CycleWorkspace(b.size, 2))
        assert result.n_cols == 1
        assert_matches_lstsq(result, np.zeros(4), b)
        assert np.isfinite(result.relres)
        assert result.relres < 1.0

    def test_augmentation_count_must_stay_below_dimension(self):
        A = identity(4)
        aug = AugmentationSet(Y=np.ones((4, 2)), AY=np.ones((4, 2)), sigma_sq=np.ones(2))
        with pytest.raises(ValueError):
            run_cycle(A, np.ones(4), np.zeros(4), aug, CycleWorkspace(4, 2))

    @pytest.mark.parametrize("r0_len, y_len", [(3, 4), (4, 3)], ids=["r0", "Y"])
    def test_vector_length_must_match_the_workspace(self, r0_len, y_len):
        aug = AugmentationSet(Y=np.ones((y_len, 1)), AY=np.ones((y_len, 1)), sigma_sq=np.ones(1))
        with pytest.raises(ValueError, match="vector length does not match the workspace"):
            run_cycle(identity(4), np.ones(4), np.zeros(4), aug, CycleWorkspace(4, 2), r0=np.ones(r0_len))

    def test_direction_length_must_match_the_matrix(self):
        with pytest.raises(ValueError, match="direction length does not match the matrix"):
            arnoldi_expand(identity(4), started(np.ones(4), 2), 0, np.ones(3))

    def test_zero_starting_residual_rejected(self):
        A = identity(3)
        b = np.ones(3)
        with pytest.raises(ValueError, match="zero"):
            run_cycle(A, b, b.copy(), None, CycleWorkspace(b.size, 2))


class TestSmallProblemAgainstLstsq:
    @settings(deadline=None, max_examples=150)
    @given(cycle_runs())
    def test_each_cycle_matches_lstsq(self, case):
        A, b, m, k, cycles = case
        ws = CycleWorkspace(b.size, m)
        x, aug = np.zeros(b.size), None
        for _ in range(cycles):
            result = run_cycle(A, b, x, aug, ws)
            assert_matches_lstsq(result, x, b)
            if result.relres <= 1e-10:
                break
            x = result.x_new
            aug = extract_singular_directions(result, k) if k else None


def cgs2_cycle(A, b, x0, aug, m):
    """Reference cycle: two full classical Gram-Schmidt passes per step, the small problem by ``lstsq``.

    Takes the same expansion directions as ``run_cycle`` and assumes no breakdown; returns the new iterate.
    """
    r0 = b - spmv(A, x0)
    beta = np.linalg.norm(r0)
    Y = np.zeros((b.size, 0)) if aug is None else aug.Y
    k = Y.shape[1]
    Q, H = np.zeros((b.size, m + 1)), np.zeros((m + 1, m))
    Q[:, 0] = r0 / beta
    for j in range(m):
        v = spmv(A, Q[:, j]) if j < m - k else aug.AY[:, j - (m - k)].copy()
        for _ in range(2):
            coeffs = Q[:, : j + 1].T @ v
            v -= Q[:, : j + 1] @ coeffs
            H[: j + 1, j] += coeffs
        H[j + 1, j] = np.linalg.norm(v)
        Q[:, j + 1] = v / H[j + 1, j]
    d = np.linalg.lstsq(H, beta * np.eye(m + 1)[0], rcond=None)[0]
    return x0 + np.hstack([Q[:, : m - k], Y]) @ d


class TestCycleAgainstReference:
    @settings(deadline=None, max_examples=150)
    @given(cycle_runs())
    def test_each_cycle_matches_two_pass_reference(self, case):
        A, b, m, k, cycles = case
        dense = np.column_stack([spmv(A, e) for e in np.eye(b.size)])
        ws = CycleWorkspace(b.size, m)
        x, aug = np.zeros(b.size), None
        for _ in range(cycles):
            result = run_cycle(A, b, x, aug, ws)
            p = result.n_cols
            breakdown = p < m or not result.Q[:, p].any()
            # a zero last column after breakdown is not part of the basis
            active = result.Q[:, : p + (not breakdown)]
            assert np.max(np.abs(active.T @ active - np.eye(active.shape[1]))) <= 1e-12
            W = result.W
            assert np.linalg.norm(dense @ W - result.Q @ result.H) <= 1e-10 * np.linalg.norm(dense) * np.linalg.norm(W)
            if not breakdown:
                x_ref = cgs2_cycle(A, b, x, aug, m)
                assert np.linalg.norm(result.x_new - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
            # a cycle after a solved one starts from rounding errors, and orders below m break down again
            if not (b - spmv(A, result.x_new)).any():
                break
            x = result.x_new
            aug = extract_singular_directions(result, k) if k else None


class TestWorkspaceReuse:
    def test_reused_workspace_matches_fresh_ones(self):
        A = gen_laplacian_1d(60)
        b = np.ones(60)
        ws = CycleWorkspace(60, 10)
        x_fresh = x_reused = np.zeros(60)
        aug_fresh = aug_reused = None
        for _ in range(4):
            fresh = run_cycle(A, b, x_fresh, aug_fresh, CycleWorkspace(b.size, 10))
            reused = run_cycle(A, b, x_reused, aug_reused, ws)
            assert reused.workspace is ws
            assert np.array_equal(fresh.x_new, reused.x_new)
            assert fresh.relres == reused.relres
            aug_fresh = extract_singular_directions(fresh, 3)
            aug_reused = extract_singular_directions(reused, 3)
            x_fresh, x_reused = fresh.x_new, reused.x_new

    def test_breakdown_clears_the_stale_column(self):
        ws = CycleWorkspace(6, 3)
        ws.Q[:] = np.nan  # whatever an earlier cycle left behind
        result = run_cycle(identity(6), np.arange(1.0, 7.0), np.zeros(6), None, ws)
        assert result.n_cols == 1
        assert not result.Q[:, 1].any()
        assert np.all(np.isfinite(extract_singular_directions(result, 1).AY))

    def test_search_basis_is_krylov_then_augmentation(self):
        A = gen_laplacian_1d(60)
        b = np.ones(60)
        first = run_cycle(A, b, np.zeros(60), None, CycleWorkspace(b.size, 8))
        aug = extract_singular_directions(first, 3)
        result = run_cycle(A, b, first.x_new, aug, CycleWorkspace(b.size, 8))
        assert result.Y is aug.Y
        W = result.W
        assert W.flags.f_contiguous
        assert np.array_equal(W[:, :5], result.Q[:, :5])
        assert np.array_equal(W[:, 5:], aug.Y)
        u = np.random.default_rng(0).standard_normal(8)
        assert_allclose(result.W_times(u), W @ u, rtol=0, atol=1e-14 * np.linalg.norm(W @ u))
