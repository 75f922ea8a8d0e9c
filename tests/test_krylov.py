import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import csr_from_dense, random_csr
from gmres_sv.kernels import back_substitute, dense_lu_solve
from gmres_sv.krylov import CycleWorkspace, arnoldi_expand, run_cycle
from gmres_sv.solvers import AugmentationSet, extract_singular_directions
from gmres_sv.sparse import gen_laplacian_1d, identity, spmv


def started(r0, m):
    """A workspace of dimension ``m`` restarted from ``r0`` with no augmentation."""
    ws = CycleWorkspace(r0.size, m)
    ws.restart(r0)
    return ws


class TestArnoldiExpand:
    def test_identity_breaks_down_immediately(self):
        A = identity(5)
        r0 = np.zeros(5)
        r0[0] = 1.0
        ws = started(r0, m=3)
        broke = arnoldi_expand(A, ws, 0, spmv(A, ws.Q[:, 0]))
        assert broke is True
        assert ws.breakdown is True
        assert ws.H[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert ws.ncols == 1

    def test_symmetric_matrix_gives_tridiagonal_projection(self):
        A = gen_laplacian_1d(10)
        r0 = np.zeros(10)
        r0[0] = 1.0
        ws = started(r0, m=4)
        for j in range(3):
            assert arnoldi_expand(A, ws, j, spmv(A, ws.Q[:, j])) is False
        assert abs(ws.H[0, 2]) <= 1e-12

    def test_workspace_invariants_on_random_matrix(self):
        rng = np.random.default_rng(42)
        A, dense = random_csr(rng, 50, 50, density=0.4, shift=4.0)
        r0 = rng.standard_normal(50)
        m = 10
        ws = started(r0, m=m)
        for j in range(m):
            assert arnoldi_expand(A, ws, j, spmv(A, ws.Q[:, j])) is False
        QtQ = ws.Q.T @ ws.Q
        assert np.max(np.abs(QtQ - np.eye(m + 1))) <= 1e-10
        W = ws.search_basis(ws.ncols)
        fact_gap = np.linalg.norm(dense @ W - ws.Q @ ws.H)
        assert fact_gap <= 1e-10 * np.linalg.norm(dense) * np.linalg.norm(W)
        e1 = np.zeros(m + 1)
        e1[0] = ws.beta
        assert np.linalg.norm(ws.Q.T @ r0 - e1) <= 1e-10 * ws.beta

    def test_two_pass_orthogonality_on_graded_diagonal(self):
        # One classical Gram-Schmidt pass loses orthogonality to ~1e-8 on
        # this spectrum; the second pass must restore it to working accuracy.
        dense = np.diag(np.logspace(0, 12, 100))
        A = csr_from_dense(dense)
        r0 = np.ones(100)
        m = 60
        ws = started(r0, m=m)
        assert ws.Q.flags.f_contiguous and ws.search_basis(ws.ncols).flags.f_contiguous
        for j in range(m):
            assert arnoldi_expand(A, ws, j, spmv(A, ws.Q[:, j])) is False
        assert np.max(np.abs(ws.Q.T @ ws.Q - np.eye(m + 1))) <= 1e-12
        W = ws.search_basis(ws.ncols)
        fact_gap = np.linalg.norm(dense @ W - ws.Q @ ws.H)
        assert fact_gap <= 1e-10 * np.linalg.norm(dense) * np.linalg.norm(W)

    def test_rejects_out_of_order_step(self):
        ws = started(np.ones(4), m=3)
        with pytest.raises(ValueError, match="expected expansion step"):
            arnoldi_expand(identity(4), ws, 2, np.ones(4))


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
        assert np.isfinite(result.relres)
        assert result.relres < 1.0

    def test_augmentation_count_must_stay_below_dimension(self):
        A = identity(4)
        aug = AugmentationSet(Y=np.ones((4, 2)), AY=np.ones((4, 2)), sigma_sq=np.ones(2))
        with pytest.raises(ValueError):
            run_cycle(A, np.ones(4), np.zeros(4), aug, CycleWorkspace(4, 2))

    def test_zero_starting_residual_rejected(self):
        A = identity(3)
        b = np.ones(3)
        with pytest.raises(ValueError, match="zero"):
            run_cycle(A, b, b.copy(), None, CycleWorkspace(b.size, 2))


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
        assert result.workspace.Y is aug.Y
        W = result.W
        assert W.flags.f_contiguous
        assert np.array_equal(W[:, :5], result.Q[:, :5])
        assert np.array_equal(W[:, 5:], aug.Y)
        u = np.random.default_rng(0).standard_normal(8)
        assert_allclose(result.workspace.W_times(u, 8), W @ u, rtol=0, atol=1e-14 * np.linalg.norm(W @ u))
