import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmres_sv.kernels import (
    PencilConditionError,
    SingularSystemError,
    UpperTriangularFactor,
    apply_chain,
    back_substitute,
    dense_lu_solve,
    gen_eig_largest_magnitude,
    givens_qr_hessenberg,
    sym_eig_smallest,
)
from gmres_sv.sparse import gen_laplacian_1d


def random_hessenberg(rng, p):
    return np.triu(rng.standard_normal((p + 1, p)), -1)


def signs_normalized(R):
    """Flip rows so the diagonal is nonnegative (QR sign gauge)."""
    R = R.copy()
    for i in range(R.shape[1]):
        if R[i, i] < 0:
            R[i, :] = -R[i, :]
    return R


class TestGivensQr:
    def test_three_four_five(self):
        chain, factor = givens_qr_hessenberg(np.array([[3.0], [4.0]]))
        assert_allclose(factor.R, [[5.0], [0.0]], atol=0)
        assert chain.rotations == [(0, 0.6, 0.8)]

    def test_zero_column_identity_rotation(self):
        chain, factor = givens_qr_hessenberg(np.zeros((2, 1)))
        assert_allclose(factor.R, np.zeros((2, 1)), atol=0)
        assert chain.rotations == [(0, 1.0, 0.0)]

    def test_against_householder_oracle(self):
        rng = np.random.default_rng(21)
        H = random_hessenberg(rng, 20)
        _, factor = givens_qr_hessenberg(H)
        R_oracle = np.linalg.qr(H, mode="r")
        diff = signs_normalized(factor.R[:20]) - signs_normalized(R_oracle[:20])
        assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(H)

    def test_chain_maps_input_to_factor(self):
        rng = np.random.default_rng(4)
        for p in (1, 2, 5, 12):
            H = random_hessenberg(rng, p)
            chain, factor = givens_qr_hessenberg(H)
            rotated = np.column_stack([apply_chain(chain, H[:, j]) for j in range(p)])
            assert np.linalg.norm(rotated - factor.R) <= 1e-13 * np.linalg.norm(H)

    def test_rotations_are_unit(self):
        rng = np.random.default_rng(9)
        chain, _ = givens_qr_hessenberg(random_hessenberg(rng, 8))
        for _, c, s in chain.rotations:
            assert abs(c * c + s * s - 1.0) <= 1e-14

    def test_rejects_non_hessenberg(self):
        M = np.ones((4, 3))
        with pytest.raises(ValueError, match="subdiagonal"):
            givens_qr_hessenberg(M)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="expected"):
            givens_qr_hessenberg(np.ones((3, 3)))


class TestApplyChain:
    def test_empty_chain_is_identity(self):
        from gmres_sv.kernels import GivensChain

        v = np.array([1.0, -2.0, 3.0])
        out = apply_chain(GivensChain(rotations=[], size=3), v)
        assert_allclose(out, v, atol=0)

    def test_three_four_five_vector(self):
        chain, _ = givens_qr_hessenberg(np.array([[3.0], [4.0]]))
        assert_allclose(apply_chain(chain, np.array([3.0, 4.0])), [5.0, 0.0], atol=1e-15)

    def test_norm_preservation(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = int(rng.integers(1, 10))
            chain, _ = givens_qr_hessenberg(random_hessenberg(rng, p))
            v = rng.standard_normal(p + 1)
            out = apply_chain(chain, v)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-13 * np.linalg.norm(v)

    def test_length_mismatch(self):
        chain, _ = givens_qr_hessenberg(np.array([[3.0], [4.0]]))
        with pytest.raises(ValueError, match="length"):
            apply_chain(chain, np.ones(5))


class TestBackSubstitute:
    def test_identity(self):
        factor = UpperTriangularFactor(R=np.vstack([np.eye(3), np.zeros(3)]))
        g = np.array([4.0, -1.0, 2.0])
        assert_allclose(back_substitute(factor, g), g, atol=0)

    def test_hand_solution(self):
        factor = UpperTriangularFactor(R=np.array([[2.0, 1.0], [0.0, 4.0], [0.0, 0.0]]))
        assert_allclose(back_substitute(factor, np.array([4.0, 8.0])), [1.0, 2.0], atol=0)

    def test_singular_diagonal(self):
        factor = UpperTriangularFactor(R=np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularSystemError):
            back_substitute(factor, np.array([1.0, 1.0]))


class TestSymEigSmallest:
    def test_diagonal_case(self):
        values, vectors = sym_eig_smallest(np.diag([5.0, 1.0, 3.0]), 2)
        assert_allclose(values, [1.0, 3.0], atol=1e-13)
        assert_allclose(vectors[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
        assert_allclose(vectors[:, 1], [0.0, 0.0, 1.0], atol=1e-12)

    def test_two_by_two_hand_solution(self):
        values, vectors = sym_eig_smallest(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        assert_allclose(values, [1.0], atol=1e-13)
        assert_allclose(vectors[:, 0], [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)], atol=1e-12)

    def test_gram_matrix_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        H = np.triu(rng.standard_normal((21, 20)), -1)
        _, factor = givens_qr_hessenberg(H)
        R = factor.R[:20]
        G = R.T @ R
        values, _ = sym_eig_smallest(G, 20)
        oracle = np.sort(np.linalg.svd(H, compute_uv=False) ** 2)
        assert_allclose(values, oracle, rtol=1e-8, atol=1e-12 * np.linalg.norm(G))

    def test_random_against_eigh_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(2, 16))
            G = rng.standard_normal((m, m))
            G = 0.5 * (G + G.T)
            k = int(rng.integers(1, m + 1))
            values, vectors = sym_eig_smallest(G, k)
            oracle = np.linalg.eigvalsh(G)[:k]
            scale = np.linalg.norm(G)
            assert np.max(np.abs(values - oracle)) <= 1e-10 * scale
            assert np.all(np.diff(values) >= -1e-12 * scale)
            # unit norm, mutual orthogonality, eigen residuals
            gram = vectors.T @ vectors
            assert np.max(np.abs(gram - np.eye(k))) <= 1e-10
            for i in range(k):
                res = np.linalg.norm(G @ vectors[:, i] - values[i] * vectors[:, i])
                assert res <= 1e-10 * scale

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig_smallest(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must"):
            sym_eig_smallest(np.eye(3), 4)


class TestGeneralizedPencil:
    def test_identity_right_side_reduces_to_symmetric(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((6, 6))
        G = G.T @ G
        values, vectors = gen_eig_largest_magnitude(G, np.eye(6), 3)
        # G is positive definite, so its largest-magnitude end is its top end
        ref_vals, ref_vecs = np.linalg.eigh(G)
        ref_vals, ref_vecs = ref_vals[-3:], ref_vecs[:, -3:]
        assert_allclose(values, ref_vals, rtol=1e-9, atol=1e-12 * np.linalg.norm(G))
        for i in range(3):
            assert abs(abs(vectors[:, i] @ ref_vecs[:, i]) - 1.0) <= 1e-8

    def test_diagonal_pencil_hand_solution(self):
        # thetas 2, 3 and 1: the two largest come back in ascending order
        G = np.diag([4.0, 9.0, 1.0])
        F = np.diag([2.0, 3.0, 1.0])
        values, vectors = gen_eig_largest_magnitude(G, F, 2)
        assert_allclose(values, [2.0, 3.0], atol=1e-12)
        assert_allclose(np.abs(vectors), np.eye(3, 2), atol=1e-12)

    def test_largest_magnitude_selection(self):
        G = np.diag([4.0, 9.0, 25.0])
        F = np.diag([2.0, 3.0, 5.0])
        values, _ = gen_eig_largest_magnitude(G, F, 2)
        assert_allclose(sorted(values), [3.0, 5.0], atol=1e-12)

    def test_residual_bound_on_random_pencils(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            G = rng.standard_normal((m, m))
            G = G.T @ G
            F = rng.standard_normal((m, m)) + m * np.eye(m)
            k = int(rng.integers(1, m + 1))
            values, vectors = gen_eig_largest_magnitude(G, F, k)
            for i in range(values.size):
                res = np.linalg.norm(G @ vectors[:, i] - values[i] * (F @ vectors[:, i]))
                bound = 1e-8 * (np.linalg.norm(G) + abs(values[i]) * np.linalg.norm(F))
                assert res <= bound
                assert abs(np.linalg.norm(vectors[:, i]) - 1.0) <= 1e-12

    def test_near_singular_pencil_rejected(self):
        G = np.eye(3)
        F = np.diag([1.0, 1.0, 1e-15])
        with pytest.raises(PencilConditionError):
            gen_eig_largest_magnitude(G, F, 1)

    def test_complex_pair_discarded(self):
        # the rotation block has eigenvalues +-i; only theta = 3 is real
        G = np.zeros((3, 3))
        G[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        G[2, 2] = 3.0
        values, vectors = gen_eig_largest_magnitude(G, np.eye(3), 3)
        assert_allclose(values, [3.0], atol=1e-12)
        assert_allclose(np.abs(vectors), np.eye(3)[:, 2:], atol=1e-12)


class TestDenseLuSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert_allclose(dense_lu_solve(np.eye(3), b), b, atol=0)

    def test_constructed_solution(self):
        A = gen_laplacian_1d(4).to_dense()
        x = np.array([1.0, 2.0, 3.0, 4.0])
        sol = dense_lu_solve(A, A @ x)
        assert_allclose(sol, x, rtol=1e-10, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((40, 40)) + 40 * np.eye(40)
        b = rng.standard_normal(40)
        x = dense_lu_solve(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_singular_rejected(self):
        with pytest.raises(SingularSystemError):
            dense_lu_solve(np.zeros((3, 3)), np.ones(3))

    def test_order_cap(self):
        big = np.broadcast_to(np.float64(0.0), (5001, 5001))
        with pytest.raises(ValueError, match="cap"):
            dense_lu_solve(big, np.ones(5001))
