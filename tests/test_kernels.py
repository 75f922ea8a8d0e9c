import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import csr_from_dense
from gmres_sv.kernels import (
    PencilConditionError,
    SingularSystemError,
    back_substitute,
    band_qr_solve,
    bandwidths,
    dense_lu_solve,
    gen_eig_largest_magnitude,
    sym_eig_smallest,
)
from gmres_sv.sparse import csr_from_coo, gen_laplacian_1d


class TestBackSubstitute:
    def test_identity(self):
        factor = np.vstack([np.eye(3), np.zeros(3)])
        g = np.array([4.0, -1.0, 2.0])
        assert_allclose(back_substitute(factor, g), g, atol=0)

    def test_hand_solution(self):
        factor = np.array([[2.0, 1.0], [0.0, 4.0], [0.0, 0.0]])
        assert_allclose(back_substitute(factor, np.array([4.0, 8.0])), [1.0, 2.0], atol=0)

    def test_singular_diagonal(self):
        factor = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularSystemError):
            back_substitute(factor, np.array([1.0, 1.0]))
        # entries 0 and 2 are both negligible; the highest is the one named
        factor = np.array([[0.0, 1.0, 1.0], [0.0, 3.0, 1.0], [0.0, 0.0, 1e-16], [0.0, 0.0, 0.0]])
        with pytest.raises(SingularSystemError, match=r"^diagonal entry 2 of"):
            back_substitute(factor, np.ones(3))

    def test_zero_pivot_beside_a_nan(self):
        # the NaN makes the norm, and so the tolerance, NaN; LAPACK still meets the zero pivot
        factor = np.array([[np.nan, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularSystemError):
            back_substitute(factor, np.ones(2))


class TestSymEigSmallest:
    def test_diagonal_case(self):
        values, vectors = sym_eig_smallest(np.diag([5.0, 1.0, 3.0]), 2)
        assert_allclose(values, [1.0, 3.0], atol=1e-13)
        # eigenvectors are determined up to sign
        assert abs(abs(vectors[:, 0] @ [0.0, 1.0, 0.0]) - 1.0) <= 1e-12
        assert abs(abs(vectors[:, 1] @ [0.0, 0.0, 1.0]) - 1.0) <= 1e-12

    def test_two_by_two_hand_solution(self):
        values, vectors = sym_eig_smallest(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        assert_allclose(values, [1.0], atol=1e-13)
        assert abs(abs(vectors[:, 0] @ [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)]) - 1.0) <= 1e-12

    def test_gram_matrix_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        H = np.triu(rng.standard_normal((21, 20)), -1)
        R = np.linalg.qr(H, mode="r")
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


def pencil_reference(G, F, k):
    """Per-pair loop with the filters that ``gen_eig_largest_magnitude`` must reproduce."""
    cond = np.linalg.cond(F)
    if not np.isfinite(cond) or cond >= 1e12:
        raise PencilConditionError("reference")
    eigvals, eigvecs = np.linalg.eig(np.linalg.solve(F, G))
    g_fro, f_fro = np.linalg.norm(G), np.linalg.norm(F)
    thetas, vectors = [], []
    for i in np.argsort(np.abs(eigvals), kind="stable"):
        theta = eigvals[i]
        if abs(theta.imag) > 1e-10 * abs(theta.real):
            continue
        vec = np.real(eigvecs[:, i])
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            continue
        vec = vec / norm
        theta = float(theta.real)
        if np.linalg.norm(G @ vec - theta * (F @ vec)) > 1e-8 * (g_fro + abs(theta) * f_fro):
            continue
        thetas.append(theta)
        vectors.append(vec)
    if not thetas:
        return np.zeros(0), np.zeros((G.shape[0], 0))
    return np.array(thetas[-k:]), np.column_stack(vectors[-k:])


ENTRIES = st.floats(-4.0, 4.0, allow_subnormal=False) | st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, -2e-12])


def square(draw, m):
    return np.array(draw(st.lists(ENTRIES, min_size=m * m, max_size=m * m))).reshape(m, m)


@st.composite
def pencils(draw):
    m = draw(st.integers(1, 8))
    G = square(draw, m)
    if m >= 2 and draw(st.booleans()):
        # a rotation block with eigenvalues +-i, decoupled from the rest
        i = draw(st.integers(0, m - 2))
        G[i : i + 2, :] = 0.0
        G[:, i : i + 2] = 0.0
        G[i, i + 1], G[i + 1, i] = -1.0, 1.0
    F = np.eye(m) if draw(st.booleans()) else square(draw, m) + draw(st.sampled_from([0.0, 2.0, 8.0])) * np.eye(m)
    return G, F, draw(st.integers(1, m))


ROTATION_PENCIL = (np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]), np.eye(3), 3)


class TestWholeArrayKernelsMatchLoops:
    @settings(deadline=None, max_examples=200)
    @example(ROTATION_PENCIL)
    @example((np.zeros((2, 2)), np.eye(2), 2))
    @given(pencils())
    def test_pencil_filters(self, pencil):
        G, F, k = pencil
        try:
            ref_thetas, ref_vectors = pencil_reference(G, F, k)
        except PencilConditionError:
            with pytest.raises(PencilConditionError):
                gen_eig_largest_magnitude(G, F, k)
            return
        thetas, vectors = gen_eig_largest_magnitude(G, F, k)
        assert np.array_equal(thetas, ref_thetas)
        assert vectors.shape == ref_vectors.shape
        assert np.all(np.abs(vectors - ref_vectors) <= 1e-15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: back_substitute(np.eye(3, 2), np.ones(3)), "right-hand side length"),
        (lambda: sym_eig_smallest(np.ones((2, 3)), 1), "expected a square matrix"),
        (lambda: gen_eig_largest_magnitude(np.eye(2), np.eye(3), 1), "equal shape"),
        (lambda: dense_lu_solve(np.ones((2, 3)), np.ones(2)), "expected a square matrix"),
        (lambda: dense_lu_solve(np.eye(3), np.ones(2)), "right-hand side length"),
    ],
    ids=["back_substitute-rhs", "sym_eig-non-square", "pencil-shapes", "dense_lu-non-square", "dense_lu-rhs"],
)
def test_misshaped_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


def random_band(seed, n, kl, ku, dominant):
    """Dense random matrix with bandwidths at most (kl, ku); made strictly diagonally dominant on request."""
    rng = np.random.default_rng(seed)
    rows, cols = np.indices((n, n))
    dense = np.where((rows - cols <= kl) & (cols - rows <= ku), rng.standard_normal((n, n)), 0.0)
    if dominant:
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return dense


class TestBandQrSolve:
    def test_bandwidths(self):
        assert bandwidths(gen_laplacian_1d(5)) == (1, 1)
        assert bandwidths(csr_from_coo([(0, 2, 1.0), (3, 1, 1.0)], 4, 4)) == (2, 2)
        assert bandwidths(csr_from_coo([(2, 0, 1.0)], 3, 3)) == (2, 0)
        assert bandwidths(csr_from_coo([], 3, 3)) == (0, 0)

    # The block holds 32 columns: one short block, a partial last block,
    # whole blocks only, and one-sided bands.
    @settings(deadline=None, max_examples=150)
    @example(1, 0, 0, 0, False)
    @example(20, 4, 4, 1, True)
    @example(100, 3, 0, 2, True)
    @example(96, 0, 4, 3, False)
    @example(300, 4, 4, 4, False)
    @given(
        st.integers(1, 300),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_backward_error_and_agreement_with_lu(self, n, kl, ku, seed, dominant):
        dense = random_band(seed, n, kl, ku, dominant)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        try:
            x = band_qr_solve(csr_from_dense(dense), b)
        except SingularSystemError:
            # R's diagonal spans more than 1e14, a lower bound on the condition number
            assert not dominant
            assert np.linalg.cond(dense) >= 1e13
            return
        inf = np.inf
        residual = np.linalg.norm(b - dense @ x, inf)
        assert residual <= 1e-14 * (np.linalg.norm(dense, inf) * np.linalg.norm(x, inf) + np.linalg.norm(b, inf))
        if dominant:
            x_lu = dense_lu_solve(dense, b)
            assert np.linalg.norm(x - x_lu, inf) <= 1e-10 * np.linalg.norm(x_lu, inf)
