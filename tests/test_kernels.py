import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import csr_from_dense
from gmres_sv.kernels import (
    SingularSystemError,
    back_substitute,
    band_qr_solve,
    bandwidths,
    dense_lu_solve,
    gen_eig_largest_magnitude,
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


def random_factor(rng, m):
    """Upper-triangular ``m x m`` factor whose diagonal entries lie in +-[1, 2]."""
    return np.triu(rng.standard_normal((m, m)), 1) + np.diag(rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 2.0, m))


class TestGeneralizedPencil:
    def test_identity_right_side_reduces_to_symmetric(self):
        R = random_factor(np.random.default_rng(6), 6)
        G = R.T @ R
        values, vectors = gen_eig_largest_magnitude(R, np.eye(6), 3)
        # G is positive definite, so its largest-magnitude end is its top end
        ref_vals, ref_vecs = np.linalg.eigh(G)
        ref_vals, ref_vecs = ref_vals[-3:], ref_vecs[:, -3:]
        assert_allclose(values, ref_vals, rtol=1e-9, atol=1e-12 * np.linalg.norm(G))
        for i in range(3):
            assert abs(abs(vectors[:, i] @ ref_vecs[:, i]) - 1.0) <= 1e-8

    def test_diagonal_pencil_hand_solution(self):
        # G = diag(4, 9, 1) over F = diag(2, 3, 1): thetas 2, 3 and 1; the two largest come back in ascending order
        values, vectors = gen_eig_largest_magnitude(np.diag([2.0, 3.0, 1.0]), np.diag([2.0, 3.0, 1.0]), 2)
        assert_allclose(values, [2.0, 3.0], atol=1e-12)
        assert_allclose(np.abs(vectors), np.eye(3, 2), atol=1e-12)

    def test_largest_magnitude_selection(self):
        values, _ = gen_eig_largest_magnitude(np.diag([2.0, 3.0, 5.0]), np.diag([2.0, 3.0, 5.0]), 2)
        assert_allclose(sorted(values), [3.0, 5.0], atol=1e-12)

    def test_residual_bound_on_random_pencils(self):
        # the pencil residual of every returned pair, which no filter in the kernel checks
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            R = random_factor(rng, m)
            G = R.T @ R
            F = rng.standard_normal((m, m)) + m * np.eye(m)
            k = int(rng.integers(1, m + 1))
            values, vectors = gen_eig_largest_magnitude(R, F, k)
            for i in range(values.size):
                res = np.linalg.norm(G @ vectors[:, i] - values[i] * (F @ vectors[:, i]))
                bound = 1e-8 * (np.linalg.norm(G) + abs(values[i]) * np.linalg.norm(F))
                assert res <= bound
                assert abs(np.linalg.norm(vectors[:, i]) - 1.0) <= 1e-12

    # With R = I, mu = 1 / theta are F's diagonal entries, and a pair is dropped when
    # |mu| <= 3 eps ||F||_F = 9.4e-16: theta = 1e16 and theta = inf go, theta = 1e15 stays.
    @pytest.mark.parametrize(
        "tiny, expected",
        [(1e-16, [1.0, 1.0]), (0.0, [1.0, 1.0]), (1e-15, [1.0, 1.0, 1e15])],
        ids=["theta-1e16", "theta-inf", "theta-1e15-kept"],
    )
    def test_infinite_theta_pairs_dropped(self, tiny, expected):
        values, vectors = gen_eig_largest_magnitude(np.eye(3), np.diag([1.0, 1.0, tiny]), 3)
        assert_allclose(values, expected, rtol=1e-15)
        assert_allclose(np.abs(vectors), np.eye(3, len(expected)), atol=0)

    def test_singular_factor_rejected(self):
        # R = 0 makes G = 0: every theta is 0 and every mu = 1 / theta infinite, so M does not exist
        with pytest.raises(np.linalg.LinAlgError):
            gen_eig_largest_magnitude(np.zeros((2, 2)), np.eye(2), 2)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_power_of_two_scaling_is_exact(self, exponent):
        # (s R, s F) has thetas s theta; unscaled, its M or inv(R) @ z would leave the float range
        rng = np.random.default_rng(8)
        R, F = random_factor(rng, 6), rng.standard_normal((6, 6)) + 6 * np.eye(6)
        values, vectors = gen_eig_largest_magnitude(R, F, 3)
        s = 2.0**exponent
        scaled_values, scaled_vectors = gen_eig_largest_magnitude(s * R, s * F, 3)
        assert values.size == 3
        assert np.array_equal(scaled_values, s * values)
        assert np.array_equal(scaled_vectors, vectors)

    def test_complex_pair_discarded(self):
        # M = F: the rotation block has mu = +-i, so theta = -+i; only theta = 3 is real
        values, vectors = gen_eig_largest_magnitude(*ROTATION_PENCIL)
        assert_allclose(values, [3.0], atol=1e-12)
        assert_allclose(np.abs(vectors), np.eye(3)[:, 2:], atol=1e-12)


def pencil_reference(R, F, k):
    """Per-pair loop with the filters that ``gen_eig_largest_magnitude`` must reproduce."""
    er, ef = np.frexp([np.abs(R).max(), np.abs(F).max()])[1]
    R_inv = np.linalg.inv(np.ldexp(R, -er))
    M = R_inv.T @ np.ldexp(F, -ef) @ R_inv
    mus, zs = np.linalg.eig(M)
    gs = R_inv @ zs.real
    bound = R.shape[0] * np.finfo(np.float64).eps * np.linalg.norm(M)
    pairs = []
    for i in range(mus.size):
        if abs(mus[i]) <= bound:
            continue
        theta = np.ldexp(1.0, 2 * er - ef) / mus[i : i + 1]
        if abs(theta.imag[0]) > 1e-10 * abs(theta.real[0]):
            continue
        pairs.append((abs(theta[0]), float(theta.real[0]), gs[:, i] / np.linalg.norm(gs[:, i])))
    pairs = sorted(pairs, key=lambda pair: pair[0])[-k:]
    if not pairs:
        return np.zeros(0), np.zeros((R.shape[0], 0))
    return np.array([theta for _, theta, _ in pairs]), np.column_stack([vec for *_, vec in pairs])


ENTRIES = st.floats(-4.0, 4.0, allow_subnormal=False) | st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, -2e-12])
DIAGONAL = st.floats(0.5, 4.0) | st.floats(-4.0, -0.5)


def square(draw, m):
    return np.array(draw(st.lists(ENTRIES, min_size=m * m, max_size=m * m))).reshape(m, m)


@st.composite
def pencils(draw):
    m = draw(st.integers(1, 8))
    R = np.triu(square(draw, m), 1) + np.diag(draw(st.lists(DIAGONAL, min_size=m, max_size=m)))
    F = np.eye(m) if draw(st.booleans()) else square(draw, m) + draw(st.sampled_from([0.0, 2.0, 8.0])) * np.eye(m)
    if m >= 2 and draw(st.booleans()):
        # a rotation block, decoupled from the rest, whose mu are +-i when R = I
        i = draw(st.integers(0, m - 2))
        F[i : i + 2, :] = 0.0
        F[:, i : i + 2] = 0.0
        F[i, i + 1], F[i + 1, i] = 1.0, -1.0
    return R, F, draw(st.integers(1, m))


ROTATION_PENCIL = (np.eye(3), np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0 / 3.0]]), 3)


class TestWholeArrayKernelsMatchLoops:
    @settings(deadline=None, max_examples=200)
    @example(ROTATION_PENCIL)
    # F = 0: every mu is 0 and every theta infinite, so no pair comes back
    @example((np.eye(2), np.zeros((2, 2)), 2))
    @given(pencils())
    def test_pencil_filters(self, pencil):
        R, F, k = pencil
        ref_thetas, ref_vectors = pencil_reference(R, F, k)
        thetas, vectors = gen_eig_largest_magnitude(R, F, k)
        assert np.array_equal(thetas, ref_thetas)
        assert vectors.shape == ref_vectors.shape
        assert np.all(np.abs(vectors - ref_vectors) <= 1e-15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: back_substitute(np.eye(3, 2), np.ones(3)), "right-hand side length"),
        (lambda: gen_eig_largest_magnitude(np.eye(2), np.eye(3), 1), "equal shape"),
        (lambda: dense_lu_solve(np.ones((2, 3)), np.ones(2)), "expected a square matrix"),
        (lambda: dense_lu_solve(np.eye(3), np.ones(2)), "right-hand side length"),
    ],
    ids=["back_substitute-rhs", "pencil-shapes", "dense_lu-non-square", "dense_lu-rhs"],
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
