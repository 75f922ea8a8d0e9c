"""Small dense factorizations and eigensolvers.

Everything here operates on matrices of modest order (restart dimensions,
typically 20-40), except the reference solvers :func:`band_qr_solve`,
O(n w**2) for a band of width w, and :func:`dense_lu_solve`, O(n**3). All
functions are pure and safe to call concurrently on distinct data.

A restart cycle solves its small least-squares problem with one LAPACK QR
and :func:`back_substitute`.
"""

import logging

import numpy as np

__all__ = [
    "SingularSystemError",
    "PencilConditionError",
    "back_substitute",
    "sym_eig_smallest",
    "gen_eig_largest_magnitude",
    "dense_lu_solve",
    "bandwidths",
    "band_qr_solve",
]

logger = logging.getLogger(__name__)

DENSE_SOLVE_CAP = 5000

_SINGULAR_DIAG_TOL = 1e-14
_PENCIL_COND_LIMIT = 1e12
_PENCIL_RESIDUAL_TOL = 1e-8
_COMPLEX_DISCARD_TOL = 1e-10
# Columns per band QR block unless the band is wider. With kl + ku = 2, refined solves took 8.8 / 6.5 / 7.0 /
# 12.9 ms at order 1000 and 43.8 / 32.3 / 34.3 / 62.5 ms at 5000 for 16 / 32 / 64 / 128 (2-core Xeon, 1 thread).
_BAND_BLOCK = 32


class SingularSystemError(RuntimeError):
    """A triangular or square solve hit a (near-)zero pivot."""


class PencilConditionError(RuntimeError):
    """The pencil's right-hand matrix is too ill-conditioned to invert.

    Callers treat this as a skip signal and fall back to an unaugmented
    cycle rather than aborting the solve.
    """


def back_substitute(R, g):
    """Solve ``R[:p, :p] @ d = g`` for the leading square block of a ``(p+1, p)`` factor.

    Raises :class:`SingularSystemError`, naming the highest such index, when a
    diagonal entry is negligible relative to the factor's Frobenius norm,
    which upstream signals a rank-deficient search space. Otherwise one LAPACK
    solve; partial pivoting never swaps rows of an upper-triangular matrix.
    """
    p = R.shape[1]
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (p,):
        raise ValueError(f"right-hand side length {g.shape} does not match order {p}")
    negligible = np.flatnonzero(np.abs(np.diagonal(R)) <= _SINGULAR_DIAG_TOL * float(np.linalg.norm(R)))
    if negligible.size:
        raise SingularSystemError(f"diagonal entry {negligible[-1]} of the triangular factor is negligible")
    try:
        return np.linalg.solve(R[:p, :p], g)
    except np.linalg.LinAlgError as exc:
        # a zero pivot passes the test above only when a NaN makes the norm NaN
        raise SingularSystemError(str(exc)) from None


def _fix_signs(vectors):
    """Flip columns so the first component above 1e-12 in magnitude is positive.

    Columns with no such component are left as they are.
    """
    big = np.abs(vectors) > 1e-12
    lead = vectors[np.argmax(big, axis=0), np.arange(vectors.shape[1])]
    flip = big.any(axis=0) & (lead < 0.0)
    vectors[:, flip] = -vectors[:, flip]
    return vectors


def sym_eig_smallest(G, k):
    """Eigenpairs of a symmetric matrix by LAPACK's symmetric eigensolver.

    Returns the ``k`` algebraically smallest eigenvalues in ascending order
    and the matching orthonormal eigenvectors as columns, computed by
    ``numpy.linalg.eigh`` on the symmetric part of ``G``. Eigenvector signs
    are fixed so the first non-negligible component is positive.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got {G.shape}")
    m = G.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    fro = float(np.linalg.norm(G))
    if np.linalg.norm(G - G.T) > 1e-12 * max(fro, 1e-300):
        raise ValueError("matrix is not symmetric to working accuracy")
    values, vectors = np.linalg.eigh(0.5 * (G + G.T))
    return values[:k], _fix_signs(vectors[:, :k])


def gen_eig_largest_magnitude(G, F, k):
    """Up to ``k`` largest-magnitude real eigenpairs of ``G g = theta F g``.

    Reduces to the standard problem ``inv(F) @ G`` through an LU solve and
    filters out genuinely complex pairs as well as pairs whose pencil
    residual is out of tolerance, so fewer than ``k`` pairs may come back;
    callers fill the deficit. The pairs that remain come back in ascending
    magnitude. Raises :class:`PencilConditionError` when ``F`` is near
    singular.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    G = np.asarray(G, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    if G.shape != F.shape or G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("pencil matrices must be square and of equal shape")
    cond = np.linalg.cond(F)
    if not np.isfinite(cond) or cond >= _PENCIL_COND_LIMIT:
        raise PencilConditionError(f"condition estimate {cond:.2e} exceeds {_PENCIL_COND_LIMIT:.0e}")
    M = np.linalg.solve(F, G)
    eigvals, eigvecs = np.linalg.eig(M)
    order = np.argsort(np.abs(eigvals), kind="stable")
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    real = ~(np.abs(eigvals.imag) > _COMPLEX_DISCARD_TOL * np.abs(eigvals.real))
    # geev returns unit vectors whose largest component is real, so no real part is zero
    thetas, vectors = eigvals.real[real], eigvecs.real[:, real]
    vectors /= np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm(G @ vectors - thetas * (F @ vectors), axis=0)
    bounds = _PENCIL_RESIDUAL_TOL * (float(np.linalg.norm(G)) + np.abs(thetas) * float(np.linalg.norm(F)))
    accurate = np.flatnonzero(~(residuals > bounds))
    logger.debug(
        "pencil pairs discarded: %d complex, %d residuals out of tolerance",
        np.count_nonzero(~real),
        thetas.size - accurate.size,
    )
    kept = accurate[-k:]
    return thetas[kept], _fix_signs(vectors[:, kept])


def dense_lu_solve(A_dense, b):
    """Reference solve of a dense square system by LU with partial pivoting.

    Intended as the desk-scale oracle for error norms; the order is capped
    at ``DENSE_SOLVE_CAP``.
    """
    A_dense = np.asarray(A_dense, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A_dense.ndim != 2 or A_dense.shape[0] != A_dense.shape[1]:
        raise ValueError(f"expected a square matrix, got {A_dense.shape}")
    n = A_dense.shape[0]
    if n > DENSE_SOLVE_CAP:
        raise ValueError(f"order {n} exceeds the dense-solve cap of {DENSE_SOLVE_CAP}")
    if b.shape != (n,):
        raise ValueError(f"right-hand side length {b.shape} does not match order {n}")
    try:
        return np.linalg.solve(A_dense, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from None


def bandwidths(A):
    """Bandwidths ``(kl, ku)`` of a CSR matrix: the largest ``row - col`` and ``col - row``, at least 0."""
    offsets = np.repeat(np.arange(A.n_rows), np.diff(A.row_ptr)) - A.col_idx
    return int(offsets.max(initial=0)), int(-offsets.min(initial=0))


def band_qr_solve(A, b):
    """Reference solve of a square banded CSR system, without a dense copy, in O(n nb**2).

    Householder QR (Golub & Van Loan, *Matrix Computations*, sec. 5.2) of ``nb = max(kl + ku,
    32)`` columns ``[c0, c1)`` at a time, in a window over columns ``[c0, c1 + kl + ku)`` and the
    rows up to ``c1 + kl`` not yet in ``R``, then one refinement step (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 12). Raises :class:`SingularSystemError` when a
    diagonal entry of ``R`` is at most 1e-14 times the largest.
    """
    n = A.n_rows
    kl, ku = bandwidths(A)
    nb = max(_BAND_BLOCK, kl + ku)
    rows = np.repeat(np.arange(n), np.diff(A.row_ptr))
    blocks, carry, r0 = [], np.zeros((0, 0)), 0
    for c0 in range(0, n, nb):
        c1, r1 = min(c0 + nb, n), min(c0 + nb + kl, n)
        window = np.zeros((len(carry) + r1 - r0, min(c1 + kl + ku, n) - c0))
        window[: len(carry), : carry.shape[1]] = carry
        lo, hi = A.row_ptr[r0], A.row_ptr[r1]
        window[rows[lo:hi] - r0 + len(carry), A.col_idx[lo:hi] - c0] = A.values[lo:hi]
        Q, R = np.linalg.qr(window, mode="complete")
        blocks.append((c0, r0, r1, Q, R[: c1 - c0]))
        carry, r0 = R[c1 - c0 :, c1 - c0 :], r1
    diag = np.abs(np.concatenate([np.diag(R) for *_, R in blocks]))
    if not diag.min() > _SINGULAR_DIAG_TOL * diag.max():
        raise SingularSystemError("a diagonal entry of the band QR factor is negligible")

    def solve(rhs):
        heads, tail = [], np.zeros(0)
        for _c0, r0, r1, Q, R in blocks:
            head, tail = np.split(Q.T @ np.concatenate((tail, rhs[r0:r1])), [len(R)])
            heads.append(head)
        x = np.empty(n)
        for (c0, _r0, _r1, _Q, R), y in zip(blocks[::-1], heads[::-1]):
            k = len(R)
            x[c0 : c0 + k] = np.linalg.solve(R[:, :k], y - R[:, k:] @ x[c0 + k : c0 + R.shape[1]])
        return x

    x = solve(b)
    return x + solve(b - A @ x)
