"""Small dense factorizations and eigensolvers.

Everything here operates on matrices of modest order (restart dimensions,
typically 20-40), with the exception of :func:`dense_lu_solve`, a desk-scale
reference solver. All functions are pure and safe to call concurrently on
distinct data.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GivensChain",
    "UpperTriangularFactor",
    "SingularSystemError",
    "PencilConditionError",
    "givens_qr_hessenberg",
    "apply_chain",
    "back_substitute",
    "sym_eig_smallest",
    "gen_eig_largest_magnitude",
    "dense_lu_solve",
]

logger = logging.getLogger(__name__)

DENSE_SOLVE_CAP = 5000

_SINGULAR_DIAG_TOL = 1e-14
_PENCIL_COND_LIMIT = 1e12
_PENCIL_RESIDUAL_TOL = 1e-8
_COMPLEX_DISCARD_TOL = 1e-10


class SingularSystemError(RuntimeError):
    """A triangular or square solve hit a (near-)zero pivot."""


class PencilConditionError(RuntimeError):
    """The pencil's right-hand matrix is too ill-conditioned to invert.

    Callers treat this as a skip signal and fall back to an unaugmented
    cycle rather than aborting the solve.
    """


@dataclass
class GivensChain:
    """An ordered sequence of plane rotations acting on vectors of a fixed length.

    Each rotation is a ``(plane, c, s)`` triple mixing components ``plane``
    and ``plane + 1``; ``c**2 + s**2 == 1`` up to roundoff.
    """

    rotations: list = field(default_factory=list)
    size: int = 0


@dataclass
class UpperTriangularFactor:
    """The (p+1) x p triangular factor of a Hessenberg QR; the last row is zero."""

    R: np.ndarray

    @property
    def order(self):
        return self.R.shape[1]


def givens_qr_hessenberg(H):
    """QR-factor an upper Hessenberg matrix with plane rotations.

    Parameters
    ----------
    H : (p+1, p) array
        Upper Hessenberg: zero below the first subdiagonal.

    Returns
    -------
    chain : GivensChain
        Rotations such that applying them in order to ``H`` yields ``R``.
    factor : UpperTriangularFactor
        The triangular factor with a nonnegative diagonal.

    A zero column pivot produces the identity rotation ``(c, s) = (1, 0)``.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1] + 1:
        raise ValueError(f"expected a (p+1) x p matrix, got {H.shape}")
    p = H.shape[1]
    if p > 1 and np.any(np.tril(H, -2) != 0.0):
        raise ValueError("matrix has nonzeros below the first subdiagonal")
    R = H.copy()
    chain = GivensChain(rotations=[], size=p + 1)
    for j in range(p):
        a = R[j, j]
        b = R[j + 1, j]
        r = float(np.hypot(a, b))
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = a / r, b / r
        upper = c * R[j, j:] + s * R[j + 1, j:]
        R[j + 1, j:] = -s * R[j, j:] + c * R[j + 1, j:]
        R[j, j:] = upper
        R[j + 1, j] = 0.0
        chain.rotations.append((j, c, s))
    return chain, UpperTriangularFactor(R=R)


def apply_chain(chain, v):
    """Apply a rotation chain to a vector, preserving its norm."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (chain.size,):
        raise ValueError(f"vector length {v.shape} does not match chain size {chain.size}")
    out = v.copy()
    for j, c, s in chain.rotations:
        a, b = out[j], out[j + 1]
        out[j] = c * a + s * b
        out[j + 1] = -s * a + c * b
    return out


def back_substitute(factor, g):
    """Solve ``R[:p, :p] @ d = g`` for the leading square block of the factor.

    Raises :class:`SingularSystemError` when a diagonal entry is negligible
    relative to the factor's Frobenius norm, which upstream signals a
    rank-deficient search space.
    """
    R = factor.R
    p = factor.order
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (p,):
        raise ValueError(f"right-hand side length {g.shape} does not match order {p}")
    tol = _SINGULAR_DIAG_TOL * float(np.linalg.norm(R))
    d = np.zeros(p)
    for i in range(p - 1, -1, -1):
        if abs(R[i, i]) <= tol:
            raise SingularSystemError(f"diagonal entry {i} of the triangular factor is negligible")
        d[i] = (g[i] - R[i, i + 1 : p] @ d[i + 1 : p]) / R[i, i]
    return d


def _fix_signs(vectors):
    """Flip columns so the first non-negligible component is positive."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size and col[idx[0]] < 0.0:
            vectors[:, j] = -col
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
    order = np.argsort(values, kind="stable")[:k]
    return values[order], _fix_signs(vectors[:, order])


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
    g_fro = float(np.linalg.norm(G))
    f_fro = float(np.linalg.norm(F))
    thetas = []
    vectors = []
    for i in np.argsort(np.abs(eigvals), kind="stable"):
        theta = eigvals[i]
        if abs(theta.imag) > _COMPLEX_DISCARD_TOL * abs(theta.real):
            logger.debug("discarding complex pencil eigenvalue %s", theta)
            continue
        vec = np.real(eigvecs[:, i])
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            continue
        vec = vec / norm
        theta = float(theta.real)
        residual = np.linalg.norm(G @ vec - theta * (F @ vec))
        if residual > _PENCIL_RESIDUAL_TOL * (g_fro + abs(theta) * f_fro):
            logger.debug("discarding pencil pair with residual %.2e at theta=%.3e", residual, theta)
            continue
        thetas.append(theta)
        vectors.append(vec)
    if not thetas:
        return np.zeros(0), np.zeros((G.shape[0], 0))
    return np.array(thetas[-k:]), _fix_signs(np.column_stack(vectors[-k:]))


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
