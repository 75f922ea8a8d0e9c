"""One restart cycle of the augmented Arnoldi process.

A cycle builds the factorization ``A @ W = Q @ H`` where the search basis
``W`` holds ``m - k`` orthonormal Krylov vectors followed by ``k``
augmentation vectors carried over from the previous cycle, ``Q`` is an
orthonormal basis of the expanded space, and ``H`` is upper Hessenberg of
shape ``(m+1, m)``. The projected least-squares problem
``min_d || beta * e_1 - H @ d ||`` then yields the residual-optimal update
``x + W @ d``. One Householder QR of ``[H | beta * e_1]`` solves it: the
first columns of the factor are the triangular ``R`` of ``H`` and the last
is the rotated right-hand side, whose last entry is the residual norm.

The Krylov columns of ``W`` are the leading columns of ``Q``, so ``W`` is
never stored: the workspace keeps ``Q`` and ``H``, the result keeps the
``k`` augmentation columns ``Y`` by reference, and products with ``W`` are
split into a ``Q`` block and a ``Y`` block. One workspace serves every
cycle of a solve.

Workspaces are confined to a single solve and are not thread safe; the
sparse matrix they reference may be shared.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SingularSystemError, back_substitute
from .sparse import spmv

# Placeholders for the deleted Givens kernels, which perfbench's tracer rebinds; ROADMAP item 3 removes them.
apply_chain = givens_qr_hessenberg = None

__all__ = ["CycleWorkspace", "CycleResult", "arnoldi_expand", "run_cycle"]

_BREAKDOWN_TOL = 1e-12


class CycleWorkspace:
    """Basis and Hessenberg buffers of one solve, overwritten by each cycle.

    ``Q`` is stored column-major (``order="F"``), so each basis column is
    one contiguous vector and the leading block ``Q[:, :j+1]`` is a
    contiguous panel for the matrix-vector products of the
    orthogonalization.

    Attributes
    ----------
    Q : (n, m+1) array
        Orthonormal basis being extended one column per step; its leading
        columns are also the Krylov columns of the search basis.
    H : (m+1, m) array
        Upper Hessenberg projection coefficients.
    """

    def __init__(self, n, m):
        self.m = m
        self.Q = np.zeros((n, m + 1), order="F")
        self.H = np.zeros((m + 1, m))


def arnoldi_expand(A, workspace, j, direction):
    """Orthogonalize one expansion direction and append column ``j``.

    ``direction`` is ``A @ Q[:, j]`` for a Krylov step or the cached
    product ``A @ y`` for an augmentation step. Classical Gram-Schmidt runs
    twice against the whole basis ``Q[:, :j+1]``, each pass one pair of
    matrix-vector products, and the two coefficient vectors are summed; two
    passes keep the basis orthogonal to working accuracy (Giraud, Langou &
    Rozloznik, 2005).

    Returns ``True`` on happy breakdown, i.e. when the remainder is
    negligible and no new basis vector can be formed; the cycle then solves
    with the columns accumulated so far.
    """
    ws = workspace
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (A.n_rows,):
        raise ValueError("direction length does not match the matrix")
    scale = math.sqrt(direction.dot(direction))
    basis = ws.Q[:, : j + 1]
    coeffs = basis.T @ direction
    v = direction - basis @ coeffs
    extra = basis.T @ v
    v -= basis @ extra
    coeffs += extra
    remainder = math.sqrt(v.dot(v))
    ws.H[: j + 1, j] = coeffs
    ws.H[j + 1, j] = remainder
    if remainder <= _BREAKDOWN_TOL * scale:
        # CycleResult.Q ends with this column; clear what an earlier cycle left
        ws.Q[:, j + 1] = 0.0
        return True
    np.divide(v, remainder, out=ws.Q[:, j + 1])
    return False


@dataclass
class CycleResult:
    """Outcome of one restart cycle.

    ``relres`` equals the magnitude of the last entry of ``rotated_rhs``
    divided by ``norm(b)``; no extra matrix products are spent on it.
    ``R`` is the ``(n_cols+1, n_cols)`` triangular factor of ``H`` from
    LAPACK's Householder QR, so the signs of its diagonal are LAPACK's;
    ``R.T @ R = H.T @ H`` whatever they are.
    ``n_matvecs`` counts the sparse products consumed by the Krylov steps
    (augmentation steps reuse cached products and are free). ``Y`` holds
    the cycle's augmentation columns by reference, and ``beta`` the norm
    of its starting residual, so ``r0 = beta * Q[:, 0]``. ``W``, ``Q`` and
    ``H`` read the workspace, which the next cycle of the same solve
    overwrites.
    """

    x_new: np.ndarray
    relres: float
    workspace: CycleWorkspace
    R: np.ndarray
    rotated_rhs: np.ndarray
    n_matvecs: int
    n_cols: int
    Y: np.ndarray
    beta: float

    def split(self):
        """How many of the ``n_cols`` search-basis columns are Krylov columns and augmentation columns."""
        krylov = min(self.n_cols, self.n_matvecs)
        return krylov, self.n_cols - krylov

    def W_times(self, g):
        """``W @ g`` from the ``Q`` and ``Y`` blocks, without forming ``W``."""
        krylov, aug = self.split()
        out = self.workspace.Q[:, :krylov] @ g[:krylov]
        if aug:
            out += self.Y[:, :aug] @ g[krylov:]
        return out

    @property
    def W(self):
        """A column-major copy of the active search-basis columns, for audits."""
        krylov, aug = self.split()
        W = np.empty((self.Y.shape[0], self.n_cols), order="F")
        W[:, :krylov] = self.workspace.Q[:, :krylov]
        W[:, krylov:] = self.Y[:, :aug]
        return W

    @property
    def Q(self):
        """Active orthonormal-basis columns."""
        return self.workspace.Q[:, : self.n_cols + 1]

    @property
    def H(self):
        """Active Hessenberg block."""
        return self.workspace.H[: self.n_cols + 1, : self.n_cols]


def run_cycle(A, b, x0, aug, workspace, r0=None):
    """Run one restarted cycle from iterate ``x0``.

    Parameters
    ----------
    A : CsrMatrix
    b : (n,) array
    x0 : (n,) array
        Current iterate; the cycle minimizes the residual of ``x0 + W @ d``.
    aug : AugmentationSet or None
        Directions carried over from the previous cycle, with their cached
        products. ``None`` or an empty set gives a pure Krylov cycle.
    workspace : CycleWorkspace
        The solve's workspace, whose buffers the cycle overwrites; its
        ``m`` is the search-space dimension of the cycle.
    r0 : (n,) array, optional
        Precomputed starting residual ``b - A @ x0``; computed here when
        omitted.

    The augmented columns consume no matrix-vector products. The
    least-squares problem is solved by one ``numpy.linalg.qr`` of
    ``[H | beta * e_1]`` (no orthogonal factor is formed) and one
    triangular solve. On happy breakdown it is solved over the truncated
    system; if the truncated triangular factor is singular in its trailing
    column, that column is dropped before solving.

    The returned :class:`CycleResult` views the workspace, so it is valid
    only until the next cycle on the same workspace; ``solve`` calls its
    ``on_cycle`` hook before that.
    """
    b = np.asarray(b, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    r0 = b - spmv(A, x0) if r0 is None else np.asarray(r0, dtype=np.float64)
    ws = workspace
    n, m = ws.Q.shape[0], ws.m
    Y = np.zeros((n, 0)) if aug is None else aug.Y
    k = Y.shape[1]
    if r0.shape != (n,) or Y.shape[0] != n:
        raise ValueError("vector length does not match the workspace")
    if not k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    beta = math.sqrt(r0.dot(r0))
    if beta == 0.0:
        raise ValueError("starting residual is zero; nothing to solve")
    ws.H.fill(0.0)
    np.divide(r0, beta, out=ws.Q[:, 0])
    for j in range(m):
        if j < m - k:
            direction = spmv(A, ws.Q[:, j])
        else:
            direction = aug.AY[:, j - (m - k)]
        breakdown = arnoldi_expand(A, ws, j, direction)
        if breakdown:
            break
    p = j + 1
    n_matvecs = min(p, m - k)
    while True:
        system = np.zeros((p + 1, p + 1))
        system[:, :p] = ws.H[: p + 1, :p]
        system[0, p] = beta
        factor = np.linalg.qr(system, mode="r")
        R, rotated = factor[:, :p], factor[:, p]
        try:
            d = back_substitute(R, rotated[:p])
            break
        except SingularSystemError:
            # Only the breakdown column can be rank deficient; drop it.
            if not breakdown or p <= 1:
                raise
            p -= 1
    # x0 + W @ d, summed in the order of CycleResult.W_times
    krylov = min(p, n_matvecs)
    x_new = ws.Q[:, :krylov] @ d[:krylov]
    if p > krylov:
        x_new += Y[:, : p - krylov] @ d[krylov:]
    x_new += x0
    bnorm = float(np.linalg.norm(b))
    relres = abs(float(rotated[p])) / bnorm if bnorm > 0.0 else 0.0
    return CycleResult(
        x_new=x_new, relres=relres, workspace=ws, R=R, rotated_rhs=rotated,
        n_matvecs=n_matvecs, n_cols=p, Y=Y, beta=beta,
    )
