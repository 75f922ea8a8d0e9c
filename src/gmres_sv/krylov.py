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

The basis grows by delayed classical Gram-Schmidt (DCGS2): the two
products of each step over the basis finish the previous column and
project the new direction, so the basis is read twice per step, and
:func:`finish_arnoldi` completes the last column and maps the raw
coefficients to ``H`` once per cycle.

The Krylov columns of ``W`` are the leading columns of ``Q``, so ``W`` is
never stored: the workspace keeps ``Q``, ``H`` and the small triangular
``S`` of the orthogonalization, the result keeps the
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

# Placeholders for the deleted Givens kernels, which perfbench's tracer rebinds; ROADMAP item 4 removes them.
apply_chain = givens_qr_hessenberg = None

__all__ = ["CycleWorkspace", "CycleResult", "arnoldi_expand", "finish_arnoldi", "run_cycle"]

_BREAKDOWN_TOL = 1e-12
_MINUS_EYE2 = -np.eye(2)
_PYTHAGORAS_TOL = 1e-8


class CycleWorkspace:
    """Basis and coefficient buffers of one solve, overwritten by each cycle.

    ``Q`` is stored column-major (``order="F"``), so each basis column is
    one contiguous vector and a leading block ``Q[:, :j+2]`` is one
    contiguous panel for the two products of each orthogonalization step.

    Attributes
    ----------
    Q : (n, m+1) array
        Basis extended by one column per step. Before step ``j`` its
        leading ``j`` columns are final and orthonormal, and column ``j``
        holds the provisional vector ``u_j``. The leading columns are also
        the Krylov columns of the search basis.
    H : (m+1, m) array
        Upper Hessenberg projection coefficients once
        :func:`finish_arnoldi` has run; during the steps, the raw
        coefficients of each direction.
    S : (m+1, m+1) array
        Upper triangular coordinates of the provisional vectors in the
        final basis, ``u_j = Q[:, :j+1] @ S[:j+1, j]``.

    ``S`` and ``H`` are transposed views of one ``(m+1, m+1, 2)`` buffer
    indexed by column first, so column ``j`` of both is one contiguous
    block that a step's Gram product fills with one call.

    The views that step ``j`` of :func:`arnoldi_expand` reads and writes
    are built here, once per solve, as are the column views of ``Q`` that
    :func:`run_cycle` multiplies by the matrix and writes each product
    into. At short vectors a step does little arithmetic, so slicing the
    same blocks anew at every step of every cycle would cost a noticeable
    share of it.
    """

    def __init__(self, n, m):
        self.m = m
        self.Q = Q = np.zeros((n, m + 1), order="F")
        self._SH = SH = np.zeros((m + 1, m + 1, 2))
        self.S = SH[:, :, 0].T
        self.H = SH[:m, :, 1].T
        # the 2 x 2 map of each step's update; its (1, 0) entry stays 0
        self._N = np.zeros((2, 2))
        self._columns = [Q[:, j] for j in range(m + 1)]
        # per step j: the next column Q[:, j+1], the panel Q[:, :j+2] transposed, the pair Q[:, j:j+2], and
        # column j of S and H (P) with its rows :j and its rows j, j+1
        self._steps = [
            (self._columns[j + 1], Q[:, : j + 2].T, Q[:, j : j + 2], SH[j, : j + 2], SH[j, :j], SH[j, j : j + 2])
            for j in range(m)
        ]


def arnoldi_expand(A, workspace, j, direction):
    """Take one delayed classical Gram-Schmidt (DCGS2) step.

    On entry ``Q[:, :j]`` is final and ``Q[:, j]`` holds the provisional
    vector ``u_j``, which has had one classical Gram-Schmidt pass.
    ``direction`` is ``A @ u_j`` for a Krylov step or the cached product
    ``A @ y`` for an augmentation step; it is copied into ``Q[:, j+1]``.
    ``direction=None`` means the caller has already copied it there, as
    :func:`run_cycle` does with ``Q[:, j+1][...] = spmv(A, Q[:, j])``. One
    product ``Q[:, :j+2].T @ Q[:, j:j+2]`` and one product of ``Q[:, :j+2]``
    with a two-column coefficient block then do two jobs: the second pass
    that turns ``u_j`` into the final unit vector ``q_j``, and the first
    pass of the direction against ``q_0 .. q_j``, whose remainder, divided
    by the direction's norm, becomes ``u_{j+1}``. Each step thus reads the
    basis twice where two full passes read it four times, and the basis
    stays orthogonal to working accuracy as with two passes (Swirydowicz,
    Langou, Ananthan, Yang & Thomas, Numer. Linear Algebra Appl. 2021;
    Bielich, Langou, Thomas, Swirydowicz, Yamazaki & Boman, Parallel
    Computing 2022). The norms and the coefficient on ``q_j`` come from the
    Gram entries of the first product. Where cancellation would leave the
    remainder's norm too few digits, the remainder is measured and
    normalized instead, and that measurement decides breakdown.

    Column ``j`` of ``S`` receives the coordinates of ``u_j``, and column
    ``j`` of ``H`` the direction's coefficients on ``q_0 .. q_j`` with the
    factor that divided its remainder below them; :func:`finish_arnoldi`
    maps these to the Hessenberg factor once the last step is done.

    Returns ``True`` on happy breakdown, i.e. when the remainder is
    negligible and no new basis vector can be formed; the cycle then solves
    with the columns accumulated so far.
    """
    ws = workspace
    v, panel_T, pair, P, head, tail = ws._steps[j]
    if direction is not None:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (A.n_rows,):
            raise ValueError("direction length does not match the matrix")
        v[:] = direction
    N = ws._N
    # P is column j of S and H: rows :j (head) hold [s | z] = Q[:, :j].T @ [u_j | w],
    # rows j and j+1 (tail) the Gram entries of u_j and w until they are overwritten
    np.dot(panel_T, pair, out=P)
    (uu, uw), (_, ww) = tail.tolist()
    (ss, sz), (_, zz) = head.T.dot(head).tolist()
    rho = math.sqrt(uu - ss)
    h = (uw - sz) / rho
    # |v|**2 = ww - zz - h**2 for the remainder v = w - Q[:, :j] @ z - h q_j, unless cancellation
    # (or a non-finite entry) spoils it; a remainder shorter than 1e-4 |w| is always measured, so
    # breakdown (below 1e-12 |w|) is decided on a measured norm
    measured = not ww - zz - h * h > _PYTHAGORAS_TOL * ww
    scale = 1.0 if measured else math.sqrt(ww)
    # [q_j | v / scale] = ([u_j | w] - Q[:, :j] @ [s | z]) @ [[1/rho, -h/(rho scale)], [0, 1/scale]]
    # is one product of Q[:, :j+2] with P @ N once rows j and j+1 of P read -I
    tail[...] = _MINUS_EYE2
    N[0, 0] = -1.0 / rho
    N[0, 1] = h / (rho * scale)
    N[1, 1] = -1.0 / scale
    pair[...] = P.dot(N).T.dot(panel_T).T
    P[j, 0] = rho
    P[j, 1] = h
    P[j + 1, 1] = scale
    if not measured:
        return False
    remainder = P[j + 1, 1] = math.sqrt(v.dot(v))
    if remainder <= _BREAKDOWN_TOL * math.sqrt(ww):
        # CycleResult.Q ends with this column; clear what an earlier cycle left
        v.fill(0.0)
        return True
    np.divide(v, remainder, out=v)
    return False


def finish_arnoldi(workspace, p, n_krylov, breakdown):
    """Finish the basis after ``p`` steps and map the raw coefficients to ``H``.

    Without breakdown, one more classical Gram-Schmidt pass against
    ``Q[:, :p]`` turns the provisional ``u_p`` into the final ``q_p``; on
    breakdown ``Q[:, p]`` is already zero. Raw column ``i`` of ``H``
    expanded its direction on ``q_0 .. q_i`` plus ``H[i+1, i]`` times
    ``u_{i+1} = Q @ S[:, i+1]``, so substituting that column of ``S``
    expresses it on the final basis. The first ``n_krylov`` directions were
    ``A @ u_i = A @ Q @ S[:, i]``, so one triangular solve gives
    ``A @ Q[:, :n_krylov] = Q @ H[:, :n_krylov]``; the augmentation columns
    already express ``A @ y``. ``S`` and its inverse are upper triangular,
    so ``H`` stays upper Hessenberg.
    """
    ws = workspace
    Q, S = ws.Q, ws.S
    if breakdown:
        S[:p, p] = 0.0
        S[p, p] = 1.0
    else:
        u = Q[:, p]
        s = Q[:, :p].T.dot(u)
        u -= Q[:, :p].dot(s)
        S[:p, p] = s
        S[p, p] = math.sqrt(u.dot(u))
        np.divide(u, S[p, p], out=u)
    H = ws.H[: p + 1, :p]
    H += (S[: p + 1, 1 : p + 1] - np.eye(p + 1, p, -1)) * np.diagonal(H, -1)
    kr = n_krylov
    # every u_i is at least 1e-4 long and its components along the earlier q's are rounding
    # errors, so S.T's diagonal dominates its columns: the LU swaps no rows and H keeps its zeros
    H[:, :kr] = np.linalg.solve(S[:kr, :kr].T, H[:, :kr].T).T


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
    columns = ws._columns
    for j in range(m):
        if j < m - k:
            # the product goes into the next basis column, where the step expects its direction
            columns[j + 1][...] = spmv(A, columns[j])
            direction = None
        else:
            direction = aug.AY[:, j - (m - k)]
        breakdown = arnoldi_expand(A, ws, j, direction)
        if breakdown:
            break
    p = j + 1
    n_matvecs = min(p, m - k)
    finish_arnoldi(ws, p, n_matvecs, breakdown)
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
    bnorm = float(np.linalg.norm(b))
    relres = abs(float(rotated[p])) / bnorm if bnorm > 0.0 else 0.0
    result = CycleResult(
        x_new=None, relres=relres, workspace=ws, R=R, rotated_rhs=rotated,
        n_matvecs=n_matvecs, n_cols=p, Y=Y, beta=beta,
    )
    result.x_new = result.W_times(d) + x0
    return result
