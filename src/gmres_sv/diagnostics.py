"""Executable identity checks behind the singular-direction augmentation.

The augmentation strategy rests on a chain of exact identities: stepping
along a right singular direction by the residual-minimizing amount also
minimizes the error norm, first for directions of the full operator, then
for directions extracted from a subspace, with an explicit formula for the
error-reduction gap when the subspace does not contain the whole error.
The exact-direction suite is the subspace case with ``V = I``, so all
three draw random dense instances from one trial generator. Each suite
evaluates both sides of one identity with an SVD as the brute-force
oracle, and reports the worst relative deviation. Deviations are measured
relative to the error-vector norm (its square for the gap formula), the
natural scale of both sides.
"""

import numpy as np

from .sparse import spmv

__all__ = [
    "minimizing_step",
    "run_direction_identity_suite",
    "run_projected_identity_suite",
    "run_error_reduction_suite",
    "projection_residual_bound",
]

_TINY = 1e-300


def minimizing_step(target, direction):
    """Step length ``a`` minimizing ``norm(target - a * direction)``; 0.0 for a zero direction."""
    denom = float(direction @ direction)
    if denom == 0.0:
        return 0.0
    return float(target @ direction) / denom


def _pick_index(rng, svals, floor):
    """Random singular-value index with sigma above ``floor * sigma_max``."""
    valid = np.flatnonzero(svals > floor * svals[0])
    return int(valid[rng.integers(valid.size)])


def _trials(seed, n, trials, floor, subspace=True, in_range=False):
    """Random instances of the suites, drawn in the order each suite has fixed.

    A trial draws a dense ``A``, an orthonormal ``V`` of random width (``I``
    when not ``subspace``), ``x`` and ``x0``, whose error ``e = x - x0`` is
    ``V @ y`` when ``in_range`` and free otherwise. It picks a right singular
    pair ``(sigma, z)`` of ``A @ V`` above ``floor * sigma_max`` and yields
    ``(A, sigma, u, e, a_res, a_err)``: the direction ``u = V @ z`` and the
    residual- and error-minimizing steps from ``x0`` along it.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(1, n + 1)) if subspace else n
        A = rng.standard_normal((n, n))
        V = np.linalg.qr(rng.standard_normal((n, m)))[0] if subspace else np.eye(n)
        y = rng.standard_normal(m) if in_range else None
        x = rng.standard_normal(n)
        x0 = x - V @ y if in_range else rng.standard_normal(n)
        AV = A @ V
        _, svals, Vt = np.linalg.svd(AV)
        idx = _pick_index(rng, svals, floor)
        z = Vt[idx]
        u = V @ z
        e = x - x0
        yield A, svals[idx], u, e, minimizing_step(A @ x - A @ x0, AV @ z), minimizing_step(e, u)


def _worst_step_gap(trials):
    """Largest ``|a_res - a_err| / norm(e)`` over the trials."""
    gaps = (abs(a_res - a_err) / max(float(np.linalg.norm(e)), _TINY) for *_, e, a_res, a_err in trials)
    return max(gaps, default=0.0)


def run_direction_identity_suite(seed=0, n=30, trials=200):
    """Worst relative gap between the two step lengths for exact directions.

    For a right singular vector ``z`` of a dense random ``A``, the
    residual-minimizing step from ``x0`` along ``z`` equals the
    error-minimizing one. This is the subspace identity with ``V = I``.
    Returns the maximum of ``|a_res - a_err| / norm(x - x0)`` over the
    trials.
    """
    return _worst_step_gap(_trials(seed, n, trials, 1e-5, subspace=False))


def run_projected_identity_suite(seed=0, n=30, trials=200):
    """Worst relative gap for directions extracted from a subspace.

    Draws an orthonormal basis ``V``, places the error inside its range,
    and takes ``z`` as a right singular vector of ``A @ V``. The two step
    lengths along ``V @ z`` again coincide.
    """
    return _worst_step_gap(_trials(seed, n, trials, 1e-5, in_range=True))


def run_error_reduction_suite(seed=0, n=30, trials=200):
    """Worst relative deviation in the error-reduction gap formula.

    With an arbitrary error vector (not confined to the subspace), the
    squared error of the residual-optimal step exceeds that of the
    error-optimal step by exactly
    ``|<x - x0, (A.T A - sigma^2 I) V z>|^2 / sigma^4``. Both sides are
    compared relative to ``norm(x - x0)**2``. The singular index is drawn
    from the top part of the spectrum (``sigma >= sigma_max / 30``): the
    identity is exact for every pair, but the quartic ``1/sigma^4`` factor
    would otherwise amplify roundoff past any useful tolerance.
    """
    worst = 0.0
    for A, sigma, u, e, a1, a2 in _trials(seed, n, trials, 1.0 / 30.0):
        lhs = float(np.linalg.norm(e - a1 * u) ** 2 - np.linalg.norm(e - a2 * u) ** 2)
        rhs = float(e @ (A.T @ (A @ u) - sigma**2 * u)) ** 2 / sigma**4
        worst = max(worst, abs(lhs - rhs) / max(float(np.linalg.norm(e)) ** 2, _TINY))
    return worst


def projection_residual_bound(A, b, result):
    """Residual norm of a cycle versus its orthogonal-projection bound.

    The cycle's optimal residual can be no longer than the starting
    residual's component orthogonal to the image of the search space.
    Returns ``(norm(r_new), norm(r0 - P r0))`` where ``P`` projects onto
    the span of ``A @ W`` (Krylov image together with the cached
    augmentation products), built here by explicit products and a dense QR
    as the independent route.
    """
    ws = result.workspace
    r0 = ws.beta * ws.Q[:, 0]
    W = result.W
    AW = np.column_stack([spmv(A, W[:, j]) for j in range(W.shape[1])])
    U, _ = np.linalg.qr(AW)
    projected = U @ (U.T @ r0)
    bound = float(np.linalg.norm(r0 - projected))
    r_new = b - spmv(A, result.x_new)
    return float(np.linalg.norm(r_new)), bound
