"""Restart drivers and augmentation-direction extraction.

Three solver variants share one cycle engine:

``plain``
    Restarted GMRES over an m-dimensional Krylov space.
``sv``
    Each restart augments an (m-k)-dimensional Krylov space with k
    approximate right singular directions of the previous cycle's projected
    operator, taken from the SVD of the cycle's triangular factor
    ``CycleResult.R``, whose right singular vectors are those of ``H``. Both
    augmented variants map their coefficient vectors ``g`` to directions
    ``y = W @ g`` and rebuild ``A @ y`` as ``Q @ (H @ g)`` from the
    factorization, so augmented steps cost no matrix-vector products.
``hr``
    Same restart structure, but the carried directions come from the
    harmonic pencil ``G @ g = theta * (W.T A.T W) @ g``, solved through
    ``R`` as the standard problem ``inv(R).T (W.T A.T W) inv(R) z = z / theta``.
    The directions for the largest-magnitude values are used; this is the
    eigenvector-augmented reference baseline the sv variant is benchmarked
    against.

Matvec accounting follows the reporting convention for augmented restart
methods: the per-cycle count equals the number of Krylov expansion steps
(cached augmentation products are free), while a separate "true" counter
additionally charges the explicit restart residual computed each cycle.
"""

import logging
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .kernels import SingularSystemError, gen_eig_largest_magnitude
from .krylov import CycleWorkspace, run_cycle
from .sparse import CsrMatrix, spmv

__all__ = [
    "AugmentationSet",
    "SolverConfig",
    "CycleEntry",
    "SolveReport",
    "extract_singular_directions",
    "extract_harmonic_directions",
    "solve",
]

logger = logging.getLogger(__name__)

_DISCARD_SIGMA_TOL = 1e-14
_STAGNATION_REL_IMPROVEMENT = 1e-14
_STAGNATION_CYCLES = 10
# Matrices and right-hand sides whose largest entry lies outside [2**-400, 2**400] are scaled by a power
# of two first: their norms and the Arnoldi step's inner products would under- or overflow.
_SAFE_SCALE_EXPONENT = 400
VARIANTS = ("plain", "sv", "hr")
# Placeholder for the deleted symmetric eigensolver, which perfbench's tracer rebinds; ROADMAP item 4 removes it.
sym_eig_smallest = None


@dataclass
class AugmentationSet:
    """Directions carried across a restart, with cached operator products.

    ``Y`` holds the directions as columns, ``AY`` the matching products
    ``A @ Y``, and ``sigma_sq`` the extracted values (squared singular-value
    estimates for the sv variant, harmonic values for hr), ascending. The
    columns are stored exactly as produced by the extraction, without
    rescaling, so that ``AY`` stays consistent with ``Y`` to the accuracy of
    the underlying factorization.
    """

    Y: np.ndarray
    AY: np.ndarray
    sigma_sq: np.ndarray

    def __post_init__(self):
        if self.Y.shape != self.AY.shape:
            raise ValueError("Y and AY must have identical shapes")
        if self.sigma_sq.shape != (self.Y.shape[1],):
            raise ValueError("sigma_sq length must match the number of directions")

    @property
    def size(self):
        return self.Y.shape[1]


@dataclass
class SolverConfig:
    """Restart-loop configuration.

    ``k`` counts carried directions and must stay below the cycle dimension
    ``m``; the plain variant requires ``k == 0``.
    """

    variant: str
    m: int
    k: int = 0
    tol: float = 1e-8
    max_cycles: int = 300

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("m", "k", "max_cycles"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if not 0 <= self.k < self.m:
            raise ValueError(f"need 0 <= k < m, got k={self.k}, m={self.m}")
        if self.variant == "plain" and self.k != 0:
            raise ValueError("plain restarts do not carry directions; set k=0")
        if not (isinstance(self.tol, numbers.Real) and 0.0 < self.tol < math.inf):
            raise ValueError("tolerance must be positive and finite")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")


@dataclass
class CycleEntry:
    """One row of a convergence history; matvec counters are cumulative."""

    cycle: int
    relres: float
    error_norm: float | None
    paper_mvp: int
    true_mvp: int


@dataclass
class SolveReport:
    """Solve outcome; ``converged`` holds exactly when ``final_relres <= tol``.

    ``record`` lists one :class:`CycleEntry` per completed cycle, in order,
    each with the cycle's own residual estimate. ``final_relres`` is the
    larger of the last estimate and the relative residual recomputed from
    ``x``, so a cycle whose estimate has drifted from its iterate, as on a
    badly graded matrix, does not count as converged. When the residual
    recomputed from ``x`` is exactly 0.0, so is ``final_relres``, and the
    loop stops there.
    """

    x: np.ndarray
    converged: bool
    record: list
    final_relres: float
    final_error_norm: float | None = None


def _carried_set(cycle, values, vectors):
    """The carried set ``Y = W @ g``, ``AY = Q @ (H @ g)`` for the coefficient columns ``g`` of ``vectors``."""
    Y = cycle.W_times(vectors)
    AY = cycle.Q @ (cycle.H @ vectors)
    return AugmentationSet(Y=Y, AY=AY, sigma_sq=values)


def extract_singular_directions(cycle, k):
    """Approximate right singular directions from a completed cycle.

    One SVD of the cycle's factor ``R``, whose right singular vectors are
    those of the projected operator ``H``, gives the vectors ``g`` for the
    ``k`` smallest singular values ``s``, mapped back as ``Y = W @ g`` with
    cached products ``AY = Q @ (H @ g)`` and ``sigma_sq = s**2`` ascending;
    no Gram matrix squares the condition number. Directions whose ``s**2``
    is negligible relative to ``sqrt(sum(s**4))``, the norm of ``R.T @ R``,
    are dropped; the caller fills any deficit with extra Krylov steps.
    ``k < 1`` raises ``ValueError``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    p = cycle.n_cols
    _, s, vt = np.linalg.svd(cycle.R[:p, :p])
    # a power of two brings the largest value near 1 exactly, so no fourth power underflows
    scaled_sq = np.ldexp(s, -math.frexp(s[0])[1]) ** 2
    keep = scaled_sq > _DISCARD_SIGMA_TOL * math.sqrt(float(scaled_sq @ scaled_sq))
    # LAPACK orders s descending; take the min(k, p) smallest, ascending
    smallest = slice(None, -min(k, p) - 1, -1)
    s, vectors, keep = s[smallest], vt[smallest].T, keep[smallest]
    if not np.all(keep):
        logger.debug("discarding %d negligible singular directions", int(np.sum(~keep)))
    return _carried_set(cycle, s[keep] ** 2, vectors[:, keep])


def extract_harmonic_directions(cycle, k):
    """Harmonic-pencil directions from a completed cycle.

    Builds ``F = H.T @ (Q.T @ W)``, which equals ``W.T @ A.T @ W`` up to the
    factorization accuracy, and solves ``G @ g = theta * F @ g`` with
    ``G = R.T @ R`` as a standard eigenproblem through the cycle's factor
    ``R``. The ``k`` directions come from the largest-magnitude end of the
    spectrum, the behavior of the reference baseline this package
    benchmarks against. Pairs with an infinite ``theta``, which a singular
    ``F`` has, are dropped; an empty set signals the driver to fall back to
    a pure Krylov cycle. ``k < 1`` raises ``ValueError``.
    """
    p = cycle.n_cols
    # The Krylov columns of W are the leading columns of the orthonormal Q.
    krylov, aug = cycle.split()
    QtW = np.eye(p + 1, p)
    QtW[:, krylov:] = cycle.Q.T @ cycle.Y[:, :aug]
    F = cycle.H.T @ QtW
    values, vectors = gen_eig_largest_magnitude(cycle.R[:p, :p], F, min(k, p))
    carried = _carried_set(cycle, values, vectors)
    norms = np.sqrt(np.einsum("ij,ij->j", carried.Y, carried.Y))
    keep = np.flatnonzero(norms > 1e-14 * max(1.0, float(norms.max(initial=0.0))))
    if keep.size < values.size:
        logger.debug("discarding %d degenerate harmonic directions", values.size - keep.size)
    order = keep[np.argsort(values[keep], kind="stable")]
    return AugmentationSet(Y=carried.Y[:, order], AY=carried.AY[:, order], sigma_sq=values[order])


def _scale_exponent(values):
    """The exponent that brings ``max(abs(values))`` into ``[0.5, 1)`` when it lies outside the safe range, else 0."""
    exponent = math.frexp(np.max(np.abs(values), initial=0.0))[1]
    return exponent if abs(exponent) > _SAFE_SCALE_EXPONENT else 0


def solve(A, b, x0, config, x_ref=None, on_cycle=None):
    """Run the configured restart loop until convergence or budget exhaustion.

    Parameters
    ----------
    A : CsrMatrix
        Square coefficient matrix.
    b : (n,) array
    x0 : (n,) array or None
        Starting iterate; ``None`` means the zero vector.
    config : SolverConfig
    x_ref : (n,) array, optional
        Reference solution; when given, each cycle logs the error norm
        ``norm(x - x_ref)``, rescaled by its largest entry where the sum of
        the squares of the entries under- or overflows.
    on_cycle : callable, optional
        Diagnostics hook invoked as ``on_cycle(cycle_index, cycle_result)``
        after each cycle is recorded and before the next one reuses the
        workspace the result views.

    Returns
    -------
    SolveReport
        Budget exhaustion, stagnation, a singular projected system and a
        cycle whose iterate or residual is not finite yield
        ``converged=False`` with the last finite iterate and its relative
        residual rather than an exception.
        A stagnation guard stops the loop after 10 consecutive cycles with
        relative residual improvement below 1e-14. A starting residual too
        large to measure against ``b`` runs no cycle and reports
        ``final_relres=inf``. When no cycle completes, ``x`` is ``x0``,
        unchanged; a zero ``b`` returns the zero vector.

    When the largest entry of ``b`` lies outside ``[2**-400, 2**400]``, the
    loop solves for ``b * 2**-e``, with ``e`` the exponent that brings it
    into ``[0.5, 1)``, and likewise for ``A`` with its exponent ``a``; it
    starts from ``x0 * 2**(a - e)`` and returns ``x * 2**(e - a)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 27). The shifts
    are exact for every entry that stays in the normal range, so relative
    residuals are those of the given system; ``on_cycle`` then sees the
    scaled cycle. A subnormal ``b`` works too, but an ``x`` whose entries
    are subnormal keeps only the bits they can hold, and an ``x`` that
    overflows is reported with ``final_relres=inf``, unconverged.

    Raises
    ------
    ValueError
        When the shapes disagree or ``A``, ``b``, ``x0`` or ``x_ref`` holds
        a NaN or an infinity.

    Each call is single threaded; concurrent calls sharing the same matrix
    are safe.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("coefficient matrix must be square")
    b = np.asarray(b, dtype=np.float64)
    for name, data in (("right-hand side", b), ("starting iterate", x0), ("reference solution", x_ref)):
        if data is not None and np.shape(data) != (A.n_rows,):
            raise ValueError(f"{name} length does not match the matrix")
    start = np.zeros(A.n_rows) if x0 is None else np.asarray(x0, dtype=np.float64)
    checked = [("matrix", A.values), ("right-hand side", b), ("starting iterate", start), ("reference solution", x_ref)]
    for name, data in checked:
        if data is not None and not np.all(np.isfinite(data)):
            raise ValueError(f"{name} holds non-finite entries")
    record = []
    a_exp, b_exp = (_scale_exponent(values) for values in (A.values, b))
    # np.ldexp shifts each entry's exponent: no scale factor that could
    # itself under- or overflow is formed
    if a_exp:
        A = CsrMatrix(A.n_rows, A.n_cols, A.row_ptr, A.col_idx, np.ldexp(A.values, -a_exp))
    b = np.ldexp(b, -b_exp)
    exponent = b_exp - a_exp
    bnorm = float(np.linalg.norm(b))

    def err(vec, shift):
        """The error norm of ``vec * 2**shift``; ``None`` without a reference."""
        if x_ref is None:
            return None
        with np.errstate(over="ignore"):
            diff = np.ldexp(vec, shift) - x_ref
            norm = float(np.linalg.norm(diff))
            if not np.finfo(np.float64).tiny <= norm * norm < math.inf and diff.any():
                # the sum of squares leaves the normal range; rescale by the largest entry
                scale = float(np.max(np.abs(diff)))
                if math.isfinite(scale):
                    norm = scale * float(np.linalg.norm(diff / scale))
        return norm

    if bnorm == 0.0:
        # x = 0 solves the system exactly; its relres of 0.0 runs no cycle
        start = np.zeros(A.n_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.ldexp(start, -exponent)
        r = b - spmv(A, x)
        relres = float(np.linalg.norm(r)) / bnorm if bnorm else 0.0
    if not math.isfinite(relres):
        # A starting residual whose size relative to b overflows would only
        # carry infinities through the cycles; report it unconverged.
        relres = math.inf
    true_mvp = 1
    paper_mvp = 0
    # a start that meets tol or cannot be measured runs no cycle and needs no workspace
    cycles = config.max_cycles if config.tol < relres < math.inf else 0
    workspace = CycleWorkspace(A.n_rows, config.m) if cycles else None
    aug = None
    prev_relres = final_relres = relres
    stagnant = 0
    for cycle in range(1, cycles + 1):
        try:
            # a pivot too small for the float range overflows here; the
            # finiteness test below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                result = run_cycle(A, b, x, aug, workspace, r0=r)
                r_new = b - spmv(A, result.x_new)
                true_relres = float(np.linalg.norm(r_new)) / bnorm
        except SingularSystemError as exc:
            logger.info("stopping at cycle %d on a singular projected system: %s", cycle, exc)
            break
        if not (math.isfinite(result.relres) and math.isfinite(true_relres) and np.isfinite(result.x_new).all()):
            logger.info("stopping at cycle %d: the new iterate or its residual is not finite", cycle)
            break
        paper_mvp += result.n_matvecs
        true_mvp += result.n_matvecs + 1
        x, r = result.x_new, r_new
        # a residual recomputed from x as exactly zero outranks the rotated-rhs estimate
        exact = true_relres == 0.0
        final_relres = 0.0 if exact else max(result.relres, true_relres)
        record.append(
            CycleEntry(
                cycle=cycle,
                relres=result.relres,
                error_norm=err(x, exponent),
                paper_mvp=paper_mvp,
                true_mvp=true_mvp,
            )
        )
        if on_cycle is not None:
            on_cycle(cycle, result)
        if exact:
            # the next cycle would have no direction to start from
            logger.info("stopping at cycle %d: the iterate solves the system exactly", cycle)
            break
        if final_relres <= config.tol:
            break
        if result.relres <= config.tol:
            logger.info("cycle %d: the residual recomputed from x, %.3g, is above tol; continuing", cycle, true_relres)
        if (prev_relres - result.relres) < _STAGNATION_REL_IMPROVEMENT * prev_relres:
            stagnant += 1
        else:
            stagnant = 0
        prev_relres = result.relres
        if stagnant >= _STAGNATION_CYCLES:
            logger.info("stopping after %d stagnant cycles", stagnant)
            break
        if config.k > 0 and cycle < config.max_cycles:
            extract = extract_singular_directions if config.variant == "sv" else extract_harmonic_directions
            aug = extract(result, config.k)
    with np.errstate(over="ignore"):
        x = np.ldexp(x, exponent) if record else start.copy()
    final_relres = final_relres if np.isfinite(x).all() else math.inf
    return SolveReport(
        x=x,
        converged=final_relres <= config.tol,
        record=record,
        final_relres=final_relres,
        final_error_norm=err(x, 0),
    )
