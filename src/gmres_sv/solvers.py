"""Restart drivers and augmentation-direction extraction.

Three solver variants share one cycle engine:

``plain``
    Restarted GMRES over an m-dimensional Krylov space.
``sv``
    Each restart augments an (m-k)-dimensional Krylov space with k
    approximate right singular directions of the previous cycle's projected
    operator, taken from the small eigenvalues of the Gram matrix
    ``G = R.T @ R`` of the cycle's triangular factor ``CycleResult.R``. Both
    augmented variants map their coefficient vectors ``g`` to directions
    ``y = W @ g`` and rebuild ``A @ y`` as ``Q @ (H @ g)`` from the
    factorization, so augmented steps cost no matrix-vector products.
``hr``
    Same restart structure, but the carried directions come from the
    harmonic pencil ``G @ g = theta * (W.T A.T W) @ g``. The directions for
    the largest-magnitude values are used; this is the eigenvector-augmented
    reference baseline the sv variant is benchmarked against.

Matvec accounting follows the reporting convention for augmented restart
methods: the per-cycle count equals the number of Krylov expansion steps
(cached augmentation products are free), while a separate "true" counter
additionally charges the explicit restart residual computed each cycle.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    PencilConditionError,
    SingularSystemError,
    gen_eig_largest_magnitude,
    sym_eig_smallest,
)
from .krylov import CycleWorkspace, run_cycle
from .sparse import spmv

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
# Right-hand sides whose largest entry lies outside [2**-400, 2**400] are
# scaled by a power of two first: their norms would under- or overflow.
_SAFE_SCALE_EXPONENT = 400
VARIANTS = ("plain", "sv", "hr")


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
        if not 0 <= self.k < self.m:
            raise ValueError(f"need 0 <= k < m, got k={self.k}, m={self.m}")
        if self.variant == "plain" and self.k != 0:
            raise ValueError("plain restarts do not carry directions; set k=0")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
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
    badly graded matrix, does not count as converged.
    """

    x: np.ndarray
    converged: bool
    record: list
    final_relres: float
    final_error_norm: float | None = None


def _carried_set(cycle, values, vectors):
    """The carried set ``Y = W @ g``, ``AY = Q @ (H @ g)`` for the coefficient columns ``g`` of ``vectors``."""
    Y = cycle.workspace.W_times(vectors, cycle.n_cols)
    AY = cycle.Q @ (cycle.H @ vectors)
    return AugmentationSet(Y=Y, AY=AY, sigma_sq=values)


def extract_singular_directions(cycle, k):
    """Approximate right singular directions from a completed cycle.

    Forms the Gram matrix ``G = R.T @ R`` of the projected operator (a
    byproduct of the cycle's triangular factor), takes the eigenvectors for
    the ``k`` smallest eigenvalues, and maps them back as ``Y = W @ g`` with
    cached products ``AY = Q @ (H @ g)``. Directions whose value is
    negligible relative to ``norm(G)`` are dropped; the caller fills any
    deficit with extra Krylov steps. ``k < 1`` raises ``ValueError``.
    """
    p = cycle.n_cols
    R = cycle.R[:p, :p]
    G = R.T @ R
    values, vectors = sym_eig_smallest(G, min(k, p))
    keep = values > _DISCARD_SIGMA_TOL * float(np.linalg.norm(G))
    if not np.all(keep):
        logger.debug("discarding %d negligible singular directions", int(np.sum(~keep)))
    return _carried_set(cycle, values[keep], vectors[:, keep])


def extract_harmonic_directions(cycle, k):
    """Harmonic-pencil directions from a completed cycle.

    Builds ``F = H.T @ (Q.T @ W)``, which equals ``W.T @ A.T @ W`` up to the
    factorization accuracy, and solves ``G @ g = theta * F @ g``. The ``k``
    directions come from the largest-magnitude end of the spectrum, the
    behavior of the reference baseline this package benchmarks against. A
    near-singular ``F`` yields an empty set, signalling the driver to fall
    back to a pure Krylov cycle. ``k < 1`` raises ``ValueError``.
    """
    p = cycle.n_cols
    R = cycle.R[:p, :p]
    G = R.T @ R
    # The Krylov columns of W are the leading columns of the orthonormal Q.
    ws = cycle.workspace
    krylov, aug = ws.split(p)
    QtW = np.eye(p + 1, p)
    QtW[:, krylov:] = cycle.Q.T @ ws.Y[:, :aug]
    F = cycle.H.T @ QtW
    try:
        values, vectors = gen_eig_largest_magnitude(G, F, min(k, p))
    except PencilConditionError as exc:
        logger.info("skipping augmentation for one cycle: %s", exc)
        values, vectors = np.zeros(0), np.zeros((p, 0))
    carried = _carried_set(cycle, values, vectors)
    norms = np.sqrt(np.einsum("ij,ij->j", carried.Y, carried.Y))
    keep = np.flatnonzero(norms > 1e-14 * max(1.0, float(norms.max(initial=0.0))))
    if keep.size < values.size:
        logger.debug("discarding %d degenerate harmonic directions", values.size - keep.size)
    order = keep[np.argsort(values[keep], kind="stable")]
    return AugmentationSet(Y=carried.Y[:, order], AY=carried.AY[:, order], sigma_sq=values[order])


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
        ``norm(x - x_ref)``, rescaled by its largest entry where the
        squares of the entries overflow.
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
    loop solves for ``b * 2**-e`` and ``x0 * 2**-e``, with ``e`` the
    exponent that brings it into ``[0.5, 1)``, and returns ``x * 2**e``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 27).
    The shift is exact for every entry that stays in the normal range, so
    relative residuals are those of the given system; ``on_cycle`` then
    sees the scaled cycle. A subnormal ``b`` works too, but an ``x`` whose
    entries are subnormal keeps only the bits they can hold.

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
    exponent = math.frexp(np.max(np.abs(b), initial=0.0))[1]
    if abs(exponent) <= _SAFE_SCALE_EXPONENT:
        exponent = 0
    # np.ldexp shifts each entry's exponent: no scale factor that could
    # itself under- or overflow is formed
    b = np.ldexp(b, -exponent)
    bnorm = float(np.linalg.norm(b))

    def err(vec, shift):
        """The error norm of ``vec * 2**shift``; ``None`` without a reference."""
        if x_ref is None:
            return None
        with np.errstate(over="ignore"):
            diff = np.ldexp(vec, shift) - x_ref
            norm = float(np.linalg.norm(diff))
            if math.isinf(norm):
                # the squares overflow; rescale by the largest entry
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
        final_relres = max(result.relres, true_relres)
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
    x = np.ldexp(x, exponent) if record else start.copy()
    return SolveReport(
        x=x,
        converged=final_relres <= config.tol,
        record=record,
        final_relres=final_relres,
        final_error_norm=err(x, 0),
    )
