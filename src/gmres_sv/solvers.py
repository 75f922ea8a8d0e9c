"""Restart drivers and augmentation-direction extraction.

Three solver variants share one cycle engine:

``plain``
    Restarted GMRES over an m-dimensional Krylov space.
``sv``
    Each restart augments an (m-k)-dimensional Krylov space with k
    approximate right singular directions of the previous cycle's projected
    operator, taken from the small eigenvalues of the Gram matrix
    ``G = R.T @ R``. The products ``A @ y`` are reconstructed from the
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
from dataclasses import dataclass

import numpy as np

from .kernels import (
    PencilConditionError,
    SingularSystemError,
    gen_eig_largest_magnitude,
    gen_eig_smallest_magnitude,
    sym_eig_smallest,
)
from .krylov import run_cycle
from .sparse import spmv

__all__ = [
    "AugmentationSet",
    "SolverConfig",
    "CycleEntry",
    "ConvergenceRecord",
    "SolveReport",
    "extract_singular_directions",
    "extract_harmonic_directions",
    "paper_mvp_increment",
    "solve",
]

logger = logging.getLogger(__name__)

_DISCARD_SIGMA_TOL = 1e-14
_STAGNATION_REL_IMPROVEMENT = 1e-14
_STAGNATION_CYCLES = 10
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

    @classmethod
    def empty(cls, n):
        return cls(Y=np.zeros((n, 0)), AY=np.zeros((n, 0)), sigma_sq=np.zeros(0))


@dataclass
class SolverConfig:
    """Restart-loop configuration.

    ``k`` counts carried directions and must stay below the cycle dimension
    ``m``; the plain variant requires ``k == 0``. ``max_true_matvecs``
    bounds the true matvec counter (``None`` disables the budget).
    """

    variant: str
    m: int
    k: int = 0
    tol: float = 1e-8
    max_cycles: int = 300
    max_true_matvecs: int | None = None

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


class ConvergenceRecord:
    """Per-cycle convergence history of a single solve."""

    def __init__(self):
        self.entries = []

    def append(self, entry):
        self.entries.append(entry)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def final_relres(self):
        return self.entries[-1].relres if self.entries else None


@dataclass
class SolveReport:
    """Solve outcome; ``converged`` holds exactly when ``final_relres <= tol``."""

    x: np.ndarray
    converged: bool
    record: ConvergenceRecord
    final_relres: float
    final_error_norm: float | None = None


def paper_mvp_increment(variant, m, k, first_cycle=False):
    """Per-cycle matvec count under the reporting convention.

    Every variant's first cycle runs a full m-dimensional Krylov space and
    costs ``m`` products; augmented variants then pay only for the ``m - k``
    Krylov steps since the carried products are cached.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    if first_cycle or variant == "plain" or k == 0:
        return m
    return m - k


def extract_singular_directions(cycle, k):
    """Approximate right singular directions from a completed cycle.

    Forms the Gram matrix ``G = R.T @ R`` of the projected operator (a
    byproduct of the cycle's triangular factor), takes the eigenvectors for
    the ``k`` smallest eigenvalues, and maps them back as ``Y = W @ g`` with
    cached products ``AY = Q @ (H @ g)``. Directions whose value is
    negligible relative to ``norm(G)`` are dropped; the caller fills any
    deficit with extra Krylov steps.
    """
    p = cycle.n_cols
    n = cycle.workspace.Q.shape[0]
    kk = min(k, p)
    if kk < 1:
        return AugmentationSet.empty(n)
    R = cycle.rfactor.R[:p, :p]
    G = R.T @ R
    values, vectors = sym_eig_smallest(G, kk)
    keep = values > _DISCARD_SIGMA_TOL * float(np.linalg.norm(G))
    if not np.all(keep):
        logger.debug("discarding %d negligible singular directions", int(np.sum(~keep)))
        values = values[keep]
        vectors = vectors[:, keep]
    if values.size == 0:
        return AugmentationSet.empty(n)
    Y = cycle.W @ vectors
    AY = cycle.Q @ (cycle.H @ vectors)
    return AugmentationSet(Y=Y, AY=AY, sigma_sq=values)


def extract_harmonic_directions(cycle, k, select="largest"):
    """Harmonic-pencil directions from a completed cycle.

    Builds ``F = H.T @ (Q.T @ W)``, which equals ``W.T @ A.T @ W`` up to the
    factorization accuracy, and solves ``G @ g = theta * F @ g``. ``select``
    picks which end of the magnitude-sorted spectrum supplies the ``k``
    directions; the default ``"largest"`` is the behavior of the reference
    baseline this package benchmarks against. A near-singular ``F`` yields
    an empty set, signalling the driver to fall back to a pure Krylov cycle.
    """
    if select not in ("largest", "smallest"):
        raise ValueError(f"select must be 'largest' or 'smallest', got {select!r}")
    p = cycle.n_cols
    n = cycle.workspace.Q.shape[0]
    kk = min(k, p)
    if kk < 1:
        return AugmentationSet.empty(n)
    R = cycle.rfactor.R[:p, :p]
    G = R.T @ R
    F = cycle.H.T @ (cycle.Q.T @ cycle.W)
    try:
        if select == "largest":
            values, vectors = gen_eig_largest_magnitude(G, F, kk)
        else:
            values, vectors = gen_eig_smallest_magnitude(G, F, kk)
    except PencilConditionError as exc:
        logger.info("skipping augmentation for one cycle: %s", exc)
        return AugmentationSet.empty(n)
    if values.size == 0:
        return AugmentationSet.empty(n)
    Y = cycle.W @ vectors
    AY = cycle.Q @ (cycle.H @ vectors)
    norms = np.linalg.norm(Y, axis=0)
    keep = norms > 1e-14 * max(1.0, float(norms.max(initial=0.0)))
    if not np.all(keep):
        logger.debug("discarding %d degenerate harmonic directions", int(np.sum(~keep)))
        Y, AY, values = Y[:, keep], AY[:, keep], values[keep]
    order = np.argsort(values, kind="stable")
    return AugmentationSet(Y=Y[:, order], AY=AY[:, order], sigma_sq=values[order])


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
        ``norm(x - x_ref)``.
    on_cycle : callable, optional
        Diagnostics hook invoked as ``on_cycle(cycle_index, cycle_result)``
        after each cycle is recorded.

    Returns
    -------
    SolveReport
        Budget exhaustion, stagnation and a singular projected system yield
        ``converged=False`` with the last iterate rather than an exception.
        A stagnation guard stops the loop after 10 consecutive cycles with
        relative residual improvement below 1e-14.

    Raises
    ------
    ValueError
        When the shapes disagree or ``A``, ``b`` or ``x0`` holds a NaN or
        an infinity.

    Each call is single threaded; concurrent calls sharing the same matrix
    are safe.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("coefficient matrix must be square")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ValueError("right-hand side length does not match the matrix")
    x = np.zeros(A.n_rows) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    for name, data in (("matrix", A.values), ("right-hand side", b), ("starting iterate", x)):
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{name} holds non-finite entries")
    record = ConvergenceRecord()
    bnorm = float(np.linalg.norm(b))

    def err(vec):
        return float(np.linalg.norm(vec - x_ref)) if x_ref is not None else None

    if bnorm == 0.0:
        x = np.zeros(A.n_rows)
        return SolveReport(x=x, converged=True, record=record, final_relres=0.0, final_error_norm=err(x))
    r = b - spmv(A, x)
    true_mvp = 1
    paper_mvp = 0
    relres = float(np.linalg.norm(r)) / bnorm
    if relres <= config.tol:
        return SolveReport(x=x, converged=True, record=record, final_relres=relres, final_error_norm=err(x))

    aug = None
    prev_relres = relres
    stagnant = 0
    converged = False
    for cycle in range(1, config.max_cycles + 1):
        try:
            result = run_cycle(A, b, x, aug, config.m, r0=r)
        except SingularSystemError as exc:
            logger.info("stopping at cycle %d on a singular projected system: %s", cycle, exc)
            break
        paper_mvp += result.n_matvecs
        true_mvp += result.n_matvecs
        x = result.x_new
        r = b - spmv(A, x)
        true_mvp += 1
        record.append(
            CycleEntry(
                cycle=cycle,
                relres=result.relres,
                error_norm=err(x),
                paper_mvp=paper_mvp,
                true_mvp=true_mvp,
            )
        )
        if on_cycle is not None:
            on_cycle(cycle, result)
        if result.relres <= config.tol:
            converged = True
            break
        if config.max_true_matvecs is not None and true_mvp >= config.max_true_matvecs:
            break
        if (prev_relres - result.relres) < _STAGNATION_REL_IMPROVEMENT * prev_relres:
            stagnant += 1
        else:
            stagnant = 0
        prev_relres = result.relres
        if stagnant >= _STAGNATION_CYCLES:
            logger.info("stopping after %d stagnant cycles", stagnant)
            break
        if config.variant != "plain" and config.k > 0 and cycle < config.max_cycles:
            if config.variant == "sv":
                aug = extract_singular_directions(result, config.k)
            else:
                aug = extract_harmonic_directions(result, config.k)
            if aug.size == 0:
                aug = None
    final_relres = record.final_relres if len(record) else relres
    final_err = record.entries[-1].error_norm if len(record) else err(x)
    return SolveReport(
        x=x,
        converged=converged,
        record=record,
        final_relres=final_relres,
        final_error_norm=final_err,
    )
