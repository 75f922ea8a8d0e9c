"""Restarted GMRES with singular-vector augmented search spaces.

The package bundles a CSR sparse core with Matrix Market I/O, the small
dense kernels a restarted solver needs (Hessenberg QR by plane rotations, a
LAPACK symmetric eigensolver, a generalized-pencil solver, a dense reference
solve), the augmented Arnoldi cycle engine, restart drivers for the plain,
singular-vector and harmonic-Ritz variants, and a benchmark CLI that emits
per-cycle CSV convergence histories.
"""

from .kernels import (
    GivensChain,
    PencilConditionError,
    SingularSystemError,
    UpperTriangularFactor,
    apply_chain,
    back_substitute,
    dense_lu_solve,
    gen_eig_largest_magnitude,
    gen_eig_smallest_magnitude,
    givens_qr_hessenberg,
    sym_eig_smallest,
)
from .krylov import CycleResult, CycleWorkspace, arnoldi_expand, run_cycle
from .solvers import (
    AugmentationSet,
    ConvergenceRecord,
    CycleEntry,
    SolveReport,
    SolverConfig,
    extract_harmonic_directions,
    extract_singular_directions,
    paper_mvp_increment,
    solve,
)
from .sparse import (
    CsrMatrix,
    MatrixMarketError,
    MatrixMarketFormatError,
    MatrixMarketParseError,
    TripleIndexError,
    csr_from_coo,
    gen_bidiagonal,
    gen_laplacian_1d,
    identity,
    read_matrix_market,
    read_matrix_market_rhs,
    spmv,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationSet",
    "ConvergenceRecord",
    "CsrMatrix",
    "CycleEntry",
    "CycleResult",
    "CycleWorkspace",
    "GivensChain",
    "MatrixMarketError",
    "MatrixMarketFormatError",
    "MatrixMarketParseError",
    "PencilConditionError",
    "SingularSystemError",
    "SolveReport",
    "SolverConfig",
    "TripleIndexError",
    "UpperTriangularFactor",
    "apply_chain",
    "arnoldi_expand",
    "back_substitute",
    "csr_from_coo",
    "dense_lu_solve",
    "extract_harmonic_directions",
    "extract_singular_directions",
    "gen_bidiagonal",
    "gen_eig_largest_magnitude",
    "gen_eig_smallest_magnitude",
    "gen_laplacian_1d",
    "givens_qr_hessenberg",
    "identity",
    "paper_mvp_increment",
    "read_matrix_market",
    "read_matrix_market_rhs",
    "run_cycle",
    "solve",
    "spmv",
    "sym_eig_smallest",
]
