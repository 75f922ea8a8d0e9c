"""Restarted GMRES with singular-vector augmented search spaces.

The package root holds what a caller of :func:`solve` needs: the solver
configuration and report, the CSR matrix with its constructors, and the
Matrix Market readers with their errors. The small dense kernels live in
:mod:`gmres_sv.kernels`, the augmented Arnoldi cycle engine in
:mod:`gmres_sv.krylov`, the direction extractors in
:mod:`gmres_sv.solvers` and the benchmark CLI, which emits per-cycle CSV
convergence histories, in :mod:`gmres_sv.cli`.
"""

from .solvers import CycleEntry, SolveReport, SolverConfig, solve
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
    "CsrMatrix",
    "CycleEntry",
    "MatrixMarketError",
    "MatrixMarketFormatError",
    "MatrixMarketParseError",
    "SolveReport",
    "SolverConfig",
    "TripleIndexError",
    "csr_from_coo",
    "gen_bidiagonal",
    "gen_laplacian_1d",
    "identity",
    "read_matrix_market",
    "read_matrix_market_rhs",
    "solve",
    "spmv",
]
