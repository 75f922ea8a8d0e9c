import importlib

import pytest

import gmres_sv

MODULES = ["cli", "diagnostics", "kernels", "krylov", "solvers", "sparse"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gmres_sv.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_root_all_resolves():
    assert [attr for attr in gmres_sv.__all__ if not hasattr(gmres_sv, attr)] == []


def test_root_exports_only_what_solve_needs():
    assert sorted(gmres_sv.__all__) == sorted(
        [
            "solve",
            "SolverConfig",
            "SolveReport",
            "CycleEntry",
            "CsrMatrix",
            "csr_from_coo",
            "spmv",
            "identity",
            "gen_laplacian_1d",
            "gen_bidiagonal",
            "read_matrix_market",
            "read_matrix_market_rhs",
            "MatrixMarketError",
            "MatrixMarketFormatError",
            "MatrixMarketParseError",
            "TripleIndexError",
        ]
    )
