"""Each benchmark check must pass on the program's answer and fail on a wrong one.

Run with ``python3 -m pytest perfbench``.
"""

import dataclasses

import numpy as np
import pytest

import checks
import run
from gmres_sv import solvers, sparse


@pytest.fixture(scope="module")
def bidiagonal_sv():
    A_dense = checks.bidiagonal_dense(1000, 0.1)
    b = np.ones(1000)
    config = solvers.SolverConfig("sv", m=20, k=2, max_cycles=100)
    report = solvers.solve(sparse.gen_bidiagonal(1000, 0.1), b, None, config)
    return A_dense, b, config, report, np.linalg.solve(A_dense, b)


def paper_problems(case, x):
    A_dense, b, config, report, x_exact = case
    wrong = dataclasses.replace(report, x=x)
    return checks.check_report(wrong, config, b, b - A_dense @ x, x_exact, checks.PAPER_SV_ERROR)


def test_paper_checks_pass_on_the_solver_answer(bidiagonal_sv):
    assert paper_problems(bidiagonal_sv, bidiagonal_sv[3].x) == []


def test_paper_checks_fail_on_a_wrong_x(bidiagonal_sv):
    x = bidiagonal_sv[3].x.copy()
    x[500] += 1e-3
    problems = paper_problems(bidiagonal_sv, x)
    assert any("recomputed" in p for p in problems)
    assert any("relative error" in p for p in problems)


def test_paper_checks_fail_on_wrong_counters_and_flag(bidiagonal_sv):
    A_dense, b, config, report, x_exact = bidiagonal_sv
    last = dataclasses.replace(report.record[-1], true_mvp=report.record[-1].true_mvp + 1)
    bad = dataclasses.replace(report, converged=False, record=list(report.record[:-1]) + [last])
    problems = checks.check_report(bad, config, b, b - A_dense @ report.x)
    assert any("converged=False" in p for p in problems)
    assert any("true_mvp" in p for p in problems)


def test_paper_claims_fail_when_sv_is_not_fewest(bidiagonal_sv):
    report = bidiagonal_sv[3]
    slow = dataclasses.replace(report, record=list(report.record) * 2)
    laplacian = {"sv": slow, "hr": report}
    _lap, bid = checks.check_paper_claims(laplacian, {"sv": slow, "plain20": report})
    assert bid["sv"]
    lap, _bid = checks.check_paper_claims(laplacian, {"sv": report})
    assert lap["sv"] and lap["hr"]


@pytest.fixture(scope="module")
def convdiff(tmp_path_factory):
    grid = 20
    triples, x_true = run.convdiff_triples(grid, seed=3)
    path = tmp_path_factory.mktemp("mm") / "convdiff.mtx"
    run.write_matrix_market(path, triples, grid * grid)
    A = sparse.read_matrix_market(path)
    b = A @ x_true
    config = solvers.SolverConfig("plain", m=20, tol=1e-8, max_cycles=200)
    return triples, x_true, A, b, config, solvers.solve(A, b, None, config)


def convdiff_problems(case, x):
    triples, x_true, _A, b, config, report = case
    residual = b - checks.triples_matvec(triples, x_true.size, x)
    wrong = dataclasses.replace(report, x=x)
    return checks.check_report(wrong, config, b, residual, x_true, checks.CONVDIFF_ERROR)


def test_convdiff_checks_pass_on_the_solver_answer(convdiff):
    triples, x_true, A, b, _config, report = convdiff
    assert report.converged
    assert checks.check_read_back(A, triples) == []
    assert checks.check_rhs(b, checks.triples_matvec(triples, x_true.size, x_true)) == []
    assert convdiff_problems(convdiff, report.x) == []


def test_convdiff_checks_fail_on_a_wrong_x(convdiff):
    x = convdiff[5].x + 1e-2
    problems = convdiff_problems(convdiff, x)
    assert any("recomputed" in p for p in problems)
    assert any("relative error" in p for p in problems)


def test_convdiff_checks_fail_on_a_wrong_matrix_or_rhs(convdiff):
    triples, x_true, A, b, _config, _report = convdiff
    rows, cols, vals = triples
    altered = vals.copy()
    altered[7] = np.nextafter(altered[7], 0.0)
    assert checks.check_read_back(A, (rows, cols, altered))
    wrong_b = b.copy()
    wrong_b[0] += 1e-6
    assert checks.check_rhs(wrong_b, checks.triples_matvec(triples, x_true.size, x_true))
