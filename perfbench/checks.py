"""Correctness checks made apart from the program.

Every reference here is built with numpy from closed forms or from the
generated coordinate triples, never with the program's ``CsrMatrix`` or
``spmv``, and never from a stored copy of earlier output. Each check
returns a list of problems; an empty list means it passed.
"""

import numpy as np

RESIDUAL_AGREEMENT = 1e-8
PAPER_SV_ERROR = 1e-4
# Relative error bound for convdiff-mm: the grid operator's condition number
# is of order (4 / pi**2) * (grid + 1)**2 ~ 1e4, so a relative residual of
# 1e-8 bounds the relative error by ~1e-4; 1e-3 leaves room for the
# convection term.
CONVDIFF_ERROR = 1e-3
PAPER_BUDGET = 5000
PAPER_STALL = 1e-4
SV_WINDOW = (118, 178)


def laplacian_dense(n):
    """Second-difference matrix: 2 on the diagonal, -1 on both neighbours."""
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def bidiagonal_dense(n, superdiag):
    """Upper bidiagonal: diagonal 1..n, constant superdiagonal."""
    return np.diag(np.arange(1.0, n + 1.0)) + superdiag * np.eye(n, k=1)


def triples_matvec(triples, n, x):
    """``A @ x`` from coordinate triples, accumulated with ``np.add.at``."""
    rows, cols, vals = triples
    out = np.zeros(n)
    np.add.at(out, rows, vals * x[cols])
    return out


def check_report(report, config, b, residual, x_exact=None, error_limit=None):
    """Checks every solve must pass.

    ``residual`` is ``b - A @ report.x`` computed apart from the program.
    The reported relative residual must agree with it to 1e-8, and
    ``converged`` must hold exactly when the reported residual is at most
    ``tol``. The matvec counters must obey ``true = paper + cycles + 1``
    and ``paper <= m * cycles``. With ``x_exact``, the relative error must
    be at most ``error_limit``.
    """
    problems = []
    bnorm = float(np.linalg.norm(b))
    relres = float(np.linalg.norm(residual)) / bnorm
    if not abs(relres - report.final_relres) <= RESIDUAL_AGREEMENT:
        problems.append(f"reported relres {report.final_relres:.3e} but recomputed {relres:.3e}")
    if report.converged != (report.final_relres <= config.tol):
        problems.append(f"converged={report.converged} with relres {report.final_relres:.3e}, tol {config.tol:.0e}")
    if len(report.record):
        last = report.record[-1]
        if last.true_mvp != last.paper_mvp + last.cycle + 1:
            problems.append(f"true_mvp {last.true_mvp} != paper_mvp {last.paper_mvp} + cycles {last.cycle} + 1")
        if last.paper_mvp > config.m * last.cycle:
            problems.append(f"paper_mvp {last.paper_mvp} > m * cycles = {config.m * last.cycle}")
    if x_exact is not None:
        err = relative_error(report.x, x_exact)
        if not err <= error_limit:
            problems.append(f"relative error {err:.3e} above {error_limit:.0e}")
    return problems


def relative_error(x, x_exact):
    return float(np.linalg.norm(x - x_exact)) / float(np.linalg.norm(x_exact))


def relres_within_budget(report, budget):
    """Relative residual of the last cycle that ends within ``budget`` paper matvecs."""
    rows = [e for e in report.record if e.paper_mvp <= budget]
    return rows[-1].relres if rows else float("inf")


def check_paper_claims(laplacian, bidiagonal):
    """The paper's claims on the two order-1000 constellations.

    ``laplacian`` and ``bidiagonal`` map a solve label (``sv``, ``hr``,
    ``plain20``, ...) to its report. Returns a pair of dicts, one per
    matrix, mapping each label to its problems.
    """
    lap_problems = {label: [] for label in laplacian}
    bid_problems = {label: [] for label in bidiagonal}
    sv = laplacian["sv"]
    cycles = len(sv.record)
    lo, hi = SV_WINDOW
    if not (sv.converged and lo <= cycles <= hi):
        lap_problems["sv"].append(f"sv converged={sv.converged} in {cycles} cycles, window [{lo}, {hi}]")
    for label, report in laplacian.items():
        stalled_at = relres_within_budget(report, PAPER_BUDGET)
        if label != "sv" and not stalled_at > PAPER_STALL:
            lap_problems[label].append(f"relres {stalled_at:.3e} at {PAPER_BUDGET} matvecs is not above {PAPER_STALL:.0e}")
    sv = bidiagonal["sv"]
    for label, report in bidiagonal.items():
        if label != "sv" and not (sv.converged and len(sv.record) < len(report.record)):
            bid_problems["sv"].append(f"sv needs {len(sv.record)} cycles, {label} {len(report.record)}")
    return lap_problems, bid_problems


def check_read_back(A, triples):
    """The matrix read back must hold exactly the generated (sorted) triples."""
    rows, cols, vals = triples
    got_rows = np.repeat(np.arange(A.n_rows), np.diff(A.row_ptr))
    if A.nnz != vals.size:
        return [f"read back {A.nnz} entries, wrote {vals.size}"]
    if not (np.array_equal(got_rows, rows) and np.array_equal(A.col_idx, cols) and np.array_equal(A.values, vals)):
        return ["matrix read back differs from the generated triples"]
    return []


def check_rhs(b, b_ref):
    """The program's ``A @ x_true`` must match the numpy recomputation."""
    gap = float(np.linalg.norm(b - b_ref)) / float(np.linalg.norm(b_ref))
    return [] if gap <= 1e-14 else [f"right-hand side differs from A @ x_true by {gap:.3e}"]
