"""End-to-end and per-layer benchmark of the gmres-sv solvers.

Usage::

    python3 perfbench/run.py --workload paper-1k --seed 1 --seconds 50 --trace 0

Runs whole rounds of one workload's solves in this process until another
round would overrun ``--seconds``, checks every solve against numpy
computations made apart from the program, and prints each metric by name
with its unit. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from spans recorded around the program's layer calls (see
``README.md`` in this directory).
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads: with two threads on a
# two-core machine a dense LU of order 1000 swings between ~30 and ~260 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    from gmres_sv import cli, krylov, solvers, sparse
except ImportError as exc:
    print(f"cannot import gmres_sv from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT = HERE / "out"

PAPER_PRESETS = ("laplacian1d-1000", "bidiagonal-1000")

# convdiff-mm: five-point convection-diffusion operator on a GRID x GRID
# interior grid, scaled by h**2: diagonal 4, neighbours -1 -/+ the cell
# Peclet number along the wind direction. Order 25600; the basis
# Q and W of one m=20 cycle take 8.4 MB, twice the 4 MiB per-core L2.
GRID = 160
CELL_PECLET = 0.5
WIND_ANGLE = 0.7
FIELD_SEED = 2019
CONVDIFF_CONFIGS = (
    solvers.SolverConfig("sv", m=20, k=4, tol=1e-8, max_cycles=200),
    solvers.SolverConfig("hr", m=20, k=4, tol=1e-8, max_cycles=200),
    solvers.SolverConfig("plain", m=20, tol=1e-8, max_cycles=200),
)

SETUP_SPANS = ("cli.load_matrix", "cli.load_rhs", "cli.reference_solution", "sparse.read_matrix_market", "setup.rhs")
VARIANTS = ("sv", "hr", "plain")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sv_s": "s",
    "hr_s": "s",
    "plain_s": "s",
    "cycles": "count",
    "paper_mvp": "count",
    "true_mvp": "count",
    "sv_err_digits": "digits",
    "peak_rss_mb": "MB",
}


def label(config):
    return config.variant if config.variant != "plain" else f"plain{config.m}"


# -- span wrappers ---------------------------------------------------------


def count_spmv(counters, args, result):
    # Bytes the kernel must touch at least once: value, column index, row
    # index and gathered x per stored entry, plus the output vector.
    A = args[0]
    counters["sparse.spmv.bytes"] += 32 * A.nnz + 8 * A.n_rows


def count_arnoldi(counters, args, result):
    # One modified Gram-Schmidt pass over j+1 basis columns: each column is
    # read twice (dot, axpy) and the vector read twice and written once. A
    # reorthogonalization pass, when triggered, is not counted.
    _A, ws, j, _direction = args
    counters["krylov.arnoldi_expand.bytes"] += 40 * ws.Q.shape[0] * (j + 1)


def count_extraction(counters, args, result):
    cycle, k = args[0], args[1]
    counters["solvers.directions_asked"] += min(k, cycle.n_cols)
    counters["solvers.directions_kept"] += result.size
    counters["solvers.aug_skipped"] += result.size == 0


def install(tracer, trace):
    """Rebind the program's call sites; the coarse set is timed in both modes."""
    tracer.wrap(cli, "load_matrix", "cli.load_matrix")
    tracer.wrap(cli, "load_rhs", "cli.load_rhs")
    tracer.wrap(cli, "reference_solution", "cli.reference_solution")
    tracer.wrap(cli, "solve", "solvers.solve", keep_result=True)
    if not trace:
        return
    tracer.wrap(cli, "dense_lu_solve", "kernels.dense_lu_solve")
    tracer.wrap(krylov, "spmv", "krylov.spmv", count=count_spmv)
    tracer.wrap(solvers, "spmv", "solvers.restart_residual", count=count_spmv)
    tracer.wrap(krylov, "arnoldi_expand", "krylov.arnoldi_expand", count=count_arnoldi)
    for name in ("givens_qr_hessenberg", "apply_chain", "back_substitute"):
        tracer.wrap(krylov, name, f"kernels.{name}")
    tracer.wrap(solvers, "run_cycle", "krylov.run_cycle")
    tracer.wrap(solvers, "extract_singular_directions", "solvers.extract_singular_directions", count=count_extraction)
    tracer.wrap(solvers, "extract_harmonic_directions", "solvers.extract_harmonic_directions", count=count_extraction)
    tracer.wrap(solvers, "sym_eig_smallest", "kernels.sym_eig_smallest")
    tracer.wrap(solvers, "gen_eig_largest_magnitude", "kernels.gen_eig_largest_magnitude")


# -- operations ------------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One solve with the set-up that precedes it, reduced to what is reported."""

    key: str
    group: str
    variant: str
    span: int
    setup_s: float = 0.0
    solve_s: float = 0.0
    cycles: int = 0
    paper_mvp: int = 0
    true_mvp: int = 0
    error: float = 0.0
    problems: list = dataclasses.field(default_factory=list)


def finish_op(tracer, op):
    """Read the op's set-up and solve spans; returns the solve's report."""
    report = None
    for index in tracer.children_of(op.span):
        name, _parent, start, end, result = tracer.spans[index]
        if name in SETUP_SPANS:
            op.setup_s += end - start
        elif name == "solvers.solve":
            op.solve_s = end - start
            report = result
            tracer.spans[index][4] = None
    last = report.record[-1]
    op.cycles, op.paper_mvp, op.true_mvp = last.cycle, last.paper_mvp, last.true_mvp
    return report


class PaperWorkload:
    """The paper's two constellations, solved exactly as the presets solve them.

    Each variant runs through ``cli.run_experiment`` on a copy of its preset
    that holds that variant alone, so every solve gets the preset's matrix,
    right-hand side, reference solution and configuration, and every solve
    is one more set-up sample. The inputs are fixed by the paper; the seed
    does not change them.
    """

    def __init__(self, seed):
        self.ops = [
            (name, dataclasses.replace(cli.PRESETS[name], variants=[spec]))
            for name in PAPER_PRESETS
            for spec in cli.PRESETS[name].variants
        ]
        n = 1000
        e1en = np.zeros(n)
        e1en[[0, -1]] = 1.0
        self.dense = {
            "laplacian1d-1000": (checks.laplacian_dense(n), e1en),
            "bidiagonal-1000": (checks.bidiagonal_dense(n, 0.1), np.ones(n)),
        }
        self.exact = {name: np.linalg.solve(A, b) for name, (A, b) in self.dense.items()}

    def close(self):
        """Nothing to remove: the inputs come from generators."""

    def warm_up(self):
        for name in PAPER_PRESETS:
            preset = cli.PRESETS[name]
            short = [dataclasses.replace(spec, max_cycles=2) for spec in preset.variants]
            cli.run_experiment(dataclasses.replace(preset, variants=short))

    def run_round(self, tracer):
        done = []
        reports = defaultdict(dict)
        for name, preset in self.ops:
            spec = preset.variants[0]
            config = solvers.SolverConfig(spec.variant, spec.m, spec.k, preset.tol, spec.max_cycles)
            op = Op(key=f"{name}:{label(config)}", group=name, variant=spec.variant, span=len(tracer.spans))
            tracer.call("op", cli.run_experiment, preset)
            report = finish_op(tracer, op)
            A, b = self.dense[name]
            x_exact = self.exact[name] if spec.variant == "sv" else None
            op.problems = checks.check_report(report, config, b, b - A @ report.x, x_exact, checks.PAPER_SV_ERROR)
            op.error = checks.relative_error(report.x, self.exact[name])
            reports[name][label(config)] = report
            done.append(op)
        lap, bid = checks.check_paper_claims(reports["laplacian1d-1000"], reports["bidiagonal-1000"])
        for op in done:
            problems = lap if op.group == "laplacian1d-1000" else bid
            op.problems += problems[op.key.split(":")[1]]
        return done


def convdiff_triples(grid, seed):
    """Row-sorted coordinate triples of the convection-diffusion matrix, and x_true.

    The seed picks one of the eight images of a fixed wind direction and a
    fixed standard-normal ``x_true`` field under the grid's symmetries
    (flip along x, flip along y, swap the axes). Every seed thus gives a
    different matrix, file and right-hand side, and all are permutations of
    one system, with the same spectrum and the same work per solve.
    """
    wx, wy = CELL_PECLET * np.cos(WIND_ANGLE), CELL_PECLET * np.sin(WIND_ANGLE)
    field = np.random.default_rng(FIELD_SEED).standard_normal((grid, grid))  # [y, x]
    if seed & 1:
        field, wx = field[:, ::-1], -wx
    if seed & 2:
        field, wy = field[::-1, :], -wy
    if seed & 4:
        field, wx, wy = field.T, wy, wx
    idx = np.arange(grid * grid).reshape(grid, grid)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [np.full(grid * grid, 4.0)]
    for dy, dx, coeff in ((0, 1, -1.0 + wx), (0, -1, -1.0 - wx), (1, 0, -1.0 + wy), (-1, 0, -1.0 - wy)):
        src = idx[max(0, -dy) : grid - max(0, dy), max(0, -dx) : grid - max(0, dx)].ravel()
        rows.append(src)
        cols.append(src + dy * grid + dx)
        vals.append(np.full(src.size, coeff))
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    order = np.lexsort((cols, rows))
    return (rows[order], cols[order], vals[order]), np.ascontiguousarray(field).ravel()


def write_matrix_market(path, triples, n):
    rows, cols, vals = triples
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n} {n} {vals.size}\n")
        fh.writelines(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()))


class ConvdiffWorkload:
    """A seeded convection-diffusion system read back from a Matrix Market file.

    Each solve reads the file through ``read_matrix_market`` and forms
    ``b = A @ x_true`` first, so every solve is one more set-up sample.
    """

    def __init__(self, seed):
        self.n = GRID * GRID
        self.triples, self.x_true = convdiff_triples(GRID, seed)
        self.b_ref = checks.triples_matvec(self.triples, self.n, self.x_true)
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"convdiff-seed{seed}.mtx"
        write_matrix_market(self.path, self.triples, self.n)

    def close(self):
        self.path.unlink(missing_ok=True)

    def warm_up(self):
        A = sparse.read_matrix_market(self.path)
        b = A @ self.x_true
        for config in CONVDIFF_CONFIGS:
            solvers.solve(A, b, None, dataclasses.replace(config, max_cycles=2))

    def run_round(self, tracer):
        done = []
        for config in CONVDIFF_CONFIGS:
            op = Op(key=f"convdiff:{config.variant}", group="convdiff", variant=config.variant, span=len(tracer.spans))
            A, b, report = tracer.call("op", self._op, tracer, config)
            finish_op(tracer, op)
            op.problems = checks.check_read_back(A, self.triples) + checks.check_rhs(b, self.b_ref)
            residual = self.b_ref - checks.triples_matvec(self.triples, self.n, report.x)
            op.problems += checks.check_report(report, config, self.b_ref, residual, self.x_true, checks.CONVDIFF_ERROR)
            if not report.converged:
                op.problems.append(f"{config.variant} did not converge")
            op.error = checks.relative_error(report.x, self.x_true)
            done.append(op)
        return done

    def _op(self, tracer, config):
        A = tracer.call("sparse.read_matrix_market", sparse.read_matrix_market, self.path)
        b = tracer.call("setup.rhs", A.__matmul__, self.x_true)
        report = tracer.call("solvers.solve", solvers.solve, A, b, None, config, keep_result=True)
        return A, b, report


WORKLOADS = {"paper-1k": PaperWorkload, "convdiff-mm": ConvdiffWorkload}


# -- metrics ---------------------------------------------------------------


def end_to_end(ops):
    """Medians over rounds per solve (and per set-up), summed over solves."""
    by_key = defaultdict(list)
    by_group = defaultdict(list)
    for op in ops:
        by_key[op.key].append(op)
        by_group[op.group].append(op.setup_s)
    metrics = {"setup_s": sum(statistics.median(v) for v in by_group.values())}
    for variant in VARIANTS:
        metrics[f"{variant}_s"] = sum(
            statistics.median(op.solve_s for op in runs) for runs in by_key.values() if runs[0].variant == variant
        )
    for count in ("cycles", "paper_mvp", "true_mvp"):
        metrics[count] = sum(getattr(runs[0], count) for runs in by_key.values())
    worst = max(op.error for op in ops if op.variant == "sv")
    metrics["sv_err_digits"] = -math.log10(worst)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def per_layer(tracer, ops, rounds):
    """Per-round layer times and counts from the recorded spans."""
    totals = tracer.totals()

    def total(name):
        return totals[name][1] if name in totals else 0.0

    def self_time(name):
        return totals[name][2] if name in totals else 0.0

    def calls(name):
        return totals[name][0] if name in totals else 0

    spmv_names = ("krylov.spmv", "solvers.restart_residual")
    small_ls = ("kernels.givens_qr_hessenberg", "kernels.apply_chain", "kernels.back_substitute")
    c = tracer.counters
    metrics = {
        "kernels.sym_eig_smallest.s": (total("kernels.sym_eig_smallest"), "s"),
        "kernels.sym_eig_smallest.calls": (calls("kernels.sym_eig_smallest"), "count"),
        "kernels.gen_eig_largest_magnitude.s": (total("kernels.gen_eig_largest_magnitude"), "s"),
        "kernels.gen_eig_largest_magnitude.calls": (calls("kernels.gen_eig_largest_magnitude"), "count"),
        "solvers.extract_harmonic_directions.self_s": (self_time("solvers.extract_harmonic_directions"), "s"),
        "solvers.extract_singular_directions.self_s": (self_time("solvers.extract_singular_directions"), "s"),
        "kernels.small_ls.s": (sum(total(n) for n in small_ls), "s"),
        "krylov.arnoldi_expand.s": (total("krylov.arnoldi_expand"), "s"),
        "krylov.arnoldi_expand.calls": (calls("krylov.arnoldi_expand"), "count"),
        "krylov.arnoldi_expand.bytes": (c["krylov.arnoldi_expand.bytes"], "B"),
        "krylov.run_cycle.self_s": (self_time("krylov.run_cycle"), "s"),
        "sparse.spmv.s": (sum(total(n) for n in spmv_names), "s"),
        "sparse.spmv.calls": (sum(calls(n) for n in spmv_names), "count"),
        "sparse.spmv.bytes": (c["sparse.spmv.bytes"], "B"),
        "solvers.restart_residual.s": (total("solvers.restart_residual"), "s"),
        "sparse.read_matrix_market.s": (total("sparse.read_matrix_market"), "s"),
        "kernels.dense_lu_solve.s": (total("kernels.dense_lu_solve"), "s"),
        "solvers.directions_kept": (c["solvers.directions_kept"], "count"),
        "solvers.directions_asked": (c["solvers.directions_asked"], "count"),
        "solvers.aug_skipped": (c["solvers.aug_skipped"], "count"),
        "solvers.solve.self_s": (self_time("solvers.solve"), "s"),
        "solvers.solve.s": (total("solvers.solve"), "s"),
    }
    # Counts repeat exactly from round to round, so their mean is whole.
    metrics = {
        name: (value / rounds if unit == "s" else value // rounds, unit) for name, (value, unit) in metrics.items()
    }
    for variant, times in cycle_times(tracer, ops).items():
        q = statistics.quantiles(times, n=10, method="inclusive")
        metrics[f"cycle.{variant}.ms_p50"] = (1e3 * statistics.median(times), "ms")
        metrics[f"cycle.{variant}.ms_p90"] = (1e3 * q[8], "ms")
    return metrics


def cycle_times(tracer, ops):
    """Per variant, the wall time of every cycle: from one ``run_cycle`` to the next."""
    times = defaultdict(list)
    for op in ops:
        for solve in (i for i in tracer.children_of(op.span) if tracer.spans[i][0] == "solvers.solve"):
            starts = [tracer.spans[i][2] for i in tracer.children_of(solve) if tracer.spans[i][0] == "krylov.run_cycle"]
            starts.append(tracer.spans[solve][3])
            times[op.variant] += [b - a for a, b in zip(starts, starts[1:])]
    return times


# -- main loop -------------------------------------------------------------


def run(workload_name, seed, seconds, trace):
    tracer = Tracer()
    install(tracer, trace)
    workload = WORKLOADS[workload_name](seed)
    try:
        workload.warm_up()
        tracer.reset()
        ops = []
        rounds = 0
        start = time.perf_counter()
        while True:
            done = workload.run_round(tracer)
            ops += done
            rounds += 1
            elapsed = time.perf_counter() - start
            times = " ".join(f"{op.key}={op.setup_s:.4f}+{op.solve_s:.4f}" for op in done)
            print(f"round {rounds} at {elapsed:.1f}s: {times}", file=sys.stderr)
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        tracer.unwrap()
        workload.close()
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload_name}-seed{seed}.csv")
        metrics = per_layer(tracer, ops, rounds)
    else:
        metrics = end_to_end(ops)
    counts_repeat = len({(op.key, op.cycles, op.paper_mvp, op.true_mvp) for op in ops}) == len({op.key for op in ops})
    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.key}: {'; '.join(op.problems)}", file=sys.stderr)
    if not counts_repeat:
        print("FAILED: cycle or matvec counts differ between rounds", file=sys.stderr)
    print(f"# {workload_name} seed={seed} rounds={rounds} solves={len(ops)} elapsed={elapsed:.1f}s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return {
        "correct": counts_repeat,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
