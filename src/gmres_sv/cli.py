"""Benchmark command line: build or load a system, run solver variants,
emit per-cycle CSV convergence histories.

CSV schema (RFC-4180 style, one header row)::

    experiment,variant,m,k,cycle,paper_mvp,true_mvp,relres,errnorm,converged

One row per (variant, cycle), written in variant-then-cycle order. Floats
use scientific notation with 17 significant digits, so identical inputs
produce byte-identical output. ``errnorm`` is empty when there is no
reference solution (see :func:`reference_solution`); ``converged`` is empty
except on each variant's final row, where it is ``1`` or ``0``.

Exit codes: 0 on completion, 1 on configuration or I/O errors, 2 when
``--strict`` is set and a variant failed to converge.
"""

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    run_direction_identity_suite,
    run_error_reduction_suite,
    run_projected_identity_suite,
)
from .kernels import DENSE_SOLVE_CAP, SingularSystemError, band_qr_solve, bandwidths, dense_lu_solve
from .solvers import VARIANTS, SolverConfig, solve
from .sparse import (
    gen_bidiagonal,
    gen_laplacian_1d,
    identity,
    read_matrix_market,
    read_matrix_market_rhs,
)

__all__ = ["VariantSpec", "ExperimentPreset", "PRESETS", "run_experiment", "main"]


@dataclass
class VariantSpec:
    """One solver configuration inside a preset."""

    variant: str
    m: int
    k: int = 0
    max_cycles: int = 300


@dataclass
class ExperimentPreset:
    """A named benchmark: matrix source, right-hand side, variant list.

    ``matrix`` is either a generator spec (``gen:laplacian1d:N``,
    ``gen:bidiag:N:S``, ``gen:eye:N``) or a Matrix Market file path.
    ``rhs`` is ``ones``, ``e1en`` (1 in the first and last component, 0
    elsewhere), or a Matrix Market vector file path.
    """

    name: str
    matrix: str
    rhs: str
    variants: list = field(default_factory=list)
    tol: float = 1e-8

    def __post_init__(self):
        if not self.variants:
            raise ValueError("preset needs at least one variant")


PRESETS = {
    "identity-10": ExperimentPreset(
        name="identity-10",
        matrix="gen:eye:10",
        rhs="ones",
        variants=[VariantSpec("plain", m=5)],
    ),
    "laplacian1d-1000": ExperimentPreset(
        name="laplacian1d-1000",
        matrix="gen:laplacian1d:1000",
        rhs="e1en",
        variants=[
            VariantSpec("sv", m=20, k=4, max_cycles=200),
            VariantSpec("hr", m=20, k=4, max_cycles=320),
            VariantSpec("plain", m=20, max_cycles=260),
            VariantSpec("plain", m=24, max_cycles=220),
        ],
    ),
    "bidiagonal-1000": ExperimentPreset(
        name="bidiagonal-1000",
        matrix="gen:bidiag:1000:0.1",
        rhs="ones",
        variants=[
            VariantSpec("sv", m=20, k=2, max_cycles=100),
            VariantSpec("hr", m=20, k=2, max_cycles=100),
            VariantSpec("plain", m=22, max_cycles=100),
            VariantSpec("plain", m=20, max_cycles=100),
        ],
    ),
}


def load_matrix(spec):
    """Resolve a matrix source spec into a CsrMatrix."""
    if spec.startswith("gen:"):
        parts = spec.split(":")
        kind = parts[1] if len(parts) > 1 else ""
        try:
            if kind == "laplacian1d" and len(parts) == 3:
                return gen_laplacian_1d(int(parts[2]))
            if kind == "bidiag" and len(parts) == 4:
                return gen_bidiagonal(int(parts[2]), float(parts[3]))
            if kind == "eye" and len(parts) == 3:
                return identity(int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad generator spec {spec!r}: {exc}") from None
        raise ValueError(
            f"unknown generator spec {spec!r}; expected gen:laplacian1d:N, gen:bidiag:N:S or gen:eye:N"
        )
    try:
        return read_matrix_market(spec)
    except FileNotFoundError:
        raise FileNotFoundError(f"matrix file not found: {spec}") from None


def load_rhs(spec, n):
    """Resolve a right-hand side spec for a system of order ``n``."""
    if spec == "ones":
        return np.ones(n)
    if spec == "e1en":
        b = np.zeros(n)
        b[0] = 1.0
        b[-1] = 1.0
        return b
    try:
        b = read_matrix_market_rhs(spec)
    except FileNotFoundError:
        raise FileNotFoundError(f"right-hand side file not found: {spec}") from None
    if b.shape != (n,):
        raise ValueError(f"right-hand side length {b.size} does not match matrix order {n}")
    return b


# Band QR runs when _BAND_SWITCH * (kl + ku) < n. Its refined solve took 0.72 / 1.08 / 2.49 of dense LU's time
# at order 1000, 0.49 / 1.11 / 2.50 at 5000, for n / (kl + ku) = 8 / 5 / 3 (2-core Xeon, 1 thread, random bands).
_BAND_SWITCH = 8


def reference_solution(A, b):
    """Band QR reference solve for a narrow band, else dense LU; None above the cap, if singular or not finite."""
    if A.n_rows > DENSE_SOLVE_CAP or A.n_rows != A.n_cols:
        return None
    try:
        x = band_qr_solve(A, b) if _BAND_SWITCH * sum(bandwidths(A)) < A.n_rows else dense_lu_solve(A.to_dense(), b)
    except SingularSystemError:
        return None
    return x if np.all(np.isfinite(x)) else None


def _fmt(value):
    return format(value, ".16e")


def run_experiment(preset):
    """Run every variant of a preset and return the CSV text."""
    configs = [SolverConfig(spec.variant, spec.m, spec.k, preset.tol, spec.max_cycles) for spec in preset.variants]
    A = load_matrix(preset.matrix)
    b = load_rhs(preset.rhs, A.n_rows)
    x_ref = reference_solution(A, b)
    lines = ["experiment,variant,m,k,cycle,paper_mvp,true_mvp,relres,errnorm,converged"]
    all_converged = True
    for spec, config in zip(preset.variants, configs):
        report = solve(A, b, None, config, x_ref=x_ref)
        all_converged &= report.converged
        n_rows = len(report.record)
        for i, entry in enumerate(report.record):
            last = i == n_rows - 1
            lines.append(
                ",".join(
                    [
                        preset.name,
                        spec.variant,
                        str(spec.m),
                        str(spec.k),
                        str(entry.cycle),
                        str(entry.paper_mvp),
                        str(entry.true_mvp),
                        _fmt(entry.relres),
                        _fmt(entry.error_norm) if entry.error_norm is not None else "",
                        ("1" if report.converged else "0") if last else "",
                    ]
                )
            )
    return "\n".join(lines) + "\n", all_converged


class _Parser(argparse.ArgumentParser):
    """Argument parser exiting with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="gmres-sv", description="Sparse solver benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or a single configured solve")
    run_p.add_argument("--preset", help="name of a built-in experiment preset")
    run_p.add_argument("--matrix", help="gen:laplacian1d:N | gen:bidiag:N:S | gen:eye:N | MM file path")
    run_p.add_argument("--rhs", help="ones | e1en | MM vector file path (default: ones)")
    run_p.add_argument("--variant", choices=VARIANTS, help="solver variant")
    run_p.add_argument("--m", type=int, help="search-space dimension per cycle")
    run_p.add_argument("--k", type=int, help="carried directions per cycle (default: 0)")
    run_p.add_argument("--tol", type=float, help="relative residual target (default: 1e-8)")
    run_p.add_argument("--max-cycles", type=int, help="restart budget (default: 300)")
    run_p.add_argument("--out", help="CSV output path (default: stdout)")
    run_p.add_argument("--strict", action="store_true", help="exit 2 when a variant does not converge")

    id_p = sub.add_parser("identities", help="run the minimizer-identity check suites")
    id_p.add_argument("--seed", type=int, default=0)
    id_p.add_argument("--n", type=int, default=30, help="instance size (at most 100)")
    id_p.add_argument("--trials", type=int, default=200)

    sub.add_parser("presets", help="list built-in presets")
    return parser


def _cmd_run(args):
    if args.preset:
        flags = ("matrix", "rhs", "variant", "m", "k", "tol", "max_cycles")
        given = [f"--{name.replace('_', '-')}" for name in flags if getattr(args, name) is not None]
        if given:
            print(f"--preset cannot be combined with {', '.join(given)}", file=sys.stderr)
            return 1
        if args.preset not in PRESETS:
            print(f"unknown preset {args.preset!r}; try: {', '.join(sorted(PRESETS))}", file=sys.stderr)
            return 1
        preset = PRESETS[args.preset]
    else:
        if not args.matrix or not args.variant or args.m is None:
            print("either --preset or all of --matrix/--variant/--m are required", file=sys.stderr)
            return 1
        k = 0 if args.k is None else args.k
        max_cycles = 300 if args.max_cycles is None else args.max_cycles
        preset = ExperimentPreset(
            name="custom",
            matrix=args.matrix,
            rhs="ones" if args.rhs is None else args.rhs,
            variants=[VariantSpec(args.variant, m=args.m, k=k, max_cycles=max_cycles)],
            tol=1e-8 if args.tol is None else args.tol,
        )
    csv_text, all_converged = run_experiment(preset)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.strict and not all_converged:
        return 2
    return 0


def _cmd_identities(args):
    if not 1 <= args.n <= 100:
        print("identity checks need 1 <= n <= 100", file=sys.stderr)
        return 1
    if args.trials < 1:
        print("identity checks need at least one trial", file=sys.stderr)
        return 1
    suites = [
        ("exact-direction minimizer identity", run_direction_identity_suite, 1e-8),
        ("subspace-direction minimizer identity", run_projected_identity_suite, 1e-8),
        ("error-reduction gap formula", run_error_reduction_suite, 1e-8),
    ]
    for label, suite, tol in suites:
        worst = suite(seed=args.seed, n=args.n, trials=args.trials)
        status = "PASS" if worst <= tol else "FAIL"
        print(f"{status} {label}: max deviation {worst:.3e} (tolerance {tol:.0e})")
    return 0


def _cmd_presets(_args):
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        variants = ", ".join(f"{v.variant}({v.m},{v.k})" for v in preset.variants)
        print(f"{name}: matrix={preset.matrix} rhs={preset.rhs} variants=[{variants}]")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "identities":
            return _cmd_identities(args)
        return _cmd_presets(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
