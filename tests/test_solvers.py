import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import csr_from_dense, random_csr
from gmres_sv.kernels import gen_eig_largest_magnitude
from gmres_sv.krylov import CycleWorkspace, run_cycle
from gmres_sv.solvers import (
    AugmentationSet,
    SolverConfig,
    extract_harmonic_directions,
    extract_singular_directions,
    solve,
)
from gmres_sv.sparse import CsrMatrix, csr_from_coo, gen_bidiagonal, gen_laplacian_1d, identity, spmv


def cyclic_shift(n):
    """Permutation sending e_i to e_{i+1}; its projected pencil is singular."""
    rows = [(i + 1) % n for i in range(n)]
    cols = list(range(n))
    return csr_from_coo(list(zip(rows, cols, [1.0] * n)), n, n)


class TestSolverConfig:
    def test_plain_requires_zero_k(self):
        with pytest.raises(ValueError, match="k=0"):
            SolverConfig("plain", m=10, k=2)

    def test_k_below_m(self):
        with pytest.raises(ValueError):
            SolverConfig("sv", m=5, k=5)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan, "1e-8", None])
    def test_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverConfig("sv", m=5, k=1, tol=tol)
        assert SolverConfig("sv", m=5, k=1, tol=np.float64(1e-8)).tol == 1e-8

    @pytest.mark.parametrize(
        "field, message", [({"variant": "cg"}, "variant must be one of"), ({"max_cycles": 0}, "at least 1")]
    )
    def test_variant_and_budget(self, field, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**({"variant": "sv", "m": 5, "k": 1} | field))

    @pytest.mark.parametrize("field", [{"m": 10.5}, {"k": 2.0}, {"max_cycles": 2.5}])
    def test_integer_sizes(self, field):
        # a float fails later with a TypeError from slicing or range; numpy integers are integers
        args = {"m": 10, "k": 2, "max_cycles": 3}
        with pytest.raises(ValueError, match=f"{next(iter(field))} must be an integer"):
            SolverConfig("sv", **(args | field))
        assert SolverConfig("sv", **{name: np.int64(value) for name, value in args.items()}).m == 10


@pytest.mark.parametrize(
    "shapes, message", [([(4, 2), (4, 1), (2,)], "identical shapes"), ([(4, 2), (4, 2), (1,)], "sigma_sq length")]
)
def test_augmentation_set_shapes_checked(shapes, message):
    with pytest.raises(ValueError, match=message):
        AugmentationSet(*(np.ones(shape) for shape in shapes))


class TestExtractSingularDirections:
    def test_identity_matrix_gives_unit_values(self):
        A = identity(6)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(6)
        cycle = run_cycle(A, b, np.zeros(6), None, CycleWorkspace(b.size, 3))
        aug = extract_singular_directions(cycle, 2)
        assert aug.size == 1  # identity breaks down after one column
        assert_allclose(aug.sigma_sq, [1.0], atol=1e-12)
        y = aug.Y[:, 0]
        assert np.linalg.norm(spmv(A, y) - y) <= 1e-10

    def test_full_space_matches_svd_oracle(self):
        # a random matrix, and one graded from 1 to 1e-6, whose Gram matrix would square that spread
        rng = np.random.default_rng(1)
        random = rng.standard_normal((30, 30)) + 3.0 * np.eye(30)
        b = rng.standard_normal(30)
        U, V = (np.linalg.qr(rng.standard_normal((30, 30)))[0] for _ in range(2))
        graded = U @ np.diag(np.logspace(0, -6, 30)) @ V.T
        for dense in (random, graded):
            cycle = run_cycle(csr_from_dense(dense), b, np.zeros(30), None, CycleWorkspace(b.size, 30))
            aug = extract_singular_directions(cycle, 2)
            _, svals, vt = np.linalg.svd(dense)
            assert_allclose(aug.sigma_sq, np.sort(svals)[:2] ** 2, rtol=1e-9)
            # the smallest direction is the last right singular vector, up to sign
            assert abs(abs(aug.Y[:, 0] @ vt[-1]) - 1.0) <= 1e-10

    def test_cached_products_consistent_with_spmv(self):
        rng = np.random.default_rng(2)
        A, _ = random_csr(rng, 70, 70, density=0.25, shift=3.0)
        b = rng.standard_normal(70)
        cycle = run_cycle(A, b, np.zeros(70), None, CycleWorkspace(b.size, 12))
        aug = extract_singular_directions(cycle, 4)
        a_fro = np.sqrt(np.sum(A.values**2))
        for i in range(aug.size):
            gap = np.linalg.norm(spmv(A, aug.Y[:, i]) - aug.AY[:, i])
            assert gap <= 1e-8 * a_fro * np.linalg.norm(aug.Y[:, i])

    def test_values_ascend(self):
        rng = np.random.default_rng(3)
        A, _ = random_csr(rng, 40, 40, density=0.3, shift=2.0)
        b = rng.standard_normal(40)
        cycle = run_cycle(A, b, np.zeros(40), None, CycleWorkspace(b.size, 10))
        aug = extract_singular_directions(cycle, 5)
        assert np.all(np.diff(aug.sigma_sq) >= 0)

    def test_negligible_directions_discarded(self):
        # Nearly singular matrix: the full-space search contains a direction
        # whose squared value falls below the relative cutoff and is dropped.
        A = csr_from_dense(np.diag([3e-7, 1.0, 2.0, 3.0, 4.0, 5.0]))
        b = np.ones(6)
        cycle = run_cycle(A, b, np.zeros(6), None, CycleWorkspace(b.size, 6))
        aug = extract_singular_directions(cycle, 2)
        assert aug.size == 1
        assert aug.sigma_sq[0] > 1e-10


class TestExtractHarmonicDirections:
    def test_spd_full_space_matches_eigensolver_oracle(self):
        A = gen_laplacian_1d(12)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(12)
        cycle = run_cycle(A, b, np.zeros(12), None, CycleWorkspace(b.size, 12))
        eigs = np.linalg.eigvalsh(A.to_dense())
        large = extract_harmonic_directions(cycle, 2)
        assert abs(large.sigma_sq[-1] - eigs[-1]) <= 1e-6

    def test_identity_reduces_to_singular_extraction(self):
        A = identity(5)
        b = np.arange(1.0, 6.0)
        cycle = run_cycle(A, b, np.zeros(5), None, CycleWorkspace(b.size, 2))
        sv = extract_singular_directions(cycle, 1)
        hr = extract_harmonic_directions(cycle, 1)
        assert_allclose(hr.sigma_sq, sv.sigma_sq, atol=1e-12)

    def test_cached_products_consistent_with_spmv(self):
        rng = np.random.default_rng(5)
        A, _ = random_csr(rng, 60, 60, density=0.25, shift=4.0)
        b = rng.standard_normal(60)
        cycle = run_cycle(A, b, np.zeros(60), None, CycleWorkspace(b.size, 10))
        aug = extract_harmonic_directions(cycle, 3)
        a_fro = np.sqrt(np.sum(A.values**2))
        assert aug.size > 0
        for i in range(aug.size):
            gap = np.linalg.norm(spmv(A, aug.Y[:, i]) - aug.AY[:, i])
            assert gap <= 1e-8 * a_fro * np.linalg.norm(aug.Y[:, i])

    def test_singular_pencil_returns_empty_set(self):
        A = cyclic_shift(8)
        b = np.zeros(8)
        b[0] = 1.0
        cycle = run_cycle(A, b, np.zeros(8), None, CycleWorkspace(b.size, 3))
        aug = extract_harmonic_directions(cycle, 2)
        assert aug.size == 0

    def test_pairs_of_a_solve_meet_the_pencil_residual_bound(self, monkeypatch):
        # every pair hr keeps on the bidiagonal preset's cycles passes the residual test the kernel no longer applies
        pencils = []

        def recording(R, F, k):
            values, vectors = gen_eig_largest_magnitude(R, F, k)
            pencils.append((R.T @ R, F, values, vectors))
            return values, vectors

        monkeypatch.setattr("gmres_sv.solvers.gen_eig_largest_magnitude", recording)
        config = SolverConfig("hr", m=20, k=2, max_cycles=100)
        report = solve(gen_bidiagonal(1000, 0.1), np.ones(1000), None, config)
        assert report.converged
        assert len(pencils) == len(report.record) - 1
        assert sum(values.size for _, _, values, _ in pencils) == 2 * len(pencils)
        for G, F, values, vectors in pencils:
            for theta, g in zip(values, vectors.T):
                bound = 1e-8 * (np.linalg.norm(G) + abs(theta) * np.linalg.norm(F))
                assert np.linalg.norm(G @ g - theta * (F @ g)) <= bound


@pytest.mark.parametrize("extract", [extract_singular_directions, extract_harmonic_directions])
def test_extractors_reject_k_below_one(extract):
    cycle = run_cycle(identity(5), np.ones(5), np.zeros(5), None, CycleWorkspace(5, 2))
    with pytest.raises(ValueError, match="k must"):
        extract(cycle, 0)


class TestSolve:
    def test_identity_converges_in_one_cycle(self):
        A = identity(7)
        b = np.arange(1.0, 8.0)
        report = solve(A, b, None, SolverConfig("plain", m=3), x_ref=b)
        assert report.converged
        assert len(report.record) == 1
        assert_allclose(report.x, b, atol=1e-12)
        assert report.final_error_norm <= 1e-12

    def test_converged_iff_final_relres_below_tol(self):
        A = gen_laplacian_1d(30)
        b = np.ones(30)
        good = solve(A, b, None, SolverConfig("plain", m=30))
        assert good.converged == (good.final_relres <= 1e-8)
        assert good.converged
        bad = solve(A, b, None, SolverConfig("plain", m=3, max_cycles=2))
        assert bad.converged == (bad.final_relres <= 1e-8)
        assert not bad.converged

    def test_budget_exhaustion_is_not_an_error(self):
        A = gen_laplacian_1d(40)
        b = np.ones(40)
        report = solve(A, b, None, SolverConfig("plain", m=4, max_cycles=3))
        assert not report.converged
        assert len(report.record) == 3

    def test_zero_rhs(self):
        A = gen_laplacian_1d(5)
        report = solve(A, np.zeros(5), None, SolverConfig("plain", m=2))
        assert report.converged
        assert report.final_relres == 0.0
        assert_allclose(report.x, np.zeros(5), atol=0)

    def test_zero_rhs_ignores_the_start_and_measures_the_error(self):
        x_ref = np.full(5, 2.0)
        report = solve(gen_laplacian_1d(5), np.zeros(5), np.ones(5), SolverConfig("sv", 3, 1), x_ref=x_ref)
        assert np.array_equal(report.x, np.zeros(5))
        assert report.converged
        assert report.final_relres == 0.0
        assert report.record == []
        assert report.final_error_norm == 4.47213595499958

    def test_no_workspace_when_no_cycle_runs(self, monkeypatch):
        monkeypatch.setattr("gmres_sv.solvers.CycleWorkspace", None)
        A = gen_laplacian_1d(6)
        x = np.arange(1.0, 7.0)
        assert solve(A, np.zeros(6), x, SolverConfig("sv", 3, 1)).converged
        assert solve(A, spmv(A, x), x, SolverConfig("sv", 3, 1)).converged

    def test_starting_iterate_already_converged(self):
        A = gen_laplacian_1d(6)
        x = np.arange(1.0, 7.0)
        b = spmv(A, x)
        report = solve(A, b, x, SolverConfig("plain", m=3))
        assert report.converged
        assert len(report.record) == 0

    def test_exact_iterate_stops_the_loop(self, caplog):
        # cycle 1 lands on x exactly while its rotated-rhs estimate stays positive, above tol;
        # a second cycle would start from a zero residual, and the exact residual outranks the estimate
        A = csr_from_coo((np.arange(6), np.arange(6), [4.0, 4.0, 4.0, 2.0, 1.0, 3.0]), 6, 6)
        b = spmv(A, np.array([-2.0, 3.0, -2.0, 0.0, 0.0, 0.0]))
        with caplog.at_level("INFO", logger="gmres_sv.solvers"):
            report = solve(A, b, None, SolverConfig("hr", m=4, k=1, tol=1e-30, max_cycles=8))
        assert len(report.record) == 1
        assert not (b - spmv(A, report.x)).any()
        assert report.record[0].relres > 1e-30
        assert report.final_relres == 0.0
        assert report.converged is True
        assert "solves the system exactly" in caplog.text

    def test_matvec_accounting_matches_convention(self):
        A = gen_laplacian_1d(50)
        b = np.ones(50)
        config = SolverConfig("sv", m=8, k=2, max_cycles=6, tol=1e-14)
        report = solve(A, b, None, config)
        paper = [e.paper_mvp for e in report.record]
        true = [e.true_mvp for e in report.record]
        increments = np.diff([0] + paper)
        # the first cycle runs all m = 8 Krylov steps; later ones only m - k = 6
        expected = [8] + [6] * (len(paper) - 1)
        assert list(increments) == expected
        # the true counter additionally charges one restart residual per
        # cycle plus the initial residual
        assert true[0] == paper[0] + 2
        assert all(t - p == 1 + i + 2 for i, (t, p) in enumerate(zip(true[1:], paper[1:])))

    def test_record_monotone_and_counters_increasing(self):
        A = gen_bidiagonal(200, 0.1)
        b = np.ones(200)
        report = solve(A, b, None, SolverConfig("sv", m=10, k=2, max_cycles=40))
        relres = [e.relres for e in report.record]
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(relres, relres[1:]))
        for key in ("paper_mvp", "true_mvp"):
            seq = [getattr(e, key) for e in report.record]
            assert all(b2 > a2 for a2, b2 in zip(seq, seq[1:]))

    def test_error_norm_logged_against_reference(self):
        A = gen_laplacian_1d(25)
        x_ref = np.linspace(0.0, 1.0, 25)
        b = spmv(A, x_ref)
        report = solve(A, b, None, SolverConfig("plain", m=25), x_ref=x_ref)
        assert report.record[-1].error_norm <= 1e-8
        assert report.final_error_norm == report.record[-1].error_norm

    def test_stagnation_guard_stops_stalled_run(self):
        # A pure shift permutation makes every restarted cycle identical, so
        # the residual improvement is exactly zero until the guard trips.
        A = cyclic_shift(8)
        b = np.zeros(8)
        b[0] = 1.0
        report = solve(A, b, None, SolverConfig("plain", m=3, max_cycles=100))
        assert not report.converged
        assert len(report.record) == 10

    def test_harmonic_falls_back_on_singular_pencil(self):
        A = cyclic_shift(8)
        b = np.zeros(8)
        b[0] = 1.0
        report = solve(A, b, None, SolverConfig("hr", m=3, k=1, max_cycles=100))
        assert not report.converged
        assert len(report.record) == 10

    def test_on_cycle_hook_sees_every_cycle(self):
        A = gen_laplacian_1d(30)
        b = np.ones(30)
        seen = []
        report = solve(
            A,
            b,
            None,
            SolverConfig("sv", m=6, k=2, max_cycles=10),
            on_cycle=lambda c, res: seen.append((c, res.n_cols)),
        )
        assert [c for c, _ in seen] == [e.cycle for e in report.record]

    def test_solve_keeps_no_cycle_result(self):
        # A result views the solve's one workspace, which the next cycle
        # overwrites; nothing may hold it past its own cycle.
        A = gen_laplacian_1d(40)
        refs = []

        def hook(cycle, result):
            assert all(ref() is None for ref in refs)
            refs.append(weakref.ref(result))

        report = solve(A, np.ones(40), None, SolverConfig("sv", m=8, k=2, max_cycles=6), on_cycle=hook)
        assert len(refs) == len(report.record) == 6
        assert refs[-1]() is None

    def test_sv_beats_or_ties_plain_on_graded_diagonal(self):
        A = gen_bidiagonal(1000, 0.1)
        b = np.ones(1000)

        def cycles(variant, m, k):
            rep = solve(A, b, None, SolverConfig(variant, m=m, k=k, max_cycles=120))
            return len(rep.record) if rep.converged else np.inf

        for k in (2, 4):
            assert cycles("sv", 20, k) <= cycles("plain", 20, 0)


class TestSolveScaling:
    @pytest.mark.parametrize("scale", [1e-300, 1e300, 1e-310, 5e-324])
    def test_extreme_rhs_solves_like_unit_rhs(self, scale):
        # ||b|| under- or overflows unless solve scales b by a power of two;
        # 1e-310 and 5e-324 (the smallest subnormal) lie below 2**-1022.
        A = gen_laplacian_1d(50)
        config = SolverConfig("sv", 10, 2)
        report = solve(A, scale * np.ones(50), None, config)
        assert report.converged and report.final_relres <= config.tol
        x_exact = np.linalg.solve(A.to_dense(), np.ones(50))
        # a subnormal x is rounded to a multiple of 2**-1074 per entry
        rounding = np.sqrt(50) * 2.0**-1074 / scale
        error = np.linalg.norm((report.x - scale * x_exact) / scale)
        assert error <= 1e-6 * np.linalg.norm(x_exact) + rounding
        unit = solve(A, np.ones(50), None, config)
        assert [e.paper_mvp for e in report.record] == [e.paper_mvp for e in unit.record]

    @pytest.mark.parametrize("b_scale, x_scale", [(1e-300, 1e10), (1.0, 1e300)])
    def test_unmeasurable_starting_residual_is_reported(self, b_scale, x_scale):
        A = gen_laplacian_1d(50)
        report = solve(A, b_scale * np.ones(50), x_scale * np.ones(50), SolverConfig("sv", 10, 2))
        assert not report.converged
        assert report.final_relres == np.inf
        assert len(report.record) == 0
        assert np.array_equal(report.x, x_scale * np.ones(50))

    def test_final_error_norm_survives_overflowing_squares(self):
        # ||x0 - x_ref|| is about 7.07e200, but its squares overflow
        A = gen_laplacian_1d(50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(A, np.ones(50), 1e200 * np.ones(50), SolverConfig("sv", 10, 2), x_ref=np.ones(50))
        assert report.final_error_norm == pytest.approx(np.sqrt(50) * 1e200, rel=1e-12)

    def test_cycle_error_norms_survive_overflowing_squares(self):
        A = gen_laplacian_1d(50)
        b = 1e200 * np.ones(50)
        x_ref = np.linalg.solve(A.to_dense(), b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(A, b, None, SolverConfig("sv", 10, 2), x_ref=x_ref)
        assert report.converged
        errors = [e.error_norm for e in report.record]
        assert np.all(np.isfinite(errors))
        assert errors[0] <= np.linalg.norm(x_ref / 1e200) * 1e200
        assert errors[-1] == pytest.approx(np.linalg.norm((report.x - x_ref) / 1e190) * 1e190, rel=1e-12)
        assert report.final_error_norm == errors[-1]

    @pytest.mark.parametrize("shift", [-600, -531, 531, 900])
    @pytest.mark.parametrize("variant, k", [("plain", 0), ("sv", 4), ("hr", 4)])
    def test_extreme_matrix_solves_like_unit_matrix(self, variant, k, shift):
        # the Arnoldi step's inner products under- or overflow unless solve
        # scales A by a power of two; the shift is exact, so the histories match
        A = gen_laplacian_1d(200)
        scaled = CsrMatrix(200, 200, A.row_ptr, A.col_idx, np.ldexp(A.values, shift))
        config = SolverConfig(variant, 20, k, max_cycles=30)
        unit = solve(A, np.ones(200), None, config)
        report = solve(scaled, np.ones(200), None, config)
        assert [e.relres for e in report.record] == [e.relres for e in unit.record]
        assert report.final_relres == unit.final_relres
        assert np.array_equal(report.x, np.ldexp(unit.x, -shift))

    @pytest.mark.parametrize("a_shift, b_shift", [(-600, 600), (0, 1015)])
    def test_overflowing_solution_is_not_converged(self, a_shift, b_shift):
        # the scaled system converges, but x = 2**(b_shift - a_shift) * x_scaled overflows
        A = gen_laplacian_1d(200)
        scaled = CsrMatrix(200, 200, A.row_ptr, A.col_idx, np.ldexp(A.values, a_shift))
        report = solve(scaled, np.ldexp(np.ones(200), b_shift), None, SolverConfig("sv", 20, 4))
        assert report.record[-1].relres <= 1e-8
        assert not report.converged and report.final_relres == np.inf

    def test_error_norm_survives_underflowing_squares(self):
        # the error entries are about 1e-175, so their squares underflow to zero
        A = gen_laplacian_1d(200)
        x_exact = np.linalg.solve(A.to_dense(), np.ones(200))
        config = SolverConfig("sv", 20, 4)
        unit = solve(A, np.ones(200), None, config, x_ref=x_exact)
        report = solve(A, np.ldexp(np.ones(200), -560), None, config, x_ref=np.ldexp(x_exact, -560))
        assert report.final_error_norm == pytest.approx(np.ldexp(unit.final_error_norm, -560), rel=1e-12)
        errors = [np.ldexp(e.error_norm, 560) for e in report.record]
        assert_allclose(errors, [e.error_norm for e in unit.record], rtol=1e-12)

    def test_unit_rhs_runs_unscaled(self):
        A = gen_laplacian_1d(30)
        b = np.linspace(1.0, 2.0, 30)
        seen = []
        solve(A, b, None, SolverConfig("plain", 5, max_cycles=2), on_cycle=lambda c, res: seen.append(res.x_new.copy()))
        first = run_cycle(A, b, np.zeros(30), None, CycleWorkspace(b.size, 5))
        assert np.array_equal(seen[0], first.x_new)


def gradings(draw, n, depths):
    """A depth ``d`` from ``depths`` and scale factors: powers of ten graded from 1 down to ``10**-d``, or ``10**-d`` on one entry."""
    depth = draw(st.sampled_from(depths))
    if draw(st.booleans()):
        return depth, 10.0 ** -(depth * np.arange(n) / (n - 1))
    scale = np.ones(n)
    scale[draw(st.integers(0, n - 1))] = 10.0**-depth
    return depth, scale


@st.composite
def small_systems(draw):
    """A random sparse system of order 4-30, a starting iterate, the row-scaling depth and a solver configuration.

    The rows are scaled by a grading of depth 0, 30, 300, 310 or 320; the
    last two take entries below the smallest normal float. The right-hand
    side is scaled by a grading of depth 0, 30 or 300. The starting iterate
    is ``None``, the dense solution when it is finite, or a random vector
    of scale 1 or 1e300.
    """
    n = draw(st.integers(4, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, dense = random_csr(rng, n, n, density=draw(st.floats(0.05, 0.5)), shift=draw(st.floats(1.0, 6.0)))
    depth, scale = gradings(draw, n, [0, 30, 300, 310, 320])
    _, rhs_scale = gradings(draw, n, [0, 30, 300])
    variant = draw(st.sampled_from(["plain", "sv", "hr"]))
    m = draw(st.integers(2, 10))
    k = 0 if variant == "plain" else draw(st.integers(1, m - 1))
    config = SolverConfig(variant, m, k, tol=1e-8, max_cycles=draw(st.integers(1, 25)))
    dense = scale[:, None] * dense
    b = rhs_scale * rng.standard_normal(n)
    starts = [None, rng.standard_normal(n), 1e300 * rng.standard_normal(n)]
    with np.errstate(all="ignore"):
        solution = np.linalg.solve(dense, b)
    if np.all(np.isfinite(solution)):
        starts.append(solution)
    return csr_from_dense(dense), b, draw(st.sampled_from(starts)), depth, config


class TestSolveProperties:
    @settings(deadline=None, max_examples=150)
    @given(small_systems())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_invariants(self, case):
        A, b, x0, depth, config = case
        report = solve(A, b, x0, config)
        if not report.record:
            assert report.x.tobytes() == (np.zeros(b.size) if x0 is None else x0).tobytes()
        assert np.all(np.isfinite(report.x))
        with np.errstate(over="ignore", invalid="ignore"):
            recomputed = np.linalg.norm(b - spmv(A, report.x)) / np.linalg.norm(b)
        assert report.converged == (report.final_relres <= config.tol)
        if report.converged:
            assert abs(report.final_relres - recomputed) <= 1e-8
        if report.record:
            last = report.record[-1]
            assert last.true_mvp == last.paper_mvp + last.cycle + 1
        # the depth-0 checks need the start's rounding error, about
        # eps * norm(A) * norm(x0), to stay far below norm(b)
        if depth == 0 and (x0 is None or np.max(np.abs(x0)) < 1e100):
            relres = [e.relres for e in report.record]
            # d = 0 is feasible in every cycle, so the residual cannot grow
            assert all(later <= earlier * (1 + 1e-10) + 1e-15 for earlier, later in zip(relres, relres[1:]))
            assert abs(report.final_relres - recomputed) <= 1e-8


class TestSolveBadInput:
    @pytest.mark.parametrize("where", ["matrix", "right-hand side", "starting iterate", "reference solution"])
    def test_non_finite_input_rejected(self, where):
        A = gen_laplacian_1d(50)
        b = np.ones(50)
        x0 = np.zeros(50)
        x_ref = np.ones(50)
        if where == "matrix":
            # The constructor rejects non-finite values and freezes its
            # arrays; solve must still catch a value array that a caller
            # made writable again and overwrote in place.
            with pytest.raises(ValueError, match="read-only"):
                A.values[4] = np.nan
            A.values.flags.writeable = True
            A.values[4] = np.nan
        elif where == "right-hand side":
            b[3] = np.nan
        elif where == "starting iterate":
            x0[7] = np.inf
        else:
            x_ref[3] = np.nan
        with pytest.raises(ValueError, match=where):
            solve(A, b, x0, SolverConfig("sv", 10, 2), x_ref=x_ref)

    @pytest.mark.parametrize("shape", [(50, 1), (1,), (49,), ()])
    def test_misshaped_reference_solution_rejected(self, shape):
        # (50, 1) would broadcast x - x_ref to 50 x 50 and (1,) to 50 entries
        with pytest.raises(ValueError, match="reference solution"):
            solve(gen_laplacian_1d(50), np.ones(50), None, SolverConfig("sv", 10, 2), x_ref=np.ones(shape))

    @pytest.mark.parametrize("shape", [(49,), (50, 1), ()])
    def test_misshaped_right_hand_side_rejected(self, shape):
        # the length is checked before the NaN entries are
        with pytest.raises(ValueError, match="^right-hand side length does not match the matrix$"):
            solve(gen_laplacian_1d(50), np.full(shape, np.nan), None, SolverConfig("sv", 10, 2))

    def test_rectangular_matrix_rejected(self):
        with pytest.raises(ValueError, match="^coefficient matrix must be square$"):
            solve(csr_from_coo([(0, 0, 1.0), (1, 2, 1.0)], 2, 3), np.ones(2), None, SolverConfig("plain", 2))

    @pytest.mark.parametrize("rhs", [0.0, 1.0])
    @pytest.mark.parametrize("shape", [(7,), (5, 1), ()])
    def test_misshaped_starting_iterate_rejected(self, shape, rhs):
        # the zero-rhs exit must not return before the shape is checked
        with pytest.raises(ValueError, match="starting iterate length"):
            solve(gen_laplacian_1d(5), rhs * np.ones(5), np.ones(shape), SolverConfig("plain", 2))

    @pytest.mark.parametrize("variant,k", [("sv", 1), ("hr", 1), ("plain", 0)])
    def test_singular_system_reported_not_raised(self, variant, k):
        A = csr_from_coo([(0, 0, 1.0), (1, 1, 1.0), (2, 2, 0.0)], 3, 3)
        b = np.ones(3)
        report = solve(A, b, None, SolverConfig(variant, 2, k))
        assert not report.converged
        assert report.converged == (report.final_relres <= 1e-8)
        assert np.all(np.isfinite(report.x))
        relres = np.linalg.norm(b - spmv(A, report.x)) / np.linalg.norm(b)
        assert report.final_relres == pytest.approx(relres, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variant,k", [("sv", 1), ("hr", 1), ("plain", 0)])
    def test_subnormal_pivot_not_reported_converged(self, variant, k, caplog):
        # the second cycle's pivot 1e-310 passes a tolerance that underflows
        # to 0.0 and its division overflows: x would hold inf and NaN
        A = csr_from_coo([(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1e-310)], 3, 3)
        b = np.ones(3)
        with caplog.at_level("INFO", logger="gmres_sv.solvers"):
            report = solve(A, b, None, SolverConfig(variant, 2, k))
        assert not report.converged
        assert np.array_equal(report.x, np.ones(3))
        assert len(report.record) == 1 and report.final_relres == pytest.approx(1 / np.sqrt(3), rel=1e-12)
        assert "not finite" in caplog.text
