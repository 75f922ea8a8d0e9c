import numpy as np

from gmres_sv.diagnostics import (
    minimizing_step,
    projection_residual_bound,
    run_direction_identity_suite,
    run_error_reduction_suite,
    run_projected_identity_suite,
)
from gmres_sv.solvers import SolverConfig, solve
from gmres_sv.sparse import gen_laplacian_1d


class TestMinimizerIdentities:
    def test_exact_direction_suite(self):
        assert run_direction_identity_suite(seed=0, n=30, trials=200) <= 1e-9

    def test_projected_direction_suite(self):
        assert run_projected_identity_suite(seed=1, n=30, trials=200) <= 1e-9

    def test_error_reduction_suite(self):
        assert run_error_reduction_suite(seed=2, n=30, trials=200) <= 1e-8

    def test_scalar_instances(self):
        assert run_direction_identity_suite(seed=3, n=1, trials=25) <= 1e-12
        assert run_projected_identity_suite(seed=4, n=1, trials=25) <= 1e-12
        assert run_error_reduction_suite(seed=5, n=1, trials=25) <= 1e-12

    def test_zero_error_vector_gives_zero_steps(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((12, 12))
        x = rng.standard_normal(12)
        b = A @ x
        _, _, Vt = np.linalg.svd(A)
        z = Vt[4]
        a_res = minimizing_step(b - A @ x, A @ z)
        a_err = minimizing_step(x - x, z)
        assert a_res == 0.0
        assert a_err == 0.0

    def test_zero_direction_gives_zero_step(self):
        assert minimizing_step(np.ones(4), np.zeros(4)) == 0.0


class TestProjectionResidualBound:
    def test_bound_holds_on_augmented_cycles(self):
        A = gen_laplacian_1d(80)
        b = np.ones(80)
        pairs = []

        def hook(cycle, result):
            if result.Y.shape[1] > 0:
                pairs.append(projection_residual_bound(A, b, result))

        solve(A, b, None, SolverConfig("sv", m=10, k=2, max_cycles=12), on_cycle=hook)
        assert len(pairs) >= 5
        for r_new, bound in pairs:
            assert r_new <= bound + 1e-10

    def test_bound_is_tight_for_residual_optimal_cycle(self):
        A = gen_laplacian_1d(40)
        b = np.ones(40)
        captured = []
        solve(
            A,
            b,
            None,
            SolverConfig("plain", m=8, max_cycles=3),
            on_cycle=lambda c, res: captured.append(projection_residual_bound(A, b, res)),
        )
        for r_new, bound in captured:
            assert abs(r_new - bound) <= 1e-9 * max(bound, 1e-30)
