import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz.errors import (
    ConditionViolatedError,
    DomainError,
    PreconditionViolatedError,
    ShapeError,
)
from quantile_kaczmarz.linalg import restricted_min_sv_bruteforce, sigma_max_sq
from quantile_kaczmarz.problems import CorruptedSystem, CorruptionSpec, GeneratorSpec, generate
from quantile_kaczmarz.rates import (
    alpha_opt_closed_form,
    certify_iteration,
    convergence_condition,
    rate_constants,
    rate_report,
    resolve_alpha_auto,
)
from quantile_kaczmarz.solvers import quantile_abk_step
from rate_identities import scaled_step_decrease

SQRT2 = math.sqrt(2.0)


def worked_4x2():
    return np.array([[1.0, 0.0], [0.0, 1.0], [1 / SQRT2, 1 / SQRT2], [1 / SQRT2, -1 / SQRT2]])


def random_valid_tuple(rng):
    """Draw (q, beta, m, s2max, s2rmin) satisfying the convergence condition."""
    while True:
        beta = float(rng.uniform(0.0, 0.15))
        q = float(rng.uniform(beta + 0.05, 1.0 - beta - 0.05))
        m = int(rng.integers(10, 10_000))
        s2max = float(rng.uniform(1.0, 50.0))
        ratio = float(rng.uniform(0.05, 1.0))
        s2rmin = ratio * s2max
        holds, _ = convergence_condition(q, beta, s2max, s2rmin)
        if holds:
            return q, beta, m, s2max, s2rmin


class TestConvergenceCondition:
    def test_no_corruption_always_holds(self):
        holds, eps = convergence_condition(0.5, 0.0, 10.0, 0.01)
        assert holds and eps == 0.0

    def test_worked_example(self):
        m = worked_4x2()
        s2max = sigma_max_sq(m)
        s2r = restricted_min_sv_bruteforce(m, 2).sigma_restricted_min_sq
        holds, eps = convergence_condition(0.5, 0.0, s2max, s2r)
        assert holds and eps == 0.0

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_zero_restricted_value_has_infinite_epsilon(self, beta):
        # four rows, three of them parallel: every pair holding two of those
        # is singular, so the restricted value is 0 even with no corruption
        a = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        summary = restricted_min_sv_bruteforce(a, 2)
        assert summary.sigma_restricted_min_sq == 0.0
        holds, eps = convergence_condition(0.5, beta, summary.sigma_max_sq, 0.0)
        assert not holds and eps == math.inf
        with pytest.raises(ConditionViolatedError, match=r"epsilon = inf >= 1"):
            rate_report(0.5, beta, 4, summary.sigma_max_sq, 0.0)

    def test_boundary_equality_fails(self):
        # sqrt(beta)/sqrt(1-q-beta) == ratio exactly: strict inequality required
        holds, eps = convergence_condition(0.5, 0.25, 1.0, 1.0)
        assert eps == 1.0 and not holds

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            convergence_condition(0.9, 0.2, 1.0, 0.5)  # q >= 1 - beta
        with pytest.raises(DomainError):
            convergence_condition(0.1, 0.2, 1.0, 0.5)  # q <= beta


class TestRateReport:
    def test_worked_example_constants(self):
        m = worked_4x2()
        s2max = sigma_max_sq(m)
        s2r = restricted_min_sv_bruteforce(m, 2).sigma_restricted_min_sq
        report = rate_report(0.5, 0.0, 4, s2max, s2r)
        assert report.c1 == pytest.approx(1 - SQRT2 / 2, rel=1e-10)
        assert report.c2 == pytest.approx((1 - SQRT2 / 2) / 2, rel=1e-10)
        assert report.alpha_opt == pytest.approx(1.0, rel=1e-10)
        assert report.contraction == pytest.approx((1 + SQRT2 / 2) / 2, rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_corruption_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        q = float(rng.uniform(0.2, 0.9))
        m = int(rng.integers(5, 500))
        s2max = float(rng.uniform(1.0, 20.0))
        s2r = float(rng.uniform(0.01, 1.0)) * s2max
        report = rate_report(q, 0.0, m, s2max, s2r)
        assert report.alpha_opt == pytest.approx(q * m / s2max, rel=1e-12)
        assert report.contraction == pytest.approx(1 - s2r / s2max, rel=1e-12)

    def test_condition_violated_raises(self):
        with pytest.raises(ConditionViolatedError):
            rate_report(0.7, 0.2, 100, 10.0, 1.0)

    def test_json_round_trip(self, tmp_path):
        report = rate_report(0.5, 0.0, 4, 2.0, 0.3)
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["alpha_opt"] == pytest.approx(report.alpha_opt)
        assert payload["inputs"]["m"] == 4

    def test_two_routes_agree_on_200_tuples(self):
        rng = np.random.default_rng(20250105)
        for _ in range(200):
            q, beta, m, s2max, s2r = random_valid_tuple(rng)
            report = rate_report(q, beta, m, s2max, s2r)
            other = alpha_opt_closed_form(q, beta, m, s2max, s2r)
            assert other == pytest.approx(report.alpha_opt, rel=1e-10)


class TestScaledStepDecrease:
    def test_optimal_step(self):
        assert scaled_step_decrease(1.0) == 1.0

    def test_half_step(self):
        assert scaled_step_decrease(0.5) == pytest.approx(0.75)

    def test_window_endpoints(self):
        assert scaled_step_decrease(1e-9) == pytest.approx(0.0, abs=1e-8)
        assert scaled_step_decrease(2 - 1e-9) == pytest.approx(0.0, abs=1e-8)
        for xi in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(DomainError):
                scaled_step_decrease(xi)

    @given(st.floats(min_value=1e-6, max_value=2 - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_matches_quadratic_decrease_ratio(self, xi):
        c1, c2 = 0.37, 0.11
        alpha_opt = c1 / (2 * c2)

        def decrease(alpha):
            return c1 * alpha - c2 * alpha * alpha

        want = decrease(xi * alpha_opt) / decrease(alpha_opt)
        assert scaled_step_decrease(xi) == pytest.approx(want, rel=1e-12)


class TestQuadraticStructure:
    def test_decrease_is_maximized_at_alpha_opt(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q, beta, m, s2max, s2r = random_valid_tuple(rng)
            c1, c2 = rate_constants(q, beta, m, s2max, s2r)
            alpha_opt = c1 / (2 * c2)

            def decrease(alpha):
                return c1 * alpha - c2 * alpha * alpha

            peak = decrease(alpha_opt)
            assert peak == pytest.approx(c1**2 / (4 * c2), rel=1e-12)
            for delta in (-0.1 * alpha_opt, 0.1 * alpha_opt):
                assert decrease(alpha_opt + delta) < peak

    def test_convergence_window_boundaries(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q, beta, m, s2max, s2r = random_valid_tuple(rng)
            c1, c2 = rate_constants(q, beta, m, s2max, s2r)

            def factor(alpha):
                return 1 - c1 * alpha + c2 * alpha * alpha

            assert factor(0.0) == 1.0
            assert abs(factor(c1 / c2) - 1.0) <= 1e-12
            interior = 0.5 * c1 / c2
            assert factor(interior) < 1.0
            assert factor(1.5 * c1 / c2) > 1.0

    def test_contraction_monotone_in_restricted_sv(self):
        q, beta, m, s2max = 0.5, 0.05, 200, 10.0
        grid = np.linspace(3.4, 10.0, 25)
        last = math.inf
        for s2r in grid:
            holds, _ = convergence_condition(q, beta, s2max, float(s2r))
            assert holds
            contraction = rate_report(q, beta, m, s2max, float(s2r)).contraction
            assert contraction <= last + 1e-12
            last = contraction


def small_system(seed, m=10, n=2, beta=0.0):
    return generate(
        GeneratorSpec(family="gaussian", m=m, n=n, seed=seed,
                      corruption=CorruptionSpec(beta=beta))
    )


class TestCertifyIteration:
    def run_step(self, system, q, alpha, x):
        return quantile_abk_step(system.matrix, system.b_observed, x, q, alpha,
                                 comparator="at-or-below")

    def test_zero_corruption_terms_are_exactly_zero(self):
        system = small_system(seed=3, m=10, n=2)
        rng = np.random.default_rng(0)
        x = system.x_star + rng.standard_normal(2)
        x_next, stats = self.run_step(system, 0.5, 1.0, x)
        cert = certify_iteration(system, x, x_next, 0.5, 1.0, stats.tau)
        assert cert.term2.actual == 0.0 and cert.term2.bound == 0.0
        assert cert.term3.actual == 0.0 and cert.term3.bound == 0.0
        assert cert.passed(tol=1e-9)

    def test_worked_matrix_matches_reported_contraction(self):
        matrix = worked_4x2()
        system = CorruptedSystem(
            matrix=matrix,
            x_star=np.zeros(2),
            b_true=np.zeros(4),
            b_observed=np.zeros(4),
            corrupted_indices=np.array([], dtype=np.intp),
            beta=0.0,
        )
        s2r = restricted_min_sv_bruteforce(matrix, 2).sigma_restricted_min_sq
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(2)
            x_next, stats = self.run_step(system, 0.5, 1.0, x)
            cert = certify_iteration(system, x, x_next, 0.5, 1.0, stats.tau,
                                     sigma_restricted_min_sq=s2r)
            assert cert.passed(tol=1e-9)
            # squared error must contract at least by the guaranteed factor
            assert cert.worst_case.bound / cert.error_sq == pytest.approx(
                (1 + SQRT2 / 2) / 2, rel=1e-10
            )

    def test_precondition_violated_for_huge_step(self):
        system = small_system(seed=6)
        rng = np.random.default_rng(1)
        x = system.x_star + rng.standard_normal(2)
        x_next, stats = self.run_step(system, 0.5, 1.0, x)
        with pytest.raises(PreconditionViolatedError):
            certify_iteration(system, x, x_next, 0.5, 1e6, stats.tau)

    def test_empty_tau_rejected(self):
        system = small_system(seed=7)
        with pytest.raises(ShapeError):
            certify_iteration(system, np.zeros(2), np.zeros(2), 0.5, 1.0, np.array([]))

    def test_short_uncorrupted_block_rejected(self):
        system = small_system(seed=8, m=12, n=3, beta=0.25)
        x = system.x_star + 1.0
        with pytest.raises(ShapeError):
            # accepted set of two rows cannot give a tall uncorrupted block
            certify_iteration(system, x, x, 0.5, 1.0, system.corrupted_indices[:2])

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_hold_on_random_corrupted_runs(self, seed):
        system = small_system(seed=100 + seed, m=12, n=2, beta=1 / 12)
        s2max = sigma_max_sq(system.matrix)
        q = 0.5  # q*m = 6 accepted rows per step
        alpha = q * system.m / s2max
        s2r = restricted_min_sv_bruteforce(
            system.matrix, 6 - 1
        ).sigma_restricted_min_sq
        rng = np.random.default_rng(seed)
        x = system.x_star + rng.standard_normal(2)
        for _ in range(8):
            x_next, stats = self.run_step(system, q, alpha, x)
            if np.linalg.norm(x - system.x_star) < 1e-13:
                break
            cert = certify_iteration(system, x, x_next, q, alpha, stats.tau,
                                     sigma_max_sq_value=s2max,
                                     sigma_restricted_min_sq=s2r)
            assert cert.passed(tol=1e-9)
            x = x_next


class TestResolveAlphaAuto:
    def test_exact_route_on_enumerable_system(self):
        system = small_system(seed=9, m=12, n=3)
        alpha, exact = resolve_alpha_auto(system, q=0.5)
        assert exact is True and alpha > 0

    def test_sampled_route_on_large_system(self):
        system = generate(
            GeneratorSpec(family="gaussian", m=400, n=4, seed=10,
                          corruption=CorruptionSpec(beta=0.0))
        )
        alpha, exact = resolve_alpha_auto(system, q=0.1, samples=40, seed=1)
        assert exact is False and alpha > 0

    @pytest.mark.parametrize("samples", [0, 2.5, True])
    def test_bad_samples_rejected_on_the_exact_route(self, samples):
        system = small_system(seed=9, m=12, n=3)
        with pytest.raises(ShapeError, match="samples"):
            resolve_alpha_auto(system, q=0.5, samples=samples)
