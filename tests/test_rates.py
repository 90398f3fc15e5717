import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz.errors import (
    ConditionViolatedError,
    ConfigError,
    DomainError,
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
    restricted_summary,
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
        report = rate_report(0.5, beta, 4, summary.sigma_max_sq, 0.0)
        assert not report.condition_holds and report.epsilon == math.inf
        assert report.alpha_opt is None and report.contraction is None
        assert report.summary().startswith("condition holds: False (epsilon = inf)\n")

    def test_boundary_equality_fails(self):
        # sqrt(beta)/sqrt(1-q-beta) == ratio exactly: strict inequality required
        holds, eps = convergence_condition(0.5, 0.25, 1.0, 1.0)
        assert eps == 1.0 and not holds

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            convergence_condition(0.9, 0.2, 1.0, 0.5)  # q >= 1 - beta
        with pytest.raises(DomainError):
            convergence_condition(0.1, 0.2, 1.0, 0.5)  # q <= beta

    @pytest.mark.parametrize("spectral", [(-1.0, 0.5), (0.0, 0.5), (1.0, -0.5)])
    def test_negative_spectral_input_is_a_domain_error(self, spectral):
        with pytest.raises(DomainError, match="^spectral inputs must be nonnegative"):
            convergence_condition(0.5, 0.1, *spectral)


# A misfit scalar per case: the error names it, before any arithmetic.
SCALAR_MISFITS = [
    (rate_report, ("0.5", 0.1, 40, 3, 1.0, 1.0), "q"),
    (rate_report, (0.5, True, 40, 3.0, 1.0), "beta"),
    (rate_report, (0.5, 0.1, 40.0, 3.0, 1.0), "m"),
    (rate_report, (0.5, 0.1, 0, 3.0, 1.0), "m"),
    (convergence_condition, (False, 0.1, 3.0, 1.0), "q"),
    (convergence_condition, (0.5, None, 3.0, 1.0), "beta"),
    (convergence_condition, (0.5, 0.1, "3", 1.0), "sigma_max_sq"),
    (convergence_condition, (0.5, 0.1, 3.0, [1.0]), "sigma_restricted_min_sq"),
    (rate_constants, (0.5, 0.1, "40", 3.0, 1.0), "m"),
    (rate_constants, (0.5, 0.1, 40, None, 1.0), "sigma_max_sq"),
    (rate_constants, (0.5, "0.1", 40, 3.0, 1.0), "beta"),
    (alpha_opt_closed_form, (0.5, 0.1, True, 3.0, 1.0), "m"),
    (alpha_opt_closed_form, (0.5, 0.1, 40, 3.0, "1"), "sigma_restricted_min_sq"),
    (alpha_opt_closed_form, (1j, 0.1, 40, 3.0, 1.0), "q"),
]


@pytest.mark.parametrize("route, args, name", SCALAR_MISFITS, ids=[
    f"{route.__name__}-{name}-{i}" for i, (route, _, name) in enumerate(SCALAR_MISFITS)])
def test_a_misfit_scalar_is_a_domain_error_naming_it(route, args, name):
    with pytest.raises(DomainError, match=f"^{name} must be "):
        route(*args)


# Inputs of the right types whose constants no float holds: c2 squares
# sigma_max_sq = 1e200 and q*m = 5e199, and at 1e-200 c2 underflows to 0
# while the condition holds (epsilon = 0.5), so alpha_opt divides by zero.
UNREPRESENTABLE = [
    (rate_constants, (0.5, 0.1, 40, 1e200, 1.0), "c1 and c2"),
    (rate_report, (0.5, 0.1, 40, 1e200, 1.0), "c1 and c2"),
    (rate_constants, (0.5, 0.1, 10**200, 1.0, 1.0), "c1 and c2"),
    (rate_report, (0.5, 0.1, 40, 1e-200, 1e-200), "alpha_opt and the contraction"),
    (alpha_opt_closed_form, (0.5, 0.1, 10**400, 1.0, 1.0), "alpha_opt"),
]


@pytest.mark.parametrize("route, args, what", UNREPRESENTABLE, ids=[
    f"{route.__name__}-{i}" for i, (route, _, _) in enumerate(UNREPRESENTABLE)])
def test_a_constant_no_float_holds_is_a_domain_error(route, args, what):
    with pytest.raises(DomainError, match=f"^{what} would not be finite for these inputs$"):
        route(*args)


def test_the_epsilon_route_keeps_alpha_opt_where_c2_underflows():
    # rate_report refuses these inputs (UNREPRESENTABLE above): its c2 is 0.
    assert alpha_opt_closed_form(0.5, 0.1, 40, 1e-200, 1e-200) == pytest.approx(4e201, rel=1e-12)


@pytest.mark.parametrize("spectral", [(0.0, 1.0), (-3.0, 1.0), (3.0, -1.0)],
                         ids=["max=0", "max<0", "restricted<0"])
@pytest.mark.parametrize("route", [convergence_condition, rate_constants, rate_report,
                                   alpha_opt_closed_form], ids=lambda route: route.__name__)
def test_every_spectral_route_refuses_the_same_inputs(route, spectral):
    args = (0.5, 0.1, *spectral) if route is convergence_condition else (0.5, 0.1, 40, *spectral)
    with pytest.raises(DomainError,
                       match=r"^spectral inputs must be nonnegative with sigma_max_sq > 0$"):
        route(*args)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("position", [0, 1], ids=["sigma_max_sq", "sigma_restricted_min_sq"])
@pytest.mark.parametrize("route", [convergence_condition, rate_constants, rate_report,
                                   alpha_opt_closed_form], ids=lambda route: route.__name__)
def test_every_spectral_route_refuses_a_non_finite_input(route, position, value):
    # convergence_condition(0.5, 0.1, 1.0, inf) was (True, 0.0), and with nan
    # for sigma_max_sq (False, nan).
    spectral = [1.0, 0.5]
    spectral[position] = value
    args = (0.5, 0.1, *spectral) if route is convergence_condition else (0.5, 0.1, 40, *spectral)
    name = ["sigma_max_sq", "sigma_restricted_min_sq"][position]
    with pytest.raises(DomainError, match=rf"^{name} must be finite, got "):
        route(*args)


@st.composite
def rate_inputs(draw):
    """Inputs in the domain whose report a float holds: q*m is at least 1e-3,
    and a nonzero restricted value at least 1e-3 of the largest, so c2 does not
    underflow."""
    beta = draw(st.floats(0.0, 0.49))
    q = draw(st.floats(max(beta, 1e-3), 1.0 - beta, exclude_min=True, exclude_max=True))
    s2max = draw(st.floats(1e-3, 1e6))
    s2r = draw(st.one_of(st.just(0.0), st.floats(1e-3 * s2max, s2max)))
    return q, beta, draw(st.integers(1, 10**6)), s2max, s2r


@given(rate_inputs())
@settings(max_examples=300, deadline=None)
def test_rate_report_holds_the_bits_of_its_parts(inputs):
    q, beta, m, s2max, s2r = inputs
    c1, c2 = rate_constants(q, beta, m, s2max, s2r)
    holds, epsilon = convergence_condition(q, beta, s2max, s2r)
    report = rate_report(q, beta, m, s2max, s2r)
    assert [v.hex() for v in (report.c1, report.c2, report.epsilon)] == [
        v.hex() for v in (c1, c2, epsilon)]
    assert report.condition_holds is holds


@pytest.mark.parametrize("q", ["0.5", True, None])
def test_resolve_alpha_auto_refuses_a_misfit_q(q):
    system = small_system(seed=9, m=12, n=3)
    with pytest.raises(DomainError, match="^q must be a real number"):
        resolve_alpha_auto(system, q)


class TestRateReport:
    def test_beta_one_is_a_domain_error(self):
        with pytest.raises(DomainError, match=re.escape("beta must lie in [0, 1), got 1.0")):
            rate_report(0.5, 1.0, 40, 3.0, 1.0)

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

    def test_condition_violated_is_a_refuted_report(self):
        report = rate_report(0.7, 0.2, 100, 10.0, 1.0)
        _, eps = convergence_condition(0.7, 0.2, 10.0, 1.0)
        assert not report.condition_holds and report.epsilon == eps >= 1
        assert report.alpha_opt is None and report.contraction is None
        assert (report.c1, report.c2) == rate_constants(0.7, 0.2, 100, 10.0, 1.0)
        assert report.summary().splitlines() == [
            f"condition holds: False (epsilon = {eps:.6g})",
            "no step size carries a guaranteed contraction for these inputs",
            report.inputs.summary(),
        ]
        with pytest.raises(ConditionViolatedError):
            alpha_opt_closed_form(0.7, 0.2, 100, 10.0, 1.0)  # the independent route still raises

    @pytest.mark.parametrize("s2r", [1.0, 0.0])
    def test_refuted_report_is_strict_json(self, tmp_path, s2r):
        report = rate_report(0.7, 0.2, 100, 10.0, s2r)
        path = tmp_path / "report.json"
        report.to_json(path)

        def no_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        payload = json.loads(path.read_text(), parse_constant=no_constant)
        assert payload["condition_holds"] is False
        assert payload["alpha_opt"] is None and payload["contraction"] is None
        assert payload["epsilon"] == (None if s2r == 0.0 else report.epsilon)
        assert payload["c1"] == report.c1 and payload["c2"] == report.c2
        assert payload["inputs"]["sigma_restricted_min_sq"] == s2r

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
        assert cert.passed()

    def test_worked_matrix_matches_reported_contraction(self):
        matrix = worked_4x2()
        system = CorruptedSystem(
            matrix=matrix,
            x_star=np.zeros(2),
            b_observed=np.zeros(4),
            corrupted_indices=np.array([], dtype=np.intp),
        )
        s2r = restricted_min_sv_bruteforce(matrix, 2).sigma_restricted_min_sq
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(2)
            x_next, stats = self.run_step(system, 0.5, 1.0, x)
            cert = certify_iteration(system, x, x_next, 0.5, 1.0, stats.tau,
                                     sigma_restricted_min_sq=s2r)
            assert cert.passed()
            # squared error must contract at least by the guaranteed factor
            assert cert.worst_case.bound / cert.error_sq == pytest.approx(
                (1 + SQRT2 / 2) / 2, rel=1e-10
            )

    def test_worst_case_term_refuses_a_negative_restricted_value(self):
        system = small_system(seed=3, m=10, n=2)
        x = system.x_star + np.random.default_rng(0).standard_normal(2)
        x_next, stats = self.run_step(system, 0.5, 1.0, x)
        with pytest.raises(DomainError, match="^spectral inputs must be nonnegative"):
            certify_iteration(system, x, x_next, 0.5, 1.0, stats.tau,
                              sigma_restricted_min_sq=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_worst_case_term_refuses_a_non_finite_restricted_value(self, value):
        system = small_system(seed=3, m=10, n=2)
        x = system.x_star + np.random.default_rng(0).standard_normal(2)
        x_next, stats = self.run_step(system, 0.5, 1.0, x)
        with pytest.raises(DomainError, match="^sigma_restricted_min_sq must be finite"):
            certify_iteration(system, x, x_next, 0.5, 1.0, stats.tau,
                              sigma_restricted_min_sq=value)

    def test_precondition_violated_for_huge_step(self):
        system = small_system(seed=6)
        rng = np.random.default_rng(1)
        x = system.x_star + rng.standard_normal(2)
        x_next, stats = self.run_step(system, 0.5, 1.0, x)
        with pytest.raises(DomainError, match="< 0 at alpha"):
            certify_iteration(system, x, x_next, 0.5, 1e6, stats.tau)

    def test_empty_tau_rejected(self):
        system = small_system(seed=7)
        with pytest.raises(ShapeError):
            certify_iteration(system, np.zeros(2), np.zeros(2), 0.5, 1.0, np.array([]))

    def test_step_from_the_solution_rejected(self):
        system = small_system(seed=8, m=12, n=3)
        x = system.x_star
        with pytest.raises(ShapeError, match="starting at the exact solution"):
            certify_iteration(system, x, x, 0.5, 1.0, np.arange(12))

    @pytest.mark.parametrize("name, value", [("x_k", ["a", "b", "c"]), ("x_next", [[1.0], []]),
                                             ("tau", [[0, 1], [2]])])
    def test_arguments_that_are_no_arrays_of_numbers_rejected(self, name, value):
        system = small_system(seed=8, m=12, n=3)
        args = {"x_k": system.x_star + 1.0, "x_next": system.x_star, "tau": np.arange(12)}
        with pytest.raises(ConfigError, match=f"^{name} must be an array of numbers: "):
            certify_iteration(system, q=0.5, alpha=1.0, **{**args, name: value})

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
            assert cert.passed()
            x = x_next

    def test_bounds_hold_with_accepted_corrupted_rows(self):
        # Offsets of +-0.05 sit among the clean residuals, so every step
        # accepts corrupted rows and the cross and corrupted terms are live.
        system = generate(GeneratorSpec(
            family="gaussian", m=200, n=5, seed=0,
            corruption=CorruptionSpec(beta=0.1, magnitude_low=-0.05, magnitude_high=0.05)))
        s2max = sigma_max_sq(system.matrix)
        x = np.zeros(5)
        for _ in range(100):
            x_next, stats = self.run_step(system, 0.7, 1.0, x)
            cert = certify_iteration(system, x, x_next, 0.7, 1.0, stats.tau,
                                     sigma_max_sq_value=s2max)
            assert cert.tau_corrupted > 0 and cert.term2.bound > 0 and cert.term3.actual > 0
            assert cert.passed(), cert
            x = x_next


class TestRestrictedSummary:
    def test_below_the_column_count_is_exactly_zero(self):
        system = small_system(seed=13, m=20, n=10, beta=0.1)
        summary = restricted_summary(system, 0.5, seed=0, samples=500)
        assert summary.exact is True and summary.subsets_examined == 0
        assert summary.sigma_restricted_min_sq == 0.0
        assert summary.sigma_max_sq == sigma_max_sq(system.matrix)


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

    def test_refuted_condition_raises(self):
        # beta = 0.2 at q = 0.5 puts epsilon far above 1 on the sampled route.
        system = small_system(seed=12, m=40, n=4, beta=0.2)
        summary = restricted_summary(system, 0.5, seed=1, samples=20)
        assert not summary.exact and summary.sigma_restricted_min_sq > 0
        _, eps = convergence_condition(0.5, 0.2, summary.sigma_max_sq,
                                       summary.sigma_restricted_min_sq)
        message = f"convergence condition fails (epsilon = {eps:.6g} >= 1)"
        with pytest.raises(ConditionViolatedError, match=re.escape(message)):
            resolve_alpha_auto(system, q=0.5, seed=1, samples=20)

    def test_below_the_column_count_raises(self):
        # ceil((0.5 - 0.1) * 20) = 8 rows cannot have full column rank 10.
        system = small_system(seed=13, m=20, n=10, beta=0.1)
        with pytest.raises(ConditionViolatedError,
                           match=re.escape("convergence condition fails (epsilon = inf >= 1)")):
            resolve_alpha_auto(system, q=0.5)

    @pytest.mark.parametrize("samples", [0, 2.5, True])
    def test_bad_samples_rejected_on_the_exact_route(self, samples):
        system = small_system(seed=9, m=12, n=3)
        with pytest.raises(ShapeError, match="samples"):
            resolve_alpha_auto(system, q=0.5, samples=samples)

    @pytest.mark.parametrize("route", ["exact", "sampled"])
    @pytest.mark.parametrize("seed", [True, None, -1, 1.5, "3"])
    def test_bad_seed_rejected_on_every_route(self, route, seed):
        # seed=None would draw from OS entropy, seed=True run as seed 1
        m = 12 if route == "exact" else 40  # C(40, 20) subsets are sampled
        system = small_system(seed=9, m=m, n=3)
        with pytest.raises(ShapeError, match="^seed must be"):
            resolve_alpha_auto(system, q=0.5, seed=seed, samples=5)

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.9, 5.0, math.nan])
    def test_q_outside_beta_window_is_a_domain_error(self, q):
        # The window is checked before (q - beta) * m is formed: otherwise
        # q = 0.05 gives a subset size of -2, and nan a ValueError from math.ceil.
        system = small_system(seed=11, m=40, n=4, beta=0.1)
        with pytest.raises(DomainError, match=r"\(beta, 1-beta\)"):
            resolve_alpha_auto(system, q)
