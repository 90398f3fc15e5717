import dataclasses
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantile_kaczmarz.errors import (
    ConfigError,
    DivergedError,
    DomainError,
    ShapeError,
)
from quantile_kaczmarz import solvers
from quantile_kaczmarz.harness import empirical_alpha
from quantile_kaczmarz.problems import CorruptedSystem, CorruptionSpec, GeneratorSpec, generate
from quantile_kaczmarz.solvers import (
    METHOD_TABLE,
    METHODS,
    SolverConfig,
    averaged_rbk_step,
    quantile_abk_step,
    quantile_of_multiset,
    quantile_pbk_step,
    quantile_rk_step,
    residual,
    rk_step,
    sampled_qabk_step,
    solve,
)
from reference_steps import (
    UNIT_ROUNDOFF,
    averaged_rbk_reference,
    lane_update_bound,
    quantile_abk_reference,
    quantile_pbk_reference,
    quantile_rk_run_bound,
    residual_bound,
    sampled_qabk_reference,
    update_bound,
)


def corrupted_system(m=200, n=10, seed=0, beta=0.2, family="gaussian"):
    return generate(
        GeneratorSpec(family=family, m=m, n=n, seed=seed,
                      corruption=CorruptionSpec(beta=beta))
    )


class FixedRng:
    """Duck-typed stand-in returning scripted draws: ``integers`` the next of
    ``integer_values``, ``choice`` always ``sample``."""

    def __init__(self, integer_values, sample=None):
        self.integer_values = list(integer_values)
        self.sample = sample

    def integers(self, _high):
        return self.integer_values.pop(0)

    def choice(self, *args, **kwargs):
        return self.sample


class TestQuantileOfMultiset:
    def test_median_of_five(self):
        assert quantile_of_multiset([3, 1, 2, 5, 4], 0.5) == 3

    def test_singleton(self):
        assert quantile_of_multiset([7], 0.3) == 7

    def test_duplicates_counted(self):
        assert quantile_of_multiset([1, 1, 2, 2], 0.75) == 2

    def test_empty_raises(self):
        with pytest.raises(ShapeError, match="empty multiset"):
            quantile_of_multiset([], 0.5)

    def test_bad_q(self):
        with pytest.raises(DomainError):
            quantile_of_multiset([1.0], 0.0)
        with pytest.raises(DomainError):
            quantile_of_multiset([1.0], 1.5)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=60),
        st.floats(min_value=0.001, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_oracle(self, values, q):
        expected = sorted(values)[math.ceil(q * len(values)) - 1]
        assert quantile_of_multiset(values, q) == expected


class TestResidual:
    def test_identity_example(self):
        out = residual(np.eye(2), np.array([1.0, 2.0]), np.zeros(2))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_zero_at_solution(self):
        system = corrupted_system(beta=0.0)
        out = residual(system.matrix, system.b_observed, system.x_star)
        np.testing.assert_array_equal(out, np.zeros(system.m))

    def test_corrupted_entries_equal_offsets(self):
        system = corrupted_system(seed=4)
        out = residual(system.matrix, system.b_observed, system.x_star)
        idx = system.corrupted_indices
        offsets = system.b_observed - system.matrix @ system.x_star
        np.testing.assert_array_equal(out[idx], offsets[idx])

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            residual(np.eye(2), np.ones(3), np.ones(2))


class TestQuantileAbkStep:
    def test_hand_traced_update(self):
        a = np.eye(2)
        b = np.array([1.0, 2.0])
        x_next, stats = quantile_abk_step(a, b, np.zeros(2), q=1.0, alpha=1.0)
        np.testing.assert_array_equal(x_next, [1.0, 0.0])
        assert stats.quantile == 2.0
        np.testing.assert_array_equal(stats.tau, [0])

    def test_strict_comparator_fixed_point_is_noop(self):
        system = corrupted_system(beta=0.0)
        x_next, stats = quantile_abk_step(
            system.matrix, system.b_observed, system.x_star, q=0.5, alpha=1.0
        )
        np.testing.assert_array_equal(x_next, system.x_star)
        assert stats.tau.size == 0
        assert stats.quantile == 0.0

    def test_at_or_below_fixed_point(self):
        system = corrupted_system(beta=0.0)
        x_next, stats = quantile_abk_step(
            system.matrix, system.b_observed, system.x_star,
            q=0.5, alpha=2.0, comparator="at-or-below",
        )
        np.testing.assert_array_equal(x_next, system.x_star)
        assert stats.tau.size >= math.ceil(0.5 * system.m)

    def test_zero_alpha_freezes_iterate(self):
        system = corrupted_system()
        x = np.ones(system.n)
        x_next, _ = quantile_abk_step(system.matrix, system.b_observed, x, 0.7, alpha=0.0)
        np.testing.assert_array_equal(x_next, x)

    def test_accepted_set_cardinalities(self):
        system = corrupted_system(m=100, n=5, seed=5)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        for q in (0.3, 0.5, 0.73):
            _, strict = quantile_abk_step(system.matrix, system.b_observed, x, q, 1.0)
            assert strict.tau.size == math.ceil(q * 100) - 1
            _, loose = quantile_abk_step(
                system.matrix, system.b_observed, x, q, 1.0, comparator="at-or-below"
            )
            assert loose.tau.size >= math.ceil(q * 100)

    def test_no_accepted_row_exceeds_threshold(self):
        system = corrupted_system(m=150, n=8, seed=6)
        x = np.ones(8)
        _, stats = quantile_abk_step(system.matrix, system.b_observed, x, 0.6, 1.0)
        gaps = np.abs(system.matrix[stats.tau] @ x - system.b_observed[stats.tau])
        assert np.all(gaps < stats.quantile)


class TestSampledStep:
    def test_full_sample_reproduces_full_residual_step(self):
        system = corrupted_system(m=80, n=6, seed=7)
        x = np.ones(6)
        rng = np.random.default_rng(3)
        got, stats_s = sampled_qabk_step(
            system.matrix, system.b_observed, x, 0.7, t=80, alpha=1.3, rng=rng
        )
        want, stats_f = quantile_abk_step(system.matrix, system.b_observed, x, 0.7, 1.3)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(stats_s.tau, stats_f.tau)
        assert stats_s.quantile == stats_f.quantile

    def test_single_row_sample_strict_is_noop(self):
        system = corrupted_system(m=40, n=4, seed=8)
        x = np.ones(4)
        rng = np.random.default_rng(5)
        x_next, stats = sampled_qabk_step(
            system.matrix, system.b_observed, x, q=1.0, t=1, alpha=1.0, rng=rng
        )
        np.testing.assert_array_equal(x_next, x)
        assert stats.tau.size == 0

    def test_same_seed_same_trajectory(self):
        system = corrupted_system(m=120, n=6, seed=9)
        x = np.ones(6)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            y = x.copy()
            for _ in range(5):
                y, _ = sampled_qabk_step(
                    system.matrix, system.b_observed, y, 0.6, t=40, alpha=1.0, rng=rng
                )
            outs.append(y)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestProjectiveStep:
    def test_single_row_is_classical_projection(self):
        # force a single accepted row via a 2-row system with distinct gaps
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 5.0])
        x = np.zeros(2)
        x_next, stats = quantile_pbk_step(a, b, x, q=1.0)
        np.testing.assert_array_equal(stats.tau, [0])
        np.testing.assert_allclose(x_next, [1.0, 0.0], atol=1e-14)

    def test_fixed_point_when_block_satisfied(self):
        system = corrupted_system(beta=0.0, seed=10)
        x_next, _ = quantile_pbk_step(
            system.matrix, system.b_observed, system.x_star, q=0.5,
            comparator="at-or-below",
        )
        np.testing.assert_array_equal(x_next, system.x_star)

    def test_projection_satisfies_full_rank_block(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 5))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal(3)
        x = rng.standard_normal(5)
        bump = np.max(np.abs(a @ x - b)) + 1.0
        a_full = np.vstack([a, rng.standard_normal((4, 5))])
        a_full[3:] /= np.linalg.norm(a_full[3:], axis=1, keepdims=True)
        b_full = np.concatenate([b, a_full[3:] @ x + bump * np.ones(4)])
        x_next, stats = quantile_pbk_step(a_full, b_full, x, q=4 / 7)
        np.testing.assert_array_equal(np.sort(stats.tau), [0, 1, 2])
        np.testing.assert_allclose(a_full[:3] @ x_next, b, atol=1e-9)

    def test_duplicate_rows_land_on_their_hyperplane(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
        b = np.array([2.0, 2.0, 2.0, 7.0])
        x = np.zeros(2)
        x_next, stats = quantile_pbk_step(a, b, x, q=0.8)
        assert stats.tau.size == 3
        assert np.all(np.isfinite(x_next))
        np.testing.assert_allclose(a[0] @ x_next, 2.0, atol=1e-6)

    def test_dependent_rows_take_the_pseudoinverse(self):
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        b = np.array([1.0, 1.0, 5.0, 7.0])
        x_next, stats = quantile_pbk_step(a, b, np.zeros(3), 0.5, "at-or-below")
        want, threshold, tau = quantile_pbk_reference(a, b, np.zeros(3), 0.5, "at-or-below")
        np.testing.assert_array_equal(stats.tau, tau)
        assert stats.quantile == threshold
        # Both give the least-norm step [1, 0, 0] up to the rounding of a 2x2
        # eigen- or singular value decomposition, a few units of roundoff.
        for got in (x_next, want):
            np.testing.assert_allclose(got, [1.0, 0.0, 0.0], rtol=0, atol=8 * UNIT_ROUNDOFF)


class TestSingleRowSteps:
    def test_rk_projects_onto_scripted_row(self):
        a = np.eye(2)
        b = np.array([1.0, 2.0])
        x_next, stats = rk_step(a, b, np.zeros(2), FixedRng([1]))
        np.testing.assert_array_equal(x_next, [0.0, 2.0])
        np.testing.assert_array_equal(stats.tau, [1])

    def test_rk_lands_on_hyperplane(self):
        system = corrupted_system(m=50, n=5, seed=12)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5)
        x_next, stats = rk_step(system.matrix, system.b_observed, x, np.random.default_rng(2))
        i = stats.tau[0]
        assert abs(system.matrix[i] @ x_next - system.b_observed[i]) <= 1e-12

    def test_quantile_rk_skips_when_all_residuals_tie(self):
        a = np.eye(2)
        b = np.array([1.0, 1.0])
        x_next, stats = quantile_rk_step(a, b, np.zeros(2), q=1.0, t=2,
                                         rng=np.random.default_rng(0))
        np.testing.assert_array_equal(x_next, np.zeros(2))
        assert stats.tau.size == 0

    def test_quantile_rk_fixed_point(self):
        system = corrupted_system(beta=0.0, seed=13)
        x_next, _ = quantile_rk_step(
            system.matrix, system.b_observed, system.x_star, q=0.8,
            t=system.m, rng=np.random.default_rng(3),
        )
        np.testing.assert_array_equal(x_next, system.x_star)

    def test_quantile_rk_projects_admitted_candidate(self):
        a = np.eye(2)
        b = np.array([1.0, 10.0])
        # quantile over both rows is 10; candidate row 0 has residual 1 < 10
        x_next, stats = quantile_rk_step(a, b, np.zeros(2), q=1.0, t=2, rng=FixedRng([0]))
        np.testing.assert_array_equal(x_next, [1.0, 0.0])
        np.testing.assert_array_equal(stats.tau, [0])

    @pytest.mark.parametrize("seed", range(5))
    def test_quantile_rk_full_sample_matches_gathered_reference(self, seed):
        system = corrupted_system(m=80, n=6, seed=seed)
        a, b = system.matrix, system.b_observed
        x = np.random.default_rng(seed).standard_normal(6)
        x_next, stats = quantile_rk_step(a, b, x, 0.7, 80, np.random.default_rng(seed))
        # Reference: rank the gathered rows in identity order, then draw the
        # candidate, whose gap is its entry of the residual just ranked.
        rng = np.random.default_rng(seed)
        rows = np.arange(80)
        r = a[rows] @ x - b[rows]
        threshold = quantile_of_multiset(np.abs(r), 0.7)
        j = int(rng.integers(80))
        gap = r[j]
        expected = x - gap * a[j] if abs(gap) < threshold else x
        np.testing.assert_array_equal(x_next, expected)
        assert stats.quantile == threshold

    @pytest.mark.parametrize("comparator, admitted", [("strict-below", 0), ("at-or-below", 1)])
    def test_quantile_row_as_candidate_ties_its_own_threshold(self, comparator, admitted):
        # The candidate is the row the quantile picked, on a system where its
        # own dot product rounds differently from its entry of the residual
        # that was ranked; one residual per row makes it tie the threshold.
        k = math.ceil(0.7 * 80) - 1
        for seed in range(300):
            system = corrupted_system(m=80, n=6, seed=seed)
            a, b = system.matrix, system.b_observed
            x = np.random.default_rng(seed).standard_normal(6)
            r = a @ x - b
            row = int(np.argsort(np.abs(r))[k])
            if abs(a[row] @ x - b[row]) != abs(r[row]):
                break
        else:
            pytest.fail("no seed where the dot and the gemv round differently")
        x_next, stats = quantile_rk_step(a, b, x, 0.7, 80, FixedRng([row]), comparator)
        assert stats.quantile == abs(r[row])
        assert stats.tau.size == admitted
        np.testing.assert_array_equal(x_next, x - r[row] * a[row] if admitted else x)


class TestAveragedBlockStep:
    def test_full_block_with_alpha_m_is_gradient_identity(self):
        system = corrupted_system(m=60, n=6, seed=14)
        x = np.ones(6)
        block = np.arange(60)
        got, _ = averaged_rbk_step(system.matrix, system.b_observed, x, block, alpha=60.0)
        grad = system.matrix.T @ (system.matrix @ x - system.b_observed)
        np.testing.assert_allclose(got, x - grad, rtol=1e-12)

    def test_singleton_block_is_classical_projection(self):
        system = corrupted_system(m=60, n=6, seed=15)
        x = np.ones(6)
        got, _ = averaged_rbk_step(system.matrix, system.b_observed, x, [17], alpha=1.0)
        a17 = system.matrix[17]
        want = x - (a17 @ x - system.b_observed[17]) * a17
        np.testing.assert_array_equal(got, want)

    def test_matches_quantile_step_on_same_block(self):
        # The block step is the gather reference's arithmetic, so it is
        # bit-equal to it; the quantile step sums the same products in
        # another order, so it agrees within the derived forward error bound.
        system = corrupted_system(m=90, n=5, seed=16)
        a, b = system.matrix, system.b_observed
        x = np.ones(5)
        got_q, stats = quantile_abk_step(a, b, x, 0.6, 1.4)
        want = averaged_rbk_reference(a, b, x, stats.tau, 1.4)
        got_block, _ = averaged_rbk_step(a, b, x, stats.tau, 1.4)
        np.testing.assert_array_equal(got_block, want)
        assert np.all(np.abs(got_q - want) <= update_bound(a, b, x, stats.tau, 1.4, a.shape[0]))

    def test_empty_block_rejected(self):
        with pytest.raises(ShapeError):
            averaged_rbk_step(np.eye(2), np.ones(2), np.ones(2), [], 1.0)

    @pytest.mark.parametrize("block", [["a"], [[0, 1], [1]]], ids=["non-numeric", "ragged"])
    def test_block_that_is_no_array_of_numbers_rejected(self, block):
        with pytest.raises(ConfigError, match="^block must be an array of numbers: "):
            averaged_rbk_step(np.eye(2), np.ones(2), np.ones(2), block, 1.0)


@pytest.mark.parametrize("kernel", [
    lambda a, b, x, c: quantile_abk_step(a, b, x, 0.5, 1.0, c),
    lambda a, b, x, c: sampled_qabk_step(a, b, x, 0.5, 2, 1.0, np.random.default_rng(0), c),
    lambda a, b, x, c: quantile_pbk_step(a, b, x, 0.5, c),
    lambda a, b, x, c: quantile_rk_step(a, b, x, 0.5, 3, np.random.default_rng(0), c),
], ids=["abk", "sampled", "pbk", "rk"])
def test_unknown_comparator_is_a_config_error(kernel):
    with pytest.raises(ConfigError, match="^unknown comparator 'nope'$"):
        kernel(np.eye(3), np.ones(3), np.zeros(3), "nope")


@st.composite
def step_inputs(draw):
    """A unit-row system, an iterate, q and alpha.  ``residuals`` picks how
    the magnitudes fall: Gaussian (distinct), small integers (many exact
    ties, as x = 0 makes the residual -b exactly) or all equal (so the strict
    comparator accepts nothing)."""
    m = draw(st.integers(1, 300))
    n = draw(st.integers(1, 12))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = data.standard_normal((m, n))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    residuals = draw(st.sampled_from(["gaussian", "integer", "equal"]))
    if residuals == "gaussian":
        b, x = data.standard_normal(m), data.standard_normal(n)
    elif residuals == "integer":
        b, x = data.integers(-2, 3, size=m).astype(float), np.zeros(n)
    else:
        b, x = np.full(m, 1.5), np.zeros(n)
    q = draw(st.floats(min_value=0.01, max_value=1.0))
    alpha = draw(st.floats(min_value=0.1, max_value=200.0))
    return matrix, b, x, q, alpha


def assert_within_update_bound(got, want, matrix, b, x, tau, alpha, rows_summed):
    bound = update_bound(matrix, b, x, tau, alpha, rows_summed)
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) - bound)


class TestKernelsMatchGatherReferences:
    """Each averaged kernel against its literal gather reference: the
    accepted set and threshold exactly, the iterate within the forward error
    bound of a reordered sum (see ``reference_steps.update_bound``)."""

    @given(step_inputs(), st.sampled_from(["strict-below", "at-or-below"]))
    @settings(max_examples=200, deadline=None)
    def test_quantile_abk_step(self, inputs, comparator):
        matrix, b, x, q, alpha = inputs
        got, stats = quantile_abk_step(matrix, b, x, q, alpha, comparator)
        want, threshold, tau = quantile_abk_reference(matrix, b, x, q, alpha, comparator)
        np.testing.assert_array_equal(stats.tau, tau)
        assert stats.quantile == threshold
        assert_within_update_bound(got, want, matrix, b, x, tau, alpha, matrix.shape[0])
        if tau.size == 0:
            np.testing.assert_array_equal(got, x)
            assert got is not x

    @given(step_inputs(), st.sampled_from(["strict-below", "at-or-below"]),
           st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sampled_qabk_step(self, inputs, comparator, fraction, seed):
        # fraction 1.0 gives t == m, the full-sample path.
        matrix, b, x, q, alpha = inputs
        m = matrix.shape[0]
        t = max(1, round(fraction * m))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, stats = sampled_qabk_step(matrix, b, x, q, t, alpha, rng, comparator)
        want, threshold, tau = sampled_qabk_reference(matrix, b, x, q, t, alpha, ref_rng,
                                                      comparator)
        np.testing.assert_array_equal(stats.tau, tau)
        assert stats.quantile == threshold
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_within_update_bound(got, want, matrix, b, x, tau, alpha, t)

    @given(step_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_averaged_rbk_step_is_bit_equal(self, inputs, seed):
        matrix, b, x, _, alpha = inputs
        m = matrix.shape[0]
        draws = np.random.default_rng(seed)
        block = draws.choice(m, size=int(draws.integers(1, m + 1)), replace=False)
        got, stats = averaged_rbk_step(matrix, b, x, block, alpha)
        np.testing.assert_array_equal(got, averaged_rbk_reference(matrix, b, x, block, alpha))
        np.testing.assert_array_equal(stats.tau, block)


@st.composite
def lane_inputs(draw):
    """:func:`step_inputs` widened to a block of 1 to 11 lanes, each with its
    own step size.  About half the lanes keep the drawn iterate, so the
    exact ties that ``step_inputs`` makes reach the block too."""
    matrix, b, x, q, alpha = draw(step_inputs())
    lanes = draw(st.integers(1, 11))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moved = data.random(lanes) < 0.5
    xs = x[:, None] + moved * data.standard_normal((x.size, lanes))
    return matrix, b, xs, q, alpha * data.uniform(0.1, 2.0, lanes)


class TestLanesMatchGatherReferences:
    """Each lane of a block step against the gather reference run on that
    lane's iterate alone.  The block takes its residuals as one GEMM, so
    they may differ from the reference's by twice ``residual_bound`` per
    row, and the lane's threshold from the reference's by the largest such
    gap.  So the accepted sets must agree except on rows whose reference
    residual lies within those two gaps of the threshold, and the lane's
    iterate must lie within ``lane_update_bound`` of the gather update over
    the lane's own accepted set."""

    @given(lane_inputs(), st.sampled_from(["strict-below", "at-or-below"]), st.booleans(),
           st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_each_lane(self, inputs, comparator, sampled, fraction, seed):
        # fraction 1.0 gives t == m, the full-sample path of the sampled step.
        matrix, b, xs, q, alphas = inputs
        m = matrix.shape[0]
        t = max(1, round(fraction * m)) if sampled else m
        rng = np.random.default_rng(seed)
        if sampled:
            got, stats = sampled_qabk_step(matrix, b, xs, q, t, alphas, rng, comparator)
        else:
            got, stats = quantile_abk_step(matrix, b, xs, q, alphas, comparator)
        assert got.shape == xs.shape and len(stats.tau) == alphas.size
        for j, alpha in enumerate(alphas):
            x, lane_tau = xs[:, j], stats.tau[j]
            ref_rng = np.random.default_rng(seed)
            if sampled:
                _, threshold, tau = sampled_qabk_reference(matrix, b, x, q, t, alpha, ref_rng,
                                                           comparator)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            else:
                _, threshold, tau = quantile_abk_reference(matrix, b, x, q, alpha, comparator)
            gap = 2 * residual_bound(matrix, b, x)
            assert abs(stats.quantile[j] - threshold) <= gap.max()
            differ = np.setxor1d(lane_tau, tau)
            near = np.abs(np.abs(matrix @ x - b) - threshold) <= gap + gap.max()
            assert np.all(near[differ]), differ
            if differ.size == 0:
                np.testing.assert_array_equal(lane_tau, tau)
            if lane_tau.size == 0:
                np.testing.assert_array_equal(got[:, j], x)
                continue
            want = averaged_rbk_reference(matrix, b, x, lane_tau, alpha)
            excess = np.abs(got[:, j] - want) - lane_update_bound(matrix, b, x, lane_tau, alpha, t)
            assert np.all(excess <= 0), excess.max()

    @given(step_inputs(), st.sampled_from(["strict-below", "at-or-below"]), st.booleans(),
           st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_one_lane_is_the_vector_step(self, inputs, comparator, sampled, fraction, seed):
        # A solve is the one-lane case: the same arithmetic, bit for bit.
        matrix, b, x, q, alpha = inputs
        t = max(1, round(fraction * matrix.shape[0]))
        rng, lane_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if sampled:
            got, stats = sampled_qabk_step(matrix, b, x, q, t, alpha, rng, comparator)
            lane, lane_stats = sampled_qabk_step(matrix, b, x[:, None], q, t, np.array([alpha]),
                                                 lane_rng, comparator)
        else:
            got, stats = quantile_abk_step(matrix, b, x, q, alpha, comparator)
            lane, lane_stats = quantile_abk_step(matrix, b, x[:, None], q, np.array([alpha]),
                                                 comparator)
        assert rng.bit_generator.state == lane_rng.bit_generator.state
        np.testing.assert_array_equal(lane[:, 0], got)
        np.testing.assert_array_equal(lane_stats.quantile, [stats.quantile])
        assert len(lane_stats.tau) == 1
        np.testing.assert_array_equal(lane_stats.tau[0], stats.tau)


class TestProjectiveMatchesPinvReference:
    """``quantile_pbk_step`` against ``x + pinv(A_tau)(b_tau - A_tau x)``:
    the accepted set and threshold exactly, the iterate within

        ||x_step - x_ref|| <= 4 (|tau| + n) kappa^2 u (||x|| + ||x_ref - x|| + ||b_tau||)

    with kappa = cond(A_tau) and u the unit roundoff.  The step solves a Gram
    system, A_tau A_tau^T when |tau| <= n and A_tau^T A_tau otherwise, and
    forming it squares the condition number, so the step's forward error
    grows like kappa times the kappa u of the SVD behind pinv; the second
    factor is the scale of the vectors the step adds and subtracts.  The
    rows are well-conditioned unit Gaussian rows (kappa < 1e3)."""

    @given(st.integers(1, 8), st.integers(2, 30), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from(["strict-below", "at-or-below"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_pinv_reference(self, n, extra, seed, wide, comparator):
        m = n + extra
        data = np.random.default_rng(seed)
        matrix = data.standard_normal((m, n))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        b = data.standard_normal(m) * data.choice([1.0, 100.0], size=m)  # some rows corrupted
        x = data.standard_normal(n)
        # Distinct magnitudes put k rows at or below the ceil(q m)-th smallest
        # when q m = k - 1/2, and k strictly below it when q m = k + 1/2; so
        # |tau| = k, on the branch |tau| <= n or |tau| > n that was drawn.
        k = int(data.integers(n + 1, m)) if wide else int(data.integers(1, n + 1))
        q = (k - 0.5) / m if comparator == "at-or-below" else (k + 0.5) / m
        kappa = np.linalg.cond(matrix[np.argsort(np.abs(matrix @ x - b))[:k]])
        assume(kappa < 1e3)
        got, stats = quantile_pbk_step(matrix, b, x, q, comparator)
        want, threshold, tau = quantile_pbk_reference(matrix, b, x, q, comparator)
        np.testing.assert_array_equal(stats.tau, tau)
        assert stats.quantile == threshold
        assert tau.size == k
        scale = np.linalg.norm(x) + np.linalg.norm(want - x) + np.linalg.norm(b[tau])
        gap = np.linalg.norm(got - want)
        assert gap <= 4 * (k + n) * kappa**2 * UNIT_ROUNDOFF * scale, (gap, kappa)


class TestSolve:
    def test_trace_row_count_and_budget(self):
        system = corrupted_system(seed=17)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=12.0,
                              max_iters=10, seed=0)
        trace = solve(system, config, np.zeros(system.n))
        assert trace.iterations == 10
        assert all(math.isfinite(r) for r in trace.rel_error)

    def test_stop_tolerance_ends_early(self):
        system = corrupted_system(seed=18)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=12.0,
                              max_iters=500, stop_rel_error=1e-3, seed=0)
        trace = solve(system, config, np.zeros(system.n))
        assert trace.rel_error[-1] <= 1e-3
        assert trace.iterations < 500

    @pytest.mark.parametrize("method", METHODS)
    def test_exact_solution_is_fixed_point(self, method):
        # Full-residual methods see a bitwise-zero residual at the solution
        # and stay put exactly; per-row methods may re-evaluate single dot
        # products that differ from the stored right-hand side in the last
        # ulp, so they are pinned at machine precision instead.
        system = corrupted_system(m=60, n=6, seed=19, beta=0.0)
        config = SolverConfig(method=method, q=0.5, alpha=1.0, t=30, block_size=7,
                              max_iters=5, seed=3, stop_rel_error=0.0)
        trace = solve(system, config, system.x_star.copy())
        if method in ("quantile-averaged-block", "quantile-projective-block"):
            np.testing.assert_array_equal(trace.x_final, system.x_star)
        assert np.linalg.norm(trace.x_final - system.x_star) <= 1e-12
        assert all(r <= 1e-12 for r in trace.rel_error)

    def test_start_at_solution_reports_absolute_distance(self):
        # The starting distance is zero, so there is nothing to normalize by:
        # each trace entry is the plain distance to x_star.  Classical RK
        # projects onto corrupted rows too, so the iterates leave x_star.
        system = corrupted_system(m=60, n=6, seed=21, beta=0.3)
        config = SolverConfig(method="rk", max_iters=20, seed=4)
        trace = solve(system, config, system.x_star.copy(), keep_iterates=True)
        assert trace.base_error == 0.0
        distances = [float(np.linalg.norm(x - system.x_star)) for x in trace.iterates]
        assert trace.rel_error == distances
        assert max(distances) > 1.0

    @pytest.mark.parametrize("n", [1, 7, 100, 1001])
    def test_relative_error_has_the_bits_of_the_norm(self, n):
        rng = np.random.default_rng(n)
        system = SimpleNamespace(x_star=rng.standard_normal(n))
        for scale in (1e-300, 1e-8, 1.0, 1e150):
            x = system.x_star + scale * rng.standard_normal(n)
            norm = float(np.linalg.norm(x - system.x_star))
            for base in (0.0, norm, 3.7, 1e-200):
                want = norm if base == 0.0 else norm / base
                assert struct.pack("<d", solvers._relative_error(system, x, base)) \
                    == struct.pack("<d", want)

    def test_divergence_raises_with_partial_trace(self):
        system = corrupted_system(m=100, n=10, seed=20)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=5000.0,
                              max_iters=200, seed=0)
        with pytest.raises(DivergedError) as exc:
            solve(system, config, np.zeros(10))
        trace = exc.value.trace
        assert trace is not None and trace.iterations >= 1
        assert trace.rel_error[-1] > 1e12 or not math.isfinite(trace.rel_error[-1])

    def test_tau_corrupted_counts(self):
        system = corrupted_system(m=100, n=5, seed=21, beta=0.3)
        config = SolverConfig(method="quantile-averaged-block", q=0.8, alpha=1.0,
                              max_iters=3, seed=0)
        trace = solve(system, config, np.zeros(5))
        for size, corrupted in zip(trace.tau_size, trace.tau_corrupted):
            assert 0 <= corrupted <= size <= system.m

    @pytest.mark.parametrize("method", METHODS)
    def test_trace_counts_the_rows_each_step_accepted(self, monkeypatch, method):
        # The trace counts a step's mask; the index view of the same step
        # must give the same counts, for every shape of StepStats.
        steps = []
        spec = METHOD_TABLE[method]

        def build(*args):
            step = spec.build(*args)
            return lambda x, rng: steps.append(step(x, rng)) or steps[-1]

        monkeypatch.setitem(METHOD_TABLE, method, dataclasses.replace(spec, build=build))
        system = corrupted_system(m=200, n=10, seed=35, beta=0.3)
        # q above 1 - beta: every method accepts corrupted rows.
        config = SolverConfig(method=method, q=0.9, alpha=1.5, t=100, block_size=20,
                              max_iters=30, seed=6)
        trace = solve(system, config, np.zeros(10))
        corrupted = system.corrupted_mask()
        assert trace.tau_size == [stats.tau.size for _, stats in steps]
        assert trace.tau_corrupted == [np.count_nonzero(corrupted[stats.tau])
                                       for _, stats in steps]
        assert max(trace.tau_corrupted) > 0

    @pytest.mark.parametrize("route", ["solve", "empirical_alpha"])
    @pytest.mark.parametrize("method", ["quantile-averaged-block",
                                        "sampled-quantile-averaged-block"])
    def test_averaged_routes_build_no_index_arrays(self, monkeypatch, method, route):
        def unread(stats):
            raise AssertionError("StepStats.tau was read")

        monkeypatch.setattr(solvers.StepStats, "tau", property(unread))
        system = corrupted_system(m=300, n=10, seed=36)
        config = SolverConfig(method=method, q=0.7, alpha=10.0, t=100, max_iters=20, seed=7)
        if route == "solve":
            assert sum(solve(system, config, np.zeros(10)).tau_size) > 0
        else:
            assert empirical_alpha(system, config, 0.7, seed=7) > 0

    def test_row_permutation_invariance_full_residual_steps(self):
        # Full-residual steps depend on the row set, not the row order: the
        # accepted set maps through the permutation and the update agrees to
        # summation-reorder accuracy on every iterate of a reference run.
        system = corrupted_system(m=80, n=6, seed=22, beta=0.2)
        perm = np.random.default_rng(5).permutation(80)
        a_perm = system.matrix[perm]
        b_perm = system.b_observed[perm]
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=1.5,
                              max_iters=6, seed=0)
        trace = solve(system, config, np.ones(6), keep_iterates=True)
        points = [np.ones(6)] + trace.iterates[:-1]
        for x in points:
            got, stats_p = quantile_abk_step(a_perm, b_perm, x, 0.7, 1.5)
            want, stats_o = quantile_abk_step(system.matrix, system.b_observed, x, 0.7, 1.5)
            np.testing.assert_allclose(got, want, atol=1e-12)
            np.testing.assert_array_equal(np.sort(perm[stats_p.tau]), stats_o.tau)
            got_p, _ = quantile_pbk_step(a_perm, b_perm, x, 0.7)
            want_p, _ = quantile_pbk_step(system.matrix, system.b_observed, x, 0.7)
            np.testing.assert_allclose(got_p, want_p, atol=1e-9)

    def test_sampled_full_sample_trace_identical(self):
        system = corrupted_system(m=120, n=8, seed=23)
        shared = dict(q=0.7, alpha=4.0, max_iters=12, comparator="strict-below")
        full = solve(system, SolverConfig(method="quantile-averaged-block", seed=1, **shared),
                     np.ones(8))
        sampled = solve(
            system,
            SolverConfig(method="sampled-quantile-averaged-block", t=120, seed=99, **shared),
            np.ones(8),
        )
        assert full.rel_error == sampled.rel_error
        assert full.quantile == sampled.quantile
        assert full.tau_size == sampled.tau_size

    @pytest.mark.parametrize("method", [m for m, spec in METHOD_TABLE.items()
                                        if spec.takes_alpha])
    def test_solve_takes_a_numeric_alpha(self, method):
        # alpha="auto" is a request the harness fulfils; solve() never
        # evaluates the rate formula itself.
        system = corrupted_system(m=14, n=3, seed=25, beta=0.0)
        config = SolverConfig(method=method, q=0.5, alpha="auto", block_size=5,
                              max_iters=5, seed=0)
        with pytest.raises(ConfigError, match="harness .*qk.resolve_alpha_auto"):
            solve(system, config, np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_b_observed_rejected(self, bad):
        # The system refuses it when it is built, and a write cannot add it
        # later, so solve() need not scan b_observed on every call.
        system = corrupted_system(seed=31)
        with pytest.raises(ValueError, match="read-only"):
            system.b_observed[5] = bad
        b_observed = np.where(np.arange(system.m) == 5, bad, system.b_observed)
        with pytest.raises(ConfigError, match="^b_observed has a non-finite entry"):
            dataclasses.replace(system, b_observed=b_observed)

    @pytest.mark.parametrize("x0, match", [
        (np.zeros(11), r"x0 must have shape \(10,\)"),
        (np.zeros((10, 1)), r"x0 must have shape \(10,\)"),
        ([0.0] * 9 + [math.nan], "x0 must be finite"),
        ([0.0] * 9 + [-math.inf], "x0 must be finite"),
        (["a"] * 10, "x0 must be an array of numbers"),
        ([[0.0]] * 9 + [[0.0, 1.0]], "x0 must be an array of numbers"),
        ([10**400] + [0] * 9, "x0 must be an array of numbers"),
    ])
    def test_bad_x0_rejected(self, x0, match):
        system = corrupted_system(seed=31)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=10.0,
                              max_iters=3, seed=0)
        with pytest.raises(ConfigError, match=match):
            solve(system, config, x0)


    @pytest.mark.parametrize("args, name", [
        (([[1.0]], ["x"], [1.0]), "b"),
        (([[1.0]], [1.0], [[1.0], [1.0, 2.0]]), "x"),
        (([["a"]], [1.0], [1.0]), "matrix"),
    ])
    def test_residual_refuses_non_numeric_arrays(self, args, name):
        with pytest.raises(ConfigError, match=f"^{name} must be an array of numbers: "):
            residual(*args)
    @pytest.mark.parametrize("method, alphas, match", [
        ("quantile-averaged-block", [1.0, 0.0], "finite positive"),
        ("quantile-averaged-block", [-1.0], "finite positive"),
        ("sampled-quantile-averaged-block", [1.0, math.nan], "finite positive"),
        ("sampled-quantile-averaged-block", [math.inf], "finite positive"),
        ("quantile-averaged-block", [[1.0, 2.0]], "finite positive"),
        ("averaged-block", [1.0], "does not run step-size lanes"),
        ("quantile-averaged-block", [1.0, "a"], "finite positive"),
        ("sampled-quantile-averaged-block", [[1.0], [1.0, 2.0]], "finite positive"),
    ])
    def test_lane_errors_rejects_bad_lanes(self, method, alphas, match):
        system = corrupted_system(seed=31)
        config = SolverConfig(method=method, q=0.7, block_size=5, max_iters=3, seed=0)
        with pytest.raises(ConfigError, match=match):
            solvers.lane_errors(system, config, np.zeros(system.n), alphas)

    def test_lane_errors_ends_when_every_lane_has_stopped(self, monkeypatch):
        # One lane reaches stop_rel_error and the other diverges, both well
        # inside the budget, so the batched solve takes no further step.
        calls = []
        kernel = solvers.quantile_abk_step
        monkeypatch.setattr(solvers, "quantile_abk_step",
                            lambda *args: calls.append(1) or kernel(*args))
        system = corrupted_system(seed=31)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, max_iters=100,
                              stop_rel_error=1e-6, seed=0)
        errors = solvers.lane_errors(system, config, np.zeros(system.n), [10.0, 1e6])
        assert errors[0] <= 1e-6 and errors[1] > solvers.DIVERGENCE_LIMIT
        assert 0 < len(calls) < config.max_iters

    @pytest.mark.parametrize("method", ["quantile-averaged-block",
                                        "sampled-quantile-averaged-block"])
    @pytest.mark.parametrize("alpha, stop, ends", [
        (10.0, 0.0, "budget"), (150.0, 1e-6, "tolerance"), (1e6, 0.0, "diverged")])
    def test_one_lane_has_the_bits_of_its_solve(self, method, alpha, stop, ends):
        system = corrupted_system(m=2000, n=50, seed=31, beta=0.1)
        config = SolverConfig(method, q=0.7, t=500, max_iters=100, stop_rel_error=stop, seed=3)
        x0 = np.zeros(system.n)
        try:
            trace, how = solve(system, dataclasses.replace(config, alpha=alpha), x0), None
        except DivergedError as exc:
            trace, how = exc.trace, "diverged"
        how = how or ("budget" if trace.iterations == config.max_iters else "tolerance")
        assert how == ends
        lane = solvers.lane_errors(system, config, x0, [alpha])[0]
        assert struct.pack("<d", lane) == struct.pack("<d", trace.rel_error[-1])

    def test_lanes_build_the_step_once_per_live_set(self, monkeypatch):
        # The step is built for the lanes that start, and again each time a
        # lane leaves while others go on, never once per step.
        builds = []
        spec = METHOD_TABLE["quantile-averaged-block"]
        monkeypatch.setitem(METHOD_TABLE, "quantile-averaged-block", dataclasses.replace(
            spec, build=lambda *args: builds.append(len(args[-1])) or spec.build(*args)))
        system = corrupted_system(seed=31, beta=0.1)
        config = SolverConfig("quantile-averaged-block", q=0.7, max_iters=100, seed=3)
        x0 = np.zeros(system.n)
        solvers.lane_errors(system, config, x0, [0.5, 2.0, 10.0])
        assert builds == [3]
        builds.clear()
        stop = dataclasses.replace(config, stop_rel_error=1e-6)
        errors = solvers.lane_errors(system, stop, x0, [0.5, 10.0, 1e6])
        # The last lane diverges first, then the second reaches the
        # tolerance, and the first runs to the budget.
        assert 1e-6 < errors[0] <= 1.0 and errors[1] <= 1e-6 and errors[2] > 1e12
        assert builds == [3, 2, 1]

    def test_full_method_ignores_t(self):
        # The table builds quantile-averaged-block as the sampled step over
        # all m rows, whatever config.t holds.
        system = corrupted_system(seed=33)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=10.0,
                              max_iters=12, seed=4)
        half = dataclasses.replace(config, t=system.m // 2)
        x0 = np.zeros(system.n)
        want, got = solve(system, config, x0), solve(system, half, x0)
        for name in ("rel_error", "quantile", "tau_size", "tau_corrupted"):
            assert getattr(got, name) == getattr(want, name)
        assert got.x_final.tobytes() == want.x_final.tobytes()
        alphas = [1.0, 10.0, 1e6]
        assert (solvers.lane_errors(system, half, x0, alphas).tobytes()
                == solvers.lane_errors(system, config, x0, alphas).tobytes())

    def test_unit_rows_checked_once_per_system(self, monkeypatch):
        import quantile_kaczmarz.problems as problems

        calls = []
        original = problems.is_row_normalized

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(problems, "is_row_normalized", counting)
        system = corrupted_system(seed=32)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=10.0,
                              max_iters=3, seed=0)
        for _ in range(3):
            solve(system, config, np.zeros(system.n))
        assert len(calls) == 1

    def test_projective_solves_slowly_separated_spectrum(self):
        # On this system a power iteration for sigma_max^2 once failed to
        # converge, so the solve could not start; the step needs no spectrum.
        system = generate(GeneratorSpec("gaussian", 10000, 100, 3809353120,
                                        CorruptionSpec(beta=0.2)))
        config = SolverConfig(method="quantile-projective-block", q=0.7, max_iters=2, seed=0)
        trace = solve(system, config, np.ones(system.n))
        assert trace.iterations == 2

    @pytest.mark.parametrize(
        "bad",
        [
            dict(method="unknown"),
            dict(q=0.001),                     # q*m < 1 at m=200
            dict(t=500),
            dict(max_iters=0),
            dict(alpha=-1.0),
            dict(comparator="close-enough"),
            dict(method="averaged-block", block_size=None, alpha=1.0),
        ],
    )
    def test_config_errors(self, bad):
        system = corrupted_system(seed=26)
        base = dict(method="quantile-averaged-block", q=0.7, alpha=1.0, max_iters=3, seed=0)
        base.update(bad)
        with pytest.raises(ConfigError):
            solve(system, SolverConfig(**base), np.zeros(system.n))

    @pytest.mark.parametrize("comparator, admitted", [("strict-below", 0), ("at-or-below", 1)])
    def test_quantile_rk_honours_comparator(self, comparator, admitted):
        # At x0 every row's residual is 1, so the candidate ties the quantile.
        system = CorruptedSystem(matrix=np.eye(2), x_star=np.zeros(2),
                                 b_observed=np.zeros(2),
                                 corrupted_indices=np.array([], dtype=np.intp))
        config = SolverConfig(method="quantile-rk", q=0.5, comparator=comparator, max_iters=1)
        trace = solve(system, config, np.ones(2))
        assert trace.tau_size == [admitted]

    def test_wall_time_monotone(self):
        system = corrupted_system(seed=27)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=10.0,
                              max_iters=8, seed=0)
        trace = solve(system, config, np.zeros(system.n))
        assert all(b >= a for a, b in zip(trace.elapsed_ns, trace.elapsed_ns[1:]))


def plan_steps(monkeypatch, m, steps):
    """Make quantile-rk's solve on m rows keep its residual, whatever its
    sample size, in blocks of ``steps`` steps."""
    monkeypatch.setattr(solvers, "_PLAN_BYTES", 8 * m * steps)
    monkeypatch.setattr(solvers, "_GATHER_CALLS", m)  # (t + m) * steps >= m


def count_gathers(monkeypatch) -> list:
    """The calls of :func:`quantile_rk_step`, the gather path's kernel, that
    quantile-rk steps make from now on; the kept-residual path makes none."""
    calls = []
    pure = solvers.quantile_rk_step
    monkeypatch.setattr(solvers, "quantile_rk_step", lambda *args: calls.append(1) or pure(*args))
    return calls


def count_draws(monkeypatch, kind=None) -> list:
    """The :class:`CountingRng` (or ``kind``) of each generator made from now on."""
    made, kind = [], kind or CountingRng
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(kind(default_rng(seed))) or made[-1])
    return made


class CountingRng:
    """A generator that records the draws made through it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def choice(self, *args, **kwargs):
        self.calls.append("choice")
        return self.rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls.append("integers")
        return self.rng.integers(*args, **kwargs)


class TestQuantileRkRun:
    """The solve's kept-residual quantile-rk path against the pure
    :func:`quantile_rk_step`."""

    M, N, ITERS = 300, 20, 300

    @pytest.mark.parametrize("comparator", ["strict-below", "at-or-below"])
    @pytest.mark.parametrize("t", [120, None])
    @pytest.mark.parametrize("steps", [1, 7, ITERS])
    def test_solve_matches_loop_of_pure_steps(self, monkeypatch, steps, t, comparator):
        system = corrupted_system(m=self.M, n=self.N, seed=41)
        a, b = system.matrix, system.b_observed
        config = SolverConfig(method="quantile-rk", q=0.7, t=t, max_iters=self.ITERS,
                              comparator=comparator, seed=9)
        x0 = np.zeros(self.N)
        plan_steps(monkeypatch, self.M, steps)
        trace = solve(system, config, x0, keep_iterates=True)

        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        xs, taus = [x0], []
        for _ in range(self.ITERS):
            x, stats = quantile_rk_step(a, b, xs[-1], 0.7, t or self.M, rng, comparator)
            xs.append(x)
            taus.append(stats.tau)
        assert trace.tau_size == [tau.size for tau in taus]
        # Decisions are taken far above rounding, where the data decide them.
        assert trace.rel_error[-1] > 1e-6
        bound = quantile_rk_run_bound(a, b, xs, taus, steps)
        gaps = [np.linalg.norm(got - want) for got, want in zip(trace.iterates, xs[1:])]
        assert np.all(np.array(gaps) <= bound)

    @pytest.mark.parametrize("m, n, t, kept", [
        (2_000, 50, 6, False), (2_000, 50, 7, True), (10_000, 100, 273, False),
        (10_000, 100, 274, True), (10_000, 100, 385, True), (10_000, 100, 485, True),
        (10_000, 100, 10_000, True), (50_000, 200, 2_439, False), (50_000, 200, 2_440, True),
        (50_000, 200, 2_500, True), (50_000, 200, 5_000, True), (50_000, 200, 9_999, True),
        (50_000, 200, 10_000, True), (200, 10, 3, True),
    ])
    def test_residual_is_kept_where_the_gather_costs_more(self, monkeypatch, m, n, t, kept):
        # A gather's step costs what gathering t + 60 rows does, a run's what
        # gathering m / min(block, 30) rows does (blocks of 524 steps at m =
        # 2000, 104 at m = 10000, 20 at m = 50000).
        a = np.zeros((m, n))
        config = SolverConfig(method="quantile-rk", q=0.7, t=t, max_iters=1)
        step = METHOD_TABLE["quantile-rk"].build(a, np.zeros(m), config, t, None)
        gathers = count_gathers(monkeypatch)
        step(np.zeros(n), np.random.default_rng(0))
        assert gathers == ([] if kept else [1])

    def test_a_solve_holds_one_block_of_gram_rows(self, monkeypatch):
        # Three blocks' worth of steps: a Gram block that outlived its block
        # would add another block's rows, about 8 MiB, to the peak, and a
        # block's samples kept while the next block draws 0.8 MB (5 m-vectors).
        m, n, t = 20_000, 50, 2_000
        system = corrupted_system(m=m, n=n, seed=47)
        block = solvers._plan_steps(m)
        config = SolverConfig(method="quantile-rk", q=0.7, t=t, max_iters=3 * block, seed=5)
        gathers = count_gathers(monkeypatch)
        tracemalloc.start()
        try:
            assert solve(system, config, np.zeros(n)).iterations == 3 * block
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gathers == []
        gram = 8 * (block + 1) * m  # the block's Gram rows and its fresh residual
        samples = 8 * block * t
        assert peak <= gram + samples + 4 * (8 * m)  # the residual and its temporaries

    def test_small_sample_solve_calls_the_pure_step(self, monkeypatch):
        system = corrupted_system(m=10_000, n=5, seed=46)
        gathers = count_gathers(monkeypatch)
        config = SolverConfig(method="quantile-rk", q=0.7, t=50, max_iters=5, seed=2)
        assert solve(system, config, np.zeros(5)).iterations == len(gathers) == 5

    @pytest.mark.parametrize("t", [60, None])
    def test_foreign_x_gets_the_pure_decision(self, monkeypatch, t):
        system = corrupted_system(m=200, n=10, seed=42)
        a, b = system.matrix, system.b_observed
        config = SolverConfig(method="quantile-rk", q=0.7, t=t, max_iters=20, seed=3)
        step = METHOD_TABLE["quantile-rk"].build(a, b, config, t or 200, None)
        gathers = count_gathers(monkeypatch)  # the reference below is not counted
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        x = np.zeros(10)
        for _ in range(4):  # into the middle of the run's one 20-step block
            x, _ = step(x, ours)
            quantile_rk_step(a, b, x, 0.7, t or 200, theirs)
        foreign = np.random.default_rng(4).standard_normal(10) * 50
        got, got_stats = step(foreign, ours)
        want, want_stats = quantile_rk_step(a, b, foreign, 0.7, t or 200, theirs)
        np.testing.assert_array_equal(got_stats.tau, want_stats.tau)
        assert got_stats.quantile == pytest.approx(want_stats.quantile, rel=1e-12)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert gathers == []

    def test_timing_none_is_deterministic_across_blocks(self, monkeypatch, tmp_path):
        system = corrupted_system(seed=43)
        plan_steps(monkeypatch, system.m, 4)
        config = SolverConfig(method="quantile-rk", q=0.7, t=50, max_iters=30, seed=6)
        blobs = [solve(system, config, np.zeros(system.n))
                 .write_csv(tmp_path / f"{name}.csv", timing="none").read_bytes()
                 for name in ("a", "b")]
        assert blobs[0] == blobs[1]
        assert blobs[0].count(b"\n") == 31

    @pytest.mark.parametrize("t, draws", [(50, ["choice", "integers"]), (None, ["integers"])])
    def test_one_step_solve_draws_one_step(self, monkeypatch, t, draws):
        system = corrupted_system(seed=44)
        plan_steps(monkeypatch, system.m, 100)
        made = count_draws(monkeypatch)
        config = SolverConfig(method="quantile-rk", q=0.7, t=t, max_iters=1, seed=8)
        trace = solve(system, config, np.zeros(system.n))
        assert trace.iterations == 1
        assert [rng.calls for rng in made] == [draws]

    @pytest.mark.parametrize("t, draws", [(50, ["choice", "integers"]), (None, ["integers"])])
    def test_last_block_draws_only_the_budget(self, monkeypatch, t, draws):
        # Blocks of 4 steps and a budget of 10: the third block draws 2 steps.
        system = corrupted_system(seed=48)
        plan_steps(monkeypatch, system.m, 4)
        gathers, made = count_gathers(monkeypatch), count_draws(monkeypatch)
        config = SolverConfig(method="quantile-rk", q=0.7, t=t, max_iters=10, seed=8)
        assert solve(system, config, np.zeros(system.n)).iterations == 10
        assert [rng.calls for rng in made] == [draws * 10]
        assert gathers == []


class PermutingRng(CountingRng):
    """A :class:`CountingRng` whose ``choice`` returns its draw in a random
    order, taken from a second generator so that the draws are unchanged."""

    def __init__(self, rng):
        super().__init__(rng)
        self.order = np.random.Generator(np.random.PCG64(2024))

    def choice(self, *args, **kwargs):
        return self.order.permutation(super().choice(*args, **kwargs))


class TestQuantileRkReadsItsSampleAsASet:
    """quantile-rk's threshold is an order statistic of its sample and its
    candidate is drawn apart from it, so no decision depends on the sample's
    order: the property that lets it draw the sample unshuffled."""

    @pytest.mark.parametrize("comparator", ["strict-below", "at-or-below"])
    @pytest.mark.parametrize("candidate", ["in-sample", "outside"])
    @pytest.mark.parametrize("seed", range(4))
    def test_step_ignores_the_order_of_its_sample(self, seed, candidate, comparator):
        system = corrupted_system(m=120, n=8, seed=seed)
        a, b = system.matrix, system.b_observed
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(8) * 3
        sample = rng.choice(120, size=50, replace=False)
        j = int(sample[7] if candidate == "in-sample" else np.setdiff1d(np.arange(120), sample)[0])
        (x_one, one), (x_two, two) = [
            quantile_rk_step(a, b, x, 0.7, 50, FixedRng([j], order), comparator)
            for order in (sample, rng.permutation(sample))]
        assert x_one.tobytes() == x_two.tobytes()
        assert struct.pack("d", one.quantile) == struct.pack("d", two.quantile)
        assert one.accepted.tobytes() == two.accepted.tobytes()
        assert one.rows.tobytes() == two.rows.tobytes()

    @pytest.mark.parametrize("t", [50, 199])
    def test_kept_residual_solve_ignores_the_order_of_its_samples(self, monkeypatch, tmp_path, t):
        system = corrupted_system(seed=49)
        plan_steps(monkeypatch, system.m, 4)
        gathers = count_gathers(monkeypatch)
        config = SolverConfig(method="quantile-rk", q=0.7, t=t, max_iters=30, seed=6)
        plain = solve(system, config, np.zeros(system.n))
        made = count_draws(monkeypatch, PermutingRng)
        permuted = solve(system, config, np.zeros(system.n))
        assert [rng.calls for rng in made] == [["choice", "integers"] * 30]
        assert gathers == []
        blobs = [trace.write_csv(tmp_path / f"{name}.csv", timing="none").read_bytes()
                 for name, trace in [("plain", plain), ("permuted", permuted)]]
        assert blobs[0] == blobs[1]
        assert plain.x_final.tobytes() == permuted.x_final.tobytes()


class TestTraceSerialization:
    def test_csv_schema_and_rows(self, tmp_path):
        system = corrupted_system(seed=28)
        config = SolverConfig(method="quantile-averaged-block", q=0.7, alpha=10.0,
                              max_iters=7, seed=0)
        trace = solve(system, config, np.zeros(system.n))
        path = trace.write_csv(tmp_path / "trace.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,rel_error,quantile,tau_size,tau_corrupted,elapsed_ns"
        assert len(lines) == 8
        assert lines[1].startswith("1,")

    def test_timing_none_is_deterministic(self, tmp_path):
        system = corrupted_system(seed=29)
        config = SolverConfig(method="quantile-rk", q=0.7, max_iters=9, seed=5)
        blobs = []
        for name in ("a", "b"):
            trace = solve(system, config, np.zeros(system.n))
            blobs.append(trace.write_csv(tmp_path / f"{name}.csv", timing="none").read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_json_contents(self):
        import json

        system = corrupted_system(seed=30)
        config = SolverConfig(method="quantile-averaged-block", q=0.6, alpha=8.0,
                              max_iters=3, seed=7, comparator="at-or-below")
        trace = solve(system, config, np.zeros(system.n))
        payload = json.loads(json.dumps(trace.config_dict()))
        assert payload["method"] == "quantile-averaged-block"
        assert payload["alpha"] == 8.0
        assert "alpha_source" not in payload  # the harness records where alpha came from
        assert payload["comparator"] == "at-or-below"
        assert payload["iterations"] == 3
