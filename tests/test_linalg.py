import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import linalg
from quantile_kaczmarz.errors import ConfigError, DomainError, ShapeError
from quantile_kaczmarz.linalg import (
    quantile_of_multiset,
    restricted_min_sv_bruteforce,
    restricted_min_sv_sampled,
    row_normalize,
    sigma_max_sq,
)
from quantile_kaczmarz.problems import CorruptionSpec, GeneratorSpec, generate
from reference_steps import sigma_min_sq

SQRT2 = math.sqrt(2.0)


def worked_4x2():
    return np.array([[1.0, 0.0], [0.0, 1.0], [1 / SQRT2, 1 / SQRT2], [1 / SQRT2, -1 / SQRT2]])


def unit_rows(rng, m, n):
    a = rng.standard_normal((m, n))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


class TestRowNormalize:
    def test_three_four_five(self):
        out = row_normalize([[3.0, 4.0]])
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_identity_unchanged(self):
        eye = np.eye(3)
        np.testing.assert_array_equal(row_normalize(eye), eye)

    def test_zero_row_raises(self):
        with pytest.raises(ShapeError, match=r"^row 1 has zero norm$"):
            row_normalize([[1.0, 0.0], [0.0, 0.0]])

    def test_unit_norms_and_directions(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 6)) * 37.0
        out = row_normalize(a)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
        cosines = np.sum(out * a, axis=1) / np.linalg.norm(a, axis=1)
        np.testing.assert_allclose(cosines, 1.0, atol=1e-12)

    def several_blocks(self, seed=0):
        """A 50-column matrix of three full row blocks and a short fourth."""
        rows = linalg._ROW_BLOCK_BYTES // (8 * 50)
        assert 1234 < 3 * rows
        return np.random.default_rng(seed).standard_normal((3 * rows + rows // 3, 50)) * 9.0

    def test_block_loop_has_the_bits_of_one_divide(self):
        a = self.several_blocks()
        before = a.tobytes()
        expected = (a / np.linalg.norm(a, axis=1)[:, None]).tobytes()
        assert row_normalize(a).tobytes() == expected
        assert a.tobytes() == before
        out = np.full_like(a, np.nan)
        assert row_normalize(a, out=out) is out and out.tobytes() == expected
        assert a.tobytes() == before
        assert row_normalize(a, out=a) is a and a.tobytes() == expected

    def test_zero_row_in_a_later_block_is_named_by_its_row(self):
        a = self.several_blocks()
        a[1234] = 0.0
        with pytest.raises(ShapeError, match=r"^row 1234 has zero norm$"):
            row_normalize(a)

    @pytest.mark.parametrize("row", [0, 1233, 1235, -1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_wins_over_a_zero_row(self, row, value):
        a = self.several_blocks()
        a[1234] = 0.0
        a[row, 7] = value
        with pytest.raises(ShapeError, match="^matrix entries must be finite$"):
            row_normalize(a)


class TestSigmaMaxSq:
    def test_identity(self):
        assert sigma_max_sq(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_row(self):
        assert sigma_max_sq([[1.0, 0.0], [1.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_worked_4x2_gram_is_twice_identity(self):
        m = worked_4x2()
        np.testing.assert_allclose(m.T @ m, 2.0 * np.eye(2), atol=1e-15)
        assert sigma_max_sq(m) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 3))
        expected = np.linalg.eigvalsh(a.T @ a)[-1]
        assert sigma_max_sq(a) == pytest.approx(expected, rel=1e-8)

    def test_closed_form_2x2(self):
        # rows e1 and (e1+e2)/sqrt(2): Gram eigenvalues 1 +/- sqrt(2)/2
        a = np.array([[1.0, 0.0], [1 / SQRT2, 1 / SQRT2]])
        assert sigma_max_sq(a) == pytest.approx(
            1 + SQRT2 / 2, rel=1e-8
        )

    def test_zero_matrix(self):
        assert sigma_max_sq(np.zeros((3, 2))) == 0.0

    @pytest.mark.parametrize("matrix, message", [
        ([1.0, 2.0], "expected a 2-D matrix, got ndim=1"),
        (np.empty((0, 3)), "matrix must be at least 1x1, got 0x3"),
        ([[np.inf]], "matrix entries must be finite"),
    ], ids=["vector", "no-rows", "infinite"])
    def test_refused_matrices(self, matrix, message):
        with pytest.raises(ShapeError, match=f"^{message}$"):
            sigma_max_sq(matrix)

    def test_matches_svd_on_slowly_separated_spectrum(self):
        # A 10000x100 system whose top two Gram eigenvalues are close enough
        # that a power iteration ran out of sweeps on it.
        a = generate(GeneratorSpec("gaussian", 10000, 100, 3809353120,
                                   CorruptionSpec(beta=0.2))).matrix
        expected = np.linalg.svd(a, compute_uv=False)[0] ** 2
        assert sigma_max_sq(a) == pytest.approx(expected, rel=1e-12)


class TestSigmaMinSq:
    def test_identity(self):
        assert sigma_min_sq(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient(self):
        assert sigma_min_sq([[1.0, 0.0], [1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        a = np.array([[1.0, 0.0], [1 / SQRT2, 1 / SQRT2]])
        assert sigma_min_sq(a) == pytest.approx(1 - SQRT2 / 2, rel=1e-10)

    def test_wide_raises(self):
        with pytest.raises(ShapeError):
            sigma_min_sq(np.ones((2, 3)))


class TestRestrictedBruteforce:
    def test_worked_4x2_pairs(self):
        summary = restricted_min_sv_bruteforce(worked_4x2(), 2)
        assert summary.sigma_restricted_min_sq == pytest.approx(1 - SQRT2 / 2, rel=1e-10)
        assert summary.exact is True
        assert summary.subsets_examined == 6

    def test_parallel_pair_is_singular(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        summary = restricted_min_sv_bruteforce(a, 2)
        assert summary.sigma_restricted_min_sq == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_full_subset(self):
        summary = restricted_min_sv_bruteforce(np.eye(3), 3)
        assert summary.sigma_restricted_min_sq == pytest.approx(1.0, abs=1e-12)
        assert summary.subsets_examined == 1

    def test_cap_exceeded(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeError, match="exceeds the enumeration cap"):
            restricted_min_sv_bruteforce(unit_rows(rng, 30, 2), 15)

    def test_bad_subset_size(self):
        with pytest.raises(ShapeError):
            restricted_min_sv_bruteforce(np.eye(3), 1)  # k < n

    @pytest.mark.parametrize("seed", range(5))
    def test_against_svd_enumeration_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = unit_rows(rng, 7, 2)
        k = 3
        oracle = min(
            np.linalg.svd(a[list(idx)], compute_uv=False)[-1] ** 2
            for idx in itertools.combinations(range(7), k)
        )
        summary = restricted_min_sv_bruteforce(a, k)
        assert summary.sigma_restricted_min_sq == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_never_exceeds_any_subset(self):
        rng = np.random.default_rng(7)
        a = unit_rows(rng, 8, 3)
        summary = restricted_min_sv_bruteforce(a, 4)
        for idx in itertools.combinations(range(8), 4):
            assert sigma_min_sq(a[list(idx)]) >= summary.sigma_restricted_min_sq - 1e-12

    def test_restricted_below_sigma_max(self):
        rng = np.random.default_rng(8)
        a = unit_rows(rng, 9, 3)
        summary = restricted_min_sv_bruteforce(a, 5)
        assert summary.sigma_restricted_min_sq <= summary.sigma_max_sq


class TestRestrictedSampled:
    def test_full_subset_equals_sigma_min(self):
        rng = np.random.default_rng(2)
        a = unit_rows(rng, 6, 3)
        summary = restricted_min_sv_sampled(a, 6, samples=3, seed=0)
        assert summary.sigma_restricted_min_sq == pytest.approx(sigma_min_sq(a), rel=1e-12)
        assert summary.exact is False

    def test_finds_singular_pair(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        summary = restricted_min_sv_sampled(a, 2, samples=50, seed=3)
        assert summary.sigma_restricted_min_sq == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        a = unit_rows(rng, 10, 3)
        one = restricted_min_sv_sampled(a, 5, samples=20, seed=11)
        two = restricted_min_sv_sampled(a, 5, samples=20, seed=11)
        assert one == two

    # the edges of the complement route (m - k < k): k = m, m - k = 1, and
    # either side of 2k = m
    @pytest.mark.parametrize("m, k", [(30, 30), (30, 29), (30, 15), (31, 16)])
    def test_complement_edges_match_literal_reference(self, monkeypatch, m, k):
        a = unit_rows(np.random.default_rng(300 + k), m, 4)
        solved = assert_solves_draws_directly(monkeypatch, a, k, 40, k)
        assert len(solved) < 40 or k == m  # at k = m every subset ties the first

    @pytest.mark.parametrize("seed", [True, None, -1, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        a = unit_rows(np.random.default_rng(5), 10, 3)
        with pytest.raises(ShapeError, match="^seed must be"):
            restricted_min_sv_sampled(a, 5, samples=3, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_undershoots_bruteforce(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = unit_rows(rng, 9, 2)
        exact = restricted_min_sv_bruteforce(a, 4).sigma_restricted_min_sq
        estimate = restricted_min_sv_sampled(a, 4, samples=10, seed=seed)
        assert estimate.sigma_restricted_min_sq >= exact - 1e-12


def restricted_sampled_reference(a, k, samples, seed):
    """Literal reference of ``restricted_min_sv_sampled``: the same draws from
    the same generator, and one ``eigvalsh`` per subset, with no bound."""
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(samples):
        x = a[rng.choice(a.shape[0], size=k, replace=False)]
        best = min(best, np.linalg.eigvalsh(x.T @ x)[0])
    return max(float(best), 0.0)


@st.composite
def sampled_inputs(draw):
    """A unit-row matrix (Gaussian rows, or rows repeated from a pool of n so
    that many subsets are singular), a subset size, a sample count, a seed and
    whether the rows were repeated."""
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, min(6, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = unit_rows(rng, m, n)
    repeated = draw(st.booleans())
    if repeated:
        a = a[rng.integers(0, n, size=m)]
    k = draw(st.integers(n, m))
    return a, k, draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1)), repeated


def assert_solves_draws_directly(monkeypatch, a, k, samples, seed):
    """Run ``restricted_min_sv_sampled`` with every ``eigvalsh`` input recorded,
    check that it returns the literal reference bit for bit and that each Gram
    matrix it eigen-solves before ``sigma_max_sq``'s is its draw's ``x.T @
    x``, bit for bit, no draw twice; return the indices of the draws solved."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(grams):
        seen.extend(np.array(grams).reshape(-1, *grams.shape[-2:]))  # a copy: buffers are reused
        return eigvalsh(grams)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    summary = restricted_min_sv_sampled(a, k, samples=samples, seed=seed)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert summary.sigma_restricted_min_sq == restricted_sampled_reference(a, k, samples, seed)
    rng = np.random.default_rng(seed)
    draws = [x.T @ x for x in (a[rng.choice(a.shape[0], size=k, replace=False)]
                               for _ in range(samples))]
    whole = a.T @ a  # sigma_max_sq's Gram matrix, solved last
    *subsets, last = seen
    assert np.array_equal(last, whole)
    solved = []
    for gram in subsets:  # each the next draw it equals: in order, none twice
        start = solved[-1] + 1 if solved else 0
        solved.append(next((j for j in range(start, samples) if np.array_equal(gram, draws[j])),
                           None))
        assert solved[-1] is not None
    return solved


class TestRestrictedAgainstReference:
    @given(sampled_inputs())
    @settings(max_examples=150, deadline=None)
    def test_sampled_matches_literal_reference(self, inputs):
        a, k, samples, seed, repeated = inputs
        summary = restricted_min_sv_sampled(a, k, samples=samples, seed=seed)
        expected = restricted_sampled_reference(a, k, samples, seed)
        if repeated:  # singular subsets: the smallest eigenvalue is rounding noise
            assert summary.sigma_restricted_min_sq == pytest.approx(expected, rel=1e-10, abs=1e-12)
        else:
            assert summary.sigma_restricted_min_sq == expected  # bit for bit
        assert summary.subsets_examined == samples

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_is_chunk_independent(self, monkeypatch, seed):
        a = unit_rows(np.random.default_rng(400 + seed), 40, 5)
        results = []
        for chunk_bytes in (1, 1 << 40):  # one subset per chunk, then one chunk
            monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
            results.append(restricted_min_sv_sampled(a, 20, samples=30, seed=seed))
        single, whole = results
        assert single.sigma_restricted_min_sq == pytest.approx(
            whole.sigma_restricted_min_sq, rel=1e-12)
        assert single.subsets_examined == whole.subsets_examined == 30

    def test_bruteforce_is_chunk_independent(self, monkeypatch):
        sizes = []
        grids = linalg._grids

        def recording_grids(*args):  # the grid sizes the pruning receives
            for grid in grids(*args):
                sizes.append(len(grid[0]) * len(grid[1]))
                yield grid

        monkeypatch.setattr(linalg, "_grids", recording_grids)
        for n in (3, 2):  # k = 4 < 2n: the det-trace test; k = 4 >= 2n: Weyl's
            a = unit_rows(np.random.default_rng(500), 9, n)
            per_subset = 8 * 4 * n  # bytes of one gathered 4xn subset
            results = {}
            for per_chunk in (1, 10, 126):  # C(9,4) = 126
                sizes.clear()
                monkeypatch.setattr(linalg, "_CHUNK_BYTES", per_chunk * per_subset)
                results[per_chunk] = restricted_min_sv_bruteforce(a, 4)
                assert sum(sizes) == 126
                assert max(sizes) <= per_chunk
            values = [r.sigma_restricted_min_sq for r in results.values()]
            assert values == [values[0]] * 3
            assert {r.subsets_examined for r in results.values()} == {126}

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_solves_each_subset_once(self, monkeypatch, seed):
        a = unit_rows(np.random.default_rng(450 + seed), 30, 4)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 7 * 8 * 12 * 4)  # chunks of a few subsets
        solved = assert_solves_draws_directly(monkeypatch, a, 12, 40, seed)
        assert solved[0] == 0 and len(solved) < 40

    def test_sampled_peak_memory_is_bounded_by_the_chunk(self):
        a = unit_rows(np.random.default_rng(600), 2000, 50)
        tracemalloc.start()
        try:
            restricted_min_sv_sampled(a, 1360, samples=64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * linalg._CHUNK_BYTES + (1 << 20)


def bruteforce_reference(a, k):
    """Literal reference of ``restricted_min_sv_bruteforce``: every subset
    from itertools and one ``eigvalsh`` per subset, with no bound."""
    best = np.inf
    for idx in itertools.combinations(range(a.shape[0]), k):
        x = a[list(idx)]
        best = min(best, np.linalg.eigvalsh(x.T @ x)[0])
    return max(float(best), 0.0)


@st.composite
def exhaustive_inputs(draw):
    """A unit-row matrix with m <= 12 and n <= 5 (Gaussian rows, or rows
    repeated from a pool of n), a subset size and a chunk length."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, min(5, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = unit_rows(rng, m, n)
    repeated = draw(st.booleans())
    if repeated:
        a = a[rng.integers(0, n, size=m)]
    k = draw(st.integers(n, m))
    return a, k, draw(st.integers(1, math.comb(m, k))), repeated


def assert_matches_bruteforce_reference(a, k, repeated):
    summary = restricted_min_sv_bruteforce(a, k)
    expected = bruteforce_reference(a, k)
    if repeated:  # singular subsets: the smallest eigenvalue is rounding noise
        assert summary.sigma_restricted_min_sq == pytest.approx(expected, rel=1e-10, abs=1e-12)
    else:
        assert summary.sigma_restricted_min_sq == expected  # bit for bit
    assert summary.subsets_examined == math.comb(a.shape[0], k)


class TestPrunedBruteforce:
    @given(exhaustive_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_reference(self, inputs):
        a, k, per_chunk, repeated = inputs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_CHUNK_BYTES", per_chunk * 8 * k * a.shape[1])
            assert_matches_bruteforce_reference(a, k, repeated)

    @pytest.mark.parametrize("repeated", [False, True], ids=["gaussian", "repeated"])
    @pytest.mark.parametrize("m, n, k", [(9, 1, 4), (8, 3, 3), (7, 4, 7), (30, 28, 29)],
                             ids=["n=1", "k=n", "k=m", "n=28-unpruned"])
    def test_named_cases_match_literal_reference(self, m, n, k, repeated):
        rng = np.random.default_rng(800 + m)
        a = unit_rows(rng, m, n)
        if repeated:
            a = a[rng.integers(0, n, size=m)]
        assert_matches_bruteforce_reference(a, k, repeated)

    def test_grids_hold_every_subset_once_at_every_chunk_length(self):
        for m in range(10):
            for k in range(m + 1):
                expected = list(itertools.combinations(range(m), k))
                for per_chunk in range(1, len(expected) + 1):
                    grids = list(linalg._grids(m, k, per_chunk))
                    assert all(len(pre) * len(suf) <= per_chunk for pre, suf in grids)
                    rows = [linalg._grid_rows(pre, suf) for pre, suf in grids]
                    for (pre, suf), every in zip(grids, rows):  # all, or some, of a grid
                        np.testing.assert_array_equal(
                            every, linalg._grid_rows(pre, suf, np.arange(len(every))))
                    assert sorted(tuple(row) for r in rows for row in r.tolist()) == expected

    def test_bound_skips_most_eigen_solves(self, monkeypatch):
        a = unit_rows(np.random.default_rng(602), 20, 4)
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(grams):
            if grams.ndim == 3:  # subset Gram matrices, not sigma_max_sq's
                solved.append(len(grams))
            return eigvalsh(grams)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        summary = restricted_min_sv_bruteforce(a, 10)
        assert summary.subsets_examined == 184_756
        assert 0 < sum(solved) < 184_756 // 10

    @pytest.mark.parametrize("n, slogdets", [(4, 0), (7, 184_756)], ids=["weyl", "det-trace"])
    def test_route_follows_k_against_twice_n(self, monkeypatch, n, slogdets):
        # k = 10: Weyl's test where k >= 2n (n = 4), the det-trace test of
        # every subset's Gram matrix where k < 2n (n = 7)
        a = unit_rows(np.random.default_rng(603), 20, n)
        counts = {"slogdet": 0, "eigvalsh": 0}
        slogdet, eigvalsh = np.linalg.slogdet, np.linalg.eigvalsh

        def recording_slogdet(grams):
            counts["slogdet"] += len(grams)
            return slogdet(grams)

        def recording_eigvalsh(grams):
            if grams.ndim == 3:  # subset Gram matrices, not sigma_max_sq's
                counts["eigvalsh"] += len(grams)
            return eigvalsh(grams)

        monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        restricted_min_sv_bruteforce(a, 10)
        assert counts["slogdet"] == slogdets
        assert 0 < counts["eigvalsh"] < 184_756 // 10

    def test_peak_memory_is_bounded_by_the_chunk(self):
        a = unit_rows(np.random.default_rng(601), 20, 4)
        tracemalloc.start()
        try:
            restricted_min_sv_bruteforce(a, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * linalg._CHUNK_BYTES + (1 << 20)

    @pytest.mark.parametrize("repeated", [False, True], ids=["gaussian", "repeated"])
    @pytest.mark.parametrize("m, n", [(6, 1), (7, 2), (8, 3), (10, 4)])
    def test_weyl_bound_holds_at_every_chunk_length(self, m, n, repeated):
        rng = np.random.default_rng(1000 + 10 * m + n)
        a = unit_rows(rng, m, n)
        if repeated:
            a = a[rng.integers(0, n, size=m)]
        for k in range(n, m + 1):
            literal = {idx: np.linalg.eigvalsh(a[list(idx)].T @ a[list(idx)])[0]
                       for idx in itertools.combinations(range(m), k)}
            margin = linalg._weyl_margin(n, k)
            for per_chunk in range(1, len(literal) + 1):
                for pre, suf, bound, trace in linalg._grids(
                        m, k, per_chunk, lambda rows: linalg._gram_spectra(a, rows)):
                    exact = np.array([literal[tuple(row)]
                                      for row in linalg._grid_rows(pre, suf).tolist()])
                    assert np.all(bound <= exact + margin * trace)

    # With the margin set to 0, each of the seeded cases but the first loses
    # its minimizer at 7 subsets per chunk: it returns 0x1.ffffffffffffbp-1,
    # 1.8e-16 and 6.0e-16 against 0x1.ffffffffffffap-1, 0 and 5.3e-16.
    # The last four have k < 2n and so meet the det-trace bound, tight up to
    # rounding on a singular subset whose other eigenvalues are equal.
    # With _prune_margin set to 0, the first three return 0x1p-52, 0x1p-55
    # and 0x1.a0f0b69a6e493p-57 at one subset per chunk, and the fourth
    # 0x1.ap-64 in one chunk, against 0x1p-53, 0, 0 and 0.
    @pytest.mark.parametrize("seed, m, n, k", [(0, 12, 4, 8), (16, 11, 2, 8), (23, 10, 3, 7),
                                               (35, 11, 4, 9), (190, 8, 2, 3), (69, 12, 2, 3),
                                               (185, 7, 3, 3), (183, 10, 3, 5)])
    def test_near_tie_matches_literal_reference(self, seed, m, n, k):
        # Rows from n orthonormal directions: every Gram matrix, prefix,
        # suffix and subset alike, has the same eigenvectors, so Weyl's
        # bound is tight up to rounding, and only the margin keeps the
        # minimizer.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q[rng.integers(0, n, size=m)]
        expected = bruteforce_reference(a, k)
        for per_chunk in (1, 7, math.comb(m, k)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "_CHUNK_BYTES", per_chunk * 8 * k * n)
                summary = restricted_min_sv_bruteforce(a, k)
            assert summary.sigma_restricted_min_sq == expected  # bit for bit


RESTRICTED_ROUTES = {
    "bruteforce": (restricted_min_sv_bruteforce, {"k": 4}),
    "sampled": (restricted_min_sv_sampled, {"k": 4, "samples": 3, "seed": 0}),
}


@pytest.mark.parametrize("route, sizes, name", [
    ("bruteforce", {"k": 2.5}, "k"),
    ("bruteforce", {"k": np.float64(4.0)}, "k"),
    ("bruteforce", {"k": True}, "k"),
    ("sampled", {"k": 4.0}, "k"),
    ("sampled", {"samples": 2.5}, "samples"),
    ("sampled", {"samples": True}, "samples"),
])
def test_non_integer_subset_sizes_are_shape_errors(route, sizes, name):
    a = unit_rows(np.random.default_rng(700), 8, 1)
    fn, defaults = RESTRICTED_ROUTES[route]
    with pytest.raises(ShapeError, match=rf"^{name} must be an integer"):
        fn(a, **{**defaults, **sizes})


@pytest.mark.parametrize("route, args, name", [
    (quantile_of_multiset, (["a"], 0.5), "values"),
    (row_normalize, ([[1.0], [1.0, 2.0]],), "matrix"),
    (restricted_min_sv_bruteforce, ([["a"]], 1), "matrix"),
    (sigma_max_sq, ([["a"]],), "matrix"),
], ids=["quantile", "row_normalize", "bruteforce", "sigma_max_sq"])
def test_non_numeric_arrays_are_config_errors(route, args, name):
    with pytest.raises(ConfigError, match=f"^{name} must be an array of numbers: "):
        route(*args)


@pytest.mark.parametrize("q", [None, "0.5", 1j, [0.5], np.full((2, 2), 0.5), True],
                         ids=["None", "str", "complex", "list", "2-D", "bool"])
def test_a_quantile_level_that_is_not_a_real_number_is_a_domain_error(q):
    with pytest.raises(DomainError, match=r"^q must be a real number, got "):
        quantile_of_multiset([1.0, 2.0, 3.0], q)


@pytest.mark.parametrize("values, axis", [([1.0, 2.0], 1), ([1.0, 2.0], -2), ([1.0, 2.0], True),
                                          ([[1.0], [2.0]], 2), ([[1.0], [2.0]], 0.0),
                                          ([[1.0], [2.0]], "0"), (2.0, 0)],
                         ids=["past-1-d", "before-1-d", "bool", "past-2-d", "float", "str", "0-d"])
def test_an_axis_the_input_lacks_is_a_shape_error(values, axis):
    with pytest.raises(ShapeError, match=rf"^axis {re.escape(repr(axis))} is not an axis of "):
        quantile_of_multiset(values, 0.5, axis=axis)


def test_negative_and_numpy_axes_are_accepted():
    block = np.array([[3.0, 1.0, 2.0], [6.0, 5.0, 4.0]])
    assert quantile_of_multiset(block, 0.5, axis=-1).tolist() == [2.0, 5.0]
    assert quantile_of_multiset(block, 0.5, axis=np.int64(0)).tolist() == [3.0, 1.0, 2.0]
    assert quantile_of_multiset([1.0, 2.0], 0.5, axis=-1) == 1.0


def test_numpy_integer_sizes_are_accepted():
    a = unit_rows(np.random.default_rng(701), 8, 2)
    summary = restricted_min_sv_sampled(a, np.int64(4), samples=np.int32(3), seed=0)
    assert summary == restricted_min_sv_sampled(a, 4, samples=3, seed=0)
    assert type(summary.subsets_examined) is int


class TestMonotonicity:
    def test_sigma_min_grows_with_rows(self):
        rng = np.random.default_rng(5)
        a = unit_rows(rng, 8, 3)
        order = list(range(8))
        for size in range(3, 8):
            smaller = sigma_min_sq(a[order[:size]])
            larger = sigma_min_sq(a[order[: size + 1]])
            assert larger >= smaller - 1e-10


class TestRowSumBounds:
    """Deterministic bounds on selected-row sums, exhaustively over subsets."""

    @pytest.mark.parametrize("seed", range(10))
    def test_inner_product_and_norm_sum(self, seed):
        rng = np.random.default_rng(300 + seed)
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        a = unit_rows(rng, m, n)
        x = rng.standard_normal(n)
        smax = math.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])
        inner = np.abs(a @ x)
        for mask in range(1, 2**m):
            idx = [i for i in range(m) if mask >> i & 1]
            size = len(idx)
            assert inner[idx].sum() <= smax * math.sqrt(size) * np.linalg.norm(x) + 1e-10
            assert np.sum(a[idx].sum(axis=0) ** 2) <= smax**2 * size + 1e-10
