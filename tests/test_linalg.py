import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import linalg
from quantile_kaczmarz.errors import ShapeError
from quantile_kaczmarz.linalg import (
    restricted_min_sv_bruteforce,
    restricted_min_sv_sampled,
    row_normalize,
    sigma_max_sq,
    sigma_min_sq,
)
from quantile_kaczmarz.problems import CorruptionSpec, GeneratorSpec, generate

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
        batches = []
        combinations = linalg._combinations

        def recording_combinations(*args):  # the chunks the pruning receives
            for chunk in combinations(*args):
                batches.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(linalg, "_combinations", recording_combinations)
        for n in (3, 2):  # k = 4 < 2n: the det-trace test; k = 4 >= 2n: Weyl's
            a = unit_rows(np.random.default_rng(500), 9, n)
            per_subset = 8 * 4 * n  # bytes of one gathered 4xn subset
            expected_batches = {1: [1] * 126, 10: [10] * 12 + [6], 126: [126]}  # C(9,4) = 126
            results = {}
            for per_chunk, expected in expected_batches.items():
                batches.clear()
                monkeypatch.setattr(linalg, "_CHUNK_BYTES", per_chunk * per_subset)
                results[per_chunk] = restricted_min_sv_bruteforce(a, 4)
                assert batches == expected
            values = [r.sigma_restricted_min_sq for r in results.values()]
            assert values == pytest.approx([values[0]] * 3, rel=1e-12)
            assert {r.subsets_examined for r in results.values()} == {126}

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_solves_each_subset_once(self, monkeypatch, seed):
        a = unit_rows(np.random.default_rng(450 + seed), 30, 4)
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(grams):
            if grams.ndim == 3:  # subset Gram matrices, not sigma_max_sq's
                seen.extend(grams)
            return eigvalsh(grams)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 7 * 8 * 12 * 4)  # chunks of 7 subsets
        restricted_min_sv_sampled(a, 12, samples=40, seed=seed)
        rng = np.random.default_rng(seed)
        draws = [a[rng.choice(30, size=12, replace=False)] for _ in range(40)]
        assert len(seen) == 40
        for gram, x in zip(seen, draws):
            np.testing.assert_array_equal(gram, x.T @ x)

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

    def test_combinations_match_itertools_for_every_chunk_length(self):
        for m in range(10):
            for k in range(m + 1):
                expected = list(itertools.combinations(range(m), k))
                for per_chunk in range(1, len(expected) + 1):
                    chunks = [idx for idx, in linalg._combinations(m, k, per_chunk)]
                    assert [len(c) for c in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
                    assert 0 < len(chunks[-1]) <= per_chunk
                    assert [tuple(row) for c in chunks for row in c.tolist()] == expected

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
            literal = np.array([np.linalg.eigvalsh(a[list(idx)].T @ a[list(idx)])[0]
                                for idx in itertools.combinations(range(m), k)])
            margin = linalg._weyl_margin(n, k)
            for per_chunk in range(1, len(literal) + 1):
                chunks = list(linalg._combinations(
                    m, k, per_chunk, lambda rows: linalg._gram_spectra(a, rows)))
                bound = np.concatenate([bound for _, bound, _ in chunks])
                trace = np.concatenate([trace for _, _, trace in chunks])
                assert np.all(bound <= literal + margin * trace)

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
