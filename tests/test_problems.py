import dataclasses
import decimal
import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantile_kaczmarz.cli as cli
import quantile_kaczmarz.problems as problems
from quantile_kaczmarz.errors import ConfigError, IoError
from quantile_kaczmarz.problems import (
    FAMILIES,
    CorruptedSystem,
    CorruptionSpec,
    GeneratorSpec,
    generate,
    generate_adversarial_duplicate,
    load_system,
    save_system,
)


def spec(family="gaussian", m=120, n=10, seed=0, beta=0.0, **corruption):
    return GeneratorSpec(
        family=family, m=m, n=n, seed=seed,
        corruption=CorruptionSpec(beta=beta, **corruption),
    )


class OutOfMemory:
    """A stream whose every draw fails the way numpy fails on a matrix too
    large for memory, so that a test of that failure allocates nothing."""

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            raise MemoryError
        return draw


def arguments(system: CorruptedSystem) -> dict:
    """The constructor's arguments that built ``system``."""
    return {f: getattr(system, f) for f in ("matrix", "x_star", "b_observed", "corrupted_indices")}


def csv_family(family: str, rng: np.random.Generator) -> np.ndarray:
    """Values whose ".17g" text takes each path of the CSV writer."""
    if family == "edge":  # mostly zeros, subnormals and extremes, which take format() itself
        big = np.finfo(float).max
        return np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.1, 1.2345678901234568e+17,
                         big, -big])
    if family in ("powers-of-ten", "powers-of-two"):  # decimal exponent, binary ulp changes
        powers = ([float(f"1e{k}") for k in range(-6, 17)] if family == "powers-of-ten"
                  else [s * 2.0**k for k in range(-40, 55) for s in (1.0, -1.0)])
        return np.array([w for p in powers
                         for w in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))])
    if family == "bit-patterns":
        values = rng.integers(0, 2**64, 5_000, dtype=np.uint64).view(np.float64)
        return values[np.isfinite(values)]
    if family == "dyadic-ties":
        # k / 2**j with odd k in [10**(17-j), 10**(18-j)) * 2**j has exactly 18
        # significant digits, the last a 5: a tie, rounded to even, at the 17th
        values = []
        for j in range(3, 23):
            low, high = math.ceil(10.0 ** (17 - j) * 2**j), math.floor(10.0 ** (18 - j) * 2**j)
            odd = 2 * rng.integers(low // 2, (high - 1) // 2, 50) + 1
            values.extend(odd / 2**j * rng.choice([-1.0, 1.0], 50))
        assert all(len(decimal.Decimal(v).as_tuple().digits) == 18 for v in values)
        return np.array(values)
    assert family == "log-uniform"
    return rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-8, 18, 10_000)


@st.composite
def decimal_texts(draw) -> str:
    """A decimal number's text: a sign, 1-20 digits, the point anywhere or
    nowhere, and an optional exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=20))
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-30, 30))
    return (draw(st.sampled_from(["", "-"])) + digits
            + ("" if exponent is None else f"e{exponent}"))


def with_line(index: int, line: str):
    """An edit of a file's text that puts ``line`` in place of line ``index``."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        lines[index] = line
        return "\n".join(lines) + "\n"
    return edit


def validate(system: CorruptedSystem) -> None:
    """b_observed differs from the consistent right-hand side, matrix @ x_star,
    exactly on the corrupted index set."""
    diff = np.flatnonzero(system.b_observed != system.matrix @ system.x_star)
    assert np.array_equal(np.sort(diff), np.sort(system.corrupted_indices))


class TestGenerate:
    def test_deterministic_within_build(self):
        one = generate(spec(seed=42, beta=0.3))
        two = generate(spec(seed=42, beta=0.3))
        np.testing.assert_array_equal(one.matrix, two.matrix)
        np.testing.assert_array_equal(one.x_star, two.x_star)
        np.testing.assert_array_equal(one.b_observed, two.b_observed)
        np.testing.assert_array_equal(one.corrupted_indices, two.corrupted_indices)

    def test_no_corruption_means_equal_rhs(self):
        system = generate(spec(m=100, n=10, beta=0.0))
        np.testing.assert_array_equal(system.b_observed, system.matrix @ system.x_star)
        assert system.corrupted_indices.size == 0

    def test_floor_of_beta_m_rows_corrupted(self):
        system = generate(spec(m=100, n=10, beta=0.2))
        assert system.corrupted_indices.size == 20
        system = generate(spec(m=103, n=10, beta=0.2))
        assert system.corrupted_indices.size == 20  # floor(20.6)

    def test_consistency_and_corruption_support(self):
        system = generate(spec(m=200, n=15, seed=9, beta=0.25))
        validate(system)

    def test_rows_unit_norm(self):
        for family in ("gaussian", "coherent"):
            system = generate(spec(family=family, seed=3))
            np.testing.assert_allclose(
                np.linalg.norm(system.matrix, axis=1), 1.0, atol=1e-12
            )

    def test_magnitudes_within_range(self):
        system = generate(spec(m=400, n=10, seed=5, beta=0.5))
        offsets = (system.b_observed - system.matrix @ system.x_star)[system.corrupted_indices]
        assert np.all(np.abs(offsets) <= 100.0)
        assert np.all(offsets != 0.0)

    def test_custom_magnitude_range(self):
        system = generate(spec(m=200, n=5, seed=6, beta=0.5,
                               magnitude_low=2.0, magnitude_high=3.0))
        offsets = (system.b_observed - system.matrix @ system.x_star)[system.corrupted_indices]
        assert np.all((offsets >= 2.0) & (offsets <= 3.0))

    def test_corruption_stream_independent_of_matrix(self):
        clean = generate(spec(seed=11, beta=0.0))
        dirty = generate(spec(seed=11, beta=0.4))
        np.testing.assert_array_equal(clean.matrix, dirty.matrix)
        np.testing.assert_array_equal(clean.x_star, dirty.x_star)

    def test_given_indices_placement(self):
        indices = (3, 7, 11)
        system = generate(
            GeneratorSpec(
                family="gaussian", m=50, n=5, seed=1,
                corruption=CorruptionSpec(beta=0.0, placement="given-indices", indices=indices),
            )
        )
        np.testing.assert_array_equal(system.corrupted_indices, indices)
        assert system.beta == pytest.approx(3 / 50)
        numpy_ints = tuple(np.array(indices))  # numpy integers are integers too
        again = generate(spec(m=50, n=5, seed=1, placement="given-indices", indices=numpy_ints))
        np.testing.assert_array_equal(again.corrupted_indices, indices)

    def test_coherent_rows_strongly_aligned(self):
        # sample-mean of pairwise inner products over 10^4 pairs must exceed 1/2
        system = generate(spec(family="coherent", m=1000, n=50, seed=2))
        rng = np.random.default_rng(0)
        i = rng.integers(0, 1000, size=10_000)
        j = rng.integers(0, 1000, size=10_000)
        keep = i != j
        dots = np.sum(system.matrix[i[keep]] * system.matrix[j[keep]], axis=1)
        assert dots.mean() > 0.5

    def test_placement_uniform_over_frozen_batch(self):
        # 200 seeds, m=50, beta=0.2: every index corrupted 40 +/- 10 times
        # (frequency 0.2 +/- 0.05).  Frozen batch; counts checked in integers.
        counts = np.zeros(50, dtype=int)
        for seed in range(20000, 20200):
            system = generate(spec(m=50, n=5, seed=seed, beta=0.2))
            counts[system.corrupted_indices] += 1
        assert counts.sum() == 200 * 10
        assert np.all(np.abs(counts - 40) <= 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=10, n=10),                     # not overdetermined
            dict(m=10, n=20),
            dict(beta=1.0),
            dict(magnitude_low=5.0, magnitude_high=5.0),
            dict(family="pareto"),
            dict(placement="given-indices"),                      # no indices
            dict(placement="given-indices", indices=(3, 3)),
            dict(placement="given-indices", indices=(3, 100)),    # out of range
            dict(placement="given-indices", indices=(1.5, 2.7)),  # not truncated to 1, 2
            dict(placement="given-indices", indices=(1.0, 2.0)),
            dict(placement="given-indices", indices=(True, 3)),   # not taken as row 1
        ],
    )
    def test_spec_errors(self, kwargs):
        base = dict(family="gaussian", m=100, n=10, seed=0, beta=0.1)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            generate(spec(**base))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(beta=0.5, placement="given-indices", indices=(3,)), "beta must be unset"),
        (dict(beta=0.1, indices=(3,)), "indices must be unset"),
    ])
    def test_field_the_placement_ignores_is_an_error(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            generate(spec(family="gaussian", m=50, n=5, seed=0, **kwargs))

    def test_adversarial_family_needs_dedicated_constructor(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(family="adversarial-duplicate", m=100, n=10, seed=0))

    def test_unallocatable_matrix_is_a_config_error(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(problems, "_streams", lambda seed, count: [OutOfMemory()] * count)
        for family in ("gaussian", "coherent"):
            with pytest.raises(ConfigError, match=r"m=1000000000 by n=50 .* 400000000000 bytes"):
                generate(GeneratorSpec(family, 10**9, 50, 1))
        for command in (["run"], ["sweep-alpha", "--values", "1,2", "--reps", "2"]):
            argv = [*command, "--m", "1000000000", "--n", "50", "--seed", "1",
                    "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 2
            assert "400000000000 bytes" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matrix_is_normalized_in_place(self, family):
        """One draw's worth of memory, and the bits of dividing the draw by
        its row norms."""
        tracemalloc.start()
        try:
            system = generate(spec(family, m=40000, n=100, seed=8, beta=0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * system.matrix.nbytes
        rng = problems._streams(8, 4)[0]
        draws = (rng.uniform(0.0, 1.0, size=(40000, 100)) if family == "coherent"
                 else rng.standard_normal((40000, 100)))
        expected = draws / np.linalg.norm(draws, axis=1)[:, None]
        assert system.matrix.tobytes() == expected.tobytes()


class TestAdversarialDuplicate:
    def test_default_shape_matches_construction(self):
        system, x0 = generate_adversarial_duplicate(seed=0)
        assert system.matrix.shape == (1250, 100)
        assert system.corrupted_indices.size == 250

    def test_duplicate_rows_bit_identical(self):
        system, _ = generate_adversarial_duplicate(n=20, clean_rows=50, dup_rows=10, seed=1)
        dup = system.matrix[50:]
        for row in dup:
            np.testing.assert_array_equal(row, dup[0])

    def test_start_lies_on_target_hyperplane(self):
        system, x0 = generate_adversarial_duplicate(n=30, clean_rows=40, dup_rows=8,
                                                    target=500.0, seed=2)
        a = system.matrix[40]
        assert abs(a @ x0 - 500.0) <= 1e-8

    def test_start_is_projection_of_all_ones(self):
        system, x0 = generate_adversarial_duplicate(n=25, clean_rows=30, dup_rows=5,
                                                    target=77.0, seed=3)
        a = system.matrix[30]
        # x0 - ones is parallel to a, and x0 satisfies the hyperplane equation
        residual_dir = x0 - np.ones(25)
        cross = residual_dir - (residual_dir @ a) * a
        assert np.linalg.norm(cross) <= 1e-10

    def test_observed_entries_replaced_by_target(self):
        system, _ = generate_adversarial_duplicate(n=10, clean_rows=20, dup_rows=4,
                                                   target=-3.5, seed=4)
        np.testing.assert_array_equal(system.b_observed[20:], -3.5)
        assert np.all(system.b_observed[:20] == (system.matrix @ system.x_star)[:20])

    def test_unallocatable_matrix_is_a_config_error(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(problems, "_streams", lambda seed, count: [OutOfMemory()] * count)
        message = r"m=10000250 by n=1000000000 .* 80002000000000000 bytes"
        with pytest.raises(ConfigError, match=message):
            generate_adversarial_duplicate(n=10**9, clean_rows=10**7)
        out = tmp_path / "out"
        argv = ["adversarial-demo", "--n", "1000000000", "--clean-rows", "10000000",
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert "80002000000000000 bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ConfigError):
            generate_adversarial_duplicate(n=1)
        with pytest.raises(ConfigError):
            generate_adversarial_duplicate(clean_rows=0)
        with pytest.raises(ConfigError):
            generate_adversarial_duplicate(dup_rows=0)


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        original = generate(spec(m=60, n=7, seed=13, beta=0.3))
        gen_spec = spec(m=60, n=7, seed=13, beta=0.3)
        save_system(original, tmp_path / "sys", spec=gen_spec)
        loaded = load_system(tmp_path / "sys")
        np.testing.assert_array_equal(loaded.matrix, original.matrix)
        np.testing.assert_array_equal(loaded.b_observed, original.b_observed)
        np.testing.assert_array_equal(loaded.x_star, original.x_star)
        np.testing.assert_array_equal(loaded.corrupted_indices, original.corrupted_indices)
        np.testing.assert_array_equal(loaded.matrix @ loaded.x_star,
                                      original.matrix @ original.x_star)
        assert loaded.beta == original.beta
        validate(loaded)

    def test_metadata_contents(self, tmp_path):
        original = generate(spec(m=20, n=3, seed=2, beta=0.5))
        save_system(original, tmp_path / "sys", spec=spec(m=20, n=3, seed=2, beta=0.5))
        meta = json.loads((tmp_path / "sys" / "metadata.json").read_text())
        assert meta["m"] == 20 and meta["n"] == 3
        assert meta["spec"]["seed"] == 2
        assert len(meta["corrupted_indices"]) == 10

    def test_identical_saves_are_byte_identical(self, tmp_path):
        system = generate(spec(m=25, n=4, seed=3, beta=0.2))
        save_system(system, tmp_path / "a")
        save_system(system, tmp_path / "b")
        for name in ("matrix.csv", "b_observed.csv", "metadata.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("family", ["edge", "powers-of-ten", "powers-of-two", "dyadic-ties",
                                        "log-uniform", "bit-patterns", "generated"])
    def test_csv_holds_each_float_as_format_17g(self, tmp_path, family):
        """The writer against the plain reference, format(v, ".17g") per value,
        and the reader against the values saved: here on b_observed beside a
        random unit-row matrix, or, for "generated", on a whole generated
        system."""
        rng = np.random.default_rng(21)
        if family == "generated":
            system = generate(spec(m=600, n=10, seed=21, beta=0.2))
        else:
            b_observed = csv_family(family, rng)
            system = CorruptedSystem(
                matrix=generate(spec(m=b_observed.size, n=3, seed=21)).matrix,
                x_star=np.zeros(3), b_observed=b_observed,
                corrupted_indices=np.arange(b_observed.size))
        save_system(system, tmp_path / "sys")
        lines = {"matrix.csv": [",".join(format(v, ".17g") for v in row)
                                for row in system.matrix],
                 "b_observed.csv": [format(v, ".17g") for v in system.b_observed]}
        for name, expected in lines.items():
            text = "".join(line + "\n" for line in expected)
            assert (tmp_path / "sys" / name).read_bytes() == text.encode()
        loaded = load_system(tmp_path / "sys")
        assert loaded.matrix.tobytes() == system.matrix.tobytes()
        assert loaded.b_observed.tobytes() == system.b_observed.tobytes()

    def test_save_streams_the_csv(self, tmp_path):
        """No text of a whole file is built: the traced peak of a save stays
        below a quarter of the bytes it writes."""
        system = generate(spec(m=20_000, n=20, seed=5, beta=0.1))
        tracemalloc.start()
        try:
            save_system(system, tmp_path / "sys")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        written = sum(path.stat().st_size for path in (tmp_path / "sys").iterdir())
        assert written > 8_000_000
        assert peak < written / 4

    def test_load_streams_the_csv(self, tmp_path):
        """The CSV is parsed a block at a time into the loaded arrays: the
        traced peak of a load stays below the matrix's bytes plus a quarter of
        the bytes it reads."""
        system = generate(spec(m=20_000, n=20, seed=5, beta=0.1))
        save_system(system, tmp_path / "sys")
        tracemalloc.start()
        try:
            load_system(tmp_path / "sys")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        read = sum(path.stat().st_size for path in (tmp_path / "sys").iterdir())
        assert read > 8_000_000
        assert peak < system.matrix.nbytes + read / 4

    def test_line_longer_than_a_read(self, tmp_path):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((3, 8_000))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        system = CorruptedSystem(matrix=matrix, x_star=np.zeros(8_000),
                                 b_observed=rng.standard_normal(3), corrupted_indices=np.arange(1))
        save_system(system, tmp_path / "sys")
        assert (tmp_path / "sys" / "matrix.csv").stat().st_size > 3 * problems._READ
        assert load_system(tmp_path / "sys").matrix.tobytes() == matrix.tobytes()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_every_saved_float_reads_back(self, values):
        system = CorruptedSystem(matrix=np.ones((len(values), 1)), x_star=np.zeros(1),
                                 b_observed=np.array(values), corrupted_indices=np.arange(0))
        with tempfile.TemporaryDirectory() as out:
            save_system(system, out)
            loaded = load_system(out)
        assert loaded.b_observed.tobytes() == system.b_observed.tobytes()

    @given(st.lists(decimal_texts(), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_decimal_text_reads_as_float(self, texts):
        system = CorruptedSystem(matrix=np.ones((len(texts), 1)), x_star=np.zeros(1),
                                 b_observed=np.zeros(len(texts)), corrupted_indices=np.arange(0))
        with tempfile.TemporaryDirectory() as out:
            save_system(system, out)
            (Path(out) / "b_observed.csv").write_text("".join(t + "\n" for t in texts))
            loaded = load_system(out)
        expected = np.array([float(t) for t in texts])
        assert loaded.b_observed.tobytes() == expected.tobytes()

    def test_beta_follows_the_indices(self, tmp_path):
        system = CorruptedSystem(matrix=np.eye(3), x_star=np.zeros(3),
                                 b_observed=np.ones(3), corrupted_indices=np.arange(3))
        assert system.beta == 1.0
        save_system(system, tmp_path / "sys")
        assert load_system(tmp_path / "sys").beta == 1.0


class TestLoadValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        out = tmp_path / "sys"
        save_system(generate(spec(m=40, n=5, seed=4, beta=0.25)), out)
        return out

    def edit_meta(self, out, **changes):
        path = out / "metadata.json"
        meta = json.loads(path.read_text())
        meta.update(changes)
        path.write_text(json.dumps(meta))

    def drop_last_line(self, path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")

    def test_matrix_rows_disagree_with_metadata(self, saved):
        self.drop_last_line(saved / "matrix.csv")
        with pytest.raises(IoError, match="matrix.csv"):
            load_system(saved)

    def test_matrix_columns_disagree_with_metadata(self, saved):
        self.edit_meta(saved, n=6)
        with pytest.raises(IoError, match="matrix.csv"):
            load_system(saved)

    def test_short_b_observed(self, saved):
        self.drop_last_line(saved / "b_observed.csv")
        with pytest.raises(IoError, match="b_observed.csv"):
            load_system(saved)

    def test_x_star_length(self, saved):
        meta = json.loads((saved / "metadata.json").read_text())
        self.edit_meta(saved, x_star=meta["x_star"][:-1])
        with pytest.raises(IoError, match="x_star"):
            load_system(saved)

    def test_repeated_corrupted_index(self, saved):
        meta = json.loads((saved / "metadata.json").read_text())
        idx = meta["corrupted_indices"]
        self.edit_meta(saved, corrupted_indices=idx + idx[:1])
        with pytest.raises(IoError, match="corrupted_indices"):
            load_system(saved)

    @pytest.mark.parametrize("index", [-1, 40, 99])
    def test_corrupted_index_out_of_range(self, saved, index):
        self.edit_meta(saved, corrupted_indices=[index])
        with pytest.raises(IoError, match="corrupted_indices"):
            load_system(saved)

    def test_beta_is_the_corrupted_share(self, saved):
        self.edit_meta(saved, beta=0.2)  # 10 of the 40 rows are corrupted
        with pytest.raises(IoError, match="metadata.json.*beta 0.2.*10/40"):
            load_system(saved)

    def test_format_version(self, saved):
        self.edit_meta(saved, format_version=2)
        with pytest.raises(IoError, match="format_version"):
            load_system(saved)

    @pytest.mark.parametrize("name", ["matrix.csv", "b_observed.csv"])
    def test_non_finite_csv_entry(self, saved, name):
        path = saved / name
        text = path.read_text()
        first = text.split("\n", 1)[0].split(",")[0]
        path.write_text(text.replace(first, "nan", 1))
        with pytest.raises(IoError, match=name):
            load_system(saved)

    def test_scaled_matrix_row(self, saved):
        path = saved / "matrix.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(repr(2.0 * float(v)) for v in lines[3].split(","))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IoError, match="matrix.csv"):
            load_system(saved)

    def test_rows_are_checked_for_unit_norm_once(self, saved, monkeypatch):
        calls = []
        check = problems.is_row_normalized

        def counting_check(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return check(matrix, *args, **kwargs)

        monkeypatch.setattr(problems, "is_row_normalized", counting_check)
        load_system(saved)
        assert calls == [(40, 5)]

    @pytest.mark.parametrize("name, edit", [
        ("metadata.json", lambda text: text[:-3]),
        ("metadata.json", lambda text: "[" + text + "]"),
        ("metadata.json", lambda text: text.replace('"m":', '"rows":')),
        ("metadata.json", lambda text: text.replace('"x_star": [', '"x_star": ["one", ')),
        ("metadata.json", lambda text: text.replace('"beta": ', '"beta": "a quarter", "was": ')),
        ("metadata.json", lambda text: text.replace('"corrupted_indices": [',
                                                    '"corrupted_indices": [1.5, ')),
        ("matrix.csv", lambda text: "one" + text[text.index(","):]),
        ("b_observed.csv", lambda text: "one" + text[text.index("\n"):]),
        *[("b_observed.csv", with_line(3, line)) for line in [
            "1_0", "", "1..5", "--1", "1-2", "0x10", "1.5e", "0.5,0.5", "0.5\n", "0.5\n# a comment",
            "1\0"]],
    ], ids=["not-json", "json-list", "missing-m", "string-in-x-star", "string-beta",
            "fractional-index", "word-in-matrix", "word-in-b", "underscore", "empty-field",
            "two-points", "two-signs", "inner-sign", "hex", "bare-exponent", "ragged-line",
            "blank-line", "comment-line", "nul"])
    def test_malformed_file_is_an_io_error_naming_it(self, saved, name, edit):
        path = saved / name
        path.write_text(edit(path.read_text()))
        with pytest.raises(IoError, match=name):
            load_system(saved)

    @pytest.mark.parametrize("text", [
        "+1.5", " 0.5", "5e-1", "1", "-0", "1.0000000000000001e-05",
        "10000000.00000000000000005", "-0.000000000000000000000012345",  # longer than 24 bytes
        "4503599627370496.5", "4503599627370497.5", "-9007199254740993.0"])  # ties between doubles
    def test_hand_edited_field_reads_as_float(self, saved, text):
        path = saved / "b_observed.csv"
        path.write_text(with_line(3, text)(path.read_text()))
        assert load_system(saved).b_observed[3:4].tobytes() == np.array([float(text)]).tobytes()

    def test_missing_final_newline(self, saved):
        expected = load_system(saved)
        for name in ("matrix.csv", "b_observed.csv"):
            path = saved / name
            path.write_bytes(path.read_bytes()[:-1])
        loaded = load_system(saved)
        assert loaded.matrix.tobytes() == expected.matrix.tobytes()
        assert loaded.b_observed.tobytes() == expected.b_observed.tobytes()

    def test_extra_matrix_line(self, saved):
        path = saved / "matrix.csv"
        text = path.read_text()
        path.write_text(text + text.split("\n", 1)[0] + "\n")
        with pytest.raises(IoError, match="matrix.csv: more than m=40 lines"):
            load_system(saved)

    def test_ragged_matrix_line_is_named(self, saved):
        path = saved / "matrix.csv"
        text = path.read_text()
        path.write_text(with_line(6, text.splitlines()[6] + ",0.5")(text))
        with pytest.raises(IoError, match="matrix.csv: line 7 does not hold n=5 values"):
            load_system(saved)

    @pytest.mark.parametrize("m, n", [(0, 5), (40, 0), (-1, 5)])
    def test_empty_shape_is_refused(self, saved, m, n):
        for name in ("matrix.csv", "b_observed.csv"):
            (saved / name).write_text("")
        self.edit_meta(saved, m=m, n=n, beta=0.0, corrupted_indices=[], x_star=[0.0] * n)
        with pytest.raises(IoError, match=f"metadata.json: m={m} and n={n} must be at least 1"):
            load_system(saved)

    def test_shape_larger_than_the_file_is_refused_before_allocating(self, saved):
        self.edit_meta(saved, m=10**12, beta=10 / 10**12)
        with pytest.raises(IoError, match=r"matrix.csv: \d+ bytes cannot hold 10{12}x5 values"):
            load_system(saved)

    @pytest.mark.parametrize("field, value", [("corrupted_indices", [10**30, 1]),
                                              ("x_star", [10**400, 0, 0, 0, 0])])
    def test_integer_beyond_its_array_type(self, saved, field, value):
        self.edit_meta(saved, **{field: value})
        with pytest.raises(IoError, match="metadata.json: .*int too large to convert"):
            load_system(saved)

    def test_non_finite_x_star(self, saved):
        meta = json.loads((saved / "metadata.json").read_text())
        self.edit_meta(saved, x_star=[math.inf] + meta["x_star"][1:])
        with pytest.raises(IoError, match="metadata.json"):
            load_system(saved)


class TestSaveValidation:
    """A system that load_system would refuse cannot be built, so save_system
    never makes a directory for it: the constructor refuses it, directly and
    through dataclasses.replace, naming the field."""

    @pytest.mark.parametrize("field, edit, message", [
        ("b_observed", lambda s: np.where(np.arange(s.m) == 3, np.nan, s.b_observed),
         "has a non-finite entry"),
        ("b_observed", lambda s: np.where(np.arange(s.m) == 3, -np.inf, s.b_observed),
         "has a non-finite entry"),
        ("b_observed", lambda s: s.b_observed[:-1], "has 39 entries, expected m=40"),
        ("corrupted_indices", lambda s: np.append(s.corrupted_indices, s.corrupted_indices[0]),
         r"must be unique and lie in \[0, 40\)"),
        ("corrupted_indices", lambda s: np.array([s.m]), r"must be unique and lie in \[0, 40\)"),
        ("x_star", lambda s: np.where(np.arange(s.n) == 1, np.nan, s.x_star),
         "has a non-finite entry"),
        ("x_star", lambda s: s.x_star[:-1], "has 4 entries, expected n=5"),
        ("corrupted_indices", lambda s: np.array([-1]), r"must be unique and lie in \[0, 40\)"),
        ("corrupted_indices", lambda s: np.array([1.5]), "must be a 1-D array of integers"),
        ("corrupted_indices", lambda s: np.array([True]), "must be .* dtype bool"),
        ("corrupted_indices", lambda s: [], "must be .* dtype float64"),
        ("corrupted_indices", lambda s: np.array([[1]]), r"must be .* shape \(1, 1\)"),
        ("b_observed", lambda s: s.b_observed[:, None], r"has shape \(40, 1\), expected \(40,\)"),
        ("b_observed", lambda s: [[1.0]] * 39 + [[1.0, 2.0]], "must be an array of numbers"),
        ("b_observed", lambda s: ["a"] * s.m, "must be an array of numbers"),
        ("b_observed", lambda s: [10**400] * s.m, "must be an array of numbers"),
        ("x_star", lambda s: [[1.0], [1.0, 2.0]] * 2 + [[1.0]], "must be an array of numbers"),
        ("x_star", lambda s: ["a"] * s.n, "must be an array of numbers"),
        ("corrupted_indices", lambda s: [[0], [1, 2]], "must be an array of numbers"),
    ], ids=["nan-b", "inf-b", "short-b", "repeated-index", "index-out-of-range", "nan-x-star",
            "short-x-star", "negative-index", "float-index", "bool-index", "empty-list",
            "2-d-indices", "2-d-b", "ragged-b", "text-b", "huge-b", "ragged-x-star", "text-x-star",
            "ragged-indices"])
    def test_refused_before_the_directory_is_made(self, tmp_path, field, edit, message):
        system = generate(spec(m=40, n=5, seed=4, beta=0.25))
        with pytest.raises(ConfigError, match=f"^{field} {message}"):
            CorruptedSystem(**{**arguments(system), field: edit(system)})
        with pytest.raises(ConfigError, match=f"^{field} {message}"):
            save_system(dataclasses.replace(system, **{field: edit(system)}), tmp_path / "sys")
        assert not (tmp_path / "sys").exists()


class TestWriteJson:
    def test_numpy_numbers_are_written_as_python_values(self, tmp_path):
        payload = {"f": np.float32(0.7), "i": np.int64(4), "b": np.bool_(True), "x": 1.5}
        path = problems.write_json(payload, str(tmp_path / "a.json"))
        assert path == str(tmp_path / "a.json")
        assert json.loads(Path(path).read_text()) == {"f": 0.699999988079071, "i": 4,
                                                      "b": True, "x": 1.5}

    @pytest.mark.parametrize("value, error", [(object(), TypeError), (np.zeros(2), TypeError),
                                              (math.nan, ValueError)],
                             ids=["object", "array", "nan"])
    def test_a_payload_that_cannot_be_written_leaves_no_file(self, tmp_path, value, error):
        with pytest.raises(error):
            problems.write_json({"a": 1, "x": value}, tmp_path / "a.json")
        assert not (tmp_path / "a.json").exists()


class TestWriteTable:
    def test_numpy_numbers_are_written_as_python_values(self, tmp_path):
        row = (np.float64(0.1), np.float32(0.7), np.int64(4), np.bool_(True), np.bool_(False),
               1.5, 3, True)
        problems.write_table(tmp_path / "a.csv", "a,b,c,d,e,f,g,h", [row])
        assert (tmp_path / "a.csv").read_text() == (
            "a,b,c,d,e,f,g,h\n0.1,0.699999988079071,4,true,false,1.5,3,true\n")

    def test_none_is_an_empty_field(self, tmp_path):
        problems.write_table(tmp_path / "a.csv", "a,b,c", [(1, None, 2.0), (None, None, None)])
        assert (tmp_path / "a.csv").read_text() == "a,b,c\n1,,2.0\n,,\n"

    def test_header_then_one_line_per_row(self, tmp_path):
        path = problems.write_table(str(tmp_path / "a.csv"), "i,x",
                                    ((i, i / 4) for i in range(3)))
        assert path == tmp_path / "a.csv" and isinstance(path, Path)
        assert path.read_text().splitlines() == ["i,x", "0,0.0", "1,0.25", "2,0.5"]
        assert problems.write_table(tmp_path / "b.csv", "i,x", []).read_text() == "i,x\n"

    def test_a_table_that_cannot_be_written_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            problems.write_table(tmp_path / "a.csv", "a", [(1,), 2])
        assert not (tmp_path / "a.csv").exists()


class TestFieldInvariants:
    """What the constructor checked is held where no write can change it."""

    def system(self):
        return generate(spec(m=40, n=5, seed=4, beta=0.25))

    def test_fields_are_read_only_copies(self):
        system = self.system()
        x_star, b_observed = system.x_star.copy(), system.b_observed.copy()
        indices = system.corrupted_indices.astype(np.int32)
        built = CorruptedSystem(matrix=system.matrix, x_star=x_star, b_observed=b_observed,
                                corrupted_indices=indices)
        for name, given in (("x_star", x_star), ("b_observed", b_observed),
                            ("corrupted_indices", indices)):
            held = getattr(built, name)
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0
            assert not np.shares_memory(held, given)
            assert given.flags.writeable
        indices[0] = 7  # the caller's array stays the caller's
        assert built.corrupted_indices[0] != 7
        assert built.corrupted_indices.dtype == np.intp
        with pytest.raises(ValueError, match="read-only"):
            built.corrupted_mask()[0] = True

    def test_corrupted_mask_is_built_once(self):
        system = self.system()
        mask = system.corrupted_mask()
        assert mask is system.corrupted_mask()
        assert not mask.flags.writeable
        assert np.array_equal(np.flatnonzero(mask), system.corrupted_indices)
        assert np.count_nonzero(mask) == 10

    def test_replace_builds_a_new_mask(self):
        system = self.system()
        moved = dataclasses.replace(system, corrupted_indices=np.array([0, 39]))
        assert np.array_equal(np.flatnonzero(moved.corrupted_mask()), [0, 39])
        assert moved.beta == 2 / 40
        assert np.count_nonzero(system.corrupted_mask()) == 10


class TestUnitRowInvariant:
    def parts(self, matrix):
        m, n = matrix.shape
        return dict(matrix=matrix, x_star=np.zeros(n),
                    b_observed=np.zeros(m), corrupted_indices=np.array([], dtype=np.intp))

    def unit_matrix(self):
        return generate(spec(m=12, n=3, seed=5)).matrix.copy()

    def test_row_of_norm_two_rejected(self):
        matrix = self.unit_matrix()
        matrix[4] *= 2.0
        with pytest.raises(ConfigError, match="unit-norm"):
            CorruptedSystem(**self.parts(matrix))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        matrix = self.unit_matrix()
        matrix[2, 1] = bad
        with pytest.raises(ConfigError, match="unit-norm"):
            CorruptedSystem(**self.parts(matrix))

    @pytest.mark.parametrize("matrix, message", [
        (np.ones(3) / math.sqrt(3), r"must be 2-D with a row and a column, got shape \(3,\)"),
        (np.array(1.0), r"must be 2-D with a row and a column, got shape \(\)"),
        (np.zeros((0, 3)), r"must be 2-D with a row and a column, got shape \(0, 3\)"),
        (np.zeros((3, 0)), r"must be 2-D with a row and a column, got shape \(3, 0\)"),
        ([[1.0, 0.0], [1.0]], "must be an array of numbers"),
        ([["a", "b"]], "must be an array of numbers"),
    ], ids=["1-d", "0-d", "no-rows", "no-columns", "ragged", "text"])
    def test_malformed_matrix_rejected(self, matrix, message):
        # The message's first word is the one load_system maps to matrix.csv.
        parts = dict(x_star=np.zeros(1), b_observed=np.zeros(1),
                     corrupted_indices=np.array([], dtype=np.intp))
        with pytest.raises(ConfigError, match=f"^system matrix {message}") as caught:
            CorruptedSystem(matrix=matrix, **parts)
        assert problems._FILES[str(caught.value).split()[0]] == "matrix.csv"

    def test_matrix_is_read_only_view(self):
        matrix = self.unit_matrix()
        system = CorruptedSystem(**self.parts(matrix))
        with pytest.raises(ValueError):
            system.matrix[0, 0] = 0.0
        assert np.shares_memory(system.matrix, matrix)
        assert matrix.flags.writeable

    def test_replace_rechecks(self):
        system = CorruptedSystem(**self.parts(self.unit_matrix()))
        bad = self.unit_matrix()
        bad[0] *= 0.5
        with pytest.raises(ConfigError, match="unit-norm"):
            dataclasses.replace(system, matrix=bad)
