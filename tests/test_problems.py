import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

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
        # Nothing is allocated: every draw of the patched streams fails the
        # way numpy fails on a matrix too large for memory.
        class OutOfMemory:
            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    raise MemoryError
                return draw

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

    def test_csv_holds_each_float_as_format_17g(self, tmp_path):
        edge = [-0.0, 5e-324, 1e-300, 0.1, 1.2345678901234568e+17]
        matrix = np.array([[v, math.sqrt(1.0 - v * v)] for v in edge[:4]])
        system = CorruptedSystem(matrix=matrix, x_star=np.zeros(2),
                                 b_observed=np.array(edge[1:]), corrupted_indices=np.arange(4))
        save_system(system, tmp_path / "sys")
        lines = {"matrix.csv": [",".join(format(v, ".17g") for v in row) for row in matrix],
                 "b_observed.csv": [format(v, ".17g") for v in edge[1:]]}
        for name, expected in lines.items():
            text = "".join(line + "\n" for line in expected)
            assert (tmp_path / "sys" / name).read_bytes() == text.encode()

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
    ], ids=["not-json", "json-list", "missing-m", "string-in-x-star", "string-beta",
            "fractional-index", "word-in-matrix", "word-in-b"])
    def test_malformed_file_is_an_io_error_naming_it(self, saved, name, edit):
        path = saved / name
        path.write_text(edit(path.read_text()))
        with pytest.raises(IoError, match=name):
            load_system(saved)

    def test_non_finite_x_star(self, saved):
        meta = json.loads((saved / "metadata.json").read_text())
        self.edit_meta(saved, x_star=[math.inf] + meta["x_star"][1:])
        with pytest.raises(IoError, match="metadata.json"):
            load_system(saved)


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
