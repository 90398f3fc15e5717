import dataclasses
import io
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


UNPICKLED: list[bool] = []


def record_unpickling():
    """The callable an unpickled :class:`Unpickled` calls: a load that runs it
    has unpickled the file."""
    UNPICKLED.append(True)


class Unpickled:
    def __reduce__(self):
        return record_unpickling, ()


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
        assert sorted(path.name for path in (tmp_path / "a").iterdir()) == [
            "b_observed.npy", "matrix.npy", "metadata.json"]
        for name in ("matrix.npy", "b_observed.npy", "metadata.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_paper_scale_round_trip_is_bit_identical(self, tmp_path):
        original = generate(spec(m=10_000, n=100, seed=7, beta=0.2))
        loaded = load_system(save_system(original, tmp_path / "sys"))
        for name in ("matrix", "b_observed", "x_star", "corrupted_indices"):
            a, b = getattr(original, name), getattr(loaded, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())

    def test_loaded_matrix_is_an_owned_array(self, tmp_path):
        """The loaded matrix views a plain array in memory, not a map of its file."""
        loaded = load_system(save_system(generate(spec(m=30, n=4, seed=1)), tmp_path / "sys"))
        assert type(loaded.matrix) is np.ndarray and type(loaded.matrix.base) is np.ndarray
        assert loaded.matrix.base.flags.owndata

    def test_non_contiguous_matrix_is_saved_in_c_order(self, tmp_path):
        matrix = np.asfortranarray(generate(spec(m=30, n=4, seed=1)).matrix)
        system = CorruptedSystem(matrix=matrix, x_star=np.zeros(4), b_observed=np.zeros(30),
                                 corrupted_indices=np.arange(0))
        assert not system.matrix.flags.c_contiguous
        loaded = load_system(save_system(system, tmp_path / "sys"))
        assert loaded.matrix.tobytes() == np.ascontiguousarray(matrix).tobytes()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_every_saved_float_reads_back(self, values):
        system = CorruptedSystem(matrix=np.ones((len(values), 1)), x_star=np.zeros(1),
                                 b_observed=np.array(values), corrupted_indices=np.arange(0))
        with tempfile.TemporaryDirectory() as out:
            save_system(system, out)
            loaded = load_system(out)
        assert loaded.b_observed.tobytes() == system.b_observed.tobytes()

    def test_beta_follows_the_indices(self, tmp_path):
        system = CorruptedSystem(matrix=np.eye(3), x_star=np.zeros(3),
                                 b_observed=np.ones(3), corrupted_indices=np.arange(3))
        assert system.beta == 1.0
        save_system(system, tmp_path / "sys")
        assert load_system(tmp_path / "sys").beta == 1.0


def npy_header(shape, descr="<f8", fortran_order=False) -> bytes:
    """The header np.save writes before an array of this shape, dtype and order."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return buffer.getvalue()


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

    def edit_array(self, path, edit):
        """Save ``edit`` of the array ``path`` holds in its place."""
        np.save(path, edit(np.load(path)))

    def test_matrix_rows_disagree_with_metadata(self, saved):
        self.edit_array(saved / "matrix.npy", lambda a: a[:-1])
        with pytest.raises(IoError, match=r"matrix.npy: .* shape \(39, 5\) .* shape \(40, 5\)"):
            load_system(saved)

    def test_matrix_columns_disagree_with_metadata(self, saved):
        self.edit_meta(saved, n=6)
        with pytest.raises(IoError, match=r"matrix.npy: .* shape \(40, 5\) .* shape \(40, 6\)"):
            load_system(saved)

    def test_short_b_observed(self, saved):
        self.edit_array(saved / "b_observed.npy", lambda b: b[:-1])
        with pytest.raises(IoError, match=r"b_observed.npy: .* shape \(39,\) .* shape \(40,\)"):
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
        self.edit_meta(saved, format_version=1)  # the CSV format's
        with pytest.raises(IoError, match="metadata.json: format_version 1, expected 2"):
            load_system(saved)

    @pytest.mark.parametrize("name, value", [("matrix.npy", math.nan),
                                             ("b_observed.npy", math.inf)])
    def test_non_finite_entry(self, saved, name, value):
        self.edit_array(saved / name, lambda a: np.where(np.arange(a.size).reshape(a.shape) == 7,
                                                         value, a))
        with pytest.raises(IoError, match=name):
            load_system(saved)

    def test_scaled_matrix_row(self, saved):
        self.edit_array(saved / "matrix.npy", lambda a: a * np.where(np.arange(40) == 3, 2.0,
                                                                     1.0)[:, None])
        with pytest.raises(IoError, match="matrix.npy: system matrix must have unit-norm rows"):
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
    ], ids=["not-json", "json-list", "missing-m", "string-in-x-star", "string-beta",
            "fractional-index"])
    def test_malformed_file_is_an_io_error_naming_it(self, saved, name, edit):
        path = saved / name
        path.write_text(edit(path.read_text()))
        with pytest.raises(IoError, match=name):
            load_system(saved)

    @pytest.mark.parametrize("name, edit, message", [
        ("matrix.npy", lambda data: b"0.5,0.5\n" * 40, "not a .npy file: the magic string"),
        ("b_observed.npy", lambda data: b"", "not a .npy file: EOF"),
        ("matrix.npy", lambda data: data[:40], "not a .npy file: EOF"),
        ("b_observed.npy", lambda data: npy_header((40,), "<f4") + bytes(160),
         r"holds a float32 array of shape \(40,\) in C order"),
        ("b_observed.npy", lambda data: npy_header((40,), ">f8") + data[128:],
         r"holds a >f8 array"),
        ("matrix.npy", lambda data: npy_header((40, 5), fortran_order=True) + data[128:],
         r"holds a float64 array of shape \(40, 5\) in Fortran order"),
        ("matrix.npy", lambda data: npy_header((200,)) + data[128:],
         r"holds a float64 array of shape \(200,\) in C order, expected float64 of shape "
         r"\(40, 5\) in C order"),
        ("matrix.npy", lambda data: data[:-1], "holds 1599 bytes of data"),
    ], ids=["text", "empty", "truncated-header", "float32", "big-endian", "fortran-order",
            "flat", "short-data"])
    def test_malformed_array_file_is_an_io_error_naming_it(self, saved, name, edit, message):
        path = saved / name
        assert path.read_bytes()[:128].endswith(b"\n")  # np.save's header is 128 bytes here
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(IoError, match=f"{name}: {message}"):
            load_system(saved)

    def test_extra_matrix_line(self, saved):
        """One more row of values after the 40 x 5 the header declares."""
        path = saved / "matrix.npy"
        data = path.read_bytes()
        path.write_bytes(data + data[128:168])
        with pytest.raises(IoError, match="matrix.npy: holds 1640 bytes of data"):
            load_system(saved)

    def test_pickled_object_array_is_refused_unread(self, saved):
        np.save(saved / "b_observed.npy", np.array([Unpickled()] * 40), allow_pickle=True)
        UNPICKLED.clear()
        with pytest.raises(IoError, match=r"b_observed.npy: holds a object array"):
            load_system(saved)
        assert not UNPICKLED
        np.load(saved / "b_observed.npy", allow_pickle=True)
        assert UNPICKLED  # the file does hold a pickle that runs the recorder

    @pytest.mark.parametrize("m, n", [(0, 5), (40, 0), (-1, 5)])
    def test_empty_shape_is_refused(self, saved, m, n):
        for name in ("matrix.npy", "b_observed.npy"):
            (saved / name).write_bytes(b"")
        self.edit_meta(saved, m=m, n=n, beta=0.0, corrupted_indices=[], x_star=[0.0] * n)
        with pytest.raises(IoError, match=f"metadata.json: m={m} and n={n} must be at least 1"):
            load_system(saved)

    def test_shape_larger_than_the_file_is_refused_before_allocating(self, saved):
        """A header and metadata that agree on 10**12 rows, over the data of 40:
        refused on the file's size, with nothing of the claimed size allocated."""
        path = saved / "matrix.npy"
        path.write_bytes(npy_header((10**12, 5)) + path.read_bytes()[128:])
        self.edit_meta(saved, m=10**12, beta=10 / 10**12)
        tracemalloc.start()
        try:
            with pytest.raises(IoError, match=r"matrix.npy: holds 1600 bytes of data, expected "
                                              r"8 for each value of shape \(1000000000000, 5\)"):
                load_system(saved)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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


class TestSaveSpec:
    @pytest.mark.parametrize("bad", [{"family": "gaussian"}, CorruptionSpec(), "gaussian"],
                             ids=["dict", "corruption-spec", "str"])
    def test_spec_that_is_no_generator_spec_writes_nothing(self, tmp_path, bad):
        system = generate(spec(m=40, n=5, seed=4, beta=0.25))
        with pytest.raises(ConfigError, match="^spec must be a GeneratorSpec or None, got "):
            save_system(system, tmp_path / "sys", spec=bad)
        assert not (tmp_path / "sys").exists()

    def test_spec_is_written_as_its_fields(self, tmp_path):
        gen_spec = spec(m=40, n=5, seed=4, beta=0.25)
        save_system(generate(gen_spec), tmp_path / "sys", spec=gen_spec)
        meta = json.loads((tmp_path / "sys" / "metadata.json").read_text())
        assert meta["format_version"] == 2
        assert meta["spec"] == json.loads(json.dumps(dataclasses.asdict(gen_spec)))


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
        # The message's first word is the one load_system maps to matrix.npy.
        parts = dict(x_star=np.zeros(1), b_observed=np.zeros(1),
                     corrupted_indices=np.array([], dtype=np.intp))
        with pytest.raises(ConfigError, match=f"^system matrix {message}") as caught:
            CorruptedSystem(matrix=matrix, **parts)
        assert problems._FILES[str(caught.value).split()[0]] == "matrix.npy"

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
