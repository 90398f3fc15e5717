"""Every package error carries the exit code the CLI returns for it, and every
configuration field checks its domain when it is built."""
import ast
import dataclasses
import inspect
import json
import math
import re
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import quantile_kaczmarz as qk
import quantile_kaczmarz.cli as cli
from quantile_kaczmarz import errors
from quantile_kaczmarz.errors import ConfigError, DomainError, QkError, ShapeError
from quantile_kaczmarz.harness import ExperimentConfig, SweepSpec
from quantile_kaczmarz.problems import (
    CorruptionSpec,
    GeneratorSpec,
    generate,
    generate_adversarial_duplicate,
    save_system,
)
from quantile_kaczmarz.solvers import SolverConfig

# The stdlib base each error keeps, so that callers catching it still work.
STDLIB_BASES = {
    "ShapeError": ValueError,
    "NoConvergenceError": RuntimeError,
    "ConfigError": ValueError,
    "DomainError": ValueError,
    "ConditionViolatedError": ValueError,
    "DivergedError": RuntimeError,
    "IoError": OSError,
}

GENERATE = ["generate", "--m", "20", "--n", "3", "--seed", "1"]


def test_every_error_is_a_qk_error_with_an_exit_code():
    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__ and cls is not QkError}
    assert set(classes) == set(STDLIB_BASES)
    for name, cls in classes.items():
        assert issubclass(cls, QkError), name
        assert issubclass(cls, STDLIB_BASES[name]), name
        assert cls.exit_code in (2, 3, 4), name
    assert (QkError.exit_code, errors.DivergedError.exit_code, errors.IoError.exit_code) == (2, 3, 4)


# Each id names the class the message was raised as before it was folded into
# ShapeError or DomainError.
@pytest.mark.parametrize("error", [
    ShapeError("row 3 has zero norm"),
    ShapeError("too many subsets"),
    ShapeError("empty input"),
    DomainError("vacuous bound"),
], ids=["ZeroRowError", "TooManySubsetsError", "EmptyInputError", "PreconditionViolatedError"])
def test_package_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(spec):
        raise error

    monkeypatch.setattr(cli, "generate", fail)
    assert cli.main([*GENERATE, "--out", str(tmp_path / "sys")]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {error}\n"


def test_raw_os_error_exits_4(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert cli.main([*GENERATE, "--out", str(tmp_path / "file" / "sys")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Field domains: checked when a config is built, so every route exits 2.

GENERATOR = GeneratorSpec("gaussian", 50, 5, 1)
SOLVER = SolverConfig("quantile-averaged-block", alpha=1.0)
EXPERIMENT = ExperimentConfig(GENERATOR, SOLVER)


@pytest.mark.parametrize("obj, field, value, error", [
    (CorruptionSpec(), "beta", 1.0, ConfigError),
    (CorruptionSpec(), "beta", math.nan, ConfigError),
    (CorruptionSpec(), "magnitude_low", -math.inf, ConfigError),
    (CorruptionSpec(), "magnitude_high", math.nan, ConfigError),
    (CorruptionSpec(), "placement", "random", ConfigError),
    (GENERATOR, "family", "pareto", ConfigError),
    (GENERATOR, "seed", -1, ConfigError),
    (GENERATOR, "seed", 1.0, ConfigError),
    (GENERATOR, "seed", True, ConfigError),
    (SOLVER, "method", "bogus", ConfigError),
    (SOLVER, "q", 0.0, ConfigError),
    (SOLVER, "q", 1.5, ConfigError),
    (SOLVER, "alpha", 0.0, ConfigError),
    (SOLVER, "alpha", math.inf, ConfigError),
    (SOLVER, "alpha", "fast", ConfigError),
    (SOLVER, "t", 0, ConfigError),
    (SOLVER, "max_iters", 0, ConfigError),
    (SOLVER, "stop_rel_error", -1e-3, ConfigError),
    (SOLVER, "stop_rel_error", math.nan, ConfigError),
    (SOLVER, "comparator", "close-enough", ConfigError),
    (SOLVER, "seed", -5, ConfigError),
    (SweepSpec("q", (0.5,)), "parameter", "gamma", ConfigError),
    (SweepSpec("q", (0.5,)), "values", (), ConfigError),
    (SweepSpec("q", (0.5,)), "values", (0.5, 0.5), ConfigError),
    (SweepSpec("q", (0.5,)), "values", (0.5, math.inf), ConfigError),
    (EXPERIMENT, "repetitions", 0, ConfigError),
    (EXPERIMENT, "timing", "bogus", ConfigError),
    (EXPERIMENT, "start", "twos", ConfigError),
    (SOLVER, "block_size", 0, ConfigError),
    (SOLVER, "block_size", -3, ConfigError),
    # the wrong type: an int field refuses a non-integer, bools included, and a
    # domain test that cannot compare the value refuses it too
    (SOLVER, "max_iters", 2.5, ConfigError),
    (SOLVER, "max_iters", True, ConfigError),
    (SOLVER, "max_iters", None, ConfigError),
    (SOLVER, "t", 2.0, ConfigError),
    (SOLVER, "block_size", 1.5, ConfigError),
    (GENERATOR, "m", 20.0, ConfigError),
    (GENERATOR, "n", True, ConfigError),
    (GENERATOR, "m", None, ConfigError),
    (EXPERIMENT, "repetitions", 1.5, ConfigError),
    (SOLVER, "q", "0.5", ConfigError),
    (SOLVER, "alpha", None, ConfigError),
    (CorruptionSpec(), "beta", None, ConfigError),
    # every field is checked against its annotation: a bool is neither an int
    # nor a float, and a tuple field refuses a list
    (SOLVER, "q", True, ConfigError),
    (SOLVER, "alpha", True, ConfigError),
    (SOLVER, "stop_rel_error", False, ConfigError),
    (SOLVER, "method", 3, ConfigError),
    (CorruptionSpec(), "magnitude_low", None, ConfigError),
    (CorruptionSpec(), "magnitude_low", "1", ConfigError),
    pytest.param(CorruptionSpec(), "magnitude_high", 10**400, ConfigError,
                 id="magnitude_high-10**400"),  # no float holds it
    (CorruptionSpec(), "placement", None, ConfigError),
    (CorruptionSpec(placement="given-indices", indices=(1,)), "indices", [1, 2], ConfigError),
    (CorruptionSpec(placement="given-indices", indices=(1,)), "indices", (1, 1), ConfigError),
    (CorruptionSpec(placement="given-indices", indices=(1,)), "indices", (True, 3), ConfigError),
    (CorruptionSpec(placement="given-indices", indices=(1,)), "indices", (1.0, 2.0), ConfigError),
    (GENERATOR, "corruption", {"beta": 0.1}, ConfigError),
    (EXPERIMENT, "output_dir", 3, ConfigError),
    (EXPERIMENT, "svg", "yes", ConfigError),
    (EXPERIMENT, "generator", {"family": "gaussian"}, ConfigError),
    (EXPERIMENT, "solver", None, ConfigError),
    (EXPERIMENT, "sweep", "q", ConfigError),
    (SweepSpec("q", (0.5,)), "values", (False, True), ConfigError),
    (SweepSpec("q", (0.5,)), "values", [0.5], ConfigError),
    (SweepSpec("q", (0.5,)), "values", (0.5, "0.7"), ConfigError),
], ids=lambda v: repr(v) if isinstance(v, (str, float, int, tuple)) else None)
def test_each_field_checks_its_domain_when_built(obj, field, value, error):
    with pytest.raises(error, match=rf"^{field} must be .*, got {re.escape(repr(value))}$"):
        dataclasses.replace(obj, **{field: value})
    with pytest.raises(error, match=f"^{field} must be "):
        type(obj)(**{**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
                     field: value})


def test_valid_boundary_values_are_accepted():
    CorruptionSpec(beta=0.0, magnitude_low=-1e300, magnitude_high=1e300)
    GeneratorSpec("coherent", 50, 5, 10**30)
    SolverConfig("rk", q=1.0, alpha="auto", t=1, max_iters=1, stop_rel_error=0.0, seed=0)
    SweepSpec("t", (1.0,))
    ExperimentConfig(GENERATOR, SOLVER, repetitions=1, timing="none", start="zeros")


def test_a_numpy_number_is_stored_as_the_python_number_of_its_field():
    solver = SolverConfig("rk", q=np.float32(0.5), alpha=np.int64(2), t=np.int32(4),
                          max_iters=np.int64(3), seed=np.uint8(3))
    assert [(type(getattr(solver, k)), getattr(solver, k)) for k in
            ("q", "alpha", "t", "max_iters", "seed")] == [
        (float, 0.5), (float, 2.0), (int, 4), (int, 3), (int, 3)]
    spec = CorruptionSpec(placement="given-indices", indices=tuple(np.array([3, 7])))
    assert list(map(type, spec.indices)) == [int, int]
    assert list(map(type, SweepSpec("q", (np.float16(0.5), 1)).values)) == [float, float]
    assert type(CorruptionSpec(magnitude_low=-1).magnitude_low) is float


# A numpy number must not reach an artifact: json cannot write it, so the run
# would leave trace.csv and a truncated config.json behind.
@pytest.mark.parametrize("field, value", [
    ("max_iters", np.int64(3)), ("seed", np.int64(3)), ("q", np.float32(0.5))])
def test_a_run_with_a_numpy_number_writes_its_config(tmp_path, field, value):
    solver = dataclasses.replace(SOLVER, **{"max_iters": 3, field: value})
    config = ExperimentConfig(GENERATOR, solver, output_dir=str(tmp_path), timing="none")
    paths = qk.run(config)
    assert json.loads(paths["config_json"].read_text())["solver"][field] == value


def test_a_saved_spec_with_numpy_indices_writes_its_metadata(tmp_path):
    corruption = CorruptionSpec(placement="given-indices", indices=tuple(np.array([3, 7])))
    spec = GeneratorSpec("gaussian", 20, 3, 1, corruption)
    save_system(generate(spec), tmp_path, spec=spec)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["spec"]["corruption"]["indices"] == [3, 7]


def test_adversarial_demo_refuses_a_bool_q_before_writing(tmp_path):
    with pytest.raises(ConfigError, match="^q must be of type float, got True$"):
        qk.adversarial_demo(tmp_path / "demo", n=4, clean_rows=10, dup_rows=2, q=True)
    assert not (tmp_path / "demo").exists()


def _handled(hint) -> bool:
    """Whether ``errors.domain_check`` checks a value against ``hint``: int,
    float, str, bool, None, a config dataclass, a ``tuple[X, ...]`` of one
    of these, or a union of them."""
    if isinstance(hint, types.UnionType):
        return all(map(_handled, typing.get_args(hint)))
    if typing.get_origin(hint) is tuple:
        element, dots = typing.get_args(hint)
        return dots is Ellipsis and _handled(element)
    return hint in (int, float, str, bool, type(None)) or dataclasses.is_dataclass(hint)


CONFIGS = (CorruptionSpec, GeneratorSpec, SolverConfig, SweepSpec, ExperimentConfig)


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_annotation_is_a_form_the_checker_handles(cls):
    """A field of any other form (a list, a dict, a Literal) would pass
    unchecked, so adding one fails here first."""
    assert cls.__post_init__ is errors.domain_check
    hints = typing.get_type_hints(cls)
    assert [name for name, hint in hints.items() if not _handled(hint)] == []


@pytest.mark.parametrize("kwargs, name", [
    (dict(seed=-2), "seed=-2"),
    (dict(seed=1.5), "seed=1.5"),
    (dict(target=math.nan), "target=nan"),
    (dict(target=math.inf), "target=inf"),
    (dict(n=2.5), r"^n must be an integer, got 2\.5$"),
    (dict(clean_rows=10.0), r"^clean_rows must be an integer, got 10\.0$"),
    (dict(dup_rows=True), "^dup_rows must be an integer, got True$"),
    (dict(target="1"), "target='1'"),
    (dict(target=True), "target=True"),
    (dict(target=10**400), "target=10000"),  # an int that no float holds
])
def test_adversarial_duplicate_checks_its_seed_and_target(kwargs, name):
    with pytest.raises(ConfigError, match=name):
        generate_adversarial_duplicate(**{**dict(n=4, clean_rows=10, dup_rows=2), **kwargs})


# Values outside a domain, given as flags: each exits 2 with one stderr line
# that names the field, and leaves no output behind.
BAD_INPUTS = [
    (["run", "--seed", "-1", "--m", "50", "--n", "5", "--alpha", "1", "--iters", "2"], "seed"),
    (["adversarial-demo", "--seed", "-2", "--iters", "2"], "seed"),
    (["rate", "--seed", "-1", "--m", "2000", "--n", "50"], "seed"),
    (["rate", "--seed", "1", "--m", "50", "--n", "5", "--q", "nan"], "q"),
    (["run", "--seed", "1", "--m", "50", "--n", "5", "--beta", "0.2", "--mag-low", "nan",
      "--alpha", "1", "--iters", "2"], "magnitude_low"),
    (["generate", "--seed", "1", "--m", "50", "--n", "5", "--beta", "0.2",
      "--mag-high", "inf"], "magnitude_high"),
    (["run", "--seed", "1", "--m", "50", "--n", "5", "--stop", "nan", "--alpha", "1",
      "--iters", "2"], "stop_rel_error"),
    (["run", "--seed", "1", "--m", "50", "--n", "5", "--stop", "inf", "--alpha", "1",
      "--iters", "2"], "stop_rel_error"),
    (["run", "--seed", "1", "--m", "50", "--n", "5", "--alpha", "inf", "--iters", "2"], "alpha"),
    (["adversarial-demo", "--alpha", "inf", "--iters", "2"], "alpha"),
    (["rate", "--seed", "1", "--m", "40", "--n", "4", "--beta", "0.1", "--q", "0.05"], "q"),
    (["run", "--seed", "1", "--m", "50", "--n", "5", "--mag-low=-1e308",
      "--mag-high", "1e308", "--iters", "2"], "magnitude_high - magnitude_low"),
]


@pytest.mark.parametrize("argv, field", BAD_INPUTS, ids=lambda v: " ".join(v)
                         if isinstance(v, list) else v)
def test_bad_value_exits_2_naming_the_field(tmp_path, capsys, argv, field):
    assert cli.main([*argv, "--out" if argv[0] != "rate" else "--json-out",
                     str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1
    assert field in captured.err
    assert not (tmp_path / "o").exists()


def _names(path: Path, node_type) -> set[str]:
    """The names and attribute names inside every ``node_type`` node of ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, node_type):
            found.update(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute)))
    return found


def test_every_error_class_is_raised_or_named_by_the_benchmark():
    """A class that the package never raises and the benchmark never names is
    one that only the tests tell apart."""
    package = Path(errors.__file__).parent
    raised = set().union(*(_names(p, ast.Raise) for p in package.glob("*.py")))
    named = set().union(*(_names(p, ast.Module) for p in
                          (package.parents[1] / "perfbench").glob("*.py")))
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__ and cls is not QkError}
    assert sorted(classes - raised - named) == []
