"""Fuzz of the configuration dataclasses, built straight from Python values.

Each field gets now a value from its domain and now an arbitrary one: None,
a bool, a small or huge int, a float (NaN and infinities included), a
string, a list, a dict, a tuple of such scalars or a numpy number.  Whatever
the values, building ``CorruptionSpec``, ``GeneratorSpec``, ``SolverConfig``,
``SweepSpec`` or ``ExperimentConfig`` raises nothing but ``ConfigError``; an
accepted config is written by ``write_json`` as it stands; and ``generate``
of an accepted small ``GeneratorSpec`` (m <= 60), or a short ``solve`` of an
accepted ``SolverConfig``, raises nothing but a ``QkError``.  Systems are tiny
and solves take at most 5 steps, so the test takes seconds.
"""
import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz.errors import ConfigError, QkError
from quantile_kaczmarz.harness import ExperimentConfig, SweepSpec
from quantile_kaczmarz.problems import (FAMILIES, PLACEMENTS, CorruptionSpec, GeneratorSpec,
                                        generate, write_json)
from quantile_kaczmarz.solvers import COMPARATORS, METHODS, TIMINGS, SolverConfig, solve

HUGE = st.sampled_from([10**30, -(10**30), 2**63, 2**1100, -(10**400)])
NUMPY = st.sampled_from([np.int64(3), np.int32(-1), np.uint8(7), np.int64(2**62),
                         np.float32(0.5), np.float64(math.nan), np.float16(math.inf),
                         np.float64(1e300), np.bool_(True), np.str_("uniform")])
SCALAR = (st.none() | st.booleans() | st.integers(-3, 70) | HUGE | NUMPY
          | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
ANY = (SCALAR | st.lists(SCALAR, max_size=3) | st.lists(SCALAR, max_size=3).map(tuple)
       | st.dictionaries(st.text(max_size=3), SCALAR, max_size=2))


def either(good):
    """A value from ``good`` about two times in three, else an arbitrary one."""
    return st.sampled_from([True, True, False]).flatmap(lambda ok: good if ok else ANY)


def build(cls, kwargs: dict):
    """``cls`` built from ``kwargs``, or the ConfigError it raised."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        return exc


def fuzzed(cls, fields: dict):
    """``cls`` built from ``fields`` (a strategy each), each now and then arbitrary."""
    return st.fixed_dictionaries({k: either(v) for k, v in fields.items()}).map(
        lambda kwargs: build(cls, kwargs))


def valid(cls, fields: dict):
    """``cls`` built from ``fields`` alone, where it accepts them."""
    return st.fixed_dictionaries(fields).map(lambda kwargs: build(cls, kwargs)).filter(
        lambda c: not isinstance(c, ConfigError))


INDEX = st.integers(0, 59) | st.sampled_from([np.int64(2), np.uint16(5)])
CORRUPTION = dict(
    beta=st.floats(0.0, 0.3) | st.sampled_from([np.float32(0.1), 0]),
    magnitude_low=st.floats(-200.0, -1.0) | st.sampled_from([-1, np.int16(-3)]),
    magnitude_high=st.floats(1.0, 200.0) | st.sampled_from([1e308, np.float64(50.0)]),
    placement=st.sampled_from(PLACEMENTS),
    indices=st.none() | st.lists(INDEX, max_size=3, unique=True).map(tuple),
)
GENERATOR = dict(
    family=st.sampled_from(FAMILIES),
    m=st.integers(2, 60) | st.just(np.int64(30)),
    n=st.integers(1, 5) | st.just(np.uint8(3)),
    seed=st.integers(0, 50) | st.sampled_from([10**30, np.int64(4)]),
    corruption=valid(CorruptionSpec, CORRUPTION),
)
SOLVER = dict(
    method=st.sampled_from(METHODS),
    q=st.floats(0.3, 1.0) | st.just(np.float32(0.7)),
    alpha=st.floats(0.1, 5.0) | st.sampled_from(["auto", 2, np.float64(1e300)]),
    t=st.none() | st.integers(1, 60) | st.just(np.int64(10)),
    block_size=st.none() | st.integers(1, 60),
    max_iters=st.integers(1, 5) | st.just(np.int8(2)),
    stop_rel_error=st.floats(0.0, 0.1) | st.just(0),
    comparator=st.sampled_from(COMPARATORS),
    seed=st.integers(0, 50) | st.just(np.uint32(9)),
)
SWEEP = dict(
    parameter=st.sampled_from(["alpha", "q", "t"]),
    values=st.lists(st.floats(0.1, 5.0) | st.integers(1, 9) | st.just(np.float32(0.25)),
                    min_size=1, max_size=3, unique=True).map(lambda v: tuple(sorted(v))),
)
EXPERIMENT = dict(
    generator=valid(GeneratorSpec, GENERATOR),
    solver=valid(SolverConfig, SOLVER),
    sweep=st.none() | valid(SweepSpec, SWEEP),
    repetitions=st.integers(1, 3) | st.just(np.int64(2)),
    output_dir=st.text(min_size=1, max_size=5),
    timing=st.sampled_from(TIMINGS),
    svg=st.booleans(),
    start=st.sampled_from(["ones", "zeros"]),
)
CONFIGS = {CorruptionSpec: CORRUPTION, GeneratorSpec: GENERATOR, SolverConfig: SOLVER,
           SweepSpec: SWEEP, ExperimentConfig: EXPERIMENT}


def _writes(config) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_json(dataclasses.asdict(config), Path(tmp) / "config.json")


@given(st.one_of(*(fuzzed(cls, fields) for cls, fields in CONFIGS.items())))
@settings(max_examples=600, derandomize=True, deadline=None)
def test_a_config_raises_only_config_error_and_an_accepted_one_writes(config):
    if not isinstance(config, ConfigError):
        _writes(config)


def _accepted(cls):
    return fuzzed(cls, CONFIGS[cls]).filter(lambda c: not isinstance(c, ConfigError))


@given(_accepted(GeneratorSpec))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_an_accepted_small_generator_spec_raises_only_qk_errors(spec):
    if spec.m > 60:
        return
    try:
        generate(spec)
    except QkError:
        pass


SYSTEM = generate(GeneratorSpec("gaussian", 40, 4, 1, CorruptionSpec(beta=0.1)))


@given(_accepted(SolverConfig))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_an_accepted_solver_config_solves_or_raises_a_qk_error(config):
    if config.max_iters > 5:
        return
    try:
        solve(SYSTEM, config, np.ones(SYSTEM.n))
    except QkError:
        pass
