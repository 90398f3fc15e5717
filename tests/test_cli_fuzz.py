"""Fuzz of the CLI boundary.

Generated flags and ``--config`` files mostly hold valid values, and now and
then NaN, an infinity, a negative or huge number, a wrong type or an unknown
key.  Whatever the input, ``cli.main`` returns 0, 2, 3 or 4 with at most one
stderr line, no exception leaves it, and every JSON file a run writes parses
without NaN or Infinity.  Every run is tiny (m <= 60, at most 5 iterations,
3 repetitions and 50 subset samples), so the test takes seconds and little
memory.  Huge integers go only to values that no array is sized by.

``generate`` and ``rate`` read their flags alone when no ``--config`` file is
given; an empty file sends them through the full configuration instead, and
the two routes must agree on every output.
"""
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import cli
from quantile_kaczmarz.problems import FAMILIES, PLACEMENTS
from quantile_kaczmarz.solvers import COMPARATORS, METHODS, TIMINGS

HUGE = st.sampled_from([10**30, -(10**30), 2**63, 2**1100])
NASTY = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e300, -1e300])


def either(good, bad, odds: int = 16):
    """``good`` values, and about one time in ``odds`` a ``bad`` one."""
    return st.sampled_from([False] * (odds - 1) + [True]).flatmap(lambda b: bad if b else good)


def floats(low: float, high: float, *extra: float):
    return either(st.floats(low, high) | st.sampled_from([low, high, *extra]),
                  NASTY | st.floats(-1e3, 1e3))


def ints(low: int, high: int, huge: bool = False):
    bad = st.integers(low - 3, low - 1) | (HUGE if huge else st.integers(high, high + 3))
    return either(st.integers(low, high), bad)


def increasing(values):
    """Sorted distinct ``values``, or now and then an arbitrary list."""
    good = st.lists(values, min_size=1, max_size=3, unique=True).map(sorted)
    return either(good, st.lists(NASTY | st.floats(-10, 10), max_size=3))


SEED = either(st.integers(0, 50) | st.just(10**30), st.integers(-3, -1) | HUGE)
FAMILY = either(st.sampled_from(FAMILIES), st.just("pareto"))
METHOD = either(st.sampled_from(METHODS), st.just("bogus"))
TIMING = st.sampled_from(TIMINGS)
Q = floats(0.35, 0.65, 1.0)
# Valid step sizes include some large enough to make a solve diverge.
STEP = st.floats(0.1, 5.0) | st.sampled_from([50.0, 1e5, 1e300])
ALPHA = either(STEP | st.just("auto"), NASTY | st.just("fast"))
T_METHODS = ("quantile-rk", "sampled-quantile-averaged-block")
SWEEP_VALUES = {"alpha": st.floats(0.1, 5.0), "q": st.floats(0.35, 0.95),
                "t": st.integers(3, 6).map(float)}

GENERATOR = {"family": FAMILY, "n": ints(1, 5, huge=True), "seed": SEED}
CORRUPTION = {
    "beta": floats(0.0, 0.3),
    "magnitude_low": floats(-200.0, -1.0),
    "magnitude_high": floats(1.0, 200.0),
}
SOLVER = {
    "method": METHOD,
    "q": Q,
    "alpha": ALPHA,
    "t": ints(1, 6, huge=True),
    "block_size": ints(1, 6, huge=True),
    "max_iters": ints(1, 5),
    "stop_rel_error": floats(0.0, 0.1),
    "comparator": st.sampled_from(COMPARATORS),
    "seed": SEED,
}
# Flags whose bad values argparse itself refuses, as usage errors.
PARSED_FLAGS = {
    "--family": st.sampled_from(FAMILIES),
    "--method": st.sampled_from(METHODS),
    "--alpha": either(STEP | st.just("auto"), NASTY),
}
FLAG_NAMES = {"magnitude_low": "--mag-low", "magnitude_high": "--mag-high",
              "max_iters": "--iters", "stop_rel_error": "--stop"}
ADVERSARIAL_FLAGS = {
    "--n": ints(2, 10),
    "--clean-rows": ints(1, 30),
    "--dup-rows": ints(1, 5),
    "--target": floats(-500.0, 500.0),
    "--q": Q,
    "--alpha": either(STEP, NASTY),
    "--iters": ints(1, 5),
    "--seed": SEED,
    "--timing": TIMING,
}


def wrong_type(strategy):
    """``strategy``, or now and then a value of the wrong JSON type."""
    return either(strategy, st.sampled_from(["x", None, [1], {"k": 1}]), odds=48)


def section(fields: dict, rare: dict | None = None):
    """A JSON object holding some of ``fields``, now and then one of the
    ``rare`` ones, and now and then an unknown key."""
    rare = {"no_such_key": st.integers(), **(rare or {})}
    known = st.fixed_dictionaries({}, optional={k: wrong_type(v) for k, v in fields.items()})
    extra = st.sampled_from(sorted(rare)).flatmap(lambda k: rare[k].map(lambda v: {k: v}))
    return known.flatmap(lambda obj: either(st.just(obj), extra.map(lambda e: {**obj, **e})))


SWEEP = section({"parameter": st.sampled_from(["alpha", "q", "t", "gamma"]),
                 "values": increasing(SWEEP_VALUES["alpha"])})
CONFIG = section({
    "generator": section({
        **GENERATOR,
        "m": ints(6, 60),
        "corruption": section({
            **CORRUPTION,
            "placement": either(st.just("uniform"), st.sampled_from([*PLACEMENTS, "random"])),
            "indices": st.lists(ints(0, 5), max_size=3),
        }),
    }),
    "solver": section(SOLVER),
    "repetitions": ints(1, 3),
    "timing": either(TIMING, st.just("bogus")),
    "start": either(st.sampled_from(["ones", "zeros"]), st.just("twos")),
    "svg": st.booleans(),
}, rare={"sweep": SWEEP})


def flag(name: str, value) -> str:
    return f"{name}={value!r}" if isinstance(value, float) else f"{name}={value}"


COMMANDS = ("generate", "run", "sweep-alpha", "sweep-q", "sweep-t", "compare",
            "adversarial-demo", "rate")


@st.composite
def invocations(draw, commands=COMMANDS):
    """(command line without its output path, the output flag, config object or None)."""
    command = draw(st.sampled_from(commands))
    if command == "adversarial-demo":
        flags, argv, config = ADVERSARIAL_FLAGS, [command], None
    else:
        fields = {**GENERATOR, **CORRUPTION}
        if command not in ("generate", "rate"):
            fields.update(SOLVER, timing=TIMING)
        flags = {FLAG_NAMES.get(k, "--" + k.replace("_", "-")): v for k, v in fields.items()}
        flags.update({k: v for k, v in PARSED_FLAGS.items() if k in flags})
        argv = [command, flag("--m", draw(ints(6, 60))), flag("--n", draw(GENERATOR["n"])),
                flag("--seed", draw(SEED))]
        config = draw(st.none() | CONFIG)
    for name, strategy in flags.items():
        if draw(st.booleans()):
            argv.append(flag(name, draw(strategy)))
    if command.startswith("sweep-"):
        values = draw(increasing(SWEEP_VALUES[command[len("sweep-"):]]))
        argv += [flag("--reps", draw(ints(1, 3))), f"--values={','.join(map(repr, values))}"]
    if command == "sweep-t":  # mostly a method that reads t; the last --method wins
        argv.append(flag("--method", draw(either(st.sampled_from(T_METHODS),
                                                 st.sampled_from(METHODS), odds=4))))
    if command == "compare":
        methods = draw(either(st.lists(METHOD, min_size=1, max_size=3), st.just([])))
        argv.append(f"--methods={','.join(methods)}")
    if command == "rate":
        argv += [flag("--q", draw(Q)), flag("--samples", draw(ints(1, 50)))]
    if command not in ("generate", "rate", "adversarial-demo") and draw(st.booleans()):
        argv.append("--svg")
    return argv, "--json-out" if command == "rate" else "--out", config


def strict_json(path: Path):
    def refuse(token):
        raise AssertionError(f"{path} holds {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


@given(invocations())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_every_input_exits_0_2_3_or_4_with_finite_json(invocation):
    argv, out_flag, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if out_flag == "--json-out":
            out.mkdir()
        argv = [*argv, out_flag, str(out / "rate.json" if out_flag == "--json-out" else out)]
        if config is not None:
            (Path(tmp) / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(Path(tmp) / "config.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), (argv, config, err.getvalue())
        assert err.getvalue().count("\n") <= 1, err.getvalue()
        for path in out.rglob("*.json"):
            strict_json(path)


@given(invocations(commands=("generate", "rate")))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_flags_alone_read_as_the_full_configuration(invocation):
    argv, out_flag, _ = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out, empty = Path(tmp) / "out", Path(tmp) / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        argv = [*argv, out_flag, str(out / "rate.json" if out_flag == "--json-out" else out)]
        outcomes = []
        for extra in ([], ["--config", str(empty)]):
            if out_flag == "--json-out":
                out.mkdir()
            printed, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(err):
                code = cli.main([*argv, *extra])
            files = {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}
            outcomes.append((code, printed.getvalue(), err.getvalue(), files))
            shutil.rmtree(out, ignore_errors=True)
        assert outcomes[0] == outcomes[1], argv
