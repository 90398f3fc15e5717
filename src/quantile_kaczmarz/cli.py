"""Command-line interface.

Subcommands: generate, run, sweep-alpha, sweep-q, sweep-t, compare,
adversarial-demo, rate.  Each flag's destination is the configuration field
it sets, so a ``--config`` JSON file has exactly the schema of the
``config.json`` that ``run``, ``compare`` and the sweeps write.  A flag that
was given wins, then the file's value, then the command's own default, then
the dataclass default; a file key that names no field is a configuration
error.  Every package error is a ``QkError``: ``main`` prints its ``label``
and message on one stderr line and returns its ``exit_code``, 2 for bad input
or configuration, 3 for divergence (non-sweep runs) and 4 for I/O failure (a
raw ``OSError`` too); 0 is success.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import types
import typing

from .errors import ConfigError, IoError, QkError
from .harness import (
    ExperimentConfig,
    SweepSpec,
    adversarial_demo,
    compare_methods,
    run,
)
from .problems import FAMILIES, generate, save_system
from .rates import rate_report, restricted_summary
from .solvers import COMPARATORS, METHODS, TIMINGS

DESK_M, DESK_N = 2000, 50
FULL_M, FULL_N = 10000, 100

# Keys that run and compare add to config.json as a record; reading ignores them.
_OUTPUT_ONLY_KEYS = ("resolved", "methods")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _alpha(text: str) -> float | str:
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}") from None


def _add_generator_flags(p: argparse.ArgumentParser, seed_required: bool = False) -> None:
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--m", type=int, help="number of rows")
    p.add_argument("--n", type=int, help="number of columns")
    p.add_argument("--beta", type=float, help="corrupted row fraction")
    p.add_argument("--mag-low", dest="magnitude_low", type=float)
    p.add_argument("--mag-high", dest="magnitude_high", type=float)
    p.add_argument("--paper-scale", action="store_true",
                   help=f"default to the full {FULL_M}x{FULL_N} experiment scale "
                        f"instead of {DESK_M}x{DESK_N}")
    p.add_argument("--seed", type=int, required=seed_required)
    p.add_argument("--config", help="JSON file with the schema of config.json; flags win")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--q", type=float)
    p.add_argument("--alpha", type=_alpha,
                   help="step size, or 'auto': sweep-q searches up to 11 trial step sizes at "
                        "each (q, rep); the others use the rate formula once per system")
    p.add_argument("--t", type=int, help="sample size")
    p.add_argument("--block-size", type=int)
    p.add_argument("--iters", dest="max_iters", type=int)
    p.add_argument("--stop", dest="stop_rel_error", type=float,
                   help="stop at this relative error")
    p.add_argument("--comparator", choices=COMPARATORS)


def _add_artifact_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", dest="output_dir", help="output directory")
    p.add_argument("--timing", choices=TIMINGS)
    p.add_argument("--svg", action="store_true", default=None)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return payload


def _typed(value, hint, key: str):
    """``value`` from the config file, checked against the field annotation
    ``hint``; a float field also takes a JSON integer."""
    arms = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    for arm in arms:
        if dataclasses.is_dataclass(arm) and isinstance(value, dict):
            return _read(arm, value, {}, {}, key + ".")
        if typing.get_origin(arm) is tuple and isinstance(value, list):
            return tuple(_typed(v, typing.get_args(arm)[0], key) for v in value)
        if arm is float and type(value) is int:
            return float(value)
        if type(value) is arm:
            return value
    raise ConfigError(f"config key {key!r} must be {getattr(hint, '__name__', hint)}, "
                      f"got {value!r}")


def _read(cls, section, flags: dict, defaults: dict, where: str = ""):
    """Build the dataclass ``cls`` from its own fields: a set flag wins, then
    ``section`` (the file's object for ``cls``), then ``defaults``, then the
    field's default.  ``flags`` and ``defaults`` apply at every depth."""
    if not isinstance(section, dict):
        raise ConfigError(f"config key {where[:-1]!r} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(section) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"unknown config key {where + unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        key, hint = where + f.name, hints[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = _read(hint, section.get(f.name, {}), flags, defaults, key + ".")
        elif f.name in section:  # checked even when a flag overrides it
            kwargs[f.name] = _typed(section[f.name], hint, key)
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif f.name not in flags and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"config key {key!r} is required")
        if f.name in flags:
            kwargs[f.name] = flags[f.name]
    return cls(**kwargs)


def _experiment(args, sweep: SweepSpec | None = None, **defaults) -> ExperimentConfig:
    """The configuration a command runs: its flags, ``--config`` and
    ``defaults`` (the command's own) read by :func:`_read`; the command
    itself sets ``sweep``."""
    file_cfg = _load_config_file(args.config)
    for key in _OUTPUT_ONLY_KEYS:
        file_cfg.pop(key, None)
    m, n = (FULL_M, FULL_N) if args.paper_scale else (DESK_M, DESK_N)
    # GeneratorSpec declares no default family, size or seed, SolverConfig no method.
    defaults = {"family": "gaussian", "m": m, "n": n, "seed": 0,
                "method": "quantile-averaged-block", **defaults}
    flags = {k: v for k, v in vars(args).items() if v is not None}
    return dataclasses.replace(_read(ExperimentConfig, file_cfg, flags, defaults), sweep=sweep)


def _cmd_generate(args) -> int:
    config = _experiment(args, output_dir="system")
    system = generate(config.generator)
    save_system(system, config.output_dir, spec=config.generator)
    print(f"wrote system ({system.m}x{system.n}, beta={system.beta:.4g}) "
          f"to {config.output_dir}")
    return 0


def _run(config: ExperimentConfig) -> int:
    for name, path in run(config).items():
        print(f"{name}: {path}")
    return 0


def _cmd_sweep(args, parameter: str) -> int:
    sweep = SweepSpec(parameter=parameter, values=args.values)
    return _run(_experiment(args, sweep=sweep, max_iters=10, repetitions=3))


def _cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    results = compare_methods(_experiment(args), methods)
    for midx, method in enumerate(methods):
        trace = results["traces"][midx]
        print(f"{method}: final rel_error = {trace.rel_error[-1]:.3e}")
    print(f"compare_csv: {results['compare_csv']}")
    return 0


def _cmd_adversarial(args) -> int:
    params = inspect.signature(adversarial_demo).parameters
    results = adversarial_demo(
        **{k: v for k, v in vars(args).items() if k in params and v is not None}
    )
    with open(results["summary_json"], encoding="utf-8") as fh:
        summary = json.load(fh)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_rate(args) -> int:
    config = _experiment(args)
    system = generate(config.generator)
    q = config.solver.q
    summary = restricted_summary(system, q, config.generator.seed, args.samples)
    report = rate_report(q, system.beta, system.m, summary.sigma_max_sq,
                         summary.sigma_restricted_min_sq, exact=summary.exact)
    print(report.summary())
    if args.json_out:
        report.to_json(args.json_out)
        print(f"report written to {args.json_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkz",
        description="Quantile-thresholded Kaczmarz solvers for corrupted linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate and export a system")
    _add_generator_flags(p)
    p.add_argument("--out", dest="output_dir", help="output directory (default: system)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one solver and write its trace")
    _add_generator_flags(p, seed_required=True)
    _add_solver_flags(p)
    _add_artifact_flags(p)
    p.set_defaults(func=lambda a: _run(_experiment(a)))

    for name, param in (("sweep-alpha", "alpha"), ("sweep-q", "q"), ("sweep-t", "t")):
        p = sub.add_parser(name, help=f"sweep {param} and record outcomes")
        _add_generator_flags(p)
        _add_solver_flags(p)
        _add_artifact_flags(p)
        p.add_argument("--reps", dest="repetitions", type=int)
        p.add_argument("--values", type=_float_list, required=True,
                       help="comma-separated sweep values")
        p.set_defaults(func=lambda a, _param=param: _cmd_sweep(a, _param))

    p = sub.add_parser("compare", help="run several methods on one system")
    _add_generator_flags(p)
    _add_solver_flags(p)
    _add_artifact_flags(p)
    p.add_argument("--methods", required=True, help="comma-separated method names")
    p.set_defaults(func=_cmd_compare)

    # Unset flags fall back to adversarial_demo's own defaults.
    p = sub.add_parser("adversarial-demo", help="projective vs averaged duplicate-row demo")
    p.add_argument("--n", type=int)
    p.add_argument("--clean-rows", type=int)
    p.add_argument("--dup-rows", type=int)
    p.add_argument("--target", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--iters", dest="iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="output_dir", default="adversarial", help="output directory")
    p.add_argument("--timing", choices=TIMINGS)
    p.set_defaults(func=_cmd_adversarial)

    p = sub.add_parser("rate", help="print the convergence-rate report for a system")
    _add_generator_flags(p)
    p.add_argument("--q", type=float)
    p.add_argument("--samples", type=int, default=500,
                   help="subset samples when enumeration is infeasible")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_rate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QkError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a raw OS failure is reported as an IoError
        print(f"{IoError.label}: {exc}", file=sys.stderr)
        return IoError.exit_code


if __name__ == "__main__":
    sys.exit(main())
