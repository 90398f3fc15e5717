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

Only ``errors`` and ``problems`` load with this module: ``harness``, ``rates``
and ``solvers`` are imported inside the functions that use them, and ``main``
adds the flags of the given subcommand only.  So ``generate`` loads no
solver, rate or experiment code, and ``rate`` without ``--config`` loads no
``harness``.
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
from .problems import FAMILIES, GeneratorSpec, generate, save_system

if typing.TYPE_CHECKING:
    from .harness import ExperimentConfig, SweepSpec

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
    from .solvers import COMPARATORS, METHODS

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
    from .solvers import TIMINGS

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
    """``value`` from the config file in the form the field annotation
    ``hint`` takes: an object as its dataclass and a list as a tuple.  The
    dataclass checks the result when it is built."""
    for arm in typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,):
        if dataclasses.is_dataclass(arm) and isinstance(value, dict):
            return _read(arm, value, {}, {}, key + ".")
        if typing.get_origin(arm) is tuple and isinstance(value, list):
            return tuple(value)
    return value


def _read(cls, section, flags: dict, defaults: dict, where: str = ""):
    """Build the dataclass ``cls`` from its own fields: a set flag wins, then
    ``section`` (the file's object for ``cls``), then ``defaults``, then the
    field's default.  ``flags`` and ``defaults`` apply at every depth.  A
    refused value from the file is named by its key, such as ``solver.q``."""
    if not isinstance(section, dict):
        raise ConfigError(f"config key {where[:-1]!r} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(section) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"unknown config key {where + unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    kwargs, overrides = {}, {}
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
            (overrides if f.name in section else kwargs)[f.name] = flags[f.name]
    try:
        config = cls(**kwargs)
    except ConfigError as exc:  # its message begins with the field's name
        if str(exc).split()[0] not in section:
            raise
        raise ConfigError(where + str(exc)) from None
    return dataclasses.replace(config, **overrides) if overrides else config


def _inputs(args, defaults: dict) -> tuple[dict, dict, dict]:
    """What :func:`_read` builds a command's configuration from: the
    ``--config`` file's object, the flags that were given, and ``defaults``
    (the command's own) over the ones every command shares."""
    file_cfg = _load_config_file(args.config)
    for key in _OUTPUT_ONLY_KEYS:
        file_cfg.pop(key, None)
    m, n = (FULL_M, FULL_N) if args.paper_scale else (DESK_M, DESK_N)
    # GeneratorSpec declares no default family, size or seed, SolverConfig no method.
    defaults = {"family": "gaussian", "m": m, "n": n, "seed": 0,
                "method": "quantile-averaged-block", **defaults}
    return file_cfg, {k: v for k, v in vars(args).items() if v is not None}, defaults


def _experiment(args, sweep: SweepSpec | None = None, **defaults) -> ExperimentConfig:
    """The configuration a command runs, read from :func:`_inputs`; the
    command itself sets ``sweep``."""
    from .harness import ExperimentConfig

    return dataclasses.replace(_read(ExperimentConfig, *_inputs(args, defaults)), sweep=sweep)


def _cmd_generate(args) -> int:
    # Without a file no flag sets another section, so only this one can fail:
    # reading it alone leaves the harness and the solvers unloaded.
    if args.config is None:
        spec = _read(GeneratorSpec, *_inputs(args, {}))
        out = "system" if args.output_dir is None else args.output_dir
    else:
        config = _experiment(args, output_dir="system")
        spec, out = config.generator, config.output_dir
    system = generate(spec)
    save_system(system, out, spec=spec)
    print(f"wrote system ({system.m}x{system.n}, beta={system.beta:.4g}) to {out}")
    return 0


def _run(config: ExperimentConfig) -> int:
    from .harness import run

    for name, path in run(config).items():
        print(f"{name}: {path}")
    return 0


def _cmd_sweep(args, parameter: str) -> int:
    from .harness import SweepSpec

    sweep = SweepSpec(parameter=parameter, values=args.values)
    return _run(_experiment(args, sweep=sweep, max_iters=10, repetitions=3))


def _cmd_compare(args) -> int:
    from .harness import compare_methods

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    results = compare_methods(_experiment(args), methods)
    for midx, method in enumerate(methods):
        trace = results["traces"][midx]
        print(f"{method}: final rel_error = {trace.rel_error[-1]:.3e}")
    print(f"compare_csv: {results['compare_csv']}")
    return 0


def _cmd_adversarial(args) -> int:
    from .harness import adversarial_demo

    params = inspect.signature(adversarial_demo).parameters
    results = adversarial_demo(
        **{k: v for k, v in vars(args).items() if k in params and v is not None}
    )
    print(json.dumps(results["summary"], indent=2, sort_keys=True))
    return 0


def _cmd_rate(args) -> int:
    from .rates import rate_report, restricted_summary
    from .solvers import SolverConfig

    # Without a file no flag sets another section, so only these can fail:
    # reading them alone leaves the harness unloaded.
    if args.config is None:
        inputs = _inputs(args, {})
        spec, q = _read(GeneratorSpec, *inputs), _read(SolverConfig, *inputs).q
    else:
        config = _experiment(args)
        spec, q = config.generator, config.solver.q
    system = generate(spec)
    summary = restricted_summary(system, q, spec.seed, args.samples)
    report = rate_report(q, system.beta, system.m, summary.sigma_max_sq,
                         summary.sigma_restricted_min_sq, exact=summary.exact)
    print(report.summary())
    if args.json_out:
        report.to_json(args.json_out)
        print(f"report written to {args.json_out}")
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qkz`` parser.  Given ``command``, every other subcommand keeps
    only its name and help, which is all that the top-level usage and errors
    show; so parsing ``generate`` or ``rate`` loads none of the solver choices
    that the other subcommands' flags offer."""
    parser = argparse.ArgumentParser(
        prog="qkz",
        description="Quantile-thresholded Kaczmarz solvers for corrupted linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, func) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p if command in (None, name) else None

    if p := add("generate", "generate and export a system", _cmd_generate):
        _add_generator_flags(p)
        p.add_argument("--out", dest="output_dir", help="output directory (default: system)")

    if p := add("run", "run one solver and write its trace", lambda a: _run(_experiment(a))):
        _add_generator_flags(p, seed_required=True)
        _add_solver_flags(p)
        _add_artifact_flags(p)

    for name, param in (("sweep-alpha", "alpha"), ("sweep-q", "q"), ("sweep-t", "t")):
        if p := add(name, f"sweep {param} and record outcomes",
                    lambda a, _param=param: _cmd_sweep(a, _param)):
            _add_generator_flags(p)
            _add_solver_flags(p)
            _add_artifact_flags(p)
            p.add_argument("--reps", dest="repetitions", type=int)
            p.add_argument("--values", type=_float_list, required=True,
                           help="comma-separated sweep values")

    if p := add("compare", "run several methods on one system", _cmd_compare):
        _add_generator_flags(p)
        _add_solver_flags(p)
        _add_artifact_flags(p)
        p.add_argument("--methods", required=True, help="comma-separated method names")

    # Unset flags fall back to adversarial_demo's own defaults.
    if p := add("adversarial-demo", "projective vs averaged duplicate-row demo", _cmd_adversarial):
        from .solvers import TIMINGS

        p.add_argument("--n", type=int)
        p.add_argument("--clean-rows", type=int)
        p.add_argument("--dup-rows", type=int)
        p.add_argument("--target", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--iters", dest="iterations", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="output_dir", default="adversarial",
                       help="output directory")
        p.add_argument("--timing", choices=TIMINGS)

    if p := add("rate", "print the convergence-rate report for a system", _cmd_rate):
        _add_generator_flags(p)
        p.add_argument("--q", type=float)
        p.add_argument("--samples", type=int, default=500,
                       help="subset samples when enumeration is infeasible")
        p.add_argument("--json-out", default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option with a value, so its first other word is the command.
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
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
