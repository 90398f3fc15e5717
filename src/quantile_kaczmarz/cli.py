"""Command-line interface.

Subcommands: generate, run, sweep-alpha, sweep-q, sweep-t, compare,
adversarial-demo, rate.  Flags mirror the experiment configuration; a JSON
config file may supply any value, with explicit flags taking precedence.
Exit codes: 0 success, 2 configuration error, 3 divergence (non-sweep runs),
4 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConditionViolatedError,
    ConfigError,
    DivergedError,
    DomainError,
    IoError,
    ShapeError,
    SpecError,
)
from .harness import (
    ExperimentConfig,
    SweepSpec,
    adversarial_demo,
    compare_methods,
    run,
)
from .problems import CorruptionSpec, GeneratorSpec, generate, save_system
from .rates import RateInputs, _restricted_summary, convergence_condition, rate_report
from .solvers import COMPARATORS, METHODS, SolverConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

DESK_M, DESK_N = 2000, 50
FULL_M, FULL_N = 10000, 100


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("gaussian", "coherent", "sphere"), default=None)
    p.add_argument("--m", type=int, default=None, help="number of rows")
    p.add_argument("--n", type=int, default=None, help="number of columns")
    p.add_argument("--beta", type=float, default=None, help="corrupted row fraction")
    p.add_argument("--mag-low", type=float, default=None)
    p.add_argument("--mag-high", type=float, default=None)
    p.add_argument("--paper-scale", action="store_true",
                   help=f"default to the full {FULL_M}x{FULL_N} experiment scale "
                        f"instead of {DESK_M}x{DESK_N}")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--alpha", default=None, help="step size, or 'auto'")
    p.add_argument("--t", type=int, default=None, help="sample size")
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--stop", type=float, default=None, help="stop at this relative error")
    p.add_argument("--comparator", choices=COMPARATORS, default=None)


def _add_common_flags(p: argparse.ArgumentParser, seed_required: bool = False) -> None:
    p.add_argument("--seed", type=int, required=seed_required, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--timing", choices=("real", "none"), default=None)
    p.add_argument("--svg", action="store_true", default=None)
    p.add_argument("--reps", type=int, default=None)


def _merged(args: argparse.Namespace, key: str, file_cfg: dict, default):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


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


def _build_generator(args, file_cfg: dict) -> GeneratorSpec:
    gen_cfg = file_cfg.get("generator", {})
    full = bool(getattr(args, "paper_scale", False) or file_cfg.get("paper_scale"))
    default_m, default_n = (FULL_M, FULL_N) if full else (DESK_M, DESK_N)
    corruption = CorruptionSpec(
        beta=_merged(args, "beta", gen_cfg.get("corruption", {}), 0.0),
        magnitude_low=_merged(args, "mag-low", gen_cfg.get("corruption", {}), -100.0),
        magnitude_high=_merged(args, "mag-high", gen_cfg.get("corruption", {}), 100.0),
    )
    return GeneratorSpec(
        family=_merged(args, "family", gen_cfg, "gaussian"),
        m=_merged(args, "m", gen_cfg, default_m),
        n=_merged(args, "n", gen_cfg, default_n),
        seed=_merged(args, "seed", gen_cfg, 0),
        corruption=corruption,
    )


def _build_solver(args, file_cfg: dict, default_iters: int = 100) -> SolverConfig:
    sol_cfg = file_cfg.get("solver", {})
    alpha = _merged(args, "alpha", sol_cfg, "auto")
    if isinstance(alpha, str) and alpha != "auto":
        alpha = float(alpha)
    return SolverConfig(
        method=_merged(args, "method", sol_cfg, "quantile-averaged-block"),
        q=_merged(args, "q", sol_cfg, 0.7),
        alpha=alpha,
        t=_merged(args, "t", sol_cfg, None),
        block_size=_merged(args, "block-size", sol_cfg, None),
        max_iters=_merged(args, "iters", sol_cfg, default_iters),
        stop_rel_error=_merged(args, "stop", sol_cfg, 0.0),
        comparator=_merged(args, "comparator", sol_cfg, "strict-below"),
        seed=_merged(args, "seed", sol_cfg, 0),
    )


def _build_experiment(args, file_cfg: dict, sweep: SweepSpec | None = None,
                      default_iters: int = 100, default_reps: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        generator=_build_generator(args, file_cfg),
        solver=_build_solver(args, file_cfg, default_iters=default_iters),
        sweep=sweep,
        repetitions=_merged(args, "reps", file_cfg, default_reps),
        output_dir=_merged(args, "out", file_cfg, "artifacts"),
        timing=_merged(args, "timing", file_cfg, "real"),
        svg=bool(_merged(args, "svg", file_cfg, False)),
    )


def _cmd_generate(args) -> int:
    file_cfg = _load_config_file(args.config)
    spec = _build_generator(args, file_cfg)
    system = generate(spec)
    out = _merged(args, "out", file_cfg, "system")
    save_system(system, out, spec=spec)
    print(f"wrote system ({system.m}x{system.n}, beta={system.beta:.4g}) to {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config)
    config = _build_experiment(args, file_cfg)
    paths = run(config)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_sweep(args, parameter: str) -> int:
    file_cfg = _load_config_file(args.config)
    values = tuple(_float_list(args.values))
    sweep = SweepSpec(parameter=parameter, values=values)
    config = _build_experiment(args, file_cfg, sweep=sweep, default_iters=10,
                               default_reps=3)
    paths = run(config)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    file_cfg = _load_config_file(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    config = _build_experiment(args, file_cfg)
    results = compare_methods(config, methods)
    for midx, method in enumerate(methods):
        trace = results["traces"][midx]
        print(f"{method}: final rel_error = {trace.rel_error[-1]:.3e}")
    print(f"compare_csv: {results['compare_csv']}")
    return EXIT_OK


def _cmd_adversarial(args) -> int:
    results = adversarial_demo(
        output_dir=args.out or "adversarial",
        n=args.n or 100,
        clean_rows=args.clean_rows,
        dup_rows=args.dup_rows,
        target=args.target,
        q=args.q if args.q is not None else 0.7,
        alpha=float(args.alpha) if args.alpha is not None else 10.0,
        iterations=args.iters or 50,
        seed=args.seed or 0,
        timing=args.timing or "real",
    )
    with open(results["summary_json"], encoding="utf-8") as fh:
        summary = json.load(fh)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_rate(args) -> int:
    file_cfg = _load_config_file(args.config)
    spec = _build_generator(args, file_cfg)
    system = generate(spec)
    q = args.q if args.q is not None else 0.7
    try:
        summary = _restricted_summary(system, q, spec.seed, args.samples)
    except ConditionViolatedError as exc:
        print(f"{exc}: the restricted smallest singular value is zero")
        print("condition holds: False")
        return EXIT_OK
    s2max = summary.sigma_max_sq
    holds, epsilon = convergence_condition(q, system.beta, s2max, summary.sigma_restricted_min_sq)
    if not holds:
        # A failed condition is an analytic verdict, not a usage error.
        print(f"condition holds: False (epsilon = {epsilon:.6g})")
        print("no step size carries a guaranteed contraction for these inputs")
        print(RateInputs(q, system.beta, system.m, s2max, summary.sigma_restricted_min_sq,
                         summary.exact).summary())
        return EXIT_OK
    report = rate_report(q, system.beta, system.m, s2max, summary.sigma_restricted_min_sq,
                         exact=summary.exact)
    print(report.summary())
    if args.json_out:
        report.to_json(args.json_out)
        print(f"report written to {args.json_out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkz",
        description="Quantile-thresholded Kaczmarz solvers for corrupted linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate and export a system")
    _add_generator_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one solver and write its trace")
    _add_generator_flags(p)
    _add_solver_flags(p)
    _add_common_flags(p, seed_required=True)
    p.set_defaults(func=_cmd_run)

    for name, param in (("sweep-alpha", "alpha"), ("sweep-q", "q"), ("sweep-t", "t")):
        p = sub.add_parser(name, help=f"sweep {param} and record outcomes")
        _add_generator_flags(p)
        _add_solver_flags(p)
        _add_common_flags(p)
        p.add_argument("--values", required=True, help="comma-separated sweep values")
        p.set_defaults(func=lambda a, _param=param: _cmd_sweep(a, _param))

    p = sub.add_parser("compare", help="run several methods on one system")
    _add_generator_flags(p)
    _add_solver_flags(p)
    _add_common_flags(p)
    p.add_argument("--methods", required=True, help="comma-separated method names")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("adversarial-demo", help="projective vs averaged duplicate-row demo")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--clean-rows", type=int, default=1000)
    p.add_argument("--dup-rows", type=int, default=250)
    p.add_argument("--target", type=float, default=500.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--iters", type=int, default=None)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_adversarial)

    p = sub.add_parser("rate", help="print the convergence-rate report for a system")
    _add_generator_flags(p)
    _add_common_flags(p)
    p.add_argument("--q", type=float, default=None)
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
    except (ConfigError, SpecError, DomainError, ShapeError, ConditionViolatedError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
