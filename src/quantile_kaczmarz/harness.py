"""Experiment orchestration: single runs, parameter sweeps, method
comparisons, and the duplicate-row demonstration.

Every experiment writes CSV artifacts plus a JSON snapshot of the fully
resolved configuration, sufficient to re-run bit-identically within one
build.  Wall-time columns record real measurements by default; the
``timing="none"`` mode zeroes them so that identical configurations yield
byte-identical artifacts.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergedError
from .problems import (
    CorruptedSystem,
    GeneratorSpec,
    generate,
    generate_adversarial_duplicate,
)
from .solvers import IterationTrace, SolverConfig, method_spec, solve
from .svgplot import emit_svg

SWEEP_CSV_HEADER = "value,repetition,rel_error,diverged,wall_ms"

# Stream tags keep the derived RNG streams for distinct purposes disjoint.
_TAG_SYSTEM, _TAG_SOLVER, _TAG_METHOD, _TAG_ALPHA_SEARCH = 1, 2, 3, 4

# Candidate step sizes for the empirical per-q resolution: absolute values
# cover coherent geometries, column-scaled values cover incoherent ones.
_ALPHA_GRID_ABS = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5)
_ALPHA_GRID_SCALED = (0.4, 0.8, 1.2, 1.6, 2.0)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # "alpha" | "q" | "t"
    values: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorSpec
    solver: SolverConfig
    sweep: SweepSpec | None = None
    repetitions: int = 1
    output_dir: str = "artifacts"
    timing: str = "real"
    svg: bool = False
    start: str = "ones"  # "ones" | "zeros"


@dataclass(frozen=True)
class SweepPoint:
    value: float
    repetition: int
    rel_error: float
    diverged: bool
    wall_ms: float


@dataclass
class SweepResult:
    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def values(self) -> list[float]:
        return sorted({p.value for p in self.points})

    def mean_rel_error(self, value: float) -> float:
        rels = [p.rel_error for p in self.points if p.value == value]
        finite = [r for r in rels if math.isfinite(r)]
        return sum(finite) / len(finite) if finite else math.inf

    def argmin_value(self) -> float:
        return min(self.values(), key=self.mean_rel_error)

    def all_diverged(self, value: float) -> bool:
        return all(p.diverged for p in self.points if p.value == value)


def derived_seed(base: int, *keys: int) -> int:
    return int(np.random.SeedSequence([int(base), *map(int, keys)]).generate_state(1)[0])


def _validate(config: ExperimentConfig) -> None:
    if config.repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if config.timing not in ("real", "none"):
        raise ConfigError(f"timing must be 'real' or 'none', got {config.timing!r}")
    if config.start not in ("ones", "zeros"):
        raise ConfigError(f"start must be 'ones' or 'zeros', got {config.start!r}")
    if config.sweep is not None:
        if config.sweep.parameter not in ("alpha", "q", "t"):
            raise ConfigError(f"unknown sweep parameter {config.sweep.parameter!r}")
        vals = config.sweep.values
        if len(vals) < 1:
            raise ConfigError("sweep needs at least one value")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError("sweep values must be strictly increasing")


def _resolved_config_dict(config: ExperimentConfig, extras: dict | None = None) -> dict:
    payload = {
        "generator": dataclasses.asdict(config.generator),
        "solver": dataclasses.asdict(config.solver),
        "sweep": dataclasses.asdict(config.sweep) if config.sweep else None,
        "repetitions": config.repetitions,
        "timing": config.timing,
        "svg": config.svg,
        "start": config.start,
    }
    if extras:
        payload.update(extras)
    return payload


def _write_json(payload: dict, path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _wall_ms(trace: IterationTrace, timing: str) -> float:
    if timing == "none" or not trace.elapsed_ns:
        return 0.0
    return trace.elapsed_ns[-1] / 1e6


def start_vector(n: int, start: str = "ones") -> np.ndarray:
    """Default benchmark start: the all-ones vector.

    For coherent geometries this aligns the initial error with the dominant
    row direction, which is what makes step-size cliffs visible after a few
    iterations; for isotropic geometries it is equivalent to any fixed start.
    """
    return np.ones(n) if start == "ones" else np.zeros(n)


def _solve(
    system: CorruptedSystem, solver_cfg: SolverConfig, x0, keep_iterates: bool = False
) -> tuple[IterationTrace, DivergedError | None]:
    """The trace of one solve and the error that ended it, if it diverged;
    a diverged solve's trace is the partial one its error carries."""
    try:
        return solve(system, solver_cfg, x0, keep_iterates), None
    except DivergedError as exc:
        return exc.trace, exc


def _solve_outcome(
    system: CorruptedSystem, solver_cfg: SolverConfig, x0, timing: str
) -> tuple[float, bool, float]:
    """Final relative error, divergence flag, and wall time of one solve.

    A run counts as diverged if the solver raised, or if the final relative
    error is non-finite or exceeds 1 (no progress from the start)."""
    trace, failure = _solve(system, solver_cfg, x0)
    rel = trace.rel_error[-1] if trace.rel_error else math.inf
    diverged = failure is not None or not math.isfinite(rel) or rel > 1.0
    return rel, diverged, _wall_ms(trace, timing)


def _error_series(label: str, ys, xs=None) -> list:
    """The SVG series of one relative-error curve: its finite positive points,
    at ``xs`` or numbered from iteration 1, or no series if there are none."""
    xs = range(1, len(ys) + 1) if xs is None else xs
    pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y) and y > 0]
    return [(label, [p[0] for p in pts], [p[1] for p in pts])] if pts else []


def write_sweep_csv(result: SweepResult, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for p in result.points:
            fh.write(
                f"{p.value!r},{p.repetition},{p.rel_error!r},"
                f"{'true' if p.diverged else 'false'},{p.wall_ms!r}\n"
            )
    return path


# ---------------------------------------------------------------------------
# Sweeps

def _sweep(
    config: ExperimentConfig,
    parameter: str,
    values,
    resolve_solver,
) -> SweepResult:
    _validate(config)
    result = SweepResult(parameter=parameter)
    systems: dict[int, CorruptedSystem] = {}
    for rep in range(config.repetitions):
        spec = dataclasses.replace(
            config.generator, seed=derived_seed(config.generator.seed, _TAG_SYSTEM, rep)
        )
        systems[rep] = generate(spec)
    for vidx, value in enumerate(values):
        for rep in range(config.repetitions):
            system = systems[rep]
            solver_cfg = resolve_solver(system, value, rep)
            solver_cfg = dataclasses.replace(
                solver_cfg, seed=derived_seed(config.solver.seed, _TAG_SOLVER, vidx, rep)
            )
            x0 = start_vector(system.n, config.start)
            rel, diverged, wall = _solve_outcome(system, solver_cfg, x0, config.timing)
            result.points.append(SweepPoint(float(value), rep, rel, diverged, wall))
    return result


def sweep_step_size(config: ExperimentConfig, alphas) -> SweepResult:
    """Relative error after the configured iteration budget for each step size."""

    def resolver(system, value, rep):
        return dataclasses.replace(config.solver, alpha=float(value))

    return _sweep(config, "alpha", alphas, resolver)


def empirical_alpha(
    system: CorruptedSystem,
    solver: SolverConfig,
    q: float,
    seed: int,
    iterations: int | None = None,
    start: str = "ones",
) -> float:
    """Pick a step size for quantile ``q`` by a short trial sweep.

    Runs the solver for a few iterations at each candidate on a dedicated
    derived stream and returns the candidate with the smallest finite
    relative error.  This mirrors how the optimal step size is located
    experimentally; the closed-form optimum is unavailable for quantiles
    near the corruption boundary.
    """
    n = system.n
    candidates = sorted(set(_ALPHA_GRID_ABS) | {r * n for r in _ALPHA_GRID_SCALED})
    budget = iterations if iterations is not None else min(solver.max_iters, 10)
    best_alpha, best_rel = candidates[0], math.inf
    for cidx, alpha in enumerate(candidates):
        trial = dataclasses.replace(
            solver,
            q=q,
            alpha=alpha,
            max_iters=budget,
            stop_rel_error=0.0,
            seed=derived_seed(seed, _TAG_ALPHA_SEARCH, cidx),
        )
        rel, diverged, _ = _solve_outcome(system, trial, start_vector(system.n, start), "none")
        if not diverged and rel < best_rel:
            best_alpha, best_rel = alpha, rel
    return best_alpha


def sweep_quantile(config: ExperimentConfig, qs) -> SweepResult:
    """Sweep the quantile parameter, resolving the step size per q.

    With ``solver.alpha == "auto"`` each (q, repetition) pair gets an
    empirically resolved step size, unless the method takes none; an
    explicit alpha is used as-is.
    """
    search = (isinstance(config.solver.alpha, str)
              and method_spec(config.solver.method).takes_alpha)

    def resolver(system, value, rep):
        q = float(value)
        alpha = config.solver.alpha
        if search:
            alpha = empirical_alpha(
                system,
                config.solver,
                q,
                derived_seed(config.solver.seed, _TAG_ALPHA_SEARCH, rep),
                start=config.start,
            )
        return dataclasses.replace(config.solver, q=q, alpha=alpha)

    return _sweep(config, "q", qs, resolver)


def sweep_sample_size(config: ExperimentConfig, ts) -> SweepResult:
    """Sweep the sample size of the subsampled averaged method."""
    fractional = [t for t in ts if not float(t).is_integer()]
    if fractional:
        raise ConfigError(f"sample size must be a whole number, got {fractional[0]!r}")

    def resolver(system, value, rep):
        return dataclasses.replace(config.solver, t=int(value))

    return _sweep(config, "t", ts, resolver)


# ---------------------------------------------------------------------------
# Single runs, comparisons, demo

def run(config: ExperimentConfig) -> dict[str, Path]:
    """Execute a single solve or a sweep and write all artifacts.

    Returns a mapping of artifact names to paths.  A diverged non-sweep run
    still writes its partial trace and configuration before the error
    propagates; sweeps record divergence per row instead of failing.
    """
    _validate(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    if config.sweep is not None:
        sweepers = {"alpha": sweep_step_size, "q": sweep_quantile, "t": sweep_sample_size}
        result = sweepers[config.sweep.parameter](config, config.sweep.values)
        paths["sweep_csv"] = write_sweep_csv(result, out / "sweep.csv")
        paths["config_json"] = _write_json(_resolved_config_dict(config), out / "config.json")
        if config.svg:
            xs = result.values()
            series = _error_series("rel error", [result.mean_rel_error(v) for v in xs], xs)
            if series:
                paths["svg"] = emit_svg(
                    series,
                    log_y=True,
                    path=out / "sweep.svg",
                    title=f"sweep {config.sweep.parameter}",
                    x_label=config.sweep.parameter,
                    y_label="relative error",
                )
        return paths

    system = generate(config.generator)
    x0 = start_vector(system.n, config.start)
    trace, failure = _solve(system, config.solver, x0)
    paths["trace_csv"] = trace.write_csv(out / "trace.csv", timing=config.timing)
    extras = {"resolved": trace.config_dict()}
    paths["config_json"] = _write_json(_resolved_config_dict(config, extras), out / "config.json")
    if config.svg:
        series = _error_series(config.solver.method, trace.rel_error)
        if series:
            paths["svg"] = emit_svg(
                series,
                log_y=True,
                path=out / "trace.svg",
                title=config.solver.method,
                x_label="iteration",
                y_label="relative error",
            )
    if failure is not None:
        raise failure
    return paths


def compare_methods(config: ExperimentConfig, methods) -> dict[str, object]:
    """Run several methods on one shared system and budget.

    Writes one trace CSV per method, an aligned CSV of relative error and
    cumulative wall time per iteration, and a combined SVG.  Returns the
    artifact paths plus the traces keyed by list position.
    """
    _validate(config)
    if not methods:
        raise ConfigError("need at least one method to compare")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    system = generate(config.generator)
    x0 = start_vector(system.n, config.start)

    traces: list[IterationTrace] = []
    for midx, method in enumerate(methods):
        solver_cfg = dataclasses.replace(
            config.solver,
            method=method,
            seed=derived_seed(config.solver.seed, _TAG_METHOD, midx),
        )
        traces.append(_solve(system, solver_cfg, x0)[0])

    paths: dict[str, object] = {"traces": traces}
    for midx, (method, trace) in enumerate(zip(methods, traces)):
        paths[f"trace_csv_{midx}"] = trace.write_csv(
            out / f"trace_{midx}_{method}.csv", timing=config.timing
        )

    budget = max(t.iterations for t in traces)
    with open(out / "compare.csv", "w", encoding="utf-8") as fh:
        names = [f"{m}_{i}" for i, m in enumerate(methods)]
        fh.write(
            "iter,"
            + ",".join(f"rel_error_{n}" for n in names)
            + ","
            + ",".join(f"elapsed_ns_{n}" for n in names)
            + "\n"
        )
        for k in range(budget):
            rels = [
                repr(t.rel_error[k]) if k < t.iterations else "" for t in traces
            ]
            elapsed = [
                str(t.elapsed_ns[k] if config.timing == "real" else 0)
                if k < t.iterations
                else ""
                for t in traces
            ]
            fh.write(f"{k + 1}," + ",".join(rels) + "," + ",".join(elapsed) + "\n")
    paths["compare_csv"] = out / "compare.csv"

    series = [s for method, trace in zip(methods, traces)
              for s in _error_series(method, trace.rel_error)]
    if config.svg and series:
        paths["svg"] = emit_svg(
            series,
            log_y=True,
            path=out / "compare.svg",
            title="method comparison",
            x_label="iteration",
            y_label="relative error",
        )
    paths["config_json"] = _write_json(
        _resolved_config_dict(config, {"methods": list(methods)}), out / "config.json"
    )
    return paths


def adversarial_demo(
    output_dir,
    n: int = 100,
    clean_rows: int = 1000,
    dup_rows: int = 250,
    target: float = 500.0,
    q: float = 0.7,
    alpha: float = 10.0,
    iterations: int = 50,
    averaged_stop: float = 1e-6,
    averaged_max_iters: int = 800,
    seed: int = 0,
    timing: str = "real",
    svg: bool = True,
) -> dict[str, object]:
    """Projective vs averaged blocking on the duplicate-row construction.

    Both methods start from the projection of the all-ones vector onto the
    corrupted hyperplane.  The projective method runs for exactly
    ``iterations`` steps (the failure exhibit: it never escapes the
    neighborhood of the corrupted hyperplane); the averaged method runs
    until it reaches ``averaged_stop`` or exhausts ``averaged_max_iters``.
    Returns artifact paths, both traces, and the per-iterate inner products
    of the duplicated row direction with the projective iterates (the
    corrupted hyperplane offset is their distance to the target value).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    system, x0 = generate_adversarial_duplicate(
        n=n, clean_rows=clean_rows, dup_rows=dup_rows, target=target, seed=seed
    )
    dup_direction = system.matrix[clean_rows]

    results: dict[str, object] = {}
    traces: dict[str, IterationTrace] = {}
    for label, method, cfg_alpha, budget, stop in (
        ("projective", "quantile-projective-block", 1.0, iterations, 0.0),
        ("averaged", "quantile-averaged-block", alpha, averaged_max_iters, averaged_stop),
    ):
        solver_cfg = SolverConfig(
            method=method,
            q=q,
            alpha=cfg_alpha,
            max_iters=budget,
            stop_rel_error=stop,
            seed=derived_seed(seed, _TAG_METHOD, len(traces)),
        )
        trace = traces[label] = _solve(system, solver_cfg, x0, keep_iterates=True)[0]
        results[f"trace_csv_{label}"] = trace.write_csv(
            out / f"trace_{label}.csv", timing=timing
        )

    hyperplane_dots = [
        float(dup_direction @ x) for x in traces["projective"].iterates
    ]
    summary = {
        "n": n,
        "clean_rows": clean_rows,
        "dup_rows": dup_rows,
        "target": target,
        "q": q,
        "alpha_averaged": alpha,
        "iterations": iterations,
        "seed": seed,
        "final_rel_error_projective": traces["projective"].rel_error[-1],
        "final_rel_error_averaged": traces["averaged"].rel_error[-1],
        "max_hyperplane_offset_projective": max(
            abs(d - target) for d in hyperplane_dots
        ),
    }
    results["summary_json"] = _write_json(summary, out / "summary.json")

    if svg:
        series = [s for label in ("projective", "averaged")
                  for s in _error_series(label, traces[label].rel_error)]
        if series:
            results["svg"] = emit_svg(
                series,
                log_y=True,
                path=out / "adversarial.svg",
                title="projective vs averaged blocking",
                x_label="iteration",
                y_label="relative error",
            )

    results["traces"] = traces
    results["hyperplane_dots"] = hyperplane_dots
    results["system"] = system
    results["x0"] = x0
    return results
