"""Experiment orchestration: single runs, parameter sweeps, method
comparisons, and the duplicate-row demonstration.

Every experiment writes CSV artifacts plus a JSON snapshot of the fully
resolved configuration, sufficient to re-run bit-identically within one
build.  The output directory is made only after an experiment's solves have
run, so one stopped by a configuration error leaves nothing behind.
Wall-time columns record real measurements by default; the
``timing="none"`` mode zeroes them so that identical configurations yield
byte-identical artifacts.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConditionViolatedError, ConfigError, DivergedError, DomainError,
                     ShapeError, domain, domain_check, one_of)
from .problems import (
    CorruptedSystem,
    GeneratorSpec,
    generate,
    generate_adversarial_duplicate,
)
from .rates import resolve_alpha_auto
from .solvers import (
    METHOD_TABLE,
    TIMINGS,
    IterationTrace,
    SolverConfig,
    check_config,
    check_timing,
    lane_errors,
    solve,
)
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
    parameter: str = one_of(("alpha", "q", "t"))
    values: tuple[float, ...] = domain(
        "non-empty, finite and strictly increasing",
        lambda v: len(v) > 0 and all(map(math.isfinite, v)) and list(v) == sorted(set(v)))

    __post_init__ = domain_check


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorSpec
    solver: SolverConfig
    sweep: SweepSpec | None = None
    repetitions: int = domain(">= 1", lambda v: v >= 1, default=1)
    output_dir: str = "artifacts"
    timing: str = one_of(TIMINGS, default="real")
    svg: bool = False
    start: str = one_of(("ones", "zeros"), default="ones")

    __post_init__ = domain_check


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


def derived_seed(base: int, *keys: int) -> int:
    return int(np.random.SeedSequence([int(base), *map(int, keys)]).generate_state(1)[0])


def _write_json(payload: dict, path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _write_config(config: ExperimentConfig, out: Path, **extras) -> Path:
    """``config.json``: every field of ``config`` but ``output_dir``, so a run
    repeated elsewhere writes the same bytes, plus the ``extras`` records."""
    payload = dataclasses.asdict(config)
    del payload["output_dir"]
    return _write_json({**payload, **extras}, out / "config.json")


def _plot(paths: dict, path: Path, title: str, curves, x_label: str = "iteration",
          xs=None) -> None:
    """Draw the log-scale relative-error chart of ``curves``, ``(label, ys)``
    pairs at ``xs`` (default: iterations from 1), over their finite positive
    points, and record it as ``paths["svg"]``; a chart with no points is not
    written."""
    series = []
    for label, ys in curves:
        pts = [(x, y) for x, y in zip(xs or range(1, len(ys) + 1), ys)
               if math.isfinite(y) and y > 0]
        if pts:
            series.append((label, *zip(*pts)))
    if series:
        paths["svg"] = emit_svg(series, path=path, title=title, x_label=x_label)


def start_vector(n: int, start: str = "ones") -> np.ndarray:
    """Default benchmark start: the all-ones vector.

    For coherent geometries this aligns the initial error with the dominant
    row direction, which is what makes step-size cliffs visible after a few
    iterations; for isotropic geometries it is equivalent to any fixed start.
    """
    return np.ones(n) if start == "ones" else np.zeros(n)


def _resolved(system: CorruptedSystem, solver: SolverConfig, x0,
              methods=None) -> tuple[list[SolverConfig], str]:
    """``solver`` per method of ``methods`` (default: its own), checked, with
    ``alpha="auto"`` set once to the rate formula's optimum at its q and seed,
    and the step size's source: none, explicit, auto-exact or auto-sampled."""
    configs = [dataclasses.replace(solver, method=m) for m in methods or [solver.method]]
    takes = [check_config(c, system, x0, allow_auto=True)[0].takes_alpha for c in configs]
    if not any(takes) or solver.alpha != "auto":
        return configs, "explicit" if any(takes) else "none"
    try:
        alpha, exact = resolve_alpha_auto(system, solver.q, seed=solver.seed)
    except (ConditionViolatedError, DomainError, ShapeError) as exc:
        raise ConfigError(f"automatic step-size resolution failed: {exc}") from exc
    return ([dataclasses.replace(c, alpha=alpha) for c in configs],
            "auto-exact" if exact else "auto-sampled")


def _solve(
    system: CorruptedSystem, solver_cfg: SolverConfig, x0, keep_iterates: bool = False
) -> tuple[IterationTrace, DivergedError | None]:
    """The trace of one solve and the error that ended it, if it diverged;
    a diverged solve's trace is the partial one its error carries."""
    try:
        return solve(system, solver_cfg, x0, keep_iterates), None
    except DivergedError as exc:
        return exc.trace, exc


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

def empirical_alpha(system: CorruptedSystem, solver: SolverConfig, q: float, seed: int,
                    start: str = "ones") -> float:
    """Pick a step size for quantile ``q`` by a short trial sweep.

    Runs ``solver``'s method for ``min(solver.max_iters, 10)`` steps at each
    candidate, 6 absolute step sizes and 5 scaled by n (11 in all, or 10
    where a scaled one equals an absolute one: n = 1 and n = 5), as the lanes
    of one :func:`solvers.lane_errors` call.  All lanes share one sample
    stream, derived from ``seed``, so they see the same rows at every step.
    Returns the candidate with the smallest relative error among those that
    end finite and at most 1, the lower step size on a tie, or the first
    candidate if none does.  This mirrors how the optimal step size is
    located experimentally; the closed-form optimum is unavailable for
    quantiles near the corruption boundary.  Only the averaged quantile
    methods can be searched; any other method raises :class:`ConfigError`.
    """
    n = system.n
    candidates = sorted(set(_ALPHA_GRID_ABS) | {r * n for r in _ALPHA_GRID_SCALED})
    trial = dataclasses.replace(solver, q=q, max_iters=min(solver.max_iters, 10),
                                stop_rel_error=0.0, seed=derived_seed(seed, _TAG_ALPHA_SEARCH))
    errors = lane_errors(system, trial, start_vector(n, start), candidates)
    # argmin takes the first of equal errors, and the first candidate when
    # every lane diverged.
    return candidates[int(np.argmin(np.where(errors <= 1.0, errors, np.inf)))]


def sweep(config: ExperimentConfig) -> SweepResult:
    """The sweep that ``config.sweep`` names: one point per value and
    repetition, in that order, each a solve of ``config.solver`` with the
    swept field set to the value (an ``int`` for ``t``) and a seed derived
    from both.  A ``q`` sweep with ``alpha="auto"`` on a searchable method
    takes each point's step size from :func:`empirical_alpha`; other sweeps
    resolve one per repetition's system.  A point counts as diverged if the
    solver raised, or if its final relative error is non-finite or above 1.
    """
    if config.sweep is None:
        raise ConfigError("config.sweep is unset, so there is nothing to sweep")
    parameter, values = config.sweep.parameter, config.sweep.values
    fractional = [v for v in values if parameter == "t" and not float(v).is_integer()]
    if fractional:
        raise ConfigError(f"sample size must be a whole number, got {fractional[0]!r}")
    values = [int(v) if parameter == "t" else float(v) for v in values]
    method = config.solver.method
    spec = METHOD_TABLE[method]
    reads = {"alpha": spec.takes_alpha, "q": spec.scope is not None, "t": spec.scope == "t"}
    if not reads[parameter]:
        raise ConfigError(f"method {method!r} never reads {parameter!r}, "
                          f"so a sweep over it changes nothing")
    search = parameter == "q" and config.solver.alpha == "auto" and spec.auto_alpha
    result = SweepResult(parameter=parameter)
    systems = [
        generate(dataclasses.replace(
            config.generator, seed=derived_seed(config.generator.seed, _TAG_SYSTEM, rep)))
        for rep in range(config.repetitions)
    ]
    x0 = start_vector(config.generator.n, config.start)
    first = dataclasses.replace(config.solver, **{parameter: values[0]})
    resolved = [first if search else _resolved(system, first, x0)[0][0] for system in systems]
    for vidx, value in enumerate(values):
        for rep, system in enumerate(systems):
            solver_cfg = dataclasses.replace(
                resolved[rep], seed=derived_seed(config.solver.seed, _TAG_SOLVER, vidx, rep),
                **{parameter: value})
            if search:
                solver_cfg = dataclasses.replace(solver_cfg, alpha=empirical_alpha(
                    system, config.solver, value,
                    derived_seed(config.solver.seed, _TAG_ALPHA_SEARCH, rep), start=config.start))
            trace, failure = _solve(system, solver_cfg, x0)
            rel = trace.rel_error[-1]
            diverged = failure is not None or not math.isfinite(rel) or rel > 1.0
            result.points.append(SweepPoint(float(value), rep, rel, diverged,
                                            trace.elapsed(config.timing)[-1] / 1e6))
    return result


# ---------------------------------------------------------------------------
# Single runs, comparisons, demo

def run(config: ExperimentConfig) -> dict[str, Path]:
    """Execute a single solve or a sweep and write all artifacts.

    Returns a mapping of artifact names to paths.  A diverged non-sweep run
    still writes its partial trace and configuration before the error
    propagates; sweeps record divergence per row instead of failing.
    """
    paths: dict[str, Path] = {}

    if config.sweep is not None:
        result = sweep(config)
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths["sweep_csv"] = write_sweep_csv(result, out / "sweep.csv")
        paths["config_json"] = _write_config(config, out)
        if config.svg:
            xs = result.values()
            _plot(paths, out / "sweep.svg", f"sweep {result.parameter}",
                  [("rel error", [result.mean_rel_error(v) for v in xs])],
                  x_label=result.parameter, xs=xs)
        return paths

    system = generate(config.generator)
    x0 = start_vector(system.n, config.start)
    (solver,), alpha_source = _resolved(system, config.solver, x0)
    trace, failure = _solve(system, solver, x0)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths["trace_csv"] = trace.write_csv(out / "trace.csv", timing=config.timing)
    paths["config_json"] = _write_config(
        config, out, resolved={**trace.config_dict(), "alpha_source": alpha_source})
    if config.svg:
        method = config.solver.method
        _plot(paths, out / "trace.svg", method, [(method, trace.rel_error)])
    if failure is not None:
        raise failure
    return paths


def compare_methods(config: ExperimentConfig, methods) -> dict[str, object]:
    """Run several methods on one shared system, budget and step size.

    Writes one trace CSV per method, an aligned CSV of relative error and
    cumulative wall time per iteration, and a combined SVG.  Returns the
    artifact paths plus the traces keyed by list position.
    """
    if not methods:
        raise ConfigError("need at least one method to compare")
    system = generate(config.generator)
    x0 = start_vector(system.n, config.start)
    traces = [
        _solve(system, dataclasses.replace(
            solver, seed=derived_seed(config.solver.seed, _TAG_METHOD, midx)), x0)[0]
        for midx, solver in enumerate(_resolved(system, config.solver, x0, methods)[0])
    ]

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, object] = {"traces": traces}
    for midx, (method, trace) in enumerate(zip(methods, traces)):
        paths[f"trace_csv_{midx}"] = trace.write_csv(
            out / f"trace_{midx}_{method}.csv", timing=config.timing
        )

    names = [f"{m}_{i}" for i, m in enumerate(methods)]
    elapsed = [t.elapsed(config.timing) for t in traces]
    with open(out / "compare.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(["iter", *(f"rel_error_{n}" for n in names),
                           *(f"elapsed_ns_{n}" for n in names)]) + "\n")
        for k in range(max(t.iterations for t in traces)):
            rels = [repr(t.rel_error[k]) if k < t.iterations else "" for t in traces]
            ns = [str(e[k]) if k < len(e) else "" for e in elapsed]
            fh.write(",".join([str(k + 1), *rels, *ns]) + "\n")
    paths["compare_csv"] = out / "compare.csv"

    if config.svg:
        _plot(paths, out / "compare.svg", "method comparison",
              [(m, t.rel_error) for m, t in zip(methods, traces)])
    paths["config_json"] = _write_config(config, out, methods=list(methods))
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
    check_timing(timing)
    system, x0 = generate_adversarial_duplicate(
        n=n, clean_rows=clean_rows, dup_rows=dup_rows, target=target, seed=seed
    )
    configs = {
        label: SolverConfig(method=method, q=q, alpha=cfg_alpha, max_iters=budget,
                            stop_rel_error=stop, seed=derived_seed(seed, _TAG_METHOD, idx))
        for idx, (label, method, cfg_alpha, budget, stop) in enumerate((
            ("projective", "quantile-projective-block", 1.0, iterations, 0.0),
            ("averaged", "quantile-averaged-block", alpha, averaged_max_iters, averaged_stop),
        ))
    }
    traces: dict[str, IterationTrace] = {
        label: _solve(system, cfg, x0, keep_iterates=True)[0] for label, cfg in configs.items()
    }
    dup_direction = system.matrix[clean_rows]
    hyperplane_dots = [float(dup_direction @ x) for x in traces["projective"].iterates]

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, object] = {
        f"trace_csv_{label}": trace.write_csv(out / f"trace_{label}.csv", timing=timing)
        for label, trace in traces.items()
    }
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
        "max_hyperplane_offset_projective": max(abs(d - target) for d in hyperplane_dots),
    }
    # JSON has no NaN or Infinity: a diverged solve's error is written as null.
    summary = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in summary.items()}
    results["summary_json"] = _write_json(summary, out / "summary.json")
    if svg:
        _plot(results, out / "adversarial.svg", "projective vs averaged blocking",
              [(label, trace.rel_error) for label, trace in traces.items()])
    results.update(traces=traces, hyperplane_dots=hyperplane_dots, system=system, x0=x0)
    return results
