"""The benchmark's workloads: inputs made from the seed, one timed operation,
and the checks that decide whether an operation's output is correct.

Every workload is driven through the package's public functions in this
process and timed from outside.  See README.md for why each one exists.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import quantile_kaczmarz as qk
import quantile_kaczmarz.cli  # noqa: F401  (makes qk.cli available)

Q = 0.7
TOL = 1e-8
PAPER_M, PAPER_N, PAPER_BETA = 10000, 100, 0.2
SWEEP_M, SWEEP_N = 50000, 200
RATE_M, RATE_N, RATE_BETA = 2000, 50, 0.02
EXACT_M, EXACT_N, EXACT_K = 20, 4, 10
RATE_SAMPLES = 500  # the default of resolve_alpha_auto and of `qkz rate`

# Per-method solver settings of solve-paper; max_iters is the budget an op
# must reach TOL within.  The projective block method is not a workload: it
# computes its ridge with linalg.sigma_max_sq, whose power iteration raises
# NoConvergenceError on about one 10000x100 system in 150 (see README.md).
SOLVE_METHODS = {
    "quantile-averaged-block": dict(alpha=150.0, max_iters=200),
    "sampled-quantile-averaged-block": dict(alpha=150.0, t=2000, max_iters=400),
    "quantile-rk": dict(t=1000, max_iters=100_000),
}
# Systems per run.  A quantile-rk solve takes seconds, so a run covers only
# a few systems.
SOLVE_SYSTEMS = {"quantile-rk": 3}
DEFAULT_SOLVE_SYSTEMS = 12


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the run seed and a purpose tag."""
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


def paper_spec(seed: int, m: int = PAPER_M, n: int = PAPER_N,
               beta: float = PAPER_BETA) -> qk.GeneratorSpec:
    return qk.GeneratorSpec(
        "gaussian", m, n, seed,
        qk.CorruptionSpec(beta=beta, magnitude_low=-100.0, magnitude_high=100.0),
    )


def solver_config(method: str, seed: int) -> qk.SolverConfig:
    return qk.SolverConfig(method=method, q=Q, stop_rel_error=TOL, seed=seed,
                           **SOLVE_METHODS[method])


class Workload:
    """One set of inputs plus the operation the benchmark repeats on them.

    ``systems`` is the number of distinct inputs the run cycles through; the
    run makes at least ``min_ops`` operations.  ``paced`` names a package
    function ("module.name") that a long op calls many times; the reference
    kernel also runs before its calls, so that it samples the machine's
    speed while the op runs.  ``op(i)`` returns
    ``(seconds, parts, error)`` where ``parts`` holds named sub-timings and
    ``error`` is None for a correct output, else a short reason.
    """

    systems = 1
    min_ops = 1
    reference = "block"  # the reference kernel of the same kind of work
    paced: str | None = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.counts: dict[str, object] = {}

    def setup(self) -> None:
        """Build the inputs; timed as part of ``setup_s``."""

    def prepare(self) -> None:
        """Untimed work needed by the checks, done once after set-up."""


class SolveWorkload(Workload):
    """solve-paper: one op solves one system with one method to TOL."""

    def __init__(self, method: str, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.method = method
        self.reference = "row" if method == "quantile-rk" else "block"
        # A quantile-rk solve takes seconds, a block solve tens of ms.
        self.paced = "solvers.quantile_rk_step" if method == "quantile-rk" else None
        self.systems = SOLVE_SYSTEMS.get(method, DEFAULT_SOLVE_SYSTEMS)
        self.min_ops = self.systems
        self.inputs: list = []

    def setup(self) -> None:
        self.inputs = [qk.generate(paper_spec(sub_seed(self.seed, 1, i)))
                       for i in range(self.systems)]

    def op(self, i: int):
        system = self.inputs[i % self.systems]
        config = solver_config(self.method, sub_seed(self.seed, 2, i))
        x0 = qk.start_vector(system.n, "ones")
        started = _clock()
        try:
            trace = qk.solve(system, config, x0)
        except (qk.DivergedError, qk.NoConvergenceError) as exc:
            return _clock() - started, {}, f"{type(exc).__name__}: {exc}"
        seconds = _clock() - started
        self.counts.setdefault("iterations", []).append(trace.iterations)
        if not trace.rel_error[-1] <= TOL:
            return seconds, {}, (f"rel_error {trace.rel_error[-1]!r} above {TOL} "
                                 f"after {trace.iterations} iterations")
        return seconds, {}, None


class SweepWorkload(Workload):
    """sweep-large: `qkz sweep-q` through cli.main and harness.run."""

    min_ops = 2  # the second op checks that sweep.csv repeats byte for byte
    reference = "sweep"
    paced = "harness.solve"  # 72 calls in one op

    def argv(self, out: Path) -> list[str]:
        return [
            "sweep-q", "--family", "gaussian", "--m", str(SWEEP_M), "--n", str(SWEEP_N),
            "--beta", str(PAPER_BETA), "--method", "sampled-quantile-averaged-block",
            "--t", "2500", "--alpha", "auto", "--iters", "10", "--values", "0.5,0.6,0.7",
            "--reps", "2", "--timing", "none", "--seed", str(self.seed), "--out", str(out),
        ]

    def setup(self) -> None:
        self.first_csv: bytes | None = None

    def op(self, i: int):
        out = self.workdir / f"sweep-{i % 2}"
        started = _clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = qk.cli.main(self.argv(out))
        seconds = _clock() - started
        if code != 0:
            return seconds, {}, f"cli exit code {code}"
        data = (out / "sweep.csv").read_bytes()
        rows = data.decode().strip().splitlines()[1:]
        if len(rows) != 6:
            return seconds, {}, f"sweep.csv has {len(rows)} rows, expected 6"
        if any(row.split(",")[3] != "false" for row in rows):
            return seconds, {}, "a sweep point diverged"
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            return seconds, {}, "sweep.csv differs between two ops with the same seed"
        return seconds, {}, None


class SystemIoWorkload(Workload):
    """system-io: save_system then load_system of one paper-scale system."""

    reference = "io"

    def setup(self) -> None:
        self.spec = paper_spec(sub_seed(self.seed, 1, 0))
        self.system = qk.generate(self.spec)

    def op(self, i: int):
        out = self.workdir / "system"
        started = _clock()
        qk.save_system(self.system, out, spec=self.spec)
        saved = _clock()
        loaded = qk.load_system(out)
        done = _clock()
        parts = {"save_s": saved - started, "load_s": done - saved}
        self.counts["bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
        for field in ("matrix", "b_observed", "x_star", "corrupted_indices"):
            a, b = getattr(self.system, field), getattr(loaded, field)
            if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
                return done - started, parts, f"{field} changed in the round trip"
        return done - started, parts, None


class RateWorkload(Workload):
    """rate-desk: the sampled step-size path and the exhaustive path."""

    reference = "rate"

    def setup(self) -> None:
        self.system = qk.generate(paper_spec(sub_seed(self.seed, 1, 0),
                                             RATE_M, RATE_N, RATE_BETA))
        self.small = qk.generate(qk.GeneratorSpec(
            "gaussian", EXACT_M, EXACT_N, sub_seed(self.seed, 1, 1)))
        self.rate_seed = sub_seed(self.seed, 3)

    def prepare(self) -> None:
        # The same calls resolve_alpha_auto makes, outside it, so that the
        # checks have the spectral inputs it does not return.
        a = self.system.matrix
        self.k = math.ceil((Q - self.system.beta) * self.system.m)
        self.exact = qk.restricted_min_sv_bruteforce(self.small.matrix, EXACT_K)
        self.restricted = qk.restricted_min_sv_sampled(
            a, self.k, samples=RATE_SAMPLES, seed=self.rate_seed)
        self.s2max = self.restricted.sigma_max_sq
        self.counts["sampled_subsets"] = self.restricted.subsets_examined
        self.counts["bruteforce_subsets"] = self.exact.subsets_examined

    def op(self, i: int):
        s = self.system
        started = _clock()
        try:
            alpha, exact = qk.resolve_alpha_auto(s, Q, seed=self.rate_seed,
                                                 samples=RATE_SAMPLES)
        except (qk.NoConvergenceError, qk.ConditionViolatedError) as exc:
            return _clock() - started, {}, f"{type(exc).__name__}: {exc}"
        report = qk.rate_report(Q, s.beta, s.m, self.s2max,
                                self.restricted.sigma_restricted_min_sq, exact=exact)
        sampled_done = _clock()
        summary = qk.restricted_min_sv_bruteforce(self.small.matrix, EXACT_K)
        done = _clock()
        parts = {"rate_s": sampled_done - started, "rate_exact_s": done - sampled_done}
        closed = qk.alpha_opt_closed_form(Q, s.beta, s.m, self.s2max,
                                          self.restricted.sigma_restricted_min_sq)
        if exact or not report.condition_holds:
            return done - started, parts, "expected the sampled path with the condition holding"
        if alpha != report.alpha_opt:
            return done - started, parts, "resolve_alpha_auto disagrees with rate_report"
        if abs(report.alpha_opt - closed) > 1e-9 * abs(closed):
            return done - started, parts, "alpha_opt disagrees with the closed form"
        if (summary.subsets_examined != math.comb(EXACT_M, EXACT_K)
                or summary.sigma_restricted_min_sq != self.exact.sigma_restricted_min_sq):
            return done - started, parts, "exhaustive restricted sigma_min changed"
        return done - started, parts, None


WORKLOADS = {
    **{f"solve-paper.{m}": functools.partial(SolveWorkload, m) for m in SOLVE_METHODS},
    "sweep-large": SweepWorkload,
    "system-io": SystemIoWorkload,
    "rate-desk": RateWorkload,
}
