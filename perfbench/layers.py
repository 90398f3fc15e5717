"""The traced run: per-layer numbers for the modules problems, linalg,
solvers, rates, harness and cli.

Every traced run executes the same layer profile on inputs made from the
seed -- one traced operation of each workload kind, the step kernels replayed
on a solve's own iterates, a single-threaded replay in a child process, and
fresh-process import probes -- so every per-layer metric is measured on every
traced run.  It also measures the tracing overhead of the named workload: the
same operation run untraced and traced, in alternation.
"""
from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import quantile_kaczmarz as qk
import workloads as wl
from machine import blas_env
from tracer import Tracer

LAYERS = ("problems", "linalg", "solvers", "rates", "harness", "cli")
CERTIFY_ALPHA = 100.0  # certify_iteration needs alpha <= 2|tau|/sigma_max^2 (about 116 here)
CERTIFY_STEPS = 8
REPLAY_SAMPLES = 60  # step replays per method
QRK_REPLAY_STATES = 300

STEP_NAMES = {
    "quantile-averaged-block": "solvers.quantile_abk_step",
    "sampled-quantile-averaged-block": "solvers.sampled_qabk_step",
    "quantile-rk": "solvers.quantile_rk_step",
}


def _ms(ns: float) -> float:
    return ns / 1e6


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        started = _clock()
        fn()
        times.append(_clock() - started)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Step replays, shared by the default-thread run and the single-thread child


def step_call(method: str, system, x, rng):
    a, b = system.matrix, system.b_observed
    params = wl.SOLVE_METHODS[method]
    if method == "quantile-averaged-block":
        return qk.quantile_abk_step(a, b, x, wl.Q, params["alpha"])
    if method == "sampled-quantile-averaged-block":
        return qk.sampled_qabk_step(a, b, x, wl.Q, params["t"], params["alpha"], rng)
    return qk.quantile_rk_step(a, b, x, wl.Q, params["t"], rng)


def replay_steps(system, states: dict[str, np.ndarray], seed: int) -> dict[str, float]:
    """Median milliseconds of each method's public step function, replayed
    on the states (iterates) its own solve passed through."""
    out = {}
    for method, xs in states.items():
        rng = np.random.default_rng(seed)
        times = []
        for r in range(max(1, math.ceil(REPLAY_SAMPLES / len(xs)))):
            for x in xs:
                started = _clock()
                step_call(method, system, x, rng)
                times.append(_clock() - started)
        out[method] = statistics.median(times) * 1e3
    return out


def computed_bytes_per_step(method: str, m: int, n: int, tau: float) -> float:
    """Bytes the step's NumPy operations read and write, computed from the
    array sizes (8-byte floats and indices, 1-byte masks).  Cache reuse is
    ignored, so this is traffic as computed, not measured bandwidth."""
    params = wl.SOLVE_METHODS[method]

    def select(rows: float) -> float:
        # matvec reads A rows, b, writes r; abs; partition copy; mask; index list
        return 8 * rows * n + 16 * rows + 16 * rows + 16 * rows + 9 * rows + rows + 8 * tau

    if method == "quantile-averaged-block":
        # select, gather A[tau] and r[tau], A_tau^T r_tau, x update
        return select(m) + 16 * tau * n + 16 * tau + 8 * tau * n + 8 * tau + 24 * n
    if method == "sampled-quantile-averaged-block":
        t = params["t"]
        sample = 8 * t + 16 * t * n + 16 * t  # indices, gather A[sample] and b[sample]
        return sample + select(t) + 16 * tau * n + 16 * tau + 8 * tau * n + 8 * tau + 24 * n
    t = params["t"]
    return 8 * t + 16 * t * n + 16 * t + 8 * t * n + 16 * t + 32 * t + 16 * n + 24 * n


# ---------------------------------------------------------------------------
# Profile


class Profile:
    def __init__(self, seed: int, workdir: Path, worker: Path):
        self.seed = seed
        self.workdir = workdir
        self.worker = worker
        self.tracer = Tracer(qk, LAYERS)
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, error: str | None, what: str) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{what}: {error}")

    def traced_op(self, workload, i: int = 0):
        self.tracer.op += 1
        with self.tracer:
            return workload.op(i)

    def spans(self, name: str):
        return [s for s in self.tracer.spans if s.name == name and s.op == self.tracer.op]

    # -- workload kinds ---------------------------------------------------

    def solves(self) -> None:
        t = self.tracer
        t.op += 1
        with t:
            systems = [qk.generate(wl.paper_spec(wl.sub_seed(self.seed, 1, i)))
                       for i in range(3)]
        self.put("problems.generate_ms.10000x100",
                 statistics.median(_ms(s.ns) for s in self.spans("problems.generate")), "ms")
        system = systems[0]
        x0 = qk.start_vector(system.n, "ones")
        states = {}
        for method in wl.SOLVE_METHODS:
            t.op += 1
            config = wl.solver_config(method, wl.sub_seed(self.seed, 2, 0))
            with t:
                try:
                    trace = qk.solve(system, config, x0, keep_iterates=True)
                    error = None if trace.rel_error[-1] <= wl.TOL else "tolerance not reached"
                except qk.DivergedError as exc:
                    trace, error = exc.trace, f"DivergedError: {exc}"
            self.check(error, f"solve {method}")
            xs = [x0] + trace.iterates[:-1]
            if method == "quantile-rk":
                picks = np.linspace(0, len(xs) - 1, min(QRK_REPLAY_STATES, len(xs))).astype(int)
                xs = [xs[k] for k in picks]
                accepted = np.count_nonzero(trace.tau_size) / trace.iterations
            else:
                rows = config.t or system.m  # the sampled step tests t rows
                accepted = statistics.mean(trace.tau_size) / rows
            states[method] = np.array(xs)
            self.put(f"solvers.iters.{method}", trace.iterations, "count")
            self.put(f"solvers.accept_ratio.{method}", accepted, "ratio")
            self.put(f"solvers.bytes_per_step.{method}",
                     computed_bytes_per_step(method, system.m, system.n,
                                             statistics.median(trace.tau_size)), "B")
            if method == "quantile-rk":
                solve_span = self.spans("solvers.solve")[0]
                steps = sum(s.ns for s in self.spans(STEP_NAMES[method]))
                self.put("solvers.driver_us_per_iter",
                         (solve_span.ns - steps) / 1e3 / trace.iterations, "us")

        # Untraced replays of the step kernels and of the parts of one step.
        for method, ms in replay_steps(system, states, self.seed).items():
            self.put(f"solvers.step_ms.{method}", ms, "ms")
        self.step_parts(system, states["quantile-averaged-block"])
        np.savez(self.workdir / "states.npz", **states)
        for method, ms in self.single_thread_steps().items():
            self.put(f"solvers.step_ms_1t.{method}", ms, "ms")
        self.certify(system)

    def step_parts(self, system, xs) -> None:
        a, b = system.matrix, system.b_observed
        alpha = wl.SOLVE_METHODS["quantile-averaged-block"]["alpha"]
        reps = max(1, math.ceil(REPLAY_SAMPLES / len(xs)))
        res, sel, upd = [], [], []
        for x in xs:
            r = qk.residual(a, b, x)
            _, stats = qk.quantile_abk_step(a, b, x, wl.Q, alpha)
            abs_r = np.abs(r)
            res.append(_median_time(lambda: qk.residual(a, b, x), reps))
            sel.append(_median_time(lambda: qk.quantile_of_multiset(abs_r, wl.Q), reps))
            upd.append(_median_time(
                lambda: qk.averaged_rbk_step(a, b, x, stats.tau, alpha), reps))
        self.put("solvers.residual_ms", statistics.median(res) * 1e3, "ms")
        self.put("solvers.select_ms", statistics.median(sel) * 1e3, "ms")
        self.put("solvers.update_ms", statistics.median(upd) * 1e3, "ms")

    def single_thread_steps(self) -> dict[str, float]:
        """The same replays in a child process whose BLAS uses one thread."""
        proc = subprocess.run(
            [sys.executable, str(self.worker), "--role", "step-baseline",
             "--seed", str(self.seed), "--workdir", str(self.workdir)],
            env=blas_env(threads=1), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"single-thread baseline failed: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def certify(self, system) -> None:
        config = qk.SolverConfig("quantile-averaged-block", q=wl.Q, alpha=CERTIFY_ALPHA,
                                 max_iters=CERTIFY_STEPS, seed=0)
        x0 = qk.start_vector(system.n, "ones")
        trace = qk.solve(system, config, x0, keep_iterates=True)
        xs = [x0] + trace.iterates
        # The check's spectral input comes from eigvalsh, not from
        # linalg.sigma_max_sq, whose power iteration fails on a few
        # 10000x100 systems.
        s2max = float(np.linalg.eigvalsh(system.matrix.T @ system.matrix)[-1])
        self.tracer.op += 1
        for k in range(CERTIFY_STEPS):
            x_next, stats = qk.quantile_abk_step(system.matrix, system.b_observed, xs[k],
                                                 wl.Q, CERTIFY_ALPHA)
            error = None if np.array_equal(x_next, xs[k + 1]) else "step replay differs"
            with self.tracer:
                result = qk.certify_iteration(system, xs[k], xs[k + 1], wl.Q, CERTIFY_ALPHA,
                                              stats.tau, sigma_max_sq_value=s2max)
            self.check(error or (None if result.passed() else "a bound failed"),
                       f"certify step {k}")
        self.put("rates.certify_ms",
                 statistics.median(_ms(s.ns) for s in self.spans("rates.certify_iteration")),
                 "ms")

    def sweep(self) -> None:
        w = wl.SweepWorkload(self.seed, self.workdir)
        w.setup()
        _, _, error = self.traced_op(w)
        self.check(error, "sweep")
        t = self.tracer
        run = self.spans("harness.run")[0]
        inside = t.descendants(run)
        solves = [s for s in inside if s.name == "solvers.solve"]
        generates = [s for s in inside if s.name == "problems.generate"]
        self.put("harness.run_self_ms",
                 _ms(run.ns - sum(s.ns for s in solves + generates)), "ms")
        self.put("harness.trial_solves",
                 sum(1 for s in solves if t.under(s, "harness.empirical_alpha")), "count")
        self.put("solvers.solves", len(solves), "count")
        self.put("harness.empirical_alpha_ms",
                 statistics.median(_ms(s.ns) for s in self.spans("harness.empirical_alpha")),
                 "ms")
        step = STEP_NAMES["sampled-quantile-averaged-block"]
        setup = [_ms(s.ns - sum(c.ns for c in t.children(s, step))) for s in solves]
        self.put("solvers.setup_ms", statistics.median(setup), "ms")
        self.put("linalg.is_row_normalized_ms",
                 statistics.median(_ms(s.ns) for s in self.spans("linalg.is_row_normalized")),
                 "ms")
        self.put("problems.corrupted_mask_ms",
                 statistics.median(_ms(s.ns) for s in
                                   self.spans("problems.CorruptedSystem.corrupted_mask")), "ms")
        self.put("problems.generate_ms.50000x200",
                 statistics.median(_ms(s.ns) for s in generates), "ms")

    def system_io(self) -> None:
        w = wl.SystemIoWorkload(self.seed, self.workdir)
        w.setup()
        _, _, error = self.traced_op(w)
        self.check(error, "system-io")
        self.put("problems.save_ms", _ms(self.spans("problems.save_system")[0].ns), "ms")
        self.put("problems.load_ms", _ms(self.spans("problems.load_system")[0].ns), "ms")
        self.put("problems.bytes_written", w.counts["bytes_written"], "B")

    def rate(self) -> None:
        w = wl.RateWorkload(self.seed, self.workdir)
        t = self.tracer
        t.op += 1
        with t:
            w.setup()
        gens = self.spans("problems.generate")
        self.put("problems.generate_ms.2000x50", _ms(gens[0].ns), "ms")
        self.put("problems.generate_ms.20x4", _ms(gens[1].ns), "ms")
        w.prepare()
        _, _, error = self.traced_op(w)
        self.check(error, "rate-desk")
        resolve = self.spans("rates.resolve_alpha_auto")[0]
        linalg_children = sum(s.ns for s in t.children(resolve) if s.layer == "linalg")
        self.put("rates.resolve_alpha_auto_self_ms", _ms(resolve.ns - linalg_children), "ms")
        self.put("rates.rate_report_us",
                 statistics.median(s.ns for s in self.spans("rates.rate_report")) / 1e3, "us")
        sampled = self.spans("linalg.restricted_min_sv_sampled")[0]
        self.put("linalg.restricted_sampled_ms_per_subset",
                 _ms(sampled.ns - _child_ns(t, sampled, "linalg.sigma_max_sq"))
                 / wl.RATE_SAMPLES, "ms")
        self.put("linalg.sigma_max_sq_ms",
                 _ms(_child_ns(t, resolve, "linalg.sigma_max_sq")), "ms")
        chunk = min(wl.RATE_SAMPLES, 4096) * w.k * wl.RATE_N * 8
        self.put("linalg.restricted_chunk_mb", chunk / 1e6, "MB")
        brute = self.spans("linalg.restricted_min_sv_bruteforce")[0]
        self.put("linalg.bruteforce_subsets_per_s",
                 w.exact.subsets_examined
                 / ((brute.ns - _child_ns(t, brute, "linalg.sigma_max_sq")) / 1e9), "1/s")
        self.put("linalg.sampled_subsets", w.counts["sampled_subsets"], "count")
        self.put("linalg.bruteforce_subsets", w.counts["bruteforce_subsets"], "count")

    def import_probes(self, count: int = 5) -> None:
        times = []
        for _ in range(count):
            proc = subprocess.run(
                [sys.executable, str(self.worker), "--role", "import-probe"],
                env=blas_env(), capture_output=True, text=True, timeout=60,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"import probe failed: {proc.stderr[-2000:]}")
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_ms"])
        self.put("cli.import_ms", statistics.median(times), "ms")

    def layer_totals(self) -> None:
        for layer, ms in self.tracer.layer_self_ms().items():
            self.put(f"{layer}.self_ms", ms, "ms")


def _child_ns(tracer: Tracer, span, name: str) -> int:
    return sum(s.ns for s in tracer.children(span, name))


def tracing_overhead(workload, seconds: float, profile: Profile) -> dict[str, float]:
    """The named workload's operation run untraced and traced on the same
    input, alternated; at least one pair, more while half the run allows."""
    tracer = Tracer(qk, LAYERS)
    plain, traced = [], []
    started = _clock()
    i = 0
    while not plain or _clock() - started < seconds / 2:
        for times, install in ((plain, False), (traced, True)):
            if install:
                tracer.install()
            try:
                secs, _, error = workload.op(i)
            finally:
                tracer.uninstall()
            times.append(secs)
            profile.check(error, "overhead op")
        i += 1
    base, with_trace = statistics.median(plain), statistics.median(traced)
    return {"untraced_s": base, "traced_s": with_trace, "pairs": len(plain),
            "overhead_s": with_trace - base, "overhead_frac": (with_trace - base) / base}


def run_profile(workload, seed: int, seconds: float, workdir: Path, worker: Path) -> dict:
    workload.prepare()
    profile = Profile(seed, workdir, worker)
    overhead = tracing_overhead(workload, seconds, profile)
    profile.solves()
    profile.sweep()
    profile.system_io()
    profile.rate()
    profile.import_probes()
    profile.layer_totals()
    return {
        "metrics": profile.metrics,
        "attempted": profile.attempted,
        "failed": len(profile.errors),
        "errors": profile.errors[:5],
        "tracing_overhead": overhead,
        "spans": len(profile.tracer.spans),
    }
