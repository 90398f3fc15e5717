"""Benchmark child process.

Roles:

- ``run``: import the package from the checkout, build the workload's inputs,
  print ``READY`` (the parent times set-up up to this line), then measure
  and print one JSON line.
- ``probe``: the same set-up, then exit; the parent repeats it to take the
  median set-up time.
- ``import-probe``: time ``import quantile_kaczmarz.cli`` in a fresh process.
- ``step-baseline``: replay the solve-paper step kernels on saved states;
  the traced run starts it with BLAS limited to one thread.
"""
from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter as _clock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE_SHARE = 0.1  # share of a run's time spent on its reference kernel
SETUP_REFERENCE_RUNS = 5


def import_package():
    sys.path.insert(0, str(SRC))
    import quantile_kaczmarz

    where = Path(quantile_kaczmarz.__file__).resolve().parent
    if where != SRC / "quantile_kaczmarz":
        raise SystemExit(f"imported quantile_kaczmarz from {where}, not from the checkout")
    return quantile_kaczmarz


def tail(values: list[float]) -> dict | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = {"p": p, "value": statistics.quantiles(values, n=1000)[int(p * 10) - 1]}
    return best


def _summary(values: list) -> dict:
    return {"n": len(values), "min": min(values), "median": statistics.median(values),
            "max": max(values)}


def _per_system_median(samples: list[tuple[int, float]]) -> float:
    """Median over systems of each system's median op time.  The inner
    median resists timing noise, the outer one the few systems whose solve
    is far slower than the rest."""
    per_system: dict[int, list[float]] = {}
    for system, secs in samples:
        per_system.setdefault(system, []).append(secs)
    return statistics.median(statistics.median(v) for v in per_system.values())


def paced(package, target: str, before_call):
    """Replace the package function ``target`` ("module.name") in its module
    with a wrapper that calls ``before_call()`` first; return a function
    that puts the original back, or None if the package has no such name."""
    module_name, name = target.split(".")
    module = getattr(package, module_name, None)
    original = getattr(module, name, None)
    if original is None:
        return None

    @functools.wraps(original)
    def call(*args, **kwargs):
        before_call()
        return original(*args, **kwargs)

    setattr(module, name, call)
    return lambda: setattr(module, name, original)


def measure(workload, seconds: float) -> dict:
    """Closed loop: one op at a time until ``seconds`` have passed and at
    least ``min_ops`` ops ran.  The workload's reference kernel runs for a
    tenth of the elapsed time, and the op time is rescaled by the run's
    median reference time (see reference.py).  The reference runs between
    ops and, for a workload with a ``paced`` function, also before each call
    of that function inside an op; the time it took there is taken off the
    op's time."""
    import quantile_kaczmarz
    from reference import Reference

    workload.prepare()
    parts: dict[str, list[float]] = {}
    attempted, errors = 0, []
    ref = Reference(workload.reference)
    ref.run()
    ref.times.clear()  # the first call pays for warm-up
    samples = []  # (system, wall seconds) of each correct op
    ref_total = 0.0  # seconds the reference ran in this run
    in_op = 0.0  # seconds the reference ran inside the current op

    def keep_reference_share() -> float:
        nonlocal ref_total
        ran = 0.0
        while not ref.times or ref_total < REFERENCE_SHARE * (_clock() - started):
            once = ref.run()
            ref_total += once
            ran += once
        return ran

    def pace() -> None:
        nonlocal in_op
        in_op += keep_reference_share()

    restore = paced(quantile_kaczmarz, workload.paced, pace) if workload.paced else None
    started = _clock()
    try:
        while attempted < workload.min_ops or _clock() - started < seconds:
            keep_reference_share()
            in_op = 0.0
            secs, op_parts, error = workload.op(attempted)
            secs -= in_op
            if error is None:
                samples.append((attempted % workload.systems, secs))
                for name, value in op_parts.items():
                    parts.setdefault(name, []).append(value)
            else:
                errors.append(error)
            attempted += 1
        elapsed = _clock() - started
    finally:
        if restore is not None:
            restore()
    keep_reference_share()
    times = [secs for _, secs in samples]
    op_wall = _per_system_median(samples) if samples else 0.0
    return {
        "metrics": {"op_s": (ref.scale(op_wall), "s"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                    "MB")},
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "detail": {
            "measured_s": elapsed,
            "op_wall_s": op_wall,
            "paced": restore is not None,
            "reference": {"kind": ref.kind, "median_s": ref.median(), "runs": len(ref.times)},
            "ops": len(times),
            "op_median_s": statistics.median(times) if times else None,
            "op_tail_s": tail(times),
            "parts_median_s": {k: statistics.median(v) for k, v in parts.items()},
            "counts": {k: _summary(v) if isinstance(v, list) else v
                       for k, v in workload.counts.items()},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", required=True,
                        choices=("run", "probe", "import-probe", "step-baseline"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args()

    if args.role == "import-probe":
        started = _clock()
        sys.path.insert(0, str(SRC))
        import quantile_kaczmarz.cli  # noqa: F401

        print(json.dumps({"import_ms": (_clock() - started) * 1e3}))
        return 0

    import_package()
    import workloads
    from reference import Reference

    if args.role == "step-baseline":
        import numpy as np

        import layers

        states = dict(np.load(args.workdir / "states.npz"))
        system = workloads.qk.generate(
            workloads.paper_spec(workloads.sub_seed(args.seed, 1, 0)))
        print(json.dumps(layers.replay_steps(system, states, args.seed)))
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    print("READY", flush=True)
    setup_ref = Reference("setup")
    for _ in range(SETUP_REFERENCE_RUNS + 1):
        setup_ref.run()
    del setup_ref.times[0]
    print(f"SCALE {setup_ref.scale(1.0)!r}", flush=True)
    if args.role == "probe":
        return 0

    if args.trace:
        import layers

        result = layers.run_profile(workload, args.seed, args.seconds, args.workdir,
                                    Path(__file__).resolve())
    else:
        result = measure(workload, args.seconds)
    import machine

    result["numpy"] = machine.numpy_block()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
