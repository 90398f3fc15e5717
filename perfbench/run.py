"""Benchmark entry point, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the package is imported from ``src/`` of the checkout in
fresh child processes (``worker.py``) whose BLAS uses at most as many threads
as this process has cores.  With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The last
line of standard output is the result; the line before it holds the machine
block and the detail behind each figure.  Scratch files go to
``.perfbench_work/`` in the checkout and are removed before exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh-process set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn_until_ready(cmd: list[str], env: dict[str, str]):
    """Start a worker; return it with the wall seconds until it printed READY
    and those seconds rescaled by the speed factor it prints next."""
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - started
    scale = proc.stdout.readline().split()
    if line.strip() != "READY" or len(scale) != 2 or scale[0] != "SCALE":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready: {line!r}")
    return proc, ready, ready * float(scale[1])


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(args, spec: dict, workdir: Path) -> tuple[dict, dict]:
    deadline = monotonic() + TIME_LIMIT_S
    env = machine.blas_env()
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]
    setup_wall, setup = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready, scaled = spawn_until_ready(base + ["--role", "probe"], env)
            finish(proc, deadline)
            setup_wall.append(ready)
            setup.append(scaled)
    proc, ready, scaled = spawn_until_ready(
        base + ["--role", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env)
    setup_wall.append(ready)
    setup.append(scaled)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(set(declared) - set(produced))}, extra "
                         f"{sorted(set(produced) - set(declared))}, or units differ")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {**machine.machine_block(ROOT), **result.pop("numpy")},
        "setup_wall_s": setup_wall,
        "setup_scaled_s": setup,
        **{k: v for k, v in result.items() if k not in ("metrics", "attempted", "failed")},
    }
    outcome = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return detail, outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "quantile_kaczmarz" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        detail, outcome = run(args, spec, workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
