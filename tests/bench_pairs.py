"""Alternating benchmark pairs of two source trees on one workload.

    python tests/bench_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD [PAIRS]

Copies each tree's ``src/``, ``perfbench/`` and ``BENCHMARK.json`` into one
temporary directory, as ``parent/`` and ``change/``: two paths of the same
length, since a run's ``op_s`` moves with the length of its checkout's path.
Then it runs the benchmark's command with ``--trace 0`` and ``--seconds`` set
to ``run_seconds`` of the change tree's ``BENCHMARK.json``, PAIRS times
(default 10) on each side.  Pair i runs both sides with seed 300 + i, and the
side that runs first alternates from pair to pair.  For each end-to-end metric
and for the raw ``op_wall_s`` it prints each side's median and Q1-Q3 and in
how many pairs the change was better (a tie counts for neither side), then
each side's failed operations.  The copies are removed before it exits, and
every run has ended by then.  It exits 1 if a run failed.
pytest does not collect this file.
"""
from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
COPIED = ("src", "perfbench", "BENCHMARK.json")
FIRST_SEED = 301


def copy_tree(tree: Path, dest: Path) -> None:
    dest.mkdir()
    for name in COPIED:
        if (tree / name).is_dir():
            shutil.copytree(tree / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(tree / name, dest / name)


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """The detail and outcome lines of one untraced benchmark run."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    detail, outcome = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(outcome)


def spread(values: list[float]) -> str:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {side: Path(arg).resolve() for side, arg in zip(SIDES, argv)}
    workload, pairs = argv[2], int(argv[3]) if len(argv) == 4 else 10
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]] + [("op_wall_s", "lower")]
    values: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    failed_ops = dict.fromkeys(SIDES, 0)
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        for side in SIDES:
            copy_tree(trees[side], scratch / side)
        for i in range(pairs):
            seed = FIRST_SEED + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                detail, outcome = run_once(scratch / side, spec["command"], workload, seed,
                                           spec["run_seconds"])
                failed_ops[side] += outcome["failed"]
                got = {name: m["value"] for name, m in outcome["metrics"].items()}
                got["op_wall_s"] = detail["detail"]["op_wall_s"]
                for name, _ in metrics:
                    values[side].setdefault(name, []).append(got[name])
                print(f"pair {i + 1} seed {seed} {side}: "
                      + ", ".join(f"{name} {got[name]:.4g}" for name, _ in metrics),
                      file=sys.stderr, flush=True)
    except (RuntimeError, KeyError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{workload}: {pairs} pairs, seeds {FIRST_SEED}-{FIRST_SEED + pairs - 1}, "
          f"run_seconds {spec['run_seconds']}; median [Q1, Q3]")
    for name, better in metrics:
        parent, change = values["parent"][name], values["change"][name]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        delta = statistics.median(change) / statistics.median(parent) - 1.0
        print(f"  {name}: parent {spread(parent)}, change {spread(change)}, "
              f"{delta:+.1%}, change better in {wins} of {pairs}")
    print(f"  failed ops: parent {failed_ops['parent']}, change {failed_ops['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
