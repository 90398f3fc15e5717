"""The ``--timing none`` artifact matrix: run a fixed list of CLI commands
against one source tree and keep everything they leave behind.

    python tests/artifact_matrix.py TREE OUT

``TREE`` is a checkout that holds ``src/quantile_kaczmarz``.  Each command
runs as ``python -m quantile_kaczmarz.cli`` with ``TREE/src`` on the path,
in its own directory ``OUT/<case>/``, and writes its artifacts there under
relative paths, beside ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.
Within one build every artifact is byte-identical, so running the matrix on
two trees and comparing them with ``diff -r OUT_A OUT_B`` shows exactly what
a change does to the program's output.  pytest does not collect this file.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

DESK = ["--m", "200", "--n", "10", "--beta", "0.1", "--seed", "1"]
EXACT = ["--m", "14", "--n", "3", "--beta", "0", "--seed", "6", "--q", "0.5"]
# k = 10 of 20 rows: 15 chunks of subsets, each a 4-row prefix and a suffix
EXACT_PREFIXES = ["--m", "20", "--n", "4", "--beta", "0", "--seed", "6", "--q", "0.5"]
# k = 10 < 2n: every subset's Gram matrix is bounded by the det-trace test
EXACT_WIDE = ["--m", "20", "--n", "7", "--beta", "0", "--seed", "6", "--q", "0.5"]
# k = 29 < 2n at n = 28: the det-trace test has no margin, so no bound
EXACT_UNBOUNDED = ["--m", "30", "--n", "28", "--beta", "0", "--seed", "6", "--q", "0.95"]
# k = 1 < 2n at n = 1: a 1x1 Gram matrix has no det-trace bound either
EXACT_SINGLE_COLUMN = ["--m", "20", "--n", "1", "--beta", "0", "--seed", "6", "--q", "0.05"]
SAMPLED = ["--m", "2000", "--n", "50", "--beta", "0.02", "--seed", "5"]
NONE = ["--timing", "none"]
OUT = ["--out", "out"]

CASES: dict[str, list[str]] = {
    # run, one per method and per step-size route
    "run-explicit-svg": ["run", *DESK, "--method", "quantile-averaged-block", "--alpha", "10",
                         "--iters", "40", "--svg", *NONE, *OUT],
    "run-auto-exact": ["run", *EXACT, "--method", "quantile-averaged-block", "--iters", "20",
                       *NONE, *OUT],
    "run-auto-exact-prefixes": ["run", *EXACT_PREFIXES, "--method", "quantile-averaged-block",
                                "--iters", "20", *NONE, *OUT],
    "run-auto-exact-sampled": ["run", *EXACT, "--method", "sampled-quantile-averaged-block",
                               "--t", "10", "--iters", "20", *NONE, *OUT],
    "run-auto-sampled": ["run", *SAMPLED, "--method", "quantile-averaged-block", "--iters", "20",
                         *NONE, *OUT],
    "run-auto-sampled-sampled": ["run", *SAMPLED, "--method", "sampled-quantile-averaged-block",
                                 "--t", "1000", "--iters", "20", *NONE, *OUT],
    "run-rk": ["run", *DESK, "--method", "rk", "--iters", "60", *NONE, *OUT],
    "run-quantile-rk": ["run", *DESK, "--method", "quantile-rk", "--t", "100", "--iters", "60",
                        *NONE, *OUT],
    "run-quantile-rk-kept": ["run", *DESK, "--method", "quantile-rk", "--iters", "60",
                             *NONE, *OUT],
    "run-quantile-rk-gather": ["run", *SAMPLED, "--method", "quantile-rk", "--t", "5",
                               "--iters", "60", *NONE, *OUT],
    # the kept residual across three of its 524-step blocks at 2000x50
    "run-quantile-rk-blocks": ["run", *SAMPLED, "--method", "quantile-rk", "--t", "100",
                               "--iters", "1200", *NONE, *OUT],
    "run-projective": ["run", *DESK, "--method", "quantile-projective-block", "--iters", "10",
                       *NONE, *OUT],
    "run-averaged-block": ["run", *DESK, "--method", "averaged-block", "--alpha", "5",
                           "--block-size", "20", "--iters", "40", *NONE, *OUT],
    "run-condition-fails": ["run", "--m", "200", "--n", "10", "--beta", "0.2", "--seed", "1",
                            "--method", "quantile-averaged-block", *NONE, *OUT],
    "run-diverges": ["run", *DESK, "--method", "quantile-averaged-block", "--alpha", "1e6",
                     "--iters", "40", *NONE, *OUT],
    "run-averaged-block-auto": ["run", *DESK, "--method", "averaged-block", "--block-size", "20",
                                *NONE, *OUT],
    "run-below-column-count": ["run", "--m", "20", "--n", "10", "--beta", "0.1", "--seed", "1",
                               "--q", "0.5", "--method", "quantile-averaged-block", *NONE, *OUT],
    # sweeps
    "sweep-alpha-svg": ["sweep-alpha", *DESK, "--values", "1,5,20", "--svg", *NONE, *OUT],
    "sweep-alpha-small": ["sweep-alpha", "--m", "100", "--n", "5", "--seed", "2",
                          "--values", "0.5,2,8", *NONE, *OUT],
    "sweep-q-explicit": ["sweep-q", *DESK, "--alpha", "10", "--values", "0.5,0.7,0.9",
                         *NONE, *OUT],
    "sweep-q-auto": ["sweep-q", *DESK, "--method", "quantile-averaged-block",
                     "--values", "0.5,0.7", *NONE, *OUT],
    # more repetitions than cores: window boundaries on machines with up to 4
    "sweep-q-auto-reps": ["sweep-q", *DESK, "--method", "quantile-averaged-block",
                          "--values", "0.5,0.7", "--reps", "5", *NONE, *OUT],
    "sweep-q-auto-sampled": ["sweep-q", *DESK, "--method", "sampled-quantile-averaged-block",
                             "--t", "100", "--values", "0.5,0.7", *NONE, *OUT],
    "sweep-q-quantile-rk": ["sweep-q", *DESK, "--method", "quantile-rk", "--t", "100",
                            "--values", "0.5,0.8", *NONE, *OUT],
    "sweep-t-explicit": ["sweep-t", *DESK, "--method", "sampled-quantile-averaged-block",
                         "--alpha", "10", "--values", "50,100,200", *NONE, *OUT],
    "sweep-t-auto-exact": ["sweep-t", *EXACT, "--method", "sampled-quantile-averaged-block",
                           "--values", "8,14", *NONE, *OUT],
    "sweep-t-auto-sampled": ["sweep-t", "--m", "2000", "--n", "50", "--beta", "0.02",
                             "--seed", "0", "--method", "sampled-quantile-averaged-block",
                             "--values", "500,1000,2000", *NONE, *OUT],
    "sweep-t-quantile-rk": ["sweep-t", *DESK, "--method", "quantile-rk",
                            "--values", "50,200", *NONE, *OUT],
    # compare
    "compare-explicit-svg": ["compare", *DESK, "--alpha", "10", "--block-size", "20",
                             "--methods", "rk,quantile-rk,averaged-block,quantile-averaged-block",
                             "--iters", "30", "--svg", *NONE, *OUT],
    "compare-five": ["compare", *DESK, "--alpha", "10", "--t", "100", "--iters", "30",
                     "--methods", "rk,quantile-rk,quantile-averaged-block,"
                                  "sampled-quantile-averaged-block,quantile-projective-block",
                     *NONE, *OUT],
    "compare-auto-exact": ["compare", *EXACT, "--t", "10", "--iters", "20", "--methods",
                           "quantile-averaged-block,sampled-quantile-averaged-block",
                           *NONE, *OUT],
    "compare-auto-sampled": ["compare", *SAMPLED, "--t", "1000", "--iters", "20", "--methods",
                             "quantile-averaged-block,sampled-quantile-averaged-block",
                             *NONE, *OUT],
    "compare-auto-no-step-size": ["compare", *DESK, "--iters", "20",
                                  "--methods", "rk,quantile-projective-block", *NONE, *OUT],
    "compare-auto-averaged-block": ["compare", *DESK, "--block-size", "20", "--methods",
                                    "quantile-averaged-block,averaged-block", *NONE, *OUT],
    # adversarial demo; the second's projective steps meet Gram matrices that
    # duplicated rows make singular, and take their pseudoinverse
    "adversarial-small": ["adversarial-demo", "--n", "10", "--clean-rows", "50",
                          "--dup-rows", "10", "--iters", "20", *NONE, *OUT],
    "adversarial-ridge": ["adversarial-demo", "--n", "100", "--clean-rows", "29",
                          "--dup-rows", "2", "--target", "0", *NONE, *OUT],
    "adversarial-default": ["adversarial-demo", *NONE, *OUT],
    # rate and generate
    "rate-exact": ["rate", *EXACT, "--json-out", "rate.json"],
    "rate-exact-prefixes": ["rate", *EXACT_PREFIXES, "--json-out", "rate.json"],
    "rate-exact-wide": ["rate", *EXACT_WIDE, "--json-out", "rate.json"],
    "rate-exact-unbounded": ["rate", *EXACT_UNBOUNDED, "--json-out", "rate.json"],
    "rate-exact-single-column": ["rate", *EXACT_SINGLE_COLUMN, "--json-out", "rate.json"],
    "rate-sampled": ["rate", *SAMPLED, "--q", "0.7"],
    "rate-below-column-count": ["rate", "--m", "20", "--n", "10", "--beta", "0.1",
                                "--q", "0.5"],
    "rate-condition-fails": ["rate", "--m", "200", "--n", "10", "--beta", "0.2", "--seed", "1",
                             "--q", "0.7", "--json-out", "rate.json"],
    "generate": ["generate", *DESK, *OUT],
    # several of row_normalize's row blocks, the last one short
    "generate-row-blocks": ["generate", "--family", "coherent", "--m", "5000", "--n", "50",
                            "--beta", "0.2", "--seed", "3", *OUT],
}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for name, args in CASES.items():
        case = out / name
        case.mkdir(parents=True)
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "quantile_kaczmarz.cli", *args],
                              cwd=case, env=env, capture_output=True, text=True)
        (case / "stdout.txt").write_text(done.stdout)
        (case / "stderr.txt").write_text(done.stderr)
        (case / "exit_code.txt").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}, {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
