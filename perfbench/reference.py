"""Reference kernels that track this machine's speed during a run.

A 2-vCPU KVM guest (Intel Xeon, numpy 2.4.6, OpenBLAS 0.3.31) drifted
between about 1x and 2x its fastest speed in phases of 10-40 s, so plain wall
times of one run spread by 15-25% from run to run.  Each workload therefore times, interleaved with its
ops, a fixed kernel that does the same kind of work as its op -- the same
mix of BLAS, memory traffic, selection and interpreter overhead -- on fixed
inputs and without any package code.  A change to the package cannot move a
reference kernel; a change of machine speed moves both.  The benchmark then
reports ``wall time * NOMINAL_S[kind] / median reference time`` of the run:
seconds at the machine speed at which the reference kernel takes
``NOMINAL_S[kind]``.
"""
from __future__ import annotations

import io
import statistics
from time import perf_counter as _clock

import numpy as np

# Median reference times on a 2-core Xeon (Sapphire Rapids) KVM guest,
# numpy 2.4.6, OpenBLAS 0.3.31 with 2 threads.  They only set the scale.
NOMINAL_S = {
    "block": 0.0091,
    "row": 0.0134,
    "sweep": 0.0143,
    "io": 0.0100,
    "rate": 0.0130,
    "setup": 0.0111,
}


class Reference:
    """One reference kernel; inputs are built once, from a fixed seed."""

    def __init__(self, kind: str):
        self.kind = kind
        self.times: list[float] = []
        rng = np.random.default_rng(20220624)
        if kind in ("block", "row"):
            self.a = rng.standard_normal((10000, 100))
            self.b = rng.standard_normal(10000)
            self.rng = rng
        elif kind == "sweep":
            self.a = rng.standard_normal((10000, 200))
            self.b = rng.standard_normal(10000)
            self.rng = rng
        elif kind == "io":
            self.values = rng.standard_normal(8000)
        elif kind == "rate":
            self.a = rng.standard_normal((2000, 50))
            self.rng = rng

    def run(self) -> float:
        kernel = getattr(self, f"_{self.kind}")
        started = _clock()
        kernel()
        seconds = _clock() - started
        self.times.append(seconds)
        return seconds

    def median(self) -> float:
        return statistics.median(self.times)

    def scale(self, seconds: float) -> float:
        """``seconds`` rescaled to the nominal machine speed."""
        return seconds * NOMINAL_S[self.kind] / self.median()

    # -- kernels ------------------------------------------------------------

    def _block(self) -> None:
        # Full-residual quantile step: matvec, selection, gather, update.
        x = np.ones(100)
        for _ in range(4):
            r = self.a @ x - self.b
            abs_r = np.abs(r)
            threshold = np.partition(abs_r, 6999)[6999]
            tau = np.flatnonzero(abs_r < threshold)
            x = x - (1e-4 / tau.size) * (self.a[tau].T @ r[tau])
        _interpreter(1500)

    def _row(self) -> None:
        # Sampled single-row step: draw, gather, small matvec, selection.
        x = np.ones(100)
        for _ in range(40):
            sample = self.rng.choice(10000, size=1000, replace=False)
            abs_r = np.abs(self.a[sample] @ x - self.b[sample])
            threshold = float(np.partition(abs_r, 699)[699])
            j = int(self.rng.integers(10000))
            gap = self.a[j] @ x - self.b[j]
            if abs(gap) < threshold:
                x = x - 1e-3 * gap * self.a[j]
            _interpreter(10)

    def _sweep(self) -> None:
        # Per-solve validation streams the matrix; sampled steps gather rows.
        bool(np.all(np.isfinite(self.a)))
        float(np.max(np.abs(np.linalg.norm(self.a, axis=1) - 1.0)))
        x = np.ones(200)
        for _ in range(3):
            sample = self.rng.choice(10000, size=500, replace=False)
            r = self.a[sample] @ x - self.b[sample]
            keep = np.abs(r) < np.partition(np.abs(r), 349)[349]
            x = x - 1e-4 * (self.a[sample[keep]].T @ r[keep])
        _interpreter(300)

    def _io(self) -> None:
        # Text round trip: 17-digit formatting in Python, parsing in C.
        lines = [",".join(format(float(v), ".17g") for v in self.values[i:i + 100])
                 for i in range(0, self.values.size, 100)]
        np.loadtxt(io.StringIO("\n".join(lines)), delimiter=",", ndmin=2)

    def _rate(self) -> None:
        # Batched Gram matrices of sampled row subsets and their eigenvalues.
        idx = np.stack([self.rng.choice(2000, size=1360, replace=False) for _ in range(2)])
        sub = self.a[idx]
        np.linalg.eigvalsh(np.einsum("ckn,ckm->cnm", sub, sub))
        small = self.a[:20, :4]
        combos = np.array([np.sort(self.rng.choice(20, 10, replace=False)) for _ in range(512)])
        s = small[combos]
        np.linalg.eigvalsh(np.einsum("ckn,ckm->cnm", s, s))

    def _setup(self) -> None:
        # Start-up work: compiling source, drawing and normalizing a matrix.
        compile(_SOURCE, "<reference>", "exec")
        a = np.random.default_rng(1).standard_normal((2000, 100))
        a / np.linalg.norm(a, axis=1)[:, None]
        _interpreter(2000)


def _interpreter(count: int) -> int:
    total = 0
    for j in range(count):
        total += len(str(j * 0.5))
    return total


_SOURCE = "\n".join(f"def f{i}(x):\n    return [x * {i} for _ in range(3)]" for i in range(150))
