"""Iterative solvers for corrupted overdetermined systems.

Six methods behind one trace-producing entry point :func:`solve`:

- ``rk``: classical randomized Kaczmarz, one row projection per iteration.
- ``quantile-rk``: residual-quantile gated single-row projection; a sampled
  candidate row is used only if its absolute residual falls below (or, under
  the ``at-or-below`` comparator, at) the quantile of a sampled subresidual.
- ``averaged-block``: uniformly weighted average of single-row projection
  directions over a randomly sampled block, scaled by a step size.
- ``quantile-averaged-block``: averaged step over every row whose absolute
  residual passes the quantile test on the full residual.
- ``sampled-quantile-averaged-block``: same, but quantile and accepted set
  are computed over a uniformly sampled subset of rows.
- ``quantile-projective-block``: least-squares projection onto the
  intersection of all accepted rows' hyperplanes via the pseudoinverse.

Each method is one entry of a table that states its quantile scope, whether
it takes a step size, and how to build its step; validation, dispatch and
the harness's step-size resolution read only that table.  The ``*_step``
functions are pure, and one loop, :func:`_run`, steps a :func:`solve` or the
lanes of :func:`lane_errors` under one stop rule: budget, tolerance or
divergence.  A step reports its quantile test's mask over the rows it
ranked, which the trace counts as it is; the accepted rows' indices are
built only where read.  One step is not pure: where that costs less than
gathering its sample, quantile-rk's solve keeps the residual from step to
step in one generator, :func:`_quantile_rk_run`, one block of up to 8 MiB of
Gram rows at a time, for which :func:`quantile_rk_step` is the one-step
reference; such a solve does not call it, so rebinding that name does not
change it.
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergedError, ShapeError, domain, domain_check, is_seed, one_of
from .linalg import as_array, quantile_of_multiset
from .problems import CorruptedSystem, write_table

COMPARATORS = ("strict-below", "at-or-below")
TIMINGS = ("real", "none")

DIVERGENCE_LIMIT = 1e12
_VERDICTS = tuple(np.frombuffer(bytes([ok]), dtype=bool) for ok in (0, 1))  # see _gate


@dataclass
class StepStats:
    """A step's threshold, the mask ``accepted`` of its test over the rows it
    examined (all True without a test), and ``rows``, their system indices
    (None: all m, in order); L lanes give L thresholds and an (rows, L) mask.
    ``tau``, the accepted system rows (one array per lane), is built when read."""

    quantile: float | np.ndarray
    accepted: np.ndarray
    rows: np.ndarray | None = None

    @property
    def tau(self) -> np.ndarray | list[np.ndarray]:
        rows = np.arange(len(self.accepted)) if self.rows is None else self.rows
        if self.accepted.ndim == 2:
            return [rows[lane] for lane in self.accepted.T]
        return rows[self.accepted]


@dataclass
class IterationTrace:
    """Per-iteration record of a solve of ``config`` plus the final iterate.

    Row ``k`` stores the quantile threshold used to produce iterate ``x_k``
    (i.e. the quantile of the residual at ``x_{k-1}``) and the relative error
    of ``x_k`` itself.  ``elapsed_ns`` is the cumulative wall time of the
    step calls alone, not of the error and trace bookkeeping, and therefore
    monotone within a trace.
    """

    config: SolverConfig
    alpha: float | None  # the step size taken; None for a method without one
    base_error: float
    rel_error: list[float] = field(default_factory=list)
    quantile: list[float] = field(default_factory=list)
    tau_size: list[int] = field(default_factory=list)
    tau_corrupted: list[int] = field(default_factory=list)
    elapsed_ns: list[int] = field(default_factory=list)
    x_final: np.ndarray | None = None
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.rel_error)

    def config_dict(self) -> dict:
        c = self.config
        return {"method": c.method, "q": c.q, "alpha": self.alpha, "comparator": c.comparator,
                "seed": c.seed, "base_error": self.base_error, "iterations": self.iterations}

    def elapsed(self, timing: str) -> list[int]:
        """The cumulative wall times, zeroed under ``timing="none"`` so that
        identical runs write identical bytes."""
        check_timing(timing)
        return self.elapsed_ns if timing == "real" else [0] * self.iterations

    def write_csv(self, path, timing: str = "real") -> Path:
        """Write the trace in the ``iter,rel_error,quantile,tau_size,
        tau_corrupted,elapsed_ns`` schema, wall times as :meth:`elapsed`
        gives them."""
        return write_table(path, "iter,rel_error,quantile,tau_size,tau_corrupted,elapsed_ns",
                           zip(range(1, self.iterations + 1), self.rel_error, self.quantile,
                               self.tau_size, self.tau_corrupted, self.elapsed(timing)))


def check_timing(timing: str) -> None:
    """Wall-time columns hold real measurements (``"real"``) or zeros
    (``"none"``); anything else raises :class:`ConfigError`."""
    if timing not in TIMINGS:
        raise ConfigError(f"timing must be 'real' or 'none', got {timing!r}")


# ---------------------------------------------------------------------------
# Primitive operations

def residual(matrix, b, x) -> np.ndarray:
    """The signed distances b - matrix @ x."""
    a = as_array("matrix", matrix, float, copy=None)
    b = as_array("b", b, float, copy=None)
    x = as_array("x", x, float, copy=None)
    if a.ndim != 2 or b.shape != (a.shape[0],) or x.shape != (a.shape[1],):
        raise ShapeError(
            f"incompatible shapes: matrix {a.shape}, b {b.shape}, x {x.shape}"
        )
    return b - a @ x


def _accepted_mask(abs_residual: np.ndarray, threshold: float, comparator: str) -> np.ndarray:
    if comparator == "strict-below":
        return abs_residual < threshold
    if comparator == "at-or-below":
        return abs_residual <= threshold
    raise ConfigError(f"unknown comparator {comparator!r}")


def _quantile_test(rows, b, x, q: float, comparator: str):
    """The residual ``rows @ x - b``, the ``q``-quantile of its magnitudes and
    the mask of the rows that pass ``comparator`` against it.  An n×L block
    ``x`` holds one lane per column, and each lane has its own threshold and
    mask, taken over its own column; an n-vector is the one-lane case."""
    # The iterate on the left: OpenBLAS runs a block of lanes several times
    # faster in this shape than as rows @ x, and a vector at the same speed.
    r = (x.T @ rows.T - b).T
    abs_r = np.abs(r)
    threshold = quantile_of_multiset(abs_r, q, axis=0)
    return r, threshold, _accepted_mask(abs_r, threshold, comparator)


def _averaged_update(rows, index, x, r, keep, alpha, threshold):
    """The averaged step ``x - (alpha/|tau|) A_tau^T r_tau`` over the rows
    ``rows`` that the mask ``keep`` accepts (``index`` as ``StepStats.rows``),
    taken as one masked pass over them, so no accepted row is copied.  For an
    n×L block ``x``, ``alpha`` holds one step size per lane and the pass is
    one GEMM.  The masked sum over an empty accepted set is exactly zero, so
    such a step (or lane) keeps its iterate: a defined no-op, never an error.
    """
    scale = alpha / np.maximum(keep.sum(axis=0), 1)
    x_next = x - scale * (np.where(keep, r, 0.0).T @ rows).T
    return x_next, StepStats(threshold, keep, index)


def quantile_abk_step(
    matrix, b, x, q: float, alpha: float, comparator: str = "strict-below"
) -> tuple[np.ndarray, StepStats]:
    """One averaged step over the rows passing the full-residual quantile test.

    The update ``A_tau^T r_tau`` is taken as one masked pass over the whole
    matrix, so no accepted row is copied.  An empty accepted set (e.g. at the
    exact solution under the strict comparator) is a defined no-op, never an
    error.  ``x`` is an n-vector or an n×L block of lanes (``alpha`` then
    holds one step size per lane); a one-lane block is the vector step, bit
    for bit.
    """
    r, threshold, keep = _quantile_test(matrix, b, x, q, comparator)
    return _averaged_update(matrix, None, x, r, keep, alpha, threshold)


def sampled_qabk_step(
    matrix,
    b,
    x,
    q: float,
    t: int,
    alpha: float,
    rng: np.random.Generator,
    comparator: str = "strict-below",
) -> tuple[np.ndarray, StepStats]:
    """Averaged quantile step restricted to a uniform sample of ``t`` rows.

    The sample's rows are gathered once; the residual and the masked update
    both read that one copy, and so do all lanes when ``x`` is an n×L block
    (``alpha`` then holds one step size per lane).  Full-sample policy: when
    ``t`` equals the row count, the sample is the identity ordering, which
    makes the step bitwise identical to :func:`quantile_abk_step`.
    """
    m = matrix.shape[0]
    if t == m:
        return quantile_abk_step(matrix, b, x, q, alpha, comparator)
    sample = rng.choice(m, size=t, replace=False)
    rows = matrix[sample]
    r_s, threshold, keep = _quantile_test(rows, b[sample], x, q, comparator)
    return _averaged_update(rows, sample, x, r_s, keep, alpha, threshold)


def _gram_solve(gram_matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # Cholesky (or LU, on a matrix singular to rounding) detects dependent
    # accepted rows; the pseudoinverse then gives the least-norm solution.
    try:
        np.linalg.cholesky(gram_matrix)
        return np.linalg.solve(gram_matrix, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram_matrix, hermitian=True) @ rhs


def quantile_pbk_step(
    matrix, b, x, q: float, comparator: str = "strict-below"
) -> tuple[np.ndarray, StepStats]:
    """Projective step ``x + A_tau^+ (b_tau - A_tau x)`` onto the accepted
    rows' hyperplanes.

    Computes the least-norm pseudoinverse update through the smaller of the
    two Gram systems.  When the accepted submatrix has full row rank this is
    the exact projection onto {x : A_tau x = b_tau}; otherwise it lands on
    the least-squares affine set, through the Gram matrix's pseudoinverse
    where it is singular.
    """
    r, threshold, keep = _quantile_test(matrix, b, x, q, comparator)
    sub, gap = matrix[keep], -r[keep]  # A_tau and b_tau - A_tau x
    if gap.size == 0:
        return x.copy(), StepStats(threshold, keep)
    if gap.size <= matrix.shape[1]:
        y = _gram_solve(sub @ sub.T, gap)
        delta = sub.T @ y
    else:
        delta = _gram_solve(sub.T @ sub, sub.T @ gap)
    return x + delta, StepStats(threshold, keep)


def rk_step(matrix, b, x, rng: np.random.Generator) -> tuple[np.ndarray, StepStats]:
    """Project onto one uniformly sampled row (rows are unit-norm)."""
    i = int(rng.integers(matrix.shape[0]))
    ai = matrix[i]
    x_next = x - (ai @ x - b[i]) * ai
    return x_next, StepStats(math.nan, _VERDICTS[True], np.array([i]))


def _gate(x, row, j: int, gap, threshold: float, comparator: str) -> tuple[np.ndarray, StepStats]:
    """``x - gap * row`` if candidate row ``j``'s residual ``gap`` passes
    ``comparator`` against ``threshold``, else a copy of ``x``; its mask is
    one of ``_VERDICTS``, read-only (from bytes), so that all steps share it."""
    ok = bool(_accepted_mask(abs(gap), threshold, comparator))
    return (x - gap * row if ok else x.copy()), StepStats(threshold, _VERDICTS[ok], np.array([j]))


def quantile_rk_step(
    matrix, b, x, q: float, t: int, rng: np.random.Generator, comparator: str = "strict-below"
) -> tuple[np.ndarray, StepStats]:
    """Quantile-gated single-row projection.

    The quantile is computed over a uniform sample of ``t`` rows, then one
    candidate row is sampled uniformly from the whole system and used only
    if its absolute residual passes ``comparator`` against that quantile.
    The step reads its sample as a set, so it is drawn unshuffled, then
    sorted: a gathered row's residual rounds by its place in the gather.
    A row has one residual per step: a candidate in the sample takes its
    gap from the sample's residual, so the comparator sees the value that
    was ranked.  Full-sample policy: when ``t`` equals the row count, the
    quantile ranks every row in identity order and no sample is drawn.

    :func:`solve` calls this function only where ``t`` is small (see
    :func:`_quantile_rk`); elsewhere it is the one-step reference of the
    :func:`_quantile_rk_run` generator that the solve uses.
    """
    m = matrix.shape[0]
    rows = slice(None) if t == m else np.sort(rng.choice(m, t, replace=False, shuffle=False))
    r = matrix[rows] @ x - b[rows]
    threshold = quantile_of_multiset(np.abs(r), q)
    j = int(rng.integers(m))
    at = [j] if t == m else np.flatnonzero(rows == j)
    gap = r[at[0]] if len(at) else matrix[j] @ x - b[j]
    return _gate(x, matrix[j], j, gap, threshold, comparator)


def averaged_rbk_step(
    matrix, b, x, block, alpha: float
) -> tuple[np.ndarray, StepStats]:
    """Uniformly weighted averaged projection step over a given row block:
    the averaged update with every row of ``block`` accepted."""
    block = as_array("block", block, np.intp, copy=None)
    if block.size == 0:
        raise ShapeError("block must be nonempty")
    rows = matrix[block]
    return _averaged_update(rows, block, x, rows @ x - b[block], np.ones(block.size, dtype=bool),
                            alpha, math.nan)


# ---------------------------------------------------------------------------
# Method table

Step = Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, StepStats]]


@dataclass(frozen=True)
class MethodSpec:
    """What sets one method apart: the rows its quantile ranks (``"m"``: all,
    ``"t"``: the sampled ones, None: no quantile test), whether a step size
    applies, and ``build(matrix, b, config, t, alpha)``, which returns one
    solve's step ``(x, rng) -> (x_next, stats)`` over ``t`` ranked rows.  A
    step calls its kernel by module-global name, so a kernel rebound in this
    module takes effect, except where quantile-rk's step sends to a
    :func:`_quantile_rk_run` generator, which keeps state and calls none."""

    scope: str | None
    takes_alpha: bool
    build: Callable[..., Step]

    @property
    def auto_alpha(self) -> bool:
        """Whether ``alpha="auto"`` resolves the step size: the method has
        one and a quantile test."""
        return self.takes_alpha and self.scope is not None


def _rk(a, b, config, t, alpha) -> Step:
    return lambda x, rng: rk_step(a, b, x, rng)


# quantile-rk's block size and the per-step costs that choose its path, as
# measured on a 2-core Xeon (numpy 2.4.6, OpenBLAS 0.3.31); see _quantile_rk.
_PLAN_BYTES = 8 << 20  # one block's Gram rows; the GEMM's cost per step has stopped falling
# A run's GEMM still costs less a step past _GEMM_STEPS (about 30% less at 104 steps
# than at 30, at 10000x100): the cap is a constant fitted with the rule, not a floor.
_GEMM_STEPS = 30
_GATHER_CALLS = 60  # a gather's calls beside its copy, in gathered rows


def _quantile_rk(a, b, config, t, alpha) -> Step:
    """quantile-rk's step: a primed :func:`_quantile_rk_run` generator, sent
    each ``(x, rng)``, where its step costs no more than a gather's, else
    :func:`quantile_rk_step` by module-global name.

    Both make the same draws and take the same threshold and verdict.  Beyond
    those, a gather copies ``t`` rows of A and makes a few more calls, which
    cost what gathering ``_GATHER_CALLS`` rows does.  A run's GEMM reads A
    once per block and makes ``m * n`` multiply-adds per step, and its step
    updates ``m`` residuals; measured per step, that costs what gathering
    ``m / min(block, _GEMM_STEPS)`` rows does, reading A dominating in
    shorter blocks.  So the run is used where ``(t + 60) * min(block, 30) >=
    m``: from ``t = 7`` at 2000x50 (524-step blocks), ``t = 274`` at
    10000x100 (104-step blocks) and ``t = 2440`` at 50000x200 (20-step
    blocks), and always at ``t == m``.
    """
    m = a.shape[0]
    if (t + _GATHER_CALLS) * min(_plan_steps(m), _GEMM_STEPS) >= m:
        run = _quantile_rk_run(a, b, config, t)
        next(run)
        return lambda x, rng: run.send((x, rng))
    return lambda x, rng: quantile_rk_step(a, b, x, config.q, t, rng, config.comparator)


def _plan_steps(m: int) -> int:
    """Steps in one quantile-rk block on ``m`` rows: its Gram rows fit
    ``_PLAN_BYTES``."""
    return max(1, _PLAN_BYTES // (8 * m))


def _quantile_rk_run(a, b, config: SolverConfig, t: int):
    """One solve's quantile-rk steps as a generator, sent ``(x, rng)`` and
    yielding ``(x_next, stats)``, which keeps the residual ``r = A x - b``
    instead of gathering its ``t`` sampled rows again at every step.

    It works one block of :func:`_plan_steps` steps at a time, but never
    more than are left of ``max_iters``.  A block first draws its samples
    and candidates with the calls :func:`quantile_rk_step` makes, in the same
    order.  One GEMM, ``vstack([x, A[J]]) @ A.T``, into one buffer that the
    solve allocates once, then gives the fresh residual at ``x`` and the Gram
    rows ``A a_j`` of the block's candidates ``J``.  Each step writes
    ``|r[sample]|`` (all of ``|r|`` when ``t == m``) into a second such
    buffer, of ``t`` floats, and partitions it in place at the reference's
    rank ``ceil(q t) - 1`` for its threshold, bit for bit.  Its gap is
    ``r[j]``, so a row has one residual per step, as in the reference.
    An accepted step sets ``x <- x - r_j a_j`` and ``r <- r - r_j (A a_j)``,
    scaling its Gram row in place, as each is used once.  Sent an ``x`` it
    did not yield last, the run recomputes ``r``.
    """
    m = a.shape[0]
    block = min(_plan_steps(m), config.max_iters)
    left = config.max_iters  # steps not yet drawn
    gram = np.empty((block + 1, m))
    ranked, k = np.empty(t), math.ceil(config.q * t) - 1
    x, rng = yield
    while True:
        size = max(1, min(block, left))
        left -= size
        draws = [(None if t == m else rng.choice(m, size=t, replace=False, shuffle=False),
                  int(rng.integers(m))) for _ in range(size)]
        fresh = np.matmul(np.vstack([x, a[[j for _, j in draws]]]), a.T, out=gram[:size + 1])
        r, last = fresh[0] - b, x
        for (sample, j), row in zip(draws, fresh[1:]):
            if x is not last:
                r = a @ x - b
            np.abs(r if sample is None else r[sample], out=ranked).partition(k)
            gap = r[j]
            last, stats = _gate(x, a[j], j, gap, float(ranked[k]), config.comparator)
            if stats.accepted[0]:
                row *= gap  # r -= gap * row, without a temporary
                r -= row
            x, rng = yield last, stats
        del draws  # freed before the next block's samples are drawn, not beside them


def _averaged(a, b, config, t, alpha) -> Step:
    return lambda x, rng: averaged_rbk_step(
        a, b, x, rng.choice(a.shape[0], size=config.block_size, replace=False), alpha
    )


def _sampled_quantile_averaged(a, b, config, t, alpha) -> Step:
    return lambda x, rng: sampled_qabk_step(a, b, x, config.q, t, alpha, rng, config.comparator)


def _projective(a, b, config, t, alpha) -> Step:
    return lambda x, rng: quantile_pbk_step(a, b, x, config.q, config.comparator)


METHOD_TABLE = {
    #                                             scope takes_alpha build
    "rk":                              MethodSpec(None, False, _rk),
    "quantile-rk":                     MethodSpec("t",  False, _quantile_rk),
    "averaged-block":                  MethodSpec(None, True,  _averaged),
    "quantile-averaged-block":         MethodSpec("m",  True,  _sampled_quantile_averaged),
    "sampled-quantile-averaged-block": MethodSpec("t",  True,  _sampled_quantile_averaged),
    "quantile-projective-block":       MethodSpec("m",  False, _projective),
}
METHODS = tuple(METHOD_TABLE)


# ---------------------------------------------------------------------------
# Drivers

@dataclass(frozen=True)
class SolverConfig:
    """Method selector plus every tunable the six methods share.

    ``alpha`` may be a positive float or ``"auto"``, which the harness
    resolves to a number before it solves (only for the averaged quantile
    methods); :func:`solve` itself takes a number.  ``t`` is the sample size
    for the sampled methods and defaults to the full row count; ``block_size``
    is required by the random-block averaged method.
    """

    method: str = one_of(METHODS)
    q: float = domain("in (0, 1]", lambda v: 0.0 < v <= 1.0, default=0.7)
    alpha: float | str = domain(
        "> 0 or 'auto'", lambda v: v == "auto" or not isinstance(v, str) and v > 0, default="auto")
    t: int | None = domain(">= 1 or None", lambda v: v is None or v >= 1, default=None)
    block_size: int | None = domain(">= 1 or None", lambda v: v is None or v >= 1, default=None)
    max_iters: int = domain(">= 1", lambda v: v >= 1, default=100)
    stop_rel_error: float = domain(">= 0", lambda v: v >= 0, default=0.0)
    comparator: str = one_of(COMPARATORS, default="strict-below")
    seed: int = domain("a non-negative integer", is_seed, default=0)

    __post_init__ = domain_check


def check_config(
    config: SolverConfig, system: CorruptedSystem, x0, allow_auto: bool = False
) -> tuple[MethodSpec, int, np.ndarray, float, np.random.Generator]:
    """The start of a solve: the table entry, the rows its quantile ranks (t
    or m), ``x0`` as floats, its distance to ``x_star`` and the generator of
    ``config.seed``, after the checks every solve makes: ``x0`` has shape (n,)
    and is finite, the rules relating the configuration to the system hold,
    and ``alpha`` is a number where a step size applies (or, with
    ``allow_auto``, ``"auto"``)."""
    x0 = as_array("x0", x0, float, copy=None)
    if x0.shape != (system.n,):
        raise ConfigError(f"x0 must have shape ({system.n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ConfigError("x0 must be finite")
    spec = METHOD_TABLE[config.method]
    m = system.m
    t = config.t if config.t is not None else m
    if t > m:
        raise ConfigError(f"sample size t={t} must satisfy 1 <= t <= m={m}")
    scope = t if spec.scope == "t" else m
    if spec.scope is not None and config.q * scope < 1.0:
        raise ConfigError(f"q*{scope} must be >= 1, got {config.q * scope}")
    if spec.takes_alpha and config.alpha == "auto" and not (allow_auto and spec.auto_alpha):
        raise ConfigError(f"method {config.method!r} needs a numeric alpha: the harness resolves "
                          f"'auto' with qk.resolve_alpha_auto, for averaged quantile methods only")
    size = config.block_size
    if config.method == "averaged-block" and (size is None or size > m):
        raise ConfigError(f"method {config.method!r} requires 1 <= block_size <= m")
    base = float(np.linalg.norm(x0 - system.x_star))
    return spec, scope, x0, base, np.random.default_rng(np.random.SeedSequence(config.seed))


def _relative_error(system: CorruptedSystem, x: np.ndarray, base: float) -> float:
    d = x - system.x_star
    err = math.sqrt(d @ d)  # the ddot and sqrt of np.linalg.norm(d), without its checks
    # Degenerate start at the exact solution: report the absolute distance
    # instead of 0/0.
    return err if base == 0.0 else err / base


def _run(system: CorruptedSystem, config: SolverConfig, spec: MethodSpec, t: int, x: np.ndarray,
         base: float, rng: np.random.Generator, alpha):
    """The one loop of :func:`solve` and :func:`lane_errors`: up to
    ``max_iters`` steps of ``x``, an n-vector or an n×L block of lanes with
    one step size each in ``alpha``.  Each step yields the live iterate, its
    stats, the ns of the step call alone, the live lanes' relative errors and
    which lanes go on: those at most 1e12 and above ``stop_rel_error`` (NaN
    is neither).  The step is built again only when a lane leaves the block."""
    step = spec.build(system.matrix, system.b_observed, config, t, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as divergence
        for _ in range(config.max_iters):
            started = time.perf_counter_ns()
            x, stats = step(x, rng)
            ns = time.perf_counter_ns() - started
            err = (_relative_error(system, x, base) if x.ndim == 1 else
                   np.array([_relative_error(system, lane, base) for lane in x.T]))
            going = (err <= DIVERGENCE_LIMIT) & (err > config.stop_rel_error)
            yield x, stats, ns, err, going
            if not (going if x.ndim == 1 else going.any()):
                return
            if x.ndim == 2 and not going.all():
                x, alpha = x[:, going], alpha[going]
                step = spec.build(system.matrix, system.b_observed, config, t, alpha)


def solve(system: CorruptedSystem, config: SolverConfig, x0,
          keep_iterates: bool = False) -> IterationTrace:
    """Run the configured method from ``x0`` and record a per-iteration trace.

    The solve runs the one loop that :func:`lane_errors` runs, with its one
    stop rule: after ``max_iters`` iterations, as soon as the relative error
    drops to ``stop_rel_error``, or where it exceeds 1e12 or turns non-finite;
    there it raises :class:`DivergedError`, carrying the partial trace.

    Each call first runs :func:`check_config`, at O(n) cost, so a bad ``x0``
    or ``config`` raises :class:`ConfigError`.  The system is not checked
    here: :class:`CorruptedSystem` checks every field once, when it is built,
    and holds its corrupted mask.
    """
    spec, t, x0, base, rng = check_config(config, system, x0)
    alpha = float(config.alpha) if spec.takes_alpha else None  # no step size: pure projection
    corrupted = system.corrupted_mask()
    trace = IterationTrace(config, alpha, base, iterates=[] if keep_iterates else None)
    elapsed = 0
    for x, stats, ns, err, _ in _run(system, config, spec, t, x0, base, rng, alpha):
        elapsed += ns
        trace.rel_error.append(err)
        trace.quantile.append(stats.quantile)
        hit = stats.accepted & (corrupted if stats.rows is None else corrupted[stats.rows])
        trace.tau_size.append(int(np.count_nonzero(stats.accepted)))
        trace.tau_corrupted.append(int(np.count_nonzero(hit)))
        trace.elapsed_ns.append(elapsed)
        if trace.iterates is not None:
            trace.iterates.append(x.copy())
    trace.x_final = x
    if not err <= DIVERGENCE_LIMIT:
        raise DivergedError(f"relative error {err!r} left the trust region at "
                            f"iteration {trace.iterations}", trace=trace)
    return trace


def lane_errors(system: CorruptedSystem, config: SolverConfig, x0, alphas) -> np.ndarray:
    """The relative error that ``config``'s method reaches from ``x0`` at each
    step size in ``alphas``, run as the lanes of one batched solve.

    Lane ``j`` runs :func:`solve` with ``alpha=alphas[j]``, up to the rounding
    of a GEMM against a vector product: all lanes read the one sample stream
    of ``config.seed``, so each step draws and gathers one sample for all of
    them.  A lane stops by the one stop rule of that solve (the budget,
    ``stop_rel_error`` or an error that is non-finite or above 1e12, where the
    solve raises :class:`DivergedError`), and its result is the error it
    stopped at.  ``config.alpha`` is not read.  A method without
    ``auto_alpha`` raises :class:`ConfigError`, as do non-positive step sizes
    and whatever :func:`check_config` refuses.
    """
    if not METHOD_TABLE[config.method].auto_alpha:
        raise ConfigError(f"method {config.method!r} does not run step-size lanes")
    spec, t, x0, base, rng = check_config(config, system, x0, allow_auto=True)
    try:
        alphas = np.asarray(alphas, dtype=float)
        ok = alphas.ndim == 1 and np.all(np.isfinite(alphas) & (alphas > 0))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"alphas must be a list of finite positive step sizes, got {alphas}")

    errors = np.empty(alphas.size)
    live = np.arange(alphas.size)
    lanes = np.repeat(x0[:, None], alphas.size, axis=1)
    for _, _, _, err, going in _run(system, config, spec, t, lanes, base, rng, alphas):
        errors[live] = err
        live = live[going]
    return errors
