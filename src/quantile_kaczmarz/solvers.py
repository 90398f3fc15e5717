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
functions are pure, and :func:`solve` owns the RNG stream, the stopping
rules, and the per-iteration trace.  One step is not pure: where its sample
is large enough, quantile-rk's solve keeps the residual from step to step in
a :class:`_QuantileRkRun`, for which :func:`quantile_rk_step` is the
one-step reference; such a solve does not call it, so rebinding that name
does not change it.
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergedError, ShapeError, domain, domain_check, one_of
from .linalg import quantile_of_multiset, sigma_max_sq
from .problems import CorruptedSystem

COMPARATORS = ("strict-below", "at-or-below")
TIMINGS = ("real", "none")

DIVERGENCE_LIMIT = 1e12


@dataclass
class StepStats:
    """A step's threshold and accepted row indices (empty for a no-op step);
    a step over an n×L block of lanes gives an array of L thresholds and a
    list of L index arrays."""

    quantile: float | np.ndarray
    tau: np.ndarray | list[np.ndarray]


@dataclass
class IterationTrace:
    """Per-iteration record of a solve plus the final iterate.

    Row ``k`` stores the quantile threshold used to produce iterate ``x_k``
    (i.e. the quantile of the residual at ``x_{k-1}``) and the relative error
    of ``x_k`` itself.  ``elapsed_ns`` is cumulative wall time and therefore
    monotone within a trace.
    """

    method: str
    q: float
    alpha: float | None  # None for a method without a step size
    comparator: str
    seed: int
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
        keys = ("method", "q", "alpha", "comparator", "seed", "base_error")
        return {**{k: getattr(self, k) for k in keys}, "iterations": self.iterations}

    def elapsed(self, timing: str) -> list[int]:
        """The cumulative wall times, zeroed under ``timing="none"`` so that
        identical runs write identical bytes."""
        check_timing(timing)
        return self.elapsed_ns if timing == "real" else [0] * self.iterations

    def write_csv(self, path, timing: str = "real") -> Path:
        """Write the trace in the ``iter,rel_error,quantile,tau_size,
        tau_corrupted,elapsed_ns`` schema, wall times as :meth:`elapsed`
        gives them."""
        elapsed = self.elapsed(timing)
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,rel_error,quantile,tau_size,tau_corrupted,elapsed_ns\n")
            for k in range(self.iterations):
                fh.write(
                    f"{k + 1},{self.rel_error[k]!r},{self.quantile[k]!r},"
                    f"{self.tau_size[k]},{self.tau_corrupted[k]},{elapsed[k]}\n"
                )
        return path


def check_timing(timing: str) -> None:
    """Wall-time columns hold real measurements (``"real"``) or zeros
    (``"none"``); anything else raises :class:`ConfigError`."""
    if timing not in TIMINGS:
        raise ConfigError(f"timing must be 'real' or 'none', got {timing!r}")


# ---------------------------------------------------------------------------
# Primitive operations

def residual(matrix, b, x) -> np.ndarray:
    """The signed distances b - matrix @ x."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
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
    the mask of the rows that pass ``comparator`` against it.  For an n×L
    block ``x``, one lane per column, the residual is one GEMM and each lane
    has its own threshold and mask, taken over its own column."""
    lanes = np.ndim(x) == 2
    if lanes:
        # The same product with the lanes on the left: OpenBLAS runs this
        # shape several times faster than rows @ x, and touches less memory.
        r = (x.T @ rows.T).T - b[:, None]
    else:
        r = rows @ x - b
    abs_r = np.abs(r)
    threshold = quantile_of_multiset(abs_r, q, axis=0 if lanes else None)
    return r, threshold, _accepted_mask(abs_r, threshold, comparator)


def _accepted_rows(keep: np.ndarray, index) -> np.ndarray | list[np.ndarray]:
    """The system rows a mask over ``rows`` accepts, one array per lane of a
    block; ``index[i]`` is the system row of ``rows[i]`` (None: row ``i``)."""
    if keep.ndim == 2:
        return [_accepted_rows(lane, index) for lane in keep.T]
    return np.flatnonzero(keep) if index is None else index[keep]


def _averaged_update(rows, index, x, r, keep, alpha, threshold):
    """The averaged step ``x - (alpha/|tau|) A_tau^T r_tau`` after a quantile
    test over ``rows`` (see :func:`_accepted_rows` for ``index``), taken as
    one masked pass over them, so no accepted row is copied.  An empty
    accepted set is a defined no-op, never an error.

    For an n×L block ``x`` with L step sizes ``alpha`` the pass is one GEMM,
    and a lane that accepts no row keeps its iterate.
    """
    tau = _accepted_rows(keep, index)
    if np.ndim(x) == 1:
        if tau.size == 0:
            return x.copy(), StepStats(threshold, tau)
        scale = alpha / tau.size
    else:
        # An empty lane's masked sum is exactly zero, so any positive divisor
        # leaves its iterate in place.
        scale = alpha / np.maximum(np.count_nonzero(keep, axis=0), 1)
    return x - scale * (np.where(keep, r, 0.0).T @ rows).T, StepStats(threshold, tau)


def quantile_abk_step(
    matrix, b, x, q: float, alpha: float, comparator: str = "strict-below"
) -> tuple[np.ndarray, StepStats]:
    """One averaged step over the rows passing the full-residual quantile test.

    The update ``A_tau^T r_tau`` is taken as one masked pass over the whole
    matrix, so no accepted row is copied.  An empty accepted set (e.g. at the
    exact solution under the strict comparator) is a defined no-op, never an
    error.  ``x`` may also be an n×L block of lanes, with ``alpha`` holding
    one step size per lane.
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


def _gram_solve(gram_matrix: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    # Cholesky (or LU, on a matrix singular to rounding) detects rank deficiency;
    # the ridge keeps the projection well-defined for dependent accepted rows.
    try:
        np.linalg.cholesky(gram_matrix)
        return np.linalg.solve(gram_matrix, rhs)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(gram_matrix + ridge * np.eye(gram_matrix.shape[0]), rhs)
    except np.linalg.LinAlgError:
        raise ShapeError("the accepted rows are linearly dependent; "
                         "a positive ridge is needed") from None


def quantile_pbk_step(
    matrix,
    b,
    x,
    q: float,
    comparator: str = "strict-below",
    ridge: float = 0.0,
) -> tuple[np.ndarray, StepStats]:
    """Projective step onto the accepted rows' hyperplanes.

    Computes the least-norm pseudoinverse update through the smaller of the
    two Gram systems.  When the accepted submatrix has full row rank this is
    the exact projection onto {x : A_tau x = b_tau}; otherwise it lands on
    the least-squares affine set, with ``ridge`` regularizing a rank-deficient
    factorization; with ``ridge=0`` a singular Gram system raises
    :class:`ShapeError`.
    """
    r, threshold, keep = _quantile_test(matrix, b, x, q, comparator)
    tau = np.flatnonzero(keep)
    if tau.size == 0:
        return x.copy(), StepStats(threshold, tau)
    sub = matrix[tau]
    gap = -r[tau]  # b_tau - A_tau x
    if tau.size <= matrix.shape[1]:
        y = _gram_solve(sub @ sub.T, gap, ridge)
        delta = sub.T @ y
    else:
        delta = _gram_solve(sub.T @ sub, sub.T @ gap, ridge)
    return x + delta, StepStats(threshold, tau)


def rk_step(matrix, b, x, rng: np.random.Generator) -> tuple[np.ndarray, StepStats]:
    """Project onto one uniformly sampled row (rows are unit-norm)."""
    i = int(rng.integers(matrix.shape[0]))
    ai = matrix[i]
    x_next = x - (ai @ x - b[i]) * ai
    return x_next, StepStats(math.nan, np.array([i], dtype=np.intp))


def _gate(x, row, j: int, gap, threshold: float, comparator: str) -> tuple[np.ndarray, StepStats]:
    """The single-row verdict: ``x - gap * row`` with tau ``[j]`` if the
    candidate's residual ``gap`` passes ``comparator`` against ``threshold``,
    else a copy of ``x`` with an empty tau."""
    if _accepted_mask(abs(gap), threshold, comparator):
        return x - gap * row, StepStats(threshold, np.array([j], dtype=np.intp))
    return x.copy(), StepStats(threshold, np.array([], dtype=np.intp))


def quantile_rk_step(
    matrix, b, x, q: float, t: int, rng: np.random.Generator, comparator: str = "strict-below"
) -> tuple[np.ndarray, StepStats]:
    """Quantile-gated single-row projection.

    The quantile is computed over a uniform sample of ``t`` rows, then one
    candidate row is sampled uniformly from the whole system and used only
    if its absolute residual passes ``comparator`` against that quantile.
    A row has one residual per step: a candidate in the sample takes its
    gap from the sample's residual, so the comparator sees the value that
    was ranked.  Full-sample policy: when ``t`` equals the row count, the
    quantile ranks every row in identity order and no sample is drawn.

    :func:`solve` calls this function only where ``t`` is small (see
    :func:`_quantile_rk`); elsewhere it is the one-step reference of the
    :class:`_QuantileRkRun` that the solve uses.
    """
    m = matrix.shape[0]
    rows = slice(None) if t == m else rng.choice(m, size=t, replace=False)
    r = matrix[rows] @ x - b[rows]
    threshold = quantile_of_multiset(np.abs(r), q)
    j = int(rng.integers(m))
    at = [j] if t == m else np.flatnonzero(rows == j)
    gap = r[at[0]] if len(at) else matrix[j] @ x - b[j]
    return _gate(x, matrix[j], j, gap, threshold, comparator)


def averaged_rbk_step(
    matrix, b, x, block, alpha: float
) -> tuple[np.ndarray, StepStats]:
    """Uniformly weighted averaged projection step over a given row block."""
    block = np.asarray(block, dtype=np.intp)
    if block.size == 0:
        raise ShapeError("block must be nonempty")
    rows = matrix[block]
    r = rows @ x - b[block]
    x_next = x - (alpha / block.size) * (rows.T @ r)
    return x_next, StepStats(math.nan, block)


# ---------------------------------------------------------------------------
# Method table

Step = Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, StepStats]]


@dataclass(frozen=True)
class MethodSpec:
    """What sets one method apart: the rows its quantile ranks (``"m"``: all,
    ``"t"``: the sampled ones, None: no quantile test), whether a step size
    applies and whether ``alpha="auto"`` resolves it, and ``build(matrix, b,
    config, t, alpha)``, which returns one solve's step ``(x, rng) -> (x_next,
    stats)``.  A step calls its kernel by module-global name, so a kernel
    rebound in this module takes effect, except where quantile-rk's step is a
    :class:`_QuantileRkRun`, which keeps state and calls no step kernel."""

    scope: str | None
    takes_alpha: bool
    auto_alpha: bool
    build: Callable[..., Step]


def _rk(a, b, config, t, alpha) -> Step:
    return lambda x, rng: rk_step(a, b, x, rng)


_PLAN_BYTES = 2 << 20  # the most one quantile-rk block's Gram rows may hold
_GEMM_GAIN = 100  # a GEMM row costs ~1/100 of a gathered row (2-core Xeon, OpenBLAS)


def _quantile_rk(a, b, config, t, alpha) -> Step:
    """quantile-rk's step: a :class:`_QuantileRkRun` where the pure step's
    gather costs more, else :func:`quantile_rk_step` by module-global name.

    The gather reads ``t`` rows of A per step.  The run reads all ``m`` rows
    once per block of ``block`` steps and multiplies each step's candidate
    against all ``m`` rows, a GEMM row that costs about ``1/_GEMM_GAIN`` of a
    gathered row.  So the run is used when ``t >= m / block + m /
    _GEMM_GAIN``: ``t >= 485`` at 10000x100 (26-step blocks), ``t >= 10500``
    at 50000x200 (5-step blocks) and always at ``t == m`` unless a block is
    one step.
    """
    m = a.shape[0]
    if t >= m / _plan_steps(m) + m / _GEMM_GAIN:
        return _QuantileRkRun(a, b, config, t)
    return lambda x, rng: quantile_rk_step(a, b, x, config.q, t, rng, config.comparator)


def _plan_steps(m: int) -> int:
    """Steps in one quantile-rk block on ``m`` rows: its Gram rows fit
    ``_PLAN_BYTES``."""
    return max(1, _PLAN_BYTES // (8 * m))


class _QuantileRkRun:
    """One solve's quantile-rk step, which keeps the residual ``r = A x - b``
    instead of gathering its ``t`` sampled rows again at every step.

    It works one block of steps at a time, :func:`_plan_steps` steps, but
    never more than are left of ``max_iters``.  A block first draws its
    samples and candidates with the calls :func:`quantile_rk_step` makes, in
    the same order.  One GEMM, ``vstack([x, A[J]]) @ A.T``, then gives the
    fresh residual at ``x`` and the Gram rows ``A a_j`` of the block's
    candidates ``J``.  Each step reads its threshold from ``|r[sample]|``
    (all of ``r`` when ``t == m``) and its gap from ``r[j]``, so a row has
    one residual per step, as in the reference.  An accepted step sets ``x
    <- x - r_j a_j`` and ``r <- r - r_j (A a_j)``.  Called with an ``x`` it
    did not return last, the run recomputes ``r``.
    """

    def __init__(self, a, b, config: SolverConfig, t: int):
        self.a, self.b, self.t = a, b, t
        self.q, self.comparator = config.q, config.comparator
        self.block = _plan_steps(a.shape[0])
        self.left = config.max_iters  # steps not yet drawn
        self.plan: list = []  # the block's steps still to take, last first
        self.x = self.r = None

    def _draw(self, x, rng) -> None:
        m = self.a.shape[0]
        size = max(1, min(self.block, self.left))
        self.left -= size
        draws = [(None if self.t == m else rng.choice(m, size=self.t, replace=False),
                  int(rng.integers(m))) for _ in range(size)]
        fresh = np.vstack([x, self.a[[j for _, j in draws]]]) @ self.a.T
        self.r = fresh[0] - self.b
        self.plan = [(*draw, gram) for draw, gram in zip(draws, fresh[1:])][::-1]

    def __call__(self, x, rng) -> tuple[np.ndarray, StepStats]:
        if not self.plan:
            self._draw(x, rng)
        elif x is not self.x:
            self.r = self.a @ x - self.b
        sample, j, gram = self.plan.pop()
        r = self.r
        threshold = quantile_of_multiset(np.abs(r if sample is None else r[sample]), self.q)
        gap = r[j]
        self.x, stats = _gate(x, self.a[j], j, gap, threshold, self.comparator)
        if stats.tau.size:
            r -= gap * gram
        return self.x, stats


def _averaged(a, b, config, t, alpha) -> Step:
    size = config.block_size
    if size is None or not 1 <= size <= a.shape[0]:
        raise ConfigError(f"method {config.method!r} requires 1 <= block_size <= m")
    return lambda x, rng: averaged_rbk_step(
        a, b, x, rng.choice(a.shape[0], size=size, replace=False), alpha
    )


def _quantile_averaged(a, b, config, t, alpha) -> Step:
    return lambda x, rng: quantile_abk_step(a, b, x, config.q, alpha, config.comparator)


def _sampled_quantile_averaged(a, b, config, t, alpha) -> Step:
    return lambda x, rng: sampled_qabk_step(a, b, x, config.q, t, alpha, rng, config.comparator)


def _projective(a, b, config, t, alpha) -> Step:
    ridge = 1e-12 * sigma_max_sq(a)
    return lambda x, rng: quantile_pbk_step(a, b, x, config.q, config.comparator, ridge)


METHOD_TABLE = {
    #                                             scope takes_alpha auto_alpha build
    "rk":                              MethodSpec(None, False, False, _rk),
    "quantile-rk":                     MethodSpec("t",  False, False, _quantile_rk),
    "averaged-block":                  MethodSpec(None, True,  False, _averaged),
    "quantile-averaged-block":         MethodSpec("m",  True,  True,  _quantile_averaged),
    "sampled-quantile-averaged-block": MethodSpec("t",  True,  True,  _sampled_quantile_averaged),
    "quantile-projective-block":       MethodSpec("m",  False, False, _projective),
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
    block_size: int | None = None
    max_iters: int = domain(">= 1", lambda v: v >= 1, default=100)
    stop_rel_error: float = domain(">= 0", lambda v: v >= 0, default=0.0)
    comparator: str = one_of(COMPARATORS, default="strict-below")
    seed: int = 0

    __post_init__ = domain_check


def check_config(
    config: SolverConfig, system: CorruptedSystem, x0, allow_auto: bool = False
) -> tuple[MethodSpec, int, np.ndarray]:
    """The method's table entry, the sample size and ``x0`` as a float array,
    after the checks every solve makes: ``x0`` has shape (n,) and is finite,
    ``system.b_observed`` is finite (it stays writable, so it can change
    between calls), the rules relating two values hold, and ``alpha`` is a
    number where a step size applies (or, with ``allow_auto``, ``"auto"``)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.n,):
        raise ConfigError(f"x0 must have shape ({system.n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ConfigError("x0 must be finite")
    if not np.all(np.isfinite(system.b_observed)):
        raise ConfigError("b_observed must be finite")
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
    return spec, t, x0


def _relative_error(system: CorruptedSystem, x: np.ndarray, base: float) -> float:
    err = float(np.linalg.norm(x - system.x_star))
    # Degenerate start at the exact solution: report the absolute distance
    # instead of 0/0.
    return err if base == 0.0 else err / base


def solve(
    system: CorruptedSystem,
    config: SolverConfig,
    x0,
    keep_iterates: bool = False,
) -> IterationTrace:
    """Run the configured method from ``x0`` and record a per-iteration trace.

    Stops after ``max_iters`` iterations or as soon as the relative error
    drops to ``stop_rel_error``.  Raises :class:`DivergedError` (carrying the
    partial trace) if the relative error exceeds 1e12 or turns non-finite.

    Each call first runs :func:`check_config`, at O(m + n) cost, so a bad
    ``x0``, system or ``config`` raises :class:`ConfigError`.  Unit-norm rows
    are not checked here: :class:`CorruptedSystem` checks them once, when it
    is built.
    """
    spec, t, x0 = check_config(config, system, x0)
    alpha = float(config.alpha) if spec.takes_alpha else None  # no step size: pure projection
    step = spec.build(system.matrix, system.b_observed, config, t, alpha)
    base = float(np.linalg.norm(x0 - system.x_star))
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    corrupted = system.corrupted_mask()

    trace = IterationTrace(
        method=config.method,
        q=config.q,
        alpha=alpha,
        comparator=config.comparator,
        seed=config.seed,
        base_error=base,
        iterates=[] if keep_iterates else None,
    )

    x = x0.copy()
    elapsed = 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as divergence
        for _ in range(config.max_iters):
            started = time.perf_counter_ns()
            x_next, stats = step(x, rng)
            elapsed += time.perf_counter_ns() - started

            rel_k = _relative_error(system, x_next, base)
            trace.rel_error.append(rel_k)
            trace.quantile.append(stats.quantile)
            trace.tau_size.append(int(stats.tau.size))
            trace.tau_corrupted.append(int(np.count_nonzero(corrupted[stats.tau])))
            trace.elapsed_ns.append(elapsed)
            if trace.iterates is not None:
                trace.iterates.append(x_next.copy())

            if not math.isfinite(rel_k) or rel_k > DIVERGENCE_LIMIT:
                trace.x_final = x_next
                raise DivergedError(
                    f"relative error {rel_k!r} left the trust region at iteration "
                    f"{trace.iterations}",
                    trace=trace,
                )
            x = x_next
            if rel_k <= config.stop_rel_error:
                break

    trace.x_final = x
    return trace


def lane_errors(system: CorruptedSystem, config: SolverConfig, x0, alphas) -> np.ndarray:
    """The relative error that ``config``'s method reaches from ``x0`` at each
    step size in ``alphas``, run as the lanes of one batched solve.

    Lane ``j`` runs :func:`solve` with ``alpha=alphas[j]``, up to the rounding
    of a GEMM against a vector product: all lanes read the one sample stream
    of ``config.seed``, so each step draws and gathers one sample for all of
    them.  A lane stops where that solve stops (the budget, ``stop_rel_error``
    or an error that is non-finite or above 1e12, where the solve raises
    :class:`DivergedError`), and its result is the error it stopped at.
    ``config.alpha`` is not read.  A method without ``auto_alpha`` raises
    :class:`ConfigError`, as do non-positive step sizes and whatever
    :func:`check_config` refuses.
    """
    if not METHOD_TABLE[config.method].auto_alpha:
        raise ConfigError(f"method {config.method!r} does not run step-size lanes")
    spec, t, x0 = check_config(config, system, x0, allow_auto=True)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise ConfigError(f"alphas must be a list of finite positive step sizes, got {alphas}")
    base = float(np.linalg.norm(x0 - system.x_star))
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    x = np.repeat(x0[:, None], alphas.size, axis=1)  # the live lanes' iterates
    errors = np.empty(alphas.size)
    live = np.arange(alphas.size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as divergence
        for _ in range(config.max_iters):
            step = spec.build(system.matrix, system.b_observed, config, t, alphas[live])
            x, _ = step(x, rng)
            err = np.array([_relative_error(system, lane, base) for lane in x.T])
            errors[live] = err
            going = np.isfinite(err) & (err <= DIVERGENCE_LIMIT) & (err > config.stop_rel_error)
            live, x = live[going], x[:, going]
            if live.size == 0:
                break
    return errors
