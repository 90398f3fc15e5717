"""Convergence-rate formulas and per-iteration contraction certification.

The guaranteed per-iteration decrease of the squared error for the averaged
quantile method is ``1 - c1*alpha + c2*alpha**2``; this module evaluates the
constants, the condition under which a contraction exists, the optimal step
size, and checks the three bounds the guarantee decomposes into against
concrete iterations using exact realized quantities.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConditionViolatedError, DomainError, ShapeError, is_finite, is_int, is_real
from .linalg import (
    SUBSET_ENUMERATION_CAP,
    SpectralSummary,
    as_array,
    as_count,
    quantile_of_multiset,
    restricted_min_sv_bruteforce,
    restricted_min_sv_sampled,
    sigma_max_sq,
)
from .problems import CorruptedSystem, write_json


@dataclass(frozen=True)
class RateInputs:
    q: float
    beta: float
    m: int
    sigma_max_sq: float
    sigma_restricted_min_sq: float
    exact: bool

    def summary(self) -> str:
        return (
            f"inputs: q={self.q}, beta={self.beta}, m={self.m}, "
            f"sigma_max_sq={self.sigma_max_sq:.6g}, "
            f"sigma_restricted_min_sq={self.sigma_restricted_min_sq:.6g} "
            f"({'exact' if self.exact else 'sampled estimate'})"
        )


@dataclass(frozen=True)
class RateReport:
    """The convergence condition's verdict and constants; where it holds, also
    the optimal step size and contraction factor, which are None where it is
    refuted.  ``to_json(path)`` writes it as the package's JSON artifacts
    are written, an infinite ``epsilon`` as null, and returns ``path``."""

    c1: float
    c2: float
    alpha_opt: float | None
    contraction: float | None
    condition_holds: bool
    epsilon: float
    inputs: RateInputs

    def to_json(self, path):
        epsilon = None if math.isinf(self.epsilon) else self.epsilon
        return write_json({**asdict(self), "epsilon": epsilon}, path)

    def summary(self) -> str:
        lines = [f"condition holds: {self.condition_holds} (epsilon = {self.epsilon:.6g})"]
        if self.condition_holds:
            lines += [
                f"c1 = {self.c1:.6g}, c2 = {self.c2:.6g}",
                f"optimal step size = {self.alpha_opt:.6g}",
                f"guaranteed squared-error factor per iteration = {self.contraction:.6g}",
            ]
        else:
            lines.append("no step size carries a guaranteed contraction for these inputs")
        return "\n".join([*lines, self.inputs.summary()])


def _check_domain(q: float, beta: float, m: int = 1, **spectral: float) -> None:
    """Raise :class:`DomainError` naming the first of: q, beta or a ``spectral``
    value not a real number (a bool is not); a ``spectral`` value not finite; m
    not an integer >= 1; beta outside [0, 1); q outside (beta, 1 - beta);
    sigma_max_sq <= 0; sigma_restricted_min_sq < 0."""
    for name, value in [("q", q), ("beta", beta), *spectral.items()]:
        if not is_real(value):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        if name in spectral and not is_finite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if not (is_int(m) and m >= 1):
        raise DomainError(f"m must be an integer >= 1, got {m!r}")
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    if not beta < q < 1.0 - beta:
        raise DomainError(f"q must lie in (beta, 1-beta) = ({beta}, {1.0 - beta}), got {q}")
    if spectral and (spectral["sigma_max_sq"] <= 0 or spectral["sigma_restricted_min_sq"] < 0):
        raise DomainError("spectral inputs must be nonnegative with sigma_max_sq > 0")


def _finite(what: str, formula, *args) -> tuple[float, ...]:
    """The floats ``formula(*args)``; :class:`DomainError` naming ``what``
    where one overflows, divides by zero or is not finite (c2 = 0 included)."""
    try:
        values = formula(*args)
    except (OverflowError, ZeroDivisionError):
        values = (math.nan,)
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} would not be finite for these inputs")
    return values


def convergence_condition(
    q: float, beta: float, sigma_max_sq: float, sigma_restricted_min_sq: float
) -> tuple[bool, float]:
    """Whether sqrt(beta)/sqrt(1-q-beta) < restricted-to-max spectral ratio.

    Returns the verdict together with ``epsilon``, the left side expressed as
    a multiple of the ratio; a contraction exists exactly when epsilon < 1
    (strictly).  A zero restricted value gives epsilon = inf, whatever beta.
    """
    _check_domain(q, beta, sigma_max_sq=sigma_max_sq,
                  sigma_restricted_min_sq=sigma_restricted_min_sq)
    lhs = math.sqrt(beta) / math.sqrt(1.0 - q - beta)
    if sigma_restricted_min_sq == 0.0:
        return False, math.inf
    epsilon = lhs * sigma_max_sq / sigma_restricted_min_sq
    return epsilon < 1.0, epsilon


def rate_constants(
    q: float, beta: float, m: int, sigma_max_sq: float, sigma_restricted_min_sq: float
) -> tuple[float, float]:
    """The coefficients of the per-iteration factor 1 - c1*alpha + c2*alpha^2.

    Valid regardless of the sign of c1; c2 is always nonnegative.
    """
    _check_domain(q, beta, m, sigma_max_sq=sigma_max_sq,
                  sigma_restricted_min_sq=sigma_restricted_min_sq)
    return _finite("c1 and c2", _constants, q, beta, m, sigma_max_sq, sigma_restricted_min_sq)


def _constants(q, beta, m, sigma_max_sq, sigma_restricted_min_sq):
    root = math.sqrt(beta) / math.sqrt(1.0 - q - beta)
    qm = q * m
    c1 = 2.0 * sigma_restricted_min_sq / qm - 2.0 * root * sigma_max_sq / qm
    c2 = (
        sigma_max_sq * sigma_restricted_min_sq / qm**2
        - 2.0 * root * sigma_max_sq * sigma_restricted_min_sq / qm**2
        + beta * sigma_max_sq**2 / (qm**2 * (1.0 - q - beta))
    )
    return c1, c2


def rate_report(
    q: float,
    beta: float,
    m: int,
    sigma_max_sq: float,
    sigma_restricted_min_sq: float,
    exact: bool = True,
) -> RateReport:
    """The :class:`RateReport` of these inputs.  A refuted condition, where no
    positive step size yields a guaranteed contraction, is a report with
    ``condition_holds=False``, not an error.  Where it holds but c2 underflows
    to 0, this raises :class:`DomainError`; :func:`alpha_opt_closed_form` does not."""
    holds, epsilon = convergence_condition(q, beta, sigma_max_sq, sigma_restricted_min_sq)
    c1, c2 = rate_constants(q, beta, m, sigma_max_sq, sigma_restricted_min_sq)
    alpha_opt, contraction = (None, None) if not holds else _finite(
        "alpha_opt and the contraction", lambda: (c1 / (2.0 * c2), 1.0 - c1**2 / (4.0 * c2)))
    return RateReport(
        c1=c1,
        c2=c2,
        alpha_opt=alpha_opt,
        contraction=contraction,
        condition_holds=holds,
        epsilon=epsilon,
        inputs=RateInputs(q, beta, m, sigma_max_sq, sigma_restricted_min_sq, exact),
    )


def alpha_opt_closed_form(
    q: float, beta: float, m: int, sigma_max_sq: float, sigma_restricted_min_sq: float
) -> float:
    """Optimal step size in the epsilon-parametrized form.

    Algebraically identical to ``c1 / (2 c2)``, and kept as an independent route
    for consistency checks, but for where c2 underflows to 0 while the condition
    holds: there this returns a float and :func:`rate_report` raises.
    """
    _check_domain(q, beta, m)
    holds, epsilon = convergence_condition(q, beta, sigma_max_sq, sigma_restricted_min_sq)
    if not holds:
        raise ConditionViolatedError("convergence condition fails")
    return _finite("alpha_opt", lambda: (
        q * m * (1.0 - epsilon)
        / (sigma_max_sq - epsilon * (2.0 - epsilon) * sigma_restricted_min_sq),
    ))[0]


def restricted_summary(system: CorruptedSystem, q: float, seed: int,
                       samples: int) -> SpectralSummary:
    """Spectral summary over the row subsets of size ceil((q - beta) * m):
    exhaustive when there are at most ``SUBSET_ENUMERATION_CAP`` of them, else
    over ``samples`` seeded draws.  Below the column count every such
    submatrix is rank deficient, so the restricted value is an exact 0 and no
    subset is examined.  Raises :class:`DomainError` unless beta < q < 1 - beta,
    and :class:`ShapeError` unless ``samples`` is an integer >= 1 and ``seed``
    one >= 0 (on every path)."""
    _check_domain(q, system.beta)
    samples = as_count(samples, "samples", 1)
    seed = as_count(seed, "seed")
    m = system.m
    k = math.ceil((q - system.beta) * m)
    if k < system.n:
        return SpectralSummary(sigma_max_sq(system.matrix), 0.0, exact=True, subsets_examined=0)
    if math.comb(m, k) <= SUBSET_ENUMERATION_CAP:
        return restricted_min_sv_bruteforce(system.matrix, k)
    return restricted_min_sv_sampled(system.matrix, k, samples=samples, seed=seed)


def resolve_alpha_auto(
    system: CorruptedSystem,
    q: float,
    seed: int = 0,
    samples: int = 500,
) -> tuple[float, bool]:
    """Resolve the optimal step size for a concrete system.

    Uses the exact restricted smallest singular value when the subset count
    is enumerable under ``SUBSET_ENUMERATION_CAP``, otherwise a seeded sampled
    estimate.
    Returns ``(alpha_opt, exact_flag)``; raises :class:`ConditionViolatedError`
    where the report refutes the convergence condition.
    """
    summary = restricted_summary(system, q, seed, samples)
    report = rate_report(q, system.beta, system.m, summary.sigma_max_sq,
                         summary.sigma_restricted_min_sq, exact=summary.exact)
    if not report.condition_holds:
        raise ConditionViolatedError(
            f"convergence condition fails (epsilon = {report.epsilon:.6g} >= 1)"
        )
    return report.alpha_opt, summary.exact


# ---------------------------------------------------------------------------
# Per-iteration certification

@dataclass(frozen=True)
class TermCheck:
    bound: float
    actual: float
    slack: float  # (bound - actual) / ||e_k||^2; nonnegative means the bound holds

    def passed(self) -> bool:
        return self.slack >= -1e-9


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of checking one iteration against the decomposition bounds.

    ``term1`` bounds the uncorrupted part of the update, ``term2`` the cross
    term against the accepted corrupted rows, ``term3`` the corrupted rows'
    own contribution; ``combined`` checks the resulting squared-error bound.
    ``worst_case`` additionally compares against the a-priori factor built
    from the restricted singular value, when one was supplied.
    """

    term1: TermCheck
    term2: TermCheck
    term3: TermCheck
    combined: TermCheck
    worst_case: TermCheck | None
    tau_size: int
    tau_corrupted: int
    quantile: float
    error_sq: float

    def passed(self) -> bool:
        return all(c.passed() for c in (self.term1, self.term2, self.term3, self.combined,
                                         self.worst_case) if c is not None)


def certify_iteration(
    system: CorruptedSystem,
    x_k,
    x_next,
    q: float,
    alpha: float,
    tau,
    sigma_max_sq_value: float | None = None,
    sigma_restricted_min_sq: float | None = None,
) -> CertificateResult:
    """Check one averaged quantile step against its contraction bounds.

    All quantities are the realized ones: the accepted set ``tau`` actually
    used by the step, the exact smallest singular value of the accepted
    uncorrupted block, and the exact residual quantile at ``x_k``.  When
    ``sigma_restricted_min_sq`` is supplied, the a-priori worst-case factor
    ``1 - c1*alpha + c2*alpha**2`` is checked as well.

    Raises
    ------
    ShapeError
        If the accepted uncorrupted block is not tall.
    DomainError
        If ``2*alpha/|tau| - alpha^2*sigma_max^2/|tau|^2 < 0``, in which case
        the first bound is vacuous.
    """
    a = system.matrix
    x_k = as_array("x_k", x_k, float, copy=None)
    x_next = as_array("x_next", x_next, float, copy=None)
    tau = as_array("tau", tau, np.intp, copy=None)
    if tau.size == 0:
        raise ShapeError("cannot certify a no-op step (empty accepted set)")

    s2max = sigma_max_sq(a) if sigma_max_sq_value is None else float(sigma_max_sq_value)
    corrupted = system.corrupted_mask()
    tau1 = tau[~corrupted[tau]]
    tau2 = tau[corrupted[tau]]
    if tau1.size < system.n:
        raise ShapeError(
            f"accepted uncorrupted block must be tall: {tau1.size} rows < {system.n} cols"
        )

    e_k = x_k - system.x_star
    e_sq = float(e_k @ e_k)
    if e_sq == 0.0:
        raise ShapeError("cannot certify a step starting at the exact solution")

    c = alpha / tau.size
    g = 2.0 * c - c * c * s2max
    if g < 0.0:
        raise DomainError(
            f"2a/|tau| - a^2 s2max/|tau|^2 = {g:.6g} < 0 at alpha={alpha}"
        )

    threshold = quantile_of_multiset(np.abs(a @ x_k - system.b_observed), q)

    a1 = a[tau1]
    uncorrupted_part = e_k - c * (a1.T @ (a1 @ e_k))
    a2 = a[tau2]
    corrupted_part = c * (a2.T @ (a2 @ x_k - system.b_observed[tau2]))

    x_sq = float(uncorrupted_part @ uncorrupted_part)
    cross = 2.0 * float(uncorrupted_part @ corrupted_part)
    y_sq = float(corrupted_part @ corrupted_part)
    e_next_sq = float(np.sum((x_next - system.x_star) ** 2))

    smin_tau1 = max(float(np.linalg.eigvalsh(a1.T @ a1)[0]), 0.0)
    bound1 = (1.0 - g * smin_tau1) * e_sq
    bound2 = 2.0 * c * threshold * math.sqrt(s2max) * math.sqrt(tau2.size) * math.sqrt(x_sq)
    bound3 = c * c * threshold * threshold * s2max * tau2.size

    term1 = TermCheck(bound1, x_sq, (bound1 - x_sq) / e_sq)
    term2 = TermCheck(bound2, cross, (bound2 - cross) / e_sq)
    term3 = TermCheck(bound3, y_sq, (bound3 - y_sq) / e_sq)
    combined_bound = bound1 + bound2 + bound3
    combined = TermCheck(combined_bound, e_next_sq, (combined_bound - e_next_sq) / e_sq)

    worst = None
    if sigma_restricted_min_sq is not None:
        c1, c2 = rate_constants(q, system.beta, system.m, s2max, sigma_restricted_min_sq)
        factor = 1.0 - c1 * alpha + c2 * alpha * alpha
        worst = TermCheck(factor * e_sq, e_next_sq, factor - e_next_sq / e_sq)

    return CertificateResult(
        term1=term1,
        term2=term2,
        term3=term3,
        combined=combined,
        worst_case=worst,
        tau_size=int(tau.size),
        tau_corrupted=int(tau2.size),
        quantile=threshold,
        error_sq=e_sq,
    )
