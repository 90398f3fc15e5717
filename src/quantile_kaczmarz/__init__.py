"""Quantile-thresholded Kaczmarz solvers for sparsely corrupted linear systems.

A library and CLI harness for overdetermined systems whose right-hand sides
carry a sparse fraction of arbitrarily large corruptions: residual-quantile
gated single-row and averaged-block solvers, the spectral quantities their
convergence rates depend on, closed-form rate evaluation with per-iteration
certification, and reproducible experiment sweeps.
"""
from inspect import ismodule as _ismodule

from .errors import (
    ConditionViolatedError,
    ConfigError,
    DivergedError,
    DomainError,
    IoError,
    NoConvergenceError,
    QkError,
    ShapeError,
)
from .linalg import (
    SUBSET_ENUMERATION_CAP,
    SpectralSummary,
    quantile_of_multiset,
    restricted_min_sv_bruteforce,
    restricted_min_sv_sampled,
    row_normalize,
    sigma_max_sq,
    sigma_min_sq,
)
from .problems import (
    CorruptedSystem,
    CorruptionSpec,
    GeneratorSpec,
    generate,
    generate_adversarial_duplicate,
    load_system,
    save_system,
)
from .rates import (
    CertificateResult,
    RateReport,
    alpha_opt_closed_form,
    certify_iteration,
    convergence_condition,
    rate_constants,
    rate_report,
    resolve_alpha_auto,
)
from .solvers import (
    COMPARATORS,
    METHODS,
    IterationTrace,
    SolverConfig,
    averaged_rbk_step,
    quantile_abk_step,
    quantile_pbk_step,
    quantile_rk_step,
    residual,
    rk_step,
    sampled_qabk_step,
    solve,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    SweepSpec,
    adversarial_demo,
    compare_methods,
    empirical_alpha,
    run,
    start_vector,
    sweep,
)

__version__ = "0.1.0"

# The public names are the ones imported above; the submodules are not exported.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not _ismodule(value))
