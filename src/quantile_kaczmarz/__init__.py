"""Quantile-thresholded Kaczmarz solvers for sparsely corrupted linear systems.

A library and CLI harness for overdetermined systems whose right-hand sides
carry a sparse fraction of arbitrarily large corruptions: residual-quantile
gated single-row and averaged-block solvers, the spectral quantities their
convergence rates depend on, closed-form rate evaluation with per-iteration
certification, and reproducible experiment sweeps.

Importing the package runs none of its modules.  Each public name, and each
submodule (``qk.solvers``, ``qk.harness``, ...), loads its module the first
time it is read and is then an ordinary module attribute: ``qk.generate``
loads ``problems`` and the modules it imports, ``qk.solve`` adds ``solvers``,
and only the experiment names such as ``qk.run`` load ``harness``.  Each name
is the same object as in the module that defines it.
"""
import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_HOMES = {
    "errors": ("ConditionViolatedError", "ConfigError", "DivergedError", "DomainError",
               "IoError", "NoConvergenceError", "QkError", "ShapeError"),
    "linalg": ("SUBSET_ENUMERATION_CAP", "SpectralSummary", "quantile_of_multiset",
               "restricted_min_sv_bruteforce", "restricted_min_sv_sampled", "row_normalize",
               "sigma_max_sq"),
    "problems": ("CorruptedSystem", "CorruptionSpec", "GeneratorSpec", "generate",
                 "generate_adversarial_duplicate", "load_system", "save_system"),
    "rates": ("CertificateResult", "RateReport", "alpha_opt_closed_form", "certify_iteration",
              "convergence_condition", "rate_constants", "rate_report", "resolve_alpha_auto"),
    "solvers": ("COMPARATORS", "METHODS", "IterationTrace", "SolverConfig",
                "averaged_rbk_step", "quantile_abk_step", "quantile_pbk_step",
                "quantile_rk_step", "residual", "rk_step", "sampled_qabk_step", "solve"),
    "harness": ("ExperimentConfig", "SweepResult", "SweepSpec", "adversarial_demo",
                "compare_methods", "empirical_alpha", "run", "start_vector", "sweep"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("cli", "errors", "harness", "linalg", "problems", "rates", "solvers", "svgplot")

# The public names; the submodules are not exported.
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load ``name``'s module, keep ``name`` as a module attribute and return it."""
    if name not in _HOME and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    value = getattr(module, name) if name in _HOME else module
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
