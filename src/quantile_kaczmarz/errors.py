"""Exception types shared across the package.

Every package error is a :class:`QkError` that also keeps a stdlib base
(``ValueError``, ``RuntimeError`` or ``OSError``), and carries the exit code
and message label the CLI reports it with.  The functions at the end state
the valid values of a configuration field once, at its declaration.
"""
import dataclasses
import math
import numbers


class QkError(Exception):
    """Base of every package error: bad input or configuration unless a
    subclass says otherwise."""

    exit_code = 2
    label = "configuration error"


class ShapeError(QkError, ValueError):
    """Operands have invalid dimensions or contents: incompatible shapes, a
    zero-norm row, an empty input, or too many subsets to enumerate."""


class NoConvergenceError(QkError, RuntimeError):
    """An iterative routine failed to reach its tolerance within its budget.

    Raised nowhere in the package; ``perfbench/`` still catches it."""


class ConfigError(QkError, ValueError):
    """A solver, experiment or problem-generator configuration is invalid."""


class DomainError(QkError, ValueError):
    """An argument lies outside the mathematical domain of the operation, or a
    certifier precondition fails, so the bound being checked is vacuous."""


class ConditionViolatedError(QkError, ValueError):
    """The linear-convergence condition does not hold for these inputs."""


class DivergedError(QkError, RuntimeError):
    """A solve left the trust region (relative error > 1e12 or non-finite).

    Carries the partial iteration trace recorded up to and including the
    diverged step.
    """

    exit_code = 3
    label = "diverged"

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class IoError(QkError, OSError):
    """Artifact reading or writing failed."""

    exit_code = 4
    label = "i/o error"


def domain(text: str, ok, **kwargs):
    """A dataclass field whose value must pass ``ok``; ``text`` states that domain."""
    return dataclasses.field(metadata={"domain": (text, ok)}, **kwargs)


def one_of(choices: tuple, **kwargs):
    """A dataclass field whose value must be one of ``choices``."""
    return domain(f"one of {choices}", lambda v: v in choices, **kwargs)


def is_int(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_seed(value) -> bool:
    """Whether ``value`` can seed a generator: a non-negative integer."""
    return is_int(value) and value >= 0


def domain_check(obj) -> None:
    """A dataclass ``__post_init__``: raise :class:`ConfigError` on the first field
    that is a non-finite float, a ``seed`` failing :func:`is_seed`, a non-integer
    in a field annotated ``int`` (``None`` too, unless ``int | None``) or outside
    its :func:`domain`, a domain test that raises :class:`TypeError` included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        text, ok = f.metadata.get("domain", ("finite", lambda v: True))
        if f.name == "seed":
            text, ok = "a non-negative integer", is_seed
        # The declaring modules postpone annotations, so a type is its text.
        elif f.type in ("int", "int | None") and not (
                is_int(value) or value is None and f.type == "int | None"):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        finite = not isinstance(value, float) or math.isfinite(value)
        try:
            valid = finite and ok(value)
        except TypeError:
            valid = False
        if not valid:
            raise ConfigError(f"{f.name} must be {text if finite else 'finite'}, got {value!r}")
