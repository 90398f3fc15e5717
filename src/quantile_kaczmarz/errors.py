"""Exception types shared across the package.

Every package error is a :class:`QkError` that also keeps a stdlib base
(``ValueError``, ``RuntimeError`` or ``OSError``), and carries the exit code
and message label the CLI reports it with.  The functions at the end state
the valid values of a configuration field once, at its declaration.
"""
import dataclasses
import functools
import math
import numbers
import sys
import types
import typing


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


def is_real(value) -> bool:
    """Whether ``value`` is a real number: a Python or numpy int or float, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether ``value`` is a real number that a finite float holds."""
    if is_int(value):  # compared exactly: math.isfinite overflows on a huge int
        return abs(value) <= sys.float_info.max
    return is_real(value) and math.isfinite(value)


def is_seed(value) -> bool:
    """Whether ``value`` can seed a generator: a non-negative integer."""
    return is_int(value) and value >= 0


def _cast(value, hint):
    """``value`` as the annotation ``hint`` takes it: an ``int`` an integer, a
    ``float`` a finite real number as a float, a ``tuple[X, ...]`` a tuple of
    ``X``, another class an instance, and ``X | Y`` what either arm takes.
    Raises :class:`ValueError` for a real number in a ``float`` that no
    finite float holds, and :class:`TypeError` for any other misfit."""
    for arm in typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,):
        if typing.get_origin(arm) is tuple:
            if isinstance(value, tuple):
                return tuple(_cast(v, typing.get_args(arm)[0]) for v in value)
        elif arm in (int, float):
            if is_int(value) or arm is float and is_real(value):
                if arm is float and not is_finite(value):
                    raise ValueError(value)
                return arm(value)
        elif isinstance(value, arm):  # str, bool, None or a config dataclass
            return value
    raise TypeError(value)


# A class's resolved annotations do not change, so each class resolves them once.
_type_hints = functools.cache(typing.get_type_hints)


def domain_check(obj) -> None:
    """A dataclass ``__post_init__``: raise :class:`ConfigError` on the first
    field whose value is not of its annotated type (a bool is neither an int
    nor a float, and a float is finite) or lies outside its :func:`domain`.
    The value is stored as its type holds it: a number in a float field as a
    float, and a numpy number as a Python one, also inside a tuple."""
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        try:
            typed = _cast(value, hints[f.name])
        except ValueError:
            raise ConfigError(f"{f.name} must be finite, got {value!r}") from None
        except TypeError:
            # The declaring modules postpone annotations, so a type is its text.
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}") from None
        text, ok = f.metadata.get("domain", (None, lambda v: True))
        if not ok(typed):
            raise ConfigError(f"{f.name} must be {text}, got {value!r}")
        object.__setattr__(obj, f.name, typed)
