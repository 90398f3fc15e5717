"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class ZeroRowError(ValueError):
    """A matrix row has (numerically) zero norm and cannot be normalized."""

    def __init__(self, row_index: int):
        self.row_index = row_index
        super().__init__(f"row {row_index} has zero norm")


class NoConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance within its budget."""


class TooManySubsetsError(ValueError):
    """Exhaustive subset enumeration would exceed the configured cap."""


class SpecError(ValueError):
    """A problem-generator specification is invalid."""


class EmptyInputError(ValueError):
    """An operation received an empty collection."""


class ConfigError(ValueError):
    """A solver or experiment configuration is invalid."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConditionViolatedError(ValueError):
    """The linear-convergence condition does not hold for these inputs."""


class PreconditionViolatedError(ValueError):
    """A certifier precondition fails, so the bound being checked is vacuous."""


class DivergedError(RuntimeError):
    """A solve left the trust region (relative error > 1e12 or non-finite).

    Carries the partial iteration trace recorded up to and including the
    diverged step.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class IoError(OSError):
    """Artifact reading or writing failed."""
