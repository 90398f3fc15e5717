"""Summaries of a sweep's points that only the tests read."""


def argmin_value(result) -> float:
    """The swept value with the smallest mean relative error."""
    return min(result.values(), key=result.mean_rel_error)


def all_diverged(result, value: float) -> bool:
    """Whether every repetition at ``value`` diverged."""
    return all(p.diverged for p in result.points if p.value == value)
