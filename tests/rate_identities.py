"""Closed-form identities of the rate theory that the tests check the
package against; they are not part of its API."""
from quantile_kaczmarz.errors import DomainError


def scaled_step_decrease(xi: float) -> float:
    """Decrease ratio when running at ``xi`` times the optimal step size.

    The per-iteration decrease ``c1*alpha - c2*alpha**2`` is quadratic, so
    scaling the optimal step by ``xi`` retains the fraction ``2*xi - xi**2``
    of the optimal decrease.  Defined on (0, 2), the window in which any
    decrease remains.
    """
    if not 0.0 < xi < 2.0:
        raise DomainError(f"xi must lie in (0, 2), got {xi}")
    return 2.0 * xi - xi * xi
