"""Dense row-space primitives.

Row normalization, the residual quantile, extremal singular values of the
row Gram matrix, and the restricted smallest singular value over row subsets
of a fixed size -- the quantity that controls how badly conditioned an
accepted block of rows can be.
Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInputError, ShapeError, TooManySubsetsError, ZeroRowError

# Exhaustive enumeration refuses to start above this many subsets; callers
# fall back to the sampled estimator instead of silently degrading exactness.
SUBSET_ENUMERATION_CAP = 2_000_000

_ZERO_ROW_FLOOR = 1e-300
# Bytes of gathered subset rows held at once by the restricted routines.
_CHUNK_BYTES = 4 << 20


def _as_2d(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    m, n = a.shape
    if m < 1 or n < 1:
        raise ShapeError(f"matrix must be at least 1x1, got {m}x{n}")
    return a


def as_matrix(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a 2-D float64 array.

    Raises
    ------
    ShapeError
        If the input is not a 2-D array with at least one row and one column,
        or contains non-finite entries.
    """
    a = _as_2d(matrix)
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix entries must be finite")
    return a


def as_count(value, name: str, minimum: int = 0) -> int:
    """Return ``value`` as a Python int no smaller than ``minimum``.

    Raises
    ------
    ShapeError
        If ``value`` is a bool or not an integer (``operator.index`` fails),
        or is below ``minimum``; the message names ``name``.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ShapeError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise ShapeError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ShapeError(f"{name} must be >= {minimum}, got {count}")
    return count


def row_normalize(matrix) -> np.ndarray:
    """Scale every row to unit Euclidean norm, preserving row directions.

    Raises
    ------
    ZeroRowError
        If any row norm falls below 1e-300; such a row has no direction.
    """
    a = as_matrix(matrix)
    norms = np.linalg.norm(a, axis=1)
    bad = np.flatnonzero(norms < _ZERO_ROW_FLOOR)
    if bad.size:
        raise ZeroRowError(int(bad[0]))
    return a / norms[:, None]


def is_row_normalized(matrix, tol: float = 1e-9) -> bool:
    """True if every row norm lies within ``tol`` of one.

    One streaming pass over the matrix with no m x n temporary; a row holding
    a non-finite entry fails the test.

    Raises
    ------
    ShapeError
        If the input is not a 2-D array with at least one row and one column.
    """
    a = _as_2d(matrix)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    return bool(np.all(np.abs(norms - 1.0) <= tol))


def quantile_of_multiset(values, q: float) -> float:
    """The ceil(q*S)-th smallest element of a multiset of S reals.

    Duplicates count; selection is 1-indexed, so ``q=1`` returns the maximum.
    Uses a partial sort, O(S) expected time.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyInputError("quantile of an empty multiset")
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    k = math.ceil(q * arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def gram(matrix) -> np.ndarray:
    a = as_matrix(matrix)
    return a.T @ a


def sigma_max_sq(matrix) -> float:
    """Largest eigenvalue of ``matrix.T @ matrix``.

    Uses a dense symmetric eigensolver on the n x n Gram matrix; the result
    is clipped at zero since the Gram matrix is positive semi-definite.
    """
    return float(max(np.linalg.eigvalsh(gram(matrix))[-1], 0.0))


def sigma_min_sq(matrix) -> float:
    """Smallest eigenvalue of ``matrix.T @ matrix`` for a tall matrix.

    Uses a dense symmetric eigendecomposition of the n x n Gram matrix;
    sized for n up to a few hundred.  The result is clipped at zero since
    the Gram matrix is positive semi-definite.

    Raises
    ------
    ShapeError
        If the matrix has fewer rows than columns.
    """
    a = as_matrix(matrix)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"need rows >= cols, got {m}x{n}")
    w = np.linalg.eigvalsh(a.T @ a)
    return float(max(w[0], 0.0))


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral quantities of a matrix and its size-k row submatrices.

    ``exact`` is True only when every subset of the prescribed size was
    enumerated; sampled estimates always carry ``exact=False`` and can only
    overestimate the true restricted minimum.
    """

    sigma_max_sq: float
    sigma_restricted_min_sq: float
    restricted_fraction: float
    exact: bool
    subsets_examined: int


def _min_over_subsets(a: np.ndarray, k: int, subsets) -> float:
    """Smallest Gram eigenvalue over an iterable of size-k row-index subsets.

    Gathers at most ``_CHUNK_BYTES`` of subset rows at a time (one subset if
    a single one is larger) and forms each Gram matrix with a BLAS product.
    """
    subsets = iter(subsets)
    per_chunk = max(1, _CHUNK_BYTES // (a.itemsize * k * a.shape[1]))
    best = np.inf
    while True:
        idx = np.fromiter(itertools.islice(subsets, per_chunk), dtype=(np.intp, k))
        if idx.size == 0:
            return max(best, 0.0)
        sub = a[idx]                                       # (chunk, k, n)
        grams = np.matmul(sub.transpose(0, 2, 1), sub)     # (chunk, n, n)
        del sub  # free this chunk before the next one is gathered
        best = min(best, float(np.linalg.eigvalsh(grams)[:, 0].min()))


def _validate_subset_size(a: np.ndarray, k) -> int:
    m, n = a.shape
    k = as_count(k, "k")
    if not n <= k <= m:
        raise ShapeError(f"subset size k={k} must satisfy cols <= k <= rows ({n} <= k <= {m})")
    return k


def restricted_min_sv_bruteforce(
    matrix, k: int, cap: int = SUBSET_ENUMERATION_CAP
) -> SpectralSummary:
    """Exact infimum of ``sigma_min_sq`` over all row subsets of size ``k``.

    Enumerates every subset, so the binomial count must stay below ``cap``.
    Holds at most ``_CHUNK_BYTES`` (4 MiB) of gathered subset rows at a time,
    or one subset when a single one is larger.

    Raises
    ------
    ShapeError
        If ``k`` is not an integer (a bool is not) or lies outside
        ``[cols, rows]``.
    TooManySubsetsError
        If ``C(rows, k)`` exceeds ``cap``; callers should fall back to
        :func:`restricted_min_sv_sampled`.
    """
    a = as_matrix(matrix)
    m, _ = a.shape
    k = _validate_subset_size(a, k)
    total = math.comb(m, k)
    if total > cap:
        raise TooManySubsetsError(
            f"C({m},{k}) = {total} subsets exceeds the enumeration cap {cap}"
        )
    best = _min_over_subsets(a, k, itertools.combinations(range(m), k))
    return SpectralSummary(
        sigma_max_sq=sigma_max_sq(a),
        sigma_restricted_min_sq=best,
        restricted_fraction=k / m,
        exact=True,
        subsets_examined=total,
    )


def restricted_min_sv_sampled(
    matrix, k: int, samples: int, seed: int
) -> SpectralSummary:
    """Minimum of ``sigma_min_sq`` over ``samples`` uniformly drawn size-k subsets.

    A heuristic stand-in for the exhaustive infimum when the subset count is
    combinatorially out of reach.  Deterministic given ``seed``; the estimate
    never undershoots the exact value.  Holds at most ``_CHUNK_BYTES`` (4 MiB)
    of gathered subset rows at a time, or one subset when a single one is
    larger, so memory does not grow with ``samples``.

    Raises
    ------
    ShapeError
        If ``k`` or ``samples`` is not an integer (a bool is not), ``k`` lies
        outside ``[cols, rows]``, or ``samples`` is below 1.
    """
    a = as_matrix(matrix)
    m, _ = a.shape
    k = _validate_subset_size(a, k)
    samples = as_count(samples, "samples", 1)
    rng = np.random.default_rng(seed)
    draws = (rng.choice(m, size=k, replace=False) for _ in range(samples))
    best = _min_over_subsets(a, k, draws)
    return SpectralSummary(
        sigma_max_sq=sigma_max_sq(a),
        sigma_restricted_min_sq=best,
        restricted_fraction=k / m,
        exact=False,
        subsets_examined=samples,
    )
