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


def _per_chunk(a: np.ndarray, k: int) -> int:
    """Subsets per chunk: ``_CHUNK_BYTES`` of gathered rows, at least one."""
    return max(1, _CHUNK_BYTES // (a.itemsize * k * a.shape[1]))


def _index_rows(tuples, width: int) -> np.ndarray:
    """Index tuples of one width, which may be 0, as a (rows, width) array."""
    rows = list(tuples)
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def _chunked(subsets, k: int, per_chunk: int):
    """An iterable of size-k index subsets as (per_chunk, k) arrays, the
    last one possibly shorter."""
    subsets = iter(subsets)
    while (idx := np.fromiter(itertools.islice(subsets, per_chunk), dtype=(np.intp, k))).size:
        yield idx


def _combinations(m: int, k: int, per_chunk: int):
    """``itertools.combinations(range(m), k)`` in the same order, as (rows, k)
    index arrays of exactly ``per_chunk`` rows each but the last.

    Each subset is a prefix of length p = k - s followed by a suffix of
    length s.  The suffixes that follow a prefix ending at element l are the
    combinations of ``range(l + 1, m)``, which in lexicographic order are the
    last C(m - 1 - l, s) rows of the table of combinations of ``range(p, m)``.
    s is the longest suffix whose table fits in one chunk; the prefixes come
    from itertools ``per_chunk`` at a time, and ``np.repeat`` lays each prefix
    beside its rows of the table, cut at chunk boundaries.  Nothing larger
    than a chunk is held, and no index array of all the subsets is built.
    """
    s = max(j for j in range(k + 1) if math.comb(m - k + j, j) <= per_chunk)
    p = k - s
    table = _index_rows(itertools.combinations(range(p, m), s), s)
    # suffix counts of the prefixes ending at l = p - 1, ..., m - s - 1
    # (l = -1 stands for the one empty prefix when p == 0)
    follow = np.array([math.comb(m - 1 - l, s) for l in range(p - 1, m - s)], dtype=np.intp)
    prefixes = itertools.combinations(range(m - s), p)
    held = 0
    while len(block := _index_rows(itertools.islice(prefixes, per_chunk), p)):
        sizes = follow[block[:, -1] + 1 - p] if p else follow[:1]
        ends = np.cumsum(sizes)
        start = 0
        while start < ends[-1]:
            if not held:
                chunk = np.empty((per_chunk, k), dtype=np.intp)
            stop = min(start + per_chunk - held, int(ends[-1]))
            # the prefixes whose rows meet start:stop, and how many each lays
            lo = np.searchsorted(ends, start, side="right")
            hi = np.searchsorted(ends, stop, side="left") + 1
            size, begin = sizes[lo:hi], ends[lo:hi] - sizes[lo:hi]
            skip = np.maximum(start - begin, 0)
            take = np.minimum(stop - begin, size) - skip
            first = np.repeat(len(table) - size + skip - (np.cumsum(take) - take), take)
            rows = chunk[held:held + stop - start]
            rows[:, :p] = np.repeat(block[lo:hi], take, axis=0)
            rows[:, p:] = table[first + np.arange(stop - start)]
            held += stop - start
            start = stop
            if held == per_chunk:
                yield chunk
                held = 0
    if held:
        yield chunk[:held]


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(j: int) -> float:
    """Higham's gamma_j = j u / (1 - j u)."""
    return j * _UNIT_ROUNDOFF / (1 - j * _UNIT_ROUNDOFF)


def _prune_margin(n: int, k: int) -> float | None:
    """Margin of the det-trace pruning test, in units of the computed trace;
    None where the bound cannot separate subsets.

    For one size-k subset let X be its k x n rows, P = X^T X (PSD, smallest
    eigenvalue pi_1), G_hat the computed Gram matrix, G its lower triangle
    made symmetric (all that ``eigvalsh`` reads), lambda_hat the smallest
    eigenvalue ``eigvalsh`` returns for it, t_hat the computed trace and
    b_hat the computed bound.  Barring underflow and overflow, with u the
    unit roundoff and gamma_j = j u / (1 - j u):

    1. ``|G_hat - P| <= gamma_k |X|^T |X|`` entrywise, and ``|X|^T |X|``
       has 2-norm at most tr P (each entry is at most a product of column
       norms), so G and G_hat lie within ``gamma_k tr P`` of P in 2-norm.
       Diagonal entries are sums of squares, so ``tr P <= tau :=
       t_hat (1 + 2 gamma_{k+n})``.
    2. ``eigvalsh`` (LAPACK syevd) returns an eigenvalue of G + E with
       ``||E||_2 <= p(n) u ||G||_2`` (LAPACK Users' Guide, sec. 4.7); the
       Householder reduction and tridiagonal solve give p(n) = O(n^2) with
       a small unnamed constant (Higham, *Accuracy and Stability of
       Numerical Algorithms*, ch. 19), and n^3 is used here.  So
       ``|lambda_hat - pi_1| <= (gamma_k + 2 n^3 u) tau``.
    3. ``slogdet`` factors G_hat + F exactly by LU with partial pivoting,
       ``|F| <= gamma_n |L||U|`` (Higham, Thm 9.3), with ``|l_ij| <= 1``
       and ``|u_ij| <= 2^(n-1) max|G_hat_ij| <= 2^(n-1) (1 + gamma_k) tr P``;
       so ``D = G_hat + F`` is within ``phi tau`` of P, ``phi = gamma_k +
       n (n + 1) 2^(n-1) gamma_n``.  Weyl's inequality for singular values,
       then AM-GM over all but the smallest, give
       ``|det D| <= (pi_1 + phi tau) (tau (1 + (n - 1) phi) / (n - 1))^(n-1)``.
    4. b_hat is ``exp(log|det D| - (n - 1) log(t_hat / (n - 1)))`` up to the
       rounding of its n + 1 logarithms, its exp and the n + 2 arithmetic
       operations between them.  Taking each elementary function within
       4 ulps (8u), and every float64 logarithm below 745 in magnitude, the
       exponent is off by at most ``eta = 745 n gamma_{n+20}``.

    So ``b_hat <= (lambda_hat + mu tau) kappa`` with ``mu = 2 gamma_k +
    2 n^3 u + n (n + 1) 2^(n-1) gamma_n`` and ``kappa = ((1 + 2 gamma_{k+n})
    (1 + (n - 1) phi))^(n-1) exp(eta) (1 + 8u)``; a bound of 0 (sign <= 0)
    obeys it too, as ``lambda_hat >= -mu tau``.  Also ``lambda_hat <=
    (1 + mu) tau``.  Suppose a subset with ``lambda_hat <= best`` were
    pruned, ``b_hat > fl(best + fl(margin t_hat))``.  If ``best > B tau``,
    ``B = (1 + 2 mu) kappa / (1 - 2u)``, that threshold exceeds
    ``(1 + 2 mu) kappa tau >= b_hat``; otherwise it exceeds b_hat once the
    margin is at least ``R = (1 + 2 gamma_{k+n}) ((kappa - 1 + u) B +
    mu kappa) / (1 - 2u)``.  Either way a contradiction: with a margin of at
    least R, a pruned subset has ``lambda_hat > best``, so the minimum, and
    the ``eigvalsh`` call that finds it, are unchanged.  While mu,
    kappa - 1 and 2 gamma_{k+n} are at most 1/16, R < 1.28 (kappa - 1 + u)
    + 1.13 mu, so twice ``mu + kappa - 1 + u`` is returned, which also covers
    its own few roundings.  Beyond 1/16 (from n = 27, through the growth
    factor 2^(n-1)) None is returned and every subset is eigen-solved.
    """
    # 2^(n-1) is capped below float overflow; the margin is None long before
    lu = n * (n + 1) * 2.0 ** min(n - 1, 1023) * _gamma(n)
    phi = _gamma(k) + lu
    mu = 2 * _gamma(k) + 2 * n**3 * _UNIT_ROUNDOFF + lu
    log_kappa = ((n - 1) * (math.log1p(2 * _gamma(k + n)) + math.log1p((n - 1) * phi))
                 + 745 * n * _gamma(n + 20) + math.log1p(8 * _UNIT_ROUNDOFF))
    if max(mu, 2 * _gamma(k + n)) > 1 / 16 or log_kappa > math.log1p(1 / 16):
        return None
    return 2 * (mu + math.expm1(log_kappa) + _UNIT_ROUNDOFF)


def _det_trace_bound(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(bound, trace)`` per Gram matrix: ``det / (trace / (n-1))^(n-1)``,
    a lower bound on the smallest eigenvalue of a PSD matrix (AM-GM over the
    other n - 1 eigenvalues), and 0 where slogdet's sign is not positive."""
    n = grams.shape[-1]
    sign, logdet = np.linalg.slogdet(grams)
    trace = np.trace(grams, axis1=1, axis2=2)
    bound = np.zeros_like(trace)
    pos = sign > 0
    bound[pos] = np.exp(logdet[pos] - (n - 1) * np.log(trace[pos] / (n - 1)))
    return bound, trace


def _chunk_min(a: np.ndarray, idx: np.ndarray, best: float, prune: bool) -> float:
    """``min(best, smallest Gram eigenvalue of the subsets in idx)``."""
    n = a.shape[1]
    sub = a[idx]                                       # (chunk, k, n)
    grams = np.matmul(sub.transpose(0, 2, 1), sub)     # (chunk, n, n)
    del sub  # free the gathered rows before the Gram matrices are solved
    if prune and n == 1:  # a 1x1 Gram matrix is its own eigenvalue
        return min(best, float(grams.min()))
    margin = _prune_margin(n, idx.shape[1]) if prune else None
    if margin is not None:
        bound, trace = _det_trace_bound(grams)
        if best == np.inf:  # the first chunk seeds best from its lowest bound
            first = int(np.argmin(bound))
            best = float(np.linalg.eigvalsh(grams[first:first + 1])[0, 0])
        grams = grams[bound <= best + margin * trace]
        if not len(grams):
            return best
    return min(best, float(np.linalg.eigvalsh(grams)[:, 0].min()))


def _min_over_subsets(a: np.ndarray, chunks, prune: bool = False) -> float:
    """Smallest Gram eigenvalue over chunks of size-k row-index subsets.

    Each chunk holds at most ``_CHUNK_BYTES`` of gathered rows (one subset if
    a single one is larger); its Gram matrices come from a BLAS product.
    With ``prune``, only the subsets whose det-trace bound is at most
    ``best + margin * trace`` are eigen-solved (:func:`_prune_margin`), and
    the result is the same.
    """
    best = np.inf
    for idx in chunks:
        best = _chunk_min(a, idx, best, prune)
    return max(best, 0.0)


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
    or one subset when a single one is larger; numpy builds the index chunks
    in lexicographic order, never all at once.

    Every subset's Gram matrix G is formed and bounded, and
    ``subsets_examined`` counts them all, but ``eigvalsh`` runs only on those
    that might hold the minimum: ``lambda_min(G) >= det(G) / (tr(G) /
    (n-1))^(n-1)`` (AM-GM over the other n - 1 eigenvalues), taken in batch
    from ``slogdet`` and the trace, so a subset whose bound exceeds the
    running minimum plus a rounding margin is skipped.  The margin (about
    2e-11 times the trace at n = 4; derived in :func:`_prune_margin`) covers
    the bound's own rounding and ``eigvalsh``'s absolute error, so the result
    is the one an eigen-solve of every subset gives, bit for bit.  Where
    n = 1 the 1x1 Gram matrix is its eigenvalue; from n = 27 the worst-case
    LU growth in the margin leaves the bound no use, and every subset is
    eigen-solved.  At 20x4,
    k = 10 (184,756 subsets) about one subset in 200 is eigen-solved, and the
    call takes about a third of the time of an eigen-solve per subset.

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
    best = _min_over_subsets(a, _combinations(m, k, _per_chunk(a, k)), prune=True)
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
    best = _min_over_subsets(a, _chunked(draws, k, _per_chunk(a, k)))
    return SpectralSummary(
        sigma_max_sq=sigma_max_sq(a),
        sigma_restricted_min_sq=best,
        restricted_fraction=k / m,
        exact=False,
        subsets_examined=samples,
    )
