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

from .errors import DomainError, ShapeError

# Exhaustive enumeration refuses to start above this many subsets; callers
# fall back to the sampled estimator instead of silently degrading exactness.
SUBSET_ENUMERATION_CAP = 2_000_000

_ZERO_ROW_FLOOR = 1e-300
# Bytes of rows row_normalize works on at once: a block stays in cache
# between its norm and its divide.
_ROW_BLOCK_BYTES = 256 << 10
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


def row_normalize(matrix, out=None) -> np.ndarray:
    """Scale every row to unit Euclidean norm, preserving row directions.

    The rows are written to ``out``, a float64 array of the matrix's shape
    that may be the matrix itself, or to a new array if ``out`` is None; the
    result has the bits of ``a / np.linalg.norm(a, axis=1)[:, None]``.  The
    work runs over blocks of ``_ROW_BLOCK_BYTES``, so no temporary of the
    matrix's size is made.  On error, ``out`` holds a partial result.

    Raises
    ------
    ShapeError
        If the input is not a 2-D array with at least one row and one column,
        or holds a non-finite entry, or if any row norm falls below 1e-300;
        such a row has no direction.
    """
    a = _as_2d(matrix)
    out = np.empty_like(a) if out is None else out
    step = max(1, _ROW_BLOCK_BYTES // a[0].nbytes)
    zero_row = None
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        norms = np.linalg.norm(a[rows], axis=1)
        # A non-finite entry makes its row's norm non-finite, but so does a
        # finite row whose squares overflow; that row divides to zeros.
        if not np.isfinite(norms).all() and not np.isfinite(a[rows]).all():
            raise ShapeError("matrix entries must be finite")
        zero = np.flatnonzero(norms < _ZERO_ROW_FLOOR)
        if zero_row is None and zero.size:
            zero_row = start + zero[0]
        if zero_row is None:
            np.divide(a[rows], norms[:, None], out=out[rows])
    if zero_row is not None:
        raise ShapeError(f"row {zero_row} has zero norm")
    return out


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


def quantile_of_multiset(values, q: float, axis: int | None = None) -> float | np.ndarray:
    """The ceil(q*S)-th smallest element of a multiset of S reals.

    Duplicates count; selection is 1-indexed, so ``q=1`` returns the maximum.
    Uses a partial sort, O(S) expected time.  With ``axis``, each slice
    along that axis is one multiset, and the result is the array of their
    quantiles: ``axis=0`` on an S×L block gives L values.
    """
    arr = np.asarray(values, dtype=float)
    if axis is None:
        arr, axis = arr.ravel(), 0
    size = arr.shape[axis]
    if size == 0:
        raise ShapeError("quantile of an empty multiset")
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    k = math.ceil(q * size)
    kth = np.partition(arr, k - 1, axis=axis).take(k - 1, axis=axis)
    return float(kth) if kth.ndim == 0 else kth


def sigma_max_sq(matrix) -> float:
    """Largest eigenvalue of ``matrix.T @ matrix``.

    Uses a dense symmetric eigensolver on the n x n Gram matrix; the result
    is clipped at zero since the Gram matrix is positive semi-definite.
    """
    a = as_matrix(matrix)
    return float(max(np.linalg.eigvalsh(a.T @ a)[-1], 0.0))


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

    ``exact`` is True only when the restricted minimum is known exactly:
    every subset of the prescribed size was enumerated, or the size is below
    the column count, so every subset is singular by rank and the minimum is
    0 with none examined.  Sampled estimates always carry ``exact=False`` and
    can only overestimate the true restricted minimum.
    """

    sigma_max_sq: float
    sigma_restricted_min_sq: float
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


def _grams(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gram matrix of each row subset in ``idx``, by one batched ``matmul``;
    the gathered rows are freed on return."""
    sub = a[idx]                                       # (subsets, len, n)
    return np.matmul(sub.transpose(0, 2, 1), sub)      # (subsets, n, n)


def _gram_spectra(a: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(smallest eigenvalue, trace)`` of the Gram matrix of each row subset
    in ``idx``, from one batched ``eigvalsh``."""
    grams = _grams(a, idx)
    return np.linalg.eigvalsh(grams)[:, 0], np.trace(grams, axis1=1, axis2=2)


def _suffix_length(m: int, k: int, per_chunk: int) -> int:
    """The longest suffix length s whose table, C(m - k + s, s) rows, fits
    in one chunk."""
    return max(j for j in range(k + 1) if math.comb(m - k + j, j) <= per_chunk)


def _combinations(m: int, k: int, per_chunk: int, spectra=lambda rows: ()):
    """``itertools.combinations(range(m), k)`` in the same order, in chunks
    ``(idx, *sums)`` of exactly ``per_chunk`` subsets each but the last: idx
    is the (rows, k) index array, and sums holds one array per value that
    ``spectra`` gives.

    Each subset is a prefix of length p = k - s followed by a suffix of
    length s.  The suffixes that follow a prefix ending at element l are the
    combinations of ``range(l + 1, m)``, which in lexicographic order are the
    last C(m - 1 - l, s) rows of the table of combinations of ``range(p, m)``.
    s is :func:`_suffix_length`; the prefixes come from itertools
    ``per_chunk`` at a time, and ``np.repeat`` lays each prefix beside its
    rows of the table, cut at chunk boundaries.  Nothing larger than a chunk
    is held, and no index array of all the subsets is built.

    ``spectra`` maps a (rows, len) index array, the table or a block of
    prefixes, to a tuple of arrays with one value per row; each subset gets
    the sum of its prefix's and its suffix's values.  It is called once on
    the table and once per block, never on a subset's rows.
    """
    s = _suffix_length(m, k, per_chunk)
    p = k - s
    table = _index_rows(itertools.combinations(range(p, m), s), s)
    table_values = spectra(table)
    # suffix counts of the prefixes ending at l = p - 1, ..., m - s - 1
    # (l = -1 stands for the one empty prefix when p == 0)
    follow = np.array([math.comb(m - 1 - l, s) for l in range(p - 1, m - s)], dtype=np.intp)
    prefixes = itertools.combinations(range(m - s), p)
    held = 0
    while len(block := _index_rows(itertools.islice(prefixes, per_chunk), p)):
        block_values = spectra(block)
        sizes = follow[block[:, -1] + 1 - p] if p else follow[:1]
        ends = np.cumsum(sizes)
        start = 0
        while start < ends[-1]:
            if not held:
                chunk = np.empty((per_chunk, k), dtype=np.intp)
                sums = [np.empty(per_chunk) for _ in table_values]
            stop = min(start + per_chunk - held, int(ends[-1]))
            # the prefixes whose rows meet start:stop, and how many each lays
            lo = np.searchsorted(ends, start, side="right")
            hi = np.searchsorted(ends, stop, side="left") + 1
            size, begin = sizes[lo:hi], ends[lo:hi] - sizes[lo:hi]
            skip = np.maximum(start - begin, 0)
            take = np.minimum(stop - begin, size) - skip
            pre = np.repeat(np.arange(lo, hi), take)
            suf = np.repeat(len(table) - size + skip - (np.cumsum(take) - take), take)
            suf += np.arange(stop - start)
            laid = slice(held, held + stop - start)
            chunk[laid, :p], chunk[laid, p:] = block[pre], table[suf]
            for out, prefix_value, suffix_value in zip(sums, block_values, table_values):
                out[laid] = prefix_value[pre] + suffix_value[suf]
            held += stop - start
            start = stop
            if held == per_chunk:
                yield chunk, *sums
                held = 0
    if held:
        yield chunk[:held], *(out[:held] for out in sums)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(j: int) -> float:
    """Higham's gamma_j = j u / (1 - j u)."""
    return j * _UNIT_ROUNDOFF / (1 - j * _UNIT_ROUNDOFF)


def _weyl_margin(n: int, k: int) -> float:
    """Margin of the Weyl pruning test, in units of a subset's computed trace.

    For each of a subset's three row sets X (prefix, suffix, the whole; at
    most k rows) let P = X^T X with smallest eigenvalue pi, G_hat the
    computed Gram matrix, lambda the smallest eigenvalue ``eigvalsh`` returns
    for its lower triangle and t_hat its computed trace.  Barring underflow
    and overflow, with u the unit roundoff and gamma_j = j u / (1 - j u):

    1. Each entry of G_hat sums at most k products, in whatever order, so
       ``|G_hat - P| <= gamma_k |X|^T |X|`` entrywise, a matrix of 2-norm at
       most ``||X||_F^2 = tr P``.
    2. ``eigvalsh`` (LAPACK syevd) returns an eigenvalue of a matrix within
       ``p(n) u ||G||_2`` of the G it reads (LAPACK Users' Guide, sec. 4.7);
       p(n) = O(n^2) with a small unnamed constant (Higham, *Accuracy and
       Stability of Numerical Algorithms*, ch. 19), and 2 n^3 is used here.
       So ``|lambda - pi| <= delta tr P``, ``delta = gamma_k + 2 n^3 u (1 +
       gamma_k)``, and ``|lambda| <= (1 + delta) tr P``.
    3. The trace sums k n non-negative squares, so ``t_hat >= (1 -
       gamma_{k+n}) tr P``.  A subset's trace is ``t = fl(t_hat_p +
       t_hat_s)``, and ``tr P_S = tr P_p + tr P_s``, so ``tr P_S <= kappa
       t``, ``kappa = 1 / ((1 - u) (1 - gamma_{k+n}))``.
    4. ``P_S = P_p + P_s``, so ``pi_S >= pi_p + pi_s`` (Weyl), and by 2 the
       bound ``b = fl(lambda_p + lambda_s)`` obeys ``b <= lambda_S + c tr
       P_S``, ``c = 2 delta + u (1 + delta)``, and ``|b| <= beta t``, ``beta =
       (1 + u) (1 + delta) kappa``.

    A subset is pruned where ``b > fl(best + fl(margin t))``, best being the
    eigenvalue of an earlier subset.  Suppose one with ``lambda_S <= best``
    were.  If ``best >= beta t``, the threshold is at least best, so at least
    b.  Otherwise ``-delta kappa t <= best < beta t``, so the threshold is at
    least ``best + (1 - u)^2 margin t - u beta t``, which is at least b once
    the margin is at least ``R = kappa (2 delta + u (1 + delta) (2 + u)) /
    (1 - u)^2``.  Either way a contradiction: a pruned subset has ``lambda_S
    > best``, and the minimum is unchanged.  Twice R is returned, which also
    covers its own roundings.  No LU growth factor enters, so the margin is
    about ``8 n^3 u`` at every n: 6e-14 at n = 4.
    """
    u = _UNIT_ROUNDOFF
    delta = _gamma(k) + 2 * n**3 * u * (1 + _gamma(k))
    kappa = 1 / ((1 - u) * (1 - _gamma(k + n)))
    return 2 * kappa * (2 * delta + u * (1 + delta) * (2 + u)) / (1 - u) ** 2


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


# Subsets eigen-solved at once, in ascending order of bound; the running
# minimum re-prunes the rest of the chunk after each batch.
_SOLVE_BATCH = 256


def _min_over_subsets(a: np.ndarray, k: int) -> float:
    """Smallest Gram eigenvalue over the size-k row subsets of ``a``, the
    result of an eigen-solve per subset, bit for bit.

    The subsets come from :func:`_combinations`, ``_CHUNK_BYTES`` of their
    rows' worth at a time, each with a lower bound on its smallest
    eigenvalue.  Those whose bound is at most ``best + margin * trace``,
    ``best`` being the running minimum, are eigen-solved in ascending order
    of bound, ``_SOLVE_BATCH`` at a time, the rest re-pruned after each
    batch; the first chunk's lowest bound is solved alone to seed ``best``.
    Where k >= 2n, the prefix or the suffix has at least n rows, and by
    Weyl's inequality the bound is the sum of their smallest eigenvalues
    (:func:`_weyl_margin`, about 6e-14 at n = 4); only survivors are
    gathered, and where a part is the whole subset its bound is its
    eigenvalue.  Where k < 2n, one part's Gram matrix is singular, and the
    Weyl bound measured slower than forming every subset's Gram matrix and
    bounding it by :func:`_det_trace_bound` (:func:`_prune_margin`, about
    2e-11 at n = 4); survivors are solved from the Gram matrices the chunk
    holds.  That margin carries LU's worst-case growth, so from n = 27, as
    at n = 1, there is no bound and every subset is eigen-solved.
    """
    m, n = a.shape
    per_chunk = _per_chunk(a, k)
    weyl = k >= 2 * n
    if weyl:
        exact = _suffix_length(m, k, per_chunk) in (0, k)
        margin = None if exact else _weyl_margin(n, k)
        chunks = _combinations(m, k, per_chunk, lambda rows: _gram_spectra(a, rows))
    else:
        margin = None if n == 1 else _prune_margin(n, k)
        chunks = _combinations(m, k, per_chunk)
    best = np.inf
    for idx, *sums in chunks:
        grams = None if weyl else _grams(a, idx)       # (chunk, n, n)
        if margin is None:  # no bound: every subset's eigenvalue, read or solved
            low = sums[0] if weyl else np.linalg.eigvalsh(grams)[:, 0]
            best = min(best, float(low.min()))
        else:
            bound, trace = sums if weyl else _det_trace_bound(grams)
            live = np.flatnonzero(bound <= best + margin * trace)
            live = live[np.argsort(bound[live])]
            while len(live):
                size = _SOLVE_BATCH if best < np.inf else 1  # the lowest bound seeds best
                batch, live = live[:size], live[size:]
                solved = _grams(a, idx[batch]) if weyl else grams[batch]
                best = min(best, float(np.linalg.eigvalsh(solved)[:, 0].min()))
                live = live[bound[live] <= best + margin * trace[live]]
        del grams  # freed before the next chunk's Gram matrices are formed
    return max(best, 0.0)


def _validate_subset_size(a: np.ndarray, k) -> int:
    m, n = a.shape
    k = as_count(k, "k")
    if not n <= k <= m:
        raise ShapeError(f"subset size k={k} must satisfy cols <= k <= rows ({n} <= k <= {m})")
    return k


def restricted_min_sv_bruteforce(matrix, k: int) -> SpectralSummary:
    """Exact infimum of ``sigma_min_sq`` over all row subsets of size ``k``.

    Enumerates every subset, so the binomial count must stay below
    ``SUBSET_ENUMERATION_CAP``.  numpy builds the index chunks in
    lexicographic order, never all at once, and at most ``_CHUNK_BYTES``
    (4 MiB) of subset rows are gathered at a time, or one subset when a
    single one is larger.

    ``subsets_examined`` counts every subset, but ``eigvalsh`` runs only on
    those that a lower bound on the smallest eigenvalue cannot rule out, in
    one pruning loop (:func:`_min_over_subsets`) fed by either bound: Weyl's
    inequality on a prefix/suffix split where k >= 2n, the det-trace bound
    of each Gram matrix where k < 2n.  Each bound's margin covers its
    rounding and ``eigvalsh``'s error, so the result is the one an
    eigen-solve of every subset gives, bit for bit.  At 20x4, k = 10
    (184,756 subsets), there are 9,009 prefix and suffix spectra and about
    1,200 to 14,000 subset eigen-solves.

    Raises
    ------
    ShapeError
        If ``k`` is not an integer (a bool is not), lies outside
        ``[cols, rows]``, or ``C(rows, k)`` exceeds ``SUBSET_ENUMERATION_CAP``;
        callers should then fall back to :func:`restricted_min_sv_sampled`.
    """
    a = as_matrix(matrix)
    m, _ = a.shape
    k = _validate_subset_size(a, k)
    total = math.comb(m, k)
    if total > SUBSET_ENUMERATION_CAP:
        raise ShapeError(
            f"C({m},{k}) = {total} subsets exceeds the enumeration cap {SUBSET_ENUMERATION_CAP}"
        )
    best = _min_over_subsets(a, k)
    return SpectralSummary(
        sigma_max_sq=sigma_max_sq(a),
        sigma_restricted_min_sq=best,
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
    larger, so memory does not grow with ``samples``.  Every subset is
    eigen-solved: random subsets share no prefix for the Weyl bound of
    :func:`restricted_min_sv_bruteforce` to reuse, and its det-trace test
    measured no faster here.

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
    best = min(float(_gram_spectra(a, idx)[0].min())
               for idx in _chunked(draws, k, _per_chunk(a, k)))
    return SpectralSummary(
        sigma_max_sq=sigma_max_sq(a),
        sigma_restricted_min_sq=max(best, 0.0),
        exact=False,
        subsets_examined=samples,
    )
