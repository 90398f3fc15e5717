"""Literal gather references of the step kernels, and the forward error
bound within which an averaged kernel that sums in another order must agree
with them.  The tests check the package against these; they are not part of
its API.

Each averaged reference copies the rows it uses and forms the paper's update
``x - (alpha/|tau|) A_tau^T r_tau`` as written; the projective reference
forms ``x + pinv(A_tau)(b_tau - A_tau x)``.  The threshold is the
ceil(q*S)-th smallest residual magnitude, taken from a full sort.

The smallest Gram eigenvalue, ``sigma_min_sq``, is here too: the spectral
tests compare the restricted routines against it.
"""
import math

import numpy as np

from quantile_kaczmarz.errors import ShapeError
from quantile_kaczmarz.linalg import as_matrix

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _threshold(abs_r: np.ndarray, q: float) -> float:
    return float(np.sort(abs_r)[math.ceil(q * abs_r.size) - 1])


def _accepted(abs_r: np.ndarray, threshold: float, comparator: str) -> np.ndarray:
    return abs_r < threshold if comparator == "strict-below" else abs_r <= threshold


def averaged_rbk_reference(matrix, b, x, block, alpha: float) -> np.ndarray:
    block = np.asarray(block, dtype=np.intp)
    r = matrix[block] @ x - b[block]
    return x - (alpha / block.size) * (matrix[block].T @ r)


def quantile_abk_reference(matrix, b, x, q: float, alpha: float,
                           comparator: str = "strict-below"):
    """``(x_next, threshold, tau)`` of the full-residual averaged step."""
    r = matrix @ x - b
    abs_r = np.abs(r)
    threshold = _threshold(abs_r, q)
    tau = np.flatnonzero(_accepted(abs_r, threshold, comparator))
    if tau.size == 0:
        return x.copy(), threshold, tau
    return x - (alpha / tau.size) * (matrix[tau].T @ r[tau]), threshold, tau


def sampled_qabk_reference(matrix, b, x, q: float, t: int, alpha: float, rng,
                           comparator: str = "strict-below"):
    """``(x_next, threshold, tau)`` of the sampled averaged step; draws from
    ``rng`` exactly what the kernel draws (nothing when ``t`` is the row
    count)."""
    m = matrix.shape[0]
    if t == m:
        return quantile_abk_reference(matrix, b, x, q, alpha, comparator)
    sample = rng.choice(m, size=t, replace=False)
    r = matrix[sample] @ x - b[sample]
    abs_r = np.abs(r)
    threshold = _threshold(abs_r, q)
    keep = _accepted(abs_r, threshold, comparator)
    tau = sample[keep]
    if tau.size == 0:
        return x.copy(), threshold, tau
    return x - (alpha / tau.size) * (matrix[tau].T @ r[keep]), threshold, tau


def quantile_pbk_reference(matrix, b, x, q: float, comparator: str = "strict-below"):
    """``(x_next, threshold, tau)`` of the projective step, through numpy's
    SVD-based pseudoinverse of the accepted rows."""
    r = matrix @ x - b
    abs_r = np.abs(r)
    threshold = _threshold(abs_r, q)
    tau = np.flatnonzero(_accepted(abs_r, threshold, comparator))
    if tau.size == 0:
        return x.copy(), threshold, tau
    sub = matrix[tau]
    return x + np.linalg.pinv(sub) @ (b[tau] - sub @ x), threshold, tau


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def sigma_min_sq(matrix) -> float:
    """Smallest eigenvalue of ``matrix.T @ matrix`` for a tall matrix, by a
    dense symmetric eigendecomposition of the n x n Gram matrix, clipped at
    zero since the Gram matrix is positive semi-definite.  Raises
    :class:`ShapeError` if the matrix has fewer rows than columns."""
    a = as_matrix(matrix)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"need rows >= cols, got {m}x{n}")
    w = np.linalg.eigvalsh(a.T @ a)
    return float(max(w[0], 0.0))


def update_bound(matrix, b, x, tau, alpha: float, rows_summed: int) -> np.ndarray:
    """Componentwise bound on the gap between two evaluations of the same
    averaged step that differ only in the order of the sum ``A_tau^T r_tau``.

    Both evaluations share the computed residual ``r`` and the computed scale
    ``c = fl(alpha/|tau|)``, and each forms ``fl(x - fl(c * s_hat))``.  Let
    ``s = A_tau^T r_tau`` exactly and ``S = |A_tau|^T |r_tau|``.  A sum of at
    most k products in any order, with or without fused multiply-adds, has
    ``|s_hat - s| <= gamma_k S``; the gather sums |tau| <= k products and
    the masked pass k, with k the rows the pass reads (``rows_summed``).
    With ``|delta|, |eps| <= u`` the roundings of the scale and of the
    subtraction, the gap between the two results is

        (p2 - p1) + eps1 (x - p1) - eps2 (x - p2),   p = c s_hat (1 + delta),

    whose magnitude is at most ``2u|x| + c S (2 gamma_k + 4u + 4u gamma_k +
    2u^2 (1 + gamma_k))``.  Since ``gamma_k + gamma_j + gamma_k gamma_j <=
    gamma_{k+j}`` and ``gamma_2 >= 2u + 4u^2``, the bracket is at most
    ``2 gamma_{k+2}``, so

        |x_1 - x_2| <= 2 gamma_{k+2} c S + 2u |x|.

    ``S`` is evaluated in floating point; its own relative error, at most
    gamma_k, changes the bound only at order u^2.
    """
    tau = np.asarray(tau, dtype=np.intp)
    if tau.size == 0:
        return np.zeros_like(x)
    r_tau = matrix[tau] @ x - b[tau]
    scale = alpha / tau.size
    s_abs = np.abs(matrix[tau]).T @ np.abs(r_tau)
    return 2 * gamma(rows_summed + 2) * scale * s_abs + 2 * UNIT_ROUNDOFF * np.abs(x)


def residual_bound(matrix, b, x) -> np.ndarray:
    """Per row, a bound on the gap between the exact residual ``A x - b`` and
    one computed in any order, as a vector product or as a column of a GEMM:
    n products and a subtraction give ``gamma_{n+1} (|A||x| + |b|)``."""
    return gamma(matrix.shape[1] + 1) * (np.abs(matrix) @ np.abs(x) + np.abs(b))


def lane_update_bound(matrix, b, x, tau, alpha: float, rows_summed: int) -> np.ndarray:
    """:func:`update_bound` for two evaluations of the averaged step whose
    residuals were computed in different orders too, as a GEMM over lanes
    and a vector product.  Their residuals then differ by at most twice
    :func:`residual_bound` per row, a gap that the step carries through
    ``c |A_tau|^T`` with ``c = alpha/|tau|``; doubling that term covers the
    rounding of the sum and of the scale applied to it."""
    tau = np.asarray(tau, dtype=np.intp)
    if tau.size == 0:
        return np.zeros_like(x)
    gap = 2 * residual_bound(matrix[tau], b[tau], x)
    carried = (alpha / tau.size) * (np.abs(matrix[tau]).T @ gap)
    return update_bound(matrix, b, x, tau, alpha, rows_summed) + 2 * carried


def quantile_rk_run_bound(matrix, b, xs, taus, block: int) -> np.ndarray:
    """Bounds on ``||x~_k - x_k||_2``, k = 1..K, between the iterates ``x~``
    of a quantile-rk solve that keeps its residual and the iterates ``xs =
    [x_0, ..., x_K]`` of a loop of one-step references from the same
    ``x_0``, when both take the same decisions ``taus`` (``[j]`` or empty)
    and the solve recomputes its residual every ``block`` steps, at steps 0,
    block, 2 block, ...

    Rows are unit-norm, so ``|a_i|.|v| <= ||v||`` and ``I - a_j a_j^T`` is
    an orthogonal projector.  The reference computes its gap ``g = a_j.x -
    b_j + eta`` as one inner product of length n and a subtraction, so
    ``|eta| <= gamma_{n+1} (||x|| + |b_j|)``; it then forms ``fl(x - fl(g
    a_j)) = x - g a_j + rho`` with ``|rho| <= gamma_2 (|x| + |g||a_j|)``
    componentwise, so ``||rho|| <= gamma_2 (||x|| + |g|)``.  The solve reads
    its gap from the kept residual, ``a_j.x~ - b_j + D_j``, and rounds its
    update the same way.  With ``e = x~ - x`` an accepted step gives

        e' = (I - a_j a_j^T) e - (D_j - eta) a_j + rho~ - rho,
        ||e'|| <= ||e|| + |D_j| + |eta| + ||rho~|| + ||rho||,

    and a rejected step keeps both iterates, so ``e' = e``.

    The drift ``D`` of the kept residual from the exact residual of ``x~``
    starts each block at ``|D_i| <= gamma_{n+1} (||x~|| + |b_i|)`` (a GEMM
    entry is such an inner product too).  The Gram entry ``G_i = a_i.a_c +
    zeta`` has ``|zeta| <= gamma_n``.  An accepted step with candidate ``c``
    and gap ``g`` stores ``r_i' = fl(r_i - fl(g G_i))`` while ``x~`` moves by
    ``-g a_c + rho~``, whose exact residual moves by ``-g a_i.a_c + a_i.rho~``.
    Taking the two roundings apart (``gamma_n + gamma_2 + gamma_n gamma_2 <=
    gamma_{n+2}``) gives

        |D_i'| <= |D_i| + gamma_{n+2} |g| + gamma_1 |r_i'| + ||rho~||.

    Every quantity is evaluated on the reference's iterates, in floating
    point; the solve's differ by ``e``, so this changes the bound only at
    order u^2.
    """
    matrix, b = np.asarray(matrix), np.asarray(b)
    n = matrix.shape[1]
    bound, out, drift = 0.0, [], None
    for k, tau in enumerate(taus):
        x, x_next = xs[k], xs[k + 1]
        size = float(np.linalg.norm(x))
        if k % block == 0:
            drift = gamma(n + 1) * (size + np.abs(b))
        if len(tau):
            j = int(tau[0])
            g = abs(float(matrix[j] @ x - b[j]))
            rho = gamma(2) * (size + g)
            bound += drift[j] + gamma(n + 1) * (size + abs(b[j])) + 2 * rho
            drift = drift + gamma(n + 2) * g + gamma(1) * np.abs(matrix @ x_next - b) + rho
        out.append(bound)
    return np.array(out)
