"""Orthonormal Legendre polynomials on [-1, 1].

The basis is phi_k(t) = sqrt(k + 1/2) * P_k(t) with P_k the classical
Legendre polynomial, so that the phi_k are orthonormal in L2(-1, 1).
This module provides pointwise evaluation of phi_k and its derivatives,
stable series summation, and exact coefficient-space differentiation:
phi_k' expands over the lower-index phi_l of opposite parity,

    phi_k'(t) = 2 sqrt(k + 1/2) * sum_{l < k, k + l odd} sqrt(l + 1/2) phi_l(t),

which turns d/dt into a sparse linear map on coefficient sequences.

One-dimensional coefficient sequences stay plain ``{index: value}``
dicts (``Coeffs1D``) in the public API, with non-negative integer keys
and finite float values; zero entries may be present or omitted
interchangeably.  Internally each dict becomes a dense float64 array,
and the array kernels :func:`differentiate_coeffs` and
:func:`clenshaw_rows` also act on every row of a 2-D array at once.
"""

from __future__ import annotations

import math

import numpy as np

Coeffs1D = dict[int, float]

__all__ = [
    "Coeffs1D",
    "eval_phi",
    "eval_phi_derivative",
    "muller_differentiate",
    "muller_differentiate_iterated",
    "clenshaw_eval",
    "clenshaw_rows",
    "differentiate_coeffs",
    "phi_vandermonde",
]


def _check_point(t: float) -> None:
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"evaluation point {t!r} lies outside [-1, 1]")


def eval_phi(k: int, t: float) -> float:
    """Evaluate the orthonormal Legendre polynomial phi_k at t.

    Parameters
    ----------
    k : int
        Polynomial index, k >= 0.
    t : float
        Point in [-1, 1].

    Returns
    -------
    float
        phi_k(t) = sqrt(k + 1/2) P_k(t), the last column of
        :func:`phi_vandermonde` at t.
    """
    _check_point(t)
    if k < 0:
        raise ValueError("index k must be >= 0")
    return float(phi_vandermonde(k, t)[0, k])


def eval_phi_derivative(k: int, r: int, t: float) -> float:
    """Evaluate the r-th derivative of phi_k at t.

    Marches the r-times differentiated three-term recurrence

        (i+1) P_{i+1}^(q) = (2i+1) (t P_i^(q) + q P_i^(q-1)) - i P_{i-1}^(q)

    for q = 0..r, which stays valid on the closed interval including the
    endpoints t = +-1.  Identically zero when k < r.
    """
    _check_point(t)
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if k < 0:
        raise ValueError("index k must be >= 0")
    if k < r:
        return 0.0
    prev = [0.0] * (r + 1)
    cur = [0.0] * (r + 1)
    cur[0] = 1.0
    for i in range(k):
        nxt = [0.0] * (r + 1)
        for q in range(r + 1):
            term = t * cur[q] + (q * cur[q - 1] if q else 0.0)
            nxt[q] = ((2 * i + 1) * term - i * prev[q]) / (i + 1)
        prev, cur = cur, nxt
    return math.sqrt(k + 0.5) * cur[r]


def _weights(n: int) -> np.ndarray:
    """sqrt(k + 1/2) for 0 <= k < n."""
    return np.sqrt(np.arange(n) + 0.5)


def differentiate_coeffs(a: np.ndarray, r: int = 1) -> np.ndarray:
    """Differentiate dense coefficient sequences r times along the last axis.

    Each row a[..., :] holds the coefficients a_k of f = sum_k a_k phi_k;
    the result holds the coefficients of f^(r), one index shorter per
    derivative.  One derivative is

        b_l = 2 sqrt(l + 1/2) * sum_{k > l, k + l odd} sqrt(k + 1/2) a_k,

    computed as a reverse cumulative sum over each parity class of k, so
    the tail sums accumulate from the top index down, one term at a time.
    Each sum is written straight into the result and scaled there, so a
    derivative holds one input-sized temporary besides its result.
    """
    if r < 0:
        raise ValueError("derivative order r must be >= 0")
    a = np.asarray(a, dtype=float)
    for _ in range(r):
        size = a.shape[-1]
        if size <= 1:
            return np.zeros(a.shape[:-1] + (0,))
        w = _weights(size)
        scaled = a * w
        tails = np.empty(a.shape[:-1] + (size - 1,))
        # tails over odd k >= 1 feed even l = k - 1; tails over even k >= 2 feed odd l
        for first, out in ((1, tails[..., 0::2]), (2, tails[..., 1::2])):
            np.cumsum(scaled[..., first::2][..., ::-1], axis=-1, out=out[..., ::-1])
        del scaled
        tails *= 2.0 * w[:-1]
        a = tails
    return a


def _to_dense(a: Coeffs1D) -> np.ndarray:
    dense = np.zeros(max(a) + 1)
    for k, v in a.items():
        dense[k] = v
    return dense


def _from_dense(dense: np.ndarray) -> Coeffs1D:
    return {l: v for l, v in enumerate(dense.tolist()) if v != 0.0}


def muller_differentiate(a: Coeffs1D) -> Coeffs1D:
    """Differentiate a coefficient sequence once, exactly.

    Given f = sum_k a_k phi_k, returns the sequence b of f' = sum_l b_l phi_l,

        b_l = 2 sqrt(l + 1/2) * sum_{k > l, k + l odd} sqrt(k + 1/2) a_k,

    for 0 <= l < max index of ``a``.  Exact zeros are omitted from the
    result.  An empty input yields an empty output.
    """
    return muller_differentiate_iterated(a, 1)


def muller_differentiate_iterated(a: Coeffs1D, r: int) -> Coeffs1D:
    """Apply :func:`muller_differentiate` r times (r >= 1)."""
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if not a:
        return {}
    for k, v in a.items():
        if k < 0:
            raise ValueError("coefficient indices must be >= 0")
        if not math.isfinite(v):
            raise ValueError(f"coefficient at index {k} is not finite: {v!r}")
    return _from_dense(differentiate_coeffs(_to_dense(a), r))


# one slot: the Clenshaw factors for the largest size asked so far; see _recurrence
_KEPT_FACTORS: list[tuple[np.ndarray, list[float]]] = [(np.empty(0), [])]


def _recurrence(n: int) -> tuple[np.ndarray, list[float]]:
    """Clenshaw factors alpha_k and c_k for 0 <= k < n, or for more k.

    alpha_k = (2k+1)/(k+1) w_{k+1}/w_k and c_k = k/(k+1) w_{k+1}/w_{k-1}
    with w_k = sqrt(k + 1/2); c_0 is unused and set to 0.  alpha is a
    read-only array (callers scale it by t) and c a list of Python floats.

    The factors are kept between calls, built for the largest n asked.
    Each is elementwise in k, so the first n entries of longer factors
    equal the factors for n bit for bit, and no result depends on whether
    they were kept.  The kept factors are dropped before larger ones are
    built, so two sets are never held at once.
    """
    kept = _KEPT_FACTORS[0]
    if len(kept[1]) < n:
        kept = _KEPT_FACTORS[0] = (np.empty(0), [])  # drop the old factors first
        k = np.arange(n)
        w = _weights(n + 1)
        alpha = (2 * k + 1) / (k + 1) * w[1:] / w[:-1]
        alpha.flags.writeable = False
        c = np.zeros(n)
        c[1:] = k[1:] / (k[1:] + 1) * w[2:] / w[:-2]
        kept = _KEPT_FACTORS[0] = (alpha, c.tolist())
    return kept


def clenshaw_rows(a: np.ndarray, t: float):
    """Evaluate sum_k a[..., k] phi_k(t) along the last axis of a nonempty array.

    Uses the Clenshaw scheme for the orthonormal recurrence
    phi_{k+1} = alpha_k t phi_k - c_k phi_{k-1}; a 1-D input gives a
    float, a 2-D input one value per row.
    """
    _check_point(t)
    n = a.shape[-1] - 1
    alpha, c = _recurrence(n + 2)
    w0, w1 = math.sqrt(0.5), math.sqrt(1.5)
    # alpha_k * t is the product Python forms first in alpha_k * t * b1
    alpha_t = (alpha[n:0:-1] * t).tolist()
    cols = a.tolist() if a.ndim == 1 else np.ascontiguousarray(a.T)
    b1 = 0.0
    b2 = 0.0
    for col, at, ck in zip(cols[n:0:-1], alpha_t, c[n + 1 : 1 : -1]):
        b1, b2 = col + at * b1 - ck * b2, b1
    return (cols[0] - c[1] * b2) * w0 + b1 * w1 * t


def clenshaw_eval(a: Coeffs1D, t: float) -> float:
    """Evaluate sum_k a_k phi_k(t) by backward recurrence."""
    _check_point(t)
    if not a:
        return 0.0
    return float(clenshaw_rows(_to_dense(a), t))


def phi_vandermonde(kmax: int, t: np.ndarray) -> np.ndarray:
    """Matrix V with V[i, k] = phi_k(t_i) for 0 <= k <= kmax."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    V = np.empty((t.size, kmax + 1))
    V[:, 0] = 1.0
    if kmax >= 1:
        V[:, 1] = t
    for i in range(1, kmax):
        V[:, i + 1] = ((2 * i + 1) * t * V[:, i] - i * V[:, i - 1]) / (i + 1)
    V *= _weights(kmax + 1)
    return V
