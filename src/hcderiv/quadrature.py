"""Gauss-Legendre quadrature and Fourier-Legendre coefficient grids.

Rules live on [-1, 1]; bivariate integrals use the tensor product of a
one-dimensional rule with itself.  Integrand callbacks are invoked with
two equal-shape numpy arrays and must broadcast elementwise; callbacks
that only accept scalars are evaluated pointwise as a fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .legendre import phi_vandermonde
from .spectral import CoeffGrid

__all__ = [
    "QuadratureRule",
    "gauss_legendre_rule",
    "compute_coeff_grid",
    "l2_norm_quadrature",
]

_MAX_ORDER = 4096
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100
# relative size below which a projected coefficient counts as quadrature noise
_DROP_TOL = 1e-14


@dataclass(frozen=True)
class QuadratureRule:
    """An m-point Gauss-Legendre rule on [-1, 1].

    nodes are strictly increasing and symmetric about 0; weights are
    positive and sum to 2; the rule integrates polynomials of degree
    up to 2m - 1 exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _legendre_pair(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x) for interior points |x| < 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for i in range(1, m):
        p_prev, p = p, ((2 * i + 1) * x * p - i * p_prev) / (i + 1)
    dp = m * (p_prev - x * p) / (1.0 - x * x)
    return p, dp


def gauss_legendre_rule(m: int) -> QuadratureRule:
    """Build the m-point Gauss-Legendre rule by Newton iteration on P_m.

    Starting guesses are the Chebyshev-angle asymptotics
    cos(pi (i - 1/4) / (m + 1/2)); iteration stops when every update is
    below 1e-15 in magnitude.
    """
    if not 1 <= m <= _MAX_ORDER:
        raise ValueError(f"quadrature order m={m} outside [1, {_MAX_ORDER}]")
    i = np.arange(1, m + 1)
    x = np.cos(np.pi * (i - 0.25) / (m + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_pair(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Newton iteration for the {m}-point rule did not converge")
    _, dp = _legendre_pair(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = x[::-1]
    w = w[::-1]
    # enforce exact symmetry of the node/weight sets
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(nodes=x, weights=w, order=m)


def _eval_on_grid(f: Callable, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(t, u), dtype=float)
        if vals.shape == t.shape:
            return vals
    except (TypeError, ValueError):
        pass
    # scalar-only callback
    vals = np.empty_like(t)
    it = np.nditer(t, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        vals[idx] = f(float(t[idx]), float(u[idx]))
    return vals


def compute_coeff_grid(
    f: Callable,
    kmax: int,
    m: int | None = None,
) -> CoeffGrid:
    """Fourier-Legendre coefficients c_{k,j} = <f, phi_k phi_j> for k, j <= kmax.

    Parameters
    ----------
    f : callable
        Real-valued function on [-1, 1]^2.
    kmax : int
        Largest index on each axis.
    m : int, optional
        Tensor quadrature order; defaults to kmax + 10 and must be at
        least kmax + 2 to keep the projection alias-free.

    Entries below ``_DROP_TOL * max(1, max |c|)`` are treated as
    quadrature noise and omitted.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if m is None:
        m = kmax + 10
    if m < kmax + 2:
        raise ValueError(f"quadrature order m={m} must be >= kmax + 2 = {kmax + 2}")
    rule = gauss_legendre_rule(m)
    t, u = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    vals = _eval_on_grid(f, t, u)
    weighted = np.outer(rule.weights, rule.weights) * vals
    v = phi_vandermonde(kmax, rule.nodes)
    c = v.T @ weighted @ v
    cut = _DROP_TOL * max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    return CoeffGrid._adopt(np.where(np.abs(c) > cut, c, 0.0))


def l2_norm_quadrature(g: Callable, m: int) -> float:
    """L2(Q) norm of g over Q = [-1, 1]^2 by the tensor m-point rule."""
    if m < 2:
        raise ValueError("quadrature order m must be >= 2")
    rule = gauss_legendre_rule(m)
    t, u = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    vals = _eval_on_grid(g, t, u)
    return float(np.sqrt(np.sum(np.outer(rule.weights, rule.weights) * vals * vals)))
