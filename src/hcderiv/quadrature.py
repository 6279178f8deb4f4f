"""Gauss-Legendre quadrature and Fourier-Legendre coefficient grids.

Rules live on [-1, 1]; bivariate integrals use the tensor product of a
one-dimensional rule with itself.  Integrand callbacks are invoked with
two equal-shape numpy arrays and must broadcast elementwise; callbacks
that only accept scalars are evaluated pointwise as a fallback, and
every value must be finite.  The projection keeps the read-only rule of
its last order between calls; no result depends on whether it was kept.
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


# one slot: the rule of the last projection order asked for; see _kept_rule
_KEPT_RULE: list[QuadratureRule | None] = [None]


def _kept_rule(m: int) -> QuadratureRule:
    """``gauss_legendre_rule(m)``, kept between calls for the last m asked.

    The rule's arrays are read-only, so no result depends on whether it
    was kept.  The kept rule is dropped before a rule for another m is
    built, so two are never held at once; threads racing here at worst
    build it twice.
    """
    kept = _KEPT_RULE[0]
    if kept is None or kept.order != m:
        _KEPT_RULE[0] = None  # drop the old rule first
        kept = _KEPT_RULE[0] = gauss_legendre_rule(m)
    return kept


def _eval_on_rule(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """f at the tensor nodes (t, u) = (nodes[i], nodes[l]), checked finite.

    A non-finite value raises ValueError naming the first such node in
    row-major order.
    """
    t, u = np.meshgrid(nodes, nodes, indexing="ij")
    try:
        vals = np.asarray(f(t, u), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != t.shape:
        # scalar-only callback
        vals = np.empty_like(t)
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals[idx] = f(float(t[idx]), float(u[idx]))
    finite = np.isfinite(vals)
    if not finite.all():
        i, l = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(
            f"integrand is not finite at node (t, u) = {(float(t[i, l]), float(u[i, l]))}: "
            f"{float(vals[i, l])!r}"
        )
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
        Real-valued function on [-1, 1]^2, finite at every quadrature
        node (a non-finite value raises ValueError naming the node)
        and small enough that no coefficient overflows (ValueError).
    kmax : int
        Largest index on each axis.
    m : int, optional
        Tensor quadrature order; defaults to kmax + 10 and must be at
        least kmax + 2 to keep the projection alias-free.

    Entries below ``_DROP_TOL * max(1, max |c|)`` are treated as
    quadrature noise and omitted.  The m-point rule is kept between
    calls (see ``_kept_rule``).
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if m is None:
        m = kmax + 10
    if m < kmax + 2:
        raise ValueError(f"quadrature order m={m} must be >= kmax + 2 = {kmax + 2}")
    rule = _kept_rule(m)
    weighted = np.outer(rule.weights, rule.weights)
    weighted *= _eval_on_rule(f, rule.nodes)
    v = phi_vandermonde(kmax, rule.nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        c = v.T @ weighted @ v
    magnitude = np.abs(c)
    largest = float(magnitude.max())
    if not np.isfinite(largest):
        raise ValueError(f"the projection of the integrand overflowed: max |c| is {largest!r}")
    cut = _DROP_TOL * max(1.0, largest)
    c[magnitude <= cut] = 0.0
    return CoeffGrid._adopt(c)


def l2_norm_quadrature(g: Callable, m: int) -> float:
    """L2(Q) norm of g over Q = [-1, 1]^2 by the tensor m-point rule.

    g must be finite at every node (a non-finite value raises
    ValueError naming the node); the rule is kept as for
    :func:`compute_coeff_grid`.
    """
    if m < 2:
        raise ValueError("quadrature order m must be >= 2")
    rule = _kept_rule(m)
    vals = _eval_on_rule(g, rule.nodes)
    return float(np.sqrt(np.sum(np.outer(rule.weights, rule.weights) * vals * vals)))
