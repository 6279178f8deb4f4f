"""The hyperbolic-cross truncation differentiator and its parameter rules.

``apply_method`` keeps the perturbed coefficients inside a hyperbolic
cross and differentiates the finite sum in coefficient space; the cross,
built by ``build_cross(n, gamma, r1, r2)``, is the method's only
parameter, and its size n is the regularization parameter.
``select_parameters`` maps a noise level delta to (n, gamma) so that the
truncation and noise-propagation error components balance.  All order
relations fix only powers, so every constant factor is set to 1 and
ln(1/delta) is clamped below by 1.

The admissible gamma range splits into open intervals where the error
carries a clean power of n and isolated exceptional points where an
extra logarithm appears; ``gamma_intervals`` lists both, tagged with
the extra log exponent, from the (breakpoint, log exponent) pairs of
one case table, which also names the case.  The default gamma is the
midpoint of the leftmost clean interval and therefore never an
exceptional point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .cross import _MAX_ROW, HyperbolicCross
from .spectral import ClassParams, CoeffGrid, mixed_derivative_coeffs, restrict_to_cross

__all__ = [
    "METRIC_L2",
    "METRIC_C",
    "AdmissibilityError",
    "SelectionInput",
    "ParameterSelection",
    "apply_method",
    "select_parameters",
    "theoretical_error_exponent",
]

METRIC_L2 = "l2"
METRIC_C = "c"
_METRICS = (METRIC_L2, METRIC_C)


# relative tolerance at which a forced gamma sits on an exceptional point
_POINT_REL_TOL = 1e-9


class AdmissibilityError(ValueError):
    """The smoothness mu is too small for the requested orders and metric."""


@dataclass(frozen=True)
class SelectionInput:
    """Everything the delta -> (n, gamma) rule depends on."""

    delta: float
    p: float
    cls: ClassParams
    r1: int
    r2: int
    metric: str

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not self.r1 >= self.r2 >= 1:
            raise ValueError(f"orders must satisfy r1 >= r2 >= 1, got ({self.r1}, {self.r2})")
        if self.r1 > _MAX_ROW:  # the cross holds its rows' limits in int64
            raise ValueError(f"orders must be <= {_MAX_ROW}, the int64 range")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")

    def check_admissible(self) -> None:
        extra, text = (0.5, "1/2") if self.metric == METRIC_L2 else (1.5, "3/2")
        bound = 2 * self.r1 + extra - 1.0 / self.cls.s
        if not self.cls.mu > bound:
            raise AdmissibilityError(
                f"smoothness violated for metric {self.metric}: "
                f"need mu > 2*r1 + {text} - 1/s = {bound:.6g}, got mu = {self.cls.mu:.6g}"
            )


@dataclass(frozen=True)
class GammaRegion:
    """A gamma interval or exceptional point with its extra log exponent.

    A region with lo == hi is an isolated point.  log_exponent is the
    power of ln n multiplying the clean error rate on this region; 0
    marks a clean interval.
    """

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool
    log_exponent: float

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, gamma: float) -> bool:
        if self.is_point:
            return math.isclose(gamma, self.lo, rel_tol=_POINT_REL_TOL)
        above = gamma > self.lo if self.lo_open else gamma >= self.lo
        below = gamma < self.hi if self.hi_open else gamma <= self.hi
        return above and below


@dataclass(frozen=True)
class ParameterSelection:
    n: float
    gamma: float
    case_label: str


def _case(si: SelectionInput) -> tuple[str, list[tuple[float, float]]]:
    """The rule's case for (metric, r1, r2): its label and its exceptional points.

    The points are (gamma, log exponent) pairs in increasing gamma; the
    cases are equal orders, L2 unequal orders, and C with adjacent or
    separated orders.  Needs an admissible ``si``.
    """
    s = si.cls.s
    a = si.cls.mu - 2 * si.r1 + 1.0 / s
    b = si.cls.mu - 2 * si.r2 + 1.0 / s
    if si.r1 == si.r2:
        return "equal-orders", [(1.0, (1.5 if si.metric == METRIC_L2 else 2.0) - 1.0 / s)]
    if si.metric == METRIC_L2:
        return "l2-unequal-orders", [
            ((b - 0.5) / (a + 0.5), 0.5),
            ((b + 0.5) / (a + 0.5), 1.0 - 1.0 / s),
            ((b - 0.5) / (a - 0.5), 0.5),
        ]
    if si.r1 == si.r2 + 1:
        return "c-adjacent-orders", [
            (1.0, 1.0),
            ((a + 2.5) / (a + 0.5), 1.0 - 1.0 / s),
            ((a + 0.5) / (a - 1.5), 1.0),
        ]
    return "c-separated-orders", [
        ((b - 1.5) / (a + 0.5), 1.0),
        ((b + 0.5) / (a + 0.5), 1.0 - 1.0 / s),
        ((b - 1.5) / (a - 1.5), 1.0),
    ]


def gamma_intervals(si: SelectionInput) -> list[GammaRegion]:
    """Admissible gamma regions for (metric, r1, r2), ordered from 1 upward.

    For equal orders only gamma = 1 is covered and the rate carries the
    main log factor.  For distinct orders the regions tile [1, top] with
    clean open intervals separated by exceptional points: each point has
    a clean interval below it, the first closed at 1, except a point at 1.
    """
    si.check_admissible()
    regions: list[GammaRegion] = []
    lo, lo_open = 1.0, False
    for g, log_exponent in _case(si)[1]:
        if g != 1.0:
            regions.append(GammaRegion(lo, g, lo_open, True, 0.0))
        regions.append(GammaRegion(g, g, False, False, log_exponent))
        lo, lo_open = g, True
    return regions


def select_parameters(si: SelectionInput, forced_gamma: float | None = None) -> ParameterSelection:
    """Choose (n, gamma) from the noise level.

    n = (delta / ln(1/delta)^e)^(-1/q) with q = mu - 1/p + 1/s.  Equal
    orders take gamma = 1 and e = 1/p - 1/s; distinct orders take the
    midpoint of the leftmost clean interval and e = 0.  A forced gamma
    is kept as given, with e from the exceptional point it sits on, if
    any: within a relative 1e-9 of the point, on either side.  Where
    this form leaves the double range, as where 1 / delta overflows, n is
    taken in log form with ln(1/delta) read as -ln(delta).
    """
    si.check_admissible()
    if forced_gamma is not None and not forced_gamma >= 1:
        raise ValueError(f"gamma must be >= 1, got {forced_gamma}")
    q = si.cls.mu - 1.0 / si.p + 1.0 / si.cls.s
    label, points = _case(si)
    gamma = None if forced_gamma is None else float(forced_gamma)
    log_exponent = 0.0
    suffix = "" if gamma is None else "-forced"
    if si.r1 == si.r2:
        gamma = 1.0 if gamma is None else gamma
        log_exponent = 1.0 / si.p - 1.0 / si.cls.s
    elif gamma is None:
        # the midpoint of the leftmost clean interval, [1, g) or (1, g) for the first point g != 1
        top = next((g for g, _ in points if g != 1.0), None)
        if top is None:  # every exceptional point rounds to 1.0
            raise ValueError(
                f"no clean gamma interval above 1 at mu={si.cls.mu!r}, r1={si.r1}, r2={si.r2}"
            )
        gamma = 0.5 * (1.0 + top)
    else:
        near = (e for g, e in points if math.isclose(gamma, g, rel_tol=_POINT_REL_TOL))
        log_exponent = next(near, 0.0)
        if log_exponent != 0.0:
            suffix = "-exceptional"
    n = _in_range(
        lambda: (si.delta / max(math.log(1.0 / si.delta), 1.0) ** log_exponent) ** (-1.0 / q),
        lambda: math.exp(
            (log_exponent * math.log(max(-math.log(si.delta), 1.0)) - math.log(si.delta)) / q
        ),
    )
    return ParameterSelection(n=n, gamma=gamma, case_label=label + suffix)


def _in_range(direct: Callable[[], float], safe: Callable[[], float]) -> float:
    """``direct()`` where it is a float in (0, inf), else ``safe()``, a range-safe form."""
    try:
        value = direct()
    except ArithmeticError:  # an overflow, or 0.0 to a negative power
        return safe()
    return value if 0.0 < value < math.inf else safe()


def theoretical_error_exponent(si: SelectionInput) -> float:
    """Power of delta in the error bound under the default selection."""
    si.check_admissible()
    q = si.cls.mu - 1.0 / si.p + 1.0 / si.cls.s
    extra = 0.5 if si.metric == METRIC_L2 else 1.5
    return (si.cls.mu - 2 * si.r1 + 1.0 / si.cls.s - extra) / q


def apply_method(c_delta: CoeffGrid, cross: HyperbolicCross) -> CoeffGrid:
    """Differentiate the cross-restricted coefficients.

    Returns the coefficient grid of the regularized mixed derivative:
    restrict c_delta to ``cross``, then apply the coefficient-space
    derivative of the cross's orders (r1, r2), which need r1 >= r2.
    """
    if not cross.r1 >= cross.r2:
        raise ValueError(f"orders must satisfy r1 >= r2 >= 1, got ({cross.r1}, {cross.r2})")
    return mixed_derivative_coeffs(restrict_to_cross(c_delta, cross), cross.r1, cross.r2)
