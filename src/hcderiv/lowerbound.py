"""Witness pairs and minimal-radius lower-bound verification.

The adversarial construction pins down how accurate any differentiation
algorithm can be when it sees at most N noisy coefficients: two class
functions f1 and f2 agree everywhere an algorithm may look, differ by
at most delta in coefficient l_p distance, yet their mixed derivatives
are far apart.  f2 is a single (0, 0) coefficient; f1 adds a band of N
equal coefficients at (k, r2) with N + r1 <= k <= 3N + r1.  All
constants below are explicit, so the lower bounds are checkable
numerically with no fudge factors:

    c_tilde = (1 + 4^(s mu))^(-1/s)
    c_bar   = c_tilde sqrt(r2 + 1/2) / (2^(r1+r2) r2^mu) * (2 r2)! / (r1! r2!)
    c_dbar  = c_tilde sqrt(r2 + 1/2) / (2^(3 r1 + r2 - 3/2) r2^mu)
              * (2 r2)! / ((r1-1)! r2!)

The sup-metric bound checks |f1^(r1,r2)(1, 1)| against
c_bar * N^(-mu + 2 r1 - 1/s + 3/2); the L2 bound checks the Parseval
norm of the derivative against c_dbar * N^(-mu + 2 r1 - 1/s + 1/2).
The value at the corner needs no recurrence: phi_k(1) = sqrt(k + 1/2)
exactly, so it is the closed form sum_kj d_kj sqrt(k + 1/2) sqrt(j + 1/2)
over the derivative's coefficients d, summed in one fixed order with no
BLAS call.  Those coefficients are nonnegative, so the value is also the
derivative's sup norm, ``spectral.sup_norm_on_grid`` bit for bit (see
``verify_lower_bound_C``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .cross import HyperbolicCross
from .spectral import (
    ClassParams,
    CoeffGrid,
    _check_cells,
    _corner_sum,
    mixed_derivative_coeffs,
    parseval_l2_norm,
)
from .noise import lp_norm
from .truncation import _inv

__all__ = [
    "WitnessInfeasibleError",
    "WitnessPair",
    "BoundReport",
    "build_witness_pair",
    "witness_lp_distance",
    "verify_lower_bound_C",
    "verify_lower_bound_L2",
    "min_N_for_delta",
    "witness_for_cross",
]


class WitnessInfeasibleError(ValueError):
    """The band does not contain N admissible indices."""


@dataclass(frozen=True)
class WitnessPair:
    f1: CoeffGrid
    f2: CoeffGrid
    N: int
    r1: int
    r2: int
    cls: ClassParams
    c_tilde: float
    c_bar: float
    c_dbar: float

    @property
    def selected_k(self) -> tuple[int, ...]:
        """The band's k in increasing order: the rows of f1's entries in column r2."""
        return tuple(np.flatnonzero(self.f1.array[:, self.r2 : self.r2 + 1]).tolist())

    @cached_property
    def f1_derivative(self) -> CoeffGrid:
        """Coefficients of f1^(r1,r2), computed once per pair."""
        return mixed_derivative_coeffs(self.f1, self.r1, self.r2)


@dataclass(frozen=True)
class BoundReport:
    metric: str
    N: int
    measured: float
    bound: float
    passed: bool
    ratio: float


def _c_tilde(cls: ClassParams) -> float:
    """(1 + 4^(s mu))^(-1/s), with 4^mu factored out where 4^(s mu) overflows.

    A value that underflows to 0.0 is refused: every bound and band
    value is a multiple of it.
    """
    s, mu = cls.s, cls.mu
    try:
        c_tilde = (1.0 + 4.0 ** (s * mu)) ** (-1.0 / s)
    except OverflowError:
        c_tilde = 4.0**-mu * (1.0 + 4.0 ** -(s * mu)) ** (-1.0 / s)
    if c_tilde == 0.0:
        raise ValueError(f"c_tilde underflows to 0.0 at s={s!r}, mu={mu!r}")
    return c_tilde


def build_witness_pair(
    N: int,
    r1: int,
    r2: int,
    cls: ClassParams,
    cross: HyperbolicCross | None = None,
    parity: str = "any",
) -> WitnessPair:
    """Construct the witness pair for band size N.

    Selects the N smallest k in [N + r1, 3N + r1] whose (k, r2) is not
    in ``cross``, if one is given.  ``parity`` may prefer "even" or
    "odd" band indices first; the default "any" takes the smallest
    indices outright.  A preferred parity takes its first N indices
    as they stand, already in k order, and sorts only when it is short
    and tops up with the other parity, which only a cross can make
    happen: the band's 2N + 1 indices hold N or N + 1 of each parity.
    An f1 array, (3N + r1 + 1) x (r2 + 1), over 2**26 cells is refused
    first, and so is a band value that underflows to 0.0.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if r1 < 1 or r2 < 1:
        raise ValueError("orders r1, r2 must be >= 1")
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"parity must be any/even/odd, got {parity!r}")
    _check_cells((3 * N + r1 + 1, r2 + 1))
    admissible = np.arange(N + r1, 3 * N + r1 + 1)
    if cross is not None:  # keep the k whose (k, r2) is not in the cross
        top = cross.jmax[np.minimum(admissible, cross.k_extent())]
        admissible = admissible[(admissible > cross.k_extent()) | (r2 < cross.r2) | (r2 > top)]
    if admissible.size < N:
        raise WitnessInfeasibleError(
            f"only {admissible.size} admissible band indices for N={N} "
            f"(band [{N + r1}, {3 * N + r1}], {2 * N + 1 - admissible.size} excluded)"
        )
    if parity == "any":
        selected = admissible[:N]
    else:
        # compress reads an alternating mask faster than a boolean index does
        preferred = (admissible & 1) == (parity == "odd")
        selected = admissible.compress(preferred)[:N]
        if selected.size < N:  # topped up with the other parity, then back in k order
            other = admissible.compress(~preferred)[: N - selected.size]
            selected = np.sort(np.concatenate((selected, other)))
    c_tilde = _c_tilde(cls)
    try:
        value = c_tilde * N ** (-(cls.mu + 1.0 / cls.s)) / r2**cls.mu
    except OverflowError:  # r2^mu is past the double range, so the value is below it
        value = 0.0
    if value == 0.0:
        raise ValueError(
            f"the witness band value underflows to 0.0 at N={N}, s={cls.s!r}, mu={cls.mu!r}"
        )
    f2 = CoeffGrid._adopt(np.full((1, 1), c_tilde))
    band_rows = np.zeros((selected[-1] + 1, r2 + 1))
    band_rows[0, 0] = c_tilde
    band_rows[selected, r2] = value
    f1 = CoeffGrid._adopt(band_rows)
    return WitnessPair(
        f1=f1,
        f2=f2,
        N=N,
        r1=r1,
        r2=r2,
        cls=cls,
        c_tilde=c_tilde,
        c_bar=_bound_constant(c_tilde, r2, cls.mu, r1 + r2, r1),
        c_dbar=_bound_constant(c_tilde, r2, cls.mu, 3 * r1 + r2 - 1.5, r1 - 1),
    )


def _exp2(x: float) -> float:
    """2^x: inf past the double range, 0.0 or a subnormal below it."""
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


def _bound_constant(c_tilde: float, r2: int, mu: float, twos: float, m: int) -> float:
    """c_tilde sqrt(r2 + 1/2) / (2^twos r2^mu) * (2 r2)! / (m! r2!).

    This is c_bar at (twos, m) = (r1 + r2, r1) and c_dbar at
    (3 r1 + r2 - 3/2, r1 - 1).  Where this form overflows or leaves the
    double range part way, the value is taken in log form, which may come
    out as 0.0 or inf; ``_report`` refuses both.
    """
    try:
        value = (
            c_tilde
            * math.sqrt(r2 + 0.5)
            / (2.0**twos * r2**mu)
            * math.factorial(2 * r2)
            / (math.factorial(m) * math.factorial(r2))
        )
    except OverflowError:  # a factorial or 2^twos is past the double range
        value = math.nan
    if 0.0 < value < math.inf:
        return value
    log_factorials = math.lgamma(2 * r2 + 1) - math.lgamma(m + 1) - math.lgamma(r2 + 1)
    return _exp2(
        math.log2(c_tilde) + 0.5 * math.log2(r2 + 0.5) - twos - mu * math.log2(r2)
        + log_factorials / math.log(2.0)
    )


def witness_lp_distance(w: WitnessPair, p: float) -> float:
    """l_p distance of the coefficient sequences of f1 and f2.

    Equals c_tilde * r2^(-mu) * N^(-mu - 1/s + 1/p) in closed form
    (with 1/p = 0 for p = inf).
    """
    return lp_norm(w.f1 - w.f2, p)


def _report(
    w: WitnessPair, metric: str, constant: float, extra: float,
    measure: Callable[[CoeffGrid], float],
) -> BoundReport:
    """Compare ``measure`` of f1^(r1,r2) with constant * N^(-mu + 2 r1 - 1/s + extra).

    A constant or bound outside the double range, 0.0 or inf, is refused
    before the derivative is taken, and so is a derivative or measured
    value that overflows.
    """
    where = f"at N={w.N}, r1={w.r1}, r2={w.r2}, s={w.cls.s!r}, mu={w.cls.mu!r}"
    if not 0.0 < constant < math.inf:
        past = "underflows to 0.0" if constant == 0.0 else "overflows"
        raise ValueError(f"the constant of metric {metric} {past} {where}")
    exponent = -w.cls.mu + 2 * w.r1 - 1.0 / w.cls.s + extra
    try:
        bound = constant * w.N**exponent
    except OverflowError:  # N^exponent is past the double range; the bound need not be
        bound = _exp2(math.log2(constant) + exponent * math.log2(w.N))
    if bound == 0.0:
        raise ValueError(
            f"the lower bound of metric {metric} underflows to 0.0 at N={w.N}, "
            f"s={w.cls.s!r}, mu={w.cls.mu!r}"
        )
    if bound == math.inf:
        raise ValueError(f"the lower bound of metric {metric} overflows {where}")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            measured = float(measure(w.f1_derivative))
        except ValueError:  # CoeffGrid refuses a derivative that holds inf or nan
            measured = math.inf
    if measured == math.inf:
        raise ValueError(f"the measured value of metric {metric} overflows {where}")
    return BoundReport(
        metric=metric,
        N=w.N,
        measured=float(measured),
        bound=float(bound),
        passed=bool(measured >= bound),
        ratio=float(measured / bound),
    )


def verify_lower_bound_C(w: WitnessPair) -> BoundReport:
    """Check |f1^(r1,r2)(1,1)| >= c_bar * N^(-mu + 2 r1 - 1/s + 3/2).

    The value is sum_kj d_kj sqrt(k + 1/2) sqrt(j + 1/2) over the
    coefficients d of f1^(r1,r2), since phi_k(1) = sqrt(k + 1/2).  The
    coefficients d are nonnegative, so it is ``spectral._corner_sum(d)``,
    the sum of |d_kj| sqrt(k + 1/2) sqrt(j + 1/2) in one fixed order with
    no BLAS call, and also the exact sup of |f1^(r1,r2)|, bit for bit
    ``spectral.sup_norm_on_grid`` of the derivative.  An empty grid
    gives 0.0.  This is within a few units of roundoff of the exact sum,
    where a Clenshaw recurrence at t = 1 loses digits as the band grows
    (``synth_eval``).
    """
    return _report(w, "c", w.c_bar, 1.5, lambda d: _corner_sum(d.array))


def verify_lower_bound_L2(w: WitnessPair) -> BoundReport:
    """Check ||f1^(r1,r2)||_L2 >= c_dbar * N^(-mu + 2 r1 - 1/s + 1/2)."""
    return _report(w, "l2", w.c_dbar, 0.5, parseval_l2_norm)


def min_N_for_delta(delta: float, p: float, cls: ClassParams, r2: int) -> float:
    """Smallest band size at which the witness distance fits inside delta.

    For N at or above (r2^mu delta / c_tilde)^(-1/(mu + 1/s - 1/p)) the
    coefficient distance of the pair is <= delta, so the two functions
    are mutually indistinguishable under the perturbation model.  Where
    this form leaves the double range the threshold is taken in log form;
    one past the double range is refused, as is q = mu + 1/s - 1/p <= 0.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    q = cls.mu + 1.0 / cls.s - _inv(p)
    if not q > 0:  # the witness distance does not shrink as N grows
        raise ValueError(f"q = mu + 1/s - 1/p must be > 0, got {q!r} at p={p!r}, s={cls.s!r}")
    c_tilde = _c_tilde(cls)
    exponent = -1.0 / q
    try:
        threshold = (r2**cls.mu * delta / c_tilde) ** exponent
    except OverflowError:  # r2^mu or the power is past the double range
        threshold = math.nan
    if not 0.0 < threshold < math.inf:  # in log form, where this form left the double range
        log_base = cls.mu * math.log2(r2) + math.log2(delta) - math.log2(c_tilde)
        threshold = _exp2(exponent * log_base)
    if threshold == math.inf:
        raise ValueError(
            f"the band-size threshold overflows at delta={delta!r}, p={p!r}, r2={r2}, "
            f"s={cls.s!r}, mu={cls.mu!r}"
        )
    return threshold


def witness_for_cross(
    cross: HyperbolicCross, delta: float, p: float, cls: ClassParams
) -> WitnessPair:
    """Witness pair that is invisible to a method observing the cross.

    The band must avoid every (k, r2) the cross contains (the ``cross``
    of ``build_witness_pair``), so N grows beyond the delta threshold
    until the top N band slots clear the cross's k extent; enlarging N
    only shrinks the coefficient distance, so the budget keeps holding.
    """
    r1, r2 = cross.r1, cross.r2
    threshold = min_N_for_delta(delta, p, cls, r2)
    escape = (cross.k_extent() - r1) / 2.0 + 1.0
    N = max(math.ceil(threshold), math.ceil(escape), 1)
    return build_witness_pair(N, r1, r2, cls, cross=cross)
