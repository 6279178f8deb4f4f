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

Each closed form is taken directly where it is a float in (0, inf), else
in a range-safe form (``truncation._in_range``): c_tilde with 4^mu
factored out, the band value as 0.0, the rest in log form, and a bound
also where its power of N is subnormal, so has lost bits.  A c_tilde,
band value, constant or bound still at 0.0 or inf, and a band-size
threshold or measured value at inf, is refused with one line,
"<quantity> underflows to 0.0 <where>" or "<quantity> overflows <where>",
<where> naming the inputs; a threshold of 0.0 lets every N through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .cross import HyperbolicCross
from .spectral import (
    _SMALLEST_NORMAL,
    ClassParams,
    CoeffGrid,
    _check_cells,
    _corner_sum,
    mixed_derivative_coeffs,
    parseval_l2_norm,
)
from .noise import lp_norm
from .truncation import _in_range

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


def _refuse_outside(
    value: float, quantity: str, where: str, *inputs: object, allow_zero: bool = False
) -> float:
    """``value``, refused with the module's one line where it is inf, or 0.0 unless allowed.

    ``where`` is a format string for ``inputs``, filled only in a refusal.
    """
    if value == math.inf or (value == 0.0 and not allow_zero):
        past = "overflows" if value == math.inf else "underflows to 0.0"
        raise ValueError(f"{quantity} {past} {where.format(*inputs)}")
    return value


def _c_tilde(cls: ClassParams) -> float:
    """(1 + 4^(s mu))^(-1/s), with 4^mu factored out where 4^(s mu) overflows."""
    s, mu = cls.s, cls.mu
    c_tilde = _in_range(
        lambda: (1.0 + 4.0 ** (s * mu)) ** (-1.0 / s),
        lambda: 4.0**-mu * (1.0 + 4.0 ** -(s * mu)) ** (-1.0 / s),
    )
    return _refuse_outside(c_tilde, "c_tilde", "at s={!r}, mu={!r}", s, mu)


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
    first.
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
    # where r2^mu is past the double range, the value is below it
    value = _in_range(lambda: c_tilde * N ** (-(cls.mu + 1.0 / cls.s)) / r2**cls.mu, lambda: 0.0)
    value = _refuse_outside(
        value, "the witness band value", "at N={}, s={!r}, mu={!r}", N, cls.s, cls.mu
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
    (3 r1 + r2 - 3/2, r1 - 1).
    """
    return _in_range(
        lambda: (c_tilde * math.sqrt(r2 + 0.5) / (2.0**twos * r2**mu)
                 * math.factorial(2 * r2) / (math.factorial(m) * math.factorial(r2))),
        lambda: _exp2(
            math.log2(c_tilde) + 0.5 * math.log2(r2 + 0.5) - twos - mu * math.log2(r2)
            + (math.lgamma(2 * r2 + 1) - math.lgamma(m + 1) - math.lgamma(r2 + 1)) / math.log(2.0)
        ),
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

    The constant and the bound are refused before the derivative is taken.
    """
    where = ("at N={}, r1={}, r2={}, s={!r}, mu={!r}", w.N, w.r1, w.r2, w.cls.s, w.cls.mu)
    _refuse_outside(constant, f"the constant of metric {metric}", *where)
    exponent = -w.cls.mu + 2 * w.r1 - 1.0 / w.cls.s + extra
    bound = _in_range(  # a subnormal N^exponent has lost bits, so it takes the log form too
        lambda: constant * f if (f := w.N**exponent) >= _SMALLEST_NORMAL else 0.0,
        lambda: _exp2(math.log2(constant) + exponent * math.log2(w.N)),
    )
    _refuse_outside(bound, f"the lower bound of metric {metric}", *where)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            measured = float(measure(w.f1_derivative))
        except ValueError:  # CoeffGrid refuses a derivative that holds inf or nan
            measured = math.inf
    _refuse_outside(measured, f"the measured value of metric {metric}", *where, allow_zero=True)
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
    are mutually indistinguishable under the perturbation model.  q =
    mu + 1/s - 1/p <= 0 is refused.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    q = cls.mu + 1.0 / cls.s - 1.0 / p
    if not q > 0:  # the witness distance does not shrink as N grows
        raise ValueError(f"q = mu + 1/s - 1/p must be > 0, got {q!r} at p={p!r}, s={cls.s!r}")
    c_tilde = _c_tilde(cls)
    exponent = -1.0 / q
    threshold = _in_range(
        lambda: (r2**cls.mu * delta / c_tilde) ** exponent,
        lambda: _exp2(exponent * (cls.mu * math.log2(r2) + math.log2(delta) - math.log2(c_tilde))),
    )
    where = "at delta={!r}, p={!r}, r2={}, s={!r}, mu={!r}"
    return _refuse_outside(
        threshold, "the band-size threshold", where, delta, p, r2, cls.s, cls.mu, allow_zero=True
    )


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
