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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container

import numpy as np

from .cross import HyperbolicCross
from .spectral import (
    ClassParams,
    CoeffGrid,
    mixed_derivative_coeffs,
    parseval_l2_norm,
    synth_eval,
)
from .noise import lp_norm

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
    selected_k: tuple[int, ...]
    c_tilde: float
    c_bar: float
    c_dbar: float


@dataclass(frozen=True)
class BoundReport:
    metric: str
    N: int
    measured: float
    bound: float
    passed: bool
    ratio: float


def _c_tilde(cls: ClassParams) -> float:
    return (1.0 + 4.0 ** (cls.s * cls.mu)) ** (-1.0 / cls.s)


def build_witness_pair(
    N: int,
    r1: int,
    r2: int,
    cls: ClassParams,
    excluded: Container[tuple[int, int]] = frozenset(),
    parity: str = "any",
) -> WitnessPair:
    """Construct the witness pair for band size N.

    Selects the N smallest admissible k in [N + r1, 3N + r1] whose
    (k, r2) pair is not excluded.  ``parity`` may prefer "even" or
    "odd" band indices first (topping up with the other parity when
    short); the default "any" takes the smallest indices outright.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if r1 < 1 or r2 < 1:
        raise ValueError("orders r1, r2 must be >= 1")
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"parity must be any/even/odd, got {parity!r}")
    band = range(N + r1, 3 * N + r1 + 1)
    admissible = [k for k in band if (k, r2) not in excluded]
    if len(admissible) < N:
        raise WitnessInfeasibleError(
            f"only {len(admissible)} admissible band indices for N={N} "
            f"(band [{N + r1}, {3 * N + r1}], {len(band) - len(admissible)} excluded)"
        )
    if parity == "any":
        selected = admissible[:N]
    else:
        want = 0 if parity == "even" else 1
        preferred = [k for k in admissible if k % 2 == want]
        rest = [k for k in admissible if k % 2 != want]
        selected = sorted((preferred + rest)[:N])
    c_tilde = _c_tilde(cls)
    value = c_tilde * N ** (-(cls.mu + 1.0 / cls.s)) / r2**cls.mu
    f2 = CoeffGrid(np.array([[c_tilde]]))
    band_rows = np.zeros((selected[-1] + 1, r2 + 1))
    band_rows[0, 0] = c_tilde
    band_rows[selected, r2] = value
    f1 = CoeffGrid(band_rows)
    c_bar = (
        c_tilde
        * math.sqrt(r2 + 0.5)
        / (2.0 ** (r1 + r2) * r2**cls.mu)
        * math.factorial(2 * r2)
        / (math.factorial(r1) * math.factorial(r2))
    )
    c_dbar = (
        c_tilde
        * math.sqrt(r2 + 0.5)
        / (2.0 ** (3 * r1 + r2 - 1.5) * r2**cls.mu)
        * math.factorial(2 * r2)
        / (math.factorial(r1 - 1) * math.factorial(r2))
    )
    return WitnessPair(
        f1=f1,
        f2=f2,
        N=N,
        r1=r1,
        r2=r2,
        cls=cls,
        selected_k=tuple(selected),
        c_tilde=c_tilde,
        c_bar=c_bar,
        c_dbar=c_dbar,
    )


def witness_lp_distance(w: WitnessPair, p: float) -> float:
    """l_p distance of the coefficient sequences of f1 and f2.

    Equals c_tilde * r2^(-mu) * N^(-mu - 1/s + 1/p) in closed form
    (with 1/p = 0 for p = inf).
    """
    return lp_norm(w.f1 - w.f2, p)


def verify_lower_bound_C(w: WitnessPair) -> BoundReport:
    """Check |f1^(r1,r2)(1,1)| >= c_bar * N^(-mu + 2 r1 - 1/s + 3/2)."""
    deriv = mixed_derivative_coeffs(w.f1, w.r1, w.r2)
    measured = abs(synth_eval(deriv, 1.0, 1.0))
    bound = w.c_bar * w.N ** (-w.cls.mu + 2 * w.r1 - 1.0 / w.cls.s + 1.5)
    return BoundReport(
        metric="c",
        N=w.N,
        measured=float(measured),
        bound=float(bound),
        passed=bool(measured >= bound),
        ratio=float(measured / bound),
    )


def verify_lower_bound_L2(w: WitnessPair) -> BoundReport:
    """Check ||f1^(r1,r2)||_L2 >= c_dbar * N^(-mu + 2 r1 - 1/s + 1/2)."""
    measured = parseval_l2_norm(mixed_derivative_coeffs(w.f1, w.r1, w.r2))
    bound = w.c_dbar * w.N ** (-w.cls.mu + 2 * w.r1 - 1.0 / w.cls.s + 0.5)
    return BoundReport(
        metric="l2",
        N=w.N,
        measured=float(measured),
        bound=float(bound),
        passed=bool(measured >= bound),
        ratio=float(measured / bound),
    )


def min_N_for_delta(delta: float, p: float, cls: ClassParams, r2: int) -> float:
    """Smallest band size at which the witness distance fits inside delta.

    For N at or above (r2^mu delta / c_tilde)^(-1/(mu + 1/s - 1/p)) the
    coefficient distance of the pair is <= delta, so the two functions
    are mutually indistinguishable under the perturbation model.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return (r2**cls.mu * delta / _c_tilde(cls)) ** (-1.0 / (cls.mu + 1.0 / cls.s - inv_p))


def witness_for_cross(
    cross: HyperbolicCross, delta: float, p: float, cls: ClassParams
) -> WitnessPair:
    """Witness pair that is invisible to a method observing the cross.

    The band must avoid every (k, r2) the cross contains, so N grows
    beyond the delta threshold until the top N band slots clear the
    cross's k extent; enlarging N only shrinks the coefficient distance,
    so the delta budget keeps holding.
    """
    r1, r2 = cross.r1, cross.r2
    threshold = min_N_for_delta(delta, p, cls, r2)
    escape = (cross.k_extent() - r1) / 2.0 + 1.0
    N = max(math.ceil(threshold), math.ceil(escape), 1)
    return build_witness_pair(N, r1, r2, cls, excluded=cross)
