"""Hyperbolic-cross index sets.

The cross for parameters (n, gamma, r1, r2) is the set of pairs (k, j)
with k >= r1, j >= r2 and k * j**gamma <= n.  Range endpoints are
floored after a 1e-12 relative guard so that boundaries that are exact
integers up to rounding stay inside the set on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["HyperbolicCross", "build_cross", "dump_cross"]

_GUARD = 1.0 + 1e-12

CROSS_HEADER_PREFIX = "# cross v1"


def floor_guarded(x: float) -> int:
    """floor(x) after nudging x up by one part in 1e12 (x >= 0)."""
    return math.floor(x * _GUARD)


@dataclass(frozen=True)
class HyperbolicCross:
    """A hyperbolic cross stored as its per-row limits.

    Row k holds the pairs (k, j) with r2 <= j <= jmax[k]; ``jmax`` has one
    entry per k in [0, k_extent()], and rows below r1 hold r2 - 1, so they
    are empty.  Storage is O(k_extent); the enumerated ``indices`` are
    derived on first use, and membership is tested on ``jmax``.
    """

    n: float
    gamma: float
    r1: int
    r2: int
    jmax: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def indices(self) -> tuple[tuple[int, int], ...]:
        """Member pairs sorted by (k, j)."""
        return tuple(
            (k, j)
            for k, top in enumerate(self.jmax.tolist())
            for j in range(self.r2, top + 1)
        )

    def k_extent(self) -> int:
        """Largest admissible k, i.e. floor-guarded n / r2**gamma."""
        return floor_guarded(self.n / self.r2**self.gamma)

    def j_extent(self) -> int:
        """Largest admissible j, i.e. floor-guarded (n / r1)**(1/gamma)."""
        if self.n < self.r1:
            return 0
        return floor_guarded((self.n / self.r1) ** (1.0 / self.gamma))

    def __len__(self) -> int:
        return int(np.sum(np.maximum(self.jmax - (self.r2 - 1), 0)))

    def __contains__(self, idx: tuple[int, int]) -> bool:
        k, j = idx
        return 0 <= k < len(self.jmax) and self.r2 <= j <= int(self.jmax[k])


def build_cross(n: float, gamma: float, r1: int, r2: int) -> HyperbolicCross:
    """Build the cross for (n, gamma, r1, r2).

    k runs from r1 to floor(n / r2**gamma) and, for each k, j runs from
    r2 to floor((n / k)**(1/gamma)); both floors use the relative guard.
    The result is empty when n < r1 * r2**gamma.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if r1 < 1 or r2 < 1:
        raise ValueError("r1 and r2 must be >= 1")
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    if not math.isfinite(n):
        raise ValueError(f"n must be finite, got {n}")
    kmax = floor_guarded(n / r2**gamma)
    inv_gamma = 1.0 / gamma
    jmax = np.full(kmax + 1, r2 - 1, dtype=np.int64)
    jmax[r1:] = [floor_guarded((n / k) ** inv_gamma) for k in range(r1, kmax + 1)]
    jmax.flags.writeable = False
    return HyperbolicCross(n=float(n), gamma=float(gamma), r1=r1, r2=r2, jmax=jmax)


def cardinality(cross: HyperbolicCross) -> int:
    # superseded by len(cross); kept while the benchmark's trace spec still wraps it
    return len(cross)


def dump_cross(cross: HyperbolicCross) -> str:
    lines = [
        f"{CROSS_HEADER_PREFIX} n={cross.n!r} gamma={cross.gamma!r} r1={cross.r1} r2={cross.r2}"
    ]
    lines.extend(f"{k}\t{j}" for k, j in cross.indices)
    return "\n".join(lines) + "\n"


def save_cross(cross: HyperbolicCross, path) -> None:
    # no caller; kept while the benchmark's trace spec still wraps it
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_cross(cross))
