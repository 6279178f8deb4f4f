"""Hyperbolic-cross index sets.

The cross for parameters (n, gamma, r1, r2) is the set of pairs (k, j)
with k >= r1, j >= r2 and k * j**gamma <= n, stored as per-row limits,
never as a list of pairs.  Endpoints are floored after a 1e-12 relative
guard so that boundaries that are exact integers up to rounding stay
inside the set on every platform.  The row limits are computed in numpy
blocks; numpy's ``power`` may differ from Python's ``**`` in the last
bits, so rows whose guarded endpoint lies near an integer are redone
with the scalar expression, and every row equals it bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .spectral import _MAX_GRID_CELLS
from .text import dump_table, write_text

__all__ = ["HyperbolicCross", "build_cross", "dump_cross"]

_GUARD = 1.0 + 1e-12
# rows per numpy block, so the float temporaries stay small beside jmax
_ROW_BLOCK = 1 << 16
# a few ulp between numpy's power and Python's ** can move a floor only where an
# integer lies that close; rows within this relative distance are redone in Python
_NEAR_INTEGER = 1e-13
_MAX_ROW = np.iinfo(np.int64).max

CROSS_HEADER_PREFIX = "# cross v1"


def floor_guarded(x: float) -> int:
    """floor(x) after nudging x up by one part in 1e12 (x >= 0), at most the largest float."""
    return math.floor(min(x * _GUARD, sys.float_info.max))


@dataclass(frozen=True)
class HyperbolicCross:
    """A hyperbolic cross stored as its per-row limits.

    Row k holds the pairs (k, j) with r2 <= j <= jmax[k]; ``jmax`` has one
    entry per k in [0, k_extent()], and rows below r1 hold r2 - 1, so they
    are empty.  Storage is O(k_extent), and size, membership and the
    text dump all read ``jmax``.
    """

    n: float
    gamma: float
    r1: int
    r2: int
    jmax: np.ndarray = field(compare=False, repr=False)

    def k_extent(self) -> int:
        """Largest admissible k, i.e. floor-guarded n / r2**gamma: the last row of ``jmax``."""
        return len(self.jmax) - 1

    def j_extent(self) -> int:
        """Largest admissible j, i.e. floor-guarded (n / r1)**(1/gamma)."""
        return cross_extents(self.n, self.gamma, self.r1, self.r2)[1]

    def __len__(self) -> int:
        return int(np.sum(np.maximum(self.jmax - (self.r2 - 1), 0)))

    def __contains__(self, idx: tuple[int, int]) -> bool:
        k, j = idx
        return 0 <= k < len(self.jmax) and self.r2 <= j <= int(self.jmax[k])


def cross_extents(n: float, gamma: float, r1: int, r2: int) -> tuple[int, int]:
    """The largest admissible k and j of the cross for (n, gamma, r1, r2), after every check
    of ``build_cross``; no row is built.

    k_extent is floor-guarded n / r2**gamma, or 0 where r2**gamma is past
    the float range (then n < r1 * r2**gamma); j_extent is floor-guarded
    (n / r1)**(1/gamma), or 0 where n < r1.  The cross's bounding box
    holds (k_extent + 1) x (j_extent + 1) cells.
    """
    if not gamma >= 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if not (1 <= r1 <= _MAX_ROW and 1 <= r2 <= _MAX_ROW):  # rows below r1 hold r2 - 1
        raise ValueError(f"r1 and r2 must lie in [1, {_MAX_ROW}], the int64 range")
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    if not math.isfinite(n):
        raise ValueError(f"n must be finite, got {n}")
    try:
        k_extent = floor_guarded(n / r2**gamma)
    except OverflowError:  # r2**gamma is past the float range, so n < r1 * r2**gamma
        k_extent = 0
    if k_extent + 1 > _MAX_GRID_CELLS:
        raise ValueError(
            f"cross for n={n} needs {k_extent + 1} rows, over the limit of {_MAX_GRID_CELLS}"
        )
    j_extent = 0 if n < r1 else floor_guarded((n / r1) ** (1.0 / gamma))
    if k_extent >= r1 and j_extent > _MAX_ROW:
        raise ValueError(f"cross for n={n} has rows past j={_MAX_ROW}, the int64 range")
    return k_extent, j_extent


def build_cross(n: float, gamma: float, r1: int, r2: int) -> HyperbolicCross:
    """Build the cross for (n, gamma, r1, r2).

    k runs from r1 to floor(n / r2**gamma) and, for each k, j runs from
    r2 to floor((n / k)**(1/gamma)); both floors use the relative guard.
    The rows are evaluated with numpy in blocks of ``2**16``, and each row
    whose guarded endpoint lies within 1e-13 (relative) of an integer is
    recomputed with the scalar ``floor_guarded((n / k)**(1/gamma))``, so
    every row is the scalar value bit for bit.  The result is empty when
    n < r1 * r2**gamma (also when r2**gamma overflows), and more than
    2**26 rows, or an order or a row past the int64 range, are refused
    (``cross_extents``).
    """
    kmax = cross_extents(n, gamma, r1, r2)[0]
    inv_gamma = 1.0 / gamma
    jmax = np.full(kmax + 1, r2 - 1, dtype=np.int64)
    for lo in range(r1, kmax + 1, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, kmax + 1)
        guarded = (n / np.arange(lo, hi, dtype=float)) ** inv_gamma * _GUARD
        jmax[lo:hi] = np.floor(guarded)
        near = np.abs(guarded - np.rint(guarded)) <= _NEAR_INTEGER * guarded
        for k in (lo + np.flatnonzero(near)).tolist():
            jmax[k] = floor_guarded((n / k) ** inv_gamma)
    jmax.flags.writeable = False
    return HyperbolicCross(n=float(n), gamma=float(gamma), r1=r1, r2=r2, jmax=jmax)


def cardinality(cross: HyperbolicCross) -> int:
    # superseded by len(cross); kept while the benchmark's trace spec still wraps it
    return len(cross)


def dump_cross(cross: HyperbolicCross) -> str:
    """The header line, then one ``k<TAB>j`` line per pair, read off ``jmax`` in (k, j) order.

    The pairs of a block of lines are found from the running row counts,
    so one block of them exists at a time.
    """
    counts = np.maximum(cross.jmax - (cross.r2 - 1), 0)
    ends = np.cumsum(counts)
    starts = ends - counts

    def pairs(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        spans = np.minimum(ends[first : last + 1], hi) - np.maximum(starts[first : last + 1], lo)
        ks = np.repeat(np.arange(first, last + 1), spans)
        return ks, np.arange(lo, hi) - np.repeat(starts[first : last + 1] - cross.r2, spans)

    params = f"n={cross.n!r} gamma={cross.gamma!r} r1={cross.r1} r2={cross.r2}"
    return dump_table(f"{CROSS_HEADER_PREFIX} {params}", int(ends[-1]), pairs)


def save_cross(cross: HyperbolicCross, path) -> None:
    # no caller; kept while the benchmark's trace spec still wraps it
    write_text(path, dump_cross(cross))
