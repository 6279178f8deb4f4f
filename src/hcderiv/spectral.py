"""Bivariate Fourier-Legendre coefficient grids.

A :class:`CoeffGrid` represents a function f on Q = [-1, 1]^2 through
its coefficients c_{k,j} = <f, phi_k phi_j>, held as one dense float64
array whose zeros are the absent entries.  The module provides the
smoothness-class norm, the Parseval L2 norm, synthesis back to point
values, sup-norm estimation on Chebyshev-clustered grids, restriction
to a hyperbolic cross, coefficient-space mixed differentiation, and a
tab-separated text format.

All operations are pure and grids are immutable after construction, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .legendre import clenshaw_rows, differentiate_coeffs, phi_vandermonde

if TYPE_CHECKING:
    from .cross import HyperbolicCross

__all__ = [
    "CoeffGrid",
    "ClassParams",
    "class_norm",
    "parseval_l2_norm",
    "synth_eval",
    "mixed_derivative_coeffs",
    "sup_norm_on_grid",
    "restrict_to_cross",
    "GRID_HEADER",
    "dump_grid",
    "parse_grid",
    "save_grid",
    "load_grid",
]

GRID_HEADER = "# coeffgrid v1"

Index = tuple[int, int]


class CoeffGrid:
    """Immutable grid of Fourier-Legendre coefficients.

    The coefficients live in one read-only float64 array ``array`` of
    shape (K1, K2) with c_{k,j} = array[k, j]; zeros are absent entries,
    and the array is trimmed so its last row and last column each hold a
    nonzero (an empty grid has shape (0, 0)).  A grid is built from a
    2-D array of finite values or from (k, j) -> value entries with
    unique non-negative integer indices and finite values.  Iteration
    and serialization are sorted by (k, j), so equal grids produce
    identical output.
    """

    __slots__ = ("array",)

    def __init__(
        self,
        entries: np.ndarray | Mapping[Index, float] | Iterable[tuple[Index, float]] = (),
    ):
        if isinstance(entries, np.ndarray):
            dense = np.asarray(entries, dtype=float)
            if dense.ndim != 2:
                raise ValueError(f"coefficient array must be 2-D, got shape {dense.shape}")
            if not np.all(np.isfinite(dense)):
                raise ValueError("coefficient array holds non-finite values")
        else:
            dense = _dense_from_entries(entries)
        nonzero = dense != 0.0
        rows = np.flatnonzero(nonzero.any(axis=1))
        cols = np.flatnonzero(nonzero.any(axis=0))
        if rows.size:
            dense = np.array(dense[: rows[-1] + 1, : cols[-1] + 1])
        else:
            dense = np.zeros((0, 0))
        dense.flags.writeable = False
        self.array = dense

    def items(self) -> list[tuple[Index, float]]:
        """Entries sorted by (k, j)."""
        ks, js = np.nonzero(self.array)
        return list(zip(zip(ks.tolist(), js.tolist()), self.array[ks, js].tolist()))

    def get(self, k: int, j: int, default: float = 0.0) -> float:
        if 0 <= k < self.array.shape[0] and 0 <= j < self.array.shape[1]:
            value = float(self.array[k, j])
            if value != 0.0:
                return value
        return default

    def to_dict(self) -> dict[Index, float]:
        return dict(self.items())

    def support(self) -> frozenset[Index]:
        return frozenset(self)

    def values(self) -> np.ndarray:
        """Coefficient values in (k, j) order."""
        return self.array[self.array != 0.0]

    def max_index(self) -> Index | None:
        """Largest k and largest j over the support, or None when empty."""
        if self.array.size == 0:
            return None
        return (self.array.shape[0] - 1, self.array.shape[1] - 1)

    def scale(self, factor: float) -> "CoeffGrid":
        return CoeffGrid(factor * self.array)

    def _combine(self, other: "CoeffGrid", op) -> "CoeffGrid":
        a, b = self.array, other.array
        out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
        out[: a.shape[0], : a.shape[1]] = a
        region = out[: b.shape[0], : b.shape[1]]
        op(region, b, out=region)
        return CoeffGrid(out)

    def __add__(self, other: "CoeffGrid") -> "CoeffGrid":
        return self._combine(other, np.add)

    def __sub__(self, other: "CoeffGrid") -> "CoeffGrid":
        return self._combine(other, np.subtract)

    def __mul__(self, factor: float) -> "CoeffGrid":
        return self.scale(float(factor))

    __rmul__ = __mul__

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __iter__(self) -> Iterator[Index]:
        ks, js = np.nonzero(self.array)
        return zip(ks.tolist(), js.tolist())

    def __contains__(self, idx: Index) -> bool:
        return self.get(*idx) != 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffGrid):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"CoeffGrid({len(self)} entries)"


def _dense_from_entries(entries) -> np.ndarray:
    """Scatter (k, j) -> value entries into a dense array, checking them."""
    items = list(entries.items() if isinstance(entries, Mapping) else entries)
    if not items:
        return np.zeros((0, 0))
    keys = [idx for idx, _ in items]
    try:
        idx = np.array(keys, dtype=float).reshape(len(keys), 2)
        vals = np.array([v for _, v in items], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed coefficient entries: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(idx).all(axis=1) | (idx != np.floor(idx)).any(axis=1))
    if bad.size:
        raise ValueError(f"indices must be integers, got {keys[bad[0]]!r}")
    bad = np.flatnonzero((idx < 0).any(axis=1))
    if bad.size:
        raise ValueError(f"indices must be non-negative, got {keys[bad[0]]}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"coefficient at {keys[bad[0]]} is not finite: {vals[bad[0]]!r}")
    ks, js = idx[:, 0].astype(np.int64), idx[:, 1].astype(np.int64)
    flat = ks * (int(js.max()) + 1) + js
    uniq, first, counts = np.unique(flat, return_index=True, return_counts=True)
    if uniq.size < flat.size:
        dup = first[np.flatnonzero(counts > 1)[0]]
        raise ValueError(f"duplicate index {(int(ks[dup]), int(js[dup]))}")
    keep = vals != 0.0
    if not keep.any():
        return np.zeros((0, 0))
    ks, js, vals = ks[keep], js[keep], vals[keep]
    dense = np.zeros((int(ks.max()) + 1, int(js.max()) + 1))
    dense[ks, js] = vals
    return dense


@dataclass(frozen=True)
class ClassParams:
    """Smoothness-class parameters (s, mu) of the coefficient-decay norm."""

    s: float
    mu: float

    def __post_init__(self):
        if not self.s >= 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")


def class_norm(c: CoeffGrid, params: ClassParams) -> float:
    """Weighted coefficient norm (sum (max(1,k) max(1,j))^{s mu} |c_kj|^s)^{1/s}.

    The weight underlines each factor separately, so rows and columns
    with a zero index carry the other factor's weight rather than 1.
    """
    if len(c) == 0:
        return 0.0
    ks, js = np.nonzero(c.array)
    weights = (np.maximum(1.0, ks) * np.maximum(1.0, js)) ** float(params.s * params.mu)
    total = np.sum(weights * np.abs(c.array[ks, js]) ** params.s)
    return float(total ** (1.0 / params.s))


def parseval_l2_norm(c: CoeffGrid) -> float:
    """L2(Q) norm of the synthesized function, via Parseval."""
    if len(c) == 0:
        return 0.0
    return float(np.sqrt(np.sum(c.values() ** 2)))


def synth_eval(c: CoeffGrid, t: float, tau: float) -> float:
    """Evaluate sum c_{k,j} phi_k(t) phi_j(tau) at a single point.

    Factors the double sum into one Clenshaw sum per row k, run over all
    rows at once, and a final Clenshaw sum over k.
    """
    for x in (t, tau):
        if not -1.0 <= x <= 1.0:
            raise ValueError(f"evaluation point {(t, tau)!r} lies outside the square")
    if len(c) == 0:
        return 0.0
    return float(clenshaw_rows(clenshaw_rows(c.array, tau), t))


def mixed_derivative_coeffs(c: CoeffGrid, r1: int, r2: int) -> CoeffGrid:
    """Coefficient grid of the mixed derivative f^(r1, r2).

    Differentiates r1 times along the k axis (each fixed-j column) and
    then r2 times along the j axis (each fixed-k row), both in
    coefficient space; source entries with k < r1 or j < r2 contribute
    nothing.
    """
    if r1 < 1 or r2 < 1:
        raise ValueError("derivative orders r1, r2 must be >= 1")
    along_k = differentiate_coeffs(c.array.T, r1).T
    return CoeffGrid(differentiate_coeffs(along_k, r2))


def sup_norm_on_grid(c: CoeffGrid, resolution: int = 257) -> float:
    """Max of |synthesized function| over a Chebyshev-clustered tensor grid.

    Sample points are cos(pi i / (resolution - 1)), i = 0..resolution-1,
    which always include the endpoints +-1 where Legendre polynomials
    peak.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    mi = c.max_index()
    if mi is None:
        return 0.0
    pts = np.cos(np.pi * np.arange(resolution) / (resolution - 1))
    vt = phi_vandermonde(mi[0], pts)
    vu = phi_vandermonde(mi[1], pts)
    return float(np.max(np.abs(vt @ c.array @ vu.T)))


def restrict_to_cross(c: CoeffGrid, cross: "HyperbolicCross") -> CoeffGrid:
    """Keep exactly the entries whose index pair lies in the cross.

    Only the rows the grid has are compared with the cross's per-row
    limits, so the work is bounded by the grid, not by the cross.
    """
    limits = cross.jmax[: c.array.shape[0], None]
    j = np.arange(c.array.shape[1])
    keep = (j >= cross.r2) & (j <= limits)
    return CoeffGrid(np.where(keep, c.array[: len(limits)], 0.0))


def dump_grid(c: CoeffGrid) -> str:
    """Serialize to the one-entry-per-line text format."""
    lines = [GRID_HEADER]
    for (k, j), v in c.items():
        lines.append(f"{k}\t{j}\t{v!r}")
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> CoeffGrid:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    # tolerate decoration comments (e.g. a manifest reference) above the header
    while lines and lines[0].startswith("#") and lines[0].strip() != GRID_HEADER:
        lines.pop(0)
    if not lines or lines[0].strip() != GRID_HEADER:
        raise ValueError(f"missing grid header {GRID_HEADER!r}")
    entries = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise ValueError(f"malformed grid line {ln!r}")
        entries.append(((int(parts[0]), int(parts[1])), float(parts[2])))
    return CoeffGrid(entries)


def save_grid(c: CoeffGrid, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_grid(c))


def load_grid(path) -> CoeffGrid:
    with open(path, "r", encoding="ascii") as fh:
        return parse_grid(fh.read())
