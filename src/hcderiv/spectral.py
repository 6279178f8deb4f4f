"""Bivariate Fourier-Legendre coefficient grids.

A :class:`CoeffGrid` represents a function f on Q = [-1, 1]^2 through
its coefficients c_{k,j} = <f, phi_k phi_j>, held as one dense float64
array whose zeros are the absent entries.  Grids are array-only: they
are built from a 2-D array, and sparse (k, j) -> value entries are
loaded through the text format.  The module provides the
smoothness-class norm, the Parseval L2 norm, synthesis back to point
values, sup-norm estimation on Chebyshev-clustered grids, restriction
to a hyperbolic cross, coefficient-space mixed differentiation, and a
tab-separated text format.

All operations are pure and grids are immutable after construction, so
instances can be shared freely across threads.  The sup norm keeps its
read-only sample basis between calls; no result depends on whether it
was kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

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
    2-D array of finite values and only from that: sparse (k, j) ->
    value entries are read through the text format (:func:`parse_grid`),
    and entries are read back through ``array``.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray | None = None):
        dense = np.zeros((0, 0)) if array is None else np.asarray(array, dtype=float)
        if dense.ndim != 2:
            raise ValueError(f"coefficient array must be 2-D, got shape {dense.shape}")
        if not np.all(np.isfinite(dense)):
            raise ValueError("coefficient array holds non-finite values")
        nonzero = dense != 0.0
        rows = np.flatnonzero(nonzero.any(axis=1))
        cols = np.flatnonzero(nonzero.any(axis=0))
        if rows.size:
            dense = np.array(dense[: rows[-1] + 1, : cols[-1] + 1])
        else:
            dense = np.zeros((0, 0))
        dense.flags.writeable = False
        self.array = dense

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

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffGrid):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"CoeffGrid({len(self)} entries)"


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


# float64 unit roundoff, and the smallest subnormal (twice the largest
# absolute rounding error of a product that underflows)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = float(np.finfo(float).smallest_subnormal)

# the one sample basis kept between calls: resolution -> (V, column maxima of |V|)
_SAMPLE_BASIS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _sample_basis(kmax: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """V[i, k] = phi_k(t_i) at the sample points for k <= kmax, and max_i |V[i, k]|.

    One matrix is kept, built for the largest degree asked for at the
    current resolution; smaller degrees get a column slice of it, which
    equals the smaller matrix bit for bit because the recurrence builds
    each column from the ones before.  The kept matrix is dropped before
    a larger one is built, so two are never held at once.  Callers get
    the same values whether the matrix was kept or built; threads racing
    here at worst build it twice.
    """
    kept = _SAMPLE_BASIS.get(resolution)
    if kept is None or kept[0].shape[1] <= kmax:
        _SAMPLE_BASIS.clear()
        kept = None  # drop the old matrix before the new one exists
        pts = np.cos(np.pi * np.arange(resolution) / (resolution - 1))
        v = phi_vandermonde(kmax, pts)
        colmax = np.maximum(v.max(axis=0), -v.min(axis=0))
        v.flags.writeable = False
        colmax.flags.writeable = False
        kept = _SAMPLE_BASIS[resolution] = (v, colmax)
    return kept[0][:, : kmax + 1], kept[1][: kmax + 1]


def _first_equal_row(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """For each row index, the smallest index in ``idx`` whose row of v holds the same values."""
    uniq, inverse = np.unique(idx, return_inverse=True)
    first: dict[bytes, int] = {}
    reps = np.array([first.setdefault(v[i].tobytes(), i) for i in uniq.tolist()])
    return reps[inverse.ravel()]


def _fixed_order_abs_max(
    vt: np.ndarray, a: np.ndarray, vu: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> float:
    """max |sum_k vt[i, k] sum_j a[k, j] vu[l, j]| over the pairs (i, l) = (rows[n], cols[n]).

    Every value is summed in one fixed order without BLAS: the products
    a[k, j] vu[l, j] are summed over j along each row k, then the
    products vt[i, k] times those row sums are summed over k, each sum
    a numpy np.sum over a contiguous axis.  Pairs whose sample rows hold
    the same values have the same sum, so each is summed once.
    """
    t_of_u: dict[int, set[int]] = {}
    for i, l in zip(_first_equal_row(vt, rows).tolist(), _first_equal_row(vu, cols).tolist()):
        t_of_u.setdefault(l, set()).add(i)
    best = 0.0
    for l, ts in t_of_u.items():
        row_sums = (a * vu[l]).sum(axis=1)
        best = max(best, float(np.max(np.abs((vt[list(ts)] * row_sums).sum(axis=1)))))
    return best


def sup_norm_on_grid(c: CoeffGrid, resolution: int = 257) -> float:
    """Max of |synthesized function| over a Chebyshev-clustered tensor grid.

    Sample points are cos(pi i / (resolution - 1)), i = 0..resolution-1,
    which always include the endpoints +-1 where Legendre polynomials
    peak.

    The result is the largest sample value summed in one fixed order
    without BLAS (see ``_fixed_order_abs_max``), so it depends on numpy's
    elementwise arithmetic and its fixed reductions but not on the BLAS
    or its thread count.  The BLAS product Vt c Vu^T only screens the
    samples: any summation order of a sample value is within

        B = gamma_{K1+K2} sum_kj m_t[k] |c_kj| m_u[j],

    gamma_n = n u / (1 - n u), of its exact value, where m_t and m_u are
    the column maxima of |Vt| and |Vu| (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.5; B is inflated by 1% for its own
    rounding and by an allowance for underflow).  A sample whose
    screened value lies more than 4B below the screened maximum M is
    below M - 2B in every order, while the sample at M is at least
    M - 2B in every order, so re-evaluating only the samples within 4B
    of M returns the fixed order's maximum over all samples.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if c.max_index() is None:
        return 0.0
    a = c.array
    k1, k2 = a.shape
    v, colmax = _sample_basis(max(k1, k2) - 1, resolution)
    vt, vu = v[:, :k1], v[:, :k2]
    screen = np.abs(vt @ a @ vu.T)
    n = k1 + k2
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    weight = float(colmax[:k1] @ np.abs(a) @ colmax[:k2])
    bound = 1.01 * gamma * weight + (k1 + 1) * (k2 + 1) * (1.0 + float(colmax.max())) * _TINY
    rows, cols = np.nonzero(screen >= screen.max() - 4.0 * bound)
    return _fixed_order_abs_max(vt, a, vu, rows, cols)


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
    """Serialize to the one-entry-per-line text format, sorted by (k, j)."""
    ks, js = np.nonzero(c.array)
    lines = [GRID_HEADER]
    lines.extend(
        f"{k}\t{j}\t{v!r}"
        for k, j, v in zip(ks.tolist(), js.tolist(), c.array[ks, js].tolist())
    )
    return "\n".join(lines) + "\n"


_ENTRY = np.dtype([("k", np.int64), ("j", np.int64), ("v", np.float64)])


def _grid_entry(line: str) -> tuple[int, int, float]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"malformed grid line {line!r}")
    return int(parts[0]), int(parts[1]), float(parts[2])


def parse_grid(text: str) -> CoeffGrid:
    """Read the text format into a grid.

    Below the header every non-blank line is ``k<TAB>j<TAB>value``; the
    indices must be unique non-negative integers that fit in 64 bits and
    the values finite.  The entries go straight into index and value
    arrays, and zero values are dropped before the grid array is sized.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    # tolerate decoration comments (e.g. a manifest reference) above the header
    while lines and lines[0].startswith("#") and lines[0].strip() != GRID_HEADER:
        lines.pop(0)
    if not lines or lines[0].strip() != GRID_HEADER:
        raise ValueError(f"missing grid header {GRID_HEADER!r}")
    try:
        table = np.fromiter(map(_grid_entry, islice(lines, 1, None)), _ENTRY, len(lines) - 1)
    except OverflowError:
        raise ValueError("grid indices must fit in 64 bits") from None
    ks, js, vals = table["k"], table["j"], table["v"]
    bad = np.flatnonzero((ks < 0) | (js < 0))
    if bad.size:
        raise ValueError(f"indices must be non-negative, got {(int(ks[bad[0]]), int(js[bad[0]]))}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k, j, v = table[bad[0]].tolist()
        raise ValueError(f"coefficient at {(k, j)} is not finite: {v!r}")
    order = np.lexsort((js, ks))
    repeats = (np.diff(ks[order]) == 0) & (np.diff(js[order]) == 0)
    if repeats.any():
        dup = order[np.argmax(repeats)]
        raise ValueError(f"duplicate index {(int(ks[dup]), int(js[dup]))}")
    keep = vals != 0.0
    if not keep.any():
        return CoeffGrid()
    ks, js = ks[keep], js[keep]
    dense = np.zeros((int(ks.max()) + 1, int(js.max()) + 1))
    dense[ks, js] = vals[keep]
    return CoeffGrid(dense)


def save_grid(c: CoeffGrid, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_grid(c))


def load_grid(path) -> CoeffGrid:
    with open(path, "r", encoding="ascii") as fh:
        return parse_grid(fh.read())
