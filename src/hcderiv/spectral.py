"""Bivariate Fourier-Legendre coefficient grids.

A :class:`CoeffGrid` represents a function f on Q = [-1, 1]^2 through
its coefficients c_{k,j} = <f, phi_k phi_j>, held as one dense float64
array whose zeros are the absent entries.  Grids are array-only: they
are built from a 2-D array, and sparse (k, j) -> value entries are
loaded through the text format.  The module provides the
smoothness-class norm, the Parseval L2 norm, synthesis back to point
values, sup-norm estimation on Chebyshev-clustered grids, restriction
to a hyperbolic cross, coefficient-space mixed differentiation, and a
tab-separated text format.  The L2 and sup errors against a reference
grid are one step, ``_ErrorReference.errors``; the sup norm of a grid
is its sup error against the zero grid.

All operations are pure and grids are immutable after construction, so
instances can be shared freely across threads.  The sup norm keeps its
read-only sample basis between calls; no result depends on whether it
was kept.  Its one bound is phi_k(+-1) = +-sqrt(k + 1/2), the largest
|phi_k| on [-1, 1]: it gives the screen weight and the underflow
allowance, and the exact sup where the signs of a grid agree at a
corner.  An ``_ErrorReference`` builds its sample screen in its
constructor and only reads it after, so a reference can be shared
across threads too.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .legendre import _weights, clenshaw_rows, differentiate_coeffs, phi_vandermonde
from .text import ENTRY, dump_table, load_table, write_text

if TYPE_CHECKING:
    from .cross import HyperbolicCross

__all__ = [
    "CoeffGrid",
    "ClassParams",
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
        self.array = _trimmed(dense, copy=True)

    @classmethod
    def _adopt(cls, dense: np.ndarray) -> "CoeffGrid":
        """A grid over ``dense``, a 2-D float64 array built for it and held by no one else.

        The array is checked and trimmed like a constructor argument, but
        it is made read-only in place rather than copied.
        """
        grid = cls.__new__(cls)
        grid.array = _trimmed(dense, copy=False)
        return grid

    def values(self) -> np.ndarray:
        """Coefficient values in (k, j) order.

        An array without zeros is its own values, read without a mask.
        """
        if self.array.all():
            return self.array.reshape(-1)
        return self.array[self.array != 0.0]

    def max_index(self) -> Index | None:
        """Largest k and largest j over the support, or None when empty."""
        if self.array.size == 0:
            return None
        return (self.array.shape[0] - 1, self.array.shape[1] - 1)

    def scale(self, factor: float) -> "CoeffGrid":
        return CoeffGrid._adopt(factor * self.array)

    def _combine(self, other: "CoeffGrid", op) -> "CoeffGrid":
        a, b = self.array, other.array
        out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
        out[: a.shape[0], : a.shape[1]] = a
        region = out[: b.shape[0], : b.shape[1]]
        op(region, b, out=region)
        return CoeffGrid._adopt(out)

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


def _trimmed(dense: np.ndarray, copy: bool) -> np.ndarray:
    """``dense`` checked finite, trimmed to its last nonzero row and column, and read-only.

    Without ``copy``, an array that needs no trimming is returned itself.
    An array whose last row and last column each hold a nonzero needs no
    trimming, which is read from those two lines without scanning the rest.
    """
    if not np.all(np.isfinite(dense)):
        raise ValueError("coefficient array holds non-finite values")
    if not (dense.size and dense[-1].any() and dense[:, -1].any()):
        nonzero = dense != 0.0
        rows = np.flatnonzero(nonzero.any(axis=1))
        if not rows.size:
            return _EMPTY
        cols = np.flatnonzero(nonzero.any(axis=0))
        shape = (rows[-1] + 1, cols[-1] + 1)
        if shape != dense.shape:
            dense, copy = dense[: shape[0], : shape[1]], True
    if copy:
        dense = np.array(dense)
    dense.flags.writeable = False
    return dense


_EMPTY = np.zeros((0, 0))
_EMPTY.flags.writeable = False


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
    with a zero index carry the other factor's weight rather than 1.  A
    sum that is not finite (a weight overflows, or times a power that
    underflows) is summed again in log form.
    """
    if len(c) == 0:
        return 0.0
    ks, js = np.nonzero(c.array)
    bases, values = np.maximum(1.0, ks) * np.maximum(1.0, js), np.abs(c.array[ks, js])
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(bases ** float(params.s * params.mu) * values**params.s)
    if np.isfinite(total):
        return float(total ** (1.0 / params.s))
    logs = params.s * (params.mu * np.log(bases) + np.log(values))
    return float(np.exp((logs.max() + np.log(np.sum(np.exp(logs - logs.max())))) / params.s))


def parseval_l2_norm(c: CoeffGrid) -> float:
    """L2(Q) norm of the synthesized function, via Parseval."""
    if c.max_index() is None:
        return 0.0
    return _power_norm(c.values(), 2)


_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _power_norm(values: np.ndarray, p: float, sqrt: bool = True) -> float:
    """(sum values**p)^(1/p) of nonzero values, for finite p >= 1; a square root at p = 2.

    ``sqrt=False`` takes the root as ``** (1/p)`` at p = 2 too, as the
    sphere draws of ``noise`` always have.  The values must be
    nonnegative unless p = 2.  A sum in the normal range gives the result
    as the plain formula does, bit for bit.  A sum that overflows or
    falls below the smallest normal float is summed again over the values
    divided by their largest magnitude m, and its root multiplied by m:
    the largest term is then 1, so no term overflows, and a term that
    underflows is too small to change the sum.  A power-of-two scaling
    would be exact, but its largest term 2**-p or more underflows itself
    once p passes 1022.
    """
    root = np.sqrt if sqrt and p == 2 else (lambda x: x ** (1.0 / p))
    with np.errstate(over="ignore"):
        total = np.sum(values**p)
        if _SMALLEST_NORMAL <= total < np.inf:
            return float(root(total))
        largest = np.max(np.abs(values))
        return float(largest * root(np.sum((values / largest) ** p)))


def synth_eval(c: CoeffGrid, t: float, tau: float) -> float:
    """Evaluate sum c_{k,j} phi_k(t) phi_j(tau) at a single point.

    Factors the double sum into one Clenshaw sum per row k, run over all
    rows at once, and a final Clenshaw sum over k.  At t = +-1 the
    recurrence's rounding error grows with the length: on the radius
    witness derivatives at N = 4096 (8192 to 12288 terms) it is off by up
    to 4.7e-11 relative, where the closed form at the corner
    (``lowerbound.verify_lower_bound_C``) is within 2.6e-16.
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
    nothing, so the derivative of the empty grid is empty.
    """
    if r1 < 1 or r2 < 1:
        raise ValueError("derivative orders r1, r2 must be >= 1")
    along_k = differentiate_coeffs(c.array.T, r1).T
    return CoeffGrid._adopt(differentiate_coeffs(along_k, r2))


# float64 unit roundoff, and the smallest subnormal (twice the largest
# absolute rounding error of a product that underflows)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = float(np.finfo(float).smallest_subnormal)

# the one sample basis kept between calls: resolution -> V
_SAMPLE_BASIS: dict[int, np.ndarray] = {}


def _fixed_order_abs_max(vt: np.ndarray, a: np.ndarray, vu: np.ndarray, keep: np.ndarray) -> float:
    """max |sum_k vt[i, k] sum_j a[k, j] vu[l, j]| over the samples (i, l) where keep[i, l].

    Every value is summed in one fixed order without BLAS: the products
    a[k, j] vu[l, j] are summed over j along each row k, then the
    products vt[i, k] times those row sums are summed over k, each sum
    a numpy np.sum over a contiguous axis.  The row sums are formed once
    per sample column l that holds a kept sample.
    """
    best = 0.0
    for l in np.flatnonzero(keep.any(axis=0)):
        row_sums = (a * vu[l]).sum(axis=1)
        best = max(best, float(np.max(np.abs((vt[keep[:, l]] * row_sums).sum(axis=1)))))
    return best


def _samples(shape: tuple[int, int], resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Vt and Vu for an array of ``shape``: V[i, k] = phi_k(t_i) at the sample points t_i.

    No sample exceeds phi_k(1) = sqrt(k + 1/2) in magnitude, the weight
    w_k of the screen, and the samples at t = +-1 reach it.  An axis with
    at most one coefficient is sampled once: phi_0 is constant, so its
    samples are equal.  That keeps the
    screen of the empty reference behind ``sup_norm_on_grid`` at 1 x 1:
    with ``resolution`` rows and columns it would be a third full-size
    array beside S_A and S_A - S_E in the error step.  One V is kept,
    built for the largest degree asked for at the current resolution; a
    smaller degree gets a column slice of it, equal bit for bit to the
    smaller matrix because the recurrence builds each column from the
    ones before.  The kept matrix is dropped before a larger one is
    built, so two are never held at once; threads racing here at worst
    build it twice.
    """
    kmax = max(*shape, 1) - 1
    v = _SAMPLE_BASIS.get(resolution)
    if v is None or v.shape[1] <= kmax:
        _SAMPLE_BASIS.clear()
        v = None  # drop the old matrix before the new one exists
        pts = np.cos(np.pi * np.arange(resolution) / (resolution - 1))
        v = phi_vandermonde(kmax, pts)
        v.flags.writeable = False
        _SAMPLE_BASIS[resolution] = v
    return tuple(v[: 1 if k <= 1 else resolution, :k] for k in shape)


def _sample_screen(a: np.ndarray, resolution: int) -> tuple[np.ndarray, float]:
    """The BLAS product Vt a Vu^T and the weight W = sum_kj |a_kj| w_k w_j.

    W is ``_corner_sum(a)``, with w_k = sqrt(k + 1/2) >= max_i
    |Vt[i, k]|; it needs no BLAS.  The product has one row (column) for
    an axis of ``a`` with at most one coefficient and ``resolution``
    otherwise, so the screens of two arrays broadcast against each other.
    """
    vt, vu = _samples(a.shape, resolution)
    return vt @ a @ vu.T, _corner_sum(a)


def _corner_sum(d: np.ndarray) -> float:
    """T = sum_kj |d_kj| sqrt(k + 1/2) sqrt(j + 1/2), the value at the corner (1, 1) of |d|.

    phi_k(1) = sqrt(k + 1/2) exactly.  The sum runs in one fixed order
    with no BLAS call: np.sum row sums of |d_kj| sqrt(j + 1/2) over the
    contiguous j axis, then one np.sum of those row sums times
    sqrt(k + 1/2).  |d_kj w_j| = |d_kj| w_j exactly, so the magnitudes
    are taken in place, in the one temporary d w.  An empty array gives
    0.0.
    """
    scaled = d * _weights(d.shape[1])
    rows = np.abs(scaled, out=scaled).sum(axis=1)
    return float(np.sum(rows * _weights(d.shape[0])))


def sup_norm_on_grid(c: CoeffGrid, resolution: int = 257) -> float:
    """Max of |synthesized function| over a Chebyshev-clustered tensor grid.

    Sample points are cos(pi i / (resolution - 1)), i = 0..resolution-1,
    which always include the endpoints +-1 where Legendre polynomials
    peak.  A resolution over 8192 (more than 2**26 samples) is refused.

    It is the sup error of ``c`` against the zero grid (see
    ``_ErrorReference``), summed in one fixed order without BLAS, so it
    does not depend on the BLAS or its thread count.  Where the signs of
    ``c`` agree at a corner it is the exact sup T = sum_kj |c_kj|
    sqrt(k + 1/2) sqrt(j + 1/2), the sample at that corner.
    """
    return _ErrorReference(CoeffGrid(), resolution).errors(c)[1]


class _ErrorReference:
    """A reference grid E kept with its sample screen: the error step for many grids A.

    ``errors(approx)`` returns the L2 (Parseval) and sup norms of the
    stored difference D = fl(approx - E).  The sup norm is the largest
    |sample| of D summed in one fixed order (``_fixed_order_abs_max``)
    over every sample; a BLAS screen only picks the samples worth
    summing.  An empty E gives ``sup_norm_on_grid(A)``: S_E = 0, W_E = 0
    and D = A exactly.

    The screen is linear, Vt (A - E) Vu^T = Vt A Vu^T - Vt E Vu^T, so the
    screen S_E = Vt E Vu^T and the weight W_E = sum_kj |E_kj| w_k w_j,
    with w_k = sqrt(k + 1/2) = phi_k(1) >= |phi_k(t)|, are formed once,
    by the constructor, and each call forms S_A and W_A over A's box
    alone and screens with S = S_A - S_E.  Every D takes this one path:
    a box larger than E's on either axis, an empty A, E or D and an axis
    of degree 0 too, since the screens broadcast against each other.

    The exact sup at a corner.  Since |phi_k(t)| <= phi_k(1), |D(t, u)|
    <= T = ``_corner_sum(D)`` everywhere, and since phi_k(-1) = (-1)^k
    phi_k(1), at a corner (s1, s2) in {-1, 1}^2 D = sum_kj d_kj s1^k
    s2^j sqrt(k + 1/2) sqrt(j + 1/2).  Where the products d_kj s1^k s2^j
    of the nonzero entries all have one sign, that corner value is +-T,
    so T is the exact sup, and the sup norm is T bit for bit.  The
    sample grid holds all four corners, and the recurrence gives
    phi_k(+-1) there exactly, so the fixed-order sample at that corner
    is +-T bit for bit: each of its products and partial sums is the
    matching one of ``_corner_sum(D)``, negated or not.  Every other
    sample is a sum in the same order of products no larger in magnitude
    (the recurrence's values inside (-1, 1) stay below phi_k(1) by far
    more than its rounding), so rounding, being monotone, keeps it at
    most T.

    The bound.  Any summation order of an n-term sum of products is
    within gamma_n times the sum of the products' magnitudes of its
    exact value, gamma_n = n u / (1 - n u) (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.5), as long as no product
    underflows.  Let x be the exact value of a sample of A - E, W = W_A +
    W_E, n = n1 + n2 for the larger extents n1 x n2 of A and E, and U
    the underflow allowance of an n1 x n2 array (what the products of
    one sample may lose to underflow, with room to spare).  S_A and S_E
    are within gamma_n W_A + U and gamma_n W_E + U of their exact
    values, and the subtraction adds at most u |S_A - S_E| <= u (1 +
    gamma_n) W, so S is within gamma_n W + u (1 + gamma_n) W + 2U <=
    gamma_{n+1} W + 2U of x.  The fixed-order sum runs over D, whose
    entries are within u |A - E| of A - E: it is within gamma_n (1 + u)
    W + U of D's exact sample, which is within u W of x, so it is within
    gamma_{n+1} W + U of x.  Both are thus within

        B = 1.01 gamma_{n+2} W + 2U

    of x.  Let M be the largest |S|.  The sample at M is at least M - 2B
    in the fixed order, and a sample whose |S| lies more than 4B below M
    is below M - 2B there, so only the samples within 4B of M are summed
    in the fixed order, and their maximum is the fixed order's maximum
    over all samples.  The 1% covers the rounding of W, and the extra
    step in gamma the rounding of the threshold M - 4B (at most
    u (M + 4B), and M <= 1.01 W).
    """

    __slots__ = ("exact", "resolution", "_screen", "_weight")

    def __init__(self, exact: CoeffGrid, resolution: int):
        self.check_resolution(resolution)
        self.exact = exact
        self.resolution = resolution
        self._screen, self._weight = _sample_screen(exact.array, resolution)  # S_E, W_E

    @staticmethod
    def check_resolution(resolution: int) -> None:
        """Refuse ``resolution`` points per axis outside [_MIN_RESOLUTION, _MAX_RESOLUTION]."""
        if resolution < _MIN_RESOLUTION:
            raise ValueError(f"resolution must be >= {_MIN_RESOLUTION}")
        if resolution > _MAX_RESOLUTION:
            raise ValueError(f"resolution must be <= {_MAX_RESOLUTION}, got {resolution}")

    def errors(self, approx: CoeffGrid) -> tuple[float, float]:
        """L2 (Parseval) and sup norms of ``approx - exact``: the sup is its largest sample."""
        diff = approx - self.exact
        error_l2 = parseval_l2_norm(diff)
        screen, weight = _sample_screen(approx.array, self.resolution)
        n1, n2 = map(max, approx.array.shape, self.exact.array.shape)
        n = n1 + n2 + 2
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        underflow = (n1 + 1) * (n2 + 1) * (1.0 + float(np.sqrt(max(n1, n2, 1) - 0.5))) * _TINY
        bound = 1.01 * gamma * (weight + self._weight) + 2.0 * underflow
        vt, vu = _samples(diff.array.shape, self.resolution)
        # S_A is dropped once S_A - S_E exists, |S| is taken in place, and S is dropped
        # once the candidates are marked, before the fixed-order sums form their temporaries
        screen = (screen - self._screen)[: len(vt), : len(vu)]
        np.abs(screen, out=screen)
        keep = screen >= screen.max() - 4.0 * bound
        del screen
        return error_l2, _fixed_order_abs_max(vt, diff.array, vu, keep)


def restrict_to_cross(c: CoeffGrid, cross: "HyperbolicCross") -> CoeffGrid:
    """Keep exactly the entries whose index pair lies in the cross.

    Only the grid's entries inside the cross's bounding box are compared
    with its per-row limits, so the work is bounded by the smaller of
    the grid and that box.
    """
    keep = _cross_mask(cross, c.array.shape)
    return CoeffGrid._adopt(np.where(keep, c.array[: keep.shape[0], : keep.shape[1]], 0.0))


def _cross_mask(cross: "HyperbolicCross", shape: tuple[int, int] | None = None) -> np.ndarray:
    """True at each (k, j) of the cross, over its bounding box cut to ``shape`` (default: uncut).

    The box spans the rows up to the cross's k extent and the columns up
    to its widest row, or no column where the cross holds no entry.
    """
    rows, cols = (None, None) if shape is None else shape
    limits = cross.jmax[:rows, None]
    widest = int(limits.max(initial=-1))
    width = widest + 1 if widest >= cross.r2 else 0
    j = np.arange(width if cols is None else min(width, cols))
    return (j >= cross.r2) & (j <= limits)


def dump_grid(c: CoeffGrid) -> str:
    """Serialize to the one-entry-per-line text format, sorted by (k, j).

    The text is the header line and then one ``k<TAB>j<TAB>repr(value)``
    line per nonzero entry, written by ``text.dump_table``.
    """
    ks, js = np.nonzero(c.array)
    values = c.array[ks, js]
    return dump_table(GRID_HEADER, len(ks), lambda lo, hi: (ks[lo:hi], js[lo:hi], values[lo:hi]))


def _grid_entry(line: str) -> tuple[int, int, float]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"malformed grid line {line!r}")
    return int(parts[0]), int(parts[1]), float(parts[2])


# one line of ASCII text with its break, where str.splitlines breaks it
_LINE = re.compile(r"[^\n\r\v\f\x1c-\x1e]*(?:\r\n|[\n\r\v\f\x1c-\x1e]|\Z)")


def _body_start(text: str) -> int:
    """The offset just past the header, the first line that strips to ``GRID_HEADER``, in the
    ASCII ``text``; only blank lines and lines that start with ``#`` may stand above it.
    Lines break where ``str.splitlines`` breaks them."""
    for line in _LINE.finditer(text):
        stripped = line[0].strip()
        if stripped == GRID_HEADER:
            return line.end()
        if stripped and not line[0].startswith("#"):
            break
    raise ValueError(f"missing grid header {GRID_HEADER!r}")


def _line_table(body: str) -> np.ndarray:
    """The entries of the body lines ``body``, read line by line; blank lines are skipped."""
    lines = [ln for ln in body.splitlines() if ln.strip()]
    try:
        return np.fromiter(map(_grid_entry, lines), ENTRY, len(lines))
    except OverflowError:
        raise ValueError("grid indices must fit in 64 bits") from None


# the most cells an array sized from input may hold (the array of a grid read
# from text, a synthesized grid, a witness band, the rows of a cross), 4x the
# (4097, 4097) array of a K = 4096 projection: one number or line of input must
# not be able to ask for any amount of memory
_MAX_GRID_CELLS = 2**26
# sup-norm sample grids are resolution x resolution, within the same limit, and
# take both ends +-1 of each axis
_MIN_RESOLUTION, _MAX_RESOLUTION = 2, 2**13


def _check_cells(shape: tuple[int, int], name: str = "grid") -> None:
    """Refuse a ``name`` array of ``shape`` that would hold more than ``_MAX_GRID_CELLS`` cells."""
    if shape[0] * shape[1] > _MAX_GRID_CELLS:
        raise ValueError(f"{name} shape {shape} exceeds the limit of {_MAX_GRID_CELLS} cells")


def _table_grid(table: np.ndarray) -> CoeffGrid:
    """The grid of an entry table, after checking its indices and values."""
    ks, js, vals = table["k"], table["j"], table["v"]
    bad = np.flatnonzero((ks < 0) | (js < 0))
    if bad.size:
        raise ValueError(f"indices must be non-negative, got {(int(ks[bad[0]]), int(js[bad[0]]))}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k, j, v = table[bad[0]].tolist()
        raise ValueError(f"coefficient at {(k, j)} is not finite: {v!r}")
    # pairs in strictly increasing (k, j) order, as dump_grid writes them, are unique;
    # only other tables are sorted to find a duplicate
    dk = np.diff(ks)
    if not np.all((dk > 0) | ((dk == 0) & (np.diff(js) > 0))):
        order = np.lexsort((js, ks))
        repeats = (np.diff(ks[order]) == 0) & (np.diff(js[order]) == 0)
        if repeats.any():
            dup = order[np.argmax(repeats)]
            raise ValueError(f"duplicate index {(int(ks[dup]), int(js[dup]))}")
    keep = vals != 0.0
    if not keep.any():
        return CoeffGrid()
    ks, js = ks[keep], js[keep]
    shape = (int(ks.max()) + 1, int(js.max()) + 1)
    _check_cells(shape)
    dense = np.zeros(shape)
    dense[ks, js] = vals[keep]
    return CoeffGrid._adopt(dense)


def parse_grid(text: str) -> CoeffGrid:
    """Read the text format into a grid.

    The text is ASCII; ``_body_start`` finds its header.  Below it every
    non-blank line is ``k<TAB>j<TAB>value``; the indices must be unique
    non-negative integers that fit in 64 bits and the values finite, and
    the nonzero entries must fit in an array of at most 2**26 cells.  A
    body in dump_grid's form is read by ``text.load_table`` with integer
    numpy operations, any other body line by line; both give the same
    entries, or the same error.  Zero values are dropped before the grid
    array is sized.
    """
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ValueError(f"grid text is not ASCII: {text[at]!r} at offset {at}")
    at = _body_start(text)
    table = load_table(text, at)
    return _table_grid(_line_table(text[at:]) if table is None else table)


def save_grid(c: CoeffGrid, path) -> None:
    write_text(path, dump_grid(c))


def _read_grid(path) -> tuple[CoeffGrid, str]:
    """The grid in the file at ``path`` and the sha256 of its bytes, decoded without loss or
    newline translation (UTF-8, other bytes as lone surrogates) and dropped before the parse."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest, text = hashlib.sha256(data).hexdigest(), data.decode("utf-8", "surrogateescape")
    del data  # the bytes are not held through the parse
    return parse_grid(text), digest


def load_grid(path) -> CoeffGrid:
    return _read_grid(path)[0]
