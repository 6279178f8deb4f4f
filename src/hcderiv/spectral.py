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
was kept.
"""

from __future__ import annotations

import re
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
    return CoeffGrid._adopt(differentiate_coeffs(along_k, r2))


# float64 unit roundoff, and the smallest subnormal (twice the largest
# absolute rounding error of a product that underflows)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = float(np.finfo(float).smallest_subnormal)

# the one sample basis kept between calls: resolution -> (V, column maxima of |V|)
_SAMPLE_BASIS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _fixed_order_abs_max(
    vt: np.ndarray, a: np.ndarray, vu: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> float:
    """max |sum_k vt[i, k] sum_j a[k, j] vu[l, j]| over the pairs (i, l) = (rows[n], cols[n]).

    Every value is summed in one fixed order without BLAS: the products
    a[k, j] vu[l, j] are summed over j along each row k, then the
    products vt[i, k] times those row sums are summed over k, each sum
    a numpy np.sum over a contiguous axis.  The row sums are formed once
    per sample column l.
    """
    t_of_u: dict[int, list[int]] = {}
    for i, l in zip(rows.tolist(), cols.tolist()):
        t_of_u.setdefault(l, []).append(i)
    best = 0.0
    for l, ts in t_of_u.items():
        row_sums = (a * vu[l]).sum(axis=1)
        best = max(best, float(np.max(np.abs((vt[ts] * row_sums).sum(axis=1)))))
    return best


def _samples(shape: tuple[int, int], resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vt and Vu for an array of ``shape``, and the column maxima of |V| up to its larger extent.

    V[i, k] = phi_k(t_i) at the sample points t_i.  An axis with at most
    one coefficient is sampled once: phi_0 is constant, so its samples
    are equal.  One V is kept, built for the largest degree asked for at
    the current resolution; a smaller degree gets a column slice of it,
    equal bit for bit to the smaller matrix because the recurrence
    builds each column from the ones before.  The kept matrix is dropped
    before a larger one is built, so two are never held at once; threads
    racing here at worst build it twice.
    """
    kmax = max(*shape, 1) - 1
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
    v, colmax = kept
    vt, vu = (v[: 1 if k <= 1 else resolution, :k] for k in shape)
    return vt, vu, colmax[: kmax + 1]


def _sample_screen(a: np.ndarray, resolution: int) -> tuple[np.ndarray, float]:
    """The BLAS product Vt a Vu^T and the weight sum_kj m_t[k] |a_kj| m_u[j].

    m_t and m_u are the column maxima of |Vt| and |Vu|.  The product has
    one row (column) for an axis of ``a`` with at most one coefficient
    and ``resolution`` otherwise, so the screens of two arrays broadcast
    against each other.
    """
    vt, vu, colmax = _samples(a.shape, resolution)
    k1, k2 = a.shape
    return vt @ a @ vu.T, float(colmax[:k1] @ np.abs(a) @ colmax[:k2])


def sup_norm_on_grid(c: CoeffGrid, resolution: int = 257) -> float:
    """Max of |synthesized function| over a Chebyshev-clustered tensor grid.

    Sample points are cos(pi i / (resolution - 1)), i = 0..resolution-1,
    which always include the endpoints +-1 where Legendre polynomials
    peak.  A resolution over 8192 (more than 2**26 samples) is refused.

    It is the sup error of ``c`` against the zero grid (see
    ``_ErrorReference``), summed in one fixed order without BLAS, so it
    does not depend on the BLAS or its thread count.
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
    screen S_E = Vt E Vu^T and the weight W_E = sum m_t |E| m_u, with
    m_t and m_u the column maxima of |Vt| and |Vu|, are formed here
    once, and each call forms S_A and W_A over A's box alone and screens
    with S = S_A - S_E.  A box larger than E's on either axis, an empty
    A or E and an axis of degree 0 all take this path: the screens
    broadcast against each other.

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
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        if resolution > _MAX_RESOLUTION:
            raise ValueError(f"resolution must be <= {_MAX_RESOLUTION}, got {resolution}")
        self.exact = exact
        self.resolution = resolution
        self._screen, self._weight = _sample_screen(exact.array, resolution)

    def errors(self, approx: CoeffGrid) -> tuple[float, float]:
        """L2 (Parseval) and sup (sample grid) norms of ``approx - exact``."""
        diff = approx - self.exact
        if diff.max_index() is None:
            return 0.0, 0.0
        error_l2 = parseval_l2_norm(diff)
        screen, weight = _sample_screen(approx.array, self.resolution)
        n1, n2 = map(max, approx.array.shape, self.exact.array.shape)
        n = n1 + n2 + 2
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        colmax = _samples((n1, n2), self.resolution)[2]
        underflow = (n1 + 1) * (n2 + 1) * (1.0 + float(colmax.max())) * _TINY
        bound = 1.01 * gamma * (weight + self._weight) + 2.0 * underflow
        vt, vu, _ = _samples(diff.array.shape, self.resolution)
        # S_A is dropped once S_A - S_E exists, and |S| is taken in place
        screen = (screen - self._screen)[: len(vt), : len(vu)]
        np.abs(screen, out=screen)
        rows, cols = np.nonzero(screen >= screen.max() - 4.0 * bound)
        return error_l2, _fixed_order_abs_max(vt, diff.array, vu, rows, cols)


def restrict_to_cross(c: CoeffGrid, cross: "HyperbolicCross") -> CoeffGrid:
    """Keep exactly the entries whose index pair lies in the cross.

    Only the grid's entries inside the cross's bounding box are compared
    with its per-row limits, so the work is bounded by the smaller of
    the grid and that box.
    """
    limits = cross.jmax[: c.array.shape[0], None]
    box = c.array[: len(limits), : int(limits.max(initial=-1)) + 1]
    j = np.arange(box.shape[1])
    keep = (j >= cross.r2) & (j <= limits)
    return CoeffGrid._adopt(np.where(keep, box, 0.0))


# rows formatted per block, so the per-field Python objects of one block exist at a time
_DUMP_BLOCK = 1 << 12


def _dump_table(header: str, columns: tuple[np.ndarray, ...], line: str) -> str:
    """The header line, then ``line % row`` for each row of ``columns``, one ``%`` per block."""
    width, rows = len(columns), len(columns[0])
    blocks = [header + "\n"]
    for lo in range(0, rows, _DUMP_BLOCK):
        hi = min(lo + _DUMP_BLOCK, rows)
        flat = [None] * (width * (hi - lo))
        for at, column in enumerate(columns):
            flat[at::width] = column[lo:hi].tolist()
        blocks.append(line * (hi - lo) % tuple(flat))
    return "".join(blocks)


def dump_grid(c: CoeffGrid) -> str:
    """Serialize to the one-entry-per-line text format, sorted by (k, j).

    The text is the header line and then one ``k<TAB>j<TAB>repr(value)``
    line per nonzero entry.
    """
    ks, js = np.nonzero(c.array)
    return _dump_table(GRID_HEADER, (ks, js, c.array[ks, js]), "%d\t%d\t%r\n")


_ENTRY = np.dtype([("k", np.int64), ("j", np.int64), ("v", np.float64)])

# dump_grid's entry lines: indices of at most 18 digits (so below 2**63) and a
# value made of the characters of a finite float's repr.  The body is matched a
# block of lines at a time: a repeated group keeps state for every line it
# matches until the match ends.
_CANONICAL_LINES = re.compile(r"(?:[0-9]{1,18}\t[0-9]{1,18}\t[-+.0-9eE]+\n)*")
_READ_BLOCK = 1 << 14  # characters per block, rounded up to a whole line


def _blocks(text: str, start: int):
    """(start, end) of consecutive blocks of whole lines covering text[start:]."""
    while start < len(text):
        end = text.find("\n", start + _READ_BLOCK) + 1 or len(text)
        yield start, end
        start = end


def _loadtxt_table(text: str) -> np.ndarray | None:
    """The entries of text in dump_grid's form, read by one np.loadtxt call.

    The form is optional ``#`` comment lines, the header line, and lines
    that match ``_CANONICAL_LINES``; such a line splits at its two tabs
    into decimal indices that int() and np.loadtxt read alike, and a
    value that both hand to the same float parser.  Any other text, or a
    value np.loadtxt refuses, gives None.
    """
    head = GRID_HEADER + "\n"
    if text.startswith(head):
        start = len(head)
    else:
        at = text.find("\n" + head)
        if at < 0:
            return None
        prefix = text[: at + 1]
        comments = prefix.split("\n")[:-1]
        if prefix.splitlines() != comments or any(
            not line.startswith("#") or line.strip() == GRID_HEADER for line in comments
        ):
            return None
        start = at + 1 + len(head)
    if start == len(text):
        return np.zeros(0, _ENTRY)
    if not all(_CANONICAL_LINES.fullmatch(text, lo, hi) for lo, hi in _blocks(text, start)):
        return None
    lines = (line for lo, hi in _blocks(text, start) for line in text[lo:hi].splitlines())
    try:
        return np.loadtxt(lines, dtype=_ENTRY, delimiter="\t", comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return None


def _grid_entry(line: str) -> tuple[int, int, float]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"malformed grid line {line!r}")
    return int(parts[0]), int(parts[1]), float(parts[2])


def _line_table(text: str) -> np.ndarray:
    """The entries of any text in the format, read line by line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    # tolerate decoration comments (e.g. a manifest reference) above the header
    while lines and lines[0].startswith("#") and lines[0].strip() != GRID_HEADER:
        lines.pop(0)
    if not lines or lines[0].strip() != GRID_HEADER:
        raise ValueError(f"missing grid header {GRID_HEADER!r}")
    try:
        return np.fromiter(map(_grid_entry, islice(lines, 1, None)), _ENTRY, len(lines) - 1)
    except OverflowError:
        raise ValueError("grid indices must fit in 64 bits") from None


# the most cells an array sized from input may hold (the array of a grid read
# from text, a synthesized grid, a witness band, the rows of a cross), 4x the
# (4097, 4097) array of a K = 4096 projection: one number or line of input must
# not be able to ask for any amount of memory
_MAX_GRID_CELLS = 2**26
# sup-norm sample grids are resolution x resolution, within the same limit
_MAX_RESOLUTION = 2**13


def _check_cells(shape: tuple[int, int]) -> None:
    """Refuse a grid of ``shape`` that would hold more than ``_MAX_GRID_CELLS`` cells."""
    if shape[0] * shape[1] > _MAX_GRID_CELLS:
        raise ValueError(f"grid shape {shape} exceeds the limit of {_MAX_GRID_CELLS} cells")


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

    Below the header every non-blank line is ``k<TAB>j<TAB>value``; the
    indices must be unique non-negative integers that fit in 64 bits and
    the values finite, and the nonzero entries must fit in an array of
    at most 2**26 cells.  Text in dump_grid's form (see ``_loadtxt_table``)
    is read by one np.loadtxt call; any other text is read line by line.
    Both readers give the same entries, or the same error, for the same
    text.  The entries go straight into index and value arrays, and zero
    values are dropped before the grid array is sized.
    """
    table = _loadtxt_table(text)
    return _table_grid(_line_table(text) if table is None else table)


def save_grid(c: CoeffGrid, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_grid(c))


def load_grid(path) -> CoeffGrid:
    with open(path, "r", encoding="ascii") as fh:
        return parse_grid(fh.read())
