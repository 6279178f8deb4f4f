"""Tab-separated decimal text of index and float columns, written by numpy.

The grid and cross formats are one line per row: decimal indices, and in
grids a float written with the digits of Python's ``repr``.  This module
writes them a block of rows at a time without a Python object per field.
Each block lays out every field of every row in a fixed-width uint8
matrix beside a mask of the bytes the field uses, and one boolean index
of the matrix gives the block's text.

Indices are cut into 4-digit groups, each read from a table of the
10000 groups.  Floats get their digits from Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020): the shortest decimal in
the interval of reals that round to the value, the one closest to it
among those, ties to an even last digit.  Those are the digits ``repr``
prints.  The algorithm needs only integer arithmetic, here on uint64
arrays with 32-bit limbs, so no BLAS and no CPU-dispatched float kernel
takes part.  Two rules of Java's ``Double.toString``, which Schubfach was
written for, are left out because ``repr`` has neither: subnormals with
a fraction below 3 are not scaled by 10, and a one- or two-digit ``s``
still looks for a shorter decimal (Java prints ``4.9E-324`` where
``repr`` prints ``5e-324``).  So one path serves every finite nonzero
float, subnormals included.

Grid bodies are read back by ``load_table`` with integer numpy operations
too: the non-digits check each line's form and bound its digit runs, the
runs are folded 8 digits at a time, and Eisel-Lemire (D. Lemire, "Number
Parsing at a Gigabyte per Second", 2021) gives the nearest double, or
leaves the value to ``float()``.

Every uint64 operand is uint64, scalars as ``np.uint64``: numpy 1.x
promotes uint64 mixed with int64 to float64, which loses digits.

``write_text`` is the package's one file writer: ``save_grid``,
``save_cross`` and every CLI output replace their file through it, by
writing a temp file beside the target and renaming it over the target.
"""

from __future__ import annotations

import os
import shutil
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["dump_table", "load_table", "write_text"]

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_S32, _S63 = _U(32), _U(63)
_TEN, _TEN4, _TEN8 = _U(10), _U(10**4), _U(10**8)

# the decimal exponents of the g table, Schubfach's range for binary64
_K_MIN, _K_MAX = -324, 292

# rows per block, so the temporaries of one block exist at a time
_BLOCK = 1 << 12

# the least numbers of 2, 3, ... 20 digits, where np.searchsorted counts digits,
# and the powers of ten below 2**64
_DIGITS = np.array([10**i for i in range(1, 20)], _U)
_POW10 = np.array([10**i for i in range(20)], _U)


def _flog2pow10(e):
    """floor(e log2(10)) for |e| <= 32768, of a Python int or an int64 array."""
    return (e * 913_124_641_741) >> 38


class _Tables(NamedTuple):
    g: tuple[np.ndarray, ...]
    groups: np.ndarray
    ends: tuple[np.ndarray, ...]
    exponents: np.ndarray
    value_valid: np.ndarray


@lru_cache(maxsize=1)
def _tables() -> _Tables:
    """The lookup tables of the writer, built on the first dump rather than at import.

    - ``g``: Schubfach's g(k) = floor(10**-k / 2**r) + 1 with r =
      floor(log2(10**-k)) - 125, so 2**125 <= g < 2**126, indexed by
      k - _K_MIN.  It is kept as g = g1 2**63 + g0 in five uint64
      tables: the 32-bit limbs of g0, those of g1, and g1.
    - ``groups``: "0000" to "9999", 4 ASCII bytes each read as one uint32.
    - ``ends``: for the i-th 4-digit group after the first digit of a
      17-digit number, 1 + the place of the group's last nonzero digit in
      the number, or 0 for "0000".
    - ``exponents``: "-324" to "+308" as 4 ASCII bytes each, indexed by
      the exponent + 324.
    - ``value_valid``: the bytes of ``_VALUE_TEMPLATE`` that ``repr`` uses,
      per layout code (see ``_float_field``).
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g.append(num // den + 1)
    g1 = np.array([v >> 63 for v in g], _U)
    g0 = np.array([v & (2**63 - 1) for v in g], _U)
    n = np.arange(10000)
    places = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    last = np.max(np.where(places > 0, np.arange(1, 5), 0), axis=1)
    e = np.arange(-324, 309)
    exponents = np.stack([ord("+") + 2 * (e < 0), *places[np.abs(e), 1:].T + ord("0")], axis=1)
    return _Tables(
        g=(g0 & _M32, g0 >> _S32, g1 & _M32, g1 >> _S32, g1),
        groups=_ascii32(places + ord("0")),
        ends=tuple((np.where(last > 0, last + 4 * i + 1, 0)).astype(np.uint8) for i in range(4)),
        exponents=_ascii32(exponents),
        value_valid=_value_valid(),
    )


def _ascii32(codes: np.ndarray) -> np.ndarray:
    """Rows of 4 character codes as one uint32 each."""
    return codes.astype(np.uint8).view(np.uint32).reshape(-1)


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of the 128-bit product of a = a1 2**32 + a0 and b = b1 2**32 + b0."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _rop(g, cp):
    """Schubfach's round-to-odd product: floor(g cp / 2**127), its last bit set if inexact."""
    g0lo, g0hi, g1lo, g1hi, g1 = g
    c0, c1 = cp & _M32, cp >> _S32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0lo, g0hi, c0, c1)
    return (_mulhi(g1lo, g1hi, c0, c1) + (z >> _S63)) | (((z & _M63) + _M63) >> _S63)


def _shortest(bits: np.ndarray, g_table) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10**k the digits ``repr`` prints for each finite nonzero |x|, x's bits given.

    Schubfach (Giulietti 2020, figure 7), without Java's two extra rules:
    with c 2**q = |x|, [vbl, vbr] the reals that round to x scaled by
    4 10**-k (without its ends when c is odd) and s = floor(vb / 4), the
    one multiple of 10 in it is taken when there is one, else the one of
    s and s + 1 in it, or the closer of both, ties to even.
    """
    t = bits & _U(2**52 - 1)
    biased = (bits >> _U(52)) & _U(0x7FF)
    normal = biased != _U(0)
    c = t | (normal * _U(2**52))
    q = biased.astype(np.int64) - 1075 + ~normal
    # at a power of two (past the subnormals) the gap below is half the gap above;
    # k is floor(log10(2**q)), or floor(log10(3/4 2**q)) at such a power
    irregular = (t == _U(0)) & (biased > _U(1))
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g = [table.take(k - _K_MIN) for table in g_table]
    odd = c & _U(1)
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + odd
    vbr = _rop(g, (cb + _U(2)) << h) - odd
    s = vb >> _U(2)
    # the multiples of 10 beside s: at most one lies in [vbl, vbr]
    s10 = s // _TEN * _TEN
    lower10 = vbl <= s10 << _U(2)
    upper10 = (s10 + _TEN) << _U(2) <= vbr
    # else s or s + 1: the one inside, or the closer, ties to the even one
    lower = vbl <= s << _U(2)
    upper = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    closer = (vb < mid) | ((vb == mid) & (s & _U(1) == _U(0)))
    f = s + ~(lower & (~upper | closer))
    tens = lower10 != upper10
    f += tens * (s10 + ~lower10 * _TEN - f)
    return f, k


# the bytes a value may use: a sign, up to 16 digits before the point (or 1
# in the exponent form), "0", ".", "000", up to 17 digits after the point,
# "0", and "e" with a signed exponent of 2 or 3 digits.  The digits are
# written in places for 17, twice, and the exponent in places for 4.
_VALUE_TEMPLATE = np.frombuffer(b"-" + b"#" * 17 + b"0.000" + b"#" * 17 + b"0e" + b"#" * 4, np.uint8)
_INT_DIGITS, _FRAC_DIGITS, _EXPONENT = 1, 23, 42
# the classes a value's layout is told by: point = -3 ... 16 is positional,
# then the exponent form with a 2-digit and with a 3-digit exponent
_POINT_CLASSES = 22


def _value_valid() -> np.ndarray:
    """The bytes of ``_VALUE_TEMPLATE`` that ``repr`` uses, per layout code.

    The code of a value with sign bit ``neg``, point class ``pc`` and n
    significant digits is (neg _POINT_CLASSES + pc) 17 + n - 1.  The value
    is 0.ddd times 10**point; the class of a positional point is point + 3.
    """
    neg = np.arange(2)[:, None, None] == 1
    pc = np.arange(_POINT_CLASSES)[None, :, None]
    n = np.arange(1, 18)[None, None, :]
    expo, wide, point = pc >= 20, pc == 21, pc - 3
    pos = ~expo
    whole = np.where(expo, 1, np.maximum(point, 0))
    lead = pos * np.maximum(-point, 0)
    columns = [
        neg,
        *(whole > j for j in range(17)),
        pos & (point <= 0),
        pos | (n > 1),
        *(lead > j for j in range(3)),
        *((whole <= j) & (j < n) for j in range(17)),
        pos & (point >= n),
        expo, expo, expo & wide, expo, expo,
    ]
    valid = np.stack(np.broadcast_arrays(*columns), axis=-1)
    return _rows(valid.reshape(-1, len(_VALUE_TEMPLATE)))


def _rows(matrix: np.ndarray) -> np.ndarray:
    """A 2-D array whose last axis is contiguous, viewed as one element per row.

    numpy copies such elements far faster than short rows of bytes.
    """
    return matrix.view(np.dtype((np.void, matrix.shape[1] * matrix.itemsize)))[:, 0]


def _float_field(x: np.ndarray, tables: _Tables):
    """``repr`` of each finite nonzero float64 in ``x`` as a field (see ``_lines``).

    With f 10**k the digits, f 10**(17 - len(f)) is cut into its first
    digit and four 4-digit groups, and those 17 digits are written twice:
    once for the digits before the point, once for those after it.
    Python's layout is positional for -4 < point <= 16, where the value
    is 0.ddd times 10**point, and d.ddde+-XX otherwise.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(_U)
    f, k = _shortest(bits, tables.g)
    length = np.searchsorted(_DIGITS, f, side="right") + 1
    f *= _POW10.take(17 - length)
    high = f // _TEN8
    low = f - high * _TEN8
    top = high // _TEN8
    high -= top * _TEN8
    quads = []  # the groups as int64, the index type of take
    for half in (high, low):
        upper = half // _TEN4
        quads += [upper.view(np.int64), (half - upper * _TEN4).view(np.int64)]
    n = tables.ends[0].take(quads[0])
    for end, quad in zip(tables.ends[1:], quads[1:]):
        np.maximum(n, end.take(quad), out=n)
    np.maximum(n, 1, out=n)
    first = (top + _U(ord("0"))).astype(np.uint8)
    rest = _rows(tables.groups.take(np.stack(quads, axis=1)))
    point = k + length
    wide = np.abs(point - 1) >= 100
    pc = np.where((point <= -4) | (point > 16), 20 + wide, point + 3)
    code = ((bits >> _S63).astype(np.intp) * _POINT_CLASSES + pc) * 17 + n - 1
    parts = [
        (_INT_DIGITS, first), (_INT_DIGITS + 1, rest),
        (_FRAC_DIGITS, first), (_FRAC_DIGITS + 1, rest),
        (_EXPONENT, tables.exponents.take(point + 323)),
    ]
    return _VALUE_TEMPLATE, parts, tables.value_valid.take(code)


def _uint_field(u: np.ndarray, tables: _Tables):
    """The decimal digits of each nonnegative integer in ``u`` as a field (see ``_lines``).

    The digits are 4 per group, as many groups as the largest number
    needs, and a number's leading zeros are not valid.
    """
    u = u.astype(_U)
    digits = np.searchsorted(_DIGITS, u, side="right") + 1
    width = 4 * -(-int(digits.max(initial=1)) // 4)
    quads, rest = [], u
    for _ in range(width // 4 - 1):
        upper = rest // _TEN4
        quads.append(rest - upper * _TEN4)
        rest = upper
    quads.append(rest)
    chars = _rows(tables.groups.take(np.stack(quads[::-1], axis=1).view(np.int64)))
    suffixes = np.arange(width) >= width - np.arange(width + 1)[:, None]
    return np.zeros(width, np.uint8), [(0, chars)], _rows(suffixes).take(digits)


_TAB, _NEWLINE = ((np.frombuffer(b, np.uint8), [], _rows(np.ones((1, 1), bool))) for b in (b"\t", b"\n"))


def _lines(columns: Sequence[np.ndarray], tables: _Tables) -> str:
    """The tab-separated lines of the rows of ``columns``: index arrays, then floats if any.

    Each column gives a field: a template of its bytes, the parts written
    into it as (offset, one element of bytes per row), and which bytes
    are valid as one element of flags per row, or one for every row.
    The fields lie side by side in one matrix of bytes and one of flags;
    the valid bytes, row by row, are the text.
    """
    fields = []
    for column in columns:
        if fields:
            fields.append(_TAB)
        fields.append((_float_field if column.dtype.kind == "f" else _uint_field)(column, tables))
    fields.append(_NEWLINE)
    width = sum(len(field[0]) for field in fields)
    chars = np.empty((len(columns[0]), width), np.uint8)
    valid = np.empty(chars.shape, bool)
    _rows(chars)[:] = _rows(np.concatenate([field[0] for field in fields])[None])
    at = 0
    for template, parts, field_valid in fields:
        for offset, part in parts:
            start = at + offset
            _rows(chars[:, start : start + part.itemsize])[:] = part.view(np.dtype((np.void, part.itemsize)))
        _rows(valid[:, at : at + len(template)])[:] = field_valid
        at += len(template)
    return str(chars[valid], "ascii")


def dump_table(header: str, rows: int, columns: Callable[[int, int], Sequence[np.ndarray]]) -> str:
    """The header line, then one tab-separated line per row, a block of rows at a time.

    ``columns(lo, hi)`` gives rows lo to hi - 1 of each column: arrays of
    nonnegative integers below 2**63, and, for a last float64 column,
    finite nonzero values, which are written as ``repr`` writes them.
    """
    tables = _tables()
    blocks = [header + "\n"]
    for lo in range(0, rows, _BLOCK):
        blocks.append(_lines(columns(lo, min(lo + _BLOCK, rows)), tables))
    return "".join(blocks)


# the zero bytes before each block of lines, so that every window with a digit
# of a run starts in the buffer, and the bytes of text per block
_PAD, _READ = 7, 1 << 18
# per r, the digit bits of the top r bytes of a window; the powers of two; per
# count f of fraction digits, the largest whole part that keeps w below 10**19
_KEEP = np.array([0] + [(2**64 - 2 ** (64 - 8 * r)) & 0x0F0F0F0F0F0F0F0F for r in range(1, 9)], _U)
_POW2 = np.array([2**i for i in range(64)], _U)
_WHOLE = np.array([(10**19 - 1) // 10**f for f in range(21)], _U)
_Q_MIN, _Q_MAX = -342, 308
ENTRY = np.dtype([("k", np.int64), ("j", np.int64), ("v", np.float64)])  # a grid table's rows


@lru_cache(maxsize=1)
def _powers() -> tuple[np.ndarray, ...]:
    """5**q for q in [_Q_MIN, _Q_MAX] as in fast_float's table, built on the first read: cut to
    128 bits (a reciprocal rounded up first), kept as high words and 32-bit limbs of both words."""
    table = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        p = 5 ** abs(q)
        if q < 0:
            p = (1 << (p.bit_length() + 127 if q >= -27 else 2 * p.bit_length() + 128)) // p + 1
        table.append(p >> max(p.bit_length() - 128, 0) << max(128 - p.bit_length(), 0))
    hi, lo = (np.array([p >> shift & (2**64 - 1) for p in table], _U) for shift in (64, 0))
    return hi, hi & _M32, hi >> _S32, lo & _M32, lo >> _S32


def _eisel_lemire(w, q):
    """The bits of the double nearest w 10**q, for each w < 2**64, and the lanes it decides.

    w at its top bit times 5**q's high word gives the significand and a
    round bit, plus the low word's product where the 9 bits below are all
    ones; ties go to even for q in [-4, 23], the only q where they occur.
    Zero, subnormal and overflowing results and q off the table are left."""
    hi_t, h0, h1, l0, l1 = _powers()
    at = np.clip(q - _Q_MIN, 0, _Q_MAX - _Q_MIN)
    lz = 64 - np.searchsorted(_POW2, w, side="right")
    w = w << lz.astype(_U)
    w0, w1 = w & _M32, w >> _S32
    hi, lo = _mulhi(w0, w1, h0.take(at), h1.take(at)), w * hi_t.take(at)
    more = np.flatnonzero(hi & _U(0x1FF) == _U(0x1FF))
    low = _mulhi(w0[more], w1[more], l0.take(at[more]), l1.take(at[more]))
    lo[more] += low
    hi[more] += lo[more] < low
    shift = (hi >> _S63) + _U(9)
    mant = hi >> shift
    mant -= (lo <= _U(1)) & (q >= -4) & (q <= 23) & (mant & _U(3) == _U(1)) & (mant << shift == hi)
    mant = (mant + (mant & _U(1))) >> _U(1)
    carry = mant >> _U(53)
    power2 = ((217_706 * q) >> 16) + 1077 + (shift + carry).astype(np.int64) - lz
    decided = (power2 > 0) & (power2 < 2047) & (at == q - _Q_MIN) & (w != _U(0))
    return (power2.astype(_U) << _U(52)) | ((mant >> carry) & _U(2**52 - 1)), decided


def _fold(u, runs):
    """Per digit run (end, length), the number it spells and whether that is exact.

    A run is read backwards from up to 3 windows of 8 bytes with the bytes outside it cleared; it
    is exact when they cover it and the third holds less than 1000, so that it is below 2**64."""
    counts = [min(3, max(1, -(-int(length.max()) // 8))) for _, length in runs]
    windows = ((np.maximum(end - 8 * i - 8, 0), length - 8 * i)  # a window of no digit may start anywhere
               for (end, length), n in zip(runs, counts) for i in range(n))
    x = np.empty((sum(counts), len(runs[0][0])), _U)
    for row, (start, digits) in enumerate(windows):
        x[row] = u[start] & _KEEP.take(digits, mode="clip")
    # Lemire's fold of 8 digits, in place: pairs, then quads, then all 8
    np.right_shift(np.multiply(x, _U(10 * 2**8 + 1), out=x), _U(8), out=x)
    np.right_shift(np.multiply(x & _U(0x00FF00FF00FF00FF), _U(100 * 2**16 + 1), out=x), _U(16), out=x)
    np.right_shift(np.multiply(x & _U(0x0000FFFF0000FFFF), _U(10**4 * 2**32 + 1), out=x), _S32, out=x)
    return [((x[e - n : e] * _POW10[: 8 * n : 8, None]).sum(axis=0),
             (length <= 8 * n) & (x[e - 1] < _U(1000 if n == 3 else 10**8)))
            for (_, length), n, e in zip(runs, counts, np.cumsum(counts))]


def _runs(buf, lo: int, hi: int):
    """The digit runs (end, length) k, j, whole, fraction and exponent of buf[lo:hi], and signs.

    None if a line is not, in the order of its non-digits, a tab, a tab, the value's own ("-",
    ".", "e" and a sign, each optional), a newline."""
    nd = np.flatnonzero(buf[lo:hi] - np.uint8(48) > 9) + lo
    c = buf[nd]
    si = np.flatnonzero(c < 11)
    i1, i2, i3 = si[0::3], si[1::3], si[2::3]
    if not (buf[hi - 1] == 10 and c[si].tobytes() == b"\t\t\n" * (len(si) // 3) and i1[0] == 0
            and (i2 - i1 == 1).all() and (i1[1:] - i3[:-1] == 1).all()):
        return None
    t1, t2, nl = nd[i1], nd[i2], nd[i3]
    neg = buf[t2 + 1] == 45
    at = i2 + 1 + neg
    has_dot, dot = c[at] == 46, nd[at]
    at += has_dot
    has_e, e = c[at] == 101, nd[at]
    sign = buf.take(e + 1, mode="clip")
    mant_end = np.where(has_e, e, nl)
    whole_end = np.where(has_dot, dot, mant_end)
    k, j, whole = t1 - np.concatenate(([lo], nl[:-1] + 1)), t2 - t1 - 1, whole_end - t2 - 1 - neg
    frac, exp = has_dot * (mant_end - dot - 1), has_e * (nl - e - 2)
    ok = (i3 == at + 2 * has_e) & (k >= 1) & (k <= 18) & (j >= 1) & (j <= 18) & (whole >= 1)
    ok &= ((frac >= 1) | ~has_dot) & ((exp >= 1) & ((sign == 43) | (sign == 45)) | ~has_e)
    runs = [(t1, k), (t2, j), (whole_end, whole), (mant_end, frac), (nl, exp)]
    return (runs, neg, sign == 45) if ok.all() else None


def _read_block(buf, u, lo: int, hi: int):
    """k, j, digits w, exponent q (exact where ``exact``), sign and bytes [start, end) of each value.

    Each step is a function, so that its temporaries are gone before the next one starts."""
    if (lines := _runs(buf, lo, hi)) is None:
        return None
    runs, neg, negexp = lines
    (k, _), (j, _), (whole, whole_ok), (frac, frac_ok), (exp, exp_ok) = _fold(u, runs)
    places = runs[3][1]
    w = whole * _POW10.take(np.minimum(places, 19)) + frac
    q = np.where(negexp, -1, 1) * exp.view(np.int64) - places
    exact = whole_ok & frac_ok & exp_ok & (exp < _U(10**4)) & (whole <= _WHOLE.take(np.minimum(places, 20)))
    return k, j, w, q, exact, neg, runs[2][0] - runs[2][1] - neg, runs[4][0]


def load_table(text: str, start: int = 0) -> np.ndarray | None:
    """The rows (k, j, v) of the grid lines in ``text[start:]``, or None for text of another form.

    The inverse of ``dump_table`` for a grid body: each line must be
    ``[0-9]{1,18}\\t[0-9]{1,18}\\t-?[0-9]+(\\.[0-9]+)?(e[-+][0-9]+)?\\n``, as every
    ``repr`` of a float is, the last line's newline optional, and is read as ``int()``
    and ``float()`` read it.
    """
    if not text.isascii():
        return None
    # one table per block, sized by the block's own scan, joined once at the end
    tables, lo = [np.empty(0, ENTRY)], start
    while lo < len(text):
        hi = text.find("\n", lo + _READ) + 1 or len(text)
        # the last line is read as if it ended in a newline, as the line reader reads it
        chunk = text[lo:hi].encode("ascii") + b"\n" * (text[hi - 1] != "\n")
        buf = np.frombuffer(b"\0" * _PAD + chunk, np.uint8)
        u = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # the 8 bytes at each offset
        if (block := _read_block(buf, u, _PAD, len(buf))) is None:
            return None
        k, j, w, q, exact, neg, starts, ends = block
        bits, decided = _eisel_lemire(w, q)
        rows = np.empty(len(k), ENTRY)
        rows["k"], rows["j"], rows["v"] = k, j, (bits | (neg.astype(_U) << _S63)).view(np.float64)
        for i in np.flatnonzero(~(decided & exact)).tolist():
            rows["v"][i] = float(buf[starts[i] : ends[i]].tobytes())
        tables.append(rows)
        lo = hi
    return np.concatenate(tables)


def write_text(path, text: str) -> None:
    """Replace the file at ``path`` with the ASCII ``text``, whole or not at all.

    The text goes to a new file beside the target, ``.<name>.<12 hex>.tmp``,
    which is renamed over the target once written; on any error it is
    removed and the target keeps its old content.  The target is where
    ``open(path, "w")`` would write, through symbolic links, and gets the
    mode ``open`` would leave: 0o666 less the umask when new, its old mode
    otherwise.  A hard link at the target is replaced, not written through.
    """
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # named by the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
