"""The dict-based reference implementation that the dense array core replaced.

Grids here are tuple-keyed dicts, the derivative is a scalar loop per
column and row, crosses enumerate their index tuples from one scalar
row limit per k (``cross_rows``), and noise and
synthetic functions are filled entry by entry; ``cross_pairs`` lists the
pairs of an array cross from its row limits, and ``witness_band`` picks
a witness band slot by slot from a list.  The property tests in
``test_dense_oracle.py`` assert that the array code in ``hcderiv``
reproduces these results exactly, bit for bit.  ``scatter`` turns
entries into the 2-D array that ``hcderiv.spectral.CoeffGrid`` is built
from, for the tests that write grids down entry by entry.

``select_parameters`` and ``gamma_intervals`` at the end are the
parameter rule as it was written before it took one path: one branch
per case and a hand-written region list per order pattern.
``test_truncation.py`` asserts that the library gives the same
selections and regions, bit for bit.  ``exact_derivative`` gives the
closed-form mixed derivatives of the registry functions, which the
method's exactness tests compare against.

``exact_form_table`` and ``line_table`` are the two grid text readers as
they were when each found the header by a rule of its own:
``text.load_table`` read only text in dump_grid's exact form, and the
line reader any text, skipping blank and ``#`` lines above the header.
``test_spectral.py`` asserts that ``parse_grid`` gives the same grid, or
the same error, as they do for every text.

``c_tilde``, ``band_value``, ``bound_constant``, ``lower_bound`` and
``min_N_for_delta`` are the witness constants as they were when each
site caught its own range errors and wrote its own refusal line, and
``select_parameters`` takes n in the same form.  ``test_lowerbound.py``
asserts that the library gives the same bits, or the same refusal line,
as they do.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice
from typing import Container, Iterable, Mapping

import numpy as np

from hcderiv.cross import CROSS_HEADER_PREFIX, floor_guarded
from hcderiv.harness import _monomial_eval
from hcderiv.lowerbound import WitnessInfeasibleError
from hcderiv.spectral import GRID_HEADER, ClassParams
from hcderiv.text import ENTRY, load_table
from hcderiv.truncation import METRIC_L2, GammaRegion, ParameterSelection, SelectionInput

Index = tuple[int, int]


def _w(k: int) -> float:
    return math.sqrt(k + 0.5)


class CoeffGrid:
    """Sparse grid: a dict from (k, j) to nonzero finite floats."""

    def __init__(self, entries: Mapping[Index, float] | Iterable[tuple[Index, float]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[Index, float] = {}
        for (k, j), value in items:
            if k != int(k) or j != int(j):
                raise ValueError(f"indices must be integers, got {(k, j)!r}")
            k, j = int(k), int(j)
            if k < 0 or j < 0:
                raise ValueError(f"indices must be non-negative, got {(k, j)}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"coefficient at {(k, j)} is not finite: {value!r}")
            if (k, j) in store:
                raise ValueError(f"duplicate index {(k, j)}")
            if value != 0.0:
                store[(k, j)] = value
        self._entries = store

    def items(self) -> list[tuple[Index, float]]:
        return sorted(self._entries.items())

    def to_dict(self) -> dict[Index, float]:
        return dict(self._entries)

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.items()], dtype=float)

    def max_index(self) -> Index | None:
        if not self._entries:
            return None
        return max(k for k, _ in self._entries), max(j for _, j in self._entries)

    def scale(self, factor: float) -> "CoeffGrid":
        return CoeffGrid({idx: factor * v for idx, v in self._entries.items()})

    def __add__(self, other: "CoeffGrid") -> "CoeffGrid":
        merged = dict(self._entries)
        for idx, v in other._entries.items():
            merged[idx] = merged.get(idx, 0.0) + v
        return CoeffGrid(merged)

    def __sub__(self, other: "CoeffGrid") -> "CoeffGrid":
        merged = dict(self._entries)
        for idx, v in other._entries.items():
            merged[idx] = merged.get(idx, 0.0) - v
        return CoeffGrid(merged)

    def __len__(self) -> int:
        return len(self._entries)


def parseval_l2_norm(c: CoeffGrid) -> float:
    if len(c) == 0:
        return 0.0
    values = c.values()
    with np.errstate(over="ignore"):
        total = np.sum(values**2)
        if np.finfo(float).tiny <= total < np.inf:
            return float(np.sqrt(total))
        # a sum outside the normal range: sum the squares of the values over the largest
        largest = np.max(np.abs(values))
        return float(largest * np.sqrt(np.sum((values / largest) ** 2)))


def dump_grid(c: CoeffGrid) -> str:
    lines = [GRID_HEADER]
    for (k, j), v in c.items():
        lines.append(f"{k}\t{j}\t{v!r}")
    return "\n".join(lines) + "\n"


def scatter(entries: Mapping[Index, float]) -> np.ndarray:
    """Entries (k, j) -> value as a 2-D array just large enough to hold them."""
    if not entries:
        return np.zeros((0, 0))
    out = np.zeros((max(k for k, _ in entries) + 1, max(j for _, j in entries) + 1))
    for (k, j), value in entries.items():
        out[k, j] = value
    return out


# ---------------------------------------------------------------------------
# one-dimensional scalar kernels


def eval_phi(k: int, t: float) -> float:
    if k == 0:
        return _w(0)
    p_prev, p = 1.0, t
    for i in range(1, k):
        p_prev, p = p, ((2 * i + 1) * t * p - i * p_prev) / (i + 1)
    return _w(k) * p


def muller_differentiate(a: dict[int, float]) -> dict[int, float]:
    if not a:
        return {}
    kmax = max(a)
    if kmax == 0:
        return {}
    scaled = np.zeros(kmax + 1)
    for k, v in a.items():
        scaled[k] = _w(k) * v
    out: dict[int, float] = {}
    tail_even = 0.0
    tail_odd = 0.0
    for l in range(kmax - 1, -1, -1):
        k = l + 1
        if k % 2 == 0:
            tail_even += scaled[k]
        else:
            tail_odd += scaled[k]
        tail = tail_odd if l % 2 == 0 else tail_even
        if tail != 0.0:
            out[l] = float(2.0 * _w(l) * tail)
    return dict(sorted(out.items()))


def muller_differentiate_iterated(a: dict[int, float], r: int) -> dict[int, float]:
    for _ in range(r):
        a = muller_differentiate(a)
    return a


def clenshaw_eval(a: dict[int, float], t: float) -> float:
    if not a:
        return 0.0
    n = max(a)
    if n == 0:
        return a.get(0, 0.0) * _w(0)
    dense = np.zeros(n + 1)
    for k, v in a.items():
        dense[k] = v

    def alpha(k: int) -> float:
        return (2 * k + 1) / (k + 1) * _w(k + 1) / _w(k)

    def c(k: int) -> float:
        return k / (k + 1) * _w(k + 1) / _w(k - 1)

    b1 = 0.0
    b2 = 0.0
    for k in range(n, 0, -1):
        b1, b2 = dense[k] + alpha(k) * t * b1 - c(k + 1) * b2, b1
    return float((dense[0] - c(1) * b2) * _w(0) + b1 * _w(1) * t)


# ---------------------------------------------------------------------------
# grid operations


def _axis_pass(entries: dict[Index, float], axis: int, times: int) -> dict[Index, float]:
    groups: dict[int, dict[int, float]] = {}
    for (k, j), v in entries.items():
        fixed, moving = (j, k) if axis == 0 else (k, j)
        groups.setdefault(fixed, {})[moving] = v
    out: dict[Index, float] = {}
    for fixed in sorted(groups):
        for moving, v in muller_differentiate_iterated(groups[fixed], times).items():
            out[(moving, fixed) if axis == 0 else (fixed, moving)] = v
    return out


def mixed_derivative_coeffs(c: CoeffGrid, r1: int, r2: int) -> CoeffGrid:
    return CoeffGrid(_axis_pass(_axis_pass(c.to_dict(), 0, r1), 1, r2))


def synth_eval(c: CoeffGrid, t: float, tau: float) -> float:
    if len(c) == 0:
        return 0.0
    rows: dict[int, dict[int, float]] = {}
    for (k, j), v in c.items():
        rows.setdefault(k, {})[j] = v
    outer = {k: clenshaw_eval(row, tau) for k, row in rows.items()}
    return clenshaw_eval(outer, t)


def cross_rows(n: float, gamma: float, r1: int, r2: int) -> list[int]:
    """The cross's row limits jmax[k] for k from r1 to kmax, one scalar expression per row."""
    kmax = floor_guarded(n / r2**gamma)
    inv_gamma = 1.0 / gamma
    return [floor_guarded((n / k) ** inv_gamma) for k in range(r1, kmax + 1)]


def build_cross(n: float, gamma: float, r1: int, r2: int) -> tuple[Index, ...]:
    """The cross's index pairs, enumerated row by row."""
    rows = cross_rows(n, gamma, r1, r2)
    return tuple((k, j) for k, top in enumerate(rows, r1) for j in range(r2, top + 1))


def dump_cross(n: float, gamma: float, r1: int, r2: int) -> str:
    lines = [f"{CROSS_HEADER_PREFIX} n={float(n)!r} gamma={float(gamma)!r} r1={r1} r2={r2}"]
    lines.extend(f"{k}\t{j}" for k, j in build_cross(n, gamma, r1, r2))
    return "\n".join(lines) + "\n"


def cross_pairs(cross) -> tuple[Index, ...]:
    """The pairs of a ``hcderiv.cross.HyperbolicCross``, sorted by (k, j)."""
    return tuple(
        (k, j) for k, top in enumerate(cross.jmax.tolist()) for j in range(cross.r2, top + 1)
    )


def witness_band(N: int, r1: int, r2: int, excluded: Container[Index] = frozenset(),
                 parity: str = "any") -> tuple[int, ...]:
    """The k of a witness band: N slots of [N + r1, 3N + r1] whose (k, r2) is not excluded."""
    band = range(N + r1, 3 * N + r1 + 1)
    admissible = [k for k in band if (k, r2) not in excluded]
    if len(admissible) < N:
        raise WitnessInfeasibleError(
            f"only {len(admissible)} admissible band indices for N={N} "
            f"(band [{N + r1}, {3 * N + r1}], {len(band) - len(admissible)} excluded)"
        )
    if parity == "any":
        return tuple(admissible[:N])
    want = 0 if parity == "even" else 1
    preferred = [k for k in admissible if k % 2 == want]
    rest = [k for k in admissible if k % 2 != want]
    return tuple(sorted((preferred + rest)[:N]))


def restrict_to_cross(c: CoeffGrid, members: frozenset[Index]) -> CoeffGrid:
    return CoeffGrid({idx: v for idx, v in c.items() if idx in members})


# ---------------------------------------------------------------------------
# noise and synthetic functions


def sphere_noise(p: float, delta: float, seed: int, support: int) -> CoeffGrid:
    side = support + 1
    g = np.random.Generator(np.random.Philox(key=seed)).standard_normal(side * side)
    if math.isinf(p):
        norm = np.max(np.abs(g))
    else:
        norm = float(np.sum(np.abs(g) ** p) ** (1.0 / p))
    unit = g / norm
    entries = {}
    pos = 0
    for k in range(side):
        for j in range(side):
            entries[(k, j)] = delta * unit[pos]
            pos += 1
    return CoeffGrid(entries)


def synthesize_class_function(s: float, mu: float, epsilon: float, kmax: int, signs: str,
                              seed: int) -> CoeffGrid:
    rng = np.random.Generator(np.random.Philox(key=seed))
    kk = np.maximum(1, np.arange(kmax + 1)).astype(float)
    mags = np.outer(kk ** (-(mu + 1.0 / s + epsilon)), kk ** (-(mu + 1.0 / s + epsilon)))
    if signs == "random":
        mags = mags * (rng.integers(0, 2, size=mags.shape) * 2 - 1)
    weights = np.outer(kk, kk) ** (s * mu)
    norm = float(np.sum(weights * np.abs(mags) ** s) ** (1.0 / s))
    mags /= norm
    side = kmax + 1
    return CoeffGrid({(k, j): mags[k, j] for k in range(side) for j in range(side)})


def _point(g: float, log_exponent: float) -> GammaRegion:
    return GammaRegion(g, g, False, False, log_exponent)


def _interval(lo: float, hi: float, lo_open: bool, log_exponent: float = 0.0) -> GammaRegion:
    return GammaRegion(lo, hi, lo_open, True, log_exponent)


def gamma_intervals(si: SelectionInput) -> list[GammaRegion]:
    """Admissible gamma regions for (metric, r1, r2), ordered from 1 upward.

    For equal orders only gamma = 1 is covered and the rate carries the
    main log factor.  For distinct orders the regions tile [1, top] with
    clean open intervals separated by exceptional points.
    """
    si.check_admissible()
    s = si.cls.s
    mu = si.cls.mu
    a = mu - 2 * si.r1 + 1.0 / s
    b = mu - 2 * si.r2 + 1.0 / s
    if si.metric == METRIC_L2:
        if si.r1 == si.r2:
            return [_point(1.0, 1.5 - 1.0 / s)]
        g1 = (b - 0.5) / (a + 0.5)
        g2 = (b + 0.5) / (a + 0.5)
        g3 = (b - 0.5) / (a - 0.5)
        return [
            _interval(1.0, g1, lo_open=False),
            _point(g1, 0.5),
            _interval(g1, g2, lo_open=True),
            _point(g2, 1.0 - 1.0 / s),
            _interval(g2, g3, lo_open=True),
            _point(g3, 0.5),
        ]
    if si.r1 == si.r2:
        return [_point(1.0, 2.0 - 1.0 / s)]
    if si.r1 == si.r2 + 1:
        e1 = (a + 2.5) / (a + 0.5)
        e2 = (a + 0.5) / (a - 1.5)
        return [
            _point(1.0, 1.0),
            _interval(1.0, e1, lo_open=True),
            _point(e1, 1.0 - 1.0 / s),
            _interval(e1, e2, lo_open=True),
            _point(e2, 1.0),
        ]
    h1 = (b - 1.5) / (a + 0.5)
    h2 = (b + 0.5) / (a + 0.5)
    h3 = (b - 1.5) / (a - 1.5)
    return [
        _interval(1.0, h1, lo_open=False),
        _point(h1, 1.0),
        _interval(h1, h2, lo_open=True),
        _point(h2, 1.0 - 1.0 / s),
        _interval(h2, h3, lo_open=True),
        _point(h3, 1.0),
    ]


def _clamped_log(delta: float) -> float:
    return max(math.log(1.0 / delta), 1.0)


def _n_from_delta(delta: float, q: float, log_exponent: float) -> float:
    try:
        return (delta / _clamped_log(delta) ** log_exponent) ** (-1.0 / q)
    except ZeroDivisionError:  # 1 / delta overflows, so the log factor reads 0 or inf
        log_n = log_exponent * math.log(max(-math.log(delta), 1.0)) - math.log(delta)
        return math.exp(log_n / q)


def select_parameters(si: SelectionInput, forced_gamma: float | None = None) -> ParameterSelection:
    """Choose (n, gamma) from the noise level.

    Without a forced gamma: equal orders use gamma = 1 with the
    log-corrected n; distinct orders use n = delta^(-1/(mu - 1/p + 1/s))
    and the midpoint of the leftmost clean gamma interval.  A forced
    gamma keeps the caller's value and, when it sits on an exceptional
    point, applies that point's logarithmic n correction.  Where 1 / delta
    overflows, n is taken in log form with ln(1/delta) read as -ln(delta).
    """
    si.check_admissible()
    q = si.cls.mu - _inv(si.p) + 1.0 / si.cls.s
    equal = si.r1 == si.r2
    if equal:
        base_label = "equal-orders"
    elif si.metric == METRIC_L2:
        base_label = "l2-unequal-orders"
    elif si.r1 == si.r2 + 1:
        base_label = "c-adjacent-orders"
    else:
        base_label = "c-separated-orders"

    if forced_gamma is None:
        if equal:
            n = _n_from_delta(si.delta, q, _inv(si.p) - 1.0 / si.cls.s)
            return ParameterSelection(n=n, gamma=1.0, case_label=base_label)
        regions = gamma_intervals(si)
        clean = next(r for r in regions if not r.is_point and r.log_exponent == 0.0)
        gamma = 0.5 * (clean.lo + clean.hi)
        n = _n_from_delta(si.delta, q, 0.0)
        return ParameterSelection(n=n, gamma=gamma, case_label=base_label)

    if forced_gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {forced_gamma}")
    if equal:
        n = _n_from_delta(si.delta, q, _inv(si.p) - 1.0 / si.cls.s)
        return ParameterSelection(n=n, gamma=float(forced_gamma), case_label=base_label + "-forced")
    regions = gamma_intervals(si)
    hit = next((r for r in regions if r.is_point and r.contains(forced_gamma)), None)
    if hit is not None and hit.log_exponent != 0.0:
        n = _n_from_delta(si.delta, q, hit.log_exponent)
        return ParameterSelection(
            n=n, gamma=float(forced_gamma), case_label=base_label + "-exceptional"
        )
    n = _n_from_delta(si.delta, q, 0.0)
    return ParameterSelection(n=n, gamma=float(forced_gamma), case_label=base_label + "-forced")


def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


# ---------------------------------------------------------------------------
# closed-form mixed derivatives of the registry functions

_MONOMIALS = {
    "one": {(0, 0): 1.0},
    "poly": {(4, 3): 1.0, (2, 1): 2.0, (1, 2): 1.0},
}


def _falling(a: int, r: int) -> float:
    out = 1.0
    for i in range(r):
        out *= a - i
    return out


def exact_derivative(function_id: str, r1: int, r2: int):
    """f^(r1, r2) of the registry function ``function_id``, as an array function of (t, u).

    The polynomials are differentiated monomial by monomial; exp(t + u) / 4
    is its own derivative.
    """
    if function_id == "exp-sum":
        return lambda t, u: np.exp(t + u) / 4.0
    monomials = {
        (a - r1, b - r2): coef * _falling(a, r1) * _falling(b, r2)
        for (a, b), coef in _MONOMIALS[function_id].items()
        if a >= r1 and b >= r2
    }
    return partial(_monomial_eval, monomials)


# ---------------------------------------------------------------------------
# the grid text reader with two header rules


def exact_form_table(text: str) -> np.ndarray | None:
    """The entries of text in dump_grid's form (``#`` comment lines, the header line and the
    lines ``text.load_table`` reads), read by ``load_table``, or None for other text."""
    head = GRID_HEADER + "\n"
    at = 0 if text.startswith(head) else text.find("\n" + head) + 1
    comments = text[:at].split("\n")[:-1]
    if not text.startswith(head, at) or text[:at].splitlines() != comments or any(
        not line.startswith("#") or line.strip() == GRID_HEADER for line in comments
    ):
        return None
    return load_table(text, at + len(head))


def _grid_entry(line: str) -> tuple[int, int, float]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"malformed grid line {line!r}")
    return int(parts[0]), int(parts[1]), float(parts[2])


def line_table(text: str) -> np.ndarray:
    """The entries of any text in the format, read line by line; non-ASCII text, which
    ``text.load_table`` leaves here, is an error naming its first non-ASCII character."""
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ValueError(f"grid text is not ASCII: {text[at]!r} at offset {at}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    # tolerate decoration comments (e.g. a manifest reference) above the header
    at = 0
    while at < len(lines) and lines[at].startswith("#") and lines[at].strip() != GRID_HEADER:
        at += 1
    del lines[:at]
    if not lines or lines[0].strip() != GRID_HEADER:
        raise ValueError(f"missing grid header {GRID_HEADER!r}")
    try:
        return np.fromiter(map(_grid_entry, islice(lines, 1, None)), ENTRY, len(lines) - 1)
    except OverflowError:
        raise ValueError("grid indices must fit in 64 bits") from None


# ---------------------------------------------------------------------------
# the witness constants, each with its own range check and refusal line


def c_tilde(cls: ClassParams) -> float:
    s, mu = cls.s, cls.mu
    try:
        c_tilde = (1.0 + 4.0 ** (s * mu)) ** (-1.0 / s)
    except OverflowError:
        c_tilde = 4.0**-mu * (1.0 + 4.0 ** -(s * mu)) ** (-1.0 / s)
    if c_tilde == 0.0:
        raise ValueError(f"c_tilde underflows to 0.0 at s={s!r}, mu={mu!r}")
    return c_tilde


def band_value(c_tilde: float, N: int, r2: int, cls: ClassParams) -> float:
    try:
        value = c_tilde * N ** (-(cls.mu + 1.0 / cls.s)) / r2**cls.mu
    except OverflowError:  # r2^mu is past the double range, so the value is below it
        value = 0.0
    if value == 0.0:
        raise ValueError(
            f"the witness band value underflows to 0.0 at N={N}, s={cls.s!r}, mu={cls.mu!r}"
        )
    return value


def _exp2(x: float) -> float:
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


def bound_constant(c_tilde: float, r2: int, mu: float, twos: float, m: int) -> float:
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


def lower_bound(
    metric: str, constant: float, extra: float, N: int, r1: int, r2: int, cls: ClassParams
) -> float:
    """constant * N^(-mu + 2 r1 - 1/s + extra), with the constant's and the bound's refusals."""
    where = f"at N={N}, r1={r1}, r2={r2}, s={cls.s!r}, mu={cls.mu!r}"
    if not 0.0 < constant < math.inf:
        past = "underflows to 0.0" if constant == 0.0 else "overflows"
        raise ValueError(f"the constant of metric {metric} {past} {where}")
    exponent = -cls.mu + 2 * r1 - 1.0 / cls.s + extra
    try:
        bound = constant * N**exponent
    except OverflowError:  # N^exponent is past the double range; the bound need not be
        bound = _exp2(math.log2(constant) + exponent * math.log2(N))
    if bound == 0.0:
        raise ValueError(
            f"the lower bound of metric {metric} underflows to 0.0 at N={N}, "
            f"s={cls.s!r}, mu={cls.mu!r}"
        )
    if bound == math.inf:
        raise ValueError(f"the lower bound of metric {metric} overflows {where}")
    return bound


def min_N_for_delta(delta: float, p: float, cls: ClassParams, r2: int) -> float:
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    q = cls.mu + 1.0 / cls.s - _inv(p)
    if not q > 0:  # the witness distance does not shrink as N grows
        raise ValueError(f"q = mu + 1/s - 1/p must be > 0, got {q!r} at p={p!r}, s={cls.s!r}")
    c = c_tilde(cls)
    exponent = -1.0 / q
    try:
        threshold = (r2**cls.mu * delta / c) ** exponent
    except OverflowError:  # r2^mu or the power is past the double range
        threshold = math.nan
    if not 0.0 < threshold < math.inf:  # in log form, where this form left the double range
        log_base = cls.mu * math.log2(r2) + math.log2(delta) - math.log2(c)
        threshold = _exp2(exponent * log_base)
    if threshold == math.inf:
        raise ValueError(
            f"the band-size threshold overflows at delta={delta!r}, p={p!r}, r2={r2}, "
            f"s={cls.s!r}, mu={cls.mu!r}"
        )
    return threshold
