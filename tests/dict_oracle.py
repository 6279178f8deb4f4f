"""The dict-based reference implementation that the dense array core replaced.

Grids here are tuple-keyed dicts, the derivative is a scalar loop per
column and row, crosses enumerate their index tuples, and noise and
synthetic functions are filled entry by entry.  The property tests in
``test_dense_oracle.py`` assert that the array code in ``hcderiv``
reproduces these results exactly, bit for bit.  ``scatter`` turns
entries into the 2-D array that ``hcderiv.spectral.CoeffGrid`` is built
from, for the tests that write grids down entry by entry.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from hcderiv.cross import CROSS_HEADER_PREFIX, floor_guarded
from hcderiv.spectral import GRID_HEADER

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
    return float(np.sqrt(np.sum(c.values() ** 2)))


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


def build_cross(n: float, gamma: float, r1: int, r2: int) -> tuple[Index, ...]:
    """The cross's index pairs, enumerated row by row."""
    indices: list[Index] = []
    kmax = floor_guarded(n / r2**gamma)
    inv_gamma = 1.0 / gamma
    for k in range(r1, kmax + 1):
        jmax = floor_guarded((n / k) ** inv_gamma)
        indices.extend((k, j) for j in range(r2, jmax + 1))
    return tuple(indices)


def dump_cross(n: float, gamma: float, r1: int, r2: int) -> str:
    lines = [f"{CROSS_HEADER_PREFIX} n={float(n)!r} gamma={float(gamma)!r} r1={r1} r2={r2}"]
    lines.extend(f"{k}\t{j}" for k, j in build_cross(n, gamma, r1, r2))
    return "\n".join(lines) + "\n"


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
