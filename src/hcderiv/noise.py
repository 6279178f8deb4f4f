"""l_p-bounded coefficient perturbations.

The data model replaces exact coefficients c with perturbed values
c_delta = c - xi where the perturbation sequence xi has l_p norm at
most delta.  Three generators are provided: a random draw on the l_p
sphere of radius delta, a single +-delta spike, and the adversarial
witness-pair difference supplied by the lower-bound module.

Randomness comes from numpy's Philox counter-based 64-bit generator so
runs are reproducible; the algorithm id is recorded in experiment
metadata as ``RNG_ALGORITHM``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import CoeffGrid

__all__ = ["NoiseSpec", "RNG_ALGORITHM", "NOISE_MODES", "lp_norm", "perturb"]

RNG_ALGORITHM = "numpy-philox4x64"

NOISE_MODES = ("random-sphere", "single-coefficient", "adversarial-witness")


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation model: l_p budget delta on indices k, j <= support."""

    p: float
    delta: float
    mode: str
    seed: int
    support: int

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.support < 0:
            raise ValueError(f"support bound must be >= 0, got {self.support}")


def lp_norm(x: CoeffGrid, p: float) -> float:
    """(sum |x|^p)^(1/p), or max |x| for p = inf."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if x.max_index() is None:
        return 0.0
    vals = np.abs(x.values())
    if math.isinf(p):
        return float(np.max(vals))
    if p == 1:
        return float(np.sum(vals))
    if p == 2:
        return float(np.sqrt(np.sum(vals * vals)))
    return float(np.sum(vals**p) ** (1.0 / p))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _sphere_noise(spec: NoiseSpec) -> CoeffGrid:
    # i.i.d. standard normals over the support rectangle, scaled onto
    # the l_p sphere of radius delta; draw order is row-major in (k, j)
    side = spec.support + 1
    g = _rng(spec.seed).standard_normal(side * side)
    if math.isinf(spec.p):
        norm = np.max(np.abs(g))
    else:
        norm = float(np.sum(np.abs(g) ** spec.p) ** (1.0 / spec.p))
    g /= norm
    g *= spec.delta
    return CoeffGrid._adopt(g.reshape(side, side))


def _single_noise(spec: NoiseSpec) -> CoeffGrid:
    rng = _rng(spec.seed)
    k = int(rng.integers(0, spec.support + 1))
    j = int(rng.integers(0, spec.support + 1))
    sign = 1.0 if int(rng.integers(0, 2)) else -1.0
    xi = np.zeros((k + 1, j + 1))
    xi[k, j] = sign * spec.delta
    return CoeffGrid._adopt(xi)


def perturb(c: CoeffGrid, spec: NoiseSpec, witness=None) -> tuple[CoeffGrid, CoeffGrid]:
    """Return (c_delta, xi) with c_delta = c - xi stored entrywise.

    The adversarial-witness mode takes xi as the coefficient difference
    f1 - f2 of a witness pair built by the lower-bound module; the pair
    must be passed in and its difference must fit the delta budget.
    """
    if spec.mode == "random-sphere":
        xi = _sphere_noise(spec)
    elif spec.mode == "single-coefficient":
        xi = _single_noise(spec)
    else:
        if witness is None:
            raise ValueError("adversarial-witness mode requires a witness pair")
        xi = witness.f1 - witness.f2
        if lp_norm(xi, spec.p) > spec.delta * (1.0 + 1e-12):
            raise ValueError("witness difference exceeds the noise budget delta")
    return c - xi, xi
