import math

import numpy as np
import pytest

from dict_oracle import scatter
from hcderiv.lowerbound import build_witness_pair, witness_lp_distance
from hcderiv.noise import NoiseSpec, lp_norm, perturb
from hcderiv.spectral import ClassParams, CoeffGrid


def test_lp_norm_examples():
    g = CoeffGrid(scatter({(0, 0): -3.0, (1, 1): 4.0}))
    assert lp_norm(g, 1) == 7.0
    assert lp_norm(g, math.inf) == 4.0
    assert lp_norm(g, 2) == 5.0


def test_lp_norm_validation():
    with pytest.raises(ValueError):
        lp_norm(CoeffGrid(), 0.5)
    assert lp_norm(CoeffGrid(), 3) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p=2, delta=1.5, mode="random-sphere", seed=0, support=4)
    with pytest.raises(ValueError):
        NoiseSpec(p=0.5, delta=0.1, mode="random-sphere", seed=0, support=4)
    with pytest.raises(ValueError):
        NoiseSpec(p=2, delta=0.1, mode="bogus", seed=0, support=4)
    with pytest.raises(ValueError):
        NoiseSpec(p=2, delta=0.1, mode="random-sphere", seed=0, support=-1)
    with pytest.raises(ValueError):
        NoiseSpec(p=2, delta=0.1, mode="random-sphere", seed=2**64, support=4)


def test_single_coefficient_mode():
    spec = NoiseSpec(p=2, delta=0.01, mode="single-coefficient", seed=5, support=10)
    c = CoeffGrid(scatter({(1, 1): 1.0}))
    c_delta, xi = perturb(c, spec)
    assert len(xi) == 1
    for p in (1, 2, 7, math.inf):
        assert lp_norm(xi, p) == pytest.approx(0.01, rel=1e-15)
    again = perturb(c, spec)
    assert again[0] == c_delta and again[1] == xi


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_sphere_norm_is_exactly_delta(p):
    spec = NoiseSpec(p=p, delta=1e-3, mode="random-sphere", seed=42, support=20)
    _, xi = perturb(CoeffGrid(), spec)
    assert len(xi) == 21 * 21
    assert lp_norm(xi, p) == pytest.approx(1e-3, rel=1e-15)


def test_sphere_determinism_and_seed_sensitivity():
    c = CoeffGrid(scatter({(0, 0): 1.0}))
    spec = NoiseSpec(p=2, delta=1e-2, mode="random-sphere", seed=9, support=5)
    a = perturb(c, spec)
    b = perturb(c, spec)
    assert a[0] == b[0] and a[1] == b[1]
    other = perturb(c, NoiseSpec(p=2, delta=1e-2, mode="random-sphere", seed=10, support=5))
    assert other[1] != a[1]


def test_sphere_homogeneity_in_delta():
    base = NoiseSpec(p=2, delta=0.25, mode="random-sphere", seed=3, support=6)
    doubled = NoiseSpec(p=2, delta=0.5, mode="random-sphere", seed=3, support=6)
    _, xi1 = perturb(CoeffGrid(), base)
    _, xi2 = perturb(CoeffGrid(), doubled)
    assert xi2 == xi1.scale(2.0)  # scaling by 2 is exact
    tripled = NoiseSpec(p=2, delta=0.75, mode="random-sphere", seed=3, support=6)
    _, xi3 = perturb(CoeffGrid(), tripled)
    expected = xi1.scale(3.0).array
    for idx in zip(*np.nonzero(expected)):
        assert xi3.array[idx] == pytest.approx(expected[idx], rel=1e-15)


def test_budget_all_modes():
    c = CoeffGrid(scatter({(2, 2): 0.5, (3, 1): -0.25}))
    for mode in ("random-sphere", "single-coefficient"):
        for p in (1, 2, math.inf):
            spec = NoiseSpec(p=p, delta=0.05, mode=mode, seed=1, support=8)
            _, xi = perturb(c, spec)
            assert lp_norm(xi, p) <= 0.05 * (1 + 1e-12)


def test_entrywise_reconstruction():
    c = CoeffGrid(scatter({(0, 0): 0.7, (1, 3): -0.2, (4, 4): 1e-9}))
    spec = NoiseSpec(p=2, delta=0.01, mode="random-sphere", seed=77, support=6)
    c_delta, xi = perturb(c, spec)
    rows, cols = np.maximum(c.array.shape, xi.array.shape)
    cd, x, c0 = (np.pad(g.array, [(0, rows - g.array.shape[0]), (0, cols - g.array.shape[1])])
                 for g in (c_delta, xi, c))
    # reconstruction is exact up to one rounding of the stored sum
    assert np.all(np.abs((cd + x) - c0) <= 4e-16 * (np.abs(c0) + np.abs(x)))


def test_witness_mode_requires_pair():
    spec = NoiseSpec(p=2, delta=0.5, mode="adversarial-witness", seed=0, support=4)
    with pytest.raises(ValueError):
        perturb(CoeffGrid(), spec)


def test_witness_mode_uses_pair_difference():
    cls = ClassParams(2, 3)
    w = build_witness_pair(8, 1, 1, cls)
    dist = witness_lp_distance(w, 2)
    spec = NoiseSpec(p=2, delta=min(2 * dist, 0.99), mode="adversarial-witness", seed=0, support=4)
    c_delta, xi = perturb(w.f1, spec, witness=w)
    assert xi == w.f1 - w.f2
    assert c_delta == w.f2


def test_witness_mode_enforces_budget():
    cls = ClassParams(2, 3)
    w = build_witness_pair(8, 1, 1, cls)
    tiny = witness_lp_distance(w, 2) / 10
    spec = NoiseSpec(p=2, delta=tiny, mode="adversarial-witness", seed=0, support=4)
    with pytest.raises(ValueError):
        perturb(w.f1, spec, witness=w)


@pytest.mark.filterwarnings("error")
def test_sphere_norm_is_delta_at_large_p():
    # the plain sum of |g|**1500 overflows; the draw is normalized over rescaled values
    spec = NoiseSpec(p=1500.0, delta=1e-3, mode="random-sphere", seed=1, support=20)
    _, xi = perturb(CoeffGrid(), spec)
    assert len(xi) == 21 * 21
    assert lp_norm(xi, 1500.0) == pytest.approx(1e-3, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("seed", range(4))
def test_sphere_draws_keep_the_plain_formula_bits(p, seed):
    # at p = 2 the root stays ** 0.5: np.sqrt of the same sum differs in the last bit
    g = np.random.Generator(np.random.Philox(key=seed)).standard_normal(21 * 21)
    norm = np.max(np.abs(g)) if math.isinf(p) else float(np.sum(np.abs(g) ** p) ** (1.0 / p))
    expected = (g / norm * 1e-3).reshape(21, 21)
    _, xi = perturb(CoeffGrid(), NoiseSpec(p=p, delta=1e-3, mode="random-sphere", seed=seed, support=20))
    assert xi.array.shape == expected.shape
    assert xi.array.tobytes() == expected.tobytes()
