import math
import re

import numpy as np
import pytest

from dict_oracle import scatter
from hcderiv import quadrature
from hcderiv.legendre import eval_phi, phi_vandermonde
from hcderiv.quadrature import compute_coeff_grid, gauss_legendre_rule, l2_norm_quadrature
from hcderiv.spectral import CoeffGrid, parseval_l2_norm, synth_eval


def test_midpoint_rule():
    rule = gauss_legendre_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_two_point_rule():
    rule = gauss_legendre_rule(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-15)


def test_degree_eight_monomial():
    rule = gauss_legendre_rule(5)
    val = float(np.sum(rule.weights * rule.nodes**8))
    assert val == pytest.approx(2 / 9, abs=1e-14)


@pytest.mark.parametrize("m", range(1, 31))
def test_exactness_up_to_degree(m):
    rule = gauss_legendre_rule(m)
    for d in range(2 * m):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        val = float(np.sum(rule.weights * rule.nodes**d))
        assert abs(val - exact) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 3, 10, 33, 100, 511, 4096])
def test_rule_invariants(m):
    rule = gauss_legendre_rule(m)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-14
    assert np.all(rule.weights > 0)
    assert abs(float(np.sum(rule.weights)) - 2.0) < 1e-13
    assert np.all(np.abs(rule.nodes) < 1.0)


@pytest.mark.parametrize("m", [3, 10, 33])
def test_against_numpy_leggauss(m):
    rule = gauss_legendre_rule(m)
    x, w = np.polynomial.legendre.leggauss(m)
    np.testing.assert_allclose(rule.nodes, x, atol=1e-13)
    np.testing.assert_allclose(rule.weights, w, atol=1e-13)


def test_order_out_of_range():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)
    with pytest.raises(ValueError):
        gauss_legendre_rule(4097)


def test_constant_function_grid():
    grid = compute_coeff_grid(lambda t, u: 1.0 + 0 * t, 3)
    assert grid.array.shape == (1, 1)  # the support is {(0, 0)}
    assert grid.array[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_basis_element_grid():
    f = lambda t, u: eval_phi(5, t) * eval_phi(2, u)
    grid = compute_coeff_grid(np.vectorize(f), 6, m=16)
    assert grid.array[5, 2] == pytest.approx(1.0, rel=1e-12)
    others = grid.array.copy()
    others[5, 2] = 0.0
    assert np.max(np.abs(others)) <= 1e-12


def _simpson_weights(npts: int, h: float) -> np.ndarray:
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def test_monomial_grid_against_simpson_oracle():
    # independent oracle: composite tensor Simpson on a dense grid
    f = lambda t, u: t * t * u
    grid = compute_coeff_grid(f, 4, m=8)
    coeffs = np.pad(grid.array, [(0, 5 - grid.array.shape[0]), (0, 5 - grid.array.shape[1])])
    npts = 201
    pts = np.linspace(-1.0, 1.0, npts)
    w = _simpson_weights(npts, pts[1] - pts[0])
    t, u = np.meshgrid(pts, pts, indexing="ij")
    vals = f(t, u)
    for k in range(5):
        for j in range(5):
            phi_k = np.array([eval_phi(k, float(x)) for x in pts])
            phi_j = np.array([eval_phi(j, float(x)) for x in pts])
            oracle = float((w * phi_k) @ vals @ (w * phi_j))
            assert abs(coeffs[k, j] - oracle) < 1e-6


def test_aliasing_guard():
    with pytest.raises(ValueError):
        compute_coeff_grid(lambda t, u: t, 8, m=9)


def test_l2_norm_constant():
    assert l2_norm_quadrature(lambda t, u: 1.0 + 0 * t, 4) == pytest.approx(2.0, rel=1e-14)


def test_l2_norm_basis_element():
    f = lambda t, u: eval_phi(3, t) * eval_phi(7, u)
    assert l2_norm_quadrature(np.vectorize(f), 16) == pytest.approx(1.0, rel=1e-12)


def test_l2_norm_parseval_pair():
    f = lambda t, u: eval_phi(1, t) * eval_phi(1, u) + eval_phi(2, t) * eval_phi(2, u)
    assert l2_norm_quadrature(np.vectorize(f), 16) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_round_trip_recovery():
    rng = np.random.Generator(np.random.Philox(key=11))
    entries = {
        (int(k), int(j)): float(v)
        for k, j, v in zip(
            rng.integers(0, 31, 40), rng.integers(0, 31, 40), rng.standard_normal(40)
        )
    }
    original = CoeffGrid(scatter(entries))
    f = lambda t, u: synth_eval(original, t, u)
    recovered = compute_coeff_grid(f, 30, m=32)
    assert np.max(np.abs((recovered - original).array), initial=0.0) < 1e-10


def test_parseval_consistency():
    rng = np.random.Generator(np.random.Philox(key=13))
    entries = {
        (int(k), int(j)): float(v)
        for k, j, v in zip(
            rng.integers(0, 31, 25), rng.integers(0, 31, 25), rng.standard_normal(25)
        )
    }
    grid = CoeffGrid(scatter(entries))
    f = lambda t, u: synth_eval(grid, t, u)
    assert l2_norm_quadrature(f, 33) == pytest.approx(parseval_l2_norm(grid), rel=1e-10)


def test_scalar_only_callback_fallback():
    grid = compute_coeff_grid(lambda t, u: float(t) ** 2 * float(u) ** 0, 2, m=6)
    # <t^2, phi_0 phi_0> = (2/3) * 2 / 2 = 2/3
    assert grid.array[0, 0] == pytest.approx(2 / 3, rel=1e-13)


def _node_message(t, u, value):
    return re.escape(f"integrand is not finite at node (t, u) = {(float(t), float(u))}: {value!r}")


@pytest.mark.filterwarnings("error")
def test_non_finite_integrands_name_their_first_node():
    nodes = gauss_legendre_rule(14).nodes
    nan_at = lambda t, u: np.where(t > 0.9, np.nan, 1.0 + 0 * u)
    t = nodes[np.argmax(nodes > 0.9)]
    with pytest.raises(ValueError, match=_node_message(t, nodes[0], math.nan)):
        compute_coeff_grid(nan_at, 4)
    inf_at = lambda t, u: np.where(u < -0.5, -np.inf, t * u)
    with pytest.raises(ValueError, match=_node_message(nodes[0], nodes[0], -math.inf)):
        compute_coeff_grid(inf_at, 4)
    with pytest.raises(ValueError, match=_node_message(t, nodes[0], math.nan)):
        l2_norm_quadrature(nan_at, 14)
    scalar_inf = lambda t, u: math.inf if t == nodes[3] and u == nodes[5] else 1.0
    with pytest.raises(ValueError, match=_node_message(nodes[3], nodes[5], math.inf)):
        compute_coeff_grid(scalar_inf, 4)


def _cold_coeff_array(f, kmax, m):
    """The projection with a rule built for the call, cut by np.where."""
    rule = gauss_legendre_rule(m)
    t, u = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    v = phi_vandermonde(kmax, rule.nodes)
    c = v.T @ (np.outer(rule.weights, rule.weights) * f(t, u)) @ v
    cut = 1e-14 * max(1.0, float(np.max(np.abs(c))))
    return CoeffGrid(np.where(np.abs(c) > cut, c, 0.0)).array


def test_kept_rule_gives_the_grids_of_built_rules(monkeypatch):
    f = lambda t, u: np.exp(t - 2.0 * u) * np.cos(3.0 * t * u)
    expected = {m: _cold_coeff_array(f, 20, m) for m in (22, 31)}
    built = []
    monkeypatch.setattr(quadrature, "_KEPT_RULE", [None])
    monkeypatch.setattr(quadrature, "gauss_legendre_rule", lambda m: built.append(m) or gauss_legendre_rule(m))
    for m in (22, 22, 31, 31, 22, 31):
        grid = compute_coeff_grid(f, 20, m)
        assert grid.array.tobytes() == expected[m].tobytes()
        assert grid.array.shape == expected[m].shape
    assert built == [22, 31, 22, 31]
    assert l2_norm_quadrature(f, 31) == pytest.approx(parseval_l2_norm(grid), rel=1e-12)
    assert built == [22, 31, 22, 31]  # the norm took the kept 31-point rule


@pytest.mark.filterwarnings("error")
def test_an_overflowing_projection_is_refused():
    # every node value is finite, but the sums of the projection overflow
    with pytest.raises(ValueError, match="the projection of the integrand overflowed"):
        compute_coeff_grid(lambda t, u: 1e308 + 0 * t, 4)
    assert compute_coeff_grid(lambda t, u: 1e300 + 0 * t, 4).array[0, 0] == pytest.approx(2e300)
