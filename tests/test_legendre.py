import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcderiv import legendre
from hcderiv.legendre import (
    _weights,
    clenshaw_eval,
    differentiate_coeffs,
    eval_phi,
    eval_phi_derivative,
    muller_differentiate,
    muller_differentiate_iterated,
    phi_vandermonde,
)
from hcderiv.quadrature import gauss_legendre_rule


def test_phi_constant():
    assert eval_phi(0, 0.5) == pytest.approx(0.7071067811865476, rel=1e-15)


def test_phi2_at_one():
    # P_k(1) = 1, so phi_2(1) = sqrt(5/2)
    assert eval_phi(2, 1.0) == pytest.approx(1.5811388300841898, rel=1e-15)


def test_phi3_symbolic_oracle():
    # phi_3(t) = sqrt(7/2) (5 t^3 - 3 t) / 2
    t = 0.3
    expected = math.sqrt(3.5) * (5 * t**3 - 3 * t) / 2
    assert eval_phi(3, t) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("k", [10, 50, 100, 200])
@pytest.mark.parametrize("t", [-1.0, -0.7, 0.1, 0.9, 1.0])
def test_phi_matches_numpy_legval(k, t):
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    expected = math.sqrt(k + 0.5) * np.polynomial.legendre.legval(t, coeffs)
    assert eval_phi(k, t) == pytest.approx(expected, rel=1e-12)


def test_phi_domain_error():
    with pytest.raises(ValueError):
        eval_phi(3, 1.0000001)
    with pytest.raises(ValueError):
        eval_phi_derivative(3, 1, -1.1)
    with pytest.raises(ValueError):
        clenshaw_eval({0: 1.0}, 2.0)


def test_phi1_first_derivative_constant():
    assert eval_phi_derivative(1, 1, 0.9) == pytest.approx(1.224744871391589, rel=1e-15)


def test_phi0_derivative_zero():
    assert eval_phi_derivative(0, 1, 0.0) == 0.0


def test_derivative_zero_below_order():
    for k in range(4):
        assert eval_phi_derivative(k, k + 1, 0.3) == 0.0


def test_second_derivative_finite_difference_oracle():
    t, h = 0.25, 1e-5
    fd = (eval_phi(4, t + h) - 2 * eval_phi(4, t) + eval_phi(4, t - h)) / h**2
    assert abs(eval_phi_derivative(4, 2, t) - fd) < 1e-6


def test_muller_single_mode_k1():
    # phi_1' = sqrt(3/2) = sqrt(3) phi_0
    out = muller_differentiate({1: 1.0})
    assert set(out) == {0}
    assert out[0] == pytest.approx(math.sqrt(3), rel=1e-15)


def test_muller_single_mode_k2():
    # phi_2' = sqrt(15) phi_1
    out = muller_differentiate({2: 1.0})
    assert set(out) == {1}
    assert out[1] == pytest.approx(math.sqrt(15), rel=1e-15)


def test_muller_empty():
    assert muller_differentiate({}) == {}
    assert muller_differentiate({0: 5.0}) == {}


def test_muller_iterated_second_derivative():
    # phi_2'' = 3 sqrt(5/2), a constant, i.e. 3 sqrt(5) phi_0
    out = muller_differentiate_iterated({2: 1.0}, 2)
    assert set(out) == {0}
    assert out[0] == pytest.approx(3 * math.sqrt(5), rel=1e-14)


def test_muller_iterated_annihilates_low_degree():
    for k, r in [(0, 1), (1, 2), (3, 4), (2, 5)]:
        assert muller_differentiate_iterated({k: 1.0}, r) == {}


def test_muller_linearity():
    base = muller_differentiate_iterated({3: 1.0}, 1)
    doubled = muller_differentiate_iterated({3: 2.0}, 1)
    assert set(base) == set(doubled)
    for l, v in base.items():
        assert doubled[l] == pytest.approx(2 * v, rel=1e-15)


def test_muller_parity():
    # even-index input feeds only odd output indices
    out = muller_differentiate({2: 1.0, 4: 2.0, 6: -0.5})
    assert set(out) <= {1, 3, 5}
    for l in (0, 2, 4):
        assert out.get(l, 0.0) == 0.0


def test_clenshaw_constant():
    assert clenshaw_eval({0: math.sqrt(2)}, 0.3) == pytest.approx(1.0, rel=1e-15)


def test_clenshaw_single_active_term():
    a = {1: 1.0, 3: 0.0}
    for t in (-1.0, -0.2, 0.8):
        assert clenshaw_eval(a, t) == pytest.approx(eval_phi(1, t), rel=1e-14)


def test_clenshaw_matches_direct_sum():
    rng = np.random.Generator(np.random.Philox(key=7))
    a = {int(k): float(v) for k, v in zip(rng.integers(0, 60, 20), rng.standard_normal(20))}
    t = -0.77
    direct = sum(v * eval_phi(k, t) for k, v in a.items())
    assert clenshaw_eval(a, t) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        max_size=15,
    ),
    t=st.floats(min_value=-1, max_value=1),
)
def test_clenshaw_direct_sum_property(entries, t):
    direct = sum(v * eval_phi(k, t) for k, v in entries.items())
    assert clenshaw_eval(entries, t) == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_orthonormality_small():
    rule = gauss_legendre_rule(25)
    v = phi_vandermonde(20, rule.nodes)
    gram = v.T @ (rule.weights[:, None] * v)
    assert np.max(np.abs(gram - np.eye(21))) < 1e-13


@pytest.mark.parametrize("k", [1, 5, 12, 25, 40])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_muller_matches_pointwise_derivative(k, r):
    series = muller_differentiate_iterated({k: 1.0}, r)
    grid = np.linspace(-1.0, 1.0, 201)
    exact = np.array([eval_phi_derivative(k, r, t) for t in grid])
    approx = np.array([clenshaw_eval(series, t) for t in grid])
    scale = 1.0 + np.max(np.abs(exact))
    assert np.max(np.abs(approx - exact)) <= 1e-8 * scale


@pytest.mark.parametrize("r", [1, 2, 3])
def test_connection_coefficient_growth(r):
    # the l=0 output of the iterated derivative grows no faster than
    # k^(2(r-1)+1); fit the constant on the lower half, verify on the rest
    exponent = 2 * (r - 1) + 1
    b0 = {}
    for k in range(r, 101):
        out = muller_differentiate_iterated({k: 1.0}, r)
        b0[k] = abs(out.get(0, 0.0))
    fitted_c = max(b0[k] / k**exponent for k in range(r, 51))
    assert fitted_c > 0
    for k in range(r, 101):
        assert b0[k] <= fitted_c * k**exponent * 1.05


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_endpoint_identity(r):
    # the r-th derivative of phi_r is the constant
    # sqrt(r + 1/2) (2r)! / (2^(r - 1/2) r! sqrt(2))
    expected = (
        math.sqrt(r + 0.5)
        * math.factorial(2 * r)
        / (2 ** (r - 0.5) * math.factorial(r) * math.sqrt(2))
    )
    for t in (-1.0, -0.3, 0.0, 0.6, 1.0):
        assert eval_phi_derivative(r, r, t) == pytest.approx(expected, rel=1e-10)


def test_phi_vandermonde_matches_scalar():
    pts = np.array([-1.0, -0.4, 0.0, 0.9, 1.0])
    v = phi_vandermonde(8, pts)
    for i, t in enumerate(pts):
        for k in range(9):
            assert v[i, k] == pytest.approx(eval_phi(k, float(t)), rel=1e-13, abs=1e-13)


def test_the_kept_weights_equal_a_fresh_vector_at_every_length(monkeypatch):
    # the kept vector grows at 5, 4097 and 12290 and is sliced in between
    # start from an empty kept vector, and keep no 12290-entry one after
    monkeypatch.setattr(legendre, "_WEIGHTS", [legendre._WEIGHTS[0][:0]])
    for n in (0, 1, 5, 4097, 3, 12290, 2):
        w = _weights(n)
        assert w.tobytes() == np.sqrt(np.arange(0.5, n)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            w[:] = 1.0
    assert legendre._WEIGHTS[0].size == 12290


def _differentiate_by_cumsum(a, r):
    """The derivative as it was summed before one-term classes were copied: every parity
    class by np.cumsum, on a fresh weight vector."""
    for _ in range(r):
        size = a.shape[-1]
        if size <= 1:
            return np.zeros(a.shape[:-1] + (0,))
        w = np.sqrt(np.arange(0.5, size))
        scaled = a * w
        tails = np.empty(a.shape[:-1] + (size - 1,))
        for first, out in ((1, tails[..., 0::2]), (2, tails[..., 1::2])):
            np.cumsum(scaled[..., first::2][..., ::-1], axis=-1, out=out[..., ::-1])
        tails *= 2.0 * w[:-1]
        a = tails
    return a


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
@pytest.mark.parametrize("rows", [1, 7, 9000])
def test_one_term_parity_classes_give_the_bits_of_a_cumulative_sum(r, size, rows):
    # sizes 2 to 4 hold a one-term class (and size 2 an empty one); -0.0, 0.0 and
    # subnormals keep their bits, and a transposed view is read as the witness's is
    rng = np.random.Generator(np.random.Philox(key=size * 10 + r))
    a = rng.standard_normal((rows, size)) * rng.choice([1.0, 1e-310, 1e300], size=(rows, size))
    a[rng.random((rows, size)) < 0.2] = -0.0
    a[rng.random((rows, size)) < 0.2] = 0.0
    for x in (a, np.asfortranarray(a), np.ascontiguousarray(a.T).T):
        got = differentiate_coeffs(x, r)
        want = _differentiate_by_cumsum(x, r)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
