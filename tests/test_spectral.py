import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcderiv.cross import build_cross
from hcderiv import spectral
from hcderiv.legendre import eval_phi, phi_vandermonde
from hcderiv.spectral import (
    ClassParams,
    CoeffGrid,
    class_norm,
    dump_grid,
    load_grid,
    mixed_derivative_coeffs,
    parse_grid,
    parseval_l2_norm,
    restrict_to_cross,
    save_grid,
    sup_norm_on_grid,
    synth_eval,
)
from hcderiv.legendre import differentiate_coeffs
from dict_oracle import scatter


def _random_grid(seed, kmax=12, count=30):
    rng = np.random.Generator(np.random.Philox(key=seed))
    entries = {}
    for _ in range(count):
        entries[(int(rng.integers(0, kmax + 1)), int(rng.integers(0, kmax + 1)))] = float(
            rng.standard_normal()
        )
    return CoeffGrid(scatter(entries))


# ---------------------------------------------------------------------------
# CoeffGrid type

def test_grid_validation():
    for body in [
        "-1\t0\t1.0",
        "0\t0\tnan",
        "0\t0\tinf",
        "0\t0\t1.0\n0\t0\t2.0",
        "0.5\t0\t1.0",
        f"{2**63}\t0\t1.0",
    ]:
        with pytest.raises(ValueError):
            parse_grid(f"# coeffgrid v1\n{body}\n")


def test_grid_array_validation():
    with pytest.raises(ValueError):
        CoeffGrid(np.zeros(3))
    with pytest.raises(ValueError):
        CoeffGrid(np.array([[0.0, float("nan")]]))


def test_grid_drops_zeros_and_sorts():
    g = parse_grid("# coeffgrid v1\n3\t1\t1.0\n0\t2\t0.0\n1\t1\t-2.0\n")
    assert len(g) == 2
    assert list(zip(*np.nonzero(g.array))) == [(1, 1), (3, 1)]
    assert g.array.shape == (4, 2)  # the zero at (0, 2) is dropped, not stored
    assert dump_grid(g) == "# coeffgrid v1\n1\t1\t-2.0\n3\t1\t1.0\n"


def test_grid_arithmetic():
    a = CoeffGrid(scatter({(0, 0): 1.0, (1, 1): 2.0}))
    b = CoeffGrid(scatter({(1, 1): 2.0, (2, 2): -1.0}))
    assert np.array_equal((a - b).array, scatter({(0, 0): 1.0, (2, 2): 1.0}))
    assert np.array_equal((a + b).array, scatter({(0, 0): 1.0, (1, 1): 4.0, (2, 2): -1.0}))
    assert np.array_equal(a.scale(2.0).array, scatter({(0, 0): 2.0, (1, 1): 4.0}))


# ---------------------------------------------------------------------------
# norms

def test_class_norm_single_term():
    assert class_norm(CoeffGrid(scatter({(2, 3): 1.0})), ClassParams(2, 2)) == pytest.approx(36.0)


def test_class_norm_underline_convention():
    for s, mu in [(1, 1), (2, 3), (1.5, 0.5)]:
        assert class_norm(CoeffGrid(scatter({(0, 0): 0.5})), ClassParams(s, mu)) == pytest.approx(0.5)


def test_class_norm_hand_sum():
    g = CoeffGrid(scatter({(1, 1): 3.0, (2, 2): 4.0}))
    assert class_norm(g, ClassParams(2, 1)) == pytest.approx(math.sqrt(265), rel=1e-14)


def test_class_norm_empty():
    assert class_norm(CoeffGrid(), ClassParams(2, 2)) == 0.0


def test_parseval_examples():
    assert parseval_l2_norm(CoeffGrid(scatter({(0, 0): 3.0}))) == 3.0
    assert parseval_l2_norm(CoeffGrid()) == 0.0
    assert parseval_l2_norm(CoeffGrid(scatter({(1, 2): 3.0, (4, 4): 4.0}))) == pytest.approx(5.0)


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.floats(-5, 5, allow_nan=False),
        max_size=10,
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.floats(-5, 5, allow_nan=False),
        max_size=10,
    ),
    st.floats(-4, 4, allow_nan=False),
)
def test_class_norm_is_a_norm(a_entries, b_entries, alpha):
    params = ClassParams(2, 1.5)
    a, b = CoeffGrid(scatter(a_entries)), CoeffGrid(scatter(b_entries))
    assert class_norm(a.scale(alpha), params) == pytest.approx(
        abs(alpha) * class_norm(a, params), rel=1e-12, abs=1e-12
    )
    lhs = class_norm(a + b, params)
    assert lhs <= class_norm(a, params) + class_norm(b, params) + 1e-12


def test_class_norm_monotone_in_mu():
    g = CoeffGrid(scatter({(1, 2): 0.3, (4, 1): -0.2, (3, 3): 0.05}))
    norms = [class_norm(g, ClassParams(2, mu)) for mu in (0.5, 1.0, 2.0, 3.0)]
    assert all(x <= y for x, y in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# synthesis

def test_synth_constant():
    g = CoeffGrid(scatter({(0, 0): 2.0}))
    for t, tau in [(-1, -1), (0.3, -0.4), (1, 1)]:
        assert synth_eval(g, t, tau) == pytest.approx(1.0, rel=1e-15)


def test_synth_single_term_factorizes():
    g = CoeffGrid(scatter({(5, 2): 1.0}))
    assert synth_eval(g, 0.1, -0.4) == pytest.approx(
        eval_phi(5, 0.1) * eval_phi(2, -0.4), rel=1e-13
    )


def test_synth_matches_naive_double_sum():
    g = _random_grid(seed=3, kmax=20, count=50)
    t, tau = 0.33, 0.71
    naive = sum(
        g.array[k, j] * eval_phi(k, t) * eval_phi(j, tau) for k, j in zip(*np.nonzero(g.array))
    )
    assert synth_eval(g, t, tau) == pytest.approx(naive, rel=1e-12)


def test_synth_domain_error():
    with pytest.raises(ValueError):
        synth_eval(CoeffGrid(scatter({(0, 0): 1.0})), 1.2, 0.0)
    with pytest.raises(ValueError):
        synth_eval(CoeffGrid(scatter({(0, 0): 1.0})), 0.0, -1.01)


# ---------------------------------------------------------------------------
# mixed differentiation

def test_mixed_derivative_bilinear_mode():
    out = mixed_derivative_coeffs(CoeffGrid(scatter({(1, 1): 1.0})), 1, 1)
    assert out.array.shape == (1, 1)
    assert out.array[0, 0] == pytest.approx(3.0, rel=1e-15)


def test_mixed_derivative_kills_low_index():
    assert len(mixed_derivative_coeffs(CoeffGrid(scatter({(0, 5): 7.0})), 1, 1)) == 0


def test_mixed_derivative_linearity():
    g = _random_grid(seed=5)
    base = mixed_derivative_coeffs(g, 1, 2)
    doubled = mixed_derivative_coeffs(g.scale(2.0), 1, 2)
    assert doubled == base.scale(2.0)  # doubling is exact in binary floating point
    tripled = mixed_derivative_coeffs(g.scale(3.0), 1, 2)
    expected = base.scale(3.0).array
    for idx in zip(*np.nonzero(expected)):
        assert tripled.array[idx] == pytest.approx(expected[idx], rel=1e-14)


def _k_then_j(a, r1, r2):
    return differentiate_coeffs(differentiate_coeffs(a.T, r1).T, r2)


def _j_then_k(a, r1, r2):
    return differentiate_coeffs(differentiate_coeffs(a, r2).T, r1).T


def test_mixed_derivative_axis_order_commutes():
    # the two axis orders compute the same real number; in floats they
    # agree on support exactly and on values up to reassociation rounding
    for k, j in [(1, 1), (4, 2), (7, 5)]:
        a = CoeffGrid(scatter({(k, j): 1.0})).array
        kj, jk = _k_then_j(a, 2, 1), _j_then_k(a, 2, 1)
        assert np.array_equal(kj != 0, jk != 0)
        for idx in zip(*np.nonzero(kj)):
            assert jk[idx] == pytest.approx(kj[idx], rel=5e-16)
    a = _random_grid(seed=9).array
    for r1, r2 in [(1, 1), (2, 1), (2, 2)]:
        kj, jk = _k_then_j(a, r1, r2), _j_then_k(a, r1, r2)
        assert np.array_equal(kj != 0, jk != 0)
        for idx in zip(*np.nonzero(kj)):
            assert jk[idx] == pytest.approx(kj[idx], rel=1e-13, abs=1e-13)


def _central_fd(g, r1, r2, t, u, h):
    stencil1 = [(-1, -0.5 / h), (1, 0.5 / h)]
    stencil2 = [(-1, 1 / h**2), (0, -2 / h**2), (1, 1 / h**2)]
    st1 = stencil1 if r1 == 1 else stencil2
    st2 = stencil1 if r2 == 1 else stencil2
    acc = 0.0
    for dt, wt in st1:
        for du, wu in st2:
            acc += wt * wu * synth_eval(g, t + dt * h, u + du * h)
    return acc


def test_mixed_derivative_matches_finite_differences():
    # Richardson-extrapolated central differences; degree-12 grids have
    # fourth derivatives near 1e8, so a plain second-order stencil at
    # this step cannot reach the target accuracy on its own
    g = _random_grid(seed=17, kmax=12, count=25)
    h = 5e-4
    rng = np.random.Generator(np.random.Philox(key=23))
    probes = [(float(a), float(b)) for a, b in 0.8 * rng.uniform(-1, 1, size=(25, 2))]
    for r1 in (1, 2):
        for r2 in (1, 2):
            deriv = mixed_derivative_coeffs(g, r1, r2)
            exact = np.array([synth_eval(deriv, t, u) for t, u in probes])
            fd = np.array(
                [
                    (4 * _central_fd(g, r1, r2, t, u, h) - _central_fd(g, r1, r2, t, u, 2 * h)) / 3
                    for t, u in probes
                ]
            )
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(fd - exact)) <= 1e-4 * scale


# ---------------------------------------------------------------------------
# sup norm and restriction

def test_sup_norm_constant():
    g = CoeffGrid(scatter({(0, 0): 2.0}))
    for res in (2, 11, 101):
        assert sup_norm_on_grid(g, res) == pytest.approx(1.0, rel=1e-15)


def test_sup_norm_peaks_at_endpoint():
    g = CoeffGrid(scatter({(3, 0): 1.0}))
    assert sup_norm_on_grid(g, 101) == pytest.approx(math.sqrt(7) / 2, rel=1e-13)


def test_sup_norm_monotone_in_resolution():
    g = _random_grid(seed=31)
    assert sup_norm_on_grid(g, 201) >= sup_norm_on_grid(g, 11)


def test_sup_norm_validation():
    with pytest.raises(ValueError):
        sup_norm_on_grid(CoeffGrid(), 1)
    assert sup_norm_on_grid(CoeffGrid(), 5) == 0.0


def _tied_grids():
    rng = np.random.Generator(np.random.Philox(key=43))
    column = CoeffGrid(rng.standard_normal((7, 1)))  # every sample column ties
    even = rng.standard_normal((5, 5))
    even[1::2, :] = 0.0
    even[:, 1::2] = 0.0  # f(+-t, +-u) = f(t, u): extrema tie in fours
    # c = c^T ties Y[i, l] with Y[l, i], but a BLAS product sums the two along
    # different paths; for this seed its rounding ranks them apart from the fixed
    # order, so a screen that kept only its own maximum would miss the max
    b = np.random.Generator(np.random.Philox(key=22)).standard_normal((6, 6))
    return [
        (column, 33),
        (CoeffGrid(even), 21),
        (CoeffGrid(scatter({(1, 0): 0.5})), 9),
        (CoeffGrid(b + b.T), 17),
    ]


@pytest.mark.parametrize(
    "grid,resolution", [(_random_grid(seed=41, kmax=6, count=15), 17), *_tied_grids()]
)
def test_sup_norm_within_its_bound_of_the_exact_sample_max(grid, resolution):
    # exact max of |sum_kj Vt[i,k] c_kj Vu[l,j]| over the samples, for the same
    # float Vandermonde values, against B = gamma_{K1+K2} sum m_t[k] |c_kj| m_u[j]
    pts = np.cos(np.pi * np.arange(resolution) / (resolution - 1))
    a = grid.array
    k1, k2 = a.shape
    vt, vu = phi_vandermonde(k1 - 1, pts), phi_vandermonde(k2 - 1, pts)
    c = [[Fraction(x) for x in row] for row in a.tolist()]
    t = [[Fraction(x) for x in row] for row in vt.tolist()]
    u = [[Fraction(x) for x in row] for row in vu.tolist()]
    inner = [[sum(c[k][j] * ul[j] for j in range(k2)) for ul in u] for k in range(k1)]
    exact = max(
        abs(sum(ti[k] * inner[k][l] for k in range(k1)))
        for ti in t
        for l in range(resolution)
    )
    m_t = [max(abs(row[k]) for row in t) for k in range(k1)]
    m_u = [max(abs(row[j]) for row in u) for j in range(k2)]
    n, unit = k1 + k2, Fraction(1, 2**53)
    bound = n * unit / (1 - n * unit) * sum(
        m_t[k] * abs(c[k][j]) * m_u[j] for k in range(k1) for j in range(k2)
    )
    result = sup_norm_on_grid(grid, resolution)
    assert abs(Fraction(result) - exact) <= bound

    # the screen changes nothing: the result is the fixed-order max over every sample
    rows, cols = np.divmod(np.arange(resolution**2), resolution)
    assert result == spectral._fixed_order_abs_max(vt, a, vu, rows, cols)


def test_restrict_to_cross():
    g = CoeffGrid(scatter({(1, 1): 1.0, (9, 9): 1.0}))
    cross = build_cross(4, 1, 1, 1)
    out = restrict_to_cross(g, cross)
    assert np.array_equal(out.array, scatter({(1, 1): 1.0}))
    assert restrict_to_cross(out, cross) == out


def test_restrict_empty_cross():
    g = _random_grid(seed=37)
    cross = build_cross(0.5, 1.0, 1, 1)
    assert len(restrict_to_cross(g, cross)) == 0


# ---------------------------------------------------------------------------
# serialization

def test_dump_format():
    g = CoeffGrid(scatter({(1, 0): -0.5, (0, 0): 2.0}))
    assert dump_grid(g) == "# coeffgrid v1\n0\t0\t2.0\n1\t0\t-0.5\n"


def test_round_trip_exact(tmp_path):
    g = _random_grid(seed=41, kmax=30, count=40)
    path = tmp_path / "grid.txt"
    save_grid(g, path)
    assert load_grid(path) == g


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_grid("0\t0\t1.0\n")
    with pytest.raises(ValueError):
        parse_grid("# coeffgrid v1\n0 0 1.0\n")
    with pytest.raises(ValueError):
        parse_grid("# coeffgrid v1\n0\t0\t1.0\t2.0\n")
