import decimal
import math
import re
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcderiv.cross import build_cross
from hcderiv import spectral
from hcderiv.legendre import _weights, eval_phi, phi_vandermonde
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
from hcderiv.noise import lp_norm
from hcderiv.text import load_table
import dict_oracle as oracle
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


def test_class_norm_where_the_weight_overflows():
    # 4096**100 overflows and (1e-300)**2 underflows; the norm is 4096**50 * 1e-300
    a = np.zeros((65, 65))
    a[64, 64] = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = class_norm(CoeffGrid(a), ClassParams(2, 50))
    assert norm == pytest.approx(math.exp(50 * math.log(4096) + math.log(1e-300)), rel=1e-12)


def test_class_norm_keeps_the_plain_sum_where_it_is_finite():
    g = _random_grid(seed=43, kmax=30, count=60)
    ks, js = np.nonzero(g.array)
    for s, mu in [(2, 3), (1.5, 2.5), (1, 0.5)]:
        plain = np.sum((np.maximum(1.0, ks) * np.maximum(1.0, js)) ** float(s * mu) * np.abs(g.array[ks, js]) ** s)
        assert class_norm(g, ClassParams(s, mu)) == float(plain ** (1.0 / s))


def test_parseval_examples():
    assert parseval_l2_norm(CoeffGrid(scatter({(0, 0): 3.0}))) == 3.0
    assert parseval_l2_norm(CoeffGrid()) == 0.0
    assert parseval_l2_norm(CoeffGrid(scatter({(1, 2): 3.0, (4, 4): 4.0}))) == pytest.approx(5.0)


@pytest.mark.filterwarnings("error")
def test_l2_norms_whose_squares_overflow():
    g = CoeffGrid(np.array([[3e200, 4e200]]))
    assert parseval_l2_norm(g) == lp_norm(g, 2) == pytest.approx(5e200, rel=1e-15)
    g = CoeffGrid(np.array([[1e308], [-1e308]]))
    assert parseval_l2_norm(g) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)


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


def test_mixed_derivative_holds_about_three_inputs_at_its_peak():
    # the j axis holds the k axis's result, one scaled copy of it and its
    # own result: the reverse sums are written straight into the result
    grid = CoeffGrid(np.random.Generator(np.random.Philox(key=4)).standard_normal((320, 320)))
    tracemalloc.start()
    try:
        mixed_derivative_coeffs(grid, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * grid.array.nbytes


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
    for grid in (CoeffGrid(), CoeffGrid(np.array([[1.0, 0.5]]))):
        with pytest.raises(ValueError):
            sup_norm_on_grid(grid, 1)
        with pytest.raises(ValueError, match="resolution must be <= 8192, got 8193"):
            sup_norm_on_grid(grid, 8193)
    assert sup_norm_on_grid(CoeffGrid(), 5) == 0.0


def _tied_grids():
    rng = np.random.Generator(np.random.Philox(key=43))
    column = CoeffGrid(rng.standard_normal((7, 1)))  # every sample column ties
    even = rng.standard_normal((5, 5))
    even[1::2, :] = 0.0
    even[:, 1::2] = 0.0  # f(+-t, +-u) = f(t, u): extrema tie in fours
    row = CoeffGrid(rng.standard_normal((1, 6)))  # every sample row ties
    # c = c^T ties Y[i, l] with Y[l, i], but a BLAS product sums the two along
    # different paths; for this seed its rounding ranks them apart from the fixed
    # order, so a screen that kept only its own maximum would miss the max
    b = np.random.Generator(np.random.Philox(key=22)).standard_normal((6, 6))
    return [
        (column, 33),
        (CoeffGrid(even), 21),
        (CoeffGrid(scatter({(1, 0): 0.5})), 9),
        (CoeffGrid(b + b.T), 17),
        (row, 25),
        (CoeffGrid(np.array([[-0.75]])), 5),  # every sample ties
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
    every = np.ones((resolution, resolution), dtype=bool)
    assert result == spectral._fixed_order_abs_max(vt, a, vu, every)


@st.composite
def _reference_case(draw):
    """(E, A, resolution): a reference, an approximation of it, and a sample resolution.

    Each grid is scaled by 10**e for an e in [-300, 300].  A is drawn on
    its own, equal to E, or E plus noise 10**-1 to 10**-16 times its
    scale; the last two are held in a box at least E's on both axes.
    """
    shape = st.tuples(st.integers(0, 6), st.integers(0, 6))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**32))))

    def grid(box, exponent):
        return rng.standard_normal(box) * 10.0**exponent

    e_exponent = draw(st.integers(-300, 300))
    e = grid(draw(shape), e_exponent)
    kind = draw(st.sampled_from(["independent", "equal", "near"]))
    if kind == "independent":
        a = grid(draw(shape), draw(st.integers(-300, 300)))
    else:
        a = np.zeros(np.maximum(e.shape, draw(shape)))
        a[: e.shape[0], : e.shape[1]] = e
        if kind == "near":
            a += grid(a.shape, e_exponent - draw(st.integers(1, 16)))
    return e, a, draw(st.sampled_from([2, 3, 4, 9, 17, 33]))


_E = np.array([[0.5, -1.25, 2.0], [0.75, 0.0, -0.5]])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_reference_case())
@example((_E, np.ones((5, 2)), 9))  # A's box is larger than E's on axis 0
@example((_E, np.ones((1, 6)), 9))  # and on axis 1
@example((np.ones((7, 1)), np.zeros((0, 0)), 17))  # an empty A on a degree-0 axis
@example((_E, _E.copy(), 5))  # A == E
@example((np.ones((1, 4)), np.full((1, 4), 2.0), 9))
@example((np.ones((4, 1)), np.ones((1, 1)), 9))
@example((np.ones((1, 1)), np.full((1, 1), 3.0), 9))
@example((_E, _E[::-1, ::-1] * 3.0, 2))
@example((_E * 1e-300, _E[:, :2] * 1e300, 17))
@example((_E * 1e300, _E * (1e300 * (1 + 2.0**-52)), 17))
def test_kept_reference_errors_equal_the_one_shot_norms(case):
    e, a, resolution = case
    exact, approx = CoeffGrid(e), CoeffGrid(a)
    diff = approx - exact
    error_l2, error_c = spectral._ErrorReference(exact, resolution).errors(approx)
    assert error_l2 == parseval_l2_norm(diff)
    assert error_c == sup_norm_on_grid(diff, resolution)
    if diff.max_index() is not None:
        # the fixed-order max over every sample, screened by nothing
        vt, vu = spectral._samples(diff.array.shape, resolution)
        every = np.ones((len(vt), len(vu)), dtype=bool)
        assert error_c == spectral._fixed_order_abs_max(vt, diff.array, vu, every)


@pytest.mark.parametrize("resolution", [2, 3, 17, 129, 257, 1025])
def test_the_largest_sample_of_each_degree_is_its_weight(resolution, monkeypatch):
    # max_i |phi_k(t_i)| = phi_k(1) = sqrt(k + 1/2) bit for bit, up to degree 4096: the
    # screen's weight needs only >=, but equality keeps every screen's candidates the same
    monkeypatch.setattr(spectral, "_SAMPLE_BASIS", {})  # keep no 4097-column basis after
    vt, _ = spectral._samples((4097, 4097), resolution)
    colmax = np.maximum(vt.max(axis=0), -vt.min(axis=0))
    assert colmax.tobytes() == _weights(4097).tobytes()


def test_a_reference_builds_its_screen_once_in_its_constructor(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=23))
    exact = CoeffGrid(rng.standard_normal((12, 9)))
    approx = CoeffGrid(exact.array + 1e-3 * rng.standard_normal((12, 9)))
    screens = []

    def recording_screen(a, resolution):
        screens.append("E" if a is exact.array else "A")
        return sample_screen(a, resolution)

    sample_screen = spectral._sample_screen
    monkeypatch.setattr(spectral, "_sample_screen", recording_screen)
    reference = spectral._ErrorReference(exact, 17)
    assert screens == ["E"]  # before any difference
    assert reference.errors(CoeffGrid(exact.array)) == (0.0, 0.0)  # an empty D, on the one path
    first = reference.errors(approx)
    assert reference.errors(approx) == first
    assert screens == ["E", "A", "A", "A"]  # each call screens A alone, never E again


def test_empty_arrays_raise_no_floating_point_exception():
    exact = CoeffGrid(_E)
    with np.errstate(all="raise"):
        assert spectral._ErrorReference(CoeffGrid(), 9).errors(CoeffGrid()) == (0.0, 0.0)
        norms = (parseval_l2_norm(exact), sup_norm_on_grid(exact, 9))
        assert spectral._ErrorReference(exact, 9).errors(CoeffGrid()) == norms
        assert spectral._ErrorReference(exact, 9).errors(exact) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the exact sup where the signs of d_kj s1^k s2^j agree at a corner: the corner sum

_CORNERS = [(1, 1), (-1, 1), (1, -1), (-1, -1)]


def _corner_grid(seed, shape, corner):
    """A random array whose entries d_kj s1^k s2^j share one sign (negative for odd seeds),
    with about a third of its entries zero, half of those -0.0, but not its last one."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    magnitude = rng.exponential(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    magnitude[rng.random(shape) < 0.35] = 0.0
    magnitude[-1, -1] = 1.0
    s1, s2 = corner
    signs = np.outer(float(s1) ** np.arange(shape[0]), float(s2) ** np.arange(shape[1]))
    d = (-1.0 if seed % 2 else 1.0) * magnitude * signs
    d[d == 0.0] = np.where(rng.random(np.count_nonzero(d == 0.0)) < 0.5, 0.0, -0.0)
    return d


def _decimal_corner_sum(d):
    """sum |d_kj| sqrt(k + 1/2) sqrt(j + 1/2) to 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        half = decimal.Decimal("0.5")
        return sum(
            (
                abs(decimal.Decimal(x)) * (k + half).sqrt() * (j + half).sqrt()
                for (k, j), x in np.ndenumerate(d)
                if x
            ),
            decimal.Decimal(0),
        )


def _every_sample_max(a, resolution):
    """The fixed-order max over every sample, screened by nothing."""
    vt, vu = spectral._samples(a.shape, resolution)
    return spectral._fixed_order_abs_max(vt, a, vu, np.ones((len(vt), len(vu)), dtype=bool))


@pytest.mark.parametrize("corner", _CORNERS)
@pytest.mark.parametrize("shape", [(1, 1), (9, 1), (1, 11), (6, 6), (23, 17), (40, 33)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_certified_grid_has_the_exact_sup(corner, shape, seed):
    d = _corner_grid(seed, shape, corner)
    grid = CoeffGrid(d)
    sup = sup_norm_on_grid(grid, 17)
    # the corner sum bit for bit, within 4 ulp of the exact sup, and the fixed-order max
    # over every sample
    assert sup == spectral._corner_sum(grid.array)
    assert abs(decimal.Decimal(sup) - _decimal_corner_sum(d)) <= 4 * decimal.Decimal(math.ulp(sup))
    assert sup == _every_sample_max(grid.array, 17)


def test_the_sups_of_edge_shapes():
    assert sup_norm_on_grid(CoeffGrid(), 9) == 0.0
    assert sup_norm_on_grid(CoeffGrid(np.array([[-0.75]])), 9) == 0.75 * math.sqrt(0.5) * math.sqrt(0.5)
    # zeros of either sign are absent entries
    d = np.zeros((12, 10))
    d[5, 7], d[9, 4], d[0, 3], d[2, 2] = 2.0, -3.0, -0.0, -0.0
    assert sup_norm_on_grid(CoeffGrid(d), 9) == pytest.approx(
        float(_decimal_corner_sum(d)), rel=1e-15
    )


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (5, 1), (1, 7), (2, 2), (30, 40)])
@pytest.mark.parametrize("seed", [3, 4])
def test_mixed_signs_take_the_screened_path(shape, seed, monkeypatch):
    d = np.random.Generator(np.random.Philox(key=seed)).standard_normal(shape)
    if shape == (2, 2):  # each parity class holds one sign, but no corner's pattern
        d = np.array([[1.0, 1.0], [1.0, -1.0]])
    else:  # two entries of one parity class, of opposite signs
        d[0, 0], d[(2, 0) if shape[0] > 2 else (0, 2)] = 1.0, -1.0
    grid = CoeffGrid(d)
    screens = []

    def recording_screen(a, resolution):
        screens.append(a.shape)
        return sample_screen(a, resolution)

    sample_screen = spectral._sample_screen
    monkeypatch.setattr(spectral, "_sample_screen", recording_screen)
    result = sup_norm_on_grid(grid, 17)
    assert screens == [(0, 0), shape]  # the zero reference's screen, built by its constructor, then A's
    assert result == _every_sample_max(grid.array, 17)


def test_a_difference_that_is_minus_the_reference_has_the_norms_of_the_reference():
    exact = CoeffGrid(_corner_grid(5, (30, 20), (-1, 1)))
    error_l2, error_c = spectral._ErrorReference(exact, 33).errors(CoeffGrid())
    assert error_l2 == parseval_l2_norm(exact)
    assert error_c == spectral._corner_sum(exact.array)
    assert error_c == _every_sample_max(exact.array, 33)


_SIGNED_ENTRIES = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)


@st.composite
def _signed_block(draw):
    """An array of up to 6 x 6 entries from ``_SIGNED_ENTRIES``: drawn freely, or with the
    signs of one corner's pattern, of either sign, and then perhaps one entry negated."""
    shape = draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    entries = st.lists(st.sampled_from(_SIGNED_ENTRIES), min_size=shape[0] * shape[1],
                       max_size=shape[0] * shape[1])
    d = np.array(draw(entries), dtype=float).reshape(shape)
    if draw(st.booleans()):
        s1, s2 = draw(st.sampled_from(_CORNERS))
        pattern = np.outer(float(s1) ** np.arange(shape[0]), float(s2) ** np.arange(shape[1]))
        d = np.abs(d) * pattern * draw(st.sampled_from([1.0, -1.0]))
        if d.size and draw(st.booleans()):
            at = np.unravel_index(draw(st.integers(0, d.size - 1)), shape)
            d[at] = -d[at]
    return d


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_signed_block())
@example(np.zeros((0, 0)))
@example(np.array([[-0.0, 0.0], [0.0, -0.0]]))
@example(np.ones((6, 6)))
def test_the_sup_follows_the_four_corner_sign_rule(d):
    # the sup is the fixed-order max over every sample, and where, at some corner (s1, s2),
    # d_kj s1^k s2^j has one sign over every nonzero entry, that max is the corner sum
    certified = any(
        len({x * s1**k * s2**j > 0.0 for (k, j), x in np.ndenumerate(d) if x}) <= 1
        for s1, s2 in _CORNERS
    )
    grid = CoeffGrid(d)
    for resolution in (2, 17):
        sup = sup_norm_on_grid(grid, resolution)
        assert sup == _every_sample_max(grid.array, resolution)
        if certified:
            assert sup == spectral._corner_sum(grid.array)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_values_without_zeros_give_the_norms_of_values_with_zeros(layout):
    rng = np.random.Generator(np.random.Philox(key=13))
    dense = rng.standard_normal((40, 33)) * 10.0 ** rng.integers(-5, 5, size=(40, 33))
    padded = np.insert(np.insert(dense, [3, 17], 0.0, axis=0), [1, 1, 30], 0.0, axis=1)
    full = CoeffGrid._adopt(np.array(dense, order=layout))
    holey = CoeffGrid(padded)
    assert full.array.all() and not holey.array.all()
    assert full.values().tobytes() == holey.values().tobytes()
    assert parseval_l2_norm(full) == parseval_l2_norm(holey)
    for p in (1, 2, 3.5, math.inf):
        assert lp_norm(full, p) == lp_norm(holey, p)


def test_restrict_to_cross():
    g = CoeffGrid(scatter({(1, 1): 1.0, (9, 9): 1.0}))
    cross = build_cross(4, 1, 1, 1)
    out = restrict_to_cross(g, cross)
    assert np.array_equal(out.array, scatter({(1, 1): 1.0}))
    assert restrict_to_cross(out, cross) == out


def test_restrict_to_cross_stays_inside_the_grid():
    # the cross's box is 1000001 x 1000001; the mask is cut to the 9x9 grid, not only its rows
    g = _random_grid(seed=38, kmax=8, count=81)
    cross = build_cross(1e6, 1, 1, 1)
    tracemalloc.start()
    try:
        out = restrict_to_cross(g, cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10
    # every (k, j) of the grid with k, j >= 1 lies in the cross
    expected = np.array(g.array)
    expected[0], expected[:, 0] = 0.0, 0.0
    assert out == CoeffGrid(expected)


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


def test_save_grid_over_a_file_keeps_its_mode(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("old\n")
    path.chmod(0o600)
    save_grid(_random_grid(seed=42), path)
    assert path.stat().st_mode & 0o777 == 0o600
    assert load_grid(path) == _random_grid(seed=42)


def test_a_failed_save_grid_leaves_the_old_file(tmp_path, monkeypatch):
    def fail(grid):
        raise ValueError("render failed")

    path = tmp_path / "grid.txt"
    save_grid(_random_grid(seed=43), path)
    before = path.read_bytes()
    monkeypatch.setattr(spectral, "dump_grid", fail)
    with pytest.raises(ValueError, match="render failed"):
        save_grid(_random_grid(seed=44), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["grid.txt"]


def test_save_grid_writes_through_a_symbolic_link(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    link.symlink_to(target.name)
    save_grid(_random_grid(seed=45), link)
    assert link.is_symlink() and load_grid(target) == _random_grid(seed=45)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_grid("0\t0\t1.0\n")
    with pytest.raises(ValueError):
        parse_grid("# coeffgrid v1\n0 0 1.0\n")
    with pytest.raises(ValueError):
        parse_grid("# coeffgrid v1\n0\t0\t1.0\t2.0\n")


@pytest.mark.parametrize("k,j", [(10**18 - 1, 0), (8192, 8192)])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])  # read by text.load_table, and line by line
def test_parse_rejects_grids_too_large_to_hold(k, j, eol):
    # (k + 1)(j + 1) cells exceed 2**26, so the error comes before any array is allocated
    text = f"# coeffgrid v1{eol}0\t0\t1.0{eol}{k}\t{j}\t-2.5{eol}"
    message = f"grid shape {(k + 1, j + 1)} exceeds the limit of {2**26} cells"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_grid(text)
    assert parse_grid(text.replace("-2.5", "0.0")) == CoeffGrid(np.ones((1, 1)))


# ---------------------------------------------------------------------------
# the two text readers

def _outcome(read):
    """A grid's array shape and bytes, or the type and message of the error reading it."""
    try:
        grid = read()
    except Exception as exc:
        return type(exc), str(exc)
    return grid.array.shape, grid.array.tobytes()


# the fields, separators and decoration of the texts a grid file may hold;
# the first of each list is dump_grid's own form
_INDEX_TEXTS = [
    "0", "7", "007", "-0", "-1", "+5", " 5", "5 ", "1_0", "1.5", "1e3", "", "x", "\u0663",
    str(10**18 - 1), str(10**18), str(2**63 - 1), str(2**63), str(2**64), str(-(2**63) - 1),
]
_VALUE_TEXTS = [
    "1.0", "0.0", "-0.0", "5e-324", "1.7976931348623157e+308", "nan", "-nan", "NaN", "inf",
    "-inf", "Infinity", "1e400", "-1e400", "1e-400", "1_0.5", " 1.0", "1.0 ", "1.", ".5",
    "+.5e-3", "1E5", "1e", "e5", "--1", "+-1", "1.0.0", "0x10", "", "-", ".",
]
_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028"]
_COMMENTS = [
    "# manifest sha256=0123456789abcdef", "#", "# coeffgrid v1 ", " # indented", "",
    "# x\ry", "#\t",
]
_HEADERS = [spectral.GRID_HEADER, " " + spectral.GRID_HEADER, spectral.GRID_HEADER + "\t", "# coeffgrid v2"]


def _is_finite_float_repr(text):
    try:
        return math.isfinite(float(text)) and repr(float(text)) == text
    except ValueError:
        return False


@st.composite
def _grid_text(draw):
    """A text near the grid format, and whether it is in dump_grid's form.

    Each part of the text is in dump_grid's form except, with chance
    1/odds for an odds drawn per text, an unusual one.
    """
    odds = draw(st.sampled_from([None, 12, 3]))

    def pick(usual, unusual):
        if odds is not None and draw(st.integers(0, odds - 1)) == 0:
            return draw(unusual)
        return draw(usual)

    index = st.integers(0, 12).map(str)
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    comments = [
        pick(st.just(_COMMENTS[0]), st.sampled_from(_COMMENTS))
        for _ in range(draw(st.integers(0, 2)))
    ]
    header = pick(st.just(spectral.GRID_HEADER), st.sampled_from(_HEADERS))
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        fields = [
            pick(index, st.sampled_from(_INDEX_TEXTS)),
            pick(index, st.sampled_from(_INDEX_TEXTS)),
            pick(finite, st.floats(width=64).map(repr) | st.sampled_from(_VALUE_TEXTS)),
        ]
        fields = pick(st.just(fields), st.sampled_from(
            [fields[:2], fields + ["1.0"], fields + [""], [" ".join(fields)]]
        ))
        entries.append(fields)
    lines = comments + [header] + ["\t".join(fields) for fields in entries]
    blanks = pick(st.just([]), st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=2))
    for blank in blanks:
        lines.insert(draw(st.integers(0, len(lines))), blank)
    breaks = pick(st.just(["\n"]), st.just(_BREAKS))
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines)
    text = pick(st.just(text), st.just(text[:-1]))
    canonical = (
        all(c.startswith("#") and c.strip() != spectral.GRID_HEADER and c.isprintable() for c in comments)
        and header == spectral.GRID_HEADER
        and not blanks
        and all(
            len(f) == 3
            and all(x.isascii() and x.isdigit() and len(x) <= 18 for x in f[:2])
            and _is_finite_float_repr(f[2])
            for f in entries
        )
        # the last line's newline may be missing, but not the header's
        and ("\n".join(lines) + "\n" == text or bool(entries) and "\n".join(lines) == text)
    )
    return text, canonical


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_grid_text())
@example(("# coeffgrid v1\n0\t0\t1.0\n0\t0\t2.0\n", True))
@example(("# coeffgrid v1\n3\t-1\t1.0\n", False))
@example((f"# coeffgrid v1\n{2**63}\t0\t1.0\n", False))
@example((f"# coeffgrid v1\n{10**18 - 1}\t0\t0.0\n", True))
@example(("# coeffgrid v1\n1\t2\t1e400\n", False))
@example(("# coeffgrid v1\n1\t2\t1.0\t\n", False))
@example(("# coeffgrid v1\r\n1\t2\t1.0\r\n", False))
@example(("# a\x85b\n# coeffgrid v1\n1\t2\t1.0\n", False))
@example(("# coeffgrid v1 \n# coeffgrid v1\n1\t2\t1.0\n", False))
@example(("# coeffgrid v1\n", True))
@example(("# manifest sha256=0\n# coeffgrid v1\n1\t2\t1.0\n3\t0\t-2.5e-300", True))
# a "#" after leading whitespace does not start a comment line
@example((" # x\n# coeffgrid v1\n1\t2\t1.0\n", False))
# "\x1f" is whitespace to str.strip but no line break
@example(("\x1f# coeffgrid v1\x1f\n1\t2\t1.0\n", False))
# blank lines and CRLF above an LF body: the numpy reader takes the body
@example(("\r\n \t\n# a\r\n# coeffgrid v1\r\n1\t2\t1.0\n3\t0\t-2.5\n", False))
@example(("# a\x0b# coeffgrid v1\x0b1\t2\t1.0\x0b", False))
@example(("# a\x0c# coeffgrid v1\x0c1\t2\t1.0\x0c", False))
@example(("# a\x1c# coeffgrid v1\x1c1\t2\t1.0\x1c", False))
@example(("# a\x1d# coeffgrid v1\x1d1\t2\t1.0\x1d", False))
@example(("# a\x1e# coeffgrid v1\x1e1\t2\t1.0\x1e", False))
@example(("# coeffgrid v1", False))
@example(("# a\n# coeffgrid v1\r1\t2\t1.0", False))
def test_fast_and_line_readers_agree(case):
    # parse_grid against the two readers it replaced, kept in dict_oracle as the reference
    text, canonical = case
    line = _outcome(lambda: spectral._table_grid(oracle.line_table(text)))
    table = oracle.exact_form_table(text)
    if canonical:
        assert table is not None
        assert load_table(text, spectral._body_start(text)) is not None
    if table is not None:
        assert _outcome(lambda: spectral._table_grid(table)) == line
    assert _outcome(lambda: parse_grid(text)) == line


@pytest.mark.parametrize("preamble", [
    "", "\n", " \t\x1f\n", "# a\r\n", "# a\r", "\x0b# a\x0c", "#\x1c#\x1d#\x1e", "\r\n\r\n# a\n",
])
@pytest.mark.parametrize("header", ["# coeffgrid v1\n", " # coeffgrid v1\x1f\t\n", "# coeffgrid v1\r\n"])
def test_a_body_in_dump_grids_form_is_read_by_numpy_below_any_preamble(preamble, header):
    g = _random_grid(seed=46)
    body = dump_grid(g).split("\n", 1)[1]
    text = preamble + header + body
    assert load_table(text, spectral._body_start(text)) is not None
    assert parse_grid(text) == g


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 40), st.integers(0, 40)),
        st.floats(allow_nan=False, allow_infinity=False),
        max_size=40,
    )
)
def test_dump_grid_text_round_trips_below_a_manifest_line(entries):
    g = CoeffGrid(scatter(entries))
    text = "# manifest sha256=0123456789abcdef\n" + dump_grid(g)
    assert load_table(text, spectral._body_start(text)) is not None
    assert parse_grid(text) == g
    assert dump_grid(parse_grid(text)) == dump_grid(g)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_line_reader_skips_comment_lines_in_linear_time():
    # CRLF text goes to the line reader: 0.2 s, where popping each comment line off the front took 25 s
    text = "#\r\n" * 400_000 + spectral.GRID_HEADER + "\r\n1\t2\t1.0\r\n"
    start = time.perf_counter()
    grid = parse_grid(text)
    assert time.perf_counter() - start < 4.0
    assert grid == CoeffGrid(scatter({(1, 2): 1.0}))


def test_text_io_peaks_stay_below_four_times_the_text():
    rng = np.random.Generator(np.random.Philox(key=11))
    dense = rng.standard_normal((400, 400)) * 10.0 ** rng.integers(-8, 8, size=(400, 400))
    dense[rng.random((400, 400)) < 0.6] = 0.0  # a sparse grid with a dense array
    g = CoeffGrid(dense)
    text = dump_grid(g)
    assert text.count("\n") > 60_000
    assert _peak_bytes(lambda: parse_grid(text)) < 4 * len(text)
    assert _peak_bytes(lambda: dump_grid(g)) < 4 * len(text)


def test_grid_sum_peak_stays_below_one_and_a_half_results():
    rng = np.random.Generator(np.random.Philox(key=12))
    a, b = (CoeffGrid(rng.standard_normal((512, 512))) for _ in range(2))
    assert _peak_bytes(lambda: a + b) < 1.5 * 512 * 512 * 8


def _full_scan_trimmed(dense, copy):
    """The trim that scans every entry: the reference for spectral._trimmed."""
    if not np.all(np.isfinite(dense)):
        raise ValueError("coefficient array holds non-finite values")
    nonzero = dense != 0.0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if not rows.size:
        return spectral._EMPTY
    cols = np.flatnonzero(nonzero.any(axis=0))
    shape = (rows[-1] + 1, cols[-1] + 1)
    if copy or shape != dense.shape:
        dense = np.array(dense[: shape[0], : shape[1]])
    dense.flags.writeable = False
    return dense


def _laid_out(dense, layout):
    """A fresh copy of ``dense`` in C or F order, or a strided view of a fresh array."""
    if layout == "strided":
        return np.repeat(dense, 2, axis=1)[:, ::2]
    return np.array(dense, order=layout)


@st.composite
def _arrays_to_trim(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e300])
    dense = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    if rows and draw(st.booleans()):
        dense[-1] = draw(st.sampled_from([0.0, -0.0]))
    if cols and draw(st.booleans()):
        dense[:, -1] = draw(st.sampled_from([0.0, -0.0]))
    return dense, draw(st.sampled_from(["C", "F", "strided"])), draw(st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_arrays_to_trim())
@example((np.zeros((0, 3)), "C", False))
@example((np.zeros((4, 0)), "F", True))
@example((np.array([[1.0, -0.0], [-0.0, -0.0]]), "F", False))
@example((np.array([[0.0, 2.0], [3.0, 0.0]]), "strided", False))
@example((np.array([[0.0, 2.0], [3.0, 0.0]]), "F", True))
def test_trim_reads_the_last_lines_like_the_full_scan(case):
    dense, layout, copy = case
    fast_in, full_in = _laid_out(dense, layout), _laid_out(dense, layout)
    fast, full = spectral._trimmed(fast_in, copy), _full_scan_trimmed(full_in, copy)
    assert fast.tobytes() == full.tobytes() and fast.shape == full.shape
    assert fast.strides == full.strides and fast.dtype == full.dtype
    assert fast.flags == full.flags
    assert (fast is fast_in) == (full is full_in)
    assert (fast is spectral._EMPTY) == (full is spectral._EMPTY)
    assert fast_in.flags.writeable == full_in.flags.writeable


def _table(pairs, values=None):
    table = np.zeros(len(pairs), spectral.ENTRY)
    if pairs:
        table["k"], table["j"] = np.array(pairs).T
    table["v"] = np.arange(1.0, len(pairs) + 1) if values is None else values
    return table


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
    st.randoms(use_true_random=False),
)
@example([], None)
@example([(0, 0), (0, 0)], None)
@example([(2, 1), (0, 3), (2, 1), (0, 3)], None)
def test_tables_in_any_order_give_the_grid_or_error_of_the_sorted_table(pairs, rand):
    unique = sorted(set(pairs))
    values = np.arange(1.0, len(unique) + 1)
    grid = spectral._table_grid(_table(unique, values))
    shuffled = list(zip(unique, values))
    if rand is not None:
        rand.shuffle(shuffled)
    assert spectral._table_grid(_table([p for p, _ in shuffled], [v for _, v in shuffled])) == grid
    repeated = sorted(p for p in set(pairs) if pairs.count(p) > 1)
    for table in (_table(sorted(pairs)), _table(pairs)):
        if repeated:
            with pytest.raises(ValueError, match=re.escape(f"duplicate index {repeated[0]}")):
                spectral._table_grid(table)
        else:
            assert spectral._table_grid(table).array.shape == grid.array.shape


@pytest.mark.filterwarnings("error")
def test_norms_whose_sums_underflow_or_overflow():
    assert parseval_l2_norm(CoeffGrid(np.array([[3e-170, 4e-170]]))) == pytest.approx(5e-170, rel=1e-15)
    assert parseval_l2_norm(CoeffGrid(np.array([[1e-160]]))) == 1e-160
    assert parseval_l2_norm(CoeffGrid(np.array([[5e-324, 0.0, -5e-324]]))) == pytest.approx(
        math.sqrt(2) * 5e-324, abs=5e-324
    )
    cube_root = 91.0 ** (1 / 3)
    assert lp_norm(CoeffGrid(np.array([[3e200, 4e200]])), 3) == pytest.approx(cube_root * 1e200, rel=1e-15)
    assert lp_norm(CoeffGrid(np.array([[3e-120], [-4e-120]])), 3) == pytest.approx(
        cube_root * 1e-120, rel=1e-15
    )
    assert lp_norm(CoeffGrid(np.array([[1e-3]])), 2000) == 1e-3
    assert lp_norm(CoeffGrid(np.array([[1e300, 1e300]])), 1.5) == pytest.approx(2 ** (2 / 3) * 1e300, rel=1e-15)


@pytest.mark.parametrize("p", [1.5, 2, 3.5, 7])
def test_norms_in_the_normal_range_are_the_plain_sums(p):
    rng = np.random.Generator(np.random.Philox(key=17))
    g = CoeffGrid(rng.standard_normal((30, 20)) * 10.0 ** rng.integers(-20, 20, size=(30, 20)))
    values = np.abs(g.values())
    plain = float(np.sqrt(np.sum(values**2))) if p == 2 else float(np.sum(values**p) ** (1.0 / p))
    assert lp_norm(g, p) == plain
    assert parseval_l2_norm(g) == float(np.sqrt(np.sum(g.values() ** 2)))


def test_error_step_peaks_below_two_screens():
    rng = np.random.Generator(np.random.Philox(key=19))
    exact = CoeffGrid(rng.standard_normal((64, 64)))
    approx = CoeffGrid(exact.array + 1e-6 * rng.standard_normal((64, 64)))
    reference = spectral._ErrorReference(exact, 1025)
    reference.errors(approx)  # the sample basis is kept before the peak is taken
    screen_bytes = 8 * 1025**2
    assert _peak_bytes(lambda: reference.errors(approx)) <= 2.1 * screen_bytes
    assert _peak_bytes(lambda: sup_norm_on_grid(approx, 1025)) <= 2.1 * screen_bytes
