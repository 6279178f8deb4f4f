import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_oracle as oracle
from hcderiv import spectral
from hcderiv.cross import build_cross
from hcderiv.lowerbound import (
    WitnessInfeasibleError,
    _bound_constant,
    _c_tilde,
    _report,
    build_witness_pair,
    min_N_for_delta,
    verify_lower_bound_C,
    verify_lower_bound_L2,
    witness_for_cross,
    witness_lp_distance,
)
from hcderiv.spectral import (
    _SMALLEST_NORMAL,
    ClassParams,
    class_norm,
    mixed_derivative_coeffs,
    parseval_l2_norm,
    sup_norm_on_grid,
    synth_eval,
)
from hcderiv.truncation import SelectionInput, select_parameters

CLS = ClassParams(2, 3)


def test_construction_example():
    w = build_witness_pair(4, 1, 1, CLS)
    assert w.c_tilde == pytest.approx((1 + 4096) ** -0.5, rel=1e-12)
    assert w.c_tilde == pytest.approx(0.0156231, rel=1e-4)
    assert w.selected_k == (5, 6, 7, 8)
    value = w.c_tilde * 4 ** (-3.5)
    for k in (5, 6, 7, 8):
        assert w.f1.array[k, 1] == pytest.approx(value, rel=1e-14)
    assert np.array_equal(w.f2.array, [[w.c_tilde]])
    assert w.f1.array[0, 0] == w.f2.array[0, 0]


def test_exclusion_shifts_selection():
    # the cross holds (5, 1) but no other slot of the band [5, 13]
    w = build_witness_pair(4, 1, 1, CLS, cross=build_cross(5, 1, 1, 1))
    assert w.selected_k == (6, 7, 8, 9)


def test_infeasible_when_band_blocked():
    # the cross holds (k, 1) for every k of the band [5, 13]
    with pytest.raises(WitnessInfeasibleError):
        build_witness_pair(4, 1, 1, CLS, cross=build_cross(13, 1, 1, 1))


@pytest.mark.parametrize("N", [4, 8, 16, 64])
@pytest.mark.parametrize("s,mu", [(1.0, 2.0), (2.0, 3.0), (2.0, 6.0), (1.5, 4.0)])
def test_class_norm_at_most_one(N, s, mu):
    w = build_witness_pair(N, 1, 1, ClassParams(s, mu))
    assert class_norm(w.f1, ClassParams(s, mu)) <= 1.0 + 1e-12
    assert class_norm(w.f2, ClassParams(s, mu)) <= 1.0


def test_distance_closed_form():
    w = build_witness_pair(4, 1, 1, CLS)
    assert witness_lp_distance(w, 2) == pytest.approx(w.c_tilde / 64, rel=1e-12)
    assert witness_lp_distance(w, 2) == pytest.approx(2.4411e-4, rel=1e-4)
    assert witness_lp_distance(w, math.inf) == pytest.approx(w.c_tilde * 4**-3.5, rel=1e-12)
    assert witness_lp_distance(w, 1) == pytest.approx(4 * witness_lp_distance(w, math.inf), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("N", [8, 32])
def test_distance_closed_form_general(p, N):
    cls = ClassParams(2, 4)
    w = build_witness_pair(N, 2, 2, cls)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    expected = w.c_tilde / 2**cls.mu * N ** (-cls.mu - 1 / cls.s + inv_p)
    assert witness_lp_distance(w, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_lower_bounds_pass(N):
    w = build_witness_pair(N, 1, 1, CLS)
    rep_c = verify_lower_bound_C(w)
    rep_l2 = verify_lower_bound_L2(w)
    assert rep_c.passed and rep_l2.passed
    assert rep_c.ratio <= 10.0
    assert rep_l2.ratio <= 10.0


@pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("s", [1.0, 2.0])
@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_lower_bounds_pass_across_orders(r1, r2, s, N):
    cls = ClassParams(s, 2 * r1 + 2)
    w = build_witness_pair(N, r1, r2, cls)
    assert verify_lower_bound_C(w).passed
    assert verify_lower_bound_L2(w).passed


@pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1)])
@pytest.mark.parametrize("parity", ["any", "even", "odd"])
@pytest.mark.parametrize("N", [8, 64, 4096])
def test_sup_measure_is_the_corner_sum_to_roundoff(N, parity, r1, r2):
    # |f1^(r1,r2)(1, 1)| = |sum d_kj sqrt(k + 1/2) sqrt(j + 1/2)|, the sum taken
    # at 50 digits over the float64 coefficients d; a Clenshaw recurrence at
    # t = 1 is off by up to 4.7e-11 relative at N = 4096
    w = build_witness_pair(N, r1, r2, CLS, parity=parity)
    d = w.f1_derivative.array
    assert d.min() >= 0.0  # so the corner sum of |d| is the signed sum
    half = Decimal("0.5")
    with localcontext() as ctx:
        ctx.prec = 50
        exact = abs(sum(
            Decimal(v) * (k + half).sqrt() * (j + half).sqrt()
            for (k, j), v in zip(np.argwhere(d).tolist(), d[d != 0].tolist())
        ))
        error = abs(Decimal(verify_lower_bound_C(w).measured) - exact) / exact
    assert error <= Decimal("1e-15")


@pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1), (3, 2), (2, 2)])
@pytest.mark.parametrize("mu", [3.0, 6.5, 9.0])
@pytest.mark.parametrize("N, parity", [(4, "odd"), (37, "any"), (256, "even")])
def test_sup_measure_is_the_sup_norm_of_the_witness_derivative(N, parity, mu, r1, r2):
    # the derivative's coefficients are nonnegative, so its sampled sup is the corner sum
    # bit for bit; each derivative has one column, so each screen is 257 x 1
    w = build_witness_pair(N, r1, r2, ClassParams(2, mu), parity=parity)
    assert w.f1_derivative.array.shape[1] == 1
    assert verify_lower_bound_C(w).measured == sup_norm_on_grid(w.f1_derivative, 257)


def test_f2_derivative_vanishes():
    w = build_witness_pair(8, 1, 1, CLS)
    d2 = mixed_derivative_coeffs(w.f2, 1, 1)
    assert len(d2) == 0
    assert synth_eval(d2, 1.0, 1.0) == 0.0
    assert verify_lower_bound_C(dataclasses.replace(w, f1=w.f2)).measured == 0.0
    assert parseval_l2_norm(d2) == 0.0


def test_l2_measure_scales_linearly():
    w = build_witness_pair(8, 1, 1, CLS)
    band = w.f1 - w.f2
    doubled = w.f2 + band.scale(2.0)
    m1 = parseval_l2_norm(mixed_derivative_coeffs(w.f1, 1, 1))
    m2 = parseval_l2_norm(mixed_derivative_coeffs(doubled, 1, 1))
    assert m2 == pytest.approx(2 * m1, rel=1e-13)


def test_indistinguishable_off_band():
    # the cross holds (7, 1), (8, 1) and (9, 1) of the band [7, 19]
    cross = build_cross(9, 1, 1, 1)
    members = set(oracle.cross_pairs(cross))
    w = build_witness_pair(6, 1, 1, CLS, cross=cross)
    band = {(k, 1) for k in w.selected_k}
    assert band.isdisjoint(members)
    rows, cols = max(w.f1.array.shape[0], 10), max(w.f1.array.shape[1], 10)
    f1, f2 = (np.pad(g.array, [(0, rows - g.array.shape[0]), (0, cols - g.array.shape[1])])
              for g in (w.f1, w.f2))
    for idx in members | {(0, 0)}:
        assert f1[idx] == f2[idx]


def test_min_N_inversion():
    delta = witness_lp_distance(build_witness_pair(16, 1, 1, CLS), 2)
    assert min_N_for_delta(delta, 2, CLS, 1) == pytest.approx(16.0, rel=1e-9)
    # at the threshold the pair fits the budget
    w = build_witness_pair(16, 1, 1, CLS)
    assert witness_lp_distance(w, 2) <= delta * (1 + 1e-12)


def test_min_N_monotone_in_delta():
    ns = [min_N_for_delta(d, 2, CLS, 1) for d in (1e-1, 1e-3, 1e-5, 1e-8)]
    assert all(a < b for a, b in zip(ns, ns[1:]))


def test_min_N_p_ordering_both_regimes():
    # the p-ordering of thresholds flips at delta = c_tilde / r2^mu:
    # for small delta the l1 budget is the harder one (larger threshold),
    # for large delta the inequality reverses
    c_tilde = build_witness_pair(4, 1, 1, CLS).c_tilde
    small = c_tilde / 10
    assert min_N_for_delta(small, 1, CLS, 1) >= min_N_for_delta(small, math.inf, CLS, 1)
    large = min(0.9, c_tilde * 10)
    assert min_N_for_delta(large, 1, CLS, 1) <= min_N_for_delta(large, math.inf, CLS, 1)


@pytest.mark.parametrize("mu", [0.5, 0.3])
def test_min_N_refuses_a_distance_that_does_not_shrink_with_N(mu):
    # q = mu + 1/s - 1/p is 0 at mu = 0.5 (a division by zero before) and below 0 at mu = 0.3
    with pytest.raises(ValueError, match=r"q = mu \+ 1/s - 1/p must be > 0"):
        min_N_for_delta(0.1, 1, ClassParams(2, mu), 1)


def test_parity_skewed_selection():
    even = build_witness_pair(6, 1, 1, CLS, parity="even")
    odd = build_witness_pair(6, 1, 1, CLS, parity="odd")
    assert all(k % 2 == 0 for k in even.selected_k)
    assert all(k % 2 == 1 for k in odd.selected_k)
    assert verify_lower_bound_C(even).passed and verify_lower_bound_C(odd).passed


def test_witness_for_cross_avoids_cross():
    cross = build_cross(40.0, 1.0, 1, 1)
    delta = 1e-3
    w = witness_for_cross(cross, delta, 2, CLS)
    band = {(k, 1) for k in w.selected_k}
    assert not any(idx in cross for idx in band)
    assert witness_lp_distance(w, 2) <= delta * (1 + 1e-12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.floats(1.0, 3e4),
    gamma=st.floats(1.0, 4.0),
    r2=st.integers(1, 6),
    extra=st.integers(0, 4),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    s=st.floats(1.0, 10.0),
    mu=st.floats(0.01, 20.0),
)
def test_witness_for_cross_never_meets_an_infeasible_band(n, gamma, r2, extra, delta, p, s, mu):
    """A pair, or a ValueError other than ``WitnessInfeasibleError``.

    With K the cross's k extent, ``witness_for_cross`` takes N >= (K - r1) / 2 + 1.  The top
    N rows of the band [N + r1, 3N + r1] start at 2N + r1 + 1 >= K + 3, past every row of
    the cross, so at least N band rows are admissible and the band is never infeasible.
    """
    cross = build_cross(n, gamma, r2 + extra, r2)
    with pytest.MonkeyPatch.context() as patch:
        # keeps the witness arrays below 8 MB; a larger one is refused with a ValueError
        patch.setattr(spectral, "_MAX_GRID_CELLS", 2**20)
        try:
            w = witness_for_cross(cross, delta, p, ClassParams(s, mu))
        except ValueError as exc:
            assert not isinstance(exc, WitnessInfeasibleError)
            return
    assert 2 * w.N + w.r1 + 1 >= cross.k_extent() + 3
    assert not any((k, r2) in cross for k in w.selected_k)


def test_witness_validation():
    with pytest.raises(ValueError):
        build_witness_pair(0, 1, 1, CLS)
    with pytest.raises(ValueError):
        build_witness_pair(4, 0, 1, CLS)
    with pytest.raises(ValueError):
        build_witness_pair(4, 1, 1, CLS, parity="sideways")
    # f1 would need a (3 * 2**40 + 2) x 2 array
    with pytest.raises(ValueError, match="exceeds the limit of 67108864 cells"):
        build_witness_pair(2**40, 1, 1, CLS)


@pytest.mark.parametrize("s, mu", [(1.0, 2.0), (2.0, 3.0), (1.5, 4.0), (2.0, 200.0), (1.0, 511.0)])
def test_c_tilde_keeps_the_direct_form_where_it_is_finite(s, mu):
    assert _c_tilde(ClassParams(s, mu)) == (1.0 + 4.0 ** (s * mu)) ** (-1.0 / s)


@pytest.mark.parametrize("s, mu", [(2.0, 300.0), (1.0, 512.0), (3.0, 250.0)])
def test_c_tilde_factors_out_4_to_the_mu_where_the_direct_form_overflows(s, mu):
    with pytest.raises(OverflowError):
        4.0 ** (s * mu)
    # 4^-(s mu) is below half an ulp of 1, so c_tilde is 4^-mu, a power of two
    assert _c_tilde(ClassParams(s, mu)) == 2.0 ** (-2 * mu)


@pytest.mark.parametrize("r1, r2", [(90, 90), (200, 150), (300, 300)])
def test_witness_constants_past_the_direct_form_match_exact_arithmetic(r1, r2):
    # (2 r2)! is past the double range, so c_bar and c_dbar are taken in log form
    w = build_witness_pair(4, r1, r2, ClassParams(2.0, 3.0))
    with localcontext() as ctx:
        ctx.prec = 50

        def exact(twos, m):
            scale = Decimal(w.c_tilde) * Decimal(r2 + 0.5).sqrt()
            scale /= Decimal(2) ** Decimal(twos) * Decimal(r2) ** 3
            return float(scale * math.factorial(2 * r2) / (math.factorial(m) * math.factorial(r2)))

        expected = [exact(r1 + r2, r1), exact(3 * r1 + r2 - 1.5, r1 - 1)]
    assert all(0.0 < value < math.inf for value in expected)
    assert [w.c_bar, w.c_dbar] == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("N, r1, r2, s, mu", [
    # N^exponent overflows, and the bound of each metric does not
    (64, 88, 10, 2.0, 3.0),
    # N^exponent underflows to 0.0 and the bound does not; no witness pair reaches these
    # orders at this N and mu, since r2^mu takes the band value below the double range first
    (64, 109, 773, 10.0, 470.0),
    # N^exponent is subnormal and the bound is a normal double: the direct product would be
    # 2.4e-7 off, for the factor has lost bits; no witness pair reaches these inputs either
    (64, 109, 690, 10.0, 395.0),
])
def test_bounds_past_the_direct_form_match_exact_arithmetic(N, r1, r2, s, mu):
    cls = ClassParams(s, mu)
    c_tilde = _c_tilde(cls)
    # the bound reads only N, the orders, s, mu and the constant, so a small pair is relabelled
    w = dataclasses.replace(
        build_witness_pair(1, 1, 1, cls), N=N, r1=r1, r2=r2,
        c_bar=_bound_constant(c_tilde, r2, mu, r1 + r2, r1),
        c_dbar=_bound_constant(c_tilde, r2, mu, 3 * r1 + r2 - 1.5, r1 - 1),
    )
    for metric, constant, extra in (("c", w.c_bar, 1.5), ("l2", w.c_dbar, 0.5)):
        exponent = -mu + 2 * r1 - 1.0 / s + extra
        try:
            direct = N**exponent
        except OverflowError:
            direct = math.inf
        assert not _SMALLEST_NORMAL <= direct < math.inf
        with localcontext() as ctx:
            ctx.prec = 50
            expected = float(Decimal(constant) * Decimal(N) ** Decimal(exponent))
        assert 0.0 < expected < math.inf
        # abs=0: approx's default absolute tolerance, 1e-12, would pass any bound this small
        assert _bound(w, metric) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("delta, p, mu, r2", [
    (1e-3, 2.0, 110.0, 1000),  # r2^mu overflows
    (1e-3, math.inf, 400.0, 2),  # r2^mu delta / c_tilde is about 2^1190
])
def test_thresholds_past_the_direct_form_match_exact_arithmetic(delta, p, mu, r2):
    cls = ClassParams(2.0, mu)
    q = mu + 1.0 / cls.s - 1.0 / p
    with localcontext() as ctx:
        ctx.prec = 50
        base = Decimal(r2) ** Decimal(mu) * Decimal(delta) / Decimal(_c_tilde(cls))
        expected = float(base ** (Decimal(-1) / Decimal(q)))
    assert base > Decimal(2) ** 1024
    assert 0.0 < expected < math.inf
    assert min_N_for_delta(delta, p, cls, r2) == pytest.approx(expected, rel=1e-12)


def test_values_below_the_double_range_are_refused():
    with pytest.raises(ValueError, match=r"^c_tilde underflows to 0.0 at s=2.0, mu=600.0$"):
        _c_tilde(ClassParams(2.0, 600.0))
    with pytest.raises(ValueError, match="band value underflows to 0.0 at N=4, s=2.0, mu=300.0"):
        build_witness_pair(4, 1, 1, ClassParams(2.0, 300.0))
    w = build_witness_pair(2, 1, 1, ClassParams(2.0, 300.0))
    assert verify_lower_bound_C(w).passed and verify_lower_bound_L2(w).passed
    # at r1 = 40 and N = 4, the bound's 1 / (2^r1 r1!) makes it about 2^-36 times the band value
    w = build_witness_pair(4, 40, 1, ClassParams(2.0, 260.0))
    line = "^the lower bound of metric c underflows to 0.0 at N=4, r1=40, r2=1, s=2.0, mu=260.0$"
    with pytest.raises(ValueError, match=line):
        verify_lower_bound_C(w)


def _outcome(f, *args):
    """f(*args), or the line of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _bound(w, metric):
    """The lower bound that ``_report`` compares with, taken beside an empty derivative."""
    constant, extra = (w.c_bar, 1.5) if metric == "c" else (w.c_dbar, 0.5)
    return _report(dataclasses.replace(w, f1=w.f2), metric, constant, extra, lambda d: 0.0).bound


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    N=st.integers(1, 64),
    r1=st.integers(1, 1000),
    r2=st.integers(1, 1000),
    s=st.one_of(st.floats(1.0, 10.0), st.floats(1.0, 1e8)),
    mu=st.one_of(st.floats(0.01, 20.0), st.floats(0.01, 5000.0)),
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    delta=st.one_of(
        st.floats(5e-324, 1.0, exclude_max=True), st.floats(-323.3, -1e-3).map(lambda e: 10.0**e)
    ),
)
# (2 r2)! = 170! is a double and 172! is past the double range
@example(N=4, r1=1, r2=85, s=2.0, mu=3.0, p=2.0, delta=1e-3)
@example(N=4, r1=1, r2=86, s=2.0, mu=3.0, p=2.0, delta=1e-3)
# 4^(s mu) = 2^1022 is a double and 2^1024 is past the double range
@example(N=4, r1=1, r2=1, s=1.0, mu=511.0, p=2.0, delta=1e-3)
@example(N=4, r1=1, r2=1, s=1.0, mu=512.0, p=2.0, delta=1e-3)
def test_the_range_rule_gives_the_bits_or_the_refusal_of_the_per_site_checks(
    N, r1, r2, s, mu, p, delta
):
    # the per-site code of dict_oracle gives each value, or the line that refuses it; only the
    # bound's underflow line has changed, gaining the r1 and r2 that its overflow line names
    cls = ClassParams(s, mu)
    c_tilde = _outcome(oracle.c_tilde, cls)
    assert _outcome(_c_tilde, cls) == c_tilde
    assert _outcome(min_N_for_delta, delta, p, cls, r2) == _outcome(
        oracle.min_N_for_delta, delta, p, cls, r2
    )
    for metric in ("l2", "c"):
        si = SelectionInput(delta, p, cls, max(r1, r2), min(r1, r2), metric)
        assert _outcome(select_parameters, si) == _outcome(oracle.select_parameters, si)
    if isinstance(c_tilde, str):
        return
    value = _outcome(oracle.band_value, c_tilde, N, r2, cls)
    w = _outcome(build_witness_pair, N, r1, r2, cls)
    if isinstance(value, str):
        assert w == value
        return
    assert w.f1.array[w.selected_k[0], r2] == value
    c_bar = oracle.bound_constant(c_tilde, r2, mu, r1 + r2, r1)
    c_dbar = oracle.bound_constant(c_tilde, r2, mu, 3 * r1 + r2 - 1.5, r1 - 1)
    assert (w.c_bar, w.c_dbar) == (c_bar, c_dbar)
    for metric, constant, extra in (("c", c_bar, 1.5), ("l2", c_dbar, 0.5)):
        bound = _outcome(oracle.lower_bound, metric, constant, extra, N, r1, r2, cls)
        if isinstance(bound, str):
            bound = bound.replace(f"at N={N}, s=", f"at N={N}, r1={r1}, r2={r2}, s=")
        assert _outcome(_bound, w, metric) == bound
