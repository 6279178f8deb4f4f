import itertools
import math
import re

import numpy as np
import pytest

import dict_oracle as oracle
from dict_oracle import scatter
from hcderiv.cross import build_cross
from hcderiv.quadrature import compute_coeff_grid
from hcderiv.spectral import ClassParams, CoeffGrid, mixed_derivative_coeffs
from hcderiv.truncation import (
    AdmissibilityError,
    SelectionInput,
    apply_method,
    gamma_intervals,
    select_parameters,
    theoretical_error_exponent,
)


def _si(delta=1e-3, p=2.0, s=2.0, mu=4.0, r1=1, r2=1, metric="l2"):
    return SelectionInput(delta=delta, p=p, cls=ClassParams(s, mu), r1=r1, r2=r2, metric=metric)


# ---------------------------------------------------------------------------
# selection

def test_equal_orders_selection():
    sel = select_parameters(_si(delta=1e-5, mu=5.0))
    assert sel.gamma == 1.0
    assert sel.n == pytest.approx(10.0, rel=1e-12)
    assert sel.case_label == "equal-orders"


def test_equal_orders_log_factor():
    # p != s brings a log factor into n
    delta = 1e-4
    sel = select_parameters(_si(delta=delta, p=1.0, s=2.0, mu=5.0))
    q = 5.0 - 1.0 + 0.5
    expected = (delta / math.log(1 / delta) ** (1.0 - 0.5)) ** (-1.0 / q)
    assert sel.n == pytest.approx(expected, rel=1e-12)


def test_unequal_orders_selection():
    sel = select_parameters(_si(delta=1e-4, mu=6.0, r1=2, r2=1))
    assert sel.n == pytest.approx((1e-4) ** (-1 / 6), rel=1e-12)
    assert sel.gamma == pytest.approx(7 / 6, rel=1e-12)
    assert sel.case_label == "l2-unequal-orders"


def test_admissibility_errors():
    with pytest.raises(AdmissibilityError):
        select_parameters(_si(mu=2.0, metric="l2"))  # need mu > 2
    with pytest.raises(AdmissibilityError):
        select_parameters(_si(mu=3.0, metric="c"))  # need mu > 3
    with pytest.raises(AdmissibilityError):
        theoretical_error_exponent(_si(mu=1.9, metric="l2"))
    # boundaries are strict
    with pytest.raises(AdmissibilityError):
        gamma_intervals(_si(mu=2.0, metric="l2"))


def test_an_empty_clean_interval_is_an_input_error():
    # every exceptional point of the (3, 1) rule rounds to 1.0 at mu = 1e17; at 1e16 one lies 4 ulp above
    assert select_parameters(_si(mu=1e16, r1=3, r2=1)).gamma == 1.0000000000000002
    message = "no clean gamma interval above 1 at mu=1e+17, r1=3, r2=1"
    for metric in ("l2", "c"):
        with pytest.raises(ValueError, match=re.escape(message)):
            select_parameters(_si(mu=1e17, r1=3, r2=1, metric=metric))


def test_orders_past_the_int64_range_are_refused():
    with pytest.raises(ValueError, match="orders must be <= 9223372036854775807"):
        select_parameters(_si(mu=1e300, r1=2**63, r2=1))


def test_selection_monotone_in_delta():
    for p, s in [(2.0, 2.0), (1.0, 2.0), (math.inf, 1.5)]:
        deltas = [0.9, 0.5, 1 / math.e, 0.3, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8]
        ns = [select_parameters(_si(delta=d, p=p, s=s, mu=5.0)).n for d in deltas]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(ns, ns[1:]))


def test_selected_gamma_lies_in_clean_interval():
    cases = [
        _si(mu=6.0, r1=2, r2=1, metric="l2"),
        _si(mu=8.0, r1=3, r2=1, metric="l2"),
        _si(mu=7.0, r1=2, r2=1, metric="c"),
        _si(mu=9.0, r1=3, r2=1, metric="c"),
    ]
    for si in cases:
        sel = select_parameters(si)
        hit = [r for r in gamma_intervals(si) if r.contains(sel.gamma)]
        assert len(hit) == 1
        assert hit[0].log_exponent == 0.0 and not hit[0].is_point


# ---------------------------------------------------------------------------
# gamma intervals

def test_gamma_intervals_l2_example():
    regions = gamma_intervals(_si(mu=6.0, r1=2, r2=1, metric="l2"))
    # endpoints 4/3, 5/3, 2 with half-log points at 4/3 and 2
    points = [r for r in regions if r.is_point]
    intervals = [r for r in regions if not r.is_point]
    assert [r.lo for r in points] == pytest.approx([4 / 3, 5 / 3, 2.0], rel=1e-12)
    assert [r.log_exponent for r in points] == pytest.approx([0.5, 0.5, 0.5])
    assert [(r.lo, r.hi) for r in intervals] == pytest.approx(
        [(1.0, 4 / 3), (4 / 3, 5 / 3), (5 / 3, 2.0)], rel=1e-12
    )
    assert all(r.log_exponent == 0.0 for r in intervals)
    # the middle exceptional point carries ln^(1 - 1/s), here 1/2
    assert points[1].log_exponent == pytest.approx(1.0 - 1.0 / 2.0)


def test_gamma_intervals_equal_orders():
    regions = gamma_intervals(_si(mu=4.0, metric="l2"))
    assert len(regions) == 1
    assert regions[0].is_point and regions[0].lo == 1.0
    assert regions[0].log_exponent == pytest.approx(1.5 - 0.5)
    regions_c = gamma_intervals(_si(mu=4.0, metric="c"))
    assert regions_c[0].log_exponent == pytest.approx(2.0 - 0.5)


def test_gamma_intervals_c_adjacent_orders():
    si = _si(mu=7.0, r1=2, r2=1, metric="c")
    regions = gamma_intervals(si)
    a = 7.0 - 4.0 + 0.5
    e1 = (a + 2.5) / (a + 0.5)
    e2 = (a + 0.5) / (a - 1.5)
    assert regions[0].is_point and regions[0].lo == 1.0 and regions[0].log_exponent == 1.0
    assert (regions[1].lo, regions[1].hi) == pytest.approx((1.0, e1))
    assert regions[1].lo_open
    assert regions[2].is_point and regions[2].lo == pytest.approx(e1)
    assert regions[2].log_exponent == pytest.approx(0.5)
    assert (regions[3].lo, regions[3].hi) == pytest.approx((e1, e2))
    assert regions[4].is_point and regions[4].log_exponent == 1.0


def test_gamma_intervals_c_separated_orders():
    si = _si(mu=9.0, r1=3, r2=1, metric="c")
    regions = gamma_intervals(si)
    a = 9.0 - 6.0 + 0.5
    b = 9.0 - 2.0 + 0.5
    h1 = (b - 1.5) / (a + 0.5)
    h2 = (b + 0.5) / (a + 0.5)
    h3 = (b - 1.5) / (a - 1.5)
    assert (regions[0].lo, regions[0].hi) == pytest.approx((1.0, h1))
    assert not regions[0].lo_open
    assert [r.lo for r in regions if r.is_point] == pytest.approx([h1, h2, h3])
    assert [r.log_exponent for r in regions if r.is_point] == pytest.approx([1.0, 0.5, 1.0])


def test_gamma_intervals_tile_without_overlap():
    for si in (
        _si(mu=6.0, r1=2, r2=1, metric="l2"),
        _si(mu=7.0, r1=2, r2=1, metric="c"),
        _si(mu=9.0, r1=3, r2=1, metric="c"),
    ):
        regions = gamma_intervals(si)
        assert all(a.hi == b.lo or a.lo == b.lo for a, b in zip(regions, regions[1:]))
        # strictly increasing region anchors, all at or above 1
        assert regions[0].lo == 1.0
        for a, b in zip(regions, regions[1:]):
            assert b.hi >= a.hi


# ---------------------------------------------------------------------------
# exponents

def test_theoretical_exponent_examples():
    assert theoretical_error_exponent(_si(mu=4.0, metric="l2")) == pytest.approx(0.5)
    assert theoretical_error_exponent(_si(mu=4.0, metric="c")) == pytest.approx(0.25)


def test_theoretical_exponent_monotone_in_mu():
    lo = theoretical_error_exponent(_si(mu=4.0))
    hi = theoretical_error_exponent(_si(mu=6.0))
    assert hi > lo


# ---------------------------------------------------------------------------
# forced gamma

def test_forced_gamma_on_exceptional_point_adjusts_n():
    si = _si(delta=1e-4, mu=6.0, r1=2, r2=1, metric="l2")
    q = 6.0
    sel = select_parameters(si, forced_gamma=4 / 3)
    expected = (1e-4 / math.log(1e4) ** 0.5) ** (-1 / q)
    assert sel.n == pytest.approx(expected, rel=1e-12)
    assert sel.case_label.endswith("-exceptional")


def test_forced_gamma_clean_keeps_power_law_n():
    si = _si(delta=1e-4, mu=6.0, r1=2, r2=1, metric="l2")
    sel = select_parameters(si, forced_gamma=1.1)
    assert sel.n == pytest.approx((1e-4) ** (-1 / 6), rel=1e-12)
    assert sel.case_label.endswith("-forced")


@pytest.mark.parametrize(
    "r1,r2,metric", [(1, 1, "l2"), (2, 1, "l2"), (2, 1, "c"), (3, 1, "c"), (4, 2, "c")]
)
@pytest.mark.parametrize("s,extra", [(2.0, 5.0), (1.5, 1.6), (1.0, 3.0)])
def test_forced_gamma_within_the_tolerance_of_a_point_takes_the_point_from_either_side(
    r1, r2, metric, s, extra
):
    si = _si(delta=1e-4, s=s, mu=2 * r1 + extra, r1=r1, r2=r2, metric=metric)
    for point in (r.lo for r in gamma_intervals(si) if r.is_point):
        on = select_parameters(si, forced_gamma=point)
        for gamma in (point * (1 - 5e-10), point * (1 + 5e-10)):
            if gamma >= 1:
                near = select_parameters(si, forced_gamma=gamma)
                assert (near.n, near.case_label) == (on.n, on.case_label)


def test_forced_gamma_below_one_rejected():
    with pytest.raises(ValueError):
        select_parameters(_si(), forced_gamma=0.5)


def _outcome(call):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("metric", ["l2", "c"])
@pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1), (3, 1), (4, 2)])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_rule_matches_the_branch_per_case_reference(metric, r1, r2, p):
    labels = set()
    for s, mu, delta in itertools.product(
        (2.0, 1.5, 1.0), (2 * r1 + 1.6, 2 * r1 + 3.0, 2 * r1 + 5.5), (0.5, 1e-3, 1e-9)
    ):
        si = _si(delta=delta, p=p, s=s, mu=mu, r1=r1, r2=r2, metric=metric)
        regions = oracle.gamma_intervals(si)
        assert gamma_intervals(si) == regions
        # the default, gamma = 1, every point and midpoint, each point's relative 5e-10
        # neighbours, one past the top, and one below 1
        forced = [None, 1.0, *(r.lo if r.is_point else 0.5 * (r.lo + r.hi) for r in regions)]
        forced += [r.lo * f for r in regions if r.is_point for f in (1 - 5e-10, 1 + 5e-10)]
        for gamma in forced + [1.5 * regions[-1].hi, 0.5]:
            sel = _outcome(lambda: select_parameters(si, forced_gamma=gamma))
            assert sel == _outcome(lambda: oracle.select_parameters(si, forced_gamma=gamma))
            labels.add(getattr(sel, "case_label", None))
    if r1 > r2:
        assert {label.rsplit("-", 1)[-1] for label in labels if label} == {
            "orders", "forced", "exceptional"
        }
    # an inadmissible class fails the same way in both
    si = _si(mu=2 * r1 - 0.5, r1=r1, r2=r2, metric=metric)
    assert _outcome(lambda: gamma_intervals(si)) == _outcome(lambda: oracle.gamma_intervals(si))
    assert _outcome(lambda: select_parameters(si, 0.5)) == _outcome(
        lambda: oracle.select_parameters(si, 0.5)
    )


# ---------------------------------------------------------------------------
# the method

def test_method_params_validation():
    with pytest.raises(ValueError, match=r"orders must satisfy r1 >= r2 >= 1, got \(1, 2\)"):
        apply_method(CoeffGrid(), build_cross(4, 1, 1, 2))
    with pytest.raises(ValueError):
        build_cross(4.0, 0.5, 1, 1)
    with pytest.raises(ValueError):
        build_cross(0.0, 1.0, 1, 1)


def test_apply_method_exact_on_covered_polynomial():
    grid = compute_coeff_grid(lambda t, u: t**3 * u**2 + t * u, 6, m=16)
    out = apply_method(grid, build_cross(50.0, 1.0, 1, 1))
    assert out == mixed_derivative_coeffs(grid, 1, 1)


def test_apply_method_single_mode():
    out = apply_method(CoeffGrid(scatter({(1, 1): 1.0})), build_cross(1.0, 1.0, 1, 1))
    assert out.array.shape == (1, 1)
    assert out.array[0, 0] == pytest.approx(3.0)


def test_apply_method_outside_cross_is_empty():
    c = CoeffGrid(scatter({(8, 8): 1.0, (12, 3): -2.0}))
    out = apply_method(c, build_cross(5.0, 1.0, 1, 1))
    assert len(out) == 0


def test_error_decomposition_recombines():
    rng = np.random.Generator(np.random.Philox(key=51))
    entries = {
        (int(k), int(j)): float(v)
        for k, j, v in zip(
            rng.integers(0, 15, 40), rng.integers(0, 15, 40), rng.standard_normal(40)
        )
    }
    c = CoeffGrid(scatter(entries))
    xi = CoeffGrid(scatter(
        {(int(k), int(j)): 1e-3 * float(v)
         for k, j, v in zip(rng.integers(0, 15, 20), rng.integers(0, 15, 20),
                            rng.standard_normal(20))}
    ))
    c_delta = c - xi
    cross = build_cross(8.0, 1.0, 1, 1)
    exact = mixed_derivative_coeffs(c, 1, 1)
    a = apply_method(c, cross)
    b = apply_method(c_delta, cross)
    truncation_part = exact - a
    noise_part = a - b
    total = exact - b
    recombined = truncation_part + noise_part
    rows, cols = np.max([g.array.shape for g in (recombined, total, a)], axis=0)
    r, t, kept = (np.pad(g.array, [(0, rows - g.array.shape[0]), (0, cols - g.array.shape[1])])
                  for g in (recombined, total, a))
    assert not np.any((r != 0) & (t == 0) & (kept == 0))
    scale = np.max(np.abs(exact.array))
    assert np.all(np.abs(r - t) <= 1e-14 * scale)