import math

import numpy as np
import pytest

from hcderiv.cross import build_cross
from hcderiv.lowerbound import (
    WitnessInfeasibleError,
    build_witness_pair,
    min_N_for_delta,
    verify_lower_bound_C,
    verify_lower_bound_L2,
    witness_for_cross,
    witness_lp_distance,
)
from hcderiv.spectral import (
    ClassParams,
    class_norm,
    mixed_derivative_coeffs,
    parseval_l2_norm,
    synth_eval,
)

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
    w = build_witness_pair(4, 1, 1, CLS, excluded={(5, 1)})
    assert w.selected_k == (6, 7, 8, 9)


def test_infeasible_when_band_blocked():
    excluded = {(k, 1) for k in range(5, 14)}
    with pytest.raises(WitnessInfeasibleError):
        build_witness_pair(4, 1, 1, CLS, excluded=excluded)


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


def test_f2_derivative_vanishes():
    w = build_witness_pair(8, 1, 1, CLS)
    d2 = mixed_derivative_coeffs(w.f2, 1, 1)
    assert len(d2) == 0
    assert synth_eval(d2, 1.0, 1.0) == 0.0
    assert parseval_l2_norm(d2) == 0.0


def test_l2_measure_scales_linearly():
    w = build_witness_pair(8, 1, 1, CLS)
    band = w.f1 - w.f2
    doubled = w.f2 + band.scale(2.0)
    m1 = parseval_l2_norm(mixed_derivative_coeffs(w.f1, 1, 1))
    m2 = parseval_l2_norm(mixed_derivative_coeffs(doubled, 1, 1))
    assert m2 == pytest.approx(2 * m1, rel=1e-13)


def test_indistinguishable_off_band():
    excluded = {(7, 1), (9, 1)}
    w = build_witness_pair(6, 1, 1, CLS, excluded=excluded)
    band = {(k, 1) for k in w.selected_k}
    assert band.isdisjoint(excluded)
    rows, cols = max(w.f1.array.shape[0], 10), max(w.f1.array.shape[1], 4)
    f1, f2 = (np.pad(g.array, [(0, rows - g.array.shape[0]), (0, cols - g.array.shape[1])])
              for g in (w.f1, w.f2))
    for idx in excluded | {(0, 0), (3, 3)}:
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


def test_witness_validation():
    with pytest.raises(ValueError):
        build_witness_pair(0, 1, 1, CLS)
    with pytest.raises(ValueError):
        build_witness_pair(4, 0, 1, CLS)
    with pytest.raises(ValueError):
        build_witness_pair(4, 1, 1, CLS, parity="sideways")
