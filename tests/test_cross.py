import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcderiv.cross import build_cross, dump_cross
from hcderiv.lowerbound import build_witness_pair
from hcderiv.spectral import ClassParams, CoeffGrid, mixed_derivative_coeffs, restrict_to_cross

GUARD = 1.0 + 1e-12


def brute_force(n, gamma, r1, r2):
    """Rectangle scan with the guarded membership predicate."""
    top = int(math.ceil(n)) + 1
    out = set()
    for k in range(r1, top + 1):
        for j in range(r2, top + 1):
            if k * j**gamma <= n * GUARD:
                out.add((k, j))
    return out


def test_example_n4():
    cross = build_cross(4, 1, 1, 1)
    expected = {(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)}
    assert set(cross.indices) == expected
    assert len(cross) == 8


def test_example_n6_r2():
    cross = build_cross(6, 1, 2, 1)
    expected = {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)}
    assert set(cross.indices) == expected
    assert len(cross) == 8


def test_empty_below_minimal_product():
    assert len(build_cross(0.5, 1, 1, 1)) == 0
    assert len(build_cross(3.9, 2, 2, 1)) == 2  # k=2,3 with j=1 only


def test_divisor_sum_cardinality():
    cross = build_cross(100, 1, 1, 1)
    assert len(cross) == 482
    assert len(cross) == sum(100 // k for k in range(1, 101))


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
def test_enumeration_matches_brute_force(gamma):
    for n in range(1, 201):
        cross = build_cross(float(n), gamma, 1, 1)
        assert set(cross.indices) == brute_force(n, gamma, 1, 1), (n, gamma)


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("r1,r2", [(2, 1), (3, 2), (2, 2)])
def test_enumeration_matches_brute_force_offsets(gamma, r1, r2):
    for n in (3.0, 7.5, 20.0, 63.2, 120.0):
        cross = build_cross(n, gamma, r1, r2)
        assert set(cross.indices) == brute_force(n, gamma, r1, r2)


def test_guard_includes_rounded_boundaries():
    # a boundary that is an exact integer up to rounding stays included
    cross = build_cross(2.9999999999999996, 1.0, 1, 1)
    assert (1, 3) in cross
    assert (3, 1) in cross


@settings(max_examples=40, deadline=None)
@given(
    n1=st.floats(min_value=1, max_value=150),
    n2=st.floats(min_value=1, max_value=150),
    gamma=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_monotone_in_n(n1, n2, gamma):
    lo, hi = sorted((n1, n2))
    small = build_cross(lo, gamma, 1, 1)
    large = build_cross(hi, gamma, 1, 1)
    assert set(small.indices) <= set(large.indices)


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_cardinality_growth(n):
    ratio = len(build_cross(n, 1, 1, 1)) / (n * math.log(n))
    assert 0.5 <= ratio <= 2.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_cross(4, 0.9, 1, 1)
    with pytest.raises(ValueError):
        build_cross(4, 1.0, 0, 1)
    with pytest.raises(ValueError):
        build_cross(-1.0, 1.0, 1, 1)


def test_extents():
    cross = build_cross(10, 2, 1, 1)
    assert cross.k_extent() == 10
    assert cross.j_extent() == 3  # floor(10 ** 0.5)


def test_dump_format():
    cross = build_cross(2, 1, 1, 1)
    text = dump_cross(cross)
    lines = text.splitlines()
    assert lines[0] == "# cross v1 n=2.0 gamma=1.0 r1=1 r2=1"
    assert lines[1:] == ["1\t1", "1\t2", "2\t1"]


def test_radius_shaped_inputs_stay_small():
    # the largest radius sweep point: a cross of about 161k pairs restricts a
    # one-entry grid, and the N = 4096 witness has a 12290 x 2 band; the dict
    # representation of the cross alone took about 25 MB here, the row limits
    # and dense arrays take about 1 MB
    tracemalloc.start()
    try:
        cross = build_cross(16384, 1, 1, 1)
        kept = restrict_to_cross(CoeffGrid(np.ones((1, 1))), cross)
        w = build_witness_pair(4096, 1, 1, ClassParams(2, 3))
        deriv = mixed_derivative_coeffs(w.f1, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(kept) == 0 and len(deriv) > 0
    # pairs k * j <= n counted per k with exact integer division
    assert len(cross) == sum(16384 // k for k in range(1, 16385))
    assert "indices" not in vars(cross)
