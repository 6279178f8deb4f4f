import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_oracle as oracle
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
    assert set(oracle.cross_pairs(cross)) == expected
    assert len(cross) == 8


def test_example_n6_r2():
    cross = build_cross(6, 1, 2, 1)
    expected = {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)}
    assert set(oracle.cross_pairs(cross)) == expected
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
        assert set(oracle.cross_pairs(cross)) == brute_force(n, gamma, 1, 1), (n, gamma)


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("r1,r2", [(2, 1), (3, 2), (2, 2)])
def test_enumeration_matches_brute_force_offsets(gamma, r1, r2):
    for n in (3.0, 7.5, 20.0, 63.2, 120.0):
        cross = build_cross(n, gamma, r1, r2)
        assert set(oracle.cross_pairs(cross)) == brute_force(n, gamma, r1, r2)


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
    assert set(oracle.cross_pairs(small)) <= set(oracle.cross_pairs(large))


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
    # rows below r1 hold r2 - 1 in int64
    with pytest.raises(ValueError, match=r"r1 and r2 must lie in \[1, 9223372036854775807\]"):
        build_cross(10.0, 1.0, 2**63, 2**63)


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
    # the benchmark radius sweep's largest point selects n = 16384, whose cross of
    # about 161k pairs restricts a one-entry grid (the study itself no longer
    # builds it), and the N = 4096 witness has a 12290 x 2 band; the dict
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


def test_dump_cross_stays_near_the_size_of_its_text():
    # the pairs of one block of lines at a time are found from the row limits
    # and written by numpy: about 2.3x the text size here, and 2.2x at n = 2e5
    cross = build_cross(2e4, 1, 1, 1)
    tracemalloc.start()
    try:
        text = dump_cross(cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + len(cross)
    assert peak < 6 * len(text)


def test_build_cross_peak_stays_near_its_row_limits():
    # the rows are computed a block of 2**16 at a time, so beside jmax (32 MiB
    # here) only one block of float temporaries exists: about 1.05x jmax; a
    # Python list of one int per row took 2.05x
    tracemalloc.start()
    try:
        cross = build_cross(2**22, 1, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cross.jmax) == 2**22 + 1
    assert peak <= 1.25 * cross.jmax.nbytes
