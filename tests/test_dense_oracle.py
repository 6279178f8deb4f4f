"""The dense array core against the dict reference implementation.

Every comparison is exact (``==`` on floats, byte equality on text):
the array kernels add the same terms in the same order as the dict
loops they replaced, so nothing may move even in the last bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_oracle as oracle
from hcderiv.cross import build_cross, dump_cross
from hcderiv.harness import DecayProfile, synthesize_class_function
from hcderiv.legendre import clenshaw_eval, eval_phi, muller_differentiate_iterated
from hcderiv.lowerbound import build_witness_pair
from hcderiv.noise import NoiseSpec, _sphere_noise
from hcderiv.spectral import (
    ClassParams,
    CoeffGrid,
    dump_grid,
    mixed_derivative_coeffs,
    parse_grid,
    parseval_l2_norm,
    restrict_to_cross,
    synth_eval,
)

VALUES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
POINTS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def entries(draw, extent=14):
    """Entries on a random subset of rows and columns, so interior rows and
    columns of the dense array are often all zero; some values are zero."""
    rows = draw(st.lists(st.integers(0, extent), min_size=1, max_size=5, unique=True))
    cols = draw(st.lists(st.integers(0, extent), min_size=1, max_size=5, unique=True))
    keys = st.tuples(st.sampled_from(rows), st.sampled_from(cols))
    return draw(st.dictionaries(keys, VALUES | st.just(0.0), max_size=20))


def _same(dense: CoeffGrid, ref: oracle.CoeffGrid) -> bool:
    return (
        np.array_equal(dense.array, oracle.scatter(ref.to_dict()))
        and len(dense) == len(ref)
        and dense.max_index() == ref.max_index()
        and dump_grid(dense) == oracle.dump_grid(ref)
    )


EMPTY = {}
LONE = {(0, 0): 1.5}


@settings(max_examples=60, deadline=None)
@given(entries())
@example(EMPTY)
@example(LONE)
def test_construction_and_text_match(e):
    dense, ref = CoeffGrid(oracle.scatter(e)), oracle.CoeffGrid(e)
    assert _same(dense, ref)
    assert dense.values().tolist() == ref.values().tolist()
    assert parseval_l2_norm(dense) == oracle.parseval_l2_norm(ref)


# entry lists as a grid file may hold them: repeated and negative indices,
# zero, nan and infinite values
FILE_INDICES = st.tuples(st.integers(-2, 6), st.integers(-2, 6))
FILE_VALUES = VALUES | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FILE_INDICES, FILE_VALUES), max_size=12))
@example([])
@example([((0, 0), 0.0), ((0, 0), 1.0)])
@example([((0, 0), 1.0), ((0, 0), 0.0)])
@example([((-1, 0), 0.0)])
@example([((2, 3), math.nan)])
def test_grid_files_accepted_and_rejected_as_entries(items):
    text = oracle.GRID_HEADER + "\n" + "".join(f"{k}\t{j}\t{v!r}\n" for (k, j), v in items)
    try:
        ref = oracle.CoeffGrid(items)
    except ValueError:
        ref = None
    # the oracle only notices a repeat after a nonzero entry; parse_grid
    # rejects every repeated index, zero-valued or not
    repeated = len({idx for idx, _ in items}) < len(items)
    if ref is None or repeated:
        with pytest.raises(ValueError):
            parse_grid(text)
    else:
        assert dump_grid(parse_grid(text)) == oracle.dump_grid(ref)


def test_far_zero_entry_parses_without_sizing_an_array():
    far_zero = "100000000\t100000000\t0.0\n"
    tracemalloc.start()
    try:
        empty = parse_grid("# coeffgrid v1\n" + far_zero)
        lone = parse_grid("# coeffgrid v1\n0\t0\t1.0\n" + far_zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert empty == CoeffGrid() and lone == CoeffGrid(np.ones((1, 1)))
    assert peak < 2**20


@settings(max_examples=60, deadline=None)
@given(entries(), entries(), VALUES)
@example(EMPTY, EMPTY, 2.0)
@example(LONE, EMPTY, -3.0)
@example(LONE, LONE, 0.0)
def test_arithmetic_matches(a, b, factor):
    da, db = CoeffGrid(oracle.scatter(a)), CoeffGrid(oracle.scatter(b))
    ra, rb = oracle.CoeffGrid(a), oracle.CoeffGrid(b)
    assert _same(da + db, ra + rb)
    assert _same(da - db, ra - rb)
    assert _same(da.scale(factor), ra.scale(factor))


@settings(max_examples=60, deadline=None)
@given(entries(), st.integers(1, 3), st.integers(1, 3))
@example(EMPTY, 1, 1)
@example(LONE, 1, 1)
@example({(1, 1): 1.0}, 1, 1)
def test_mixed_derivative_matches(e, r1, r2):
    dense = mixed_derivative_coeffs(CoeffGrid(oracle.scatter(e)), r1, r2)
    ref = oracle.mixed_derivative_coeffs(oracle.CoeffGrid(e), r1, r2)
    assert _same(dense, ref)


@settings(max_examples=60, deadline=None)
@given(entries(), POINTS, POINTS)
@example(EMPTY, 0.5, -0.5)
@example(LONE, -1.0, 1.0)
def test_synth_eval_matches(e, t, tau):
    dense = CoeffGrid(oracle.scatter(e))
    assert synth_eval(dense, t, tau) == oracle.synth_eval(oracle.CoeffGrid(e), t, tau)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(0, 40), VALUES | st.just(0.0), max_size=15),
    st.integers(1, 4),
    POINTS,
)
def test_one_dimensional_kernels_match(a, r, t):
    assert muller_differentiate_iterated(a, r) == oracle.muller_differentiate_iterated(a, r)
    assert clenshaw_eval(a, t) == oracle.clenshaw_eval(a, t)


def test_eval_phi_matches_the_scalar_recurrence():
    points = [-1.0, 1.0, 0.0, -0.5, 0.3, 1 / 3, -0.999, 0.7071067811865476]
    points += np.linspace(-1.0, 1.0, 41).tolist()
    for k in [0, 1, 2, 3, 7, 64, 255, 1000]:
        for t in points:
            assert eval_phi(k, t) == oracle.eval_phi(k, t), (k, t)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["any", "even", "odd"]),
    POINTS,
    POINTS,
)
def test_tall_thin_witness_shapes_match(N, r1, r2, parity, t, tau):
    # f1 has shape (3N + r1 + 1) x (r2 + 1) at most: one tall band column
    w = build_witness_pair(N, r1, r2, ClassParams(2, 3), parity=parity)
    value = w.c_tilde * N ** (-(3 + 0.5)) / r2**3
    ref = oracle.CoeffGrid({(0, 0): w.c_tilde, **{(k, r2): value for k in w.selected_k}})
    assert w.f1.array.shape[0] <= 3 * N + r1 + 1 and w.f1.array.shape[1] == r2 + 1
    assert _same(w.f1, ref)
    dense_d = mixed_derivative_coeffs(w.f1, r1, r2)
    ref_d = oracle.mixed_derivative_coeffs(ref, r1, r2)
    assert _same(dense_d, ref_d)
    assert synth_eval(dense_d, t, tau) == oracle.synth_eval(ref_d, t, tau)
    assert parseval_l2_norm(dense_d) == oracle.parseval_l2_norm(ref_d)


def _boundary_cases():
    # n that put k * j**gamma == n exactly on many pairs, and a value that
    # is an integer only up to rounding
    cases = [(2.9999999999999996, 1.0, 1, 1), (1.0, 1.0, 1, 1), (0.5, 1.0, 1, 1)]
    cases += [(float(n), 1.0, r1, r2) for n in (12, 36, 60) for r1, r2 in ((1, 1), (2, 1), (2, 2))]
    cases += [(float(n), 2.0, 1, 1) for n in (4, 18, 50, 72)]
    cases += [(float(n), 1.5, r1, r2) for n in (8, 27, 64) for r1, r2 in ((1, 1), (3, 2))]
    return cases


@pytest.mark.parametrize("n,gamma,r1,r2", _boundary_cases())
def test_cross_on_floor_guarded_boundaries_matches(n, gamma, r1, r2):
    cross = build_cross(n, gamma, r1, r2)
    ref = oracle.build_cross(n, gamma, r1, r2)
    assert cross.indices == ref
    assert len(cross) == len(ref)
    assert dump_cross(cross) == oracle.dump_cross(n, gamma, r1, r2)
    members = frozenset(ref)
    top = int(math.ceil(n)) + 2
    assert all(((k, j) in cross) == ((k, j) in members) for k in range(top) for j in range(top))


@settings(max_examples=60, deadline=None)
@given(entries(extent=20), st.sampled_from(_boundary_cases()))
@example(EMPTY, (12.0, 1.0, 1, 1))
@example(LONE, (12.0, 1.0, 1, 1))
def test_restriction_matches(e, case):
    members = frozenset(oracle.build_cross(*case))
    dense = restrict_to_cross(CoeffGrid(oracle.scatter(e)), build_cross(*case))
    assert _same(dense, oracle.restrict_to_cross(oracle.CoeffGrid(e), members))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("seed,support", [(0, 0), (7, 5), (123, 18)])
def test_sphere_noise_matches(p, seed, support):
    spec = NoiseSpec(p=p, delta=1e-3, mode="random-sphere", seed=seed, support=support)
    assert _same(_sphere_noise(spec), oracle.sphere_noise(p, 1e-3, seed, support))


@pytest.mark.parametrize("signs", ["random", "positive"])
@pytest.mark.parametrize("kmax", [0, 1, 16])
def test_synthetic_function_matches(signs, kmax):
    profile = DecayProfile(epsilon=0.01, kmax=kmax, signs=signs)
    dense = synthesize_class_function(ClassParams(2, 4), profile, seed=2**63 + 5)
    ref = oracle.synthesize_class_function(2, 4, 0.01, kmax, signs, seed=2**63 + 5)
    assert _same(dense, ref)
