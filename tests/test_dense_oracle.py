"""The dense array core against the dict reference implementation.

Every comparison is exact (``==`` on floats, byte equality on text):
the array kernels add the same terms in the same order as the dict
loops they replaced, so nothing may move even in the last bit.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_oracle as oracle
from hcderiv import legendre
from hcderiv.cross import build_cross, dump_cross
from hcderiv.harness import DecayProfile, synthesize_class_function
from hcderiv.legendre import clenshaw_eval, eval_phi, muller_differentiate_iterated
from hcderiv.lowerbound import WitnessInfeasibleError, build_witness_pair
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
    # empty crosses (n < r1 * r2**gamma, among them n < r1), and gamma > 1 with offsets
    cases += [(3.0, 1.0, 2, 2), (1.5, 1.0, 2, 1), (0.9, 2.0, 1, 1), (40.5, 3.0, 4, 3)]
    cases += [(100.0, 1.5, 2, 1), (150.0, 3.0, 2, 2)]
    return cases


@pytest.mark.parametrize("n,gamma,r1,r2", _boundary_cases())
def test_cross_on_floor_guarded_boundaries_matches(n, gamma, r1, r2):
    cross = build_cross(n, gamma, r1, r2)
    ref = oracle.build_cross(n, gamma, r1, r2)
    assert oracle.cross_pairs(cross) == ref
    assert len(cross) == len(ref)
    assert dump_cross(cross) == oracle.dump_cross(n, gamma, r1, r2)
    members = frozenset(ref)
    top = int(math.ceil(n)) + 2
    assert all(((k, j) in cross) == ((k, j) in members) for k in range(top) for j in range(top))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=400.0),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(min_value=1.0, max_value=4.0),
    st.integers(1, 4),
    st.integers(1, 3),
)
@example(3.0, 1.0, 2, 2)
@example(1.5, 2.0, 2, 1)
@example(12345.6, 3.0, 4, 3)
@example(3000.5, 1.0, 4, 2)  # about 16k pairs: four blocks of lines, the first four rows empty
def test_dump_cross_matches(n, gamma, r1, r2):
    cross = build_cross(n, gamma, r1, r2)
    assert oracle.cross_pairs(cross) == oracle.build_cross(n, gamma, r1, r2)
    assert dump_cross(cross) == oracle.dump_cross(n, gamma, r1, r2)


def _rows_match(n, gamma, r1, r2):
    # jmax[r1:] against the scalar row list; rows below r1 hold r2 - 1
    cross = build_cross(n, gamma, r1, r2)
    assert cross.jmax[r1:].tolist() == oracle.cross_rows(n, gamma, r1, r2), (n, gamma, r1, r2)
    assert cross.jmax[:r1].tolist() == [r2 - 1] * min(r1, len(cross.jmax))
    return cross


@pytest.mark.parametrize("gamma", [1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("r1,r2", [(1, 1), (3, 2)])
def test_cross_rows_match_the_scalar_rows(gamma, r1, r2):
    for n in (0.7, 5.0, 99.99, 1234.5, 54321.0, 2e5 / 3):
        _rows_match(n, gamma, r1, r2)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=1e5),
    st.sampled_from([1.0, 1.25, 1.5, 2.0, 2.5, 3.0]) | st.floats(min_value=1.0, max_value=4.0),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_cross_rows_match_the_scalar_rows_drawn(n, gamma, r1, r2):
    _rows_match(n, gamma, r1, r2)


# n = k * j**gamma holds exactly for many (k, j): j**gamma is an integer
# whenever j (gamma 1, 2, 3) or sqrt(j) (gamma 1.5, 2.5) is one
@pytest.mark.parametrize("n,gamma", [(151200.0, 1.0), (216000.0, 1.5), (129600.0, 2.0),
                                     (248832.0, 2.5), (216000.0, 3.0)])
def test_cross_rows_on_exact_boundaries_match(n, gamma):
    cross = _rows_match(n, gamma, 1, 1)
    exact = [k for k in range(1, len(cross.jmax))
             if n % k == 0 and float(cross.jmax[k]) ** gamma == n / k]
    assert len(exact) >= 6


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("kmax", [2**16 - 1, 2**16, 2**16 + 1])
def test_cross_rows_across_a_block_edge_match(kmax, gamma):
    # rows run from k = 1 in blocks of 2**16: one short block, one full block,
    # and one full block plus a one-row block
    cross = _rows_match((kmax + 0.5) * 2**gamma, gamma, 1, 2)
    assert cross.k_extent() == kmax


def test_cross_rows_where_numpy_power_and_python_pow_disagree_match():
    # numpy's power may round differently from Python's ** (on AVX-512 hosts
    # about 5% of inputs differ in the last bit); that moves a floor only
    # when the guarded endpoint lies within a few ulp of an integer.  n =
    # k * (m / guard)**gamma puts row k there; keep the crosses where the
    # unchecked numpy floor of some row differs from the scalar one
    guard = 1.0 + 1e-12
    rng = np.random.default_rng(20240617)
    flipped = 0
    for _ in range(300):
        gamma = float(rng.choice([1.25, 1.5, 2.5, 3.0]))
        k, m = int(rng.integers(1, 300)), int(rng.integers(2, 6))
        n = k * (m / guard) ** gamma
        scalar = oracle.cross_rows(n, gamma, 1, 1)
        unchecked = np.floor((n / np.arange(1, len(scalar) + 1, dtype=float)) ** (1 / gamma) * guard)
        if unchecked.tolist() != scalar:
            flipped += int(np.count_nonzero(unchecked != scalar))
            _rows_match(n, gamma, 1, 1)
    # a host whose numpy power is the C library's pow, as Python's ** is, flips no row
    x = rng.uniform(1.0, 1e4, 1000)
    power_differs = np.power(x, 1 / 1.5).tolist() != [v ** (1 / 1.5) for v in x.tolist()]
    assert flipped > 0 or not power_differs


CLENSHAW_SIZES = (1, 2, 3, 64, 8193)
CLENSHAW_POINTS = (-1.0, 1.0, 0.37)


def _clenshaw_inputs(size):
    rng = np.random.default_rng(size)
    return rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, (3, size))


@pytest.mark.parametrize("descending", [False, True])
def test_clenshaw_matches_the_oracle_at_ascending_and_descending_sizes(descending):
    # each call builds its own factors, one longer than the size, so no size
    # can reuse or be spoiled by the factors of a size before it
    for size in sorted(CLENSHAW_SIZES, reverse=descending):
        a, rows = _clenshaw_inputs(size)
        for t in CLENSHAW_POINTS:
            assert legendre.clenshaw_rows(a, t) == oracle.clenshaw_eval(dict(enumerate(a)), t)
            got = legendre.clenshaw_rows(rows, t)
            assert got.tolist() == [oracle.clenshaw_eval(dict(enumerate(r)), t) for r in rows]


@pytest.mark.parametrize("size", CLENSHAW_SIZES)
def test_synth_eval_matches_at_clenshaw_sizes(size):
    # tall and wide grids: the long Clenshaw sum runs over k, then over j
    _, rows = _clenshaw_inputs(size)
    for grid in (rows, rows.T):
        ref = oracle.CoeffGrid({idx: v for idx, v in np.ndenumerate(grid)})
        for t in CLENSHAW_POINTS:
            assert synth_eval(CoeffGrid(grid), t, 0.37) == oracle.synth_eval(ref, t, 0.37)
            assert synth_eval(CoeffGrid(grid), 0.37, t) == oracle.synth_eval(ref, 0.37, t)


def test_witness_band_matches():
    # N up to 40, r1, r2 and parity over no cross and eight crosses: some block
    # part of a band, some all of it, and some have a different r2 from the
    # band's; the oracle sorts every parity band, the package only a topped-up one
    cls = ClassParams(2, 3)
    crosses = [None] + [
        build_cross(*case)
        for case in ((5, 1, 1, 1), (13, 1, 1, 1), (24, 1, 1, 1), (40, 1, 1, 1), (56, 1, 1, 1),
                     (100, 1.5, 2, 1), (30, 1, 1, 2), (60, 2, 3, 1))
    ]
    outcomes, topped_up = [], 0
    for cross, N, r1, r2, parity in itertools.product(
        crosses, (1, 2, 3, 4, 5, 8, 16, 33, 40), (1, 2, 3), (1, 2), ("any", "even", "odd")
    ):
        members = frozenset() if cross is None else frozenset(
            oracle.build_cross(cross.n, cross.gamma, cross.r1, cross.r2))
        try:
            ref = oracle.witness_band(N, r1, r2, members, parity)
        except WitnessInfeasibleError as exc:
            with pytest.raises(WitnessInfeasibleError) as got:
                build_witness_pair(N, r1, r2, cls, cross=cross, parity=parity)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            outcomes.append(False)
            continue
        w = build_witness_pair(N, r1, r2, cls, cross=cross, parity=parity)
        value = w.c_tilde * N ** (-(cls.mu + 1.0 / cls.s)) / r2**cls.mu
        entries = {(0, 0): w.c_tilde, **{(k, r2): value for k in ref}}
        assert w.selected_k == ref
        assert np.array_equal(w.f1.array, oracle.scatter(entries))
        outcomes.append(True)
        # a band with fewer than N slots of the preferred parity is topped up with the other
        want = {"even": 0, "odd": 1}.get(parity)
        if want is not None and sum(k % 2 == want for k in ref) < N:
            assert cross is not None
            topped_up += 1
    assert len(outcomes) == 1458 and 0 < outcomes.count(False) < 1458
    assert topped_up == 93


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


@pytest.mark.parametrize("signs", ["random"])
@pytest.mark.parametrize("kmax", [0, 1, 16])
def test_synthetic_function_matches(signs, kmax):
    profile = DecayProfile(epsilon=0.01, kmax=kmax)
    dense = synthesize_class_function(ClassParams(2, 4), profile, seed=2**63 + 5)
    ref = oracle.synthesize_class_function(2, 4, 0.01, kmax, signs, seed=2**63 + 5)
    assert _same(dense, ref)
