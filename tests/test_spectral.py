import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcderiv.cross import build_cross
from hcderiv.legendre import eval_phi
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


def _random_grid(seed, kmax=12, count=30):
    rng = np.random.Generator(np.random.Philox(key=seed))
    entries = {}
    for _ in range(count):
        entries[(int(rng.integers(0, kmax + 1)), int(rng.integers(0, kmax + 1)))] = float(
            rng.standard_normal()
        )
    return CoeffGrid(entries)


# ---------------------------------------------------------------------------
# CoeffGrid type

def test_grid_validation():
    with pytest.raises(ValueError):
        CoeffGrid({(-1, 0): 1.0})
    with pytest.raises(ValueError):
        CoeffGrid({(0, 0): float("nan")})
    with pytest.raises(ValueError):
        CoeffGrid({(0, 0): float("inf")})
    with pytest.raises(ValueError):
        CoeffGrid([((0, 0), 1.0), ((0, 0), 2.0)])
    with pytest.raises(ValueError):
        CoeffGrid({(0.5, 0): 1.0})


def test_grid_drops_zeros_and_sorts():
    g = CoeffGrid({(3, 1): 1.0, (0, 2): 0.0, (1, 1): -2.0})
    assert len(g) == 2
    assert [idx for idx, _ in g.items()] == [(1, 1), (3, 1)]
    assert g.get(0, 2) == 0.0


def test_grid_arithmetic():
    a = CoeffGrid({(0, 0): 1.0, (1, 1): 2.0})
    b = CoeffGrid({(1, 1): 2.0, (2, 2): -1.0})
    assert (a - b).to_dict() == {(0, 0): 1.0, (2, 2): 1.0}
    assert (a + b).to_dict() == {(0, 0): 1.0, (1, 1): 4.0, (2, 2): -1.0}
    assert (2.0 * a).to_dict() == {(0, 0): 2.0, (1, 1): 4.0}


# ---------------------------------------------------------------------------
# norms

def test_class_norm_single_term():
    assert class_norm(CoeffGrid({(2, 3): 1.0}), ClassParams(2, 2)) == pytest.approx(36.0)


def test_class_norm_underline_convention():
    for s, mu in [(1, 1), (2, 3), (1.5, 0.5)]:
        assert class_norm(CoeffGrid({(0, 0): 0.5}), ClassParams(s, mu)) == pytest.approx(0.5)


def test_class_norm_hand_sum():
    g = CoeffGrid({(1, 1): 3.0, (2, 2): 4.0})
    assert class_norm(g, ClassParams(2, 1)) == pytest.approx(math.sqrt(265), rel=1e-14)


def test_class_norm_empty():
    assert class_norm(CoeffGrid(), ClassParams(2, 2)) == 0.0


def test_parseval_examples():
    assert parseval_l2_norm(CoeffGrid({(0, 0): 3.0})) == 3.0
    assert parseval_l2_norm(CoeffGrid()) == 0.0
    assert parseval_l2_norm(CoeffGrid({(1, 2): 3.0, (4, 4): 4.0})) == pytest.approx(5.0)


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
    a, b = CoeffGrid(a_entries), CoeffGrid(b_entries)
    assert class_norm(alpha * a, params) == pytest.approx(
        abs(alpha) * class_norm(a, params), rel=1e-12, abs=1e-12
    )
    lhs = class_norm(a + b, params)
    assert lhs <= class_norm(a, params) + class_norm(b, params) + 1e-12


def test_class_norm_monotone_in_mu():
    g = CoeffGrid({(1, 2): 0.3, (4, 1): -0.2, (3, 3): 0.05})
    norms = [class_norm(g, ClassParams(2, mu)) for mu in (0.5, 1.0, 2.0, 3.0)]
    assert all(x <= y for x, y in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# synthesis

def test_synth_constant():
    g = CoeffGrid({(0, 0): 2.0})
    for t, tau in [(-1, -1), (0.3, -0.4), (1, 1)]:
        assert synth_eval(g, t, tau) == pytest.approx(1.0, rel=1e-15)


def test_synth_single_term_factorizes():
    g = CoeffGrid({(5, 2): 1.0})
    assert synth_eval(g, 0.1, -0.4) == pytest.approx(
        eval_phi(5, 0.1) * eval_phi(2, -0.4), rel=1e-13
    )


def test_synth_matches_naive_double_sum():
    g = _random_grid(seed=3, kmax=20, count=50)
    t, tau = 0.33, 0.71
    naive = sum(v * eval_phi(k, t) * eval_phi(j, tau) for (k, j), v in g.items())
    assert synth_eval(g, t, tau) == pytest.approx(naive, rel=1e-12)


def test_synth_domain_error():
    with pytest.raises(ValueError):
        synth_eval(CoeffGrid({(0, 0): 1.0}), 1.2, 0.0)
    with pytest.raises(ValueError):
        synth_eval(CoeffGrid({(0, 0): 1.0}), 0.0, -1.01)


# ---------------------------------------------------------------------------
# mixed differentiation

def test_mixed_derivative_bilinear_mode():
    out = mixed_derivative_coeffs(CoeffGrid({(1, 1): 1.0}), 1, 1)
    assert out.to_dict() == {(0, 0): pytest.approx(3.0, rel=1e-15)}


def test_mixed_derivative_kills_low_index():
    assert len(mixed_derivative_coeffs(CoeffGrid({(0, 5): 7.0}), 1, 1)) == 0


def test_mixed_derivative_linearity():
    g = _random_grid(seed=5)
    base = mixed_derivative_coeffs(g, 1, 2)
    doubled = mixed_derivative_coeffs(2.0 * g, 1, 2)
    assert doubled == 2.0 * base  # doubling is exact in binary floating point
    tripled = mixed_derivative_coeffs(3.0 * g, 1, 2)
    for idx, v in (3.0 * base).items():
        assert tripled.get(*idx) == pytest.approx(v, rel=1e-14)


def _k_then_j(a, r1, r2):
    return differentiate_coeffs(differentiate_coeffs(a.T, r1).T, r2)


def _j_then_k(a, r1, r2):
    return differentiate_coeffs(differentiate_coeffs(a, r2).T, r1).T


def test_mixed_derivative_axis_order_commutes():
    # the two axis orders compute the same real number; in floats they
    # agree on support exactly and on values up to reassociation rounding
    for k, j in [(1, 1), (4, 2), (7, 5)]:
        a = CoeffGrid({(k, j): 1.0}).array
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
    g = CoeffGrid({(0, 0): 2.0})
    for res in (2, 11, 101):
        assert sup_norm_on_grid(g, res) == pytest.approx(1.0, rel=1e-15)


def test_sup_norm_peaks_at_endpoint():
    g = CoeffGrid({(3, 0): 1.0})
    assert sup_norm_on_grid(g, 101) == pytest.approx(math.sqrt(7) / 2, rel=1e-13)


def test_sup_norm_monotone_in_resolution():
    g = _random_grid(seed=31)
    assert sup_norm_on_grid(g, 201) >= sup_norm_on_grid(g, 11)


def test_sup_norm_validation():
    with pytest.raises(ValueError):
        sup_norm_on_grid(CoeffGrid(), 1)
    assert sup_norm_on_grid(CoeffGrid(), 5) == 0.0


def test_restrict_to_cross():
    g = CoeffGrid({(1, 1): 1.0, (9, 9): 1.0})
    cross = build_cross(4, 1, 1, 1)
    out = restrict_to_cross(g, cross)
    assert out.to_dict() == {(1, 1): 1.0}
    assert restrict_to_cross(out, cross) == out


def test_restrict_empty_cross():
    g = _random_grid(seed=37)
    cross = build_cross(0.5, 1.0, 1, 1)
    assert len(restrict_to_cross(g, cross)) == 0


# ---------------------------------------------------------------------------
# serialization

def test_dump_format():
    g = CoeffGrid({(1, 0): -0.5, (0, 0): 2.0})
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
