"""The numpy text writer against Python's own ``repr`` and ``%d``.

Every comparison is byte equality: the writer must print exactly the
digits and layout of ``repr`` for every finite nonzero float, and of
``%d`` for every index below 2**63.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_oracle as oracle
from hcderiv import text
from hcderiv.spectral import CoeffGrid, dump_grid


def _written(values: np.ndarray) -> list[str]:
    """The lines the writer gives for a one-column table of floats, both signs."""
    values = np.concatenate([values, -values])
    out = text.dump_table("#", len(values), lambda lo, hi: (values[lo:hi],))
    return out.split("\n")[1:-1]


def _reprs(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()] + [repr(-v) for v in values.tolist()]


def test_every_subnormal_with_a_fraction_below_2_16():
    values = np.arange(1, 2**16, dtype=np.uint64).view(np.float64)
    assert _written(values) == _reprs(values)


def test_every_power_of_two_and_both_of_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = values[np.isfinite(values) & (values != 0.0)]
    assert _written(values) == _reprs(values)


def test_layout_switch_points_and_exponent_widths():
    switches = [1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0, 1234567890123456.0]
    switches += [np.nextafter(x, d) for x in (1e-4, 1e16) for d in (0.0, np.inf)]
    # two- and three-digit exponents, and the ends of the float range
    switches += [1e-99, 1e-100, 1e99, 1e100, 9.999999999999999e99, 1e-10, 2.5e-7, 1e22, 1e23]
    switches += [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    # every place of the point for 1 to 17 significant digits
    digits = [float("1.2345678901234567"[: n + 1 if n > 1 else 1]) for n in range(1, 18)]
    scaled = [d * 10.0**e for d in digits for e in range(-24, 24)]
    values = np.array(switches + scaled + [0.1, 0.3, 1.0, 10.0, 123.456, 2.0**53, 2.0**53 + 2])
    assert _written(values) == _reprs(values)


def test_random_bit_patterns():
    bits = np.random.Generator(np.random.Philox(key=17)).integers(0, 2**63, 50_000, dtype=np.int64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values) & (values != 0.0)]
    assert _written(values) == _reprs(values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True), min_size=1, max_size=40))
def test_hypothesis_floats(floats):
    values = np.array([x for x in floats if x != 0.0])
    assert _written(values) == _reprs(values)


def test_indices_up_to_2_63_minus_1():
    edges = [0, 1, 2**63 - 1] + [10**i + d for i in range(1, 19) for d in (-1, 0, 1)]
    rng = np.random.Generator(np.random.Philox(key=18))
    ks = np.array(edges + rng.integers(0, 2**63, 2000, dtype=np.int64).tolist(), dtype=np.int64)
    js = ks[::-1].copy()
    out = text.dump_table("# h", len(ks), lambda lo, hi: (ks[lo:hi], js[lo:hi]))
    assert out == "# h\n" + "".join("%d\t%d\n" % (k, j) for k, j in zip(ks.tolist(), js.tolist()))


def test_f_ordered_and_strided_grids():
    rng = np.random.Generator(np.random.Philox(key=19))
    dense = rng.standard_normal((90, 140)) * 10.0 ** rng.integers(-30, 30, size=(90, 140))
    dense[rng.random(dense.shape) < 0.4] = 0.0
    dense[-1, -1] = 1.5
    fortran = CoeffGrid(np.asfortranarray(dense))
    strided = CoeffGrid._adopt(dense[1::2, ::3])
    assert fortran.array.flags.f_contiguous and not fortran.array.flags.c_contiguous
    assert not strided.array.flags.c_contiguous and not strided.array.flags.f_contiguous
    for grid in (CoeffGrid(dense), fortran, strided):
        ks, js = np.nonzero(grid.array)
        entries = dict(zip(zip(ks.tolist(), js.tolist()), grid.array[ks, js].tolist()))
        assert dump_grid(grid) == oracle.dump_grid(oracle.CoeffGrid(entries))


def test_import_leaves_the_tables_unbuilt():
    env = dict(os.environ)
    src = str(Path(text.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import hcderiv\n"
        "from hcderiv import text\n"
        "print(text._tables.cache_info().currsize)\n"
        "hcderiv.spectral.dump_grid(hcderiv.CoeffGrid([[1.0]]))\n"
        "print(text._tables.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n1\n"

