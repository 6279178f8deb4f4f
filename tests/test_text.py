"""The numpy text writer and reader against Python's own ``repr``, ``%d``, ``float()`` and ``int()``.

Every comparison is byte or bit equality: the writer must print exactly
the digits and layout of ``repr`` for every finite nonzero float, and of
``%d`` for every index below 2**63; the reader must give the bits of
``float()`` and the value of ``int()`` for every text in its form, and
refuse any other text.
"""

import decimal
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
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
        "built = lambda: print(text._tables.cache_info().currsize, text._powers.cache_info().currsize)\n"
        "built()\n"
        "hcderiv.spectral.dump_grid(hcderiv.CoeffGrid([[1.0]]))\n"
        "built()\n"
        "hcderiv.spectral.parse_grid('# coeffgrid v1\\n0\\t0\\t1.0\\n')\n"
        "built()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n1 0\n1 1\n"



# ---------------------------------------------------------------------------
# the reader, against int() and float()

def _assert_read_as_float(values: list[str], alone: bool = False):
    """The reader gives float(v) bit for bit for each value text, one grid line each.

    With ``alone``, each value is also read as the only line of a body,
    so that it is both the first and the last line.
    """
    table = text.load_table("".join(f"{i}\t{i % 7}\t{v}\n" for i, v in enumerate(values)))
    assert table is not None
    assert table["k"].tolist() == list(range(len(values)))
    assert table["j"].tolist() == [i % 7 for i in range(len(values))]
    want = np.array([float(v) for v in values]).view(np.uint64)
    bad = np.flatnonzero(table["v"].view(np.uint64) != want)
    assert not bad.size, [values[i] for i in bad[:10]]
    for v in values if alone else ():
        assert text.load_table(f"0\t0\t{v}\n")["v"].view(np.uint64)[0] == np.float64(float(v)).view(np.uint64), v


def _reprs_of(values) -> list[str]:
    return _reprs(np.asarray(values, dtype=np.float64))


def test_reader_every_repr_layout():
    # the point at -4 ... 16 for 1 to 17 digits, 2- and 3-digit exponents, no point
    digits = [float("1.2345678901234567"[: n + 1 if n > 1 else 1]) for n in range(1, 18)]
    scaled = [d * 10.0**e for d in digits for e in range(-24, 24)]
    edges = [1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0, 1e-99, 1e-100, 1e99, 1e100, 1e22, 1e23]
    values = _reprs_of(scaled + edges) + ["5e-324", "1e+16", "1e-05", "0.0001", "0.0", "-0.0"]
    assert {"5e-324", "-1e+16", "0.0001", "1.2345678901234567", "1234567890123456.8", "-1e-99"} <= set(values)
    _assert_read_as_float(values, alone=True)


def test_reader_random_bit_patterns_of_both_signs():
    bits = np.random.Generator(np.random.Philox(key=20)).integers(0, 2**64, 100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_read_as_float([repr(v) for v in values[np.isfinite(values)].tolist()])


def test_reader_every_power_of_two_and_both_of_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    _assert_read_as_float(_reprs_of(values[np.isfinite(values) & (values != 0.0)]))


def test_reader_subnormals_and_the_smallest_normal():
    subnormals = np.arange(1, 2**12, dtype=np.uint64).view(np.float64)
    edges = ["2.2250738585072011e-308", "2.2250738585072014e-308", "2.2250738585072009e-308",
             "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324"]
    _assert_read_as_float(_reprs_of(subnormals[::7]) + edges, alone=True)


def test_reader_ties_and_near_ties():
    rng = np.random.Generator(np.random.Philox(key=21))
    # exact midpoints of two doubles with w 10**q, q in [-4, 23], where ties go to even
    ties = ["9007199254740993", "9007199254740995", "9007199254740993e+0", "4503599627370497.5"]
    for m in rng.integers(2**52, 2**53, 40).tolist():
        for k in range(1, 5):
            ties.append(f"{(2 * m + 1) * 5**k}e-{k}")
        ties.append(str((2 * m + 1) << int(rng.integers(0, 10))))
    for q in range(1, 24):  # 5**q t odd and of 54 bits
        for t in rng.integers(-(-(2**53) // 5**q), 2**54 // 5**q + 1, 4).tolist():
            ties.append(f"{(t | 1) << int(rng.integers(0, 4))}e+{q}")
    # 19 digits just below and above the midpoint of random doubles, where the
    # round bit needs the second product
    near = []
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        bits = rng.integers(2**52, 0x7FE0000000000000, 3000, dtype=np.int64).view(np.float64)
        for x in bits.tolist():
            sign, digits, exponent = ((decimal.Decimal(x) + decimal.Decimal(np.nextafter(x, np.inf))) / 2).as_tuple()
            head = int("".join(map(str, digits[:19])))
            shift = exponent + len(digits) - 19
            near += [f"{head}e{shift:+d}", f"{head + 1}e{shift:+d}", f"{str(head)[0]}.{str(head)[1:]}e{shift + 18:+d}"]
    _assert_read_as_float(ties + near)


def test_reader_values_of_more_than_19_digits_and_out_of_range():
    values = [
        "12345678901234567890", "18446744073709551616", "18446744073709551615", "10000000000000000000",
        "9999999999999999999", "1234567890123456789012345678901234567890", "0.12345678901234567890123",
        "1.00000000000000000000000000001", "9007199254740993.0000000000000000001", "0." + "0" * 30 + "1e+10",
        "123456789012345678901234e-300", "-" + "9" * 40 + "e-20", "1" + "0" * 400 + "e-400",
        "0.00012345678901234567", "00000000000000000000001.5", "1e-0000000000000000000005",
        "1e+400", "-1e+400", "1e-400", "-1e-400", "1e+308", "1.8e+308", "1.7976931348623157e+308",
        "1.7976931348623158e+308", "2e-324", "3e-324", "1e+99999999999999999999", "0e+99999999999",
    ]
    _assert_read_as_float(values, alone=True)


def test_reader_indices_with_leading_zeros_and_up_to_10_18_minus_1():
    ks = ["0", "007", "000000000000000007", "99999999", "100000000", "1234567890123456",
          "12345678901234567", str(10**18 - 1), "000000000000000000"]
    table = text.load_table("".join(f"{k}\t{k[::-1]}\t1.0\n" for k in ks))
    assert table["k"].tolist() == [int(k) for k in ks]
    assert table["j"].tolist() == [int(k[::-1]) for k in ks]
    assert table.dtype == text.ENTRY


@pytest.mark.parametrize("line", [
    "0\t0\t1E+5", "0\t0\t+1.0", "0\t0\t1e5", "0\t0\t1.", "0\t0\t.5", "0\t0\t1.0e", "0\t0\t1e+", "0\t0\tnan",
    "0\t0\tinf", "0\t0\t-", "0\t0\t", "0\t0\t1.0.0", "0\t0\t--1", "0\t0\t-+1", "0\t0\t1e+-5", "0\t0\t1e+5e+5",
    "0\t0\t1.0e+5.0", "0\t0\t1.0-", "0\t0\t5-3", "0\t0\t1e-5-", "0\t0\t1_0", "0\t0\t0x10", "0\t0\t٣",
    "0\t0\t1.0\t", "0\t0", "0\t0\t1\t2", "0\t0\t1.0\r", " 0\t0\t1.0", "0\t0\t 1.0", "0\t0\t1.0 ",
    f"{10**18}\t0\t1.0", f"0\t{'0' * 19}\t1.0", "-1\t0\t1.0", "+1\t0\t1.0", "1.0\t0\t1.0", "\t0\t1.0",
    "0\t\t1.0", "", "0\t0\t1.0\n", "0\t0\t1.0\x0b", "#\t0\t1.0",
])
def test_reader_refuses_text_in_any_other_form(line):
    valid = "".join(f"{i}\t{i}\t{i}.5e-3\n" for i in range(7000))  # more than one block
    ends = (valid + line,) if line and not line.endswith("\n") else ()  # with no newline after it
    for body in (line + "\n", valid + line + "\n" + valid, *ends):
        assert text.load_table(body) is None, body[-40:]
    assert text.load_table(valid)["k"].tolist() == list(range(7000))


# ---------------------------------------------------------------------------
# the file writer

def test_write_text_that_fails_to_encode_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    text.write_text(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        text.write_text(path, "new é\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_replaces_a_hard_link_at_the_target(tmp_path):
    path, other = tmp_path / "out.txt", tmp_path / "other.txt"
    text.write_text(path, "old\n")
    os.link(path, other)
    text.write_text(path, "new\n")
    assert (path.read_text(), other.read_text()) == ("new\n", "old\n")


@pytest.mark.parametrize("name", ["missing/out.txt", "adir"], ids=["missing-directory", "directory"])
def test_write_text_names_the_path_it_was_given_when_it_fails(name, tmp_path):
    (tmp_path / "adir").mkdir()
    path = str(tmp_path / name)
    with pytest.raises(OSError) as info:
        text.write_text(path, "new\n")
    assert info.value.filename == path and type(info.value) in (FileNotFoundError, IsADirectoryError)
    assert os.listdir(tmp_path) == ["adir"] and os.listdir(tmp_path / "adir") == []
