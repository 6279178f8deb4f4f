import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dict_oracle as oracle
import hcderiv
from hcderiv import cli, spectral
from hcderiv.cli import main
from hcderiv.cross import build_cross
from hcderiv.harness import REGISTRY
from hcderiv.lowerbound import witness_for_cross
from hcderiv.noise import NoiseSpec, lp_norm, perturb
from hcderiv.quadrature import compute_coeff_grid
from hcderiv.spectral import (
    ClassParams,
    dump_grid,
    load_grid,
    parseval_l2_norm,
    save_grid,
    sup_norm_on_grid,
)
from hcderiv.text import load_table
from hcderiv.truncation import SelectionInput, apply_method, select_parameters

DATA = Path(__file__).parent / "data"
DEFAULT_CONFIG = Path(__file__).parents[1] / "src" / "hcderiv" / "configs" / "default.ini"


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# coeffs

def test_coeffs_constant(tmp_path):
    out = tmp_path / "one.grid"
    assert run("coeffs", "one", "--k", 2, "--out", out) == 0
    text = out.read_text()
    data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(data_lines) == 1
    k, j, v = data_lines[0].split("\t")
    assert (k, j) == ("0", "0")
    assert float(v) == pytest.approx(2.0, abs=1e-12)


def test_coeffs_unknown_id(tmp_path, capsys):
    code = run("coeffs", "not-a-function", "--k", 2, "--out", tmp_path / "x.grid")
    assert code == 2
    assert "not-a-function" in capsys.readouterr().err


def test_coeffs_rejects_a_grid_over_the_cell_limit(tmp_path, capsys):
    assert run("coeffs", "boundary-decay", "--k", 1000000, "--out", tmp_path / "b.grid") == 2
    assert capsys.readouterr().err == (
        "error: grid shape (1000001, 1000001) exceeds the limit of 67108864 cells\n"
    )
    assert os.listdir(tmp_path) == []


def test_coeffs_round_trip(tmp_path):
    out = tmp_path / "poly.grid"
    assert run("coeffs", "poly", "--k", 8, "--out", out) == 0
    loaded = load_grid(out)
    direct = compute_coeff_grid(REGISTRY["poly"], 8)
    assert loaded == direct


def test_coeffs_writes_manifest(tmp_path):
    out = tmp_path / "one.grid"
    run("coeffs", "one", "--k", 2, "--out", out)
    manifest = json.loads((tmp_path / "one.grid.manifest.json").read_text())
    digest = manifest["hash"]
    assert f"# manifest sha256={digest}" in out.read_text()
    assert manifest["rng_algorithm"] == "numpy-philox4x64"


# ---------------------------------------------------------------------------
# diff

@pytest.fixture()
def poly_grid(tmp_path):
    path = tmp_path / "poly.grid"
    save_grid(compute_coeff_grid(REGISTRY["poly"], 12), path)
    return path


def test_diff_zero_noise_matches_analytic(tmp_path, poly_grid):
    ref_path = tmp_path / "ref.grid"
    save_grid(compute_coeff_grid(oracle.exact_derivative("poly", 1, 1), 12), ref_path)
    out = tmp_path / "d.grid"
    code = run(
        "diff", poly_grid, "--r1", 1, "--r2", 1, "--delta", "1e-9", "--mu", 6,
        "--noise", "off", "--reference", ref_path, "--out", out,
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "d.grid.json").read_text())
    assert sidecar["error_l2"] < 1e-10
    assert sidecar["error_c"] < 1e-10
    assert sidecar["case_label"] == "equal-orders"
    diff = load_grid(out) - load_grid(ref_path)
    assert parseval_l2_norm(diff) < 1e-10
    assert sup_norm_on_grid(diff, 65) < 1e-10 if len(diff) else True


def test_diff_admissibility_exit_code(tmp_path, poly_grid, capsys):
    code = run(
        "diff", poly_grid, "--r1", 1, "--r2", 1, "--delta", "1e-3", "--mu", 1,
        "--metric", "c", "--out", tmp_path / "d.grid",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "mu > 2*r1 + 3/2 - 1/s" in err


def test_diff_deterministic(tmp_path, poly_grid):
    out1, out2 = tmp_path / "a.grid", tmp_path / "b.grid"
    for out in (out1, out2):
        assert run(
            "diff", poly_grid, "--r1", 1, "--r2", 1, "--delta", "1e-4", "--mu", 5,
            "--noise", "sphere", "--seed", 3, "--out", out,
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.grid.json").read_bytes() == (tmp_path / "b.grid.json").read_bytes()


def test_diff_witness_noise(tmp_path, poly_grid):
    out = tmp_path / "w.grid"
    code = run(
        "diff", poly_grid, "--r1", 1, "--r2", 1, "--delta", "1e-3", "--mu", 4,
        "--noise", "witness", "--out", out,
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "w.grid.json").read_text())
    assert sidecar["noise"]["norm"] <= 1e-3 * (1 + 1e-12)


def test_diff_witness_noise_where_4_to_the_s_mu_overflows(tmp_path, poly_grid):
    # c_tilde = 4^-300 (1 + 4^-600)^(-1/2) = 2^-600, and the band of N = 1 is that far off
    out = tmp_path / "w.grid"
    code = run(
        "diff", poly_grid, "--r1", 1, "--r2", 1, "--delta", "1e-3", "--mu", 300,
        "--noise", "witness", "--out", out,
    )
    assert code == 0
    assert json.loads((tmp_path / "w.grid.json").read_text())["noise"]["norm"] == 2.0**-600


@pytest.mark.parametrize("r, delta, mu, line", [
    (1, "1e-300", 300, "error: the witness band value underflows to 0.0 at N=6, s=2.0, mu=300.0\n"),
    (1, "1e-3", 600, "error: c_tilde underflows to 0.0 at s=2.0, mu=600.0\n"),
    # r2^mu = 4^520 overflows, so the band value is below the double range
    (4, "1e-3", 520, "error: the witness band value underflows to 0.0 at N=1, s=2.0, mu=520.0\n"),
])
def test_diff_rejects_witness_noise_below_the_double_range(r, delta, mu, line, tmp_path, poly_grid,
                                                           capsys):
    code = run(
        "diff", poly_grid, "--r1", r, "--r2", r, "--delta", delta, "--mu", mu,
        "--noise", "witness", "--out", tmp_path / "w.grid",
    )
    assert code == 2
    assert capsys.readouterr().err == line
    assert sorted(os.listdir(tmp_path)) == ["poly.grid"]


def test_diff_gamma_override(tmp_path, poly_grid):
    out = tmp_path / "g.grid"
    code = run(
        "diff", poly_grid, "--r1", 2, "--r2", 1, "--delta", "1e-4", "--mu", 6,
        "--gamma", "1.25", "--noise", "off", "--out", out,
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "g.grid.json").read_text())
    assert sidecar["gamma"] == 1.25
    assert sidecar["case_label"].endswith("-forced")


def test_diff_with_r2_to_the_gamma_past_the_float_range(tmp_path, poly_grid):
    out = tmp_path / "d.grid"
    code = run(
        "diff", poly_grid, "--r1", 2, "--r2", 2, "--delta", "1e-3", "--mu", 9,
        "--gamma", 2000, "--out", out,
    )
    assert code == 0
    assert json.loads((tmp_path / "d.grid.json").read_text())["cross_cardinality"] == 0
    assert len(load_grid(out)) == 0


@pytest.mark.parametrize("gamma", ["0.5", "nan"])
def test_diff_rejects_a_forced_gamma_below_one(tmp_path, poly_grid, capsys, gamma):
    out = tmp_path / "g.grid"
    code = run(
        "diff", poly_grid, "--r1", 2, "--r2", 1, "--delta", "1e-4", "--mu", 6,
        "--gamma", gamma, "--out", out,
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: gamma must be >= 1, got {float(gamma)}\n"
    assert not out.exists()


@pytest.mark.parametrize("noise,p", [
    ("off", 2.0), ("sphere", 2.0), ("single", 2.0), ("witness", 2.0), ("witness", math.inf),
])
def test_diff_matches_the_library_pipeline(tmp_path, poly_grid, noise, p):
    out = tmp_path / "d.grid"
    assert run(
        "diff", poly_grid, "--r1", 1, "--r2", 1, "--delta", "1e-3", "--mu", 5, "--p", p,
        "--noise", noise, "--seed", 4, "--out", out,
    ) == 0
    cls = ClassParams(s=2.0, mu=5.0)
    sel = select_parameters(SelectionInput(delta=1e-3, p=p, cls=cls, r1=1, r2=1, metric="l2"))
    cross = build_cross(sel.n, sel.gamma, 1, 1)
    support = max(cross.k_extent(), cross.j_extent()) + 2
    c = load_grid(poly_grid)
    expected_noise = {"mode": "off"}
    if noise != "off":
        mode = {"sphere": "random-sphere", "single": "single-coefficient",
                "witness": "adversarial-witness"}[noise]
        spec = NoiseSpec(p=p, delta=1e-3, mode=mode, seed=4, support=support)
        witness = witness_for_cross(cross, 1e-3, p, cls) if noise == "witness" else None
        c, xi = perturb(c, spec, witness=witness)
        expected_noise = {
            "mode": mode, "p": "inf" if p == math.inf else p, "delta": 1e-3, "seed": 4,
            "support": support, "norm": lp_norm(xi, p), "algorithm": "numpy-philox4x64",
        }
    deriv = apply_method(c, cross)
    assert out.read_text().split("\n", 1)[1] == dump_grid(deriv)
    assert json.loads((tmp_path / "d.grid.json").read_text())["noise"] == expected_noise


def _diff_manifest_hash(workdir, coeffs, reference=None):
    out = workdir / "d.grid"
    extra = ["--reference", reference] if reference else []
    assert run(
        "diff", coeffs, "--r1", 1, "--r2", 1, "--delta", "1e-4", "--mu", 5, *extra, "--out", out
    ) == 0
    return json.loads((workdir / "d.grid.manifest.json").read_text())["hash"]


def test_diff_manifest_hashes_input_contents(tmp_path):
    # same file names, different contents: the manifests must differ
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d, fn in zip(dirs, ("poly", "exp-sum")):
        d.mkdir()
        save_grid(compute_coeff_grid(REGISTRY[fn], 8), d / "in.grid")
        save_grid(compute_coeff_grid(oracle.exact_derivative(fn, 1, 1), 8), d / "ref.grid")
    coeff_hashes = [_diff_manifest_hash(d, d / "in.grid") for d in dirs]
    assert coeff_hashes[0] != coeff_hashes[1]
    ref_hashes = [_diff_manifest_hash(d, dirs[0] / "in.grid", d / "ref.grid") for d in dirs]
    assert ref_hashes[0] != ref_hashes[1]
    assert _diff_manifest_hash(dirs[1], dirs[0] / "in.grid") == coeff_hashes[0]


def test_diff_gives_the_same_results_from_both_grid_readers(tmp_path):
    # hand-written grids with extreme and 17-digit values: with LF line breaks
    # text.load_table reads them, with CRLF the line parser
    values = [
        "0.12345678901234567", "-1.2345678901234567e-05", "5e-324", "2.2250738585072014e-308",
        "-2.225073858507201e-308", "1e+16", "1.7976931348623157e+100", "-0.0001", "123456789012345.67",
        "9007199254740993", "4.9406564584124654e-324", "0.30000000000000004", "-9.999999999999999e+22",
    ]
    grids = {
        "coeffs": [f"{k}\t{j}\t{values[(3 * k + j) % len(values)]}" for k in range(6) for j in range(5)],
        "reference": [f"{k}\t{j}\t{values[(k + 5 * j) % len(values)]}" for k in range(2, 5) for j in range(1, 4)],
    }
    outputs = []
    for eol in ("\n", "\r\n"):
        d = tmp_path / ("crlf" if eol == "\r\n" else "lf")
        d.mkdir()
        for name, lines in grids.items():
            text = eol.join(["# hand-written", "# coeffgrid v1", *lines, ""])
            (d / f"{name}.grid").write_bytes(text.encode("ascii"))
            assert (load_table(text, spectral._body_start(text)) is None) == (eol == "\r\n")
        assert run("diff", d / "coeffs.grid", "--r1", 2, "--r2", 1, "--delta", "1e-6", "--mu", 6,
                   "--reference", d / "reference.grid", "--out", d / "d.grid") == 0
        sidecar = json.loads((d / "d.grid.json").read_text())
        sidecar.pop("manifest")
        outputs.append(((d / "d.grid").read_text().split("\n", 1)[1], sidecar))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["error_l2"] > 0 and len(outputs[0][0].splitlines()) > 5


def test_diff_reads_a_grid_file_without_holding_its_bytes_through_the_parse(tmp_path):
    # project-diff's exact derivative grid of |t-a|^2.5 |u-b|^2.5, about 2 MB of text
    a, b = 0.123, -0.321
    grid = compute_coeff_grid(lambda t, u: abs(t - a) ** 2.5 * abs(u - b) ** 2.5, 512, 522)
    path = tmp_path / "exact.grid"
    save_grid(spectral.mixed_derivative_coeffs(grid, 2, 1), path)
    data = path.read_bytes()
    tracemalloc.start()
    try:
        loaded, digest = spectral._read_grid(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == spectral.parse_grid(data.decode("ascii"))
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 4.5 * len(data)


# grid texts and what each of parse_grid, load_grid and diff reads from them: the
# grid's entries, or the one error; a file holds the text's UTF-8 bytes, and a
# lone surrogate \udcXX stands for the byte 0xXX that is not UTF-8
GRID_TEXTS = {
    "lf": ("# manifest sha256=0\n# coeffgrid v1\n0\t2\t-2.0\n3\t1\t1.5\n", {(0, 2): -2.0, (3, 1): 1.5}),
    "crlf": ("# manifest sha256=0\r\n# coeffgrid v1\r\n0\t2\t-2.0\r\n3\t1\t1.5\r\n",
             {(0, 2): -2.0, (3, 1): 1.5}),
    "cr": ("# manifest sha256=0\r# coeffgrid v1\r0\t2\t-2.0\r3\t1\t1.5\r", {(0, 2): -2.0, (3, 1): 1.5}),
    "arabic-indic-index": ("# coeffgrid v1\n\u0663\t\u0661\t\uff11.5\n",
                           "grid text is not ASCII: '\u0663' at offset 15"),
    "fullwidth-value": ("# coeffgrid v1\n3\t1\t\uff11.5\n", "grid text is not ASCII: '\uff11' at offset 19"),
    "comment": ("# caf\u00e9\n# coeffgrid v1\n3\t1\t1.5\n", "grid text is not ASCII: '\u00e9' at offset 5"),
    "byte-0xff": ("# coeffgrid v1\n3\t1\t1.5\udcff\n", "grid text is not ASCII: '\\udcff' at offset 22"),
}


@pytest.mark.parametrize("case", list(GRID_TEXTS))
def test_parse_grid_load_grid_and_diff_read_grid_text_alike(case, tmp_path, capsys):
    text, expected = GRID_TEXTS[case]
    path = tmp_path / "in.grid"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    diff = ["diff", path, "--r1", 1, "--r2", 1, "--delta", 1e-3, "--mu", 5, "--out", tmp_path / "d.grid"]
    if isinstance(expected, str):
        for read in (lambda: spectral.parse_grid(text), lambda: load_grid(path)):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == expected
        assert run(*diff) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert os.listdir(tmp_path) == ["in.grid"]
        return
    grid = hcderiv.CoeffGrid(oracle.scatter(expected))
    assert spectral.parse_grid(text) == grid and load_grid(path) == grid
    assert run(*diff) == 0
    manifest = json.loads((tmp_path / "d.grid.manifest.json").read_text())
    assert manifest["args"]["coeffs_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    save_grid(grid, tmp_path / "lf.grid")
    assert run(*diff[:1], tmp_path / "lf.grid", *diff[2:-1], tmp_path / "lf.d.grid") == 0
    assert load_grid(tmp_path / "d.grid") == load_grid(tmp_path / "lf.d.grid") != hcderiv.CoeffGrid()


@pytest.mark.parametrize("with_reference", [True, False], ids=["reference", "no-reference"])
def test_diff_writes_nothing_when_the_reference_errors_fail(tmp_path, capsys, with_reference):
    grid = tmp_path / "e.grid"
    assert run("coeffs", "exp-sum", "--k", 8, "--out", grid) == 0
    before = sorted(os.listdir(tmp_path))
    reference = ("--reference", grid) if with_reference else ()
    code = run("diff", grid, "--r1", 1, "--r2", 1, "--delta", "1e-4", "--mu", 5,
               *reference, "--resolution", 1, "--out", tmp_path / "d.grid")
    assert code == 2
    assert capsys.readouterr().err == "error: resolution must be >= 2\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("with_reference", [True, False], ids=["reference", "no-reference"])
def test_diff_rejects_a_sup_resolution_over_the_limit(tmp_path, capsys, with_reference):
    # 10**6 x 10**6 samples would need 7.28 TiB; the refusal comes before any sample
    grid = tmp_path / "e.grid"
    assert run("coeffs", "exp-sum", "--k", 8, "--out", grid) == 0
    before = sorted(os.listdir(tmp_path))
    reference = ("--reference", grid) if with_reference else ()
    code = run("diff", grid, "--r1", 1, "--r2", 1, "--delta", "1e-4", "--mu", 5,
               *reference, "--resolution", 1000000, "--out", tmp_path / "d.grid")
    assert code == 2
    assert capsys.readouterr().err == "error: resolution must be <= 8192, got 1000000\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_diff_rejects_a_grid_too_large_to_hold(tmp_path, capsys):
    huge = tmp_path / "huge.grid"
    huge.write_text("# coeffgrid v1\n999999999999999999\t0\t1.0\n")
    code = run("diff", huge, "--r1", 1, "--r2", 1, "--delta", "1e-4", "--mu", 5,
               "--out", tmp_path / "d.grid")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: grid shape (1000000000000000000, 1) exceeds the limit of 67108864 cells\n"
    )
    assert os.listdir(tmp_path) == ["huge.grid"]


def test_diff_rejects_a_cross_with_too_many_rows(tmp_path, capsys):
    # delta = 1e-300 selects n near 1e60, a cross of about 1e60 rows
    grid = tmp_path / "e.grid"
    assert run("coeffs", "exp-sum", "--k", 8, "--out", grid) == 0
    before = sorted(os.listdir(tmp_path))
    code = run("diff", grid, "--r1", 1, "--r2", 1, "--delta", "1e-300", "--mu", 5,
               "--out", tmp_path / "d.grid")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: cross for n=1.0000000000000076e+60 needs "
        "1000000000001007764664147292995031149143822535766588340043777 rows, "
        "over the limit of 67108864\n"
    )
    assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# every file is written as open(path, "w") would leave it, but whole

# each subcommand's arguments, run in a directory holding "in.grid" and "ref.grid",
# and the files it writes there
WRITES = {
    "coeffs": (["coeffs", "poly", "--k", 8, "--out", "o.grid"], ["o.grid"]),
    "diff": (
        ["diff", "in.grid", "--r1", 1, "--r2", 1, "--delta", 1e-6, "--mu", 4,
         "--reference", "ref.grid", "--out", "d.grid"],
        ["d.grid", "d.grid.json"],
    ),
    "cross": (["cross", "--n", 6, "--out", "c.txt"], ["c.txt"]),
    "experiment": (
        ["experiment", "--config", DEFAULT_CONFIG, "--out-csv", "e.csv", "--out-json", "e.json",
         "--out-svg", "e.svg"],
        ["e.csv", "e.json", "e.svg"],
    ),
    "radius": (["radius", "--n-values", "8,16,32,64", "--out-json", "r.json"], ["r.json"]),
}


@pytest.fixture()
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


@pytest.mark.parametrize("command", list(WRITES))
def test_every_written_file_gets_the_mode_of_a_new_file(command, tmp_path, monkeypatch, umask_027):
    argv, outputs = WRITES[command]
    monkeypatch.chdir(tmp_path)
    save_grid(compute_coeff_grid(REGISTRY["poly"], 8), "in.grid")
    save_grid(compute_coeff_grid(oracle.exact_derivative("poly", 1, 1), 8), "ref.grid")
    assert run(*argv) == 0
    written = ["in.grid", "ref.grid", *outputs, outputs[0] + ".manifest.json"]
    assert sorted(os.listdir(tmp_path)) == sorted(written)
    assert {name: os.stat(name).st_mode & 0o777 for name in written} == dict.fromkeys(written, 0o640)


def test_coeffs_over_a_file_keeps_its_mode(tmp_path):
    out = tmp_path / "o.grid"
    out.write_text("old\n")
    out.chmod(0o644)
    assert run("coeffs", "poly", "--k", 8, "--out", out) == 0
    assert out.stat().st_mode & 0o777 == 0o644
    assert load_grid(out) == compute_coeff_grid(REGISTRY["poly"], 8)


def test_coeffs_writes_through_a_symbolic_link(tmp_path):
    target, link, direct = tmp_path / "target.grid", tmp_path / "link.grid", tmp_path / "direct.grid"
    target.write_text("old\n")
    link.symlink_to(target.name)
    assert run("coeffs", "poly", "--k", 8, "--out", link) == 0
    assert run("coeffs", "poly", "--k", 8, "--out", direct) == 0
    assert link.is_symlink() and target.read_bytes() == direct.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith(".manifest.json")) == [
        "direct.grid", "link.grid", "target.grid",
    ]


@pytest.mark.parametrize("out", ["missing/o.grid", "adir"], ids=["missing-directory", "directory"])
def test_a_failed_write_names_the_output_path(out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("adir")
    assert run("coeffs", "poly", "--k", 4, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {out!r}\n") and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["adir"] and os.listdir("adir") == []


def test_the_manifest_is_written_only_after_every_output(tmp_path, monkeypatch, capsys):
    # the CSV and its manifest's place are fine; the JSON's target is a directory
    monkeypatch.chdir(tmp_path)
    os.mkdir("adir")
    assert run("experiment", "--config", DEFAULT_CONFIG, "--out-csv", "e.csv",
               "--out-json", "adir") == 2
    assert capsys.readouterr().err.endswith(": 'adir'\n")
    assert sorted(os.listdir(tmp_path)) == ["adir", "e.csv"]


# ---------------------------------------------------------------------------
# every subcommand renders its texts before it writes a file

# each subcommand's call that renders the text of its last output
RENDERS = {
    "coeffs": "dump_grid",
    "diff": "_json_text",
    "cross": "dump_cross",
    "experiment": "_svg_rate_plot",
    "radius": "_radius_to_json",
}


@pytest.mark.parametrize("command", list(RENDERS))
def test_a_failed_render_writes_nothing(command, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("render failed")

    argv, _ = WRITES[command]
    monkeypatch.chdir(tmp_path)
    save_grid(compute_coeff_grid(REGISTRY["poly"], 8), "in.grid")
    save_grid(compute_coeff_grid(oracle.exact_derivative("poly", 1, 1), 8), "ref.grid")
    monkeypatch.setattr(cli, RENDERS[command], fail)
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: render failed\n"
    assert sorted(os.listdir(tmp_path)) == ["in.grid", "ref.grid"]


@pytest.mark.parametrize("options, line", [
    # on any grid: the method's box and the noise square are sized from delta alone
    (["--delta", "1e-11"], "cross box shape (17013, 17013)"),
    (["--delta", "1e-16", "--noise", "sphere"], "cross box shape (1425103, 1425103)"),
    (["--delta", "1e-11", "--gamma", "100", "--noise", "sphere"], "noise square shape (17015, 17015)"),
    (["--delta", "1e-11", "--gamma", "100", "--noise", "single"], "noise square shape (17015, 17015)"),
])
def test_diff_refuses_a_cross_box_or_noise_square_over_the_cell_limit(options, line, tmp_path, capsys):
    grid = tmp_path / "p.grid"
    assert run("coeffs", "poly", "--k", 8, "--out", grid) == 0
    before = sorted(os.listdir(tmp_path))
    tracemalloc.start()
    try:
        code = run("diff", grid, "--r1", 1, "--r2", 1, "--mu", 2.6, *options, "--out", tmp_path / "d.grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: {line} exceeds the limit of {2**26} cells\n"
    assert sorted(os.listdir(tmp_path)) == before
    assert peak < 64 * 2**20  # no box or square


def test_a_cross_box_over_the_cell_limit_is_refused_before_the_cross_is_built(tmp_path, capsys):
    # at delta = 1e-20 diff's cross has 49238827 rows, within the row limit, and its box is
    # refused before they are built; the sweep is refused at its first such point
    grid, config = tmp_path / "p.grid", tmp_path / "big.ini"
    assert run("coeffs", "poly", "--k", 8, "--out", grid) == 0
    config.write_text("[class]\nmu = 2.6\n[sweep]\ndelta_stop = 1e-20\ncount = 5\n"
                      "[function]\nk_ref = 64\n")
    before = sorted(os.listdir(tmp_path))
    limit = f"exceeds the limit of {2**26} cells"
    runs = [
        (["diff", grid, "--r1", 1, "--r2", 1, "--mu", 2.6, "--delta", "1e-20",
          "--out", tmp_path / "d.grid"],
         2, f"error: cross box shape (49238827, 49238827) {limit}\n"),
        (["experiment", "--config", config, "--out-csv", tmp_path / "x.csv"],
         4, f"error: invalid config:\n  - selection: cross box shape (17013, 17013) {limit}\n"),
    ]
    for argv, exit_code, line in runs:
        tracemalloc.start()
        try:
            code = run(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == exit_code
        assert capsys.readouterr().err == line
        assert peak < 16 * 2**20
    assert sorted(os.listdir(tmp_path)) == before


def test_diff_and_experiment_refuse_an_empty_clean_gamma_interval(tmp_path, poly_grid, capsys):
    # at mu = 1e17 every exceptional point of the (3, 1) rule rounds to 1.0
    line = "no clean gamma interval above 1 at mu=1e+17, r1=3, r2=1"
    code = run("diff", poly_grid, "--r1", 3, "--r2", 1, "--delta", "1e-3", "--mu", "1e17",
               "--out", tmp_path / "d.grid")
    assert code == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    config = tmp_path / "gamma.ini"
    config.write_text("[class]\nmu = 1e17\n[orders]\nr1 = 3\nr2 = 1\n")
    assert run("experiment", "--config", config, "--out-csv", tmp_path / "x.csv") == 4
    assert capsys.readouterr().err == f"error: invalid config:\n  - selection: {line}\n"
    assert sorted(os.listdir(tmp_path)) == ["gamma.ini", "poly.grid"]


# ---------------------------------------------------------------------------
# cross

def test_cross_invalid_gamma(tmp_path, capsys):
    assert run("cross", "--n", 4, "--gamma", 0.5, "--out", tmp_path / "c.txt") == 2
    assert "gamma" in capsys.readouterr().err
    assert run("cross", "--n", 10, "--gamma", "nan", "--out", tmp_path / "c.txt") == 2
    assert capsys.readouterr().err == "error: gamma must be >= 1, got nan\n"
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("n", ["inf", "nan", "0", "-1"])
def test_cross_invalid_n(tmp_path, capsys, n):
    assert run("cross", "--n", n, "--out", tmp_path / "c.txt") == 2
    assert capsys.readouterr().err.startswith("error: n must be")
    assert not (tmp_path / "c.txt").exists()


def test_cross_rejects_more_rows_than_the_limit(tmp_path, capsys):
    assert run("cross", "--n", "1e12", "--out", tmp_path / "x.txt") == 2
    assert capsys.readouterr().err == (
        "error: cross for n=1000000000000.0 needs 1000000000002 rows, over the limit of 67108864\n"
    )
    assert os.listdir(tmp_path) == []


def test_cross_at_the_largest_float_is_refused_for_its_rows(tmp_path, capsys):
    # n times the relative guard overflows: the floor is taken at the largest float
    assert run("cross", "--n", "1.7976931348623157e308", "--out", tmp_path / "x.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cross for n=1.7976931348623157e+308 needs 17976931348623157")
    assert err.endswith(" rows, over the limit of 67108864\n")
    assert os.listdir(tmp_path) == []


def test_cross_with_r2_to_the_gamma_past_the_float_range_is_empty(tmp_path, capsys):
    # 2**2000 overflows a float: n < r1 * r2**gamma, so the cross is empty
    out = tmp_path / "g.txt"
    assert run("cross", "--n", 10, "--gamma", 2000, "--r2", 2, "--out", out) == 0
    assert capsys.readouterr().out == "cross cardinality: 0\n"
    assert out.read_text().splitlines()[1:] == ["# cross v1 n=10.0 gamma=2000.0 r1=1 r2=2"]


def test_cross_rejects_a_row_past_the_int64_range(tmp_path, capsys):
    # 1e5 rows, the first of them up to j = 1e20
    assert run("cross", "--n", "1e20", "--r2", 10**15, "--out", tmp_path / "x.txt") == 2
    assert capsys.readouterr().err == (
        "error: cross for n=1e+20 has rows past j=9223372036854775807, the int64 range\n"
    )
    assert os.listdir(tmp_path) == []


def test_cross_dump(tmp_path, capsys):
    out = tmp_path / "cross.txt"
    assert run("cross", "--n", 6, "--gamma", 1, "--r1", 2, "--r2", 1, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("# cross v1 n=6.0 gamma=1.0 r1=2 r2=1")
    assert "cardinality: 8" in capsys.readouterr().out
    assert len(lines) == 2 + 8


# ---------------------------------------------------------------------------
# experiment

def test_experiment_outputs_and_determinism(tmp_path):
    csv1, json1, svg1 = tmp_path / "r1.csv", tmp_path / "r1.json", tmp_path / "r1.svg"
    csv2, json2 = tmp_path / "r2.csv", tmp_path / "r2.json"
    assert run("experiment", "--config", DEFAULT_CONFIG, "--out-csv", csv1,
               "--out-json", json1, "--out-svg", svg1) == 0
    assert run("experiment", "--config", DEFAULT_CONFIG, "--out-csv", csv2,
               "--out-json", json2) == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert json1.read_bytes() == json2.read_bytes()

    lines = csv1.read_text().splitlines()
    assert lines[1] == "delta,n,gamma,cross_card,error_l2,error_c,noise_norm,wall_ms"
    assert len(lines) == 2 + 9  # manifest comment + header + sweep rows

    payload = json.loads(json1.read_text())
    for key in (
        "records", "fitted_exponent_l2", "fitted_exponent_c",
        "theoretical_exponent_l2", "theoretical_exponent_c", "manifest",
    ):
        assert key in payload
    assert len(payload["records"]) == 9

    svg = svg1.read_text()
    assert svg.count("<polyline") == 2
    assert "manifest sha256=" in svg


def test_experiment_timing_changes_only_the_wall_clock_column(tmp_path):
    outputs = {}
    for timing in ("on", "off"):
        config = tmp_path / f"{timing}.ini"
        config.write_text(DEFAULT_CONFIG.read_text().replace("timing = off", f"timing = {timing}"))
        csv, json_out = tmp_path / f"{timing}.csv", tmp_path / f"{timing}.json"
        assert run("experiment", "--config", config, "--out-csv", csv, "--out-json", json_out) == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
        payload = json.loads(json_out.read_text())
        wall_ms = [float(row.pop()) for row in rows]
        assert wall_ms == [rec.pop("wall_ms") for rec in payload["records"]]
        assert payload["config"].pop("timing") is (timing == "on")
        del payload["manifest"]
        outputs[timing] = (rows, payload, wall_ms)
    assert all(ms > 0 for ms in outputs["on"][2])
    assert all(ms == 0.0 for ms in outputs["off"][2])
    assert outputs["on"][:2] == outputs["off"][:2]


def test_experiment_matches_golden_files(tmp_path):
    csv_out, json_out = tmp_path / "g.csv", tmp_path / "g.json"
    assert run("experiment", "--config", DEFAULT_CONFIG, "--out-csv", csv_out,
               "--out-json", json_out) == 0
    assert csv_out.read_bytes() == (DATA / "golden_default.csv").read_bytes()
    assert json_out.read_bytes() == (DATA / "golden_default.json").read_bytes()


# The golden error_c column and fit_c as they were before the sup norm was
# summed in a fixed order, when they held one OpenBLAS kernel's rounding at
# one thread, and the sha256 of those golden files.
PRE_REPIN_ERROR_C = [
    0.036370669020008926,
    0.02092284623764127,
    0.012631716489007709,
    0.009434748966183954,
    0.0065917715409638065,
    0.004031629096726274,
    0.0033037839322288434,
    0.003605784655563661,
    0.001999370159033685,
]
PRE_REPIN_FIT_C = {
    "dropped": 2,
    "intercept": -2.6854102252462777,
    "residual": 0.13849845093269125,
    "slope": 0.25265422339804766,
}
PRE_REPIN_SHA256 = {
    "csv": "5a44e8f16be252dc8f75710d1a3654bb719ad71936cfa3f9e39639c0caa48d37",
    "json": "f3b9fb6cb6a2e422e28ee7cd11698813165c7ee8383c7380759cc33c57620140",
}


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_golden_repin_moved_only_the_last_bits_of_the_sup_values():
    lines = (DATA / "golden_default.csv").read_text().splitlines()
    payload = json.loads((DATA / "golden_default.json").read_text())
    rows = [line.split(",") for line in lines[2:]]
    error_c = [float(row[5]) for row in rows]
    assert [rec["error_c"] for rec in payload["records"]] == error_c
    assert error_c == pytest.approx(PRE_REPIN_ERROR_C, rel=1e-12, abs=0)
    assert payload["fit_c"] == pytest.approx(PRE_REPIN_FIT_C, rel=1e-12, abs=0)
    assert payload["fitted_exponent_c"] == payload["fit_c"]["slope"]

    # with the old values put back, every other byte is as it was
    for row, old in zip(rows, PRE_REPIN_ERROR_C):
        row[5] = repr(old)
    old_csv = "\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n"
    assert _sha256(old_csv) == PRE_REPIN_SHA256["csv"]
    for rec, old in zip(payload["records"], PRE_REPIN_ERROR_C):
        rec["error_c"] = old
    payload["fit_c"] = PRE_REPIN_FIT_C
    payload["fitted_exponent_c"] = PRE_REPIN_FIT_C["slope"]
    old_json = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert _sha256(old_json) == PRE_REPIN_SHA256["json"]


def _run_cli_with_blas_threads(argv, threads, cpu_features_off=None):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if cpu_features_off is not None:  # numpy's own switch for its SIMD-dispatched kernels
        env["NPY_DISABLE_CPU_FEATURES"] = cpu_features_off
    src = str(Path(hcderiv.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hcderiv.cli", *map(str, argv)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["experiment", "radius", "diff"])
def test_outputs_do_not_depend_on_the_blas_thread_count(command, tmp_path):
    if command == "diff":
        coeffs, reference = tmp_path / "f.grid", tmp_path / "ref.grid"
        save_grid(compute_coeff_grid(REGISTRY["exp-sum"], 64), coeffs)
        save_grid(compute_coeff_grid(oracle.exact_derivative("exp-sum", 1, 1), 64), reference)
    runs = [(1, None), (2, None)]
    if command == "radius":  # also with numpy's AVX-512 and x86-64-v3 kernels off
        runs += [(threads, "AVX512_SPR AVX512_ICL X86_V4 X86_V3") for threads in (1, 2)]
    outputs = []
    for i, (threads, cpu_features_off) in enumerate(runs):
        out = tmp_path / str(i)
        out.mkdir()
        if command == "experiment":
            files = [out / "run.csv", out / "run.json"]
            argv = ["experiment", "--config", DEFAULT_CONFIG,
                    "--out-csv", files[0], "--out-json", files[1]]
        elif command == "radius":
            files = [out / "radius.json"]
            argv = ["radius", "--n-values", "8,16,32,64", "--mu", 3, "--out-json", files[0]]
        else:
            files = [out / "d.grid", out / "d.grid.json"]
            argv = ["diff", coeffs, "--r1", 1, "--r2", 1, "--delta", "1e-4", "--mu", 5,
                    "--noise", "sphere", "--seed", 3, "--reference", reference, "--out", files[0]]
        _run_cli_with_blas_threads(argv, threads, cpu_features_off)
        outputs.append([f.read_bytes() for f in files])
    assert all(o == outputs[0] for o in outputs[1:])
    if command == "radius":  # each of the four runs writes the golden's bytes
        assert outputs[0] == [(DATA / "golden_radius.json").read_bytes()]


def test_experiment_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[class]\ns = 0.5\nmu = -1\n[sweep]\ndelta_start = 1e-6\ndelta_stop = 1e-2\n"
        "count = oops\n[mystery]\nfoo = 1\n"
    )
    code = run("experiment", "--config", bad, "--out-csv", tmp_path / "x.csv")
    assert code == 4
    err = capsys.readouterr().err
    assert "count" in err
    assert "mystery" in err


def test_experiment_invalid_field_values(tmp_path, capsys):
    bad = tmp_path / "bad2.ini"
    bad.write_text("[class]\ns = 0.5\nmu = -1\n")
    code = run("experiment", "--config", bad, "--out-csv", tmp_path / "x.csv")
    assert code == 4
    err = capsys.readouterr().err
    assert "s:" in err and "mu:" in err


@pytest.mark.parametrize("gamma", ["0.5", "nan"])
def test_experiment_rejects_a_gamma_override_below_one(tmp_path, capsys, gamma):
    bad = tmp_path / "gamma.ini"
    bad.write_text(f"[method]\ngamma = {gamma}\n")
    code = run("experiment", "--config", bad, "--out-csv", tmp_path / "x.csv")
    assert code == 4
    assert capsys.readouterr().err == (
        f"error: invalid config:\n  - gamma: override must be >= 1, got {float(gamma)}\n"
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("function", ["boundary-decay", "poly"])
def test_experiment_rejects_a_k_ref_over_the_cell_limit(tmp_path, capsys, function):
    bad = tmp_path / "big.ini"
    bad.write_text(f"[function]\nid = {function}\nk_ref = 1000000\n")
    code = run("experiment", "--config", bad, "--out-csv", tmp_path / "x.csv")
    assert code == 4
    assert capsys.readouterr().err == (
        "error: invalid config:\n"
        "  - k_ref: grid shape (1000001, 1000001) exceeds the limit of 67108864 cells\n"
    )
    assert os.listdir(tmp_path) == ["big.ini"]


@pytest.mark.parametrize("value", ["sph%re", "%(x)s", "sph%%re"])
def test_experiment_reads_a_percent_sign_as_written(tmp_path, capsys, value):
    bad = tmp_path / "percent.ini"
    bad.write_text(f"[noise]\nmode = {value}\n")
    code = run("experiment", "--config", bad, "--out-csv", tmp_path / "x.csv")
    assert code == 4
    assert capsys.readouterr().err == (
        "error: invalid config:\n"
        f"  - mode: must be one of ('sphere', 'single', 'witness', 'off'), got {value!r}\n"
    )
    assert os.listdir(tmp_path) == ["percent.ini"]


def test_experiment_rejects_a_k_ref_past_the_quadrature_limit(tmp_path, capsys):
    bad = tmp_path / "order.ini"
    bad.write_text("[function]\nid = poly\nk_ref = 4090\n")
    code = run("experiment", "--config", bad, "--out-csv", tmp_path / "x.csv")
    assert code == 4
    assert capsys.readouterr().err == (
        "error: invalid config:\n"
        "  - k_ref: must be <= 4086 for a projected function, whose quadrature order "
        "k_ref + 10 is at most 4096, got 4090\n"
    )
    assert os.listdir(tmp_path) == ["order.ini"]


@pytest.mark.parametrize("section,key,value,limit", [
    ("method", "sup_resolution", 1000000, 8192),
    ("sweep", "count", 1000000000000, 65536),
    # the sweep plan is built in validation, so the cap comes before it
    ("sweep", "count", 65537, 65536),
])
def test_experiment_rejects_a_size_over_the_limit(tmp_path, capsys, section, key, value, limit):
    bad = tmp_path / "big.ini"
    bad.write_text(f"[{section}]\n{key} = {value}\n")
    code = run("experiment", "--config", bad, "--out-csv", tmp_path / "x.csv")
    assert code == 4
    assert capsys.readouterr().err == (
        f"error: invalid config:\n  - {key}: must be <= {limit}, got {value}\n"
    )
    assert os.listdir(tmp_path) == ["big.ini"]


def test_experiment_missing_config(tmp_path):
    assert run("experiment", "--config", tmp_path / "nope.ini",
               "--out-csv", tmp_path / "x.csv") == 4


def test_experiment_requires_an_output(tmp_path):
    assert run("experiment", "--config", DEFAULT_CONFIG) == 2


def test_experiment_svg_only(tmp_path):
    svg = tmp_path / "only.svg"
    assert run("experiment", "--config", DEFAULT_CONFIG, "--out-svg", svg) == 0
    assert svg.read_text().count("<polyline") == 2


def test_experiment_svg_without_positive_errors(tmp_path):
    # the derivative of a constant is 0 and mode off adds no noise: every error is 0.0
    config = tmp_path / "zero.ini"
    text = DEFAULT_CONFIG.read_text().replace("id = boundary-decay", "id = one")
    config.write_text(text.replace("mode = sphere", "mode = off"))
    csv, svg, csv_only = tmp_path / "z.csv", tmp_path / "z.svg", tmp_path / "only.csv"
    assert run("experiment", "--config", config, "--out-csv", csv, "--out-svg", svg) == 0
    assert run("experiment", "--config", config, "--out-csv", csv_only) == 0
    assert csv.read_bytes() == csv_only.read_bytes()
    rows = [row.split(",") for row in csv.read_text().splitlines()[2:]]
    assert rows and all(float(row[4]) == float(row[5]) == 0.0 for row in rows)
    root = ElementTree.fromstring(svg.read_bytes())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert svg.read_text().count("<polyline") == 0
    assert svg.read_text().count("<line") == 2


def test_cli_runs_as_subprocess(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "one.grid"
    proc = subprocess.run(
        [sys.executable, "-m", "hcderiv.cli", "coeffs", "one", "--k", "2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# radius

def test_radius_study_cli(tmp_path):
    out = tmp_path / "rad.json"
    assert run("radius", "--n-values", "8,16,32,64", "--mu", 3, "--out-json", out) == 0
    payload = json.loads(out.read_text())
    for key in ("c_tilde", "c_bar", "c_dbar"):
        assert key in payload
    assert payload["c_tilde"] == pytest.approx((1 + 4**6) ** -0.5, rel=1e-12)
    for rec in payload["records"]:
        assert rec["verify_c"]["passed"] and rec["verify_l2"]["passed"]
        assert set(rec["skew"]) == {"even", "odd"}


@pytest.mark.parametrize("golden,options", [
    ("golden_radius.json", ["--mu", 3]),
    ("golden_radius_r2_inf.json", ["--r1", 2, "--r2", 1, "--mu", 7, "--p", "inf"]),
])
def test_radius_matches_golden_files(golden, options, tmp_path):
    out = tmp_path / "r.json"
    assert run("radius", "--n-values", "8,16,32,64", *options, "--out-json", out) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_radius_rejects_small_sweeps(tmp_path, capsys):
    line = (
        "error: need at least 4 band sizes, each >= 4; "
        "smaller sweeps are too small for rate fitting\n"
    )
    assert run("radius", "--n-values", "2", "--out-json", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == line
    assert run("radius", "--n-values", "8,16", "--out-json", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("n_values, repeated", [("8,8,8,8", "8"), ("8,16,16,32", "16")])
def test_radius_rejects_repeated_band_sizes(n_values, repeated, tmp_path, capsys):
    # a slope fitted through repeated sizes would come from a rank-deficient system
    assert run("radius", "--n-values", n_values, "--out-json", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == f"error: band sizes must be distinct; repeated: {repeated}\n"
    assert os.listdir(tmp_path) == []


def test_radius_rejects_a_band_over_the_cell_limit(tmp_path, capsys):
    # N = 2**40 needs a (3N + 2) x 2 witness array
    code = run("radius", "--n-values", "4,8,16,1099511627776", "--out-json", tmp_path / "r.json")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: grid shape (3298534883330, 2) exceeds the limit of 67108864 cells\n"
    )
    assert os.listdir(tmp_path) == []


def test_radius_rejects_a_sup_resolution_over_the_limit(tmp_path, capsys):
    code = run("radius", "--n-values", "4,8,16,32", "--resolution", 1000000,
               "--out-json", tmp_path / "r.json")
    assert code == 2
    assert capsys.readouterr().err == "error: resolution must be <= 8192, got 1000000\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("options, line", [
    # 4^(s mu) overflows; c_tilde = 2^-600 and the band value at N = 4 is 2^-1201
    (["--n-values", "4,5,6,7", "--mu", 300],
     "error: the witness band value underflows to 0.0 at N=4, s=2.0, mu=300.0\n"),
    (["--n-values", "8,16,32,64", "--mu", 200],
     "error: the witness band value underflows to 0.0 at N=16, s=2.0, mu=200.0\n"),
    # r2^mu = 4^520 overflows
    (["--n-values", "4,5,6,7", "--r1", 4, "--r2", 4, "--mu", 520],
     "error: the witness band value underflows to 0.0 at N=4, s=2.0, mu=520.0\n"),
    # the bound's 1 / (2^r1 r1!) takes it below the double range before the band value
    (["--n-values", "4,5,6,7", "--r1", 40, "--mu", 260],
     "error: the lower bound of metric c underflows to 0.0 at N=4, r1=40, r2=1, s=2.0, mu=260.0\n"),
    # r1! is past the double range, so c_bar is taken in log form, where it is below it
    (["--n-values", "4,5,6,7", "--r1", 400, "--mu", 3],
     "error: the constant of metric c underflows to 0.0 at N=4, r1=400, r2=1, s=2.0, mu=3.0\n"),
    (["--n-values", "4,5,6,7", "--r1", 1000, "--mu", 3],
     "error: the constant of metric c underflows to 0.0 at N=4, r1=1000, r2=1, s=2.0, mu=3.0\n"),
    # (2 r2)! is past the double range but c_bar is not; the (90, 90) derivative is
    (["--n-values", "4,5,6,7", "--r1", 90, "--r2", 90, "--mu", 3],
     "error: the measured value of metric c overflows at N=4, r1=90, r2=90, s=2.0, mu=3.0\n"),
])
def test_radius_rejects_a_witness_below_the_double_range(options, line, tmp_path, capsys):
    assert run("radius", *options, "--out-json", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == line
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("resolution, line", [
    (1, "error: resolution must be >= 2\n"),
    (8193, "error: resolution must be <= 8192, got 8193\n"),
])
def test_radius_rejects_a_sup_resolution_outside_the_limits(resolution, line, tmp_path, capsys):
    # the radius study samples nothing, yet the resolution is checked
    code = run("radius", "--n-values", "4,8,16,32", "--resolution", resolution,
               "--out-json", tmp_path / "r.json")
    assert code == 2
    assert capsys.readouterr().err == line
    assert os.listdir(tmp_path) == []


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_values=st.lists(st.integers(4, 64), min_size=4, max_size=4, unique=True),
    r1=st.integers(1, 1000),
    r2=st.integers(1, 1000),
    s=st.one_of(st.floats(1.0, 10.0), st.floats(1.0, 1e8)),
    mu=st.one_of(st.floats(0.01, 20.0), st.floats(0.01, 5000.0)),
    p=st.sampled_from(["1", "2", "3", "inf"]),
    resolution=st.integers(1, 9000),
)
# the overflow crashes: factorials and 2^(3 r1 + r2 - 3/2) past the double range
@example(n_values=[4, 5, 6, 7], r1=400, r2=1, s=2.0, mu=3.0, p="2", resolution=257)
@example(n_values=[4, 5, 6, 7], r1=90, r2=90, s=2.0, mu=3.0, p="2", resolution=257)
@example(n_values=[4, 5, 6, 7], r1=1000, r2=1, s=2.0, mu=3.0, p="2", resolution=257)
# the witness distance is below 2^-1024, so the selection rule's 1 / delta overflows
@example(n_values=[19, 22, 38, 49], r1=1, r2=1, s=15270.023733435626, mu=140.268719431597,
         p="2", resolution=257)
def test_radius_exits_with_a_documented_code_and_one_error_line(
    n_values, r1, r2, s, mu, p, resolution, tmp_path, capsys
):
    code = run("radius", "--n-values", ",".join(map(str, n_values)), "--r1", r1, "--r2", r2,
               "--s", repr(s), "--mu", repr(mu), "--p", p, "--resolution", resolution,
               "--out-json", tmp_path / "r.json")
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# coeffs, cross and diff exit with a documented code

# each option takes a usual value, or one time in eight an unusual one: for floats an edge
# of the double range, for integers a value out of range or at the edge of 64 bits
_EDGES = st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "5e-324"])
_INT64_EDGES = st.sampled_from([2**63 - 1, 2**63, 10**300, -(10**300)])


def _mostly(usual, unusual):
    return st.integers(0, 7).flatmap(lambda i: unusual if i == 0 else usual)


def _real(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), _EDGES)


def _integer(lo, hi, unusual=st.integers(-2, 0)):
    return _mostly(st.integers(lo, hi), unusual | _INT64_EDGES).map(str)


def _option(flag, values):
    # "--flag=value", since argparse reads a separate "-1" as an option
    return values.map(lambda v: [f"{flag}={v}"])


def _optional(flag, values):
    return st.one_of(st.just([]), _option(flag, values))


_COEFFS_OPTIONS = st.tuples(
    _mostly(st.sampled_from(sorted(REGISTRY)), st.just("nope")).map(lambda f: [f]),
    _option("--k", _integer(0, 64)),
    _optional("--m", _integer(66, 200, st.integers(-2, 65) | st.just(4097))),
    _optional("--s", _real(1.0, 10.0)),
    _optional("--mu", _real(0.01, 20.0)),
    _optional("--epsilon", _real(1e-3, 1.0)),
    _optional("--seed", _integer(0, 2**64 - 1, st.sampled_from([-1, 2**64]))),
)
_CROSS_OPTIONS = st.tuples(
    # --n stays at most 1e4 where it is finite, so the cross stays small
    _option("--n", _mostly(st.floats(0.0, 1e4).map(repr),
                           st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-300", "5e-324"]))),
    _optional("--gamma", _real(1.0, 10.0)),
    _optional("--r1", _integer(1, 20)),
    _optional("--r2", _integer(1, 20)),
)


@st.composite
def _diff_options(draw):
    """Orders r1 >= r2 and a mu that admits them, each but one time in eight."""
    r2 = draw(_mostly(st.integers(1, 3), st.integers(-1, 0) | _INT64_EDGES))
    r1 = draw(_mostly(st.integers(0, 2).map(lambda d: r2 + d), st.integers(-1, 20) | _INT64_EDGES))
    low = 2 * min(max(r1, 0), 20) + 1.5
    return [
        f"--r1={r1}", f"--r2={r2}",
        *draw(_option("--delta", _mostly(
            st.sampled_from([f"1e-{e}" for e in range(1, 21)]) | st.floats(1e-20, 0.5).map(repr),
            _EDGES,
        ))),
        *draw(_option("--mu", _mostly(st.floats(low, low + 12.0).map(repr),
                                      _EDGES | st.floats(0.0, 1e20).map(repr)))),
        *draw(_optional("--p", _mostly(st.sampled_from(["1", "2", "3", "inf"]),
                                       st.sampled_from(["0.5", "nan", "-1", "1e300"])))),
        *draw(_optional("--s", _real(1.0, 10.0))),
        *draw(_optional("--metric", st.sampled_from(["l2", "c", "both"]))),
        *draw(_optional("--gamma", _real(1.0, 10.0))),
        *draw(_optional("--noise", st.sampled_from(["sphere", "single", "witness", "off"]))),
        *draw(_optional("--seed", _integer(0, 2**64 - 1, st.sampled_from([-1, 2**64])))),
        *draw(_optional("--resolution", _integer(2, 8192, st.sampled_from([-1, 0, 1, 8193])))),
    ]


# the exit codes the README documents for each subcommand
_EXITS = {"coeffs": (0, 2), "cross": (0, 2), "diff": (0, 2, 3, 5)}


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(
    _COEFFS_OPTIONS.map(lambda parts: ["coeffs", *sum(parts, [])]),
    _CROSS_OPTIONS.map(lambda parts: ["cross", *sum(parts, [])]),
    _diff_options().map(lambda options: ["diff", *options]),
))
# a cross box or noise square sized from delta alone: here the lowered limit refuses the
# box of the first two and the rows of the next two (see the test above for the real limit)
@example(argv=["diff", "--r1", "1", "--r2", "1", "--mu", "2.6", "--delta", "1e-11"])
@example(argv=["diff", "--r1", "1", "--r2", "1", "--mu", "2.6", "--delta", "1e-12"])
@example(argv=["diff", "--r1", "1", "--r2", "1", "--mu", "2.6", "--delta", "1e-16"])
@example(argv=["diff", "--r1", "1", "--r2", "1", "--mu", "2.6", "--delta", "1e-20"])
@example(argv=["diff", "--r1", "1", "--r2", "1", "--mu", "2.6", "--delta", "1e-12",
               "--noise", "sphere"])
# a noise square past the limit below a thin cross box
@example(argv=["diff", "--r1", "1", "--r2", "1", "--mu", "2.6", "--delta", "1e-11",
               "--gamma", "100", "--noise", "sphere"])
# no clean gamma interval: every exceptional point rounds to 1.0
@example(argv=["diff", "--r1", "3", "--r2", "1", "--delta", "1e-3", "--mu", "1e17"])
# an empty cross whose rows hold r2 - 1 = 10**9 - 1
@example(argv=["diff", "--r1", str(10**9), "--r2", str(10**9), "--mu", "1e10", "--delta", "0.5"])
# orders past 64 bits
@example(argv=["diff", "--r1", str(2**63 + 1), "--r2", str(2**63 + 1), "--mu", "1e300", "--delta", "0.5"])
@example(argv=["diff", "--r1", str(10**400), "--r2", "1", "--mu", "1e300", "--delta", "0.5"])
@example(argv=["cross", "--n", "10", "--r1", str(2**63 + 1), "--r2", str(2**63 + 1)])
def test_coeffs_cross_and_diff_exit_with_a_documented_code_and_one_error_line(
    argv, tmp_path, capsys, monkeypatch
):
    # every array sized from an input number is refused past _MAX_GRID_CELLS; with the
    # limit at 2**20 cells the arrays an accepted example builds stay far below 64 MB
    for module in (spectral, hcderiv.cross):
        monkeypatch.setattr(module, "_MAX_GRID_CELLS", 2**20)
    command, options = argv[0], argv[1:]
    if command == "diff":
        grid = tmp_path / "in.grid"
        grid.write_text(dump_grid(compute_coeff_grid(REGISTRY["poly"], 8)))
        options = [grid, *options]
    tracemalloc.start()
    try:
        code = run(command, *options, "--out", tmp_path / "out.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code in _EXITS[command]
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# main parses with the arguments of the invoked subcommand alone

# argv that the parser answers itself, with help, the version or a usage error
PARSER_EXITS = [["--help"], ["--version"], [], ["nope"], ["-h", "radius"], ["cross", "--nope"]]
PARSER_EXITS += [[command, flag] for command in WRITES for flag in ("--help", "-h")]
PARSER_EXITS += [[command] for command in WRITES]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_answers_as_the_parser_with_every_subcommands_arguments(argv, capsys):
    with pytest.raises(SystemExit) as full:
        cli._build_parser().parse_args(argv)
    expected = (full.value.code, *capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == expected
    assert expected[0] == (0 if {"-h", "--help", "--version"} & set(argv) else 2)


@pytest.mark.parametrize("command", list(WRITES))
def test_a_subcommand_parses_alike_with_its_arguments_alone(command):
    argv = [str(a) for a in WRITES[command][0]]
    alone, full = cli._build_parser(command), cli._build_parser()
    assert vars(alone.parse_args(argv)) == vars(full.parse_args(argv))
    # the other subcommands are registered without their arguments, required ones too
    for other in WRITES:
        if other != command:
            assert set(vars(alone.parse_args([other]))) == {"command", "func"}
