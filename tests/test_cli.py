import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import hcderiv
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
from hcderiv.truncation import MethodParams, SelectionInput, apply_method, select_parameters

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


def test_coeffs_round_trip(tmp_path):
    out = tmp_path / "poly.grid"
    assert run("coeffs", "poly", "--k", 8, "--out", out) == 0
    loaded = load_grid(out)
    direct = compute_coeff_grid(REGISTRY["poly"].callable(), 8)
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
    save_grid(compute_coeff_grid(REGISTRY["poly"].callable(), 12), path)
    return path


def test_diff_zero_noise_matches_analytic(tmp_path, poly_grid):
    ref_path = tmp_path / "ref.grid"
    save_grid(compute_coeff_grid(REGISTRY["poly"].derivative_callable(1, 1), 12), ref_path)
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
    deriv = apply_method(c, MethodParams(n=sel.n, gamma=sel.gamma, r1=1, r2=1))
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
        save_grid(compute_coeff_grid(REGISTRY[fn].callable(), 8), d / "in.grid")
        save_grid(compute_coeff_grid(REGISTRY[fn].derivative_callable(1, 1), 8), d / "ref.grid")
    coeff_hashes = [_diff_manifest_hash(d, d / "in.grid") for d in dirs]
    assert coeff_hashes[0] != coeff_hashes[1]
    ref_hashes = [_diff_manifest_hash(d, dirs[0] / "in.grid", d / "ref.grid") for d in dirs]
    assert ref_hashes[0] != ref_hashes[1]
    assert _diff_manifest_hash(dirs[1], dirs[0] / "in.grid") == coeff_hashes[0]


# ---------------------------------------------------------------------------
# cross

def test_cross_invalid_gamma(tmp_path, capsys):
    assert run("cross", "--n", 4, "--gamma", 0.5, "--out", tmp_path / "c.txt") == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["inf", "nan", "0", "-1"])
def test_cross_invalid_n(tmp_path, capsys, n):
    assert run("cross", "--n", n, "--out", tmp_path / "c.txt") == 2
    assert capsys.readouterr().err.startswith("error: n must be")
    assert not (tmp_path / "c.txt").exists()


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


def _run_cli_with_blas_threads(argv, threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
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
        save_grid(compute_coeff_grid(REGISTRY["exp-sum"].callable(), 64), coeffs)
        save_grid(compute_coeff_grid(REGISTRY["exp-sum"].derivative_callable(1, 1), 64), reference)
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
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
        _run_cli_with_blas_threads(argv, threads)
        outputs[threads] = [f.read_bytes() for f in files]
    assert outputs[1] == outputs[2]


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


def test_radius_rejects_small_sweeps(tmp_path, capsys):
    line = (
        "error: need at least 4 band sizes, each >= 4; "
        "smaller sweeps are too small for rate fitting\n"
    )
    assert run("radius", "--n-values", "2", "--out-json", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == line
    assert run("radius", "--n-values", "8,16", "--out-json", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == line


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
