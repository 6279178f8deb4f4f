import json
from pathlib import Path

import pytest

from hcderiv.cli import main
from hcderiv.harness import REGISTRY
from hcderiv.quadrature import compute_coeff_grid
from hcderiv.spectral import load_grid, parseval_l2_norm, save_grid, sup_norm_on_grid

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
    assert run("radius", "--n-values", "2", "--out-json", tmp_path / "r.json") == 2
    assert "rate fitting" in capsys.readouterr().err
    assert run("radius", "--n-values", "8,16", "--out-json", tmp_path / "r.json") == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
