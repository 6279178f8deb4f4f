"""The three benchmark workloads: input generation, the op, and its checks.

An op is one complete user job.  ``prepare`` turns the seed into the inputs
the program sees, ``run_op`` is the timed job, and ``check`` inspects its
outputs outside the timed region.  Checks compare numbers, not bytes, with
the reference outputs stored in ``references/`` for the same input variant.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# library calls go through module attributes, so a traced run sees them
import hcderiv
from hcderiv import cli

WORKLOADS = ("convergence", "radius", "project-diff")
SCALES = ("full", "smoke")

# the seed selects one of this many input variants, each with stored reference outputs
VARIANTS = 16
# relative tolerance against the stored references; the outputs move in their
# last digits with the BLAS thread count (about 1e-15), far inside this
REF_REL_TOL = 1e-9
# the acceptance suite's tolerance on fitted rate exponents.  The paper's
# exponents bound the worst case; the slopes of single random noise draws come
# out steeper (at the full scale by 0.10 to 0.13 for L2 and 0.11 to 0.22 for the
# sup metric, the latter also at sup_resolution 1025), so only a slope slower
# than theory by more than this is an error.  Any change of a slope still fails
# the reference comparison.
RATE_TOL = 0.15
NOISE_NORM_REL_TOL = 1e-12

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

_CONVERGENCE = {
    "full": {"k_ref": 400, "count": 13, "delta_stop": "1e-10"},
    "smoke": {"k_ref": 64, "count": 9, "delta_stop": "1e-6"},
}
_RADIUS_N = {"full": "256,512,1024,2048,4096", "smoke": "8,16,32,64"}
_PROJECT_K = {"full": 512, "smoke": 48}
_DIFF_ORDERS = (2, 1)
_DIFF_DELTA = 1e-8

_SKIP_FIELDS = ("manifest", "wall_ms")


def variant_of(workload: str, seed: int) -> int:
    return 0 if workload == "radius" else seed % VARIANTS


def prepare(workload: str, seed: int, scale: str, workdir: str) -> dict:
    """Generate the inputs of a workload; the same seed gives the same inputs."""
    os.makedirs(workdir, exist_ok=True)
    variant = variant_of(workload, seed)
    inputs = {"workload": workload, "scale": scale, "variant": variant, "workdir": workdir}
    if workload == "convergence":
        size = _CONVERGENCE[scale]
        config = os.path.join(workdir, "convergence.ini")
        with open(config, "w", encoding="ascii") as fh:
            fh.write(
                "[class]\ns = 2\nmu = 4\n\n[orders]\nr1 = 1\nr2 = 1\n\n"
                f"[noise]\nmode = sphere\np = 2\nseed = {variant}\nnum_seeds = 1\n\n"
                f"[sweep]\ndelta_start = 1e-2\ndelta_stop = {size['delta_stop']}\n"
                f"count = {size['count']}\n\n"
                f"[function]\nid = boundary-decay\nepsilon = 0.01\nk_ref = {size['k_ref']}\n\n"
                "[method]\nmetric = both\nsup_resolution = 129\n\n[output]\ntiming = off\n"
            )
        inputs["config"] = config
    elif workload == "radius":
        inputs["n_values"] = _RADIUS_N[scale]
    elif workload == "project-diff":
        rng = np.random.Generator(np.random.Philox(key=variant))
        a, b = (float(x) for x in rng.uniform(-0.5, 0.5, size=2))
        inputs.update({"a": a, "b": b, "k": _PROJECT_K[scale]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def run_op(inputs: dict, opdir: str) -> dict:
    """One complete user job; returns its exit code and what it produced."""
    workload = inputs["workload"]
    if workload == "convergence":
        csv_path = os.path.join(opdir, "run.csv")
        json_path = os.path.join(opdir, "run.json")
        rc = cli.main(["experiment", "--config", inputs["config"],
                       "--out-csv", csv_path, "--out-json", json_path])
        return {"rc": rc, "csv": csv_path, "json": json_path,
                "cli_files": [csv_path, json_path, csv_path + ".manifest.json"]}
    if workload == "radius":
        json_path = os.path.join(opdir, "radius.json")
        rc = cli.main(["radius", "--n-values", inputs["n_values"], "--r1", "1", "--r2", "1",
                       "--mu", "3", "--p", "2", "--out-json", json_path])
        return {"rc": rc, "json": json_path, "cli_files": [json_path, json_path + ".manifest.json"]}
    a, b, k = inputs["a"], inputs["b"], inputs["k"]
    grid = hcderiv.compute_coeff_grid(lambda t, u: np.abs(t - a) ** 2.5 * np.abs(u - b) ** 2.5, k, k + 10)
    exact = hcderiv.mixed_derivative_coeffs(grid, *_DIFF_ORDERS)
    grid_path = os.path.join(opdir, "f.grid")
    exact_path = os.path.join(opdir, "exact.grid")
    out_path = os.path.join(opdir, "deriv.grid")
    hcderiv.save_grid(grid, grid_path)
    hcderiv.save_grid(exact, exact_path)
    rc = cli.main(["diff", grid_path, "--r1", str(_DIFF_ORDERS[0]), "--r2", str(_DIFF_ORDERS[1]),
                   "--metric", "c", "--mu", "6", "--noise", "sphere", "--delta", repr(_DIFF_DELTA),
                   "--seed", str(inputs["variant"]), "--reference", exact_path, "--out", out_path])
    return {"rc": rc, "grid": grid, "exact": exact, "json": out_path + ".json",
            "cli_files": [out_path, out_path + ".json", out_path + ".manifest.json"]}


# ---------------------------------------------------------------------------
# checks


def json_leaves(value, prefix: str = "") -> dict:
    """Leaves of a JSON value keyed by path, without hashes and wall times."""
    out = {}
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in _SKIP_FIELDS:
                out.update(json_leaves(item, f"{prefix}{key}."))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out.update(json_leaves(item, f"{prefix}{i}."))
    else:
        out[prefix.rstrip(".")] = value
    return out


def rel_dev(value, ref) -> float:
    """Relative deviation of a number from its reference; inf on a type or text mismatch."""
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return 0.0 if value == ref else math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.inf
    if value == ref:
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    return abs(value - ref) / max(abs(value), abs(ref))


def compare(fields: dict, ref: dict) -> tuple[float, list[str]]:
    """Largest relative deviation from the reference, and the fields past tolerance."""
    worst = 0.0
    problems = []
    for key in sorted(set(fields) | set(ref)):
        if key not in fields or key not in ref:
            problems.append(f"field {key} is {'missing' if key in ref else 'new'}")
            continue
        dev = rel_dev(fields[key], ref[key])
        worst = max(worst, dev)
        if dev > REF_REL_TOL:
            problems.append(f"{key}: {fields[key]!r} vs reference {ref[key]!r}")
    return worst, problems


def load_reference(workload: str, scale: str, variant: int) -> dict | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}-{scale}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="ascii") as fh:
        return json.load(fh)["variants"].get(str(variant))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def brute_force_cardinality(n: float, gamma: float, r1: int, r2: int) -> int:
    """Count pairs k >= r1, j >= r2 with k * j**gamma <= n (1e-12 relative guard)."""
    limit = n * (1.0 + 1e-12)
    top = int(math.ceil(n)) + 1
    return sum(1 for k in range(r1, top + 1) for j in range(r2, top + 1) if k * j**gamma <= limit)


def output_fields(inputs: dict, out: dict) -> tuple[dict, list[str], float | None]:
    """Numeric output fields, workload-specific problems and the rate gap of one op."""
    problems: list[str] = []
    rate_gap = None
    with open(out["json"], encoding="ascii") as fh:
        payload = json.load(fh)
    workload = inputs["workload"]
    if workload == "convergence":
        for rec in payload["records"]:
            bad = [k for k, v in rec.items() if not _finite(v)]
            if bad:
                problems.append(f"record at delta={rec.get('delta')!r} has non-finite {bad}")
        gaps = []
        for metric in ("l2", "c"):
            fitted = payload[f"fitted_exponent_{metric}"]
            theory = payload[f"theoretical_exponent_{metric}"]
            if not (_finite(fitted) and _finite(theory)):
                problems.append(f"no fitted or theoretical {metric} exponent")
                continue
            gaps.append(abs(fitted - theory))
            if theory - fitted > RATE_TOL:
                problems.append(f"{metric} exponent {fitted:.4f} is below theory {theory:.4f} "
                                f"by more than {RATE_TOL}")
        rate_gap = max(gaps) if gaps else None
        with open(out["csv"], encoding="ascii") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if len(rows) != len(payload["records"]):
            problems.append("CSV and JSON record counts differ")
        for row, rec in zip(rows, payload["records"]):
            for key, text in row.items():
                if key != "wall_ms" and rel_dev(float(text), rec[key]) != 0.0:
                    problems.append(f"CSV {key}={text} differs from JSON {rec[key]!r}")
    elif workload == "radius":
        for rec in payload["records"]:
            reports = [("verify_c", rec["verify_c"]), ("verify_l2", rec["verify_l2"])]
            for skew, pair in rec["skew"].items():
                reports += [(f"skew.{skew}.c", pair["c"]), (f"skew.{skew}.l2", pair["l2"])]
            for label, rep in reports:
                if rep["passed"] is not True:
                    problems.append(f"N={rec['N']} {label} failed: ratio {rep['ratio']!r}")
        gaps = [payload["exponent_gap_l2"], payload["exponent_gap_c"]]
        if all(_finite(g) for g in gaps):
            rate_gap = max(gaps)
        else:
            problems.append("radius study has no exponent gap")
    else:
        norm = payload["noise"]["norm"]
        if rel_dev(norm, _DIFF_DELTA) > NOISE_NORM_REL_TOL:
            problems.append(f"noise norm {norm!r} is not delta {_DIFF_DELTA!r}")
        expected = brute_force_cardinality(payload["n"], payload["gamma"], *_DIFF_ORDERS)
        if payload["cross_cardinality"] != expected:
            problems.append(f"cross cardinality {payload['cross_cardinality']} != brute force {expected}")
        grid, exact = out["grid"], out["exact"]
        payload["inputs"] = {"a": inputs["a"], "b": inputs["b"]}
        payload["grid"] = {"entries": len(grid), "l2": float(np.linalg.norm(grid.values()))}
        payload["exact"] = {"entries": len(exact), "l2": float(np.linalg.norm(exact.values()))}
    return json_leaves(payload), problems, rate_gap


def check(inputs: dict, out: dict) -> dict:
    """Checks of one op's outputs; ``problems`` is empty when the op passed."""
    if out["rc"] != 0:
        return {"problems": [f"exit code {out['rc']}"], "max_rel_dev": None, "rate_gap": None}
    fields, problems, rate_gap = output_fields(inputs, out)
    ref = load_reference(inputs["workload"], inputs["scale"], inputs["variant"])
    if ref is None:
        problems.append("no stored reference for this input variant")
        worst = None
    else:
        worst, ref_problems = compare(fields, ref)
        problems += ref_problems
    return {"problems": problems, "max_rel_dev": worst, "rate_gap": rate_gap}


def bytes_out(out: dict) -> int:
    """Bytes in the files the CLI wrote for the op."""
    return sum(os.path.getsize(p) for p in out["cli_files"] if os.path.exists(p))
