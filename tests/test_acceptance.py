"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the
measured quantity so a run log doubles as a report.  Criteria and
tolerances:

1. basis orthonormality (k, j <= 50) within 1e-12, under 5 s
2. coefficient-space vs pointwise derivatives (k <= 40, r <= 3)
   within 1e-8 relative, under 5 s
3. method exactness on a polynomial with zero noise, errors < 1e-10
4. L2 rate for mu=4, r1=r2=1, p=s=2: fitted exponent 0.5 +- 0.15,
   under 60 s
5. sup-metric rate, same setup: 0.25 +- 0.15, under 60 s
6. unequal orders mu=6, r1=2, r2=1: fitted L2 exponent 1/3 +- 0.15,
   under 120 s
7. witness lower bounds for r1=r2=1, s=2, mu=3, N in {8,16,32,64},
   with the explicit constants; distances match closed form to 1e-12,
   under 30 s
8. hyperbolic-cross enumeration vs brute force (n <= 200), the divisor
   sum at n=100, and n log n growth up to 4096
9. byte-identical CSV/JSON from two runs of the bundled config
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from hcderiv.cli import main as cli_main
from hcderiv.cross import build_cross
from hcderiv.harness import REGISTRY, ExperimentConfig, run_convergence_study
from hcderiv.legendre import (
    clenshaw_eval,
    eval_phi_derivative,
    muller_differentiate_iterated,
    phi_vandermonde,
)
from hcderiv.lowerbound import (
    build_witness_pair,
    verify_lower_bound_C,
    verify_lower_bound_L2,
    witness_lp_distance,
)
from hcderiv.quadrature import compute_coeff_grid, gauss_legendre_rule
from hcderiv.spectral import (
    ClassParams,
    class_norm,
    parseval_l2_norm,
    sup_norm_on_grid,
)
from hcderiv.truncation import MethodParams, apply_method

DEFAULT_CONFIG = Path(__file__).parents[1] / "src" / "hcderiv" / "configs" / "default.ini"


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_basis_orthonormality():
    start = time.perf_counter()
    rule = gauss_legendre_rule(51)
    v = phi_vandermonde(50, rule.nodes)
    gram = v.T @ (rule.weights[:, None] * v)
    deviation = float(np.max(np.abs(gram - np.eye(51))))
    elapsed = time.perf_counter() - start
    ok = deviation < 1e-12 and elapsed < 5.0
    _report(1, "basis-orthonormality", ok, f"max deviation {deviation:.2e}, {elapsed:.2f}s")
    assert deviation < 1e-12
    assert elapsed < 5.0


def test_criterion_2_coefficient_vs_pointwise_derivatives():
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 201)
    worst = 0.0
    for r in (1, 2, 3):
        for k in range(41):
            series = muller_differentiate_iterated({k: 1.0}, r)
            exact = np.array([eval_phi_derivative(k, r, t) for t in grid])
            approx = np.array([clenshaw_eval(series, t) for t in grid])
            rel = float(np.max(np.abs(approx - exact))) / (1.0 + float(np.max(np.abs(exact))))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(2, "derivative-equivalence", ok, f"worst relative {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_3_method_exactness_on_polynomial():
    entry = REGISTRY["poly"]
    grid = compute_coeff_grid(entry.callable(), 12)
    reference = compute_coeff_grid(entry.derivative_callable(1, 1), 12)
    # covering cross: every source index with k, j >= 1 satisfies k*j <= 20
    out = apply_method(grid, MethodParams(n=20.0, gamma=1.0, r1=1, r2=1))
    diff = out - reference
    err_l2 = parseval_l2_norm(diff)
    err_c = sup_norm_on_grid(diff, 257) if len(diff) else 0.0
    ok = err_l2 < 1e-10 and err_c < 1e-10
    _report(3, "method-exactness", ok, f"l2 {err_l2:.2e}, sup {err_c:.2e}")
    assert err_l2 < 1e-10
    assert err_c < 1e-10


@pytest.fixture(scope="module")
def default_rate_study():
    start = time.perf_counter()
    cfg = ExperimentConfig(num_seeds=5)
    result = run_convergence_study(cfg)
    return result, time.perf_counter() - start


def test_criterion_4_l2_rate(default_rate_study):
    result, elapsed = default_rate_study
    fitted, target = result.fitted_exponent_l2, result.theoretical_exponent_l2
    ok = abs(fitted - target) <= 0.15 and elapsed < 60.0
    _report(4, "l2-rate", ok, f"fitted {fitted:.4f} vs {target}, {elapsed:.1f}s")
    assert target == pytest.approx(0.5)
    assert abs(fitted - target) <= 0.15
    assert elapsed < 60.0


def test_criterion_5_sup_rate(default_rate_study):
    result, elapsed = default_rate_study
    fitted, target = result.fitted_exponent_c, result.theoretical_exponent_c
    ok = abs(fitted - target) <= 0.15 and elapsed < 60.0
    _report(5, "sup-rate", ok, f"fitted {fitted:.4f} vs {target}, {elapsed:.1f}s")
    assert target == pytest.approx(0.25)
    assert abs(fitted - target) <= 0.15
    assert elapsed < 60.0


def test_criterion_6_unequal_orders_rate():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        mu=6.0, r1=2, r2=1, metric="l2", delta_start=1e-4, delta_stop=1e-10,
        delta_count=9, num_seeds=5, k_ref=64,
    )
    result = run_convergence_study(cfg)
    elapsed = time.perf_counter() - start
    fitted, target = result.fitted_exponent_l2, result.theoretical_exponent_l2
    gamma = result.records[0].gamma
    ok = abs(fitted - target) <= 0.15 and elapsed < 120.0
    _report(
        6, "unequal-orders-rate", ok,
        f"fitted {fitted:.4f} vs {target:.4f}, gamma {gamma:.4f}, {elapsed:.1f}s",
    )
    assert target == pytest.approx(1 / 3)
    assert gamma == pytest.approx(7 / 6)
    assert abs(fitted - target) <= 0.15
    assert elapsed < 120.0


def test_criterion_7_lower_bounds():
    start = time.perf_counter()
    cls = ClassParams(2, 3)
    all_ok = True
    details = []
    for N in (8, 16, 32, 64):
        w = build_witness_pair(N, 1, 1, cls)
        norm_ok = class_norm(w.f1, cls) <= 1.0 + 1e-12
        rep_c = verify_lower_bound_C(w)
        rep_l2 = verify_lower_bound_L2(w)
        dist_ok = True
        for p in (1.0, 2.0, math.inf):
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            closed = w.c_tilde * N ** (-cls.mu - 1 / cls.s + inv_p)
            dist_ok &= abs(witness_lp_distance(w, p) - closed) <= 1e-12 * closed
        all_ok &= norm_ok and rep_c.passed and rep_l2.passed and dist_ok
        details.append(f"N={N} ratioC {rep_c.ratio:.2f} ratioL2 {rep_l2.ratio:.2f}")
        assert norm_ok
        assert rep_c.passed and rep_l2.passed
        assert dist_ok
    elapsed = time.perf_counter() - start
    _report(7, "lower-bounds", all_ok and elapsed < 30.0, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_8_cross_cardinality():
    guard = 1.0 + 1e-12
    mismatches = 0
    for gamma in (1.0, 1.5, 2.0):
        for n in range(1, 201):
            enumerated = set(build_cross(float(n), gamma, 1, 1).indices)
            brute = {
                (k, j)
                for k in range(1, n + 2)
                for j in range(1, n + 2)
                if k * j**gamma <= n * guard
            }
            if enumerated != brute:
                mismatches += 1
    card_100 = len(build_cross(100, 1, 1, 1))
    growth_ok = all(
        0.5 <= len(build_cross(n, 1, 1, 1)) / (n * math.log(n)) <= 2.0
        for n in (64, 256, 1024, 4096)
    )
    ok = mismatches == 0 and card_100 == 482 and growth_ok
    _report(8, "cross-cardinality", ok,
            f"mismatches {mismatches}, card(100)={card_100}, growth ok {growth_ok}")
    assert mismatches == 0
    assert card_100 == 482
    assert growth_ok


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        code = cli_main([
            "experiment", "--config", str(DEFAULT_CONFIG),
            "--out-csv", str(csv), "--out-json", str(js),
        ])
        assert code == 0
        outs.append((csv.read_bytes(), js.read_bytes()))
    same = outs[0] == outs[1]
    _report(9, "determinism", same, f"csv {len(outs[0][0])} bytes, json {len(outs[0][1])} bytes")
    assert same
