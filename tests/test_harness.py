import numpy as np
import pytest

from hcderiv.harness import (
    REGISTRY,
    DecayProfile,
    ExperimentConfig,
    fit_rate,
    run_convergence_study,
    run_radius_study,
    single_term_class_function,
    synthesize_class_function,
)
from hcderiv.quadrature import compute_coeff_grid
from hcderiv.spectral import (
    ClassParams,
    class_norm,
    mixed_derivative_coeffs,
    parseval_l2_norm,
    sup_norm_on_grid,
)

CLS = ClassParams(2, 4)


# ---------------------------------------------------------------------------
# registry

def test_registry_ships_required_functions():
    assert {"poly", "exp-sum", "boundary-decay"} <= set(REGISTRY)


def test_poly_derivative_is_exact():
    entry = REGISTRY["poly"]
    grid = compute_coeff_grid(entry.callable(), 8)
    derived = mixed_derivative_coeffs(grid, 1, 1)
    analytic = compute_coeff_grid(entry.derivative_callable(1, 1), 8)
    diff = derived - analytic
    assert parseval_l2_norm(diff) < 1e-10
    assert sup_norm_on_grid(diff, 129) < 1e-10 if len(diff) else True


def test_poly_derivative_callable_values():
    # p = t^4 u^3 + 2 t^2 u + t u^2, so d2p/dt du = 12 t^3 u^2 + 4 t + 2 u
    d = REGISTRY["poly"].derivative_callable(1, 1)
    for t, u in [(0.0, 0.0), (0.5, -0.5), (-1.0, 1.0)]:
        assert d(t, u) == pytest.approx(12 * t**3 * u**2 + 4 * t + 2 * u, rel=1e-14, abs=1e-14)


def test_exp_sum_derivative_is_itself():
    entry = REGISTRY["exp-sum"]
    f = entry.callable()
    d = entry.derivative_callable(3, 2)
    assert d(0.3, -0.2) == f(0.3, -0.2)


# ---------------------------------------------------------------------------
# synthetic class functions

def test_synthetic_function_on_unit_sphere():
    grid = synthesize_class_function(CLS, DecayProfile(epsilon=0.01, kmax=64), seed=0)
    assert class_norm(grid, CLS) == pytest.approx(1.0, abs=1e-12)


def test_synthetic_function_deterministic():
    a = synthesize_class_function(CLS, DecayProfile(epsilon=0.01, kmax=32), seed=5)
    b = synthesize_class_function(CLS, DecayProfile(epsilon=0.01, kmax=32), seed=5)
    assert a == b
    c = synthesize_class_function(CLS, DecayProfile(epsilon=0.01, kmax=32), seed=6)
    assert a != c


def test_single_term_function():
    cls = ClassParams(2, 3)
    g = single_term_class_function(cls, 2, 3)
    assert g.array.shape == (3, 4) and np.count_nonzero(g.array) == 1
    assert g.array[2, 3] == pytest.approx(6.0**-3, rel=1e-15)
    assert class_norm(g, cls) == pytest.approx(1.0, rel=1e-14)


def test_profile_validation():
    with pytest.raises(ValueError):
        DecayProfile(epsilon=0.0, kmax=10)
    with pytest.raises(ValueError):
        DecayProfile(epsilon=0.1, kmax=10, signs="alternating")


# ---------------------------------------------------------------------------
# rate fitting

def test_fit_exact_power_law():
    deltas = np.geomspace(1e-1, 1e-7, 13)
    pts = [(float(d), float(3 * d**0.7)) for d in deltas]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(0.7, abs=1e-9)
    assert fit.residual < 1e-12


def test_fit_constant_errors():
    fit = fit_rate([(1e-2, 0.5), (1e-4, 0.5)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_rate([(1e-2, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(1e-2, 0.5), (1e-3, 0.0)])
    with pytest.raises(ValueError):
        fit_rate([(1e-2, 0.5), (-1e-3, 0.1)])


# ---------------------------------------------------------------------------
# convergence studies

def test_config_validation_collects_problems():
    cfg = ExperimentConfig(s=0.5, r1=1, r2=2, metric="bogus", delta_start=1e-6, delta_stop=1e-2)
    problems = cfg.validate()
    joined = "\n".join(problems)
    assert "s:" in joined
    assert "r1/r2:" in joined
    assert "metric:" in joined
    assert "delta_start" in joined


def test_config_kref_guard():
    cfg = ExperimentConfig(k_ref=10)
    problems = cfg.validate()
    assert any("k_ref" in p for p in problems)


def test_zero_noise_errors_monotone():
    # positive-sign coefficients make the omitted-tail error monotone
    # under nested crosses in both metrics
    base = ExperimentConfig(noise_mode="off", num_seeds=1, k_ref=40,
                            delta_start=1e-2, delta_stop=1e-5, delta_count=7,
                            sup_resolution=65)
    grid = synthesize_class_function(
        base.cls(), DecayProfile(epsilon=0.01, kmax=40, signs="positive"), seed=1
    )
    from hcderiv.cross import build_cross
    from hcderiv.spectral import restrict_to_cross
    from hcderiv.truncation import MethodParams, SelectionInput, apply_method, select_parameters

    d_ref = mixed_derivative_coeffs(grid, 1, 1)
    errors_l2, errors_c = [], []
    for d in base.deltas():
        sel = select_parameters(
            SelectionInput(delta=float(d), p=2.0, cls=base.cls(), r1=1, r2=1, metric="l2")
        )
        approx = apply_method(grid, MethodParams(n=sel.n, gamma=sel.gamma, r1=1, r2=1))
        diff = approx - d_ref
        errors_l2.append(parseval_l2_norm(diff))
        errors_c.append(sup_norm_on_grid(diff, 65))
    for seq in (errors_l2, errors_c):
        assert all(a >= b * (1 - 1e-12) for a, b in zip(seq, seq[1:]))


def test_reference_consistency_with_covering_cross():
    cfg = ExperimentConfig(noise_mode="off", num_seeds=1, k_ref=210,
                           delta_start=5e-10, delta_stop=1e-10, delta_count=4,
                           sup_resolution=33, epsilon=0.5)
    # n = delta^(-1/4) >= 210^2 would need delta <= 5e-10 ... use direct check
    grid = synthesize_class_function(cfg.cls(), DecayProfile(epsilon=0.5, kmax=12), seed=3)
    from hcderiv.truncation import MethodParams, apply_method

    d_ref = mixed_derivative_coeffs(grid, 1, 1)
    approx = apply_method(grid, MethodParams(n=200.0, gamma=1.0, r1=1, r2=1))
    diff = approx - d_ref
    assert parseval_l2_norm(diff) <= 1e-12


def test_study_runs_and_is_deterministic():
    cfg = ExperimentConfig(delta_start=1e-2, delta_stop=1e-4, delta_count=5,
                           k_ref=16, sup_resolution=33, num_seeds=2)
    a = run_convergence_study(cfg)
    b = run_convergence_study(cfg)
    assert a.records == b.records
    assert a.fitted_exponent_l2 == b.fitted_exponent_l2
    deltas = [r.delta for r in a.records]
    assert deltas == sorted(deltas, reverse=True)
    assert a.records[0].noise_norm == pytest.approx(1e-2, rel=1e-14)
    assert a.theoretical_exponent_l2 == pytest.approx(0.5)
    assert a.theoretical_exponent_c == pytest.approx(0.25)


def test_fitted_exponent_absent_for_short_sweeps():
    cfg = ExperimentConfig(delta_start=1e-2, delta_stop=1e-3, delta_count=3,
                           k_ref=16, sup_resolution=33)
    res = run_convergence_study(cfg)
    assert res.fitted_exponent_l2 is None
    assert res.fitted_exponent_c is None


def test_invalid_config_raises():
    cfg = ExperimentConfig(delta_start=1e-6, delta_stop=1e-2)
    with pytest.raises(ValueError):
        run_convergence_study(cfg)


def test_noise_support_rule():
    cfg = ExperimentConfig(delta_start=1e-2, delta_stop=1e-6, delta_count=9, k_ref=64)
    # largest cross at delta = 1e-6: n = 1e6 ** (1/4) ~ 31.6
    assert cfg.noise_support() == 33


# ---------------------------------------------------------------------------
# radius studies

def test_radius_study_order_optimality():
    study = run_radius_study([16, 32, 64, 128], ClassParams(2, 6), 2, 1, 2.0,
                             sup_resolution=65)
    assert study.exponent_gap_l2() <= 0.2
    assert study.exponent_gap_c() <= 0.2
    assert study.fitted_bound_l2 == pytest.approx(-2.0, abs=1e-9)
    assert study.fitted_bound_c == pytest.approx(-1.0, abs=1e-9)
    assert study.fitted_method_l2 == pytest.approx(-2.0, abs=0.2)
    assert study.fitted_method_c == pytest.approx(-1.0, abs=0.2)
    for rec in study.records:
        assert rec.verify_c.passed and rec.verify_l2.passed
        # the method cannot beat the minimal radius
        assert rec.method_error_l2 >= rec.radius_bound_l2
        assert rec.method_error_c >= rec.radius_bound_c
        assert set(rec.skew_reports) == {"even", "odd"}


def test_study_single_coefficient_noise():
    cfg = ExperimentConfig(noise_mode="single", delta_start=1e-2, delta_stop=1e-4,
                           delta_count=5, k_ref=16, sup_resolution=33)
    res = run_convergence_study(cfg)
    for rec in res.records:
        assert rec.noise_norm == pytest.approx(rec.delta, rel=1e-14)


def test_study_witness_noise():
    cfg = ExperimentConfig(noise_mode="witness", delta_start=1e-2, delta_stop=1e-4,
                           delta_count=5, k_ref=16, sup_resolution=33)
    res = run_convergence_study(cfg)
    for rec in res.records:
        assert rec.noise_norm <= rec.delta * (1 + 1e-12)


def test_study_c_metric_selection():
    # adjacent orders under the sup metric select gamma inside the open
    # interval starting at 1
    cfg = ExperimentConfig(metric="c", mu=7.0, r1=2, r2=1, delta_start=1e-3,
                           delta_stop=1e-6, delta_count=4, k_ref=24, sup_resolution=33)
    res = run_convergence_study(cfg)
    assert res.case_label == "c-adjacent-orders"
    assert 1.0 < res.records[0].gamma < (3.5 + 2.5) / (3.5 + 0.5)
    assert res.theoretical_exponent_c == pytest.approx((7 - 4 + 0.5 - 1.5) / 7)


def test_c_metric_admissibility_reported_as_config_problem():
    cfg = ExperimentConfig(metric="c", mu=3.0)
    problems = cfg.validate()
    assert any("selection" in p and "mu" in p for p in problems)


def test_radius_study_needs_enough_points():
    with pytest.raises(ValueError):
        run_radius_study([8, 16], ClassParams(2, 6), 2, 1, 2.0)
    with pytest.raises(ValueError):
        run_radius_study([2, 8, 16, 32], ClassParams(2, 6), 2, 1, 2.0)
