import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import dict_oracle as oracle
from hcderiv import cli, harness, lowerbound, spectral, truncation
from hcderiv.cross import build_cross
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
    CoeffGrid,
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
    grid = compute_coeff_grid(REGISTRY["poly"], 8)
    derived = mixed_derivative_coeffs(grid, 1, 1)
    analytic = compute_coeff_grid(oracle.exact_derivative("poly", 1, 1), 8)
    diff = derived - analytic
    assert parseval_l2_norm(diff) < 1e-10
    assert sup_norm_on_grid(diff, 129) < 1e-10 if len(diff) else True


def test_poly_derivative_callable_values():
    # p = t^4 u^3 + 2 t^2 u + t u^2, so d2p/dt du = 12 t^3 u^2 + 4 t + 2 u
    d = oracle.exact_derivative("poly", 1, 1)
    for t, u in [(0.0, 0.0), (0.5, -0.5), (-1.0, 1.0)]:
        assert d(t, u) == pytest.approx(12 * t**3 * u**2 + 4 * t + 2 * u, rel=1e-14, abs=1e-14)


def test_exp_sum_derivative_is_itself():
    f = REGISTRY["exp-sum"]
    d = oracle.exact_derivative("exp-sum", 3, 2)
    assert d(0.3, -0.2) == f(0.3, -0.2)


# ---------------------------------------------------------------------------
# synthetic class functions

def test_synthetic_function_on_unit_sphere():
    grid = synthesize_class_function(CLS, DecayProfile(epsilon=0.01, kmax=64), seed=0)
    assert class_norm(grid, CLS) == pytest.approx(1.0, abs=1e-12)


def test_synthetic_function_at_a_weight_past_the_float_range():
    # at s * mu = 100 the weight (64 * 64)^100 overflows, but the grid stays finite
    cls = ClassParams(2, 50)
    grid = synthesize_class_function(cls, DecayProfile(epsilon=0.01, kmax=64), seed=0)
    assert grid.array.shape == (65, 65) and np.all(np.isfinite(grid.array))
    kk = np.maximum(1, np.arange(65)).astype(float)
    weighted = (np.outer(kk, kk) ** cls.mu * np.abs(grid.array)) ** cls.s
    assert np.sum(weighted) ** (1.0 / cls.s) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu,zeros,norm", [(100, 1004, 0.994007377871551), (50, 0, 1.0)])
def test_synthetic_function_falls_short_of_norm_one_once_coefficients_underflow(mu, zeros, norm):
    # at mu = 100 the far coefficients fall below the double range after the norm is taken
    cls = ClassParams(2, mu)
    grid = synthesize_class_function(cls, DecayProfile(epsilon=0.01, kmax=64), seed=0)
    assert np.count_nonzero(grid.array == 0.0) == zeros
    assert class_norm(grid, cls) == pytest.approx(norm, abs=1e-12)


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
        DecayProfile(epsilon=0.1, kmax=-1)
    # an (8193, 8193) grid is just over 2**26 cells; 8192 x 8192 is at the limit
    with pytest.raises(ValueError, match="exceeds the limit of 67108864 cells"):
        DecayProfile(epsilon=0.1, kmax=8192)
    DecayProfile(epsilon=0.1, kmax=8191)


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


def test_fit_rejects_points_that_share_one_delta():
    # one delta gives a rank-1 system, whose least-squares slope is only the minimum-norm one
    for points in ([(1e-3, 0.5), (1e-3, 0.1)], [(2.0, 1.0)] * 5):
        with pytest.raises(ValueError, match="^rate fit needs at least 2 distinct deltas$"):
            fit_rate(points)
    assert fit_rate([(1e-3, 0.5), (1e-3, 0.1), (1e-4, 0.05)]).slope > 0


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


@pytest.mark.parametrize("function_id", ["one", "poly", "exp-sum"])
def test_config_bounds_a_projected_k_ref_by_the_quadrature_order(function_id):
    # a projected grid runs the rule of order k_ref + 10, at most 4096
    assert ExperimentConfig(function_id=function_id, k_ref=4086).validate() == []
    assert ExperimentConfig(function_id=function_id, k_ref=4087).validate() == [
        "k_ref: must be <= 4086 for a projected function, whose quadrature order "
        "k_ref + 10 is at most 4096, got 4087"
    ]
    # a synthetic grid needs no quadrature
    assert ExperimentConfig(function_id="boundary-decay", k_ref=4087).validate() == []


def test_zero_noise_errors_monotone():
    # positive coefficients make the omitted-tail error monotone under
    # nested crosses in both metrics
    base = ExperimentConfig(noise_mode="off", num_seeds=1, k_ref=40,
                            delta_start=1e-2, delta_stop=1e-5, delta_count=7,
                            sup_resolution=65)
    grid = synthesize_class_function(base.cls(), DecayProfile(epsilon=0.01, kmax=40), seed=1)
    grid = CoeffGrid(np.abs(grid.array))
    from hcderiv.truncation import SelectionInput, apply_method, select_parameters

    d_ref = mixed_derivative_coeffs(grid, 1, 1)
    errors_l2, errors_c = [], []
    for d in base.deltas():
        sel = select_parameters(
            SelectionInput(delta=float(d), p=2.0, cls=base.cls(), r1=1, r2=1, metric="l2")
        )
        approx = apply_method(grid, build_cross(sel.n, sel.gamma, 1, 1))
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
    from hcderiv.truncation import apply_method

    d_ref = mixed_derivative_coeffs(grid, 1, 1)
    approx = apply_method(grid, build_cross(200.0, 1.0, 1, 1))
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


def test_one_cross_per_sweep_point(monkeypatch, tmp_path):
    calls = []

    def counting_build_cross(*args):
        calls.append(args)
        return build_cross(*args)

    for module in (cli, harness):
        monkeypatch.setattr(module, "build_cross", counting_build_cross)
    # the default config sweeps 9 deltas, each with its own cross
    result = run_convergence_study(ExperimentConfig())
    assert len(calls) == len(set(calls)) == len(result.records) == 9
    calls.clear()
    config = Path(__file__).parents[1] / "src" / "hcderiv" / "configs" / "default.ini"
    assert cli.main(["experiment", "--config", str(config), "--out-csv", str(tmp_path / "r.csv")]) == 0
    assert len(calls) == 9
    calls.clear()
    # the radius study reads only the selected (n, gamma): it builds no cross
    run_radius_study([8, 16, 32, 64], ClassParams(2, 3), 1, 1, 2.0)
    assert calls == []


# the convergence workload's scale: a 401 x 401 reference and 13 deltas
_LARGE = ExperimentConfig(delta_start=1e-2, delta_stop=1e-10, delta_count=13, k_ref=400,
                          sup_resolution=129)


def test_one_reference_screen_per_repetition(monkeypatch):
    shapes = []

    def recording_screen(a, resolution):
        shapes.append(a.shape)
        return sample_screen(a, resolution)

    sample_screen = spectral._sample_screen
    monkeypatch.setattr(spectral, "_sample_screen", recording_screen)
    config = dataclasses.replace(_LARGE, num_seeds=2)
    result = run_convergence_study(config)
    # the (1, 1) derivative of the 401 x 401 reference is 400 x 400; every
    # sweep point screens only its approximation, inside its cross's box
    points = [shape for shape in shapes if shape != (400, 400)]
    assert len(shapes) - len(points) == config.num_seeds
    assert len(points) == config.num_seeds * len(result.records)
    assert max(max(shape) for shape in points) < config.noise_support()


def test_convergence_study_peak_stays_below_seven_and_a_half_references():
    run_convergence_study(_LARGE)  # keeps the sample basis, as a repeated study does
    tracemalloc.start()
    try:
        run_convergence_study(_LARGE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 401 * 401 * 8


def test_one_derivative_per_witness(monkeypatch):
    calls = []

    def counting_derivative(c, r1, r2):
        calls.append((r1, r2))
        return mixed_derivative_coeffs(c, r1, r2)

    for module in (harness, lowerbound, truncation):
        monkeypatch.setattr(module, "mixed_derivative_coeffs", counting_derivative)
    run_radius_study([8, 16, 32, 64], ClassParams(2, 6), 2, 1, 2.0)
    # per band size: the witness and its two skewed copies, one derivative each
    assert len(calls) == 4 * 3
    assert set(calls) == {(2, 1)}


# ---------------------------------------------------------------------------
# noise queued a few points ahead on a helper thread

_SMALL = ExperimentConfig(delta_start=1e-2, delta_stop=1e-4, delta_count=5, k_ref=16,
                          sup_resolution=33, num_seeds=2)
# long enough that a queue without a bound would run far past its window
_LONG = dataclasses.replace(_SMALL, delta_count=24)


def _sequential_sums(config):
    """Per point: the summed L2 and C errors and noise norms of a plain loop drawing inline."""
    support, cls = config.noise_support(), config.cls()
    sums = np.zeros((config.delta_count, 3))
    for rep in range(config.num_seeds):
        ref = harness._registry_grid(
            config.function_id, config.k_ref, harness._FUNCTION_STREAM_OFFSET + config.seed + rep,
            config.s, config.mu, config.epsilon,
        )
        reference = spectral._ErrorReference(
            mixed_derivative_coeffs(ref, config.r1, config.r2), config.sup_resolution
        )
        for i, (delta, (_, cross)) in enumerate(zip(config.deltas(), config._sweep_plan)):
            seed = config.seed + rep * config.delta_count + i
            xi, norm = harness._point_noise(
                cross, config.noise_mode, config.p, float(delta), seed, support, cls
            )
            # only the noise on the cross is handed on: one value per index pair of the cross
            assert xi.shape == (len(cross),)
            approx = harness._noisy_method(ref, cross, xi)
            sums[i] += (*reference.errors(approx), norm)
    return sums


def test_noise_off_is_the_zero_draw():
    cross = build_cross(40.0, 1.5, 1, 1)
    xi, norm = harness._point_noise(cross, "off", 2.0, 1e-3, 0, 12, CLS)
    assert xi.tolist() == [0.0] * len(cross) and norm == 0.0


@pytest.mark.parametrize("mode", ["sphere", "single", "witness", "off"])
def test_the_noise_values_on_the_cross_give_the_bits_of_the_restricted_draw(mode, monkeypatch):
    draws = [CoeffGrid()]  # mode "off" draws nothing: xi = 0
    draw = harness._draw
    monkeypatch.setattr(harness, "_draw", lambda *args: draws.append(draw(*args)) or draws[-1])
    cross = build_cross(40.0, 1.5, 1, 1)
    wide = np.zeros((3, 60))
    wide[1:, ::2] = -0.0
    wide[2, 1::7] = 0.25
    grids = [
        synthesize_class_function(CLS, DecayProfile(epsilon=0.01, kmax=kmax), 5) for kmax in (64, 6)
    ] + [CoeffGrid(wide)]
    for seed, c in enumerate(grids):
        xi, _ = harness._point_noise(cross, mode, 2.0, 1e-3, seed, 42, CLS)
        restricted = spectral.restrict_to_cross(draws[-1], cross)
        expected = truncation.apply_method(spectral.restrict_to_cross(c, cross) - restricted, cross)
        got = harness._noisy_method(c, cross, xi)
        assert got.array.shape == expected.array.shape
        assert got.array.tobytes() == expected.array.tobytes()


@pytest.mark.parametrize("mode", ["sphere", "single", "witness", "off"])
def test_study_records_equal_a_sequential_loop(mode):
    config = dataclasses.replace(_SMALL, noise_mode=mode)
    records = run_convergence_study(config).records
    means = _sequential_sums(config) / config.num_seeds
    assert [[r.error_l2, r.error_c, r.noise_norm] for r in records] == means.tolist()


def test_at_most_one_draw_in_flight_and_each_after_the_last_is_dropped(monkeypatch):
    draw = harness._draw
    lock = threading.Lock()
    state = {"in_flight": 0, "most": 0, "calls": 0, "last": lambda: None}

    def counting_draw(*args):
        with lock:
            state["in_flight"] += 1
            state["most"] = max(state["most"], state["in_flight"])
            state["calls"] += 1
        try:
            # the draw before was dropped on the worker, after it was restricted to the cross
            assert state["last"]() is None
            time.sleep(0.005)  # widen the window a second draw would need
            xi = draw(*args)
            state["last"] = weakref.ref(xi.array)
            return xi
        finally:
            with lock:
                state["in_flight"] -= 1

    monkeypatch.setattr(harness, "_draw", counting_draw)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        result = run_convergence_study(_SMALL)
    finally:
        sys.setswitchinterval(interval)
    assert state["calls"] == _SMALL.num_seeds * len(result.records)
    assert state["most"] == 1


class _DrawInterrupt(BaseException):
    """A BaseException that is not an Exception, as KeyboardInterrupt is."""


@pytest.mark.parametrize("error", [ValueError, _DrawInterrupt])
def test_a_failing_draw_raises_at_its_point_and_leaves_no_thread(monkeypatch, error):
    draw = harness._draw
    draws, methods = [], []

    def failing_draw(*args):
        draws.append(args)
        if len(draws) == 4:
            raise error("draw 3 failed")
        return draw(*args)

    def counting_method(c, cross):
        methods.append(cross)
        return truncation.apply_method(c, cross)

    monkeypatch.setattr(harness, "_draw", failing_draw)
    monkeypatch.setattr(harness, "apply_method", counting_method)
    before = set(threading.enumerate())
    with pytest.raises(error, match="^draw 3 failed$"):
        run_convergence_study(_LONG)
    assert set(threading.enumerate()) == before
    # as in a sequential loop, points 0-2 ran their method; the draws they queued may have
    # started, but none past the window of the last of them
    assert len(methods) == 3 and 4 <= len(draws) <= 3 + harness._DRAWS_AHEAD


def test_a_failing_point_joins_the_draw_in_flight(monkeypatch):
    draw = harness._draw
    finished = []

    def slow_draw(*args):
        time.sleep(0.02)
        xi = draw(*args)
        finished.append(args)
        return xi

    def failing_method(c, cross):
        raise RuntimeError("method failed")

    monkeypatch.setattr(harness, "_draw", slow_draw)
    monkeypatch.setattr(harness, "apply_method", failing_method)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="^method failed$"):
        run_convergence_study(_SMALL)
    assert set(threading.enumerate()) == before
    # point 0 took its draw; draw 1, in flight, ran to its end before the study raised, and
    # the draws queued behind it were dropped
    assert len(finished) == 2


def test_draws_run_at_most_the_window_ahead_of_the_methods(monkeypatch):
    draw = harness._draw
    lock = threading.Lock()
    state = {"started": 0, "methods": 0, "ahead": []}

    def counting_draw(*args):
        with lock:
            state["started"] += 1
            state["ahead"].append(state["started"] - state["methods"])
        return draw(*args)

    def slow_method(c, cross):
        time.sleep(0.002)  # the worker runs as far ahead as the queue lets it
        approx = truncation.apply_method(c, cross)
        with lock:
            state["methods"] += 1
        return approx

    monkeypatch.setattr(harness, "_draw", counting_draw)
    monkeypatch.setattr(harness, "apply_method", slow_method)
    result = run_convergence_study(_LONG)
    assert state["started"] == _LONG.num_seeds * len(result.records) >= 20
    assert max(state["ahead"]) == harness._DRAWS_AHEAD


def test_the_first_draw_starts_before_the_reference_is_built(monkeypatch):
    draw, registry_grid = harness._draw, harness._registry_grid
    drawn, waits = threading.Event(), []

    def signalling_draw(*args):
        drawn.set()
        return draw(*args)

    def waiting_registry_grid(*args):
        waits.append(drawn.wait(timeout=5.0))
        return registry_grid(*args)

    monkeypatch.setattr(harness, "_draw", signalling_draw)
    monkeypatch.setattr(harness, "_registry_grid", waiting_registry_grid)
    run_convergence_study(_SMALL)
    assert waits == [True] * _SMALL.num_seeds


def test_a_study_leaves_no_thread_alive():
    before = set(threading.enumerate())
    run_convergence_study(_SMALL)
    assert set(threading.enumerate()) == before


def test_import_does_not_load_concurrent_futures():
    env = dict(os.environ)
    src = str(Path(harness.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, hcderiv; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# radius studies

def test_radius_study_order_optimality():
    study = run_radius_study([16, 32, 64, 128], ClassParams(2, 6), 2, 1, 2.0)
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


@pytest.mark.parametrize("n_values, r1, r2, mu, p", [
    ([256, 512, 1024, 2048, 4096], 1, 1, 3.0, 2.0),  # the benchmark's sweep
    ([8, 16, 32, 64], 1, 1, 3.0, 2.0),  # the two golden radius configs
    ([8, 16, 32, 64], 2, 1, 7.0, float("inf")),
])
def test_radius_study_takes_its_sup_from_the_corner_sum(
    n_values, r1, r2, mu, p, monkeypatch
):
    monkeypatch.setattr(spectral, "_SAMPLE_BASIS", {})
    study = run_radius_study(n_values, ClassParams(2.0, mu), r1, r2, p)
    # the witness derivative's sup is its corner sum at (1, 1): no sample grid is built,
    # and the method's errors against its zero output on f2's data are the bound checks' values
    assert spectral._SAMPLE_BASIS == {}
    assert [rec.method_error_c for rec in study.records] == [
        rec.verify_c.measured for rec in study.records
    ]
    assert [rec.method_error_l2 for rec in study.records] == [
        rec.verify_l2.measured for rec in study.records
    ]


def test_radius_study_runs_no_method_and_no_error_step(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the radius study ran the method or an error step")

    monkeypatch.setattr(harness, "apply_method", refused)
    monkeypatch.setattr(harness, "_ErrorReference", refused)
    study = run_radius_study([8, 16, 32, 64], ClassParams(2, 3), 1, 1, 2.0)
    assert [rec.N for rec in study.records] == [8, 16, 32, 64]


def test_radius_study_needs_enough_points():
    with pytest.raises(ValueError):
        run_radius_study([8, 16], ClassParams(2, 6), 2, 1, 2.0)
    with pytest.raises(ValueError):
        run_radius_study([2, 8, 16, 32], ClassParams(2, 6), 2, 1, 2.0)


@pytest.mark.parametrize("n_values, repeated", [
    ([8, 8, 8, 8], "8"),
    ([8, 16, 16, 32], "16"),  # four sizes, but only three distinct ones
    ([64, 8, 32, 8, 64], "8, 64"),
])
def test_radius_study_refuses_repeated_band_sizes(n_values, repeated):
    with pytest.raises(ValueError, match=f"^band sizes must be distinct; repeated: {repeated}$"):
        run_radius_study(n_values, ClassParams(2, 3), 1, 1, 2.0)
