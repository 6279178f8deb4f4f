"""End-to-end convergence and minimal-radius experiments.

A convergence study sweeps the noise level delta downward, picks the
cross parameters per the selection rule at every step, runs the
truncation differentiator on perturbed coefficients of a reference
function, and fits the log-log slope of error against delta for
comparison with the theoretical exponent.  A radius study sweeps the
witness band size N, feeds the method adversarial witness data, and
compares the decay of the method error with the lower bound.

Each sweep point runs in three stages.  ``_plan_point`` selects
(n, gamma) and builds the cross.  ``_noisy_method`` takes the point's
noise xi (drawn over the support rectangle by ``_point_noise``),
restricts the reference coefficients to the cross, subtracts xi and
applies the method.  The error step, ``_ErrorReference.errors``,
subtracts the reference derivative once for the Parseval norm and the
fixed-order sup norm, and screens the sup norm's samples with a product
over the method output's box alone: the reference's share of that
product is formed once per repetition.  Apart from the noise draw and
that one full-size difference, every stage works on arrays the size of
the cross's bounding box.

No draw depends on a method result, so a convergence study draws each
point's noise on one helper thread while the point before it runs the
method and the error step (``_DrawAhead``).  Each draw seeds its own
generator, so no output depends on the thread or on timing; at most one
draw is in flight, and the helper is joined before the study returns or
raises.

Reference functions come from a small registry, a table from each id
to its array function f(t, u): two exact bivariate polynomials and a
fast-decay analytic function, which are projected by quadrature, and
the synthetic boundary-decay family, mapped to None, whose coefficients
are drawn directly on the unit sphere of the smoothness class.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .cross import HyperbolicCross, build_cross
# perturb is unused here but stays bound: perfbench's traced-op test looks it up on this module
from .noise import RNG_ALGORITHM, NoiseSpec, _draw, lp_norm, perturb  # noqa: F401
from .quadrature import compute_coeff_grid
from .spectral import (
    ClassParams,
    CoeffGrid,
    _ErrorReference,
    _MAX_RESOLUTION,
    _check_cells,
    mixed_derivative_coeffs,
    restrict_to_cross,
)
from .lowerbound import (
    BoundReport,
    build_witness_pair,
    verify_lower_bound_C,
    verify_lower_bound_L2,
    witness_for_cross,
    witness_lp_distance,
)
from .truncation import (
    METRIC_C,
    METRIC_L2,
    AdmissibilityError,
    ParameterSelection,
    SelectionInput,
    apply_method,
    select_parameters,
    theoretical_error_exponent,
)

__all__ = [
    "DecayProfile",
    "REGISTRY",
    "synthesize_class_function",
    "single_term_class_function",
    "ExperimentConfig",
    "SweepRecord",
    "ExperimentResult",
    "RateFit",
    "fit_rate",
    "run_convergence_study",
    "RadiusRecord",
    "RadiusStudy",
    "run_radius_study",
]

_FIT_RESIDUAL_LIMIT = 0.1
_FIT_MIN_POINTS = 4


# ---------------------------------------------------------------------------
# test-function registry

def _monomial_eval(monomials: dict[tuple[int, int], float], t, u):
    total = 0.0 * (t + u)
    for (a, b), coef in monomials.items():
        total = total + coef * t**a * u**b
    return total


def _exp_sum(t, u):
    return np.exp(t + u) / 4.0


# id -> array function f(t, u); None marks the synthetic family that
# synthesize_class_function draws in coefficient space
REGISTRY: dict[str, Callable | None] = {
    "one": partial(_monomial_eval, {(0, 0): 1.0}),
    "poly": partial(_monomial_eval, {(4, 3): 1.0, (2, 1): 2.0, (1, 2): 1.0}),
    "exp-sum": _exp_sum,
    "boundary-decay": None,
}


@dataclass(frozen=True)
class DecayProfile:
    """Coefficient magnitudes (max(1,k) max(1,j))^(-mu - 1/s - epsilon), each sign a fair coin.

    The grid has (kmax + 1)**2 cells, at most 2**26.
    """

    epsilon: float
    kmax: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.kmax < 0:
            raise ValueError("kmax must be >= 0")
        _check_cells((self.kmax + 1, self.kmax + 1))


def synthesize_class_function(cls: ClassParams, profile: DecayProfile, seed: int) -> CoeffGrid:
    """Unit-norm class function with near-boundary coefficient decay.

    The grid is scaled so the class norm equals 1; with epsilon small
    the weighted coefficients are barely summable, which makes the
    truncation error of the method close to its worst case over the
    class.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    kk = np.maximum(1, np.arange(profile.kmax + 1)).astype(float)
    mags = np.outer(
        kk ** (-(cls.mu + 1.0 / cls.s + profile.epsilon)),
        kk ** (-(cls.mu + 1.0 / cls.s + profile.epsilon)),
    )
    mags = mags * (rng.integers(0, 2, size=mags.shape) * 2 - 1)
    weights = np.outer(kk, kk) ** (cls.s * cls.mu)
    norm = float(np.sum(weights * np.abs(mags) ** cls.s) ** (1.0 / cls.s))
    mags /= norm
    return CoeffGrid._adopt(mags)


def single_term_class_function(cls: ClassParams, k: int, j: int) -> CoeffGrid:
    """Unit-norm class function supported on a single index."""
    grid = np.zeros((k + 1, j + 1))
    grid[k, j] = (max(1, k) * max(1, j)) ** (-cls.mu)
    return CoeffGrid._adopt(grid)


def _registry_grid(
    function_id: str, kmax: int, seed: int, s: float, mu: float, epsilon: float,
    m: int | None = None,
) -> CoeffGrid:
    """Coefficient grid of a registry function for k, j <= kmax.

    Synthetic entries are drawn from the class (s, mu) with ``seed``; the
    others are projected by quadrature of order ``m``.
    """
    fn = REGISTRY[function_id]
    if fn is None:
        cls = ClassParams(s=s, mu=mu)
        return synthesize_class_function(cls, DecayProfile(epsilon=epsilon, kmax=kmax), seed)
    return compute_coeff_grid(fn, kmax, m)


# ---------------------------------------------------------------------------
# convergence study

METRIC_BOTH = "both"
_CONFIG_METRICS = (METRIC_L2, METRIC_C, METRIC_BOTH)
# config and CLI noise mode -> NoiseSpec mode; "off" perturbs nothing
_NOISE_MODES = {
    "sphere": "random-sphere",
    "single": "single-coefficient",
    "witness": "adversarial-witness",
    "off": None,
}


def _selection_metric(metric: str) -> str:
    """The metric whose rule picks (n, gamma) for a config or CLI metric.

    "both" reports both error columns; the method parameters come from
    the L2 rule, which coincides with the C rule for r1 == r2.
    """
    return METRIC_L2 if metric == METRIC_BOTH else metric


def _plan_point(
    delta: float, p: float, cls: ClassParams, r1: int, r2: int, metric: str,
    gamma: float | None = None,
) -> tuple[ParameterSelection, HyperbolicCross]:
    """The selected (n, gamma) at noise level ``delta`` and the cross the method runs on.

    ``metric`` is a config or CLI metric ("both" selects by the L2 rule);
    a non-None ``gamma`` is forced.
    """
    si = SelectionInput(delta=delta, p=p, cls=cls, r1=r1, r2=r2, metric=_selection_metric(metric))
    sel = select_parameters(si, forced_gamma=gamma)
    return sel, build_cross(sel.n, sel.gamma, r1, r2)


def _noise_support(crosses) -> int:
    """Rectangle bound of the noise: the largest cross extent plus 2."""
    return max(max(cross.k_extent(), cross.j_extent()) for cross in crosses) + 2


def _point_noise(
    cross: HyperbolicCross, mode: str, p: float, delta: float, seed: int, support: int,
    cls: ClassParams,
) -> CoeffGrid | None:
    """The noise xi of one sweep point under ``mode``, or None for mode "off".

    xi has l_p budget ``delta`` on indices up to ``support`` (see
    :func:`perturb`); the witness mode takes xi from the witness pair
    that ``cross`` cannot see.  Only numpy work and no kept state, so a
    study runs it on its helper thread.
    """
    spec_mode = _NOISE_MODES[mode]
    if spec_mode is None:
        return None
    spec = NoiseSpec(p=p, delta=delta, mode=spec_mode, seed=seed, support=support)
    witness = witness_for_cross(cross, delta, p, cls) if mode == "witness" else None
    return _draw(spec, witness)


def _noisy_method(
    c: CoeffGrid, cross: HyperbolicCross, xi: CoeffGrid | None, p: float,
    dropped: Callable[[], None] | None = None,
) -> tuple[CoeffGrid, float | None]:
    """The method's derivative on ``cross`` from ``c`` - ``xi``, and the l_p norm of ``xi``.

    ``c`` is restricted to the cross before xi is subtracted: the method
    keeps only the entries on the cross, which are c - xi either way, so
    the derivative is the same.  ``dropped`` runs once xi is subtracted
    and dropped, before the method's temporaries, the largest of the
    point: a study starts the next point's draw there, so that draw
    never overlaps xi.  With xi None (mode "off") the method runs on
    ``c`` itself and the norm is None.
    """
    if xi is None:
        noise_norm, c_delta = None, c
    else:
        noise_norm = lp_norm(xi, p)
        c_delta = restrict_to_cross(c, cross) - xi
        del xi  # the caller passes its last reference
    if dropped is not None:
        dropped()
    return apply_method(c_delta, cross), noise_norm


class _DrawAhead:
    """``fn(*args)`` for each ``args`` of ``jobs`` in order, on one helper thread.

    ``take`` waits for the job in flight, or starts the next one when
    none is, and returns its value or raises its exception on the
    caller's thread.  ``start_next`` hands the next job to the helper
    without waiting; the caller starts a job only after taking the one
    before, so at most one is in flight.  ``close`` lets a job still in
    flight end, drops its outcome and joins the helper.
    """

    def __init__(self, fn: Callable, jobs):
        import queue  # loaded by the first study, not by ``import hcderiv``

        self._jobs = iter(jobs)
        self._todo = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self._in_flight = False
        self._thread = threading.Thread(
            target=self._serve, args=(fn,), name="hcderiv-draw", daemon=True
        )
        self._thread.start()

    def _serve(self, fn: Callable) -> None:
        for args in iter(self._todo.get, None):
            try:
                outcome = (fn(*args), None)
            except BaseException as exc:  # raised again by take, on the caller's thread
                outcome = (None, exc)
            self._done.put(outcome)
            del args, outcome  # the caller holds the only reference to the value

    def start_next(self) -> None:
        args = next(self._jobs, None)
        if args is not None:
            self._todo.put(args)
            self._in_flight = True

    def take(self):
        if not self._in_flight:
            self._todo.put(next(self._jobs))
        self._in_flight = False
        value, exc = self._done.get()
        if exc is not None:
            raise exc
        return value

    def close(self) -> None:
        self._todo.put(None)
        self._thread.join()


# the most deltas a sweep may have: validation builds and keeps the selection
# and cross of every point (about 0.5 kB and 0.25 ms each), so a sweep of
# 2**16 points holds about 33 MB after about 16 s before the study starts
_MAX_SWEEP_POINTS = 2**16


@dataclass(frozen=True)
class ExperimentConfig:
    s: float = 2.0
    mu: float = 4.0
    r1: int = 1
    r2: int = 1
    p: float = 2.0
    metric: str = METRIC_BOTH
    delta_start: float = 1e-2
    delta_stop: float = 1e-6
    delta_count: int = 9
    noise_mode: str = "sphere"
    seed: int = 0
    num_seeds: int = 1
    function_id: str = "boundary-decay"
    epsilon: float = 0.01
    k_ref: int = 64
    sup_resolution: int = 257
    timing: bool = False
    gamma_override: float | None = None

    def cls(self) -> ClassParams:
        return ClassParams(s=self.s, mu=self.mu)

    def deltas(self) -> np.ndarray:
        return np.geomspace(self.delta_start, self.delta_stop, self.delta_count)

    def selection_metric(self) -> str:
        return _selection_metric(self.metric)

    def validate(self) -> list[str]:
        """Collect one message per bad field; empty means valid."""
        problems: list[str] = []
        if not self.s >= 1:
            problems.append(f"s: must be >= 1, got {self.s}")
        if not self.mu > 0:
            problems.append(f"mu: must be > 0, got {self.mu}")
        if not (self.r1 >= self.r2 >= 1):
            problems.append(f"r1/r2: need r1 >= r2 >= 1, got ({self.r1}, {self.r2})")
        if not self.p >= 1:
            problems.append(f"p: must be >= 1, got {self.p}")
        if self.metric not in _CONFIG_METRICS:
            problems.append(f"metric: must be one of {_CONFIG_METRICS}, got {self.metric!r}")
        if not (0 < self.delta_stop < self.delta_start < 1):
            problems.append(
                "delta_start/delta_stop: sweep must be strictly decreasing inside (0, 1), "
                f"got start={self.delta_start} stop={self.delta_stop}"
            )
        if self.delta_count < 1:
            problems.append(f"count: must be >= 1, got {self.delta_count}")
        elif self.delta_count > _MAX_SWEEP_POINTS:
            problems.append(f"count: must be <= {_MAX_SWEEP_POINTS}, got {self.delta_count}")
        if self.noise_mode not in _NOISE_MODES:
            problems.append(f"mode: must be one of {tuple(_NOISE_MODES)}, got {self.noise_mode!r}")
        if not 0 <= self.seed < 2**64:
            problems.append(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        if self.num_seeds < 1:
            problems.append(f"num_seeds: must be >= 1, got {self.num_seeds}")
        if self.function_id not in REGISTRY:
            problems.append(
                f"id: unknown function {self.function_id!r}; known: {sorted(REGISTRY)}"
            )
        if not self.epsilon > 0:
            problems.append(f"epsilon: must be > 0, got {self.epsilon}")
        try:
            _check_cells((self.k_ref + 1, self.k_ref + 1))
        except ValueError as exc:
            problems.append(f"k_ref: {exc}")
        if self.sup_resolution < 2:
            problems.append(f"sup_resolution: must be >= 2, got {self.sup_resolution}")
        elif self.sup_resolution > _MAX_RESOLUTION:
            problems.append(
                f"sup_resolution: must be <= {_MAX_RESOLUTION}, got {self.sup_resolution}"
            )
        if self.gamma_override is not None and not self.gamma_override >= 1:
            problems.append(f"gamma: override must be >= 1, got {self.gamma_override}")
        if not problems:
            try:
                support = self.noise_support()
            except (AdmissibilityError, ValueError) as exc:
                problems.append(f"selection: {exc}")
            else:
                if self.k_ref < support:
                    problems.append(
                        f"k_ref: must cover the largest cross extent plus margin 2 "
                        f"(need >= {support}, got {self.k_ref})"
                    )
        return problems

    @cached_property
    def _sweep_plan(self) -> tuple[tuple[ParameterSelection, HyperbolicCross], ...]:
        """The selected (n, gamma) and its cross at every delta of the sweep.

        The plan depends only on the frozen fields, so it is built once per
        config: ``validate`` and the study share it.
        """
        return tuple(
            _plan_point(
                float(delta), self.p, self.cls(), self.r1, self.r2, self.metric, self.gamma_override
            )
            for delta in self.deltas()
        )

    def noise_support(self) -> int:
        """Rectangle bound: largest cross extent across the sweep plus 2."""
        return _noise_support(cross for _, cross in self._sweep_plan)


@dataclass(frozen=True)
class SweepRecord:
    delta: float
    n: float
    gamma: float
    cross_card: int
    error_l2: float
    error_c: float
    noise_norm: float
    wall_ms: float


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float
    dropped: int = 0


@dataclass
class ExperimentResult:
    records: list[SweepRecord]
    case_label: str
    noise_support: int = 0
    fitted_exponent_l2: float | None = None
    fitted_exponent_c: float | None = None
    theoretical_exponent_l2: float | None = None
    theoretical_exponent_c: float | None = None
    fit_l2: RateFit | None = None
    fit_c: RateFit | None = None
    rng_algorithm: str = RNG_ALGORITHM


def fit_rate(points: list[tuple[float, float]]) -> RateFit:
    """Least-squares fit of ln(error) = slope * ln(delta) + intercept.

    residual is the root-mean-square misfit in log space.
    """
    if len(points) < 2:
        raise ValueError("rate fit needs at least 2 points")
    deltas = np.array([d for d, _ in points], dtype=float)
    errors = np.array([e for _, e in points], dtype=float)
    if np.any(deltas <= 0) or np.any(errors <= 0):
        raise ValueError("rate fit needs strictly positive deltas and errors")
    a = np.column_stack([np.log(deltas), np.ones(len(points))])
    y = np.log(errors)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    residual = float(np.sqrt(np.mean((y - a @ coef) ** 2)))
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]), residual=residual)


def _fit_with_drop(points: list[tuple[float, float]]) -> RateFit | None:
    """Fit, dropping the two largest-delta points when the fit is poor.

    Points arrive sorted by decreasing delta.  Returns None when fewer
    than 4 usable points exist (asymptotic slopes need some range).
    """
    usable = [(d, e) for d, e in points if e > 0]
    if len(usable) < _FIT_MIN_POINTS:
        return None
    fit = fit_rate(usable)
    if fit.residual > _FIT_RESIDUAL_LIMIT and len(usable) - 2 >= 2:
        refit = fit_rate(usable[2:])
        return RateFit(refit.slope, refit.intercept, refit.residual, dropped=2)
    return fit


# synthetic function draws use the seed offset by 2**63, a stream
# disjoint from the small per-point noise seeds
_FUNCTION_STREAM_OFFSET = 2**63


def _theoretical_exponent(config: ExperimentConfig, metric: str) -> float | None:
    """The error exponent under ``metric``, or None where it is inadmissible."""
    si = SelectionInput(
        delta=config.delta_start, p=config.p, cls=config.cls(), r1=config.r1, r2=config.r2,
        metric=metric,
    )
    try:
        return theoretical_error_exponent(si)
    except AdmissibilityError:
        return None


def run_convergence_study(config: ExperimentConfig) -> ExperimentResult:
    """Sweep delta, run the method, and fit empirical error exponents.

    Per delta and seed repetition: select (n, gamma), perturb the
    reference coefficients, apply the method, and measure the L2 error
    by Parseval on the coefficient difference against the reference
    derivative and the sup error on the Chebyshev grid.  Errors are
    averaged over ``num_seeds`` repetitions; per-point noise seeds are
    seed + rep * delta_count + sweep_index.
    """
    problems = config.validate()
    if problems:
        raise ValueError("invalid experiment config: " + "; ".join(problems))
    deltas = config.deltas()
    plan = config._sweep_plan
    support = config.noise_support()
    sum_l2 = np.zeros(len(deltas))
    sum_c = np.zeros(len(deltas))
    sum_noise = np.zeros(len(deltas))
    wall = np.zeros(len(deltas))
    cls = config.cls()
    draws = _DrawAhead(_point_noise, (
        (cross, config.noise_mode, config.p, float(delta),
         (config.seed + rep * config.delta_count + i) % 2**64, support, cls)
        for rep in range(config.num_seeds)
        for i, (delta, (_, cross)) in enumerate(zip(deltas, plan))
    ))
    try:
        for rep in range(config.num_seeds):
            ref = _registry_grid(
                config.function_id, config.k_ref, _FUNCTION_STREAM_OFFSET + config.seed + rep,
                config.s, config.mu, config.epsilon,
            )
            reference = _ErrorReference(
                mixed_derivative_coeffs(ref, config.r1, config.r2), config.sup_resolution
            )
            for i, (_, cross) in enumerate(plan):
                start = time.perf_counter() if config.timing else 0.0
                # the next point's draw runs while this point's method and errors do
                approx, noise_norm = _noisy_method(
                    ref, cross, draws.take(), config.p, draws.start_next
                )
                err_l2, err_c = reference.errors(approx)
                sum_l2[i] += err_l2
                sum_c[i] += err_c
                sum_noise[i] += 0.0 if noise_norm is None else noise_norm
                if config.timing:
                    wall[i] += (time.perf_counter() - start) * 1000.0
    finally:
        draws.close()
    reps = config.num_seeds
    records = [
        SweepRecord(
            delta=float(deltas[i]),
            n=sel.n,
            gamma=sel.gamma,
            cross_card=len(cross),
            error_l2=float(sum_l2[i] / reps),
            error_c=float(sum_c[i] / reps),
            noise_norm=float(sum_noise[i] / reps),
            wall_ms=float(wall[i]),
        )
        for i, (sel, cross) in enumerate(plan)
    ]
    fit_l2 = _fit_with_drop([(r.delta, r.error_l2) for r in records])
    fit_c = _fit_with_drop([(r.delta, r.error_c) for r in records])
    return ExperimentResult(
        records=records,
        case_label=plan[0][0].case_label,
        noise_support=support,
        fitted_exponent_l2=fit_l2.slope if fit_l2 else None,
        fitted_exponent_c=fit_c.slope if fit_c else None,
        theoretical_exponent_l2=_theoretical_exponent(config, METRIC_L2),
        theoretical_exponent_c=_theoretical_exponent(config, METRIC_C),
        fit_l2=fit_l2,
        fit_c=fit_c,
    )


# ---------------------------------------------------------------------------
# radius study

@dataclass(frozen=True)
class RadiusRecord:
    N: int
    delta: float
    n: float
    gamma: float
    verify_c: BoundReport
    verify_l2: BoundReport
    skew_reports: dict[str, tuple[BoundReport, BoundReport]]
    method_error_c: float
    method_error_l2: float
    radius_bound_c: float
    radius_bound_l2: float


@dataclass
class RadiusStudy:
    records: list[RadiusRecord]
    c_tilde: float
    c_bar: float
    c_dbar: float
    fitted_method_l2: float | None
    fitted_bound_l2: float | None
    fitted_method_c: float | None
    fitted_bound_c: float | None

    def exponent_gap_l2(self) -> float | None:
        if self.fitted_method_l2 is None or self.fitted_bound_l2 is None:
            return None
        return abs(self.fitted_method_l2 - self.fitted_bound_l2)

    def exponent_gap_c(self) -> float | None:
        if self.fitted_method_c is None or self.fitted_bound_c is None:
            return None
        return abs(self.fitted_method_c - self.fitted_bound_c)


def run_radius_study(
    n_values: list[int],
    cls: ClassParams,
    r1: int,
    r2: int,
    p: float,
    sup_resolution: int = 257,
) -> RadiusStudy:
    """Adversarial sweep over band sizes N.

    For each N the matching delta is the closed-form witness distance
    (the inversion of the minimal band-size threshold), the method runs
    with the selection rule's parameters on witness data perturbed to
    look exactly like f2, and the achieved error is compared against
    the explicit lower bound.  Order-optimality shows as matching decay
    exponents of the two columns.
    """
    if len(n_values) < _FIT_MIN_POINTS or min(n_values) < _FIT_MIN_POINTS:
        raise ValueError(
            f"need at least {_FIT_MIN_POINTS} band sizes, each >= {_FIT_MIN_POINTS}; "
            "smaller sweeps are too small for rate fitting"
        )
    records: list[RadiusRecord] = []
    base = None
    for N in sorted(n_values):
        w = build_witness_pair(N, r1, r2, cls)
        base = base or w
        delta = witness_lp_distance(w, p)
        skews: dict[str, tuple[BoundReport, BoundReport]] = {}
        for skew in ("even", "odd"):
            w_skew = build_witness_pair(N, r1, r2, cls, parity=skew)
            skews[skew] = (verify_lower_bound_C(w_skew), verify_lower_bound_L2(w_skew))
        sel, cross = _plan_point(delta, p, cls, r1, r2, METRIC_L2)
        # the adversary hands the method data indistinguishable from f2
        err_l2, err_c = _ErrorReference(w.f1_derivative, sup_resolution).errors(
            apply_method(w.f2, cross)
        )
        rep_c = verify_lower_bound_C(w)
        rep_l2 = verify_lower_bound_L2(w)
        records.append(
            RadiusRecord(
                N=N,
                delta=delta,
                n=sel.n,
                gamma=sel.gamma,
                verify_c=rep_c,
                verify_l2=rep_l2,
                skew_reports=skews,
                method_error_c=err_c,
                method_error_l2=err_l2,
                radius_bound_c=rep_c.bound / 2.0,
                radius_bound_l2=rep_l2.bound,
            )
        )

    def slope(values: list[float]) -> float | None:
        pts = [(float(rec.N), v) for rec, v in zip(records, values) if v > 0]
        if len(pts) < 2:
            return None
        return fit_rate(pts).slope

    return RadiusStudy(
        records=records,
        c_tilde=base.c_tilde,
        c_bar=base.c_bar,
        c_dbar=base.c_dbar,
        fitted_method_l2=slope([r.method_error_l2 for r in records]),
        fitted_bound_l2=slope([r.radius_bound_l2 for r in records]),
        fitted_method_c=slope([r.method_error_c for r in records]),
        fitted_bound_c=slope([r.radius_bound_c for r in records]),
    )
