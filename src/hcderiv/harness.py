"""End-to-end convergence and minimal-radius experiments.

A convergence study sweeps the noise level delta downward, picks the
cross parameters per the selection rule at every step, runs the
truncation differentiator on perturbed coefficients of a reference
function, and fits the log-log slope of error against delta for
comparison with the theoretical exponent.  A radius study sweeps the
witness band size N and checks the explicit lower bounds against the
derivative norms of the witness f1.

Each convergence sweep point runs in three stages.  ``_plan_point``
selects (n, gamma) and builds the cross.  The noisy method runs in two steps:
``_point_noise`` draws the point's noise xi over the support rectangle,
takes its l_p norm and keeps only its values on the cross, in (k, j)
order, and ``_noisy_method`` subtracts them from the reference
coefficients on the cross, places the difference in the cross's
bounding box and applies the method.  The error step,
``_ErrorReference.errors``, subtracts the reference derivative once for
the Parseval norm and the fixed-order sup norm, and screens the sup
norm's samples with a product over the method output's box alone: the
reference's share of that product is formed once per repetition.  Apart
from the noise draw and that one full-size difference, every stage works
on arrays the size of the cross's bounding box.

No draw depends on a method result, so a convergence study runs every
point's ``_point_noise`` on the one worker of a ``ThreadPoolExecutor``,
in one sequence over (repetition, point), while the main thread builds
the references and runs the methods and error steps.  The first
``_DRAWS_AHEAD`` draws are queued before the first reference is built,
and each point that has run its method queues the draw that many places
further on, across repetitions too.  So the worker runs at most
``_DRAWS_AHEAD`` draws ahead of the methods, at most that many results
of ``len(cross)`` values wait, and the one worker holds at most one
full-size draw: only the noise's values on the cross and its norm cross
the thread.  Each draw seeds its own generator, so no output depends on
the thread or on timing.  On any exit the queued draws are cancelled and
the worker is joined before the study returns or raises.

Reference functions come from a small registry, a table from each id
to its array function f(t, u): two exact bivariate polynomials and a
fast-decay analytic function, which are projected by quadrature, and
the synthetic boundary-decay family, mapped to None, whose coefficients
are drawn directly on the unit sphere of the smoothness class.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .cross import HyperbolicCross, build_cross, cross_extents
# perturb is unused here but stays bound: perfbench's traced-op test looks it up on this module
from .noise import RNG_ALGORITHM, NoiseSpec, _draw, _rng, lp_norm, perturb  # noqa: F401
from .quadrature import _MAX_ORDER, _ORDER_MARGIN, compute_coeff_grid
from .spectral import (
    ClassParams,
    CoeffGrid,
    _ErrorReference,
    _MAX_RESOLUTION,
    _MIN_RESOLUTION,
    _check_cells,
    _cross_mask,
    mixed_derivative_coeffs,
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
    class.  Coefficients below the double range are flushed to zero after
    the norm is taken, so the norm then falls short of 1: 0.99401 at s = 2,
    epsilon = 0.01, mu = 100 and kmax = 64, where 1004 of 4225 are 0.
    """
    rng = _rng(seed)
    kk = np.maximum(1, np.arange(profile.kmax + 1)).astype(float)
    decay = kk ** (-(cls.mu + 1.0 / cls.s + profile.epsilon))
    mags = np.outer(decay, decay)
    mags = mags * (rng.integers(0, 2, size=mags.shape) * 2 - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.outer(kk, kk) ** (cls.s * cls.mu)
        norm = float(np.sum(weights * np.abs(mags) ** cls.s) ** (1.0 / cls.s))
    if not np.isfinite(norm):
        # the weights overflow at large s * mu; each weighted term is
        # (max(1,k) max(1,j))^-(1 + s epsilon), so the sum is a square
        norm = float(np.sum(kk ** -(1.0 + cls.s * profile.epsilon)) ** (2.0 / cls.s))
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
    a non-None ``gamma`` is forced.  A cross whose bounding box, which the
    method fills, would hold more than 2**26 cells is refused before any
    of its rows is built.
    """
    si = SelectionInput(delta=delta, p=p, cls=cls, r1=r1, r2=r2, metric=_selection_metric(metric))
    sel = select_parameters(si, forced_gamma=gamma)
    k_extent, j_extent = cross_extents(sel.n, sel.gamma, r1, r2)
    _check_cells((k_extent + 1, j_extent + 1), "cross box")
    return sel, build_cross(sel.n, sel.gamma, r1, r2)


def _noise_support(crosses) -> int:
    """Rectangle bound of the noise: the largest cross extent plus 2."""
    return max(max(cross.k_extent(), cross.j_extent()) for cross in crosses) + 2


def _point_noise(
    cross: HyperbolicCross, mode: str, p: float, delta: float, seed: int, support: int,
    cls: ClassParams,
) -> tuple[np.ndarray, float]:
    """The noise of one sweep point on ``cross``, and the l_p norm of the whole draw.

    The draw xi has l_p budget ``delta`` on indices up to ``support``
    (see :func:`perturb`); the witness mode takes xi from the witness
    pair that ``cross`` cannot see.  Only xi's entries on the cross are
    returned, ``len(cross)`` values in (k, j) order, since the method
    reads no other: a study runs this on its helper thread, so neither
    the full draw nor its box on the cross leaves it.  Mode "off" draws
    xi = 0: ``len(cross)`` zeros and the norm 0.0.  For the sphere and
    single modes the ``(support + 1)^2`` noise square is refused past
    2**26 cells before anything is allocated; ``_plan_point`` has refused
    such a cross box already.
    """
    if mode in ("sphere", "single"):
        _check_cells((support + 1, support + 1), "noise square")
    spec_mode = _NOISE_MODES[mode]
    if spec_mode is None:
        return np.zeros(len(cross)), 0.0
    spec = NoiseSpec(p=p, delta=delta, mode=spec_mode, seed=seed, support=support)
    witness = witness_for_cross(cross, delta, p, cls) if mode == "witness" else None
    xi = _draw(spec, witness)
    # the norm first: its full-size temporary is freed before the values are gathered
    norm = lp_norm(xi, p)
    return _on_cross(xi, _cross_mask(cross)), norm


def _on_cross(c: CoeffGrid, mask: np.ndarray) -> np.ndarray:
    """The entries of ``c`` where the bounding-box ``mask`` is True, in (k, j) order.

    Places past the extent of ``c`` read 0.0.
    """
    box = c.array[: mask.shape[0], : mask.shape[1]]
    if box.shape != mask.shape:
        padded = np.zeros(mask.shape)
        padded[: box.shape[0], : box.shape[1]] = box
        box = padded
    return box[mask]


def _noisy_method(c: CoeffGrid, cross: HyperbolicCross, xi: np.ndarray) -> CoeffGrid:
    """The method's derivative on ``cross`` from ``c`` - xi, with xi's values on the cross.

    ``xi`` is what :func:`_point_noise` returns; each entry of the cross
    becomes c_kj - xi_kj, with 0.0 for c_kj past the extent of ``c``.
    """
    mask = _cross_mask(cross)
    noisy = np.zeros(mask.shape)
    noisy[mask] = _on_cross(c, mask) - xi
    return apply_method(CoeffGrid._adopt(noisy), cross)


# the most deltas a sweep may have: validation builds and keeps the selection
# and cross of every point (about 0.5 kB and 0.25 ms each), so a sweep of
# 2**16 points holds about 33 MB after about 16 s before the study starts
_MAX_SWEEP_POINTS = 2**16
# the largest k_ref of a projected (non-synthetic) function at the default quadrature order
_MAX_PROJECTED_K = _MAX_ORDER - _ORDER_MARGIN


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
        else:
            if REGISTRY.get(self.function_id) is not None and self.k_ref > _MAX_PROJECTED_K:
                problems.append(
                    f"k_ref: must be <= {_MAX_PROJECTED_K} for a projected function, whose "
                    f"quadrature order k_ref + {_ORDER_MARGIN} is at most {_MAX_ORDER}, "
                    f"got {self.k_ref}"
                )
        if self.sup_resolution < _MIN_RESOLUTION:
            problems.append(
                f"sup_resolution: must be >= {_MIN_RESOLUTION}, got {self.sup_resolution}"
            )
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
    if np.all(deltas == deltas[0]):
        raise ValueError("rate fit needs at least 2 distinct deltas")
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
    if fit.residual > _FIT_RESIDUAL_LIMIT:
        refit = fit_rate(usable[2:])
        return RateFit(refit.slope, refit.intercept, refit.residual, dropped=2)
    return fit


# synthetic function draws use the seed offset by 2**63, a stream
# disjoint from the small per-point noise seeds
_FUNCTION_STREAM_OFFSET = 2**63
# the most draws a study queues on its worker: each point's draw is queued this many
# points ahead, so at most this many results of len(cross) values wait.  On the convergence
# workload (k_ref 400, 13 deltas, 2 vCPUs) windows of 1, 2, 4 and 8 changed a study's
# wall time by +2, -13, -18 and -14% against one draw queued after the reference
_DRAWS_AHEAD = 4


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

    The draws run on one helper thread, queued ``_DRAWS_AHEAD`` points
    ahead of the method from before the first reference is built (see the
    module docstring); the records do not depend on it.  With
    ``config.timing``, a record's ``wall_ms`` is the main thread's time
    at the point, from taking its draw to the end of its error step,
    summed over the repetitions: it includes any wait for the draw, but
    not the draw's own time once it was ready in advance.
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
    # loaded by the first study, not by ``import hcderiv``
    from concurrent.futures import ThreadPoolExecutor

    count, total = len(plan), config.num_seeds * len(plan)
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hcderiv-draw")

    def submit(n: int):
        """Queue draw n of the flat sequence over (repetition, point)."""
        i = n % count
        return pool.submit(
            _point_noise, plan[i][1], config.noise_mode, config.p, float(deltas[i]),
            (config.seed + n) % 2**64, support, cls,
        )

    try:
        # the first draws run while the main thread builds the reference
        draws = deque(submit(n) for n in range(min(_DRAWS_AHEAD, total)))
        for rep in range(config.num_seeds):
            ref = _registry_grid(
                config.function_id, config.k_ref, _FUNCTION_STREAM_OFFSET + config.seed + rep,
                config.s, config.mu, config.epsilon,
            )
            reference = _ErrorReference(
                mixed_derivative_coeffs(ref, config.r1, config.r2), config.sup_resolution
            )
            for i, (_, cross) in enumerate(plan):
                start = time.perf_counter()
                xi, noise_norm = draws.popleft().result()
                approx = _noisy_method(ref, cross, xi)
                if (n := rep * count + i + _DRAWS_AHEAD) < total:
                    draws.append(submit(n))
                err_l2, err_c = reference.errors(approx)
                sum_l2[i] += err_l2
                sum_c[i] += err_c
                sum_noise[i] += noise_norm
                wall[i] += (time.perf_counter() - start) * 1000.0
    finally:
        # on any exit the queued draws are dropped and the one in flight is joined
        pool.shutdown(cancel_futures=True)
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
            wall_ms=float(wall[i]) if config.timing else 0.0,
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
) -> RadiusStudy:
    """Witness sweep over band sizes N.

    For each N the matching delta is the closed-form witness distance
    (the inversion of the minimal band-size threshold).  Handed data
    that look exactly like f2, the one coefficient (0, 0), the method
    outputs 0, so its error on f1 is f1's derivative norm: the
    ``method_error`` columns are the bound checks' measured values, and
    their exponent gaps show how tight c_bar and c_dbar are.  The sweep
    needs at least 4 distinct band sizes, each at least 4, for its rate
    fits.
    """
    if len(n_values) < _FIT_MIN_POINTS or min(n_values) < _FIT_MIN_POINTS:
        raise ValueError(
            f"need at least {_FIT_MIN_POINTS} band sizes, each >= {_FIT_MIN_POINTS}; "
            "smaller sweeps are too small for rate fitting"
        )
    repeated = sorted(n for n, count in Counter(n_values).items() if count > 1)
    if repeated:
        raise ValueError(f"band sizes must be distinct; repeated: {', '.join(map(str, repeated))}")
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
        sel = select_parameters(SelectionInput(delta, p, cls, r1, r2, METRIC_L2))
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
                method_error_c=rep_c.measured,
                method_error_l2=rep_l2.measured,
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
