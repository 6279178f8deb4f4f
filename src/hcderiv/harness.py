"""End-to-end convergence and minimal-radius experiments.

A convergence study sweeps the noise level delta downward, picks the
cross parameters per the selection rule at every step, runs the
truncation differentiator on perturbed coefficients of a reference
function, and fits the log-log slope of error against delta for
comparison with the theoretical exponent.  A radius study sweeps the
witness band size N, feeds the method adversarial witness data, and
compares the decay of the method error with the lower bound.

Reference functions come from a small registry: exact bivariate
polynomials (monomial-backed, with closed-form mixed derivatives), a
fast-decay analytic function, and the synthetic boundary-decay family
that sits on the unit sphere of the smoothness class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cross import HyperbolicCross, build_cross
from .noise import RNG_ALGORITHM, NoiseSpec, lp_norm, perturb
from .quadrature import compute_coeff_grid
from .spectral import (
    ClassParams,
    CoeffGrid,
    mixed_derivative_coeffs,
    parseval_l2_norm,
    sup_norm_on_grid,
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
    MethodParams,
    ParameterSelection,
    SelectionInput,
    apply_method,
    select_parameters,
    theoretical_error_exponent,
)

__all__ = [
    "DecayProfile",
    "TestFunction",
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


def _falling(a: int, r: int) -> float:
    out = 1.0
    for i in range(r):
        out *= a - i
    return out


def _monomial_derivative(
    monomials: dict[tuple[int, int], float], r1: int, r2: int
) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for (a, b), coef in monomials.items():
        if a >= r1 and b >= r2:
            out[(a - r1, b - r2)] = coef * _falling(a, r1) * _falling(b, r2)
    return out


@dataclass(frozen=True)
class TestFunction:
    """Registry entry: either an exact polynomial or a smooth callable.

    ``synthetic`` entries have no pointwise form; their coefficient grid
    is generated directly by :func:`synthesize_class_function`.
    """

    name: str
    monomials: dict[tuple[int, int], float] | None = None
    fn: Callable | None = None
    deriv_factory: Callable[[int, int], Callable] | None = None
    synthetic: bool = False

    def callable(self) -> Callable:
        if self.monomials is not None:
            monos = self.monomials
            return lambda t, u: _monomial_eval(monos, t, u)
        if self.fn is not None:
            return self.fn
        raise ValueError(f"function {self.name!r} has no pointwise form")

    def derivative_callable(self, r1: int, r2: int) -> Callable:
        if self.monomials is not None:
            dm = _monomial_derivative(self.monomials, r1, r2)
            return lambda t, u: _monomial_eval(dm, t, u)
        if self.deriv_factory is not None:
            return self.deriv_factory(r1, r2)
        raise ValueError(f"function {self.name!r} has no derivative form")


def _exp_sum(t, u):
    return np.exp(t + u) / 4.0


REGISTRY: dict[str, TestFunction] = {
    "one": TestFunction(name="one", monomials={(0, 0): 1.0}),
    "poly": TestFunction(
        name="poly",
        monomials={(4, 3): 1.0, (2, 1): 2.0, (1, 2): 1.0},
    ),
    "exp-sum": TestFunction(
        name="exp-sum",
        fn=_exp_sum,
        deriv_factory=lambda r1, r2: _exp_sum,
    ),
    "boundary-decay": TestFunction(name="boundary-decay", synthetic=True),
}


@dataclass(frozen=True)
class DecayProfile:
    """Coefficient magnitudes (max(1,k) max(1,j))^(-mu - 1/s - epsilon).

    signs: "random" flips each coefficient by a fair coin; "positive"
    keeps them all positive (useful for monotonicity checks).
    """

    epsilon: float
    kmax: int
    signs: str = "random"

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.kmax < 0:
            raise ValueError("kmax must be >= 0")
        if self.signs not in ("random", "positive"):
            raise ValueError(f"signs must be random/positive, got {self.signs!r}")


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
    if profile.signs == "random":
        signs = rng.integers(0, 2, size=mags.shape) * 2 - 1
        mags = mags * signs
    weights = np.outer(kk, kk) ** (cls.s * cls.mu)
    norm = float(np.sum(weights * np.abs(mags) ** cls.s) ** (1.0 / cls.s))
    mags /= norm
    return CoeffGrid(mags)


def single_term_class_function(cls: ClassParams, k: int, j: int) -> CoeffGrid:
    """Unit-norm class function supported on a single index."""
    grid = np.zeros((k + 1, j + 1))
    grid[k, j] = (max(1, k) * max(1, j)) ** (-cls.mu)
    return CoeffGrid(grid)


def _registry_grid(
    function_id: str, kmax: int, seed: int, s: float, mu: float, epsilon: float,
    m: int | None = None,
) -> CoeffGrid:
    """Coefficient grid of a registry function for k, j <= kmax.

    Synthetic entries are drawn from the class (s, mu) with ``seed``; the
    others are projected by quadrature of order ``m``.
    """
    entry = REGISTRY[function_id]
    if entry.synthetic:
        cls = ClassParams(s=s, mu=mu)
        return synthesize_class_function(cls, DecayProfile(epsilon=epsilon, kmax=kmax), seed)
    return compute_coeff_grid(entry.callable(), kmax, m)


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


def _noise_support(crosses) -> int:
    """Rectangle bound of the noise: the largest cross extent plus 2."""
    return max(max(cross.k_extent(), cross.j_extent()) for cross in crosses) + 2


def _perturb_for_cross(
    c: CoeffGrid, cross: HyperbolicCross, mode: str, p: float, delta: float, seed: int,
    support: int, cls: ClassParams,
) -> tuple[CoeffGrid, CoeffGrid | None]:
    """The coefficients a method on ``cross`` observes under noise ``mode``.

    Returns ``(c_delta, xi)`` for an l_p budget ``delta`` on indices up to
    ``support`` (see :func:`perturb`); the witness mode takes ``xi`` from
    the witness pair that ``cross`` cannot see.  Mode "off" returns
    ``(c, None)``.
    """
    spec_mode = _NOISE_MODES[mode]
    if spec_mode is None:
        return c, None
    spec = NoiseSpec(p=p, delta=delta, mode=spec_mode, seed=seed, support=support)
    witness = witness_for_cross(cross, delta, p, cls) if mode == "witness" else None
    return perturb(c, spec, witness=witness)


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
        if self.sup_resolution < 2:
            problems.append(f"sup_resolution: must be >= 2, got {self.sup_resolution}")
        if self.gamma_override is not None and self.gamma_override < 1:
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

    def _sweep_plan(self) -> list[tuple[ParameterSelection, HyperbolicCross]]:
        """The selected (n, gamma) and its cross at every delta of the sweep."""
        plan = []
        for delta in self.deltas():
            si = SelectionInput(
                delta=float(delta), p=self.p, cls=self.cls(), r1=self.r1, r2=self.r2,
                metric=self.selection_metric(),
            )
            sel = select_parameters(si, forced_gamma=self.gamma_override)
            plan.append((sel, build_cross(sel.n, sel.gamma, self.r1, self.r2)))
        return plan

    def noise_support(self) -> int:
        """Rectangle bound: largest cross extent across the sweep plus 2."""
        return _noise_support(cross for _, cross in self._sweep_plan())


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
    plan = config._sweep_plan()
    support = _noise_support(cross for _, cross in plan)
    sum_l2 = np.zeros(len(deltas))
    sum_c = np.zeros(len(deltas))
    sum_noise = np.zeros(len(deltas))
    wall = np.zeros(len(deltas))
    cls = config.cls()
    for rep in range(config.num_seeds):
        ref = _registry_grid(
            config.function_id, config.k_ref, _FUNCTION_STREAM_OFFSET + config.seed + rep,
            config.s, config.mu, config.epsilon,
        )
        d_ref = mixed_derivative_coeffs(ref, config.r1, config.r2)
        for i, (delta, (sel, cross)) in enumerate(zip(deltas, plan)):
            start = time.perf_counter() if config.timing else 0.0
            c_delta, xi = _perturb_for_cross(
                ref, cross, config.noise_mode, config.p, float(delta),
                (config.seed + rep * config.delta_count + i) % 2**64, support, cls,
            )
            approx = apply_method(
                c_delta, MethodParams(n=sel.n, gamma=sel.gamma, r1=config.r1, r2=config.r2)
            )
            diff = approx - d_ref
            sum_l2[i] += parseval_l2_norm(diff)
            sum_c[i] += sup_norm_on_grid(diff, config.sup_resolution)
            sum_noise[i] += 0.0 if xi is None else lp_norm(xi, config.p)
            if config.timing:
                wall[i] += (time.perf_counter() - start) * 1000.0
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
        sel = select_parameters(
            SelectionInput(delta=delta, p=p, cls=cls, r1=r1, r2=r2, metric=METRIC_L2)
        )
        d_true = mixed_derivative_coeffs(w.f1, r1, r2)
        # the adversary hands the method data indistinguishable from f2
        approx = apply_method(w.f2, MethodParams(n=sel.n, gamma=sel.gamma, r1=r1, r2=r2))
        diff = approx - d_true
        err_l2 = parseval_l2_norm(diff)
        err_c = sup_norm_on_grid(diff, sup_resolution)
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
