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

from .cross import build_cross
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


# ---------------------------------------------------------------------------
# convergence study

METRIC_BOTH = "both"
_CONFIG_METRICS = (METRIC_L2, METRIC_C, METRIC_BOTH)
_NOISE_MODES = ("sphere", "single", "witness", "off")
_NOISE_MODE_MAP = {
    "sphere": "random-sphere",
    "single": "single-coefficient",
    "witness": "adversarial-witness",
}


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
        # "both" reports both error columns; the method parameters come
        # from the L2 rule, which coincides with the C rule for r1 == r2
        return METRIC_L2 if self.metric == METRIC_BOTH else self.metric

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
            problems.append(f"mode: must be one of {_NOISE_MODES}, got {self.noise_mode!r}")
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
                extent = self._max_cross_extent()
            except (AdmissibilityError, ValueError) as exc:
                problems.append(f"selection: {exc}")
            else:
                if self.k_ref < extent + 2:
                    problems.append(
                        f"k_ref: must cover the largest cross extent plus margin 2 "
                        f"(need >= {extent + 2}, got {self.k_ref})"
                    )
        return problems

    def _selections(self) -> list:
        metric = self.selection_metric()
        return [
            select_parameters(
                SelectionInput(
                    delta=float(d), p=self.p, cls=self.cls(), r1=self.r1, r2=self.r2,
                    metric=metric,
                ),
                forced_gamma=self.gamma_override,
            )
            for d in self.deltas()
        ]

    def _max_cross_extent(self) -> int:
        extent = 0
        for sel in self._selections():
            cross = build_cross(sel.n, sel.gamma, self.r1, self.r2)
            extent = max(extent, cross.k_extent(), cross.j_extent())
        return extent

    def noise_support(self) -> int:
        """Rectangle bound: largest cross extent across the sweep plus 2."""
        return self._max_cross_extent() + 2


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


def _reference_grid(config: ExperimentConfig, rep: int) -> CoeffGrid:
    entry = REGISTRY[config.function_id]
    if entry.synthetic:
        profile = DecayProfile(epsilon=config.epsilon, kmax=config.k_ref)
        return synthesize_class_function(
            config.cls(), profile, _FUNCTION_STREAM_OFFSET + config.seed + rep
        )
    return compute_coeff_grid(entry.callable(), config.k_ref)


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
    selections = config._selections()
    support = config.noise_support()
    sum_l2 = np.zeros(len(deltas))
    sum_c = np.zeros(len(deltas))
    sum_noise = np.zeros(len(deltas))
    wall = np.zeros(len(deltas))
    cards = [0] * len(deltas)
    for rep in range(config.num_seeds):
        ref = _reference_grid(config, rep)
        d_ref = mixed_derivative_coeffs(ref, config.r1, config.r2)
        for i, delta in enumerate(deltas):
            start = time.perf_counter() if config.timing else 0.0
            sel = selections[i]
            cross = build_cross(sel.n, sel.gamma, config.r1, config.r2)
            cards[i] = len(cross)
            if config.noise_mode == "off":
                c_delta, noise_norm = ref, 0.0
            else:
                spec = NoiseSpec(
                    p=config.p,
                    delta=float(delta),
                    mode=_NOISE_MODE_MAP[config.noise_mode],
                    seed=(config.seed + rep * config.delta_count + i) % 2**64,
                    support=support,
                )
                witness = None
                if config.noise_mode == "witness":
                    witness = witness_for_cross(cross, float(delta), config.p, config.cls())
                c_delta, xi = perturb(ref, spec, witness=witness)
                noise_norm = lp_norm(xi, config.p)
            approx = apply_method(
                c_delta, MethodParams(n=sel.n, gamma=sel.gamma, r1=config.r1, r2=config.r2)
            )
            diff = approx - d_ref
            sum_l2[i] += parseval_l2_norm(diff)
            sum_c[i] += sup_norm_on_grid(diff, config.sup_resolution)
            sum_noise[i] += noise_norm
            if config.timing:
                wall[i] += (time.perf_counter() - start) * 1000.0
    reps = config.num_seeds
    records = [
        SweepRecord(
            delta=float(deltas[i]),
            n=selections[i].n,
            gamma=selections[i].gamma,
            cross_card=cards[i],
            error_l2=float(sum_l2[i] / reps),
            error_c=float(sum_c[i] / reps),
            noise_norm=float(sum_noise[i] / reps),
            wall_ms=float(wall[i]),
        )
        for i in range(len(deltas))
    ]
    result = ExperimentResult(
        records=records, case_label=selections[0].case_label, noise_support=support
    )
    fit_l2 = _fit_with_drop([(r.delta, r.error_l2) for r in records])
    fit_c = _fit_with_drop([(r.delta, r.error_c) for r in records])
    result.fit_l2 = fit_l2
    result.fit_c = fit_c
    result.fitted_exponent_l2 = fit_l2.slope if fit_l2 else None
    result.fitted_exponent_c = fit_c.slope if fit_c else None
    for metric, attr in ((METRIC_L2, "theoretical_exponent_l2"), (METRIC_C, "theoretical_exponent_c")):
        try:
            setattr(
                result,
                attr,
                theoretical_error_exponent(
                    SelectionInput(
                        delta=float(deltas[0]), p=config.p, cls=config.cls(),
                        r1=config.r1, r2=config.r2, metric=metric,
                    )
                ),
            )
        except AdmissibilityError:
            setattr(result, attr, None)
    return result


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
    if len(n_values) < _FIT_MIN_POINTS:
        raise ValueError(f"need at least {_FIT_MIN_POINTS} band sizes for rate fitting")
    if any(n < _FIT_MIN_POINTS for n in n_values):
        raise ValueError("band sizes below 4 are too small for rate fitting")
    records: list[RadiusRecord] = []
    base = build_witness_pair(min(n_values), r1, r2, cls)
    for N in sorted(n_values):
        w = build_witness_pair(N, r1, r2, cls)
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
