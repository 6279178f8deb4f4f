"""Command-line surface.

Subcommands: ``coeffs`` projects a registry function onto the basis,
``diff`` runs the truncation differentiator on a coefficient file,
``cross`` dumps a hyperbolic-cross index set, ``experiment`` drives a
convergence study (CSV/JSON/SVG emitters), ``radius`` runs the witness
lower-bound study.  Each subcommand parses its arguments, delegates the
work to the library (the registry grid, the sweep-point planning,
noisy-point and error steps, the noise-support rule and both studies
live in :mod:`hcderiv.harness`), and serialises what comes back.

Exit codes: 0 success, 2 input error, 3 admissibility violation,
4 config validation failure.  The parser is built once per process.

Every emitted file references a manifest hash computed over the tool
version, command, argument echo (for ``diff`` including the sha256 of
each input file's contents), and RNG algorithm id, so results can
be traced back to the invocation that produced them; the hash excludes
timestamps, keeping repeated runs byte-identical.  Every subcommand
hands its outputs to one step, ``_emit``, which renders all the texts
before it writes any file, so a run whose work or rendering fails
writes nothing; the manifest, beside the first output, is written last.
Each file is written by ``text.write_text``, which renames a whole temp
file over the target, so an interrupted run never leaves a half file;
the file gets the mode and link handling that ``open`` would give it.
``diff`` reads grid files, ASCII text, through ``load_grid``'s reader.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Callable

from . import __version__
from .cross import build_cross, dump_cross
from .harness import (
    _CONFIG_METRICS,
    _NOISE_MODES,
    REGISTRY,
    ExperimentConfig,
    ExperimentResult,
    RadiusRecord,
    RadiusStudy,
    SweepRecord,
    _noise_support,
    _noisy_method,
    _point_noise,
    _plan_point,
    _registry_grid,
    _selection_metric,
    run_convergence_study,
    run_radius_study,
)
from .noise import RNG_ALGORITHM
from .spectral import ClassParams, _ErrorReference, _read_grid, dump_grid
from .text import write_text
from .truncation import AdmissibilityError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ADMISSIBILITY = 3
EXIT_CONFIG = 4

CSV_HEADER = ",".join(field.name for field in dataclasses.fields(SweepRecord))


class ConfigError(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _json_safe(value):
    """``value``, with an infinite float spelled "inf" for JSON."""
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _emit(command: str, echo: dict, outputs: list[tuple[str, Callable[[str], str]]]) -> None:
    """Write ``outputs``, (path, render) pairs, then a manifest beside the first path.

    Each render maps the manifest hash to the text of its file.  Every
    text is rendered before any file is written, so a failed render
    writes nothing; a manifest exists only if every output it lists does.
    """
    manifest = {
        "version": __version__, "command": command, "args": echo, "rng_algorithm": RNG_ALGORITHM,
    }
    digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode("ascii")).hexdigest()[:16]
    texts = [(path, render(digest)) for path, render in outputs]
    paths = [path for path, _ in texts]
    manifest.update(hash=digest, timestamp=datetime.now(timezone.utc).isoformat(), outputs=paths)
    for path, text in texts:
        write_text(path, text)
    write_text(paths[0] + ".manifest.json", _json_text(manifest))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _stamped(text: str) -> Callable[[str], str]:
    """A render giving ``text`` below a manifest comment line."""
    return lambda digest: f"# manifest sha256={digest}\n" + text


# ---------------------------------------------------------------------------
# coeffs

def _cmd_coeffs(args) -> int:
    if args.function not in REGISTRY:
        raise ValueError(f"unknown function id {args.function!r}")
    if args.k < 0:
        raise ValueError(f"K must be >= 0, got {args.k}")
    grid = _registry_grid(args.function, args.k, args.seed, args.s, args.mu, args.epsilon, args.m)
    echo = {"function": args.function, "k": args.k, "m": args.m, "seed": args.seed}
    _emit("coeffs", echo, [(args.out, _stamped(dump_grid(grid)))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# diff

def _cmd_diff(args) -> int:
    _ErrorReference.check_resolution(args.resolution)
    grid, coeffs_sha256 = _read_grid(args.coeffs)
    ref, ref_sha256 = _read_grid(args.reference) if args.reference else (None, None)
    cls = ClassParams(s=args.s, mu=args.mu)
    sel, cross = _plan_point(args.delta, args.p, cls, args.r1, args.r2, args.metric, args.gamma)
    support = _noise_support([cross])
    xi, noise_norm = _point_noise(cross, args.noise, args.p, args.delta, args.seed, support, cls)
    deriv = _noisy_method(grid, cross, xi)
    noise_meta = {"mode": args.noise} if args.noise == "off" else {
        "mode": _NOISE_MODES[args.noise],
        "p": _json_safe(args.p),
        "delta": args.delta,
        "seed": args.seed,
        "support": support,
        "norm": noise_norm,
        "algorithm": RNG_ALGORITHM,
    }
    echo = {
        "coeffs": os.path.basename(args.coeffs),
        "coeffs_sha256": coeffs_sha256,
        "reference_sha256": ref_sha256,
        "r1": args.r1, "r2": args.r2, "delta": args.delta, "p": _json_safe(args.p),
        "s": args.s, "mu": args.mu, "metric": args.metric,
        "noise": args.noise, "seed": args.seed, "gamma": args.gamma,
    }
    sidecar = {
        "n": sel.n,
        "gamma": sel.gamma,
        "case_label": sel.case_label,
        "cross_cardinality": len(cross),
        "noise": noise_meta,
    }
    if ref is not None:
        sidecar["error_l2"], sidecar["error_c"] = _ErrorReference(ref, args.resolution).errors(deriv)
    _emit("diff", echo, [
        (args.out, _stamped(dump_grid(deriv))),
        (args.out + ".json", lambda digest: _json_text({**sidecar, "manifest": digest})),
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# cross

def _cmd_cross(args) -> int:
    cross = build_cross(args.n, args.gamma, args.r1, args.r2)
    echo = {"n": args.n, "gamma": args.gamma, "r1": args.r1, "r2": args.r2}
    _emit("cross", echo, [(args.out, _stamped(dump_cross(cross)))])
    print(f"cross cardinality: {len(cross)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment

def _parse_on_off(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("on", "off"):
        raise ValueError(text)
    return value == "on"


# section -> key -> (ExperimentConfig field, parser)
_CONFIG_SCHEMA = {
    "class": {"s": ("s", float), "mu": ("mu", float)},
    "orders": {"r1": ("r1", int), "r2": ("r2", int)},
    "noise": {
        "mode": ("noise_mode", str),
        "p": ("p", float),
        "seed": ("seed", int),
        "num_seeds": ("num_seeds", int),
    },
    "sweep": {
        "delta_start": ("delta_start", float),
        "delta_stop": ("delta_stop", float),
        "count": ("delta_count", int),
    },
    "function": {"id": ("function_id", str), "epsilon": ("epsilon", float), "k_ref": ("k_ref", int)},
    "method": {
        "metric": ("metric", str),
        "sup_resolution": ("sup_resolution", int),
        "gamma": ("gamma_override", float),
    },
    "output": {"timing": ("timing", _parse_on_off)},
}


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse the bracketed key=value config file into an ExperimentConfig.

    Collects every problem (unknown section/key, unparsable value,
    invalid field) instead of stopping at the first.
    """
    # values are taken as written: no config uses interpolation, so a "%" is plain text
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"config parse failure: {exc}"])
    if not read:
        raise ConfigError([f"config file not found: {path}"])
    problems: list[str] = []
    fields: dict = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            entry = _CONFIG_SCHEMA[section].get(key)
            if entry is None:
                problems.append(f"unknown key {key!r} in section [{section}]")
                continue
            field, conv = entry
            try:
                fields[field] = conv(raw)
            except ValueError:
                reason = "must be on/off, got" if conv is _parse_on_off else "cannot parse value"
                problems.append(f"{key}: {reason} {raw!r}")
    if problems:
        raise ConfigError(problems)
    config = ExperimentConfig(**fields)
    problems = config.validate()
    if problems:
        raise ConfigError(problems)
    return config


def _result_to_json(result: ExperimentResult, config: dict, digest: str) -> str:
    payload = dataclasses.asdict(result)
    payload.update(schema="experiment-result v1", manifest=digest, config=config)
    return _json_text(payload)


def _result_to_csv(result: ExperimentResult) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(map(repr, dataclasses.astuple(r))) for r in result.records)
    return "\n".join(lines) + "\n"


def _svg_rate_plot(result: ExperimentResult, config: ExperimentConfig, digest: str) -> str:
    """Log-log error-against-delta plot, 600x400 user units.

    Draws the measured errors for the metric under study as one
    polyline and the theoretical slope as a reference line through the
    last measured point; with no positive error it draws only the frame.
    """
    metric = _selection_metric(config.metric)
    if metric == "c":
        errors = [r.error_c for r in result.records]
        theo, fitted = result.theoretical_exponent_c, result.fitted_exponent_c
    else:
        errors = [r.error_l2 for r in result.records]
        theo, fitted = result.theoretical_exponent_l2, result.fitted_exponent_l2
    deltas = [r.delta for r in result.records]
    width, height, margin = 600.0, 400.0, 50.0
    pts = [(d, e) for d, e in zip(deltas, errors) if e > 0]
    xs = [math.log10(d) for d, _ in pts]
    ys = [math.log10(e) for _, e in pts]
    ref_ys = []
    if theo is not None and pts:
        # anchor the reference slope at the smallest-delta point
        x0, y0 = xs[-1], ys[-1]
        ref_ys = [y0 + theo * (x - x0) for x in xs]
    lo_x, hi_x = min(xs, default=0.0), max(xs, default=0.0)
    lo_y = min(ys + ref_ys, default=0.0)
    hi_y = max(ys + ref_ys, default=0.0)
    span_x = hi_x - lo_x or 1.0
    span_y = hi_y - lo_y or 1.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = margin + (x - lo_x) / span_x * (width - 2 * margin)
        py = height - margin - (y - lo_y) / span_y * (height - 2 * margin)
        return px, py

    def polyline(points, color, dash=""):
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{extra} points="{coords}"/>'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- manifest sha256={digest} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 10:.0f}" text-anchor="middle" '
        f'font-size="12">log10 delta</text>',
        f'<text x="15" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {height / 2:.0f})">log10 error ({metric})</text>',
    ]
    if pts:
        parts.append(polyline([to_px(x, y) for x, y in zip(xs, ys)], "#1f6fb2"))
    if ref_ys:
        parts.append(polyline([to_px(x, y) for x, y in zip(xs, ref_ys)], "#b23f1f", dash="6,4"))
        parts.append(
            f'<text x="{width - margin:.0f}" y="{margin - 10:.0f}" text-anchor="end" '
            f'font-size="12">reference slope {theo:.4f}'
            + ("" if fitted is None else f", fitted {fitted:.4f}")
            + "</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_experiment(args) -> int:
    if not (args.out_csv or args.out_json or args.out_svg):
        raise ValueError("experiment needs at least one of --out-csv/--out-json/--out-svg")
    config = load_experiment_config(args.config)
    result = run_convergence_study(config)
    config_json = {key: _json_safe(value) for key, value in dataclasses.asdict(config).items()}
    echo = {"config": os.path.basename(args.config), **config_json}
    renders = [
        (args.out_csv, _stamped(_result_to_csv(result))),
        (args.out_json, lambda digest: _result_to_json(result, config_json, digest)),
        (args.out_svg, lambda digest: _svg_rate_plot(result, config, digest)),
    ]
    _emit("experiment", echo, [(path, render) for path, render in renders if path])
    return EXIT_OK


# ---------------------------------------------------------------------------
# radius

def _radius_record_json(record: RadiusRecord) -> dict:
    """A record's fields, its skew reports under "skew", read in place with no copy of a value."""
    payload = {**vars(record), "verify_c": vars(record.verify_c),
               "verify_l2": vars(record.verify_l2)}
    payload["skew"] = {
        skew: {"c": vars(c), "l2": vars(l2)}
        for skew, (c, l2) in payload.pop("skew_reports").items()
    }
    return payload


def _radius_to_json(study: RadiusStudy, params: dict, digest: str) -> str:
    payload = {**vars(study), "records": [_radius_record_json(r) for r in study.records]}
    payload.update(
        schema="radius-study v1",
        manifest=digest,
        params=params,
        exponent_gap_l2=study.exponent_gap_l2(),
        exponent_gap_c=study.exponent_gap_c(),
    )
    return _json_text(payload)


def _cmd_radius(args) -> int:
    _ErrorReference.check_resolution(args.resolution)  # range-checked, though the study reads none
    try:
        n_values = [int(x) for x in args.n_values.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"cannot parse band sizes {args.n_values!r}") from None
    cls = ClassParams(s=args.s, mu=args.mu)
    study = run_radius_study(n_values, cls, args.r1, args.r2, args.p)
    echo = {
        "n_values": n_values, "r1": args.r1, "r2": args.r2,
        "s": args.s, "mu": args.mu, "p": _json_safe(args.p),
    }
    _emit("radius", echo, [(args.out_json, lambda digest: _radius_to_json(study, echo, digest))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _coeffs_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("function", help="registry function id")
    c.add_argument("--k", type=int, required=True, help="largest index per axis")
    c.add_argument("--m", type=int, default=None, help="quadrature order (default K + 10)")
    c.add_argument("--s", type=float, default=2.0)
    c.add_argument("--mu", type=float, default=4.0)
    c.add_argument("--epsilon", type=float, default=0.01)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)


def _diff_arguments(d: argparse.ArgumentParser) -> None:
    d.add_argument("coeffs", help="input coefficient grid file")
    d.add_argument("--r1", type=int, required=True)
    d.add_argument("--r2", type=int, required=True)
    d.add_argument("--delta", type=float, required=True)
    d.add_argument("--p", type=float, default=2.0, help="noise norm index, or 'inf'")
    d.add_argument("--s", type=float, default=2.0)
    d.add_argument("--mu", type=float, required=True)
    d.add_argument("--metric", choices=_CONFIG_METRICS, default="l2")
    d.add_argument("--gamma", type=float, default=None, help="optional gamma override")
    d.add_argument("--noise", choices=list(_NOISE_MODES), default="off")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--reference", default=None, help="exact derivative grid for error reporting")
    d.add_argument("--resolution", type=int, default=257)
    d.add_argument("--out", required=True)


def _cross_arguments(x: argparse.ArgumentParser) -> None:
    x.add_argument("--n", type=float, required=True)
    x.add_argument("--gamma", type=float, default=1.0)
    x.add_argument("--r1", type=int, default=1)
    x.add_argument("--r2", type=int, default=1)
    x.add_argument("--out", required=True)


def _experiment_arguments(e: argparse.ArgumentParser) -> None:
    e.add_argument("--config", required=True)
    e.add_argument("--out-csv", default=None)
    e.add_argument("--out-json", default=None)
    e.add_argument("--out-svg", default=None)


def _radius_arguments(r: argparse.ArgumentParser) -> None:
    r.add_argument("--n-values", required=True, help="comma-separated band sizes, e.g. 8,16,32,64")
    r.add_argument("--r1", type=int, default=1)
    r.add_argument("--r2", type=int, default=1)
    r.add_argument("--s", type=float, default=2.0)
    r.add_argument("--mu", type=float, default=3.0)
    r.add_argument("--p", type=float, default=2.0)
    r.add_argument("--resolution", type=int, default=257)
    r.add_argument("--out-json", required=True)


# subcommand -> (help, handler, the step that adds its arguments)
_COMMANDS = {
    "coeffs": ("project a registry function onto the basis", _cmd_coeffs, _coeffs_arguments),
    "diff": ("run the truncation differentiator on a coefficient file", _cmd_diff,
             _diff_arguments),
    "cross": ("dump a hyperbolic-cross index set", _cmd_cross, _cross_arguments),
    "experiment": ("run a convergence study from a config file", _cmd_experiment,
                   _experiment_arguments),
    "radius": ("witness lower-bound study over band sizes", _cmd_radius, _radius_arguments),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and kept."""
    parser = argparse.ArgumentParser(
        prog="hcderiv",
        description="Mixed-derivative recovery from noisy Fourier-Legendre "
        "coefficients by hyperbolic-cross truncation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        add_arguments(command_parser)
        command_parser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except ConfigError as exc:
        print("error: invalid config:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
