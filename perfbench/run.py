"""hcderiv benchmark: one command per workload, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 30 --trace 0

Workloads (see spec.json): ``convergence`` (the scaled rate study through
``hcderiv experiment``), ``radius`` (``hcderiv radius`` at N up to 4096) and
``project-diff`` (projection at K=512, exact derivative, ``hcderiv diff``).

Load comes from one worker process at a time (a closed loop: the next op
starts when the previous one and its checks end), with every BLAS and OpenMP
thread count pinned to 1.  Set-up is measured several times, each in a fresh
worker, from process start until hcderiv is imported and the inputs exist.
The last worker then runs ops for ``--seconds`` and checks each one outside
the timed region.  With ``--trace 0`` the last line of output reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
the traced ops.  The lines before it print every metric with its unit, and
a result file with the environment goes to ``perfbench/out/``.

Times (``setup_s``, ``op_s``, ``op_s.tail``, ``trace.op_s``) are in reference
seconds: wall seconds scaled by the host speed that a fixed probe measured
while they ran (pace.py), because the shared host's own speed swings by up
to 1.7x from one minute to the next.  The median wall time and the probe's
slowdown are printed beside ``op_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

from worker import THREAD_VARS, load_spec  # noqa: E402

# the probe below runs numpy in this process too; keep it to one thread
os.environ.update({var: "1" for var in THREAD_VARS})
import pace  # noqa: E402

WORKLOADS = ("convergence", "radius", "project-diff")
SETUP_WORKERS = 9
# host-speed probes taken just before each worker starts and just after it is ready
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> dict:
    """Highest nearest-rank percentile that has at least ``beyond`` samples above it.

    With ``beyond`` or fewer samples no such percentile exists; the maximum is
    reported instead, as percentile 100 with the count actually above it (0).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > beyond:
        rank = n - beyond
        return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n,
                "beyond": n - rank, "samples": n}
    return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}


class WorkerError(RuntimeError):
    pass


def _start(cmd: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the reference seconds until it reported READY."""
    probes = [pace.probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc)
        raise WorkerError(f"worker did not get ready (exit code {proc.returncode})")
    probes += [pace.probe() for _ in range(SETUP_PROBES)]
    return proc, pace.reference_seconds(setup, probes)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise WorkerError("worker ran past the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")


def end_to_end(setup: list[float], result: dict) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and the figures printed beside them."""
    plain = [op for op in result["ops"] if op["phase"] == "plain"]
    times = [op["op_s"] for op in plain]
    tail = tail_percentile(times)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_s": {"value": statistics.median(times), "unit": "s"},
        "op_s.tail": {"value": tail["value"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    notes = {
        "setup_s": f"median of {len(setup)} worker starts, in reference seconds",
        "op_s": (f"median of {len(times)} ops, in reference seconds; median wall "
                 f"{statistics.median(op['wall_s'] for op in plain):.6g} s, host probe "
                 f"{statistics.median(op['probe_s'] for op in plain) / pace.REFERENCE_PROBE_S:.3g}"
                 f" x its reference time"),
        "op_s.tail": (f"p{tail['percentile']:.1f} of {tail['samples']} ops, "
                      f"{tail['beyond']} above it"),
    }
    return metrics, notes


def accuracy(result: dict) -> dict:
    """fail_ratio, rate_gap and max_rel_dev over every op of the run."""
    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    gaps = [op["rate_gap"] for op in ops if op.get("rate_gap") is not None]
    devs = [op["max_rel_dev"] for op in ops if op.get("max_rel_dev") is not None]
    out = {"fail_ratio": {"value": failed / len(ops), "unit": "ratio"}}
    if gaps:
        out["rate_gap"] = {"value": statistics.median(gaps), "unit": "exponent"}
    if devs:
        out["max_rel_dev"] = {"value": max(devs), "unit": "ratio"}
    return out


def per_layer(result: dict, spec: dict) -> tuple[dict, list[str]]:
    """Median per traced op of each per-layer metric; names with no data are absent."""
    units = {m["name"]: m["unit"] for m in spec["metrics"]}
    per_op = list(result["layers"].values())
    plain = [op["op_s"] for op in result["ops"] if op["phase"] == "plain"]
    traced = [op["op_s"] for op in result["ops"] if op["phase"] == "traced"]
    absent_kinds = set(result["absent"])
    metrics, absent = {}, []
    for m in spec["metrics"]:
        name = m["name"]
        kinds = set(m.get("of", [])) | set(m.get("num", {}).get("of", []))
        if kinds and kinds <= absent_kinds:
            absent.append(name)
        elif per_op and name in per_op[0]:
            metrics[name] = {"value": statistics.median(v[name] for v in per_op), "unit": units[name]}
    if traced:
        metrics["trace.op_s"] = {"value": statistics.median(traced), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hcderiv", "__init__.py")):
        print("error: no hcderiv source tree at ./src/hcderiv; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    result_path = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}.raw.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--workdir", workdir]
    setup: list[float] = []
    try:
        for _ in range(SETUP_WORKERS - 1):
            proc, seconds = _start(cmd + ["--setup-only"], env, deadline)
            _finish(proc, deadline)
            setup.append(seconds)
        run_cmd = cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--result", result_path]
        if args.trace:
            run_cmd += ["--spans", os.path.join(OUT_DIR, f"{tag}.spans.npz")]
        proc, seconds = _start(run_cmd, env, deadline)
        setup.append(seconds)
        _finish(proc, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result_path, encoding="ascii") as fh:
        result = json.load(fh)
    os.unlink(result_path)

    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    report = {"workload": args.workload, "seed": args.seed, "variant": result["variant"],
              "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
              "environment": result["environment"], "setup_samples_s": setup, "ops": ops}
    acc = accuracy(result)
    if args.trace:
        spec = load_spec()
        metrics, absent = per_layer(result, spec)
        computed = {m["name"] for m in spec["metrics"] if m.get("computed")}
        notes = {name: "computed" for name in computed if name in metrics}
        report.update(per_op_layers=result["layers"], absent=absent, span_count=result["span_count"])
        for name in absent:
            print(f"{name}: absent (no function of it exists at this commit)")
    else:
        metrics, notes = end_to_end(setup, result)
    report.update(metrics=metrics, accuracy=acc)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed} (input variant {result['variant']}), "
          f"{len(ops)} ops, {failed} failed")
    for name, metric in list(metrics.items()) + list(acc.items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
