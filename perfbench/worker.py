"""Benchmark worker: imports hcderiv from ./src, prepares a workload, runs its ops.

Started by ``run.py`` from the root of a checkout.  It prints ``READY`` once
hcderiv is imported and the inputs are generated (the end of set-up), then
runs ops until ``--seconds`` have passed, checks each op outside the timed
region, and writes the raw samples to ``--result``.  With ``--trace 1`` the
first half of the time runs untraced ops and the second half traced ones.
"""

from __future__ import annotations

import os
import sys

import argparse
import json
import platform
import resource
import shutil
import subprocess
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(BENCH_DIR, "spec.json")


def pin_threads() -> None:
    """Pin BLAS and OpenMP to one thread; call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_hcderiv(root: str):
    """Import hcderiv from the checkout's source tree and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hcderiv

    if not os.path.abspath(hcderiv.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"hcderiv imported from {hcderiv.__file__}, not from {src}")
    return hcderiv


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="ascii") as fh:
        return json.load(fh)


def trace_targets(spec: dict) -> dict[str, tuple[str, str]]:
    return {
        f"{layer}.{attr}": (entry["module"], attr)
        for layer, entry in spec["layers"].items()
        for attr in entry["wrap"]
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_state(root: str) -> dict:
    if not os.path.exists(os.path.join(root, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=20, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", root, "status", "--porcelain"], capture_output=True,
                                text=True, timeout=20, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def environment(root: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git": _git_state(root),
    }


def _run_ops(workloads, inputs, opdir, deadline, t_begin, phase, log, ops):
    """Run ops until ``deadline`` seconds after ``t_begin``; at least one.

    Each op records its wall time and, from the host-speed probes taken while
    it ran, its time in reference seconds (see pace.py).
    """
    import pace  # imports numpy, so not before pin_threads

    sampler = pace.Sampler()
    while True:
        shutil.rmtree(opdir, ignore_errors=True)
        os.makedirs(opdir)
        op_id = len(ops)
        if log is not None:
            log.op_id = op_id
            log.active = True
        out, error = None, None
        around = [pace.probe()]
        sampler.start()
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(inputs, opdir)
        except Exception:  # an op that raises counts as failed
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        probes = sampler.stop()
        if log is not None:
            log.active = False
        if not probes:
            probes = around + [pace.probe()]
        record = {"phase": phase, "wall_s": wall,
                  "op_s": pace.reference_seconds(wall - sampler.spent, probes),
                  "probes": len(probes), "probe_s": pace.trimmed_mean(probes), "bytes_out": 0}
        if error is not None:
            sys.stderr.write(error)
            record.update(problems=["raised: " + error.strip().splitlines()[-1]],
                          max_rel_dev=None, rate_gap=None)
        else:
            try:
                record.update(workloads.check(inputs, out))
                record["bytes_out"] = workloads.bytes_out(out)
            except Exception:  # a check that cannot read the outputs fails the op
                record.update(problems=["check raised: " + traceback.format_exc().strip().splitlines()[-1]],
                              max_rel_dev=None, rate_gap=None)
        for problem in record["problems"]:
            print(f"op {op_id} ({phase}): {problem}", file=sys.stderr)
        ops.append(record)
        del out
        if time.perf_counter() - t_begin >= deadline:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()

    pin_threads()
    import_hcderiv(root)
    import workloads

    inputs = workloads.prepare(args.workload, args.seed, args.scale, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    # anything the program prints from here on must not reach the protocol pipe
    sys.stdout = sys.stderr

    opdir = os.path.join(args.workdir, "op")
    ops: list[dict] = []
    tracer = None
    t_begin = time.perf_counter()
    if args.trace:
        import spans

        spec = load_spec()
        _run_ops(workloads, inputs, opdir, args.seconds / 2, t_begin, "plain", None, ops)
        tracer = spans.Tracer(trace_targets(spec))
        tracer.install()
        try:
            _run_ops(workloads, inputs, opdir, args.seconds, t_begin, "traced", tracer.log, ops)
        finally:
            tracer.uninstall()
    else:
        _run_ops(workloads, inputs, opdir, args.seconds, t_begin, "plain", None, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"variant": inputs["variant"], "ops": ops, "peak_rss_mb": peak_rss_mb,
              "environment": environment(root)}
    if tracer is not None:
        traced = {i: op for i, op in enumerate(ops) if op["phase"] == "traced"}
        per_op = spans.op_metrics(
            tracer.log,
            [m for m in spec["metrics"] if m["how"] != "trace"],
            {i: op["wall_s"] for i, op in traced.items()},
            traced,
        )
        result["layers"] = {str(i): values for i, values in per_op.items()}
        result["absent"] = tracer.absent
        result["span_count"] = len(tracer.log)
        if args.spans:
            write_spans(tracer.log, args.spans)
    shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


def write_spans(log, path: str) -> None:
    """All spans of the run in one compressed file, written once at the end."""
    import numpy as np

    np.savez_compressed(
        path,
        kinds=np.array(log.kinds),
        kind=np.frombuffer(log.kind, dtype=np.int32),
        parent=np.frombuffer(log.parent, dtype=np.int32),
        op=np.frombuffer(log.op, dtype=np.int32),
        start=np.frombuffer(log.start, dtype=np.float64),
        end=np.frombuffer(log.end, dtype=np.float64),
        counts=np.array(json.dumps({str(i): c for i, c in log.counts.items()})),
    )


if __name__ == "__main__":
    sys.exit(main())
