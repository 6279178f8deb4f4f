"""Tests of the benchmark itself: span arithmetic, tail choice, tracer
restoration and a tiny smoke run of every workload."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

worker.import_hcderiv(REPO)

import workloads  # noqa: E402


def test_self_time_from_hand_built_tree():
    log = spans.SpanLog(["a.root", "b.child", "c.leaf"])
    root = log.add("a.root", 0.0, 10.0)
    first = log.add("b.child", 1.0, 4.0, parent=root)
    log.add("c.leaf", 2.0, 3.0, parent=first)
    # overlaps the first child on [3, 4]: the union is covered once
    log.add("b.child", 3.0, 6.0, parent=root)
    # reaches past its parent's end: only the part inside the parent counts
    log.add("c.leaf", 9.5, 11.0, parent=root)
    assert spans.self_times(log) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 1.0, 3.0, 1.5])


def test_op_metrics_from_hand_built_tree():
    log = spans.SpanLog(["cli.main", "spectral.save_grid", "spectral.dump_grid"])
    main = log.add("cli.main", 0.0, 4.0)
    save = log.add("spectral.save_grid", 1.0, 3.0, parent=main, counts={"bytes": 100})
    log.add("spectral.dump_grid", 1.5, 2.0, parent=save, counts={"bytes": 99})
    metrics = [
        {"name": "spectral.io_s", "how": "time", "of": ["spectral.save_grid", "spectral.dump_grid"]},
        {"name": "spectral.io_bytes", "how": "sum", "of": ["spectral.save_grid", "spectral.dump_grid"],
         "counter": "bytes"},
        {"name": "spectral.self_s", "how": "self"},
        {"name": "cli.self_s", "how": "self"},
        {"name": "cli.bytes_out", "how": "field", "field": "bytes_out"},
    ]
    values = spans.op_metrics(log, metrics, {0: 5.0}, {0: {"bytes_out": 7}})[0]
    # nested spans of one metric are counted once, from the outermost
    assert values["spectral.io_s"] == pytest.approx(2.0)
    assert values["spectral.io_bytes"] == 100
    assert values["spectral.self_s"] == pytest.approx(2.0)
    assert values["cli.self_s"] == pytest.approx(2.0)
    assert values["cli.bytes_out"] == 7
    assert values["trace.coverage"] == pytest.approx(4.0 / 5.0)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(100, 90.0, 10), (25, 60.0, 10), (11, 100.0 / 11, 10), (10, 100.0, 0), (1, 100.0, 0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    tail = run.tail_percentile(samples)
    assert tail["percentile"] == pytest.approx(percentile)
    assert tail["beyond"] == beyond
    assert tail["samples"] == n
    assert sum(1 for s in samples if s > tail["value"]) == beyond


def test_reference_seconds_scale_with_the_probe():
    assert pace.trimmed_mean([9.0, 8.0] + [1.0] * 6 + [0.0, 0.5]) == pytest.approx(1.0)
    ref = pace.REFERENCE_PROBE_S
    # a host at half speed: twice the wall time, probes twice as long
    assert pace.reference_seconds(2.0, [2 * ref] * 5) == pytest.approx(1.0)
    assert pace.reference_seconds(1.0, [ref]) == pytest.approx(1.0)


def test_sampler_probes_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = pace.Sampler()
    sampler.start()
    t_end = time.perf_counter() + 4 * pace.PROBE_INTERVAL_S
    while time.perf_counter() < t_end:
        sum(range(1000))
    samples = sampler.stop()
    assert len(samples) >= 2 and all(s > 0 for s in samples)
    assert 0 < sampler.spent < 4 * pace.PROBE_INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "hcderiv" or name.startswith("hcderiv."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    grid = sys.modules["hcderiv.spectral"].CoeffGrid
    for attr, value in vars(grid).items():
        out[("CoeffGrid", attr)] = value
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_op_restores_every_wrapped_attribute(workload, tmp_path):
    before = _bindings()
    tracer = spans.Tracer(worker.trace_targets(worker.load_spec()))
    tracer.install()
    try:
        harness = sys.modules["hcderiv.harness"]
        noise = sys.modules["hcderiv.noise"]
        assert harness.perturb is not before[("hcderiv.noise", "perturb")]
        assert harness.perturb is noise.perturb
        inputs = workloads.prepare(workload, 3, "smoke", str(tmp_path))
        tracer.log.op_id = 0
        tracer.log.active = True
        out = workloads.run_op(inputs, str(tmp_path))
        tracer.log.active = False
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.absent == []
    assert len(tracer.log) > 0
    assert workloads.check(inputs, out)["problems"] == []


def test_benchmark_json_lists_the_spec_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    spec = worker.load_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["metrics"]] == [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ]
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])


def _run(args, cwd):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failed_op(workload):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "0",
                 "--scale", "smoke"], REPO)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_ratio: 0 ratio" in proc.stdout
    assert set(result["metrics"]) == {"setup_s", "op_s", "op_s.tail", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "radius", "--seed", "1", "--seconds", "1", "--trace", "0"],
                str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
