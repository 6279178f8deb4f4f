"""Span recording for the traced benchmark run, and its reduction to metrics.

A traced run wraps the public functions of every hcderiv layer (listed in
``layers.json``) at each hcderiv module attribute that binds them.  Each call
records one span: kind, start, end, parent span and op id, kept in flat
arrays in memory and written once when the run ends.  Counters for a span
(entries, draws, computed flops and bytes) are taken from its arguments and
result after the span closes; that work is itself recorded as a ``trace``
span so it is counted as tracing overhead, not as layer time.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

import numpy as np

ROOT = -1
TRACE_KIND = "trace.counters"


def _grid_entries(args, kwargs, result):
    return {"entries": len(args[0])}


def _grid_max_index(grid):
    mi = grid.max_index()
    return (0, 0) if mi is None else (mi[0] + 1, mi[1] + 1)


def _sup_norm_kernel(args, kwargs, result):
    # vt @ dense @ vu.T with vt (res, K1+1), dense (K1+1, K2+1), vu (res, K2+1)
    res = kwargs.get("resolution", args[1] if len(args) > 1 else 257)
    k1, k2 = _grid_max_index(args[0])
    if k1 == 0:
        return {"flops": 0, "bytes": 0}
    flops = 2 * res * k1 * k2 + 2 * res * res * k2
    elems = res * k1 + k1 * k2 + res * k2 + res * k2 + res * res
    return {"flops": flops, "bytes": 8 * elems}


def _project_kernel(args, kwargs, result):
    # v.T @ weighted @ v with weighted (m, m), v (m, K+1)
    kmax = kwargs.get("kmax", args[1] if len(args) > 1 else 0)
    m = kwargs.get("m", args[2] if len(args) > 2 else None)
    if m is None:
        m = kmax + 10
    k = kmax + 1
    flops = 2 * m * m * k + 2 * m * k * k
    elems = m * m + m * k + k * m + k * k
    return {"flops": flops, "bytes": 8 * elems}


def _noise_draws(args, kwargs, result):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    if spec.mode == "random-sphere":
        draws = (spec.support + 1) ** 2
    elif spec.mode == "single-coefficient":
        draws = 3
    else:
        draws = 0
    return {"draws": draws}


def _restrict_sizes(args, kwargs, result):
    return {"entries_in": len(args[0]), "kept": len(result), "cross": len(args[1])}


def _cross_card(args, kwargs, result):
    return {"card": len(result)}


def _witness_entries(args, kwargs, result):
    return {"entries": len(result.f1) + len(result.f2)}


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}


def _text_bytes(args, kwargs, result):
    text = result if isinstance(result, str) else args[0]
    return {"bytes": len(text)}


# counters by span kind; each takes (args, kwargs, result) and returns counts
COUNTERS = {
    "spectral.CoeffGrid.__init__": _grid_entries,
    "spectral.sup_norm_on_grid": _sup_norm_kernel,
    "spectral.restrict_to_cross": _restrict_sizes,
    "spectral.save_grid": _path_bytes,
    "spectral.load_grid": _path_bytes,
    "spectral.dump_grid": _text_bytes,
    "spectral.parse_grid": _text_bytes,
    "quadrature.compute_coeff_grid": _project_kernel,
    "noise.perturb": _noise_draws,
    "cross.build_cross": _cross_card,
    "lowerbound.build_witness_pair": _witness_entries,
    "lowerbound.witness_for_cross": _witness_entries,
}


class SpanLog:
    """Spans of a traced run in flat arrays, indexed by span id."""

    def __init__(self, kinds: list[str]):
        self.kinds = list(kinds) + [TRACE_KIND]
        self.kind_id = {k: i for i, k in enumerate(self.kinds)}
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict[str, int]] = {}
        self.stack = [ROOT]
        self.op_id = -1
        self.active = False

    def __len__(self) -> int:
        return len(self.kind)

    def open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, kind: str, start: float, end: float, parent: int = ROOT, op: int = 0,
            counts: dict | None = None) -> int:
        """Append a finished span; used to build span trees by hand."""
        idx = len(self.kind)
        self.kind.append(self.kind_id[kind])
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        if counts:
            self.counts[idx] = dict(counts)
        return idx


class Tracer:
    """Installs span-recording wrappers on hcderiv layer functions.

    ``targets`` maps a span kind ``<layer>.<name>`` to the module path and
    attribute (``Class.method`` for methods).  Names a module no longer has
    are listed in ``absent``.  ``uninstall`` puts every original object back.
    """

    def __init__(self, targets: dict[str, tuple[str, str]]):
        self.targets = targets
        self.log = SpanLog(list(targets))
        self.absent: list[str] = []
        self.bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _hcderiv_modules()
        for kind, (module_name, attr) in self.targets.items():
            module = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or name not in vars(owner):
                self.absent.append(kind)
                continue
            orig = vars(owner)[name]
            if owner_name:
                places = [(owner, name)]
            else:
                places = [(m, b) for m in modules for b, v in vars(m).items() if v is orig]
            wrapper = self._wrap(kind, orig)
            for place, binding in places:
                self.bindings.append((place, binding, orig))
                setattr(place, binding, wrapper)

    def uninstall(self) -> None:
        for place, binding, orig in reversed(self.bindings):
            setattr(place, binding, orig)
        self.bindings.clear()

    def _wrap(self, kind: str, fn):
        log = self.log
        kind_id = log.kind_id[kind]
        trace_id = log.kind_id[TRACE_KIND]
        counter = COUNTERS.get(kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not log.active:
                return fn(*args, **kwargs)
            idx = log.open(kind_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if counter is not None:
                cidx = log.open(trace_id)
                try:
                    log.counts[idx] = counter(args, kwargs, result)
                finally:
                    log.close(cidx)
            return result

        return wrapper


def _hcderiv_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "hcderiv" or name.startswith("hcderiv."))
    ]


# ---------------------------------------------------------------------------
# reduction


def _covered(group: np.ndarray, start: np.ndarray, end: np.ndarray, groups: int) -> np.ndarray:
    """Per group, the length of the union of its intervals.

    Intervals are sorted by (group, start); each adds the part of it past the
    furthest end reached so far in its group.  Times are shifted by a per-group
    offset larger than their range, so one running maximum serves every group.
    """
    if group.size == 0:
        return np.zeros(groups)
    order = np.lexsort((start, group))
    group, start, end = group[order], start[order], end[order]
    base = min(start.min(), end.min())
    offset = group * (max(start.max(), end.max()) - base + 1.0)
    reach = np.maximum.accumulate(end - base + offset)
    prev = np.empty_like(reach)
    prev[0] = -np.inf
    prev[1:] = reach[:-1]
    first = np.ones(group.size, dtype=bool)
    first[1:] = group[1:] != group[:-1]
    prev[first] = -np.inf
    part = np.maximum(0.0, end - base + offset - np.maximum(start - base + offset, prev))
    return np.bincount(group, weights=part, minlength=groups)


class _Columns:
    def __init__(self, log: SpanLog):
        self.kind = np.frombuffer(log.kind, dtype=np.int32).astype(np.int64)
        self.parent = np.frombuffer(log.parent, dtype=np.int32).astype(np.int64)
        self.op = np.frombuffer(log.op, dtype=np.int32).astype(np.int64)
        self.start = np.frombuffer(log.start, dtype=np.float64)
        self.end = np.frombuffer(log.end, dtype=np.float64)


def self_times(log: SpanLog) -> np.ndarray:
    """Span duration minus the part of it that its child spans cover."""
    col = _Columns(log)
    child = np.flatnonzero(col.parent != ROOT)
    parent = col.parent[child]
    start = np.maximum(col.start[child], col.start[parent])
    end = np.minimum(col.end[child], col.end[parent])
    inside = end > start
    covered = _covered(parent[inside], start[inside], end[inside], len(log))
    return (col.end - col.start) - covered


def _outermost(log: SpanLog, spans, kinds: set[int]) -> list[int]:
    """Spans of ``kinds`` with no ancestor of ``kinds``."""
    out = []
    for idx in spans:
        parent = log.parent[idx]
        while parent != ROOT and log.kind[parent] not in kinds:
            parent = log.parent[parent]
        if parent == ROOT:
            out.append(idx)
    return out


def op_metrics(log: SpanLog, metrics: list[dict], op_wall: dict[int, float],
               op_fields: dict[int, dict]) -> dict[int, dict[str, float]]:
    """Per-op values of the per-layer metrics defined in ``spec.json``.

    Metric ``how``: ``time`` is the wall time covered by spans of the listed
    kinds (nested calls counted once); ``calls`` counts those spans; ``sum``
    adds a counter over the outermost of them; ``ratio`` divides two such
    sums; ``self`` adds the self time of every span of the layer; ``field``
    reads a value the op itself reported.
    """
    col = _Columns(log)
    selfs = self_times(log)
    layers = sorted({k.split(".", 1)[0] for k in log.kinds})
    layer_of_kind = np.array([layers.index(k.split(".", 1)[0]) for k in log.kinds])
    span_layer = layer_of_kind[col.kind]
    trace_layer = layers.index(TRACE_KIND.split(".", 1)[0])
    counted = np.array(sorted(log.counts), dtype=np.int64)
    out: dict[int, dict[str, float]] = {}
    for op, wall in op_wall.items():
        in_op = col.op == op
        layer_self = np.bincount(span_layer[in_op], weights=selfs[in_op], minlength=len(layers))
        counted_op = counted[col.op[counted] == op] if counted.size else counted

        def mask(kinds):
            ids = [log.kind_id[k] for k in kinds if k in log.kind_id]
            return in_op & np.isin(col.kind, ids)

        def total(kinds, counter):
            ids = {log.kind_id[k] for k in kinds if k in log.kind_id}
            chosen = [int(i) for i in counted_op if col.kind[i] in ids]
            return sum(log.counts[i].get(counter, 0) for i in _outermost(log, chosen, ids))

        values: dict[str, float] = {}
        for m in metrics:
            name, how = m["name"], m["how"]
            if how == "time":
                sel = mask(m["of"])
                values[name] = float(_covered(np.zeros(int(sel.sum()), dtype=np.int64),
                                              col.start[sel], col.end[sel], 1)[0])
            elif how == "calls":
                values[name] = int(mask(m["of"]).sum())
            elif how == "sum":
                values[name] = total(m["of"], m["counter"])
            elif how == "ratio":
                num = total(m["num"]["of"], m["num"]["counter"])
                den = total(m["den"]["of"], m["den"]["counter"])
                values[name] = num / den if den else 0.0
            elif how == "self":
                values[name] = float(layer_self[layers.index(name.split(".", 1)[0])])
            elif how == "field":
                values[name] = op_fields.get(op, {}).get(m["field"], 0)
        layer_total = float(layer_self.sum() - layer_self[trace_layer])
        values["trace.coverage"] = layer_total / wall if wall > 0 else 0.0
        out[op] = values
    return out
