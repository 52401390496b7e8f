"""Span tracing around csdpp's layer entry points, for the traced run only.

`install` replaces module and class attributes of csdpp with wrappers that
open a span, call the original and close the span; `uninstall` puts the
originals back.  No file of the package changes.  A span records its layer,
start, end, the span that caused it and the request (learner step) it belongs
to.  Spans stay in memory; `summarize` turns them into per-layer totals:

  calls     spans not nested inside a span of the same layer
  incl_ns   their total duration
  self_ns   duration minus the part covered by child spans, over all spans

An entry point that cannot be found (renamed or removed) leaves its layer
absent from the summary; it never fails the run.

Grid cells run in forked pool workers, which inherit the installed wrappers.
The wrapper around `cli._run_repeat` summarizes each cell's spans in the
worker and writes them to a file that the parent merges after the grid.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span recorder; single-threaded, one per process."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.delays_ns: dict[str, int] = {}  # layer -> busy wait inside its span
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent, request, nested]
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.request = 0
        self.last_eigen_dim: int | None = None

    def open(self, layer: str) -> int:
        index = len(self.spans)
        depth = self.depth.get(layer, 0)
        self.depth[layer] = depth + 1
        parent = self.stack[-1] if self.stack else -1
        start = time.perf_counter_ns()
        self.spans.append([layer, start, start, parent, self.request, depth > 0])
        self.stack.append(index)
        delay = self.delays_ns.get(layer)
        if delay:
            while time.perf_counter_ns() - start < delay:
                pass
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {span[0]} closed out of order")
        self.depth[span[0]] -= 1

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def summarize(self) -> dict:
        covered = [0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, dict] = {}
        for i, (layer, start, end, _, _, nested) in enumerate(self.spans):
            agg = layers.setdefault(layer, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            agg["self_ns"] += end - start - covered[i]
            if not nested:
                agg["calls"] += 1
                agg["incl_ns"] += end - start
        return {"layers": layers, "counters": dict(self.counters)}


def merge(total: dict, part: dict) -> dict:
    """Add summary `part` into `total` in place; returns `total`."""
    for layer, agg in part["layers"].items():
        into = total["layers"].setdefault(layer, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        for key, value in agg.items():
            into[key] += value
    for name, value in part["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + value
    return total


def empty_summary() -> dict:
    return {"layers": {}, "counters": {}}


# --- entry points -----------------------------------------------------------


def _eigen_dim(tracer: Tracer, args: tuple, result) -> None:
    dim = int(getattr(args[0], "shape", (0,))[0])
    tracer.last_eigen_dim = dim
    tracer.count("linalg.symmetric_eigen.dim_sum", dim)


def _update_before(tracer: Tracer, args: tuple) -> None:
    tracer.last_eigen_dim = None


def _update_after(tracer: Tracer, args: tuple, result) -> None:
    m = getattr(args[0], "m", None)
    if m is not None and tracer.last_eigen_dim == m + 1:
        tracer.count("online_pca.in_span")


def _bytes_written(tracer: Tracer, args: tuple, result) -> None:
    try:
        tracer.count("evaluation.bytes_written", os.path.getsize(args[0]))
    except (OSError, IndexError, TypeError):
        pass


@dataclass(frozen=True)
class Entry:
    """A layer's entry point: `path` is resolved attribute by attribute from `module`."""

    layer: str
    module: str
    path: str
    before: Callable | None = None
    after: Callable | None = None


STREAM_ENTRIES = (
    Entry("linalg.symmetric_eigen", "csdpp.online_pca", "symmetric_eigen", after=_eigen_dim),
    Entry("linalg.project_capped_simplex", "csdpp.online_pca", "project_capped_simplex"),
    Entry("online_pca.update", "csdpp.online_pca", "CappedMsgState.update", _update_before, _update_after),
    Entry("online_pca.sample_projection", "csdpp.online_pca", "CappedMsgState.sample_projection"),
    Entry("costs.label_weights", "csdpp.learners", "costs_mod.label_weights"),
    Entry("costs.price", "csdpp.costs", "CostFunction.__call__"),
    Entry("learners.decode", "csdpp.learners", "decode"),
)

GRID_ENTRIES = (
    Entry("stream.parse_dataset", "csdpp.cli", "parse_dataset"),
    Entry("stream.build_stream", "csdpp.cli", "build_stream"),
    Entry("stream.normalize_features", "csdpp.stream", "normalize_features"),
    Entry("cli.play", "csdpp.cli", "play"),
)

# Classes found by module scan, so that merged or renamed classes keep their spans.
HEAD_METHODS = {
    "predict": "regressor.predict",
    "predict_raw": "regressor.predict",
    "predict_through": "regressor.predict",
    "update": "regressor.update",
    "update_transformed": "regressor.update",
    "transform": "regressor.update",
}


def _discover() -> list[Entry]:
    found = []
    for module_name, methods in (
        ("csdpp.learners", {"step": "learners.step"}),
        ("csdpp.regressor", HEAD_METHODS),
    ):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        for name, cls in sorted(vars(module).items()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            for method, layer in methods.items():
                if inspect.isfunction(cls.__dict__.get(method)):
                    found.append(Entry(layer, module_name, f"{name}.{method}"))
    try:
        evaluation = importlib.import_module("csdpp.cli").evaluation
    except (ImportError, AttributeError):
        return found
    for name in sorted(vars(evaluation)):
        if name.startswith("write_") and callable(getattr(evaluation, name)):
            found.append(Entry("evaluation.write", evaluation.__name__, name, after=_bytes_written))
    return found


def _resolve(entry: Entry):
    owner = importlib.import_module(entry.module)
    *parents, attr = entry.path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _wrap(tracer: Tracer, entry: Entry, fn: Callable) -> Callable:
    layer, before, after = entry.layer, entry.before, entry.after

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        index = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _wrap_job(tracer: Tracer, fn: Callable, spool: str) -> Callable:
    """Span one grid cell; in a pool worker, ship the cell's summary via `spool`."""

    @functools.wraps(fn)
    def traced_job(payload):
        in_worker = os.getpid() != tracer.owner_pid
        if in_worker:
            tracer.reset()
        tracer.count("cli.job_payload_bytes", len(pickle.dumps(payload)))
        tracer.count("cli.jobs")
        index = tracer.open("cli.job")
        try:
            result = fn(payload)
        finally:
            tracer.close(index)
        if in_worker:
            path = os.path.join(spool, f"{os.getpid()}-{time.perf_counter_ns()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tracer.summarize(), fh)
            tracer.reset()
        return result

    return traced_job


class Installation:
    """The wrappers currently in place; `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object, bool]] = []
        self.absent: list[str] = []
        self.present: set[str] = set()

    def patch(self, owner, attr: str, replacement) -> None:
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        self.saved.append((owner, attr, original, own or not isinstance(owner, type)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, restore in reversed(self.saved):
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.saved.clear()


def install(tracer: Tracer, grid_spool: str | None = None) -> Installation:
    """Wrap every entry point; with `grid_spool`, also span each grid cell."""
    inst = Installation()
    entries = list(STREAM_ENTRIES) + list(GRID_ENTRIES) + _discover()
    for entry in entries:
        try:
            owner, attr, fn = _resolve(entry)
        except (ImportError, AttributeError):
            inst.absent.append(entry.layer)
            continue
        inst.patch(owner, attr, _wrap(tracer, entry, fn))
        inst.present.add(entry.layer)
    if grid_spool is not None:
        try:
            owner, attr, fn = _resolve(Entry("cli.job", "csdpp.cli", "_run_repeat"))
        except (ImportError, AttributeError):
            inst.absent.append("cli.job")
        else:
            inst.patch(owner, attr, _wrap_job(tracer, fn, grid_spool))
            inst.present.add("cli.job")
    inst.absent = sorted(set(inst.absent) - inst.present)
    return inst


def collect_spool(spool: str) -> dict:
    """Merge and delete the cell summaries that pool workers wrote."""
    total = empty_summary()
    for name in sorted(os.listdir(spool)):
        path = os.path.join(spool, name)
        with open(path, encoding="utf-8") as fh:
            merge(total, json.load(fh))
        os.unlink(path)
    return total
