"""Span tracing installed from outside the program.

Tracing never edits ``repro``: :func:`install` replaces the public calls of
each layer on one scheduler instance (its frontends' fields, its systems'
``start_compiled``, its driver's run methods, and the executions it starts)
with wrappers that open and close spans.  Spans live in memory as
``[name, start, end, parent, batch]`` lists and are written as JSON when the
process that recorded them ends.

Pool and network workers build their schedulers through
:func:`traced_scheduler_factory`, so the same wrappers run inside every
worker; each worker's spans are written to the trace directory when the
worker exits, and :func:`layer_metrics` joins them with the client's spans
by batch id (every request id is ``"<batch>:<position>"``).

Span names are the layer names of the per-layer metrics.  A span's *self*
time is its duration minus the time its child spans cover.  Spans named
``tracing`` hold the tracer's own extra work (measuring snapshot bytes) and
are charged to no layer.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: Tracers made by :func:`traced_scheduler_factory` in this process.  A pool
#: builds its parent-side routing scheduler through the same factory as its
#: workers, so the parent's tracers must be reachable for the final dump.
PROCESS_TRACERS: List["Tracer"] = []


def batch_of(requests: Sequence[Any]) -> Optional[int]:
    """The benchmark batch a request list belongs to (from its request ids)."""
    for request in requests:
        request_id = getattr(request, "request_id", None)
        if request_id:
            return int(request_id.split(":", 1)[0])
    return None


def layer_of_target(target_name: str) -> str:
    """``lcvm`` or ``stacklang``: the target machine a system compiles to."""
    return "stacklang" if target_name.lower().startswith("stacklang") else "lcvm"


class Tracer:
    """In-memory spans and counters for one process (or one scheduler)."""

    def __init__(self, where: str):
        self.where = where
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: The batch the next span belongs to; negative ids are warm-up.
        self.batch: Optional[int] = None
        #: ``cache_stats()`` of the traced scheduler before its first timed
        #: batch and at the end, so pipeline counters cover the timed phase.
        self.cache_start: Optional[dict] = None
        self.cache_end: Optional[dict] = None
        self._stack: List[int] = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.batch])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        if self.timed:
            self.counts[name] += amount

    @property
    def timed(self) -> bool:
        return self.batch is not None and self.batch >= 0

    # -- output ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "where": self.where,
            "spans": self.spans,
            "counts": dict(self.counts),
            "cache_start": self.cache_start,
            "cache_end": self.cache_end,
        }

    def dump(self, directory: str) -> None:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"{self.where}.json").write_text(json.dumps(self.to_dict()))


class TracedExecution:
    """A started execution whose slices, steps and snapshots are recorded."""

    __slots__ = ("_execution", "_tracer", "_step")

    def __init__(self, execution: Any, tracer: Tracer, layer: str):
        self._execution = execution
        self._tracer = tracer
        self._step = f"{layer}.step"

    def step_n(self, limit: int) -> Any:
        tracer = self._tracer
        index = tracer.begin(self._step)
        try:
            result = self._execution.step_n(limit)
        finally:
            tracer.end(index)
        tracer.count("driver.slices")
        if result is not None:
            tracer.count(f"{self._step}s", getattr(result, "steps", 0))
        return result

    def snapshot(self) -> dict:
        tracer = self._tracer
        index = tracer.begin("snapshot")
        try:
            snapshot = self._execution.snapshot()
            measure = tracer.begin("tracing")
            try:
                tracer.count("snapshot.bytes", len(pickle.dumps(snapshot)))
            finally:
                tracer.end(measure)
        finally:
            tracer.end(index)
        tracer.count("snapshot.calls")
        return snapshot

    def __getattr__(self, name: str) -> Any:
        return getattr(self._execution, name)


def install(scheduler: Any, tracer: Tracer) -> Any:
    """Wrap every traced layer of ``scheduler``; returns the scheduler."""

    def outside_scheduler(requests: Sequence[Any]) -> bool:
        """True (after tagging the batch) for a call the worker makes
        outside any scheduler span: such a call starts the work of the
        batch its requests belong to."""
        if any(tracer.spans[i][0] == "scheduler" for i in tracer._stack):
            return False
        tracer.batch = batch_of(requests)
        if tracer.timed and tracer.cache_start is None:
            tracer.cache_start = scheduler.cache_stats()
        return True

    def entry(function: Callable) -> Callable:
        def traced(requests, *args, **kwargs):
            nested = not outside_scheduler(requests)
            stream = kwargs.get("on_checkpoint")
            if stream is not None:
                # The pool's streaming callback pickles each checkpoint and
                # sends it upstream: part of the snapshot layer's cost.
                kwargs["on_checkpoint"] = tracer.wrap("snapshot", stream)
            index = tracer.begin("scheduler")
            try:
                return function(requests, *args, **kwargs)
            finally:
                tracer.end(index)
                if not nested and tracer.timed:
                    tracer.cache_end = scheduler.cache_stats()

        return traced

    for method in ("serve", "serve_batched", "serve_preempting"):
        setattr(scheduler, method, entry(getattr(scheduler, method)))
    route = tracer.wrap("scheduler.route", scheduler.route)

    def traced_route(request):
        outside_scheduler([request])
        return route(request)

    scheduler.route = traced_route
    driver = scheduler.driver
    for method in ("run_batch", "run_sequential", "run_checkpointed"):
        setattr(driver, method, tracer.wrap("driver", getattr(driver, method)))
    wrapped = set()
    for system in scheduler.systems.values():
        for frontend in (system.language_a, system.language_b):
            if id(frontend) in wrapped:
                continue
            wrapped.add(id(frontend))
            frontend.parse_expr = tracer.wrap("frontend.parse", frontend.parse_expr)
            frontend.typecheck = tracer.wrap("frontend.typecheck", frontend.typecheck)
            frontend.compile = tracer.wrap("frontend.compile", frontend.compile)
            if frontend.analyze is not None:
                frontend.analyze = tracer.wrap("analysis.analyze", frontend.analyze)
        layer = layer_of_target(system.target.name)
        system.start_compiled = _traced_start(tracer, layer, system.start_compiled)
    return scheduler


def _traced_start(tracer: Tracer, layer: str, start: Callable) -> Callable:
    name = f"{layer}.start"

    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            execution = start(*args, **kwargs)
        finally:
            tracer.end(index)
        return TracedExecution(execution, tracer, layer)

    return traced


def traced_scheduler_factory(trace_dir: str, slice_steps: int) -> Any:
    """A stock scheduler with tracing installed; bind ``trace_dir`` with
    :func:`functools.partial` to get a pool/network ``scheduler_factory``.

    The tracer writes its spans into ``trace_dir`` when the process ends
    (pool and network workers exit through :mod:`multiprocessing`, which
    runs registered finalizers but not :mod:`atexit` hooks).
    """
    from repro.serve import make_default_scheduler

    tracer = Tracer(f"scheduler-{os.getpid()}-{len(PROCESS_TRACERS)}")
    PROCESS_TRACERS.append(tracer)
    mp_util.Finalize(tracer, tracer.dump, args=(trace_dir,), exitpriority=10)
    return install(make_default_scheduler(slice_steps=slice_steps), tracer)


# -- aggregation ---------------------------------------------------------------

#: Span names whose self time is reported per request, by metric name.
TIMED_LAYERS = {
    "frontend.parse": "frontend.parse_ms",
    "frontend.typecheck": "frontend.typecheck_ms",
    "frontend.compile": "frontend.compile_ms",
    "analysis.analyze": "analysis.analyze_ms",
    "scheduler.route": "scheduler.route_ms",
    "scheduler": "scheduler.self_ms",
    "lcvm.start": "lcvm.start_ms",
    "lcvm.step": "lcvm.step_ms",
    "stacklang.start": "stacklang.start_ms",
    "stacklang.step": "stacklang.step_ms",
    "driver": "driver.self_ms",
    "snapshot": "snapshot.ms",
}


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _batch in spans]
    for _name, start, end, parent, _batch in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def load_traces(directory: str, in_process: Iterable[Tracer] = ()) -> List[dict]:
    """Every tracer's record: the ones written to ``directory`` plus the
    live ones of this process."""
    records = [tracer.to_dict() for tracer in in_process]
    for path in sorted(Path(directory).glob("*.json")):
        records.append(json.loads(path.read_text()))
    return records


def _pipeline_delta(records: Sequence[dict]) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for record in records:
        start, end = record.get("cache_start"), record.get("cache_end")
        if start is None or end is None:
            continue
        for system, entries in end.items():
            for name, stats in entries.items():
                if "capacity" not in stats:
                    continue  # the convertibility memo, not a pipeline cache
                before = start.get(system, {}).get(name, {})
                for key in totals:
                    totals[key] += stats.get(key, 0) - before.get(key, 0)
    return totals


def top_level_by_batch(records: Sequence[dict]) -> Dict[int, Dict[str, float]]:
    """Per timed batch, per process: seconds spent in top-level ``scheduler``
    spans."""
    busy: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for record in records:
        spans = record["spans"]
        for span in spans:
            span_name, start, end, parent, batch = span
            if span_name != "scheduler" or batch is None or batch < 0:
                continue
            if parent >= 0 and spans[parent][0] == "scheduler":
                continue
            busy[batch][record["where"]] += end - start
    return busy


def layer_metrics(records: Sequence[dict], requests: int) -> Dict[str, float]:
    """The timing and count metrics every workload reports.

    ``*_ms`` metrics are milliseconds of self time per request served in
    the timed phase; machine steps, slices and snapshots are per request
    too.  Pipeline-cache counters are totals over the timed phase.
    """
    per_request = 1000.0 / max(1, requests)
    metrics: Dict[str, float] = {metric: 0.0 for metric in TIMED_LAYERS.values()}
    counts: Dict[str, int] = defaultdict(int)
    step_seconds = {"lcvm": 0.0, "stacklang": 0.0}
    for record in records:
        spans = record["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, _start, _end, _parent, batch = span
            if batch is None or batch < 0 or name not in TIMED_LAYERS:
                continue
            metrics[TIMED_LAYERS[name]] += own * per_request
            if name.endswith(".step"):
                step_seconds[name.split(".")[0]] += own
        for name, amount in record["counts"].items():
            counts[name] += amount
    served = max(1, requests)
    for layer in ("lcvm", "stacklang"):
        steps = counts.get(f"{layer}.steps", 0)
        metrics[f"{layer}.steps"] = steps / served
        metrics[f"{layer}.steps_per_s"] = steps / step_seconds[layer] if step_seconds[layer] else 0.0
    for name in ("driver.slices", "snapshot.calls", "snapshot.bytes"):
        metrics[name] = counts.get(name, 0) / served
    pipeline = _pipeline_delta(records)
    metrics["pipeline.hits"] = pipeline["hits"]
    metrics["pipeline.misses"] = pipeline["misses"]
    metrics["pipeline.evictions"] = pipeline["evictions"]
    lookups = pipeline["hits"] + pipeline["misses"]
    metrics["pipeline.hit_ratio"] = pipeline["hits"] / lookups if lookups else 0.0
    return metrics


def transport_ms(latencies: Sequence[float], records: Sequence[dict], requests: int) -> float:
    """Client batch time not covered by the busiest worker, ms per request.

    For each timed batch: its wall time at the client minus the largest
    per-process total of top-level scheduler spans for that batch.  What is
    left is placement, the artifact store, pickling and pipe or socket
    transfer.
    """
    busy = top_level_by_batch(records)
    total = 0.0
    for batch, wall in enumerate(latencies):
        workers = busy.get(batch, {})
        total += wall - (max(workers.values()) if workers else 0.0)
    return total * 1000.0 / max(1, requests)


def self_time_coverage(records: Sequence[dict]) -> List[float]:
    """Per timed batch whose root ``batch`` span is in the same record: the
    sum of all self times in the batch divided by the root's duration.
    Spans that nest properly, with nothing counted twice, give exactly 1."""
    ratios = []
    for record in records:
        spans = record["spans"]
        sums: Dict[int, float] = defaultdict(float)
        walls: Dict[int, float] = {}
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, batch = span
            if batch is None or batch < 0:
                continue
            sums[batch] += own
            if name == "batch" and parent < 0:
                walls[batch] = end - start
        ratios.extend(sums[batch] / wall for batch, wall in walls.items() if wall > 0)
    return ratios
