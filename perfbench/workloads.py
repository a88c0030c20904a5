"""The three workloads: what each sends, how it is served, and how a run is
measured.

Every workload is a closed loop with one client: it submits a batch, waits
for every response, checks each against its reference outcome, then
submits the next batch.  Sizes suit a two-core machine: at most two worker
processes, and the client blocks while they run.

* ``hot_serve`` — in-process ``Scheduler.serve`` over 48 run-heavy programs
  (RefLL countdown loops and §5 L3 cell chains), warmed before timing.
  Every pipeline call hits, so machine steps and driver slicing dominate.
* ``pool_mixed`` — ``WorkerPool(workers=2)`` at its defaults (checkpoint
  streaming every slice, coalescing on).  Batches are Zipf draws over 600
  run-heavy programs, so batches see hits, misses, publishes and
  coalesced duplicates.
* ``net_mixed`` — the same draws through ``NetClient`` → ``NetRouter`` →
  two ``NetWorker`` processes on loopback TCP.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import gen

HOT_POPULATION = 48
#: More programs than one worker's 256-entry pipeline cache.  Placement
#: splits them over two shards and two frontends, so within a run the Zipf
#: tail keeps missing and publishing without filling a cache.
MIXED_POPULATION = 600
#: Requests drawn ahead for a run; a run that serves more wraps around.
#: The hot set is warm from the start, so wrapping changes nothing there.
STREAM_LENGTH = 6000
#: The two-worker tiers serve a few hundred requests per second, so a
#: 30-second run stays within the mixed draws: misses and publishes keep
#: coming until the end instead of stopping at a wrap.
MIXED_STREAM_LENGTH = 16000
#: Worker processes of the pool and network fleet, one per core of a
#: two-core machine.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """How a workload is served; why each was chosen is in BENCHMARK.json."""

    name: str
    serving: str  # "inprocess" | "pool" | "net"
    batch_size: int
    warmup_batches: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Batches are sized so that a 30-second run has a few hundred: the
        # highest percentile with ten batches beyond it is then about the
        # 96th, set by the programs in a batch rather than by the few
        # batches that met a collector pause or a stall of the machine.
        Workload("hot_serve", "inprocess", batch_size=128, warmup_batches=0),
        Workload("pool_mixed", "pool", batch_size=32, warmup_batches=4),
        Workload("net_mixed", "net", batch_size=32, warmup_batches=4),
    )
}


@dataclass
class Plan:
    """A workload's inputs for one seed: programs and the request stream."""

    programs: List[gen.Program]
    #: Indices into ``programs``, consumed ``batch_size`` at a time.
    stream: List[int]
    #: Programs pushed through the in-process pipeline and served once
    #: before timing (the hot set).
    warm: List[int]

    def needed(self) -> List[int]:
        """The program indices a run can touch (they need references)."""
        return sorted(set(self.stream) | set(self.warm))


def make_plan(name: str, seed: int) -> Plan:
    if name == "hot_serve":
        programs = gen.run_heavy_programs(seed, HOT_POPULATION, "hot", gen.HOT_CELL_DEPTHS)
        stream = gen.uniform_stream(seed, len(programs), STREAM_LENGTH)
        return Plan(programs, stream, list(range(len(programs))))
    if name in ("pool_mixed", "net_mixed"):
        programs = gen.run_heavy_programs(seed, MIXED_POPULATION, "mixed", gen.MIXED_CELL_DEPTHS)
        stream = gen.zipf_stream(seed, len(programs), MIXED_STREAM_LENGTH)
        return Plan(programs, stream, [])
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


# -- reference outcomes ---------------------------------------------------------

Outcome = Tuple[str, str]


def reference_outcome(scheduler: Any, program: gen.Program) -> Outcome:
    """``program``'s expected outcome.

    Every generated program must compile (an error propagates and fails the
    run) and is expected to give the value or failure kind of the
    ``substitution`` oracle.  Machine step counts are not compared; they
    differ by backend.
    """
    system = scheduler.systems[program.system]
    unit = system.compile_source(program.language, program.source)
    result = system.run_compiled(unit.target_code, fuel=gen.FUEL, backend="substitution")
    if result.failure is not None:
        return ("failure", str(result.failure))
    return ("value", str(result.value))


def response_outcome(response: Any) -> Outcome:
    if response.rejected_overload or response.deadline_exceeded:
        return ("shed", "")
    if response.error is not None:
        return ("error", response.error.split(":", 1)[0])
    if response.result is None:
        return ("missing", "")
    if response.result.failure is not None:
        return ("failure", str(response.result.failure))
    return ("value", str(response.result.value))


# -- serving clients -------------------------------------------------------------


class InProcessClient:
    def __init__(self, tracer=None):
        from repro.serve import make_default_scheduler

        self.scheduler = make_default_scheduler()
        if tracer is not None:
            from perfbench.tracing import install

            install(self.scheduler, tracer)

    def warm(self, requests) -> None:
        self.scheduler.warm_cache(requests)
        self.scheduler.serve(requests)

    def submit(self, requests):
        return self.scheduler.serve(requests)

    def counters(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        pass


class PoolClient:
    def __init__(self, scheduler_factory):
        from repro.serve import Request, WorkerPool

        self.pool = WorkerPool(workers=WORKERS, scheduler_factory=scheduler_factory)
        # Workers spawn lazily; one trivial request per shard starts both and
        # waits for their schedulers, so set-up ends with a ready pool.
        pings: Dict[int, Request] = {}
        key = 0
        while len(pings) < self.pool.workers:
            ping = Request("RefLL", "1", affinity=f"ping-{key}", request_id="-1:0")
            pings.setdefault(self.pool.shard_of(ping), ping)
            key += 1
        for response in self.pool.run_batch(list(pings.values())):
            if not response.ok:
                raise RuntimeError(f"pool ping failed: {response}")

    def submit(self, requests):
        return self.pool.run_batch(requests)

    def counters(self) -> Dict[str, int]:
        return self.pool.cache_stats()

    def close(self) -> None:
        self.pool.close()


def net_worker_main(endpoint_id: int, connection, scheduler_factory) -> None:
    """One network worker process: serve until the parent says stop."""
    from repro.serve import NetWorker

    worker = NetWorker(endpoint_id=endpoint_id, scheduler_factory=scheduler_factory)
    connection.send(worker.start())
    try:
        connection.recv()
    except EOFError:
        pass
    worker.stop()


class NetFleetClient:
    def __init__(self, scheduler_factory):
        import multiprocessing

        from repro.serve import NetClient, NetRouter

        context = multiprocessing.get_context("spawn")
        self.processes = []
        self.pipes = []
        self.router = None
        self.client = None
        try:
            addresses = []
            for endpoint_id in range(WORKERS):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=net_worker_main,
                    args=(endpoint_id, child_end, scheduler_factory),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self.processes.append(process)
                self.pipes.append(parent_end)
            for pipe in self.pipes:
                addresses.append(pipe.recv())
            self.router = NetRouter()
            self.router.start()
            for address in addresses:
                self.router.add_worker(address)
            self.client = NetClient(*self.router.address)
        except BaseException:
            self.close()
            raise

    def submit(self, requests):
        return self.client.run_batch(requests)

    def counters(self) -> Dict[str, int]:
        return self.router.cache_stats()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.router is not None:
            self.router.stop()
            self.router = None
        for pipe in self.pipes:
            try:
                pipe.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for process in self.processes:
            process.join(timeout=15)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for pipe in self.pipes:
            pipe.close()
        self.processes, self.pipes = [], []


def make_client(workload: Workload, trace_dir: Optional[str] = None, tracer=None):
    """Set up the serving stack a workload measures (the ``setup_s`` span).

    Traced pool and network workers build their schedulers through
    :func:`perfbench.tracing.traced_scheduler_factory`.
    """
    if workload.serving == "inprocess":
        return InProcessClient(tracer)
    from repro.serve import default_scheduler_factory

    factory = default_scheduler_factory
    if trace_dir is not None:
        from perfbench.tracing import traced_scheduler_factory

        factory = partial(traced_scheduler_factory, trace_dir)
    if workload.serving == "pool":
        return PoolClient(factory)
    return NetFleetClient(factory)


# -- one measured run -------------------------------------------------------------


def to_requests(programs: Sequence[gen.Program], indices: Sequence[int], batch: int) -> list:
    from repro.serve import Request

    return [
        Request(
            language=programs[i].language,
            source=programs[i].source,
            system=programs[i].system,
            fuel=gen.FUEL,
            request_id=f"{batch}:{position}",
        )
        for position, i in enumerate(indices)
    ]


@dataclass
class RunResult:
    #: Per timed batch, in order: submit until the last response is back.
    latencies: List[float]
    #: Wall time of the timed phase, until the last batch is checked.
    seconds: float
    attempted: int
    correct: int
    wrong: int
    shed: int
    #: Requests per shard (or network endpoint), per batch.
    shard_loads: List[Dict[int, int]]
    coalesced_away: int
    #: Change of the client's pool or router counters over the timed phase.
    counters: Dict[str, int]


def run_timed(
    client: Any,
    workload: Workload,
    plan: Plan,
    references: Dict[int, Outcome],
    seconds: float,
    tracer=None,
) -> RunResult:
    """Warm up, then run batches back to back until ``seconds`` have passed."""
    programs, stream = plan.programs, plan.stream
    size = workload.batch_size
    if plan.warm:
        client.warm(to_requests(programs, plan.warm, -1))
    cursor = 0

    def next_indices() -> List[int]:
        nonlocal cursor
        indices = [stream[(cursor + k) % len(stream)] for k in range(size)]
        cursor += size
        return indices

    for warmup in range(workload.warmup_batches):
        client.submit(to_requests(programs, next_indices(), -2 - warmup))

    latencies: List[float] = []
    shard_loads: List[Dict[int, int]] = []
    attempted = correct = wrong = shed = 0
    coalesced_away = 0.0
    counters_before = client.counters()
    start = time.perf_counter()
    batch = 0
    while True:
        indices = next_indices()
        requests = to_requests(programs, indices, batch)
        if tracer is not None:
            tracer.batch = batch
            span = tracer.begin("batch")
        submitted = time.perf_counter()
        responses = client.submit(requests)
        done = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
        latencies.append(done - submitted)
        good = 0
        loads: Dict[int, int] = {}
        for index, response in zip(indices, responses):
            outcome = response_outcome(response)
            if outcome[0] == "shed":
                shed += 1
            elif outcome == references[index]:
                good += 1
            else:
                wrong += 1
            if response.shard is not None:
                loads[response.shard] = loads.get(response.shard, 0) + 1
            coalesced_away += 1 - 1 / max(1, response.coalesced)
        wrong += len(requests) - len(responses)  # a missing response is wrong
        attempted += len(requests)
        correct += good
        shard_loads.append(loads)
        batch += 1
        if done - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    counters = {
        key: value - counters_before.get(key, 0)
        for key, value in client.counters().items()
        if isinstance(value, int)
    }
    return RunResult(
        latencies, elapsed, attempted, correct, wrong, shed, shard_loads,
        round(coalesced_away), counters,
    )


def tail(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile with at least
    ten batches beyond it (the maximum when there are ten batches or
    fewer)."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - 11 if count > 10 else count - 1
    return ordered[rank], 100.0 * (rank + 1) / count, count


def imbalance(shard_loads: Sequence[Dict[int, int]]) -> float:
    """Mean over batches of (busiest shard's requests / mean per shard)."""
    ratios = []
    for loads in shard_loads:
        total = sum(loads.values())
        if total:
            ratios.append(max(loads.values()) / (total / WORKERS))
    return sum(ratios) / len(ratios) if ratios else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
