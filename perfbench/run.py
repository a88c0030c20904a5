"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run has three kinds of process:

1. reference helpers: each rebuilds the workload's programs from the seed
   and computes the reference outcome of its share of them on the
   ``substitution`` oracle; all have exited before anything is timed;
2. set-up probes: fresh processes that import ``repro.serve`` and build the
   serving stack (scheduler, pool or fleet), timed from spawn until they
   report ready.  ``setup_s`` is the median over the probes and the
   measured process;
3. the measured process: a fresh process that sets up the same way, then
   runs the closed loop for ``--seconds`` and reports.

With ``--trace 1`` the measured process runs twice, untraced and then with
span tracing installed, and the result holds the per-layer metrics plus the
tracing overhead.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import workloads as wl  # noqa: E402

#: Set-up is measured this many times per run (probes plus the measured
#: process) and reported as the median.
SETUP_SAMPLES = 3
#: Helper processes computing reference outcomes (one per core).
REFERENCE_PROCESSES = 2
#: Where traced runs write their spans (one directory per workload).
TRACE_ROOT = ROOT / ".perfbench"
READY = "perfbench-ready"

E2E_UNITS = {
    "throughput_rps": "1/s",
    "batch_p50_ms": "ms",
    "batch_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "frontend.parse_ms": "ms/req",
    "frontend.typecheck_ms": "ms/req",
    "frontend.compile_ms": "ms/req",
    "analysis.analyze_ms": "ms/req",
    "pipeline.hits": "count",
    "pipeline.misses": "count",
    "pipeline.evictions": "count",
    "pipeline.hit_ratio": "ratio",
    "scheduler.route_ms": "ms/req",
    "scheduler.self_ms": "ms/req",
    "lcvm.start_ms": "ms/req",
    "lcvm.step_ms": "ms/req",
    "lcvm.steps": "count/req",
    "lcvm.steps_per_s": "1/s",
    "stacklang.start_ms": "ms/req",
    "stacklang.step_ms": "ms/req",
    "stacklang.steps": "count/req",
    "stacklang.steps_per_s": "1/s",
    "driver.self_ms": "ms/req",
    "driver.slices": "count/req",
    "snapshot.calls": "count/req",
    "snapshot.ms": "ms/req",
    "snapshot.bytes": "B/req",
    "pool.transport_ms": "ms/req",
    "pool.publishes": "count",
    "pool.cross_worker_hits": "count",
    "pool.coalesce_ratio": "ratio",
    "pool.shard_imbalance": "ratio",
    "net.transport_ms": "ms/req",
    "net.publishes": "count",
    "net.store_hits": "count",
    "net.endpoint_imbalance": "ratio",
    "tracing.overhead_pct": "%",
}


# -- the measured process ----------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Set up, say ready, then (unless probing) run and print one JSON line."""
    workload = wl.WORKLOADS[args.workload]
    trace_dir = None
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        trace_dir = str(TRACE_ROOT / f"trace-{workload.name}")
        tracer = Tracer("client")
    client = wl.make_client(workload, trace_dir, tracer)
    try:
        print(READY, flush=True)
        if args.setup_only:
            return 0
        references = {int(k): tuple(v) for k, v in json.loads(sys.stdin.readline()).items()}
        plan = wl.make_plan(workload.name, args.seed)
        run = wl.run_timed(client, workload, plan, references, args.seconds, tracer)
    finally:
        client.close()
    report = summarize(run)
    report["peak_rss_mb"] = wl.peak_rss_mb()
    if tracer is not None:
        report["layers"] = layer_report(workload, run, trace_dir, tracer)
    print(json.dumps(report), flush=True)
    return 0


def summarize(run: wl.RunResult) -> dict:
    value, percentile, samples = wl.tail(run.latencies)
    return {
        "attempted": run.attempted,
        "correct": run.correct,
        "wrong": run.wrong,
        "shed": run.shed,
        "throughput_rps": run.correct / run.seconds,
        "batch_p50_ms": statistics.median(run.latencies) * 1000.0,
        "batch_tail_ms": value * 1000.0,
        "tail_percentile": percentile,
        "batches": samples,
    }


def layer_report(workload: wl.Workload, run: wl.RunResult, trace_dir: str, tracer) -> dict:
    from perfbench import tracing

    records = tracing.load_traces(trace_dir, [tracer, *tracing.PROCESS_TRACERS])
    served = run.correct + run.wrong
    metrics = tracing.layer_metrics(records, served)
    for name in LAYER_UNITS:
        metrics.setdefault(name, 0.0)
    counters = run.counters
    if workload.serving == "pool":
        metrics["pool.transport_ms"] = tracing.transport_ms(run.latencies, records, served)
        metrics["pool.publishes"] = counters.get("publishes", 0)
        metrics["pool.cross_worker_hits"] = counters.get("cross_worker_hits", 0)
        metrics["pool.coalesce_ratio"] = run.coalesced_away / max(1, served)
        metrics["pool.shard_imbalance"] = wl.imbalance(run.shard_loads)
    if workload.serving == "net":
        metrics["net.transport_ms"] = tracing.transport_ms(run.latencies, records, served)
        metrics["net.publishes"] = counters.get("publishes", 0)
        metrics["net.store_hits"] = counters.get("hits", 0)
        metrics["net.endpoint_imbalance"] = wl.imbalance(run.shard_loads)
    coverage = tracing.self_time_coverage(records)
    metrics["self_time_coverage"] = statistics.median(coverage) if coverage else 0.0
    return metrics


def references_main(args: argparse.Namespace) -> int:
    """Print the reference outcomes of one share of the needed programs."""
    from repro.serve import make_default_scheduler

    scheduler = make_default_scheduler()
    plan = wl.make_plan(args.workload, args.seed)
    share = plan.needed()[args.references::REFERENCE_PROCESSES]
    print(json.dumps({i: wl.reference_outcome(scheduler, plan.programs[i]) for i in share}))
    return 0


# -- the orchestrating process ------------------------------------------------------


def compute_references(args: argparse.Namespace) -> dict:
    """Every needed program's reference outcome, computed by helper
    processes that have exited before anything is timed."""
    helpers = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--references", str(share)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        for share in range(REFERENCE_PROCESSES)
    ]
    references = {}
    try:
        for helper in helpers:
            output, _ = helper.communicate(timeout=150)
            if helper.returncode != 0:
                raise RuntimeError(f"{args.workload}: reference process exited {helper.returncode}")
            references.update({int(k): tuple(v) for k, v in json.loads(output).items()})
    finally:
        for helper in helpers:
            if helper.poll() is None:
                helper.kill()
            helper.wait()
    return references



def spawn(args: argparse.Namespace, trace: int, setup_only: bool) -> "tuple[subprocess.Popen, float]":
    """Start a measured or probe process; returns it and its set-up time."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    line = process.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != READY:
        process.kill()
        process.wait()
        raise RuntimeError(f"{args.workload}: measured process failed during set-up")
    return process, ready


def measure(args: argparse.Namespace, references: dict, trace: int) -> "tuple[dict, float]":
    """One measured process: its report and its own set-up time."""
    process, ready = spawn(args, trace, setup_only=False)
    try:
        output, _ = process.communicate(
            json.dumps({str(k): list(v) for k, v in references.items()}) + "\n",
            timeout=args.seconds + 150,
        )
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{args.workload}: measured process exited {process.returncode}")
    return json.loads(output.strip().splitlines()[-1]), ready


def probe_setup(args: argparse.Namespace) -> float:
    process, ready = spawn(args, 0, setup_only=True)
    process.communicate(timeout=120)
    if process.returncode != 0:
        raise RuntimeError(f"{args.workload}: set-up probe exited {process.returncode}")
    return ready


def run_workload(args: argparse.Namespace) -> dict:
    started = time.perf_counter()
    references = compute_references(args)
    print(f"{args.workload}: {len(references)} reference outcomes in {time.perf_counter() - started:.1f} s")
    if args.trace:
        trace_dir = TRACE_ROOT / f"trace-{args.workload}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        untraced, _ = measure(args, references, 0)
        report, _ = measure(args, references, 1)
        for key in ("attempted", "wrong", "shed"):
            report[key] += untraced[key]
        layers = report["layers"]
        layers["tracing.overhead_pct"] = 100.0 * (
            1.0 - report["throughput_rps"] / untraced["throughput_rps"]
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        print(
            f"{args.workload} traced: {report['throughput_rps']:.1f} req/s vs "
            f"{untraced['throughput_rps']:.1f} untraced "
            f"(overhead {layers['tracing.overhead_pct']:.1f}%), "
            f"span self-time coverage {layers['self_time_coverage']:.3f}"
        )
    else:
        setups = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        report, ready = measure(args, references, 0)
        setups.append(ready)
        report["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        print(
            f"{args.workload}: " + ", ".join(
                f"{name}={report[name]:.4g} {unit}" for name, unit in E2E_UNITS.items()
            ) + f"; batch_tail_ms is p{report['tail_percentile']:.1f} of {report['batches']} batches"
            f"; error_rate={(report['wrong'] + report['shed']) / report['attempted']:.4g}"
            f" ({report['wrong']} wrong, {report['shed']} shed, {report['attempted']} attempted)"
        )
    failed = report["wrong"] + report["shed"]
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--references", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.references is not None:
        return references_main(args)
    if args.workload == "all":
        results = {}
        for name in wl.WORKLOADS:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print(json.dumps(results))
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
