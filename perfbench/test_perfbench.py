"""Checks on the benchmark itself: its generator, its workload shapes, its
tracing, and a tiny-scale smoke run of every workload.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gen, tracing
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


@pytest.fixture(scope="module")
def scheduler():
    from repro.serve import make_default_scheduler

    return make_default_scheduler()


def run(scheduler, program, backend):
    system = scheduler.systems[program.system]
    unit = system.compile_source(program.language, program.source)
    return system.run_compiled(unit.target_code, fuel=gen.FUEL, backend=backend)


# -- the generator -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_plans_are_byte_identical_for_a_seed(name):
    first, second = wl.make_plan(name, SEED), wl.make_plan(name, SEED)
    assert _digest(first) == _digest(second)
    assert _digest(first) != _digest(wl.make_plan(name, SEED + 1))


def _digest(plan):
    text = gen.render(plan.programs) + repr(plan.stream) + repr(plan.warm)
    return hashlib.sha256(text.encode()).hexdigest()


def test_generator_imports_nothing_from_the_program():
    tree = ast.parse((Path(gen.__file__)).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported), imported


def test_reference_of_a_program_that_does_not_compile_is_an_error(scheduler):
    broken = gen.Program("refs", "RefLL", "(+ 1 (lam (x int) x))", "loop")
    with pytest.raises(Exception):
        wl.reference_outcome(scheduler, broken)


def test_tail_is_the_highest_percentile_with_ten_batches_beyond():
    many = [float(k) for k in range(100)]
    assert wl.tail(many) == (89.0, 90.0, 100)
    assert wl.tail([float(k) for k in range(11)]) == (0.0, 100.0 / 11, 11)
    few = [3.0, 1.0, 2.0]
    assert wl.tail(few) == (3.0, 100.0, 3)


# -- workload shapes -----------------------------------------------------------------


def test_hot_programs_survive_the_optimizer(scheduler):
    for program in wl.make_plan("hot_serve", SEED).programs:
        compiled = run(scheduler, program, "cek-compiled")
        optimized = run(scheduler, program, "cek-opt")
        assert optimized.steps >= compiled.steps / 2, program.source


def _largest_programs():
    """The largest program of each run-heavy shape."""
    rng = random.Random(SEED)
    return [
        gen.loop_program(rng, max(gen.LOOP_ITERATIONS)),
        gen.cells_program(rng, max(gen.HOT_CELL_DEPTHS)),
        gen.cells_program(rng, max(gen.MIXED_CELL_DEPTHS)),
    ]


def test_every_program_stays_under_half_its_fuel_on_every_backend(scheduler):
    for program in _largest_programs():
        expected = wl.reference_outcome(scheduler, program)
        for backend in scheduler.systems[program.system].target.backend_names():
            result = run(scheduler, program, backend)
            assert result.failure is None, (backend, program.source)
            assert result.steps < gen.FUEL / 2, (backend, result.steps)
            assert ("value", str(result.value)) == expected, backend


# -- smoke runs -------------------------------------------------------------------------


def small_plan(name):
    """The workload's plan cut short, leaving 48 draws after the warm-up."""
    workload = wl.WORKLOADS[name]
    plan = wl.make_plan(name, SEED)
    plan.stream = plan.stream[: workload.warmup_batches * workload.batch_size + 48]
    return plan


def smoke(name, seconds=0.3, trace_dir=None, tracer=None):
    from repro.serve import make_default_scheduler

    workload = wl.WORKLOADS[name]
    plan = small_plan(name)
    checker = make_default_scheduler()
    references = {i: wl.reference_outcome(checker, plan.programs[i]) for i in plan.needed()}
    client = wl.make_client(workload, trace_dir, tracer)
    try:
        result = wl.run_timed(client, workload, plan, references, seconds, tracer)
    finally:
        client.close()
    assert result.attempted >= workload.batch_size
    assert result.wrong == 0 and result.shed == 0
    assert result.correct == result.attempted
    return result


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke(name):
    smoke(name)


def test_traced_in_process_spans_add_up_to_batch_wall_clock(tmp_path):
    tracer = tracing.Tracer("client")
    result = smoke("hot_serve", trace_dir=str(tmp_path), tracer=tracer)
    records = tracing.load_traces(str(tmp_path), [tracer])
    coverage = tracing.self_time_coverage(records)
    assert coverage and all(abs(ratio - 1.0) < 0.01 for ratio in coverage)
    # The layers, not the client's own root span, explain the batch time.
    own = tracing.self_times(tracer.spans)
    root = sum(t for span, t in zip(tracer.spans, own) if span[0] == "batch" and span[4] >= 0)
    assert root < 0.1 * sum(result.latencies)
    metrics = tracing.layer_metrics(records, result.correct)
    assert metrics["pipeline.hit_ratio"] == 1.0
    assert metrics["frontend.parse_ms"] == 0.0
    assert metrics["stacklang.steps"] > 0 and metrics["lcvm.steps"] > 0
    assert metrics["snapshot.calls"] == 0


@pytest.mark.parametrize("name", ["pool_mixed", "net_mixed"])
def test_traced_workers_report_spans_inside_their_batches(name, tmp_path):
    tracer = tracing.Tracer("client")
    result = smoke(name, seconds=0.5, trace_dir=str(tmp_path), tracer=tracer)
    records = tracing.load_traces(str(tmp_path), [tracer])
    assert len(records) >= 3  # the client plus two workers
    batches = {span[4]: span for span in tracer.spans if span[0] == "batch"}
    for record in records[1:]:
        for _name, start, end, parent, batch in record["spans"]:
            if parent < 0 and batch is not None and batch >= 0:
                assert batches[batch][1] <= start <= end <= batches[batch][2]
    metrics = tracing.layer_metrics(records, result.correct)
    assert metrics["snapshot.calls"] > 0 and metrics["snapshot.bytes"] > 0
    # The workers' first draws miss, so their frontends are measured too.
    assert metrics["pipeline.misses"] > 0
    assert metrics["frontend.parse_ms"] > 0 and metrics["analysis.analyze_ms"] > 0
    assert tracing.transport_ms(result.latencies, records, result.correct) > 0


# -- the contract ---------------------------------------------------------------------


def test_benchmark_json_names_what_run_reports():
    from perfbench import run as bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.E2E_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.LAYER_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == bench.E2E_UNITS[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == bench.LAYER_UNITS[metric["name"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot_serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
