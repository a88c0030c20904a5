"""Seeded program generator owned by the benchmark.

The shapes are borrowed from the repository's fuzzer and deep-crossing
workloads, but they are declared here and nothing from those modules is
imported: a later change to the fuzzer must not shift what the benchmark
measures.  Everything is a pure function of the seed; no ``repro`` import.

Sizes are stratified rather than drawn: the seed picks literals, links and
order, while the spread of program sizes is fixed.  Two seeds therefore
ask for nearly the same amount of work, which keeps run-to-run spread low.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

#: Fuel for every generated program.  Every program stays under half of it
#: on every backend (checked in ``test_perfbench.py``), so making fuel
#: accounting uniform across backends cannot flip an outcome.
FUEL = 100_000


@dataclass(frozen=True)
class Program:
    """One generated submission."""

    system: str
    language: str
    source: str
    #: ``"loop"`` (RefLL countdown) or ``"cells"`` (§5 L3 cells).
    shape: str


# -- run-heavy programs: loops and deep §5 crossings --------------------------

#: A RefLL countdown through a function cell (Landin's knot): every
#: iteration reads the cell, calls through it and crosses into RefHL and
#: back, so the work is machine steps and conversions that no constant
#: folding removes.  Holes: iterations, base, per-iteration increment.
_LOOP = (
    "((lam (r (ref (-> int int)))"
    " ((lam (u int) ((! r) {n}))"
    " (set! r (lam (x int) (if0 x {base}"
    " (+ (+ {inc} (boundary int (if (boundary bool x) false true)))"
    " ((! r) (+ x -1))))))))"
    " (ref (lam (x int) x)))"
)

#: §5 links: MiniML reads and writes L3-allocated cells.  Each allocates a
#: fresh L3 cell, so the heap traffic survives the optimizer.
_CELL_LINKS = (
    "(+ {0} (! (boundary (ref int) (new true))))",
    "(let (r (boundary (ref int) (new false))) (let (u (set! r (+ {k} {0}))) (! r)))",
)

#: Iteration counts and chain depths the run-heavy sets cycle through.  The
#: mixed (pool and network) population uses shorter chains: it is a dozen
#: times larger than the hot set, and a chain's reference run on the
#: substitution oracle grows with the square of its depth.
LOOP_ITERATIONS = tuple(range(24, 88, 4))
HOT_CELL_DEPTHS = tuple(range(10, 26))
MIXED_CELL_DEPTHS = tuple(range(6, 14))


def loop_program(rng: random.Random, iterations: int) -> Program:
    source = _LOOP.format(n=iterations, base=rng.randrange(100), inc=rng.randrange(1, 5))
    return Program("refs", "RefLL", source, "loop")


def cells_program(rng: random.Random, depth: int) -> Program:
    source = str(rng.randrange(100))
    for _ in range(depth):
        source = rng.choice(_CELL_LINKS).format(source, k=rng.randrange(1, 10))
    return Program("l3", "MiniML", source, "cells")


def run_heavy_programs(seed: int, count: int, tag: str, depths: Sequence[int]) -> List[Program]:
    """``count`` distinct run-heavy programs, two loops to every cell chain
    of a depth from ``depths``.  A program's shape and size depend on its
    index only; the seed picks its literals and links."""
    rng = random.Random(f"{tag}:{seed}")
    programs: List[Program] = []
    seen = set()
    index = 0
    while len(programs) < count:
        program = _run_heavy(rng, index, depths)
        while program.source in seen:
            program = _run_heavy(rng, index, depths)
        seen.add(program.source)
        programs.append(program)
        index += 1
    return programs


def _run_heavy(rng: random.Random, index: int, depths: Sequence[int]) -> Program:
    if index % 3 == 2:
        return cells_program(rng, depths[(index // 3) % len(depths)])
    return loop_program(rng, LOOP_ITERATIONS[index % len(LOOP_ITERATIONS)])


# -- request streams ----------------------------------------------------------


def zipf_stream(seed: int, population: int, length: int) -> List[int]:
    """``length`` indices into ``range(population)`` drawn Zipf(1).

    Index 0 is the hottest program.  Indices are not permuted: with
    :func:`run_heavy_programs` the hot head has the same mix of shapes and
    sizes for every seed, so the seed cannot make the traffic heavier.
    """
    rng = random.Random(f"zipf:{seed}")
    weights = [1.0 / (rank + 1) for rank in range(population)]
    return rng.choices(range(population), weights=weights, k=length)


def uniform_stream(seed: int, population: int, length: int) -> List[int]:
    """``length`` uniform draws over ``range(population)``."""
    rng = random.Random(f"uniform:{seed}")
    return [rng.randrange(population) for _ in range(length)]


def render(programs: Sequence[Program]) -> str:
    """The canonical text of a program list (determinism checks hash it)."""
    return "\n".join(f"{p.system}\t{p.language}\t{p.shape}\t{p.source}" for p in programs)
