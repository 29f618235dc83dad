"""Workload ``sketch_batch``: the paper's Fig 5 as a library user runs it.

Each of the five paper sketches ingests 2,000,000 Pareto(1,1) values
by ``update_batch`` in 65,536-value chunks, answers
``quantiles(PAPER_QUANTILES)``, folds 32 chunk sketches with ``merge``
and round-trips through ``dumps``/``loads``.  ``core`` is all of the
work, so batch kernels for KLL/REQ show here and nothing else can hide.
The stream length is part of the workload's meaning: KLL ingests three
times faster at 3e5 values than at 4e6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core import dumps, loads, paper_config
from repro.data import Pareto
from repro.metrics import PAPER_QUANTILES

from calib import Phase
from common import (
    FiveSketchResult,
    check_errors,
    emit_harness,
    relative_errors,
)
from spec import SKETCH_BATCH, SKETCHES, WORKLOADS

PARAMS = WORKLOADS[SKETCH_BATCH][1]
STREAM = int(PARAMS["stream_values"])
CHUNK = int(PARAMS["chunk_values"])
PARTS = int(PARAMS["merge_parts"])
PART_VALUES = int(PARAMS["merge_part_values"])
#: Chunks per timed block, sized so a block lasts 30–150 ms: KLL and
#: REQ ingest ~1.5 M values/s; the other three take a whole stream per
#: block (<0.1 s).
BLOCK_CHUNKS = {"kll": 2, "req": 2}
#: Queries (and codec round trips) of every sketch per timed block.
QUERIES_PER_BLOCK = 6


def build(name: str) -> Any:
    return paper_config(name, dataset="pareto")


@dataclass
class Inputs:
    values: np.ndarray
    reference: np.ndarray
    part_values: list[np.ndarray]
    part_references: list[np.ndarray]
    fold_reference: np.ndarray


class Result(FiveSketchResult):
    def __init__(self, ctx: Any, tracer: Any) -> None:
        super().__init__(ctx, tracer)
        self.merge = Phase(ctx.cal, "merge", tracer)
        self.codec = Phase(ctx.cal, "codec", tracer)
        #: the 2M-value sketch alone: the paper's Fig 6 and Table 3 cells
        self.full_errors: dict[str, float] = {}
        self.full_sizes: dict[str, int] = {}


def run(ctx: Any) -> None:
    # two full-size chunks: the allocator stops mapping fresh pages for
    # chunk-sized temporaries only after it has freed a few
    warm = np.linspace(1.0, 50.0, CHUNK)
    for name in SKETCHES:
        sketch = build(name)
        sketch.update_batch(warm)
        sketch.update_batch(warm)
        sketch.quantiles(PAPER_QUANTILES)
        build(name).merge(sketch)
        loads(dumps(sketch))
    ctx.ready()

    with ctx.untimed("harness.input_generation"):
        inputs = _generate(ctx.seed)

    if ctx.mode == "e2e":
        _measure(ctx, inputs, 1.0, traced=False).emit_end_to_end(ctx)
        return

    plain = _measure(ctx, inputs, 1 / 3, traced=False)
    traced = _measure(ctx, inputs, 1 / 3, traced=True)
    for name in SKETCHES:
        ctx.emit(f"core.{name}.update_batch_values_per_s",
                 plain.ingest[name].rate(), len(plain.ingest[name].blocks))
        ctx.emit(f"core.{name}.quantiles_us",
                 plain.query.op_p50_us(name),
                 plain.query.op_count(name))
        ctx.emit(f"core.{name}.merge_us",
                 plain.merge.op_p50_us(name),
                 plain.merge.op_count(name))
        ctx.emit(f"core.{name}.dumps_loads_us",
                 plain.codec.op_p50_us(name),
                 plain.codec.op_count(name))
        ctx.emit(f"core.{name}.size_bytes", traced.full_sizes[name])
        ctx.emit(f"core.{name}.rel_error", traced.full_errors[name])
    emit_harness(ctx, plain.ingest_rate(), traced.ingest_rate(),
                 plain.raw_ingest_rate())


def _generate(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    values = Pareto(1.0, 1.0).sample(STREAM, rng)
    parts = [
        values[index * PART_VALUES:(index + 1) * PART_VALUES]
        for index in range(PARTS)
    ]
    return Inputs(
        values=values,
        reference=np.sort(values),
        part_values=parts,
        part_references=[np.sort(part) for part in parts],
        fold_reference=np.sort(values[:PARTS * PART_VALUES]),
    )


def _measure(ctx: Any, inputs: Inputs, share: float, traced: bool) -> Result:
    tracer = ctx.tracer if traced else None
    chunks = [
        inputs.values[start:start + CHUNK]
        for start in range(0, STREAM, CHUNK)
    ]

    def timed(name: str, fn: Any, *args: Any) -> float:
        if tracer is None:
            start = time.perf_counter()
            fn(*args)
            return time.perf_counter() - start
        span = tracer.begin(name)
        fn(*args)
        return tracer.end(span)

    result = Result(ctx, tracer)
    instance_errors: dict[str, list[list[float]]] = {}
    parts: dict[str, list[Any]] = {}
    with ctx.untimed("harness.reference"):
        for name in SKETCHES:
            parts[name] = []
            for values in inputs.part_values:
                part = build(name)
                part.update_batch(values)
                parts[name].append(part)
            instance_errors[name] = [
                relative_errors(part.quantiles(PAPER_QUANTILES),
                                reference, PAPER_QUANTILES)
                for part, reference in zip(
                    parts[name], inputs.part_references)
            ]
            result.state_bytes += sum(
                part.size_bytes() for part in parts[name])

    # -- ingest: the full stream into a fresh sketch per pass -----------
    filled: dict[str, Any] = {}
    cursors: dict[str, tuple[Any, int]] = {}

    def step(name: str) -> None:
        """The next block of *name*'s current pass over the stream."""
        sketch, first = cursors.get(name, (None, 0))
        if sketch is None:
            sketch = build(name)
        per_block = BLOCK_CHUNKS.get(name, len(chunks))
        group = chunks[first:first + per_block]
        work = sum(chunk.size for chunk in group)
        with result.ingest[name].block(work=work):
            for chunk in group:
                timed(f"core.{name}.update_batch", sketch.update_batch, chunk)
        ctx.ops(len(group))
        if first + per_block < len(chunks):
            cursors[name] = (sketch, first + per_block)
            return
        cursors[name] = (None, 0)
        ctx.check(sketch.count == STREAM,
                  f"{name}: count {sketch.count} != {STREAM}")
        if name not in filled:
            filled[name] = sketch
            with ctx.untimed("harness.reference"):
                full = relative_errors(sketch.quantiles(PAPER_QUANTILES),
                                       inputs.reference, PAPER_QUANTILES)
            instance_errors[name].append(full)
            result.full_errors[name] = float(np.mean(full))
            result.full_sizes[name] = sketch.size_bytes()
            result.state_bytes += sketch.size_bytes()

    # -- reads, on the sketches the first pass filled --------------------
    reps = ctx.reps(int(PARAMS["query_reps"]), 3, share)
    fresh = iter(inputs.values[:reps * len(SKETCHES)].tolist())
    folds = ctx.reps(int(PARAMS["merge_folds"]), 2, share)
    folded: dict[str, Any] = {}
    left = {"reps": reps, "folds": folds}

    def read() -> None:
        """One block each of: quantiles() after an update, so nothing is
        cached; dumps/loads (a layer metric: it feeds recovery on
        tcp_mixed); a 32-way merge fold of the chunk sketches (Fig 5c)."""
        count = min(QUERIES_PER_BLOCK, left["reps"])
        left["reps"] -= count
        if count:
            with result.query.block() as blk:
                for _rep in range(count):
                    for name in SKETCHES:
                        filled[name].update(next(fresh))
                        blk.op(name, timed(f"core.{name}.quantiles",
                                           filled[name].quantiles,
                                           PAPER_QUANTILES))
            with result.codec.block() as blk:
                for _rep in range(count):
                    for name in SKETCHES:
                        start = time.perf_counter()
                        clone = loads(dumps(filled[name]))
                        blk.op(name, time.perf_counter() - start)
                        ctx.check(clone.count == filled[name].count,
                                  f"{name}: loads(dumps()) lost values")
            ctx.ops(len(SKETCHES) * count)
        if left["folds"]:
            left["folds"] -= 1
            with result.merge.block() as blk:
                for name in SKETCHES:
                    target = build(name)
                    for part in parts[name]:
                        blk.op(name, timed(f"core.{name}.merge",
                                           target.merge, part))
                    folded.setdefault(name, target)
            ctx.ops(len(SKETCHES) * PARTS)

    # The five sketches take turns block by block, and once each has a
    # filled sketch a read block follows every turn: a slow spell of the
    # host lands on a few blocks of every kind, and no median moves.
    slow_blocks = -(-len(chunks) // max(BLOCK_CHUNKS.values()))
    fast_every = slow_blocks // int(PARAMS["fast_passes_per_round"])
    rounds = ctx.reps(int(PARAMS["rounds"]), 1, share)
    for index in range(rounds * slow_blocks):
        for name in SKETCHES:
            if name in BLOCK_CHUNKS or index % fast_every == 0:
                step(name)
        if len(filled) == len(SKETCHES):
            read()
    while left["reps"] or left["folds"]:
        read()

    # -- accuracy of everything the workload holds ----------------------
    for name in SKETCHES:
        ctx.check(folded[name].count == PARTS * PART_VALUES,
                  f"{name}: folded count {folded[name].count}")
        instance_errors[name].append(relative_errors(
            folded[name].quantiles(PAPER_QUANTILES),
            inputs.fold_reference, PAPER_QUANTILES))
        result.state_bytes += folded[name].size_bytes()
        result.errors[name] = check_errors(ctx, name, instance_errors[name])
    return result
