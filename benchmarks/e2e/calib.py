"""Calibration kernel and drift-corrected block timing.

The host this benchmark runs on is shared: a fixed CPU-only loop was
seen to swing 10–15 ms per iteration within minutes, so no raw
wall-clock number repeats within a tenth.  Every timed phase is
therefore cut into fixed-work *blocks*, with one run of a fixed
*calibration kernel* between blocks.  A block's cost is its wall time
divided by the mean of the kernel readings on either side of it, and
all reported times are "at the speed where the kernel takes
:data:`CAL_REF_S`".

This module imports nothing from ``repro``: the kernel must not change
when the program under test does.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

#: The kernel duration every reported time is normalised to.
CAL_REF_S = 0.005

#: Which block stands for a phase.  Contention only ever adds time to a
#: block, so the quiet blocks sit low in the distribution: over 24 runs
#: on the shared host the lower quartile spread 1.8-2.6 % across runs
#: where the median spread 2.6-4.2 %, and under a same-core hog it moved
#: 0-14 % where the median moved 4-42 %.
BLOCK_QUANTILE = 25

_FLOATS = [index * 0.37 + 0.11 for index in range(512)]
_UNSORTED = np.random.default_rng(7).random(60_000)




def kernel() -> float:
    """Run the fixed calibration work once; return its wall seconds.

    The mix mirrors what the workloads spend their time on: JSON
    encode/decode of a float list (the wire codec), a float loop and a
    dict loop (interpreter-bound handler code), and ``np.sort`` (the
    memory-bound numpy kernels inside the sketches).
    """
    start = time.perf_counter()
    for _ in range(4):
        json.loads(json.dumps(_FLOATS))
    total = 0.0
    for _ in range(32):
        for value in _FLOATS:
            total += value * 1.0000001
    slots: dict[int, int] = {}
    for index in range(16_384):
        slots[index & 255] = index
    for _ in range(4):
        np.sort(_UNSORTED)
    return time.perf_counter() - start


@dataclass
class Block:
    """One fixed-work block: wall time, calibration, per-op latencies."""

    wall_s: float = 0.0
    cal_s: float = 0.0
    work: float = 1.0
    start_s: float = 0.0
    ops: dict[str, list[float]] = field(default_factory=dict)

    def op(self, kind: str, seconds: float) -> None:
        """Record one raw operation latency measured inside the block."""
        self.ops.setdefault(kind, []).append(seconds)

    @property
    def scale(self) -> float:
        """Factor turning this block's raw seconds into corrected ones."""
        return CAL_REF_S / self.cal_s

    @property
    def corrected_s(self) -> float:
        return self.wall_s * self.scale


class Calibrator:
    """Shared source of kernel readings for every phase of one process."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._last_end = -math.inf

    def warm_up(self, runs: int = 5) -> None:
        """The kernel's own first runs are slow; discard them."""
        for _ in range(runs):
            kernel()

    def read(self) -> float:
        reading = kernel()
        self.readings.append(reading)
        self._last_end = time.perf_counter()
        return reading

    def fresh(self) -> float:
        """The last reading if nothing ran since, else a new one."""
        if self.readings and time.perf_counter() - self._last_end < 0.002:
            return self.readings[-1]
        return self.read()


class Phase:
    """A sequence of blocks sharing one meaning of ``work``."""

    def __init__(
        self, calibrator: Calibrator, name: str = "", tracer: Any = None
    ) -> None:
        self._calibrator = calibrator
        self._name = name
        self._tracer = tracer
        self.blocks: list[Block] = []

    @contextmanager
    def block(self, work: float = 1.0) -> Iterator[Block]:
        """Time one block; with a tracer, also record it as a
        ``block.<phase>`` span (the parent of every span inside)."""
        before = self._calibrator.fresh()
        span = (
            self._tracer.begin(f"block.{self._name}")
            if self._tracer is not None else None
        )
        blk = Block(work=work, start_s=time.perf_counter())
        yield blk
        blk.wall_s = time.perf_counter() - blk.start_s
        if span is not None:
            self._tracer.end(span)
        blk.cal_s = (before + self._calibrator.read()) / 2.0
        self.blocks.append(blk)

    # -- summaries ------------------------------------------------------

    def seconds_per_work(self) -> float:
        """Corrected seconds per unit of work of the lower-quartile block."""
        return percentile(
            [blk.corrected_s / blk.work for blk in self.blocks],
            BLOCK_QUANTILE,
        )

    def rate(self) -> float:
        """Work per corrected second (lower-quartile block)."""
        return 1.0 / self.seconds_per_work()

    def raw_rate(self) -> float:
        """Work per wall second over the whole phase, uncorrected."""
        return sum(blk.work for blk in self.blocks) / sum(
            blk.wall_s for blk in self.blocks
        )

    def op_latencies(self, kind: str) -> list[float]:
        """Every corrected latency of *kind*, in seconds."""
        return [
            seconds * blk.scale
            for blk in self.blocks
            for seconds in blk.ops.get(kind, ())
        ]

    def op_percentile_us(self, kind: str, pct: float) -> float:
        """A percentile over every operation of the phase (for tails)."""
        return percentile(self.op_latencies(kind), pct) * 1e6

    def op_p50_us(self, kind: str) -> float:
        """The typical latency of *kind*: the median within each block,
        then the lower-quartile block, as for :meth:`seconds_per_work`."""
        return percentile(
            [
                statistics.median(blk.ops[kind]) * blk.scale
                for blk in self.blocks if blk.ops.get(kind)
            ],
            BLOCK_QUANTILE,
        ) * 1e6

    def op_count(self, kind: str) -> int:
        return sum(len(blk.ops.get(kind, ())) for blk in self.blocks)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the gate's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0
