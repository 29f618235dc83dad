"""One workload, one pass, one process.

``run.py`` spawns this file once per measurement so every workload
starts from a cold interpreter (that start is ``setup_s``), pins
itself to one CPU — everything measured shares one GIL, and pinning
took TCP spread from 22 % to about 10 % — and reports its own
``ru_maxrss``.  The last line of standard output is one JSON object.

Modes: ``e2e`` (untraced pass, end-to-end metrics), ``trace`` (an
untraced and a traced pass at a third of the repetitions, per-layer
metrics, span file), ``setup`` (set up, report how long it took, exit).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from calib import CAL_REF_S, Calibrator
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


MODULES = {
    "sketch_batch": "wl_sketch_batch",
    "stream_windows": "wl_stream_windows",
    "tcp_ingest": "wl_tcp",
    "tcp_mixed": "wl_tcp",
}


class SetupDone(Exception):
    """Raised by :meth:`Context.ready` in ``setup`` mode."""


class Context:
    """What a workload needs from the harness: timing, checks, output."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.scale: float = args.scale
        self.mode: str = args.mode
        self.tmp = Path(args.tmp)
        self.out = Path(args.out)
        self._spawned_at: float = args.spawned_at
        self.cal = Calibrator()
        self.tracer: Tracer | None = Tracer() if self.mode == "trace" else None
        self.metrics: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict[str, Any] = {}
        self.setup_s = 0.0

    # -- life cycle ------------------------------------------------------

    def ready(self) -> None:
        """Set-up is over: the next thing to run is a timed block."""
        wall_s = time.time() - self._spawned_at
        self.cal.warm_up()
        reading = statistics.median(self.cal.read() for _ in range(3))
        self.setup_s = wall_s * CAL_REF_S / reading
        if self.mode == "setup":
            raise SetupDone

    def reps(self, base: int, minimum: int = 1, share: float = 1.0) -> int:
        """A repetition count scaled by ``--seconds`` (and by *share*,
        the traced pass's part of the run); sizes never are."""
        return max(minimum, round(base * self.scale * share))

    @contextmanager
    def untimed(self, name: str) -> Iterator[None]:
        """Work outside every timer (input generation, teardown); the
        self-test reads these spans to prove no block overlaps them."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name):
                yield

    # -- results ---------------------------------------------------------

    def emit(self, name: str, value: float, n: int | None = None) -> None:
        self.metrics[name] = {"value": float(value), "n": n}

    def note(self, key: str, value: Any) -> None:
        """A measured value worth keeping that is not a declared metric
        (the per-sketch errors the thresholds were set from)."""
        self.notes[key] = value

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _pin() -> None:
    """One core for every thread this process will start."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "trace", "setup"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"worker: no program to measure at {SRC}", file=sys.stderr)
        return 2
    _pin()
    sys.path.insert(0, str(SRC))

    # Only the workload's own module is imported: its imports are part
    # of its set-up time.
    module = importlib.import_module(MODULES[args.workload])
    ctx = Context(args)
    try:
        module.run(ctx)
    except SetupDone:
        pass
    result: dict[str, Any] = {
        "setup_s": ctx.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "metrics": ctx.metrics,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "notes": ctx.notes,
        "cal_s": ctx.cal.readings,
    }
    if ctx.tracer is not None:
        ctx.tracer.write(
            ctx.out / f"trace_{ctx.workload}.json",
            {"workload": ctx.workload, "seed": ctx.seed},
        )
    print(json.dumps(result))
    sys.stdout.flush()
    # Servers run daemon threads and, in ``setup`` mode, are never
    # stopped (QuantileServer.stop() costs ~0.5 s of accept-loop poll).
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
