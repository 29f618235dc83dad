"""Extension — accuracy vs space trade-off curves.

The paper pins every sketch at one ~1%-error configuration (Sec 4.2);
this bench sweeps each sketch's size knob on the drifting-Pareto
stream and checks the trade-off behaves: more space buys accuracy for
every algorithm, with the deterministic sketches monotone along the
whole curve.
"""

from benchmarks.conftest import emit
from repro.experiments.size_sweep import run_size_sweep


def bench_size_sweep(scale):
    result = run_size_sweep(scale=scale)
    emit(result.to_table())

    for sketch, curve in result.curves.items():
        ordered = sorted(curve, key=lambda row: row[1])
        smallest_error = ordered[0][2]
        largest_error = ordered[-1][2]
        # The biggest configuration always beats the smallest.
        assert largest_error < smallest_error, sketch
    # Deterministic sketches give clean monotone curves.
    for sketch in ("ddsketch", "tdigest", "req"):
        assert result.is_tradeoff_monotone(sketch), sketch
