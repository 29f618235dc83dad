# module: repro.experiments.badtiming
"""Known-bad: an experiment runner timing itself with a raw clock."""
import time


def time_inserts(sketch, values):
    start = time.perf_counter()  # expect: OBS001
    for value in values:
        sketch.update(value)
    return (time.perf_counter() - start) / len(values)  # expect: OBS001
