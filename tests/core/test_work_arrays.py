"""The batch kernels reuse per-thread work arrays and allocate nothing
batch-sized.

DDSketch's and UDDSketch's indexing (the mapping's logarithms, the
dense store's shift, the collapse and shift before UDDSketch's and the
sparse store's one ``bincount``) and Moments' transform, centring and
power loop write into two work arrays each thread allocates once
(:func:`repro.core.base.work_array`).  A batch-sized temporary above
glibc's mmap threshold is a fresh ``mmap`` whose pages fault on every
batch, so the witness is a count, not a clock: in a fresh interpreter,
a pass of 2M Pareto values in 65,536-value chunks makes (almost) no
minor page faults once the first pass has allocated the work arrays.
Before them, DDSketch and Moments each made 6,720 faults per pass;
UDDSketch, which sorted each batch with ``np.unique``, made ~450.  The
probe checks that the platform counts faults on pages it maps itself,
outside malloc, so the check does not raise glibc's mmap threshold
and hide the temporaries it is there to see.

A work array never escapes the call that fills it: what a kernel
returns is its own array, and each thread has its own work arrays.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import DDSketch, MomentsSketch, UDDSketch, dumps
from repro.core.base import (
    BATCH,
    SCRATCH,
    WORK_ARRAY_VALUES,
    work_array,
)
from repro.core.mapping import LogarithmicMapping

SRC_ROOT = Path(repro.__file__).resolve().parent.parent

#: Minor faults a pass after the first may make: a handful of pages for
#: a sketch's own arrays, far below the ~450 of UDDSketch's sorted
#: copies and the 6,720 of per-batch temporaries.
FAULT_BUDGET = 64

_FAULT_PROBE = r"""
import mmap
import resource

import numpy as np

from repro.core import paper_config

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

# Does this platform count minor faults at all?  Touch 4 MB of fresh
# pages and look.  A 4 MB numpy array, once freed, would raise glibc's
# mmap threshold past the chunk-sized temporaries counted below.
pages = mmap.mmap(-1, 1 << 22)
before = faults()
for offset in range(0, len(pages), mmap.PAGESIZE):
    pages[offset] = 1
print("counted", faults() > before)
pages.close()

values = 1.0 + np.random.default_rng(20230328).pareto(1.0, 2_000_000)
for name in ("ddsketch", "uddsketch", "moments"):
    passes = []
    for _ in range(3):
        sketch = paper_config(name, dataset="pareto")
        before = faults()
        for start in range(0, values.size, 65_536):
            sketch.update_batch(values[start:start + 65_536])
        passes.append(faults() - before)
    print(name, *passes)
"""


def _run_fault_probe() -> dict[str, list[int]]:
    pytest.importorskip("resource", reason="minor faults need getrusage")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    lines = [line.split() for line in completed.stdout.splitlines()]
    if lines[0] != ["counted", "True"]:
        pytest.skip("this platform reports no minor faults (ru_minflt)")
    return {name: [int(n) for n in counts] for name, *counts in lines[1:]}


def test_a_fresh_process_pass_makes_no_page_faults_after_the_first():
    for name, passes in _run_fault_probe().items():
        assert len(passes) == 3
        assert max(passes[1:]) < FAULT_BUDGET, (name, passes)


def test_an_indexed_batch_keeps_its_values_across_the_next_one():
    mapping = LogarithmicMapping(0.01)
    first_values = np.linspace(1.0, 1e6, 5_000)
    out = np.empty(5_000, dtype=np.int64)
    first = mapping.index_batch(first_values, out)
    assert first is out
    expected = first.copy()
    assert expected.tolist() == [
        mapping.index(float(value)) for value in first_values
    ]
    mapping.index_batch(
        np.linspace(2.0, 3.0, 5_000), np.empty(5_000, dtype=np.int64)
    )
    assert np.array_equal(first, expected)


def test_kernels_leave_nothing_behind_in_the_work_arrays():
    """A sketch's state holds no view of a work array: scribbling over
    both after each batch changes no bytes and no answer."""
    sketches = [
        DDSketch(), DDSketch(store="sparse"), UDDSketch(),
        MomentsSketch(transform="log"), MomentsSketch(log_moments=True),
    ]
    rng = np.random.default_rng(3)
    for sketch in sketches:
        for size in (40, 5_000, WORK_ARRAY_VALUES, WORK_ARRAY_VALUES + 1):
            sketch.update_batch(1.0 + rng.pareto(1.0, size))
            before = dumps(sketch), sketch.quantiles((0.1, 0.5, 0.99))
            for slot in (BATCH, SCRATCH):
                work_array(slot, WORK_ARRAY_VALUES).fill(np.nan)
            sketch._drop_query_caches()
            assert (dumps(sketch), sketch.quantiles((0.1, 0.5, 0.99))) \
                == before


def test_each_thread_has_its_own_work_arrays():
    here = work_array(BATCH, 8)
    seen = []
    thread = threading.Thread(target=lambda: seen.append(work_array(BATCH, 8)))
    thread.start()
    thread.join()
    assert not np.shares_memory(here, seen[0])
    assert np.shares_memory(work_array(BATCH, 8, np.int64), here)
    assert not np.shares_memory(work_array(SCRATCH, 8), here)


def test_a_batch_over_the_cap_gets_an_array_of_its_own():
    large = work_array(BATCH, WORK_ARRAY_VALUES + 1)
    assert large.size == WORK_ARRAY_VALUES + 1
    assert not np.shares_memory(large, work_array(BATCH, WORK_ARRAY_VALUES))
