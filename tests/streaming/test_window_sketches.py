"""The sketch the engine fires for a window is the sketch the paper
measures.

The engine folds each pane with one ``add_batch`` (``update_batch``);
the paper's setting feeds a window's surviving values one ``update`` at
a time.  Registry-driven, on a delayed stream with real late drops:
every fired window sketch equals — serialized bytes, or answers for the
``ANSWER_LEVEL`` sketches — a sketch fed by scalar ``update`` over the
values ``tumbling_assignment`` (the independent reference) keeps for
that window, in arrival order.
"""

import numpy as np
import pytest

from repro.core import dumps
from repro.core.registry import paper_config
from repro.data.streams import EventBatch
from repro.streaming import (
    SketchAggregator,
    run_tumbling_batch,
    tumbling_assignment,
)
from tests.core.test_batch_equivalence import (
    ALL_SKETCHES,
    ANSWER_LEVEL,
    QS,
    SEED,
    assert_equivalent,
    dataset,
    scalar_ingest,
)

WINDOW_MS = 1_000.0
BOUND_MS = 50.0


@pytest.mark.parametrize("name", ALL_SKETCHES)
def test_fired_window_sketch_equals_scalar_fed_sketch(name):
    values = dataset(name, 6_000)
    rng = np.random.default_rng(SEED)
    event_times = np.arange(values.size, dtype=np.float64)
    batch = EventBatch(
        values,
        event_times,
        event_times + rng.exponential(150.0, values.size),
    )
    fired, queries = [], []

    def factory():
        sketch = paper_config(name, seed=SEED)
        answer = sketch.quantiles
        sketch.quantiles = lambda qs: queries.append(sketch) or answer(qs)
        fired.append(sketch)
        return sketch

    report = run_tumbling_batch(
        batch, WINDOW_MS, SketchAggregator(factory, QS), BOUND_MS
    )

    ordered, window_ids, late = tumbling_assignment(
        batch, WINDOW_MS, BOUND_MS
    )
    assert report.dropped_late == int(late.sum()) > 0
    kept_ids = np.unique(window_ids[~late])
    assert [r.window.start for r in report.results] == (
        (kept_ids * WINDOW_MS).tolist()
    )
    # one factory call and one quantiles call per fired pane
    assert len(fired) == len(report.results) == len(kept_ids)
    assert queries == fired
    for window_id, sketch, result in zip(kept_ids, fired, report.results):
        scalar = paper_config(name, seed=SEED)
        scalar_ingest(
            scalar, ordered.values[~late & (window_ids == window_id)]
        )
        # queried once, like the fired sketch (a query may flush buffers)
        answers = dict(zip(QS, scalar.quantiles(QS)))
        if name not in ANSWER_LEVEL:
            assert result.result == answers
        assert_equivalent(name, scalar, sketch)


@pytest.mark.parametrize("name", ["kll", "req"])
def test_tied_arrivals_fire_the_stable_order_panes(name):
    """On a 1 ms arrival clock nearly every event shares its arrival
    time with others.  Pane value order reaches KLL's and REQ's coin
    flips, so the fired bytes hold only if ties keep batch order."""
    rng = np.random.default_rng(SEED)
    n = 20_000
    event_times = np.arange(n) * 0.02
    arrivals = np.ceil(event_times + rng.exponential(15.0, n))
    batch = EventBatch(dataset(name, n), event_times, arrivals)
    fired = []

    def factory():
        fired.append(paper_config(name, seed=SEED))
        return fired[-1]

    report = run_tumbling_batch(
        batch, 100.0, SketchAggregator(factory, QS), 20.0
    )

    ordered, window_ids, late = tumbling_assignment(batch, 100.0, 20.0)
    assert report.dropped_late == int(late.sum()) > 0
    kept_ids = np.unique(window_ids[~late])
    assert len(fired) == len(kept_ids)
    for window_id, sketch in zip(kept_ids, fired):
        folded = paper_config(name, seed=SEED)
        folded.update_batch(
            ordered.values[~late & (window_ids == window_id)]
        )
        folded.quantiles(QS)  # queried once, like the fired pane
        assert dumps(folded) == dumps(sketch)
