"""One sorted view per ``quantiles()`` call, and the same answers.

``quantiles(qs)`` may answer all of *qs* from one view of the sketch
(KLL, REQ and Random sort their weighted sample once per call; Moments
fits its density once; DDSketch and UDDSketch take one running-count
view of each bucket store), so it must equal ``[quantile(q) for q in
qs]`` bit for bit — compared by ``float.hex``, so ``-0.0`` is not
``0.0`` — on every registry sketch in every state the system produces.
The weighted-sample and bucket sketches must also still answer, and
rank, exactly as the per-call code each of them carried before the
shared query: that code is kept below verbatim as the reference.
KLL, REQ and Random keep their sealed runs sorted between reads, and
DDSketch and UDDSketch their bucket views, so they are also read,
changed and read again — by updates, a batch, a merge, a collapse,
``copy`` and a round trip — and a read must never change a ``dumps``
byte.
"""

from __future__ import annotations

import math
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    SKETCH_CLASSES,
    KLLSketch,
    RandomSketch,
    ReqSketch,
    dumps,
    loads,
    paper_config,
)
from repro.core.base import validate_quantile
from repro.core.mapping import MIN_INDEXABLE_VALUE
from repro.core.store import DenseStore
from repro.core.uddsketch import UDDSketch
from repro.errors import EmptySketchError, InvalidValueError
from repro.metrics import PAPER_QUANTILES
from repro.parallel import ShardedSketch
from tests.core.test_batch_properties import BUCKET_SKETCHES

ALL_NAMES = sorted(SKETCH_CLASSES)
QS = (1e-9, *PAPER_QUANTILES, 0.5, 0.25, 1.0)
STATES = ("one", "filled", "merged", "roundtrip")


def _values(seed: int, n: int) -> np.ndarray:
    # Non-negative and below DCS's 2^20 universe: valid for all
    # thirteen sketches.  Both zeros lead, so an answer of -0.0 where
    # the per-quantile path says 0.0 (or back) would show.
    tail = np.minimum(1.0 + np.random.default_rng(seed).pareto(1.0, n), 1e5)
    return np.concatenate([[-0.0, 0.0] * 40, tail])


def _sketch(name: str, state: str):
    sketch = paper_config(name, seed=5)
    if state == "one":
        sketch.update(3.5)
        return sketch
    sketch.update_batch(_values(1, 4_000 if name == "gk" else 9_000))
    if state == "merged":
        other = paper_config(name, seed=5)  # DCS merges equal hashes only
        other.update_batch(_values(2, 3_000))
        sketch.merge(other)
    if state == "roundtrip":
        sketch = loads(dumps(sketch))
    return sketch


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_quantiles_equal_per_quantile_answers(name, state):
    sketch = _sketch(name, state)
    assert _hex(sketch.quantiles(QS)) == _hex(
        [sketch.quantile(q) for q in QS]
    )


@pytest.mark.parametrize("state", ["one", "filled", "merged"])
def test_sharded_quantiles_equal_per_quantile_answers(state):
    sharded = ShardedSketch(lambda: paper_config("kll", seed=5), n_shards=3)
    if state == "one":
        sharded.update(3.5)
    else:
        sharded.update_batch(_values(1, 9_000))
    if state == "merged":
        other = ShardedSketch(lambda: paper_config("kll", seed=5), n_shards=3)
        other.update_batch(_values(2, 3_000))
        sharded.merge(other)
    assert _hex(sharded.quantiles(QS)) == _hex(
        [sharded.quantile(q) for q in QS]
    )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_empty_sketch_raises_the_same_error_both_ways(name):
    sketch = paper_config(name, seed=5)
    with pytest.raises(Exception) as one:
        sketch.quantile(0.5)
    with pytest.raises(Exception) as many:
        sketch.quantiles(QS)
    assert type(many.value) is type(one.value)
    assert sketch.quantiles([]) == []


# -- the per-call code of KLL, REQ and Random before the shared query ----


def _kll_weighted_samples(self) -> tuple[np.ndarray, np.ndarray]:
    """Retained values with their weights, sorted by value."""
    values: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for height, buffer in enumerate(self._compactors):
        if not buffer:
            continue
        arr = np.asarray(buffer, dtype=np.float64)
        values.append(arr)
        weights.append(np.full(arr.size, 1 << height, dtype=np.int64))
    all_values = np.concatenate(values)
    all_weights = np.concatenate(weights)
    order = np.argsort(all_values, kind="stable")
    return all_values[order], all_weights[order]


def _req_weighted_samples(self) -> tuple[np.ndarray, np.ndarray]:
    values: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for height, compactor in enumerate(self._compactors):
        if not compactor.buffer:
            continue
        arr = np.asarray(compactor.buffer, dtype=np.float64)
        values.append(np.sort(arr))
        weights.append(np.full(arr.size, 1 << height, dtype=np.int64))
    all_values = np.concatenate(values)
    all_weights = np.concatenate(weights)
    order = np.argsort(all_values, kind="stable")
    return all_values[order], all_weights[order]


def _random_weighted_samples(self) -> tuple[np.ndarray, np.ndarray]:
    values: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for buffer in self._full:
        if not buffer.items:
            continue
        arr = np.asarray(buffer.items)
        values.append(arr)
        weights.append(np.full(arr.size, buffer.weight, dtype=np.int64))
    if self._active:
        arr = np.asarray(self._active)
        values.append(arr)
        weights.append(np.ones(arr.size, dtype=np.int64))
    all_values = np.concatenate(values)
    all_weights = np.concatenate(weights)
    order = np.argsort(all_values, kind="stable")
    return all_values[order], all_weights[order]


def _reference_quantile(self, samples, q: float) -> float:
    q = validate_quantile(q)
    self._require_nonempty()
    values, weights = samples(self)
    cumulative = np.cumsum(weights)
    target = math.ceil(q * cumulative[-1])
    pos = int(np.searchsorted(cumulative, target, side="left"))
    pos = min(pos, values.size - 1)
    return float(values[pos])


def _reference_rank(self, samples, value: float) -> int:
    self._require_nonempty()
    values, weights = samples(self)
    pos = int(np.searchsorted(values, value, side="right"))
    retained_rank = int(weights[:pos].sum())
    total_weight = int(weights.sum())
    if total_weight == 0:
        return 0
    return min(
        int(round(retained_rank * self._count / total_weight)),
        self._count,
    )


REFERENCE_SAMPLES = {
    "kll": _kll_weighted_samples,
    "req": _req_weighted_samples,
    "random": _random_weighted_samples,
}


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLES))
def test_weighted_sample_answers_match_the_per_call_code(name, state):
    sketch = _sketch(name, state)
    samples = REFERENCE_SAMPLES[name]
    reference_values, reference_weights = samples(sketch)
    values, weights = sketch._weighted_samples()
    assert values.tobytes() == reference_values.tobytes()
    assert weights.tobytes() == reference_weights.tobytes()
    assert _hex(sketch.quantiles(QS)) == _hex(
        [_reference_quantile(sketch, samples, q) for q in QS]
    )
    probes = [-1.0, 0.0, 1.0, 1.5, 2.0, 3.5, 10.0, 1e3, 1e5, 1e9]
    probes += sketch.quantiles(PAPER_QUANTILES)
    assert [sketch.rank(v) for v in probes] == [
        _reference_rank(sketch, samples, v) for v in probes
    ]


# -- re-reads: the sealed sample is kept between queries -----------------


def _assert_reads_match_reference(name: str, sketch) -> None:
    """Answers and ranks equal the per-call code's; reading, twice,
    leaves every ``dumps`` byte as it was."""
    before = dumps(sketch)
    samples = REFERENCE_SAMPLES[name]
    probes = [-1.0, -0.0, 0.0, 1.0, 1.5, 3.5, 1e3, 1e9]
    for _ in range(2):
        reference_values, reference_weights = samples(sketch)
        values, weights = sketch._weighted_samples()
        assert values.tobytes() == reference_values.tobytes()
        assert weights.tobytes() == reference_weights.tobytes()
        assert _hex(sketch.quantiles(QS)) == _hex(
            [_reference_quantile(sketch, samples, q) for q in QS]
        )
        assert [sketch.rank(v) for v in probes] == [
            _reference_rank(sketch, samples, v) for v in probes
        ]
    assert dumps(sketch) == before


def _scalar_updates(n: int):
    def change(sketch):
        for value in _values(3, n)[-n:].tolist():
            sketch.update(value)
        return sketch

    return change


def _batch_update(sketch):
    sketch.update_batch(_values(4, 2_500))
    return sketch


def _merge(n: int):
    def change(sketch):
        other = paper_config(sketch.name, seed=6)
        other.update_batch(_values(5, n))
        sketch.merge(other)
        return sketch

    return change


#: What happens between two reads.
CHANGES = {
    "update-1": _scalar_updates(1),
    "update-4": _scalar_updates(4),
    "update-64": _scalar_updates(64),
    "update-1000": _scalar_updates(1_000),
    "update_batch": _batch_update,
    "merge": _merge(3_000),
    # 3,072 values: 24 whole Random buffers, so the operand has no
    # active one and the merge seals nothing — only sealed runs change.
    "merge-whole-buffers": _merge(2_992),
    "copy": lambda sketch: sketch.copy(),
    "roundtrip": lambda sketch: loads(dumps(sketch)),
}
REREAD_NAMES = ("kll", "random", "req")


@pytest.mark.parametrize("change", sorted(CHANGES))
@pytest.mark.parametrize("name", REREAD_NAMES)
def test_reread_after_a_change_matches_the_per_call_code(name, change):
    sketch = _sketch(name, "filled")
    _assert_reads_match_reference(name, sketch)
    changed = CHANGES[change](sketch)
    _assert_reads_match_reference(name, changed)
    if changed is not sketch:  # the original kept its own sample
        _assert_reads_match_reference(name, sketch)


@pytest.mark.parametrize("name", REREAD_NAMES)
def test_reread_of_signed_zeros_matches_the_per_call_code(name):
    """Live and sealed runs both hold -0.0 and 0.0: the merge must put
    each where the stable sort of all runs did."""
    sketch = paper_config(name, seed=5)
    zeros = [-0.0, 0.0, 0.0, -0.0, -0.0] * 300
    sketch.update_batch(zeros)
    _assert_reads_match_reference(name, sketch)
    for value in zeros[:7] + [1.0, -0.0, 0.0]:
        sketch.update(value)
        _assert_reads_match_reference(name, sketch)


def test_concurrent_readers_of_one_view_agree():
    """The server reads a published view outside the store lock: four
    threads reading (and one dropping the cache) get one answer."""
    view = paper_config("kll", seed=5)
    view.update_batch(_values(1, 200_000))
    view = loads(dumps(view))
    expected = (
        _hex(_reference_quantile(view, _kll_weighted_samples, q) for q in QS),
        [_reference_rank(view, _kll_weighted_samples, v)
         for v in (0.0, 1.5, 10.0)],
    )
    start = threading.Barrier(4)
    answers: list[list[object]] = [[] for _ in range(4)]

    def read(slot: int) -> None:
        start.wait()
        for round_ in range(60):
            if slot == 0 and round_ % 5 == 0:
                view._drop_query_caches()
            answers[slot].append((
                _hex(view.quantiles(QS)),
                [view.rank(v) for v in (0.0, 1.5, 10.0)],
            ))

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(answer == expected for slot in answers for answer in slot)
    # a thread that raised stopped appending
    assert sum(len(slot) for slot in answers) == 4 * 60


#: Small configurations, so a few dozen values compact, collapse and
#: grow the hierarchy.
SMALL_SKETCHES = {
    "kll": lambda: KLLSketch(8, seed=3),
    "req": lambda: ReqSketch(4, seed=3),
    "random": lambda: RandomSketch(num_buffers=3, buffer_size=4, seed=3),
}
#: Ties, both signed zeros and arbitrary finite values.
_value = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 7.0]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False
)
_batch = st.lists(_value, max_size=80)


def _reread_machine(name: str) -> type[RuleBasedStateMachine]:
    make = SMALL_SKETCHES[name]

    class RereadMachine(RuleBasedStateMachine):
        """Every interleaving of writes, copies and round trips with
        reads answers as the per-call code does."""

        def __init__(self) -> None:
            super().__init__()
            self.sketch = make()

        @rule(value=_value)
        def update(self, value):
            self.sketch.update(value)

        @rule(batch=_batch)
        def update_batch(self, batch):
            self.sketch.update_batch(batch)

        # REQ's merge compacts each level once, so repeated self-merges
        # keep ~60 % of a doubling stream: cap the size they start from.
        @precondition(lambda self: self.sketch.count < 5_000)
        @rule(batch=_batch, itself=st.booleans())
        def merge(self, batch, itself):
            other = self.sketch if itself else make()
            if not itself:
                other.update_batch(batch)
            self.sketch.merge(other)

        @rule()
        def copy(self):
            self.sketch = self.sketch.copy()

        @rule()
        def round_trip(self):
            self.sketch = loads(dumps(self.sketch))

        @precondition(lambda self: not self.sketch.is_empty)
        @rule(qs=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=5))
        def quantiles(self, qs):
            before = dumps(self.sketch)
            samples = REFERENCE_SAMPLES[name]
            assert _hex(self.sketch.quantiles(qs)) == _hex(
                [_reference_quantile(self.sketch, samples, q) for q in qs]
            )
            assert dumps(self.sketch) == before

        @precondition(lambda self: not self.sketch.is_empty)
        @rule(value=_value)
        def rank(self, value):
            before = dumps(self.sketch)
            samples = REFERENCE_SAMPLES[name]
            assert self.sketch.rank(value) == _reference_rank(
                self.sketch, samples, value
            )
            assert dumps(self.sketch) == before

    return RereadMachine


@pytest.mark.parametrize("name", sorted(SMALL_SKETCHES))
def test_reread_machine(name):
    run_state_machine_as_test(_reread_machine(name), settings=settings(
        max_examples=20, stateful_step_count=30, deadline=None,
        derandomize=True, database=None,
    ))


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SMALL_SKETCHES))
def test_reread_machine_wide(name):
    run_state_machine_as_test(_reread_machine(name), settings=settings(
        max_examples=400, stateful_step_count=60, deadline=None,
        derandomize=True, database=None,
    ))


# -- the DDSketch family: one bucket view per call -----------------------


def _dense_key_at_rank(self, rank: float) -> int:
    self._require_nonempty()
    cumulative = np.cumsum(self._counts)
    pos = int(np.searchsorted(cumulative, rank, side="right"))
    pos = min(pos, self._counts.size - 1)
    return pos + self._offset


def _sparse_key_at_rank(self, rank: float) -> int:
    self._require_nonempty()
    cumulative = 0
    last = 0
    for index, count in self.items():
        cumulative += count
        last = index
        if cumulative > rank:
            return index
    return last


def _key_at_rank(store, rank: float) -> int:
    if isinstance(store, DenseStore):
        return _dense_key_at_rank(store, rank)
    return _sparse_key_at_rank(store, rank)


def _key_at_rank_descending(store, rank: float) -> int:
    items = list(store.items())
    cumulative = 0
    for index, count in reversed(items):
        cumulative += count
        if cumulative > rank:
            return index
    return items[0][0]


def _reference_bucket_quantile(self, q: float) -> float:
    q = validate_quantile(q)
    self._require_nonempty()
    rank = max(np.ceil(q * self._count) - 1, 0)
    neg_total = self._negative.total
    if rank < neg_total:
        key = _key_at_rank_descending(self._negative, rank)
        estimate = -self._mapping.value(key)
    elif rank < neg_total + self._zero_count:
        estimate = 0.0
    else:
        key = _key_at_rank(self._positive, rank - neg_total - self._zero_count)
        estimate = self._mapping.value(key)
    return float(min(max(estimate, self._min), self._max))


def _reference_bucket_rank(self, value: float) -> int:
    self._require_nonempty()
    value = float(value)
    if value >= self._max:
        return self._count
    if value < self._min:
        return 0
    total = 0
    if value >= -MIN_INDEXABLE_VALUE:
        total += self._negative.total
        if value >= MIN_INDEXABLE_VALUE:
            total += self._zero_count
            index = self._mapping.index(value)
            total += sum(c for i, c in self._positive.items() if i <= index)
        else:
            total += self._zero_count
    else:
        index = self._mapping.index(-value)
        total += sum(c for i, c in self._negative.items() if i >= index)
    return min(total, self._count)


def _bucket_values(kind: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    if kind == "negative":
        return -(1.0 + rng.pareto(1.0, 6_000))
    if kind == "zero_heavy":
        values = rng.lognormal(0.0, 3.0, 6_000) * rng.choice((-1.0, 1.0), 6_000)
        zeros = rng.choice((0.0, -0.0, 1e-300, -1e-300), 6_000)
        return np.where(rng.random(6_000) < 0.6, zeros, values)
    if kind == "mixed":
        return rng.normal(0.0, 1.0, 6_000) * 10.0 ** rng.uniform(-4, 6, 6_000)
    if kind == "single_negative":
        return np.full(40, -2.5)
    return np.full(40, 3.5)  # single bucket


BUCKET_KINDS = ("negative", "zero_heavy", "mixed", "single", "single_negative")


@pytest.mark.parametrize("kind", BUCKET_KINDS)
@pytest.mark.parametrize(
    "make", BUCKET_SKETCHES.values(), ids=list(BUCKET_SKETCHES)
)
def test_bucket_answers_match_the_per_call_walk(make, kind):
    sketch = make()
    sketch.update_batch(_bucket_values(kind))
    for current in (sketch, loads(dumps(sketch))):
        answers = _hex(current.quantiles(QS))
        assert answers == _hex([current.quantile(q) for q in QS])
        assert answers == _hex(
            [_reference_bucket_quantile(current, q) for q in QS]
        )
        probes = _bucket_probes(current)
        assert [current.rank(v) for v in probes] == [
            _reference_bucket_rank(current, v) for v in probes
        ]
        for rank in (current.rank, partial(_reference_bucket_rank, current)):
            with pytest.raises(InvalidValueError):
                rank(math.nan)


@pytest.mark.parametrize(
    "make", BUCKET_SKETCHES.values(), ids=list(BUCKET_SKETCHES)
)
def test_empty_bucket_sketch_raises_the_reference_error(make):
    sketch = make()
    for call in (
        lambda: sketch.quantile(0.5),
        lambda: sketch.quantiles(QS),
        lambda: sketch.rank(1.0),
        lambda: _reference_bucket_quantile(sketch, 0.5),
        lambda: _reference_bucket_rank(sketch, 1.0),
    ):
        with pytest.raises(EmptySketchError):
            call()
    assert sketch.quantiles([]) == []


# -- re-reads: DDSketch and UDDSketch keep their bucket views ------------


def _wide(seed: int, n: int) -> np.ndarray:
    """Both signs over 40 decades: collapses a bounded store."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-20.0, 20.0, n) * rng.choice((-1.0, 1.0), n)


def _bucket_probes(sketch) -> list[float]:
    probes = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 3.5, -2.5, 1e9, -1e9]
    for estimate in sketch.quantiles(QS):
        probes += [estimate, np.nextafter(estimate, -np.inf),
                   np.nextafter(estimate, np.inf)]
    return probes


def _bucket_reads(sketch, probes) -> tuple[list[str], list[int]]:
    return _hex(sketch.quantiles(QS)), [sketch.rank(v) for v in probes]


def _assert_kept_views_read_cold(sketch) -> None:
    """Two reads through the kept views equal a read after
    ``_drop_query_caches()`` and the per-call walk, and leave every
    ``dumps`` byte as it was."""
    before = dumps(sketch)
    probes = _bucket_probes(sketch)
    warm = [_bucket_reads(sketch, probes) for _ in range(2)]
    sketch._drop_query_caches()
    cold = _bucket_reads(sketch, probes)
    assert warm == [cold, cold]
    assert cold == (
        _hex(_reference_bucket_quantile(sketch, q) for q in QS),
        [_reference_bucket_rank(sketch, v) for v in probes],
    )
    assert dumps(sketch) == before


def _bucket_merge(sketch, make):
    other = make()
    other.update_batch(_bucket_values("zero_heavy")[::3])
    sketch.merge(other)
    return sketch


def _levels_apart(finer: bool):
    """UDDSketch merge with an operand at fewer (*finer*) or more
    collapses than the sketch."""

    def change(sketch, make):
        other = make()
        if finer:
            other.update_batch(np.full(50, -7.25))
        else:
            other.update_batch(_wide(8, 3_000))
        assert other.num_collapses != sketch.num_collapses
        assert (other.num_collapses < sketch.num_collapses) == finer
        sketch.merge(other)
        return sketch

    return change


def _bucket_scalar_updates(n: int):
    def change(sketch, make):
        for value in _bucket_values("mixed")[:n].tolist():
            sketch.update(value)
        sketch.update(0.0)
        sketch.update(-0.0)
        return sketch

    return change


def _collapse(sketch, make):
    collapses = getattr(sketch, "num_collapses", 0)
    sketch.update_batch(_wide(9, 2_000))
    if isinstance(sketch, UDDSketch):
        assert sketch.num_collapses > collapses
    return sketch


def _filled(make):
    sketch = make()
    sketch.update_batch(_bucket_values("zero_heavy"))
    sketch.update_batch(_bucket_values("mixed"))
    return sketch


def _bucket_batch(sketch, make):
    sketch.update_batch(_bucket_values("negative"))
    return sketch


def _self_merge(sketch, make):
    sketch.merge(sketch)
    return sketch


#: What happens between two reads of a bucket sketch.
BUCKET_CHANGES = {
    "update-1": _bucket_scalar_updates(1),
    "update-64": _bucket_scalar_updates(64),
    "update_batch": _bucket_batch,
    "merge": _bucket_merge,
    "merge-self": _self_merge,
    "collapse": _collapse,
    "copy": lambda sketch, make: sketch.copy(),
    "roundtrip": lambda sketch, make: loads(dumps(sketch)),
}
UDD_CHANGES = {
    "merge-finer-operand": _levels_apart(finer=True),
    "merge-coarser-operand": _levels_apart(finer=False),
}


def _bucket_change_cases():
    for name in BUCKET_SKETCHES:
        for change in BUCKET_CHANGES:
            yield pytest.param(name, BUCKET_CHANGES[change],
                               id=f"{name}-{change}")
    for change in UDD_CHANGES:
        yield pytest.param("uddsketch", UDD_CHANGES[change],
                           id=f"uddsketch-{change}")


@pytest.mark.parametrize("name, change", list(_bucket_change_cases()))
def test_bucket_reread_after_a_change_reads_cold(name, change):
    make = BUCKET_SKETCHES[name]
    sketch = _filled(make)
    if isinstance(sketch, UDDSketch):
        assert sketch.num_collapses  # a level the finer operand is below
    _assert_kept_views_read_cold(sketch)
    original = dumps(sketch)
    changed = change(sketch, make)
    _assert_kept_views_read_cold(changed)
    if changed is not sketch:  # the original kept its own views
        assert dumps(sketch) == original
        _assert_kept_views_read_cold(sketch)


@pytest.mark.parametrize(
    "make", BUCKET_SKETCHES.values(), ids=list(BUCKET_SKETCHES)
)
def test_bucket_reread_of_each_sign_and_zero(make):
    """Each store's view is built on first use: a read that reaches
    only one sign, then a change to the other, re-reads fresh."""
    sketch = make()
    sketch.update_batch([-2.0, -0.0, 0.0, 3.0, 5.0])
    # builds the positive view only
    assert _hex([sketch.quantile(1.0)]) == _hex(
        [_reference_bucket_quantile(sketch, 1.0)])
    sketch.update(-9.0)
    assert _hex([sketch.quantile(0.01)]) == _hex(
        [_reference_bucket_quantile(sketch, 0.01)])
    _assert_kept_views_read_cold(sketch)
    for value in (-0.0, 0.0, 0.0, 1e-300, -4.0, 4.0):
        sketch.update(value)
        _assert_kept_views_read_cold(sketch)
