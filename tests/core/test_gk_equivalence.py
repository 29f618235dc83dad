"""GK and GKArray against verbatim copies of their previous code.

Both now keep one :class:`~repro.core.gk.GKSummary`: one tuple table,
one sorted-run insert sweep, one compression pass, one merge walk and
one read path; GK compresses whenever its count is a multiple of its
period instead of counting inserts since the last pass.  None of that
may move a byte or an answer, with one deliberate exception: a GK fed
values *after* a merge.  The previous code carried its insert counter
across the merge; the count-derived cadence does not, which is what
lets a restored or copied GK continue exactly.

The reference below is the previous implementation, kept verbatim
(renamed ``_ReferenceGK`` and ``_ReferenceGKArray``), with its own
encoder.  Each configuration of a seeded grid drives both through the
same interleaving of scalar updates, batches of 1, period - 1, period,
period + 1 and 3 * period + 7 values, queries, merges (GKArray operands
with pending buffers among them) and self-merges.  After every step
``dumps`` must equal the reference's bytes and every ``quantile`` and
``rank`` its answer — until a GK is fed after a merge.  From there on
the sequence checks continuation instead: a restored and a copied GK,
fed the rest of the sequence, must stay byte-identical to the live one.

The grid's wide part is marked ``slow``; tier-1 keeps a fast slice.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Sequence

import numpy as np
import pytest

from repro.core.base import (
    Guarantee,
    QuantileSketch,
    as_float_batch,
    validate_quantile,
    validate_rank_value,
)
from repro.core.codec import Writer
from repro.core.gk import GKSketch
from repro.core.gkarray import GKArray
from repro.core.serialization import MAGIC, VERSION, dumps, loads
from repro.errors import InvalidValueError

DEFAULT_EPSILON = 0.01

# ----------------------------------------------------------------------
# The reference: the previous code, verbatim
# ----------------------------------------------------------------------


class _Tuple:
    __slots__ = ("value", "g", "delta")

    def __init__(self, value: float, g: int, delta: int) -> None:
        self.value = value
        self.g = g
        self.delta = delta


class _ReferenceGK(QuantileSketch):
    """Deterministic additive rank-error summary.

    Parameters
    ----------
    epsilon:
        Additive rank-error guarantee: a q-quantile query returns a value
        whose rank is within ``epsilon * n`` of ``q * n``.
    """

    name = "gk"

    def __init__(self, epsilon: float = DEFAULT_EPSILON) -> None:
        super().__init__()
        if not 0.0 < epsilon < 0.5:
            raise InvalidValueError(
                f"epsilon must be in (0, 0.5), got {epsilon!r}"
            )
        self.epsilon = float(epsilon)
        self._tuples: list[_Tuple] = []
        self._values: list[float] = []  # mirror for O(log n) bisect
        self._since_compress = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._observe(value)
        pos = bisect.bisect_right(self._values, value)
        if pos == 0 or pos == len(self._tuples):
            delta = 0  # new extremum: rank is known exactly
        else:
            delta = max(
                int(math.floor(2.0 * self.epsilon * self._count)) - 1, 0
            )
        self._tuples.insert(pos, _Tuple(value, 1, delta))
        self._values.insert(pos, value)
        self._since_compress += 1
        if self._since_compress >= max(int(1.0 / (2.0 * self.epsilon)), 1):
            self._compress()
            self._since_compress = 0

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        """Vectorised ingest that replays the scalar schedule exactly.

        Between two compression passes the summary only *gains* tuples,
        so a whole run of inserts can be merged in one sorted sweep —
        provided each item still gets the delta the scalar path would
        have assigned (a function of the stream count *at its own
        insert time* and whether it was an extremum *then*), and the
        compression pass still fires after every ``1/(2*eps)``-th
        insert.  Chunking by the distance to the next compression keeps
        both, so batch and scalar ingestion produce bit-identical
        summaries.
        """
        values = as_float_batch(values)
        if values.size == 0:
            return
        period = max(int(1.0 / (2.0 * self.epsilon)), 1)
        eps2 = 2.0 * self.epsilon
        n = int(values.size)
        pos = 0
        while pos < n:
            room = period - self._since_compress
            chunk = values[pos : pos + room]
            m = int(chunk.size)
            base = self._count
            self._observe_batch(chunk, checked=True)
            # Delta as assigned at each item's own insert time; an item
            # that was an extremum of everything inserted before it
            # (summary plus earlier chunk items) has exactly-known rank.
            deltas = np.maximum(
                np.floor(
                    eps2 * (base + 1 + np.arange(m, dtype=np.float64))
                ).astype(np.int64)
                - 1,
                0,
            )
            if self._values:
                lo, hi = self._values[0], self._values[-1]
            else:
                lo, hi = math.inf, -math.inf
            prev_min = np.empty(m)
            prev_max = np.empty(m)
            prev_min[0] = lo
            prev_max[0] = hi
            if m > 1:
                np.minimum(
                    np.minimum.accumulate(chunk[:-1]), lo,
                    out=prev_min[1:],
                )
                np.maximum(
                    np.maximum.accumulate(chunk[:-1]), hi,
                    out=prev_max[1:],
                )
            deltas[(chunk < prev_min) | (chunk >= prev_max)] = 0
            # Stable sort keeps stream order among equal values, which
            # is where bisect_right would have put them.
            order = np.argsort(chunk, kind="stable")
            svals = chunk[order].tolist()
            sdeltas = deltas[order].tolist()
            positions = np.searchsorted(
                np.asarray(self._values, dtype=np.float64),
                chunk[order],
                side="right",
            ).tolist()
            tuples = self._tuples
            old_values = self._values
            merged: list[_Tuple] = []
            merged_values: list[float] = []
            prev = 0
            for value, delta, insert_at in zip(
                svals, sdeltas, positions
            ):
                if insert_at > prev:
                    merged.extend(tuples[prev:insert_at])
                    merged_values.extend(old_values[prev:insert_at])
                    prev = insert_at
                merged.append(_Tuple(value, 1, delta))
                merged_values.append(value)
            merged.extend(tuples[prev:])
            merged_values.extend(old_values[prev:])
            self._tuples = merged
            self._values = merged_values
            self._since_compress += m
            pos += m
            if self._since_compress >= period:
                self._compress()
                self._since_compress = 0

    def _compress(self) -> None:
        threshold = 2.0 * self.epsilon * self._count
        tuples = self._tuples
        i = len(tuples) - 2
        while i >= 1:  # never merge away the minimum
            current = tuples[i]
            nxt = tuples[i + 1]
            if current.g + nxt.g + nxt.delta <= threshold:
                nxt.g += current.g
                del tuples[i]
                del self._values[i]
            i -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
        target = math.ceil(q * self._count)
        margin = self.epsilon * self._count
        min_rank = 0
        for item in self._tuples:
            min_rank += item.g
            max_rank = min_rank + item.delta
            if max_rank >= target - margin and min_rank >= target - margin:
                return item.value
        return self._tuples[-1].value

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        min_rank = 0
        best = 0
        for item in self._tuples:
            min_rank += item.g
            if item.value <= value:
                best = min_rank + item.delta // 2
            else:
                break
        return min(best, self._count)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        """Combine two GK summaries.

        The merged summary is a rank-weighted interleave of the tuple
        lists; its error bound is the *sum* of the inputs' epsilons, the
        classic weakness that motivated natively-mergeable sketches.
        """
        other = self._merge_operand(other, "epsilon")
        merged: list[_Tuple] = []
        values: list[float] = []
        i = j = 0
        a, b = self._tuples, other._tuples
        while i < len(a) and j < len(b):
            if a[i].value <= b[j].value:
                item = a[i]
                i += 1
            else:
                item = b[j]
                j += 1
            merged.append(_Tuple(item.value, item.g, item.delta))
            values.append(item.value)
        for item in a[i:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            values.append(item.value)
        for item in b[j:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            values.append(item.value)
        self._tuples = merged
        self._values = values
        self._merge_bookkeeping(other)
        self._compress()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        return len(self._tuples)

    def guarantee(self) -> Guarantee:
        """Additive rank error ``epsilon`` (Greenwald & Khanna 2001) over
        one stream; merged summaries measure above it (DESIGN §20)."""
        return Guarantee("rank", self.epsilon)

    def size_bytes(self) -> int:
        return 24 * len(self._tuples) + 4 * 8


class _ReferenceGKArray(QuantileSketch):
    """Additive rank-error summary with buffered bulk inserts.

    Parameters
    ----------
    epsilon:
        Additive rank-error guarantee.
    buffer_size:
        Inserts buffered between merge sweeps; defaults to
        ``ceil(1 / (2 * epsilon))``, the summary's natural granularity.
    """

    name = "gkarray"

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        buffer_size: int | None = None,
    ) -> None:
        super().__init__()
        if not 0.0 < epsilon < 0.5:
            raise InvalidValueError(
                f"epsilon must be in (0, 0.5), got {epsilon!r}"
            )
        self.epsilon = float(epsilon)
        if buffer_size is None:
            buffer_size = math.ceil(1.0 / (2.0 * epsilon))
        if buffer_size < 1:
            raise InvalidValueError(
                f"buffer_size must be >= 1, got {buffer_size!r}"
            )
        self.buffer_size = int(buffer_size)
        self._tuples: list[_Tuple] = []
        # Sorted mirror of the tuple values, so the flush sweep can
        # compute merge positions with one vectorised searchsorted
        # instead of walking the summary per incoming item.
        self._values: list[float] = []
        self._buffer: list[float] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._buffer.append(value)
        self._observe(value)
        if len(self._buffer) >= self.buffer_size:
            self._flush()

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = as_float_batch(values)
        if values.size == 0:
            return
        # Flush in buffer-size chunks so the rank-uncertainty (delta)
        # assigned to each sweep reflects the stream size at that point
        # — one monolithic flush would pin every tuple at the full
        # 2*eps*n band and leave nothing compressible.
        total = int(values.size)
        pos = 0
        while pos < total:
            room = self.buffer_size - len(self._buffer)
            chunk = values[pos : pos + room]
            self._observe_batch(chunk, checked=True)
            self._buffer.extend(chunk.tolist())
            pos += int(chunk.size)
            if len(self._buffer) >= self.buffer_size:
                self._flush()

    def _flush(self) -> None:
        """Merge the sorted buffer into the summary in one sweep.

        Merge positions come from ``bisect_right`` against the sorted
        value mirror (strictly-less comparison, so ties land after the
        existing tuples exactly as the scalar merge placed them), and
        only the first/last incoming item can claim the exactly-known
        rank (delta 0) of a new extremum.  The merged lists are rebuilt
        with slice extends rather than a per-item merge walk.
        """
        if not self._buffer:
            return
        incoming = sorted(self._buffer)
        self._buffer.clear()
        delta = max(int(math.floor(2.0 * self.epsilon * self._count)) - 1, 0)
        tuples = self._tuples
        old_values = self._values
        positions = [
            bisect.bisect_right(old_values, value) for value in incoming
        ]
        deltas = [delta] * len(incoming)
        if positions[0] == 0:
            deltas[0] = 0  # new minimum: rank known exactly
        if positions[-1] == len(old_values):
            deltas[-1] = 0  # new maximum
        merged: list[_Tuple] = []
        merged_values: list[float] = []
        prev = 0
        for value, item_delta, insert_at in zip(
            incoming, deltas, positions
        ):
            if insert_at > prev:
                merged.extend(tuples[prev:insert_at])
                merged_values.extend(old_values[prev:insert_at])
                prev = insert_at
            merged.append(_Tuple(value, 1, item_delta))
            merged_values.append(value)
        merged.extend(tuples[prev:])
        merged_values.extend(old_values[prev:])
        self._tuples = merged
        self._values = merged_values
        self._compress()

    def _compress(self) -> None:
        threshold = 2.0 * self.epsilon * self._count
        tuples = self._tuples
        values = self._values
        i = len(tuples) - 2
        while i >= 1:  # never merge away the minimum
            current = tuples[i]
            nxt = tuples[i + 1]
            if current.g + nxt.g + nxt.delta <= threshold:
                nxt.g += current.g
                del tuples[i]
                del values[i]
            i -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
        self._flush()
        target = math.ceil(q * self._count)
        margin = self.epsilon * self._count
        min_rank = 0
        for item in self._tuples:
            min_rank += item.g
            if min_rank + item.delta >= target - margin and (
                min_rank >= target - margin
            ):
                return item.value
        return self._tuples[-1].value

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        self._flush()
        min_rank = 0
        best = 0
        for item in self._tuples:
            min_rank += item.g
            if item.value <= value:
                best = min_rank + item.delta // 2
            else:
                break
        return min(best, self._count)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        """Combine two GKArray summaries (summed error bounds, like GK)."""
        other = self._merge_operand(other, "epsilon")
        self._flush()
        if other._buffer:
            other = self._copy_flushed(other)
        merged: list[_Tuple] = []
        merged_values: list[float] = []
        i = j = 0
        a, b = self._tuples, other._tuples
        while i < len(a) and j < len(b):
            if a[i].value <= b[j].value:
                item = a[i]
                i += 1
            else:
                item = b[j]
                j += 1
            merged.append(_Tuple(item.value, item.g, item.delta))
            merged_values.append(item.value)
        for item in a[i:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            merged_values.append(item.value)
        for item in b[j:]:
            merged.append(_Tuple(item.value, item.g, item.delta))
            merged_values.append(item.value)
        self._tuples = merged
        self._values = merged_values
        self._merge_bookkeeping(other)
        self._compress()

    @staticmethod
    def _copy_flushed(sketch: "_ReferenceGKArray") -> "_ReferenceGKArray":
        clone = _ReferenceGKArray(sketch.epsilon, sketch.buffer_size)
        clone._tuples = [
            _Tuple(t.value, t.g, t.delta) for t in sketch._tuples
        ]
        clone._values = [t.value for t in sketch._tuples]
        clone._buffer = list(sketch._buffer)
        clone._count = sketch._count
        clone._min = sketch._min
        clone._max = sketch._max
        clone._flush()
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        return len(self._tuples)

    def guarantee(self) -> Guarantee:
        """Additive rank error ``epsilon``, as GK's (Luo et al. 2016);
        merged summaries measure above it (DESIGN §20)."""
        return Guarantee("rank", self.epsilon)

    def size_bytes(self) -> int:
        return (
            24 * len(self._tuples) + 8 * len(self._buffer) + 4 * 8
        )


def _codec_copy(sketch):
    """What the previous ``copy()`` gave: a round trip through the
    codec, which kept the table, the buffer and the bookkeeping but not
    GK's insert counter."""
    if isinstance(sketch, _ReferenceGKArray):
        clone = _ReferenceGKArray(sketch.epsilon, sketch.buffer_size)
        clone._buffer = list(sketch._buffer)
    else:
        clone = _ReferenceGK(sketch.epsilon)
    clone._tuples = [_Tuple(t.value, t.g, t.delta) for t in sketch._tuples]
    clone._values = [t.value for t in sketch._tuples]
    clone._count = sketch._count
    clone._min = sketch._min
    clone._max = sketch._max
    return clone


_ReferenceGK.copy = _codec_copy
_ReferenceGKArray.copy = _codec_copy


def reference_dumps(sketch) -> bytes:
    """The previous codec's bytes for a reference sketch."""
    w = Writer()
    w.header(MAGIC, VERSION)
    w.u8(len(sketch.name))
    w.raw(sketch.name.encode("ascii"))
    w.f64(sketch.epsilon)
    buffered = isinstance(sketch, _ReferenceGKArray)
    if buffered:
        w.i64(sketch.buffer_size)
    w.i64(sketch._count)
    w.f64(sketch._min)
    w.f64(sketch._max)
    w.i64(len(sketch._tuples))
    for item in sketch._tuples:
        w.f64(item.value)
        w.i64(item.g)
        w.i64(item.delta)
    if buffered:
        w.f64_array(sketch._buffer)
    return w.getvalue()


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

CLASSES = {
    "gk": (GKSketch, _ReferenceGK),
    "gkarray": (GKArray, _ReferenceGKArray),
}
REFERENCES = (_ReferenceGK, _ReferenceGKArray)
QS = (0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def _period(name: str, epsilon: float) -> int:
    """GK's compression period, GKArray's buffer size."""
    if name == "gk":
        return max(int(1.0 / (2.0 * epsilon)), 1)
    return math.ceil(1.0 / (2.0 * epsilon))


def _values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rounded values, so ties (and -0.0 against 0.0) are common."""
    values = np.round(rng.normal(0.0, 8.0, n)) / 2
    values[rng.random(n) < 0.05] = -0.0
    return values


def plan(name: str, epsilon: float, seed: int, steps: int) -> list[tuple]:
    """A seeded sequence of operations, the same for both sides.  Even
    seeds put every merge after the last update, so a GK sequence keeps
    its byte-for-byte comparison to the end; odd seeds interleave."""
    rng = np.random.default_rng(seed)
    period = _period(name, epsilon)
    sizes = [1, period - 1, period, period + 1, 3 * period + 7]
    ops: list[tuple] = []
    for _ in range(steps):
        kind = rng.choice(
            ["scalar", "batch", "batch", "query", "merge", "self_merge"],
        )
        if kind == "scalar":
            n = int(rng.integers(1, period + 2))
            ops.append(("scalar", _values(rng, n)))
        elif kind == "batch":
            ops.append(("batch", _values(rng, int(rng.choice(sizes)))))
        elif kind == "merge":
            # Operand sizes off the period leave a GKArray buffer pending.
            size = int(rng.choice(sizes)) + int(rng.integers(0, 3))
            scalar = bool(rng.integers(2))
            ops.append(("merge", _values(rng, size), scalar))
        else:
            ops.append((kind,))
    if seed % 2 == 0:
        ops.sort(key=lambda op: op[0] in ("merge", "self_merge"))
    return ops


def apply(sketch, op: tuple, cls: type, epsilon: float) -> None:
    kind = op[0]
    if kind == "scalar":
        for value in op[1].tolist():
            sketch.update(value)
    elif kind == "batch":
        sketch.update_batch(op[1])
    elif kind == "merge":
        other = cls(epsilon)
        if op[2]:
            for value in op[1].tolist():
                other.update(value)
        else:
            other.update_batch(op[1])
        encode = reference_dumps if cls in REFERENCES else dumps
        before = encode(other)
        sketch.merge(other)
        assert encode(other) == before, "merge mutated its operand"
    elif kind == "self_merge":
        sketch.merge(sketch)



def answers(sketch) -> list:
    if sketch.count == 0:
        return []
    rank_at = [-math.inf, -3.0, -0.0, 0.0, 0.05, 2.5, math.inf]
    return [sketch.quantile(q).hex() for q in QS] + [
        sketch.rank(v) for v in rank_at
    ]


def drive(name: str, epsilon: float, seed: int, steps: int) -> None:
    new_cls, ref_cls = CLASSES[name]
    new, ref = new_cls(epsilon), ref_cls(epsilon)
    ops = plan(name, epsilon, seed, steps)
    merged = False
    for at, op in enumerate(ops):
        feeds = op[0] in ("scalar", "batch")
        if name == "gk" and merged and feeds:
            continues_exactly(new, ops[at:], epsilon)
            return
        if op[0] == "query":
            assert answers(new) == answers(ref), (name, epsilon, seed, at)
        else:
            apply(new, op, new_cls, epsilon)
            apply(ref, op, ref_cls, epsilon)
            merged = merged or op[0] in ("merge", "self_merge")
        assert dumps(new) == reference_dumps(ref), (name, epsilon, seed, at)
    assert answers(new) == answers(ref), (name, epsilon, seed)


def continues_exactly(live, rest: Sequence[tuple], epsilon: float) -> None:
    """A restored and a copied GK fed *rest* stay equal to *live*."""
    cls = type(live)
    followers = [loads(dumps(live)), live.copy()]
    for op in rest:
        for sketch in (live, *followers):
            if op[0] != "query":
                apply(sketch, op, cls, epsilon)
        expected = dumps(live)
        for sketch in followers:
            assert dumps(sketch) == expected
            assert answers(sketch) == answers(live)


EPSILONS = (0.01, 0.05, 0.2, 0.45)
GRID = list(itertools.product(CLASSES, EPSILONS, range(8)))
#: Tier-1's slice: both seed parities per class and epsilon, shorter.
FAST = list(itertools.product(CLASSES, EPSILONS, (0, 1)))


def _config_id(config: tuple) -> str:
    name, epsilon, seed = config
    return f"{name}-eps{epsilon}-seed{seed}"


@pytest.mark.parametrize("config", FAST, ids=_config_id)
def test_matches_the_previous_code(config):
    drive(*config, steps=24)


@pytest.mark.slow
@pytest.mark.parametrize(
    "config", [c for c in GRID if c not in FAST], ids=_config_id
)
def test_matches_the_previous_code_wide(config):
    drive(*config, steps=60)
