"""Common interface for streaming quantile sketches.

All sketches in :mod:`repro.core` implement :class:`QuantileSketch`: a
single-pass, mergeable summary of a stream of floats that can answer
``q``-quantile queries (Sec 2.1 of the paper).  The interface mirrors what
the paper's evaluation exercises — insertion (`update`), distributed
aggregation (`merge`), queries (`quantile`, `quantiles`, `rank`, `cdf`)
and space accounting (`size_bytes`).

Value-domain policy
-------------------
``NaN`` is never a legal input: it fails every ordered comparison, so
admitting one would silently corrupt the shared ``_count``/``_min``/
``_max`` bookkeeping (the count advances while the extremes do not).
The bookkeeping helpers :meth:`QuantileSketch._observe` and
:meth:`QuantileSketch._observe_batch` therefore raise
:class:`~repro.errors.InvalidValueError` on NaN as a hard backstop, and
every registry sketch additionally rejects it (with ±inf) up front in
``update``.  ``±inf`` is *representable* by the bookkeeping (min/max
comparisons order it correctly) but rejected by every concrete sketch in
the registry, whose bucketing/compaction algorithms need finite input —
so in practice the accepted domain is finite floats.

Aliasing policy
---------------
``s.merge(s)`` is well-defined and doubles the sketch: merging reads
*other*'s internal state while mutating our own, so every concrete
``merge`` first routes through :meth:`QuantileSketch._merge_operand`,
which snapshots *other* (:meth:`QuantileSketch.copy`) when it aliases
``self``.
"""

from __future__ import annotations

import abc
import math
import operator
import threading
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Literal,
    Sequence,
    TypeVar,
    cast,
)

import numpy as np

from repro.errors import (
    EmptySketchError,
    IncompatibleSketchError,
    InvalidQuantileError,
    InvalidValueError,
)

_Sketch = TypeVar("_Sketch", bound="QuantileSketch")


def _reject_nan_batch(values: np.ndarray) -> None:
    """Raise if *values* contains NaN (checked before any mutation)."""
    if values.size and bool(np.isnan(values).any()):
        raise InvalidValueError("batch contains NaN; nothing ingested")


def as_float_batch(
    values: "Sequence[float] | np.ndarray", require_finite: bool = True
) -> np.ndarray:
    """Normalise a batch to a flat float64 array, validated exactly once.

    Every ``update_batch`` fast path starts here: the whole batch is
    scanned *before* any sketch state mutates, so a poisoned batch is
    rejected atomically — no prefix of it is applied.  With
    *require_finite* (every registry sketch) ±inf is rejected alongside
    NaN, matching the scalar ``update`` policy; without it only NaN is
    fatal, mirroring :func:`_reject_nan_batch`.
    """
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size == 0:
        return array
    if require_finite:
        if not bool(np.isfinite(array).all()):
            raise InvalidValueError(
                "batch contains non-finite values; nothing ingested"
            )
    else:
        _reject_nan_batch(array)
    return array


#: Values each per-thread work array holds: the ``sketch_batch`` chunk
#: size.  A larger batch gets a fresh array.
WORK_ARRAY_VALUES = 1 << 16

#: The two work arrays a batch kernel may fill.  ``BATCH`` holds what a
#: sketch derives from its batch and hands down (DDSketch's and
#: UDDSketch's indices, Moments' centred values); ``SCRATCH`` holds what
#: a leaf kernel fills and uses up before it returns (the mapping's
#: logarithms, a dense store's shifted indices, Moments' powers).
BATCH, SCRATCH = 0, 1

_work_arrays = threading.local()


def work_array(slot: int, size: int, dtype: type = np.float64) -> np.ndarray:
    """An uninitialised length-*size* array of *dtype* (``np.float64``
    or ``np.int64``) in this thread's work array *slot* (``BATCH`` or
    ``SCRATCH``).

    A batch-sized temporary above glibc's mmap threshold (128 KB until
    a larger block is freed) is a fresh ``mmap``, so a kernel that
    allocated one per batch paid its page faults on every batch
    (DESIGN §12).  A thread allocates its two work arrays, 8 bytes by
    :data:`WORK_ARRAY_VALUES` each, at its first batch kernel and
    reuses them.  The next kernel that asks for a slot overwrites it,
    so no work array outlives the call that fills it: a kernel hands
    its result back in an array of its own.  A larger batch gets a
    fresh array.
    """
    if size > WORK_ARRAY_VALUES:
        # np.empty's own constructor: like the slice below, it makes no
        # profiler event, so a kernel's call count does not depend on
        # its batch's size (tests/core/test_ddsketch_kernel.py).
        return np.ndarray(size, dtype)
    try:
        views: dict[tuple[int, type], np.ndarray] = _work_arrays.views
    except AttributeError:
        views = _work_arrays.views = {}
        for work_slot in (BATCH, SCRATCH):
            array = np.empty(WORK_ARRAY_VALUES, dtype=np.float64)
            views[work_slot, np.float64] = array
            views[work_slot, np.int64] = array.view(np.int64)
    return views[slot, dtype][:size]


def batch_extremes(values: np.ndarray) -> tuple[float, float]:
    """The smallest and largest value of a non-empty batch.

    argmin/argmax keep the *first* extreme, like the strict comparisons
    in :meth:`QuantileSketch._observe`; min()/max() would keep the last
    of 0.0 and -0.0, which serialize differently.
    """
    return float(values[values.argmin()]), float(values[values.argmax()])


def validate_quantile(q: float) -> float:
    """Validate that *q* lies in (0, 1] and return it as a float.

    The paper defines the q-quantile for ``0 < q <= 1`` (Sec 2.1); a
    query at exactly 1.0 returns the maximum.
    """
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise InvalidQuantileError(q)
    return q


def validate_rank_value(value: float) -> None:
    """Refuse NaN as the argument of ``rank``/``cdf``.

    NaN has no rank: every ordered comparison with it is false, so
    each sketch's rank walk would answer it differently.  ``+-inf``
    are valid and saturate to ``count`` and 0.
    """
    if value != value:
        raise InvalidValueError("rank/cdf of NaN is undefined")


@dataclass(frozen=True)
class Guarantee:
    """The error bound a sketch's answers carry (DESIGN §20).

    *kind* is ``relative`` (``|estimate - x_q| <= eps * |x_q|``),
    ``rank`` (additive: the estimate's rank is within ``eps * n`` of
    ``q * n``; an exact sketch is ``rank`` with ``eps = 0``),
    ``relative_rank`` (within ``eps`` times the rank counted from the
    accurate end) or ``none``, whose ``eps`` is the vacuous ``1.0``.
    *confidence* is ``1.0`` for a deterministic bound.  ``asdict``
    round-trips it through ``canonical_json``.
    """

    kind: Literal["relative", "rank", "relative_rank", "none"]
    eps: float = 1.0
    confidence: float = 1.0


#: What a sketch reports when no cited formula bounds its answers.
NO_GUARANTEE = Guarantee("none")


#: Coins a ``CoinFlips`` block draws one at a time before it switches
#: to blocks: a merge or a small batch flips only a handful.
SCALAR_COINS = 16
#: First and largest coin block; the blocks between double.
FIRST_COIN_BLOCK, MAX_COIN_BLOCK = 64, 4096


class CoinFlips:
    """Fair compaction coins from *rng*, as if drawn one at a time.

    ``rng.integers(2, size=n)`` yields the same coins as n scalar
    ``rng.integers(2)`` calls and leaves the same generator state.  So
    after :data:`SCALAR_COINS` scalar draws the state is snapshotted and
    coins are served from blocks; on exit — exception included — the
    snapshot is restored and exactly the coins used are redrawn, leaving
    the generator where one scalar draw per coin would have.
    """

    __slots__ = ("_rng", "_scalar_left", "_snapshot", "_block", "_drawn")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._scalar_left = SCALAR_COINS
        self._snapshot: dict[str, Any] | None = None

    def __enter__(self) -> Callable[[], int]:
        return self.flip

    def flip(self) -> int:
        """The next coin, 0 or 1."""
        if self._scalar_left:
            self._scalar_left -= 1
            return int(self._rng.integers(2))
        if self._snapshot is None:
            self._snapshot = self._rng.bit_generator.state
            self._block: Iterator[int] = iter(())
            self._drawn = 0
        coin = next(self._block, None)
        if coin is not None:
            return coin
        size = min(max(self._drawn, FIRST_COIN_BLOCK), MAX_COIN_BLOCK)
        self._drawn += size
        self._block = iter(self._rng.integers(2, size=size).tolist())
        return next(self._block)

    def __exit__(self, *exc_info: object) -> None:
        if self._snapshot is not None:
            used = self._drawn - operator.length_hint(self._block)
            self._rng.bit_generator.state = self._snapshot
            self._rng.integers(2, size=used)


class QuantileSketch(abc.ABC):
    """Abstract base class for one-pass mergeable quantile sketches.

    Subclasses must implement :meth:`update`, :meth:`merge`,
    :meth:`quantile`, :meth:`size_bytes` and :meth:`guarantee`, and
    maintain the common bookkeeping attributes ``_count``, ``_min`` and
    ``_max`` (most easily by calling :meth:`_observe` from their
    ``update``).
    """

    #: Registry name, overridden by each concrete sketch.
    name: str = "abstract"

    def __init__(self) -> None:
        self._count = 0
        self._min = np.inf
        self._max = -np.inf

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def update(self, value: float) -> None:
        """Insert a single value into the sketch."""

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        """Insert many values.

        The default implementation loops over :meth:`update`; every
        registry sketch overrides this with a vectorised fast path that
        validates once via :func:`as_float_batch` and updates the
        ``_count``/``_min``/``_max`` bookkeeping once per batch via
        :meth:`_observe_batch`.  The batch is pre-scanned for NaN so a
        poisoned batch is rejected atomically — no prefix of it is
        applied.  ``tolist()`` hands the loop plain Python floats, so
        the fallback never pays a per-item numpy-scalar conversion.
        """
        array = as_float_batch(values, require_finite=False)
        for value in array.tolist():
            self.update(value)

    def _observe(self, value: float) -> None:
        """Record the min/max/count bookkeeping shared by all sketches.

        Raises :class:`~repro.errors.InvalidValueError` on NaN *before*
        touching any state: NaN fails both ordered comparisons, so it
        would advance ``_count`` while leaving ``_min``/``_max`` stale
        (see the module's value-domain policy).  ±inf orders correctly
        and is accepted here; concrete sketches reject it earlier.
        """
        if math.isnan(value):
            raise InvalidValueError(
                f"{type(self).__name__} cannot ingest NaN"
            )
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _observe_batch(
        self,
        values: np.ndarray,
        checked: bool = False,
        extremes: tuple[float, float] | None = None,
    ) -> None:
        """Batched :meth:`_observe`; rejects NaN before mutating state.

        Callers that already validated the batch through
        :func:`as_float_batch` pass ``checked=True`` to skip the
        re-scan, and callers that already took :func:`batch_extremes`
        pass them as *extremes*, so each scan happens once per batch.
        """
        if values.size == 0:
            return
        if not checked:
            _reject_nan_batch(values)
        lo, hi = batch_extremes(values) if extremes is None else extremes
        self._count += int(values.size)
        if lo < self._min:
            self._min = lo
        if hi > self._max:
            self._max = hi

    def _check_range(self, lo: float, hi: float) -> None:
        """Raise :class:`~repro.errors.InvalidValueError` if a batch
        spanning ``[lo, hi]`` holds a finite value this sketch refuses.

        A wrapper that spreads one batch over several sketches (a
        sharded partition) asks this before any of them moves.  Every
        finite value is accepted unless a sketch says otherwise.
        """

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def merge(self, other: "QuantileSketch") -> None:
        """Merge *other* into this sketch in place.

        After the call, this sketch summarises the union of both input
        streams (Sec 2.4: mergeability).  *other* is left unchanged.
        """

    def _merge_operand(
        self: _Sketch, other: "QuantileSketch", *config: str
    ) -> _Sketch:
        """Refuse an operand that cannot merge in, and resolve aliasing.

        Every concrete ``merge`` calls this first.  Another sketch type,
        or a different value of any *config* attribute, raises
        :class:`~repro.errors.IncompatibleSketchError` before any state
        moves: a mixed-config merge would answer with the coarser
        operand's error under the finer one's :meth:`guarantee`.
        Merging a sketch into itself must behave as if merging an
        identical independent copy (the stream doubles); without the
        snapshot, ``merge`` would iterate *other*'s compactors/stores/
        centroids while mutating the same objects, corrupting the sketch.
        """
        name = type(self).__name__
        if not isinstance(other, type(self)):
            raise IncompatibleSketchError(
                f"cannot merge {name} with {type(other).__name__}"
            )
        for attr in config:
            if getattr(other, attr) != getattr(self, attr):
                raise IncompatibleSketchError(
                    f"cannot merge {name}s that differ in {attr}"
                )
        return cast(_Sketch, other.copy() if other is self else other)

    def _merge_bookkeeping(self, other: "QuantileSketch") -> None:
        self._count += other._count
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    def copy(self) -> "QuantileSketch":
        """An independent sketch that is, and stays, equal to this one.

        The copy serializes to the same bytes and — generator state and
        unflushed buffers included — answers the same further updates
        and merges with the same bytes again; mutating either leaves
        the other untouched.  It is a fresh instance, so an attribute
        shadowed on this one (a timing wrapper around ``merge``) does
        not travel with it, which a ``__dict__`` or ``deepcopy`` clone
        would carry bound to the original.  The default round-trips
        through the continuation-exact codec; sketches on a hot path
        override it field by field.
        """
        # serialization imports every sketch module, this one included
        from repro.core.serialization import dumps, loads

        return loads(dumps(self))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def quantile(self, q: float) -> float:
        """Return an estimate of the *q*-quantile, for ``0 < q <= 1``."""

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Return estimates for several quantiles in one call."""
        return [self.quantile(q) for q in qs]

    def rank(self, value: float) -> int:
        """Estimate ``Rank(value)``: the number of items ``<= value``.

        The default implementation inverts :meth:`quantile` by bisection;
        sketches that can answer rank queries natively override it.
        """
        validate_rank_value(value)
        self._require_nonempty()
        if value < self._min:
            return 0
        if value >= self._max:
            return self._count
        lo, hi = 0.0, 1.0
        for _ in range(64):
            mid = (lo + hi) / 2.0
            if mid <= 0.0:
                break
            if self.quantile(max(mid, 1e-12)) <= value:
                lo = mid
            else:
                hi = mid
        # value >= _min here, so at least one item is <= value; the
        # bisection's numeric floor must never round that down to 0.
        return min(max(int(round(lo * self._count)), 1), self._count)

    def cdf(self, value: float) -> float:
        """Estimate the empirical CDF at *value* (``Quantile^-1`` in the
        paper's Table 1), as a fraction in [0, 1]."""
        self._require_nonempty()
        return self.rank(value) / self._count

    def _drop_query_caches(self) -> None:
        """Forget what a read memoised, so the next read is cold.

        Moments (its fitted density) and :class:`WeightedSampleSketch`
        (its sorted sealed sample) override this and call it whenever
        that state goes stale; Fig 5b calls it to time cold reads.  The
        default keeps nothing.
        """

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of values inserted so far (stream length)."""
        return self._count

    @property
    def is_empty(self) -> bool:
        return self._count == 0

    @property
    def min(self) -> float:
        """Smallest value observed."""
        self._require_nonempty()
        return self._min

    @property
    def max(self) -> float:
        """Largest value observed."""
        self._require_nonempty()
        return self._max

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Estimated in-memory footprint of the summary, in bytes.

        Counts the numbers retained by the data structure (8 bytes per
        double/long, matching the paper's Sec 4.3 accounting), not Python
        object overhead, so figures are comparable to Table 3.
        """

    @abc.abstractmethod
    def guarantee(self) -> Guarantee:
        """The bound the answers carry now: a pure function of the state
        ``dumps`` writes, never tighter after a merge or a collapse."""

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} count={self._count} "
            f"size_bytes={self.size_bytes()}>"
        )

    def _require_nonempty(self) -> None:
        if self._count == 0:
            raise EmptySketchError(
                f"{type(self).__name__} has seen no data"
            )


class WeightedSampleSketch(QuantileSketch):
    """A sketch answering from retained items with integer weights.

    KLL, REQ and Random select by cumulative weight over their sorted
    sample, so every estimate is a stream value.  The sample is one
    *live* run of weight 1 — the only one a plain update touches (KLL's
    and REQ's level 0, Random's active buffer) — and the *sealed* runs,
    which change only when a compaction, a collapse, a seal or a merge
    runs.  :meth:`_weighted_samples` keeps the sealed runs sorted
    between reads and merges the sorted live run into them, so a read
    pays for what changed since the last one (DESIGN §21).  Every path
    that can touch a sealed run calls :meth:`_drop_query_caches` once
    per call.  :meth:`quantiles` sorts the sample once for all its
    *qs*; each subclass's ``quantile`` is the one-element case.
    """

    #: Whether the live run comes first in the run order, so its items
    #: precede equal sealed ones (KLL, REQ); Random's comes last.
    _live_first = True
    #: Whether each run is sorted on its own (``np.sort``) before the
    #: stable merge, which fixes where ``-0.0``/``0.0`` ties land (REQ).
    _sort_each_run = False

    def __init__(self) -> None:
        super().__init__()
        self._sealed: tuple[np.ndarray, np.ndarray] | None = None

    @abc.abstractmethod
    def _live_run(self) -> list[float]:
        """The weight-1 items a plain update appends to."""

    @abc.abstractmethod
    def _sealed_runs(self) -> list[tuple[list[float], int]]:
        """The other retained items as ``(items, weight)`` runs, in a
        fixed order: equal values keep it in the sorted sample."""

    def _drop_query_caches(self) -> None:
        self._sealed = None

    def _weighted_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Retained values sorted ascending, with their int64 weights:
        the stable sort of all runs in their order.  A warm read merges
        the sorted live run into the kept sealed sample."""
        sealed = self._sealed
        if sealed is None:
            return self._sort_all_runs()
        values, weights = sealed
        live = np.array(self._live_run(), dtype=np.float64)
        if not live.size:
            return values, weights
        live.sort(kind=None if self._sort_each_run else "stable")
        side = "left" if self._live_first else "right"
        # Live item i lands at its insert point among the sealed items,
        # shifted by the i live items before it.
        at = np.searchsorted(values, live, side=side)
        at += np.arange(live.size)
        merged = np.empty(values.size + live.size, dtype=np.float64)
        merged_weights = np.ones(merged.size, dtype=np.int64)
        sealed_at = np.ones(merged.size, dtype=bool)
        sealed_at[at] = False
        merged[at] = live
        merged[sealed_at] = values
        merged_weights[sealed_at] = weights
        return merged, merged_weights

    def _sort_all_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """A cold read: every run in one stable sort.  Its sealed items,
        in the order it leaves them, are the sample kept until
        :meth:`_drop_query_caches`; readers share those arrays and never
        write to them."""
        live = self._live_run()
        runs = self._sealed_runs()
        runs = [(live, 1), *runs] if self._live_first else [*runs, (live, 1)]
        lengths = [len(items) for items, _ in runs]
        values = np.fromiter(
            chain.from_iterable(items for items, _ in runs),
            dtype=np.float64,
            count=sum(lengths),
        )
        if self._sort_each_run:
            start = 0
            for length in lengths:
                values[start:start + length].sort()
                start += length
        weights = np.repeat(
            np.array([w for _, w in runs], dtype=np.int64), lengths
        )
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        live_start = 0 if self._live_first else values.size - len(live)
        sealed = (order < live_start) | (order >= live_start + len(live))
        self._sealed = (values[sealed], weights[sealed])
        return values, weights

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        wanted = list(qs)
        if not wanted:
            return []
        checked = [validate_quantile(wanted[0])]
        self._require_nonempty()
        checked += [validate_quantile(q) for q in wanted[1:]]
        values, weights = self._weighted_samples()
        cumulative = np.cumsum(weights)
        # The q-quantile is the item of rank ceil(q * N) (Sec 2.1); the
        # retained weights sum to a value near (not exactly) the stream
        # length, so select against the retained total.
        total = int(cumulative[-1])
        at = np.searchsorted(cumulative, [math.ceil(q * total) for q in checked])
        result: list[float] = values.take(at, mode="clip").tolist()
        return result

    def rank(self, value: float) -> int:
        validate_rank_value(value)
        self._require_nonempty()
        values, weights = self._weighted_samples()
        pos = int(np.searchsorted(values, value, side="right"))
        retained_rank = int(weights[:pos].sum())
        total_weight = int(weights.sum())
        return min(
            int(round(retained_rank * self._count / total_weight)),
            self._count,
        )
