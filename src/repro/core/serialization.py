"""Binary serialization for every sketch in :mod:`repro.core`.

Mergeability (Sec 2.4) only matters in practice if a sketch can travel:
partitions summarise locally, ship bytes, and a coordinator merges.  This
module provides a compact, versioned, self-describing format:

    b"RPRO" | version u8 | name-length u8 | name | payload

Use :func:`dumps` / :func:`loads` for any sketch; payload codecs are
registered per class.

Version 2 makes the format *continuation-exact*: randomized sketches
(KLL, REQ, Random) carry their RNG generator state, and buffered
sketches (t-digest, GKArray) carry their unflushed buffers instead of
flushing at encode time (which mutated the sketch being saved).  A
restored sketch fed the same suffix of a stream is now byte-identical
to one that never left memory — the property the durability layer's
crash recovery depends on.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np

from repro.core.base import QuantileSketch
from repro.core.codec import Reader, Writer, canonical_json
from repro.core.dcs import DyadicCountSketch, level_layout
from repro.core.ddsketch import DDSketch
from repro.core.exact import ExactQuantiles
from repro.core.gk import GKSketch, GKSummary
from repro.core.gkarray import GKArray
from repro.core.hdr import HdrHistogram
from repro.core.kll import KLLSketch
from repro.core.mapping import LogarithmicMapping
from repro.core.maxent import DEFAULT_GRID_SIZE
from repro.core.moments import MomentsSketch
from repro.core.random_sketch import RandomSketch, _Buffer
from repro.core.req import ReqSketch, _RelativeCompactor
from repro.core.store import (
    BucketStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
)
from repro.core.tdigest import TDigest
from repro.core.uddsketch import UDDSketch
from repro.errors import SerializationError

MAGIC = b"RPRO"
VERSION = 2

# Decoders index the *_NAMES tables directly: an unknown code is a
# KeyError, which the Reader turns into SerializationError.
_TRANSFORM_CODES = {"none": 0, "log": 1, "arcsinh": 2}
_TRANSFORM_NAMES = {code: name for name, code in _TRANSFORM_CODES.items()}
_STORE_CODES = {"dense": 0, "collapsing": 1, "sparse": 2}
_STORE_NAMES = {code: name for name, code in _STORE_CODES.items()}


# ----------------------------------------------------------------------
# Store payloads (shared by DDSketch / UDDSketch)
# ----------------------------------------------------------------------


def _write_store(w: Writer, store: BucketStore) -> None:
    if isinstance(store, SparseStore):
        w.u8(_STORE_CODES["sparse"])
        for array in store.sorted_arrays():
            w.i64_array(array)
        return
    if isinstance(store, CollapsingLowestDenseStore):
        w.u8(_STORE_CODES["collapsing"])
        w.i64(store.max_bins)
        w.u8(1 if store.is_collapsed else 0)
        keep_floor = store.is_collapsed  # offset doubles as the floor
    else:
        w.u8(_STORE_CODES["dense"])
        keep_floor = False
    # Canonical form: trim allocation slack so the bytes are a function
    # of the logical bucket contents, not of the array growth history
    # (which differs between scalar and batch ingestion).  A collapsed
    # store keeps its leading edge — the offset is its collapse floor.
    nonzero = np.nonzero(store._counts)[0]
    if nonzero.size:
        lo = 0 if keep_floor else int(nonzero[0])
        hi = int(nonzero[-1]) + 1
        w.i64(store._offset + lo)
        w.i64_array(store._counts[lo:hi])
    else:
        w.i64(store._offset if keep_floor else 0)
        w.i64_array(())


def _read_store(r: Reader) -> BucketStore:
    kind = _STORE_NAMES[r.u8()]
    if kind == "sparse":
        store = SparseStore()
        indices, counts = r.i64_array(), r.i64_array()
        if indices.size != counts.size:
            r.fail(f"{indices.size} bucket indices, {counts.size} counts")
        if indices.size > 1 and not bool((indices[1:] > indices[:-1]).all()):
            r.fail("bucket indices not strictly ascending")
        store._hold(indices, counts, _bucket_total(r, counts, floor=1))
        return store
    if kind == "collapsing":
        store = CollapsingLowestDenseStore(r.i64())
        store.is_collapsed = bool(r.u8())
    else:
        store = DenseStore()
    store._offset = r.i64()
    store._counts = r.i64_array()
    store._total = _bucket_total(r, store._counts, floor=0)
    return store


def _bucket_total(r: Reader, counts: np.ndarray, floor: int) -> int:
    """The exact sum of a store's *counts*, each at least *floor*."""
    if not counts.size:
        return 0
    if int(counts.min()) < floor:
        r.fail(f"bucket count below {floor}")
    if int(counts.max()) < (1 << 63) // counts.size:
        return int(counts.sum())  # too small to wrap an int64 sum
    return sum(counts.tolist())


# ----------------------------------------------------------------------
# RNG state (randomized sketches)
# ----------------------------------------------------------------------


def _write_rng(w: Writer, rng: np.random.Generator) -> None:
    """Capture the generator state so decode continues the same stream.

    The bit-generator state is a JSON-safe dict of Python ints; written
    canonically so identical states always produce identical bytes.
    """
    blob = canonical_json(rng.bit_generator.state)
    w.i64(len(blob))
    w.raw(blob)


def _read_rng(r: Reader, rng: np.random.Generator) -> None:
    rng.bit_generator.state = json.loads(r.raw(r.count()))


# ----------------------------------------------------------------------
# Per-sketch payload codecs
# ----------------------------------------------------------------------


def _write_common(w: Writer, sketch: QuantileSketch) -> None:
    w.i64(sketch._count)
    w.f64(sketch._min)
    w.f64(sketch._max)


def _read_counts(r: Reader) -> tuple[int, float, float]:
    """The common fields: count (never negative), min and max."""
    count = r.i64()
    if count < 0:
        r.fail(f"negative count {count}")
    return count, r.f64(), r.f64()


def _read_common(r: Reader, sketch: QuantileSketch) -> None:
    sketch._count, sketch._min, sketch._max = _read_counts(r)


def _write_buckets(w: Writer, sketch: DDSketch) -> None:
    """The state DDSketch and UDDSketch share, after their configs."""
    w.i64(sketch._zero_count)
    _write_common(w, sketch)
    _write_store(w, sketch._positive)
    _write_store(w, sketch._negative)


def _read_buckets(r: Reader, sketch: DDSketch) -> None:
    sketch._zero_count = zeros = r.i64()
    _read_common(r, sketch)
    sketch._positive = _read_store(r)
    sketch._negative = _read_store(r)
    held = sketch._positive.total + sketch._negative.total
    if zeros < 0 or zeros + held != sketch._count:
        r.fail(
            f"{zeros} zeros and {held} bucketed values, count {sketch._count}"
        )


def _encode_ddsketch(w: Writer, sketch: DDSketch) -> None:
    w.f64(sketch._mapping.alpha)
    w.u8(_STORE_CODES[sketch._store_kind])
    w.i64(sketch._max_bins)
    _write_buckets(w, sketch)


def _decode_ddsketch(r: Reader) -> DDSketch:
    sketch = DDSketch(
        alpha=r.f64(), store=_STORE_NAMES[r.u8()], max_bins=r.i64()
    )
    _read_buckets(r, sketch)
    return sketch


def _encode_uddsketch(w: Writer, sketch: UDDSketch) -> None:
    w.f64(sketch.final_alpha)
    w.i64(sketch.collapse_budget)
    w.i64(sketch.max_buckets)
    w.f64(sketch._initial_alpha)
    w.i64(sketch._collapses)
    w.f64(sketch._mapping.alpha)
    _write_buckets(w, sketch)


def _decode_uddsketch(r: Reader) -> UDDSketch:
    sketch = UDDSketch(
        final_alpha=r.f64(), num_collapses=r.i64(),
        max_buckets=r.i64(), alpha0=r.f64(),
    )
    sketch._collapses = r.i64()
    sketch._mapping = LogarithmicMapping(r.f64())
    _read_buckets(r, sketch)
    return sketch


def _encode_kll(w: Writer, sketch: KLLSketch) -> None:
    w.i64(sketch.max_compactor_size)
    _write_common(w, sketch)
    w.i64(len(sketch._compactors))
    for buffer in sketch._compactors:
        w.f64_array(buffer)
    _write_rng(w, sketch._rng)


def _decode_kll(r: Reader) -> KLLSketch:
    sketch = KLLSketch(max_compactor_size=r.i64())
    _read_common(r, sketch)
    # Each level costs at least its 8-byte length prefix.
    sketch._compactors = [
        r.f64_array().tolist() for _ in range(r.count(8))
    ]
    sketch._retained = sum(len(b) for b in sketch._compactors)
    sketch._recompute_capacity()
    _read_rng(r, sketch._rng)
    return sketch


def _encode_req(w: Writer, sketch: ReqSketch) -> None:
    w.i64(sketch.num_sections)
    w.u8(1 if sketch.hra else 0)
    _write_common(w, sketch)
    w.i64(len(sketch._compactors))
    for compactor in sketch._compactors:
        w.i64(compactor.section_size)
        w.f64(compactor._section_size_f)
        w.i64(compactor.num_sections)
        w.i64(compactor.state)
        w.f64_array(compactor.buffer)
    _write_rng(w, sketch._rng)


def _decode_req(r: Reader) -> ReqSketch:
    num_sections = r.i64()
    hra = bool(r.u8())
    sketch = ReqSketch(num_sections=num_sections, hra=hra)
    _read_common(r, sketch)
    compactors = []
    for _ in range(r.count(40)):  # four fixed fields + a length prefix
        compactor = _RelativeCompactor(num_sections, hra)
        section_size = r.i64()
        section_size_f = r.f64()
        compactor._set_sections(r.i64(), section_size, section_size_f)
        compactor.state = r.i64()
        compactor.buffer = r.f64_array().tolist()
        compactors.append(compactor)
    sketch._adopt_levels(compactors)
    _read_rng(r, sketch._rng)
    return sketch


def _write_sums(
    w: Writer, lo: float, hi: float, origin: float | None, sums: np.ndarray
) -> None:
    w.f64(lo)
    w.f64(hi)
    # NaN encodes "no origin yet" (empty sketch).
    w.f64(math.nan if origin is None else origin)
    w.f64_array(sums)


def _read_sums(r: Reader) -> tuple[float, float, float | None, np.ndarray]:
    lo, hi, origin = r.f64(), r.f64(), r.f64()
    return lo, hi, None if math.isnan(origin) else origin, r.f64_array()


#: Moments flags byte.  A default-grid sketch writes only the log bit,
#: so its bytes equal those of payloads written before the grid bit.
_MOMENTS_LOG = 0x01
_MOMENTS_GRID = 0x02  # an i64 grid_size follows


def _encode_moments(w: Writer, sketch: MomentsSketch) -> None:
    w.i64(sketch.num_moments)
    w.u8(_TRANSFORM_CODES[sketch.transform])
    custom_grid = sketch.grid_size != DEFAULT_GRID_SIZE
    w.u8(
        (_MOMENTS_LOG if sketch.log_moments else 0)
        | (_MOMENTS_GRID if custom_grid else 0)
    )
    if custom_grid:
        w.i64(sketch.grid_size)
    _write_common(w, sketch)
    _write_sums(
        w, sketch._t_min, sketch._t_max, sketch._origin,
        sketch._power_sums,
    )
    if sketch.log_moments:
        _write_sums(
            w, sketch._l_min, sketch._l_max, sketch._log_origin,
            sketch._log_power_sums,
        )


def _decode_moments(r: Reader) -> MomentsSketch:
    # The power sums stored below hold num_moments + 1 doubles, so the
    # bytes must back the claim before the constructor allocates on it.
    num_moments = r.count(8)
    transform = _TRANSFORM_NAMES[r.u8()]
    flags = r.u8()
    if flags & ~(_MOMENTS_LOG | _MOMENTS_GRID):
        r.fail(f"unknown Moments flags {flags:#04x}")
    # The constructor bounds the grid a query will allocate.
    grid_size = r.i64() if flags & _MOMENTS_GRID else DEFAULT_GRID_SIZE
    sketch = MomentsSketch(
        num_moments=num_moments,
        transform=transform,
        grid_size=grid_size,
        log_moments=bool(flags & _MOMENTS_LOG),
    )
    _read_common(r, sketch)
    (
        sketch._t_min, sketch._t_max, sketch._origin,
        sketch._power_sums,
    ) = _read_sums(r)
    if sketch.log_moments:
        (
            sketch._l_min, sketch._l_max, sketch._log_origin,
            sketch._log_power_sums,
        ) = _read_sums(r)
    return sketch


def _encode_exact(w: Writer, sketch: ExactQuantiles) -> None:
    _write_common(w, sketch)
    w.f64_array(np.concatenate(sketch._chunks) if sketch._count else ())


def _decode_exact(r: Reader) -> ExactQuantiles:
    sketch = ExactQuantiles()
    _read_common(r, sketch)
    values = r.f64_array()
    sketch._chunks = [values] if values.size else []
    return sketch


def _encode_tdigest(w: Writer, sketch: TDigest) -> None:
    # The unflushed buffer is serialized as-is: flushing here would
    # mutate the sketch being saved and diverge it from a copy that
    # kept streaming (flush timing changes centroid formation).
    w.f64(sketch.compression)
    _write_common(w, sketch)
    w.f64_array(sketch._means)
    w.i64_array(sketch._counts)
    w.f64_array(sketch._buffer)


def _decode_tdigest(r: Reader) -> TDigest:
    sketch = TDigest(compression=r.f64())
    _read_common(r, sketch)
    sketch._means = r.f64_array()
    sketch._counts = r.i64_array()
    sketch._buffer = r.f64_array().tolist()
    return sketch


def _write_tuples(w: Writer, sketch: GKSummary) -> None:
    w.i64(len(sketch._tuples))
    for item in sketch._tuples:
        w.f64(item.value)
        w.i64(item.g)
        w.i64(item.delta)


def _read_tuples(r: Reader, sketch: GKSummary) -> None:
    sketch._adopt_table(
        [(r.f64(), r.i64(), r.i64()) for _ in range(r.count(24))]
    )


def _check_summary(
    r: Reader, sketch: GKSummary, buffer: Sequence[float] = ()
) -> None:
    """Refuse a decoded GK/GKArray whose tuple table is no summary of
    its count: every gap at least 1, every band non-negative, finite
    ascending values, finite buffered values, and the gaps summing to
    the values in the table.  Such a table answers negative ranks."""
    tuples = sketch._tuples
    if any(item.g < 1 for item in tuples):
        r.fail("GK tuple with a gap below 1")
    if any(item.delta < 0 for item in tuples):
        r.fail("GK tuple with a negative band")
    values = np.array(sketch._values, dtype=np.float64)
    if not np.isfinite(values).all() or (values[1:] < values[:-1]).any():
        r.fail("GK tuple values are not finite and ascending")
    if not np.isfinite(np.array(buffer, dtype=np.float64)).all():
        r.fail("non-finite buffered value")
    if sum(item.g for item in tuples) != sketch._count - len(buffer):
        r.fail("GK gaps do not sum to the count outside the buffer")


def _encode_gk(w: Writer, sketch: GKSketch) -> None:
    w.f64(sketch.epsilon)
    _write_common(w, sketch)
    _write_tuples(w, sketch)


def _decode_gk(r: Reader) -> GKSketch:
    sketch = GKSketch(epsilon=r.f64())
    _read_common(r, sketch)
    _read_tuples(r, sketch)
    _check_summary(r, sketch)
    return sketch


def _encode_hdr(w: Writer, sketch: HdrHistogram) -> None:
    w.i64(sketch.significant_digits)
    w.f64(sketch.highest_trackable_value)
    _write_common(w, sketch)
    w.i64_array(sketch._counts)


def _decode_hdr(r: Reader) -> HdrHistogram:
    sketch = HdrHistogram(
        significant_digits=r.i64(), highest_trackable_value=r.f64()
    )
    _read_common(r, sketch)
    counts = r.i64_array()
    if counts.size != sketch._counts.size:
        r.fail("HdrHistogram counts array does not match configuration")
    sketch._counts = counts
    return sketch


def _encode_random(w: Writer, sketch: RandomSketch) -> None:
    w.i64(sketch.num_buffers)
    w.i64(sketch.buffer_size)
    _write_common(w, sketch)
    w.f64_array(sketch._active)
    w.i64(len(sketch._full))
    for buffer in sketch._full:
        w.i64(buffer.weight)
        w.f64_array(buffer.items)
    _write_rng(w, sketch._rng)


def _decode_random(r: Reader) -> RandomSketch:
    sketch = RandomSketch(num_buffers=r.i64(), buffer_size=r.i64())
    _read_common(r, sketch)
    sketch._active = r.f64_array().tolist()
    sketch._full = [
        _Buffer(r.i64(), r.f64_array().tolist())
        for _ in range(r.count(16))  # weight + a length prefix each
    ]
    _read_rng(r, sketch._rng)
    return sketch


def _encode_dcs(w: Writer, sketch: DyadicCountSketch) -> None:
    w.i64(sketch.universe_log2)
    w.i64(sketch.exact_threshold)
    w.i64(sketch.seed)
    _write_common(w, sketch)
    # Every sketched level shares one Count-Sketch shape (0 x 0 if none).
    w.i64(sketch.cs_width)
    w.i64(sketch.cs_depth)
    for sketched, counters in sketch.level_counters():
        w.u8(1 if sketched else 0)
        w.i64_array(counters)


def _decode_dcs(r: Reader) -> DyadicCountSketch:
    universe_log2 = r.count(9)  # a kind byte + a length prefix per level
    exact_threshold, seed = r.i64(), r.i64()
    common = _read_counts(r)
    cs_width, cs_depth = r.i64(), r.i64()
    # Levels are stored in full: check them against the configuration
    # *before* the constructor allocates what a hostile one claims.
    tables = []
    layout = level_layout(universe_log2, exact_threshold, cs_width, cs_depth)
    for sketched, size in layout:
        kind, table = r.u8() == 1, r.i64_array()
        if kind != sketched or table.size != size:
            r.fail("DCS level does not match configuration")
        tables.append(table)
    sketch = DyadicCountSketch(universe_log2, exact_threshold, cs_width,
                               cs_depth, seed)
    sketch._count, sketch._min, sketch._max = common
    for (_sketched, counters), table in zip(sketch.level_counters(), tables):
        counters[...] = table
    return sketch


def _encode_gkarray(w: Writer, sketch: GKArray) -> None:
    # Like t-digest: carry the unflushed buffer rather than flushing,
    # so encoding never mutates the sketch or changes its future.
    w.f64(sketch.epsilon)
    w.i64(sketch.buffer_size)
    _write_common(w, sketch)
    _write_tuples(w, sketch)
    w.f64_array(sketch._buffer)


def _decode_gkarray(r: Reader) -> GKArray:
    sketch = GKArray(epsilon=r.f64(), buffer_size=r.i64())
    _read_common(r, sketch)
    _read_tuples(r, sketch)
    sketch._buffer = r.f64_array().tolist()
    _check_summary(r, sketch, sketch._buffer)
    return sketch


_CODECS: dict[
    str,
    tuple[type, Callable[[Writer, QuantileSketch], None], Callable[[Reader], QuantileSketch]],
] = {
    # UDDSketch must be checked before DDSketch (it is a subclass).
    "uddsketch": (UDDSketch, _encode_uddsketch, _decode_uddsketch),
    "ddsketch": (DDSketch, _encode_ddsketch, _decode_ddsketch),
    "kll": (KLLSketch, _encode_kll, _decode_kll),
    "req": (ReqSketch, _encode_req, _decode_req),
    "moments": (MomentsSketch, _encode_moments, _decode_moments),
    "exact": (ExactQuantiles, _encode_exact, _decode_exact),
    "tdigest": (TDigest, _encode_tdigest, _decode_tdigest),
    "gk": (GKSketch, _encode_gk, _decode_gk),
    "gkarray": (GKArray, _encode_gkarray, _decode_gkarray),
    "hdr": (HdrHistogram, _encode_hdr, _decode_hdr),
    "random": (RandomSketch, _encode_random, _decode_random),
    "dcs": (DyadicCountSketch, _encode_dcs, _decode_dcs),
}


def dumps(sketch: QuantileSketch) -> bytes:
    """Serialize *sketch* to bytes."""
    for name, (cls, encode, _decode) in _CODECS.items():
        if type(sketch) is cls:
            w = Writer()
            w.header(MAGIC, VERSION)
            w.u8(len(name))
            w.raw(name.encode("ascii"))
            encode(w, sketch)
            return w.getvalue()
    raise SerializationError(
        f"no codec registered for {type(sketch).__name__}"
    )


def loads(data: bytes) -> QuantileSketch:
    """Deserialize a sketch produced by :func:`dumps` (hostile bytes
    raise only :class:`~repro.errors.SerializationError`)."""
    with Reader(data, SerializationError, "sketch byte-stream") as r:
        r.header(MAGIC, VERSION)
        name = r.raw(r.u8()).decode("ascii")
        if name not in _CODECS:
            r.fail(f"unknown sketch name {name!r}")
        sketch = _CODECS[name][2](r)
        r.finish()
    return sketch
