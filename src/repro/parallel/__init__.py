"""Sharded ingestion over mergeable quantile sketches.

The paper's speed experiments (Sec 5.3) are single-threaded, but every
sketch it studies is mergeable by design; :class:`ShardedSketch`
exploits that: a :class:`~repro.core.base.QuantileSketch` that fans
insertions out round-robin over per-shard inner sketches, each behind
its own lock, and answers queries from a cached merged view.

See DESIGN.md ("Parallel subsystem") for the shard/merge model.
"""

from repro.parallel.sharded import ShardedSketch

__all__ = ["ShardedSketch"]
