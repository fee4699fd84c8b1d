"""Merging shard outputs back into engine-level results.

The merger performs three jobs:

1. **Rebinding** — shard workers return instances as
   ``(vertex_map, (lo, hi) per edge)`` records whose index ranges the
   worker already rebased onto the parent series; rebinding attaches
   them to the parent graph's own :class:`EdgeSeries`, so merged
   instances are indistinguishable from serially-found ones
   (``is_valid_instance`` and ``is_maximal`` hold against the parent
   graph). The merger needs no per-shard offsets, so a light shard
   (bounds only) is all the parent ever holds for a process worker.
2. **Deduplication** — the anchored-ownership rule makes every instance
   owned by exactly one shard, so duplicates cannot arise from a correct
   partition; the merger still drops canonical-key duplicates as a safety
   net against overlapping custom partitions.
3. **Aggregation** — per-shard match counts and P1/P2 timings are summed
   into the merged :class:`~repro.core.engine.SearchResult` and kept
   individually in its :class:`~repro.utils.timing.ShardTimingReport`.

Merged instance order is deterministic (sorted by start time, end time,
then vertex map) regardless of shard scheduling, so parallel runs are
reproducible across backends and job counts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.engine import SearchResult
from repro.core.instance import MotifInstance, Run
from repro.core.motif import Motif
from repro.graph.timeseries import TimeSeriesGraph
from repro.obs import flight as _flight
from repro.obs import metrics as _metrics
from repro.parallel.worker import InstanceRecord, ShardSearchOutput
from repro.utils.timing import ShardTiming, ShardTimingReport


def rebind_record(
    record: InstanceRecord,
    motif: Motif,
    shard_index: int,
    parent: TimeSeriesGraph,
) -> MotifInstance:
    """Bind one parent-indexed record onto the parent graph's series."""
    vertex_map, ranges = record
    runs: List[Run] = []
    for edge_index, (lo, hi) in enumerate(ranges):
        m_src, m_dst = motif.edge(edge_index)
        pair = (vertex_map[m_src], vertex_map[m_dst])
        series = parent.series(*pair)
        if series is None:
            raise ValueError(
                f"shard {shard_index} produced an instance on pair {pair} "
                "absent from the parent graph"
            )
        runs.append(Run(series, lo, hi))
    return MotifInstance(motif, vertex_map, runs)


def _instance_sort_key(instance: MotifInstance) -> Tuple:
    """Deterministic, shard-scheduling-independent ordering key."""
    return (
        instance.start_time,
        instance.end_time,
        tuple(repr(v) for v in instance.vertex_map),
        tuple((run.lo, run.hi) for run in instance.runs),
    )


def _rebind_unique(
    motif: Motif,
    outputs: Sequence[ShardSearchOutput],
    parent: TimeSeriesGraph,
) -> Tuple[List[MotifInstance], int]:
    """Every shard's records bound onto ``parent`` in shard order, minus
    canonical-key duplicates; returns the instances and the number of
    duplicates dropped."""
    instances: List[MotifInstance] = []
    seen: set = set()
    for output in sorted(outputs, key=lambda o: o.shard_index):
        for record in output.records:
            instance = rebind_record(record, motif, output.shard_index, parent)
            key = instance.canonical_key()
            if key not in seen:
                seen.add(key)
                instances.append(instance)
    return instances, sum(len(o.records) for o in outputs) - len(instances)


def merge_search_results(
    motif: Motif,
    outputs: Sequence[ShardSearchOutput],
    parent: TimeSeriesGraph,
    wall_seconds: float = 0.0,
) -> SearchResult:
    """Combine per-shard outputs into one :class:`SearchResult`.

    Parameters
    ----------
    motif:
        The searched motif (becomes the merged result's motif).
    outputs:
        One :class:`ShardSearchOutput` per shard, any order.
    parent:
        The unsharded time-series graph instances are rebound onto.
    wall_seconds:
        Elapsed fan-out/merge time measured by the caller, recorded on the
        timing report.
    """
    result = SearchResult(motif=motif)
    timings: List[ShardTiming] = []
    instances, duplicates = _rebind_unique(motif, outputs, parent)
    for output in sorted(outputs, key=lambda o: o.shard_index):
        result.num_matches += output.num_matches
        result.p1_seconds += output.p1_seconds
        result.p2_seconds += output.p2_seconds
        timings.append(
            ShardTiming(
                shard_index=output.shard_index,
                p1_seconds=output.p1_seconds,
                p2_seconds=output.p2_seconds,
                num_matches=output.num_matches,
                num_instances=output.count,
            )
        )
    instances.sort(key=_instance_sort_key)
    result.instances = instances
    result.count = sum(o.count for o in outputs) - duplicates
    result.shard_timings = ShardTimingReport(
        shards=timings, wall_seconds=wall_seconds
    )
    reg = _metrics.active()
    if reg is not None:
        reg.counter("p1.matches").inc(result.num_matches)
        reg.counter("p2.instances").inc(result.count)
        reg.gauge("parallel.shard_imbalance_ratio").set(
            result.shard_timings.imbalance_ratio
        )
        reg.gauge("parallel.num_shards").set(len(timings))
    recorder = _flight.installed()
    if recorder is not None:
        # A merge summary in the ring buffer gives post-mortem bundles
        # the last-known-good shape of the computation (a duplicate
        # count > 0 here is the first symptom of a bad partition).
        recorder.note(
            "merge",
            num_shards=len(timings),
            num_matches=result.num_matches,
            num_instances=result.count,
            duplicates=duplicates,
            imbalance_ratio=result.shard_timings.imbalance_ratio,
        )
    return result


def merge_top_k(
    motif: Motif,
    outputs: Sequence[ShardSearchOutput],
    parent: TimeSeriesGraph,
    k: int,
) -> List[MotifInstance]:
    """Re-rank per-shard top-k candidate lists into the global top-k.

    Correctness: each globally top-k instance is owned by exactly one
    shard and therefore appears in that shard's local top-k candidates,
    so the union of candidates contains the global answer. Ties on flow
    are broken by the deterministic merge order (start time, end time,
    vertex map), which may differ from the serial engine's insertion-order
    tie-break — the returned *flows* always agree.
    """
    candidates, _ = _rebind_unique(motif, outputs, parent)
    candidates.sort(key=lambda inst: (-inst.flow,) + _instance_sort_key(inst))
    return candidates[:k]
