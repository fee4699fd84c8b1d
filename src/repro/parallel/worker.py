"""Shard worker functions — the code that runs inside pool workers.

Everything here is module-level and operates on picklable payloads
(:class:`~repro.parallel.partition.TimeShard`, :class:`~repro.core.motif.
Motif`, plain floats), so the functions can be dispatched over a
:class:`concurrent.futures.ProcessPoolExecutor` as well as called inline
for the thread/serial backends.

The process backend's default transport is the ``"columnar"`` envelope:
instead of a pickled :class:`TimeShard`, a task carries the name of a
shared-memory :class:`~repro.graph.columnar.ColumnStore` (or, for the
``"segment"`` envelope, the path of a sealed segment file) plus the
shard's cut bounds — a *light* shard. The worker attaches or maps the
store once per process (cached in :data:`_STORES`) and materializes its
shard straight from the flat columns: one pass over the slots bisects
each slot's events against the shard window and builds memoryview views
only for the series that overlap it
(:func:`~repro.parallel.partition.materialize_shard`). No view of the
whole graph is ever built, and the spawn payload is O(1) per shard.

Workers do **not** ship :class:`~repro.core.instance.MotifInstance`
objects back to the parent: an instance found in a shard is reduced to a
compact :class:`InstanceRecord` — the vertex map plus one ``(lo, hi)``
index range per motif edge, already rebased onto the *parent* series
with the shard's per-slice offsets. The merger binds records onto the
parent graph's series as they are, so merged instances are bit-identical
to what a serial search would have produced (including being backed by
the parent's own :class:`EdgeSeries` objects).

Phase P1 runs per shard as the δ/φ-aware anchor frontier of
:func:`repro.core.matching.iter_structural_matches`, seeded only with the
anchors in ``shard.anchor_range``. Every instance a shard owns starts at
an owned anchor, so the test stays exact: a shard keeps only the matches
whose owned windows might hold an instance, and matches seen only through
its halo are never built. Find, count and batch tasks list those matches
under a ``p1.match`` span before phase P2; the top-k task streams them
into its collector, pruned with the collector's live threshold. Phase P2
still iterates every window of a match, so the skip rule sees the same
history as a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import counting as _counting
from repro.core import enumeration as _enumeration
from repro.core import topk as _topk
from repro.core.instance import MotifInstance
from repro.core.matching import (
    StructuralMatch,
    Threshold,
    iter_structural_matches,
)
from repro.core.motif import Motif
from repro.graph.columnar import ColumnStore
from repro.graph.events import Node
from repro.obs import metrics as _obs_metrics
from repro.obs import profiler as _obs_profiler
from repro.obs import tracing as _tracing
from repro.obs.tracing import span as _span
from repro.resilience import faultinject as _faultinject
from repro.parallel.partition import TimeShard, materialize_shard
from repro.utils.timing import Timer

#: Compact form of one instance: the vertex map plus one inclusive
#: (lo, hi) index range per motif edge, indices into the *parent*
#: graph's full series (the worker adds each slice's offset).
InstanceRecord = Tuple[Tuple[Node, ...], Tuple[Tuple[int, int], ...]]


@dataclass
class ShardSearchOutput:
    """What one shard worker sends back to the merger."""

    shard_index: int
    records: List[InstanceRecord] = field(default_factory=list)
    count: int = 0
    num_matches: int = 0
    p1_seconds: float = 0.0
    p2_seconds: float = 0.0
    #: Index of the grid configuration this output answers (batch runs).
    config_index: int = 0


def _record(instance: MotifInstance, shard: TimeShard) -> InstanceRecord:
    """Reduce a shard's instance to its parent-indexed record form."""
    offsets = shard.offsets
    ranges = []
    for run in instance.runs:
        offset = offsets[(run.series.src, run.series.dst)]
        ranges.append((run.lo + offset, run.hi + offset))
    return (instance.vertex_map, tuple(ranges))


def _shard_matches(
    shard: TimeShard, motif: Motif, delta: float, phi: Threshold
) -> Iterator[StructuralMatch]:
    """Phase P1 on the shard slice, pruned to its owned anchors."""
    return iter_structural_matches(
        shard.graph,
        motif,
        delta=delta,
        phi=phi,
        anchor_range=shard.anchor_range,
    )


def search_shard(
    shard: TimeShard,
    motif: Motif,
    delta: float,
    phi: float,
    collect: bool = True,
    skip_rule: bool = True,
    prefix_pruning: bool = True,
) -> ShardSearchOutput:
    """Find the shard's owned maximal instances (its slice of Algorithm 1).

    ``delta`` and ``phi`` must be the resolved effective constraints (the
    engine applies motif defaults before dispatch), and ``delta`` must not
    exceed the shard's halo width.
    """
    out = ShardSearchOutput(shard_index=shard.index)
    if shard.graph.num_series == 0:
        return out
    # The p1/p2 spans wrap exactly the Timer blocks feeding
    # p1_seconds/p2_seconds, so span totals reconcile with the merged
    # ShardTimingReport (asserted in tests/obs/test_observed_search.py).
    with _span("p1.match", shard=shard.index), Timer() as t1:
        matches = list(_shard_matches(shard, motif, delta, phi))
    out.num_matches = len(matches)
    out.p1_seconds = t1.elapsed

    counter = [0]
    if collect:
        def sink(instance: MotifInstance) -> None:
            counter[0] += 1
            out.records.append(_record(instance, shard))
    else:
        def sink(instance: MotifInstance) -> None:
            counter[0] += 1

    with _span("p2.enumerate", shard=shard.index), Timer() as t2:
        _enumeration.find_instances(
            matches,
            delta=delta,
            phi=phi,
            on_instance=sink,
            skip_rule=skip_rule,
            prefix_pruning=prefix_pruning,
            anchor_range=shard.anchor_range,
        )
    out.p2_seconds = t2.elapsed
    out.count = counter[0]
    return out


def count_shard(
    shard: TimeShard,
    motif: Motif,
    delta: float,
    phi: float,
) -> ShardSearchOutput:
    """Count the shard's owned maximal instances without constructing them
    (the memoized :mod:`repro.core.counting` recursion, anchor-filtered)."""
    out = ShardSearchOutput(shard_index=shard.index)
    if shard.graph.num_series == 0:
        return out
    with _span("p1.match", shard=shard.index), Timer() as t1:
        matches = list(_shard_matches(shard, motif, delta, phi))
    out.num_matches = len(matches)
    out.p1_seconds = t1.elapsed
    with _span("p2.count", shard=shard.index), Timer() as t2:
        out.count = _counting.count_instances(
            matches, delta=delta, phi=phi, anchor_range=shard.anchor_range
        )
    out.p2_seconds = t2.elapsed
    return out


def top_k_shard(
    shard: TimeShard,
    motif: Motif,
    k: int,
    delta: float,
) -> ShardSearchOutput:
    """The shard's k best owned instances by flow.

    Every globally top-k instance is owned by some shard and is therefore
    among that shard's local top-k, so merging the per-shard candidate
    lists and re-ranking yields the exact global answer. The
    ``anchor_range`` restriction is essential here: windows anchored in
    the halo can be truncated by the shard's data boundary, and allowing
    their (spurious) high-flow instances into the heap could displace
    genuine owned candidates.

    Like the serial engine, the shard streams its phase-P1 matches into
    the collector, pruned with the collector's live threshold, so P1 and
    P2 share one span and ``p2_seconds``.
    """
    out = ShardSearchOutput(shard_index=shard.index)
    if shard.graph.num_series == 0:
        return out

    def matches(bar):
        for match in _shard_matches(shard, motif, delta, bar):
            out.num_matches += 1
            yield match

    with _span("p2.top_k", shard=shard.index), Timer() as t2:
        instances = _topk.top_k_instances(
            matches, k, delta=delta, anchor_range=shard.anchor_range
        )
    out.p2_seconds = t2.elapsed
    out.records = [_record(inst, shard) for inst in instances]
    out.count = len(instances)
    return out


def group_bounds(
    configs: Iterable[Tuple[Motif, float, float]]
) -> Dict[Tuple[int, ...], Tuple[float, float]]:
    """Per spanning path, the largest δ and smallest φ of its ``(motif,
    delta, phi)`` configurations: the P1 pruning whose match list holds
    every member's feasible matches."""
    bounds: Dict[Tuple[int, ...], Tuple[float, float]] = {}
    for motif, delta, phi in configs:
        key = motif.spanning_path
        if key in bounds:
            delta = max(delta, bounds[key][0])
            phi = min(phi, bounds[key][1])
        bounds[key] = (delta, phi)
    return bounds


def batch_search_shard(
    shard: TimeShard,
    specs: Sequence[Tuple[int, Motif, float, float]],
    collect: bool = True,
) -> List[ShardSearchOutput]:
    """Run several (motif, δ, φ) configurations over one shard, sharing P1.

    ``specs`` is a list of ``(config_index, motif, delta, phi)`` with
    resolved constraints; configurations whose motifs share a spanning
    path reuse one phase-P1 match list, pruned with the group's largest δ
    and smallest φ so it holds every member's feasible matches. The shared
    P1 time is attributed to the first configuration of each topology
    group; the others report ``p1_seconds == 0.0`` — summing per-config
    timings therefore reflects the real total work, exactly the saving the
    runner exists to exploit.
    """
    outputs: List[ShardSearchOutput] = []
    empty = shard.graph.num_series == 0
    bounds = group_bounds((motif, delta, phi) for _, motif, delta, phi in specs)
    matches_by_path: dict = {}
    for config_index, motif, delta, phi in specs:
        out = ShardSearchOutput(shard_index=shard.index, config_index=config_index)
        if empty:
            outputs.append(out)
            continue
        key = motif.spanning_path
        if key not in matches_by_path:
            with _span("p1.match", shard=shard.index), Timer() as t1:
                matches_by_path[key] = list(
                    _shard_matches(shard, motif, *bounds[key])
                )
            out.p1_seconds = t1.elapsed
        matches = matches_by_path[key]
        out.num_matches = len(matches)

        counter = [0]
        if collect:
            def sink(instance: MotifInstance, _out=out, _counter=counter) -> None:
                _counter[0] += 1
                _out.records.append(_record(instance, shard))
        else:
            def sink(instance: MotifInstance, _out=out, _counter=counter) -> None:
                _counter[0] += 1

        with _span(
            "p2.enumerate", shard=shard.index, config=config_index
        ), Timer() as t2:
            _enumeration.find_instances(
                matches,
                delta=delta,
                phi=phi,
                on_instance=sink,
                anchor_range=shard.anchor_range,
            )
        out.p2_seconds = t2.elapsed
        out.count = counter[0]
        outputs.append(out)
    return outputs


#: Per-process cache of the column stores shard envelopes name, keyed by
#: ``(kind, name)``: an attached shared-memory block for ``"columnar"``,
#: a mapped (and once-validated) segment file for ``"segment"``. Pool
#: workers handle several shard tasks per query; attaching or mapping
#: once per store is the only setup that outlives a task.
_STORES: Dict[Tuple[str, str], ColumnStore] = {}


def _store(kind: str, name: str) -> ColumnStore:
    """The column store one envelope names (cached per process).

    Workers never quarantine a segment: a corrupt file raises
    :class:`~repro.resilience.SegmentCorruptionError` back to the
    dispatcher (classified as a task error, not retried into the same
    corruption forever thanks to the retry policy's bounded rounds);
    the *owner* of the store decides about renaming files.
    """
    store = _STORES.get((kind, name))
    if store is None:
        if kind == "columnar":
            store = ColumnStore.attach(name)
        else:
            from repro.graph.segments import open_segment

            store = open_segment(name, quarantine=False)
        _STORES[(kind, name)] = store
    return store


def run_shard_task(task: Tuple) -> object:
    """Trampoline for executor dispatch: ``(kind, args...) -> output``.

    A single top-level entry point keeps pool submission uniform across
    the search/count/top-k/batch worker kinds.

    The ``"columnar"`` kind is the zero-copy process-backend envelope:
    ``("columnar", shm_name, shard_bounds, inner_kind, args...)``. The
    worker attaches the named shared-memory :class:`ColumnStore` (cached
    per process), materializes the shard as memoryview slices of the
    shared columns (:func:`~repro.parallel.partition.materialize_shard`),
    and runs the inner task — the payload that crossed the process
    boundary is a name and five numbers instead of pickled event lists.

    The ``"segment"`` kind is the same light-shard envelope over the
    durable tier: ``("segment", file_path, shard_bounds, inner_kind,
    args...)``. The worker mmaps the sealed segment (validated once per
    process, cached in :data:`_STORES`) instead of attaching shm — so a
    graph larger than RAM fans out with only its path crossing the
    process boundary, and the OS pages in exactly the ranges each shard
    touches.
    """
    kind, args = task[0], task[1:]
    if kind == "traced":
        return _run_traced(*args)
    if kind in ("columnar", "segment"):
        name, bounds, inner_kind = args[0], args[1], args[2]
        shard = materialize_shard(_store(kind, name), bounds)
        return run_shard_task((inner_kind, shard) + tuple(args[3:]))
    # Chaos hook: a no-op dict lookup unless a fault plan is armed in the
    # environment (tests/resilience). Placed on the unwrapped path so a
    # columnar-enveloped task is subject to exactly one injection.
    if kind in ("search", "count", "top_k", "batch"):
        _faultinject.maybe_inject(args[0].index, kind)
    if kind == "search":
        return search_shard(*args)
    if kind == "count":
        return count_shard(*args)
    if kind == "top_k":
        return top_k_shard(*args)
    if kind == "batch":
        return batch_search_shard(*args)
    raise ValueError(f"unknown shard task kind {kind!r}")


def _run_traced(ctx: Tuple, attrs: Dict, opts: Dict, inner: Tuple) -> Tuple:
    """Run one task under the dispatcher's observability context.

    ``ctx`` is the shipped ``(trace_id, parent_span_id)`` (``(None,
    None)`` when only metrics were active). A *fresh* per-task registry
    and tracer are activated on this thread — thread-local activation
    means concurrent thread-backend tasks never share mutable state —
    and the previous state is restored afterwards, so the serial inline
    path leaves the dispatcher's own registry untouched.

    ``opts`` carries per-task extras; a ``"profile_hz"`` entry arms a
    sampling :class:`~repro.obs.profiler.Profiler` pinned to this thread
    for the task's duration — unless a profiler is already active here
    (the serial inline path, where the dispatcher's own profiler is
    sampling this very thread and a second one would double-count).

    Returns ``("obs", spans, snapshot, profile, inner_result)`` for the
    engine's ``_unwrap_traced`` to stitch, merge, and adopt parent-side.
    """
    trace_id, parent_id = ctx
    registry = _obs_metrics.MetricsRegistry()
    tracer = (
        _tracing.Tracer(trace_id, parent_id) if trace_id is not None else None
    )
    hz = opts.get("profile_hz") if opts else None
    ambient_prof = _obs_profiler.active()
    profiler = (
        _obs_profiler.Profiler(hz=hz)
        if hz and (ambient_prof is None or not ambient_prof.sampling_here)
        else None
    )
    prev_registry = _obs_metrics.activate(registry)
    prev_tracer = _tracing.activate(tracer)
    if profiler is not None:
        profiler.start()
    try:
        if tracer is not None:
            with tracer.span("worker.shard_task", **attrs):
                result = run_shard_task(inner)
        else:
            result = run_shard_task(inner)
    finally:
        if profiler is not None:
            profiler.stop()
        _obs_metrics.activate(prev_registry)
        _tracing.activate(prev_tracer)
    spans = tracer.spans() if tracer is not None else []
    profile = profiler.report.to_dict() if profiler is not None else None
    return ("obs", spans, registry.snapshot(), profile, result)
