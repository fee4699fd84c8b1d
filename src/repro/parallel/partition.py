"""δ-overlap time-range partitioning of a time-series graph.

The timeline is cut into ``k`` consecutive *core* ranges
``(-inf, b_1), [b_1, b_2), ..., [b_{k-1}, +inf)``; shard ``i`` receives
every event with timestamp in ``[b_i - halo, b_{i+1} + halo]`` — its core
plus a halo of width ``halo >= δ`` on both sides.

**Anchored-ownership rule.** Algorithm 1 anchors every emitted instance at
a window start equal to the instance's first (earliest) interaction, and
the whole instance fits in ``[a, a + δ]``. Shard ``i`` *owns* exactly the
instances whose anchor lies in its core range; the search restricts
enumeration to owned windows via the ``anchor_range`` parameter of
:func:`repro.core.enumeration.find_instances`.

Why a δ-halo on **both** sides makes sharded output exact:

* *content* — an owned window ``[a, a + δ]`` with ``a < b_{i+1}`` only
  touches events ``<= b_{i+1} + halo``: all present (right halo);
* *maximality / skip rule* — an owned instance anchored at ``a`` is
  non-maximal globally iff a first-series element exists in
  ``[Λ - δ, a)`` (it could join the first edge-set), where ``Λ <= a + δ``
  is the instance's last event. All such elements are ``>= a - δ >= b_i -
  halo``: present (left halo). The window iterator's skip rule compares
  the last-edge frontier ``Λ`` of a window against the maximum frontier of
  previously *considered* windows; frontiers of windows anchored before
  ``b_i - halo`` are ``< b_i <= Λ`` and can never flip a skip decision for
  an owned window, so iterating the left-halo windows (without enumerating
  them) reproduces the exact global skip state.

Shard series are contiguous index slices of the parent series, and
:class:`EdgeSeries` sorts stably, so a shard-local run ``[lo, hi]`` maps
back to the parent series as ``[lo + offset, hi + offset]``. A shard
records each slice's ``offset`` and the worker rebases its records with
it, so what reaches the merger (:mod:`repro.parallel.merge`) is already
indexed into the parent series.

There is one way to materialize a shard per backing:

* list-backed — :func:`partition_time_range` with ``materialize=True``
  (default), or :func:`slice_shard` on a light shard, copies each parent
  series' slice into a list-backed :class:`EdgeSeries`. The thread and
  serial backends and the pickled process transport use these.
* column-backed — :func:`materialize_shard` slices the flat columns of a
  :class:`~repro.graph.columnar.ColumnStore` (a shared-memory block or a
  mapped segment file) into zero-copy memoryview views, inside a process
  worker.

With ``materialize=False`` the parent builds *light* shards
(``graph=None``) that carry only their cut bounds: the process backend
ships those bounds plus the store's name, and the worker builds the rest.
Both backings bisect the same ``[core_start - halo, core_end + halo]``
window, so they hold the same events in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.graph.columnar import ColumnStore
from repro.graph.events import Node
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph

#: Pair key of one edge series: the (src, dst) vertex pair.
Pair = Tuple[Node, Node]


@dataclass
class TimeShard:
    """One shard of a δ-overlap time partition.

    Attributes
    ----------
    index, num_shards:
        Position of the shard and total shard count of its partition.
    core_start, core_end:
        The owned half-open anchor range ``[core_start, core_end)``;
        ``-inf`` / ``+inf`` on the outer shards, so ownership covers the
        whole timeline.
    halo:
        Overlap width (>= the search δ) applied on both sides of the core.
    graph:
        The sliced :class:`TimeSeriesGraph` holding every event in
        ``[core_start - halo, core_end + halo]`` — or ``None`` for a
        *light* shard, whose slice is materialized inside the worker
        from a :class:`~repro.graph.columnar.ColumnStore`.
    offsets:
        Per (src, dst) pair, the parent-series index of the slice's first
        element, which the worker adds to its records' index ranges.
        Empty on a light shard.
    """

    index: int
    num_shards: int
    core_start: float
    core_end: float
    halo: float
    graph: Optional[TimeSeriesGraph]
    offsets: Dict[Pair, int] = field(default_factory=dict)

    @property
    def bounds(self) -> Tuple[int, int, float, float, float]:
        """The picklable payload a process worker needs to materialize
        this shard from a column store (:func:`materialize_shard`)."""
        return (
            self.index,
            self.num_shards,
            self.core_start,
            self.core_end,
            self.halo,
        )

    @property
    def anchor_range(self) -> Tuple[float, float]:
        """The half-open ``[core_start, core_end)`` ownership interval."""
        return (self.core_start, self.core_end)

    @property
    def num_events(self) -> int:
        """Events in the shard (core plus halo) — the load-balance metric.

        0 for light shards, whose slice only exists inside the worker.
        """
        return self.graph.num_events if self.graph is not None else 0

    def owns_anchor(self, t: float) -> bool:
        """Whether an instance anchored at ``t`` belongs to this shard."""
        return self.core_start <= t < self.core_end

    def __repr__(self) -> str:
        payload = (
            f"{self.num_events} events" if self.graph is not None else "light"
        )
        return (
            f"TimeShard({self.index}/{self.num_shards}, "
            f"core=[{self.core_start:g}, {self.core_end:g}), {payload})"
        )


def _cut_points(
    times: List[float], num_shards: int, strategy: str
) -> List[float]:
    """The strictly increasing interior boundaries ``b_1 < ... < b_{k-1}``."""
    if strategy == "width":
        t_min, t_max = times[0], times[-1]
        span = t_max - t_min
        raw = [t_min + span * i / num_shards for i in range(1, num_shards)]
    elif strategy == "events":
        n = len(times)
        raw = [times[min(n - 1, (n * i) // num_shards)] for i in range(1, num_shards)]
    else:
        raise ValueError(
            f"partition strategy must be 'events' or 'width', got {strategy!r}"
        )
    cuts: List[float] = []
    for b in raw:
        if not cuts or b > cuts[-1]:
            cuts.append(b)
    return cuts


def slice_shard(shard: TimeShard, graph: TimeSeriesGraph) -> None:
    """Give a light shard its list-backed slice of ``graph``, in place.

    The slices are list-backed copies even off a columnar graph, because
    these shards may be pickled (process backend with shared memory
    disabled) and memoryviews cannot be.
    """
    start, end = shard.core_start - shard.halo, shard.core_end + shard.halo
    sliced: List[EdgeSeries] = []
    for series in graph.all_series():
        lo, hi = series.indices_in_interval(start, end)
        if lo <= hi:
            sliced.append(EdgeSeries.slice(series, lo, hi))
            shard.offsets[(series.src, series.dst)] = lo
    shard.graph = TimeSeriesGraph(sliced)


def partition_time_range(
    graph: Union[InteractionGraph, TimeSeriesGraph],
    num_shards: int,
    halo: float,
    strategy: str = "events",
    sorted_times: Optional[List[float]] = None,
    materialize: bool = True,
    cut_points: Optional[List[float]] = None,
) -> List[TimeShard]:
    """Split a graph into time shards with a ``halo``-sized overlap.

    Parameters
    ----------
    graph:
        The interaction multigraph or its merged time-series view.
    num_shards:
        Requested shard count; fewer are returned when the graph has too
        few distinct timestamps to support that many non-empty cores.
    halo:
        Overlap width on both sides of each core; must be at least the δ
        of every search run against the partition (pass δ, or the maximum
        δ of a batch grid).
    strategy:
        ``"events"`` (default) cuts at event-count quantiles so shards
        carry similar load; ``"width"`` cuts the covered period into
        equal-length intervals (the Figure 13 prefix-sample geometry).
    sorted_times:
        Optional pre-sorted list of every event timestamp in ``graph``.
        The flattened sort is O(|E| log |E|) and independent of the halo,
        so callers partitioning the same graph repeatedly (δ-sweeps)
        should compute it once and pass it in.
    materialize:
        ``True`` (default) builds per-shard sliced copies of the series —
        what thread/serial workers consume directly. ``False`` builds
        light shards (``graph=None``) carrying only their bounds, with no
        per-series pass: the zero-copy process backend ships those bounds
        and each worker slices the column store itself
        (:func:`materialize_shard`).
    cut_points:
        Explicit interior boundaries overriding ``strategy`` — the hook
        for cost-adaptive sharding
        (:class:`~repro.parallel.costmodel.ShardCostModel`). Sanitized
        to a strictly increasing sequence; the anchored-ownership
        correctness argument holds for *any* cut sequence as long as the
        halo covers δ, so adapted partitions stay exact.

    Returns
    -------
    list of :class:`TimeShard`
        Cores are pairwise disjoint and jointly cover ``(-inf, +inf)``;
        every event timestamp falls in exactly one core.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if halo < 0:
        raise ValueError(f"halo must be non-negative, got {halo!r}")
    ts = graph.to_time_series() if isinstance(graph, InteractionGraph) else graph
    if not isinstance(ts, TimeSeriesGraph):
        raise TypeError(
            "graph must be an InteractionGraph or TimeSeriesGraph, "
            f"got {type(graph).__name__}"
        )

    times: List[float] = (
        sorted(t for series in ts.all_series() for t in series.times)
        if sorted_times is None
        else sorted_times
    )
    if cut_points is not None:
        cuts = []
        for b in cut_points:
            b = float(b)
            if math.isfinite(b) and (not cuts or b > cuts[-1]):
                cuts.append(b)
        cuts = cuts[: max(0, num_shards - 1)]
    elif num_shards == 1 or len(times) == 0:
        cuts = []
    else:
        cuts = _cut_points(times, num_shards, strategy)

    bounds = [-math.inf] + cuts + [math.inf]
    total = len(bounds) - 1
    shards = [
        TimeShard(
            index=i,
            num_shards=total,
            core_start=bounds[i],
            core_end=bounds[i + 1],
            halo=halo,
            graph=None,
        )
        for i in range(total)
    ]
    if materialize:
        for shard in shards:
            slice_shard(shard, ts)
    return shards


def materialize_shard(
    store: ColumnStore, bounds: Tuple[int, int, float, float, float]
) -> TimeShard:
    """Build one shard straight from a column store (worker side).

    ``bounds`` is :attr:`TimeShard.bounds`. One pass over the store's
    slots (:meth:`~repro.graph.columnar.ColumnStore.window`) bisects each
    slot's events against the shard's data window and builds zero-copy
    memoryview views only for the series that overlap it; the offsets it
    records are the views' starts within the full series, which the
    worker uses to ship parent-indexed records.
    """
    shard = TimeShard(*bounds, graph=None)
    sliced: List[EdgeSeries] = []
    for view, first in store.window(
        shard.core_start - shard.halo, shard.core_end + shard.halo
    ):
        sliced.append(view)
        shard.offsets[(view.src, view.dst)] = first
    shard.graph = TimeSeriesGraph(sliced)
    return shard
