"""Top-k flow motif search (Section 5).

Setting φ is unintuitive; the paper replaces it by a ranking: find the k
maximal instances (with φ = 0) satisfying δ that have the largest flow
``f(G_I)``. The search reuses the Algorithm 1 recursion with two changes:

* a size-k min-heap holds the best instances found so far;
* in place of φ, the flow of the current k-th best instance acts as a
  *floating threshold*: a prefix whose aggregated flow cannot exceed it is
  pruned (the instance flow is the minimum over edge-sets, so the partial
  minimum is an upper bound on any completion's flow).

The floating threshold also reaches phase P1: given a match source (a
function of the live threshold, see :func:`top_k_instances`), the search
hands it ``lambda: collector.threshold``, and the φ-aware anchor frontier
of :func:`repro.core.matching.iter_structural_matches` drops every match
that cannot host an instance at or above it. The threshold only rises, and
offers at or below it are rejected anyway, so the collector accepts exactly
the offers it would accept from the unpruned match list — same output,
ties included.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.core.enumeration import match_is_feasible
from repro.core.instance import MotifInstance, Run
from repro.core.matching import MatchSource, StructuralMatch
from repro.core.windows import iter_maximal_windows
from repro.graph.timeseries import EdgeSeries


class TopKCollector:
    """Size-k min-heap of instances ordered by flow.

    ``threshold`` is the floating φ: the k-th best flow so far once the
    heap is full, else the static floor.
    """

    def __init__(self, k: int, floor: float = 0.0) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.k = k
        self.floor = floor
        self._heap: List[Tuple[float, int, MotifInstance]] = []
        self._counter = 0

    @property
    def threshold(self) -> float:
        """Flows at or below this value cannot improve the collection."""
        if len(self._heap) == self.k:
            return self._heap[0][0]
        return self.floor

    @property
    def full(self) -> bool:
        return len(self._heap) == self.k

    def offer(self, instance: MotifInstance) -> None:
        """Consider one instance for the top-k collection."""
        flow = instance.flow
        if len(self._heap) < self.k:
            if flow >= self.floor:
                heapq.heappush(self._heap, (flow, self._counter, instance))
                self._counter += 1
        elif flow > self._heap[0][0]:
            heapq.heapreplace(self._heap, (flow, self._counter, instance))
            self._counter += 1

    def results(self) -> List[MotifInstance]:
        """The collected instances, best flow first."""
        return [
            item[2]
            for item in sorted(self._heap, key=lambda e: (-e[0], e[1]))
        ]

    def kth_flow(self) -> Optional[float]:
        """Flow of the worst retained instance (None while not full)."""
        if not self._heap:
            return None
        return self._heap[0][0]


def _search_window(
    series_list: Sequence[EdgeSeries],
    anchor: float,
    end: float,
    match: StructuralMatch,
    collector: TopKCollector,
) -> None:
    """Algorithm 1 recursion with floating-threshold pruning on one window."""
    m = len(series_list)
    motif = match.motif
    runs: List[Optional[Tuple[int, int]]] = [None] * m

    def recurse(i: int, lower_t: float, inclusive: bool, bound: float) -> None:
        series = series_list[i]
        times = series.times
        n = len(times)
        start_idx = (
            series.first_index_at_or_after(lower_t)
            if inclusive
            else series.first_index_after(lower_t)
        )
        if start_idx >= n or times[start_idx] > end:
            return
        last_idx = series.last_index_at_or_before(end)

        if i == m - 1:
            flow = series.flow_between(start_idx, last_idx)
            final = min(bound, flow)
            if collector.full and final <= collector.threshold:
                return
            runs[i] = (start_idx, last_idx)
            collector.offer(
                MotifInstance(
                    motif,
                    match.vertex_map,
                    tuple(
                        Run(series_list[e], lo, hi)
                        for e, (lo, hi) in enumerate(runs)  # type: ignore[misc]
                    ),
                )
            )
            runs[i] = None
            return

        next_series = series_list[i + 1]
        next_times = next_series.times
        next_n = len(next_times)
        next_idx = next_series.first_index_after(times[start_idx])

        for j in range(start_idx, last_idx + 1):
            t_j = times[j]
            while next_idx < next_n and next_times[next_idx] <= t_j:
                next_idx += 1
            if next_idx >= next_n or next_times[next_idx] > end:
                return
            if j + 1 <= last_idx and times[j + 1] < next_times[next_idx]:
                continue  # prefix validity (maximality)
            new_bound = min(bound, series.flow_between(start_idx, j))
            if collector.full and new_bound <= collector.threshold:
                continue  # floating-threshold pruning
            if new_bound < collector.floor:
                continue
            runs[i] = (start_idx, j)
            recurse(i + 1, t_j, False, new_bound)
            runs[i] = None

    recurse(0, anchor, True, float("inf"))


def top_k_instances(
    matches: MatchSource,
    k: int,
    delta: Optional[float] = None,
    floor: float = 0.0,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> List[MotifInstance]:
    """The k maximal instances with the largest flow, best first.

    Parameters
    ----------
    matches:
        Structural matches from phase P1 (all of one motif), or a function
        that takes the live threshold and returns them; phase P1 can then
        prune with the floating threshold as it goes.
    k:
        How many instances to return (fewer if the graph has fewer).
    delta:
        Duration override; defaults to the motif's δ.
    floor:
        Static lower bound on acceptable flow (paper uses 0).
    anchor_range:
        Optional half-open ``[lo, hi)`` restriction on window anchors (the
        :mod:`repro.parallel` shard-ownership contract): only owned windows
        feed the collector, so halo-truncated windows can never displace a
        genuine instance from the top-k heap.
    """
    collector = TopKCollector(k, floor=floor)
    if callable(matches):
        matches = matches(lambda: collector.threshold)
    for match in matches:
        motif_delta = match.motif.delta if delta is None else delta
        series_list = match.series
        # Match-level pruning: the instance flow is bounded by the minimum
        # total series flow of the match; skip matches that cannot beat the
        # current k-th best (and structurally infeasible ones entirely).
        bound = min(s.total_flow for s in series_list)
        if collector.full and bound <= collector.threshold:
            continue
        if not match_is_feasible(series_list, floor):
            continue
        for window in iter_maximal_windows(
            series_list[0], series_list[-1], motif_delta
        ):
            if anchor_range is not None:
                if window.start >= anchor_range[1]:
                    break
                if window.start < anchor_range[0]:
                    continue
            _search_window(series_list, window.start, window.end, match, collector)
    return collector.results()


def kth_instance_flow(
    matches: Sequence[StructuralMatch],
    k: int,
    delta: Optional[float] = None,
) -> Optional[float]:
    """Flow of the k-th best instance (Figure 11's y-axis), or None if the
    graph has fewer than one instance."""
    results = top_k_instances(matches, k, delta=delta)
    if not results:
        return None
    # With fewer than k instances the worst found stands in for the k-th.
    return results[-1].flow
