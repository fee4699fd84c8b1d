"""Phase P1: structural matches of the motif's spanning path (Section 4).

A structural match maps motif vertices injectively onto graph vertices such
that every motif edge has a corresponding edge (series) in the time-series
graph — temporal and flow information is disregarded, exactly as in the
paper's phase P1.

The matcher is the paper's "modified depth-first search": it exploits the
fact that the motif's edge-label order traces a path, so matches are exactly
the walks of length ``m`` in ``G_T`` whose vertex-repetition pattern equals
the spanning path's pattern (same position pairs coincide, all other
positions are pairwise distinct — the bijection requirement of
Definition 3.2).

The search pipeline runs the same DFS δ-aware (``delta=``): an exact
anchor-frontier test drops every branch on which no δ-window could hold an
instance, so phase P2 only sees matches that might host one. The unpruned
set stays available for Table 4 and the figure experiments through
:func:`find_structural_matches`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.motif import Motif
from repro.graph.events import Node
from repro.graph.timeseries import EdgeSeries, TimeSeriesGraph


class StructuralMatch:
    """One structural match ``G_s`` of a motif in ``G_T``.

    Attributes
    ----------
    motif:
        The matched motif.
    vertex_map:
        Graph vertex per normalized motif vertex id ``0..n-1``.
    series:
        Per motif edge (label order), the :class:`EdgeSeries` of the matched
        vertex pair — the ``R(e_i)`` of the paper.
    """

    __slots__ = ("motif", "vertex_map", "series")

    def __init__(
        self,
        motif: Motif,
        vertex_map: Tuple[Node, ...],
        series: Tuple[EdgeSeries, ...],
    ) -> None:
        self.motif = motif
        self.vertex_map = vertex_map
        self.series = series

    @property
    def walk(self) -> Tuple[Node, ...]:
        """The matched walk in ``G_T`` (graph vertex per path position)."""
        return tuple(self.vertex_map[v] for v in self.motif.spanning_path)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructuralMatch):
            return NotImplemented
        return (
            self.motif.spanning_path == other.motif.spanning_path
            and self.vertex_map == other.vertex_map
        )

    def __hash__(self) -> int:
        return hash((self.motif.spanning_path, self.vertex_map))

    def __repr__(self) -> str:
        return f"StructuralMatch({'→'.join(map(str, self.walk))})"


def iter_structural_matches(
    graph: TimeSeriesGraph,
    motif: Motif,
    delta: Optional[float] = None,
    phi: float = 0.0,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> Iterator[StructuralMatch]:
    """Yield the structural matches of ``motif`` in ``graph`` (phase P1).

    Matches are produced in deterministic order (sorted start vertex, then
    sorted extension), so runs are reproducible across processes.

    The DFS keeps the partial assignment motif-vertex → graph-vertex. At
    path position ``i`` it extends along edge ``e_{i+1}``:

    * if the next motif vertex is already assigned (the path revisits it,
      e.g. closing a cycle), the single required graph edge is looked up
      directly;
    * otherwise every out-neighbour not yet used by another motif vertex is
      tried (injectivity — Definition 3.2's bijection).

    With the defaults this is the paper's pure phase P1 (Table 4), blind to
    time and flow.

    Parameters
    ----------
    delta:
        When given, P1 is δ-aware: each branch carries an *anchor
        frontier*, the pairs ``(a, r)`` where ``a`` is a time of ``R(e_1)``
        (a window anchor) and ``r`` the end of the greedy, strictly
        time-respecting chain from ``a`` over the series chosen so far
        (first element of each next series strictly after the previous
        one). Every instance
        starts at an anchor ``a`` and its own chain can only end later than
        the greedy one, so an anchor is dropped once ``r > a + δ``; pairs
        with equal reach merge into the later anchor, whose deadline is
        later. A branch dies when no anchor is left, so only matches where
        some window could hold an instance are yielded.
    phi:
        When positive, a branch is cut when a chosen series' total flow is
        below φ (every edge-set is a subset of its series).
    anchor_range:
        With ``delta``, seed the frontier only with anchors in the
        half-open ``[lo, hi)`` — the instances a :mod:`repro.parallel`
        shard owns.
    """
    path = motif.spanning_path
    m = motif.num_edges
    # Assignment: motif vertex id -> graph node; used: set of assigned nodes.
    assignment: Dict[int, Node] = {}
    used: set = set()
    chosen_series: List[Optional[EdgeSeries]] = [None] * m
    # anchors[i], reaches[i]: the live frontier after edge i (δ-aware only).
    # Both ascend; reaches strictly after position 0.
    anchors: List[Sequence[float]] = [()] * m
    reaches: List[Sequence[float]] = [()] * m

    def admit(position: int, series: EdgeSeries) -> bool:
        """Apply the optional flow/frontier pruning for one extension."""
        if phi > 0 and series.total_flow < phi:
            return False
        if delta is None:
            return True
        times = series.times
        if position == 0:
            seeds = times
            if anchor_range is not None:
                lo, hi = anchor_range
                seeds = times[bisect_left(times, lo) : bisect_left(times, hi)]
            anchors[0] = reaches[0] = seeds
            return len(seeds) > 0
        n = len(times)
        last = position == m - 1
        live_anchors: List[float] = []
        live_reaches: List[float] = []
        idx = 0
        for a, r in zip(anchors[position - 1], reaches[position - 1]):
            idx = bisect_right(times, r, idx)
            if idx == n:
                break  # reaches ascend: no later anchor can continue
            t = times[idx]
            if t > a + delta:
                continue
            if last:
                return True
            if live_reaches and live_reaches[-1] == t:
                live_anchors[-1] = a
            else:
                live_anchors.append(a)
                live_reaches.append(t)
        anchors[position] = live_anchors
        reaches[position] = live_reaches
        return len(live_anchors) > 0

    def extend(position: int) -> Iterator[StructuralMatch]:
        if position == m:
            vertex_map = tuple(
                assignment[v] for v in range(motif.num_vertices)
            )
            yield StructuralMatch(
                motif, vertex_map, tuple(chosen_series)  # type: ignore[arg-type]
            )
            return
        current = assignment[path[position]]
        next_vid = path[position + 1]
        if next_vid in assignment:
            series = graph.series(current, assignment[next_vid])
            if series is not None and admit(position, series):
                chosen_series[position] = series
                yield from extend(position + 1)
                chosen_series[position] = None
        else:
            for series in graph.out_series(current):
                candidate = series.dst
                if candidate in used:
                    continue
                if not admit(position, series):
                    continue
                assignment[next_vid] = candidate
                used.add(candidate)
                chosen_series[position] = series
                yield from extend(position + 1)
                chosen_series[position] = None
                used.discard(candidate)
                del assignment[next_vid]

    for start in sorted(graph.nodes, key=repr):
        assignment[path[0]] = start
        used.add(start)
        yield from extend(0)
        used.discard(start)
        del assignment[path[0]]


def find_structural_matches(
    graph: TimeSeriesGraph, motif: Motif
) -> List[StructuralMatch]:
    """All structural matches as a list (the paper's unpruned set ``S``)."""
    return list(iter_structural_matches(graph, motif))
