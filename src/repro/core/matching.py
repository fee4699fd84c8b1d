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

The search pipeline runs the same DFS δ- and φ-aware (``delta=``,
``phi=``): an exact anchor-frontier test drops every branch on which no
δ-window could hold an edge-set chain whose every run carries flow ≥ φ, so
phase P2 only sees matches that might host an instance. φ may be a live
threshold — a zero-argument callable read once per extension — which is
how top-k (the k-th best flow) and the DP (the best flow so far) prune
phase P1 with the floating φ of Section 5. The unpruned set stays
available for Table 4 and the figure experiments through
:func:`find_structural_matches`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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


#: A flow threshold: a number, or a zero-argument callable returning the
#: current (never decreasing) value of a floating threshold.
Threshold = Union[float, Callable[[], float]]

#: Structural matches of one motif, or a function that takes a live
#: threshold (a zero-argument callable) and returns them pruned with it —
#: the form :mod:`repro.core.topk` and :mod:`repro.core.dp` accept.
MatchSource = Union[
    Iterable[StructuralMatch],
    Callable[[Callable[[], float]], Iterable[StructuralMatch]],
]


def phi_run_end(cum: Sequence[float], start: int, phi: float) -> int:
    """End index of the shortest run from ``start`` with flow ≥ ``phi``.

    ``cum`` is a series' prefix-sum column (``EdgeSeries._cum``); the run
    ``[start, end]`` has flow ``cum[end + 1] - cum[start]``, the exact
    subtraction :meth:`EdgeSeries.flow_between` performs. The bisection
    runs on ``cum[start] + phi``, which may round differently, so the
    result is stepped until that subtraction agrees: the returned run is
    the shortest one phase P2 would accept. Returns ``len(cum) - 1`` (the
    series length) when no such run exists. Flows are positive, so the
    prefix sums ascend and the end never moves back as ``start`` grows.
    """
    base = cum[start]
    if cum[start + 1] - base >= phi:
        return start
    n = len(cum) - 1
    p = bisect_left(cum, base + phi, start + 2)
    while p <= n and cum[p] - base < phi:
        p += 1
    while cum[p - 1] - base >= phi:  # stops at start + 1 (checked above)
        p -= 1
    return p - 1


def iter_structural_matches(
    graph: TimeSeriesGraph,
    motif: Motif,
    delta: Optional[float] = None,
    phi: Threshold = 0.0,
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
        (a window anchor) and ``r`` the end of the greedy φ-chain from
        ``a`` over the series chosen so far. On each series the chain
        takes the shortest run with flow ≥ φ that starts at the first
        element strictly after the previous reach (for ``R(e_1)``: at the
        anchor itself), and ``r`` is that run's last time
        (:func:`phi_run_end`). Edge-sets are contiguous runs with flow ≥ φ
        and flows are positive, so every instance anchored at ``a`` ends
        no earlier than this chain: an anchor is dropped once
        ``r > a + δ``, pairs with equal reach merge into the later anchor
        (whose deadline is later), and a branch dies when no anchor is
        left. Only matches where some window could hold an instance are
        yielded.
    phi:
        The flow threshold, or a zero-argument callable returning a live,
        never decreasing one (read once per extension). A branch is cut
        when a chosen series' total flow is below φ (every edge-set is a
        subset of its series); with ``delta`` it also shapes the frontier
        above.
    anchor_range:
        With ``delta``, seed the frontier only with anchors in the
        half-open ``[lo, hi)`` — the instances a :mod:`repro.parallel`
        shard owns.
    """
    path = motif.spanning_path
    m = motif.num_edges
    floating = callable(phi)
    # Assignment: motif vertex id -> graph node; used: set of assigned nodes.
    assignment: Dict[int, Node] = {}
    used: set = set()
    chosen_series: List[Optional[EdgeSeries]] = [None] * m
    # anchors[i], reaches[i]: the live frontier after edge i (δ-aware only).
    # Both ascend.
    anchors: List[Sequence[float]] = [()] * m
    reaches: List[Sequence[float]] = [()] * m

    def admit(position: int, series: EdgeSeries) -> bool:
        """Apply the optional flow/frontier pruning for one extension."""
        bar = phi() if floating else phi  # type: ignore[operator]
        cum = series._cum
        if bar > 0 and cum[-1] - cum[0] < bar:  # series.total_flow < φ
            return False
        if delta is None:
            return True
        times = series.times
        n = len(times)
        if bar <= 0 or n == 1:
            # Every run reaches φ: the chain ends where it starts.
            cum = None
        if position == 0:
            seeds = times
            if anchor_range is not None:
                lo, hi = anchor_range
                seeds = times[bisect_left(times, lo) : bisect_left(times, hi)]
            if cum is None or not seeds:
                anchors[0] = reaches[0] = seeds
                return len(seeds) > 0
            # Pairs (anchor, index where its run of R(e_1) starts): the
            # first seed is the first of its tied times, and a tied anchor
            # repeats the one before it.
            first = bisect_left(times, seeds[0])
            frontier: Iterable = [
                (a, idx)
                for idx, a in enumerate(seeds, first)
                if idx == first or times[idx - 1] != a
            ]
        elif n == 1:
            # One element: it extends the chains that reach it strictly
            # before it, and they all merge into the latest such anchor.
            t = times[0]
            k = bisect_left(reaches[position - 1], t)
            if k == 0 or anchors[position - 1][k - 1] + delta < t:
                return False
            if position == m - 1:
                return True
            anchors[position] = [anchors[position - 1][k - 1]]
            reaches[position] = [t]
            return True
        else:
            frontier = zip(anchors[position - 1], reaches[position - 1])
        last = position == m - 1
        live_anchors: List[float] = []
        live_reaches: List[float] = []
        idx = 0
        for a, r in frontier:
            if position:
                idx = bisect_right(times, r, idx)
                if idx == n:
                    break  # reaches ascend: no later anchor can continue
            else:
                idx = r  # the run's start index (position 0 pairs)
            if cum is None:
                t = times[idx]
            else:
                end = phi_run_end(cum, idx, bar)
                if end == n:
                    break  # starts ascend: no later anchor reaches φ
                t = times[end]
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
