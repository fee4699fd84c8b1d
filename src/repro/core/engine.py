"""The :class:`FlowMotifEngine` facade — the library's main entry point.

Wraps the two-phase algorithm of Section 4 (and its Section 5 variants)
behind one object bound to an interaction graph:

>>> from repro import InteractionGraph, Motif, FlowMotifEngine
>>> g = InteractionGraph.from_tuples([
...     ("a", "b", 1.0, 5.0), ("b", "c", 2.0, 4.0), ("b", "c", 3.0, 2.0),
... ])
>>> engine = FlowMotifEngine(g)
>>> result = engine.find_instances(Motif.chain(3, delta=10, phi=3))
>>> result.count
1
>>> round(result.instances[0].flow, 1)
5.0

Every search runs one streaming pipeline: phase P1 matches come out of the
δ/φ-aware anchor-frontier DFS of :mod:`repro.core.matching` and flow
straight into phase P2, with no intermediate match list. Top-k and the DP
feed their floating threshold (the k-th best and the best flow so far)
back into that frontier as φ. The paper's unpruned phase P1 (Table 4) is
:meth:`FlowMotifEngine.structural_matches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Union

from repro.core import counting as _counting
from repro.core import dp as _dp
from repro.core import enumeration as _enumeration
from repro.core import topk as _topk
from repro.core.instance import MotifInstance
from repro.core.matching import (
    StructuralMatch,
    Threshold,
    find_structural_matches,
    iter_structural_matches,
)
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import TimeSeriesGraph
from repro.obs import metrics as _metrics
from repro.obs.tracing import span as _span
from repro.utils.timing import ShardTimingReport, Timer


@dataclass
class SearchResult:
    """Outcome of a full two-phase instance search.

    Attributes
    ----------
    motif:
        The searched motif.
    instances:
        The maximal instances found (empty when ``collect=False``).
    count:
        Number of instances found (also set when not collecting).
    num_matches:
        Number of δ/φ-feasible structural matches the search examined:
        those where some δ-window could hold an instance. Table 4's
        unpruned count is ``len(engine.structural_matches(motif))``.
        Parallel runs report the sum of per-shard feasible match counts,
        which can differ from the serial count (a match with owned anchors
        in several shards is examined by each of them).
    p1_seconds, p2_seconds:
        Wall-clock time of the two phases. The serial pipeline interleaves
        them and reports its whole time as ``p2_seconds``. Parallel runs
        report aggregate *work* (the sum over shards); the elapsed critical
        path lives in ``shard_timings``.
    shard_timings:
        Per-shard breakdown of a parallel run (None for serial searches);
        see :class:`repro.utils.timing.ShardTimingReport`.
    """

    motif: Motif
    instances: List[MotifInstance] = field(default_factory=list)
    count: int = 0
    num_matches: int = 0
    p1_seconds: float = 0.0
    p2_seconds: float = 0.0
    shard_timings: Optional[ShardTimingReport] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end search time (P1 + P2)."""
        return self.p1_seconds + self.p2_seconds

    def flows(self) -> List[float]:
        """Instance flows, descending (useful for quick inspection)."""
        return sorted((inst.flow for inst in self.instances), reverse=True)


class FlowMotifEngine:
    """Two-phase flow-motif search over one interaction network.

    Parameters
    ----------
    graph:
        Either the raw :class:`InteractionGraph` multigraph or an already
        merged :class:`TimeSeriesGraph`.

    Notes
    -----
    Searches keep no state between calls: each runs its own δ/φ-pruned
    phase P1 (see :mod:`repro.core.matching`).
    """

    def __init__(self, graph: Union[InteractionGraph, TimeSeriesGraph]) -> None:
        if isinstance(graph, InteractionGraph):
            self._ts = graph.to_time_series()
        elif isinstance(graph, TimeSeriesGraph):
            self._ts = graph
        else:
            raise TypeError(
                "graph must be an InteractionGraph or TimeSeriesGraph, "
                f"got {type(graph).__name__}"
            )

    @property
    def time_series_graph(self) -> TimeSeriesGraph:
        """The underlying merged graph ``G_T``."""
        return self._ts

    # ------------------------------------------------------------------
    # Phase P1
    # ------------------------------------------------------------------

    def structural_matches(self, motif: Motif) -> List[StructuralMatch]:
        """All structural matches of the motif: the paper's unpruned phase
        P1 (Table 4, Figure 8). Searches do not use it."""
        return find_structural_matches(self._ts, motif)

    def _feasible_matches(
        self, motif: Motif, delta: Optional[float], phi: Optional[Threshold]
    ) -> Iterator[StructuralMatch]:
        """Phase P1 pruned to the matches that can host an instance under
        the effective δ and φ (a number, None for the motif's own, or a
        live threshold), streamed."""
        return iter_structural_matches(
            self._ts,
            motif,
            delta=motif.delta if delta is None else delta,
            phi=motif.phi if phi is None else phi,
        )

    def parallel(
        self,
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
        backend: str = "process",
        partition_strategy: str = "events",
        use_shared_memory: bool = True,
    ):
        """A :class:`~repro.parallel.ParallelFlowMotifEngine` over the same
        graph — δ-overlap time-sharded search fanned out over ``jobs``
        workers (see :mod:`repro.parallel`). ``use_shared_memory=False``
        disables the process backend's zero-copy columnar transport.

        >>> g = InteractionGraph.from_tuples([("a", "b", 1.0, 5.0),
        ...                                   ("b", "c", 2.0, 4.0)])
        >>> engine = FlowMotifEngine(g)
        >>> pengine = engine.parallel(jobs=1)
        >>> pengine.find_instances(Motif.chain(3, delta=10, phi=0)).count
        1
        """
        from repro.parallel.engine import ParallelFlowMotifEngine

        return ParallelFlowMotifEngine(
            self._ts,
            jobs=jobs,
            shards=shards,
            backend=backend,
            partition_strategy=partition_strategy,
            use_shared_memory=use_shared_memory,
        )

    # ------------------------------------------------------------------
    # Phase P2 entry points
    # ------------------------------------------------------------------

    def find_instances(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        phi: Optional[float] = None,
        collect: bool = True,
        skip_rule: bool = True,
        prefix_pruning: bool = True,
    ) -> SearchResult:
        """Find all maximal instances of ``motif`` (Sections 4, Algorithm 1).

        Parameters
        ----------
        motif:
            The flow motif; its δ/φ apply unless overridden.
        delta, phi:
            Optional per-call constraint overrides.
        collect:
            When False, instances are counted but not retained (for large
            sweeps); ``result.count`` is still exact.
        skip_rule, prefix_pruning:
            Ablation switches (see :mod:`repro.core.enumeration`).
        """
        result = SearchResult(motif=motif)
        counter = [0]

        if collect:
            def sink(instance: MotifInstance) -> None:
                counter[0] += 1
                result.instances.append(instance)
        else:
            def sink(instance: MotifInstance) -> None:
                counter[0] += 1

        with _span(
            "query.find_instances", motif=str(motif), backend="serial"
        ):
            with _span("p2.enumerate"), Timer() as t2:
                _enumeration.find_instances(
                    _counted(self._feasible_matches(motif, delta, phi), result),
                    delta=delta,
                    phi=phi,
                    on_instance=sink,
                    skip_rule=skip_rule,
                    prefix_pruning=prefix_pruning,
                )
            result.p2_seconds = t2.elapsed
        result.count = counter[0]
        _record_counts(result)
        return result

    def count_instances(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        phi: Optional[float] = None,
    ) -> SearchResult:
        """Count maximal instances without constructing them (memoized;
        the Section 7 future-work feature)."""
        result = SearchResult(motif=motif)
        with _span(
            "query.count_instances", motif=str(motif), backend="serial"
        ):
            with _span("p2.count"), Timer() as t2:
                result.count = _counting.count_instances(
                    _counted(self._feasible_matches(motif, delta, phi), result),
                    delta=delta,
                    phi=phi,
                )
            result.p2_seconds = t2.elapsed
        _record_counts(result)
        return result

    def top_k(
        self,
        motif: Motif,
        k: int,
        delta: Optional[float] = None,
    ) -> List[MotifInstance]:
        """The k maximal instances with the largest flow (Section 5)."""
        with _span("p2.top_k"):
            return _topk.top_k_instances(
                lambda bar: self._feasible_matches(motif, delta, bar),
                k,
                delta=delta,
            )

    def top_one_dp(
        self,
        motif: Motif,
        delta: Optional[float] = None,
        method: str = "auto",
    ) -> _dp.TopOneResult:
        """The maximum-flow instance via the DP module (Section 5.1)."""
        return _dp.top_one_instance(
            lambda bar: self._feasible_matches(motif, delta, bar),
            delta=delta,
            method=method,
        )


def _counted(
    matches: Iterable[StructuralMatch], result: SearchResult
) -> Iterator[StructuralMatch]:
    """Pass ``matches`` through, counting them into ``result.num_matches``."""
    for match in matches:
        result.num_matches += 1
        yield match


def _record_counts(result: SearchResult) -> None:
    """Add a search's match and instance counts to the active registry."""
    reg = _metrics.active()
    if reg is not None:
        reg.counter("p1.matches").inc(result.num_matches)
        reg.counter("p2.instances").inc(result.count)
