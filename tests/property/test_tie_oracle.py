"""Tie-heavy differential test of every search path against the oracle.

Integer timestamps in ``[0, 4]`` make tied events the common case, δ is
drawn from ``{0}`` and the actual inter-event gaps (so windows end exactly
on events), and the parallel engine cuts the timeline both at event-count
quantiles (cuts on events) and into equal widths (cores holding no event).
Every search path must equal the brute-force oracle of
:mod:`repro.baselines.bruteforce` as a canonical-key multiset:

* serial find and count;
* top-k against the sorted φ = 0 find and, as an ordered list of
  canonical keys, against top-k over the unpruned match list (no floating
  threshold in phase P1); the DP top-1 flow against the best instance;
* thread-backend parallel find, count and top-k over 1–8 shards;
* process-backend find, count and top-k over 2–4 shards through both
  column transports: the shared-memory ``"columnar"`` envelope, and a
  sealed :class:`~repro.graph.segments.SegmentStore` (the ``"segment"``
  envelope). Their workers slice the store's columns themselves;
* :class:`~repro.parallel.BatchRunner` groups whose members differ in φ
  (their shared phase P1 prunes with the smallest), serial and sharded.

φ is drawn from the flows of actual contiguous runs, so edge-sets whose
flow equals φ exactly are common. The δ/φ-aware phase P1 is checked
directly as well: its matches are a subset of the unpruned ones, and it
keeps every match hosting an oracle instance. With float flows (0.1, 0.2,
…), whose sums round, every serial path must equal the same path run over
the unpruned match list.
"""

from __future__ import annotations

import math
import tempfile
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.baselines.bruteforce import brute_force_instances
from repro.core.counting import count_instances
from repro.core.dp import top_one_instance
from repro.core.engine import FlowMotifEngine
from repro.core.enumeration import find_instances
from repro.core.matching import (
    find_structural_matches,
    iter_structural_matches,
    phi_run_end,
)
from repro.core.motif import Motif
from repro.core.topk import top_k_instances
from repro.graph.interaction import InteractionGraph
from repro.graph.segments import SegmentStore
from repro.graph.timeseries import EdgeSeries
from repro.parallel import BatchRunner, MotifConfig, ParallelFlowMotifEngine

#: Spanning paths of M(2,1), M(3,2), M(3,3) and M(4,3).
SHAPES = [(0, 1), (0, 1, 2), (0, 1, 2, 0), (0, 1, 2, 3)]


#: Flows whose sums round in binary floating point.
FLOAT_FLOWS = st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.7])


@st.composite
def cases(draw, flows=st.integers(1, 4)):
    num_nodes = draw(st.integers(2, 4))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(1, num_nodes - 1),  # dst offset: no self-loops
                st.integers(0, 4),
                flows,
            ).map(lambda e: (e[0], (e[0] + e[1]) % num_nodes, e[2], e[3])),
            min_size=1,
            max_size=10,
        )
    )
    times = sorted({t for _, _, t, _ in events})
    gaps = sorted({b - a for a in times for b in times if b > a})
    delta = draw(st.sampled_from([0] + gaps))
    graph = InteractionGraph.from_tuples(events)
    phi = draw(st.sampled_from([0] + run_flows(graph)))
    motif = Motif(draw(st.sampled_from(SHAPES)), delta, phi)
    return graph, motif


def run_flows(graph):
    """The flow of every contiguous run of every series, computed the way
    phase P2 does (a prefix-sum difference)."""
    return sorted(
        {
            series.flow_between(lo, hi)
            for series in graph.to_time_series().all_series()
            for lo in range(len(series))
            for hi in range(lo, len(series))
        }
    )


def keys(instances):
    return Counter(i.canonical_key() for i in instances)


def key_flow(key):
    """Instance flow of an oracle key: the smallest edge-set flow."""
    return min(sum(f for _, f in edge_set) for edge_set in key[1])


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_serial_paths_equal_oracle(case):
    graph, motif = case
    ts = graph.to_time_series()
    oracle = brute_force_instances(ts, motif)
    engine = FlowMotifEngine(graph)

    found = engine.find_instances(motif)
    assert keys(found.instances) == Counter(oracle)
    assert engine.count_instances(motif).count == len(oracle)

    # Top-k and DP ignore φ: compare them with the φ = 0 search.
    unfiltered = engine.find_instances(motif, phi=0)
    oracle0 = brute_force_instances(ts, motif, phi=0)
    assert keys(unfiltered.instances) == Counter(oracle0)
    flows = sorted((i.flow for i in unfiltered.instances), reverse=True)
    assert flows == sorted(map(key_flow, oracle0), reverse=True)
    unpruned = find_structural_matches(ts, motif)
    for k in (1, 3):
        top = engine.top_k(motif, k)
        assert [i.flow for i in top] == flows[:k]
        assert all(i.canonical_key() in oracle0 for i in top)
        assert ordered_keys(top) == ordered_keys(top_k_instances(unpruned, k))
    assert engine.top_one_dp(motif).flow == (flows[0] if flows else 0.0)


def ordered_keys(instances):
    return [i.canonical_key() for i in instances]


@settings(max_examples=300, deadline=None)
@given(flows=st.lists(FLOAT_FLOWS, min_size=1, max_size=8))
def test_phi_run_end_equals_linear_scan(flows):
    # Every run flow, and the floats just around it, as φ: the frontier's
    # run end must be the first one phase P2's subtraction accepts.
    series = EdgeSeries("a", "b", list(range(len(flows))), flows)
    n = len(series)
    for phi in run_flows(InteractionGraph.from_tuples(
        ("a", "b", t, f) for t, f in series
    )):
        for bar in (math.nextafter(phi, 0), phi, math.nextafter(phi, math.inf)):
            for start in range(n):
                expected = next(
                    (
                        end
                        for end in range(start, n)
                        if series.flow_between(start, end) >= bar
                    ),
                    n,
                )
                assert phi_run_end(series._cum, start, bar) == expected


@settings(max_examples=150, deadline=None)
@given(case=cases(FLOAT_FLOWS))
def test_float_flows_equal_unpruned_pipeline(case):
    graph, motif = case
    ts = graph.to_time_series()
    unpruned = find_structural_matches(ts, motif)
    engine = FlowMotifEngine(graph)

    reference = find_instances(unpruned)
    assert keys(engine.find_instances(motif).instances) == keys(reference)
    assert engine.count_instances(motif).count == count_instances(unpruned)
    for k in (1, 3):
        assert ordered_keys(engine.top_k(motif, k)) == ordered_keys(
            top_k_instances(unpruned, k)
        )
    best = max((i.flow for i in find_instances(unpruned, phi=0)), default=0.0)
    assert engine.top_one_dp(motif).flow == best
    assert top_one_instance(unpruned).flow == best

    pruned = Counter(
        m.vertex_map
        for m in iter_structural_matches(
            ts, motif, delta=motif.delta, phi=motif.phi
        )
    )
    assert pruned <= Counter(m.vertex_map for m in unpruned)
    assert {i.vertex_map for i in reference} <= set(pruned)


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_pruned_matches_keep_every_hosting_match(case):
    graph, motif = case
    ts = graph.to_time_series()
    oracle = brute_force_instances(ts, motif)
    pruned = Counter(
        m.vertex_map
        for m in iter_structural_matches(
            ts, motif, delta=motif.delta, phi=motif.phi
        )
    )
    unpruned = Counter(m.vertex_map for m in find_structural_matches(ts, motif))
    assert pruned <= unpruned
    assert {key[0] for key in oracle} <= set(pruned)


@settings(max_examples=100, deadline=None)
@given(
    case=cases(),
    shards=st.integers(1, 8),
    strategy=st.sampled_from(["events", "width"]),
)
def test_parallel_paths_equal_oracle(case, shards, strategy):
    graph, motif = case
    ts = graph.to_time_series()
    oracle = brute_force_instances(ts, motif)
    serial_top = FlowMotifEngine(graph).top_k(motif, 3)
    with ParallelFlowMotifEngine(
        graph, jobs=2, shards=shards, backend="thread",
        partition_strategy=strategy,
    ) as engine:
        assert keys(engine.find_instances(motif).instances) == Counter(oracle)
        assert engine.count_instances(motif).count == len(oracle)
        top = engine.top_k(motif, 3)
    assert [i.flow for i in top] == [i.flow for i in serial_top]


@settings(max_examples=60, deadline=None)
@given(case=cases(), shards=st.integers(1, 4), extra=st.integers(0, 3))
def test_batch_phi_group_equals_oracle(case, shards, extra):
    graph, motif = case
    ts = graph.to_time_series()
    flows = [0] + run_flows(graph)
    phis = sorted({0, motif.phi, flows[min(extra, len(flows) - 1)]})
    configs = [MotifConfig(motif, phi=phi) for phi in phis]
    serial = BatchRunner(graph, jobs=1).run(configs)
    sharded = BatchRunner(
        graph, jobs=2, shards=shards, backend="thread"
    ).run(configs)
    for phi, one, many in zip(phis, serial, sharded):
        oracle = Counter(brute_force_instances(ts, motif, phi=phi))
        assert keys(one.instances) == oracle
        assert keys(many.instances) == oracle


def _process_oracle_check(graph, search_graph, motif, shards, strategy, kind):
    """Process-backend find, count and top-k over ``search_graph`` must
    equal the oracle on ``graph``, with the workers fed through envelope
    ``kind``."""
    ts = graph.to_time_series()
    oracle = brute_force_instances(ts, motif)
    oracle0 = brute_force_instances(ts, motif, phi=0)
    serial_top = FlowMotifEngine(ts).top_k(motif, 3)
    with ParallelFlowMotifEngine(
        search_graph, jobs=2, shards=shards, backend="process",
        partition_strategy=strategy,
    ) as engine:
        partition = engine.partition(motif.delta)
        if len(partition) > 1:
            (task, *_) = engine._shard_tasks(partition, "count", motif)
            assert task[0] == kind
        assert keys(engine.find_instances(motif).instances) == Counter(oracle)
        assert engine.count_instances(motif).count == len(oracle)
        top = engine.top_k(motif, 3)
    assert [i.flow for i in top] == [i.flow for i in serial_top]
    assert all(i.canonical_key() in oracle0 for i in top)


@settings(max_examples=40, deadline=None)
@given(
    case=cases(),
    shards=st.integers(2, 4),
    strategy=st.sampled_from(["events", "width"]),
)
def test_process_shm_transport_equals_oracle(case, shards, strategy):
    graph, motif = case
    _process_oracle_check(graph, graph, motif, shards, strategy, "columnar")


@settings(max_examples=30, deadline=None)
@given(
    case=cases(),
    shards=st.integers(2, 4),
    strategy=st.sampled_from(["events", "width"]),
)
def test_process_segment_transport_equals_oracle(case, shards, strategy):
    graph, motif = case
    with tempfile.TemporaryDirectory() as root:
        store = SegmentStore(root)
        # Per-pair appends must be time-ordered; a stable sort keeps tied
        # events in the order the in-memory series holds them.
        store.extend(
            (it.src, it.dst, it.time, it.flow)
            for it in sorted(graph.interactions(), key=lambda it: it.time)
        )
        store.seal()
        search_graph = SegmentStore(root, create=False).search_graph()
        _process_oracle_check(
            graph, search_graph, motif, shards, strategy, "segment"
        )
