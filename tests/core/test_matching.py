"""Phase P1: structural spanning-path matching."""

from __future__ import annotations

import pytest

from repro.core.enumeration import find_instances
from repro.core.matching import (
    find_structural_matches,
    iter_structural_matches,
    phi_run_end,
)
from repro.core.motif import Motif
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries


def graph_of(*pairs):
    """A graph with one unit interaction per given (src, dst) pair."""
    g = InteractionGraph()
    for i, (src, dst) in enumerate(pairs):
        g.add_interaction(src, dst, float(i), 1.0)
    return g


class TestChainMatching:
    def test_simple_chain(self):
        ts = graph_of(("a", "b"), ("b", "c")).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(3, 1))
        assert [m.walk for m in matches] == [("a", "b", "c")]

    def test_branching_counts(self):
        ts = graph_of(
            ("a", "b"), ("b", "c"), ("b", "d"), ("b", "e")
        ).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(3, 1))
        assert {m.walk for m in matches} == {
            ("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e"),
        }

    def test_injectivity_blocks_revisits(self):
        # a→b→a is NOT a match of the 3-chain (v0 and v2 are distinct
        # motif vertices and must map to distinct graph vertices).
        ts = graph_of(("a", "b"), ("b", "a")).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(3, 1))
        assert matches == []

    def test_two_cycle_motif_matches_back_and_forth(self):
        ts = graph_of(("a", "b"), ("b", "a")).to_time_series()
        matches = find_structural_matches(ts, Motif.cycle(2, 1))
        assert {m.walk for m in matches} == {("a", "b", "a"), ("b", "a", "b")}

    def test_deterministic_order(self):
        g = graph_of(("b", "c"), ("a", "b"), ("c", "d"))
        ts = g.to_time_series()
        first = [m.walk for m in find_structural_matches(ts, Motif.chain(3, 1))]
        second = [m.walk for m in find_structural_matches(ts, Motif.chain(3, 1))]
        assert first == second
        assert first == sorted(first, key=repr)


class TestCycleMatching:
    def test_triangle_rotations(self):
        ts = graph_of(("a", "b"), ("b", "c"), ("c", "a")).to_time_series()
        matches = find_structural_matches(ts, Motif.cycle(3, 1))
        assert {m.walk for m in matches} == {
            ("a", "b", "c", "a"), ("b", "c", "a", "b"), ("c", "a", "b", "c"),
        }

    def test_no_triangle_no_match(self):
        ts = graph_of(("a", "b"), ("b", "c"), ("a", "c")).to_time_series()
        assert find_structural_matches(ts, Motif.cycle(3, 1)) == []

    def test_cycle_closure_checks_edge_existence(self):
        # Path a→b→c→d exists, but d→a doesn't: no 4-cycle.
        ts = graph_of(("a", "b"), ("b", "c"), ("c", "d")).to_time_series()
        assert find_structural_matches(ts, Motif.cycle(4, 1)) == []


class TestVariantMatching:
    def test_cycle_with_tail(self):
        # M(4,4)B: v0→v1→v2→v0→v3.
        motif = Motif([0, 1, 2, 0, 3], delta=1)
        ts = graph_of(
            ("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")
        ).to_time_series()
        matches = find_structural_matches(ts, motif)
        assert {m.walk for m in matches} == {("a", "b", "c", "a", "d")}

    def test_tail_into_cycle(self):
        # M(4,4)C: v0→v1→v2→v3→v1.
        motif = Motif([0, 1, 2, 3, 1], delta=1)
        ts = graph_of(
            ("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")
        ).to_time_series()
        matches = find_structural_matches(ts, motif)
        assert {m.walk for m in matches} == {("x", "a", "b", "c", "a")}

    def test_tail_vertex_must_differ_from_cycle(self):
        # Only a triangle, no distinct tail vertex available.
        motif = Motif([0, 1, 2, 0, 3], delta=1)
        ts = graph_of(("a", "b"), ("b", "c"), ("c", "a")).to_time_series()
        assert find_structural_matches(ts, motif) == []


class TestMatchContents:
    def test_series_follow_motif_edges(self, fig2_graph):
        ts = fig2_graph.to_time_series()
        motif = Motif.cycle(3, delta=10)
        for match in find_structural_matches(ts, motif):
            for i, series in enumerate(match.series):
                msrc, mdst = motif.edge(i)
                assert series.src == match.vertex_map[msrc]
                assert series.dst == match.vertex_map[mdst]

    def test_match_equality(self):
        ts = graph_of(("a", "b"), ("b", "c")).to_time_series()
        m1, = find_structural_matches(ts, Motif.chain(3, 1))
        m2, = find_structural_matches(ts, Motif.chain(3, 1))
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_empty_graph(self):
        ts = InteractionGraph().to_time_series()
        assert find_structural_matches(ts, Motif.chain(3, 1)) == []

    def test_single_edge_motif(self):
        ts = graph_of(("a", "b"), ("c", "d")).to_time_series()
        matches = find_structural_matches(ts, Motif.chain(2, 1))
        assert {m.walk for m in matches} == {("a", "b"), ("c", "d")}


def chain4(e1, e2, e3):
    """The a→b→c→d chain graph with the given events on its three pairs:
    times (unit flow) or ``(time, flow)`` pairs."""
    g = InteractionGraph()
    pairs = (("a", "b"), ("b", "c"), ("c", "d"))
    for (src, dst), events in zip(pairs, (e1, e2, e3)):
        for event in events:
            t, f = event if isinstance(event, tuple) else (event, 1.0)
            g.add_interaction(src, dst, float(t), f)
    return g.to_time_series()


def kept(ts, delta, anchor_range=None, phi=0.0):
    """Whether the δ-aware P1 keeps the a→b→c→d chain match."""
    motif = Motif.chain(4, delta)
    return any(
        m.walk == ("a", "b", "c", "d")
        for m in iter_structural_matches(
            ts, motif, delta=delta, phi=phi, anchor_range=anchor_range
        )
    )


class TestAnchorFrontier:
    def test_window_ending_exactly_at_delta_is_kept(self):
        assert kept(chain4([0], [1], [2]), delta=2)
        assert not kept(chain4([0], [1], [2]), delta=1.5)

    def test_ties_do_not_chain(self):
        # Strictly later: a tie between consecutive edges is no chain.
        assert not kept(chain4([0], [1], [1]), delta=10)
        assert not kept(chain4([0], [1], [1, 5]), delta=3)

    def test_later_anchor_rescues_the_match(self):
        # From anchor 0 the chain ends at 3 > 0 + 2; from anchor 1 it fits.
        # Both anchors reach 2 on the second edge: the merge keeps 1.
        assert kept(chain4([0, 1], [2], [3]), delta=2)

    def test_earlier_anchor_survives_a_dead_later_one(self):
        # Anchor 3 has no later second-edge element; anchor 0 still chains.
        assert kept(chain4([0, 3], [1], [2]), delta=2)

    def test_chain_outside_every_window_is_pruned(self):
        # A δ-blind greedy chain exists (0 → 5 → 10) but spans 10 > δ.
        ts = chain4([0], [5], [10])
        assert not kept(ts, delta=9)
        assert len(find_structural_matches(ts, Motif.chain(4, 9))) == 1

    def test_anchor_range_is_half_open(self):
        ts = chain4([0, 4], [5], [6])
        assert kept(ts, delta=2, anchor_range=(4, 5))
        assert not kept(ts, delta=2, anchor_range=(0, 4))
        assert not kept(ts, delta=10, anchor_range=(1, 4))

    def test_phi_extends_the_chain_past_delta(self):
        # Edge 2 needs both its elements (flow 1 + 1) to reach φ = 2, so
        # the chain from anchor 0 ends at 3 and the last edge at 4; with
        # φ = 1 it ends at 1 and the last edge at 2.
        ts = chain4([(0, 2)], [1, 3], [(2, 2), (4, 2)])
        assert kept(ts, delta=4, phi=2)
        assert not kept(ts, delta=3.5, phi=2)
        assert kept(ts, delta=3.5, phi=1)  # one element suffices

    def test_phi_on_the_first_edge_starts_at_the_anchor(self):
        # From anchor 0 the first edge needs 0 and 1 (flow 2); from anchor
        # 1 it has flow 1 only, so that anchor dies.
        ts = chain4([0, 1], [(2, 2)], [(3, 2)])
        assert kept(ts, delta=3, phi=2)
        assert not kept(ts, delta=2.5, phi=2)

    def test_phi_equal_to_a_run_flow_is_kept(self):
        # φ equals the flow 2 + 3 of edge 2's whole run, computed exactly.
        ts = chain4([(0, 5)], [(1, 2), (2, 3)], [(3, 5)])
        assert kept(ts, delta=3, phi=5)
        assert not kept(ts, delta=3, phi=5.5)  # no run reaches it

    def test_rounding_guard_agrees_with_flow_between(self):
        # cum = [0, 0.3, 0.5, 0.9]; the run [1, 2] has flow
        # cum[3] - cum[1] = 0.6000000000000001 in floats, but
        # cum[1] + 0.6000000000000001 rounds up past cum[3], so a plain
        # bisection on the sum would find no run at all.
        series = EdgeSeries("b", "c", [1.0, 2.0, 3.0], [0.3, 0.2, 0.4])
        phi = series.flow_between(1, 2)
        assert series._cum[1] + phi > series._cum[3]
        assert phi_run_end(series._cum, 1, phi) == 2
        assert phi_run_end(series._cum, 1, phi + 1e-9) == 3  # none: len
        assert phi_run_end(series._cum, 0, 0.3) == 0
        assert phi_run_end(series._cum, 0, 0.30000000000000004) == 1

    def test_rounding_guard_keeps_the_p2_instance(self):
        ts = chain4([(0, 1)], [(1, 0.3), (2, 0.2), (3, 0.4)], [(4, 1)])
        series = ts.series("b", "c")
        phi = series.flow_between(1, 2)  # 0.6000000000000001
        motif = Motif.chain(4, delta=4, phi=phi)
        matches = list(iter_structural_matches(ts, motif, delta=4, phi=phi))
        assert [m.walk for m in matches] == [("a", "b", "c", "d")]
        assert len(find_instances(find_structural_matches(ts, motif))) == 1
        assert len(find_instances(matches)) == 1

    def test_floating_phi_is_read_once_per_extension(self):
        ts = chain4([(0, 2)], [1, 3], [(4, 2)])
        reads = []

        def bar():
            reads.append(None)
            return 2.0

        assert kept(ts, delta=4, phi=bar)
        assert len(reads) == 3  # one extension per motif edge
        assert not kept(ts, delta=3.5, phi=lambda: 2.0)
