"""The pruned search pipeline and match-feasibility prechecks."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.enumeration import find_instances, match_is_feasible
from repro.core.matching import find_structural_matches, iter_structural_matches
from repro.core.motif import Motif, paper_motifs
from repro.graph.interaction import InteractionGraph
from repro.graph.timeseries import EdgeSeries


def random_graph(seed, nodes=7, events=60, horizon=60):
    rng = random.Random(seed)
    g = InteractionGraph()
    for _ in range(events):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        g.add_interaction(src, dst, rng.uniform(0, horizon), rng.uniform(0.5, 5))
    return g


class TestMatchIsFeasible:
    def series(self, times, flows=None):
        flows = flows or [1.0] * len(times)
        return EdgeSeries("u", "v", times, flows)

    def test_ordered_chain_feasible(self):
        series = [self.series([1, 5]), self.series([3, 7]), self.series([4, 9])]
        assert match_is_feasible(series, phi=0)

    def test_temporal_dead_end(self):
        # Second edge's events all precede the first edge's earliest.
        series = [self.series([10]), self.series([1, 2, 3])]
        assert not match_is_feasible(series, phi=0)

    def test_tie_blocks_chain(self):
        series = [self.series([5]), self.series([5])]
        assert not match_is_feasible(series, phi=0)

    def test_flow_infeasible(self):
        series = [self.series([1], [2.0]), self.series([2], [0.5])]
        assert not match_is_feasible(series, phi=1.0)
        assert match_is_feasible(series, phi=0.4)


class TestPrunedMatching:
    @pytest.mark.parametrize("seed", range(5))
    def test_pruned_is_feasible_subset(self, seed):
        g = random_graph(seed)
        ts = g.to_time_series()
        motif = Motif.chain(4, delta=15, phi=2)
        full = set()
        for m in find_structural_matches(ts, motif):
            full.add(m.vertex_map)
        pruned = list(iter_structural_matches(ts, motif, delta=15, phi=2))
        assert {m.vertex_map for m in pruned} <= full
        for m in pruned:
            assert match_is_feasible(m.series, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_pruning_keeps_all_instance_bearing_matches(self, seed):
        from repro.core.enumeration import find_instances_in_match

        g = random_graph(seed)
        ts = g.to_time_series()
        motif = Motif.chain(3, delta=12, phi=1)
        pruned_maps = {
            m.vertex_map
            for m in iter_structural_matches(ts, motif, delta=12, phi=1)
        }
        for match in find_structural_matches(ts, motif):
            if find_instances_in_match(match):
                assert match.vertex_map in pruned_maps


def two_phase(engine, motif, **overrides):
    """The paper's two phases: unpruned P1, then P2 over the list."""
    return find_instances(engine.structural_matches(motif), **overrides)


class TestPipelineEngine:
    @pytest.mark.parametrize("seed", range(6))
    def test_pipeline_equals_two_phase(self, seed):
        g = random_graph(seed)
        motif = Motif.chain(3, delta=12, phi=2)
        engine = FlowMotifEngine(g)
        reference = two_phase(engine, motif)
        fused = engine.find_instances(motif)
        assert {i.canonical_key() for i in reference} == {
            i.canonical_key() for i in fused.instances
        }

    def test_pipeline_catalog_on_fixture(self, fig2_graph):
        engine = FlowMotifEngine(fig2_graph)
        for name, motif in paper_motifs(delta=10, phi=5).items():
            reference = two_phase(engine, motif)
            fused = engine.find_instances(motif)
            assert len(reference) == fused.count, name

    def test_pipeline_reports_fewer_matches(self):
        g = random_graph(11, nodes=8, events=50)
        motif = Motif.chain(4, delta=5, phi=3)
        engine = FlowMotifEngine(g)
        fused = engine.find_instances(motif)
        assert fused.num_matches <= len(engine.structural_matches(motif))
        assert fused.count == len(two_phase(engine, motif))

    def test_pipeline_with_overrides(self, fig7_graph):
        engine = FlowMotifEngine(fig7_graph)
        motif = Motif.cycle(3, delta=999, phi=99)
        fused = engine.find_instances(motif, delta=10, phi=5)
        assert fused.count == 1
