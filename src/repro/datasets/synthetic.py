"""Deterministic, laptop-scale stand-ins for the paper's three datasets.

The paper evaluates on the Bitcoin user graph, a Facebook interaction
network and the NYC yellow-taxi passenger-flow network — none of which are
redistributable or downloadable offline. Each generator below reproduces
the properties that drive the algorithms' behaviour (DESIGN.md §2):

* topology character — heavy-tailed hubs (Bitcoin), communities (Facebook),
  a small dense zone grid (Passenger);
* parallel-edge multiplicity and event density per δ-window;
* flow distribution — heavy-tailed BTC amounts, small interaction counts,
  1–6 passengers;
* and crucially **flow correlation along short time-ordered paths**:
  a configurable number of *cascades* (flow-conserving transfers along a
  chain or cycle, each hop split into 1–3 transactions within a tight time
  envelope) are planted on top of background noise. Cascades are what makes
  flow motifs statistically significant — permuting flows destroys them,
  which reproduces the Figure 14 result; their shape (cyclic for Bitcoin,
  chains for Facebook, acyclic corridors for Passenger) reproduces the
  per-dataset z-score patterns the paper reports.

All generators take a ``seed`` and are fully deterministic. ``scale``
multiplies node/event counts for the Figure 13 style scalability sweeps.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Sequence, Tuple

from repro.graph.events import Node
from repro.graph.interaction import InteractionGraph
from repro.graph.transform import bucket_interactions


#: Spanning-path vertex patterns cascades can follow, keyed by shape kind.
#: Patterns are instantiated with distinct random nodes; they cover every
#: Figure 3 motif family so all ten catalog motifs find planted instances.
_SHAPE_PATTERNS: Dict[str, List[Tuple[int, ...]]] = {
    "chain": [(0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5)],
    "cycle": [(0, 1, 2, 0), (0, 1, 2, 3, 0), (0, 1, 2, 3, 4, 0)],
    "cycle_tail": [(0, 1, 2, 0, 3), (0, 1, 2, 3, 0, 4)],  # M(4,4)B / M(5,5)B
    "tail_cycle": [(0, 1, 2, 3, 1), (0, 1, 2, 3, 4, 1)],  # M(4,4)C / M(5,5)C
}


def _random_cascade_path(
    rng: random.Random,
    num_nodes: int,
    shape_weights: Dict[str, float],
) -> List[int]:
    """A concrete cascade route: pick a shape kind, a pattern, and nodes."""
    kinds = list(shape_weights)
    kind = rng.choices(kinds, weights=[shape_weights[k] for k in kinds], k=1)[0]
    pattern = rng.choice(_SHAPE_PATTERNS[kind])
    distinct = max(pattern) + 1
    nodes = rng.sample(range(num_nodes), distinct)
    return [nodes[v] for v in pattern]


def _preferential_targets(rng: random.Random, num_nodes: int, count: int) -> List[int]:
    """Draw ``count`` endpoints with a rich-get-richer bias.

    A simple Zipf-ish sampler: node ``i`` has weight ``1 / (i + 1) ** 0.8``,
    giving the heavy-tailed degree distribution of the Bitcoin user graph.
    """
    weights = [1.0 / (i + 1) ** 0.8 for i in range(num_nodes)]
    return rng.choices(range(num_nodes), weights=weights, k=count)


def _cascade_hop_times(
    rng: random.Random,
    start_time: float,
    hops: int,
    envelope: float,
) -> List[Tuple[float, float]]:
    """Split ``[start_time, start_time + envelope]`` into ``hops`` ordered
    sub-intervals, one per cascade hop (transfers of hop i all precede
    transfers of hop i+1 — the time-respecting requirement)."""
    cuts = sorted(rng.uniform(0.0, envelope) for _ in range(hops - 1))
    bounds = [0.0] + cuts + [envelope]
    return [
        (start_time + bounds[i], start_time + bounds[i + 1])
        for i in range(hops)
    ]


def _plant_cascade(
    out: List[Tuple[Node, Node, float, float]],
    rng: random.Random,
    path: Sequence[Node],
    start_time: float,
    envelope: float,
    amount: float,
    max_splits: int = 3,
    loss: float = 0.05,
) -> List[List[Tuple[float, float]]]:
    """Plant one flow-conserving cascade along ``path``.

    Each hop forwards roughly the incoming amount (minus up to ``loss``
    relative drift), split into 1..``max_splits`` transactions placed
    strictly inside the hop's time sub-interval. Returns per-hop event
    lists for test assertions.
    """
    hops = len(path) - 1
    intervals = _cascade_hop_times(rng, start_time, hops, envelope)
    events_per_hop: List[List[Tuple[float, float]]] = []
    current = amount
    for hop in range(hops):
        lo, hi = intervals[hop]
        width = hi - lo
        splits = rng.randint(1, max_splits)
        # Strictly inside the interval so consecutive hops never tie.
        offsets = sorted(rng.uniform(0.05, 0.95) for _ in range(splits))
        shares = [rng.uniform(0.5, 1.5) for _ in range(splits)]
        share_sum = sum(shares)
        hop_events = []
        for offset, share in zip(offsets, shares):
            t = lo + offset * width
            f = current * share / share_sum
            out.append((path[hop], path[hop + 1], t, f))
            hop_events.append((t, f))
        events_per_hop.append(hop_events)
        current *= 1.0 - rng.uniform(0.0, loss)
    return events_per_hop


def bitcoin_like(
    scale: float = 1.0,
    seed: int = 7,
    horizon: float = 60_000.0,
    cascade_envelope: float = 400.0,
) -> InteractionGraph:
    """A scaled Bitcoin-user-graph stand-in.

    Properties mirrored from the paper's description: heavy-tailed
    transaction amounts averaging a few BTC per edge, rare parallel edges,
    and a *role-structured* sparse topology — most users only ever send
    (consumers) or only receive (merchants/cold wallets), and a small
    fraction (exchanges, mules) relay funds. The role structure is what
    keeps walk counts low in the real network (Table 4 reports *fewer*
    structural matches for longer motifs): a random walk dies whenever it
    hits a non-relaying node. Money-cycling cascades (~55 % of the planted
    cascades close a cycle) reproduce the paper's finding that cyclic flow
    is significant on Bitcoin. The default experiment constraints are
    δ = 600, φ = 5.

    Parameters
    ----------
    scale:
        Multiplies node and event counts (scalability sweeps pass > 1).
    seed:
        RNG seed; equal seeds give identical graphs.
    horizon:
        Length of the simulated timeline ("nine months", scaled).
    cascade_envelope:
        Time envelope of one cascade; below the default δ = 600 so planted
        cascades fit one window.
    """
    rng = random.Random(seed)
    num_nodes = max(24, int(420 * scale))
    num_background = int(1000 * scale)
    num_cascades = int(120 * scale)
    tuples: List[Tuple[Node, Node, float, float]] = []

    # Roles: ~8 % intermediaries relay funds; the rest mostly send or
    # mostly receive. Intermediaries get a zipf-ish activity skew (hubs).
    num_intermediaries = max(4, num_nodes * 8 // 100)
    intermediaries = list(range(num_intermediaries))
    boundary = num_intermediaries + (num_nodes - num_intermediaries) // 2
    senders = list(range(num_intermediaries, boundary))
    receivers = list(range(boundary, num_nodes))

    for _ in range(num_background):
        if rng.random() < 0.22:
            src = intermediaries[
                _preferential_targets(rng, num_intermediaries, 1)[0]
            ]
        else:
            src = rng.choice(senders)
        if rng.random() < 0.20:
            dst = intermediaries[
                _preferential_targets(rng, num_intermediaries, 1)[0]
            ]
        else:
            dst = rng.choice(receivers)
        if src == dst:
            dst = rng.choice(receivers)
        t = rng.uniform(0.0, horizon)
        flow = rng.paretovariate(1.5) * 0.9  # heavy tail, mean ≈ 2.7 BTC
        tuples.append((src, dst, t, flow))

    # Money-cycling dominates the planted shapes (the paper's Bitcoin
    # finding); tails model cash-out after a cycle.
    shape_weights = {"chain": 0.18, "cycle": 0.46, "cycle_tail": 0.18, "tail_cycle": 0.18}
    for _ in range(num_cascades):
        path = _random_cascade_path(rng, num_nodes, shape_weights)
        # Envelopes span the Figure 9 delta grid: larger windows keep
        # discovering slower cascades, as in the paper's rising curves.
        envelope = rng.uniform(0.3, 2.3) * cascade_envelope
        start = rng.uniform(0.0, horizon - envelope)
        amount = rng.uniform(8.0, 30.0)
        _plant_cascade(tuples, rng, path, start, envelope, amount)

    return InteractionGraph.from_tuples(tuples)


def facebook_like(
    scale: float = 1.0,
    seed: int = 11,
    horizon: float = 60_000.0,
    bucket_seconds: float = 30.0,
    cascade_envelope: float = 420.0,
) -> InteractionGraph:
    """A scaled Facebook-interaction-network stand-in.

    Community-structured topology; interactions are likes/messages counted
    per 30-second bucket (the paper's preprocessing — applied here too, so
    flows are small integers averaging ≈ 3 and tied timestamps across
    pairs occur, as in the real pipeline). Information-propagation chains
    are the dominant planted cascades, reproducing the paper's finding
    that chain motifs carry the highest z-scores on Facebook. Default
    experiment constraints: δ = 600, φ = 3.
    """
    rng = random.Random(seed)
    num_nodes = max(24, int(260 * scale))
    num_communities = max(3, int(26 * scale))
    num_background = int(620 * scale)
    num_cascades = int(100 * scale)
    community_of = [rng.randrange(num_communities) for _ in range(num_nodes)]
    members: Dict[int, List[int]] = {}
    for node, community in enumerate(community_of):
        members.setdefault(community, []).append(node)

    raw: List[Tuple[Node, Node, float, float]] = []
    for _ in range(num_background):
        src = rng.randrange(num_nodes)
        pool = members[community_of[src]]
        if rng.random() < 0.8 and len(pool) > 1:
            dst = rng.choice(pool)
            while dst == src:
                dst = rng.choice(pool)
        else:
            dst = rng.randrange(num_nodes)
            while dst == src:
                dst = rng.randrange(num_nodes)
        t = rng.uniform(0.0, horizon)
        # A "session" of 2..5 likes/messages within a couple of minutes.
        for _ in range(rng.randint(2, 5)):
            raw.append((src, dst, t + rng.uniform(0.0, 120.0), 1.0))

    # Propagation chains dominate (the paper's Facebook finding); cascades
    # stay inside a community when it is large enough.
    shape_weights = {"chain": 0.58, "cycle": 0.14, "cycle_tail": 0.14, "tail_cycle": 0.14}
    for _ in range(num_cascades):
        pattern_path = _random_cascade_path(rng, num_nodes, shape_weights)
        distinct = sorted(set(pattern_path))
        community = rng.randrange(num_communities)
        pool = members.get(community, [])
        if len(pool) >= len(distinct):
            chosen = rng.sample(pool, len(distinct))
            remap = dict(zip(distinct, chosen))
            path = [remap[v] for v in pattern_path]
        else:
            path = pattern_path
        envelope = rng.uniform(0.3, 2.3) * cascade_envelope
        start = rng.uniform(0.0, horizon - envelope)
        # Bursts of messages: amount is a message count per hop.
        amount = float(rng.randint(8, 25))
        _plant_cascade(raw, rng, path, start, envelope, amount)

    graph = InteractionGraph.from_tuples(
        (src, dst, t, max(1.0, round(f))) for src, dst, t, f in raw
    )
    return bucket_interactions(graph, bucket_seconds)


def passenger_like(
    scale: float = 1.0,
    seed: int = 13,
    horizon: float = 40_000.0,
    cascade_envelope: float = 700.0,
) -> InteractionGraph:
    """A scaled NYC-taxi passenger-flow stand-in.

    A small, dense zone graph (the real one has 289 zones and ~94 % of
    ordered pairs connected). Flows are passenger counts in 1..6 averaging
    ≈ 1.9. Movement has a directional drift along commuter *corridors*
    (chains of zones with heavy passenger flow inside rush windows), so
    acyclic motifs dominate — the paper's Passenger-network finding.
    Default experiment constraints: δ = 900, φ = 2.
    """
    rng = random.Random(seed)
    grid_w = max(4, int(9 * math.sqrt(scale)))
    grid_h = max(4, int(7 * math.sqrt(scale)))
    num_zones = grid_w * grid_h
    num_trips = int(5600 * scale)
    num_corridors = int(95 * scale)

    def zone(x: int, y: int) -> int:
        return y * grid_w + x

    raw: List[Tuple[Node, Node, float, float]] = []
    for _ in range(num_trips):
        x, y = rng.randrange(grid_w), rng.randrange(grid_h)
        # Drift towards the "downtown" corner keeps the graph largely
        # acyclic in its heavy-flow structure.
        dx = rng.choice((1, 1, 1, 0, -1))
        dy = rng.choice((1, 1, 0, 0, -1))
        nx = min(grid_w - 1, max(0, x + dx))
        ny = min(grid_h - 1, max(0, y + dy))
        if (nx, ny) == (x, y):
            nx = (x + 1) % grid_w
        t = float(rng.randrange(int(horizon)))
        # Ordinary trips are overwhelmingly single riders; the heavy
        # passenger pulses travel along the planted corridors below, which
        # is what makes the flow constraint statistically meaningful
        # (Figure 14): permuting flows scatters the pulses.
        passengers = float(rng.choices((1, 2, 3, 4, 5, 6),
                                       weights=(93, 4, 1.5, 0.8, 0.5, 0.2))[0])
        raw.append((zone(x, y), zone(nx, ny), t, passengers))

    # Mostly drift-following corridors (acyclic — the paper's Passenger
    # finding); a minority of loop services provide cyclic instances.
    shape_weights = {"cycle": 0.55, "cycle_tail": 0.22, "tail_cycle": 0.23}
    for _ in range(num_corridors):
        if rng.random() < 0.70:
            length = rng.randint(3, 5)
            x, y = rng.randrange(grid_w), rng.randrange(grid_h)
            path = [zone(x, y)]
            for _ in range(length - 1):
                x = min(grid_w - 1, x + rng.choice((0, 1, 1)))
                y = min(grid_h - 1, y + rng.choice((0, 1)))
                candidate = zone(x, y)
                if candidate == path[-1]:
                    x = min(grid_w - 1, x + 1)
                    y = min(grid_h - 1, y + 1)
                    candidate = zone(x, y)
                    if candidate == path[-1]:
                        break
                path.append(candidate)
            if len(path) < 3:
                continue
        else:
            path = _random_cascade_path(rng, num_zones, shape_weights)
        envelope = rng.uniform(0.3, 2.3) * cascade_envelope
        start = rng.uniform(0.0, horizon - envelope)
        # A rush-hour pulse: one loaded vehicle per hop. The instance then
        # hinges on the actual passenger loads — flow permutation hands the
        # corridor 1-passenger trips and the aligned chain dies, which is
        # exactly the Figure 14 signal.
        amount = float(rng.randint(4, 7))
        planted: List[Tuple[Node, Node, float, float]] = []
        _plant_cascade(planted, rng, path, start, envelope, amount, max_splits=1)
        # Passenger counts are integers: round each planted event.
        for src, dst, t, f in planted:
            raw.append((src, dst, t, max(1.0, round(f))))

    return InteractionGraph.from_tuples(raw)


def planted_cascade_graph(
    path: Sequence[Node],
    seed: int = 3,
    noise_edges: int = 50,
    num_nodes: int = 12,
    envelope: float = 100.0,
    amount: float = 50.0,
    start_time: float = 500.0,
    horizon: float = 1000.0,
) -> Tuple[InteractionGraph, List[List[Tuple[float, float]]]]:
    """A small graph with exactly one planted cascade, for tests.

    Returns the graph and the per-hop planted events. A search for the
    matching motif with δ >= ``envelope`` and φ at most the cascade amount
    must discover an instance covering the planted events.
    """
    rng = random.Random(seed)
    tuples: List[Tuple[Node, Node, float, float]] = []
    for _ in range(noise_edges):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        while dst == src:
            dst = rng.randrange(num_nodes)
        tuples.append((src, dst, rng.uniform(0.0, horizon), rng.uniform(0.1, 1.0)))
    events = _plant_cascade(tuples, rng, path, start_time, envelope, amount, loss=0.0)
    return InteractionGraph.from_tuples(tuples), events


#: Name → (generator, default δ, default φ) — the registry the experiment
#: harness iterates, mirroring the paper's per-dataset defaults (§6.2).
DATASET_GENERATORS: Dict[str, Tuple[Callable[..., InteractionGraph], float, float]] = {
    "Bitcoin": (bitcoin_like, 600.0, 5.0),
    "Facebook": (facebook_like, 600.0, 3.0),
    "Passenger": (passenger_like, 900.0, 2.0),
}
