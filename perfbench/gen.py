"""Seeded input generator for the end-to-end benchmark.

Every file is a time-ordered log (stable sort, so tied events keep their
generation order), which the segment store's ingest path requires. Writes
the three input shapes the workloads read back through the public
``repro.graph.io`` reader, as ``src,dst,time,flow`` edge files:

* ``sparse``: uniform random events over many nodes, integer times with
  ties (the ``find_*`` input).
* ``dense``: few nodes, every ordered pair present (the ``store_sweep``
  input: few, long series).
* ``stream``: a time-ordered event log (the ``stream_replay`` input).

The generator depends on the standard library only, so a change to the
program under test cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import random

# Shapes: event count, node count, time range [0, horizon), flow range.
SPARSE = {"events": 30_000, "nodes": 6_000, "horizon": 300_000, "flow": (1, 9)}
DENSE = {"events": 6_000, "nodes": 30, "horizon": 3_600, "flow": (1, 6)}
STREAM = {"events": 3_000, "nodes": 2_000, "horizon": 30_000, "flow": (1, 9)}


def _rows(rng: random.Random, shape: dict, all_pairs: bool):
    nodes, horizon = shape["nodes"], shape["horizon"]
    low, high = shape["flow"]
    rows = []
    if all_pairs:
        # One event on every ordered pair first, so each pair is a series.
        for u in range(nodes):
            for v in range(nodes):
                if u != v:
                    rows.append((u, v, rng.randrange(horizon), rng.randint(low, high)))
    while len(rows) < shape["events"]:
        u = rng.randrange(nodes)
        v = rng.randrange(nodes - 1)
        v += v >= u  # uniform over v != u
        rows.append((u, v, rng.randrange(horizon), rng.randint(low, high)))
    rows.sort(key=lambda row: row[2])
    return rows


def write_edges(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("src,dst,time,flow\n")
        fh.writelines(f"{u},{v},{t},{f}\n" for u, v, t, f in rows)


def sparse(seed: int):
    return _rows(random.Random(f"sparse-{seed}"), SPARSE, all_pairs=False)


def dense(seed: int):
    return _rows(random.Random(f"dense-{seed}"), DENSE, all_pairs=True)


def stream(seed: int):
    return _rows(random.Random(f"stream-{seed}"), STREAM, all_pairs=False)
