"""One benchmark session in a fresh process: ``python3 session.py ...``.

``run.py`` starts this script once per measured iteration, so interpreter
start-up state, caches, worker-pool spawn and peak RSS are what a user of
the CLI or library pays. Modes:

* ``iter``: set up and run the workload's queries the way its user path
  does, timed; optionally traced (``--trace 1``).
* ``check``: the set-up phase, then a reference result computed through
  a different execution path, for ``run.py`` to compare against.

Times are CPU seconds (``time.process_time`` of this process, plus the
user and system time of its reaped pool workers), not wall-clock seconds.
On a shared virtual machine the hypervisor can stop a vCPU for part of a
run; that stolen time inflates wall-clock readings by tens of percent
from one minute to the next, while a Linux guest with paravirtual
steal-time accounting leaves it out of a task's CPU time. For the
single-threaded paths, CPU time equals wall-clock time on an idle host.
The session's wall-clock time is reported as well (per-layer ``wall_s``).

The last stdout line is one JSON object with the measurements, result
counts and a multiset digest of the instances found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Workload parameters (inputs come from gen.py).
FIND = {"motif": "M(3,2)", "delta": 2000.0, "phi": 5.0, "jobs": 2, "limit": 20}
STORE = {"motif": "M(3,3)", "deltas": (300.0, 1000.0), "phi": 8.0, "k": 10, "jobs": 2}
STREAM = {"motif": "M(3,2)", "delta": 2000.0, "phi": 5.0}

WORKLOADS = ("find_serial", "find_parallel", "store_sweep", "stream_replay")


# ----------------------------------------------------------------------
# Result digests and process accounting
# ----------------------------------------------------------------------


def digest(instances) -> str:
    """Order-free digest of an instance multiset (canonical keys)."""
    keys = sorted(repr(instance.canonical_key()) for instance in instances)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


def hosting_matches(instances) -> int:
    """Distinct structural matches (vertex maps) hosting >= 1 instance."""
    return len({instance.vertex_map for instance in instances})


def reap_workers() -> None:
    """Wait for every pool worker to exit, so its rusage is counted.

    Engines shut their pools down without waiting; joining here makes
    ``RUSAGE_CHILDREN`` include every worker before it is read.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def process_usage() -> dict:
    """Peak RSS of this process and its largest reaped worker, and CPU.

    ``cpu_s`` is the CPU time of the whole session, from interpreter
    start-up to the checked result; ``worker_cpu_s`` is the workers' share.
    """
    reap_workers()
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak = me.ru_maxrss / 1024.0  # KiB on Linux
    return {
        "peak_rss_mb": peak,
        # With no workers, this process ran all search work itself.
        "worker_rss_mb": kids.ru_maxrss / 1024.0 if kids.ru_maxrss else peak,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        "worker_cpu_s": kids.ru_utime + kids.ru_stime,
    }


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_layers(spans) -> dict:
    """Per-layer busy time, self time and coverage from one trace.

    Self time is a span's duration minus the union of its children's
    intervals; ``worker.self_s`` and ``query.unattributed_s`` are the
    self times of ``worker.shard_task`` and ``query.*`` spans. Coverage
    is the share of the session root covered by leaf spans.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent_id"], []).append((s["start"], s["end"]))
    busy = {}
    worker_self = query_self = 0.0
    tasks = 0
    root = None
    leaves = []
    for s in spans:
        name, start, end = s["name"], s["start"], s["end"]
        busy[name] = busy.get(name, 0.0) + (end - start)
        kids = children.get(s["span_id"], ())
        self_time = (end - start) - _covered(kids, start, end)
        if name == "worker.shard_task":
            worker_self += self_time
            tasks += 1
        elif name.startswith("query."):
            query_self += self_time
        if name == "bench.session":
            root = s
        elif not kids:
            leaves.append((start, end))
    coverage = 0.0
    if root is not None and root["end"] > root["start"]:
        coverage = _covered(leaves, root["start"], root["end"]) / (
            root["end"] - root["start"]
        )
    g = busy.get
    return {
        "io.parse_s": g("io.parse", 0.0),
        "graph.build_s": g("graph.build", 0.0),
        "p1.match_s": g("p1.match", 0.0),
        "p2.enumerate_s": g("p2.enumerate", 0.0),
        "p2.count_s": g("p2.count", 0.0),
        "p2.top_k_s": g("p2.top_k", 0.0),
        "dp.top_one_s": g("dp.top_one", 0.0),
        "store.ingest_s": g("store.ingest", 0.0),
        "store.seal_s": g("store.seal", 0.0),
        "store.open_s": g("store.open", 0.0),
        "stream.add_s": g("stream.add", 0.0),
        "stream.poll_s": g("stream.poll", 0.0),
        "worker.self_s": worker_self,
        "worker.tasks": tasks,
        "query.unattributed_s": query_self,
        "trace.coverage": coverage,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Session:
    """Timings, counts and check results of one session."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.query_s = 0.0
        self.ops = 0
        self.counts = {}
        self.digests = {}
        self.errors = []
        self.latencies = []
        self.reference = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _find_setup(path: str, parallel: bool):
    """``flow-motifs find FILE [--jobs 2]`` up to the query: parse, build."""
    from repro.core.engine import FlowMotifEngine
    from repro.graph import io as graph_io
    from repro.obs.tracing import span

    with span("io.parse"):
        graph = graph_io.read_csv(path, on_error="raise")
    with span("graph.build"):
        if parallel:
            from repro.parallel import ParallelFlowMotifEngine

            engine = ParallelFlowMotifEngine(
                graph, jobs=FIND["jobs"], shards=None, backend="process",
                use_shared_memory=True,
            )
        else:
            engine = FlowMotifEngine(graph)
    return engine


def find(sess: Session, path: str, mode: str, parallel: bool) -> None:
    from repro.core.motif import Motif

    t0 = time.process_time()
    engine = _find_setup(path, parallel)
    t1 = time.process_time()
    sess.setup_s = t1 - t0
    motif = Motif.from_string(FIND["motif"], FIND["delta"], FIND["phi"])
    if mode == "check":
        # Reference: the other engine over the same built graph.
        graph = engine.time_series_graph
        if parallel:
            engine.close()
            from repro.core.engine import FlowMotifEngine

            other = FlowMotifEngine(graph)
        else:
            other = engine.parallel(jobs=FIND["jobs"])
        try:
            result = other.find_instances(motif)
        finally:
            if hasattr(other, "close"):
                other.close()
        sess.reference["find"] = digest(result.instances)
        return
    try:
        result = engine.find_instances(motif)
        # What the CLI prints: the first --limit instances as JSON lines.
        lines = [json.dumps(i.as_dict()) for i in result.instances[: FIND["limit"]]]
    finally:
        if parallel:
            engine.close()
    t2 = time.process_time()
    sess.query_s = t2 - t1  # run() adds the workers' CPU time
    sess.ops = 1
    sess.check(len(lines) == min(result.count, FIND["limit"]), "short output")
    sess.digests["find"] = digest(result.instances)
    report = result.shard_timings
    sess.counts.update({
        "graph.series": engine.time_series_graph.num_series,
        "p1.matches": result.num_matches,
        "p1.hosting": hosting_matches(result.instances),
        "p2.instances": result.count,
        "parallel.crit_s": report.max_seconds if report else 0.0,
        "parallel.mean_s": report.mean_seconds if report else 0.0,
    })


def store_sweep(sess: Session, path: str, mode: str, work: str) -> None:
    """Library session over a segment store: ingest, seal, open, query."""
    from repro.core.engine import FlowMotifEngine
    from repro.core.motif import Motif
    from repro.graph import io as graph_io
    from repro.graph.segments import SegmentStore
    from repro.obs.tracing import span

    root = os.path.join(work, f"store-{os.getpid()}")
    t0 = time.process_time()
    with span("io.parse"):
        rows = list(graph_io.iter_csv_interactions(path, on_error="raise"))
    with span("store.ingest"):
        store = SegmentStore(root)
        store.extend(rows)
    with span("store.seal"):
        store.seal()
    with span("store.open"):
        graph = SegmentStore(root, create=False).search_graph()
    t1 = time.process_time()
    sess.setup_s = t1 - t0
    store_bytes = sum(
        os.path.getsize(os.path.join(root, name)) for name in os.listdir(root)
    )
    motif = Motif.from_string(STORE["motif"], STORE["deltas"][-1], STORE["phi"])
    if mode == "check":
        # Reference: the serial engine over the edge file, no store.
        del graph
        shutil.rmtree(root)
        serial = FlowMotifEngine(graph_io.read_csv(path))
        for delta in STORE["deltas"]:
            found = serial.find_instances(motif, delta=delta)
            sess.reference[f"find@{delta:g}"] = digest(found.instances)
        return
    from repro.parallel import ParallelFlowMotifEngine

    engine = ParallelFlowMotifEngine(graph, jobs=STORE["jobs"])
    found = {}
    try:
        for delta in STORE["deltas"]:
            found[delta] = engine.find_instances(motif, delta=delta)
        counted = engine.count_instances(motif)
        top = engine.top_k(motif, STORE["k"])
    finally:
        engine.close()
    with span("dp.top_one"):
        best = FlowMotifEngine(graph).top_one_dp(motif)
    t2 = time.process_time()
    sess.query_s = t2 - t1  # run() adds the workers' CPU time
    sess.ops = len(STORE["deltas"]) + 3
    shutil.rmtree(root)

    last = found[STORE["deltas"][-1]]
    keys = {i.canonical_key() for i in last.instances}
    best_flows = sorted((i.flow for i in last.instances), reverse=True)
    sess.check(counted.count == last.count, "count != find")
    sess.check(
        sorted((i.flow for i in top), reverse=True) == best_flows[: STORE["k"]]
        and all(i.canonical_key() in keys for i in top),
        "top_k != best of find",
    )
    sess.check(bool(top) and best.flow == top[0].flow, "dp flow != top_k[0]")
    reports = [r.shard_timings for r in (*found.values(), counted) if r.shard_timings]
    for delta, result in found.items():
        sess.digests[f"find@{delta:g}"] = digest(result.instances)
    sess.counts.update({
        "graph.series": graph.num_series,
        "p1.matches": sum(r.num_matches for r in found.values()),
        "p1.hosting": sum(hosting_matches(r.instances) for r in found.values()),
        "p2.instances": sum(r.count for r in found.values()),
        "parallel.crit_s": sum(r.max_seconds for r in reports),
        "parallel.mean_s": sum(r.mean_seconds for r in reports),
        "store.bytes": store_bytes,
        "count": counted.count,
        "top_flow": best.flow,
    })


def stream_replay(sess: Session, path: str, mode: str) -> None:
    """``flow-motifs stream FILE`` at batch 1: a closed loop, one client."""
    from repro.core.motif import Motif
    from repro.core.streaming import StreamingDetector
    from repro.graph import io as graph_io
    from repro.obs.tracing import span

    motif = Motif.from_string(STREAM["motif"], STREAM["delta"], STREAM["phi"])
    detector = StreamingDetector(motif, mode="incremental", slack=0.0, late="drop")
    # Start-up: the interpreter, importing the streaming stack and building
    # the detector, what the CLI pays before its first event.
    sess.setup_s = time.process_time()
    if mode == "check":
        from repro.core.engine import FlowMotifEngine

        offline = FlowMotifEngine(graph_io.read_csv(path)).find_instances(motif)
        sess.reference["stream"] = digest(offline.instances)
        return
    emitted, latencies = [], []
    busy = 0.0
    adds = polls = 0
    rows = graph_io.iter_csv_interactions(path, on_error="skip")
    # The CLI prints every emitted instance as a flushed JSON line; the
    # benchmark writes the same lines to the null device.
    with open(os.devnull, "w", encoding="utf-8") as out:

        def drain(batch) -> None:
            for instance in batch:
                print(json.dumps(instance.as_dict()), file=out, flush=True)
            emitted.extend(batch)

        while True:
            # The CLI reads each row inside its loop; time the reader apart.
            with span("io.parse"):
                it = next(rows, None)
            if it is None:
                break
            a = time.process_time()
            with span("stream.add"):
                accepted = detector.add(it.src, it.dst, it.time, it.flow)
            adds += 1
            if not accepted:
                # The CLI skips the poll for a refused event.
                busy += time.process_time() - a
                sess.check(False, "event dropped")
                continue
            with span("stream.poll"):
                drain(detector.poll())
            polls += 1
            b = time.process_time()
            latencies.append(b - a)
            busy += b - a
        a = time.process_time()
        with span("stream.poll"):
            drain(detector.flush())
        busy += time.process_time() - a
    sess.query_s = busy
    sess.ops = adds + polls + 1
    sess.latencies = latencies
    sess.digests["stream"] = digest(emitted)
    counters = detector.metrics().snapshot()
    c, gauges = counters["counters"], counters["gauges"]
    sess.counts.update({
        "graph.series": gauges["stream.pairs"],
        "p1.matches": detector.match_count,
        "p1.hosting": hosting_matches(emitted),
        "p2.instances": len(emitted),
        "stream.series": gauges["stream.pairs"],
        "stream.matches": gauges["stream.matches"],
        "stream.emitted": c["stream.emitted"],
        "stream.heap_pushes": c["stream.heap_pushes"],
        "stream.heap_pops": c["stream.heap_pops"],
    })
    sess.check(len(emitted) == c["stream.emitted"], "emitted count mismatch")


def run(workload: str, path: str, mode: str, trace: bool, work: str,
        t_start: float) -> dict:
    from repro import obs
    from repro.obs import tracing

    sess = Session()
    t0 = time.perf_counter()
    with obs.observe(trace=True) if trace else contextlib.nullcontext() as observation:
        with tracing.span("bench.session", workload=workload):
            if workload in ("find_serial", "find_parallel"):
                find(sess, path, mode, workload == "find_parallel")
            elif workload == "store_sweep":
                store_sweep(sess, path, mode, work)
            else:
                stream_replay(sess, path, mode)
    wall = time.perf_counter() - t0
    if workload == "stream_replay":
        wall += t0 - t_start  # the start-up imports precede the session
    out = {
        "mode": mode,
        "setup_s": sess.setup_s,
        "query_s": sess.query_s,
        "wall_s": wall,
        "ops": sess.ops,
        "counts": sess.counts,
        "digests": sess.digests,
        "reference": sess.reference,
        "errors": sess.errors,
    }
    out.update(process_usage())
    if mode == "iter" and workload != "stream_replay":
        out["query_s"] += out["worker_cpu_s"]  # pool workers run only in queries
    # Per-event service times; run.py pools them over a run's sessions.
    # Batch: every event's result arrives when the whole session ends.
    out["event_ms"] = [x * 1e3 for x in sess.latencies] or [out["cpu_s"] * 1e3]
    if observation is not None:
        out["layers"] = span_layers(observation.spans())
    return out


def main() -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--mode", choices=("iter", "check"), default="iter")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out = run(args.workload, args.input, args.mode, bool(args.trace),
              args.work, t_start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
