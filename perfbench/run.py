"""End-to-end, layer-attributed benchmark of the flow-motif user paths.

Run from the repository root::

    python3 perfbench/run.py --workload find_serial --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

Workloads (inputs from ``gen.py``, seeded by ``--seed``):

* ``find_serial``: ``flow-motifs find FILE`` (jobs=1) on 3*10^4 sparse
  events, ``M(3,2)``, δ=2000, φ=5.
* ``find_parallel``: the same file through ``find --jobs 2`` (process
  backend, shared-memory transport).
* ``store_sweep``: a library session over a segment store built from a
  dense file: ingest, seal, open, then ``M(3,3)`` find at δ=300 and
  δ=1000, count and top-10 (jobs=2), and a serial DP top-1.
* ``stream_replay``: ``flow-motifs stream FILE`` at batch 1 over a
  time-ordered log of 3,000 events; a closed loop with one client.

Each measured iteration runs in a fresh process (``session.py``) and the
run reports medians over its iterations. Times are CPU seconds of the
session and its pool workers (see ``session.py`` for why); the session's
wall-clock time is the per-layer ``wall_s``. Inputs are sized so that one
iteration takes about two seconds on a 2-core machine: a run then holds
enough iterations for its medians to be steady on a shared host. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics, read from the program's spans
plus the benchmark's own spans around each layer's public calls. Every run
checks its outputs (see :func:`_check`); the last stdout line is a JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit code
is non-zero when a check failed.

``expected.json`` holds the seed-0 result counts and digests; rewrite it
with ``--record`` after an intended change to the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from session import WORKLOADS  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
INPUTS = {
    "find_serial": gen.sparse,
    "find_parallel": gen.sparse,
    "store_sweep": gen.dense,
    "stream_replay": gen.stream,
}
# Result counts that must repeat exactly for a seed (and match
# expected.json). Work counts such as ``p1.matches`` are reported, not
# pinned: a correct change may do less work for the same result.
RESULT_COUNTS = ("p2.instances", "count", "top_flow")
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("cpu_s", "s"), ("setup_s", "s"), ("query_s", "s"),
    ("event_p50_ms", "ms"), ("event_p99_ms", "ms"),
    ("peak_rss_mb", "MB"), ("worker_rss_mb", "MB"),
)
PER_LAYER = (
    ("io.parse_s", "s"), ("graph.build_s", "s"), ("graph.series", "count"),
    ("p1.match_s", "s"), ("p1.matches", "count"), ("p1.yield", "ratio"),
    ("p2.enumerate_s", "s"), ("p2.instances", "count"),
    ("p2.count_s", "s"), ("p2.top_k_s", "s"), ("dp.top_one_s", "s"),
    ("parallel.crit_s", "s"), ("parallel.imbalance", "ratio"),
    ("worker.tasks", "count"), ("worker.self_s", "s"),
    ("query.unattributed_s", "s"),
    ("store.ingest_s", "s"), ("store.seal_s", "s"), ("store.open_s", "s"),
    ("store.bytes", "bytes"),
    ("stream.add_s", "s"), ("stream.poll_s", "s"), ("stream.series", "count"),
    ("stream.matches", "count"), ("stream.emitted", "count"),
    ("stream.heap_pushes", "count"), ("stream.heap_pops", "count"),
    ("event.samples", "count"), ("wall_s", "s"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
    ("fail_frac", "ratio"),
)


class ChildError(RuntimeError):
    pass


def _child(workload: str, path: str, mode: str, trace: bool, work: str,
           timeout: float) -> dict:
    """Run one session in a fresh interpreter and return its JSON record."""
    cmd = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", workload, "--input", path, "--mode", mode,
        "--trace", str(int(trace)), "--work", work,
    ]
    # Own process group, so a timeout also stops the session's workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{workload} {mode} session timed out")
    if proc.returncode != 0:
        raise ChildError(f"{workload} {mode} session failed:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _check(workload: str, seed: int, sessions, reference: dict) -> list:
    """Output checks of one run; returns the failures."""
    errors = [e for s in sessions for e in s["errors"]]
    first = sessions[0]
    for s in sessions[1:]:
        if s["digests"] != first["digests"] or any(
            s["counts"].get(k) != first["counts"].get(k) for k in RESULT_COUNTS
        ):
            errors.append("iterations disagree on the result")
    for key, want in reference["reference"].items():
        if first["digests"].get(key) != want:
            errors.append(f"{key}: result differs from the reference path")
    if seed == 0:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh).get(workload)
        if expected is None:
            errors.append("no expected result recorded for seed 0")
        elif expected != _expected_record(first):
            errors.append(f"seed-0 result differs from {EXPECTED}")
    return errors


def _expected_record(session: dict) -> dict:
    return {
        "counts": {k: session["counts"][k] for k in RESULT_COUNTS
                   if k in session["counts"]},
        "digests": session["digests"],
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _event_percentiles(plain) -> dict:
    """p50 and p99 of the service times pooled over a run's sessions.

    A stream run pools ~30,000 samples, so its p99 has ~300 beyond it. A
    batch session contributes one sample, its own time, and the median
    over sessions stands in for both.
    """
    samples = [x for s in plain for x in s["event_ms"]]
    if len(samples) == len(plain):
        return {"event_p50_ms": _median(samples), "event_p99_ms": _median(samples)}
    q = statistics.quantiles(samples, n=100, method="inclusive")
    return {"event_p50_ms": q[49], "event_p99_ms": q[98]}


def _layer_metrics(plain, traced) -> dict:
    """Per-layer metrics: medians over the traced sessions."""
    layers = {k: _median([t["layers"][k] for t in traced])
              for k in traced[0]["layers"]}
    counts = traced[0]["counts"]
    matches = counts.get("p1.matches", 0)
    crit = _median([t["counts"].get("parallel.crit_s", 0.0) for t in traced])
    mean = _median([t["counts"].get("parallel.mean_s", 0.0) for t in traced])
    layers.update({
        "graph.series": counts.get("graph.series", 0),
        "p1.matches": matches,
        "p1.yield": counts.get("p1.hosting", 0) / matches if matches else 0.0,
        "p2.instances": counts.get("p2.instances", 0),
        "parallel.crit_s": crit,
        "parallel.imbalance": crit / mean if mean > 0 else 1.0,
        "store.bytes": counts.get("store.bytes", 0),
        "event.samples": sum(len(s["event_ms"]) for s in plain),
        "wall_s": _median([s["wall_s"] for s in plain]),
        "trace.overhead": _median([t["cpu_s"] for t in traced])
        / _median([s["cpu_s"] for s in plain]),
    })
    for key in ("stream.series", "stream.matches", "stream.emitted",
                "stream.heap_pushes", "stream.heap_pops"):
        layers[key] = counts.get(key, 0)
    return layers


def bench(workload: str, seed: int, seconds: float, trace: bool,
          record: bool = False) -> dict:
    """One benchmark run: iterate for ``seconds``, check, summarize."""
    started = time.perf_counter()
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, "_work"))
    plain, traced, errors = [], [], []
    attempted = 0
    try:
        path = os.path.join(work, "edges.csv")
        gen.write_edges(path, INPUTS[workload](seed))
        begin = time.perf_counter()
        while True:
            # With --trace 1, alternate untraced and traced sessions.
            traced_turn = trace and len(traced) < len(plain)
            t = time.perf_counter()
            remaining = RUN_LIMIT_S - (t - started)
            session = _child(workload, path, "iter", traced_turn, work, remaining)
            last = time.perf_counter() - t
            (traced if traced_turn else plain).append(session)
            attempted += session["ops"]
            elapsed = time.perf_counter() - begin
            if elapsed >= seconds and (traced or not trace):
                break
            if time.perf_counter() - started + 2 * last > RUN_LIMIT_S:
                break
        reference = _child(workload, path, "check", False, work,
                           RUN_LIMIT_S - (time.perf_counter() - started))
        if record:
            _record(workload, plain[0])
        errors = _check(workload, seed, plain + traced, reference)
    except (ChildError, ValueError, KeyError, IndexError) as exc:
        errors.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass
    attempted = max(attempted, 1)
    failed = attempted if errors else 0
    metrics = {}
    if plain and not trace:
        values = _event_percentiles(plain)
        for name, unit in END_TO_END:
            if name not in values:
                values[name] = _median([s[name] for s in plain])
            metrics[name] = {"value": values[name], "unit": unit}
    elif plain and traced:
        layers = _layer_metrics(plain, traced)
        layers["fail_frac"] = failed / attempted
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
    }


def _record(workload: str, session: dict) -> None:
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
    expected[workload] = _expected_record(session)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:14s} {name:22s} {metric['value']:.6g} {metric['unit']}")
    for error in result["errors"]:
        print(f"{workload:14s} CHECK FAILED: {error}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this seed's counts and digests to expected.json")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record and args.seed != 0:
        parser.error("--record stores the seed-0 result")
    if args.workload != "all":
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.record)
        _print_metrics(args.workload, result)
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = bench(workload, args.seed, args.seconds, trace)
            _print_metrics(workload, result)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update(
                {f"{workload}/{k}": v for k, v in result["metrics"].items()}
            )
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
