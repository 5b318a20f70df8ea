"""End-to-end benchmark of the T_GP engine: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chains --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``chains`` -- closed loop, 1 client: a full fixpoint of a seeded
  multi-chain program (the E14 shape with the ``meetK`` self-join).
  Its traced run adds a fixed count of the same runs at
  ``parallelism=2``, the only ops that run the shard pool.
* ``graph`` -- closed loop, 1 client: a goal-directed windowed
  reachability query over a seeded temporal graph of 10^4 edges.
* ``serve`` -- open loop at a fixed rate: run, point-query and write
  (commit + maintain) ops against an in-process query service.

A run sets up the workload (several times; the median counts), warms
up by a fixed op count, then measures for ``--seconds``.  Every answer
is checked after the window, outside the timed interval.  Every time
reported under ``--trace 0`` (set-up, latencies, throughput) is scaled
to a nominal host speed by a reference call timed next to each op
(see :mod:`hostspeed`); the serve workload's open-loop warm-up and
throughput are set by its arrival rate and stay in wall-clock time.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the first half of the window runs untraced and a fixed
op sequence then runs under :class:`layers.LayerTrace`, and the last
line holds the per-layer metrics.  The exit code is 1 when any answer
was wrong.

``--size tiny`` and ``--corrupt`` exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
from multiprocessing import resource_tracker
import os
import random
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

try:
    import hostspeed
    import layers
    import workloads
except ImportError as exc:  # no program under test next to the benchmark
    sys.exit("perfbench: cannot import the program under test: %s" % exc)

WORKLOADS = ("chains", "graph", "serve")
#: The tail percentile reported as ``latency_tail_ms``.  Full-size runs
#: at 35 s hold at least 350 ops per window (175 in the traced run's
#: untraced half), so at least 17 lie beyond it.  It is a per-layer metric, not an
#: end-to-end one: on a shared 2-CPU VM, bursts of contention from
#: other tenants lengthen single ops of the multi-threaded serve workload
#: and of multi-process chains runs at ``parallelism=2`` in ways no
#: reference call sees, so their p90 moved by 30-65% (quartile spread
#: over ten runs) even after scaling, where their medians moved by 7-11%.
TAIL_PCT = 90
SETUP_REPS = 3
#: The op kind of each closed-loop workload's ops.
CLOSED_KIND = {"chains": "run", "graph": "query"}

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "ok_ratio": "ratio",
    "slo_met_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "run_p50_ms": "ms",
    "query_p50_ms": "ms",
    "write_p50_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one expected answer (self-test only)")
    return parser.parse_args(argv)


def build(name, rng, size, corrupt, work_dir):
    if name == "serve":
        return workloads.Serve(rng, work_dir, size=size, corrupt=corrupt)
    if name == "graph":
        return workloads.Graph(rng, size=size, corrupt=corrupt)
    return workloads.Chains(rng, size=size, corrupt=corrupt)


def set_up(args, work_dir):
    """Build the workload ``SETUP_REPS`` times from the same seed; keep
    the last build and return it with the median scaled build time."""
    times, workload = [], None
    for rep in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        workload, seconds = hostspeed.timed(lambda: build(
            args.workload, random.Random(args.seed), args.size,
            args.corrupt, os.path.join(work_dir, "rep%d" % rep)))
        times.append(seconds)
    return workload, layers.median(times)


# -- closed loop -----------------------------------------------------------


def closed_window(workload, next_op, seconds=None, count=None):
    """Run ``next_op()``'s ops back to back for ``seconds`` (or ``count``
    ops), each followed by a reference call; returns one ``(latency_s,
    op, output, error, reference_s)`` record per op."""
    records = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    while (count is None or len(records) < count) and (
        deadline is None or time.perf_counter() < deadline
    ):
        op = next_op()
        op_started = time.perf_counter()
        try:
            output, error = workload.execute(op), None
        except Exception as exc:  # a failed op, counted as such
            output, error = None, exc
        latency = time.perf_counter() - op_started
        records.append((latency, op, output, error, workload.host_reference(op)))
    return records


def scaled_latencies(records):
    """Each record's latency scaled by its own reference call."""
    return [hostspeed.scaled(record[0], record[4]) for record in records]


def closed_outcomes(workload, records):
    """``(scaled latency_s, ok, wrong)`` per record, checked untimed."""
    out = []
    for (_, op, output, error, _), latency in zip(records, scaled_latencies(records)):
        if error is not None:
            print("perfbench: op %r failed: %r" % (op, error), file=sys.stderr)
        ok = error is None and workload.verify(op, output)
        out.append((latency, ok, error is None and not ok))
    return out


# -- shared reporting --------------------------------------------------------


def drift(latencies):
    """Median of the window's second half over its first half."""
    half = len(latencies) // 2
    first = layers.median(latencies[:half])
    return layers.median(latencies[half:]) / first if first else 1.0


def steady_state_note(name, fill_start, fill_end, full_start, full_end, drift_ratio):
    """One stderr line per run; a warning when the window spans a fill."""
    print(
        "perfbench: %s kernel.template_fill start %.4f end %.4f, drift_ratio %.3f"
        % (name, fill_start, fill_end, drift_ratio),
        file=sys.stderr,
    )
    spanned = sorted(full_end - full_start)
    if spanned:
        print(
            "perfbench: WARNING the window spans a template-cache fill (%s)"
            % ", ".join(spanned),
            file=sys.stderr,
        )


def filesystem(path):
    """The filesystem type ``path`` lives on, from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if path.startswith(point) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def end_to_end(latencies_by_kind, oks, slo_ok, attempted, throughput, setup_s):
    """The end-to-end metrics.  Every metric prints on every workload,
    so a workload without ops of some kind (all but ``serve``) reports
    its all-ops median under that kind's ``*_p50_ms``."""
    everything = [v for values in latencies_by_kind.values() for v in values]
    p50 = layers.median(everything) * 1000.0

    def kind_p50(kind):
        values = latencies_by_kind.get(kind)
        return layers.median(values) * 1000.0 if values else p50

    return {
        "latency_p50_ms": p50,
        "throughput_per_s": throughput,
        "ok_ratio": oks / attempted,
        "slo_met_ratio": slo_ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "run_p50_ms": kind_p50("run"),
        "query_p50_ms": kind_p50("query"),
        "write_p50_ms": kind_p50("write"),
    }


def run_closed(args, workload, setup_s, limit_ms):
    rng = random.Random(args.seed * 7919 + 1)

    def next_op():
        return workload.next_op(rng)

    warm = closed_window(workload, next_op, count=workload.warmup)
    setup_s += sum(scaled_latencies(warm))

    window = args.seconds / 2 if args.trace else args.seconds
    fill_start, full_start = layers.template_fill(), layers.full_caches()
    records = closed_window(workload, next_op, seconds=window)
    fill_end, full_end = layers.template_fill(), layers.full_caches()
    latencies = scaled_latencies(records)
    drift_ratio = drift(latencies)
    steady_state_note(args.workload, fill_start, fill_end, full_start, full_end, drift_ratio)
    outcomes = closed_outcomes(workload, records)

    traced_metrics = None
    if args.trace:
        trace_rng = random.Random(args.seed * 7919 + 2)
        with layers.LayerTrace() as trace:
            traced = closed_window(
                workload, lambda: workload.next_op(trace_rng), count=workload.trace_ops)
        queries = len(traced) if args.workload == "graph" else 0
        traced_metrics = trace.metrics(len(traced), jobs=0, queries=queries)
        traced_metrics["shard.run_ms_p50"] = 0.0
        sharded = []
        if args.workload == "chains":
            # The same runs at parallelism=2, traced on their own so the
            # per-op metrics above stay those of the sequential runs.
            with layers.LayerTrace() as shard_trace:
                sharded = closed_window(workload, lambda: 2, count=workload.shard_ops)
            shard_metrics = shard_trace.metrics(len(sharded), jobs=0, queries=0)
            for name in ("shard.dispatches_per_op", "shard.bytes_per_dispatch", "shard.worker_losses"):
                traced_metrics[name] = shard_metrics[name]
            traced_metrics["shard.run_ms_p50"] = layers.median(scaled_latencies(sharded)) * 1000.0
        traced_metrics.update({
            "kernel.template_fill_start": fill_start,
            "kernel.template_fill_end": fill_end,
            "gen.late_ms_p99": 0.0,
            "drift_ratio": drift_ratio,
            "trace.overhead_ratio": layers.median(scaled_latencies(traced)) / layers.median(latencies),
            "latency_tail_ms": layers.percentile(latencies, TAIL_PCT) * 1000.0,
            "host.reference_ms": layers.median([r[4] for r in records]) * 1000.0,
            "host.wall_latency_p50_ms": layers.median([r[0] for r in records]) * 1000.0,
        })
        outcomes += closed_outcomes(workload, traced + sharded)

    attempted = len(outcomes)
    oks = sum(1 for _, ok, _ in outcomes if ok)
    wrong = sum(1 for _, _, bad in outcomes if bad)
    slo_ok = sum(1 for latency, ok, _ in outcomes if ok and latency * 1000.0 <= limit_ms)
    metrics = end_to_end(
        {CLOSED_KIND[args.workload]: latencies},
        oks, slo_ok, attempted, len(records) / sum(latencies), setup_s,
    )
    return metrics, traced_metrics, attempted, attempted - oks, wrong


# -- open loop (serve) -------------------------------------------------------


def run_open(args, workload, setup_s, limit_ms):
    rng = random.Random(args.seed * 7919 + 1)
    started = time.perf_counter()
    workload.run_window(workload.schedule(rng, int(workload.rate * workload.warmup_s)), "warm")
    setup_s += time.perf_counter() - started

    window = args.seconds / 2 if args.trace else args.seconds
    count = max(1, int(workload.rate * window))
    fill_start, full_start = layers.template_fill(), layers.full_caches()
    outcomes = workload.run_window(workload.schedule(rng, count), "m")
    references = workload.references
    fill_end, full_end = layers.template_fill(), layers.full_caches()
    latencies = [o.latency_s for o in outcomes if o.latency_s is not None]
    drift_ratio = drift(latencies)
    steady_state_note(args.workload, fill_start, fill_end, full_start, full_end, drift_ratio)
    finished = [o.due + o.wall_s for o in outcomes if o.wall_s is not None]
    throughput = len(finished) / max(finished) if finished else 0.0

    traced_metrics = None
    all_outcomes = list(outcomes)
    if args.trace:
        trace_ops = workload.schedule(random.Random(args.seed * 7919 + 2), count)
        before = workload.service.stats()["jobs"]
        with layers.LayerTrace() as trace:
            traced = workload.run_window(trace_ops, "t")
        after = workload.service.stats()["jobs"]
        jobs = sum(1 for kind, _ in trace_ops if kind == "run")
        queries = sum(1 for kind, _ in trace_ops if kind == "query")
        traced_metrics = trace.metrics(
            len(traced), jobs=jobs, queries=queries,
            service_stats={key: after.get(key, 0) - before.get(key, 0) for key in ("retries", "shed")},
        )
        traced_latencies = [o.latency_s for o in traced if o.latency_s is not None]
        traced_metrics.update({
            "kernel.template_fill_start": fill_start,
            "kernel.template_fill_end": fill_end,
            "gen.late_ms_p99": layers.percentile([o.late_s for o in outcomes], 99) * 1000.0,
            "drift_ratio": drift_ratio,
            "trace.overhead_ratio": layers.median(traced_latencies) / layers.median(latencies),
            "latency_tail_ms": layers.percentile(latencies, TAIL_PCT) * 1000.0,
            "shard.run_ms_p50": 0.0,
            "host.reference_ms": layers.median([r for _, r in references]) * 1000.0,
            "host.wall_latency_p50_ms": layers.median(
                [o.wall_s for o in outcomes if o.wall_s is not None]) * 1000.0,
        })
        all_outcomes += traced

    by_kind = {}
    for o in outcomes:
        if o.latency_s is not None:
            by_kind.setdefault(o.kind, []).append(o.latency_s)
    attempted = len(all_outcomes)
    oks = sum(1 for o in all_outcomes if o.ok)
    wrong = sum(1 for o in all_outcomes if o.wrong)
    slo_ok = sum(1 for o in all_outcomes if o.ok and o.latency_s * 1000.0 <= limit_ms)
    metrics = end_to_end(by_kind, oks, slo_ok, attempted, throughput, setup_s)
    return metrics, traced_metrics, attempted, attempted - oks, wrong


def stop_children():
    """End every process the run started, and wait for each.

    Shard workers are joined (killed if they outstay the join).
    The shard pool's shared-memory segments also start multiprocessing's
    resource tracker, which would otherwise outlive this process until
    it notices the exit; closing its pipe and reaping it ends it here.
    The tracker holds no segment by then: the pool unlinks them all.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main():
    args = parse_args(sys.argv[1:])
    # Dict and set orders follow the string hash seed; fix it per
    # --seed so the seed alone decides every order in the run.
    hash_seed = str(args.seed % (2 ** 32))
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable] + sys.orig_argv[1:])
    work_dir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    workload = None
    try:
        workload, setup_s = set_up(args, work_dir)
        print("perfbench: work dir on %s" % filesystem(work_dir), file=sys.stderr)
        limit_ms = workloads.LATENCY_LIMIT_MS[args.workload]
        runner = run_open if workload.loop == "open" else run_closed
        metrics, traced, attempted, failed, wrong = runner(args, workload, setup_s, limit_ms)
    finally:
        if workload is not None:
            workload.close()
        stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    if wrong:
        print("perfbench: %d wrong answer(s)" % wrong, file=sys.stderr)
    if args.trace:
        chosen = {name: {"value": traced[name], "unit": unit} for name, unit in layers.UNITS.items()}
    else:
        chosen = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": chosen}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
