"""Per-layer measurement for the traced run.

Two sources, both outside the program: a subscriber on the
``repro.util.hooks`` event bus, and timing wrappers patched around
public functions of the layers for the length of the traced window.
:meth:`LayerTrace.metrics` turns the totals into the per-layer metrics,
normalised per op (or per job, query, txn, open, dispatch).
"""

from __future__ import annotations

import collections
import threading
import time

import repro.constraints.dbm as dbm
import repro.core.engine as engine
import repro.core.safety as safety
import repro.edb.store as store
import repro.gdb.kernel as kernel
import repro.plan.magic as magic
import repro.service.executor as executor
from repro.util import hooks

#: (owner, attribute, timer name): each call is timed and counted.
TIMED = (
    (executor, "parse_program", "parser"),
    (executor, "parse_database", "parser"),
    (engine.DeductiveEngine, "__init__", "compiler"),
    (engine.DeductiveEngine, "run", "engine.run"),
    (safety.CoverageChecker, "sweep", "coverage"),
    (magic, "rewrite_for_goal", "magic.rewrite"),
    (store.EdbStore, "__init__", "edb.open"),
)

#: (owner, attribute, counter name): each call is counted only.
COUNTED = ((dbm.Dbm, "close", "dbm.close"),)

#: Units of the per-layer metrics, in the order they print.
UNITS = {
    "parser.ms_per_op": "ms",
    "compiler.ms_per_op": "ms",
    "engine.run_ms_per_op": "ms",
    "engine.rounds_per_op": "count",
    "engine.derived_per_op": "count",
    "derive.join_ms_per_op": "ms",
    "derive.antijoin_ms_per_op": "ms",
    "derive.carrier_ms_per_op": "ms",
    "derive.projection_ms_per_op": "ms",
    "kernel.join_pairs_per_op": "count",
    "kernel.join_yield": "ratio",
    "kernel.template_hit_ratio": "ratio",
    "kernel.template_fill_start": "ratio",
    "kernel.template_fill_end": "ratio",
    "coverage.ms_per_op": "ms",
    "coverage.hit_ratio": "ratio",
    "dbm.close_calls_per_op": "count",
    "magic.rewrite_ms_per_query": "ms",
    "magic.derived_per_query": "count",
    "checkpoint.writes_per_job": "count",
    "checkpoint.ms_per_job": "ms",
    "wal.commit_ms": "ms",
    "wal.bytes_per_txn": "bytes",
    "edb.open_ms": "ms",
    "edb.replayed_txns_per_open": "count",
    "maintain.refresh_ms": "ms",
    "maintain.recompute_ratio": "ratio",
    "service.queue_wait_ms_p50": "ms",
    "service.exec_ms_p50": "ms",
    "service.retries": "count",
    "service.shed": "count",
    "shard.dispatches_per_op": "count",
    "shard.bytes_per_dispatch": "bytes",
    "shard.worker_losses": "count",
    "shard.run_ms_p50": "ms",
    "gen.late_ms_p99": "ms",
    "drift_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "latency_tail_ms": "ms",
    "host.reference_ms": "ms",
    "host.wall_latency_p50_ms": "ms",
}

_JOIN_OPS = ("join", "anti-join")
_NOT_JOIN_PATHS = ("carrier", "projection")


def template_fill():
    """Entries over cap of the fullest kernel template cache."""
    stats = kernel.cache_stats()
    cap = stats.pop("cap")
    return max(stats.values()) / cap


def full_caches():
    """Names of the kernel template caches at their cap."""
    stats = kernel.cache_stats()
    cap = stats.pop("cap")
    return {name for name, size in stats.items() if size >= cap}


def median(values):
    return percentile(values, 50)


def percentile(values, pct):
    """Linear-interpolated percentile; 0.0 for an empty list."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


class LayerTrace:
    """Collects per-layer totals while installed (a context manager).

    Each thread adds into its own tally, so the hot paths take no lock
    (a contended lock in a traced service thread would convoy on the
    interpreter lock and inflate what it measures)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tallies = []
        self.queue_waits = []
        self.exec_times = []
        self._saved = []

    def _tally(self):
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = collections.Counter()
            with self._lock:
                self._tallies.append(tally)
        return tally

    def totals(self):
        """All threads' tallies summed."""
        with self._lock:
            return sum(self._tallies, collections.Counter())

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for owner, name, label in TIMED:
            self._patch(owner, name, self._timed(getattr(owner, name), label))
        for owner, name, label in COUNTED:
            self._patch(owner, name, self._counted(getattr(owner, name), label))
        self._patch(magic, "goal_directed_model", self._in_goal(magic.goal_directed_model))
        hooks.subscribe(self._on_event)
        return self

    def __exit__(self, *exc_info):
        hooks.unsubscribe(self._on_event)
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []
        return False

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _timed(self, function, label):
        tally, seconds_key, calls_key = self._tally, "s:" + label, "n:" + label

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                counts = tally()
                counts[seconds_key] += time.perf_counter() - started
                counts[calls_key] += 1

        return timed

    def _counted(self, function, label):
        tally, calls_key = self._tally, "n:" + label

        def counted(*args, **kwargs):
            tally()[calls_key] += 1
            return function(*args, **kwargs)

        return counted

    def _in_goal(self, function):
        local = self._local

        def in_goal(*args, **kwargs):
            local.goal = True
            try:
                return function(*args, **kwargs)
            finally:
                local.goal = False

        return in_goal

    # -- the event bus -----------------------------------------------------

    def _on_event(self, kind, fields):
        totals = self._tally()
        if kind == "engine.round":
            if fields.get("phase") == "begin":
                totals["rounds"] += 1
            else:
                totals["derived"] += fields["derived"]
                if getattr(self._local, "goal", False):
                    totals["magic.derived"] += fields["derived"]
        elif kind == "plan.operator":
            op = fields["op"]
            totals["op_s." + op] += fields["duration_s"]
            if op in _JOIN_OPS:
                totals["join.out"] += fields["out"]
        elif kind == "kernel.batch":
            totals["batch.size"] += fields["size"]
            totals["batch.hits"] += fields["hits"]
            if fields["fast_path"] not in _NOT_JOIN_PATHS:
                totals["join.pairs"] += fields["size"]
        elif kind == "coverage.cache":
            totals["coverage.hits"] += fields["hits"]
            totals["coverage.misses"] += fields["misses"]
        elif kind == "checkpoint.write":
            totals["checkpoint.writes"] += 1
            totals["checkpoint.s"] += fields["duration_s"]
        elif kind == "edb.txn":
            totals["txns"] += 1
            totals["wal.s"] += fields["duration_seconds"]
            totals["wal.bytes"] += fields["wal_bytes"]
        elif kind == "edb.recover":
            totals["replayed"] += fields["replayed_txns"]
        elif kind == "maintain.delta":
            totals["refreshes"] += 1
            totals["refresh.s"] += fields["duration_seconds"]
            totals["recomputes"] += bool(fields["recomputed"])
        elif kind == "service.job":
            phase = fields["phase"]
            if phase == "dequeue":
                self.queue_waits.append(fields["queue_wait_s"])
            elif phase == "outcome" and fields["queue_wait_s"] is not None:
                self.exec_times.append(fields["elapsed_s"] - fields["queue_wait_s"])
        elif kind == "shard.dispatch":
            totals["dispatches"] += 1
            totals["dispatch.bytes"] += fields["pipe_bytes"] + fields["shm_bytes"]
        elif kind == "shard.worker" and fields.get("phase") == "lost":
            totals["worker_losses"] += 1

    # -- the metrics -------------------------------------------------------

    def metrics(self, ops, jobs, queries, service_stats=None):
        """Per-layer metrics over ``ops`` traced ops, of which ``jobs``
        were service run jobs and ``queries`` goal-directed queries."""
        totals = self.totals()

        def per(value, count):
            return value / count if count else 0.0

        ms = 1000.0
        pairs = totals["join.pairs"]
        coverage = totals["coverage.hits"] + totals["coverage.misses"]
        service_stats = service_stats or {}
        return {
            "parser.ms_per_op": per(totals["s:parser"] * ms, ops),
            "compiler.ms_per_op": per(totals["s:compiler"] * ms, ops),
            "engine.run_ms_per_op": per(totals["s:engine.run"] * ms, ops),
            "engine.rounds_per_op": per(totals["rounds"], ops),
            "engine.derived_per_op": per(totals["derived"], ops),
            "derive.join_ms_per_op": per(totals["op_s.join"] * ms, ops),
            "derive.antijoin_ms_per_op": per(totals["op_s.anti-join"] * ms, ops),
            "derive.carrier_ms_per_op": per(totals["op_s.carrier"] * ms, ops),
            "derive.projection_ms_per_op": per(totals["op_s.projection"] * ms, ops),
            "kernel.join_pairs_per_op": per(pairs, ops),
            "kernel.join_yield": per(totals["join.out"], pairs),
            "kernel.template_hit_ratio": per(totals["batch.hits"], totals["batch.size"]),
            "coverage.ms_per_op": per(totals["s:coverage"] * ms, ops),
            "coverage.hit_ratio": per(totals["coverage.hits"], coverage),
            "dbm.close_calls_per_op": per(totals["n:dbm.close"], ops),
            "magic.rewrite_ms_per_query": per(totals["s:magic.rewrite"] * ms, queries),
            "magic.derived_per_query": per(totals["magic.derived"], queries),
            "checkpoint.writes_per_job": per(totals["checkpoint.writes"], jobs),
            "checkpoint.ms_per_job": per(totals["checkpoint.s"] * ms, jobs),
            "wal.commit_ms": per(totals["wal.s"] * ms, totals["txns"]),
            "wal.bytes_per_txn": per(totals["wal.bytes"], totals["txns"]),
            "edb.open_ms": per(totals["s:edb.open"] * ms, totals["n:edb.open"]),
            "edb.replayed_txns_per_open": per(totals["replayed"], totals["n:edb.open"]),
            "maintain.refresh_ms": per(totals["refresh.s"] * ms, totals["refreshes"]),
            "maintain.recompute_ratio": per(totals["recomputes"], totals["refreshes"]),
            "service.queue_wait_ms_p50": median(self.queue_waits) * ms,
            "service.exec_ms_p50": median(self.exec_times) * ms,
            "service.retries": service_stats.get("retries", 0),
            "service.shed": service_stats.get("shed", 0),
            "shard.dispatches_per_op": per(totals["dispatches"], ops),
            "shard.bytes_per_dispatch": per(totals["dispatch.bytes"], totals["dispatches"]),
            "shard.worker_losses": totals["worker_losses"],
        }
