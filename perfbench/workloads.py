"""The benchmark workloads: set-up, one op, and the answer check.

Each closed-loop workload exposes ``next_op(rng)`` (the op's seeded
parameters), ``execute(op)`` (the timed call into the program) and
``verify(op, output)`` (the untimed answer check).  :class:`Serve` is
the open-loop workload and drives its own schedule.

``corrupt=True`` falsifies one expected answer, so a correct program
must fail the check; the self-test uses it to prove the checks bite.
"""

from __future__ import annotations

import bisect
import collections
import os
import queue
import shutil
import sys
import threading
import time

import hostspeed
import inputs
from repro.core import DeductiveEngine, parse_program
from repro.edb import EdbStore
from repro.gdb import parse_database
from repro.gdb.parser import parse_generalized_tuple
import repro.plan.magic as magic
from repro.service import JobSpec, QueryService
from repro.util.errors import ServiceError

#: Per-workload sizes.  ``warmup`` is the fixed op count run before the
#: window; on ``chains`` it carries the process past the kernel's
#: join-template cache fill (one op adds ~1250 join templates, the cap
#: is 131072, so the fill lands near op 105).  ``shard_ops`` is the
#: number of ``parallelism=2`` runs the traced chains run adds.
SIZES = {
    "chains": {
        "full": {"chains": 2, "data": 2, "warmup": 130, "trace_ops": 100, "shard_ops": 40},
        "tiny": {"chains": 2, "data": 1, "warmup": 2, "trace_ops": 2, "shard_ops": 2},
    },
    "graph": {
        "full": {"nodes": 5000, "edges": 10000, "periods": (4, 6),
                 "low": (16, 48), "width": 8, "warmup": 30, "trace_ops": 100},
        "tiny": {"nodes": 40, "edges": 120, "periods": (2, 3),
                 "low": (4, 8), "width": 4, "warmup": 1, "trace_ops": 2},
    },
    "serve": {
        "full": {"rate": 10.0, "run_variants": 8, "query_points": 24,
                 "initial_facts": 8, "checkpoint_every_txns": 16,
                 "check_share": 0.25, "warmup_s": 2.0},
        "tiny": {"rate": 20.0, "run_variants": 2, "query_points": 4,
                 "initial_facts": 2, "checkpoint_every_txns": 2,
                 "check_share": 1.0, "warmup_s": 0.2},
    },
}

#: Latency limit per workload (ms): an op slower than this misses the SLO.
LATENCY_LIMIT_MS = {"chains": 150.0, "graph": 250.0, "serve": 200.0}


def _same_relation(model, reference, name):
    """Exact equality of one predicate's closed form; identical tuple
    sets decide it cheaply, anything else goes to the semantic test."""
    ours, theirs = model.relation(name), reference.relation(name)
    if frozenset(ours.tuples) == frozenset(theirs.tuples):
        return True
    return ours.equivalent(theirs)


def _covered_residues(relation, constant, period):
    """Residues mod ``period`` at which ``p(t; constant)`` holds."""
    residues = set()
    for gt in relation.tuples:
        if gt.data != (constant,):
            continue
        lrp = gt.lrps[0]
        if period % lrp.period:
            return None
        residues.update(
            (lrp.offset + k * lrp.period) % period for k in range(period // lrp.period)
        )
    return residues


class Chains:
    """A full fixpoint of the seeded multi-chain program per op.  An op
    is the ``parallelism`` of its run: 1 in the measured window, 2 for
    the shard-pool runs of the traced run."""

    loop = "closed"

    def __init__(self, rng, size="full", corrupt=False):
        shape = SIZES["chains"][size]
        self.warmup = shape["warmup"]
        self.trace_ops = shape["trace_ops"]
        self.shard_ops = shape["shard_ops"]
        program_text, edb_text, self.expected = inputs.chains_source(
            rng, shape["chains"], shape["data"]
        )
        self.program = parse_program(program_text)
        self.edb = parse_database(edb_text)
        self.reference = DeductiveEngine(self.program, self.edb).run()
        if corrupt:
            count, names = self.expected["p0"]
            self.expected["p0"] = (count + 1, names)

    def next_op(self, rng):
        return 1

    def host_reference(self, op):
        # Shard workers run on every CPU and wait on each other.
        return hostspeed.sample() if op == 1 else hostspeed.slowest_cpu()

    def execute(self, op):
        return DeductiveEngine(self.program, self.edb, parallelism=op).run()

    def verify(self, op, model):
        if model.predicates() != self.reference.predicates():
            return False
        if not all(_same_relation(model, self.reference, n) for n in model.predicates()):
            return False
        for name, (count, constants) in self.expected.items():
            for constant in constants:
                residues = _covered_residues(model.relation(name), constant, inputs.CHAIN_PERIOD)
                if residues is None or len(residues) != count:
                    return False
        return True

    def close(self):
        pass


class Graph:
    """A goal-directed windowed reachability query per op."""

    loop = "closed"

    def __init__(self, rng, size="full", corrupt=False):
        shape = SIZES["graph"][size]
        self.warmup = shape["warmup"]
        self.trace_ops = shape["trace_ops"]
        self.low = shape["low"]
        self.width = shape["width"]
        edges = inputs.graph_edges(rng, shape["nodes"], shape["edges"], shape["periods"])
        self.adjacency = inputs.graph_adjacency(edges)
        self.sources = sorted(self.adjacency)
        self.program = parse_program(inputs.GRAPH_PROGRAM)
        self.edb = parse_database(inputs.graph_edb_text(edges))
        self.corrupt = corrupt

    def next_op(self, rng):
        low = rng.randrange(*self.low)
        return rng.choice(self.sources), low, low + self.width

    def host_reference(self, op):
        return hostspeed.sample()

    def execute(self, op):
        source, low, high = op
        name = "v%d" % source
        goal = magic.QueryGoal.windowed("reach", low, high, data={0: name})
        # Called through the module so the traced run's wrapper sees it.
        model, info = magic.goal_directed_model(self.program, self.edb, goal)
        if info.get("degraded"):
            raise RuntimeError("goal %s degraded to the full fixpoint" % goal)
        return {row for row in model.extension("reach", low, high) if row[1] == name}

    def verify(self, op, answers):
        expected = inputs.graph_reach(self.adjacency, *op)
        if self.corrupt:
            expected = expected | {(op[1], "v%d" % op[0], "nowhere")}
        return answers == expected

    def close(self):
        pass


#: One serve op: ``latency_s`` is scaled to the nominal host speed,
#: ``wall_s`` is the same latency unscaled; ``ok`` when it answered
#: correctly; ``wrong`` when it answered and the answer failed its
#: check (a failed job is neither).
Outcome = collections.namedtuple("Outcome", "kind due latency_s wall_s late_s ok wrong")

#: A reference call runs only when it ends this long before the next
#: op is due, so it never delays a send.
IDLE_MARGIN_S = 0.02


class Serve:
    """Open-loop mix of run, query and write ops against an in-process
    :class:`QueryService` (2 workers, a checkpoint every round with
    fsync) and a durable :class:`EdbStore` (WAL fsync per commit).

    The main thread sends run and query jobs when they are due; a
    writer thread commits each write (assert one fact, retract the
    oldest, ``EdbStore.checkpoint()`` every K commits) and then waits
    for its ``maintain`` job, so the store has one writer at a time.
    Between sends, once no op is in flight, the main thread times a
    reference call on each CPU, since the service threads move between
    them (:func:`hostspeed.mean_cpu`); each op's latency is scaled by
    the median of the three samples nearest its due time.
    """

    loop = "open"
    MIX = (("run", 0.5), ("query", 0.3), ("write", 0.2))

    def __init__(self, rng, work_dir, size="full", corrupt=False):
        shape = SIZES["serve"][size]
        self.rate = shape["rate"]
        self.warmup_s = shape["warmup_s"]
        self.check_share = shape["check_share"]
        self.checkpoint_every_txns = shape["checkpoint_every_txns"]
        self.work_dir = work_dir
        self.program = parse_program(inputs.SERVE_PROGRAM)

        # run jobs: Example 4.1 variants with their expected model text.
        self.runs = []
        for _ in range(shape["run_variants"]):
            edb_text = inputs.serve_edb_text(rng)
            model = DeductiveEngine(self.program, parse_database(edb_text)).run()
            self.runs.append((edb_text, str(model)))

        # query jobs: point queries over one EDB, answered by its full fixpoint.
        self.query_edb = inputs.serve_edb_text(rng)
        full = DeductiveEngine(self.program, parse_database(self.query_edb)).run()
        period = inputs.SERVE_PERIOD
        self.queries = []
        for _ in range(shape["query_points"]):
            t = rng.randrange(2 * period)
            formula = "problems(%d, %d; X)" % (t, t + 2)
            self.queries.append((formula, set(full.query(formula).extension(0, 1))))
        if corrupt:
            formula, answers = self.queries[0]
            self.queries[0] = (formula, answers | {("corrupted",)})

        # writes: a durable store holding a fixed-size live window of facts.
        self.store_root = os.path.join(work_dir, "edb")
        self.store = EdbStore(self.store_root)
        self.store.apply([
            {"op": "declare", "relation": "course", "temporal_arity": 2, "data_arity": 1}
        ])
        self.live = collections.deque()
        self.next_fact = 0
        self.store.apply([
            {"op": "assert", "relation": "course",
             "tuple": self._new_fact(rng.randrange(inputs.SERVE_PERIOD - 2))}
            for _ in range(shape["initial_facts"])
        ])
        self.store.checkpoint()
        self.commits = 0
        self.service = QueryService(
            workers=2,
            queue_limit=256,
            default_deadline=30.0,
            work_dir=os.path.join(work_dir, "service"),
        )
        self._write_txs = {}  # maintain job id -> the tx it caught up to
        self.write_queue = queue.Queue()
        self.writer = threading.Thread(target=self._writer_main, name="perfbench-writer")
        self.writer.start()

    def _new_fact(self, offset):
        gt = parse_generalized_tuple(inputs.course_row(offset, "w%d" % self.next_fact), 2, 1)
        self.next_fact += 1
        self.live.append(gt)
        return gt

    # -- the schedule ------------------------------------------------------

    def schedule(self, rng, count):
        """``count`` seeded ops ``(kind, params)``.  Each kind gets its
        exact share of the ops, in seeded order, so every seed runs the
        same mix."""
        kinds = []
        for name, share in self.MIX:
            kinds += [name] * round(share * count)
        kinds = (kinds + ["run"] * count)[:count]
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            if kind == "run":
                params = rng.randrange(len(self.runs))
            elif kind == "query":
                params = rng.randrange(len(self.queries))
            else:
                # (new fact's offset, whether to recompute-check it)
                params = (
                    rng.randrange(inputs.SERVE_PERIOD - 2),
                    rng.random() < self.check_share,
                )
            ops.append((kind, params))
        return ops

    def run_window(self, ops, tag):
        """Send ``ops`` at the fixed rate, wait for every answer, check
        them, and return one :class:`Outcome` per op."""
        interval = 1.0 / self.rate
        pending, in_flight = [], []
        self.references = []  # (monotonic time, reference call s)
        results = [None] * len(ops)
        self._write_results = results
        start = time.monotonic() + 0.05
        for index, (kind, params) in enumerate(ops):
            due = start + index * interval
            in_flight = self._sample_when_idle(due, in_flight)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            if kind == "write":
                self.write_queue.put((index, due, sent, params, tag))
                continue
            if kind == "run":
                spec = JobSpec(
                    "%s-%d" % (tag, index), "run",
                    program=inputs.SERVE_PROGRAM, edb=self.runs[params][0],
                )
            else:
                spec = JobSpec(
                    "%s-%d" % (tag, index), "query",
                    program=inputs.SERVE_PROGRAM, edb=self.query_edb,
                    query=self.queries[params][0], goal_directed=True,
                )
            try:
                handle = self.service.submit(spec)
            except Exception as exc:  # shed or rejected: a failed op
                print("perfbench: %s rejected: %r" % (spec.job_id, exc), file=sys.stderr)
                results[index] = (kind, due, None, sent - due, None)
                continue
            pending.append((index, kind, due, sent, handle))
            in_flight.append(handle)
        for index, kind, due, sent, handle in pending:
            try:
                result = handle.result(timeout=60.0)
            except ServiceError as exc:
                print("perfbench: %s-%d: %r" % (tag, index, exc), file=sys.stderr)
                result = None
            latency = None if result is None else (sent - due) + result.elapsed_seconds
            results[index] = (kind, due, latency, sent - due, result)
        self.write_queue.join()
        if not self.references:
            self.references.append((start, hostspeed.mean_cpu()))
        moments = [moment for moment, _ in self.references]
        outcomes = []
        for index, (kind, due, latency, late, result) in enumerate(results):
            answered = result is not None and result.state == "ok"
            ok = answered and self._verify(kind, ops[index][1], result)
            scaled = None
            if latency is not None:
                # the median of the three reference calls nearest ``due``
                at = bisect.bisect_right(moments, due)
                near = sorted(r for _, r in self.references[max(0, at - 2): at + 1])
                scaled = hostspeed.scaled(latency, near[len(near) // 2])
            outcomes.append(Outcome(kind, due - start, scaled, latency, late, ok, answered and not ok))
        return outcomes

    def _sample_when_idle(self, due, in_flight):
        """Wait until no op is in flight, then time one reference call
        if it ends clear of ``due``; returns the handles still running."""
        while True:
            in_flight = [handle for handle in in_flight if not handle.done()]
            if not in_flight and not self.write_queue.unfinished_tasks:
                break
            if due - time.monotonic() < IDLE_MARGIN_S:
                return in_flight
            time.sleep(0.002)
        if due - time.monotonic() >= IDLE_MARGIN_S:
            self.references.append((time.monotonic(), hostspeed.mean_cpu()))
        return in_flight

    def _writer_main(self):
        while True:
            item = self.write_queue.get()
            if item is None:
                self.write_queue.task_done()
                return
            index, due, sent, (offset, _check), tag = item
            try:
                result = self._write(offset, "%s-%d" % (tag, index))
            except Exception as exc:  # a failed op, counted as such
                print("perfbench: write %s-%d failed: %r" % (tag, index, exc), file=sys.stderr)
                result = None
            latency = None if result is None else time.monotonic() - due
            self._write_results[index] = ("write", due, latency, sent - due, result)
            self.write_queue.task_done()

    def _write(self, offset, job_id):
        oldest = self.live.popleft()
        gt = self._new_fact(offset)
        receipt = self.store.apply([
            {"op": "assert", "relation": "course", "tuple": gt},
            {"op": "retract", "relation": "course", "tuple": oldest},
        ])
        self.commits += 1
        if self.commits % self.checkpoint_every_txns == 0:
            self.store.checkpoint()
        handle = self.service.submit(
            JobSpec(job_id, "maintain", program=inputs.SERVE_PROGRAM, store=self.store_root)
        )
        result = handle.result(timeout=60.0)
        self._write_txs[result.job_id] = receipt.tx
        return result

    def _verify(self, kind, params, result):
        if kind == "write":
            if not params[1]:
                return result.model is not None
            tx = self._write_txs[result.job_id]
            scratch = DeductiveEngine(self.program, self.store.snapshot(tx)).run()
            return scratch.equivalent(result.model)
        if kind == "run":
            return result.model_text == self.runs[params][1]
        return set(result.model.extension(0, 1)) == self.queries[params][1]

    def close(self):
        self.write_queue.put(None)
        self.writer.join()
        self.service.close()
        self.store.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)
