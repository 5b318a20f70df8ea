"""Command-line interface: ``python -m repro <command> …``.

Four subcommands mirror the library's four front ends, plus
introspection and service commands:

``run``
    Evaluate a deductive program (Section 4 language) bottom-up over a
    generalized database and print the closed-form IDB.

``explain``
    Print the compiled clause plans (join order, pushed-down
    selections and constraints, carriers, fused projection) the
    engine would execute, together with the plan fingerprint stamped
    into checkpoints.

``query``
    Evaluate a first-order query (the [KSW90] language) against a
    generalized database.

``datalog1s``
    Compute the eventually periodic minimal model of a
    Chomicki–Imieliński program.

``templog``
    Reduce a Templog program to TL1, translate it to Datalog1S, and
    print its minimal model.

``batch``
    Run a file of jobs (JSON array or JSONL) on the resilient query
    service (:mod:`repro.service`) — supervised worker pool, bounded
    admission queue, deadlines, retry+resume, circuit breaker,
    degradation ladder — and report one terminal result per job.

``serve``
    The same service as a line-oriented loop: read one JSON job per
    input line, emit one JSON result line per job; a ``health`` line
    answers with the service health snapshot and a ``metrics`` line
    with a Prometheus-style text exposition of the service metrics.
    ``SIGTERM``/``SIGINT`` trigger a graceful shutdown: the loop stops
    reading, drains every pending job (each still gets its result
    line), flushes, and exits 0.

``txn``
    Transactions against a durable, bi-temporal EDB store
    (:mod:`repro.edb`): ``txn apply STORE OPS.json`` commits batches of
    assert/retract/declare operations through the write-ahead log
    (``--maintain PROGRAM`` keeps a materialized model incrementally
    up to date after each commit; ``--checkpoint`` snapshots and
    prunes the log afterwards), ``txn log`` lists committed
    transactions, ``txn checkpoint`` compacts the store.

``asof``
    Time travel: ``asof STORE --tx N`` prints the EDB exactly as it
    stood after transaction ``N`` (visibility ``tx <= N`` and not yet
    retracted), and ``--program FILE`` runs a full fixpoint over that
    snapshot — the from-scratch twin of ``txn apply --maintain``.

Observability: ``run``/``query``/``datalog1s``/``templog`` accept
``--trace FILE`` (JSONL span trace of the evaluation), ``explain``
accepts ``--profile`` (per-operator time and cardinalities from a
real run), and ``batch --json`` reports the service metrics registry.

Exit codes are stable for machine consumers:

====  =====================================================
0     success (complete model / answers; every batch job ok)
1     other library or internal error / any batch job failed
2     usage error: bad arguments, unreadable file, parse error
3     gave up / partial model (paper's Section-4.3 policy);
      for ``batch``: some jobs partial, none failed
4     resource budget exceeded (e.g. ``--deadline-seconds``);
      the partial model is still reported under ``--json``
====  =====================================================

``--json`` dumps a machine-readable run report instead of the human
output; budget (``--deadline-seconds``/``--deadline``,
``--max-rounds``, ``--max-tuples``, ``--max-derived``) and checkpoint
(``--checkpoint``, ``--checkpoint-every``, ``--resume-from``) flags
govern the evaluation runtime (see :mod:`repro.runtime`).

Examples::

    python -m repro run program.dtl --edb schedule.gdb --window 0 200
    python -m repro run program.dtl --edb schedule.gdb --deadline-seconds 5 --json
    python -m repro run program.dtl --edb s.gdb --checkpoint ck.json \\
        --checkpoint-every 10
    python -m repro query schedule.gdb 'exists u (train(t, u; "Liege", C))'
    python -m repro datalog1s trains.d1s
    python -m repro templog monitor.tlg
    python -m repro batch jobs.json --workers 4 --json
    python -m repro serve --input jobs.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core import DeductiveEngine, parse_program
from repro.datalog1s import minimal_model, parse_datalog1s
from repro.fo import evaluate_query
from repro.gdb import parse_database
from repro.runtime.budget import EvaluationBudget
from repro.runtime.report import run_report
from repro.templog import parse_templog, templog_minimal_model
from repro.util.errors import (
    BudgetExceededError,
    EvaluationAbortedError,
    GiveUpError,
    ParseError,
    ReproError,
)
from repro.util.sorting import typed_sort_key

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    """A user-input problem reported as one line with exit code 2."""


def _parallel_arg(value):
    """``--parallel`` accepts a positive process count or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a process count or 'auto', got %r" % value
        ) from None


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        reason = error.strerror or str(error)
        raise _UsageError("cannot read %s: %s" % (path, reason)) from error


def _add_window(parser):
    parser.add_argument(
        "--window",
        nargs=2,
        type=int,
        metavar=("LOW", "HIGH"),
        help="also enumerate ground answers within [LOW, HIGH)",
    )


def _add_json(parser):
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable run report instead of human output",
    )


def _add_deadline(parser):
    parser.add_argument(
        "--deadline-seconds",
        "--deadline",
        dest="deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for the evaluation (exit code 4 when "
        "exceeded; any partial model is still reported under --json)",
    )


def _add_budget(parser, full=True):
    _add_deadline(parser)
    parser.add_argument(
        "--max-rounds",
        type=int,
        metavar="N",
        help="budget on fixpoint rounds",
    )
    if full:
        parser.add_argument(
            "--max-tuples",
            type=int,
            metavar="N",
            help="budget on tuples accepted into the model",
        )
        parser.add_argument(
            "--max-derived",
            type=int,
            metavar="N",
            help="budget on total derived-tuple work",
        )


def _budget_from_args(args):
    try:
        budget = EvaluationBudget(
            deadline_seconds=args.deadline,
            max_rounds=getattr(args, "max_rounds", None),
            max_tuples=getattr(args, "max_tuples", None),
            max_derived=getattr(args, "max_derived", None),
        )
    except ValueError as error:
        raise _UsageError(str(error)) from error
    return budget if budget.limited() else None


def _add_trace(parser):
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL span trace of the evaluation (engine rounds, "
        "plan operators, checkpoint writes, budget charges) to FILE",
    )


def _tracing(args):
    """Context manager subscribing a :class:`TraceRecorder` writing to
    ``args.trace`` for the duration of the evaluation; a no-op when the
    flag is absent."""
    import contextlib

    path = getattr(args, "trace", None)
    if not path:
        return contextlib.nullcontext()
    from repro.obs import TraceRecorder
    from repro.util import hooks

    @contextlib.contextmanager
    def _subscribed():
        recorder = TraceRecorder(path=path, keep=False)
        try:
            with hooks.subscribed(recorder):
                yield recorder
        finally:
            recorder.close()

    return _subscribed()


def _emit_json(report, out):
    json.dump(report, out, indent=2, sort_keys=False)
    print(file=out)


def _emit_json_line(report, out):
    """One-object-per-line JSON for the ``serve`` streaming protocol."""
    json.dump(report, out, indent=None, sort_keys=False)
    print(file=out)
    out.flush()


def _cmd_run(args, out):
    program = parse_program(_read(args.program))
    edb = parse_database(_read(args.edb))
    if args.parallel != "auto" and args.parallel < 1:
        raise _UsageError("--parallel must be a positive process count or 'auto'")
    if args.shard_recv_deadline is not None and args.shard_recv_deadline <= 0:
        raise _UsageError("--shard-recv-deadline must be positive")
    if args.shard_max_restarts is not None and args.shard_max_restarts < 0:
        raise _UsageError("--shard-max-restarts must be >= 0")
    engine = DeductiveEngine(
        program,
        edb,
        strategy=args.strategy,
        patience=args.patience,
        on_give_up="partial" if args.partial else "raise",
        parallelism=args.parallel,
        shard_recv_deadline=args.shard_recv_deadline,
        shard_max_restarts=args.shard_max_restarts,
        shard_fallback=not args.no_shard_fallback,
    )
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise _UsageError("--checkpoint-every must be a positive round count")
        if args.checkpoint is None:
            raise _UsageError("--checkpoint-every requires --checkpoint PATH")
    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    outcome, code, model, error = "ok", EXIT_OK, None, None
    with _installed_or_noop(plan), _tracing(args):
        try:
            model = engine.run(
                budget=_budget_from_args(args),
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=args.checkpoint,
                resume_from=args.resume_from,
            )
            if model.stats.gave_up:
                outcome, code = "gave-up", EXIT_PARTIAL
        except GiveUpError as err:
            outcome, code, model, error = (
                "gave-up",
                EXIT_PARTIAL,
                err.partial_model,
                err,
            )
        except BudgetExceededError as err:
            outcome, code, model, error = (
                "budget-exceeded",
                EXIT_BUDGET,
                err.partial_model,
                err,
            )
        except EvaluationAbortedError as err:
            outcome, code, model, error = (
                "aborted",
                EXIT_ERROR,
                err.partial_model,
                err,
            )

    window = tuple(args.window) if args.window else None
    if args.json:
        _emit_json(
            run_report(
                "run",
                outcome,
                code,
                stats=model.stats if model is not None else None,
                model=model,
                error=error,
                window=window,
            ),
            out,
        )
        return code

    if error is not None:
        print("%s: %s" % (outcome, error), file=sys.stderr)
    if model is None:
        return code

    stats = model.stats
    if stats.shard_degraded is not None:
        print(
            "%% shard pool lost, finished sequentially: %s"
            % stats.shard_degraded.get("reason", "unknown"),
            file=sys.stderr,
        )
    print(
        "%% %d strata, %d rounds, constraint safe: %s%s"
        % (
            stats.strata,
            stats.rounds,
            stats.constraint_safe,
            " (gave up)" if stats.gave_up else "",
        ),
        file=out,
    )
    predicates = [args.predicate] if args.predicate else model.predicates()
    for name in predicates:
        relation = model.relation(name).coalesce()
        print("%s %s" % (name, relation), file=out)
        if args.stats:
            from repro.gdb.analysis import analyze

            print("%% stats: %s" % analyze(model.relation(name)), file=out)
        if window:
            low, high = window
            for flat in sorted(model.extension(name, low, high), key=typed_sort_key):
                print("  %s" % (flat,), file=out)
    if args.verify and outcome == "ok":
        from repro.core.verify import verify_model

        report = verify_model(program, edb, model, window=window or (0, 200))
        print("%% %s" % report, file=out)
        if not report.ok():
            return EXIT_ERROR
    return code


def _profile_run(program, edb, strategy):
    """Execute the program once with a :class:`ProfileCollector`
    subscribed; the per-operator aggregates (time + cardinalities)
    drive ``explain --profile``."""
    from repro.obs import ProfileCollector
    from repro.util import hooks

    collector = ProfileCollector()
    engine = DeductiveEngine(program, edb, strategy=strategy, on_give_up="partial")
    with hooks.subscribed(collector):
        model = engine.run()
    return collector, model


def _profile_payload(collector, model):
    return {
        "operators": collector.table(),
        "derived_per_round": {
            str(round_no): count
            for round_no, count in sorted(collector.derived_per_round().items())
        },
        "stats": model.stats.to_dict(),
    }


def _print_profile(collector, model, out):
    stats = model.stats
    print(
        "%% profile: %d rounds, %.3fs, derived per round: %s"
        % (
            stats.rounds,
            stats.elapsed_seconds,
            [collector.derived_per_round().get(r, 0) for r in range(1, stats.rounds + 1)],
        ),
        file=out,
    )
    header = "%-10s %-9s %4s %5s %8s %8s %8s %9s  %s" % (
        "op",
        "variant",
        "step",
        "calls",
        "in",
        "pairs",
        "out",
        "seconds",
        "clause",
    )
    print(header, file=out)
    for row in collector.table():
        clause = row["clause"] or "?"
        if len(clause) > 48:
            clause = clause[:45] + "..."
        print(
            "%-10s %-9s %4d %5d %8d %8s %8d %9.6f  %s"
            % (
                row["op"] + ("(%s)" % row["predicate"] if row["predicate"] else ""),
                row["variant"],
                row["step"],
                row["invocations"],
                row["input_tuples"],
                "-" if row["pairs"] is None else row["pairs"],
                row["output_tuples"],
                row["seconds"],
                clause,
            ),
            file=out,
        )


def _cmd_explain(args, out):
    from repro.core.evaluation import ProgramEvaluator
    from repro.plan.explain import format_program_plans, plan_fingerprint

    program = parse_program(_read(args.program))
    edb = parse_database(_read(args.edb))
    evaluator = ProgramEvaluator(program, edb)
    rendering = format_program_plans(evaluator.plans)
    fingerprint = plan_fingerprint(evaluator.plans)
    profile = None
    if args.profile:
        collector, model = _profile_run(program, edb, args.strategy)
        profile = (collector, model)
    if args.json:
        report = {
            "command": "explain",
            "outcome": "ok",
            "exit_code": EXIT_OK,
            "plan_fingerprint": fingerprint,
            "plans": rendering,
        }
        if profile is not None:
            report["profile"] = _profile_payload(*profile)
        _emit_json(report, out)
        return EXIT_OK
    print(rendering, file=out)
    print("%% plan fingerprint: %s" % fingerprint, file=out)
    if profile is not None:
        _print_profile(*profile, out)
    return EXIT_OK


def _cmd_query(args, out):
    edb = parse_database(_read(args.database))
    if args.goal_directed and not args.program:
        raise _UsageError("--goal-directed requires --program")
    magic_info = None
    try:
        with _tracing(args):
            budget = _budget_from_args(args)
            if args.program:
                from repro.plan.magic import goal_from_formula

                program = parse_program(_read(args.program))
                engine = DeductiveEngine(program, edb, on_give_up="partial")
                if args.goal_directed:
                    window = tuple(args.window) if args.window else None
                    goal, reason = goal_from_formula(
                        args.formula,
                        program.intensional_predicates(),
                        window=window,
                    )
                    if goal is None:
                        model = engine.run(budget=budget)
                        model.stats.magic_degraded = {"reason": reason}
                        magic_info = {"degraded": True, "reason": reason}
                    else:
                        model, magic_info = engine.run_goal_directed(
                            goal, budget=budget
                        )
                else:
                    model = engine.run(budget=budget)
                answers = model.query(args.formula)
            else:
                answers = evaluate_query(edb, args.formula, budget=budget)
    except BudgetExceededError as err:
        if args.json:
            _emit_json(
                run_report("query", "budget-exceeded", EXIT_BUDGET, error=err),
                out,
            )
        else:
            print("budget-exceeded: %s" % err, file=sys.stderr)
        return EXIT_BUDGET
    header = ", ".join(answers.temporal_vars + answers.data_vars) or "(closed)"
    if args.json:
        report = {
            "command": "query",
            "outcome": "ok",
            "exit_code": EXIT_OK,
            "answers_over": header,
            "relation": str(answers.relation),
        }
        if magic_info is not None:
            report["magic"] = magic_info
        if not answers.temporal_vars and not answers.data_vars:
            report["truth_value"] = answers.is_true()
        if args.window:
            low, high = args.window
            report["window"] = {
                "low": low,
                "high": high,
                "tuples": sorted(
                    [list(flat) for flat in answers.extension(low, high)], key=typed_sort_key
                ),
            }
        _emit_json(report, out)
        return EXIT_OK
    print("%% answers over: %s" % header, file=out)
    if magic_info is not None:
        if magic_info.get("degraded"):
            print(
                "%% goal-directed: degraded to full fixpoint (%s)"
                % magic_info["reason"],
                file=out,
            )
        else:
            print(
                "%% goal-directed: %s (dropped %d clauses, %d magic facts)"
                % (
                    magic_info["goal"],
                    magic_info["dropped_clauses"],
                    magic_info["magic_facts"],
                ),
                file=out,
            )
    print(str(answers.relation), file=out)
    if not answers.temporal_vars and not answers.data_vars:
        print("%% truth value: %s" % answers.is_true(), file=out)
    if args.window:
        low, high = args.window
        for flat in sorted(answers.extension(low, high), key=typed_sort_key):
            print("  %s" % (flat,), file=out)
    return EXIT_OK


def _periodic_model_command(command, parse, evaluate):
    """Shared handler shape of the ``datalog1s``/``templog`` commands."""

    def handler(args, out):
        program = parse(_read(args.program))
        outcome, code, model, error = "ok", EXIT_OK, None, None
        with _tracing(args):
            try:
                model = evaluate(program, budget=_budget_from_args(args))
            except BudgetExceededError as err:
                outcome, code, model, error = (
                    "budget-exceeded",
                    EXIT_BUDGET,
                    err.partial_model,
                    err,
                )
        if args.json:
            _emit_json(
                {
                    "command": command,
                    "outcome": outcome,
                    "exit_code": code,
                    "error": None if error is None else str(error),
                    "model": None if model is None else str(model),
                },
                out,
            )
            return code
        if error is not None:
            print("%s: %s" % (outcome, error), file=sys.stderr)
        if model is not None:
            print(str(model), file=out)
        return code

    return handler


_cmd_datalog1s = _periodic_model_command(
    "datalog1s",
    parse_datalog1s,
    lambda program, budget: minimal_model(program, budget=budget),
)

_cmd_templog = _periodic_model_command(
    "templog",
    parse_templog,
    lambda program, budget: templog_minimal_model(program, budget=budget),
)


# -- service commands -----------------------------------------------------


def _load_job_specs(text, base_dir="."):
    """Parse a jobs file: a JSON array of job objects, or JSONL.

    ``program`` / ``edb`` / ``query`` may be given inline, or via
    ``program_file`` / ``edb_file`` / ``query_file`` paths resolved
    relative to the jobs file.
    """
    from repro.service import JobSpec

    text = text.strip()
    if not text:
        raise _UsageError("jobs file is empty")
    if text.startswith("["):
        try:
            payloads = json.loads(text)
        except ValueError as error:
            raise _UsageError("jobs file is not valid JSON: %s" % error) from error
    else:
        payloads = []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payloads.append(json.loads(line))
            except ValueError as error:
                raise _UsageError(
                    "jobs line %d is not valid JSON: %s" % (number, error)
                ) from error
    specs = []
    for index, payload in enumerate(payloads, start=1):
        if not isinstance(payload, dict):
            raise _UsageError("job %d is not a JSON object" % index)
        try:
            specs.append(
                JobSpec.from_json_dict(
                    _resolve_job_files(payload, base_dir),
                    default_id="job-%d" % index,
                )
            )
        except ValueError as error:
            raise _UsageError("job %d: %s" % (index, error)) from error
    return specs


def _resolve_job_files(payload, base_dir="."):
    """Inline ``program_file`` / ``edb_file`` / ``query_file``
    references of a job object (paths relative to ``base_dir``)."""
    payload = dict(payload)
    for key in ("program", "edb", "query"):
        path = payload.pop("%s_file" % key, None)
        if path is not None and key not in payload:
            payload[key] = _read(os.path.join(base_dir, path))
    return payload


def _load_fault_plan(path):
    from repro.runtime.faults import FaultPlan

    try:
        payload = json.loads(_read(path))
    except ValueError as error:
        raise _UsageError(
            "fault plan %s is not valid JSON: %s" % (path, error)
        ) from error
    try:
        return FaultPlan.from_json_dict(payload)
    except ValueError as error:
        raise _UsageError("fault plan %s: %s" % (path, error)) from error


def _build_service(args):
    from repro.service import CircuitBreaker, QueryService, RetryPolicy

    return QueryService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        retry=RetryPolicy(max_attempts=args.max_attempts, seed=args.retry_seed),
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        ),
        default_deadline=args.deadline,
        work_dir=args.work_dir,
        max_parallelism=args.max_parallelism,
    )


def _batch_exit_code(results):
    states = {result.state for result in results}
    if states & {"failed", "rejected"}:
        return EXIT_ERROR
    if "partial" in states:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_batch(args, out):
    specs = _load_job_specs(
        _read(args.jobs), base_dir=os.path.dirname(os.path.abspath(args.jobs))
    )
    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    with _installed_or_noop(plan):
        with _build_service(args) as service:
            results = service.run_batch(specs, timeout=args.batch_timeout)
            stats = service.stats()
            health = service.health()
            metrics = service.metrics.to_dict()
    code = _batch_exit_code(results)
    if args.json:
        _emit_json(
            {
                "command": "batch",
                "outcome": "ok" if code == EXIT_OK else "degraded",
                "exit_code": code,
                "jobs": [result.to_json_dict() for result in results],
                "service": stats,
                "health": health,
                "metrics": metrics,
            },
            out,
        )
        return code
    for result in results:
        line = "%s: %s (%s; attempts=%d, backend=%s" % (
            result.job_id,
            result.state,
            result.outcome,
            result.attempts,
            result.backend,
        )
        if result.degradation:
            line += ", degraded=%s" % "+".join(result.degradation)
        if result.resumed:
            line += ", resumed"
        print(line + ")", file=out)
    jobs = stats["jobs"]
    print(
        "%% %d jobs: %d ok, %d partial, %d failed, %d rejected; "
        "%d retries, %d worker restarts; health: %s"
        % (
            len(results),
            jobs["ok"],
            jobs["partial"],
            jobs["failed"],
            jobs["rejected"],
            jobs["retries"],
            stats["workers"]["restarts"],
            health["status"],
        ),
        file=out,
    )
    return code


def _installed_or_noop(plan):
    import contextlib

    return plan.installed() if plan is not None else contextlib.nullcontext()


def _emit_metrics(service, out):
    """The ``metrics`` op of the serve protocol: raw Prometheus-style
    text exposition (not a JSON line — scrapers consume it verbatim)."""
    out.write(service.metrics_text())
    out.flush()


class _GracefulShutdown(Exception):
    """Raised by the ``serve`` signal handlers to unwind the read loop
    so the service drains and closes instead of dying mid-write."""


def _cmd_serve(args, out):
    import signal

    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    if args.input is not None:
        stream = open(args.input)
        base_dir = os.path.dirname(os.path.abspath(args.input))
    else:
        stream = sys.stdin
        base_dir = "."
    from repro.service import JobSpec
    from repro.util.errors import ServiceError

    pending = []
    states = set()
    stopped = {"signal": None}

    def flush(block=False):
        while pending:
            handle = pending[0]
            if not block and not handle.done():
                return
            result = handle.result()
            states.add(result.state)
            _emit_json_line(result.to_json_dict(), out)
            pending.pop(0)

    def _on_signal(signum, frame):
        stopped["signal"] = signum
        raise _GracefulShutdown()

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):
            # Not the main thread (tests drive main() directly): the
            # loop still works, just without signal-triggered shutdown.
            pass

    with _installed_or_noop(plan), _tracing(args):
        with _build_service(args) as service:
            try:
                for number, line in enumerate(stream, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    if line in ("health", '"health"') or line == '{"op": "health"}':
                        _emit_json_line(service.health(), out)
                        continue
                    if line in ("metrics", '"metrics"') or line == '{"op": "metrics"}':
                        _emit_metrics(service, out)
                        continue
                    try:
                        payload = json.loads(line)
                        if isinstance(payload, dict) and payload.get("op") == "health":
                            _emit_json_line(service.health(), out)
                            continue
                        if isinstance(payload, dict) and payload.get("op") == "metrics":
                            _emit_metrics(service, out)
                            continue
                        spec = JobSpec.from_json_dict(
                            _resolve_job_files(payload, base_dir),
                            default_id="job-%d" % number,
                        )
                        pending.append(service.submit(spec))
                    except (ValueError, ServiceError, _UsageError) as error:
                        _emit_json_line(
                            {
                                "job_id": "job-%d" % number,
                                "state": "rejected",
                                "outcome": "error",
                                "error": {
                                    "type": type(error).__name__,
                                    "message": str(error),
                                },
                            },
                            out,
                        )
                        states.add("rejected")
                    flush()
                flush(block=True)
            except _GracefulShutdown:
                # Drain: every already-submitted job finishes and its
                # result line is written before the service closes
                # (flushing metrics) and _tracing closes the recorder.
                drained = len(pending)
                try:
                    flush(block=True)
                except _GracefulShutdown:
                    pass  # second signal: stop waiting, close now
                print(
                    "%% received signal %s, drained %d pending job(s), "
                    "shutting down" % (stopped["signal"], drained),
                    file=sys.stderr,
                )
            finally:
                for signum, handler in previous_handlers.items():
                    try:
                        signal.signal(signum, handler)
                    except (ValueError, OSError):
                        pass
                if stream is not sys.stdin:
                    stream.close()
    if stopped["signal"] is not None:
        return EXIT_OK
    if states & {"failed", "rejected"}:
        return EXIT_ERROR
    if "partial" in states:
        return EXIT_PARTIAL
    return EXIT_OK


def _open_store(args):
    from repro.edb import EdbStore

    kwargs = {}
    if getattr(args, "segment_bytes", None):
        if args.segment_bytes < 64:
            raise _UsageError("--segment-bytes must be at least 64")
        kwargs["segment_bytes"] = args.segment_bytes
    return EdbStore.open(args.store, **kwargs)


def _load_txn_batches(path):
    """The ``txn apply`` ops file: one transaction (a JSON list of op
    objects, or ``{"ops": [...]}``) or several (``{"txns": [[...],
    ...]}`` or a JSON list of lists)."""
    try:
        payload = json.loads(_read(path))
    except ValueError as error:
        raise _UsageError("ops file %s is not valid JSON: %s" % (path, error)) from error
    if isinstance(payload, dict):
        if "txns" in payload:
            batches = payload["txns"]
        else:
            batches = [payload.get("ops", [])]
    elif isinstance(payload, list) and payload and all(
        isinstance(entry, list) for entry in payload
    ):
        batches = payload
    else:
        batches = [payload]
    if not isinstance(batches, list) or not all(
        isinstance(batch, list) for batch in batches
    ):
        raise _UsageError("ops file %s: expected op lists" % path)
    return batches


def _cmd_txn_apply(args, out):
    from repro.edb import MaterializedModel, ops_from_json

    batches = _load_txn_batches(args.ops)
    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    maintainer = None
    if args.maintain:
        maintainer = MaterializedModel(_read(args.maintain))
    receipts, reports = [], []
    model = None
    with _installed_or_noop(plan), _tracing(args):
        store = _open_store(args)
        try:
            for batch in batches:
                receipt = store.apply(ops_from_json(store, batch))
                receipts.append(receipt.to_json_dict())
                if maintainer is not None:
                    model = maintainer.refresh(
                        store, budget=_budget_from_args(args)
                    )
                    reports.append(maintainer.last_report.to_json_dict())
            if args.txn_checkpoint:
                store.checkpoint()
        finally:
            store.close()
    window = tuple(args.window) if args.window else None
    if args.json:
        payload = {
            "command": "txn-apply",
            "outcome": "ok",
            "exit_code": EXIT_OK,
            "head_tx": store.head_tx,
            "receipts": receipts,
            "maintain": reports or None,
        }
        if model is not None:
            from repro.runtime.report import model_summary

            payload["stats"] = model.stats.to_dict()
            payload["model"] = model_summary(model, window=window)
        _emit_json(payload, out)
        return EXIT_OK
    for receipt in receipts:
        print(
            "tx %d: +%d -%d (declared %d, noops %d, %d WAL bytes)"
            % (
                receipt["tx"],
                receipt["asserted"],
                receipt["retracted"],
                receipt["declared"],
                receipt["noops"],
                receipt["wal_bytes"],
            ),
            file=out,
        )
    if reports:
        last = reports[-1]
        print(
            "%% maintained to tx %d: %s, %d round(s)"
            % (
                last["tx"],
                "recomputed (%s)" % (last["reason"] or "initial")
                if last["recomputed"] else
                "incremental (+%d -%d, overdeleted %d)"
                % (last["inserted"], last["retracted"], last["overdeleted"]),
                last["rounds"],
            ),
            file=out,
        )
    if model is not None:
        for name in model.predicates():
            print("%s %s" % (name, model.relation(name).coalesce()), file=out)
            if window:
                low, high = window
                for flat in sorted(model.extension(name, low, high), key=typed_sort_key):
                    print("  %s" % (flat,), file=out)
    return EXIT_OK


def _cmd_txn_log(args, out):
    store = _open_store(args)
    store.close()
    txns = store.transactions()
    if args.json:
        _emit_json(
            {
                "command": "txn-log",
                "outcome": "ok",
                "exit_code": EXIT_OK,
                "head_tx": store.head_tx,
                "txns": txns,
            },
            out,
        )
        return EXIT_OK
    for entry in txns:
        print(
            "tx %d: +%d -%d (declared %d)"
            % (entry["tx"], entry["asserted"], entry["retracted"], entry["declared"]),
            file=out,
        )
    print("%% head tx: %d" % store.head_tx, file=out)
    return EXIT_OK


def _cmd_txn_checkpoint(args, out):
    store = _open_store(args)
    try:
        path = store.checkpoint()
    finally:
        store.close()
    if args.json:
        _emit_json(
            {
                "command": "txn-checkpoint",
                "outcome": "ok",
                "exit_code": EXIT_OK,
                "head_tx": store.head_tx,
                "path": path,
            },
            out,
        )
        return EXIT_OK
    print("checkpoint at tx %d -> %s" % (store.head_tx, path), file=out)
    return EXIT_OK


def _cmd_asof(args, out):
    store = _open_store(args)
    store.close()
    tx = store.head_tx if args.tx is None else args.tx
    if args.tx is not None and args.tx > store.head_tx:
        raise _UsageError(
            "--tx %d is beyond the store head (%d)" % (args.tx, store.head_tx)
        )
    snapshot = store.snapshot(tx)
    window = tuple(args.window) if args.window else None
    if args.goal_directed and not args.program:
        raise _UsageError("--goal-directed requires --program")
    if not args.program:
        if args.json:
            _emit_json(
                {
                    "command": "asof",
                    "outcome": "ok",
                    "exit_code": EXIT_OK,
                    "tx": tx,
                    "head_tx": store.head_tx,
                    "edb": str(snapshot),
                },
                out,
            )
            return EXIT_OK
        print("%% EDB as of tx %d (head %d)" % (tx, store.head_tx), file=out)
        print(str(snapshot), file=out)
        return EXIT_OK
    if args.goal_directed and not args.predicate:
        raise _UsageError("--goal-directed requires --predicate")
    program = parse_program(_read(args.program))
    engine = DeductiveEngine(program, snapshot)
    outcome, code, model, error = "ok", EXIT_OK, None, None
    magic_info = None
    with _tracing(args):
        try:
            if args.goal_directed:
                from repro.plan.magic import QueryGoal

                if window:
                    goal = QueryGoal.windowed(args.predicate, window[0], window[1])
                else:
                    goal = QueryGoal.whole(args.predicate)
                model, magic_info = engine.run_goal_directed(
                    goal, budget=_budget_from_args(args)
                )
            else:
                model = engine.run(budget=_budget_from_args(args))
        except GiveUpError as err:
            outcome, code, model, error = "gave-up", EXIT_PARTIAL, err.partial_model, err
        except BudgetExceededError as err:
            outcome, code, model, error = (
                "budget-exceeded",
                EXIT_BUDGET,
                err.partial_model,
                err,
            )
    if args.json:
        report = run_report(
            "asof",
            outcome,
            code,
            stats=model.stats if model is not None else None,
            model=model,
            error=error,
            window=window,
        )
        report["tx"] = tx
        if magic_info is not None:
            report["magic"] = magic_info
        _emit_json(report, out)
        return code
    if error is not None:
        print("%s: %s" % (outcome, error), file=sys.stderr)
    if model is None:
        return code
    print("%% model as of tx %d (head %d)" % (tx, store.head_tx), file=out)
    if magic_info is not None and not magic_info.get("degraded"):
        # A goal-directed model is only promised within the demanded
        # region of the goal predicate; print just that.
        print("%% goal-directed: %s" % magic_info["goal"], file=out)
    predicates = model.predicates()
    if magic_info is not None and not magic_info.get("degraded"):
        predicates = [name for name in predicates if name == args.predicate]
    for name in predicates:
        print("%s %s" % (name, model.relation(name).coalesce()), file=out)
        if window:
            low, high = window
            for flat in sorted(model.extension(name, low, high), key=typed_sort_key):
                print("  %s" % (flat,), file=out)
    return code


def build_parser():
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal constraint databases with linear repeating "
        "points (Baudinet, Niézette & Wolper, PODS 1991).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate a deductive program")
    run.add_argument("program", help="deductive program file")
    run.add_argument("--edb", required=True, help="generalized database file")
    run.add_argument("--predicate", help="print only this IDB predicate")
    run.add_argument(
        "--strategy", choices=("naive", "semi-naive"), default="semi-naive"
    )
    run.add_argument("--patience", type=int, default=10)
    run.add_argument(
        "--parallel",
        type=_parallel_arg,
        default=1,
        metavar="N|auto",
        help="shard each round's clause firings across N processes "
        "(default 1: sequential; the model is identical either way); "
        "'auto' starts sequential and upshifts only when a measured "
        "round is big enough to pay the dispatch overhead",
    )
    run.add_argument(
        "--shard-recv-deadline",
        type=float,
        metavar="SECONDS",
        help="seconds a silent shard worker is waited on mid-round "
        "before being declared hung and its tasks retried (default 30)",
    )
    run.add_argument(
        "--shard-max-restarts",
        type=int,
        metavar="N",
        help="shard-worker respawns allowed per run before a lost "
        "worker stays lost (default 2)",
    )
    run.add_argument(
        "--no-shard-fallback",
        action="store_true",
        help="fail the run when the whole shard pool is lost instead "
        "of finishing it sequentially in-process",
    )
    run.add_argument(
        "--fault-plan",
        metavar="PATH",
        help="JSON fault plan installed around the run (deterministic "
        "chaos testing; see repro.runtime.faults)",
    )
    run.add_argument(
        "--partial",
        action="store_true",
        help="print the partial model instead of failing on give-up "
        "(the exit code still reports 3)",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="print relation statistics for each predicate",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="independently verify the model (stability + ground window)",
    )
    run.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="checkpoint file to write (with --checkpoint-every)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="write a resumable checkpoint every N rounds",
    )
    run.add_argument(
        "--resume-from",
        metavar="PATH",
        help="resume evaluation from a checkpoint file",
    )
    _add_budget(run)
    _add_json(run)
    _add_window(run)
    _add_trace(run)
    run.set_defaults(handler=_cmd_run)

    explain = commands.add_parser(
        "explain",
        help="print the compiled clause plans of a deductive program",
    )
    explain.add_argument("program", help="deductive program file")
    explain.add_argument("--edb", required=True, help="generalized database file")
    explain.add_argument(
        "--profile",
        action="store_true",
        help="execute the program once and report per-operator time and "
        "input/output cardinalities alongside the plans",
    )
    explain.add_argument(
        "--strategy",
        choices=("naive", "semi-naive"),
        default="semi-naive",
        help="evaluation strategy for the --profile run",
    )
    _add_json(explain)
    explain.set_defaults(handler=_cmd_explain)

    query = commands.add_parser("query", help="evaluate an FO query")
    query.add_argument("database", help="generalized database file")
    query.add_argument("formula", help="first-order query text")
    query.add_argument(
        "--program",
        metavar="FILE",
        help="evaluate this deductive program first; the query then "
        "ranges over its model (IDB + EDB)",
    )
    query.add_argument(
        "--goal-directed",
        action="store_true",
        help="with --program: evaluate only the demand cone of the "
        "query via the magic-set rewrite; answers are guaranteed "
        "within the demanded window (falls back to the full fixpoint "
        "when the rewrite cannot apply)",
    )
    _add_deadline(query)
    _add_json(query)
    _add_window(query)
    _add_trace(query)
    query.set_defaults(handler=_cmd_query)

    d1s = commands.add_parser(
        "datalog1s", help="closed-form Datalog1S minimal model"
    )
    d1s.add_argument("program", help="Datalog1S program file")
    _add_budget(d1s, full=False)
    _add_json(d1s)
    _add_trace(d1s)
    d1s.set_defaults(handler=_cmd_datalog1s)

    tlg = commands.add_parser("templog", help="Templog minimal model")
    tlg.add_argument("program", help="Templog program file")
    _add_budget(tlg, full=False)
    _add_json(tlg)
    _add_trace(tlg)
    tlg.set_defaults(handler=_cmd_templog)

    batch = commands.add_parser(
        "batch",
        help="run a file of jobs on the resilient query service",
    )
    batch.add_argument("jobs", help="jobs file (JSON array or JSONL)")
    batch.add_argument(
        "--batch-timeout",
        type=float,
        metavar="SECONDS",
        help="bound on the total wait for the whole batch",
    )
    _add_service(batch)
    _add_json(batch)
    batch.set_defaults(handler=_cmd_batch)

    serve = commands.add_parser(
        "serve",
        help="serve JSON jobs line by line (stdin by default)",
    )
    serve.add_argument(
        "--input",
        metavar="PATH",
        help="read job lines from this file instead of stdin",
    )
    _add_service(serve)
    _add_trace(serve)
    serve.set_defaults(handler=_cmd_serve)

    txn = commands.add_parser(
        "txn",
        help="transactions against a durable EDB store (WAL-backed)",
    )
    txn_commands = txn.add_subparsers(dest="txn_command", required=True)

    txn_apply = txn_commands.add_parser(
        "apply",
        help="commit one or more transactions of declare/assert/retract ops",
    )
    txn_apply.add_argument("store", help="store directory (created if absent)")
    txn_apply.add_argument(
        "ops",
        help="JSON ops file: one op list, {'ops': [...]}, {'txns': [[...], "
        "...]}, or a list of op lists (one transaction each)",
    )
    txn_apply.add_argument(
        "--maintain",
        metavar="PROGRAM",
        help="incrementally maintain this program's model across the "
        "applied transactions and print/report the final model",
    )
    txn_apply.add_argument(
        "--checkpoint",
        dest="txn_checkpoint",
        action="store_true",
        help="write a store checkpoint (and prune covered WAL segments) "
        "after the last transaction",
    )
    txn_apply.add_argument(
        "--segment-bytes",
        type=int,
        metavar="N",
        help="WAL segment rotation threshold (testing/tuning)",
    )
    txn_apply.add_argument(
        "--fault-plan",
        metavar="FILE",
        help="install a deterministic fault plan (JSON) for the duration",
    )
    _add_window(txn_apply)
    _add_json(txn_apply)
    _add_trace(txn_apply)
    _add_budget(txn_apply)
    txn_apply.set_defaults(handler=_cmd_txn_apply)

    txn_log = txn_commands.add_parser(
        "log", help="list the store's committed transactions"
    )
    txn_log.add_argument("store", help="store directory")
    _add_json(txn_log)
    txn_log.set_defaults(handler=_cmd_txn_log)

    txn_ckpt = txn_commands.add_parser(
        "checkpoint",
        help="snapshot the fact history and prune covered WAL segments",
    )
    txn_ckpt.add_argument("store", help="store directory")
    _add_json(txn_ckpt)
    txn_ckpt.set_defaults(handler=_cmd_txn_checkpoint)

    asof = commands.add_parser(
        "asof",
        help="query a durable EDB store as of a transaction "
        "(tx <= N and not retracted by N)",
    )
    asof.add_argument("store", help="store directory")
    asof.add_argument(
        "--tx",
        type=int,
        metavar="N",
        help="the transaction to view as of (default: the store head)",
    )
    asof.add_argument(
        "--program",
        metavar="FILE",
        help="evaluate this deductive program over the as-of snapshot "
        "(default: print the snapshot EDB itself)",
    )
    asof.add_argument(
        "--predicate",
        metavar="NAME",
        help="with --goal-directed: the goal predicate to demand",
    )
    asof.add_argument(
        "--goal-directed",
        action="store_true",
        help="with --program and --predicate: evaluate only the goal's "
        "demand cone via the magic-set rewrite, pushing --window into "
        "the demand as a constraint zone",
    )
    _add_window(asof)
    _add_json(asof)
    _add_trace(asof)
    _add_budget(asof)
    asof.set_defaults(handler=_cmd_asof)

    return parser


def _add_service(parser):
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N", help="worker pool size"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="admission queue bound (submissions beyond it are shed)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per job for transient failures",
    )
    parser.add_argument(
        "--retry-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed of the deterministic backoff jitter",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive terminal failures that open a program's circuit",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="cooldown before a half-open probe is admitted",
    )
    parser.add_argument(
        "--deadline-seconds",
        "--deadline",
        dest="deadline",
        type=float,
        metavar="SECONDS",
        help="default per-job wall-clock deadline (jobs may override)",
    )
    parser.add_argument(
        "--work-dir",
        metavar="PATH",
        help="directory for per-job checkpoints (temporary by default)",
    )
    parser.add_argument(
        "--max-parallelism",
        type=int,
        default=None,
        metavar="N",
        help="cap on per-job shard parallelism "
        "(default: cpu count divided by --workers)",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="PATH",
        help="JSON fault plan to install for the whole run (testing)",
    )


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except _UsageError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as error:
        print("budget exceeded: %s" % error, file=sys.stderr)
        return EXIT_BUDGET
    except GiveUpError as error:
        print("give-up: %s" % error, file=sys.stderr)
        return EXIT_PARTIAL
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_ERROR
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
