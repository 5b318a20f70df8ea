"""The user-facing bottom-up engine with the paper's give-up policy.

:class:`DeductiveEngine` runs the T_GP fixpoint of Section 4.3 on a
program and a generalized EDB.  Each round it derives tuples with
every clause, discards the ones already covered (the constraint-safety
test of Theorem 4.3 applied tuple-by-tuple), and stops successfully
when a round derives nothing new.  Free-extension safety (Theorem 4.2)
is tracked for diagnostics; once the free-signature set has been
stable for ``patience`` rounds while tuples still keep arriving, the
engine gives up — exactly the policy the paper recommends ("it is
reasonable to give up on the computation if the interpretation does
not become constraint safe after a few iterations").

Beyond the paper's give-up policy the engine is resource-governed
(:mod:`repro.runtime`): a run can carry a hard
:class:`~repro.runtime.budget.EvaluationBudget` (wall-clock deadline,
round / accepted-tuple / derived-work caps, checked cooperatively every
round and every clause firing), write round-granular checkpoints that
:meth:`DeductiveEngine.run` can resume bit-identically, and degrade
gracefully: every early exit — give-up, budget, or an unexpected crash
mid-fixpoint — surfaces as a typed
:class:`~repro.util.errors.PartialResultError` carrying the queryable
partial model and the statistics accumulated so far.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.evaluation import ProgramEvaluator
from repro.core.safety import (
    CoverageChecker,
    coverage_test,
    free_signatures,
    is_free_extension_safe,
)
from repro.runtime.checkpoint import (
    Checkpoint,
    engine_fingerprint,
    load_checkpoint,
    write_checkpoint,
)
from repro.util import hooks
from repro.util.errors import (
    BudgetExceededError,
    CheckpointError,
    EvaluationAbortedError,
    EvaluationError,
    GiveUpError,
    PartialResultError,
)
from repro.util.hooks import fault_point

#: The ``parallelism="auto"`` governor's cost model.  A sharded round
#: saves at most ``t_round * (W-1)/W`` of sequential derivation time
#: and pays roughly ``W * AUTO_DISPATCH_OVERHEAD_S`` of dispatch /
#: merge overhead per round; the governor upshifts only when the
#: saving clears the overhead with an ``AUTO_ACTIVATION_MARGIN``
#: cushion, so marginal workloads stay on the (never-slower)
#: sequential path.  The overhead constant is calibrated against
#: ``benchmarks/parallel_bench.py`` on a warm pool.
AUTO_DISPATCH_OVERHEAD_S = 0.002
AUTO_ACTIVATION_MARGIN = 2.0


@dataclass
class EvaluationStats:
    """Bookkeeping for one engine run.

    ``rounds`` counts T_GP applications; ``new_tuples_per_round`` the
    accepted (not-covered) tuples each round; ``signature_stable_round``
    is the first round after which no new free signature appeared
    (1-based; 0 when the EDB signatures already cover everything);
    ``constraint_safe`` reports successful Theorem-4.3 termination;
    ``gave_up`` the paper's give-up exit; ``budget_exceeded`` a
    resource-budget exit.  ``resumed_from_round`` is the global round
    count restored from a checkpoint (``None`` for fresh runs) and
    ``checkpoints_written`` the number of snapshots this run persisted.

    Timing is segment-aware: ``elapsed_seconds`` accumulates across
    resume (the checkpointed run's elapsed time plus this segment's),
    ``prior_elapsed_seconds`` is the part inherited from the
    checkpoint (0.0 for fresh runs), and their difference — reported as
    ``segment_elapsed_seconds`` in :meth:`to_dict` — is the
    post-resume segment alone.

    ``shard_degraded`` is ``None`` unless a parallel run lost its whole
    shard pool beyond healing and downshifted to sequential mid-run; it
    then carries the reason/restart diagnostics.  :meth:`to_dict`
    includes the key only when set, so the report and checkpoint
    payloads of healthy parallel runs stay byte-identical to
    sequential ones (worker losses that were *healed* never touch the
    stats — they surface only as ``shard.worker`` trace events).

    ``maintain_degraded`` is the incremental maintainer's rung on the
    same ladder (:mod:`repro.edb.maintain`): ``None`` unless a delta
    batch fell back to a from-scratch recompute, in which case it
    carries the reason (schema change, rederive budget, negation) and
    the batch's delta counts; again included in :meth:`to_dict` only
    when set.

    ``magic_degraded`` is the goal-directed path's rung
    (:mod:`repro.plan.magic`): ``None`` unless a query asked for the
    magic rewrite and had to fall back to the full fixpoint, in which
    case it carries the goal and the reason; included in
    :meth:`to_dict` only when set.

    ``parallel_auto`` records the ``parallelism="auto"`` governor's
    decision (upshift to N workers at a given round, or stay
    sequential and why); ``None`` — and absent from :meth:`to_dict` —
    for fixed-parallelism runs, so their payloads are untouched.
    """

    strategy: str = "semi-naive"
    safety_mode: str = "paper"
    strata: int = 1
    rounds: int = 0
    new_tuples_per_round: List[int] = field(default_factory=list)
    derived_tuples_per_round: List[int] = field(default_factory=list)
    signature_stable_round: Optional[int] = None
    constraint_safe: bool = False
    gave_up: bool = False
    budget_exceeded: bool = False
    free_extension_safe_checked: Optional[bool] = None
    elapsed_seconds: float = 0.0
    prior_elapsed_seconds: float = 0.0
    resumed_from_round: Optional[int] = None
    checkpoints_written: int = 0
    shard_degraded: Optional[dict] = None
    maintain_degraded: Optional[dict] = None
    magic_degraded: Optional[dict] = None
    parallel_auto: Optional[dict] = None

    def total_new_tuples(self):
        """Tuples accepted into the model across all rounds."""
        return sum(self.new_tuples_per_round)

    def to_dict(self):
        """A JSON-safe dict of every field (powers the CLI ``--json``
        report and the checkpoint format)."""
        payload = {
            "strategy": self.strategy,
            "safety_mode": self.safety_mode,
            "strata": self.strata,
            "rounds": self.rounds,
            "new_tuples_per_round": list(self.new_tuples_per_round),
            "derived_tuples_per_round": list(self.derived_tuples_per_round),
            "total_new_tuples": self.total_new_tuples(),
            "signature_stable_round": self.signature_stable_round,
            "constraint_safe": self.constraint_safe,
            "gave_up": self.gave_up,
            "budget_exceeded": self.budget_exceeded,
            "free_extension_safe_checked": self.free_extension_safe_checked,
            "elapsed_seconds": self.elapsed_seconds,
            "prior_elapsed_seconds": self.prior_elapsed_seconds,
            "segment_elapsed_seconds": max(
                0.0, self.elapsed_seconds - self.prior_elapsed_seconds
            ),
            "resumed_from_round": self.resumed_from_round,
            "checkpoints_written": self.checkpoints_written,
        }
        if self.shard_degraded is not None:
            payload["shard_degraded"] = dict(self.shard_degraded)
        if self.maintain_degraded is not None:
            payload["maintain_degraded"] = dict(self.maintain_degraded)
        if self.magic_degraded is not None:
            payload["magic_degraded"] = dict(self.magic_degraded)
        if self.parallel_auto is not None:
            payload["parallel_auto"] = dict(self.parallel_auto)
        return payload

    def restore_progress(self, payload):
        """Adopt the *progress* fields of a checkpointed stats dict.

        Outcome flags (``constraint_safe``, ``gave_up``, …) restart
        with the resumed run; the monotone progress counters carry
        over, and so does accumulated wall time: the checkpointed
        ``elapsed_seconds`` (itself cumulative across earlier resumes)
        becomes this run's ``prior_elapsed_seconds``, so a resumed
        run's final ``elapsed_seconds`` covers every segment instead of
        silently dropping the pre-resume work.
        """
        self.rounds = payload["rounds"]
        self.new_tuples_per_round = list(payload["new_tuples_per_round"])
        self.derived_tuples_per_round = list(payload["derived_tuples_per_round"])
        self.signature_stable_round = payload["signature_stable_round"]
        self.prior_elapsed_seconds = payload.get("elapsed_seconds", 0.0)
        self.elapsed_seconds = self.prior_elapsed_seconds


class Model:
    """The result of an engine run: the IDB relations plus stats."""

    def __init__(self, relations, stats, edb=None):
        self._relations = dict(relations)
        self.stats = stats
        self._edb = edb

    def predicates(self):
        """The intensional predicate names."""
        return sorted(self._relations)

    def relation(self, name):
        """The closed-form relation computed for ``name``."""
        return self._relations[name]

    def extension(self, name, low, high):
        """Ground tuples of ``name`` within the window ``[low, high)``."""
        return self.relation(name).extension(low, high)

    def query(self, formula):
        """Evaluate a first-order query (text or AST) over this model's
        IDB together with the EDB it was computed from — deduction once,
        querying many times (the paper's Section 1 argument)."""
        from repro.fo import evaluate_query
        from repro.gdb.database import GeneralizedDatabase

        edb = self._edb if self._edb is not None else GeneralizedDatabase()
        return evaluate_query(edb, formula, extra_relations=self._relations)

    def as_database(self):
        """The model as a :class:`GeneralizedDatabase` — the paper's
        "closed form": derived predicates become ordinary generalized
        relations that can be stored, re-parsed, and queried without
        re-running the deduction (its Section 1 argument for computing
        the explicit form "once and for all")."""
        from repro.gdb.database import GeneralizedDatabase

        db = GeneralizedDatabase()
        for name in self.predicates():
            relation = self.relation(name)
            db.declare(name, relation.temporal_arity, relation.data_arity)
            db.set_relation(name, relation)
        return db

    def equivalent(self, other):
        """Exact extension equality with another model, predicate by
        predicate — the resilience tests' oracle: a retried run that
        resumed from a checkpoint must be ``equivalent()`` to an
        uninterrupted one."""
        if self.predicates() != other.predicates():
            return False
        return all(
            self.relation(name).equivalent(other.relation(name))
            for name in self.predicates()
        )

    def __getitem__(self, name):
        return self.relation(name)

    def __contains__(self, name):
        return name in self._relations

    def __str__(self):
        chunks = []
        for name in self.predicates():
            chunks.append("%s %s" % (name, self.relation(name)))
        return "\n".join(chunks)


class DeductiveEngine:
    """Closed-form bottom-up evaluation of a deductive program.

    Parameters
    ----------
    program:
        A :class:`~repro.core.ast.Program` (see
        :func:`~repro.core.parser.parse_program`).
    edb:
        A :class:`~repro.gdb.database.GeneralizedDatabase` providing
        every extensional predicate.
    strategy:
        ``"semi-naive"`` (default) or ``"naive"``.
    safety:
        Coverage test for accepting/stopping: ``"paper"`` (Theorem 4.3,
        same-free-extension implication) or ``"semantic"`` (full
        extension containment; ablation).
    max_rounds:
        Hard iteration cap.
    patience:
        Give-up budget: extra rounds allowed after the free-signature
        set stops growing.  ``None`` disables the give-up policy (only
        ``max_rounds`` limits the run).
    on_give_up:
        ``"raise"`` (default) raises
        :class:`~repro.util.errors.GiveUpError` carrying the partial
        model; ``"partial"`` returns the partial model with
        ``stats.gave_up`` set.
    evaluation:
        Clause-evaluation backend: ``"compiled"`` (default; the plan
        layer of :mod:`repro.plan`) or ``"reference"`` (the
        paper-literal product-then-select oracle).
    parallelism:
        Number of processes evaluating each round's clause-variant
        firings (default 1: the sequential path, untouched).  With
        ``parallelism >= 2`` the firings are sharded across a process
        pool (:mod:`repro.plan.shard`) and merged in sequential firing
        order, so the model, the stats, and the checkpoint fingerprints
        are bit-identical to a sequential run; budget deadlines are
        enforced at shard boundaries instead of between firings.  The
        pool is supervised: crashed/hung workers are detected, their
        task slices retried on survivors or respawned replacements, and
        the invariant holds no matter which workers die when.
        ``"auto"`` starts sequential and measures: when a round's
        derivation time can pay for the measured dispatch overhead
        (and the host has at least 2 CPUs), the run upshifts to a pool
        mid-stratum — otherwise it never pays the sharding tax at all.
        The decision lands in ``stats.parallel_auto``.
    auto_parallelism_cap:
        Upper bound on the worker count an ``"auto"`` upshift may
        choose (default: min(cores, 4)); ignored for fixed counts.
    shard_recv_deadline:
        Seconds a silent-but-alive shard worker is waited on mid-round
        before being declared hung and killed (default
        :data:`repro.plan.shard.DEFAULT_RECV_DEADLINE`).
    shard_max_restarts:
        Shard-worker respawns allowed per run before a lost worker
        stays lost (default
        :data:`repro.plan.shard.DEFAULT_MAX_RESTARTS`).
    shard_fallback:
        When the whole pool is lost beyond healing, finish the run
        sequentially in-process instead of failing it (default True;
        the downshift is recorded in ``stats.shard_degraded`` and as a
        ``shard.degraded`` event).  With False the loss raises
        :class:`~repro.util.errors.EvaluationAbortedError`.

    >>> from repro.core import DeductiveEngine, parse_program
    >>> from repro.gdb import parse_database
    >>> edb = parse_database('''
    ...   relation course[2; 1] {
    ...     (168n+8, 168n+10; "database") where T2 = T1 + 2;
    ...   }''')
    >>> program = parse_program('''
    ...   problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
    ...   problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
    ... ''')
    >>> model = DeductiveEngine(program, edb).run()
    >>> model.relation("problems").contains_point((10, 12), ("database",))
    True
    """

    def __init__(
        self,
        program,
        edb,
        strategy="semi-naive",
        safety="paper",
        max_rounds=500,
        patience=10,
        on_give_up="raise",
        evaluation="compiled",
        parallelism=1,
        shard_recv_deadline=None,
        shard_max_restarts=None,
        shard_fallback=True,
        shard_poll_floor=None,
        shard_poll_ceiling=None,
        auto_parallelism_cap=None,
    ):
        if strategy not in ("naive", "semi-naive"):
            raise ValueError("strategy must be 'naive' or 'semi-naive'")
        if on_give_up not in ("raise", "partial"):
            raise ValueError("on_give_up must be 'raise' or 'partial'")
        self.program = program
        self.edb = edb
        self.strategy = strategy
        self.safety = safety
        self.max_rounds = max_rounds
        self.patience = patience
        self.on_give_up = on_give_up
        self._covered = coverage_test(safety)
        self.evaluator = ProgramEvaluator(
            program,
            edb,
            evaluation=evaluation,
            parallelism=parallelism,
            shard_recv_deadline=shard_recv_deadline,
            shard_max_restarts=shard_max_restarts,
            shard_fallback=shard_fallback,
            shard_poll_floor=shard_poll_floor,
            shard_poll_ceiling=shard_poll_ceiling,
            auto_parallelism_cap=auto_parallelism_cap,
        )

    @property
    def parallelism(self):
        """The configured shard count (1 = sequential)."""
        return self.evaluator.parallelism

    # -- public API -------------------------------------------------------

    def fingerprint(self):
        """The digest checkpoints are stamped with: program text, EDB
        text, strategy, safety mode, and the compiled plans must all
        match for a resume — a plan-layer change that would alter
        derivation order invalidates old checkpoints instead of
        silently replaying differently.

        ``parallelism`` is deliberately *not* hashed: it changes no
        derived tuple, so a checkpoint written by a sequential run
        resumes under a parallel one (and vice versa) with the same
        fingerprint."""
        return engine_fingerprint(
            str(self.program),
            str(self.edb),
            self.strategy,
            self.safety,
            self.evaluator.plan_fingerprint(),
        )

    def run(
        self,
        check_free_extension_safety=False,
        budget=None,
        checkpoint_every=None,
        checkpoint_path=None,
        resume_from=None,
    ):
        """Run to constraint safety, give-up, budget, or the round cap.

        With ``check_free_extension_safety`` the paper-literal
        Theorem-4.2 test is evaluated on the final interpretation and
        recorded in the stats (it costs one extra T_GP round).

        ``budget`` is an optional
        :class:`~repro.runtime.budget.EvaluationBudget`; when a limit
        trips, :class:`~repro.util.errors.BudgetExceededError` is raised
        with the partial model attached.  ``checkpoint_every=N`` with
        ``checkpoint_path`` writes a resumable snapshot after every Nth
        round of each stratum; ``resume_from`` restores such a snapshot
        (same program, EDB, strategy, and safety mode required) and
        continues mid-stratum, replaying bit-identically to an
        uninterrupted run.  Any other exception escaping the fixpoint is
        wrapped in :class:`~repro.util.errors.EvaluationAbortedError`,
        again with the partial model attached.
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be a positive round count")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        stats = EvaluationStats(strategy=self.strategy, safety_mode=self.safety)
        # A degraded pool belongs to the run that lost it; a fresh run
        # gets a fresh shot at parallelism.  Likewise an auto-mode
        # upshift: each run re-measures from the sequential baseline.
        self.evaluator.shard_degraded = None
        self.evaluator.parallel_auto = None
        if self.evaluator.parallelism_mode == "auto":
            self.evaluator.parallelism = 1
        started = time.perf_counter()
        meter = budget.start() if budget is not None else None
        checker = CoverageChecker(self.safety)
        env = self.evaluator.initial_environment()
        known_signatures = {
            name: free_signatures(env[name]) for name in self.evaluator.intensional
        }
        stats.strata = self.evaluator.stratum_count()
        start_stratum = 0
        resume = None

        if resume_from is not None:
            resume = load_checkpoint(resume_from)
            if resume.fingerprint != self.fingerprint():
                raise CheckpointError(
                    "checkpoint was written by a different program/EDB/"
                    "configuration (fingerprint mismatch)"
                )
            for name, relation in resume.env.items():
                if name not in self.evaluator.intensional:
                    raise CheckpointError(
                        "checkpoint carries unknown intensional predicate %r" % name
                    )
                env[name] = relation
            for name, signatures in resume.known_signatures.items():
                known_signatures[name] = set(signatures)
            stats.restore_progress(resume.stats)
            stats.resumed_from_round = stats.rounds
            start_stratum = resume.stratum_index

        last_signature_growth = 0
        strata = self.evaluator.stratum_evaluators
        if hooks.SINKS:
            hooks.emit(
                "engine.run",
                {
                    "phase": "begin",
                    "strategy": self.strategy,
                    "safety": self.safety,
                    "strata": len(strata),
                    "resumed_from_round": stats.resumed_from_round,
                },
            )
        try:
            stratum_index = start_stratum
            while stratum_index < len(strata):
                evaluators = strata[stratum_index]
                if meter is not None:
                    # Deadline-only check at the stratum boundary (no
                    # budget.charge event, so parallel/sequential event
                    # streams stay identical).
                    meter.tick_stratum()
                if hooks.SINKS:
                    hooks.emit(
                        "engine.stratum",
                        {
                            "phase": "begin",
                            "stratum": stratum_index,
                            "clauses": len(evaluators),
                        },
                    )
                if resume is not None and stratum_index == start_stratum:
                    complements = dict(resume.complements)
                    delta = None if resume.delta is None else dict(resume.delta)
                    rounds_done = resume.rounds_in_stratum
                    last_growth = resume.last_growth
                else:
                    complements = self.evaluator.complements_for(evaluators, env)
                    delta = None
                    rounds_done = 0
                    last_growth = stats.rounds
                stratum_closed = self._run_stratum(
                    evaluators,
                    complements,
                    env,
                    known_signatures,
                    stats,
                    stratum_index=stratum_index,
                    delta=delta,
                    rounds_done=rounds_done,
                    last_growth=last_growth,
                    meter=meter,
                    checkpoint_every=checkpoint_every,
                    checkpoint_path=checkpoint_path,
                    run_started=started,
                    checker=checker,
                )
                last_signature_growth = stats.signature_stable_round
                if hooks.SINKS:
                    hooks.emit(
                        "engine.stratum",
                        {
                            "phase": "end",
                            "stratum": stratum_index,
                            "closed": stratum_closed,
                            "rounds": stats.rounds,
                        },
                    )
                if not stratum_closed:
                    stats.gave_up = True
                    break
                stratum_index += 1
            else:
                stats.constraint_safe = True
        except BudgetExceededError as error:
            stats.budget_exceeded = True
            stats.elapsed_seconds = stats.prior_elapsed_seconds + (
                time.perf_counter() - started
            )
            error.partial_model = self._partial_model(env, stats)
            error.stats = stats
            self._emit_run_end(stats, "budget-exceeded")
            raise
        except PartialResultError:
            self._emit_run_end(stats, "aborted")
            raise
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            stats.elapsed_seconds = stats.prior_elapsed_seconds + (
                time.perf_counter() - started
            )
            self._emit_run_end(stats, "aborted")
            raise EvaluationAbortedError(
                "evaluation aborted during round %d: %s" % (stats.rounds, error),
                partial_model=self._partial_model(env, stats),
                stats=stats,
            ) from error
        finally:
            # Shard workers live for one run; a later run restarts them.
            self.evaluator.close_parallel()

        stats.elapsed_seconds = stats.prior_elapsed_seconds + (
            time.perf_counter() - started
        )

        if self.evaluator.parallelism_mode == "auto":
            if self.evaluator.parallel_auto is None:
                # The governor never saw a round worth sharding.
                self.evaluator.parallel_auto = {
                    "decision": "sequential",
                    "reason": "below-threshold",
                }
            if stats.parallel_auto is None:
                stats.parallel_auto = dict(self.evaluator.parallel_auto)

        if check_free_extension_safety:
            stats.free_extension_safe_checked = is_free_extension_safe(
                self.evaluator, env
            )

        self._emit_run_end(stats, "gave-up" if stats.gave_up else "ok")
        try:
            model = self._partial_model(env, stats)
        except (KeyboardInterrupt, SystemExit, PartialResultError):
            raise
        except Exception as error:
            # A fault during final normalization (e.g. an injected
            # dbm_canonicalize fault whose hit count lands here) gets
            # the same typed wrapping as one during the rounds.
            raise EvaluationAbortedError(
                "evaluation aborted while finalizing the model: %s" % error,
                partial_model=self._partial_model(env, stats, best_effort=True),
                stats=stats,
            ) from error
        if stats.gave_up and self.on_give_up == "raise":
            raise GiveUpError(
                "bottom-up evaluation did not reach constraint safety "
                "within its budget (%d rounds, free signatures stable "
                "since round %d)" % (stats.rounds, last_signature_growth),
                partial_model=model,
                stats=stats,
            )
        return model

    def run_goal_directed(self, goal, budget=None, widen_delay=None):
        """Evaluate goal-directedly for ``goal`` (a
        :class:`~repro.plan.magic.QueryGoal`) via the magic-set rewrite,
        falling back to the full fixpoint — with the degradation
        recorded in ``stats.magic_degraded`` — when the rewrite cannot
        apply.  Returns ``(model, info)``; see
        :func:`~repro.plan.magic.goal_directed_model`.

        The rewritten program always runs sequentially: demand
        predicates are internal names the shard pool's program
        round-trip does not guarantee to preserve, and goal-directed
        runs are small by construction.
        """
        from repro.plan.magic import DEFAULT_WIDEN_DELAY, goal_directed_model

        return goal_directed_model(
            self.program,
            self.edb,
            goal,
            evaluation=self.evaluator.evaluation,
            strategy=self.strategy,
            safety=self.safety,
            max_rounds=self.max_rounds,
            patience=self.patience,
            on_give_up=self.on_give_up,
            budget=budget,
            widen_delay=(
                DEFAULT_WIDEN_DELAY if widen_delay is None else widen_delay
            ),
        )

    def maintain(self, relations, delta=None, budget=None):
        """Continue the fixpoint from a warm intensional state instead
        of the empty one — the engine entry point of incremental
        maintenance (:mod:`repro.edb.maintain`).

        ``relations`` maps intensional predicate names to relations
        that are a *sound under-approximation* of the least fixpoint
        over this engine's (already updated) EDB: the previous
        materialization when only inserts happened, or the
        DRed-surviving state after overdeletion.  ``delta`` maps
        predicate names — intensional **or extensional** — to the
        tuples that are new relative to the state ``relations`` was
        computed against; those tuples must already be present in the
        EDB/``relations`` (the semi-naive invariant).  The first round
        then fires each clause at every body position holding a delta
        predicate (:meth:`ProgramEvaluator.maintenance_round`); later
        rounds are ordinary semi-naive rounds over the fresh tuples.
        ``delta=None`` instead makes the first round a full naive
        round — the DRed rederivation restart.

        Only single-stratum programs without negation can be grown
        from a warm state (non-monotone strata would have to be
        recomputed anyway); anything else raises
        :class:`~repro.util.errors.EvaluationError`, which the
        maintainer treats as "recompute from scratch".  Give-up,
        budget, and abort behavior mirror :meth:`run`.
        """
        if self.evaluator.stratum_count() > 1:
            raise EvaluationError(
                "incremental maintenance requires a single stratum "
                "(program has %d)" % self.evaluator.stratum_count()
            )
        for evaluator in self.evaluator.evaluators:
            if evaluator.normalized.negated_atoms:
                raise EvaluationError(
                    "incremental maintenance cannot warm-start clauses "
                    "with negation: %s" % evaluator.normalized
                )
        stats = EvaluationStats(strategy="semi-naive", safety_mode=self.safety)
        stats.strata = 1
        started = time.perf_counter()
        meter = budget.start() if budget is not None else None
        checker = CoverageChecker(self.safety)
        env = self.evaluator.initial_environment()
        for name, relation in relations.items():
            if name not in self.evaluator.intensional:
                raise EvaluationError(
                    "maintained state carries unknown intensional "
                    "predicate %r" % name
                )
            env[name] = relation
        known_signatures = {
            name: free_signatures(env[name]) for name in self.evaluator.intensional
        }
        evaluators = self.evaluator.stratum_evaluators[0]
        last_growth = 0
        if delta is not None:
            delta = {name: list(tuples) for name, tuples in delta.items() if tuples}
            if not delta:
                # Nothing changed relative to the warm state.
                stats.constraint_safe = True
                stats.elapsed_seconds = time.perf_counter() - started
                return self._partial_model(env, stats)
        try:
            while stats.rounds < self.max_rounds:
                stats.rounds += 1
                fault_point("round")
                if meter is not None:
                    meter.charge_round()
                if delta is None:
                    derived = self.evaluator.naive_round(
                        env, evaluators=evaluators, meter=meter
                    )
                else:
                    derived = self.evaluator.maintenance_round(env, delta, meter=meter)
                stats.derived_tuples_per_round.append(
                    sum(len(ts) for ts in derived.values())
                )
                fresh = checker.sweep(derived, env)
                accepted = sum(len(ts) for ts in fresh.values())
                stats.new_tuples_per_round.append(accepted)
                if not fresh:
                    stats.constraint_safe = True
                    stats.signature_stable_round = last_growth
                    break
                grew_signatures = False
                for predicate, tuples in fresh.items():
                    env[predicate] = env[predicate].with_tuples(tuples)
                    for gt in tuples:
                        if gt.free_signature() not in known_signatures[predicate]:
                            known_signatures[predicate].add(gt.free_signature())
                            grew_signatures = True
                if grew_signatures:
                    last_growth = stats.rounds
                delta = fresh
                if meter is not None:
                    meter.charge_accepted(accepted)
                if (
                    self.patience is not None
                    and stats.rounds - last_growth >= self.patience
                ):
                    break
        except BudgetExceededError as error:
            stats.budget_exceeded = True
            stats.elapsed_seconds = time.perf_counter() - started
            error.partial_model = self._partial_model(env, stats)
            error.stats = stats
            raise
        except (KeyboardInterrupt, SystemExit, PartialResultError):
            raise
        except Exception as error:
            stats.elapsed_seconds = time.perf_counter() - started
            raise EvaluationAbortedError(
                "maintenance aborted during round %d: %s" % (stats.rounds, error),
                partial_model=self._partial_model(env, stats, best_effort=True),
                stats=stats,
            ) from error
        stats.elapsed_seconds = time.perf_counter() - started
        if stats.signature_stable_round is None:
            stats.signature_stable_round = last_growth
        if not stats.constraint_safe:
            stats.gave_up = True
        model = self._partial_model(env, stats)
        if stats.gave_up and self.on_give_up == "raise":
            raise GiveUpError(
                "incremental maintenance did not reach constraint safety "
                "within its budget (%d rounds)" % stats.rounds,
                partial_model=model,
                stats=stats,
            )
        return model

    def _emit_run_end(self, stats, outcome):
        if hooks.SINKS:
            hooks.emit(
                "engine.run",
                {
                    "phase": "end",
                    "outcome": outcome,
                    "rounds": stats.rounds,
                    "constraint_safe": stats.constraint_safe,
                    "elapsed_seconds": stats.elapsed_seconds,
                },
            )

    def _still_parallel(self, stats):
        """Re-check the shard pool after a parallel step: an unhealable
        pool loss flips the evaluator to degraded, and the rest of the
        run — this round's siblings, later rounds, later strata — runs
        on the sequential path the parent maintained all along."""
        if self.evaluator.shard_degraded is not None:
            stats.shard_degraded = dict(self.evaluator.shard_degraded)
            return False
        return True

    def _partial_model(self, env, stats, best_effort=False):
        """The (possibly partial) model for the current environment.

        With ``best_effort`` a failure during normalization (a fault
        plan can fire inside it) degrades to the raw relations instead
        of propagating — used when the model rides on an error that
        must not be displaced."""
        try:
            relations = {
                name: env[name].normalize() for name in self.evaluator.intensional
            }
        except Exception:
            if not best_effort:
                raise
            relations = {
                name: env[name] for name in self.evaluator.intensional
            }
        return Model(relations, stats, edb=self.edb)

    def _run_stratum(
        self,
        evaluators,
        complements,
        env,
        known_signatures,
        stats,
        stratum_index=0,
        delta=None,
        rounds_done=0,
        last_growth=None,
        meter=None,
        checkpoint_every=None,
        checkpoint_path=None,
        run_started=None,
        checker=None,
    ):
        """Fixpoint over one stratum's clauses; returns True when the
        stratum reached constraint safety, False on give-up/cap.

        ``rounds_done``/``delta``/``last_growth`` seed the loop when
        resuming from a mid-stratum checkpoint; ``run_started`` is the
        run's :func:`time.perf_counter` origin, consulted so checkpoints
        (and round events) carry live elapsed time."""
        if last_growth is None:
            last_growth = stats.rounds
        if checker is None:
            checker = CoverageChecker(self.safety)
        parallel = self.evaluator.parallel_active()
        pending_update = None
        if parallel:
            # Workers replicate the stratum context once, then stay in
            # sync from the per-round accepted-tuple updates.
            self.evaluator.parallel_begin_stratum(
                stratum_index, env, complements, delta
            )
            parallel = self._still_parallel(stats)
        # The auto governor: while undecided, time each sequential
        # round's derivation and upshift when it could pay for a pool.
        auto_undecided = (
            self.evaluator.parallelism_mode == "auto"
            and self.evaluator.parallel_auto is None
            and self.evaluator.shard_degraded is None
        )
        if auto_undecided and (os.cpu_count() or 1) < 2:
            decision = {"decision": "sequential", "reason": "single-cpu"}
            self.evaluator.parallel_auto = decision
            stats.parallel_auto = dict(decision)
            auto_undecided = False
        while rounds_done < self.max_rounds:
            rounds_done += 1
            stats.rounds += 1
            observing = bool(hooks.SINKS)
            if observing:
                round_started = time.perf_counter()
                hooks.emit(
                    "engine.round",
                    {
                        "phase": "begin",
                        "round": stats.rounds,
                        "stratum": stratum_index,
                        "strategy": self.strategy,
                    },
                )
            fault_point("round")
            if meter is not None:
                meter.charge_round()
            seminaive = self.strategy != "naive" and delta is not None
            if auto_undecided and not parallel:
                derive_started = time.perf_counter()
            if parallel:
                tasks = self.evaluator.round_tasks(
                    evaluators, delta if seminaive else None
                )
                derived = self.evaluator.parallel_round(
                    evaluators,
                    tasks,
                    pending_update,
                    env=env,
                    complements=complements,
                    delta=delta if seminaive else None,
                    meter=meter,
                )
                pending_update = None
                parallel = self._still_parallel(stats)
            elif seminaive:
                derived = self.evaluator.seminaive_round(
                    env, delta, evaluators=evaluators, complements=complements,
                    meter=meter,
                )
            else:
                derived = self.evaluator.naive_round(
                    env, evaluators=evaluators, complements=complements, meter=meter
                )
            if auto_undecided and not parallel:
                derive_seconds = time.perf_counter() - derive_started
            stats.derived_tuples_per_round.append(
                sum(len(ts) for ts in derived.values())
            )

            if observing:
                cache_hits, cache_misses = checker.hits, checker.misses
            fresh = checker.sweep(derived, env)

            accepted = sum(len(ts) for ts in fresh.values())
            stats.new_tuples_per_round.append(accepted)
            if observing:
                hooks.emit(
                    "coverage.cache",
                    {
                        "round": stats.rounds,
                        "stratum": stratum_index,
                        "enabled": checker.use_cache,
                        "hits": checker.hits - cache_hits,
                        "misses": checker.misses - cache_misses,
                    },
                )
                hooks.emit(
                    "engine.round",
                    {
                        "phase": "end",
                        "round": stats.rounds,
                        "stratum": stratum_index,
                        "derived": stats.derived_tuples_per_round[-1],
                        "accepted": accepted,
                        "duration_s": time.perf_counter() - round_started,
                    },
                )

            if not fresh:
                stats.signature_stable_round = last_growth
                self.evaluator.parallel_end_stratum()
                return True

            grew_signatures = False
            for predicate, tuples in fresh.items():
                env[predicate] = env[predicate].with_tuples(tuples)
                for gt in tuples:
                    if gt.free_signature() not in known_signatures[predicate]:
                        known_signatures[predicate].add(gt.free_signature())
                        grew_signatures = True
            if grew_signatures:
                last_growth = stats.rounds
            delta = fresh
            if parallel:
                # Workers apply this in the same (predicate, tuple)
                # order the parent just did, keeping replicas
                # bit-identical.
                pending_update = list(fresh.items())
            elif auto_undecided:
                workers = self.evaluator.auto_target_workers()
                saving = derive_seconds * (workers - 1) / workers
                threshold = (
                    AUTO_ACTIVATION_MARGIN * workers * AUTO_DISPATCH_OVERHEAD_S
                )
                if saving > threshold:
                    decision = {
                        "decision": "parallel",
                        "workers": workers,
                        "round": stats.rounds,
                        "round_seconds": derive_seconds,
                        "threshold_seconds": threshold,
                    }
                    self.evaluator.parallel_auto = decision
                    stats.parallel_auto = dict(decision)
                    auto_undecided = False
                    self.evaluator.resolve_auto_parallelism(workers)
                    # Mid-stratum upshift rides the same broadcast as a
                    # mid-stratum resume: the current env plus the
                    # in-flight delta; no pending update remains.
                    self.evaluator.parallel_begin_stratum(
                        stratum_index, env, complements, delta
                    )
                    pending_update = None
                    parallel = self._still_parallel(stats)

            if meter is not None:
                meter.charge_accepted(accepted)

            if checkpoint_every is not None and rounds_done % checkpoint_every == 0:
                if run_started is not None:
                    # Checkpoints must carry live cumulative elapsed
                    # time: restore_progress turns it into the resumed
                    # run's prior_elapsed_seconds.
                    stats.elapsed_seconds = stats.prior_elapsed_seconds + (
                        time.perf_counter() - run_started
                    )
                write_checkpoint(
                    checkpoint_path,
                    Checkpoint(
                        fingerprint=self.fingerprint(),
                        plan_fingerprint=self.evaluator.plan_fingerprint(),
                        stratum_index=stratum_index,
                        rounds_in_stratum=rounds_done,
                        last_growth=last_growth,
                        env={
                            name: env[name]
                            for name in self.evaluator.intensional
                        },
                        known_signatures=known_signatures,
                        stats=stats.to_dict(),
                        delta=delta,
                        complements=complements,
                    ),
                )
                stats.checkpoints_written += 1

            if (
                self.patience is not None
                and stats.rounds - last_growth >= self.patience
            ):
                break
        stats.signature_stable_round = last_growth
        self.evaluator.parallel_end_stratum()
        return False

    def trace(self, max_rounds=None, budget=None):
        """Yield ``(round_number, {predicate: [accepted tuples]})`` for
        each round, naive strategy — the form in which the paper prints
        the Example 4.1 computation.  Stops at constraint safety or the
        round cap per stratum (no give-up error).  An optional
        ``budget`` is charged per round and clause firing, raising
        :class:`~repro.util.errors.BudgetExceededError` (without a
        partial model — the tuples already yielded are the partial
        result)."""
        limit = max_rounds or self.max_rounds
        meter = budget.start() if budget is not None else None
        checker = CoverageChecker(self.safety)
        env = self.evaluator.initial_environment()
        round_number = 0
        for evaluators in self.evaluator.stratum_evaluators:
            complements = self.evaluator.complements_for(evaluators, env)
            for _ in range(limit):
                round_number += 1
                if meter is not None:
                    meter.charge_round()
                derived = self.evaluator.naive_round(
                    env, evaluators=evaluators, complements=complements, meter=meter
                )
                fresh = checker.sweep(derived, env)
                if not fresh:
                    break
                for predicate, tuples in fresh.items():
                    env[predicate] = env[predicate].with_tuples(tuples)
                yield round_number, fresh
