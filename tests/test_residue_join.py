"""The residue-class join index and the per-step template caches.

A compiled join step whose pushed-down atoms include ``T_b = T_a + k``
(``T_a`` a working-set column, ``T_b`` a column of the source atom)
buckets the source by lrp offset modulo the gcd of the periods in the
two columns.  By the lrp intersection rule of Section 2.1 every pair
the buckets separate is one the fused join would close to None, so:

* the index must not change a single bit of the model, the per-round
  stats or the checkpoints (checked against the same plans with the
  index switched off), and compiled stays equivalent to the
  paper-literal reference;
* on the E14 ``meetK`` self-join it examines exactly the pairs it
  emits.

The template caches belong to their plan step, so they are freed with
the engine: many consecutive runs leave no more live templates than
one.
"""

import gc
import json
import os
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import DeductiveEngine, parse_program
from repro.core.evaluation import ProgramEvaluator
from repro.gdb import kernel, parse_database
from repro.plan.operators import JoinStep
from repro.util import hooks

EDB_TEXT = """
relation r[1; 1] {
  (6n; "x") where T1 >= 0;
  (4n+1; "y") where T1 >= 0;
  (6n+3; "y") where T1 >= 0 & T1 <= 40;
}
relation s[1; 1] {
  (6n+2; "x") where T1 >= 0;
  (12n+1; "y") where T1 >= 0;
  (n; "x") where T1 = 5;
}
relation e[1; 1] { (6n+2; "x") where T1 >= 0; (12n+1; "y") where T1 >= 0; }
relation c[1; 1] { (n; "x") where T1 = 7; (n; "y") where T1 = 9; }
relation v[1; 1] { (5n+1; "x") where T1 >= 0; }
relation w[2; 1] {
  (12n+1, 12n+4; "x") where T1 >= 0 & T2 = T1 + 3;
  (4n+2, 6n+1; "y") where T1 >= 0 & T2 >= T1;
}
"""

#: Positive body predicates and their temporal arities.  Periods mix
#: (``r`` 6 and 4, ``e`` 6 and 12, ``w`` 12, 4 and 6: gcds 2 to 6),
#: ``c`` has period-1 (constant) columns and ``s`` one period-1 row,
#: ``v``'s period 5 is coprime with the others (the ``g == 1``
#: fallback), and ``p`` is recursive (the first clause heads it).
ARITY = {"r": 1, "s": 1, "e": 1, "c": 1, "v": 1, "w": 2, "p": 1}
NEGATABLE = ("r", "s", "e", "c", "v")
NOT_JOINS = ("carrier", "projection")


def edb():
    return parse_database(EDB_TEXT)


def _term(var, offset):
    if offset == 0:
        return var
    return "%s %s %d" % (var, "+" if offset > 0 else "-", abs(offset))


@st.composite
def join_program(draw):
    """Programs whose joins link a source column to a bound one by a
    fixed offset ``T_b = T_a + k`` (k may be negative), with or without
    a shared data variable, and optionally a negated atom on the same
    temporal variable."""
    clauses = []
    for index in range(draw(st.integers(1, 3))):
        head_pred = "p" if index == 0 else draw(st.sampled_from(["p", "q"]))
        first = draw(st.sampled_from(sorted(ARITY)))
        bound = ["t"] if ARITY[first] == 1 else ["t", "u"]
        body = ["%s(%s; X)" % (first, ", ".join(bound))]
        data = ["X"]
        for _ in range(draw(st.integers(1, 2))):
            pred = draw(st.sampled_from(sorted(ARITY)))
            args = [
                _term(draw(st.sampled_from(bound)), draw(st.integers(-3, 3)))
                for _ in range(ARITY[pred])
            ]
            term = draw(st.sampled_from(["X", "Y", '"x"']))
            if term == "Y":
                data.append("Y")
            body.append("%s(%s; %s)" % (pred, ", ".join(args), term))
        if draw(st.booleans()):
            body.append(
                "not %s(%s; %s)"
                % (
                    draw(st.sampled_from(NEGATABLE)),
                    _term(draw(st.sampled_from(bound)), draw(st.integers(-2, 2))),
                    draw(st.sampled_from(data + ['"y"'])),
                )
            )
        head = "%s(%s; %s)" % (
            head_pred,
            _term(draw(st.sampled_from(bound)), draw(st.integers(0, 3))),
            draw(st.sampled_from(data)),
        )
        clauses.append("%s <- %s." % (head, ", ".join(body)))
    return "\n".join(clauses)


def no_residue_index():
    """The same compiled plans with the residue buckets switched off:
    every link's modulus reads as 1, so joins examine the full
    product (the data hash key still applies)."""
    return mock.patch.object(JoinStep, "_moduli", lambda self, *sources: ())


def _run(program, strategy, evaluation="compiled", checkpoint_path=None):
    engine = DeductiveEngine(
        program,
        edb(),
        strategy=strategy,
        evaluation=evaluation,
        max_rounds=60,
        patience=4,
        on_give_up="partial",
    )
    return engine.run(
        checkpoint_path=checkpoint_path,
        checkpoint_every=1 if checkpoint_path else None,
    )


def _checkpoint_payload(path):
    """The checkpoint JSON without its wall-clock fields (and the digest
    that covers them)."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        payload = json.load(handle)
    for key in (
        "elapsed_seconds",
        "prior_elapsed_seconds",
        "segment_elapsed_seconds",
    ):
        payload["stats"][key] = 0.0
    payload.pop("digest", None)
    return payload


@settings(max_examples=30, deadline=None)
@given(join_program(), st.sampled_from(["naive", "semi-naive"]))
def test_residue_index_is_bit_identical_and_matches_reference(
    tmp_path_factory, text, strategy
):
    program = parse_program(text)
    base = str(tmp_path_factory.mktemp("residue"))
    indexed_path = os.path.join(base, "indexed.ckpt.json")
    product_path = os.path.join(base, "product.ckpt.json")
    indexed = _run(program, strategy, checkpoint_path=indexed_path)
    with no_residue_index():
        product = _run(program, strategy, checkpoint_path=product_path)
    # The index only drops pairs the fused join closes to None.
    assert str(indexed) == str(product)
    assert indexed.stats.rounds == product.stats.rounds
    assert indexed.stats.new_tuples_per_round == product.stats.new_tuples_per_round
    assert (
        indexed.stats.derived_tuples_per_round
        == product.stats.derived_tuples_per_round
    )
    assert _checkpoint_payload(indexed_path) == _checkpoint_payload(product_path)
    # And compiled stays equivalent to the paper-literal oracle.
    oracle = _run(program, strategy, evaluation="reference")
    assume(not indexed.stats.gave_up and not oracle.stats.gave_up)
    assert indexed.predicates() == oracle.predicates()
    for name in indexed.predicates():
        assert indexed.relation(name).equivalent(oracle.relation(name)), name


def _join_steps(text, predicate):
    evaluator = ProgramEvaluator(parse_program(text), edb())
    return [
        step
        for plan in evaluator.plans
        for variant in plan.variants.values()
        for step in variant.steps
        if isinstance(step, JoinStep) and step.predicate == predicate
    ]


def _pairs_and_out(text, strategy="semi-naive"):
    """Join pairs examined (``kernel.batch`` sizes) and joined tuples
    emitted (``plan.operator`` outs), summed over every join step."""
    totals = {"pairs": 0, "out": 0}

    def sink(kind, fields):
        if kind == "kernel.batch" and fields["fast_path"] not in NOT_JOINS:
            totals["pairs"] += fields["size"]
        elif kind == "plan.operator" and fields["op"] in ("join", "anti-join"):
            totals["out"] += fields["out"]

    program = parse_program(text)
    with hooks.subscribed(sink):
        model = _run(program, strategy)
    return totals, model


class TestResidueLinks:
    """Which steps carry residue links, and what the buckets drop."""

    def test_offset_link_with_negative_k(self):
        (step,) = [
            s for s in _join_steps("p(t; X) <- r(t; X), s(t - 2; Y).", "s")
        ]
        assert step.fast_path == "residue"
        # s's column T2 = r's column T1 - 2.
        assert step.residue_links == ((0, 0, -2),)

    def test_data_match_combines_with_residue(self):
        (step,) = _join_steps("p(t; X) <- r(t; X), s(t + 1; X).", "s")
        assert step.fast_path == "hash+residue"
        assert step.match_pairs and step.residue_links == ((0, 0, 1),)

    def test_negated_atom_on_the_shared_variable(self):
        steps = _join_steps("p(t; X) <- r(t; X), not s(t + 1; X).", "s")
        assert [step.negated for step in steps] == [True]
        assert steps[0].residue_links == ((0, 0, 1),)

    def test_second_column_link(self):
        (step,) = _join_steps("p(u; X) <- w(t, u; X), r(u + 3; Y).", "r")
        assert step.residue_links == ((1, 0, 3),)

    def test_mixed_periods_drop_only_empty_pairs(self):
        # r has periods 6 and 4, s periods 6, 3 and 1: per-link gcd 1,
        # so the index falls back to the product — and the answer is
        # the same either way.
        text = "p(t; X) <- r(t; X), s(t + 2; Y)."
        indexed, model = _pairs_and_out(text)
        with no_residue_index():
            product, fallback = _pairs_and_out(text)
        assert indexed == product
        assert str(model) == str(fallback)

    def test_common_period_prunes_pairs(self):
        # Both sides of the link have period 6 (r's 6n / 6n+3 rows,
        # s's 6n+2 row after the constant selection on "x"): gcd 6.
        text = 'p(t; X) <- r(t; X), s(t + 2; "x"), t >= 0.'
        edb_text = EDB_TEXT.replace('(4n+1; "y") where T1 >= 0;', "")
        edb_text = edb_text.replace('(n; "x") where T1 = 5;', "")
        def engine_for():
            return DeductiveEngine(parse_program(text), parse_database(edb_text))

        counts = {}

        def sink(kind, fields):
            if kind == "kernel.batch" and fields["fast_path"] == "residue":
                counts["pairs"] = counts.get("pairs", 0) + fields["size"]

        with hooks.subscribed(sink):
            indexed = engine_for().run()
        pruned = counts.pop("pairs")
        with no_residue_index(), hooks.subscribed(sink):
            product = engine_for().run()
        assert str(indexed) == str(product)
        # 6n + 2 = 6n' + 2 (mod 6) only for r's 6n row.
        assert pruned == 1 and counts["pairs"] == 2

    def test_constant_columns_fall_back_to_the_product(self):
        # c's columns have period 1: every gcd is 1, nothing to bucket.
        text = "p(t; X) <- c(t; X), c(t + 2; Y)."
        indexed, model = _pairs_and_out(text)
        with no_residue_index():
            product, fallback = _pairs_and_out(text)
        assert indexed == product
        assert str(model) == str(fallback)

    def test_coprime_periods_fall_back_to_the_product(self):
        text = "p(t; X) <- v(t; X), r(t + 1; Y)."
        (step,) = _join_steps(text, "r")
        assert step.fast_path == "residue"
        indexed, _ = _pairs_and_out(text)
        with no_residue_index():
            product, _ = _pairs_and_out(text)
        assert indexed == product


E14_PROGRAM = """
p(t; X) <- seed(t; X).
p(t + 10; X) <- p(t; X).
meet(t; X, Y) <- p(t; X), p(t; Y).
"""

E14_EDB = """
relation seed[1; 1] { (24n+2; "a"); (24n+9; "b"); }
"""


class TestE14Meet:
    """The E14 ``meet`` self-join examines exactly the pairs it emits."""

    def test_meet_join_pairs_equal_emitted(self):
        pairs = {}
        outs = {}

        def sink(kind, fields):
            if not fields.get("clause", "").startswith("meet"):
                return
            key = (fields["variant"], fields["step"])
            if kind == "kernel.batch" and fields["fast_path"] == "residue":
                pairs[key] = pairs.get(key, 0) + fields["size"]
            elif kind == "plan.operator" and fields["op"] == "join":
                outs[key] = outs.get(key, 0) + fields["out"]

        engine = DeductiveEngine(parse_program(E14_PROGRAM), parse_database(E14_EDB))
        with hooks.subscribed(sink):
            model = engine.run()
        assert pairs, "the meet join never ran as a residue join"
        for key, examined in pairs.items():
            assert examined == outs[key], key
        # 12 classes per constant, two constants of opposite parity:
        # each class only meets itself.
        assert sum(pairs.values()) == 48
        assert len(model.relation("meet").tuples) == 24


class TestStepCaches:
    """Template caches live and die with their plan steps."""

    def test_consecutive_runs_do_not_accumulate_templates(self):
        program = parse_program(E14_PROGRAM)
        database = parse_database(E14_EDB)
        DeductiveEngine(program, database).run()
        gc.collect()
        after_one = kernel.cache_stats()
        for _ in range(300):
            DeductiveEngine(program, database).run()
        gc.collect()
        after_many = kernel.cache_stats()
        for kind in kernel.KINDS:
            assert after_many[kind] <= after_one[kind], kind
