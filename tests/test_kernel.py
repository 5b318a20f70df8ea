"""The columnar kernel: batched canonicalization, interning, batch ops,
the column store's generation counter, and the shard wire codec.

The batch helpers must be *exactly* equivalent to calling the
per-tuple methods (``joined``, ``conjoined``, ``extended``,
``project``) one tuple at a time, including the alignment rule that an
unsatisfiable result appears as None in the output list.
"""

import gc

import pytest

from repro.constraints.atoms import Comparison, TemporalTerm
from repro.constraints.dbm import (
    CONSTRAINT_TABLE,
    ConstraintTable,
    Dbm,
    canonicalize_batch,
)
from repro.constraints.system import ConstraintSystem
from repro.gdb import kernel
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.store import (
    decode_relation_batch,
    decode_tuple_batch,
    encode_relation_batch,
    encode_tuple_batch,
)
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.util import hooks


class _ClosureCounter:
    """Counts Floyd–Warshall closures via the dbm_canonicalize site."""

    def __init__(self):
        self.count = 0

    def __call__(self, site):
        if site == "dbm_canonicalize":
            self.count += 1


def _sat_zone():
    zone = Dbm.unconstrained(2)
    zone.add_bound(1, 2, -1)  # x1 - x2 <= -1
    zone.add_bound(2, 1, 5)   # x2 - x1 <= 5
    return zone


def _unsat_zone():
    zone = Dbm.unconstrained(2)
    zone.add_bound(1, 0, -1)  # x1 <= -1
    zone.add_bound(0, 1, 0)   # x1 >= 0
    return zone


class TestCanonicalizeBatch:
    def test_empty_batch(self):
        assert canonicalize_batch([]) == []

    def test_all_duplicate_batch_closes_once(self):
        zones = [_sat_zone() for _ in range(4)]
        counter = _ClosureCounter()
        saved = hooks.FAULT_HOOK
        hooks.FAULT_HOOK = counter
        try:
            results = canonicalize_batch(zones)
        finally:
            hooks.FAULT_HOOK = saved
        assert counter.count == 1
        assert all(result is results[0] for result in results)
        assert results[0] is not None

    def test_unsatisfiable_is_none_mid_batch(self):
        zones = [_sat_zone(), _unsat_zone(), _sat_zone()]
        results = canonicalize_batch(zones)
        assert len(results) == 3
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert results[0] is results[2]
        assert results[0].is_satisfiable()

    def test_distinct_zones_each_close(self):
        loose = Dbm.unconstrained(2)
        loose.add_bound(1, 2, 7)
        zones = [_sat_zone(), loose, _sat_zone(), loose.copy()]
        counter = _ClosureCounter()
        saved = hooks.FAULT_HOOK
        hooks.FAULT_HOOK = counter
        try:
            results = canonicalize_batch(zones)
        finally:
            hooks.FAULT_HOOK = saved
        assert counter.count == 2
        assert results[0] is results[2]
        assert results[1] is results[3]
        assert results[0] is not results[1]


class TestConstraintTable:
    def test_intern_shares_one_instance_per_key(self):
        a, b = _sat_zone(), _sat_zone()
        a.close()
        b.close()
        interned_a = CONSTRAINT_TABLE.intern(a)
        interned_b = CONSTRAINT_TABLE.intern(b)
        assert interned_a is interned_b
        assert interned_a._cid is not None
        assert CONSTRAINT_TABLE.zone_for(interned_a._cid) is interned_a

    def test_copy_never_carries_the_id(self):
        zone = _sat_zone()
        zone.close()
        interned = CONSTRAINT_TABLE.intern(zone)
        assert interned.copy()._cid is None

    def test_full_table_falls_back_to_canonical_key(self):
        table = ConstraintTable(cap=0)
        zone = _sat_zone()
        zone.close()
        returned = table.intern(zone)
        assert returned is zone
        assert returned._cid is None
        assert table.zone_id(zone) == zone.canonical_key()


def _gt(offset, data="x", constraints=None):
    return GeneralizedTuple((Lrp(24, offset),), (data,), constraints)


def _keys(results):
    return [None if gt is None else (gt.canonical_key(), gt.data) for gt in results]


class TestBatchOps:
    """Each batch op must match its per-tuple method called in a loop."""

    def test_select_batch_matches_ablation(self):
        tuples = [
            _gt(1),
            _gt(1),  # duplicate ids: a template-cache hit
            _gt(3, constraints=ConstraintSystem.parse("T1 >= 0", 1)),
        ]
        atoms = [Comparison(">=", TemporalTerm(0), TemporalTerm(None, 5))]
        expected = [gt.conjoined(atoms) for gt in tuples]
        stats = {}
        got = kernel.select_batch(
            tuples, atoms, kernel.template_cache("select"), stats
        )
        assert _keys(got) == _keys(expected)
        assert stats["size"] == 3
        assert stats["hits"] == 1

    def test_join_batch_matches_ablation(self):
        pairs = [(_gt(1), _gt(3, "y")), (_gt(1), _gt(3, "z")), (_gt(2), _gt(4, "y"))]
        atoms = [Comparison("=", TemporalTerm(1), TemporalTerm(0, 2))]
        expected = [a.joined(b, atoms) for a, b in pairs]
        stats = {}
        got = kernel.join_batch(pairs, atoms, kernel.template_cache("join"), stats)
        assert _keys(got) == _keys(expected)
        # The second pair shares both operands' (lvid, cid) ids with the
        # first — data columns differ but the temporal template is shared.
        assert stats["hits"] == 1
        assert got[1].data == ("x", "z")

    def test_join_batch_caches_unsatisfiable_as_none(self):
        # T1 = T1 + 1 can never hold: every pair dies in the zone.
        atoms = [Comparison("=", TemporalTerm(0), TemporalTerm(0, 1))]
        pairs = [(_gt(1), _gt(1, "y"))] * 3
        stats = {}
        got = kernel.join_batch(pairs, atoms, kernel.template_cache("join"), stats)
        assert got == [None, None, None]
        assert stats["hits"] == 2

    def test_extend_batch_matches_ablation(self):
        tuples = [_gt(1), _gt(1), _gt(7)]
        atoms = [Comparison("=", TemporalTerm(1), TemporalTerm(0, 2))]
        expected = [gt.extended(1, atoms) for gt in tuples]
        stats = {}
        got = kernel.extend_batch(
            tuples, 1, atoms, kernel.template_cache("extend"), stats
        )
        assert _keys(got) == _keys(expected)
        assert got[0].temporal_arity == 2
        assert stats["hits"] == 1

    def test_project_batch_matches_ablation(self):
        wide = GeneralizedTuple(
            (Lrp(24, 1), Lrp(24, 3)),
            ("x", "y"),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )
        tuples = [wide, wide]
        expected = [
            [r.shift_column(0, 2) for r in gt.project((0,), (1,))]
            for gt in tuples
        ]
        stats = {}
        got = kernel.project_batch(
            tuples, (0,), (1,), ((0, 2),), kernel.template_cache("project"), stats
        )
        assert [_keys(results) for results in got] == [
            _keys(results) for results in expected
        ]
        assert stats["hits"] == 1
        for results in got:
            for gt in results:
                assert gt.data == ("y",)

    def test_cache_stats_shape(self):
        stats = kernel.cache_stats()
        assert set(stats) == {"join", "select", "extend", "project", "cap"}

    def test_cache_stats_count_live_step_caches_only(self):
        gc.collect()
        before = kernel.cache_stats()
        cache = kernel.template_cache("select")
        cache[(0, 0)] = None
        assert kernel.cache_stats()["select"] == before["select"] + 1
        del cache
        gc.collect()
        assert kernel.cache_stats() == before


class TestStoreGenerations:
    """Satellite regression: mutate via with_tuples, then re-query every
    memo/index — the single generation counter must invalidate them."""

    def test_mutate_then_requery_indexes(self):
        base = GeneralizedRelation(1, 1, [_gt(1, "a"), _gt(3, "b")])
        # Prime both indexes on the original view.
        assert set(base.data_index(0)) == {"a", "b"}
        sid = _gt(1, "a").kernel_ids()[1]
        assert len(base.tuples_with_signature_id(sid)) == 1
        grown = base.with_tuples([_gt(5, "a"), _gt(7, "c")])
        # The grown view serves the appended rows...
        index = grown.data_index(0)
        assert set(index) == {"a", "b", "c"}
        assert index["a"] == [0, 2]
        matches = grown.tuples_with_signature_id(_gt(5, "a").kernel_ids()[1])
        assert _gt(5, "a") in matches
        # ...while the stale pre-growth view never sees past its prefix.
        old_index = base.data_index(0)
        assert set(old_index) == {"a", "b"}
        assert all(
            position < len(base.tuples)
            for positions in old_index.values()
            for position in positions
        )

    def test_empty_relation_answers_without_a_store(self):
        empty = GeneralizedRelation(1, 1)
        assert empty.data_index(0) == {}
        assert empty.tuples_with_signature_id(_gt(1).kernel_ids()[1]) == []
        assert empty._store is None
        # A view a sibling growth moved past stays empty too.
        grown = empty.with_tuples([_gt(1)])
        assert empty.data_index(0) == {}
        assert set(grown.data_index(0)) == {"x"}

    def test_generation_counter_bumps_once_per_growth(self):
        base = GeneralizedRelation(1, 1, [_gt(1)])
        one = base.with_tuples([_gt(3)])
        two = one.with_tuples([_gt(5), _gt(7)])
        assert one.coverage_generation == base.coverage_generation + 1
        assert two.coverage_generation == one.coverage_generation + 1

    def test_growth_drops_stale_negative_coverage_only(self):
        gt = _gt(1, "a")
        base = GeneralizedRelation(1, 1, [gt])
        cache = base.coverage_cache()
        signature = gt.kernel_ids()[1]
        cache[signature] = {"was-covered": True, "was-uncovered": False}
        other = _gt(3, "b").kernel_ids()[1]
        cache[other] = {"elsewhere": False}
        # Same lrps + data (same free signature), tighter zone: touches
        # the cached signature without duplicating the row key.
        grown = base.with_tuples(
            [_gt(1, "a", ConstraintSystem.parse("T1 >= 0", 1))]
        )
        after = grown.coverage_cache()
        # The touched signature keeps positives, drops negatives; the
        # untouched signature keeps everything.
        assert after[signature] == {"was-covered": True}
        assert after[other] == {"elsewhere": False}


class TestWireCodec:
    def _tuples(self):
        shared = ConstraintSystem.parse("T1 >= 0 & T2 = T1 + 2", 2)
        other = ConstraintSystem.parse("T2 >= T1", 2)
        return [
            GeneralizedTuple((Lrp(24, 1), Lrp(24, 3)), ("a",), shared),
            GeneralizedTuple((Lrp(24, 5), Lrp(24, 7)), ("b",), shared),
            GeneralizedTuple((Lrp(12, 0), Lrp(12, 2)), ("c",)),  # trivial
            GeneralizedTuple((Lrp(24, 1), Lrp(24, 3)), ("d",), other),
        ]

    def test_tuple_batch_round_trip(self):
        tuples = self._tuples()
        payload = encode_tuple_batch(tuples)
        # Two distinct non-trivial zones, serialized once each.
        assert len(payload["constraints"]) == 2
        assert [row[2] for row in payload["rows"]] == [0, 0, -1, 1]
        decoded = decode_tuple_batch(payload)
        assert _keys(decoded) == _keys(tuples)
        # Rows that shared a dictionary slot share one decoded system.
        assert decoded[0].constraints is decoded[1].constraints
        assert decoded[2].constraints.is_trivial()

    def test_empty_batch_round_trip(self):
        payload = encode_tuple_batch([])
        assert payload == {"constraints": [], "rows": []}
        assert decode_tuple_batch(payload) == []

    def test_relation_batch_round_trip(self):
        relation = GeneralizedRelation(2, 1, self._tuples())
        decoded = decode_relation_batch(encode_relation_batch(relation))
        assert decoded.temporal_arity == relation.temporal_arity
        assert decoded.data_arity == relation.data_arity
        assert _keys(decoded.tuples) == _keys(relation.tuples)
        assert decoded.equivalent(relation)

    def test_batch_is_json_serializable(self):
        import json

        payload = encode_relation_batch(GeneralizedRelation(2, 1, self._tuples()))
        assert decode_relation_batch(json.loads(json.dumps(payload))).equivalent(
            GeneralizedRelation(2, 1, self._tuples())
        )


class TestWireCodecPastInternCap:
    """Tuples whose zones overflowed the ConstraintTable cap carry no
    integer id — ``constraint_id`` falls back to the structural
    canonical key — and must still cross the shard wire codec
    bit-identically (the shard pool ships whatever the engine derives,
    interned or not)."""

    def _overflow_tuples(self):
        # Clamp the shared table at its current size: every zone below
        # is distinct and new, so none of them gets interned.
        tuples = []
        for k in range(5):
            system = ConstraintSystem.parse(
                "T2 = T1 + %d & T1 >= %d" % (7919 + k, 104729 + k), 2
            )
            tuples.append(
                GeneralizedTuple((Lrp(24, 1), Lrp(24, 3)), ("v%d" % k,), system)
            )
        # Two rows sharing one overflowed zone, to exercise the
        # structural-key dictionary slot path.
        shared = ConstraintSystem.parse("T2 = T1 + 7930 & T1 >= 104740", 2)
        tuples.append(GeneralizedTuple((Lrp(24, 5), Lrp(24, 7)), ("w0",), shared))
        tuples.append(GeneralizedTuple((Lrp(24, 9), Lrp(24, 11)), ("w1",), shared))
        return tuples

    def test_overflow_round_trip_bit_identical(self):
        import json

        saved_cap = CONSTRAINT_TABLE.cap
        CONSTRAINT_TABLE.cap = len(CONSTRAINT_TABLE)
        try:
            tuples = self._overflow_tuples()
            # The clamp really bit: none of these zones was interned.
            for gt in tuples:
                assert not isinstance(
                    gt.constraints.constraint_id(), int
                ), "zone unexpectedly interned despite the cap clamp"
            payload = encode_tuple_batch(tuples)
            # The shared overflowed zone still dedups to one dict slot.
            assert len(payload["constraints"]) == 6
            assert payload["rows"][5][2] == payload["rows"][6][2]
            wire = json.dumps(payload, sort_keys=True)
            decoded = decode_tuple_batch(json.loads(wire))
            assert _keys(decoded) == _keys(tuples)
            # Bit-identical: re-encoding the decoded batch reproduces
            # the original wire bytes exactly.
            assert json.dumps(encode_tuple_batch(decoded), sort_keys=True) == wire
        finally:
            CONSTRAINT_TABLE.cap = saved_cap

    def test_mixed_interned_and_overflowed_batch(self):
        interned = ConstraintSystem.parse("T1 >= 0 & T2 = T1 + 2", 2)
        saved_cap = CONSTRAINT_TABLE.cap
        CONSTRAINT_TABLE.cap = len(CONSTRAINT_TABLE)
        try:
            tuples = [
                GeneralizedTuple((Lrp(24, 1), Lrp(24, 3)), ("a",), interned)
            ] + self._overflow_tuples()
            decoded = decode_tuple_batch(encode_tuple_batch(tuples))
            assert _keys(decoded) == _keys(tuples)
        finally:
            CONSTRAINT_TABLE.cap = saved_cap


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
