"""Generalized relations and their algebra (paper Section 2.1, [KSW90]).

A generalized relation is a finite set of generalized tuples of fixed
temporal and data arity; it finitely represents a possibly infinite
set of ground tuples.  The algebra provided here is the one the paper
relies on for bottom-up evaluation (Section 4.3): intersection, join
(as product + selection + projection), and projection — all PTIME on
the representation — plus union, difference, complement and column
shifts, under which the class of representable relations is closed.
"""

from __future__ import annotations

import itertools

from repro.constraints.dbm import Dbm, INF
from repro.constraints.system import ConstraintSystem
from repro.gdb.store import ColumnStore
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.util.errors import SchemaError


class GeneralizedRelation:
    """A finite set of :class:`GeneralizedTuple` of uniform schema.

    The class is a value object: mutating methods return new relations.

    >>> from repro.gdb import GeneralizedRelation, GeneralizedTuple
    >>> from repro.lrp import Lrp
    >>> from repro.constraints import ConstraintSystem
    >>> rel = GeneralizedRelation(2, 2)
    >>> rel = rel.with_tuple(GeneralizedTuple(
    ...     (Lrp(40, 5), Lrp(40, 25)), ("Liege", "Brussels"),
    ...     ConstraintSystem.parse("T1 >= 0 & T2 = T1 + 60", 2)))
    >>> rel.contains_point((45, 105), ("Liege", "Brussels"))
    True
    """

    __slots__ = (
        "temporal_arity",
        "data_arity",
        "tuples",
        "_store",
        "coverage_generation",
    )

    def __init__(self, temporal_arity, data_arity, tuples=()):
        self.temporal_arity = temporal_arity
        self.data_arity = data_arity
        self.tuples = tuple(tuples)
        self._store = None
        self.coverage_generation = 0
        for gt in self.tuples:
            self._check(gt)

    @classmethod
    def _trusted(cls, temporal_arity, data_arity, tuples):
        """Internal constructor skipping the per-tuple schema check —
        for callers (plan executor, :meth:`with_tuples`) that already
        guarantee the schema."""
        relation = cls.__new__(cls)
        relation.temporal_arity = temporal_arity
        relation.data_arity = data_arity
        relation.tuples = tuple(tuples)
        relation._store = None
        relation.coverage_generation = 0
        return relation

    # -- columnar backing store -------------------------------------------

    def _ensure_store(self):
        """This view's :class:`ColumnStore`: the shared one while this
        view still covers its full row prefix; otherwise (first need,
        or a sibling growth moved past this view) a fresh one built
        from the current tuples."""
        store = self._store
        if store is None or len(store) != len(self.tuples):
            store = self._store = ColumnStore(
                self.tuples, generation=self.coverage_generation
            )
        return store

    def _check(self, gt):
        if gt.temporal_arity != self.temporal_arity or gt.data_arity != self.data_arity:
            raise SchemaError(
                "tuple %s does not match schema [%d; %d]"
                % (gt, self.temporal_arity, self.data_arity)
            )

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, temporal_arity, data_arity=0):
        """The empty relation of the given schema."""
        return cls(temporal_arity, data_arity)

    @classmethod
    def universe(cls, temporal_arity, data_values=()):
        """The relation ``ℤ^m × {data_values}`` (one unconstrained tuple
        per data vector; for data arity 0 this is all of ℤ^m)."""
        carriers = tuple(Lrp.constant_carrier() for _ in range(temporal_arity))
        vectors = list(data_values) if data_values else [()]
        tuples = [GeneralizedTuple(carriers, vector) for vector in vectors]
        data_arity = len(tuples[0].data)
        return cls(temporal_arity, data_arity, tuples)

    def with_tuple(self, gt):
        """This relation plus one more tuple."""
        return self.with_tuples((gt,))

    def with_tuples(self, gts):
        """This relation plus the given tuples.

        Only the new tuples are schema-checked (the existing ones were
        checked when this relation was built), so growing a relation by
        a delta is O(len(delta)), not O(len(relation)).

        The grown view shares this view's column store, so its indexes
        and its coverage cache (see :meth:`coverage_cache`) carry over
        instead of restarting cold.  Inserts only ever *add* tuples: a
        positive coverage verdict stays valid forever, and the append
        drops, in place, only the negatives of the signatures the new
        tuples carry.  The store's generation counter bumps once per
        growth and the grown view mirrors it, so observers can see the
        insert happened.
        """
        gts = tuple(gts)
        for gt in gts:
            self._check(gt)
        store = self._ensure_store()
        store.append(gts)
        grown = GeneralizedRelation._trusted(
            self.temporal_arity, self.data_arity, self.tuples + gts
        )
        grown._store = store
        grown.coverage_generation = store.generation
        return grown

    # -- structure ------------------------------------------------------------

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def is_empty(self):
        """Exact: True when the relation denotes no ground tuple."""
        return all(gt.is_empty() for gt in self.tuples)

    def contains_point(self, times, data=()):
        """Membership of a ground tuple."""
        return any(gt.contains_point(times, data) for gt in self.tuples)

    def extension(self, low, high):
        """All ground tuples whose temporal components lie in the
        window ``[low, high)``, as a set of flat tuples
        ``times + data``.  This is the brute-force oracle used for
        cross-validation throughout the test suite."""
        result = set()
        for gt in self.tuples:
            pools = [lrp.enumerate(low, high) for lrp in gt.lrps]
            for times in itertools.product(*pools):
                if gt.constraints.satisfied_by(times):
                    result.add(tuple(times) + gt.data)
        return result

    def data_values(self, column):
        """The set of constants appearing in a data column (the active
        domain of that column)."""
        return set(self.data_index(column))

    # -- indexes ------------------------------------------------------------
    #
    # Both indexes live on the shared column store and are extended
    # incrementally: a growth re-indexes only the appended rows.  An
    # empty relation answers without building a store.

    def data_index(self, column):
        """Hash index on a data column: ``{value: [tuple positions…]}``
        in tuple order."""
        if not self.tuples:
            return {}
        return self._ensure_store().data_index(column)

    def tuples_with_signature_id(self, sid):
        """The tuples whose free signature interned to ``sid`` (see
        ``GeneralizedTuple.kernel_ids``), in tuple order.  Consulted by
        the coverage tests of the engine's safety bookkeeping — one
        hash lookup instead of a full scan per derived tuple."""
        if not self.tuples:
            return []
        return self._ensure_store().tuples_with_signature_id(sid)

    def coverage_cache(self):
        """The cross-round coverage memo:
        ``{sid: {cid: covered?}}``, keyed by the interned ids of
        ``GeneralizedTuple.row_key``.

        Written by the engine's coverage test (see
        :class:`repro.core.safety.CoverageChecker`): a verdict recorded
        here is valid for this exact relation value.  It lives on the
        store and is *carried across* :meth:`with_tuples` — inserts are
        monotone, so positive verdicts survive and only the negatives
        of the inserted tuples' signatures are dropped.  That carry-over
        is what lets unchanged signatures skip ``implied_by_union``
        entirely from round to round.
        """
        return self._ensure_store().coverage

    # -- algebra ------------------------------------------------------------------

    def _same_schema(self, other):
        if (
            other.temporal_arity != self.temporal_arity
            or other.data_arity != self.data_arity
        ):
            raise SchemaError("relation schemas differ")

    def union(self, other):
        """Set union (same schema)."""
        self._same_schema(other)
        return GeneralizedRelation(
            self.temporal_arity, self.data_arity, self.tuples + other.tuples
        )

    def intersect(self, other):
        """Set intersection: per-column lrp intersection (CRT) plus
        constraint conjunction — PTIME per tuple pair ([KSW90])."""
        self._same_schema(other)
        result = []
        for a in self.tuples:
            for b in other.tuples:
                if a.data != b.data:
                    continue
                lrps = []
                empty = False
                for la, lb in zip(a.lrps, b.lrps):
                    meet = la.intersect(lb)
                    if meet is None:
                        empty = True
                        break
                    lrps.append(meet)
                if empty:
                    continue
                constraints = a.constraints.conjoin(b.constraints)
                if not constraints.is_satisfiable():
                    continue
                merged = GeneralizedTuple(
                    tuple(lrps), a.data, constraints
                ).propagate_equalities()
                if merged is not None:
                    result.append(merged)
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    def select(self, atoms):
        """Selection by a conjunction of constraint atoms
        (:class:`~repro.constraints.atoms.Comparison` over the temporal
        columns)."""
        result = []
        for gt in self.tuples:
            refined = gt.conjoined(atoms)
            if refined is not None:
                result.append(refined)
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    def select_data_constant(self, column, value):
        """Selection ``data[column] = value`` (via the data hash index)."""
        kept = [self.tuples[k] for k in self.data_index(column).get(value, ())]
        return GeneralizedRelation._trusted(self.temporal_arity, self.data_arity, kept)

    def select_data_equal(self, column_a, column_b):
        """Selection ``data[a] = data[b]``."""
        kept = [gt for gt in self.tuples if gt.data[column_a] == gt.data[column_b]]
        return GeneralizedRelation(self.temporal_arity, self.data_arity, kept)

    def project(self, keep_temporal, keep_data, force_aligned=False):
        """Projection onto the listed temporal and data columns (order
        significant; exact, see :meth:`GeneralizedTuple.project`)."""
        result = []
        for gt in self.tuples:
            result.extend(
                gt.project(keep_temporal, keep_data, force_aligned=force_aligned)
            )
        return GeneralizedRelation(len(keep_temporal), len(keep_data), result)

    def join(self, other, temporal_pairs=(), data_pairs=()):
        """Natural join: equality on the given column pairs (left
        index, right index — both 0-based within their relation), the
        right-hand join columns projected away.

        Executed as a fused hash join rather than the literal
        product-select-project: matching data tuples are found through
        the right side's data hash index, and the temporal equalities
        are conjoined into each candidate pair's zone in a single
        closure (empty pairs never materialize).

        >>> left = GeneralizedRelation.universe(1)
        >>> right = GeneralizedRelation.universe(1)
        >>> left.join(right, temporal_pairs=[(0, 0)]).temporal_arity
        1
        """
        from repro.constraints.atoms import Comparison, TemporalTerm

        atoms = [
            Comparison(
                "=",
                TemporalTerm(left),
                TemporalTerm(self.temporal_arity + right),
            )
            for (left, right) in temporal_pairs
        ]
        drop_temporal = {self.temporal_arity + right for (_, right) in temporal_pairs}
        drop_data = {self.data_arity + right for (_, right) in data_pairs}
        keep_temporal = [
            k
            for k in range(self.temporal_arity + other.temporal_arity)
            if k not in drop_temporal
        ]
        keep_data = [
            k
            for k in range(self.data_arity + other.data_arity)
            if k not in drop_data
        ]
        if data_pairs:
            left_cols = [left for (left, _) in data_pairs]
            if len(data_pairs) == 1:
                index = other.data_index(data_pairs[0][1])
                buckets = {value: [other.tuples[k] for k in positions]
                           for value, positions in index.items()}
            else:
                buckets = {}
                right_cols = [right for (_, right) in data_pairs]
                for gt in other.tuples:
                    key = tuple(gt.data[c] for c in right_cols)
                    buckets.setdefault(key, []).append(gt)

            def candidates(a):
                key = tuple(a.data[c] for c in left_cols)
                return buckets.get(key[0] if len(key) == 1 else key, ())
        else:
            def candidates(a):
                return other.tuples

        result = []
        for a in self.tuples:
            for b in candidates(a):
                joined = a.joined(b, atoms)
                if joined is None:
                    continue
                result.extend(joined.project(keep_temporal, keep_data))
        return GeneralizedRelation._trusted(
            len(keep_temporal), len(keep_data), result
        )

    def product(self, other):
        """Cartesian product (columns concatenated)."""
        tuples = [a.product(b) for a in self.tuples for b in other.tuples]
        return GeneralizedRelation(
            self.temporal_arity + other.temporal_arity,
            self.data_arity + other.data_arity,
            tuples,
        )

    def shift(self, column, delta):
        """Advance a temporal column by ``delta`` (the ``+1``/``-1``
        functions of the deductive language, iterated)."""
        tuples = [gt.shift_column(column, delta) for gt in self.tuples]
        return GeneralizedRelation(self.temporal_arity, self.data_arity, tuples)

    def permuted(self, order):
        """Reorder temporal columns."""
        tuples = [gt.permuted(order) for gt in self.tuples]
        return GeneralizedRelation(len(order), self.data_arity, tuples)

    def difference(self, other):
        """Exact set difference (same schema)."""
        self._same_schema(other)
        result = []
        for gt in self.tuples:
            result.extend(gt.subtract(other.tuples))
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    def complement(self, data_domains=None):
        """Exact complement of the temporal content.

        For data arity 0 this is ``ℤ^m`` minus the relation.  With data
        columns a finite domain per column must be supplied (or is
        taken as the active domain); the complement is then relative to
        ``ℤ^m × domains`` — the usual active-domain semantics for the
        uninterpreted sort.
        """
        if self.data_arity == 0:
            vectors = [()]
        else:
            if data_domains is None:
                data_domains = [
                    sorted(self.data_values(c), key=repr)
                    for c in range(self.data_arity)
                ]
            vectors = list(itertools.product(*data_domains))
        carriers = tuple(Lrp.constant_carrier() for _ in range(self.temporal_arity))
        result = []
        for vector in vectors:
            universe = GeneralizedTuple(carriers, vector)
            matching = [gt for gt in self.tuples if gt.data == vector]
            result.extend(universe.subtract(matching))
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    # -- comparison ------------------------------------------------------------------

    def contains(self, other):
        """Exact extension containment ``other ⊆ self``."""
        self._same_schema(other)
        return other.difference(self).is_empty()

    def equivalent(self, other):
        """Exact extension equality."""
        return self.contains(other) and other.contains(self)

    # -- serialization ------------------------------------------------------------------

    def to_json_dict(self):
        """A JSON-safe dict round-tripping through :meth:`from_json_dict`.

        Tuple order is preserved, so a relation restored from a
        checkpoint iterates identically to the original — the property
        the resume machinery relies on for bit-identical replay.
        """
        return {
            "temporal_arity": self.temporal_arity,
            "data_arity": self.data_arity,
            "tuples": [gt.to_json_dict() for gt in self.tuples],
        }

    @classmethod
    def from_json_dict(cls, payload):
        """Rebuild a relation serialized by :meth:`to_json_dict`.

        Constraint systems repeat heavily across a relation's tuples,
        so each distinct serialized system is decoded (and its zone
        canonicalized) once and shared — the payload format itself is
        unchanged.
        """
        systems = {}
        tuples = []
        for entry in payload["tuples"]:
            serialized = entry.get("constraints")
            if serialized is None:
                constraints = None
            else:
                key = (
                    serialized["arity"],
                    tuple(tuple(bound) for bound in serialized["bounds"]),
                )
                constraints = systems.get(key)
                if constraints is None:
                    constraints = systems[key] = ConstraintSystem.from_json_dict(
                        serialized
                    )
            lrps = tuple(Lrp(period, offset) for period, offset in entry["lrps"])
            tuples.append(GeneralizedTuple(lrps, tuple(entry["data"]), constraints))
        return cls(payload["temporal_arity"], payload["data_arity"], tuples)

    # -- normalization ------------------------------------------------------------------

    def normalize(self, prune_empty=True, prune_subsumed=False):
        """Remove duplicate (and optionally empty / subsumed) tuples.

        ``prune_subsumed`` performs the exact pairwise containment test
        and is quadratic; it is off by default because the bottom-up
        engine has its own safety bookkeeping.
        """
        seen = set()
        kept = []
        for gt in self.tuples:
            # row_key is the interned (sid, cid) pair — an integer
            # compare bijective with canonical_key.
            key = gt.row_key()
            if key in seen:
                continue
            seen.add(key)
            if prune_empty and gt.is_empty():
                continue
            kept.append(gt)
        if prune_subsumed:
            changed = True
            while changed:
                changed = False
                for index, candidate in enumerate(kept):
                    others = kept[:index] + kept[index + 1 :]
                    if any(o.contains_tuple(candidate) for o in others):
                        kept.pop(index)
                        changed = True
                        break
        return GeneralizedRelation(self.temporal_arity, self.data_arity, kept)

    def coalesce(self):
        """Heuristically merge tuples to shrink the representation.

        Two exact rules are applied to fixpoint:

        * *zone merge* — same lrps and data, and the convex hull of the
          two zones adds no new points;
        * *lrp merge* — same data and constraints, lrps equal except in
          one column where the two residue classes unite into a single
          coarser class.
        """
        tuples = list(self.normalize().tuples)
        changed = True
        while changed:
            changed = False
            for i in range(len(tuples)):
                for j in range(i + 1, len(tuples)):
                    merged = _try_merge(tuples[i], tuples[j])
                    if merged is not None:
                        tuples[i] = merged
                        tuples.pop(j)
                        changed = True
                        break
                if changed:
                    break
        return GeneralizedRelation(self.temporal_arity, self.data_arity, tuples)

    def __str__(self):
        header = "[%d; %d]" % (self.temporal_arity, self.data_arity)
        if not self.tuples:
            return "%s {}" % header
        body = "\n".join("  %s" % gt for gt in self.tuples)
        return "%s {\n%s\n}" % (header, body)

    def __repr__(self):
        return "GeneralizedRelation(%d, %d, %d tuples)" % (
            self.temporal_arity,
            self.data_arity,
            len(self.tuples),
        )


def _try_merge(a, b):
    """Attempt an exact merge of two tuples; None when not applicable."""
    if a.data != b.data:
        return None
    if a.lrps == b.lrps:
        hull = _zone_hull(a.constraints, b.constraints)
        residue = hull.minus(a.constraints)
        residue = [
            piece
            for system in residue
            for piece in system.minus(b.constraints)
        ]
        if not residue:
            return GeneralizedTuple(a.lrps, a.data, hull)
        return None
    if a.constraints == b.constraints:
        differing = [
            k for k, (la, lb) in enumerate(zip(a.lrps, b.lrps)) if la != lb
        ]
        if len(differing) == 1:
            k = differing[0]
            la, lb = a.lrps[k], b.lrps[k]
            if la.period == lb.period and la.period % 2 == 0:
                half = la.period // 2
                if (la.offset - lb.offset) % la.period == half:
                    merged = Lrp(half, la.offset)
                    lrps = list(a.lrps)
                    lrps[k] = merged
                    return GeneralizedTuple(tuple(lrps), a.data, a.constraints)
    return None


def _zone_hull(a, b):
    """The smallest zone containing two constraint systems (entrywise
    max of the closed DBMs)."""
    if not a.is_satisfiable():
        return b
    if not b.is_satisfiable():
        return a
    za, zb = a.zone(), b.zone()
    za.close()
    zb.close()
    hull = Dbm.unconstrained(za.size)
    for (i, j, ca) in za.finite_bounds():
        cb = zb.bound(i, j)
        if cb != INF:
            hull.add_bound(i, j, max(ca, cb))
    return ConstraintSystem(a.arity, hull)
