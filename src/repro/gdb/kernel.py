"""The columnar batch kernel: interned ids, template caches, batch ops.

The plan layer's operators used to transform generalized tuples one at
a time: every join pair paid a zone rebuild plus a Floyd–Warshall
closure, every projection re-derived the same temporal template for
every tuple that shared an lrp vector and a constraint zone.  This
module batches those transformations and memoizes their *temporal
templates*: the temporal part of a join / selection / extension /
projection result depends only on the operands' lrp vectors and
interned constraint ids (the data columns just concatenate or
project), so one computed result serves every operand pair with the
same ids.

Identity of the cache keys rests on the interning layers:

- :data:`repro.constraints.dbm.CONSTRAINT_TABLE` assigns each
  canonical zone a dense ``cid``;
- :mod:`repro.gdb.tuple` interns lrp vectors (``lvid``) and free
  signatures (``sid``) and exposes them via
  ``GeneralizedTuple.kernel_ids()``.

Each compiled plan step owns its template caches
(:func:`template_cache`), so a step's pushed-down constraint atoms are
part of every key implicitly and the cache lives exactly as long as
the compiled plan: a discarded engine frees its templates with it.
Keys are the operands' ids alone.

:data:`ENABLED` is the ablation switch: with the kernel disabled every
batch helper degrades to the exact per-tuple loop it replaced, and the
tuple-layer fast paths (memoized emptiness, identity permutation,
unchanged-equality-propagation) turn off too — this approximates the
pre-kernel evaluator and is what ``benchmarks/kernel_bench.py``
records as the *before* measurement.

The kernel deliberately imports nothing from the gdb modules: results
are rebuilt via ``type(operand)(…)``, so :mod:`repro.gdb.tuple` can
import the flag without a cycle.
"""

from __future__ import annotations

import threading
import weakref

#: Master switch for the batch kernel and the tuple-layer fast paths.
#: Flip via :class:`configured` (tests, benchmarks) rather than by
#: assignment.
ENABLED = True

#: Entries one step's template cache holds at most; past it, that
#: step's batch helpers keep computing per-tuple without caching new
#: templates.
CACHE_CAP = 1 << 17

_UNSET = object()

#: The template kinds, one per batch helper.  Key shapes:
#: join ``(a_lvid, a_cid, b_lvid, b_cid) -> None | (lrps, cs)``;
#: select / extend ``(lvid, cid) -> None | (lrps, cs)``;
#: project ``(lvid, cid) -> [(lrps, cs), ...]``.
KINDS = ("join", "select", "extend", "project")

_LIVE_LOCK = threading.Lock()
_LIVE = {kind: weakref.WeakValueDictionary() for kind in KINDS}  # id -> cache


class TemplateCache(dict):
    """One plan step's memoized temporal templates (a plain dict that
    the live-cache registry can reference weakly)."""

    __slots__ = ("__weakref__",)


def template_cache(kind):
    """A fresh template cache of ``kind`` (one of :data:`KINDS`) for
    one compiled plan step, registered for :func:`cache_stats` until
    the step is garbage."""
    cache = TemplateCache()
    with _LIVE_LOCK:
        _LIVE[kind][id(cache)] = cache
    return cache


class configured:
    """Context manager flipping :data:`ENABLED` (ablation / tests)."""

    def __init__(self, enabled):
        self.enabled = enabled
        self._saved = None

    def __enter__(self):
        global ENABLED
        self._saved = ENABLED
        ENABLED = self.enabled
        return self

    def __exit__(self, *exc_info):
        global ENABLED
        ENABLED = self._saved
        return False


def cache_stats():
    """Entries held by the live template caches, summed per kind, and
    the per-step cap (for tests/benchmarks)."""
    with _LIVE_LOCK:
        stats = {
            kind: sum(len(cache) for cache in _LIVE[kind].values())
            for kind in KINDS
        }
    stats["cap"] = CACHE_CAP
    return stats


# -- batch operations --------------------------------------------------------
#
# Every helper takes an optional ``stats`` dict and bumps ``size`` (tuples
# seen) and ``hits`` (template-cache hits) in place; the plan operators
# fold those counters into ``kernel.batch`` observability events.  All
# helpers preserve input order exactly and represent a dropped
# (unsatisfiable) result as None in the aligned output list, matching
# the per-tuple code they replace.


def join_batch(pairs, atoms, cache, stats=None):
    """Batched fused join: ``a.joined(b, atoms)`` per pair.

    Returns a list aligned with ``pairs`` (None where the combined zone
    is unsatisfiable).  The temporal template — the result's lrps and
    constraints — is memoized in the step's ``cache`` per operand ids.
    """
    out = []
    hits = 0
    if not ENABLED:
        for a, b in pairs:
            out.append(a.joined(b, atoms))
    else:
        for a, b in pairs:
            alv, _, acid = a.kernel_ids()
            blv, _, bcid = b.kernel_ids()
            key = (alv, acid, blv, bcid)
            cached = cache.get(key, _UNSET)
            if cached is _UNSET:
                result = a.joined(b, atoms)
                if len(cache) < CACHE_CAP:
                    cache[key] = (
                        None if result is None else (result.lrps, result.constraints)
                    )
                out.append(result)
            else:
                hits += 1
                if cached is None:
                    out.append(None)
                else:
                    lrps, constraints = cached
                    out.append(type(a)(lrps, a.data + b.data, constraints))
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(pairs)
        stats["hits"] = stats.get("hits", 0) + hits
    return out


def select_batch(tuples, atoms, cache, stats=None):
    """Batched selection: ``gt.conjoined(atoms)`` per tuple."""
    out = []
    hits = 0
    if not ENABLED:
        for gt in tuples:
            out.append(gt.conjoined(atoms))
    else:
        for gt in tuples:
            lvid, _, cid = gt.kernel_ids()
            key = (lvid, cid)
            cached = cache.get(key, _UNSET)
            if cached is _UNSET:
                result = gt.conjoined(atoms)
                if len(cache) < CACHE_CAP:
                    cache[key] = (
                        None if result is None else (result.lrps, result.constraints)
                    )
                out.append(result)
            else:
                hits += 1
                if cached is None:
                    out.append(None)
                else:
                    lrps, constraints = cached
                    out.append(type(gt)(lrps, gt.data, constraints))
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(tuples)
        stats["hits"] = stats.get("hits", 0) + hits
    return out


def extend_batch(tuples, count, atoms, cache, stats=None):
    """Batched carrier extension: ``gt.extended(count, atoms)`` per tuple."""
    out = []
    hits = 0
    if not ENABLED:
        for gt in tuples:
            out.append(gt.extended(count, atoms))
    else:
        for gt in tuples:
            lvid, _, cid = gt.kernel_ids()
            key = (lvid, cid)
            cached = cache.get(key, _UNSET)
            if cached is _UNSET:
                result = gt.extended(count, atoms)
                if len(cache) < CACHE_CAP:
                    cache[key] = (
                        None if result is None else (result.lrps, result.constraints)
                    )
                out.append(result)
            else:
                hits += 1
                if cached is None:
                    out.append(None)
                else:
                    lrps, constraints = cached
                    out.append(type(gt)(lrps, gt.data, constraints))
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(tuples)
        stats["hits"] = stats.get("hits", 0) + hits
    return out


def project_batch(tuples, keep_temporal, keep_data, shifts, cache, stats=None):
    """Batched projection (+ post-projection column shifts).

    For each input tuple, yields the list ``gt.project(keep_temporal,
    keep_data)`` with each result's columns shifted per ``shifts``
    (pairs ``(column, delta)``).  Returns a list of result lists
    aligned with ``tuples``.  The post-shift temporal templates are
    memoized — data columns are re-projected per tuple, which is a
    plain Python slice.
    """
    out = []
    hits = 0

    def projected(gt):
        results = gt.project(keep_temporal, keep_data)
        if shifts:
            for column, delta in shifts:
                results = [r.shift_column(column, delta) for r in results]
        return results

    if not ENABLED:
        for gt in tuples:
            out.append(projected(gt))
    else:
        for gt in tuples:
            lvid, _, cid = gt.kernel_ids()
            key = (lvid, cid)
            cached = cache.get(key, _UNSET)
            if cached is _UNSET:
                results = projected(gt)
                if len(cache) < CACHE_CAP:
                    cache[key] = [
                        (r.lrps, r.constraints) for r in results
                    ]
                out.append(results)
            else:
                hits += 1
                data = tuple(gt.data[k] for k in keep_data)
                out.append(
                    [type(gt)(lrps, data, constraints) for lrps, constraints in cached]
                )
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(tuples)
        stats["hits"] = stats.get("hits", 0) + hits
    return out
