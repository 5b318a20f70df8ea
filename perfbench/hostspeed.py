"""Host-speed scaling of measured times.

The benchmark runs on a share of a host whose speed for one interpreter
thread moves by up to 1.5x over seconds to minutes, with the load of
other tenants.  A raw wall-clock time then says as much about the host
as about the program.  So the run times one call of a fixed reference
kernel next to every op: pure interpreter work that never touches the
program.  Each op's time is reported scaled to a host on which that
call takes :data:`REFERENCE_MS`::

    scaled = measured * REFERENCE_MS / measured reference call

The reference runs in the op's shape.  A single-threaded op is scaled
by a call on its own thread right after it (:func:`sample`), so both
ran on the same CPU.  The host can slow one of its CPUs and not the
other, so an op spread over several CPUs is scaled by a call pinned to
each CPU in turn: the slowest for forked workers that wait on each
other every round (:func:`slowest_cpu`), the mean for threads the
scheduler moves between CPUs (:func:`mean_cpu`).

A slower program still reads slower; a slower host does not.  The raw
wall-clock median and the reference call's own time print with the
per-layer metrics, so the host's speed during a run stays visible.
"""

from __future__ import annotations

import os
import statistics
import time

#: The reference call's time on the nominal host, in ms; roughly its
#: time on a 2-CPU Xeon VM when the host is quiet.
REFERENCE_MS = 2.5
_ITERATIONS = 20000


def reference():
    """The reference kernel: dict and integer work, no allocation that
    outlives the call beyond one small dict."""
    table = {}
    for i in range(_ITERATIONS):
        key = i % 97
        table[key] = table.get(key, 0) + i * 3 % 7
    return table


def sample():
    """Seconds one reference call takes now."""
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


def _each_cpu():
    """One reference call pinned to each CPU this thread may use."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2:
        return [sample()]
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(sample())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def slowest_cpu():
    """Seconds the reference call takes now on the slowest CPU."""
    return max(_each_cpu())


def mean_cpu():
    """Mean seconds the reference call takes now over the CPUs."""
    return statistics.mean(_each_cpu())


def scaled(seconds, reference_s):
    """``seconds`` measured next to a reference call of ``reference_s``,
    scaled to the nominal host."""
    return seconds * (REFERENCE_MS / 1000.0) / reference_s


def timed(function):
    """``(result, scaled seconds)`` of ``function()``: the reference is
    sampled before and after, and the median of the three samples
    (two before the call, one after) scales the call's time."""
    samples = [sample(), sample()]
    started = time.perf_counter()
    result = function()
    elapsed = time.perf_counter() - started
    samples.append(sample())
    return result, scaled(elapsed, sorted(samples)[1])
