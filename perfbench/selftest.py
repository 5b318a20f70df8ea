"""Tiny-size self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every workload runs, that the untraced and the traced
run print every metric named in ``BENCHMARK.json`` with its unit, that
a deliberately corrupted expected answer makes the run exit nonzero,
and that a directory holding only the benchmark (no program) makes it
exit nonzero without a result, and that no run leaves a process
running.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def processes():
    """``{pid: command line}`` of every process visible in /proc."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join("/proc", entry, "cmdline"), "rb") as handle:
                found[int(entry)] = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            pass
    return found


LEFTOVERS = []


def run(args, cwd=ROOT):
    """Run the benchmark; note any process of its that outlives it.

    Output goes to files, not pipes: reading a pipe waits for every
    process holding it, so a leftover child would end before the check.
    """
    command = [sys.executable, os.path.join("perfbench", "run.py")] + args
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    before = set(processes())
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        returncode = subprocess.run(command, cwd=cwd, stdout=out, stderr=err, timeout=170).returncode
        for pid, line in processes().items():
            if pid not in before and ("perfbench" in line or "multiprocessing" in line):
                LEFTOVERS.append("%s: pid %d %s" % (" ".join(args), pid, line))
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(
            command, returncode, out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def result_line(process):
    lines = process.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny"]
        for trace in (0, 1):
            process = run(base + ["--trace", str(trace)])
            result = result_line(process)
            label = "%s --trace %d" % (workload, trace)
            if process.returncode != 0 or result is None:
                failures.append("%s: exit %d\n%s" % (label, process.returncode, process.stderr[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["attempted"] < 1 or result["failed"]:
                failures.append("%s: not all ops correct: %s" % (label, result))
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                failures.append("%s: metrics/units differ from BENCHMARK.json" % label)
        process = run(base + ["--trace", "0", "--corrupt"])
        result = result_line(process)
        if process.returncode == 0 or result is None or result["correct"]:
            failures.append("%s --corrupt: exit %d, result %s" % (workload, process.returncode, result))

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        process = run(["--workload", "chains", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if process.returncode == 0 or result_line(process) is not None:
            failures.append("bare benchmark directory: exit %d" % process.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass

    failures += ["process left running after %s" % leftover for leftover in LEFTOVERS]
    for failure in failures:
        print("FAIL:", failure)
    print("selftest: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
