"""The measured process: runs one workload's ops in-process for a fixed time.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

Each op is one ``tvmerge.cli.main(argv)`` call per argv of the plan, timed
with ``perf_counter``. Op 0 warms up: it is checked but not timed, and its
outputs become the reference (``ref``) that every later op must reproduce
byte for byte. Digests are taken between ops, outside the timed region.
Right before each op the worker times the plan's reference kernel, so that
an op's time can be read relative to the speed the machine gave the process
at that moment. In a traced run, odd ops run untraced and even ops traced,
so that both see the same machine state and the tracing overhead can be
read off; the warm-up op runs traced with tracemalloc on.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads


def compute_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and cache-sized numpy work."""
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i & 7
    small = np.linspace(-1.0, 1.0, 256)
    for _ in range(5_000):
        small = np.abs(small) * -1.0
    medium = np.linspace(-1.0, 1.0, 1 << 18, dtype=np.float32)
    scratch = np.empty_like(medium)
    for _ in range(100):
        np.abs(medium, out=scratch)
        np.negative(scratch, out=medium)
    return perf_counter() - start


def memory_kernel() -> float:
    """Seconds taken to fault in, fill and stream over freshly mapped arrays."""
    start = perf_counter()
    # 32 MiB lies above glibc's largest mmap threshold, so every page is new.
    large = np.empty(8 << 20, dtype=np.float32)
    large.fill(1.0)
    np.negative(np.abs(large), out=large)
    del large
    return perf_counter() - start


# Reference kernels, named by the workloads in their plans. On a shared host
# the speed a process gets drifts by tens of percent within minutes, so op
# time divided by the time of a kernel that drifts the same way, run just
# before the op, is much steadier across runs than op time alone.
# Compute-bound work (per-record decoding, similarity) and work that maps
# and streams through large arrays (bulk selection over a (T, d) matrix)
# drift by different amounts, hence two kernels. Neither calls a BLAS
# routine, so the program cannot change their speed through numpy's thread
# settings, and their arrays are freed before the op starts.
KERNELS = {"compute": compute_kernel, "memory": memory_kernel}


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as stream:
            while chunk := stream.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    out, ref = Path(plan["out"]), Path(plan["ref"])
    from tvmerge import cli

    kernel = KERNELS[plan["kernel"]]
    tracer = spans.Tracer() if plan["trace"] else None
    ops = []
    loop_start = None
    index = 0
    while True:
        traced = tracer is not None and index > 0 and index % 2 == 0
        # A traced run measures allocations on the untimed warm-up op only.
        patched = traced or (tracer is not None and index == 0)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        error = None
        codes = []
        ref_seconds = kernel()
        if patched:
            tracer.install(index, track_alloc=index == 0)
        try:
            start = perf_counter()
            for argv in plan["ops"]:
                codes.append(tracer.call("cli", cli.main, argv) if patched else cli.main(argv))
            seconds = perf_counter() - start
        except Exception:  # an uncaught exception is a failed op, not a benchmark crash
            seconds = perf_counter() - start
            error = traceback.format_exc(limit=3)
            codes.append(1)
        finally:
            if patched:
                tracer.uninstall()
        if plan["corrupt_op"] == index:
            workloads.corrupt(plan["workload"], out)
        ops.append({"index": index, "traced": traced, "seconds": seconds, "ref_seconds": ref_seconds,
                    "codes": codes, "error": error, "digest": digest(out)})
        if index == 0:
            # One CLI call runs in a fresh process, so the high-water RSS after
            # the first op is what a user's call peaks at. Later ops add only
            # allocator fragmentation, which varies from run to run.
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out.rename(ref)
            loop_start = perf_counter()
        index += 1
        plain = sum(1 for op in ops[1:] if not op["traced"])
        enough = plain >= 3 if tracer is None else min(plain, len(ops) - 1 - plain) >= 2
        if enough and perf_counter() - loop_start >= plan["seconds"]:
            break

    result = {
        "ops": ops,
        "peak_rss_kib": peak_rss_kib,
        "spans": tracer.spans if tracer else [],
        "untraced_entry_points": tracer.missing if tracer else [],
    }
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
