"""tvmerge benchmark: merge-wide, merge-layered and pipeline-sim.

Run from the repository root:

    python3 perfbench/run.py --workload merge-wide --seed 1 --seconds 30 --trace 0

One run generates seeded inputs in a scratch directory of the checkout
(outside the measured process), times the import of ``tvmerge.cli`` in
fresh interpreters, runs the workload's ops in one worker process for
``--seconds`` seconds (closed loop, one op at a time, ``TVM_THREADS``
unset), checks the outputs in another process, and deletes the scratch
directory. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced ops and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

End-to-end metrics:

- op_rel_p50: median over the timed ops of op wall time divided by the
  wall time of a fixed reference kernel run just before the op in the same
  process (see worker.KERNELS; merge-wide uses the memory kernel, the other
  workloads the compute kernel). On a shared host the speed a process gets
  drifts by tens of percent within minutes; the ratio cancels most of that
  drift, while the plain median op wall time (op_s_p50, in seconds) is
  printed on a line of its own.
- peak_rss_mib: high-water RSS of the measured process after its first op.
- setup_s: median time to import tvmerge.cli in a fresh interpreter.
- ok_ratio: 1 - error_rate, where error_rate is failed ops over attempted
  ops; an op fails on a nonzero exit code or a failed output check.

``--scale toy`` and ``--corrupt-op`` exist for perfbench/selfcheck.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIB = 1 << 20
WORKLOADS = ("merge-wide", "merge-layered", "pipeline-sim")
END_TO_END = (("op_rel_p50", "ratio"), ("peak_rss_mib", "MiB"), ("setup_s", "s"), ("ok_ratio", "ratio"))
# Imports timed before and again after the worker, so that setup_s samples
# the machine over the whole run rather than one moment of it.
SETUP_IMPORTS = 8
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import tvmerge.cli; print(time.perf_counter() - t)"
# glibc's _SC_LEVEL3_CACHE_SIZE; Python's sysconf table does not always name it.
_SC_LEVEL3_CACHE_SIZE = 194


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--corrupt-op", type=int, help="damage this op's outputs (self-check only)")
    return parser.parse_args(argv)


def llc_bytes() -> int | None:
    try:
        size = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        return None
    return size if size > 0 else None


def measure_setup(env: dict, count: int) -> list[float]:
    """Import times of tvmerge.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout))
    return samples


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    text = f"n={len(values)}, p25 {q1:.4f}, p75 {q3:.4f}"
    # The highest percentile with at least ten samples beyond it, if any.
    tail = next((p for p in (99, 95, 90, 80) if len(values) * (100 - p) >= 1000), None)
    if tail is not None:
        text += f", p{tail} {statistics.quantiles(values, n=100)[tail - 1]:.4f}"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tvmerge" / "cli.py").is_file():
        print("perfbench: no tvmerge sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "TVM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)

    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        started = perf_counter()
        plan = workloads.generate(args.workload, work / "inputs", work / "out", args.seed, args.scale)
        generate_s = perf_counter() - started
        plan.update(out=str(work / "out"), ref=str(work / "ref"), seconds=args.seconds,
                    trace=bool(args.trace), corrupt_op=args.corrupt_op)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        # The first import compiles bytecode and is dropped.
        setup = [] if args.trace else measure_setup(env, SETUP_IMPORTS + 1)[1:]
        result_path = work / "result.json"
        worker = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                                env=env, timeout=args.seconds + 120)
        if worker.returncode != 0:
            print(f"perfbench: worker exited with code {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        if not args.trace:
            setup += measure_setup(env, SETUP_IMPORTS)
        checked = subprocess.run([sys.executable, str(HERE / "check.py"), str(plan_path), plan["ref"]],
                                 env=env, capture_output=True, text=True, timeout=120)
        if checked.returncode != 0:
            print(f"perfbench: output check crashed:\n{checked.stderr}", file=sys.stderr)
            return 1
        problems = json.loads(checked.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    ops = result["ops"]
    reference = ops[0]
    reference_ok = not problems and not any(reference["codes"]) and reference["error"] is None
    failed = [op for op in ops
              if not reference_ok or any(op["codes"]) or op["error"] or op["digest"] != reference["digest"]]

    llc = llc_bytes()
    working_set = plan["working_set_bytes"]
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, numpy {np.__version__}, "
          f"LLC {'unknown' if llc is None else f'{llc / MIB:.1f} MiB'}")
    print(f"workload {args.workload} ({args.scale}), seed {args.seed}: inputs {plan['input_bytes'] / MIB:.2f} MiB "
          f"generated in {generate_s:.2f} s (not part of setup_s); working set {working_set / MIB:.2f} MiB"
          + ("" if llc is None else f" = {working_set / llc:.2f}x LLC"))
    print("inputs are read warm from the page cache: the benchmark does not drop caches")
    print(f"ops: {len(ops)} attempted (op 0 warms up and is not timed), {len(failed)} failed, "
          f"error_rate {len(failed) / len(ops):.4f}")
    for problem in problems[:10]:
        print(f"check failed: {problem}")
    for op in ops:
        if op["error"]:
            print(f"op {op['index']} raised:\n{op['error']}")
            break

    if args.trace:
        values, worst_self_share = spans.run_metrics(result["spans"], ops)
        traced = sum(1 for op in ops if op["traced"])
        print(f"traced ops: {traced}; untraced ops: {len(ops) - 1 - traced}; values are medians over traced ops")
        print(f"span check: spans nest; cli.self_s is at most {100 * worst_self_share:.1f}% of a traced op")
        print("every _s metric is a self time: span duration minus the time of its child spans")
        print("MiB/s figures are computed from array sizes, not measured memory bandwidth")
        for name in result["untraced_entry_points"]:
            print(f"entry point {name} not found; its layer metric reads 0")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.LAYER_METRICS}
    else:
        timed = [op["seconds"] for op in ops[1:]]
        kernel = [op["ref_seconds"] for op in ops[1:]]
        relative = [op["seconds"] / op["ref_seconds"] for op in ops[1:]]
        print(f"op_s_p50 = {statistics.median(timed):.6g} s ({quartiles(timed)}); {plan['kernel']} reference kernel "
              f"{statistics.median(kernel):.6g} s ({quartiles(kernel)})")
        values = {
            "op_rel_p50": statistics.median(relative),
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
            "setup_s": statistics.median(setup),
            "ok_ratio": 1.0 - len(failed) / len(ops),
        }
        samples = {"op_rel_p50": quartiles(relative), "setup_s": quartiles(setup),
                   "peak_rss_mib": "measured process, after its first op", "ok_ratio": f"n={len(ops)}, 1 - error_rate"}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        note = f" ({samples[name]})" if not args.trace else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
