"""Toy-size self-check of the benchmark itself.

Run from the repository root: python3 perfbench/selfcheck.py

It checks that every workload, untraced and traced, emits exactly the
metrics that BENCHMARK.json names, with their units; that the same seed
gives the same inputs; that a deliberately corrupted output, in the
reference op or in a later op, makes the run incorrect with a nonzero
error rate; and that the benchmark refuses to run without the program's
sources. Exits 0 when all checks pass.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "5", "--seconds", "0.5",
         "--scale", "toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    wanted = {
        "0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace, metrics in wanted.items():
            code, result = run("--workload", workload, "--trace", trace)
            expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: correct, no failed op", failures)
            got = {} if result is None else {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == metrics, f"{workload} trace {trace}: every named metric with its unit", failures)
        for op in ("0", "1"):
            code, result = run("--workload", workload, "--trace", "0", "--corrupt-op", op)
            ok_ratio = None if result is None else result["metrics"]["ok_ratio"]["value"]
            expect(code == 0 and result is not None and not result["correct"] and result["failed"] > 0
                   and ok_ratio < 1.0, f"{workload}: corrupted output of op {op} gives a nonzero error rate",
                   failures)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for workload in names:
            first = workloads.generate(workload, tmp / "a", tmp / "out", 9, "toy")
            second = workloads.generate(workload, tmp / "b", tmp / "out", 9, "toy")
            files = sorted(p.name for p in (tmp / "a").iterdir())
            _, mismatch, errors = filecmp.cmpfiles(tmp / "a", tmp / "b", files, shallow=False)
            expect(not mismatch and not errors and first["input_bytes"] == second["input_bytes"],
                   f"{workload}: the same seed gives the same inputs", failures)
            shutil.rmtree(tmp / "a")
            shutil.rmtree(tmp / "b")

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result = run("--workload", names[0], "--trace", "0", cwd=bare)
        expect(code != 0 and result is None, "without the program's sources: nonzero exit, no result", failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
