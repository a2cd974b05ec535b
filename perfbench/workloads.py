"""The benchmark's workloads: seeded inputs, the CLI calls of one op, and output checks.

Inputs depend only on the seed and the scale ("full" for measurement,
"toy" for the self-check). Checks read the program's files with the
stand-alone TVC1 reader and numpy; they pin invariants, not digests, so an
intentional change of budgets or scores does not fail them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import tvc1

PIPELINE_METRICS = ("ot", "mmd", "cos", "label")

# merge-wide: a few large records, 2**23 float32 elements per container.
_WIDE = {
    "full": (8, [("embed", (4096, 1024)), ("attn", (1024, 2048)), ("mlp", (1024, 2040)), ("bias", (8192,))]),
    "toy": (3, [("embed", (16, 8)), ("attn", (8, 4)), ("mlp", (4, 6)), ("bias", (5,))]),
}
# merge-layered: many small records, alternating (16, 16) weights and (16,) biases.
_LAYERED = {"full": (16, 1024, 16), "toy": (3, 4, 4)}
_PIPELINE = {
    "full": {
        "suite": {"num_tasks": 8, "dim": 2056, "support_mode": "overlapping", "overlap": 8,
                  "samples_per_task": 320, "classes_per_task": 4},
        "environment": {"members": [1, 3, 8], "mix": [0.5, 0.3, 0.2], "total_samples": 2000,
                        "meta_fraction": 0.1},
    },
    "toy": {
        "suite": {"num_tasks": 4, "dim": 34, "support_mode": "overlapping", "overlap": 2,
                  "samples_per_task": 24, "classes_per_task": 2},
        "environment": {"members": [1, 3, 4], "mix": [0.5, 0.3, 0.2], "total_samples": 200,
                        "meta_fraction": 0.1},
    },
}


def generate(workload: str, inputs: Path, out: Path, seed: int, scale: str) -> dict:
    """Write the inputs of one run; returns the plan shared by worker and checker."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "pipeline-sim":
        return _generate_pipeline(inputs, out, seed, scale)
    rng = np.random.default_rng([seed, 7])
    if workload == "merge-wide":
        num_tasks, shapes = _WIDE[scale]
        make = lambda: [(name, rng.standard_normal(shape, dtype=np.float32)) for name, shape in shapes]
        method = ["--method", "tunable", "--alpha", "0.5", "--seed", str(seed)]
    elif workload == "merge-layered":
        num_tasks, layers, width = _LAYERED[scale]
        # Quarter-step values give many equal magnitudes, so the tie rule is exercised.
        def make():
            out = []
            for layer in range(layers):
                out.append((f"layer{layer:04d}.weight", np.round(4 * rng.standard_normal((width, width))) / 4))
                out.append((f"layer{layer:04d}.bias", np.round(4 * rng.standard_normal(width)) / 4))
            return out
        method = ["--method", "magmax"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    taus = []
    input_bytes = 0
    for task in range(1, num_tasks + 1):
        path = inputs / f"tau{task:02d}.tvc"
        input_bytes += tvc1.write(path, make())
        taus.append(str(path))
    merged = str(out / "merged.tvc")
    return {
        "workload": workload,
        "ops": [["merge", *method, "--out", merged, *taus]],
        "taus": taus,
        "num_tasks": num_tasks,
        "dim": input_bytes // 4 // num_tasks,
        "input_bytes": input_bytes,
        "working_set_bytes": input_bytes,
        "alpha": 0.5 if workload == "merge-wide" else None,
        "kernel": "memory" if workload == "merge-wide" else "compute",
    }


def _generate_pipeline(inputs: Path, out: Path, seed: int, scale: str) -> dict:
    spec = _PIPELINE[scale]
    ops = []
    for metric in PIPELINE_METRICS:
        config = {
            "seed": seed,
            "suite": spec["suite"],
            "merge": {"method": "tunable", "rounds": 2, "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": metric},
            "environment": spec["environment"],
        }
        path = inputs / f"pipeline_{metric}.json"
        path.write_text(json.dumps(config, indent=2))
        ops.append(["pipeline", "--config", str(path),
                    "--csv-out", str(out / f"{metric}.csv"), "--json-out", str(out / f"{metric}.json")])
    suite = spec["suite"]
    return {
        "workload": "pipeline-sim",
        "ops": ops,
        "dim": suite["dim"],
        "num_tasks": suite["num_tasks"],
        "input_bytes": sum((inputs / f"pipeline_{m}.json").stat().st_size for m in PIPELINE_METRICS),
        # float64 design matrices of the generated suite, the pipeline's largest arrays
        "working_set_bytes": 8 * suite["num_tasks"] * suite["samples_per_task"] * suite["dim"],
        "kernel": "compute",
    }


def corrupt(workload: str, out: Path) -> None:
    """Damage one op's outputs the way a wrong result would; used by the self-check."""
    if workload == "pipeline-sim":
        path = out / "ot.json"
        summary = json.loads(path.read_text())
        census = summary["runs"][0]["census"]
        census[0] += 1
        census[-1] -= 1
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return
    path = out / "merged.tvc"
    data = bytearray(path.read_bytes())
    data[-4] ^= 1  # lowest mantissa bit of the last merged element
    path.write_bytes(bytes(data))


def check(plan: dict, ref: Path, budgets: list[int] | None) -> list[str]:
    """Problems found in one op's outputs; an empty list means they are correct."""
    try:
        if plan["workload"] == "pipeline-sim":
            return _check_pipeline(plan, ref)
        return _check_merge(plan, ref, budgets)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_merge(plan: dict, ref: Path, budgets: list[int] | None) -> list[str]:
    problems = []
    merged_records = tvc1.read(ref / "merged.tvc")
    side = dict(tvc1.read(ref / "merged.tvc.assignment.tvc"))
    census = json.loads((ref / "merged.tvc.census.json").read_text())["counts"]
    owner = side["owner"].astype(np.int64)
    merged_bits = tvc1.flat(merged_records).view(np.uint32)
    num_tasks = plan["num_tasks"]
    if owner.size != merged_bits.size:
        return [f"owner map has {owner.size} entries for {merged_bits.size} elements"]
    if owner.min() < 1 or owner.max() > num_tasks:
        problems.append("owner out of range")
    if census != np.bincount(owner, minlength=num_tasks + 1)[1:].tolist():
        problems.append("census differs from the owner map")
    if budgets is not None and census != budgets:
        problems.append(f"census {census} differs from the preference vector {budgets}")

    magmax = plan["alpha"] is None
    best = expected = None
    for task, path in enumerate(plan["taus"], start=1):
        records = tvc1.read(Path(path))
        if task == 1 and tvc1.layout(records) != tvc1.layout(merged_records):
            problems.append("merged layout differs from the inputs")
        tau = tvc1.flat(records)
        mine = owner == task
        if not np.array_equal(merged_bits[mine], tau.view(np.uint32)[mine]):
            problems.append(f"merged elements owned by task {task} differ from its input bits")
        if magmax:
            magnitude = np.abs(tau)
            if best is None:
                best, expected = magnitude, np.ones(owner.size, dtype=np.int64)
            else:
                expected[magnitude >= best] = task  # later task wins ties
                np.maximum(best, magnitude, out=best)
    if magmax and not np.array_equal(owner, expected):
        problems.append(f"{int((owner != expected).sum())} owners differ from the later-task-wins argmax")
    return problems


def _check_pipeline(plan: dict, ref: Path) -> list[str]:
    problems = []
    for metric in PIPELINE_METRICS:
        summary = json.loads((ref / f"{metric}.json").read_text())
        rows = list(csv.DictReader((ref / f"{metric}.csv").read_text().splitlines()))
        for run in summary["runs"]:
            budgets, census = run["budgets"], run["census"]
            if len(budgets) != plan["num_tasks"] or sum(budgets) != plan["dim"]:
                problems.append(f"{metric}: budgets {budgets} do not split dim {plan['dim']}")
            if census != budgets:
                problems.append(f"{metric}: census {census} differs from budgets {budgets}")
            losses = [*run["task_losses"].values(), run["env_loss"]]
            if not all(isinstance(x, float) and math.isfinite(x) for x in losses):
                problems.append(f"{metric}: non-finite loss")
        if [int(r["census"]) for r in rows] != summary["runs"][0]["census"]:
            problems.append(f"{metric}: CSV census differs from the JSON report")
    return problems
