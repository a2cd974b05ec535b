"""Byte-identity guard: CLI outputs must match digests recorded earlier.

``golden_digests.json`` holds the SHA-256 of every file that the
``tvmerge`` commands (``merge``, ``pipeline``, ``sim``, ``prefvec``,
``taskvec``, ``apply``, ``census``) write for fixed seeded inputs, plus
each run's exit code. A change that is meant to keep outputs
byte-identical must pass this test unchanged. The digests were recorded with numpy 2.4.6 on
x86-64; float reductions (``average``, the pipeline's float64 math) may
round differently under another numpy build.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tvmerge import Assignment, ParameterSet, encode_container, write_assignment
from tvmerge.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())

# Several tensors of different rank, so the flat index crosses tensor borders.
LAYOUT = (("a", (6, 9)), ("b", (37,)), ("c", (3, 4, 5)))
NUM_TASKS = 4
MERGE_ARGS = {
    "magmax": [],
    "tunable": ["--alpha", "0.5"],
    "average": [],
    "randmix": [],
}
# The rounds1/rounds5 tags name a retired merge flag that never changed the
# bytes; both cases of a pair run the same argv and keep their recorded digests.
MERGE_CASES = [
    f"merge-{method}-rounds{rounds}-{inputs}"
    for method in MERGE_ARGS
    for rounds in (1, 5)
    for inputs in ("finite", "inf")
] + ["merge-tunable-large-fill"]

# Pipeline configs: each entry overrides sections of PIPELINE_BASE.
PIPELINE_BASE = {
    "seed": 2024,
    "suite": {"num_tasks": 4, "dim": 32, "samples_per_task": 48, "classes_per_task": 2},
    "merge": {"method": "tunable", "lambda_merge": 1.0},
    "environment": {"members": [1, 3], "mix": [0.3, 0.7], "total_samples": 60, "meta_fraction": 0.1},
}
# Every OTConfig field set away from its default.
SIM_TUNED = {
    "epsilon": 0.05,
    "max_iters": 300,
    "tol": 1e-6,
    "gamma": 2.0,
    "gamma_cos": 2.5,
    "gamma_mmd": 3.0,
    "mmd_bandwidth": 0.8,
}
PIPELINE_CONFIGS = {
    "alpha-sweep": {"preference": {"source": "alpha", "alpha": [0, 0.5, 1, 2]}},
    "alpha-noenv": {"preference": {"source": "alpha", "alpha": 0.5}, "environment": None},
    "file": {"preference": {"source": "file"}},  # the path is added when the file is written
    **{
        f"sim-{metric}{suffix}": {
            "preference": {"source": "similarity", "metric": metric},
            "similarity_config": sim_config,
        }
        for metric in ("ot", "mmd", "cos", "label")
        for suffix, sim_config in (("", {}), ("-tuned", SIM_TUNED))
    },
    **{method: {"merge": {"method": method, "lambda_merge": 1.0}} for method in ("magmax", "average", "randmix")},
    "cumulative-rounds5": {
        "merge": {"method": "tunable", "lambda_merge": 0.5, "delta_mode": "cumulative", "rounds": 5},
        "preference": {"source": "alpha", "alpha": 0.5},
    },
    "overlapping": {
        "suite": {
            "num_tasks": 4, "dim": 29, "support_mode": "overlapping", "overlap": 1,
            "samples_per_task": 48, "noise_sigma": 0.1, "cluster_separation": 2.0,
        },
        "preference": {"source": "alpha", "alpha": 1.0},
    },
}
PIPELINE_CASES = [
    "pipeline-example",
    "pipeline-example-seed9",
    *(f"pipeline-{name}" for name in PIPELINE_CONFIGS),
]
# The sim flag of every OTConfig field, so "-tuned" runs with SIM_TUNED.
SIM_TUNED_ARGS = [
    arg
    for key, value in SIM_TUNED.items()
    for arg in ({"mmd_bandwidth": "--bandwidth"}.get(key, "--" + key.replace("_", "-")), repr(value))
]
COMMAND_CASES = [
    *(f"sim-{metric}{suffix}" for metric in ("ot", "mmd", "cos", "label") for suffix in ("", "-tuned")),
    "prefvec-alpha",
    "prefvec-sim-file",
    "taskvec",
    "apply",
    "census-assignment",
]


def write_inputs(directory: Path, with_inf: bool) -> list[str]:
    """Tie-heavy integer-valued float32 task vectors, optionally with +-inf.

    The seed makes tunable's residual fill deal to more than one task on
    both input sets, so a change to the stream that shuffles that fill
    changes bytes.
    """
    rng = np.random.default_rng(2615)
    paths = []
    for task in range(NUM_TASKS):
        tensors = []
        for name, dims in LAYOUT:
            values = rng.integers(-2, 3, size=dims).astype(np.float32)
            if with_inf:
                values[rng.random(size=dims) < 0.1] = np.inf
                values[rng.random(size=dims) < 0.1] = -np.inf
            tensors.append((name, values))
        path = directory / f"tau{task}.tvc"
        encode_container(ParameterSet(tensors), path)
        paths.append(str(path))
    return paths


def write_large_fill_inputs(directory: Path) -> list[str]:
    """Three task vectors of 20,000 float32 elements in two tensors.

    Task 1 is four times as large as the others, so it sets most records:
    tasks 2 and 3 fall short of their alpha-0.5 budgets by thousands of
    elements, and the residual fill of both earns slots in its draw table.
    """
    rng = np.random.default_rng(1907)
    paths = []
    for task, scale in enumerate((4.0, 1.0, 1.0)):
        tensors = [
            (name, (scale * rng.standard_normal(dims)).astype(np.float32))
            for name, dims in (("w", (96, 200)), ("b", (800,)))
        ]
        path = directory / f"tau{task}.tvc"
        encode_container(ParameterSet(tensors), path)
        paths.append(str(path))
    return paths


def digests(files: dict[str, Path]) -> dict[str, str]:
    return {
        key: hashlib.sha256(path.read_bytes()).hexdigest()
        for key, path in files.items()
        if path.exists()
    }


def write_pipeline_config(name: str, directory: Path) -> tuple[Path, list[str]]:
    """The config file for one pipeline case, plus any extra CLI arguments."""
    example = REPO_ROOT / "configs" / "example_pipeline.json"
    if name == "example":
        return example, []
    if name == "example-seed9":
        return example, ["--seed", "9"]
    config = {**PIPELINE_BASE, **PIPELINE_CONFIGS[name]}
    if config["environment"] is None:
        del config["environment"]
    if name == "file":
        pref = directory / "pref.json"
        pref.write_text(json.dumps({"budgets": [5, 11, 9, 7], "d": 32}))
        config["preference"] = {"source": "file", "path": str(pref)}
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return path, []


def write_sim_inputs(directory: Path, metric: str) -> tuple[list[str], str]:
    """Three task inputs and one shared meta input for ``tvmerge sim``.

    Embeddings sit close enough to the meta set that no score is clamped at
    the default gammas; label files use both the ``labels`` and ``counts``
    forms.
    """
    rng = np.random.default_rng(4151)
    if metric == "label":
        payloads = [
            {"labels": rng.integers(0, 3, size=20).tolist()},
            {"labels": rng.integers(1, 5, size=25).tolist()},
            {"counts": {"0": 3, "2": 9, "7": 4}},
            {"labels": rng.integers(0, 4, size=16).tolist()},
        ]
        paths = []
        for index, payload in enumerate(payloads):
            path = directory / f"labels{index}.json"
            path.write_text(json.dumps(payload))
            paths.append(str(path))
        return paths[:3], paths[3]
    offset = np.array([1.0, 0.5, -0.2, 0.3])
    paths = []
    for index, (rows, shift) in enumerate([(6, 0.0), (7, 0.05), (5, 0.15), (8, 0.0)]):
        matrix = rng.normal(scale=0.1, size=(rows, offset.size)) + offset + shift
        path = directory / f"emb{index}.tvc"
        encode_container(ParameterSet({"emb": matrix.astype(np.float32)}), path)
        paths.append(str(path))
    return paths[:3], paths[3]


def command_argv(case: str, directory: Path) -> tuple[list[str], dict[str, Path]]:
    """The argv of one single-command case, and the files it writes."""
    out = directory / "out"
    if case.startswith("sim-"):
        metric, _, tuned = case.removeprefix("sim-").partition("-")
        tasks, meta = write_sim_inputs(directory, metric)
        argv = ["sim", "--metric", metric, *(arg for task in tasks for arg in ("--task", task)), "--meta", meta]
        return [*argv, *(SIM_TUNED_ARGS if tuned else []), "--out", str(out)], {"sim": out}
    if case == "prefvec-alpha":
        return ["prefvec", "--alpha", "0.5", "--tasks", "4", "--dim", "97", "--out", str(out)], {"pref": out}
    if case == "prefvec-sim-file":
        sims = directory / "sims.json"
        sims.write_text(json.dumps({"scores": [0.31, 2.5e-5, 0.2, 0.7], "metric": "ot"}))
        return ["prefvec", "--sim-file", str(sims), "--dim", "97", "--out", str(out)], {"pref": out}
    if case == "census-assignment":
        rng = np.random.default_rng(77)
        side_file = directory / "m.assignment.tvc"
        write_assignment(side_file, Assignment(rng.integers(1, 6, size=300), rng.integers(0, 2, size=300), 5))
        return ["census", "--assignment", str(side_file), "--out", str(out)], {"census": out}
    theta0, theta = write_inputs(directory, with_inf=False)[:2]
    if case == "taskvec":
        return ["taskvec", "--theta", theta, "--theta0", theta0, "--out", str(out)], {"container": out}
    # "apply": theta plays the task vector; 0.3 is not exact in float32.
    return ["apply", "--theta0", theta0, "--tau", theta, "--lambda-merge", "0.3", "--out", str(out)], {"container": out}


def run_case(case: str, directory: Path) -> dict:
    """Run one golden case in ``directory``; return its exit code and output digests."""
    if case.startswith("pipeline-"):
        csv_out, json_out = directory / "report.csv", directory / "report.json"
        config, extra = write_pipeline_config(case.removeprefix("pipeline-"), directory)
        code = main(
            ["pipeline", "--config", str(config), *extra, "--csv-out", str(csv_out), "--json-out", str(json_out)]
        )
        files = {"csv": csv_out, "json": json_out}
    elif case.startswith("merge-"):
        out = directory / "merged.tvc"
        if case == "merge-tunable-large-fill":
            argv = ["--method", "tunable", "--alpha", "0.5", "--seed", "11", *write_large_fill_inputs(directory)]
        else:
            _, method, _rounds, inputs = case.split("-")
            paths = write_inputs(directory, with_inf=inputs == "inf")
            argv = ["--method", method, *MERGE_ARGS[method], "--seed", "11", *paths]
        code = main(["merge", "--out", str(out), *argv])
        files = {
            "container": out,
            "census": Path(f"{out}.census.json"),
            "assignment": Path(f"{out}.assignment.tvc"),
        }
    else:
        argv, files = command_argv(case, directory)
        code = main(argv)
    # A failed run's leftovers are not part of the contract; only its exit code is.
    return {"exit": code, "files": digests(files) if code == 0 else {}}


@pytest.mark.parametrize("case", [*MERGE_CASES, *PIPELINE_CASES, *COMMAND_CASES])
def test_outputs_match_recorded_digests(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


def test_every_recorded_digest_has_a_case():
    assert sorted(GOLDEN) == sorted([*MERGE_CASES, *PIPELINE_CASES, *COMMAND_CASES])
