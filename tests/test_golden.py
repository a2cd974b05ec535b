"""Byte-identity guard: CLI outputs must match digests recorded earlier.

``golden_digests.json`` holds the SHA-256 of every file that ``tvmerge
merge`` and ``tvmerge pipeline`` write for fixed seeded inputs, plus each
run's exit code. A change that is meant to keep outputs byte-identical must
pass this test unchanged. The digests were recorded with numpy 2.4.6 on
x86-64; float reductions (``average``, the pipeline's float64 math) may
round differently under another numpy build.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tvmerge import ParameterSet, encode_container
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
MERGE_CASES = [
    f"merge-{method}-rounds{rounds}-{inputs}"
    for method in MERGE_ARGS
    for rounds in (1, 5)
    for inputs in ("finite", "inf")
]


def write_inputs(directory: Path, with_inf: bool) -> list[str]:
    """Tie-heavy integer-valued float32 task vectors, optionally with +-inf.

    The seed makes tunable's residual fill deal to more than one task on
    both input sets, so ``--rounds`` (which keys that fill) changes bytes.
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


def digests(files: dict[str, Path]) -> dict[str, str]:
    return {
        key: hashlib.sha256(path.read_bytes()).hexdigest()
        for key, path in files.items()
        if path.exists()
    }


def run_case(case: str, directory: Path) -> dict:
    """Run one golden case in ``directory``; return its exit code and output digests."""
    if case == "pipeline-example":
        csv_out, json_out = directory / "report.csv", directory / "report.json"
        config = REPO_ROOT / "configs" / "example_pipeline.json"
        code = main(
            ["pipeline", "--config", str(config), "--csv-out", str(csv_out), "--json-out", str(json_out)]
        )
        files = {"csv": csv_out, "json": json_out}
    else:
        _, method, rounds, inputs = case.split("-")
        paths = write_inputs(directory, with_inf=inputs == "inf")
        out = directory / "merged.tvc"
        code = main(
            ["merge", "--method", method, *MERGE_ARGS[method], "--seed", "11",
             "--rounds", rounds.removeprefix("rounds"), "--out", str(out), *paths]
        )
        files = {
            "container": out,
            "census": Path(f"{out}.census.json"),
            "assignment": Path(f"{out}.assignment.tvc"),
        }
    # A failed run's leftovers are not part of the contract; only its exit code is.
    return {"exit": code, "files": digests(files) if code == 0 else {}}


@pytest.mark.parametrize("case", [*MERGE_CASES, "pipeline-example"])
def test_outputs_match_recorded_digests(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]
