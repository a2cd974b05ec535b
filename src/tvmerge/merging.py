"""Task-vector merging strategies and element-ownership bookkeeping.

All strategies operate on the global flat index: task vectors are stacked
into a (T, d) matrix and each output element is copied bitwise from exactly
one input row. Task ids are 1-based throughout; flat indices are 0-based
numpy indices.

Randomized selection is driven by counter-based keyed streams: a Philox
generator keyed by (seed, round, task), so results are reproducible and
independent of scheduling or invocation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .container import DTYPE_U16, _read_records, _write_records
from .errors import ShapeMismatchError, ValidationError

MERGE_METHODS = ("magmax", "tunable", "average", "randmix")

#: Provenance code for elements assigned by the final random fill.
RESIDUAL_RANDOM = 0

TaskVectors = Union[np.ndarray, Sequence[np.ndarray]]
Budgets = Union["PreferenceVector", Sequence[int], np.ndarray]


@dataclass(frozen=True)
class MergeConfig:
    """Knobs of the randomized strategies.

    ``seed`` keys every selection stream. ``rounds`` only keys the residual
    fill stream, (seed, rounds+1, 0); the claim sweep runs once whatever its
    value, because a task's candidates are exhausted after its first claim.
    """

    rounds: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class PreferenceVector:
    """Per-task element budgets; must sum to the model's element count."""

    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.budgets:
            raise ValidationError("preference vector must not be empty")
        if any(int(n) != n for n in self.budgets):
            raise ValidationError("budgets must be integers")
        if any(n < 0 for n in self.budgets):
            raise ValidationError("negative budget")
        object.__setattr__(self, "budgets", tuple(int(n) for n in self.budgets))

    @property
    def num_tasks(self) -> int:
        return len(self.budgets)

    @property
    def total(self) -> int:
        return sum(self.budgets)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.budgets, dtype=np.int64)


@dataclass
class Assignment:
    """Which task supplied each merged element, and in which phase.

    ``owner[p]`` is a task id in 1..T. ``provenance[p]`` is 1 where the
    owner claimed the element by magnitude, or :data:`RESIDUAL_RANDOM`
    where the final random fill placed it.
    """

    owner: np.ndarray
    provenance: np.ndarray
    num_tasks: int

    def __post_init__(self) -> None:
        self.owner = np.asarray(self.owner, dtype=np.int32)
        self.provenance = np.asarray(self.provenance, dtype=np.int32)
        if self.owner.shape != self.provenance.shape or self.owner.ndim != 1:
            raise ValidationError("owner and provenance must be equal-length vectors")

    @property
    def num_elements(self) -> int:
        return self.owner.size


def provenance_label(code: int) -> str:
    return "residual-random" if code == RESIDUAL_RANDOM else f"round-{code}"


def selection_stream(seed: int, round_index: int, task: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, round, task)."""
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(((round_index & 0xFFFFFFFF) << 32) | (task & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=key))


def merge(
    method: str, taus: TaskVectors, pref: Budgets | None = None, config: MergeConfig | None = None
) -> tuple[np.ndarray, Assignment | None]:
    """Run the strategy ``method``, one of :data:`MERGE_METHODS`; ``average`` has no assignment."""
    config = config or MergeConfig()
    if method == "magmax":
        return magmax_merge(taus)
    if method == "tunable":
        if pref is None:
            raise ValidationError("tunable merging needs a preference vector")
        return tunable_merge(taus, pref, config)
    if method == "average":
        return average_merge(taus), None
    if method == "randmix":
        return random_mix_merge(taus, config.seed)
    raise ValidationError(f"unknown merge method {method!r}")


def magmax_merge(taus: TaskVectors) -> tuple[np.ndarray, Assignment]:
    """Keep, per element, the value of largest absolute magnitude.

    Ties go to the later task: the owner is the element's last record-setter.
    """
    tau = _as_matrix(taus)
    num_tasks, _ = tau.shape
    # argmax picks the first True; scanning reversed rows finds the last one.
    owner = (num_tasks - _record_setters(tau)[::-1].argmax(axis=0)).astype(np.int32)
    assignment = Assignment(owner, np.ones_like(owner), num_tasks)
    return _gather(tau, owner), assignment


def tunable_merge(
    taus: TaskVectors, pref: Budgets, config: MergeConfig | None = None
) -> tuple[np.ndarray, Assignment]:
    """Budgeted magnitude merge: task t contributes exactly ``pref[t]`` elements.

    One sweep scans tasks from last to first. A task claims the
    still-unassigned elements where it is a record-setter, i.e. its
    magnitude is the largest among tasks 1..t (later task wins ties); when
    the claim overshoots its budget, the kept subset is chosen by shuffling
    the candidates (sorted by flat index) with the stream keyed (seed, 1,
    task) and taking the prefix. Claimed elements have provenance 1. The
    leftover elements are then shuffled once with key (seed, rounds+1, 0)
    and dealt to tasks with unmet budgets in ascending task order, with
    provenance :data:`RESIDUAL_RANDOM`.
    """
    config = config or MergeConfig()
    tau = _as_matrix(taus)
    num_tasks, dim = tau.shape
    budgets = pref.as_array() if isinstance(pref, PreferenceVector) else np.asarray(pref)
    if budgets.ndim != 1 or budgets.size != num_tasks:
        raise ValidationError(
            f"preference vector has {budgets.size} budgets for {num_tasks} tasks"
        )
    if np.any(budgets < 0):
        raise ValidationError("negative budget")
    total = int(budgets.sum())
    if total != dim:
        raise ValidationError(f"budget sum {total} != element count {dim}")

    setters = _record_setters(tau)
    owner = np.zeros(dim, dtype=np.int32)
    unassigned = np.ones(dim, dtype=bool)
    deficits = budgets.astype(np.int64)
    for task in range(num_tasks, 0, -1):
        need = int(deficits[task - 1])
        if need == 0:
            continue
        claim = np.flatnonzero(unassigned & setters[task - 1])
        if claim.size > need:
            claim = selection_stream(config.seed, 1, task).permutation(claim)[:need]
        owner[claim] = task
        unassigned[claim] = False
        deficits[task - 1] -= claim.size

    provenance = (~unassigned).astype(np.int32)
    leftovers = selection_stream(config.seed, config.rounds + 1, 0).permutation(
        np.flatnonzero(unassigned)
    )
    owner[leftovers] = np.repeat(np.arange(1, num_tasks + 1, dtype=np.int32), deficits)
    assignment = Assignment(owner, provenance, num_tasks)
    return _gather(tau, owner), assignment


def average_merge(taus: TaskVectors) -> np.ndarray:
    """Element-wise arithmetic mean of the task vectors."""
    return _as_matrix(taus).mean(axis=0)


def random_mix_merge(taus: TaskVectors, seed: int) -> tuple[np.ndarray, Assignment]:
    """Assign each element to a task drawn uniformly from the seeded stream."""
    tau = _as_matrix(taus)
    num_tasks, dim = tau.shape
    stream = selection_stream(seed, 0, 0)
    owner = stream.integers(1, num_tasks + 1, size=dim, dtype=np.int32)
    assignment = Assignment(owner, np.zeros(dim, dtype=np.int32), num_tasks)
    return _gather(tau, owner), assignment


def assignment_census(assignment: Assignment) -> np.ndarray:
    """Count how many elements each task owns; entry t-1 belongs to task t."""
    num_tasks = assignment.num_tasks
    owner = assignment.owner
    if owner.size and (owner.min() < 1 or owner.max() > num_tasks):
        raise ValidationError("owner out of range")
    return np.bincount(owner, minlength=num_tasks + 1)[1:].astype(np.int64)


def write_assignment(destination, assignment: Assignment) -> None:
    """Persist owner and provenance maps as u16 records in a TVC1 side-file."""
    if assignment.num_tasks > 0xFFFF:
        raise ValidationError("owner map limited to 65535 tasks")
    if assignment.provenance.size and assignment.provenance.max() > 0xFFFF:
        raise ValidationError("provenance codes exceed u16")
    _write_records(
        [
            ("owner", DTYPE_U16, assignment.owner.astype(np.uint16)),
            ("provenance", DTYPE_U16, assignment.provenance.astype(np.uint16)),
            ("num_tasks", DTYPE_U16, np.asarray([assignment.num_tasks], dtype=np.uint16)),
        ],
        destination,
    )


def read_assignment(source) -> Assignment:
    records = dict(_read_records(source, DTYPE_U16))
    try:
        owner = records["owner"]
        provenance = records["provenance"]
        num_tasks = int(records["num_tasks"][0])
    except KeyError as missing:
        raise ValidationError(f"assignment file lacks record {missing}") from None
    return Assignment(owner, provenance, num_tasks)


def _as_matrix(taus: TaskVectors) -> np.ndarray:
    """Stack 1-D task vectors into a (T, d) matrix; a (T, d) array is used as is."""
    if isinstance(taus, np.ndarray):
        if taus.ndim != 2:
            raise ValidationError("expected a (tasks, elements) matrix")
        if taus.shape[0] == 0:
            raise ValidationError("empty task list")
        mat = taus
    else:
        arrays = [np.asarray(t) for t in taus]
        if not arrays:
            raise ValidationError("empty task list")
        if any(a.ndim != 1 for a in arrays):
            raise ValidationError("task vectors must be 1-D arrays")
        if len({a.size for a in arrays}) > 1:
            raise ShapeMismatchError("shape mismatch: task vector lengths differ")
        mat = np.stack(arrays)
    if mat.shape[1] == 0:
        raise ValidationError("task vectors have no elements")
    if np.isnan(mat).any():
        raise ValidationError("task vectors must not contain NaN")
    return mat


def _record_setters(tau: np.ndarray) -> np.ndarray:
    """(T, d) bool matrix, True where ``|tau[t]| >= |tau[s]|`` for every s < t.

    One forward pass keeps a running max of ``|tau|`` a row at a time, so
    no (T, d) float temporary is built. Row 0 is all True.
    """
    setters = np.empty(tau.shape, dtype=bool)
    setters[0] = True
    running = np.abs(tau[0])
    row = np.empty_like(running)
    for task in range(1, tau.shape[0]):
        np.abs(tau[task], out=row)
        np.greater_equal(row, running, out=setters[task])
        np.maximum(running, row, out=running)
    return setters


def _gather(tau: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Copy element p from row ``owner[p] - 1``, bitwise."""
    return np.take_along_axis(tau, (owner - 1)[None, :], axis=0)[0]

