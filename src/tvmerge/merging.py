"""Task-vector merging strategies and element-ownership bookkeeping.

All strategies operate on the global flat index: each output element is
copied bitwise from exactly one task vector (``average`` excepted). Task
vectors are read one row at a time from a :class:`Rows` source, so no
(T, d) matrix is built; a strategy keeps O(d) state, plus T*d/8 bytes of
packed bits for ``tunable``. Rows are selected with arithmetic on their bit
patterns, not with masked copies. Task ids are 1-based throughout; flat
indices are 0-based numpy indices.

Randomized selection is driven by counter-based keyed streams: a Philox
generator keyed by (seed, round, task), so results are reproducible and
independent of scheduling or invocation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .container import DTYPE_U16, _read_records, _write_records
from .errors import ShapeMismatchError, ValidationError

MERGE_METHODS = ("magmax", "tunable", "average", "randmix")

#: Provenance code for elements assigned by the final random fill.
RESIDUAL_RANDOM = 0

TaskVectors = Union["Rows", np.ndarray, Sequence[np.ndarray]]
Budgets = Union["PreferenceVector", Sequence[int], np.ndarray]


@dataclass(frozen=True)
class Rows:
    """``count`` task vectors of ``dim`` elements each, read one at a time.

    ``read(t)`` returns task vector t (0-based) as a 1-D array of ``dim``
    elements, with the same dtype for every t. It may fill and return one
    reused buffer, so a strategy is done with a row before it reads the
    next, and it may read a row more than once. Every strategy accepts a
    source like this in place of a (T, d) matrix; the source checks its own
    rows for NaN.
    """

    count: int
    dim: int
    read: Callable[[int], np.ndarray]


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

    ``owner[p]`` is a task id in 1..T (int32). ``provenance[p]`` (uint8) is
    1 where the owner claimed the element by magnitude, or
    :data:`RESIDUAL_RANDOM` where the final random fill placed it.
    """

    owner: np.ndarray
    provenance: np.ndarray
    num_tasks: int

    def __post_init__(self) -> None:
        self.owner = np.asarray(self.owner, dtype=np.int32)
        provenance = np.asarray(self.provenance)
        if provenance.size and (provenance.min() < 0 or provenance.max() > 0xFF):
            raise ValidationError("provenance codes must lie in 0..255")
        self.provenance = provenance.astype(np.uint8, copy=False)
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
    rows = _as_rows(taus)
    merged = rows.read(0).copy()
    owner = np.ones(rows.dim, dtype=np.int32)
    for task, row, setters, scratch in _record_setters(rows, merged):
        _select(merged, row, setters, scratch)
        # Later tasks have larger ids, so the last record-setter wins.
        np.maximum(owner, setters * np.int32(task + 1), out=owner)
    return merged, Assignment(owner, np.ones(rows.dim, dtype=np.uint8), rows.count)


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

    The rows are read twice: once for the record-setter bits, kept packed
    (T*d/8 bytes), and once, last row first, to copy the elements each task
    owns.
    """
    config = config or MergeConfig()
    rows = _as_rows(taus)
    budgets = pref.as_array() if isinstance(pref, PreferenceVector) else np.asarray(pref)
    if budgets.ndim != 1 or budgets.size != rows.count:
        raise ValidationError(
            f"preference vector has {budgets.size} budgets for {rows.count} tasks"
        )
    if np.any(budgets < 0):
        raise ValidationError("negative budget")
    total = int(budgets.sum())
    if total != rows.dim:
        raise ValidationError(f"budget sum {total} != element count {rows.dim}")

    owner, claimed = _budgeted_owners(rows, budgets.astype(np.int64), config)
    merged = _gather(rows, owner, range(rows.count - 1, -1, -1))
    return merged, Assignment(owner, claimed.view(np.uint8), rows.count)


def average_merge(taus: TaskVectors) -> np.ndarray:
    """Element-wise arithmetic mean of the task vectors.

    The rows are summed in task order starting from 0, in the dtype that
    ``mean(axis=0)`` of the stacked matrix sums in (float32 for float16
    rows, float64 for integer rows), so the result is the same to the bit.
    The mean of +inf and -inf is NaN.
    """
    rows = _as_rows(taus)
    first = rows.read(0)
    half = first.dtype == np.float16
    # A sum that starts from 0: row 0 is copied, and -0.0 becomes +0.0.
    total = np.add(first, 0.0, dtype=np.float32 if half else np.result_type(first.dtype, 0.0))
    with np.errstate(invalid="ignore"):
        for task in range(1, rows.count):
            np.add(total, rows.read(task), out=total)
    total /= rows.count
    return total.astype(np.float16) if half else total


def random_mix_merge(taus: TaskVectors, seed: int) -> tuple[np.ndarray, Assignment]:
    """Assign each element to a task drawn uniformly from the seeded stream."""
    rows = _as_rows(taus)
    stream = selection_stream(seed, 0, 0)
    owner = stream.integers(1, rows.count + 1, size=rows.dim, dtype=np.int32)
    assignment = Assignment(owner, np.zeros(rows.dim, dtype=np.uint8), rows.count)
    return _gather(rows, owner, range(rows.count)), assignment


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


def _as_rows(taus: TaskVectors) -> Rows:
    """Check ``taus`` and present it as a row source.

    A (T, d) matrix or a sequence of equal-length 1-D vectors is checked for
    NaN up front and its rows are read in place (vectors of mixed dtypes are
    converted to the dtype their stack would have); a :class:`Rows` is used
    as is.
    """
    if isinstance(taus, Rows):
        rows = taus
    else:
        if isinstance(taus, np.ndarray) and taus.ndim != 2:
            raise ValidationError("expected a (tasks, elements) matrix")
        arrays = [np.asarray(t) for t in taus]
        if any(a.ndim != 1 for a in arrays):
            raise ValidationError("task vectors must be 1-D arrays")
        if len({a.size for a in arrays}) > 1:
            raise ShapeMismatchError("shape mismatch: task vector lengths differ")
        if any(np.isnan(a).any() for a in arrays):
            raise ValidationError("task vectors must not contain NaN")
        if arrays:
            dtype = np.result_type(*{a.dtype for a in arrays})
            arrays = [a.astype(dtype, copy=False) for a in arrays]
        rows = Rows(len(arrays), arrays[0].size if arrays else 0, arrays.__getitem__)
    if rows.count == 0:
        raise ValidationError("empty task list")
    if rows.dim == 0:
        raise ValidationError("task vectors have no elements")
    return rows


def _record_setters(
    rows: Rows, first: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(t, row, setters, scratch)`` for rows t = 1..T-1 in order.

    ``setters`` is True where ``|row| >= |rows[s]|`` for every s < t, with
    ``first`` as row 0; every row 0 element is a record-setter. A running
    max of the magnitudes is the only state. The yielded buffers are reused
    for the next row, and ``scratch`` is free for the caller to overwrite.
    """
    running = np.abs(first)
    magnitude = np.empty_like(running)
    setters = np.empty(rows.dim, dtype=bool)
    for task in range(1, rows.count):
        row = rows.read(task)
        np.abs(row, out=magnitude)
        np.greater_equal(magnitude, running, out=setters)
        np.maximum(running, magnitude, out=running)
        yield task, row, setters, magnitude


def _budgeted_owners(
    rows: Rows, deficits: np.ndarray, config: MergeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Owner of every element under ``deficits`` (the budgets), and where it was claimed.

    Reads the rows once for their record-setter bits, then runs the claim
    sweep and the residual fill of :func:`tunable_merge` on those bits.
    """
    num_tasks, dim = rows.count, rows.dim
    packed = np.empty((num_tasks, (dim + 7) // 8), dtype=np.uint8)
    packed[0] = 0xFF
    for task, _, setters, _ in _record_setters(rows, rows.read(0)):
        packed[task] = np.packbits(setters)

    # Candidates are shuffled as int32 where they fit; the order is the
    # same as for int64, and the index arrays are half the size.
    index = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    owner = np.zeros(dim, dtype=np.int32)
    unassigned = np.ones(dim, dtype=bool)
    for task in range(num_tasks, 0, -1):
        need = int(deficits[task - 1])
        if need == 0:
            continue
        setters = np.unpackbits(packed[task - 1], count=dim).view(bool)
        claim = np.flatnonzero(unassigned & setters).astype(index)
        if claim.size > need:
            claim = selection_stream(config.seed, 1, task).permutation(claim)[:need]
        owner[claim] = task
        unassigned[claim] = False
        deficits[task - 1] -= claim.size

    leftovers = selection_stream(config.seed, config.rounds + 1, 0).permutation(
        np.flatnonzero(unassigned).astype(index)
    )
    owner[leftovers] = np.repeat(np.arange(1, num_tasks + 1, dtype=np.int32), deficits)
    return owner, ~unassigned


def _gather(rows: Rows, owner: np.ndarray, order: Iterable[int]) -> np.ndarray:
    """Copy element p from row ``owner[p] - 1``, bitwise, reading the rows in ``order``."""
    first, *rest = order
    merged = rows.read(first).copy()
    scratch = np.empty_like(merged)
    for task in rest:
        _select(merged, rows.read(task), owner == task + 1, scratch)
    return merged


def _select(dest: np.ndarray, row: np.ndarray, mask: np.ndarray, scratch: np.ndarray) -> None:
    """Set ``dest[p] = row[p]`` where ``mask[p]``, bitwise; ``scratch`` is overwritten.

    ``dest ^= (dest ^ row) & mask`` on the unsigned views: three arithmetic
    passes with no branch per element, exact for ties, -0.0 and infinities.
    A masked copy (``copyto(where=)``, ``putmask``) branches per element,
    which costs several times as much on a random mask.
    """
    bits = np.dtype(f"u{dest.itemsize}")
    dest_bits, scratch_bits = dest.view(bits), scratch.view(bits)
    np.bitwise_xor(dest_bits, row.view(bits), out=scratch_bits)
    np.multiply(scratch_bits, mask, out=scratch_bits)
    np.bitwise_xor(dest_bits, scratch_bits, out=dest_bits)
