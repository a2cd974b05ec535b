"""Task-vector merging strategies and element-ownership bookkeeping.

All strategies operate on the global flat index: each output element is
copied bitwise from exactly one task vector (``average`` excepted). Task
vectors are read one row at a time from a :class:`Rows` source, each row
as a stream of blocks of ``_BLOCK`` elements, so neither a (T, d) matrix
nor a d-sized row buffer is built. A strategy keeps a few d-sized vectors
of state (plus T*d/8 bytes of packed bits for ``tunable``); every other
temporary holds at most one block. Rows are selected with
arithmetic on their bit patterns, not with masked copies. Task ids are
1-based throughout; flat indices are 0-based numpy indices.

Randomized selection is driven by counter-based keyed streams: a Philox
generator keyed by (seed, round, task), so results are reproducible and
independent of scheduling or invocation order. The seed is the only input
to those streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .container import _BLOCK, DTYPE_U16, _read_flat, _write_records
from .errors import ShapeMismatchError, ValidationError

MERGE_METHODS = ("magmax", "tunable", "average", "randmix")

#: Provenance code for elements assigned by the final random fill.
RESIDUAL_RANDOM = 0

TaskVectors = Union["Rows", np.ndarray, Sequence[np.ndarray]]
Budgets = Union["PreferenceVector", Sequence[int], np.ndarray]


@dataclass(frozen=True)
class Rows:
    """``count`` task vectors of ``dim`` elements each, read as streams of blocks.

    ``blocks(t)`` yields task vector t (0-based) as consecutive 1-D pieces
    of ``_BLOCK`` elements (the last one shorter), with the same dtype for
    every t. Each piece may be one reused buffer, refilled, so a strategy is
    done with a piece before it asks for the next. A strategy streams one
    row at a time to its end, and it may stream a row more than once. Every
    strategy accepts a source like this in place of a (T, d) matrix; the
    source checks its own rows for NaN.
    """

    count: int
    dim: int
    blocks: Callable[[int], Iterable[np.ndarray]]


@dataclass(frozen=True)
class PreferenceVector:
    """Per-task element budgets; must sum to the model's element count."""

    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.budgets:
            raise ValidationError("preference vector must not be empty")
        if not all(_is_integral(n) for n in self.budgets):
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
    owner claimed the element by magnitude, or :data:`RESIDUAL_RANDOM` where
    the final random fill placed it. Maps that cast safely to intp keep
    their dtype, so the u16 maps of a side-file are not copied; other maps
    become int32 and uint8.
    """

    owner: np.ndarray
    provenance: np.ndarray
    num_tasks: int

    def __post_init__(self) -> None:
        provenance = np.asarray(self.provenance)
        if provenance.size and (provenance.min() < 0 or provenance.max() > 0xFF):
            raise ValidationError("provenance codes must lie in 0..255")
        self.owner = _integers(self.owner, np.int32)
        self.provenance = _integers(provenance, np.uint8)
        if self.owner.shape != self.provenance.shape or self.owner.ndim != 1:
            raise ValidationError("owner and provenance must be equal-length vectors")

    @property
    def num_elements(self) -> int:
        return self.owner.size


def check_seed(seed: int) -> None:
    """Raise ValidationError unless ``seed`` can key a selection stream."""
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 unsigned bits")


def selection_stream(seed: int, round_index: int, task: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, round, task)."""
    check_seed(seed)
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(((round_index & 0xFFFFFFFF) << 32) | (task & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=key))


def merge(
    method: str, taus: TaskVectors, pref: Budgets | None = None, seed: int = 0
) -> tuple[np.ndarray, Assignment | None]:
    """Run the strategy ``method``, one of :data:`MERGE_METHODS`; ``average`` has no assignment.

    Every method checks ``seed``; only ``tunable`` and ``randmix`` draw from it.
    """
    check_seed(seed)
    if method == "magmax":
        return magmax_merge(taus)
    if method == "tunable":
        if pref is None:
            raise ValidationError("tunable merging needs a preference vector")
        return tunable_merge(taus, pref, seed)
    if method == "average":
        return average_merge(taus), None
    if method == "randmix":
        return random_mix_merge(taus, seed)
    raise ValidationError(f"unknown merge method {method!r}")


def magmax_merge(taus: TaskVectors) -> tuple[np.ndarray, Assignment]:
    """Keep, per element, the value of largest absolute magnitude.

    Ties go to the later task: the owner is the element's last record-setter.
    The merged vector is its own running maximum: ``|merged|`` is the largest
    magnitude read so far.
    """
    rows = _as_rows(taus)
    merged = _copy_row(rows, 0)
    owner = np.ones(rows.dim, dtype=np.int32)
    size = min(_BLOCK, rows.dim)
    record, magnitude = np.empty(size, merged.dtype), np.empty(size, merged.dtype)
    setters, ids = np.empty(size, dtype=bool), np.empty(size, dtype=np.int32)
    for task in range(1, rows.count):
        for block, row in _pieces(rows, task):
            n = block.stop - block.start
            np.abs(merged[block], out=record[:n])
            np.abs(row, out=magnitude[:n])
            np.greater_equal(magnitude[:n], record[:n], out=setters[:n])
            _select(merged[block], row, setters[:n], record[:n])
            # Later tasks have larger ids, so the last record-setter wins.
            np.multiply(setters[:n], np.int32(task + 1), out=ids[:n])
            np.maximum(owner[block], ids[:n], out=owner[block])
    return merged, Assignment(owner, np.ones(rows.dim, dtype=np.uint8), rows.count)


def tunable_merge(taus: TaskVectors, pref: Budgets, seed: int = 0) -> tuple[np.ndarray, Assignment]:
    """Budgeted magnitude merge: task t contributes exactly ``pref[t]`` elements.

    One sweep scans tasks from last to first. A task claims the
    still-unassigned elements where it is a record-setter, i.e. its
    magnitude is the largest among tasks 1..t (later task wins ties); when
    the claim overshoots its budget, the kept subset is chosen by shuffling
    the candidates (sorted by flat index) with the stream keyed (seed, 1,
    task) and taking the prefix. Claimed elements have provenance 1. The
    leftover elements are then shuffled once with key (seed, 3, 0) and
    dealt to tasks with unmet budgets in ascending task order, with
    provenance :data:`RESIDUAL_RANDOM`.

    The rows are read twice: once for the record-setter bits, kept packed
    (T*d/8 bytes), and once, last row first, to copy the elements each task
    owns.
    """
    check_seed(seed)
    rows = _as_rows(taus)
    budgets = pref.budgets if isinstance(pref, PreferenceVector) else np.asarray(pref)
    if np.ndim(budgets) != 1 or len(budgets) != rows.count:
        raise ValidationError(
            f"preference vector has {np.size(budgets)} budgets for {rows.count} tasks"
        )
    pref = PreferenceVector(tuple(budgets))
    if pref.total != rows.dim:
        raise ValidationError(f"budget sum {pref.total} != element count {rows.dim}")

    owner, claimed = _budgeted_owners(rows, pref.as_array(), seed)
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
    dtype, pieces = _peek(rows, 0)
    half = dtype == np.float16
    total = np.empty(rows.dim, np.float32 if half else np.result_type(dtype, 0.0))
    # A sum that starts from 0: row 0 is added to 0, so -0.0 becomes +0.0.
    for block, part in pieces:
        np.add(part, 0.0, dtype=total.dtype, out=total[block])
    with np.errstate(invalid="ignore"):
        for task in range(1, rows.count):
            for block, part in _pieces(rows, task):
                np.add(total[block], part, out=total[block])
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
    counts = np.zeros(num_tasks + 1, dtype=np.int64)
    # bincount copies its input to intp, so it is given one block at a time.
    for block in _blocks(owner.size):
        counts += np.bincount(owner[block], minlength=num_tasks + 1)
    return counts[1:]


def write_assignment(destination, assignment: Assignment) -> None:
    """Persist owner and provenance maps as u16 records in a TVC1 side-file."""
    if assignment.num_tasks > 0xFFFF:
        raise ValidationError("owner map limited to 65535 tasks")
    _write_records(
        [
            ("owner", DTYPE_U16, assignment.owner),
            ("provenance", DTYPE_U16, assignment.provenance),
            ("num_tasks", DTYPE_U16, np.asarray([assignment.num_tasks], dtype=np.uint16)),
        ],
        destination,
    )


def read_assignment(source) -> Assignment:
    """Read a side-file written by :func:`write_assignment` (a path or a seekable stream)."""
    headers, flat = _read_flat(source, DTYPE_U16)
    records, start = {}, 0
    for name, dims in headers:
        size = math.prod(dims)
        records[name] = flat[start : start + size].reshape(dims)
        start += size
    try:
        owner = records["owner"]
        provenance = records["provenance"]
        num_tasks = int(records["num_tasks"][0])
    except KeyError as missing:
        raise ValidationError(f"assignment file lacks record {missing}") from None
    return Assignment(owner, provenance, num_tasks)


def _is_integral(value) -> bool:
    """Whether ``value`` is an integer: an integral number, not a boolean."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _integers(values, dtype: type) -> np.ndarray:
    """``values`` as an array, as is if it casts safely to intp (as bincount needs), else as ``dtype``."""
    array = np.asarray(values)
    return array if np.can_cast(array.dtype, np.intp) else array.astype(dtype)


def _as_rows(taus: TaskVectors) -> Rows:
    """Check ``taus`` and present it as a row source.

    A (T, d) matrix or a sequence of equal-length 1-D vectors is checked for
    NaN up front and its rows are streamed as views (vectors of mixed dtypes
    are converted to the dtype their stack would have); a :class:`Rows` is
    used as is.
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
        dim = arrays[0].size if arrays else 0
        rows = Rows(len(arrays), dim, lambda task: (arrays[task][block] for block in _blocks(dim)))
    if rows.count == 0:
        raise ValidationError("empty task list")
    if rows.dim == 0:
        raise ValidationError("task vectors have no elements")
    return rows


def _blocks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most :data:`_BLOCK` elements that cover ``range(size)``."""
    for start in range(0, size, _BLOCK):
        yield slice(start, min(start + _BLOCK, size))


def _pieces(rows: Rows, task: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Row ``task`` as (slice of the row, piece) pairs; a stream of another length raises."""
    return zip(_blocks(rows.dim), rows.blocks(task), strict=True)


def _peek(rows: Rows, task: int) -> tuple[np.dtype, Iterator[tuple[slice, np.ndarray]]]:
    """The dtype of row ``task``, and its :func:`_pieces` from the first on."""
    pieces = _pieces(rows, task)
    first = next(pieces)
    return first[1].dtype, itertools.chain([first], pieces)


def _copy_row(rows: Rows, task: int) -> np.ndarray:
    """A new array holding row ``task``, filled one block at a time."""
    dtype, pieces = _peek(rows, task)
    row = np.empty(rows.dim, dtype)
    for block, part in pieces:
        row[block] = part
    return row


def _budgeted_owners(rows: Rows, deficits: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Owner of every element under ``deficits`` (the budgets), and where it was claimed.

    Reads the rows once for their record-setter bits, then runs the claim
    sweep and the residual fill of :func:`tunable_merge` on those bits.
    """
    packed = _record_setter_bits(rows)
    dim = rows.dim
    # Candidates are shuffled as int32 where they fit; the order is the
    # same as for int64, and the index arrays are half the size.
    index = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    owner = np.zeros(dim, dtype=np.int32)
    unassigned = np.ones(dim, dtype=bool)
    for task in range(rows.count, 0, -1):
        need = int(deficits[task - 1])
        if need == 0:
            continue
        candidates = np.unpackbits(packed[task - 1], count=dim).view(bool)
        np.logical_and(candidates, unassigned, out=candidates)
        claim = _flatnonzero(candidates, index)
        del candidates  # freed before the next task's bits are unpacked
        if claim.size > need:
            selection_stream(seed, 1, task).shuffle(claim)
            claim = claim[:need]
        owner[claim] = task
        unassigned[claim] = False
        deficits[task - 1] -= claim.size
        # A kept prefix is a view that holds every candidate; free it before
        # the next task's candidates are counted.
        del claim
    del packed

    leftovers = _flatnonzero(unassigned, index)
    # Round 3 was the fill's key under the former default of two rounds, so outputs keep their bytes.
    selection_stream(seed, 3, 0).shuffle(leftovers)
    start = 0
    for task, count in enumerate(deficits.tolist(), 1):
        owner[leftovers[start : start + count]] = task
        start += count
    return owner, np.logical_not(unassigned, out=unassigned)


def _record_setter_bits(rows: Rows) -> np.ndarray:
    """Packed (T, ceil(d/8)) bits: bit p of row t is set where row t is a record-setter.

    That is where ``|rows[t][p]| >= |rows[s][p]|`` for every s < t; every
    element of row 0 is one. A running maximum of the magnitudes is the
    only state besides the bits.
    """
    num_tasks, dim = rows.count, rows.dim
    packed = np.empty((num_tasks, (dim + 7) // 8), dtype=np.uint8)
    packed[0] = 0xFF
    running = _copy_row(rows, 0)
    np.abs(running, out=running)
    magnitude = np.empty(min(_BLOCK, dim), dtype=running.dtype)
    setters = np.empty(dim, dtype=bool)
    for task in range(1, num_tasks):
        for block, row in _pieces(rows, task):
            part = magnitude[: block.stop - block.start]
            np.abs(row, out=part)
            np.greater_equal(part, running[block], out=setters[block])
            np.maximum(running[block], part, out=running[block])
        # 8 elements pack into one byte, so 8 blocks of bits make one block of bytes.
        for start in range(0, dim, 8 * _BLOCK):
            packed[task, start // 8 : (start + 8 * _BLOCK) // 8] = np.packbits(
                setters[start : start + 8 * _BLOCK]
            )
    return packed


def _flatnonzero(mask: np.ndarray, dtype: type) -> np.ndarray:
    """``np.flatnonzero(mask)`` as ``dtype``, found one block at a time."""
    found = np.empty(np.count_nonzero(mask), dtype=dtype)
    filled = 0
    for block in _blocks(mask.size):
        part = np.flatnonzero(mask[block])
        np.add(part, block.start, out=found[filled : filled + part.size])
        filled += part.size
    return found


def _gather(rows: Rows, owner: np.ndarray, order: Iterable[int]) -> np.ndarray:
    """Copy element p from row ``owner[p] - 1``, bitwise, reading the rows in ``order``."""
    first, *rest = order
    merged = _copy_row(rows, first)
    scratch = np.empty(min(_BLOCK, merged.size), dtype=merged.dtype)
    mask = np.empty(scratch.size, dtype=bool)
    for task in rest:
        for block, row in _pieces(rows, task):
            n = block.stop - block.start
            np.equal(owner[block], task + 1, out=mask[:n])
            _select(merged[block], row, mask[:n], scratch[:n])
    return merged


def _select(dest: np.ndarray, row: np.ndarray, mask: np.ndarray, scratch: np.ndarray) -> None:
    """Set ``dest[p] = row[p]`` where ``mask[p]``, bitwise; ``scratch`` is overwritten.

    Callers pass one block of each vector, so ``scratch`` stays block-sized.

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
