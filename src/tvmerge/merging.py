"""Task-vector merging strategies and element-ownership bookkeeping.

All strategies operate on the global flat index: each output element is
copied bitwise from exactly one task vector (``average`` excepted). Task
vectors are read from a :class:`Rows` source, each row as a stream of
blocks of ``container._BLOCK`` elements, so neither a (T, d) matrix nor a
d-sized row buffer is built. Every strategy reads the rows in lockstep, block 0
of every row, then block 1, and so on (``tunable`` twice), so that its
running state is one block long. Each strategy finishes the merged vector
and its owner map a block at a time, in buffers that its caller gives for
the block, and hands them back once the block is done: :func:`merge` gives
each block's slice of one vector and of one owner map, and the command
line one block-sized buffer of each, which it writes to the output file
and the side-file after each block. ``magmax`` and ``tunable`` pick by one
record-setter rule: a row sets a record where its magnitude is at least
that of every earlier row. ``magmax`` and ``randmix`` keep no d-sized state
(but the merged vector and the owner map, when they are returned): a
``magmax`` block's owner is built in its block, a ``randmix`` block's owner
is drawn for its block, and their provenance, one code for every element,
is a read-only broadcast of it. ``tunable`` asks once for an owner buffer
of the whole range, as its claim sweep needs the global map, and keeps a
provenance map, and in the sweep T*d/8 bytes of packed record-setter bits,
d/8 bytes of packed unassigned elements and one task's unpacked
candidates. Every other temporary holds at most one block, besides, in
``tunable``, one bool per candidate of a claim that is cut (and up to one
int64 per candidate while numpy draws the subset it keeps) and one task id
per element left to the residual fill. ``magmax`` and ``tunable`` keep
their owner map in the narrowest unsigned dtype that holds T (uint8 up to
255 tasks); ``randmix`` keeps int32, the dtype its draw is defined in.
Rows are selected with arithmetic on their bit patterns, not with masked
copies. Task ids are 1-based throughout; flat indices are 0-based numpy
indices.

Budgets follow the rule of :mod:`tvmerge.preference`; :func:`merge`
checks only that they fit: one per task, summing to the element count.

Randomized selection is driven by counter-based keyed streams: a Philox
generator keyed by (seed, purpose, task), so results are reproducible and
independent of scheduling or invocation order. The seed is the only input
to those streams.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from . import container
from .container import DTYPE_U16, _layout, _opened, _read_whole, _writer
from .errors import ShapeMismatchError, ValidationError
from .preference import PreferenceVector

MERGE_METHODS = ("magmax", "tunable", "average", "randmix")

#: Provenance code for elements assigned by the final random fill.
RESIDUAL_RANDOM = 0

#: Selection-stream purposes: randmix owners, claim thinning, residual fill.
RANDMIX_KEY, CLAIM_KEY, FILL_KEY = 0, 1, 3

#: Standard deviations (and elements) of slack below each deficit in the
#: residual fill's slot table, so that a redraw has odds of about 1e-9.
_FILL_SLACK = 6

log = logging.getLogger(__name__)

#: Owner ids that one bincount is given: their intp copy is 64 KiB, an
#: eighth of what a block's would be.
_COUNT_SLICE = 2**13

#: The dtypes a row may have; every row of a merge has the same one.
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))

Taus = Union["Rows", np.ndarray, Sequence[np.ndarray]]
Budgets = Union["PreferenceVector", Sequence[int], np.ndarray]


@dataclass(frozen=True)
class Rows:
    """``count`` task vectors of ``dim`` elements each, read as streams of blocks.

    ``blocks(t)`` yields task vector t (0-based) as consecutive 1-D pieces
    of ``container._BLOCK`` elements (the last shorter), float32 or float64,
    with the same dtype for every t. Every piece, of any row, may be one
    reused buffer, refilled, so a strategy is done with a piece before it
    asks any stream for the next. Every strategy holds every row's stream
    open at once and asks them in turn for each block; it may stream a row
    more than once. A stream with the wrong number of pieces, or a piece of
    the wrong length, raises ValueError, and a piece of another dtype
    ValidationError. Every strategy accepts a source like this in place of
    a (T, d) matrix; the source checks its own rows for NaN.
    """

    count: int
    dim: int
    blocks: Callable[[int], Iterable[np.ndarray]]


@dataclass
class Assignment:
    """Which task supplied each merged element, and in which phase.

    ``owner[p]`` is a task id in 1..T. ``provenance[p]`` is 1 where the
    owner claimed the element by magnitude, or :data:`RESIDUAL_RANDOM` where
    the final random fill placed it. Maps that cast safely to intp keep
    their dtype, so the u16 maps of a side-file are not copied; other maps
    become int32 and uint8. ``magmax`` and ``tunable`` build ``owner`` in
    the narrowest unsigned dtype that holds T (uint8 up to 255 tasks, else
    uint16 up to 65535); ``randmix`` builds it as int32. The ``provenance``
    of ``magmax`` (every element 1) and ``randmix`` (every element
    :data:`RESIDUAL_RANDOM`) is a read-only broadcast of its one code.
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


def selection_stream(seed: int, purpose: int, task: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, purpose, task)."""
    check_seed(seed)
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(((purpose & 0xFFFFFFFF) << 32) | (task & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=key))


def merge(method: str, taus: Taus, pref: Budgets | None = None, seed: int = 0) -> tuple[np.ndarray, Assignment | None]:
    """Merge ``taus`` by ``method``, one of :data:`MERGE_METHODS`: the merged vector and its assignment.

    Every method checks ``seed``; only ``tunable`` and ``randmix`` draw
    from it, and only ``tunable`` reads ``pref``. The rows must be float32
    or float64, one dtype for every row, and the merged vector has their
    dtype.

    - ``magmax`` keeps, per element, the value of largest absolute
      magnitude. Ties go to the later task: the owner is the element's
      last record-setter.
    - ``tunable`` is the budgeted magnitude merge: task t contributes
      exactly ``pref[t]`` elements. One sweep scans tasks from last to
      first. A task claims the still-unassigned elements where it is a
      record-setter, i.e. its magnitude is the largest among tasks 1..t
      (later task wins ties); when the claim overshoots its budget, it
      keeps the candidates (sorted by flat index) at the positions
      ``choice(size, budget, replace=False, shuffle=False)`` draws from the
      stream keyed (seed, 1, task): a uniform subset of exactly the budget.
      Claimed elements have provenance 1. Then the residual fill gives task
      t one leftover element per element it still lacks, with provenance
      :data:`RESIDUAL_RANDOM`, in a uniformly random arrangement drawn from
      the stream keyed (seed, 3, 0), as :func:`_residual_labels` tells.
    - ``average`` is the element-wise arithmetic mean, with no assignment.
      The rows are summed in task order starting from 0, in their dtype,
      as ``mean(axis=0)`` of the stacked matrix sums them, so the result is
      the same to the bit. The mean of +inf and -inf is NaN.
    - ``randmix`` assigns each element to a task drawn uniformly from the
      stream keyed (seed, 0, 0).
    """
    rows = _as_rows(taus)
    out = _Collector(rows.dim)
    provenance = _merge_blocks(rows, method, pref, seed, out)
    if provenance is None:
        return out.vector, None
    return out.vector, Assignment(out.owner, provenance, rows.count)


def assignment_census(assignment: Assignment) -> np.ndarray:
    """Count how many elements each task owns; entry t-1 belongs to task t."""
    num_tasks = assignment.num_tasks
    owner = assignment.owner
    if owner.size and (owner.min() < 1 or owner.max() > num_tasks):
        raise ValidationError("owner out of range")
    counts = np.zeros(num_tasks + 1, dtype=np.int64)
    _count_owners(counts, owner)
    return counts[1:]


def _count_owners(counts: np.ndarray, owner: np.ndarray) -> None:
    """Add to ``counts[t]`` the elements of ``owner`` that hold t, for every t below ``counts.size``.

    bincount copies its input to intp, so it is given :data:`_COUNT_SLICE`
    elements at a time.
    """
    for start in range(0, owner.size, _COUNT_SLICE):
        counts += np.bincount(owner[start : start + _COUNT_SLICE], minlength=counts.size)


def write_assignment(destination, assignment: Assignment) -> None:
    """Persist owner and provenance maps as u16 records in a TVC1 side-file.

    Each map is converted to u16 one block at a time. An assignment of no
    elements raises before anything is written, as it cannot be read back.
    """
    layout = _assignment_layout(assignment.num_elements, assignment.num_tasks)
    if assignment.num_elements == 0:
        raise ValidationError("an assignment of no elements cannot be written")
    with _opened(destination, "wb") as stream:
        write = _writer(stream, *layout, DTYPE_U16)
        for block in _blocks(assignment.num_elements):
            write(assignment.owner[block])
        _write_assignment_tail(write, assignment.provenance, assignment.num_tasks)


def _assignment_layout(dim: int, num_tasks: int) -> tuple[bytes, list[int], list[int]]:
    """The layout of a side-file: the owner and provenance maps of ``dim`` elements, then ``num_tasks``."""
    if num_tasks > 0xFFFF:
        raise ValidationError("owner map limited to 65535 tasks")
    return _layout([("owner", (dim,)), ("provenance", (dim,)), ("num_tasks", (1,))], DTYPE_U16)


def _write_assignment_tail(write: Callable[[np.ndarray], None], provenance: np.ndarray, num_tasks: int) -> None:
    """Write, with a side-file's ``write``, the records after the owner map: the provenance map, one
    block at a time, and ``num_tasks``."""
    for block in _blocks(provenance.size):
        write(provenance[block])
    write(np.array([num_tasks]))


def read_assignment(source) -> Assignment:
    """Read a side-file written by :func:`write_assignment` (a path or a seekable stream)."""
    specs, flat = _read_whole(source, DTYPE_U16)
    records, start = {}, 0
    for spec in specs:
        records[spec.name] = flat[start : start + spec.num_elements].reshape(spec.dims)
        start += spec.num_elements
    try:
        owner = records["owner"]
        provenance = records["provenance"]
        num_tasks = records["num_tasks"]
    except KeyError as missing:
        raise ValidationError(f"assignment file lacks record {missing}") from None
    if num_tasks.size != 1:
        raise ValidationError(f"assignment file record 'num_tasks' holds {num_tasks.size} values, not 1")
    return Assignment(owner, provenance, num_tasks.item())


class _Collector:
    """Where a strategy finishes the merged vector and its owner map: here, in place in one
    vector and one map.

    A strategy finishes block 0 of the merged vector, then block 1, and so
    on. For each, it asks ``block(block, dtype)`` for the buffer to finish
    it in (``block`` is its slice of the flat index) and, unless it is
    ``average``, ``owners(block, dtype)`` for the buffer of its owners;
    ``tunable`` instead asks once, before its first block, for the owners
    of the whole range, and hands out slices of that buffer. Once the
    block's last row is in, the strategy hands the buffers to
    ``emit(block, values, owner)`` (``owner`` None for ``average``). This
    collector hands out each block's slice of one vector and of one owner
    map, each allocated when it is first asked for, so ``tunable``'s map is
    the one returned; the command line's writer hands out one block buffer
    of each, and writes each block as it is emitted.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.vector: np.ndarray | None = None
        self.owner: np.ndarray | None = None

    def block(self, block: slice, dtype: np.dtype) -> np.ndarray:
        if self.vector is None:  # the first block sets the dtype
            self.vector = np.empty(self.dim, dtype)
        return self.vector[block]

    def owners(self, block: slice, dtype: np.dtype) -> np.ndarray:
        if self.owner is None:
            self.owner = np.empty(self.dim, dtype)
        return self.owner[block]

    def emit(self, block: slice, values: np.ndarray, owner: np.ndarray | None = None) -> None:
        pass


def _merge_blocks(rows: Rows, method: str, pref: Budgets | None, seed: int, out) -> np.ndarray | None:
    """Run the strategy ``method`` on ``rows``, finishing the merged vector's and the owner
    map's blocks in ``out``.

    ``out`` answers the calls of :class:`_Collector`. Returns the
    provenance map, None for ``average``. Nothing is emitted before
    ``seed`` and, for ``tunable``, the budgets are checked.
    """
    check_seed(seed)
    if method == "magmax":
        return _magmax(rows, out)
    if method == "tunable":
        if pref is None:
            raise ValidationError("tunable merging needs a preference vector")
        return _tunable(rows, pref, seed, out)
    if method == "average":
        return _average(rows, out)
    if method == "randmix":
        return _randmix(rows, seed, out)
    raise ValidationError(f"unknown merge method {method!r}")


def _magmax(rows: Rows, out) -> np.ndarray:
    """``magmax`` on ``rows``, finishing each merged block and its owners in ``out``."""
    dtype = _owner_dtype(rows.count)
    ids = np.empty(min(container._BLOCK, rows.dim), dtype=dtype)
    for block, task, piece, flags, scratch in _record_setters(rows):
        if flags is None:
            merged = out.block(block, piece.dtype)
            merged[...] = piece
            owner = out.owners(block, dtype)
            owner.fill(1)
        else:
            _select(merged, piece, flags, scratch)
            # Later tasks have larger ids, so the last record-setter wins.
            np.multiply(flags, dtype.type(task + 1), out=ids[: flags.size])
            np.maximum(owner, ids[: flags.size], out=owner)
        if task == rows.count - 1:
            out.emit(block, merged, owner)
    return np.broadcast_to(np.uint8(1), (rows.dim,))


def _tunable(rows: Rows, pref: Budgets, seed: int, out) -> np.ndarray:
    """``tunable`` on ``rows``, finishing each merged block and its owners in ``out``."""
    budgets = pref.budgets if isinstance(pref, PreferenceVector) else pref
    if np.ndim(budgets) != 1 or len(budgets) != rows.count:
        raise ValidationError(f"preference vector has {np.size(budgets)} budgets for {rows.count} tasks")
    pref = PreferenceVector(tuple(budgets))
    if pref.total != rows.dim:
        raise ValidationError(f"budget sum {pref.total} != element count {rows.dim}")

    owner, claimed = _budgeted_owners(rows, pref.as_array(), seed, out)
    _gather(rows, lambda block: owner[block], out)
    return claimed.view(np.uint8)


def _average(rows: Rows, out) -> None:
    """``average`` on ``rows``, finishing each block of the mean in ``out``."""
    with np.errstate(invalid="ignore"):
        for block, task, piece in _lockstep(rows):
            if task == 0:
                merged = out.block(block, piece.dtype)
                # A sum that starts from 0: row 0 is added to 0, so -0.0 becomes +0.0.
                np.add(piece, 0.0, out=merged)
            else:
                np.add(merged, piece, out=merged)
            if task == rows.count - 1:
                merged /= rows.count
                out.emit(block, merged)


def _randmix(rows: Rows, seed: int, out) -> np.ndarray:
    """``randmix`` on ``rows``, finishing each merged block and its owners in ``out``."""
    stream = selection_stream(seed, RANDMIX_KEY, 0)
    dtype = np.dtype(np.int32)

    def draw(block: slice) -> np.ndarray:
        # Philox hands out 32-bit words in order, keeping the spare half of a
        # 64-bit output, so the draws of consecutive blocks are one whole draw.
        owner = out.owners(block, dtype)
        owner[...] = stream.integers(1, rows.count + 1, size=owner.size, dtype=dtype)
        return owner

    _gather(rows, draw, out)
    return np.broadcast_to(np.uint8(RESIDUAL_RANDOM), (rows.dim,))


def _owner_dtype(num_tasks: int) -> np.dtype:
    """The narrowest unsigned dtype that holds task ids 1..``num_tasks``: uint8 up to 255 tasks."""
    return np.min_scalar_type(num_tasks)


def _integers(values, dtype: type) -> np.ndarray:
    """``values`` as an array, as is if it casts safely to intp (as bincount needs), else as ``dtype``."""
    array = np.asarray(values)
    return array if np.can_cast(array.dtype, np.intp) else array.astype(dtype)


def _as_rows(taus: Taus) -> Rows:
    """Check ``taus`` and present it as a row source.

    A (T, d) matrix or a sequence of equal-length 1-D vectors is checked for
    NaN up front and its rows are streamed as views; a :class:`Rows` is used
    as is. :func:`_lockstep` checks their dtypes.
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
        if any(a.dtype.kind == "f" and np.isnan(a).any() for a in arrays):
            raise ValidationError("task vectors must not contain NaN")
        dim = arrays[0].size if arrays else 0
        rows = Rows(len(arrays), dim, lambda task: (arrays[task][block] for block in _blocks(dim)))
    if rows.count == 0:
        raise ValidationError("empty task list")
    if rows.dim == 0:
        raise ValidationError("task vectors have no elements")
    return rows


def _blocks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most ``container._BLOCK`` elements that cover ``range(size)``."""
    for start in range(0, size, container._BLOCK):
        yield slice(start, min(start + container._BLOCK, size))


def _budgeted_owners(rows: Rows, deficits: np.ndarray, seed: int, out) -> tuple[np.ndarray, np.ndarray]:
    """Owner of every element under ``deficits`` (the budgets), and where it was claimed.

    Reads the rows once for their record-setter bits, then runs the claim
    sweep and the residual fill of ``tunable`` on those bits, in the owner
    buffer of the whole range that ``out.owners`` gives. The sweep keeps
    the unassigned elements as packed bits ``free`` (the padding bits of
    its last byte clear). A task's candidates are its record-setter
    bits and ``free``, unpacked once; a cut claim writes the candidates it
    keeps into them through one bool per candidate, so that every claim is
    written through its mask. ``free`` is unpacked once more, for the fill
    and the provenance map.
    """
    packed = _record_setter_bits(rows)
    dim = rows.dim
    owner = out.owners(slice(0, dim), _owner_dtype(rows.count))
    owner.fill(0)
    free = np.full(packed.shape[1], 0xFF, dtype=np.uint8)
    free[-1] <<= -dim % 8  # the padding bits of the last byte are clear
    claimed = np.empty_like(free)
    ids = np.empty(min(container._BLOCK, dim), dtype=owner.dtype)
    for task in range(rows.count, 0, -1):
        need = int(deficits[task - 1])
        if need == 0:
            continue
        np.bitwise_and(packed[task - 1], free, out=claimed)
        candidates = np.unpackbits(claimed, count=dim).view(bool)
        size = int(np.count_nonzero(candidates))
        if size > need:
            # A uniform subset of `need` candidates, by their ordinals: one
            # draw per kept candidate, not a shuffle of every candidate.
            stream = selection_stream(seed, CLAIM_KEY, task)
            keep = np.zeros(size, dtype=bool)
            keep[stream.choice(size, need, replace=False, shuffle=False)] = True
            _write_where(candidates, candidates, keep)
            del keep  # freed before the owner write
            claimed = np.packbits(candidates)
        # The claim lies inside `free`, where `owner` is still 0.
        np.bitwise_xor(free, claimed, out=free)
        bits, task_id = candidates.view(np.uint8), owner.dtype.type(task)
        for block in _blocks(dim):
            part = ids[: block.stop - block.start]
            np.multiply(bits[block], task_id, out=part)
            np.bitwise_or(owner[block], part, out=owner[block])
        del candidates, bits  # freed before the next task's bits are unpacked
        kept = min(size, need)
        deficits[task - 1] -= kept
        log.debug("claim: task %d, %d candidates, need %d, kept %d", task, size, need, kept)
    del packed

    unassigned = np.unpackbits(free, count=dim).view(bool)
    _write_where(owner, unassigned, _residual_labels(deficits, owner.dtype, seed))
    return owner, np.logical_not(unassigned, out=unassigned)


def _residual_labels(deficits: np.ndarray, dtype: np.dtype, seed: int) -> np.ndarray:
    """One task id per leftover element, in a uniformly random arrangement.

    Task t appears ``deficits[t - 1]`` times. Of a table of 2**16 slots,
    task t gets ``(max(c - 6*isqrt(c) - 6, 0) << 16) // total`` (c its
    deficit, total the leftover count, 6 the slack :data:`_FILL_SLACK`)
    and the other slots are blank. Each leftover draws a slot with a
    uint16 from the stream keyed (seed, 3, 0); if any task's count
    overshoots its deficit, every label is drawn again. Then the blanks,
    in flat order, take the rest of each deficit as one list of task ids
    in ascending order, shuffled by the same stream. The draws are i.i.d.
    and the blanks' list is shuffled uniformly, so every arrangement with
    these counts is equally likely. When no task earns a slot, nothing is
    drawn and the labels are that shuffled list alone. When at most one
    task is short, its arrangement is the only one, and the stream is not
    drawn from at all.
    """
    total = int(deficits.sum())
    ids = np.arange(1, deficits.size + 1, dtype=dtype)
    if np.count_nonzero(deficits) <= 1:
        log.debug("fill: %d leftovers, 0 tasks slotted, %d blanks, 0 redraws", total, total)
        return np.repeat(ids, deficits)
    # Python integers, which do not overflow. With nothing left every
    # numerator is 0, and 1 stands in for the total.
    slots = [
        (max(c - _FILL_SLACK * math.isqrt(c) - _FILL_SLACK, 0) << 16) // max(total, 1)
        for c in deficits.tolist()
    ]
    stream = selection_stream(seed, FILL_KEY, 0)
    labels = np.zeros(total, dtype)
    redraws = 0
    if any(slots):
        table = np.zeros(1 << 16, dtype)
        table[: sum(slots)] = np.repeat(ids, slots)
        # A uint16 draw of an even size uses whole 32-bit words, so a draw per
        # block (a multiple of 8 elements) gives the labels of one whole draw.
        while True:
            drawn = np.zeros(deficits.size + 1, dtype=np.int64)
            for block in _blocks(total):
                part = labels[block]
                np.take(table, stream.integers(0, 1 << 16, size=part.size, dtype=np.uint16), out=part, mode="clip")
                drawn += np.bincount(part, minlength=deficits.size + 1)
            if np.all(drawn[1:] <= deficits):
                break
            redraws += 1
        deficits = deficits - drawn[1:]
    blanks = np.repeat(ids, deficits)
    stream.shuffle(blanks)
    log.debug(
        "fill: %d leftovers, %d tasks slotted, %d blanks, %d redraws",
        total, sum(s > 0 for s in slots), blanks.size, redraws,
    )
    _write_where(labels, labels == 0, blanks)
    return labels


def _record_setter_bits(rows: Rows) -> np.ndarray:
    """Packed (T, ceil(d/8)) bits: bit p of row t is set where row t is a record-setter.

    Every element of row 0 is one. Each row's flags from
    :func:`_record_setters` are packed into their block's bytes as soon as
    the block is read: a block is a whole number of bytes of flags, and the
    last block packs its tail into a part-filled last byte.
    """
    packed = np.empty((rows.count, (rows.dim + 7) // 8), dtype=np.uint8)
    packed[0] = 0xFF
    for block, task, _, flags, _ in _record_setters(rows):
        if flags is not None:
            packed[task, block.start // 8 : (block.stop + 7) // 8] = np.packbits(flags)
    return packed


def _record_setters(rows: Rows) -> Iterator[tuple[slice, int, np.ndarray, np.ndarray | None, np.ndarray]]:
    """:func:`_lockstep`'s (slice, task, piece), each with the piece's record-setter flags
    and a spare buffer.

    The flags are None for row 0; for a later row they are where
    ``|rows[t][p]| >= |rows[s][p]|`` for every s < t, so the later task
    wins ties. They are one reused block-sized buffer, as is the running
    maximum of the magnitudes they are compared with. The spare, of the
    piece's length and dtype, is the buffer the piece's magnitudes were
    compared in; the caller may overwrite it until it asks for the next
    piece.
    """
    size = min(container._BLOCK, rows.dim)
    flags = np.empty(size, dtype=bool)
    for block, task, piece in _lockstep(rows):
        n = block.stop - block.start
        if task == 0:
            if block.start == 0:  # the first piece sets the dtype
                running, magnitude = np.empty(size, piece.dtype), np.empty(size, piece.dtype)
            np.abs(piece, out=running[:n])
            yield block, task, piece, None, magnitude[:n]
            continue
        np.abs(piece, out=magnitude[:n])
        np.greater_equal(magnitude[:n], running[:n], out=flags[:n])
        np.maximum(running[:n], magnitude[:n], out=running[:n])
        yield block, task, piece, flags[:n], magnitude[:n]


def _write_where(target: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
    """``target[mask] = values``, with the positions found one block of ``mask`` at a time."""
    filled = 0
    for block in _blocks(mask.size):
        where = np.flatnonzero(mask[block])
        target[block][where] = values[filled : filled + where.size]
        filled += where.size


def _gather(rows: Rows, owners: Callable[[slice], np.ndarray], out) -> None:
    """Copy element p from row ``owner[p] - 1``, bitwise, reading the rows in lockstep.

    Each block of the merged vector is finished in the buffer ``out`` gives
    for it, from the pieces of rows 0..T-1 in turn: row 0's piece is
    copied, and ``owners(block)`` gives the block's owners, and each later
    row's piece is selected where that row owns the element. Then the
    block and its owners are handed to ``out.emit``.
    """
    size = min(container._BLOCK, rows.dim)
    mask = np.empty(size, dtype=bool)
    for block, task, piece in _lockstep(rows):
        n = block.stop - block.start
        if task == 0:
            if block.start == 0:  # the first piece sets the dtype
                scratch = np.empty(size, piece.dtype)
            merged = out.block(block, piece.dtype)
            merged[...] = piece
            owner = owners(block)
        else:
            np.equal(owner, task + 1, out=mask[:n])
            _select(merged, piece, mask[:n], scratch[:n])
        if task == rows.count - 1:
            out.emit(block, merged, owner)


def _lockstep(rows: Rows) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Every row's stream, open at once and asked in turn: (slice, task, piece) for
    block 0 of rows 0..T-1, then for block 1, and so on.

    A stream with fewer or more pieces than the row has blocks, or a piece
    that is not a 1-D array the length of its block, raises ValueError. A
    piece that is not float32 or float64, or not of the first piece's dtype,
    raises ValidationError before it is yielded. Every stream is drained at
    the end; if a stream raises, or this generator is closed first, every
    stream that has a ``close`` is closed.
    """
    streams = [iter(rows.blocks(task)) for task in range(rows.count)]
    dtype = None
    try:
        for block in _blocks(rows.dim):
            for task, stream in enumerate(streams):
                piece = next(stream, None)
                if piece is None:
                    raise ValueError(f"row {task} ended before element {block.start}")
                if piece.shape != (block.stop - block.start,):
                    raise ValueError(f"row {task} has a piece of shape {piece.shape} at element {block.start}")
                if dtype is None:
                    dtype = piece.dtype  # the first piece sets the dtype
                if piece.dtype != dtype or dtype not in _FLOATS:
                    raise ValidationError(f"row {task} is {piece.dtype}: rows are float32 or float64, all of one dtype")
                yield block, task, piece
        for task, stream in enumerate(streams):
            if next(stream, None) is not None:
                raise ValueError(f"row {task} runs past {rows.dim} elements")
    finally:
        for stream in streams:
            if hasattr(stream, "close"):
                stream.close()


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
