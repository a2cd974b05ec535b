"""Named float32 tensor containers and the TVC1 wire format.

A :class:`ParameterSet` is an ordered collection of named float32 tensors.
Element ``p`` of the global flat index enumerates tensors in declaration
order, row-major within each tensor, so every downstream result is
reproducible from the container alone.

Wire format (TVC1, little-endian throughout, no padding):

====================  =======================================
bytes 0-3             magic ``b"TVC1"``
byte 4                version, currently 1
bytes 5-8             tensor count (u32)
per tensor            name length (u16), UTF-8 name,
                      dtype code (u8), ndim (u8),
                      dims (ndim x u64), raw payload
====================  =======================================

Dtype code 0 is float32 and is the only code a :class:`ParameterSet` may
carry. Code 1 (u16) exists solely for assignment side-files written by
:mod:`tvmerge.merging`. NaN payloads are rejected on both encode and
decode; selection by absolute magnitude is undefined with NaN present.

Every TVC1 file, whether a container, a merge input or an assignment
side-file, is read by one :class:`LayoutReader`. It takes a path or a
seekable binary stream and parses the headers first, through a buffered
reader that seeks over the payloads, so every declared length is checked
against the stream's size before anything is allocated for it. It then
streams files that must hold that layout: each file is read in steps of
at most ``_IOV_MAX`` buffers (its header bytes into a staging copy, its
payloads straight into a block buffer), worked out a block at a time and
shared by every file streamed in lockstep, one ``os.readv`` per step for a
path, and each step's header bytes are compared with the first file's in
one comparison. A file that does not match is explained from its headers
alone. :func:`decode_container` and :func:`tvmerge.merging.read_assignment`
read the first file itself as one block, so each payload goes straight
into its slice of one vector. Writers take each record's header bytes
with its payload: :meth:`LayoutReader.writer` puts the first file's header
bytes back at each record boundary of a vector given a block at a time, so
a merge writes the header bytes it read rather than encoding them again.
"""

from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import CodecError, ShapeMismatchError, ValidationError

MAGIC = b"TVC1"
VERSION = 1

DTYPE_F32 = 0
DTYPE_U16 = 1

_NUMPY_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_U16: np.dtype("<u2")}

#: Elements per block of the temporaries made on the encode and merge paths,
#: so that none of them grows with the size of a vector. A multiple of 8, so
#: each merge block's record-setter flags fill whole bytes.
_BLOCK = 2**16

#: Buffers per ``os.readv`` call: Linux's ``IOV_MAX``.
_IOV_MAX = 1024

#: Bytes a writer gathers before it writes, so that many small records make few
#: writes; a block of payload is larger, and goes out without a copy.
_WRITE_BUFFER = 2**16

_PREFIX_SIZE = len(MAGIC) + 1 + 4
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: The dims of a record header, by ndim.
_DIMS = tuple(struct.Struct(f"<{ndim}Q") for ndim in range(0x100))

Source = Union[str, Path, BinaryIO]
TensorInput = Union[Mapping[str, np.ndarray], Iterable[tuple[str, np.ndarray]]]


@dataclass(frozen=True)
class TensorSpec:
    """Name and shape of one tensor inside a container."""

    name: str
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        name, dims = self.name, self.dims
        if not name:
            raise ValidationError("tensor name must be non-empty")
        # An ASCII name is as long in UTF-8, so only other names are encoded.
        if (len(name) if name.isascii() else len(name.encode("utf-8"))) > 0xFFFF:
            raise ValidationError("tensor name longer than 65535 bytes")
        if not dims:
            raise ValidationError(f"tensor {name!r}: dims must be non-empty")
        if len(dims) > 0xFF:
            raise ValidationError(f"tensor {name!r}: too many dimensions")
        if min(dims) < 1:
            raise ValidationError(f"tensor {name!r}: dims must be positive")

    @property
    def num_elements(self) -> int:
        return math.prod(self.dims)


class ParameterSet:
    """Ordered, named float32 tensors: a layout plus one flat vector they are views of."""

    __slots__ = ("_specs", "_flat")

    def __init__(self, tensors: TensorInput):
        items = list(tensors.items()) if isinstance(tensors, Mapping) else list(tensors)
        if not items:
            raise ValidationError("empty container")
        specs: list[TensorSpec] = []
        arrays: list[np.ndarray] = []
        seen: set[str] = set()
        for name, values in items:
            if name in seen:
                raise ValidationError(f"duplicate tensor name {name!r}")
            seen.add(name)
            arr = np.asarray(values, dtype=np.float32)
            specs.append(TensorSpec(name, arr.shape))
            arrays.append(arr.ravel())
        self._specs = tuple(specs)
        self._flat = np.concatenate(arrays)

    @classmethod
    def _of(cls, specs: tuple[TensorSpec, ...], flat: np.ndarray) -> "ParameterSet":
        """Wrap an already validated layout and a matching float32 vector."""
        pset = cls.__new__(cls)
        pset._specs = specs
        pset._flat = flat
        return pset

    @property
    def specs(self) -> tuple[TensorSpec, ...]:
        return self._specs

    @property
    def num_elements(self) -> int:
        return self._flat.size

    def tensor(self, name: str) -> np.ndarray:
        return dict(self.items())[name]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        offset = 0
        for spec in self._specs:
            size = spec.num_elements
            yield spec.name, self._flat[offset : offset + size].reshape(spec.dims)
            offset += size

    def flat(self) -> np.ndarray:
        """All values as one float32 vector in flat-index order (a view, not a copy)."""
        return self._flat

    def same_layout(self, other: "ParameterSet") -> bool:
        return self._specs == other._specs

    def bitwise_equal(self, other: "ParameterSet") -> bool:
        return self.same_layout(other) and np.array_equal(
            self._flat.view(np.uint32), other._flat.view(np.uint32)
        )

    def with_flat(self, flat: np.ndarray) -> "ParameterSet":
        """New set with this layout whose vector is ``flat`` (not copied if float32)."""
        flat = np.asarray(flat, dtype=np.float32)
        if flat.ndim != 1 or flat.size != self.num_elements:
            raise ShapeMismatchError(
                f"flat vector has {flat.size} elements, layout needs {self.num_elements}"
            )
        return type(self)._of(self._specs, flat)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{spec.name}{spec.dims}" for spec in self._specs)
        return f"{type(self).__name__}({inner})"


def encode_container(pset: ParameterSet, destination: Source) -> None:
    """Write ``pset`` as a TVC1 stream; decode gives back identical bits."""
    _reject_nan(pset, pset.flat())
    records = ((_record_header(name, DTYPE_F32, arr.shape), arr) for name, arr in pset.items())
    _write_records(records, len(pset), DTYPE_F32, destination)


def decode_container(source: Source) -> ParameterSet:
    """Read a TVC1 stream of float32 tensors, reading each payload once into one vector.

    ``source`` is a path or a seekable binary stream, read from its current
    position to its end.
    """
    return ParameterSet._of(*_read_whole(source, DTYPE_F32))


class LayoutReader:
    """Streams TVC1 files that hold the layout of a first file, a block at a time.

    This is the one reader of TVC1 payloads. The first file's headers are
    parsed once, and are checked as :func:`decode_container` checks them,
    with the same errors; its payloads are not read. Its records must carry
    ``dtype_code`` (float32 unless given). Per record, the reader keeps the
    first file's header bytes end to end, each header's size and each
    record's element count; :attr:`specs` is parsed from the header bytes
    only when asked for, as a merge asks only to name a tensor that holds
    a NaN. A file of the layout is read in steps. A step is at most
    ``_IOV_MAX`` buffers in file order, slices of a header stage (room for
    one copy of the header bytes) and of a block of ``_BLOCK`` elements
    (the whole vector for a ``whole`` reader), with their byte count. Each step is one
    ``os.readv`` for a path or another unbuffered file, or ``readinto``
    calls that fill the same buffers for any other stream, and then one
    comparison of the header bytes it read with the first file's; a
    block's records fit in one step unless they need more than
    ``_IOV_MAX`` buffers. The reader keeps the steps of one block: the
    first stream to ask for a block works them out, every other stream
    reads that block with them, and they are dropped when the next block
    is asked for. A ``whole`` reader, as a whole-vector read makes to
    stream its file once, works out its steps as it reads, so it holds the
    buffers of one step at a time.
    Blocks are read into one buffer that the reader owns, shared by every
    stream of the reader: several sources may be streamed at once (a merge
    streams all its inputs in lockstep), but a caller is done with a block
    before it asks any of them for the next.
    """

    def __init__(self, source: Source, *, dtype_code: int = DTYPE_F32, whole: bool = False):
        with _opened(source, "rb") as stream:
            self._headers, self._header_sizes, self._counts = _read_headers(stream, dtype_code)
        self._dtype_code = dtype_code
        self._stage = bytearray(len(self._headers))
        self.num_elements = sum(self._counts)
        size = self.num_elements if whole else min(_BLOCK, self.num_elements)
        self._buffer = np.empty(size, dtype=_NUMPY_DTYPES[dtype_code])
        self._whole = whole
        # The steps of block ``_index``, worked out by ``_planner``.
        self._planner, self._index, self._steps = None, -1, []

    @cached_property
    def specs(self) -> tuple[TensorSpec, ...]:
        """The first file's tensors, parsed again from the header bytes kept."""
        headers, specs, head = self._headers, [], _PREFIX_SIZE
        for size in self._header_sizes:
            (name_size,) = _U16.unpack_from(headers, head)
            name = str(headers[head + 2 : head + 2 + name_size], "utf-8")
            ndim = headers[head + 3 + name_size]
            specs.append(TensorSpec(name, _DIMS[ndim].unpack_from(headers, head + 4 + name_size)))
            head += size
        return tuple(specs)

    def _plan(self) -> Iterator[tuple[list[memoryview], int, slice, np.ndarray | None]]:
        """Steps that read a file of this layout: the buffers a step fills in file order,
        their byte count, the slice of the stage they fill, and the block the step
        completes or None."""
        buffer, size = self._buffer, self._buffer.size
        raw, itemsize = memoryview(buffer).cast("B"), buffer.itemsize
        stage = memoryview(self._stage)
        buffers: list[memoryview] = []
        nbytes = checked = head = pos = 0
        staged = _PREFIX_SIZE  # the first record's header slice starts with the prefix
        for header, count in zip(self._header_sizes, self._counts):
            staged += header
            buffers.append(stage[head:staged])
            nbytes += staged - head
            head = staged
            if len(buffers) == _IOV_MAX:
                yield buffers, nbytes, slice(checked, staged), None
                buffers, nbytes, checked = [], 0, staged
            stop = pos + count
            while pos < stop:
                offset = pos % size
                end = offset + min(stop - pos, size - offset)
                pos += end - offset
                buffers.append(raw[offset * itemsize : end * itemsize])
                nbytes += (end - offset) * itemsize
                done = end == size or pos == self.num_elements
                if done or len(buffers) == _IOV_MAX:
                    yield buffers, nbytes, slice(checked, staged), buffer[:end] if done else None
                    buffers, nbytes, checked = [], 0, staged

    def blocks(self, source: Source) -> Iterator[np.ndarray]:
        """Yield the vector in ``source`` as consecutive blocks of the reader's block length.

        Every block is the reader's one buffer, refilled, so a caller is done
        with a block before it asks this or another stream of the reader for
        the next. A stream that is not
        exactly this layout raises at the latest before the last block, with
        no payload read to explain it: its headers are parsed again, which
        raises what :func:`decode_container` raises for them, and if they
        are well formed, ``ShapeMismatchError("shape mismatch: <source> has
        a different layout")`` (``stream`` for a source that is not a path).
        A NaN raises the :class:`CodecError` that :func:`decode_container`
        raises, naming the first tensor that holds one, when its block is
        read.
        """
        with _opened(source, "rb") as stream:
            origin = stream.tell()

            def mismatch() -> ShapeMismatchError:
                stream.seek(origin)
                _read_headers(stream, self._dtype_code)
                name = source if isinstance(source, (str, Path)) else "stream"
                return ShapeMismatchError(f"shape mismatch: {name} has a different layout")

            readv, start = _vector_reader(stream), 0
            for index in range(-(-self.num_elements // self._buffer.size)):
                block = self._read_block(readv, index)
                # The end is checked before the last block is yielded, since
                # a caller that has every block need not resume the stream.
                if block is None or (start + block.size == self.num_elements and stream.read(1)):
                    raise mismatch()
                _reject_nan(self, block, start=start)
                yield block
                start += block.size

    def _read_block(self, readv: Callable[[list[memoryview]], int], index: int) -> np.ndarray | None:
        """Block ``index`` of a file, read with ``readv``; None if the file does not match.

        A stream paused at a block holds none of its steps, so once every
        stream has moved on, the steps of the block before are gone.
        """
        stage, headers = self._stage, self._headers
        for buffers, nbytes, staged, block in self._block_steps(index):
            if not _fill(readv, buffers, nbytes) or stage[staged] != headers[staged]:
                return None
        return block

    def _block_steps(self, index: int) -> Iterable[tuple[list[memoryview], int, slice, np.ndarray | None]]:
        """The steps that read block ``index`` of a file, the last of them completing the block.

        The steps of one block are kept, so every stream in a lockstep reads
        block ``index`` with the steps the first to ask for it worked out;
        asking for the next block drops them, and asking for an earlier one
        starts the planner again. A ``whole`` reader works out its steps as
        it reads rather than hold them all.
        """
        if self._whole:
            return self._plan()
        if self._planner is None or index < self._index:
            self._planner, self._index = self._plan(), -1
        while self._index < index:
            self._steps = []  # dropped before the next block's are worked out
            for step in self._planner:
                self._steps.append(step)
                if step[3] is not None:
                    break
            self._index += 1
        return self._steps

    def writer(self, stream: BinaryIO) -> Callable[[np.ndarray], None]:
        """A writer of a file of this layout to ``stream``, given its vector as consecutive blocks.

        Each call writes the next block, of any length, and before each
        record that starts within it that record's header bytes as the first
        file holds them (before the first record, also the magic, version
        and tensor count), so no header is encoded again. A block not in the
        layout's dtype is converted; one that is goes out from its own memory.
        """
        headers, dtype = memoryview(self._headers), self._buffer.dtype
        records = zip(self._header_sizes, self._counts)
        head, staged, left = 0, _PREFIX_SIZE, 0  # ``left``: elements of the open record to come

        def write(block: np.ndarray) -> None:
            nonlocal head, staged, left
            block = np.asarray(block, dtype=dtype)
            pieces, pos = [], 0
            while pos < block.size:
                if not left:
                    header, left = next(records)
                    staged += header
                    pieces.append(headers[head:staged])
                    head = staged
                take = min(left, block.size - pos)
                pieces.append(block[pos : pos + take])
                pos += take
                left -= take
            stream.writelines(pieces)

        return write


def _reject_nan(
    layout: ParameterSet | LayoutReader,
    flat: np.ndarray,
    problem: str = "NaN payload rejected",
    start: int = 0,
) -> None:
    """Raise ``tensor '<name>': <problem>`` for the first tensor of ``flat`` holding NaN.

    ``flat`` holds ``layout``'s elements from flat index ``start`` on. The
    layout's specs are asked for only once ``flat`` is found to hold a NaN,
    so a reader builds none for a clean vector.
    """
    # max propagates NaN, so one reduction without temporaries clears a clean vector.
    if not np.isnan(flat.max()):
        return
    offset = -start
    for spec in layout.specs:
        end = offset + spec.num_elements
        if end > 0 and np.isnan(flat[max(offset, 0) : end].max()):
            raise CodecError(f"tensor {spec.name!r}: {problem}")
        offset = end


# Low-level record I/O, shared with the assignment side-file writer.


def _container_header(count: int) -> bytes:
    """Magic, version and tensor count: the bytes before the first record."""
    return MAGIC + bytes([VERSION]) + _U32.pack(count)


def _record_header(name: str, code: int, dims: Sequence[int]) -> bytes:
    """Name length, UTF-8 name, dtype code, ndim and dims: the bytes before a payload."""
    name_bytes = name.encode("utf-8")
    ndim = len(dims)
    return struct.pack(f"<H{len(name_bytes)}sBB{ndim}Q", len(name_bytes), name_bytes, code, ndim, *dims)


def _write_records(
    records: Iterable[tuple[bytes | memoryview, np.ndarray]], count: int, code: int, destination: Source
) -> None:
    """Write a TVC1 stream of ``count`` records of ``code``, each given as its header bytes and its payload.

    Headers and the payloads already in the wire dtype go out from their own
    memory in one ``writelines``; any other payload is converted one block
    at a time, so it is never copied whole.
    """
    if count == 0:
        raise CodecError("empty container")
    wire = _NUMPY_DTYPES[code]

    def chunks() -> Iterator[bytes | memoryview | np.ndarray]:
        yield _container_header(count)
        for header, payload in records:
            yield header
            if payload.dtype == wire and payload.flags.c_contiguous:
                yield payload
                continue
            flat = payload.reshape(-1)
            for start in range(0, flat.size, _BLOCK):
                yield np.ascontiguousarray(flat[start : start + _BLOCK], dtype=wire)

    with _opened(destination, "wb") as stream:
        stream.writelines(chunks())


def _read_headers(stream: BinaryIO, dtype_code: int) -> tuple[bytearray, list[int], list[int]]:
    """Parse the headers of a TVC1 stream of ``dtype_code`` records, from its position on.

    Returns the records' header bytes as read (the prefix of magic, version
    and tensor count, then each record's name length through dims, end to
    end), the size of each record's header and each record's element count;
    no :class:`TensorSpec` is built. The checks are those of a decode, in
    its order: an empty name, the one :class:`TensorSpec` check a parsed
    header can fail, is raised once every record is read. Each record is
    read in three pieces: its name length, its name with its dtype code and
    ndim, and its dims; its payload is sought over, not read. An unbuffered
    stream is read through an ``io.BufferedReader``, so small records cost
    one read of the stream per buffer, and large ones one read per header.
    Each declared length is checked against the bytes left in the stream
    first. The stream must be seekable, and is left at no particular
    position.
    """
    if isinstance(stream, io.RawIOBase):
        buffered = io.BufferedReader(stream)
        try:
            return _read_headers(buffered, dtype_code)
        finally:
            buffered.detach()  # the caller's stream stays open
    pos = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(pos)

    def short(what: str) -> CodecError:
        return CodecError(f"unexpected end of stream while reading {what}")

    prefix = stream.read(_PREFIX_SIZE)
    if len(prefix) < 4:
        raise short("magic")
    if prefix[:4] != MAGIC:
        raise CodecError(f"bad magic {prefix[:4]!r}")
    if len(prefix) < 5:
        raise short("version")
    if prefix[4] != VERSION:
        raise CodecError(f"unsupported version {prefix[4]}")
    if len(prefix) < _PREFIX_SIZE:
        raise short("tensor count")
    (count,) = _U32.unpack_from(prefix, 5)
    if count == 0:
        raise CodecError("empty container")
    itemsize = _NUMPY_DTYPES[dtype_code].itemsize
    headers, sizes, counts = bytearray(prefix), [], []
    seen: set[str] = set()
    pos += _PREFIX_SIZE
    for _ in range(count):
        length = stream.read(2)
        if len(length) < 2:
            raise short("name length")
        (name_size,) = _U16.unpack(length)
        named = stream.read(name_size + 2)
        if len(named) < name_size:
            raise short("name")
        try:
            name = str(named[:name_size], "utf-8")
        except UnicodeDecodeError:
            raise CodecError("tensor name is not valid UTF-8") from None
        if name in seen:
            raise CodecError(f"duplicate tensor name {name!r}")
        seen.add(name)
        if len(named) < name_size + 2:
            raise short("dtype/ndim")
        code, ndim = named[name_size], named[name_size + 1]
        if code != dtype_code:
            raise CodecError(f"tensor {name!r}: unsupported dtype code {code}")
        if ndim == 0:
            raise CodecError(f"tensor {name!r}: zero-dimensional tensor")
        packed = stream.read(8 * ndim)
        if len(packed) < 8 * ndim:
            raise short("dims")
        dims = _DIMS[ndim].unpack(packed)
        if 0 in dims:
            raise CodecError(f"tensor {name!r}: zero-sized dimension")
        size = 4 + name_size + 8 * ndim
        elements = math.prod(dims)
        payload = elements * itemsize
        pos += size
        if payload > end - pos:
            raise short(f"payload of {name!r}")
        headers += length + named + packed
        sizes.append(size)
        counts.append(elements)
        pos = stream.seek(pos + payload)
    if pos != end:
        raise CodecError("trailing data after last record")
    if "" in seen:
        raise ValidationError("tensor name must be non-empty")
    return headers, sizes, counts


def _read_whole(source: Source, dtype_code: int) -> tuple[tuple[TensorSpec, ...], np.ndarray]:
    """The layout of a TVC1 stream of ``dtype_code`` records, and its payloads as one vector.

    A ``whole`` :class:`LayoutReader`, whose one block is the whole vector,
    reads the stream from where its headers start, so each payload is read once
    straight into its slice of the vector.
    """
    with _opened(source, "rb") as stream:
        origin = stream.tell()
        reader = LayoutReader(stream, dtype_code=dtype_code, whole=True)
        stream.seek(origin)
        (flat,) = reader.blocks(stream)
    return reader.specs, flat


def _vector_reader(stream: BinaryIO) -> Callable[[list[memoryview]], int]:
    """A ``readv`` of ``stream``: it fills buffers in order and returns the bytes read, 0 at the end.

    An unbuffered file is read with ``os.readv`` where the platform has it;
    any other stream with ``readinto`` into each buffer in turn, up to the
    first that comes back short.
    """
    if isinstance(stream, io.FileIO) and hasattr(os, "readv"):
        fd = stream.fileno()
        return lambda buffers: os.readv(fd, buffers)

    def readv(buffers: list[memoryview]) -> int:
        total = 0
        for buffer in buffers:
            count = stream.readinto(buffer) or 0
            total += count
            if count < len(buffer):
                break
        return total

    return readv


def _fill(readv: Callable[[list[memoryview]], int], buffers: list[memoryview], nbytes: int) -> bool:
    """Fill ``buffers``, ``nbytes`` in all, with ``readv``; False if the stream ends first.

    A short count is resumed where it stopped: a call may move less than
    asked, as Linux moves at most 0x7ffff000 bytes per call.
    """
    while True:
        count = readv(buffers)
        if count == nbytes:
            return True
        if not count:
            return False
        nbytes -= count
        full = 0
        while count >= len(buffers[full]):
            count -= len(buffers[full])
            full += 1
        buffers = [buffers[full][count:], *buffers[full + 1 :]]


@contextmanager
def _opened(target: Source, mode: str) -> Iterator[BinaryIO]:
    """``target`` as a stream: a path is opened (unbuffered to read) and closed again, a stream is left open."""
    if isinstance(target, (str, Path)):
        with open(target, mode, buffering=0 if "r" in mode else _WRITE_BUFFER) as stream:
            yield stream
    else:
        yield target

