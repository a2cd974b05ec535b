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

Readers take a path or a seekable binary stream: the headers are parsed
first, seeking over the payloads, so every declared length is checked
against the stream's size before anything is allocated for it.
:func:`decode_container` then reads each payload with ``readinto`` into
its slice of one vector. A :class:`LayoutReader` takes its layout from the
headers of a first file and streams files that must hold that layout, such
as merge inputs: it compares each record's header bytes with the bytes
that layout encodes to and yields the vector one block at a time. A file
that does not match is explained from its headers alone.
"""

from __future__ import annotations

import io
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import CodecError, ShapeMismatchError, ValidationError

MAGIC = b"TVC1"
VERSION = 1

DTYPE_F32 = 0
DTYPE_U16 = 1

_NUMPY_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_U16: np.dtype("<u2")}

#: Elements per block of the temporaries made on the encode and merge paths,
#: so that none of them grows with the size of a vector.
_BLOCK = 2**16

Source = Union[str, Path, BinaryIO]
TensorInput = Union[Mapping[str, np.ndarray], Iterable[tuple[str, np.ndarray]]]


@dataclass(frozen=True)
class TensorSpec:
    """Name and shape of one tensor inside a container."""

    name: str
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tensor name must be non-empty")
        if len(self.name.encode("utf-8")) > 0xFFFF:
            raise ValidationError("tensor name longer than 65535 bytes")
        if not self.dims:
            raise ValidationError(f"tensor {self.name!r}: dims must be non-empty")
        if len(self.dims) > 0xFF:
            raise ValidationError(f"tensor {self.name!r}: too many dimensions")
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"tensor {self.name!r}: dims must be positive")

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
    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self._specs)

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


class TaskVector(ParameterSet):
    """A parameter delta with the same layout as the set it came from."""


def compute_task_vector(theta_t: ParameterSet, theta_0: ParameterSet) -> TaskVector:
    """Element-wise ``theta_t - theta_0`` in float32, exact per IEEE-754."""
    _require_same_layout(theta_t, theta_0)
    return TaskVector._of(theta_t.specs, theta_t.flat() - theta_0.flat())


def apply_task_vector(
    theta_0: ParameterSet, tau: ParameterSet, lambda_merge: float
) -> ParameterSet:
    """Return ``theta_0 + lambda_merge * tau`` in float32.

    ``lambda_merge`` must lie in [0, 1]; 1.0 reproduces a fine-tuned model
    bit-exactly when the subtraction that produced ``tau`` was exact.
    """
    if not (0.0 <= lambda_merge <= 1.0):
        raise ValidationError(f"lambda_merge {lambda_merge} outside [0, 1]")
    _require_same_layout(theta_0, tau)
    lam = np.float32(lambda_merge)
    return ParameterSet._of(theta_0.specs, theta_0.flat() + lam * tau.flat())


def encode_container(pset: ParameterSet, destination: Source) -> None:
    """Write ``pset`` as a TVC1 stream; decode gives back identical bits."""
    _reject_nan(pset.specs, pset.flat())
    _write_records([(name, DTYPE_F32, arr) for name, arr in pset.items()], destination)


def decode_container(source: Source) -> ParameterSet:
    """Read a TVC1 stream of float32 tensors, reading each payload once into one vector.

    ``source`` is a path or a seekable binary stream, read from its current
    position to its end.
    """
    headers, flat = _read_flat(source, DTYPE_F32)
    specs = tuple(TensorSpec(name, dims) for name, dims in headers)
    _reject_nan(specs, flat)
    return ParameterSet._of(specs, flat)


class LayoutReader:
    """Streams TVC1 files that hold the float32 layout of a first file, a block at a time.

    The first file's headers are parsed once, and are checked as
    :func:`decode_container` checks them, with the same errors; its payloads
    are not read. The layout's header bytes and the cut of every payload at
    block boundaries are then worked out once, so each stream costs one
    header comparison and one ``readinto`` per record (one more for each
    block boundary the record crosses). Blocks are read into one buffer that
    the reader owns, so a reader streams one source at a time.
    """

    def __init__(self, source: Source):
        with _opened(source, "rb") as stream:
            self.specs = _read_specs(stream)
        self._prefix = _container_header(len(self.specs))
        sizes = [spec.num_elements for spec in self.specs]
        self.num_elements = sum(sizes)
        buffer = np.empty(min(_BLOCK, self.num_elements), dtype=_NUMPY_DTYPES[DTYPE_F32])
        raw = memoryview(buffer).cast("B")
        # One step per piece of a payload that falls in one block: the
        # record's header bytes (None after its first piece), the slice of
        # the buffer the piece fills, and the block it completes (or None).
        self._steps: list[tuple[bytes | None, memoryview, np.ndarray | None]] = []
        pos = 0
        for spec, size in zip(self.specs, sizes):
            header: bytes | None = _record_header(spec.name, DTYPE_F32, spec.dims)
            stop = pos + size
            while pos < stop:
                start = pos - pos % buffer.size
                end = min(start + buffer.size, self.num_elements)
                count = min(stop, end) - pos
                piece = raw[(pos - start) * buffer.itemsize : (pos - start + count) * buffer.itemsize]
                pos += count
                self._steps.append((header, piece, buffer[: end - start] if pos == end else None))
                header = None

    def blocks(self, source: Source) -> Iterator[np.ndarray]:
        """Yield the vector in ``source`` as consecutive blocks of at most ``_BLOCK`` elements.

        Every block is the reader's one buffer, refilled, so a caller is done
        with a block before it asks for the next. A stream that is not
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
                _read_specs(stream)
                name = source if isinstance(source, (str, Path)) else "stream"
                return ShapeMismatchError(f"shape mismatch: {name} has a different layout")

            if stream.read(len(self._prefix)) != self._prefix:
                raise mismatch()
            start = 0
            for header, piece, block in self._steps:
                if header is not None and stream.read(len(header)) != header:
                    raise mismatch()
                if stream.readinto(piece) != len(piece):
                    raise mismatch()
                if block is None:
                    continue
                # Checked before the last block is yielded, since a caller
                # that has every block need not resume the stream.
                if start + block.size == self.num_elements and stream.read(1):
                    raise mismatch()
                _reject_nan(self.specs, block, start=start)
                yield block
                start += block.size


def _reject_nan(
    specs: Sequence[TensorSpec],
    flat: np.ndarray,
    problem: str = "NaN payload rejected",
    start: int = 0,
) -> None:
    """Raise ``tensor '<name>': <problem>`` for the first tensor of ``flat`` holding NaN.

    ``flat`` holds the layout's elements from flat index ``start`` on.
    """
    # max propagates NaN, so one reduction without temporaries clears a clean vector.
    if not np.isnan(flat.max()):
        return
    offset = -start
    for spec in specs:
        end = offset + spec.num_elements
        if end > 0 and np.isnan(flat[max(offset, 0) : end].max()):
            raise CodecError(f"tensor {spec.name!r}: {problem}")
        offset = end


# Low-level record I/O, shared with the assignment side-file writer.


def _container_header(count: int) -> bytes:
    """Magic, version and tensor count: the bytes before the first record."""
    return MAGIC + bytes([VERSION]) + struct.pack("<I", count)


def _record_header(name: str, code: int, dims: Sequence[int]) -> bytes:
    """Name length, UTF-8 name, dtype code, ndim and dims: the bytes before a payload."""
    name_bytes = name.encode("utf-8")
    ndim = len(dims)
    return struct.pack(f"<H{len(name_bytes)}sBB{ndim}Q", len(name_bytes), name_bytes, code, ndim, *dims)


def _write_records(
    records: Sequence[tuple[str, int, np.ndarray]], destination: Source
) -> None:
    if not records:
        raise CodecError("empty container")
    with _opened(destination, "wb") as stream:
        stream.write(_container_header(len(records)))
        for name, code, arr in records:
            stream.write(_record_header(name, code, arr.shape))
            # Converted one block at a time, so a payload is never copied whole.
            flat = arr.reshape(-1)
            for start in range(0, flat.size, _BLOCK):
                stream.write(
                    np.ascontiguousarray(flat[start : start + _BLOCK], dtype=_NUMPY_DTYPES[code])
                )


def _read_headers(stream: BinaryIO, dtype_code: int) -> list[tuple[str, tuple[int, ...], int]]:
    """Parse the headers of a TVC1 stream of ``dtype_code`` records, from its position on.

    Returns each record's name, dims and payload offset. Payloads are sought
    over, not read; each declared length is checked against the bytes left
    in the stream first. The stream must be seekable.
    """
    pos = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(pos)

    def advance(size: int, what: str) -> int:
        nonlocal pos
        if size > end - pos:
            raise CodecError(f"unexpected end of stream while reading {what}")
        pos += size
        return pos - size

    def take(size: int, what: str) -> bytes:
        advance(size, what)
        return stream.read(size)

    magic = take(4, "magic")
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    version = take(1, "version")[0]
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    if count == 0:
        raise CodecError("empty container")
    headers: list[tuple[str, tuple[int, ...], int]] = []
    seen: set[str] = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError:
            raise CodecError("tensor name is not valid UTF-8") from None
        if name in seen:
            raise CodecError(f"duplicate tensor name {name!r}")
        seen.add(name)
        code, ndim = take(2, "dtype/ndim")
        if code != dtype_code:
            raise CodecError(f"tensor {name!r}: unsupported dtype code {code}")
        if ndim == 0:
            raise CodecError(f"tensor {name!r}: zero-dimensional tensor")
        dims = struct.unpack(f"<{ndim}Q", take(8 * ndim, "dims"))
        if 0 in dims:
            raise CodecError(f"tensor {name!r}: zero-sized dimension")
        nbytes = math.prod(dims) * _NUMPY_DTYPES[code].itemsize
        headers.append((name, dims, advance(nbytes, f"payload of {name!r}")))
        stream.seek(pos)
    if pos != end:
        raise CodecError("trailing data after last record")
    return headers


def _read_flat(
    source: Source, dtype_code: int
) -> tuple[list[tuple[str, tuple[int, ...]]], np.ndarray]:
    """Names and dims of a TVC1 stream's records, and their payloads as one vector.

    The headers are parsed first; then each payload is read with
    ``readinto`` straight into its slice of the vector, so the payload bytes
    are held once.
    """
    with _opened(source, "rb") as stream:
        headers = _read_headers(stream, dtype_code)
        flat = np.empty(sum(math.prod(dims) for _, dims, _ in headers), _NUMPY_DTYPES[dtype_code])
        payload = memoryview(flat).cast("B")
        start = 0
        for name, dims, offset in headers:
            nbytes = math.prod(dims) * flat.itemsize
            stream.seek(offset)
            if stream.readinto(payload[start : start + nbytes]) != nbytes:
                raise CodecError(f"unexpected end of stream while reading payload of {name!r}")
            start += nbytes
    return [(name, dims) for name, dims, _ in headers], flat


def _read_specs(stream: BinaryIO) -> tuple[TensorSpec, ...]:
    """The float32 layout of a TVC1 stream, from its headers alone, checked as a decode checks it."""
    return tuple(TensorSpec(name, dims) for name, dims, _ in _read_headers(stream, DTYPE_F32))


@contextmanager
def _opened(target: Source, mode: str) -> Iterator[BinaryIO]:
    """``target`` as a stream: a path is opened and closed again, a stream is left open."""
    if isinstance(target, (str, Path)):
        with open(target, mode) as stream:
            yield stream
    else:
        yield target


def _require_same_layout(a: ParameterSet, b: ParameterSet) -> None:
    if not a.same_layout(b):
        raise ShapeMismatchError(
            f"shape mismatch: layouts differ ({a!r} vs {b!r})"
        )
