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

:func:`decode_container` parses any stream. A :class:`LayoutReader` reads
streams that must hold one known layout, such as merge inputs after the
first: it compares each record's header bytes with the bytes that layout
encodes to and reads each payload straight into its slice of a caller's
float32 vector.
"""

from __future__ import annotations

import math
import struct
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
    """Read a TVC1 stream of float32 tensors, copying each payload once."""
    pset = ParameterSet(_read_records(source, DTYPE_F32))
    _reject_nan(pset.specs, pset.flat())
    return pset


class LayoutReader:
    """Reads TVC1 streams that hold exactly one known float32 layout into a vector.

    The header bytes of the layout are built once, so each stream costs one
    header comparison and one ``readinto`` per record.
    """

    def __init__(self, specs: Sequence[TensorSpec]):
        f32 = _NUMPY_DTYPES[DTYPE_F32]
        self._specs = tuple(specs)
        self._prefix = _container_header(len(self._specs))
        self._records = [
            (_record_header(spec.name, DTYPE_F32, spec.dims), spec.num_elements * f32.itemsize)
            for spec in self._specs
        ]
        self._nbytes = sum(nbytes for _, nbytes in self._records)

    def read_into(self, source: Source, dest: np.ndarray) -> bool:
        """Fill ``dest`` from ``source``; False if the stream is not exactly this layout.

        ``dest`` must be a contiguous little-endian float32 vector of the
        layout's size. On False it is partly overwritten, and
        :func:`decode_container` of the same bytes tells what is wrong with
        them: it raises, or returns a set with another layout. A NaN payload
        raises the :class:`CodecError` that :func:`decode_container` raises.
        """
        f32 = _NUMPY_DTYPES[DTYPE_F32]
        if dest.dtype != f32 or not dest.flags.c_contiguous or dest.nbytes != self._nbytes:
            raise ShapeMismatchError(
                f"destination must be a contiguous float32 vector of {self._nbytes} bytes"
            )
        payload = memoryview(dest).cast("B")
        stream, close = _open(source, "rb")
        try:
            if stream.read(len(self._prefix)) != self._prefix:
                return False
            offset = 0
            for header, nbytes in self._records:
                if stream.read(len(header)) != header:
                    return False
                if stream.readinto(payload[offset : offset + nbytes]) != nbytes:
                    return False
                offset += nbytes
            if stream.read(1):
                return False
        finally:
            if close:
                stream.close()
        _reject_nan(self._specs, dest)
        return True


def _reject_nan(
    specs: Sequence[TensorSpec], flat: np.ndarray, problem: str = "NaN payload rejected"
) -> None:
    """Raise ``tensor '<name>': <problem>`` for the first tensor of ``flat`` holding NaN."""
    nan = np.isnan(flat)
    if nan.any():
        first = int(nan.argmax())
        for spec in specs:
            if first < spec.num_elements:
                raise CodecError(f"tensor {spec.name!r}: {problem}")
            first -= spec.num_elements


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
    stream, close = _open(destination, "wb")
    try:
        stream.write(_container_header(len(records)))
        for name, code, arr in records:
            data = np.ascontiguousarray(arr, dtype=_NUMPY_DTYPES[code])
            stream.write(_record_header(name, code, data.shape))
            stream.write(data)
    finally:
        if close:
            stream.close()


def _read_records(source: Source, dtype_code: int) -> list[tuple[str, np.ndarray]]:
    """Parse a whole TVC1 stream of ``dtype_code`` records into read-only payload views.

    Each declared length is checked against the bytes present before
    anything is allocated for it.
    """
    stream, close = _open(source, "rb")
    try:
        view = memoryview(stream.read())
    finally:
        if close:
            stream.close()
    pos = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal pos
        if size > len(view) - pos:
            raise CodecError(f"unexpected end of stream while reading {what}")
        pos += size
        return view[pos - size : pos]

    magic = bytes(take(4, "magic"))
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    version = take(1, "version")[0]
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    if count == 0:
        raise CodecError("empty container")
    records: list[tuple[str, np.ndarray]] = []
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
        if any(d == 0 for d in dims):
            raise CodecError(f"tensor {name!r}: zero-sized dimension")
        dtype = _NUMPY_DTYPES[code]
        payload = take(math.prod(dims) * dtype.itemsize, f"payload of {name!r}")
        records.append((name, np.frombuffer(payload, dtype=dtype).reshape(dims)))
    if pos != len(view):
        raise CodecError("trailing data after last record")
    return records


def _open(target: Source, mode: str) -> tuple[BinaryIO, bool]:
    if isinstance(target, (str, Path)):
        return open(target, mode), True
    return target, False


def _require_same_layout(a: ParameterSet, b: ParameterSet) -> None:
    if not a.same_layout(b):
        raise ShapeMismatchError(
            f"shape mismatch: layouts differ ({a!r} vs {b!r})"
        )
