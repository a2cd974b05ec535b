"""Stand-alone reader and writer for the TVC1 container format.

The benchmark generates its inputs and checks the program's outputs with
this module, so neither step depends on tvmerge internals. Layout, all
little-endian: magic ``b"TVC1"``, version byte 1, tensor count (u32), then
per tensor: name length (u16), UTF-8 name, dtype code (u8: 0 float32,
1 uint16), ndim (u8), dims (ndim x u64), raw row-major payload.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"TVC1"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<u2")}


def write(path: Path, tensors: list[tuple[str, np.ndarray]]) -> int:
    """Write float32 tensors; returns the payload bytes written."""
    payload = 0
    with open(path, "wb") as stream:
        stream.write(MAGIC + bytes([1]) + struct.pack("<I", len(tensors)))
        for name, values in tensors:
            arr = np.ascontiguousarray(values, dtype="<f4")
            raw = name.encode("utf-8")
            stream.write(struct.pack("<H", len(raw)) + raw + bytes([0, arr.ndim]))
            stream.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            stream.write(arr.tobytes())
            payload += arr.nbytes
    return payload


def read(path: Path) -> list[tuple[str, np.ndarray]]:
    """All records as (name, array); raises ValueError on a malformed file."""
    data = Path(path).read_bytes()
    if data[:5] != MAGIC + bytes([1]):
        raise ValueError(f"{path}: not a TVC1 version 1 file")
    (count,) = struct.unpack_from("<I", data, 5)
    pos = 9
    records = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        code, ndim = data[pos], data[pos + 1]
        pos += 2
        dims = struct.unpack_from(f"<{ndim}Q", data, pos)
        pos += 8 * ndim
        dtype = _DTYPES[code]
        size = int(np.prod(dims)) * dtype.itemsize
        if pos + size > len(data):
            raise ValueError(f"{path}: truncated payload of {name!r}")
        records.append((name, np.frombuffer(data, dtype, size // dtype.itemsize, pos).reshape(dims)))
        pos += size
    if pos != len(data):
        raise ValueError(f"{path}: trailing bytes")
    return records


def layout(records: list[tuple[str, np.ndarray]]) -> list[tuple[str, tuple[int, ...]]]:
    return [(name, arr.shape) for name, arr in records]


def flat(records: list[tuple[str, np.ndarray]]) -> np.ndarray:
    """Concatenated payloads in record order."""
    return np.concatenate([arr.ravel() for _, arr in records])
