import io
import itertools
import math
import os
import struct
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tvmerge import (
    CodecError,
    ParameterSet,
    ShapeMismatchError,
    TensorSpec,
    ValidationError,
    decode_container,
    encode_container,
)
from tvmerge import container, merging
from tvmerge.cli import main
from tvmerge.container import DTYPE_U16, LayoutReader
from tvmerge.merging import Assignment, merge, read_assignment, write_assignment
from tvmerge.preference import preference_from_alpha


def encoded(pset):
    buffer = io.BytesIO()
    encode_container(pset, buffer)
    return buffer.getvalue()


def roundtrip(pset):
    buffer = io.BytesIO()
    encode_container(pset, buffer)
    buffer.seek(0)
    return decode_container(buffer)


class CountingStream(io.BytesIO):
    """An in-memory stream that counts the bytes read from it."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data

    def readinto(self, buffer):
        count = super().readinto(buffer)
        self.bytes_read += count
        return count


class CountingFile(io.FileIO):
    """An unbuffered file that counts the reads made of it and the bytes they return."""

    reads = bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.reads += 1
        self.bytes_read += len(data)
        return data

    def readinto(self, buffer):
        count = super().readinto(buffer)
        self.reads += 1
        self.bytes_read += count
        return count


# The ways a file reaches the reader: a stream read with readinto, a path
# read with os.readv, and a path whose os.readv moves at most 7 bytes a call.
READ_PATHS = ("stream", "path", "path, 7-byte readv")


@contextmanager
def read_path(kind, directory, monkeypatch):
    """A maker of sources that hold given bytes and are read through ``kind``."""
    names = itertools.count()

    def path(raw):
        file = directory / f"{kind[:4]}{next(names)}.tvc"
        file.write_bytes(raw)
        return str(file)

    with monkeypatch.context() as patch:
        if kind == "path, 7-byte readv":
            readv = os.readv
            patch.setattr(os, "readv", lambda fd, buffers: readv(fd, [buffers[0][:7]]))
        yield io.BytesIO if kind == "stream" else path


def named(source):
    """How a layout mismatch names ``source``."""
    return source if isinstance(source, str) else "stream"


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ParameterSet([("w", np.zeros(2)), ("w", np.ones(2))])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            ParameterSet([])

    def test_zero_sized_dim_rejected(self):
        with pytest.raises(ValidationError):
            ParameterSet({"w": np.zeros((2, 0))})

    def test_scalar_rejected(self):
        with pytest.raises(ValidationError):
            ParameterSet({"w": np.float32(1.0)})

    def test_flat_order_is_spec_order_row_major(self):
        pset = ParameterSet(
            [("a", np.array([[1.0, 2.0], [3.0, 4.0]])), ("b", np.array([5.0, 6.0]))]
        )
        assert pset.flat().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert pset.num_elements == 6

    def test_flat_independent_of_construction_route(self):
        data = np.arange(6, dtype=np.float32)
        via_dict = ParameterSet({"a": data[:4].reshape(2, 2), "b": data[4:]})
        via_pairs = ParameterSet(
            [("a", data[:4].reshape(2, 2).copy()), ("b", data[4:].copy())]
        )
        assert via_dict.same_layout(via_pairs)
        assert np.array_equal(via_dict.flat(), via_pairs.flat())

    def test_with_flat_roundtrip(self):
        pset = ParameterSet({"a": np.ones((2, 3)), "b": np.zeros(4)})
        rebuilt = pset.with_flat(np.arange(10, dtype=np.float32))
        assert rebuilt.tensor("a").shape == (2, 3)
        assert rebuilt.flat().tolist() == list(range(10))

    def test_specs(self):
        pset = ParameterSet({"a": np.zeros((2, 3))})
        assert pset.specs == (TensorSpec("a", (2, 3)),)


class TestCodec:
    def test_roundtrip_identity(self):
        pset = ParameterSet({"w": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)})
        assert roundtrip(pset).bitwise_equal(pset)

    def test_roundtrip_awkward_values(self):
        values = np.array(
            [0.0, -0.0, np.float32(1e-42), np.inf, -np.inf, 3.1415927], dtype=np.float32
        )
        pset = ParameterSet({"w": values})
        out = roundtrip(pset)
        assert out.tensor("w").tobytes() == values.tobytes()

    def test_roundtrip_many_tensors(self):
        rng = np.random.default_rng(11)
        pset = ParameterSet(
            [(f"t{i}", rng.normal(size=(i + 1, 3)).astype(np.float32)) for i in range(7)]
        )
        assert roundtrip(pset).bitwise_equal(pset)

    def test_exact_byte_layout(self):
        pset = ParameterSet({"w": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)})
        buffer = io.BytesIO()
        encode_container(pset, buffer)
        expected = (
            b"TVC1"
            + bytes([1])
            + struct.pack("<I", 1)
            + struct.pack("<H", 1)
            + b"w"
            + bytes([0, 2])
            + struct.pack("<2Q", 2, 2)
            + np.array([1, 2, 3, 4], dtype="<f4").tobytes()
        )
        assert buffer.getvalue() == expected

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="bad magic"):
            decode_container(io.BytesIO(b"XXXX" + bytes(16)))

    def test_bad_version(self):
        with pytest.raises(CodecError, match="version"):
            decode_container(io.BytesIO(b"TVC1" + bytes([9]) + struct.pack("<I", 1)))

    def test_truncated_stream(self):
        pset = ParameterSet({"w": np.ones(8, dtype=np.float32)})
        buffer = io.BytesIO()
        encode_container(pset, buffer)
        clipped = buffer.getvalue()[:-5]
        with pytest.raises(CodecError, match="unexpected end"):
            decode_container(io.BytesIO(clipped))

    def test_trailing_data(self):
        pset = ParameterSet({"w": np.ones(2, dtype=np.float32)})
        buffer = io.BytesIO()
        encode_container(pset, buffer)
        with pytest.raises(CodecError, match="trailing"):
            decode_container(io.BytesIO(buffer.getvalue() + b"\x00"))

    def test_nan_rejected_on_decode(self):
        raw = (
            b"TVC1"
            + bytes([1])
            + struct.pack("<I", 1)
            + struct.pack("<H", 1)
            + b"w"
            + bytes([0, 1])
            + struct.pack("<Q", 1)
            + struct.pack("<f", float("nan"))
        )
        with pytest.raises(CodecError, match="NaN"):
            decode_container(io.BytesIO(raw))

    def test_nan_rejected_on_encode(self):
        pset = ParameterSet({"w": np.array([np.nan], dtype=np.float32)})
        with pytest.raises(CodecError, match="NaN"):
            encode_container(pset, io.BytesIO())

    def test_nan_names_the_first_tensor_holding_it_among_infinities(self):
        pset = ParameterSet({"a": [np.inf, -np.inf], "b": [-np.inf, 1.0, np.nan], "c": [np.nan]})
        with pytest.raises(CodecError, match="tensor 'b': NaN"):
            encode_container(pset, io.BytesIO())

    def test_duplicate_name_in_stream(self):
        record = (
            struct.pack("<H", 1) + b"w" + bytes([0, 1]) + struct.pack("<Q", 1) + struct.pack("<f", 1.0)
        )
        raw = b"TVC1" + bytes([1]) + struct.pack("<I", 2) + record + record
        with pytest.raises(CodecError, match="duplicate"):
            decode_container(io.BytesIO(raw))

    def test_zero_tensor_count(self):
        with pytest.raises(CodecError, match="empty"):
            decode_container(io.BytesIO(b"TVC1" + bytes([1]) + struct.pack("<I", 0)))

    def test_file_path_roundtrip(self, tmp_path):
        pset = ParameterSet({"w": np.arange(12, dtype=np.float32).reshape(3, 4)})
        path = tmp_path / "model.tvc"
        encode_container(pset, path)
        assert decode_container(path).bitwise_equal(pset)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            decode_container(tmp_path / "nope.tvc")


    def test_decode_holds_the_payload_once(self):
        dim = 2**20
        raw = encoded(ParameterSet({"w": np.arange(dim, dtype=np.float32)}))
        tracemalloc.start()
        try:
            decode_container(io.BytesIO(raw))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * dim * 4

    @pytest.mark.parametrize(
        "raw",
        [
            b"TVC",
            b"XXXX" + bytes(16),
            b"TVC1" + bytes([9]) + struct.pack("<I", 1),
            encoded(ParameterSet({"w": np.ones(8)}))[:-5],
            encoded(ParameterSet({"w": np.ones(2)})) + b"\x00",
            b"TVC1" + bytes([1]) + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w" + bytes([0, 1]) + struct.pack("<Q", 2**61),
        ],
        ids=["short magic", "bad magic", "bad version", "truncated", "trailing", "length 2^61"],
    )
    def test_read_layout_raises_what_decode_raises(self, tmp_path, monkeypatch, raw):
        """A layout read from the headers alone (a LayoutReader's first file) fails as a decode does."""
        messages = set()
        for kind in READ_PATHS:
            with read_path(kind, tmp_path, monkeypatch) as source:
                with pytest.raises(CodecError) as decoded:
                    decode_container(source(raw))
                with pytest.raises(CodecError) as headers_only:
                    LayoutReader(source(raw))
            assert str(headers_only.value) == str(decoded.value)
            messages.add(str(decoded.value))
        assert len(messages) == 1

    # Peak traced allocation of decode_container on a container of 20,000
    # one-element tensors (Python 3.11, numpy 2.4.6), measured from a BytesIO
    # when each record was read with its own read and readinto calls. A
    # one-block reader that worked out all its steps up front exceeds the bound.
    MANY_RECORDS_PEAK = 8_576_000

    def test_many_record_decode_peaks_no_higher_than_before(self, tmp_path):
        pset = ParameterSet([(f"t{i}", [float(i)]) for i in range(20_000)])
        raw = encoded(pset)
        path = tmp_path / "many.tvc"
        path.write_bytes(raw)
        for source in (lambda: path, lambda: io.BytesIO(raw)):
            tracemalloc.start()
            try:
                decoded = decode_container(source())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert decoded.bitwise_equal(pset)
            assert peak < 1.1 * self.MANY_RECORDS_PEAK

    def test_headers_across_parse_windows(self):
        # Each of these 60,000-byte names is longer than the header parse's
        # buffer, so it is read across buffer ends; the cut falls 98 bytes
        # into the fifth name.
        pset = ParameterSet([(letter * 60_000, [float(i)]) for i, letter in enumerate("abcde")])
        raw = encoded(pset)
        assert roundtrip(pset).bitwise_equal(pset)
        with pytest.raises(CodecError, match="unexpected end of stream while reading name"):
            decode_container(io.BytesIO(raw[: 4 * 60_016 + 9 + 100]))

    def test_large_records_read_a_few_bytes_per_header(self):
        # Payloads of 160 KiB are sought over, not read: a buffered stream is
        # read as it is, in three small pieces per header.
        pset = ParameterSet([(f"t{i}", np.full(40_960, i, dtype=np.float32)) for i in range(24)])
        stream = CountingStream(encoded(pset))
        assert LayoutReader(stream).specs == pset.specs
        assert stream.bytes_read <= 8 * 1024 * len(pset)

    def test_large_records_of_an_unbuffered_file_read_a_buffer_per_header(self, tmp_path):
        # An unbuffered file is read through a buffered reader, whose buffer
        # is refilled once per header past each 160 KiB payload.
        pset = ParameterSet([(f"t{i}", np.full(40_960, i, dtype=np.float32)) for i in range(24)])
        path = tmp_path / "large.tvc"
        path.write_bytes(encoded(pset))
        with CountingFile(path) as stream:
            assert LayoutReader(stream).specs == pset.specs
        assert stream.bytes_read <= 8 * 1024 * len(pset)

    # Cuts inside the second header, after a 256 KiB payload: its name
    # length, its 2-byte name, its dtype code and ndim, its dims.
    @pytest.mark.parametrize(
        "cut, what", [(1, "name length"), (3, "name"), (5, "dtype/ndim"), (9, "dims")]
    )
    def test_header_cut_after_a_large_payload(self, cut, what):
        raw = encoded(ParameterSet([("t0", np.zeros(2**16)), ("t1", np.zeros(2**16))]))
        second = 9 + 14 + 4 * 2**16  # prefix, first header, first payload
        for read in (decode_container, LayoutReader):
            with pytest.raises(CodecError, match=f"unexpected end of stream while reading {what}$"):
                read(io.BytesIO(raw[: second + cut]))

    def test_read_layout_starts_at_the_stream_position(self):
        stream = io.BytesIO(b"junk" + encoded(ParameterSet({"w": np.zeros((2, 3)), "b": np.zeros(2)})))
        specs = (TensorSpec("w", (2, 3)), TensorSpec("b", (2,)))
        for read in (lambda source: LayoutReader(source).specs, lambda source: decode_container(source).specs):
            stream.seek(4)
            assert read(stream) == specs


LAYOUT = ParameterSet({"w": np.ones(6), "b": np.ones(2)})
OTHER_LAYOUT = "shape mismatch: {name} has a different layout"
# 3,000 records of 1 and 2 elements: 4,500 elements, and more than
# container._IOV_MAX buffers in a block of 4,001 elements or of all of them.
MANY = ParameterSet([(f"t{i}", np.full(1 + i % 2, i, dtype=np.float32)) for i in range(3000)])


class TestLayoutReader:
    @pytest.mark.parametrize("block", [2, 5, 2**16])
    def test_stream_blocks_match_decode(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(container, "_BLOCK", block)
        pset = ParameterSet([("w", np.arange(6.0).reshape(2, 3)), ("b", [-0.0, np.inf])])
        raw = encoded(pset)
        for kind in READ_PATHS:
            with read_path(kind, tmp_path, monkeypatch) as source:
                blocks = [part.copy() for part in LayoutReader(source(raw)).blocks(source(raw))]
                assert decode_container(source(raw)).bitwise_equal(pset)
            assert [part.size for part in blocks] == [block] * (8 // block) + [8 % block] * (8 % block > 0)
            assert np.concatenate(blocks).view(np.uint32).tolist() == pset.flat().view(np.uint32).tolist()

    @pytest.mark.parametrize(
        "raw, error, message",
        [
            (encoded(ParameterSet({"w": np.ones(6), "c": np.ones(2)})), ShapeMismatchError, OTHER_LAYOUT),
            (encoded(ParameterSet({"w": np.ones((2, 3)), "b": np.ones(2)})), ShapeMismatchError, OTHER_LAYOUT),
            (encoded(LAYOUT)[:-1], CodecError, "unexpected end of stream while reading payload of 'b'"),
            (encoded(LAYOUT) + b"\x00", CodecError, "trailing data after last record"),
            (b"", CodecError, "unexpected end of stream while reading magic"),
        ],
        ids=["renamed", "reshaped", "truncated", "trailing", "empty"],
    )
    def test_other_stream_raises_shape_mismatch(self, tmp_path, monkeypatch, raw, error, message):
        """Another layout raises a shape mismatch; malformed headers raise what their decode raises."""
        for kind in READ_PATHS:
            with read_path(kind, tmp_path, monkeypatch) as source:
                reader = LayoutReader(source(encoded(LAYOUT)))
                later = source(raw)
                with pytest.raises(error) as streamed:
                    list(reader.blocks(later))
                assert type(streamed.value) is error and str(streamed.value) == message.format(name=named(later))
                if error is CodecError:
                    with pytest.raises(CodecError) as decoded:
                        decode_container(source(raw))
                    assert str(decoded.value) == message

    @pytest.mark.parametrize(
        "raw, message",
        [
            (encoded(LAYOUT)[:-1], "unexpected end of stream while reading payload of 'b'"),
            (encoded(ParameterSet({"w": np.ones(8)})), OTHER_LAYOUT.format(name="stream")),
        ],
        ids=["truncated", "other layout"],
    )
    def test_mismatch_is_explained_from_the_stream_position(self, tmp_path, raw, message):
        """From a BytesIO, and from an unbuffered file (read with os.readv), that start at byte 4."""
        path = tmp_path / "at4.tvc"
        path.write_bytes(b"junk" + raw)
        for stream in (io.BytesIO(b"junk" + raw), open(path, "rb", buffering=0)):
            with stream:
                stream.seek(4)
                with pytest.raises(ValidationError) as streamed:
                    list(LayoutReader(io.BytesIO(encoded(LAYOUT))).blocks(stream))
            assert str(streamed.value) == message

    def test_reads_use_the_header_bytes_they_read(self, tmp_path, monkeypatch):
        """No read path encodes a header: decode, side-files and streams compare the bytes read,
        and a merge writes its container with the header bytes it read from its first input."""
        first = ParameterSet([("w", np.arange(6.0).reshape(2, 3)), ("b", [-0.0, np.inf]), ("c", [7.0])])
        later = first.with_flat(-first.flat())
        third = first.with_flat(np.linspace(-4, 4, 9))
        assignment = Assignment(np.array([2, 1, 2, 1]), np.array([1, 0, 1, 1]), 2)
        side_file = io.BytesIO()
        write_assignment(side_file, assignment)
        raw_first, raw_later = encoded(first), encoded(later)
        paths = []
        for task, pset in enumerate([first, third, first.with_flat(2 * first.flat())]):
            paths.append(str(tmp_path / f"t{task}.tvc"))
            encode_container(pset, paths[-1])
        side_file_header = merging._record_header

        def encode_header(*args):
            raise AssertionError("a header was encoded on a read path")

        def encode_side_file_header(name, code, dims):
            assert code == DTYPE_U16, "merge encoded a container header"
            return side_file_header(name, code, dims)

        args = {"magmax": [], "tunable": ["--alpha", "0.5", "--seed", "3"], "average": [], "randmix": ["--seed", "3"]}
        with monkeypatch.context() as patch:
            patch.setattr(container, "_record_header", encode_header)
            patch.setattr(merging, "_record_header", encode_side_file_header)
            patch.setattr(container, "_BLOCK", 8)
            assert decode_container(io.BytesIO(raw_first)).bitwise_equal(first)
            side_file.seek(0)
            loaded = read_assignment(side_file)
            assert loaded.owner.tolist() == [2, 1, 2, 1] and loaded.provenance.tolist() == [1, 0, 1, 1]
            assert loaded.num_tasks == 2
            blocks = [part.copy() for part in LayoutReader(io.BytesIO(raw_first)).blocks(io.BytesIO(raw_later))]
            assert np.concatenate(blocks).view(np.uint32).tolist() == later.flat().view(np.uint32).tolist()
            for method, flags in args.items():
                assert main(["merge", "--method", method, *flags, "--out", str(tmp_path / f"{method}.tvc"), *paths]) == 0

        decoded = [decode_container(path) for path in paths]
        taus = np.stack([pset.flat() for pset in decoded])
        pref = preference_from_alpha(0.5, 3, taus.shape[1])
        for method in args:
            merged, _ = merge(method, taus, pref if method == "tunable" else None, 3)
            want = io.BytesIO()
            encode_container(decoded[0].with_flat(merged), want)
            assert (tmp_path / f"{method}.tvc").read_bytes() == want.getvalue()

    def test_nan_names_the_first_tensor_of_its_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(container, "_BLOCK", 4)
        pset = ParameterSet([("a", np.ones(3)), ("b", np.ones(3)), ("c", np.ones(3))])
        raw = bytearray(encoded(pset))
        c_payload = len(raw) - 12
        b_payload = c_payload - len(container._record_header("c", 0, (3,))) - 12
        # Elements 5 and 7 of the layout, in the second block [4, 8).
        raw[b_payload + 8 : b_payload + 12] = raw[c_payload + 4 : c_payload + 8] = struct.pack("<f", np.nan)
        for kind in READ_PATHS:
            with read_path(kind, tmp_path, monkeypatch) as source:
                with pytest.raises(CodecError, match="tensor 'b': NaN"):
                    list(LayoutReader(source(encoded(pset))).blocks(source(bytes(raw))))

    def test_headers_of_an_unbuffered_file_take_one_read_per_buffer(self, tmp_path):
        # Read field by field, MANY's 3,000 headers would take about 9,000
        # reads of an unbuffered file.
        path = tmp_path / "many.tvc"
        path.write_bytes(encoded(MANY))
        with CountingFile(path) as stream:
            assert LayoutReader(stream).specs == MANY.specs
            assert not stream.closed
        assert stream.reads <= math.ceil(path.stat().st_size / io.DEFAULT_BUFFER_SIZE) + 2

    @pytest.mark.parametrize("block", [4001, None], ids=["two blocks", "one block"])
    def test_a_block_of_many_records_takes_several_steps(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
        raw = encoded(MANY)
        tail = len(raw) - 8  # t2999's payload, two elements
        faults = {
            "renamed": (raw.replace(b"t2998", b"u2998"), OTHER_LAYOUT),
            "NaN": (raw[:tail] + struct.pack("<2f", 1.0, np.nan), "tensor 't2999': NaN payload rejected"),
            "truncated": (raw[:-1], "unexpected end of stream while reading payload of 't2999'"),
        }
        for kind in READ_PATHS:
            with read_path(kind, tmp_path, monkeypatch) as source, monkeypatch.context() as patch:
                calls = []
                if kind != "stream":
                    readv = os.readv
                    patch.setattr(os, "readv", lambda fd, buffers: calls.append(len(buffers)) or readv(fd, buffers))
                reader = LayoutReader(source(raw))
                blocks = [part.copy() for part in reader.blocks(source(raw))]
                steps = list(calls)
                assert np.concatenate(blocks).view(np.uint32).tolist() == MANY.flat().view(np.uint32).tolist()
                assert [part.size for part in blocks] == ([4001, 499] if block else [4500])
                assert decode_container(source(raw)).bitwise_equal(MANY)
                for later, message in faults.values():
                    later = source(later)
                    with pytest.raises(ValidationError) as streamed:
                        list(reader.blocks(later))
                    assert str(streamed.value) == message.format(name=named(later))
            if kind == "path":
                # 3,000 headers and 3,000 payloads, one of them cut in two by the
                # block boundary: one os.readv per step of at most _IOV_MAX buffers.
                assert max(steps) == container._IOV_MAX and sum(steps) == 6000 + (block is not None)
                assert len(steps) == (7 if block else 6)


MANY_TUNABLE = ["tunable", "--alpha", "0.5", "--seed", "1"]


def write_many(directory, count=3):
    """``count`` inputs of MANY's layout with values of their own."""
    paths = []
    for task in range(count):
        values = np.random.default_rng(task).standard_normal(MANY.num_elements).astype(np.float32)
        paths.append(str(directory / f"many{task}.tvc"))
        encode_container(MANY.with_flat(values), paths[-1])
    return paths


class TestBlockStepsAndLazySpecs:
    """A merge reader keeps one block's read steps and builds no spec unless a NaN needs a name."""

    # 4,500 elements in blocks of 1,000, of about 667 records and 2 steps
    # each, or in one block of 3,000 records and 6 steps. Tunable's second
    # pass starts the planner again unless block 0 is the only block.
    @pytest.mark.parametrize(
        "method, block, planned, steps",
        [
            (["magmax"], 1000, [1000] * 4 + [500], 2),
            (MANY_TUNABLE, 1000, ([1000] * 4 + [500]) * 2, 2),
            (["magmax"], None, [4500], 6),
            (MANY_TUNABLE, None, [4500], 6),
        ],
        ids=["magmax-five blocks", "tunable-five blocks", "magmax-one block", "tunable-one block"],
    )
    def test_each_block_is_worked_out_once_per_pass(self, tmp_path, monkeypatch, method, block, planned, steps):
        paths = write_many(tmp_path)
        out = tmp_path / "m.tvc"
        assert main(["merge", "--method", *method, "--out", str(out), *paths]) == 0
        want = out.read_bytes()
        plan, sizes, held = LayoutReader._plan, [], []

        def counted(reader):
            for step in plan(reader):
                held.append(len(reader._steps))  # steps of this block already worked out
                if step[3] is not None:
                    sizes.append(step[3].size)
                yield step

        monkeypatch.setattr(LayoutReader, "_plan", counted)
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
        assert main(["merge", "--method", *method, "--out", str(out), *paths]) == 0
        assert out.read_bytes() == want
        # Each block's steps are worked out once per pass over the 3 inputs,
        # not once per input, and no more than one block's steps are held.
        assert sizes == planned
        assert max(held) == steps - 1

    # Peak traced allocation of a merge of 3 MANY-style inputs in blocks of
    # 1,000 elements (Python 3.11, numpy 2.4.6): 0.98 MB for magmax and 0.81
    # MB for tunable. A reader that kept every block's steps and every
    # record's spec peaked at 2.37 and 2.20 MB.
    MANY_MERGE_PEAK = 1_500_000

    @pytest.mark.parametrize("method", [["magmax"], MANY_TUNABLE], ids=["magmax", "tunable"])
    def test_a_many_record_merge_holds_one_block_of_reader_state(self, tmp_path, monkeypatch, method):
        paths = write_many(tmp_path)
        monkeypatch.setattr(container, "_BLOCK", 1000)
        tracemalloc.start()
        try:
            assert main(["merge", "--method", *method, "--out", str(tmp_path / "m.tvc"), *paths]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.MANY_MERGE_PEAK

    @pytest.mark.parametrize("block", [1000, None], ids=["several blocks", "one block"])
    def test_clean_commands_build_no_spec(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
        paths = write_many(tmp_path)
        built = []

        class Counted(TensorSpec):
            def __post_init__(self):
                built.append(self.name)
                super().__post_init__()

        monkeypatch.setattr(container, "TensorSpec", Counted)
        out = str(tmp_path / "out.tvc")
        for argv in (
            *(["merge", "--method", *method, "--out", out, *paths] for method in (["magmax"], MANY_TUNABLE, ["average"])),
            ["taskvec", "--theta", paths[1], "--theta0", paths[0], "--out", out],
            ["apply", "--theta0", paths[0], "--tau", paths[1], "--out", out],
        ):
            assert main(argv) == 0, argv
        assert built == []

    def test_a_nan_is_named_from_specs_built_then(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(container, "_BLOCK", 1000)
        paths = write_many(tmp_path)
        raw = bytearray(Path(paths[2]).read_bytes())
        raw[-4:] = struct.pack("<f", np.nan)  # the last element of t2999, the last tensor
        Path(paths[2]).write_bytes(bytes(raw))
        out = tmp_path / "m.tvc"
        for method in (["magmax"], MANY_TUNABLE):
            assert main(["merge", "--method", *method, "--out", str(out), *paths]) == 2
            assert capsys.readouterr().err == "validation error: tensor 't2999': NaN payload rejected\n"
            assert not out.exists() and not list(tmp_path.glob("*.part"))

    def test_specs_on_demand_match_decode(self, tmp_path):
        (path,) = write_many(tmp_path, 1)
        reader = LayoutReader(path)
        assert reader.specs == decode_container(path).specs == MANY.specs
        assert reader.specs is reader.specs


class TestTaskVectorArithmetic:
    # The arithmetic runs in `tvmerge taskvec` and `apply`, tested in test_cli.py.
    def test_random_roundtrip_property(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            layout = {
                "a": rng.normal(size=(3, 5)).astype(np.float32),
                "b": rng.normal(size=7).astype(np.float32),
            }
            pset = ParameterSet(layout)
            assert roundtrip(pset).bitwise_equal(pset)
