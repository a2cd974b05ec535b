import io
import struct
import tracemalloc

import numpy as np
import pytest

from tvmerge import (
    CodecError,
    ParameterSet,
    ShapeMismatchError,
    TaskVector,
    TensorSpec,
    ValidationError,
    apply_task_vector,
    compute_task_vector,
    decode_container,
    encode_container,
)
from tvmerge import container
from tvmerge.container import LayoutReader


def encoded(pset):
    buffer = io.BytesIO()
    encode_container(pset, buffer)
    return buffer.getvalue()


def roundtrip(pset):
    buffer = io.BytesIO()
    encode_container(pset, buffer)
    buffer.seek(0)
    return decode_container(buffer)


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
    def test_read_layout_raises_what_decode_raises(self, raw):
        """A layout read from the headers alone (a LayoutReader's first file) fails as a decode does."""
        with pytest.raises(CodecError) as decoded:
            decode_container(io.BytesIO(raw))
        with pytest.raises(CodecError) as headers_only:
            LayoutReader(io.BytesIO(raw))
        assert str(headers_only.value) == str(decoded.value)

    def test_read_layout_starts_at_the_stream_position(self):
        stream = io.BytesIO(b"junk" + encoded(ParameterSet({"w": np.zeros((2, 3)), "b": np.zeros(2)})))
        specs = (TensorSpec("w", (2, 3)), TensorSpec("b", (2,)))
        for read in (lambda source: LayoutReader(source).specs, lambda source: decode_container(source).specs):
            stream.seek(4)
            assert read(stream) == specs


LAYOUT = ParameterSet({"w": np.ones(6), "b": np.ones(2)})
OTHER_LAYOUT = "shape mismatch: stream has a different layout"


class TestLayoutReader:
    @pytest.mark.parametrize("block", [2, 5, 2**16])
    def test_stream_blocks_match_decode(self, monkeypatch, block):
        monkeypatch.setattr(container, "_BLOCK", block)
        pset = ParameterSet([("w", np.arange(6.0).reshape(2, 3)), ("b", [-0.0, np.inf])])
        raw = encoded(pset)
        blocks = [part.copy() for part in LayoutReader(io.BytesIO(raw)).blocks(io.BytesIO(raw))]
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
    def test_other_stream_raises_shape_mismatch(self, raw, error, message):
        """Another layout raises a shape mismatch; malformed headers raise what their decode raises."""
        reader = LayoutReader(io.BytesIO(encoded(LAYOUT)))
        with pytest.raises(error) as streamed:
            list(reader.blocks(io.BytesIO(raw)))
        assert type(streamed.value) is error and str(streamed.value) == message
        if error is CodecError:
            with pytest.raises(CodecError) as decoded:
                decode_container(io.BytesIO(raw))
            assert str(decoded.value) == message

    @pytest.mark.parametrize(
        "raw, message",
        [
            (encoded(LAYOUT)[:-1], "unexpected end of stream while reading payload of 'b'"),
            (encoded(ParameterSet({"w": np.ones(8)})), OTHER_LAYOUT),
        ],
        ids=["truncated", "other layout"],
    )
    def test_mismatch_is_explained_from_the_stream_position(self, raw, message):
        stream = io.BytesIO(b"junk" + raw)
        stream.seek(4)
        with pytest.raises(ValidationError) as streamed:
            list(LayoutReader(io.BytesIO(encoded(LAYOUT))).blocks(stream))
        assert str(streamed.value) == message

    def test_nan_names_the_first_tensor_of_its_block(self, monkeypatch):
        monkeypatch.setattr(container, "_BLOCK", 4)
        pset = ParameterSet([("a", np.ones(3)), ("b", np.ones(3)), ("c", np.ones(3))])
        raw = bytearray(encoded(pset))
        c_payload = len(raw) - 12
        b_payload = c_payload - len(container._record_header("c", 0, (3,))) - 12
        # Elements 5 and 7 of the layout, in the second block [4, 8).
        raw[b_payload + 8 : b_payload + 12] = raw[c_payload + 4 : c_payload + 8] = struct.pack("<f", np.nan)
        with pytest.raises(CodecError, match="tensor 'b': NaN"):
            list(LayoutReader(io.BytesIO(encoded(pset))).blocks(io.BytesIO(bytes(raw))))


class TestTaskVectorArithmetic:
    def test_subtract(self):
        theta_t = ParameterSet({"w": np.array([3.0, 5.0])})
        theta_0 = ParameterSet({"w": np.array([1.0, 2.0])})
        tau = compute_task_vector(theta_t, theta_0)
        assert isinstance(tau, TaskVector)
        assert tau.tensor("w").tolist() == [2.0, 3.0]

    def test_identical_models_give_zero(self):
        theta = ParameterSet({"w": np.array([1.5, -2.5])})
        assert compute_task_vector(theta, theta).flat().tolist() == [0.0, 0.0]

    def test_shape_mismatch(self):
        a = ParameterSet({"w": np.zeros(2)})
        b = ParameterSet({"w": np.zeros(3)})
        with pytest.raises(ShapeMismatchError):
            compute_task_vector(a, b)
        with pytest.raises(ShapeMismatchError):
            apply_task_vector(a, TaskVector({"w": np.zeros(3)}), 0.5)

    def test_apply_half(self):
        theta_0 = ParameterSet({"w": np.array([1.0, 1.0])})
        tau = TaskVector({"w": np.array([2.0, 4.0])})
        assert apply_task_vector(theta_0, tau, 0.5).tensor("w").tolist() == [2.0, 3.0]

    def test_apply_zero_keeps_base(self):
        theta_0 = ParameterSet({"w": np.array([1.25, -7.0])})
        tau = TaskVector({"w": np.array([2.0, 4.0])})
        assert apply_task_vector(theta_0, tau, 0.0).bitwise_equal(theta_0)

    def test_apply_one_recovers_finetuned_bitwise(self):
        rng = np.random.default_rng(5)
        base = ParameterSet({"w": rng.integers(-50, 50, size=64).astype(np.float32)})
        tuned = ParameterSet({"w": rng.integers(-50, 50, size=64).astype(np.float32)})
        tau = compute_task_vector(tuned, base)
        assert apply_task_vector(base, tau, 1.0).bitwise_equal(tuned)

    def test_lambda_out_of_range(self):
        theta = ParameterSet({"w": np.zeros(2)})
        tau = TaskVector({"w": np.zeros(2)})
        for bad in (-0.1, 1.1):
            with pytest.raises(ValidationError):
                apply_task_vector(theta, tau, bad)

    def test_random_roundtrip_property(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            layout = {
                "a": rng.normal(size=(3, 5)).astype(np.float32),
                "b": rng.normal(size=7).astype(np.float32),
            }
            pset = ParameterSet(layout)
            assert roundtrip(pset).bitwise_equal(pset)
