import io
import json
import logging
import math
import struct
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmerge import (
    Assignment,
    OTConfig,
    ParameterSet,
    ValidationError,
    decode_container,
    encode_container,
    load_preference,
    merge,
    read_assignment,
    write_assignment,
)
from tvmerge import cli, container, merging
from tvmerge.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_container(path, values, name="w"):
    encode_container(ParameterSet({name: np.asarray(values, dtype=np.float32)}), path)


def write_embeddings(path, matrix):
    encode_container(ParameterSet({"emb": np.asarray(matrix, dtype=np.float32)}), path)


class TestTaskvec:
    def test_success(self, tmp_path):
        write_container(tmp_path / "theta.tvc", [3.0, 5.0])
        write_container(tmp_path / "theta0.tvc", [1.0, 2.0])
        out = tmp_path / "tau.tvc"
        code = main(
            ["taskvec", "--theta", str(tmp_path / "theta.tvc"), "--theta0", str(tmp_path / "theta0.tvc"), "--out", str(out)]
        )
        assert code == 0
        assert decode_container(out).tensor("w").tolist() == [2.0, 3.0]

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        write_container(tmp_path / "a.tvc", [1.0, 2.0])
        write_container(tmp_path / "b.tvc", [1.0, 2.0, 3.0])
        code = main(
            ["taskvec", "--theta", str(tmp_path / "a.tvc"), "--theta0", str(tmp_path / "b.tvc"), "--out", str(tmp_path / "out.tvc")]
        )
        assert code == 2
        assert "shape" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        write_container(tmp_path / "a.tvc", [1.0])
        code = main(
            ["taskvec", "--theta", str(tmp_path / "a.tvc"), "--theta0", str(tmp_path / "missing.tvc"), "--out", str(tmp_path / "out.tvc")]
        )
        assert code == 3


class TestMerge:
    def test_magmax_toy(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [1.0, -3.0, 2.0])
        write_container(tmp_path / "t2.tvc", [-2.0, 1.0, 2.0])
        out = tmp_path / "merged.tvc"
        code = main(
            ["merge", "--method", "magmax", "--out", str(out), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 0
        assert decode_container(out).tensor("w").tolist() == [-2.0, -3.0, 2.0]
        census = json.loads((tmp_path / "merged.tvc.census.json").read_text())
        assert census == {"counts": [1, 2]}
        assignment = read_assignment(tmp_path / "merged.tvc.assignment.tvc")
        assert assignment.owner.tolist() == [2, 1, 2]

    def test_tunable_alpha_zero_returns_last_tau_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for index in range(3):
            path = tmp_path / f"t{index}.tvc"
            write_container(path, rng.normal(size=16).astype(np.float32))
            paths.append(str(path))
        out = tmp_path / "merged.tvc"
        code = main(
            ["merge", "--method", "tunable", "--alpha", "0", "--seed", "5", "--out", str(out), *paths]
        )
        assert code == 0
        merged = decode_container(out)
        last = decode_container(paths[-1])
        assert merged.bitwise_equal(last)

    def test_tunable_pref_file(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [5.0, 4.0, 1.0, 0.0])
        write_container(tmp_path / "t2.tvc", [1.0, 2.0, 3.0, 4.0])
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"budgets": [2, 2], "d": 4}))
        out = tmp_path / "merged.tvc"
        code = main(
            ["merge", "--method", "tunable", "--pref-file", str(pref), "--seed", "1", "--out", str(out), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 0
        assert decode_container(out).tensor("w").tolist() == [5.0, 4.0, 3.0, 4.0]

    def test_tunable_bad_pref_sum_exits_2(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [5.0, 4.0, 1.0, 0.0])
        write_container(tmp_path / "t2.tvc", [1.0, 2.0, 3.0, 4.0])
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"budgets": [2, 1], "d": 3}))
        code = main(
            ["merge", "--method", "tunable", "--pref-file", str(pref), "--seed", "1", "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 2

    def test_method_source_mismatch_exits_4(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [1.0])
        code = main(
            ["merge", "--method", "magmax", "--alpha", "1", "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t1.tvc")]
        )
        assert code == 4

    def test_tunable_without_source_exits_4(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [1.0])
        code = main(
            ["merge", "--method", "tunable", "--seed", "1", "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t1.tvc")]
        )
        assert code == 4

    def test_randmix_requires_seed(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [1.0])
        code = main(
            ["merge", "--method", "randmix", "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t1.tvc")]
        )
        assert code == 4

    def test_tunable_sim_file_source(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [5.0, 4.0, 1.0, 0.0])
        write_container(tmp_path / "t2.tvc", [1.0, 2.0, 3.0, 4.0])
        sim = tmp_path / "sims.json"
        sim.write_text(json.dumps({"scores": [1.0, 1.0], "metric": "label"}))
        out = tmp_path / "merged.tvc"
        code = main(
            ["merge", "--method", "tunable", "--sim-file", str(sim), "--seed", "2", "--out", str(out), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 0
        census = json.loads((tmp_path / "merged.tvc.census.json").read_text())
        assert census == {"counts": [2, 2]}

    def test_average_writes_no_assignment(self, tmp_path):
        write_container(tmp_path / "t1.tvc", [2.0, 0.0])
        write_container(tmp_path / "t2.tvc", [0.0, 2.0])
        out = tmp_path / "merged.tvc"
        code = main(
            ["merge", "--method", "average", "--out", str(out), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 0
        assert decode_container(out).tensor("w").tolist() == [1.0, 1.0]
        assert not (tmp_path / "merged.tvc.census.json").exists()

    def test_rejected_encode_leaves_no_out_file(self, tmp_path, capsys):
        write_container(tmp_path / "t1.tvc", [np.inf, 1.0])
        write_container(tmp_path / "t2.tvc", [-np.inf, 1.0])
        out = tmp_path / "merged.tvc"
        code = main(
            ["merge", "--method", "average", "--out", str(out), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 2
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_average_of_opposite_infinities_names_the_tensor(self, tmp_path, capsys):
        write_container(tmp_path / "t1.tvc", [1.0, np.inf])
        write_container(tmp_path / "t2.tvc", [1.0, -np.inf])
        out = tmp_path / "merged.tvc"
        code = main(
            ["merge", "--method", "average", "--out", str(out), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 2
        assert capsys.readouterr().err == "validation error: tensor 'w': the average of +inf and -inf is NaN\n"
        assert not out.exists()

    def test_debug_log_reports_sizes_census_and_residual(self, tmp_path, caplog):
        write_container(tmp_path / "t1.tvc", [5.0, 5.0, 5.0, 5.0])
        write_container(tmp_path / "t2.tvc", [1.0, 0.0, 0.0, 0.0])
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"budgets": [1, 3], "d": 4}))
        args = ["--pref-file", str(pref), "--seed", "1", str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        caplog.set_level(logging.DEBUG, logger="tvmerge")
        assert main(["--log-level", "debug", "merge", "--method", "tunable", "--out", str(tmp_path / "a.tvc"), *args]) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "tvmerge"] == [
            "merge: 2 tasks, 4 elements, method tunable",
            "census: 1 3",
            "residual fraction: 0.75",
        ]
        assert main(["merge", "--method", "tunable", "--out", str(tmp_path / "b.tvc"), *args]) == 0
        for suffix in ("", ".census.json", ".assignment.tvc"):
            assert (tmp_path / f"a.tvc{suffix}").read_bytes() == (tmp_path / f"b.tvc{suffix}").read_bytes()

    @pytest.mark.parametrize("elements", [2**61, 2**33], ids=["2^61", "2^33"])
    def test_hostile_payload_size_exits_2(self, tmp_path, capsys, elements):
        header = b"TVC1" + bytes([1]) + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
        raw = header + bytes([0, 1]) + struct.pack("<Q", elements)
        path = tmp_path / "hostile.tvc"
        path.write_bytes(raw + bytes(40 - len(raw)))
        code = main(["merge", "--method", "magmax", "--out", str(tmp_path / "m.tvc"), str(path)])
        assert code == 2
        assert "unexpected end of stream" in capsys.readouterr().err

    def test_rounds_is_ignored_with_one_warning(self, tmp_path, caplog, recwarn):
        # Task 1 claims 2 of its 6 record-setter elements; the residual fill
        # deals the other 4 to tasks 2 and 3, so its shuffle shows in the bytes.
        write_container(tmp_path / "t1.tvc", [5.0] * 6)
        write_container(tmp_path / "t2.tvc", [0.0] * 6)
        write_container(tmp_path / "t3.tvc", [0.0] * 6)
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"budgets": [2, 2, 2], "d": 6}))
        paths = [str(tmp_path / f"t{task}.tvc") for task in (1, 2, 3)]
        outputs = {}
        for rounds in ([], ["--rounds", "0"], ["--rounds", "5"]):
            caplog.clear()
            out = tmp_path / f"m{len(outputs)}.tvc"
            argv = ["merge", "--method", "tunable", "--pref-file", str(pref), "--seed", "3", *rounds, "--out", str(out)]
            assert main([*argv, *paths]) == 0
            warned = [r.getMessage() for r in caplog.records if r.name == "tvmerge" and r.levelno == logging.WARNING]
            assert warned == (["--rounds is ignored; the seed alone keys the merge"] if rounds else [])
            outputs[" ".join(rounds)] = [
                Path(f"{out}{suffix}").read_bytes() for suffix in ("", ".census.json", ".assignment.tvc")
            ]
        assert outputs["--rounds 0"] == outputs[""] == outputs["--rounds 5"]
        assert main(["merge", "--method", "magmax", "--rounds", "two", "--out", str(tmp_path / "x.tvc"), *paths]) == 4
        assert not recwarn.list

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("method", [["magmax"], ["average"], ["randmix"], ["tunable", "--alpha", "1"]])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, method, seed):
        write_container(tmp_path / "t1.tvc", [1.0, -3.0, 2.0])
        write_container(tmp_path / "t2.tvc", [-2.0, 1.0, 2.0])
        out = tmp_path / "m.tvc"
        code = main(
            ["merge", "--method", *method, "--seed", seed, "--out", str(out), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        assert code == 2
        assert capsys.readouterr().err == "validation error: seed must fit in 64 unsigned bits\n"
        assert not out.exists()


# Merge inputs after the first go through their own reader, so their faults
# are checked in every position but the first. Records are dicts of raw
# fields, so a fault can set any of them to a value the encoder would refuse.
LAYOUT = (("a", (2, 3)), ("b", (4,)), ("c", (3,)))


def layout_records(task):
    records = []
    for index, (name, dims) in enumerate(LAYOUT):
        size = math.prod(dims)
        values = (np.arange(size) - size / 2) * (task + 1) + index
        records.append({"name": name.encode(), "code": 0, "dims": dims, "values": values.astype("<f4")})
    return records


def raw_container(records, magic=b"TVC1", version=1):
    body = b"".join(
        struct.pack("<H", len(r["name"])) + r["name"] + bytes([r["code"], len(r["dims"])])
        + struct.pack(f"<{len(r['dims'])}Q", *r["dims"]) + r["values"].tobytes()
        for r in records
    )
    return magic + bytes([version]) + struct.pack("<I", len(records)) + body


def edited(records, index, **fields):
    records[index].update(fields)
    return raw_container(records)


def with_nan_in_b(records):
    records[1]["values"][2] = np.nan
    return raw_container(records)


def with_extra_record(records):
    return raw_container(records + [{"name": b"d", "code": 0, "dims": (1,), "values": np.ones(1, "<f4")}])


LAYOUT_MISMATCH = "validation error: shape mismatch: {path} has a different layout\n"

# Stderr of each fault (exit 2), as recorded when every input was decoded in
# full; the direct reader must give the same in the second and the last input.
LATER_INPUT_FAULTS = {
    "renamed tensor": (lambda r: edited(r, 1, name=b"z"), LAYOUT_MISMATCH),
    "transposed dims": (lambda r: edited(r, 0, dims=(3, 2)), LAYOUT_MISMATCH),
    "extra record": (with_extra_record, LAYOUT_MISMATCH),
    "truncated payload": (
        lambda r: raw_container(r)[:-1],
        "validation error: unexpected end of stream while reading payload of 'c'\n",
    ),
    "trailing byte": (
        lambda r: raw_container(r) + b"\0",
        "validation error: trailing data after last record\n",
    ),
    "bad magic": (
        lambda r: raw_container(r, magic=b"XVC1"),
        "validation error: bad magic b'XVC1'\n",
    ),
    "version 2": (
        lambda r: raw_container(r, version=2),
        "validation error: unsupported version 2\n",
    ),
    "dtype code 1": (
        lambda r: edited(r, 0, code=1),
        "validation error: tensor 'a': unsupported dtype code 1\n",
    ),
    "non-UTF-8 name": (
        lambda r: edited(r, 1, name=b"\xff"),
        "validation error: tensor name is not valid UTF-8\n",
    ),
    "NaN payload": (with_nan_in_b, "validation error: tensor 'b': NaN payload rejected\n"),
    "length 2^61": (
        lambda r: edited(r, 1, dims=(2**61,)),
        "validation error: unexpected end of stream while reading payload of 'b'\n",
    ),
}


def pref_file(directory, text):
    path = directory / "pref.json"
    path.write_text(text)
    return ["--pref-file", str(path)]


# Preference faults: the flags for a directory, the exit code and the start
# of stderr. The layout has 13 elements.
PREFERENCE_FAULTS = {
    "malformed pref file": (lambda d: pref_file(d, "{"), 6, "config error: "),
    "pref budgets off the element count": (
        lambda d: pref_file(d, '{"budgets": [1, 1, 1], "d": 3}'),
        2,
        "validation error: budget sum 3 != element count 13\n",
    ),
    "negative alpha": (lambda d: ["--alpha", "-1"], 2, "validation error: alpha must be a finite value >= 0\n"),
    "missing sim file": (lambda d: ["--sim-file", str(d / "missing.json")], 3, "i/o error: "),
}


def write_inputs(directory, later, position):
    """Three layout containers, except that input ``position`` holds ``later``."""
    paths = []
    for task in range(3):
        path = directory / f"t{task}.tvc"
        path.write_bytes(later if task == position else raw_container(layout_records(task)))
        paths.append(str(path))
    return paths


class TestMergeLaterInputs:
    @pytest.mark.parametrize("position", [1, 2], ids=["second", "last"])
    @pytest.mark.parametrize("fault", LATER_INPUT_FAULTS)
    def test_fault_exits_2_with_full_decode_message(self, tmp_path, capsys, fault, position):
        build, message = LATER_INPUT_FAULTS[fault]
        paths = write_inputs(tmp_path, build(layout_records(position)), position)
        code = main(["merge", "--method", "magmax", "--out", str(tmp_path / "m.tvc"), *paths])
        assert code == 2
        assert capsys.readouterr().err == message.format(path=paths[position])

    @pytest.mark.parametrize("position", [1, 2], ids=["second", "last"])
    @pytest.mark.parametrize("fault", LATER_INPUT_FAULTS)
    def test_fault_is_explained_without_decoding(self, tmp_path, capsys, monkeypatch, fault, position):
        def decode(*args):
            raise AssertionError("a merge input was decoded")

        monkeypatch.setattr(cli, "decode_container", decode)
        monkeypatch.setattr(container, "_read_flat", decode)
        build, message = LATER_INPUT_FAULTS[fault]
        paths = write_inputs(tmp_path, build(layout_records(position)), position)
        assert main(["merge", "--method", "magmax", "--out", str(tmp_path / "m.tvc"), *paths]) == 2
        assert capsys.readouterr().err == message.format(path=paths[position])

    # The preference needs only the first input's element count and is
    # resolved before inputs 2..T are read, so its fault is reported ahead
    # of a fault in a later input.
    @pytest.mark.parametrize("fault", PREFERENCE_FAULTS)
    def test_preference_fault_reported_before_later_input_fault(self, tmp_path, capsys, fault):
        flags, code, message = PREFERENCE_FAULTS[fault]
        paths = write_inputs(tmp_path, raw_container(layout_records(2), magic=b"XVC1"), 2)
        argv = ["merge", "--method", "tunable", "--seed", "1", "--out", str(tmp_path / "m.tvc"), *flags(tmp_path), *paths]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(message)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_second_input_exits_0_or_2_like_decode(self, data):
        """Any flip, cut or extension of input 2 merges as its decode would, or exits 2."""
        raw = bytearray(raw_container(layout_records(1)))
        kind = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
        if kind == "flip":
            flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
            for index, mask in data.draw(st.lists(flips, min_size=1, max_size=4)):
                raw[index] ^= mask
        elif kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=64))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = write_inputs(tmp, bytes(raw), 1)
            out = tmp / "m.tvc"
            code = main(["merge", "--method", "magmax", "--out", str(out), *paths])
            try:
                decoded = [decode_container(path) for path in paths]
                mergeable = decoded[1].same_layout(decoded[0])
            except ValidationError:
                mergeable = False
            assert code == (0 if mergeable else 2)
            if code == 0:
                taus = np.stack([pset.flat() for pset in decoded])
                merged, assignment = merge("magmax", taus, None)
                encode_container(decoded[0].with_flat(merged), tmp / "ref.tvc")
                write_assignment(tmp / "ref.assignment.tvc", assignment)
                assert out.read_bytes() == (tmp / "ref.tvc").read_bytes()
                assert (tmp / "m.tvc.assignment.tvc").read_bytes() == (tmp / "ref.assignment.tvc").read_bytes()


# Merge inputs are streamed from their files one block at a time. With
# 5-element blocks, these tensors (offsets 0, 1, 4 and 11 of 22) straddle
# block boundaries, start mid-block and fill the first block exactly.
BLOCK_LAYOUT = (("a", (1,)), ("b", (3,)), ("c", (7,)), ("d", (11,)))


def block_layout_records(task):
    rng = np.random.default_rng(task)
    records = []
    for name, dims in BLOCK_LAYOUT:
        values = rng.integers(-2, 3, size=dims).astype("<f4")
        values[values == 0] = -0.0 if task % 2 else 0.0
        values[rng.random(size=dims) < 0.15] = np.inf
        values[rng.random(size=dims) < 0.15] = -np.inf
        records.append({"name": name.encode(), "code": 0, "dims": dims, "values": values})
    return records


def with_nans(records, *places):
    for name, index in places:
        next(r for r in records if r["name"] == name.encode())["values"][index] = np.nan
    return raw_container(records)


BLOCK_METHOD_ARGS = {
    "magmax": [],
    "tunable": ["--alpha", "0.5", "--seed", "4"],
    "average": [],
    "randmix": ["--seed", "4"],
}

# Faults and their stderr (exit 2) in any input; a block of NaN-free
# elements may precede the NaN within the block that holds it.
BLOCK_FAULTS = {
    "NaN at the start of c": (lambda r: with_nans(r, ("c", 0)), "tensor 'c': NaN payload rejected"),
    "NaN at the end of c": (lambda r: with_nans(r, ("c", 6)), "tensor 'c': NaN payload rejected"),
    "NaN at the start of d": (lambda r: with_nans(r, ("d", 0)), "tensor 'd': NaN payload rejected"),
    "NaN in c and d": (lambda r: with_nans(r, ("d", 0), ("c", 6)), "tensor 'c': NaN payload rejected"),
    "trailing byte": (lambda r: raw_container(r) + b"\0", "trailing data after last record"),
}


def write_block_inputs(directory, num_tasks=3, fault=None, position=None):
    paths = []
    for task in range(num_tasks):
        path = directory / f"t{task}.tvc"
        records = block_layout_records(task)
        path.write_bytes(fault(records) if task == position else raw_container(records))
        paths.append(str(path))
    return paths


def merge_outputs(directory, method, paths):
    out = directory / f"{method}.tvc"
    assert main(["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(out), *paths]) == 0
    written = [out] + [Path(f"{out}{suffix}") for suffix in (".assignment.tvc", ".census.json")]
    return [path.read_bytes() for path in written if path.exists()]


class TestMergeStreamsBlocks:
    @pytest.mark.parametrize("method", BLOCK_METHOD_ARGS)
    def test_five_element_blocks_give_the_same_bytes(self, tmp_path, monkeypatch, method):
        paths = write_block_inputs(tmp_path)
        want = merge_outputs(tmp_path, method, paths)
        monkeypatch.setattr(container, "_BLOCK", 5)
        monkeypatch.setattr(merging, "_BLOCK", 5)
        assert merge_outputs(tmp_path, method, paths) == want

    @pytest.mark.parametrize("block", [5, None], ids=["block 5", "default block"])
    @pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
    @pytest.mark.parametrize("fault", BLOCK_FAULTS)
    def test_fault_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, fault, position, block):
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
            monkeypatch.setattr(merging, "_BLOCK", block)
        build, message = BLOCK_FAULTS[fault]
        paths = write_block_inputs(tmp_path, fault=build, position=position)
        for method in BLOCK_METHOD_ARGS:
            argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(tmp_path / "m.tvc"), *paths]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"validation error: {message}\n"
            assert not (tmp_path / "m.tvc").exists()

    # Peak traced allocation of `tvmerge merge` over T=8 files of d=2**20
    # elements, in rows of 4d bytes: the live state of each strategy, with
    # every input streamed through one block buffer. Tunable's bound also
    # fails if a task's claim outlives its step of the claim sweep (2.72).
    @pytest.mark.parametrize(
        "method, bound", [("magmax", 2.75), ("tunable", 2.6), ("randmix", 2.75), ("average", 1.5)]
    )
    def test_peak_allocation(self, tmp_path, method, bound):
        dim, split = 2**20, 3 * 40_000  # tensor "a" crosses a block boundary
        rng = np.random.default_rng(31)
        paths = []
        for task in range(8):
            flat = rng.normal(size=dim).astype(np.float32)
            pset = ParameterSet([("a", flat[:split].reshape(3, -1)), ("b", flat[split:])])
            encode_container(pset, tmp_path / f"t{task}.tvc")
            paths.append(str(tmp_path / f"t{task}.tvc"))
        del flat, pset
        argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(tmp_path / "m.tvc"), *paths]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * dim * 4


class TestApply:
    def test_apply_half(self, tmp_path):
        write_container(tmp_path / "theta0.tvc", [1.0, 1.0])
        write_container(tmp_path / "tau.tvc", [2.0, 4.0])
        out = tmp_path / "theta.tvc"
        code = main(
            ["apply", "--theta0", str(tmp_path / "theta0.tvc"), "--tau", str(tmp_path / "tau.tvc"), "--out", str(out), "--lambda-merge", "0.5"]
        )
        assert code == 0
        assert decode_container(out).tensor("w").tolist() == [2.0, 3.0]

    def test_lambda_out_of_range_exits_2(self, tmp_path):
        write_container(tmp_path / "theta0.tvc", [1.0])
        write_container(tmp_path / "tau.tvc", [1.0])
        code = main(
            ["apply", "--theta0", str(tmp_path / "theta0.tvc"), "--tau", str(tmp_path / "tau.tvc"), "--out", str(tmp_path / "o.tvc"), "--lambda-merge", "1.5"]
        )
        assert code == 2


class TestSim:
    def test_label_metric(self, tmp_path, capsys):
        (tmp_path / "task1.json").write_text(json.dumps({"labels": [0, 1, 0, 1]}))
        (tmp_path / "task2.json").write_text(json.dumps({"labels": [7, 8]}))
        (tmp_path / "meta.json").write_text(json.dumps({"labels": [0, 1]}))
        code = main(
            ["sim", "--metric", "label", "--task", str(tmp_path / "task1.json"), "--task", str(tmp_path / "task2.json"), "--meta", str(tmp_path / "meta.json")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores"][0] == pytest.approx(0.5)
        assert payload["scores"][1] == 0.0
        assert payload["metric"] == "label"

    def test_ot_metric_with_files(self, tmp_path):
        rng = np.random.default_rng(1)
        write_embeddings(tmp_path / "task1.tvc", rng.normal(size=(5, 3)))
        write_embeddings(tmp_path / "task2.tvc", rng.normal(size=(5, 3)) + 6.0)
        write_embeddings(tmp_path / "meta.tvc", rng.normal(size=(4, 3)))
        out = tmp_path / "sims.json"
        code = main(
            ["sim", "--metric", "ot", "--task", str(tmp_path / "task1.tvc"), "--task", str(tmp_path / "task2.tvc"), "--meta", str(tmp_path / "meta.tvc"), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["scores"][0] > payload["scores"][1]

    def test_settings_not_given_keep_their_otconfig_defaults(self, tmp_path, capsys):
        (tmp_path / "task.json").write_text(json.dumps({"labels": [0, 1]}))
        argv = ["sim", "--metric", "label", "--task", str(tmp_path / "task.json"), "--meta", str(tmp_path / "task.json")]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"] == asdict(OTConfig())
        assert main([*argv, "--max-iters", "7", "--bandwidth", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == asdict(OTConfig(max_iters=7, mmd_bandwidth=0.5))

    @pytest.mark.parametrize(
        "flag, value",
        [("--epsilon", "nan"), ("--gamma", "inf"), ("--gamma-cos", "inf"), ("--bandwidth", "nan")],
    )
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, flag, value):
        write_embeddings(tmp_path / "task1.tvc", np.ones((2, 2)))
        code = main(
            ["sim", "--metric", "ot", "--task", str(tmp_path / "task1.tvc"), "--meta", str(tmp_path / "task1.tvc"), flag, value]
        )
        assert code == 2
        assert "must be finite and positive" in capsys.readouterr().err

    def test_missing_meta_exits_3(self, tmp_path):
        write_embeddings(tmp_path / "task1.tvc", np.ones((2, 2)))
        code = main(
            ["sim", "--metric", "ot", "--task", str(tmp_path / "task1.tvc"), "--meta", str(tmp_path / "missing.tvc")]
        )
        assert code == 3

    def test_zero_mean_cos_exits_5(self, tmp_path):
        write_embeddings(tmp_path / "task1.tvc", [[1.0, 0.0], [-1.0, 0.0]])
        write_embeddings(tmp_path / "meta.tvc", [[1.0, 1.0]])
        code = main(
            ["sim", "--metric", "cos", "--task", str(tmp_path / "task1.tvc"), "--meta", str(tmp_path / "meta.tvc")]
        )
        assert code == 5

    @pytest.mark.parametrize("payload", [{"labels": 5}, {"counts": {"a": "x"}}])
    def test_wrongly_typed_label_file_exits_2(self, tmp_path, capsys, payload):
        (tmp_path / "labels.json").write_text(json.dumps(payload))
        (tmp_path / "meta.json").write_text(json.dumps({"labels": [0, 1]}))
        code = main(
            ["sim", "--metric", "label", "--task", str(tmp_path / "labels.json"), "--meta", str(tmp_path / "meta.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err

    def test_container_without_emb_tensor_exits_2(self, tmp_path):
        write_container(tmp_path / "task1.tvc", [[1.0, 0.0]], name="weights")
        code = main(
            ["sim", "--metric", "ot", "--task", str(tmp_path / "task1.tvc"), "--meta", str(tmp_path / "task1.tvc")]
        )
        assert code == 2


class TestPrefvec:
    def test_alpha_build(self, tmp_path):
        out = tmp_path / "pref.json"
        code = main(["prefvec", "--alpha", "2", "--tasks", "5", "--dim", "100", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == {"budgets": [52, 26, 13, 6, 3], "d": 100}

    def test_sim_file_build(self, tmp_path, capsys):
        sim = tmp_path / "sims.json"
        sim.write_text(json.dumps({"scores": [1.0, 1.0], "metric": "label"}))
        code = main(["prefvec", "--sim-file", str(sim), "--dim", "7"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"budgets": [4, 3], "d": 7}

    def test_validate_ok(self, tmp_path, capsys):
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"budgets": [4, 3], "d": 7}))
        assert main(["prefvec", "--validate", str(pref)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_sum(self, tmp_path, capsys):
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"budgets": [4, 4], "d": 7}))
        assert main(["prefvec", "--validate", str(pref)]) == 2
        assert "sum" in capsys.readouterr().err

    def test_missing_dim_exits_4(self):
        assert main(["prefvec", "--alpha", "2", "--tasks", "5"]) == 4

    @pytest.mark.parametrize(
        "flag, payload",
        [
            ("--validate", [4, 3]),
            ("--validate", {"budgets": ["a"], "d": 1}),
            ("--sim-file", {"scores": ["x"]}),
        ],
    )
    def test_wrongly_typed_json_exits_2(self, tmp_path, capsys, flag, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(["prefvec", flag, str(path), "--dim", "1"]) == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=6,
)

# Budget files that `merge --pref-file` rejects, and the one line that
# `prefvec --validate` prints for them (merge prints it after "validation error: ").
REJECTED_PREF_FILES = {
    "no budgets": ({"budgets": [], "d": 0}, "preference vector must not be empty"),
    "string d": ({"budgets": [2, 2], "d": "4"}, "non-integer element count d '4'"),
    "boolean budget": ({"budgets": [True, 3], "d": 4}, "non-integer budget True for task 1"),
    "boolean d": ({"budgets": [0, 1], "d": True}, "non-integer element count d True"),
}


class TestPrefvecValidateAgreesWithMerge:
    @pytest.mark.parametrize("case", REJECTED_PREF_FILES)
    def test_rejected_file_exits_2_in_both(self, tmp_path, capsys, case):
        payload, message = REJECTED_PREF_FILES[case]
        path = tmp_path / "pref.json"
        path.write_text(json.dumps(payload))
        assert main(["prefvec", "--validate", str(path)]) == 2
        assert capsys.readouterr().err == f"{message}\n"
        paths = [tmp_path / "t1.tvc", tmp_path / "t2.tvc"]
        for tau in paths:
            write_container(tau, [1.0, -2.0, 3.0, 4.0])
        argv = ["merge", "--method", "tunable", "--seed", "1", "--pref-file", str(path), "--out", str(tmp_path / "m.tvc")]
        assert main([*argv, *map(str, paths)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_validate_exits_0_exactly_when_the_file_loads(self, data):
        small = st.integers(-1, 6) | st.booleans() | st.sampled_from([1.0, 2.5, math.inf, math.nan])
        budgets = data.draw(st.lists(small, max_size=4) | JSON_VALUES)
        dim = data.draw(st.integers(0, 20) | JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pref.json"
            path.write_text(json.dumps({"budgets": budgets, "d": dim}))
            try:
                load_preference(path)
                loads = True
            except ValidationError:
                loads = False
            assert main(["prefvec", "--validate", str(path)]) == (0 if loads else 2)


class TestCensus:
    def test_census_from_side_file(self, tmp_path, capsys):
        write_container(tmp_path / "t1.tvc", [1.0, -3.0, 2.0])
        write_container(tmp_path / "t2.tvc", [-2.0, 1.0, 2.0])
        main(
            ["merge", "--method", "magmax", "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]
        )
        code = main(["census", "--assignment", str(tmp_path / "m.tvc.assignment.tvc")])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"counts": [1, 2]}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_side_file_exits_0_or_2(self, data):
        """Any flip, cut or extension of a side-file gives a census or exits 2."""
        buffer = io.BytesIO()
        write_assignment(buffer, Assignment(np.array([1, 3, 2, 3, 1]), np.array([1, 0, 1, 1, 0]), 3))
        raw = bytearray(buffer.getvalue())
        kind = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
        if kind == "flip":
            flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
            for index, mask in data.draw(st.lists(flips, min_size=1, max_size=4)):
                raw[index] ^= mask
        elif kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=64))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.assignment.tvc"
            path.write_bytes(bytes(raw))
            assert main(["census", "--assignment", str(path)]) in (0, 2)


class TestPipeline:
    def test_bundled_example_config(self, tmp_path):
        config = json.loads((REPO_ROOT / "configs" / "example_pipeline.json").read_text())
        config["report"] = {
            "csv": str(tmp_path / "report.csv"),
            "json": str(tmp_path / "report.json"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "report.json").read_text())
        run = summary["runs"][0]
        assert run["census"] == run["budgets"]
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "task,budget,census,loss"

    def test_malformed_json_exits_6(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["pipeline", "--config", str(bad)]) == 6

    def test_schema_error_exits_6(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"suite": {"num_tasks": 2, "dim": 8}}))
        assert main(["pipeline", "--config", str(bad)]) == 6

    @pytest.mark.parametrize(
        "key, override",
        [
            ("seed", {"seed": "x"}),
            ("num_tasks", {"suite": {"num_tasks": "a", "dim": 8}}),
            ("num_tasks", {"suite": {"dim": 8}}),
            ("lambda_merge", {"merge": {"lambda_merge": "z"}}),
            ("members", {"environment": {"members": 3, "mix": [1.0], "total_samples": 20}}),
            ("merge", {"merge": ["magmax"]}),
            ("seed", {"seed": True}),
            ("num_tasks", {"suite": {"num_tasks": "3", "dim": 8}}),
            ("dim", {"suite": {"num_tasks": 2, "dim": 12.9}}),
            ("samples_per_task", {"suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12.0}}),
            ("alpha", {"preference": {"source": "alpha", "alpha": "0.5"}}),
            ("alpha", {"preference": {"source": "alpha", "alpha": [0.5, True]}}),
            ("lambda_merge", {"merge": {"lambda_merge": False}}),
            ("members", {"environment": {"members": [1, 2.0], "mix": [1.0], "total_samples": 20}}),
            ("mix", {"environment": {"members": [1], "mix": ["1"], "total_samples": 20}}),
            ("max_iters", {"similarity_config": {"max_iters": 10.5}}),
            ("epsilon", {"similarity_config": {"epsilon": True}}),
            ("mmd_bandwidth", {"similarity_config": {"mmd_bandwidth": "1"}}),
            ("rounds", {"merge": {"rounds": "2"}}),
            ("rounds", {"merge": {"rounds": 2.0}}),
        ],
    )
    def test_wrongly_typed_field_exits_6(self, tmp_path, capsys, key, override):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "alpha", "alpha": 0.5},
            "report": {"json": str(tmp_path / "r.json")},
            **override,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 6
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, override",
        [
            ("csv", {"report": {"csv": 5}}),
            ("path", {"preference": {"source": "file", "path": 5}}),
            ("foo", {"similarity_config": {"foo": 1}}),
            ("epsilon", {"similarity_config": {"epsilon": "x"}}),
            ("lamda_merge", {"merge": {"method": "tunable", "lamda_merge": 0.5}}),
            ("metrc", {"preference": {"source": "similarity", "metrc": "ot"}}),
            ("member", {"environment": {"members": [1], "mix": [1.0], "total_samples": 20, "member": [2]}}),
        ],
    )
    def test_config_fault_exits_6_naming_key(self, tmp_path, capsys, key, override):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "label"},
            "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 20},
            "report": {"json": str(tmp_path / "r.json")},
            **override,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 6
        assert repr(key) in capsys.readouterr().err

    def test_integer_for_float_field_is_accepted(self, tmp_path):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1},
            "preference": {"source": "alpha", "alpha": [0, 1]},
            "report": {"json": str(tmp_path / "r.json")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_similarity_setting_exits_2(self, tmp_path, capsys, value):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "ot"},
            "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 20},
            "similarity_config": {"epsilon": value},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "epsilon must be finite and positive" in capsys.readouterr().err

    def test_unknown_method_exits_6_before_fitting(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("suite generated for an unknown merge method")

        monkeypatch.setattr("tvmerge.harness.generate_task_suite", fail)
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8},
            "merge": {"method": "random_mix"},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 6

    def test_seed_flag_overrides_config(self, tmp_path):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "alpha", "alpha": 0.5},
            "report": {"json": str(tmp_path / "r.json")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path), "--seed", "9"]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["seed"] == 9

    def test_rounds_key_is_ignored_with_one_warning(self, tmp_path, caplog, recwarn):
        reports = []
        for rounds in ({}, {"rounds": 0}, {"rounds": 7}):
            caplog.clear()
            config = {
                "seed": 1,
                "suite": {"num_tasks": 3, "dim": 12, "samples_per_task": 12},
                "merge": {"method": "tunable", "delta_mode": "cumulative", **rounds},
                "preference": {"source": "alpha", "alpha": 0.5},
                "report": {"json": str(tmp_path / f"r{len(reports)}.json")},
            }
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            assert main(["pipeline", "--config", str(path)]) == 0
            warned = [r.getMessage() for r in caplog.records if r.name == "tvmerge" and r.levelno == logging.WARNING]
            assert warned == (["config field 'rounds' is ignored; the seed alone keys the merge"] if rounds else [])
            reports.append((tmp_path / f"r{len(reports)}.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert "rounds" not in json.loads(reports[0])
        assert not recwarn.list

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "magmax"},
            "report": {"json": str(tmp_path / "r.json")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path), "--seed", seed]) == 2
        assert capsys.readouterr().err == "validation error: seed must fit in 64 unsigned bits\n"
        assert not (tmp_path / "r.json").exists()


class TestNonUtf8Input:
    @pytest.mark.parametrize("command", ["merge", "census"])
    def test_tensor_name_exits_2(self, tmp_path, capsys, command):
        write_container(tmp_path / "t.tvc", [1.0, 2.0])
        main(["merge", "--method", "magmax", "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t.tvc")])
        target = tmp_path / ("t.tvc" if command == "merge" else "m.tvc.assignment.tvc")
        data = bytearray(target.read_bytes())
        data[11] = 0xFF  # first byte of the first tensor name
        target.write_bytes(bytes(data))
        if command == "merge":
            argv = ["merge", "--method", "magmax", "--out", str(tmp_path / "x.tvc"), str(target)]
        else:
            argv = ["census", "--assignment", str(target)]
        assert main(argv) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--pref-file", "--sim-file", "--task", "--validate"])
    def test_json_file_exits_6(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"labels": ["\xff"]}')
        write_container(tmp_path / "t.tvc", [1.0, 2.0])
        argv = {
            "--config": ["pipeline", "--config", str(bad)],
            "--pref-file": ["merge", "--method", "tunable", "--pref-file", str(bad), "--seed", "1",
                            "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t.tvc")],
            "--sim-file": ["merge", "--method", "tunable", "--sim-file", str(bad), "--seed", "1",
                           "--out", str(tmp_path / "m.tvc"), str(tmp_path / "t.tvc")],
            "--task": ["sim", "--metric", "label", "--task", str(bad), "--meta", str(bad)],
            "--validate": ["prefvec", "--validate", str(bad)],
        }[flag]
        assert main(argv) == 6
        assert "UTF-8" in capsys.readouterr().err


class TestDeterminismUnderThreads:
    def run_merge(self, tmp_path, monkeypatch, threads, method, label):
        rng = np.random.default_rng(123)
        paths = []
        for index in range(4):
            path = tmp_path / f"{label}-{index}.tvc"
            if not path.exists():
                write_container(path, rng.normal(size=64).astype(np.float32))
            paths.append(str(path))
        out = tmp_path / f"{label}-merged-{threads}.tvc"
        monkeypatch.setenv("TVM_THREADS", str(threads))
        extra = ["--alpha", "0.7"] if method == "tunable" else []
        code = main(
            ["merge", "--method", method, *extra, "--seed", "77", "--out", str(out), *paths]
        )
        assert code == 0
        return (
            out.read_bytes(),
            Path(f"{out}.census.json").read_bytes(),
            Path(f"{out}.assignment.tvc").read_bytes(),
        )

    def test_merge_outputs_identical_across_thread_counts(self, tmp_path, monkeypatch):
        for method in ("tunable", "randmix"):
            one = self.run_merge(tmp_path, monkeypatch, 1, method, method)
            four = self.run_merge(tmp_path, monkeypatch, 4, method, method)
            assert one == four

    def test_pipeline_outputs_identical_across_thread_counts(self, tmp_path, monkeypatch):
        config = {
            "seed": 5,
            "suite": {"num_tasks": 3, "dim": 12, "samples_per_task": 20},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "ot"},
            "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 20, "meta_fraction": 0.1},
        }
        blobs = []
        for threads in (1, 4):
            monkeypatch.setenv("TVM_THREADS", str(threads))
            csv_out = tmp_path / f"report-{threads}.csv"
            json_out = tmp_path / f"report-{threads}.json"
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            code = main(
                ["pipeline", "--config", str(path), "--csv-out", str(csv_out), "--json-out", str(json_out)]
            )
            assert code == 0
            blobs.append(csv_out.read_bytes() + json_out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_invalid_thread_env_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TVM_THREADS", "many")
        (tmp_path / "labels.json").write_text(json.dumps({"labels": [1]}))
        code = main(
            ["sim", "--metric", "label", "--task", str(tmp_path / "labels.json"), "--meta", str(tmp_path / "labels.json")]
        )
        assert code == 4


class TestUsage:
    def test_unknown_flag_exits_4(self):
        assert main(["merge", "--method", "magmax", "--frobnicate"]) == 4

    def test_bad_log_level_exits_4(self, capsys):
        assert main(["--log-level", "bogus", "census", "--assignment", "x"]) == 4
        assert "--log-level" in capsys.readouterr().err

    def test_unknown_method_exits_4(self, tmp_path):
        write_container(tmp_path / "t.tvc", [1.0])
        assert main(["merge", "--method", "ties", "--out", "x", str(tmp_path / "t.tvc")]) == 4
