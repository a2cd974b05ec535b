import io
import json
import logging
import math
import os
import stat
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
    assignment_census,
    decode_container,
    encode_container,
    load_preference,
    merge,
    preference_from_alpha,
    read_assignment,
    write_assignment,
)
from tvmerge import cli, container, harness
from tvmerge.cli import main
from tvmerge.container import DTYPE_U16

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_container(path, values, name="w"):
    encode_container(ParameterSet({name: np.asarray(values, dtype=np.float32)}), path)


def write_embeddings(path, matrix):
    encode_container(ParameterSet({"emb": np.asarray(matrix, dtype=np.float32)}), path)


def tunable_merge_exit(tmp_path, flag, path):
    """Exit code of a seeded tunable merge of two 4-element task vectors, budgets from ``flag path``."""
    paths = [tmp_path / "t1.tvc", tmp_path / "t2.tvc"]
    for tau in paths:
        write_container(tau, [1.0, -2.0, 3.0, 4.0])
    argv = ["merge", "--method", "tunable", "--seed", "1", flag, str(path), "--out", str(tmp_path / "m.tvc")]
    return main([*argv, *map(str, paths)])


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

    # Every other method copies input bits, which hold no NaN, so only an average is scanned.
    @pytest.mark.parametrize("method", ["magmax", "tunable", "randmix"])
    def test_only_an_average_is_scanned_for_nan(self, tmp_path, monkeypatch, method):
        paths = write_block_inputs(tmp_path)
        want = merge_outputs(tmp_path, method, paths)

        def scan(*args):
            raise AssertionError("the merged vector was scanned for NaN")

        monkeypatch.setattr(cli, "_reject_nan", scan)
        assert merge_outputs(tmp_path, method, paths) == want

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

    def test_rounds_exits_4(self, tmp_path, capsys):
        write_container(tmp_path / "t1.tvc", [1.0, 2.0])
        out, tau = str(tmp_path / "m.tvc"), str(tmp_path / "t1.tvc")
        for argv in (
            ["--method", "magmax", "--rounds", "1", "--out", out, tau],
            ["--method", "tunable", "--alpha", "0.5", "--seed", "3", "--rounds", "1", "--out", out, tau],
            # ``1`` is taken as the input list, which leaves the real inputs over too: only the option is named.
            ["--rounds", "1", "--method", "magmax", "--out", out, tau, tau],
        ):
            assert main(["merge", *argv]) == 4
            assert capsys.readouterr().err == "usage error: unrecognized arguments: --rounds\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "t1.tvc"]

    @pytest.mark.parametrize("flag", ["--census-out", "--assignment-out"])
    def test_average_rejects_owner_map_outputs(self, tmp_path, capsys, flag):
        write_container(tmp_path / "t1.tvc", [2.0, 0.0])
        write_container(tmp_path / "t2.tvc", [0.0, 2.0])
        side = tmp_path / "side.out"
        argv = ["merge", "--method", "average", flag, str(side), "--out", str(tmp_path / "m.tvc")]
        assert main([*argv, str(tmp_path / "t1.tvc"), str(tmp_path / "t2.tvc")]) == 4
        assert capsys.readouterr().err == (
            f"usage error: {flag} does not apply to --method average: it has no owner map\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.tvc", "t2.tvc"]

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
        monkeypatch.setattr(container, "_read_whole", decode)
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
# 8-element blocks, these tensors (offsets 0, 1, 4 and 11 of 22) start
# mid-block and straddle block boundaries, and the last block is short.
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
    def test_small_blocks_give_the_same_bytes(self, tmp_path, monkeypatch, method):
        paths = write_block_inputs(tmp_path)
        want = merge_outputs(tmp_path, method, paths)
        monkeypatch.setattr(container, "_BLOCK", 8)
        assert merge_outputs(tmp_path, method, paths) == want

    @pytest.mark.parametrize("block", [8, None], ids=["block 8", "default block"])
    @pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
    @pytest.mark.parametrize("fault", BLOCK_FAULTS)
    def test_fault_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, fault, position, block):
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
        build, message = BLOCK_FAULTS[fault]
        paths = write_block_inputs(tmp_path, fault=build, position=position)
        for method in BLOCK_METHOD_ARGS:
            argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(tmp_path / "m.tvc"), *paths]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"validation error: {message}\n"
            assert not (tmp_path / "m.tvc").exists()

    # Every method reads its inputs in lockstep, one block of every input in
    # turn, with all six files open at once: a NaN in the first block of the
    # last input alone still exits 2, naming its tensor, and writes nothing.
    @pytest.mark.parametrize("block", [8, None], ids=["block 8", "default block"])
    def test_nan_in_the_first_block_of_the_last_of_six_inputs(self, tmp_path, capsys, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
        paths = write_block_inputs(tmp_path, num_tasks=6, fault=lambda r: with_nans(r, ("b", 1)), position=5)
        out = tmp_path / "m.tvc"
        for method in BLOCK_METHOD_ARGS:
            assert main(["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(out), *paths]) == 2
            assert capsys.readouterr().err == "validation error: tensor 'b': NaN payload rejected\n", method
            assert not any(path.name.startswith("m.tvc") for path in tmp_path.iterdir()), method

    # Of several faulty inputs, the one reported is the first that the one
    # reading order meets. Input 2 has a trailing byte, found at its end,
    # and input 5 a NaN in block 0 (of three 8-element blocks, the last cut
    # short): every method reads block 0 of every input first and reports
    # input 5.
    def test_the_first_fault_met_in_reading_order_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(container, "_BLOCK", 8)
        paths = write_block_inputs(tmp_path, num_tasks=6)
        Path(paths[1]).write_bytes(raw_container(block_layout_records(1)) + b"\0")
        Path(paths[4]).write_bytes(with_nans(block_layout_records(4), ("a", 0)))
        for method in BLOCK_METHOD_ARGS:
            argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(tmp_path / "m.tvc"), *paths]
            assert main(argv) == 2
            assert capsys.readouterr().err == "validation error: tensor 'a': NaN payload rejected\n", method

    # The owner map, the side-file and the census are streamed with the
    # merged blocks: their bytes are those that write_assignment and
    # assignment_census give for the library merge's assignment. Tunable
    # packs each block's flags into whole bytes, so its blocks are a
    # multiple of 8.
    @pytest.mark.parametrize(
        "method, block",
        [(method, block) for method in BLOCK_METHOD_ARGS for block in (5, None) if (method, block) != ("tunable", 5)]
        + [("tunable", 8)],
    )
    def test_side_file_and_census_are_those_of_the_library(self, tmp_path, monkeypatch, method, block):
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
        paths = write_block_inputs(tmp_path)
        written = merge_outputs(tmp_path, method, paths)
        taus = np.stack([decode_container(path).flat() for path in paths])
        pref = preference_from_alpha(0.5, len(paths), taus.shape[1]) if method == "tunable" else None
        _, assignment = merge(method, taus, pref, seed=4)
        if assignment is None:
            assert len(written) == 1
            return
        side_file = io.BytesIO()
        write_assignment(side_file, assignment)
        census = json.dumps({"counts": assignment_census(assignment).tolist()}, sort_keys=True) + "\n"
        assert written[1:] == [side_file.getvalue(), census.encode()]

    # Peak traced allocation of `tvmerge merge` over T=8 files of d=2**20
    # elements, in rows of 4d bytes: the live state of each strategy, with
    # every input streamed through one block buffer. Measured peaks: magmax
    # 0.43, tunable 1.34 (in its claim sweep), randmix 0.39, average 0.16;
    # holding the merged vector they were 1.71, 1.70, 2.45 and 1.10, and
    # holding the owner and provenance maps of magmax and randmix 0.81 and
    # 1.53.
    @pytest.mark.parametrize(
        "method, bound", [("magmax", 0.5), ("tunable", 2.6), ("randmix", 0.45), ("average", 1.5)]
    )
    def test_peak_allocation(self, tmp_path, method, bound):
        assert merge_peak_rows(tmp_path, method) < bound

    # Each merged block is written once it is finished, so these bounds hold
    # no merged vector (a row): magmax and randmix hold blocks alone, as
    # each block's owners are written to the side-file and counted in the
    # census as the block is, tunable its claim sweep's state, average
    # blocks alone.
    @pytest.mark.parametrize(
        "method, bound", [("magmax", 0.5), ("tunable", 1.6), ("randmix", 0.45), ("average", 0.3)]
    )
    def test_no_merged_vector_is_held(self, tmp_path, method, bound):
        assert merge_peak_rows(tmp_path, method) < bound

    # Magmax and randmix hold no d-sized array: at four times the elements,
    # their peak is within a quarter MiB of the same (measured: magmax 0.17
    # MiB lower, randmix the same to 1 KiB). Holding their owner and
    # provenance maps, it grew by about 6 and 15 MiB.
    @pytest.mark.parametrize("method", ["magmax", "randmix"])
    def test_peak_does_not_grow_with_the_element_count(self, tmp_path, method):
        small, large = (merge_peak_rows(tmp_path, method, dim) * dim * 4 for dim in (2**20, 2**22))
        assert large < small + 2**18


def merge_peak_rows(directory, method, dim=2**20):
    """Peak traced allocation of a merge of T=8 files of ``dim`` elements, in rows of 4 * ``dim`` bytes."""
    split = 3 * 40_000  # tensor "a" crosses a block boundary
    rng = np.random.default_rng(31)
    paths = []
    for task in range(8):
        flat = rng.normal(size=dim).astype(np.float32)
        pset = ParameterSet([("a", flat[:split].reshape(3, -1)), ("b", flat[split:])])
        encode_container(pset, directory / f"t{task}.tvc")
        paths.append(str(directory / f"t{task}.tvc"))
    del flat, pset
    argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(directory / "m.tvc"), *paths]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (dim * 4)


def part_files(directory):
    return sorted(path.name for path in Path(directory).iterdir() if path.name.endswith(".part"))


# Faults found after the first of three 8-element blocks is written: a NaN
# in the last block, and a trailing byte, found before the last block.
LATE_FAULTS = {
    "NaN in the last block": lambda r: with_nans(r, ("d", 10)),
    "trailing byte": lambda r: raw_container(r) + b"\0",
}


class TestMergeWritesByRename:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(container, "_BLOCK", 8)

    @pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
    @pytest.mark.parametrize("fault", LATE_FAULTS)
    @pytest.mark.parametrize("method", BLOCK_METHOD_ARGS)
    def test_a_fault_leaves_an_existing_out_as_it_was(self, tmp_path, capsys, method, fault, position):
        paths = write_block_inputs(tmp_path, fault=LATE_FAULTS[fault], position=position)
        out = tmp_path / "m.tvc"
        out.write_bytes(b"an earlier result")
        argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(out), *paths]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("validation error: ")
        assert out.read_bytes() == b"an earlier result"
        assert part_files(tmp_path) == []

    # The NaN lies in the last block, after two blocks are written.
    def test_an_average_nan_leaves_an_existing_out_as_it_was(self, tmp_path, capsys):
        paths = [tmp_path / "t1.tvc", tmp_path / "t2.tvc"]
        for path, sign in zip(paths, (1, -1)):
            write_container(path, [1.0] * 20 + [sign * np.inf])
        out = tmp_path / "m.tvc"
        out.write_bytes(b"an earlier result")
        assert main(["merge", "--method", "average", "--out", str(out), *map(str, paths)]) == 2
        assert capsys.readouterr().err == "validation error: tensor 'w': the average of +inf and -inf is NaN\n"
        assert out.read_bytes() == b"an earlier result"
        assert part_files(tmp_path) == []

    # Of an average NaN and an input fault, the one met first in block order
    # is reported: the NaN in block 0, not the later input's NaN in block 2.
    def test_an_average_nan_in_an_earlier_block_is_reported_first(self, tmp_path, capsys):
        paths = write_block_inputs(tmp_path, num_tasks=2)
        for task, value in enumerate((np.inf, -np.inf)):
            records = block_layout_records(task)
            records[0]["values"][0] = value
            Path(paths[task]).write_bytes(with_nans(records, ("d", 10)) if task else raw_container(records))
        assert main(["merge", "--method", "average", "--out", str(tmp_path / "m.tvc"), *paths]) == 2
        assert capsys.readouterr().err == "validation error: tensor 'a': the average of +inf and -inf is NaN\n"

    # Every input is read in full before the output is renamed over it.
    @pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
    @pytest.mark.parametrize("method", BLOCK_METHOD_ARGS)
    def test_out_may_name_an_input(self, tmp_path, method, position):
        paths = write_block_inputs(tmp_path)
        want = merge_outputs(tmp_path, method, paths)
        out = Path(paths[position])
        argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(out), *paths]
        assert main(argv) == 0
        written = [out] + [Path(f"{out}{suffix}") for suffix in (".assignment.tvc", ".census.json")]
        assert [path.read_bytes() for path in written if path.exists()] == want
        assert part_files(tmp_path) == []

    # A symlink at --out is replaced by the output, and what it named is left alone.
    def test_a_symlink_at_out_is_replaced(self, tmp_path):
        paths = write_block_inputs(tmp_path)
        want = merge_outputs(tmp_path, "magmax", paths)[0]
        target, out = tmp_path / "target", tmp_path / "m.tvc"
        target.write_bytes(b"left alone")
        out.symlink_to(target)
        assert main(["merge", "--method", "magmax", "--out", str(out), *paths]) == 0
        assert not out.is_symlink() and out.read_bytes() == want
        assert target.read_bytes() == b"left alone"

    # A FIFO at --out is written in place, as a file that is not regular must be.
    def test_a_fifo_at_out_is_written_in_place(self, tmp_path):
        paths = write_block_inputs(tmp_path)
        want = merge_outputs(tmp_path, "average", paths)[0]
        out = tmp_path / "m.tvc"
        os.mkfifo(out)
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)  # the output fits the pipe's buffer
        try:
            assert main(["merge", "--method", "average", "--out", str(out), *paths]) == 0
            assert os.read(reader, 1 << 16) == want
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(out).st_mode)
        assert part_files(tmp_path) == []

    # The census and the owner map are written through part files too, and
    # renamed into place before --out: an unwritable side-file exits 3 and
    # changes no output.
    @pytest.mark.parametrize("flag", ["--census-out", "--assignment-out"])
    @pytest.mark.parametrize("method", ["magmax", "tunable"])
    def test_an_unwritable_side_file_leaves_every_output_as_it_was(self, tmp_path, capsys, method, flag):
        paths = write_block_inputs(tmp_path)
        out = tmp_path / "m.tvc"
        earlier = {out: b"an earlier result"}
        for suffix in (".census.json", ".assignment.tvc"):
            earlier[Path(f"{out}{suffix}")] = f"an earlier {suffix}".encode()
        for path, data in earlier.items():
            path.write_bytes(data)
        unwritable = tmp_path / "missing" / "side-file"
        argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], flag, str(unwritable), "--out", str(out)]
        assert main([*argv, *paths]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert {path: path.read_bytes() for path in earlier} == earlier
        assert part_files(tmp_path) == []

    # Every output is opened at the first merged block, so an unwritable
    # side-file is reported ahead of a NaN in the last block.
    @pytest.mark.parametrize("flag", ["--census-out", "--assignment-out"])
    @pytest.mark.parametrize("method", ["magmax", "randmix"])
    def test_an_unwritable_side_file_is_reported_at_the_first_block(self, tmp_path, capsys, method, flag):
        paths = write_block_inputs(tmp_path, fault=LATE_FAULTS["NaN in the last block"], position=2)
        side_file, out = tmp_path / "missing" / "side", tmp_path / "m.tvc"
        argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], flag, str(side_file), "--out", str(out)]
        assert main([*argv, *paths]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not out.exists() and part_files(tmp_path) == []

    def test_side_files_are_renamed_before_out(self, tmp_path, monkeypatch):
        paths = write_block_inputs(tmp_path)
        want = merge_outputs(tmp_path, "magmax", paths)
        renamed, replace = [], os.replace

        def record(part, path):
            renamed.append(Path(path).name)
            replace(part, path)

        monkeypatch.setattr(os, "replace", record)
        assert merge_outputs(tmp_path, "magmax", paths) == want
        assert renamed == ["magmax.tvc.assignment.tvc", "magmax.tvc.census.json", "magmax.tvc"]
        assert part_files(tmp_path) == []

    # Each output is written through its own part file, so two outputs that
    # name one regular or missing file exit 4, naming both options, before
    # any input is read.
    @pytest.mark.parametrize(
        "flags, options",
        [
            (["--census-out", "side", "--assignment-out", "side"], "--census-out and --assignment-out"),
            (["--census-out", "m.tvc"], "--out and --census-out"),
            (["--assignment-out", "sub/../m.tvc.census.json"], "--census-out and --assignment-out"),
            (["--census-out", "link/side", "--assignment-out", "side"], "--census-out and --assignment-out"),
        ],
        ids=["side-files", "census at out", "assignment at the default census", "through a directory link"],
    )
    def test_two_outputs_at_one_path_exit_4(self, tmp_path, capsys, monkeypatch, flags, options):
        paths = write_block_inputs(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path)
        monkeypatch.chdir(tmp_path)
        read = []
        monkeypatch.setattr(cli, "_task_rows", lambda paths: read.append(paths))
        before = sorted(tmp_path.iterdir())
        assert main(["merge", "--method", "magmax", *flags, "--out", "m.tvc", *paths]) == 4
        assert capsys.readouterr().err.startswith(f"usage error: {options} name one file: ")
        assert read == [] and sorted(tmp_path.iterdir()) == before

    # A path that is not a regular file may be given to several outputs.
    def test_two_outputs_may_name_one_special_file(self, tmp_path):
        paths = write_block_inputs(tmp_path)
        argv = ["merge", "--method", "magmax", "--census-out", os.devnull, "--assignment-out", os.devnull]
        assert main([*argv, "--out", str(tmp_path / "m.tvc"), *paths]) == 0
        assert (tmp_path / "m.tvc").read_bytes() == merge_outputs(tmp_path, "magmax", paths)[0]
        assert part_files(tmp_path) == []

    # A side-file path that is not a regular file is written in place, as --out is.
    def test_a_special_side_file_is_written_in_place(self, tmp_path):
        paths = write_block_inputs(tmp_path)
        argv = ["merge", "--method", "magmax", "--census-out", os.devnull, "--out", str(tmp_path / "m.tvc"), *paths]
        assert main(argv) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert (tmp_path / "m.tvc").exists() and not (tmp_path / "m.tvc.census.json").exists()
        assert part_files(tmp_path) == []


class TestEmptyTensorName:
    # Headers are parsed without building specs, yet an empty name is still
    # rejected as a decode rejects it: once every record is read.
    @pytest.mark.parametrize("position", [0, 2], ids=["first", "later"])
    def test_an_empty_name_exits_2(self, tmp_path, capsys, position):
        paths = write_block_inputs(tmp_path, fault=lambda r: edited(r, 1, name=b""), position=position)
        for method in BLOCK_METHOD_ARGS:
            argv = ["merge", "--method", method, *BLOCK_METHOD_ARGS[method], "--out", str(tmp_path / "m.tvc"), *paths]
            assert main(argv) == 2
            assert capsys.readouterr().err == "validation error: tensor name must be non-empty\n"
            assert not (tmp_path / "m.tvc").exists() and part_files(tmp_path) == []
        with pytest.raises(ValidationError, match="^tensor name must be non-empty$"):
            decode_container(paths[position])

    @pytest.mark.parametrize("position", [0, 2], ids=["first", "later"])
    def test_a_truncated_later_record_is_reported_first(self, tmp_path, capsys, position):
        paths = write_block_inputs(tmp_path, fault=lambda r: edited(r, 1, name=b"")[:-1], position=position)
        message = "unexpected end of stream while reading payload of 'd'"
        assert main(["merge", "--method", "magmax", "--out", str(tmp_path / "m.tvc"), *paths]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        with pytest.raises(ValidationError) as decoded:
            decode_container(paths[position])
        assert str(decoded.value) == message


# taskvec and apply stream both inputs in lockstep through the merge's
# reader. With 8-element blocks, these 21 elements (tensors at offsets 0, 3
# and 10) cross block boundaries, and the last block is short.
PAIR_LAYOUT = (("a", (3,)), ("b", (7,)), ("c", (11,)))


def pair_records(seed):
    rng = np.random.default_rng(seed)
    values = [rng.normal(scale=100, size=dims).astype("<f4") for _, dims in PAIR_LAYOUT]
    return [{"name": name.encode(), "code": 0, "dims": dims, "values": v} for (name, dims), v in zip(PAIR_LAYOUT, values)]


def write_pair(directory, first=None, second=None):
    """Two inputs of PAIR_LAYOUT (``first`` and ``second`` override their bytes)."""
    paths = [directory / "first.tvc", directory / "second.tvc"]
    for seed, (path, raw) in enumerate(zip(paths, (first, second))):
        path.write_bytes(raw_container(pair_records(seed)) if raw is None else raw)
    return paths


# Faults in either input and their stderr (exit 2): the first met in lockstep
# order, as merge reports them.
PAIR_FAULTS = {
    "other layout": (lambda r: edited(r, 1, dims=(1, 7)), "shape mismatch: {second} has a different layout"),
    "NaN": (lambda r: with_nans(r, ("b", 6)), "tensor 'b': NaN payload rejected"),
    "truncated payload": (lambda r: raw_container(r)[:-1], "unexpected end of stream while reading payload of 'c'"),
}


class StreamsBothInputs:
    """Checks shared by taskvec and apply, which write ``combine(first, second)``."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(container, "_BLOCK", 8)

    def test_small_blocks_write_what_the_library_arithmetic_writes(self, tmp_path):
        paths = write_pair(tmp_path)
        out = tmp_path / "out.tvc"
        assert main(self.argv(*paths, out)) == 0
        first, second = (decode_container(path) for path in paths)
        want = io.BytesIO()
        encode_container(first.with_flat(self.combine(first.flat(), second.flat())), want)
        assert out.read_bytes() == want.getvalue()

    @pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("fault", PAIR_FAULTS)
    def test_fault_in_either_input_exits_2_naming_it(self, tmp_path, capsys, fault, position):
        build, message = PAIR_FAULTS[fault]
        raws = [None, None]
        raws[position] = build(pair_records(position))
        paths = write_pair(tmp_path, *raws)
        out = tmp_path / "out.tvc"
        assert main(self.argv(*paths, out)) == 2
        assert capsys.readouterr().err == f"validation error: {message.format(second=paths[1])}\n"
        assert not out.exists()

    # The output goes to a part file that is renamed over --out only at the
    # end, so a fault found after blocks are written leaves --out as it was.
    @pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("fault", ["NaN", "truncated payload"])
    def test_a_fault_leaves_an_existing_out_as_it_was(self, tmp_path, capsys, fault, position):
        raws = [None, None]
        raws[position] = PAIR_FAULTS[fault][0](pair_records(position))
        paths = write_pair(tmp_path, *raws)
        out = tmp_path / "out.tvc"
        out.write_bytes(b"an earlier result")
        assert main(self.argv(*paths, out)) == 2
        assert capsys.readouterr().err.startswith("validation error: ")
        assert out.read_bytes() == b"an earlier result"
        assert part_files(tmp_path) == []

    # Of two faults, the first met in lockstep order is reported: the NaN in
    # block 0 of the second input, not the one in the last block of the first.
    def test_the_first_fault_met_in_lockstep_order_is_reported(self, tmp_path, capsys):
        paths = write_pair(tmp_path, with_nans(pair_records(0), ("c", 10)), with_nans(pair_records(1), ("a", 0)))
        assert main(self.argv(*paths, tmp_path / "out.tvc")) == 2
        assert capsys.readouterr().err == "validation error: tensor 'a': NaN payload rejected\n"

    # The result is written only after both inputs are read.
    @pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
    def test_out_may_name_an_input(self, tmp_path, position):
        paths = write_pair(tmp_path)
        assert main(self.argv(*paths, tmp_path / "out.tvc")) == 0
        assert main(self.argv(*paths, paths[position])) == 0
        assert paths[position].read_bytes() == (tmp_path / "out.tvc").read_bytes()

    # Peak traced allocation over inputs of d=2**20 elements, at the default
    # block: the reader's block buffer, the output's block buffer and write
    # buffer and, in apply, one block of scaled tau. Measured: 2.49 blocks in
    # taskvec, 3.52 in apply. Holding the result vector took 64 blocks more,
    # and a whole-container decode and encode about three vectors.
    def test_peak_allocation(self, tmp_path, monkeypatch):
        monkeypatch.undo()  # of small_blocks
        dim, split = 2**20, 3 * 40_000  # tensor "a" crosses a block boundary
        rng = np.random.default_rng(8)
        paths = [tmp_path / "first.tvc", tmp_path / "second.tvc"]
        for path in paths:
            flat = rng.normal(size=dim).astype(np.float32)
            encode_container(ParameterSet([("a", flat[:split].reshape(3, -1)), ("b", flat[split:])]), path)
        del flat
        tracemalloc.start()
        try:
            assert main(self.argv(*paths, tmp_path / "out.tvc")) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * container._BLOCK * 4


class TestTaskvec(StreamsBothInputs):
    combine = staticmethod(np.subtract)

    @staticmethod
    def argv(theta, theta0, out):
        return ["taskvec", "--theta", str(theta), "--theta0", str(theta0), "--out", str(out)]

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

    def test_identical_models_give_positive_zeros(self, tmp_path):
        records = pair_records(0)
        records[0]["values"][1] = -0.0
        paths = write_pair(tmp_path, raw_container(records), raw_container(records))
        out = tmp_path / "tau.tvc"
        assert main(self.argv(*paths, out)) == 0
        assert not decode_container(out).flat().view(np.uint32).any()

    def test_infinity_minus_infinity_exits_2(self, tmp_path, capsys):
        write_container(tmp_path / "a.tvc", [1.0, np.inf])
        out = tmp_path / "tau.tvc"
        assert main(self.argv(tmp_path / "a.tvc", tmp_path / "a.tvc", out)) == 2
        assert capsys.readouterr().err == "validation error: tensor 'w': NaN payload rejected\n"
        assert not out.exists()


class TestApply(StreamsBothInputs):
    combine = staticmethod(lambda base, tau: base + np.float32(0.3) * tau)

    @staticmethod
    def argv(theta0, tau, out, lambda_merge="0.3"):
        return ["apply", "--theta0", str(theta0), "--tau", str(tau), "--out", str(out), "--lambda-merge", lambda_merge]

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

    def test_lambda_zero_keeps_the_base_bitwise(self, tmp_path):
        paths = write_pair(tmp_path)
        out = tmp_path / "theta.tvc"
        assert main(self.argv(*paths, out, "0")) == 0
        assert out.read_bytes() == paths[0].read_bytes()

    # At lambda 0, tau is still read and checked, but theta0 is written as it
    # is: 0 * inf would be NaN, and -0.0 + 0 * tau would be +0.0.
    def test_lambda_zero_gives_theta0_over_an_infinite_tau(self, tmp_path):
        write_container(tmp_path / "base.tvc", [1.0, 2.0, -0.0])
        write_container(tmp_path / "tau.tvc", [np.inf, 1.0, 3.0])
        out = tmp_path / "theta.tvc"
        assert main(self.argv(tmp_path / "base.tvc", tmp_path / "tau.tvc", out, "0")) == 0
        assert out.read_bytes() == (tmp_path / "base.tvc").read_bytes()

    def test_lambda_one_recovers_the_fine_tuned_model_bitwise(self, tmp_path):
        # Integer values, so that tau = tuned - base is exact.
        pairs = [pair_records(seed) for seed in (0, 1)]
        for record in pairs[0] + pairs[1]:
            record["values"] = np.round(record["values"])
        base, tuned = write_pair(tmp_path, *map(raw_container, pairs))
        tau, out = tmp_path / "tau.tvc", tmp_path / "theta.tvc"
        assert main(TestTaskvec.argv(tuned, base, tau)) == 0
        assert main(self.argv(base, tau, out, "1")) == 0
        assert out.read_bytes() == tuned.read_bytes()

    # λ is checked before any input is read, so a missing input does not hide it.
    @pytest.mark.parametrize("lambda_merge", ["-0.1", "1.1", "nan"])
    def test_lambda_outside_0_1_exits_2_before_reading(self, tmp_path, capsys, lambda_merge):
        out = tmp_path / "theta.tvc"
        assert main(self.argv(tmp_path / "missing.tvc", tmp_path / "missing.tvc", out, lambda_merge)) == 2
        assert capsys.readouterr().err == f"validation error: lambda_merge {float(lambda_merge)} outside [0, 1]\n"
        assert not out.exists()

    def test_opposite_infinities_exit_2(self, tmp_path, capsys):
        write_container(tmp_path / "base.tvc", [1.0, np.inf])
        write_container(tmp_path / "tau.tvc", [1.0, -np.inf])
        out = tmp_path / "theta.tvc"
        assert main(self.argv(tmp_path / "base.tvc", tmp_path / "tau.tvc", out)) == 2
        assert capsys.readouterr().err == "validation error: tensor 'w': NaN payload rejected\n"
        assert not out.exists()


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

    def test_underflowing_bandwidth_exits_5(self, tmp_path, capsys):
        write_embeddings(tmp_path / "task1.tvc", [[0.0, 1.0], [1.0, 0.0]])
        code = main(
            ["sim", "--metric", "mmd", "--task", str(tmp_path / "task1.tvc"), "--meta", str(tmp_path / "task1.tvc"), "--bandwidth", "1e-300"]
        )
        assert code == 5
        assert capsys.readouterr().err == "degenerate input: bandwidth 1e-300 is too small: 2 * bandwidth**2 underflows to 0\n"

    def test_missing_meta_exits_3(self, tmp_path):
        write_embeddings(tmp_path / "task1.tvc", np.ones((2, 2)))
        code = main(
            ["sim", "--metric", "ot", "--task", str(tmp_path / "task1.tvc"), "--meta", str(tmp_path / "missing.tvc")]
        )
        assert code == 3

    def test_missing_later_task_exits_3_naming_it(self, tmp_path, capsys):
        write_embeddings(tmp_path / "task1.tvc", np.ones((2, 2)))
        missing, out = tmp_path / "missing.tvc", tmp_path / "sims.json"
        code = main(
            ["sim", "--metric", "mmd", "--task", str(tmp_path / "task1.tvc"), "--task", str(missing), "--meta", str(tmp_path / "task1.tvc"), "--out", str(out)]
        )
        assert code == 3
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    def test_missing_meta_is_named_before_a_missing_task(self, tmp_path, capsys):
        # The meta file is read first, and each task file only when it is scored.
        task, meta, out = tmp_path / "task.tvc", tmp_path / "meta.tvc", tmp_path / "sims.json"
        code = main(["sim", "--metric", "ot", "--task", str(task), "--meta", str(meta), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(meta) in err and str(task) not in err
        assert not out.exists()

    def test_repeated_meta_exits_4(self, tmp_path, capsys):
        emb = str(tmp_path / "emb.tvc")
        write_embeddings(emb, np.ones((2, 2)))
        out = tmp_path / "sims.json"
        code = main(["sim", "--metric", "ot", "--task", emb, "--meta", emb, "--meta", emb, "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == "usage error: argument --meta: given more than once\n"
        assert not out.exists()

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

    # Leftover units go to the largest remainders, not to the lowest task indices.
    def test_alpha_leftovers_go_to_the_largest_remainders(self, capsys):
        assert main(["prefvec", "--alpha", "0.5", "--tasks", "4", "--dim", "97"]) == 0
        assert json.loads(capsys.readouterr().out) == {"budgets": [6, 13, 26, 52], "d": 97}

    def test_sim_file_leftovers_go_to_the_largest_remainders(self, tmp_path, capsys):
        sim = tmp_path / "sims.json"
        sim.write_text(json.dumps({"scores": [0.5, 0.3, 0.2]}))
        assert main(["prefvec", "--sim-file", str(sim), "--dim", "2000"]) == 0
        assert json.loads(capsys.readouterr().out) == {"budgets": [1000, 600, 400], "d": 2000}

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

    @pytest.mark.parametrize("alpha", ["0.5", "0"])
    def test_task_count_past_the_array_limit_exits_2(self, tmp_path, capsys, alpha):
        out = tmp_path / "pref.json"
        assert main(["prefvec", "--alpha", alpha, "--tasks", str(10**20), "--dim", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"validation error: num_tasks {10**20} is too large for a numpy array\n"
        assert not out.exists()

    def test_stray_argument_is_named(self, capsys):
        assert main(["prefvec", "--alpha", "2", "--tasks", "5", "--dim", "100", "stray"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "usage error: unrecognized arguments: stray\n" and not captured.out

    def test_validate_rejects_out(self, tmp_path, capsys):
        pref = tmp_path / "pref.json"
        pref.write_text(json.dumps({"budgets": [4, 3], "d": 7}))
        out = tmp_path / "v.json"
        assert main(["prefvec", "--validate", str(pref), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "usage error: --out does not apply to --validate\n" and not captured.out
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--sim-file", "--validate"])
    def test_tasks_outside_alpha_mode_exits_4(self, tmp_path, capsys, mode):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"scores": [1.0, 1.0], "budgets": [4, 3], "d": 7}))
        out = tmp_path / "pref.json"
        assert main(["prefvec", mode, str(path), "--tasks", "2", "--dim", "7", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "usage error: --tasks only applies to --alpha\n" and not captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, payload",
        [
            ("--validate", [4, 3]),
            ("--validate", {"budgets": ["a"], "d": 1}),
            ("--sim-file", {"scores": ["x"]}),
            ("--sim-file", {"scores": [10**400, 1]}),
            ("--sim-file", {"scores": [True, "1.5"]}),
        ],
    )
    def test_wrongly_typed_json_exits_2(self, tmp_path, capsys, flag, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(["prefvec", flag, str(path), "--dim", "1"]) == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err

    @pytest.mark.parametrize(
        "scores, message",
        [
            ([10**400, 1], "similarity scores must be finite"),
            ([True, "1.5"], "similarity scores must be numbers"),
        ],
        ids=["400-digit", "boolean-and-string"],
    )
    def test_score_faults_exit_2_in_prefvec_and_merge(self, tmp_path, capsys, scores, message):
        sim = tmp_path / "sims.json"
        sim.write_text(json.dumps({"scores": scores}))
        assert main(["prefvec", "--sim-file", str(sim), "--dim", "4"]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert tunable_merge_exit(tmp_path, "--sim-file", sim) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"


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
    "null budgets": ({"budgets": None, "d": 4}, "budgets must be a list, got NoneType"),
    "null d": ({"budgets": [2, 2], "d": None}, "non-integer element count d None"),
}

# Budget files that both commands reject as a whole, with the same line.
MALFORMED_PREF_FILES = {
    "list": ([1, 2], "preference file must be a JSON object"),
    "string": ("x", "preference file must be a JSON object"),
    "no-d": ({"budgets": [1, 2]}, "preference file must contain 'budgets' and 'd'"),
}


class TestPrefvecValidateAgreesWithMerge:
    @pytest.mark.parametrize("case", REJECTED_PREF_FILES)
    def test_rejected_file_exits_2_in_both(self, tmp_path, capsys, case):
        payload, message = REJECTED_PREF_FILES[case]
        path = tmp_path / "pref.json"
        path.write_text(json.dumps(payload))
        assert main(["prefvec", "--validate", str(path)]) == 2
        assert capsys.readouterr().err == f"{message}\n"
        assert tunable_merge_exit(tmp_path, "--pref-file", path) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize("case", MALFORMED_PREF_FILES)
    def test_malformed_file_prints_the_same_line_in_both(self, tmp_path, capsys, case):
        payload, message = MALFORMED_PREF_FILES[case]
        path = tmp_path / "pref.json"
        path.write_text(json.dumps(payload))
        assert main(["prefvec", "--validate", str(path)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert tunable_merge_exit(tmp_path, "--pref-file", path) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_validate_exits_0_exactly_when_the_file_loads(self, data):
        small = st.integers(-1, 6) | st.booleans() | st.sampled_from([1.0, 2.5, math.inf, math.nan])
        budgets = st.lists(small, max_size=4) | JSON_VALUES
        dim = st.integers(0, 20) | JSON_VALUES
        keyed = st.dictionaries(st.sampled_from(["budgets", "d", "x"]), JSON_VALUES, max_size=3)
        payload = data.draw(st.fixed_dictionaries({"budgets": budgets, "d": dim}) | keyed | JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pref.json"
            path.write_text(json.dumps(payload))
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

    @pytest.mark.parametrize("shape", [(2,), (2, 2)], ids=["2", "2x2"])
    def test_num_tasks_of_more_than_one_value_exits_2(self, tmp_path, capsys, shape):
        maps = {"owner": np.array([1, 2]), "provenance": np.array([1, 1]), "num_tasks": np.full(shape, 2)}
        layout = container._layout([(name, a.shape) for name, a in maps.items()], DTYPE_U16)
        path = tmp_path / "m.assignment.tvc"
        with open(path, "wb") as stream:
            container._writer(stream, *layout, DTYPE_U16)(np.concatenate([a.ravel() for a in maps.values()]))
        assert main(["census", "--assignment", str(path)]) == 2
        size = math.prod(shape)
        assert capsys.readouterr().err == f"validation error: assignment file record 'num_tasks' holds {size} values, not 1\n"

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

    def example_config(self, directory, report=None):
        config = json.loads((REPO_ROOT / "configs" / "example_pipeline.json").read_text())
        config["report"] = report or {}
        path = directory / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_reports_commit_together_when_one_cannot_be_written(self, tmp_path, capsys):
        csv_out = tmp_path / "r.csv"
        csv_out.write_text("kept\n")
        json_out = tmp_path / "missing" / "r.json"
        argv = ["pipeline", "--config", self.example_config(tmp_path), "--csv-out", str(csv_out)]
        assert main([*argv, "--json-out", str(json_out)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert csv_out.read_text() == "kept\n"
        assert part_files(tmp_path) == []

    @pytest.mark.parametrize("given", [True, False], ids=["options", "config"])
    def test_two_reports_naming_one_file_exit_4_before_the_fit(self, tmp_path, capsys, monkeypatch, given):
        monkeypatch.setattr(cli, "run_pipeline", lambda config: pytest.fail("the pipeline ran"))
        same = str(tmp_path / "same")
        if given:
            argv = ["pipeline", "--config", self.example_config(tmp_path), "--csv-out", same, "--json-out", same]
            names = "--csv-out and --json-out"
        else:
            argv = ["pipeline", "--config", self.example_config(tmp_path, {"csv": same, "json": same})]
            names = "report.csv and report.json"
        assert main(argv) == 4
        assert capsys.readouterr().err == f"usage error: {names} name one file: {same}\n"
        assert not Path(same).exists()

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
            ("alpha", {"preference": {"source": "alpha", "alpha": []}}),
            ("emd", {"preference": {"source": "similarity", "metric": "emd"}}),
            ("emd", {"preference": {"source": "alpha", "alpha": 0.5, "metric": "emd"}}),
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

    # The ids of the epsilon cases predate the suite cases.
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("similarity_config", "epsilon", float("nan"), "epsilon must be finite and positive"),
            ("similarity_config", "epsilon", float("inf"), "epsilon must be finite and positive"),
            ("suite", "noise_sigma", float("nan"), "noise_sigma must be finite and >= 0"),
            ("suite", "noise_sigma", float("inf"), "noise_sigma must be finite and >= 0"),
            ("suite", "cluster_separation", float("nan"), "cluster_separation must be finite"),
            ("suite", "cluster_separation", float("inf"), "cluster_separation must be finite"),
            # JSON's NaN and Infinity literals fail neither the sign nor the sum check of a mix.
            ("environment", "mix", [float("nan"), 1.0], "mixing ratios must be finite and nonnegative"),
            ("environment", "mix", [float("inf"), 1.0], "mixing ratios must be finite and nonnegative"),
        ],
        ids=[
            "nan", "inf", "noise_sigma-nan", "noise_sigma-inf", "cluster_separation-nan", "cluster_separation-inf",
            "mix-NaN", "mix-Infinity",
        ],
    )
    def test_non_finite_similarity_setting_exits_2(self, tmp_path, capsys, section, key, value, message):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "ot"},
            "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 20},
            "similarity_config": {},
        }
        config[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    # Each request is far beyond any address space, so it fails at once and allocates nothing.
    @pytest.mark.parametrize(
        "section, key",
        [("suite", "dim"), ("suite", "samples_per_task"), ("environment", "total_samples")],
        ids=["dim", "samples_per_task", "total_samples"],
    )
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, section, key):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "label"},
            "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 20},
        }
        config[section][key] = 10**15
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("validation error: out of memory: Unable to allocate")

    # Counts past numpy's array size limit exit 2 naming their field, and nothing is written.
    @pytest.mark.parametrize("value", [2**63 - 1, 2**63, 10**20])
    @pytest.mark.parametrize(
        "section, key",
        [("suite", "num_tasks"), ("suite", "dim"), ("suite", "samples_per_task"), ("environment", "total_samples")],
        ids=["num_tasks", "dim", "samples_per_task", "total_samples"],
    )
    def test_count_past_the_array_limit_exits_2_naming_it(self, tmp_path, capsys, section, key, value):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "label"},
            "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 20},
        }
        config[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["pipeline", "--config", str(path), "--csv-out", str(tmp_path / "r.csv"), "--json-out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"validation error: {key} {value} is too large for a numpy array\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    # The environment is checked before the fit: with the fit made to fail, an
    # invalid environment still exits 2 with its own message.
    @pytest.mark.parametrize(
        "environment, message",
        [
            ({"members": [1, 9], "mix": [0.5, 0.5], "total_samples": 20}, "unknown member task ids [9]"),
            (
                {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 2**63},
                f"total_samples {2**63} is too large for a numpy array",
            ),
        ],
        ids=["unknown member", "total_samples"],
    )
    def test_invalid_environment_exits_2_before_the_fit(self, tmp_path, capsys, monkeypatch, environment, message):
        def fit(*args):
            raise AssertionError("the suite was fitted")

        monkeypatch.setattr(harness, "sequential_finetune_analog", fit)
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "label"},
            "environment": environment,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @staticmethod
    def alpha_config(tmp_path, **suite):
        config = {
            "seed": 1,
            "suite": {"num_tasks": 2, "dim": 8, "samples_per_task": 12, **suite},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "alpha", "alpha": 0.5},
            "report": {"json": str(tmp_path / "r.json")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    # Two tasks: the largest label is 2 * classes_per_task - 1, so 2**62 is the last value that fits.
    @pytest.mark.parametrize("classes", [2**62 + 1, 10**30], ids=["int64-plus-one", "1e30"])
    def test_labels_beyond_int64_exit_2_naming_the_field(self, tmp_path, capsys, monkeypatch, classes):
        def fail(*args, **kwargs):
            raise AssertionError("task fitted for an unrepresentable label")

        monkeypatch.setattr("tvmerge.harness.sequential_finetune_analog", fail)
        assert main(["pipeline", "--config", str(self.alpha_config(tmp_path, classes_per_task=classes))]) == 2
        assert capsys.readouterr().err == (
            f"validation error: classes_per_task {classes} is too large: "
            "labels up to num_tasks * classes_per_task - 1 must fit in int64\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_largest_int64_label_runs(self, tmp_path):
        assert main(["pipeline", "--config", str(self.alpha_config(tmp_path, classes_per_task=2**62))]) == 0

    def test_non_finite_loss_exits_2_naming_the_task(self, tmp_path, capsys):
        # Noise of 1e200 keeps the targets finite, but its square overflows.
        assert main(["pipeline", "--config", str(self.alpha_config(tmp_path, noise_sigma=1e200))]) == 2
        assert capsys.readouterr().err == "validation error: task 1: loss inf is not finite\n"
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_noise_exits_2_naming_noise_sigma(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("task fitted on overflowed targets")

        monkeypatch.setattr("tvmerge.harness.sequential_finetune_analog", fail)
        assert main(["pipeline", "--config", str(self.alpha_config(tmp_path, noise_sigma=1e308))]) == 2
        assert capsys.readouterr().err == (
            "validation error: noise_sigma 1e+308 is too large: the target noise overflows\n"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("separation", [1e308, -1e308])
    def test_overflowing_design_is_singular(self, tmp_path, capsys, separation):
        assert main(["pipeline", "--config", str(self.alpha_config(tmp_path, cluster_separation=separation))]) == 2
        assert capsys.readouterr().err == "validation error: task 1: singular restricted normal equations\n"

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


JSON_READERS = ["--config", "--pref-file", "--sim-file", "--task", "--validate"]
# Each fault's test id suffix, its bytes and a fragment of its message.
JSON_FAULTS = [
    ("", b'{"labels": ["\xff"]}', "UTF-8"),
    # Python converts integer literals of at most 4300 digits.
    ("-5000 digits", b'{"labels": [' + b"1" * 5000 + b"]}", "4300 digits"),
]


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

    @pytest.mark.parametrize(
        "flag, payload, message",
        [
            pytest.param(flag, payload, message, id=flag + suffix)
            for suffix, payload, message in JSON_FAULTS
            for flag in JSON_READERS
        ],
    )
    def test_json_file_exits_6(self, tmp_path, capsys, flag, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
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
        assert message in capsys.readouterr().err


class TestTwoRunsGiveTheSameBytes:
    def run_merge(self, tmp_path, run, method, label):
        rng = np.random.default_rng(123)
        paths = []
        for index in range(4):
            path = tmp_path / f"{label}-{index}.tvc"
            if not path.exists():
                write_container(path, rng.normal(size=64).astype(np.float32))
            paths.append(str(path))
        out = tmp_path / f"{label}-merged-{run}.tvc"
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

    def test_merge_outputs_identical_across_runs(self, tmp_path):
        for method in ("tunable", "randmix"):
            first = self.run_merge(tmp_path, 1, method, method)
            second = self.run_merge(tmp_path, 2, method, method)
            assert first == second

    def test_pipeline_outputs_identical_across_runs(self, tmp_path):
        config = {
            "seed": 5,
            "suite": {"num_tasks": 3, "dim": 12, "samples_per_task": 20},
            "merge": {"method": "tunable", "lambda_merge": 1.0},
            "preference": {"source": "similarity", "metric": "ot"},
            "environment": {"members": [1, 2], "mix": [0.5, 0.5], "total_samples": 20, "meta_fraction": 0.1},
        }
        blobs = []
        for run in (1, 2):
            csv_out = tmp_path / f"report-{run}.csv"
            json_out = tmp_path / f"report-{run}.json"
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            code = main(
                ["pipeline", "--config", str(path), "--csv-out", str(csv_out), "--json-out", str(json_out)]
            )
            assert code == 0
            blobs.append(csv_out.read_bytes() + json_out.read_bytes())
        assert blobs[0] == blobs[1]


class TestUsage:
    def test_unknown_flag_exits_4(self):
        assert main(["merge", "--method", "magmax", "--frobnicate"]) == 4

    def test_bad_log_level_exits_4(self, capsys):
        assert main(["--log-level", "bogus", "census", "--assignment", "x"]) == 4
        assert "--log-level" in capsys.readouterr().err

    def test_unknown_method_exits_4(self, tmp_path):
        write_container(tmp_path / "t.tvc", [1.0])
        assert main(["merge", "--method", "ties", "--out", "x", str(tmp_path / "t.tvc")]) == 4
