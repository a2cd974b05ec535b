"""Command-line front end: taskvec, merge, apply, sim, prefvec, census, pipeline.

Exit codes are stable API: 0 ok, 2 validation, 3 I/O, 4 usage,
5 numeric degenerate, 6 config parse.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import stat
import sys
from contextlib import suppress
from dataclasses import asdict, fields
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from . import __version__
from . import container
from .container import _WRITE_BUFFER, LayoutReader, _reject_nan, decode_container
from .errors import (
    ConfigError,
    DegenerateInputError,
    UsageError,
    ValidationError,
)
from .harness import PipelineConfig, run_pipeline
from .merging import (
    MERGE_METHODS,
    RESIDUAL_RANDOM,
    Rows,
    _lockstep,
    _merge_blocks,
    assignment_census,
    read_assignment,
    write_assignment,
)
from .preference import (
    SimilarityVector,
    _read_budgets,
    load_preference,
    preference_from_alpha,
    preference_from_similarities,
    read_json,
    read_json_object,
    save_preference,
)
from .similarity import METRICS, EmbeddingSet, LabelHistogram, OTConfig, similarity_vector

log = logging.getLogger("tvmerge")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_USAGE = 4
EXIT_DEGENERATE = 5
EXIT_CONFIG = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


class _Once(argparse.Action):
    """Stores the option's value, and rejects the option given a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tvmerge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tvmerge {__version__}")
    levels = ("debug", "info", "warning", "error")
    parser.add_argument("--log-level", default="warning", choices=levels)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("taskvec", help="subtract a base model from a fine-tuned model")
    p.add_argument("--theta", required=True, help="fine-tuned model container")
    p.add_argument("--theta0", required=True, help="base model container")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_taskvec)

    p = sub.add_parser("merge", help="merge task-vector containers")
    p.add_argument("taus", nargs="+", help="task vector containers, task order")
    p.add_argument("--method", required=True, choices=MERGE_METHODS)
    p.add_argument("--out", required=True, help="merged container path")
    p.add_argument("--census-out", help="census JSON (default: <out>.census.json)")
    p.add_argument("--assignment-out", help="owner map side-file (default: <out>.assignment.tvc)")
    p.add_argument("--pref-file", help="budgets JSON for tunable merging")
    p.add_argument("--alpha", type=float, help="geometric budget schedule for tunable merging")
    p.add_argument("--sim-file", help="similarity scores JSON for tunable merging")
    p.add_argument("--seed", type=int, help="required for tunable and randmix")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("apply", help="add a scaled task vector onto a base model")
    p.add_argument("--theta0", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda-merge", type=float, default=0.5, dest="lambda_merge")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("sim", help="score tasks against a meta dataset")
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--task", action="append", required=True, help="repeat once per task")
    p.add_argument("--meta", action=_Once, required=True, help="the one meta set every task is scored against")
    p.add_argument("--out", help="similarity JSON (default: stdout)")
    solver = p.add_argument_group(
        "solver settings", "a setting not given keeps its OTConfig default", argument_default=argparse.SUPPRESS
    )
    for setting in fields(OTConfig):
        flag = "--bandwidth" if setting.name == "mmd_bandwidth" else "--" + setting.name.replace("_", "-")
        kind = float if setting.default is None else type(setting.default)
        solver.add_argument(flag, type=kind, dest=setting.name)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("prefvec", help="build or validate a budgets file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float)
    group.add_argument("--sim-file")
    group.add_argument("--validate", metavar="PREF_FILE")
    p.add_argument("--tasks", type=int, help="task count (alpha mode)")
    p.add_argument("--dim", type=int, help="total element count")
    p.add_argument("--out")
    p.set_defaults(func=cmd_prefvec)

    p = sub.add_parser("census", help="per-task element counts of an assignment")
    p.add_argument("--assignment", required=True)
    p.add_argument("--out", help="census JSON (default: stdout)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("pipeline", help="run the synthetic pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--csv-out", help="overrides report.csv from the config")
    p.add_argument("--json-out", help="overrides report.json from the config")
    p.set_defaults(func=cmd_pipeline)
    return parser


def cmd_taskvec(args) -> int:
    _combine(args.theta, args.theta0, np.subtract, args.out)
    return EXIT_OK


def cmd_merge(args) -> int:
    sources = [s for s in ("pref_file", "alpha", "sim_file") if getattr(args, s) is not None]
    if args.method == "tunable":
        if len(sources) != 1:
            raise UsageError(
                "tunable merging needs exactly one of --pref-file, --alpha, --sim-file"
            )
    elif sources:
        raise UsageError(f"--{sources[0].replace('_', '-')} only applies to --method tunable")
    if args.method in ("tunable", "randmix") and args.seed is None:
        raise UsageError(f"--seed is required for --method {args.method}")
    if args.method == "average":
        for flag in ("census-out", "assignment-out"):
            if getattr(args, flag.replace("-", "_")) is not None:
                raise UsageError(f"--{flag} does not apply to --method average: it has no owner map")
    outputs = {"--out": args.out}
    if args.method != "average":
        outputs["--census-out"] = args.census_out or f"{args.out}.census.json"
        outputs["--assignment-out"] = args.assignment_out or f"{args.out}.assignment.tvc"
    _check_distinct(outputs)

    layout, rows = _task_rows(args.taus)
    log.debug("merge: %d tasks, %d elements, method %s", rows.count, rows.dim, args.method)
    pref = None
    if args.pref_file is not None:
        pref = load_preference(args.pref_file)
    elif args.alpha is not None:
        pref = preference_from_alpha(args.alpha, rows.count, rows.dim)
    elif args.sim_file is not None:
        pref = preference_from_similarities(_read_sim_file(args.sim_file), rows.dim)
    # Only an average can make a NaN, of +inf and -inf: the others copy input bits.
    nan = "the average of +inf and -inf is NaN" if args.method == "average" else None
    with _Output(layout, args.out, nan) as output:
        assignment = _merge_blocks(rows, args.method, pref, args.seed or 0, output)
        if assignment is not None:
            census = assignment_census(assignment)
            log.debug("census: %s", " ".join(str(c) for c in census))
            if args.method == "tunable" and log.isEnabledFor(logging.DEBUG):
                residual = np.mean(assignment.provenance == RESIDUAL_RANDOM)
                log.debug("residual fraction: %.6g", residual)
            with output.open(outputs["--census-out"]) as stream:
                stream.write(_census_json(census).encode())
            with output.open(outputs["--assignment-out"]) as stream:
                write_assignment(stream, assignment)
    return EXIT_OK


def cmd_apply(args) -> int:
    if not 0.0 <= args.lambda_merge <= 1.0:
        raise ValidationError(f"lambda_merge {args.lambda_merge} outside [0, 1]")
    lam = np.float32(args.lambda_merge)
    _combine(args.theta0, args.tau, lambda base, tau, out: np.add(base, lam * tau, out=out), args.out)
    return EXIT_OK


def cmd_sim(args) -> int:
    cfg = OTConfig(**{f.name: getattr(args, f.name) for f in fields(OTConfig) if hasattr(args, f.name)})
    read = _read_labels if args.metric == "label" else _read_embeddings
    # The meta file is read first; each task file is read only when it is scored.
    meta = read(args.meta)
    scores = similarity_vector((read(path) for path in args.task), meta, args.metric, cfg)
    payload = json.dumps(
        {
            "scores": list(scores.scores),
            "metric": args.metric,
            "config": asdict(cfg),
        },
        sort_keys=True,
    )
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def cmd_prefvec(args) -> int:
    if args.tasks is not None and args.alpha is None:
        raise UsageError("--tasks only applies to --alpha")
    if args.validate is not None:
        if args.out is not None:
            raise UsageError("--out does not apply to --validate")
        _, violations = _read_budgets(args.validate, args.dim)
        if violations:
            print("\n".join(violations), file=sys.stderr)
            return EXIT_VALIDATION
        print("ok")
        return EXIT_OK

    if args.dim is None:
        raise UsageError("--dim is required to build a preference vector")
    if args.alpha is not None:
        if args.tasks is None:
            raise UsageError("--tasks is required with --alpha")
        pref = preference_from_alpha(args.alpha, args.tasks, args.dim)
    else:
        pref = preference_from_similarities(_read_sim_file(args.sim_file), args.dim)
    if args.out:
        save_preference(args.out, pref)
    else:
        print(json.dumps({"budgets": list(pref.budgets), "d": pref.total}, sort_keys=True))
    return EXIT_OK


def cmd_census(args) -> int:
    payload = _census_json(assignment_census(read_assignment(args.assignment)))
    if args.out:
        Path(args.out).write_text(payload)
    else:
        print(payload, end="")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = PipelineConfig.from_dict(read_json(args.config))
    if args.seed is not None:
        config.seed = args.seed
    report = run_pipeline(config)
    csv_out = args.csv_out or config.report_csv
    json_out = args.json_out or config.report_json
    if csv_out:
        report.write_csv(csv_out)
    if json_out:
        report.write_json(json_out)
    if not csv_out and not json_out:
        print(report.to_csv_text(), end="")
    return EXIT_OK


def _task_rows(paths: list[str]) -> tuple[LayoutReader, Rows]:
    """The first file's layout, and the task vectors of all files as a row source.

    The layout comes from the first file's headers alone. Every file, the
    first included, is then streamed a block at a time whenever a strategy
    asks for its row, and must match the first file's header bytes; every
    strategy reads the rows in lockstep, so every file is open at once,
    all streamed through the reader's one block buffer. A file that does
    not match raises, from its headers alone, what a full decode of it
    raises, or a shape mismatch naming its path.
    """
    reader = LayoutReader(paths[0])
    return reader, Rows(len(paths), reader.num_elements, lambda task: reader.blocks(paths[task]))


def _combine(first: str, second: str, combine: Callable[..., np.ndarray], out: str) -> None:
    """Write ``combine(a, b)`` to ``out``, where ``a`` and ``b`` are the float32 vectors of
    the containers ``first`` and ``second``, which must share one layout.

    Both files are streamed through the merge's reader in lockstep: each
    block of ``a`` is copied into the output's block buffer, and the block
    of ``b`` is combined into it before the shared read buffer is refilled.
    Each block is then written as a merged block is, so a fault is reported
    as ``merge`` reports it, and ``out`` may name an input.
    """
    layout, rows = _task_rows([first, second])
    # Opposite infinities make a NaN, which is rejected as it is written, not warned of.
    with _Output(layout, out, "NaN payload rejected") as output, np.errstate(invalid="ignore"):
        for block, task, piece in _lockstep(rows):
            if task == 0:
                result = output.block(block, np.float32)
                result[...] = piece
            else:
                combine(result, piece, out=result)
                output.emit(block, result)


class _Output:
    """``out``, written a block at a time as a vector of ``layout``'s layout is finished,
    and the side-files that commit with it.

    It answers the calls a merge strategy makes of
    :class:`tvmerge.merging._Collector`: ``block`` gives one block-sized
    buffer, and ``emit`` checks the finished block for NaN, when ``nan``
    names the problem to report, and writes it with the first input's
    header bytes. ``out`` is opened at the first block, and each side-file
    when it is asked for, with :meth:`open`. A regular or missing file is
    written as ``<path>.<pid>.part``, and every part is renamed over its
    path when the ``with`` block ends, the last opened first, so the
    side-files are in place before ``out``; if anything raises, every part
    file is removed and every path is left as it was. Any other file (a
    FIFO, ``/dev/null``) is written in place.
    """

    def __init__(self, layout: LayoutReader, out: str, nan: str | None):
        self._layout, self._out, self._nan = layout, out, nan
        self._buffer = self._stream = self._write = None
        self._parts: list[tuple[str, str]] = []  # (part, path), in the order opened

    def block(self, block: slice, dtype: np.dtype) -> np.ndarray:
        if self._buffer is None:
            self._buffer = np.empty(min(container._BLOCK, self._layout.num_elements), dtype)
        return self._buffer[: block.stop - block.start]

    def emit(self, block: slice, values: np.ndarray) -> None:
        if self._nan is not None:
            _reject_nan(self._layout, values, self._nan, start=block.start)
        if self._write is None:
            self._stream = self.open(self._out)
            self._write = self._layout.writer(self._stream)
        self._write(values)

    def open(self, path: str) -> BinaryIO:
        """A buffered stream that writes ``path``: its part file, or ``path`` itself if special."""
        if _is_special(path):
            return open(path, "wb", buffering=_WRITE_BUFFER)
        part = f"{path}.{os.getpid()}.part"
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        self._parts.append((part, path))
        return open(fd, "wb", buffering=_WRITE_BUFFER)

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        try:
            if self._stream is not None:
                self._stream.close()
            while kind is None and self._parts:
                os.replace(*self._parts[-1])
                self._parts.pop()
        finally:
            # Still listed if the block raised, or closing or renaming did.
            for part, _ in self._parts:
                with suppress(OSError):
                    os.unlink(part)


def _check_distinct(outputs: dict[str, str]) -> None:
    """Raise UsageError if two of ``outputs`` (option: path) name one regular or missing file,
    whose part files would collide; a file that is not regular may be named twice.

    A path's directory is resolved, but not its last component: a symlink there is replaced.
    """
    seen: dict[str, str] = {}
    for option, path in outputs.items():
        if _is_special(path):
            continue
        head, tail = os.path.split(os.path.abspath(path))
        key = os.path.join(os.path.realpath(head), tail)
        if key in seen:
            raise UsageError(f"{seen[key]} and {option} name one file: {path}")
        seen[key] = option


def _is_special(path: str) -> bool:
    """Whether ``path`` names an existing file, symlinks followed, that is not a regular file."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return False


def _census_json(census: np.ndarray) -> str:
    """``{"counts": [...]}`` and a newline."""
    return json.dumps({"counts": [int(c) for c in census]}, sort_keys=True) + "\n"


def _read_sim_file(path: str) -> SimilarityVector:
    payload = read_json_object(path, "similarity file")
    scores = payload.get("scores")
    if not isinstance(scores, list):
        raise ValidationError("similarity file must contain a 'scores' list")
    return SimilarityVector(tuple(scores))


def _read_embeddings(path: str) -> EmbeddingSet:
    pset = decode_container(path)
    try:
        matrix = pset.tensor("emb")
    except KeyError:
        raise ValidationError(f"{path}: embedding container must hold a tensor named 'emb'")
    if matrix.ndim != 2:
        raise ValidationError(f"{path}: 'emb' tensor must be 2-D")
    return EmbeddingSet(np.asarray(matrix, dtype=np.float64))


def _read_labels(path: str) -> LabelHistogram:
    payload = read_json_object(path, "label file")
    if isinstance(payload.get("labels"), list):
        return LabelHistogram.from_labels(payload["labels"])
    if isinstance(payload.get("counts"), dict):
        return LabelHistogram(payload["counts"])
    raise ValidationError(f"{path}: label file must contain a 'labels' list or a 'counts' object")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # An unknown option ahead of the inputs leaves them over too; name only the options then.
            options = [arg for arg in extras if arg.startswith("-")]
            raise UsageError(f"unrecognized arguments: {' '.join(options or extras)}")
        logging.basicConfig(level=args.log_level.upper())
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"validation error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
