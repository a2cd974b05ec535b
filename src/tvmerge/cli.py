"""Command-line front end: taskvec, merge, apply, sim, prefvec, census, pipeline.

Exit codes are stable API: 0 ok, 2 validation, 3 I/O, 4 usage,
5 numeric degenerate, 6 config parse. The TVM_THREADS environment
variable caps the worker count for the per-task similarity fan-out;
outputs are identical for any value.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .container import (
    LayoutReader,
    ParameterSet,
    TensorSpec,
    _reject_nan,
    apply_task_vector,
    compute_task_vector,
    decode_container,
    encode_container,
)
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
    assignment_census,
    merge,
    read_assignment,
    write_assignment,
)
from .preference import (
    AlphaSchedule,
    SimilarityVector,
    load_preference,
    preference_from_alpha,
    preference_from_similarities,
    read_json,
    save_preference,
    validate_preference,
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


def worker_count() -> int:
    raw = os.environ.get("TVM_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"TVM_THREADS must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise UsageError("TVM_THREADS must be >= 1")
    return value


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
    p.add_argument("--rounds", type=int, help="accepted for old scripts and ignored")
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
    p.add_argument("--meta", action="append", required=True, help="one shared or one per task")
    p.add_argument("--out", help="similarity JSON (default: stdout)")
    solver = p.add_argument_group(
        "solver settings", "a setting not given keeps its OTConfig default", argument_default=argparse.SUPPRESS
    )
    solver.add_argument("--gamma", type=float)
    solver.add_argument("--gamma-cos", type=float)
    solver.add_argument("--gamma-mmd", type=float)
    solver.add_argument("--epsilon", type=float)
    solver.add_argument("--max-iters", type=int)
    solver.add_argument("--tol", type=float)
    solver.add_argument("--bandwidth", type=float, dest="mmd_bandwidth")
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
    theta = decode_container(args.theta)
    theta0 = decode_container(args.theta0)
    encode_container(compute_task_vector(theta, theta0), args.out)
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
    if args.rounds is not None:
        log.warning("--rounds is ignored; the seed alone keys the merge")

    specs, rows = _task_rows(args.taus)
    log.debug("merge: %d tasks, %d elements, method %s", rows.count, rows.dim, args.method)
    pref = None
    if args.pref_file is not None:
        pref = load_preference(args.pref_file)
    elif args.alpha is not None:
        pref = preference_from_alpha(AlphaSchedule(args.alpha, rows.count, rows.dim))
    elif args.sim_file is not None:
        pref = preference_from_similarities(_read_sim_file(args.sim_file), rows.dim)
    merged, assignment = merge(args.method, rows, pref, args.seed or 0)

    if args.method == "average":
        # The inputs hold no NaN, so a NaN here is the mean of +inf and -inf.
        _reject_nan(specs, merged, "the average of +inf and -inf is NaN")
    encode_container(ParameterSet._of(specs, merged), args.out)
    if assignment is not None:
        census = assignment_census(assignment)
        log.debug("census: %s", " ".join(str(c) for c in census))
        if args.method == "tunable" and log.isEnabledFor(logging.DEBUG):
            residual = np.mean(assignment.provenance == RESIDUAL_RANDOM)
            log.debug("residual fraction: %.6g", residual)
        census_path = args.census_out or f"{args.out}.census.json"
        Path(census_path).write_text(
            json.dumps({"counts": [int(c) for c in census]}, sort_keys=True) + "\n"
        )
        assignment_path = args.assignment_out or f"{args.out}.assignment.tvc"
        write_assignment(assignment_path, assignment)
    return EXIT_OK


def cmd_apply(args) -> int:
    theta0 = decode_container(args.theta0)
    tau = decode_container(args.tau)
    encode_container(apply_task_vector(theta0, tau, args.lambda_merge), args.out)
    return EXIT_OK


def cmd_sim(args) -> int:
    cfg = OTConfig(**{f.name: getattr(args, f.name) for f in fields(OTConfig) if hasattr(args, f.name)})
    if args.metric == "label":
        tasks = [_read_labels(path) for path in args.task]
        metas = [_read_labels(path) for path in args.meta]
    else:
        tasks = [_read_embeddings(path) for path in args.task]
        metas = [_read_embeddings(path) for path in args.meta]
    scores = similarity_vector(tasks, metas, args.metric, cfg, workers=worker_count())
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
    if args.validate is not None:
        payload = _read_json_object(args.validate, "preference file")
        budgets = payload.get("budgets")
        dim = args.dim if args.dim is not None else payload.get("d")
        if budgets is None or dim is None:
            raise ValidationError("preference file must contain 'budgets' and 'd'")
        violations = validate_preference(budgets, dim)
        if violations:
            for line in violations:
                print(line, file=sys.stderr)
            return EXIT_VALIDATION
        print("ok")
        return EXIT_OK

    if args.dim is None:
        raise UsageError("--dim is required to build a preference vector")
    if args.alpha is not None:
        if args.tasks is None:
            raise UsageError("--tasks is required with --alpha")
        pref = preference_from_alpha(AlphaSchedule(args.alpha, args.tasks, args.dim))
    else:
        pref = preference_from_similarities(_read_sim_file(args.sim_file), args.dim)
    if args.out:
        save_preference(args.out, pref)
    else:
        print(json.dumps({"budgets": list(pref.budgets), "d": pref.total}, sort_keys=True))
    return EXIT_OK


def cmd_census(args) -> int:
    assignment = read_assignment(args.assignment)
    census = assignment_census(assignment)
    payload = json.dumps({"counts": [int(c) for c in census]}, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = PipelineConfig.from_dict(read_json(args.config))
    if args.seed is not None:
        config.seed = args.seed
    report = run_pipeline(config, workers=worker_count())
    csv_out = args.csv_out or config.report_csv
    json_out = args.json_out or config.report_json
    if csv_out:
        report.write_csv(csv_out)
    if json_out:
        report.write_json(json_out)
    if not csv_out and not json_out:
        print(report.to_csv_text(), end="")
    return EXIT_OK


def _task_rows(paths: list[str]) -> tuple[tuple[TensorSpec, ...], Rows]:
    """The first file's layout, and the task vectors of all files as a row source.

    The layout comes from the first file's headers alone. Every file, the
    first included, is then streamed a block at a time whenever a strategy
    asks for its row, and must match the first file's header bytes. A file
    that does not raises, from its headers alone, what a full decode of it
    raises, or a shape mismatch naming its path.
    """
    reader = LayoutReader(paths[0])
    return reader.specs, Rows(len(paths), reader.num_elements, lambda task: reader.blocks(paths[task]))


def _read_json_object(path: str, what: str) -> dict:
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return payload


def _read_sim_file(path: str) -> SimilarityVector:
    payload = _read_json_object(path, "similarity file")
    scores = payload.get("scores")
    if not isinstance(scores, list):
        raise ValidationError("similarity file must contain a 'scores' list")
    return SimilarityVector(tuple(scores), metric=payload.get("metric", ""))


def _read_embeddings(path: str) -> EmbeddingSet:
    pset = decode_container(path)
    try:
        matrix = pset.tensor("emb")
    except KeyError:
        raise ValidationError(f"{path}: embedding container must hold a tensor named 'emb'")
    if matrix.ndim != 2:
        raise ValidationError(f"{path}: 'emb' tensor must be 2-D")
    return EmbeddingSet(np.asarray(matrix, dtype=np.float64), source=path)


def _read_labels(path: str) -> LabelHistogram:
    payload = _read_json_object(path, "label file")
    if isinstance(payload.get("labels"), list):
        return LabelHistogram.from_labels(payload["labels"])
    if isinstance(payload.get("counts"), dict):
        return LabelHistogram(payload["counts"])
    raise ValidationError(f"{path}: label file must contain a 'labels' list or a 'counts' object")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
