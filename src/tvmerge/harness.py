"""Deterministic desk-scale stand-in for a sequential fine-tuning pipeline.

Tasks are linear least-squares problems whose optima touch only a known
support of the parameter vector, so "fine-tuning" has a closed form and
merging behavior can be checked exactly. The full pipeline mirrors the
deployment flow: generate tasks, fit them sequentially (one Householder
QR of each task's augmented design ``[X | y]``), form per-task deltas,
build budgets (from a file, a geometric schedule, or dataset similarity
against a mixed target environment), merge, and evaluate.

All harness math runs in float64 in support coordinates: each task holds
its design only on its support columns, so the fit, the evaluation and the
similarity embeddings cost the support's width, not the full dimension.
Parameter vectors stay dense. The container codec is only involved when
models are exchanged through the CLI.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, ValidationError
from .merging import (
    MERGE_METHODS,
    RESIDUAL_RANDOM,
    assignment_census,
    check_seed,
    merge,
)
from .preference import (
    PreferenceVector,
    _check_array_size,
    largest_remainder_counts,
    load_preference,
    preference_from_alpha,
    preference_from_similarities,
)
from .similarity import METRICS, EmbeddingSet, LabelHistogram, OTConfig, similarity_vector

log = logging.getLogger("tvmerge")

SUPPORT_MODES = ("disjoint", "overlapping")
DELTA_MODES = ("incremental", "cumulative")
PREFERENCE_SOURCES = ("file", "alpha", "similarity")

_SUITE_SALT = 1
_ENV_SALT = 2


@dataclass
class SyntheticTask:
    """One linear regression task touching a fixed support of the parameters.

    The design is held in support coordinates: column j of ``restricted``
    multiplies parameter ``support[j]``, and the design is zero on every
    other of the ``dim`` parameters.
    """

    task_id: int
    restricted: np.ndarray  # (m, width) design on the support columns
    targets: np.ndarray  # (m,)
    support: np.ndarray  # (width,) sorted 0-based flat indices
    labels: np.ndarray  # (m,) integer class ids
    dim: int  # length of the parameter vector

    @property
    def num_samples(self) -> int:
        return self.restricted.shape[0]


@dataclass
class TargetEnvironment:
    """A mixture of member tasks with disjoint meta and evaluation splits."""

    member_ids: tuple[int, ...]
    mix: tuple[float, ...]
    counts: dict[int, int]
    meta_rows: dict[int, np.ndarray]
    eval_rows: dict[int, np.ndarray]

    @property
    def meta_size(self) -> int:
        return sum(rows.size for rows in self.meta_rows.values())

    @property
    def eval_size(self) -> int:
        return sum(rows.size for rows in self.eval_rows.values())


@dataclass
class EvalResult:
    task_losses: dict[int, float]
    env_loss: float | None = None


def generate_task_suite(
    num_tasks: int,
    dim: int,
    support_mode: str = "disjoint",
    samples_per_task: int = 48,
    seed: int = 0,
    *,
    overlap: int = 1,
    classes_per_task: int = 2,
    noise_sigma: float = 0.0,
    cluster_separation: float = 3.0,
) -> tuple[list[SyntheticTask], np.ndarray]:
    """Build a task suite and the zero base parameter vector.

    Disjoint mode splits the flat indices into contiguous blocks, one per
    task. Overlapping mode slides windows of width L over the indices so
    consecutive supports share ``overlap`` coordinates; the window width
    must come out integral, i.e. T must divide d + (T - 1) * overlap.

    Each task draws from its own keyed stream, in order, its true
    parameters, its center's direction and its design's standard normal
    entries; the center is added to the design in place, so each design
    is built in one array.
    """
    if num_tasks < 1 or dim < 1:
        raise ValidationError("num_tasks and dim must be >= 1")
    _check_array_size("num_tasks", num_tasks)
    _check_array_size("dim", dim)
    if support_mode not in SUPPORT_MODES:
        raise ValidationError(f"unknown support mode {support_mode!r}")
    if classes_per_task < 1:
        raise ValidationError("classes_per_task must be >= 1")
    if num_tasks * classes_per_task - 1 > np.iinfo(np.int64).max:
        raise ValidationError(
            f"classes_per_task {classes_per_task} is too large: labels up to "
            "num_tasks * classes_per_task - 1 must fit in int64"
        )
    if not np.isfinite(noise_sigma) or noise_sigma < 0:
        raise ValidationError("noise_sigma must be finite and >= 0")
    if not np.isfinite(cluster_separation):
        raise ValidationError("cluster_separation must be finite")
    supports = _build_supports(num_tasks, dim, support_mode, overlap)
    widest = max(s.size for s in supports)
    if samples_per_task < widest:
        raise ValidationError(
            f"samples_per_task {samples_per_task} < widest support {widest}"
        )
    _check_array_size("samples_per_task", samples_per_task, 8 * (widest + 1))  # the fit's [X | y]

    tasks = []
    for task_id, support in enumerate(supports, start=1):
        rng = np.random.default_rng([seed, _SUITE_SALT, task_id])
        width = support.size
        truth = rng.normal(size=width)
        center = cluster_separation * _unit(rng.normal(size=width))
        # Addition commutes, so these are the bits of ``center + normal``.
        restricted = rng.normal(size=(samples_per_task, width))
        restricted += center
        targets = restricted @ truth
        if noise_sigma > 0:
            with np.errstate(over="ignore"):
                noise = noise_sigma * rng.normal(size=samples_per_task)
            if not np.isfinite(noise).all():
                raise ValidationError(f"noise_sigma {noise_sigma} is too large: the target noise overflows")
            targets = targets + noise
        first_class = (task_id - 1) * classes_per_task
        labels = first_class + np.arange(samples_per_task) % classes_per_task
        tasks.append(SyntheticTask(task_id, restricted, targets, support, labels, dim))
    return tasks, np.zeros(dim)


def sequential_finetune_analog(
    tasks: Sequence[SyntheticTask], theta_0: np.ndarray
) -> list[np.ndarray]:
    """Closed-form analog of sequential fine-tuning.

    Each step copies the previous parameters and replaces the task's
    support coordinates with its restricted least-squares optimum, so
    later tasks overwrite shared coordinates and everything else drifts
    along unchanged.

    The optimum comes from one Householder QR of the augmented matrix
    ``[X | y]``: its triangle R carries both ``R_X`` and ``Q^T y``, so
    ``R_X @ solution = (Q^T y)[:width]`` is solved without forming
    ``X^T X`` and the condition number is not squared. A design whose
    pivots ``|r_ii|`` fall to ``lstsq``'s default ``rcond`` relative to
    the largest, or whose R is not finite, is singular.
    """
    theta = np.asarray(theta_0, dtype=np.float64).copy()
    out = []
    for task in tasks:
        restricted = task.restricted
        width = task.support.size
        r = np.linalg.qr(np.column_stack([restricted, task.targets]), mode="r")
        pivots = np.abs(np.diagonal(r)[:width])
        rcond = np.finfo(np.float64).eps * max(restricted.shape)
        if not np.isfinite(r).all() or pivots.min() <= rcond * pivots.max():
            raise ValidationError(
                f"task {task.task_id}: singular restricted normal equations"
            )
        theta = theta.copy()
        theta[task.support] = np.linalg.solve(r[:width, :width], r[:width, width])
        out.append(theta)
    return out


def mix_target_environment(
    tasks: Sequence[SyntheticTask],
    member_ids: Sequence[int],
    mix: Sequence[float],
    total_samples: int,
    meta_fraction: float = 0.1,
    seed: int = 0,
) -> TargetEnvironment:
    """Sample a target environment mixing the member tasks at given ratios.

    Per-task sample counts split the samples by the mixing ratio with the
    budgets' rule, ``largest_remainder_counts``; the meta split takes
    ``meta_fraction`` of them, split by the same rule over those counts so
    it stays stratified. Meta and evaluation rows are disjoint.
    """
    members = [int(t) for t in member_ids]
    by_id = {task.task_id: task for task in tasks}
    unknown = [t for t in members if t not in by_id]
    if unknown:
        raise ValidationError(f"unknown member task ids {unknown}")
    if len(members) != len(set(members)):
        raise ValidationError("member task ids must be distinct")
    ratios = np.asarray(mix, dtype=np.float64)
    if ratios.size != len(members):
        raise ValidationError("mix length must match member count")
    if not np.isfinite(ratios).all() or np.any(ratios < 0):
        raise ValidationError("mixing ratios must be finite and nonnegative")
    if abs(float(ratios.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"mixing ratios sum to {ratios.sum()}, expected 1")
    if total_samples < len(members):
        raise ValidationError("total_samples must be at least the member count")
    _check_array_size("total_samples", total_samples)
    if not (0.0 < meta_fraction < 1.0):
        raise ValidationError("meta_fraction must lie in (0, 1)")

    counts = largest_remainder_counts(ratios, total_samples)
    meta_total = int(round(meta_fraction * total_samples))
    meta_counts = largest_remainder_counts(counts, meta_total)

    meta_rows: dict[int, np.ndarray] = {}
    eval_rows: dict[int, np.ndarray] = {}
    for member, count, meta_count in zip(members, counts, meta_counts):
        task = by_id[member]
        rng = np.random.default_rng([seed, _ENV_SALT, member])
        if count <= task.num_samples:
            chosen = rng.permutation(task.num_samples)[:count]
        else:
            chosen = rng.integers(0, task.num_samples, size=count)
        meta_rows[member] = np.sort(chosen[:meta_count])
        eval_rows[member] = np.sort(chosen[meta_count:])
    return TargetEnvironment(
        tuple(members),
        tuple(float(r) for r in ratios),
        {m: int(c) for m, c in zip(members, counts)},
        meta_rows,
        eval_rows,
    )


def evaluate(
    theta: np.ndarray,
    tasks: Sequence[SyntheticTask],
    env: TargetEnvironment | None = None,
) -> EvalResult:
    """Mean squared error per task, plus the environment-weighted loss.

    The environment loss weights each member task's loss by its evaluation
    sample count, so a single-member environment reduces to that task's loss.
    A loss that overflows to a non-finite value raises ValidationError
    naming its task, since a report cannot hold it as JSON.
    """
    vec = np.asarray(theta, dtype=np.float64)
    losses = {}
    # Overflow shows as a non-finite loss, which _finite_loss rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for task in tasks:
            residual = task.restricted @ vec[task.support] - task.targets
            losses[task.task_id] = _finite_loss(f"task {task.task_id}", residual @ residual / task.num_samples)
        env_loss = None
        if env is not None:
            weights = np.array([env.eval_rows[m].size for m in env.member_ids], dtype=np.float64)
            member_losses = np.array([losses[m] for m in env.member_ids])
            if weights.sum() <= 0:
                raise ValidationError("environment has no evaluation samples")
            env_loss = _finite_loss("environment", weights @ member_losses / weights.sum())
    return EvalResult(losses, env_loss)


def _finite_loss(name: str, loss) -> float:
    loss = float(loss)
    if not np.isfinite(loss):
        raise ValidationError(f"{name}: loss {loss} is not finite")
    return loss


def task_embeddings(task: SyntheticTask) -> EmbeddingSet:
    """Row-normalized design rows standing in for encoder features, on the task's support."""
    return EmbeddingSet(_normalize_rows(task.restricted), columns=task.support, dim=task.dim)


def environment_meta_embeddings(
    env: TargetEnvironment, tasks: Sequence[SyntheticTask]
) -> EmbeddingSet:
    """The members' row-normalized meta rows, stacked in member order on the union of their supports."""
    by_id = {task.task_id: task for task in tasks}
    members = [by_id[m] for m in env.member_ids if env.meta_rows[m].size]
    if not members:
        raise ValidationError("environment meta split is empty")
    columns = np.unique(np.concatenate([task.support for task in members]))
    vectors = np.zeros((sum(env.meta_rows[task.task_id].size for task in members), columns.size))
    start = 0
    for task in members:
        block = _normalize_rows(task.restricted[env.meta_rows[task.task_id]])
        vectors[start : start + len(block), np.searchsorted(columns, task.support)] = block
        start += len(block)
    return EmbeddingSet(vectors, columns=columns, dim=members[0].dim)


def environment_meta_labels(
    env: TargetEnvironment, tasks: Sequence[SyntheticTask]
) -> LabelHistogram:
    by_id = {task.task_id: task for task in tasks}
    labels: list[int] = []
    for member in env.member_ids:
        labels.extend(by_id[member].labels[env.meta_rows[member]].tolist())
    if not labels:
        raise ValidationError("environment meta split is empty")
    return LabelHistogram.from_labels(labels)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineConfig:
    """A checked pipeline config; ``from_dict`` is the only reader of the raw JSON.

    ``suite`` and ``environment`` hold the keyword arguments of
    ``generate_task_suite`` and ``mix_target_environment`` besides the
    tasks and the seed; ``environment`` is None when the config has none.
    ``alphas`` lists the schedules to run: a list-valued alpha sweeps them,
    and every source other than ``alpha`` runs once, as ``[None]``.
    ``sweep`` is whether alpha was given as a list, which puts an alpha
    column in the CSV report even for one value. An integer
    ``merge.rounds`` is accepted for old configs and ignored.
    """

    seed: int
    num_tasks: int
    dim: int
    suite: dict
    environment: dict | None
    method: str
    delta_mode: str
    lambda_merge: float
    source: str | None
    alphas: list
    pref_path: str | None
    metric: str
    similarity_config: OTConfig
    report_csv: str | None
    report_json: str | None
    sweep: bool = False

    @classmethod
    def from_dict(cls, raw) -> "PipelineConfig":
        top = _section(
            raw,
            "config",
            ("seed", "suite", "merge", "preference", "environment", "similarity_config", "report"),
        )
        suite = _section(top.get("suite"), "suite", ("num_tasks", "dim", *_SUITE_KINDS))
        merge_ = _section(top.get("merge"), "merge", ("method", "delta_mode", "rounds", "lambda_merge"))
        pref = _section(top.get("preference"), "preference", ("source", "alpha", "path", "metric"))
        env = _section(
            top.get("environment"), "environment", ("members", "mix", "total_samples", "meta_fraction")
        )
        sim = _section(top.get("similarity_config"), "similarity_config", _OT_KINDS)
        report = _section(top.get("report"), "report", ("csv", "json"))

        method = _field(merge_, "method", _string, "tunable")
        if method not in MERGE_METHODS:
            raise ConfigError(f"unknown merge method {method!r}; expected one of {MERGE_METHODS}")
        delta_mode = _field(merge_, "delta_mode", _string, "incremental")
        if delta_mode not in DELTA_MODES:
            raise ConfigError(f"unknown delta_mode {delta_mode!r}")
        lambda_merge = _field(merge_, "lambda_merge", _number, 0.5)
        if not (0.0 <= lambda_merge <= 1.0):
            raise ValidationError(f"lambda_merge {lambda_merge} outside [0, 1]")
        if "rounds" in merge_:
            _field(merge_, "rounds", _integer)
            log.warning("config field 'rounds' is ignored; the seed alone keys the merge")

        source = _field(pref, "source", _string, None)
        if method == "tunable" and source not in PREFERENCE_SOURCES:
            raise ConfigError(f"tunable merging needs a preference source in {PREFERENCE_SOURCES}")
        if method != "tunable" and source is not None:
            raise ConfigError(f"method {method!r} does not take a preference source")
        alphas = [None]
        sweep = source == "alpha" and isinstance(pref.get("alpha"), list)
        if source == "alpha":
            alphas = _field(pref, "alpha", _list_of(_number) if sweep else lambda value: [_number(value)])
            if not alphas:
                raise ConfigError("config field 'alpha' must not be an empty list")
        pref_path = _field(pref, "path", _string, None)
        if source == "file" and not pref_path:
            raise ConfigError("preference source 'file' needs a 'path'")
        if source == "similarity" and not env:
            raise ConfigError("preference source 'similarity' needs an 'environment'")
        metric = _field(pref, "metric", _string, "label")
        if metric not in METRICS:
            raise ConfigError(f"unknown similarity metric {metric!r}; expected one of {METRICS}")

        return cls(
            seed=_field(top, "seed", _integer),
            num_tasks=_field(suite, "num_tasks", _integer),
            dim=_field(suite, "dim", _integer),
            suite={key: _field(suite, key, kind) for key, kind in _SUITE_KINDS.items() if key in suite},
            environment={
                "member_ids": _field(env, "members", _list_of(_integer), ()),
                "mix": _field(env, "mix", _list_of(_number), ()),
                "total_samples": _field(env, "total_samples", _integer, 0),
                "meta_fraction": _field(env, "meta_fraction", _number, 0.1),
            }
            if env
            else None,
            method=method,
            delta_mode=delta_mode,
            lambda_merge=lambda_merge,
            source=source,
            alphas=alphas,
            pref_path=pref_path,
            metric=metric,
            similarity_config=OTConfig(
                **{key: _field(sim, key, kind) for key, kind in _OT_KINDS.items() if key in sim}
            ),
            report_csv=_field(report, "csv", _string, None),
            report_json=_field(report, "json", _string, None),
            sweep=sweep,
        )


@dataclass
class PipelineReport:
    """The JSON summary of a pipeline run; the CSV report is derived from its runs."""

    summary: dict
    sweep: bool = False  # alpha was a list; more than one run implies it

    def to_csv_text(self) -> str:
        runs = self.summary["runs"]
        sweep = self.sweep or len(runs) > 1
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        columns = ["task", "budget", "census", "loss"]
        writer.writerow(["alpha", *columns] if sweep else columns)
        for run in runs:
            losses = run["task_losses"]
            blank = [""] * len(losses)
            for task, budget, census in zip(losses, run["budgets"] or blank, run["census"] or blank):
                cells = [task, budget, census, repr(losses[task])]
                writer.writerow([repr(run["alpha"]), *cells] if sweep else cells)
        return buffer.getvalue()

    def to_json_text(self) -> str:
        return json.dumps(self.summary, indent=2, sort_keys=True) + "\n"

    def write_csv(self, destination: Union[str, Path]) -> None:
        Path(destination).write_text(self.to_csv_text())

    def write_json(self, destination: Union[str, Path]) -> None:
        Path(destination).write_text(self.to_json_text())


def run_pipeline(config: Union[PipelineConfig, dict]) -> PipelineReport:
    """Execute the full synthetic pipeline described by ``config``.

    Stages: generate the suite, sample the target environment (if any),
    fit tasks sequentially, form per-task deltas, build the budget vector
    from the configured source, merge, apply the merged delta at
    ``lambda_merge``, and evaluate. The environment needs only the suite
    and draws from its own keyed streams, so an invalid one is reported
    before the fit is paid for. A list-valued alpha sweeps the schedule and
    emits one run per alpha.
    """
    cfg = config if isinstance(config, PipelineConfig) else PipelineConfig.from_dict(config)
    check_seed(cfg.seed)
    tasks, theta_0 = generate_task_suite(cfg.num_tasks, cfg.dim, seed=cfg.seed, **cfg.suite)
    env = None
    if cfg.environment is not None:
        env = mix_target_environment(tasks, seed=cfg.seed, **cfg.environment)
    thetas = sequential_finetune_analog(tasks, theta_0)
    if cfg.delta_mode == "incremental":
        bases = [theta_0, *thetas[:-1]]
    else:
        bases = [theta_0] * len(thetas)
    taus = np.stack([t - b for t, b in zip(thetas, bases)])

    runs = []
    for alpha in cfg.alphas:
        budgets = _build_budgets(cfg, alpha, tasks, env)
        merged, assignment = merge(cfg.method, taus, budgets, cfg.seed)
        result = evaluate(theta_0 + cfg.lambda_merge * merged, tasks, env)
        census = residual = None
        if assignment is not None:
            census = [int(c) for c in assignment_census(assignment)]
            residual = float(np.mean(assignment.provenance == RESIDUAL_RANDOM))
        runs.append(
            {
                "alpha": alpha,
                "budgets": None if budgets is None else list(budgets.budgets),
                "census": census,
                "residual_random_fraction": residual,
                "task_losses": {str(t): result.task_losses[t] for t in sorted(result.task_losses)},
                "env_loss": result.env_loss,
            }
        )

    summary = {
        "seed": cfg.seed,
        "method": cfg.method,
        "delta_mode": cfg.delta_mode,
        "lambda_merge": cfg.lambda_merge,
        "num_tasks": cfg.num_tasks,
        "dim": cfg.dim,
        "support_sizes": [int(t.support.size) for t in tasks],
        "preference_source": cfg.source,
        "environment": None
        if env is None
        else {
            "members": list(env.member_ids),
            "mix": list(env.mix),
            "counts": {str(m): env.counts[m] for m in env.member_ids},
            "meta_size": env.meta_size,
            "eval_size": env.eval_size,
        },
        "runs": runs,
    }
    return PipelineReport(summary, cfg.sweep)


def _build_budgets(
    cfg: PipelineConfig,
    alpha: float | None,
    tasks: Sequence[SyntheticTask],
    env: TargetEnvironment | None,
) -> PreferenceVector | None:
    """The run's budgets from the configured source, or None for methods without them.

    A similarity source builds the meta input first, then hands the task
    inputs over as a generator, so each task's histogram or row-normalized
    embeddings is built only when it is scored, and one is held at a time.
    """
    if cfg.source is None:
        return None
    if cfg.source == "file":
        # Whether the file fits the suite is checked by tunable_merge.
        return load_preference(cfg.pref_path)
    if cfg.source == "alpha":
        return preference_from_alpha(alpha, cfg.num_tasks, cfg.dim)
    if cfg.metric == "label":
        meta = environment_meta_labels(env, tasks)
        task_inputs = (LabelHistogram.from_labels(t.labels.tolist()) for t in tasks)
    else:
        meta = environment_meta_embeddings(env, tasks)
        task_inputs = (task_embeddings(t) for t in tasks)
    scores = similarity_vector(task_inputs, meta, cfg.metric, cfg.similarity_config)
    return preference_from_similarities(scores, cfg.dim)


def _build_supports(
    num_tasks: int, dim: int, support_mode: str, overlap: int
) -> list[np.ndarray]:
    if support_mode == "disjoint":
        if dim < num_tasks:
            raise ValidationError("infeasible support partition: dim < num_tasks")
        return [np.asarray(chunk) for chunk in np.array_split(np.arange(dim), num_tasks)]
    if num_tasks == 1:
        return [np.arange(dim)]
    if overlap < 1:
        raise ValidationError("overlap must be >= 1 in overlapping mode")
    span = dim + (num_tasks - 1) * overlap
    if span % num_tasks:
        raise ValidationError(
            "infeasible support partition: num_tasks must divide dim + (num_tasks-1)*overlap"
        )
    width = span // num_tasks
    if width <= overlap:
        raise ValidationError("infeasible support partition: window not wider than overlap")
    stride = width - overlap
    return [np.arange(t * stride, t * stride + width) for t in range(num_tasks)]


def _section(value, name: str, known_keys) -> dict:
    """A config object as a dict, null read as empty; ConfigError names an unknown key."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    unknown = set(value) - set(known_keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return value


_REQUIRED = object()


def _field(section: dict, key: str, kind, default=_REQUIRED):
    """``section[key]`` converted by ``kind``; ConfigError names a missing or mistyped key."""
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"config must set {key!r}")
        return default
    try:
        return kind(section[key])
    except (TypeError, ValueError, OverflowError):
        value = section[key]
        raise ConfigError(f"config field {key!r} has a wrongly typed value {value!r}") from None


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a JSON string")
    return value


def _integer(value) -> int:
    # bool is an int subclass, but JSON true is not a number.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not a JSON integer")
    return value


def _number(value) -> float:
    """A JSON integer or float as a float, so ``1`` is as good as ``1.0``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a JSON number")
    return float(value)


def _optional(kind):
    return lambda value: None if value is None else kind(value)


def _list_of(kind):
    def convert(value) -> list:
        if not isinstance(value, list):
            raise TypeError("not a JSON list")
        return [kind(item) for item in value]

    return convert


# Keyword arguments of generate_task_suite that a config's suite may set.
_SUITE_KINDS = {
    "support_mode": _string,
    "samples_per_task": _integer,
    "overlap": _integer,
    "classes_per_task": _integer,
    "noise_sigma": _number,
    "cluster_separation": _number,
}
# similarity_config takes every OTConfig field; one whose default is None also takes null.
_OT_KINDS = {
    f.name: _optional(_number) if f.default is None else {int: _integer, float: _number}[type(f.default)]
    for f in fields(OTConfig)
}


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.maximum(norms, np.finfo(np.float64).tiny)


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec
