"""Dense reference for the pipeline harness: every design held as a full (n, d) matrix.

The harness keeps each synthetic task in support coordinates. This
reference builds the same overlapping suite from the same random streams,
but scatters each design into a dense ``(n, d)`` matrix, so the fit
gathers ``design[:, support]``, evaluation takes ``design @ theta`` and
the embeddings normalize rows over all d columns. Budgets come from the
dense embeddings through the library's similarity scores, the way
``tvmerge sim`` scores dense inputs. Only the environment split, the
scores, the budget rule and the merge are shared with the harness.
"""

from dataclasses import dataclass

import numpy as np

from tvmerge import (
    EmbeddingSet,
    LabelHistogram,
    assignment_census,
    merge,
    mix_target_environment,
    preference_from_similarities,
    similarity_vector,
)

SUITE_SALT = 1  # the harness's stream key for suite generation


@dataclass
class DenseTask:
    task_id: int
    design: np.ndarray  # (m, d), zero off the support
    targets: np.ndarray
    support: np.ndarray
    labels: np.ndarray

    @property
    def num_samples(self):
        return self.design.shape[0]


def dense_overlapping_suite(num_tasks, dim, overlap, samples, classes, noise_sigma, separation, seed):
    """The harness's overlapping suite, with dense designs."""
    width = (dim + (num_tasks - 1) * overlap) // num_tasks
    stride = width - overlap
    tasks = []
    for task_id in range(1, num_tasks + 1):
        support = np.arange((task_id - 1) * stride, (task_id - 1) * stride + width)
        rng = np.random.default_rng([seed, SUITE_SALT, task_id])
        truth = rng.normal(size=width)
        center = rng.normal(size=width)
        center = separation * (center / np.linalg.norm(center))
        restricted = center[None, :] + rng.normal(size=(samples, width))
        targets = restricted @ truth
        if noise_sigma > 0:
            targets = targets + noise_sigma * rng.normal(size=samples)
        design = np.zeros((samples, dim))
        design[:, support] = restricted
        labels = (task_id - 1) * classes + np.arange(samples) % classes
        tasks.append(DenseTask(task_id, design, targets, support, labels))
    return tasks


def dense_fit(tasks, dim):
    """Sequential restricted least squares on ``design[:, support]``, by QR of ``[X | y]``."""
    theta = np.zeros(dim)
    out = []
    for task in tasks:
        restricted = task.design[:, task.support]
        width = task.support.size
        r = np.linalg.qr(np.column_stack([restricted, task.targets]), mode="r")
        theta = theta.copy()
        theta[task.support] = np.linalg.solve(r[:width, :width], r[:width, width])
        out.append(theta)
    return out


def normalize_rows(rows):
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), np.finfo(np.float64).tiny)


def dense_embeddings(tasks, env):
    """Full-width task embeddings and the stacked meta embedding."""
    task_sets = [normalize_rows(task.design) for task in tasks]
    by_id = {task.task_id: task for task in tasks}
    meta = np.vstack([normalize_rows(by_id[m].design[env.meta_rows[m]]) for m in env.member_ids])
    return task_sets, meta


def dense_pipeline(suite, environment, metric, seed, lambda_merge=1.0):
    """One tunable similarity-budget run on dense designs: budgets, census, losses, env loss."""
    tasks = dense_overlapping_suite(seed=seed, **suite)
    dim = suite["dim"]
    thetas = dense_fit(tasks, dim)
    taus = np.stack([t - b for t, b in zip(thetas, [np.zeros(dim), *thetas[:-1]])])
    env = mix_target_environment(tasks, seed=seed, **environment)
    if metric == "label":
        task_inputs = [LabelHistogram.from_labels(task.labels.tolist()) for task in tasks]
        by_id = {task.task_id: task for task in tasks}
        meta = LabelHistogram.from_labels(
            [label for m in env.member_ids for label in by_id[m].labels[env.meta_rows[m]].tolist()]
        )
    else:
        task_sets, meta_rows = dense_embeddings(tasks, env)
        task_inputs = [EmbeddingSet(rows) for rows in task_sets]
        meta = EmbeddingSet(meta_rows)
    budgets = preference_from_similarities(similarity_vector(task_inputs, meta, metric), dim)
    merged, assignment = merge("tunable", taus, budgets, seed)
    theta = lambda_merge * merged
    losses = {}
    for task in tasks:
        residual = task.design @ theta - task.targets
        losses[task.task_id] = float(residual @ residual / task.num_samples)
    weights = np.array([env.eval_rows[m].size for m in env.member_ids], dtype=np.float64)
    env_loss = float(weights @ np.array([losses[m] for m in env.member_ids]) / weights.sum())
    return {
        "budgets": list(budgets.budgets),
        "census": [int(c) for c in assignment_census(assignment)],
        "task_losses": losses,
        "env_loss": env_loss,
    }
