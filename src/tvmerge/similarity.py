"""Dataset similarity metrics between embedded samples or label sets.

The feature-based metric is entropic optimal transport between two point
clouds with squared Euclidean ground cost and uniform marginals, solved by
Sinkhorn iterations in kernel space: two matrix-vector products per
iteration on a kernel into which the log-domain potentials are absorbed,
with a log-domain update whenever a scaling grows too large or too small.
Costs are normalized by the mean cost entry before iterating, so the
regularization strength is scale-free; the returned transport cost is on
the original scale.

An embedding set stores only the columns it uses, as sorted indices into
its dimension: a caller may give them (the pipeline harness gives each
task's support), and a dense matrix keeps its columns that are nonzero in
some row. Pairwise distances align two sets by those columns, so
embeddings that are zero outside a task's support cost only their
support's width.

Distances turn into similarities through ``exp(-gamma * distance)``,
clamped away from zero so downstream proportional allocation stays
well-defined.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .preference import SimilarityVector

log = logging.getLogger("tvmerge")

METRICS = ("ot", "label", "cos", "mmd")

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class OTConfig:
    """Solver and transform settings for the similarity metrics.

    ``epsilon`` regularizes the normalized (unit mean) cost matrix.
    ``gamma`` scales transport costs inside the exp transform; ``gamma_cos``
    and ``gamma_mmd`` play the same role for the distance-based metrics.
    ``mmd_bandwidth`` of None selects the median pairwise distance.
    """

    epsilon: float = 1e-2
    max_iters: int = 1000
    tol: float = 1e-9
    gamma: float = 100.0
    gamma_cos: float = 10.0
    gamma_mmd: float = 10.0
    mmd_bandwidth: float | None = None

    def __post_init__(self) -> None:
        for field in ("epsilon", "max_iters", "tol", "gamma", "gamma_cos", "gamma_mmd"):
            if not _finite_positive(getattr(self, field)):
                raise ValidationError(f"{field} must be finite and positive")
        if self.mmd_bandwidth is not None and not _finite_positive(self.mmd_bandwidth):
            raise ValidationError("mmd_bandwidth must be finite and positive")


def _finite_positive(value) -> bool:
    # Written so that NaN, which compares False with everything, fails too.
    return 0 < value < math.inf


@dataclass(frozen=True)
class EmbeddingSet:
    """Row-wise sample embeddings in ``dim`` dimensions, held on the columns they use.

    ``vectors`` is (N, W): its column j is embedding dimension
    ``columns[j]``, and every dimension outside ``columns`` is zero in
    every row. ``columns`` is sorted, without duplicates, within
    ``[0, dim)`` and W long. Given without ``columns``, ``vectors`` is the
    full (N, D) matrix; the set then keeps only its columns that are
    nonzero in some row, found once here.
    """

    vectors: np.ndarray
    columns: np.ndarray | None = None
    dim: int | None = None

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or (self.columns is None and arr.shape[1] < 1):
            raise ValidationError("embeddings must form a non-empty 2-D matrix")
        # min and max propagate NaN and reach any inf, so two reductions
        # without temporaries check every entry; a zero-width set has none.
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise ValidationError("embeddings must be finite")
        if self.columns is None:
            if self.dim is not None and self.dim != arr.shape[1]:
                raise ValidationError(f"dim {self.dim} differs from the embedding width {arr.shape[1]}")
            dim = arr.shape[1]
            used = arr.any(axis=0)
            columns = np.flatnonzero(used)
            if columns.size < dim:
                # Left in the Fortran order this gather gives: BLAS rounds by
                # operand layout, and dense ``sim`` scores are pinned to it.
                arr = arr[:, used]
        else:
            dim, columns = _checked_columns(self.columns, self.dim, arr.shape[1])
        object.__setattr__(self, "vectors", arr)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "dim", dim)

    @property
    def num_samples(self) -> int:
        return self.vectors.shape[0]


def _checked_columns(columns, dim, width: int) -> tuple[int, np.ndarray]:
    """``dim`` and ``columns`` as an int and an index array; ValidationError if they do not fit."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValidationError(f"embeddings given with columns need an integer dim >= 1, got {dim!r}")
    cols = np.asarray(columns)
    if cols.ndim != 1 or (cols.size and not np.issubdtype(cols.dtype, np.integer)):
        raise ValidationError("embedding columns must be a 1-D sequence of integers")
    if cols.size != width:
        raise ValidationError(f"{cols.size} embedding columns for vectors {width} wide")
    cols = cols.astype(np.intp)
    if cols.size and (cols[0] < 0 or cols[-1] >= dim or np.any(cols[1:] <= cols[:-1])):
        raise ValidationError(f"embedding columns must be sorted, distinct and within [0, {dim})")
    return int(dim), cols


class LabelHistogram:
    """Empirical class counts; class ids are compared as strings."""

    __slots__ = ("_counts", "_total")

    def __init__(self, counts: Mapping[Union[str, int], int]):
        cleaned: dict[str, int] = {}
        for key, value in counts.items():
            try:
                count = int(value)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"class {key!r}: count {value!r} is not a number") from None
            if count < 0:
                raise ValidationError(f"negative count for class {key!r}")
            if count > 0:
                cleaned[str(key)] = cleaned.get(str(key), 0) + count
        total = sum(cleaned.values())
        if total < 1:
            raise ValidationError("histogram must contain at least one sample")
        self._counts = cleaned
        self._total = total

    @classmethod
    def from_labels(cls, labels: Sequence[Union[str, int]]) -> "LabelHistogram":
        counts: dict[str, int] = {}
        for label in labels:
            counts[str(label)] = counts.get(str(label), 0) + 1
        return cls(counts)

    @property
    def total(self) -> int:
        return self._total

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self._counts)

    def frequency(self, class_id: Union[str, int]) -> float:
        return self._counts.get(str(class_id), 0) / self._total


class SinkhornResult(NamedTuple):
    cost: float
    converged: bool
    iterations: int


# Entries of the temporary that finishes a distance block: 64 KiB.
_FINISH_ENTRIES = 1 << 13


def pairwise_sq_dists(
    x: Union[EmbeddingSet, np.ndarray], y: Union[EmbeddingSet, np.ndarray]
) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and of y.

    A dimension outside a set's columns is zero in every row, so it adds
    nothing to that set's norms, nor to the cross term: each norm sums
    over its set's columns and the cross term over the columns both sets
    hold, aligned by index. A plain array is read as a dense set, so sets
    without an all-zero column take the plain dense formula.

    Raises DegenerateInputError when a distance overflows float64 (rows
    of about 1e154 or more), so no inf or NaN reaches a score.
    """
    same = y is x
    x = _as_set(x)
    y = x if same else _as_set(y)
    if x.dim != y.dim:
        raise ValidationError(f"embedding dims differ: {x.dim} vs {y.dim}")
    # An overflow is caught below, one reduction per finished block, so
    # numpy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        if y is x:
            # One array on both sides, so that ``m @ m.T`` takes the symmetric product.
            sq_x = sq_y = _sq_norms(x.vectors)
            out = x.vectors @ x.vectors.T
        else:
            sq_x = _sq_norms(x.vectors)
            sq_y = _sq_norms(y.vectors)
            out = _on_columns(x, y.columns) @ _on_columns(y, x.columns).T
        # ``(sq_x + sq_y) - 2 * cross`` is finished in the product's own
        # buffer a few rows at a time, through one small temporary, so the
        # result is the only n x m array.
        out *= 2.0
        rows = max(1, _FINISH_ENTRIES // out.shape[1])
        norm_sums = np.empty((rows, out.shape[1]))
        for start in range(0, out.shape[0], rows):
            block = out[start : start + rows]
            sums = np.add(sq_x[start : start + rows, None], sq_y[None, :], out=norm_sums[: len(block)])
            np.maximum(np.subtract(sums, block, out=block), 0.0, out=block)
            # max propagates NaN and reaches any inf. A -inf (twice the
            # cross term rounding past the largest float while the norms'
            # sum does not) is clamped to 0, which is then the distance.
            if not math.isfinite(block.max()):
                raise DegenerateInputError("squared distances overflow float64: the embeddings are too large")
    return out


def _as_set(m: Union[EmbeddingSet, np.ndarray]) -> EmbeddingSet:
    return m if isinstance(m, EmbeddingSet) else EmbeddingSet(m)


def _on_columns(emb: EmbeddingSet, others: np.ndarray) -> np.ndarray:
    """``emb.vectors`` restricted to the columns it shares with ``others``, in column order."""
    kept = np.isin(emb.columns, others, assume_unique=True)
    return emb.vectors if kept.all() else emb.vectors[:, kept]


def _sq_norms(m: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", m, m)


# Warm-start schedule for small regularization: stages shrink the working
# epsilon from unit scale down to the target, each reusing the previous
# potentials. Only the target-epsilon stage decides convergence.
_STAGE_START = 1.0
_STAGE_DECAY = 0.25
_STAGE_ITERS = 60
_STAGE_TOL = 1e-4
# Kernel-space scalings outside this range are absorbed into the potentials.
_SCALING_MIN = 1e-30
_SCALING_MAX = 1e30


def sinkhorn_ot(x: EmbeddingSet, y: EmbeddingSet, cfg: OTConfig | None = None) -> SinkhornResult:
    """Entropic transport cost between two embedding sets.

    Returns the plan's transport cost without the entropy term, together
    with a convergence flag: iterations stop once the row-marginal L1
    violation drops below ``cfg.tol`` or ``cfg.max_iters`` is reached,
    and the final plan must meet both marginals within ``cfg.tol``.
    ``iterations`` counts update pairs across all warm-start stages. An
    unconverged solve reads its cost from the plan after one more column
    update, whose columns carry the target weights.

    Each stage's first update, and the first after an absorption, runs in
    the log domain and then builds the absorbed kernel
    ``gibbs = exp(kernel + row_pot + col_pot)``. Later updates are the
    matrix-vector products ``u = a / (gibbs @ v)`` and
    ``v = b / (gibbs.T @ u)``, and the plan is ``gibbs * u v^T``. Once a
    scaling leaves ``[_SCALING_MIN, _SCALING_MAX]``, ``log u`` and
    ``log v`` are folded into the potentials (Schmitzer 2019,
    arXiv:1610.06519).
    """
    return _sinkhorn(pairwise_sq_dists(x, y), cfg or OTConfig())


def _sinkhorn(cost: np.ndarray, cfg: OTConfig) -> SinkhornResult:
    """:func:`sinkhorn_ot` on the squared-distance matrix ``cost`` of the two sets.

    ``cost`` is only read, so the sets themselves need not be held while
    the solver iterates.
    """
    with np.errstate(over="ignore"):
        scale = float(cost.mean())
    if scale == math.inf:
        raise DegenerateInputError("the mean transport cost overflows float64: the embeddings are too large")
    if scale == 0.0:
        return SinkhornResult(0.0, True, 0)

    n_x, n_y = cost.shape
    log_a = np.full(n_x, -math.log(n_x))
    log_b = np.full(n_y, -math.log(n_y))
    weight_a = np.exp(log_a)
    weight_b = np.exp(log_b)

    levels = []
    eps = _STAGE_START
    while eps > cfg.epsilon:
        levels.append(eps)
        eps *= _STAGE_DECAY
    levels.append(cfg.epsilon)

    row_cost_pot = np.zeros(n_x)
    col_cost_pot = np.zeros(n_y)
    total_iters = 0
    # ``kernel`` is -cost / (scale * eps). ``gibbs`` is the absorbed kernel
    # while ``scaled`` holds, and the log-domain updates' work buffer otherwise.
    kernel = np.empty_like(cost)
    gibbs = np.empty_like(cost)
    for level, eps in enumerate(levels):
        final = level == len(levels) - 1
        np.divide(np.divide(cost, -scale, out=kernel), eps, out=kernel)
        row_pot = row_cost_pot / eps
        col_pot = col_cost_pot / eps
        u = np.ones(n_x)
        v = np.ones(n_y)
        # The carried potentials do not fit this stage's kernel, so the
        # first update runs in the log domain; after it the plan's columns
        # sum to b and exp(kernel + row_pot + col_pot) cannot overflow.
        scaled = False
        budget = cfg.max_iters - total_iters
        if not final:
            budget = min(budget, _STAGE_ITERS)
        stage_tol = cfg.tol if final else max(cfg.tol, _STAGE_TOL)
        for _ in range(budget):
            # Row sums of the current plan factor through the next row
            # update, so the marginal check costs nothing extra. Column sums
            # are exact by construction after every column update.
            if scaled:
                k_v = gibbs @ v
                row_sums = u * k_v
            else:
                col_lse = _logsumexp(np.add(kernel, col_pot[None, :], out=gibbs), axis=1)
                row_sums = np.exp(row_pot + col_lse)
            if np.abs(row_sums - weight_a).sum() <= stage_tol:
                break
            total_iters += 1
            if scaled:
                u = weight_a / k_v
                v = weight_b / (gibbs.T @ u)
                if _out_of_range(u) or _out_of_range(v):
                    row_pot, col_pot = row_pot + np.log(u), col_pot + np.log(v)
                    u, v = np.ones(n_x), np.ones(n_y)
                    scaled = False
                continue
            row_pot = log_a - col_lse
            col_pot = log_b - _logsumexp(np.add(kernel, row_pot[:, None], out=gibbs), axis=0)
            _gibbs(kernel, row_pot, col_pot, out=gibbs)
            scaled = True
        row_cost_pot = (row_pot + np.log(u)) * eps
        col_cost_pot = (col_pot + np.log(v)) * eps

    if not scaled:
        _gibbs(kernel, row_pot, col_pot, out=gibbs)
    plan = np.multiply(np.multiply(gibbs, u[:, None], out=gibbs), v[None, :], out=gibbs)
    row_gap = np.abs(plan.sum(axis=1) - weight_a).sum()
    col_gap = np.abs(plan.sum(axis=0) - weight_b).sum()
    converged = bool(row_gap <= cfg.tol and col_gap <= cfg.tol)
    if not converged:
        row_pot = row_pot + np.log(u)
        col_pot = log_b - _logsumexp(np.add(kernel, row_pot[:, None], out=gibbs), axis=0)
        plan = _gibbs(kernel, row_pot, col_pot, out=gibbs)
    return SinkhornResult(float(np.multiply(plan, cost, out=plan).sum()), converged, total_iters)


def _gibbs(kernel: np.ndarray, row_pot: np.ndarray, col_pot: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``exp(kernel + row_pot + col_pot)`` into ``out``."""
    np.add(kernel, row_pot[:, None], out=out)
    return np.exp(np.add(out, col_pot[None, :], out=out), out=out)


def _out_of_range(scaling: np.ndarray) -> bool:
    return bool(scaling.min() < _SCALING_MIN or scaling.max() > _SCALING_MAX)


def ot_similarity(x: EmbeddingSet, y: EmbeddingSet, cfg: OTConfig | None = None) -> float:
    """``exp(-gamma * transport cost)``, clamped to the smallest positive normal.

    Logs the solver's iterations and convergence at debug level, and a
    solve that stopped at ``cfg.max_iters`` unconverged at warning level.
    """
    cfg = cfg or OTConfig()
    return _ot_score(sinkhorn_ot(x, y, cfg), cfg)


def _ot_score(result: SinkhornResult, cfg: OTConfig) -> float:
    """:func:`ot_similarity`'s score of a solve, logged as it logs it."""
    log.debug("sinkhorn: %d iterations, converged %s, cost %.6g", result.iterations, result.converged, result.cost)
    if not result.converged:
        log.warning("sinkhorn did not converge within max_iters %d (tol %g)", cfg.max_iters, cfg.tol)
    return _exp_transform(cfg.gamma, result.cost)


def label_similarity(h_task: LabelHistogram, h_meta: LabelHistogram) -> float:
    """Inner product of empirical class frequencies over the meta classes."""
    return float(
        sum(h_task.frequency(c) * h_meta.frequency(c) for c in h_meta.classes)
    )


def cosine_mean_distance(x: EmbeddingSet, y: EmbeddingSet) -> float:
    """One minus the cosine of the two mean embedding vectors; range [0, 2]."""
    if x.dim != y.dim:
        raise ValidationError(f"embedding dims differ: {x.dim} vs {y.dim}")
    mean_x = _mean_row(x)
    mean_y = _mean_row(y)
    # An overflow is raised below; numpy's warnings would only repeat it.
    with np.errstate(over="ignore"):
        norm_x = np.linalg.norm(mean_x)
        norm_y = np.linalg.norm(mean_y)
        norms = norm_x * norm_y
        if norm_x == 0.0 or norm_y == 0.0:
            raise DegenerateInputError("zero-norm mean")
        if norms == math.inf:
            raise DegenerateInputError("the mean norms' product overflows float64: the embeddings are too large")
        cosine = float(mean_x @ mean_y / norms)
    return min(max(1.0 - cosine, 0.0), 2.0)


def _mean_row(emb: EmbeddingSet) -> np.ndarray:
    """The mean embedding, scattered back to all ``dim`` dimensions.

    The mean is taken over a C-ordered copy, which sums each column row by
    row, as the mean over the full dense matrix does.
    """
    full = np.zeros(emb.dim)
    full[emb.columns] = np.ascontiguousarray(emb.vectors).mean(axis=0)
    return full


def median_heuristic_bandwidth(x: EmbeddingSet, y: EmbeddingSet) -> float:
    """Median pairwise distance over the pooled samples (1.0 when all coincide).

    The pooled pairs are the pairs within x, the pairs within y and every
    (x, y) pair, so the median is read off the three blocks of squared
    distances that ``mmd_rbf`` also reads, without forming the pooled
    matrix.
    """
    return _pooled_median(*_distance_blocks(x, y))


def mmd_rbf(x: EmbeddingSet, y: EmbeddingSet, bandwidth: float | None = None) -> float:
    """Biased RBF-kernel maximum mean discrepancy (the square root of MMD^2).

    ``bandwidth`` of None selects ``median_heuristic_bandwidth(x, y)``,
    read off the same three distance blocks as the kernel means, so each
    block is built once. A given bandwidth must be finite and positive.
    """
    if x.dim != y.dim:
        raise ValidationError(f"embedding dims differ: {x.dim} vs {y.dim}")
    if bandwidth is not None and not _finite_positive(bandwidth):
        raise ValidationError("bandwidth must be finite and positive")
    return _bandwidth_and_mmd(*_distance_blocks(x, y), bandwidth)[1]


def _distance_blocks(x: EmbeddingSet, y: EmbeddingSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The squared-distance blocks ``xx``, ``yy`` and ``xy``."""
    return pairwise_sq_dists(x, x), pairwise_sq_dists(y, y), pairwise_sq_dists(x, y)


def _bandwidth_and_mmd(
    xx: np.ndarray, yy: np.ndarray, xy: np.ndarray, bandwidth: float | None
) -> tuple[float, float]:
    """The bandwidth and the MMD of two sets, read off their squared-distance blocks.

    ``xx`` and ``yy`` are the blocks within each set and ``xy`` the block
    between them. ``bandwidth`` of None takes the median heuristic's, and
    the same blocks then serve the median and the kernel means; the blocks
    are only read. The three kernel means go through one buffer the size
    of the largest block.
    """
    if bandwidth is None:
        bandwidth = _pooled_median(xx, yy, xy)
    denom = 2.0 * bandwidth * bandwidth
    if denom == 0.0:
        raise DegenerateInputError(f"bandwidth {bandwidth:g} is too small: 2 * bandwidth**2 underflows to 0")
    buffer = np.empty(max(xx.size, yy.size, xy.size))
    k_xx, k_yy, k_xy = (_kernel_mean(block, denom, buffer) for block in (xx, yy, xy))
    mmd_sq = max(float(k_xx + k_yy - 2.0 * k_xy), 0.0)
    return bandwidth, math.sqrt(mmd_sq)


def _kernel_mean(sq_dists: np.ndarray, denom: float, buffer: np.ndarray) -> np.floating:
    """The mean of ``exp(-sq_dists / denom)``, computed in ``buffer``."""
    kernel = buffer[: sq_dists.size].reshape(sq_dists.shape)
    np.divide(np.negative(sq_dists, out=kernel), denom, out=kernel)
    return np.exp(kernel, out=kernel).mean()


def _pooled_median(xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> float:
    """Median distance over the entries above the diagonals of ``xx`` and ``yy`` and all of ``xy``.

    The entries are copied once into one buffer, the squares' row by row so
    that no index or mask is built, and partitioned there about their
    middle. The square root is monotone and correctly rounded, so only the
    one or two middle entries need it; they are averaged as ``np.median``
    averages them. The blocks are finite: ``pairwise_sq_dists`` raises on
    an overflow.
    """
    n, m = xy.shape
    pooled = np.empty(n * (n - 1) // 2 + m * (m - 1) // 2 + n * m)
    filled = 0
    for square in (xx, yy):
        for i in range(square.shape[0] - 1):
            above = square[i, i + 1 :]
            pooled[filled : filled + above.size] = above
            filled += above.size
    pooled[filled:] = xy.ravel()
    half = pooled.size // 2
    pooled.partition(half)
    median = np.sqrt(pooled[half])
    if pooled.size % 2 == 0:
        median = (np.sqrt(pooled[:half].max()) + median) / 2.0
    median = float(median)
    return median if median > 0.0 else 1.0


def similarity_vector(
    task_inputs: Iterable[Union[EmbeddingSet, LabelHistogram]],
    meta: Union[EmbeddingSet, LabelHistogram],
    metric: str,
    cfg: OTConfig | None = None,
) -> SimilarityVector:
    """Score every task against the one meta dataset with one metric.

    ``task_inputs`` may be any iterable, a one-shot generator included. The
    meta input's type is checked first, and each task's as it arrives; each
    task is scored before the next is asked for, and let go before then, so
    besides the meta set at most one task input is held at a time.

    For ``mmd`` the meta set's self block ``yy`` is built once, before the
    first task, and each task's ``xy`` and ``xx`` once each, for the
    bandwidth and the kernel means alike: 2T+1 distance blocks for T tasks.
    For ``ot`` each task's cost block ``xy`` is built and solved on. The
    task is let go as soon as its blocks exist, so one that the caller does
    not hold (a generator's) is freed before the median's pooled copy is
    made, or before Sinkhorn iterates.
    """
    cfg = cfg or OTConfig()
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    expected = LabelHistogram if metric == "label" else EmbeddingSet

    def checked(item):
        if not isinstance(item, expected):
            raise ValidationError(
                f"metric {metric!r} requires {expected.__name__} inputs, got {type(item).__name__}"
            )
        return item

    checked(meta)
    yy = pairwise_sq_dists(meta, meta) if metric == "mmd" else None

    def score(item) -> float:
        if metric == "ot":
            return _ot_score(_sinkhorn(item, cfg), cfg)
        if metric == "label":
            return label_similarity(item, meta)
        if metric == "cos":
            return _exp_transform(cfg.gamma_cos, cosine_mean_distance(item, meta))
        xy, xx = item
        _, mmd = _bandwidth_and_mmd(xx, yy, xy, cfg.mmd_bandwidth)
        return _exp_transform(cfg.gamma_mmd, mmd)

    scores = []
    for item in map(checked, task_inputs):
        # The task's distance blocks replace it, the last reference this loop holds.
        if metric == "ot":
            item = pairwise_sq_dists(item, meta)
        elif metric == "mmd":
            item = pairwise_sq_dists(item, meta), pairwise_sq_dists(item, item)
        scores.append(score(item))
        # Let go before the next task is made.
        del item
    if not scores:
        raise ValidationError("need at least one task input")
    return SimilarityVector(scores)


def _exp_transform(gamma: float, distance: float) -> float:
    value = math.exp(-gamma * distance) if -gamma * distance > -745.0 else 0.0
    if value < _TINY:
        log.debug("score exp(-%g * %.6g) = %g clamped to %g", gamma, distance, value, _TINY)
        return _TINY
    return value


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp of ``values`` along ``axis``; ``values`` is overwritten."""
    peak = values.max(axis=axis, keepdims=True)
    np.exp(np.subtract(values, peak, out=values), out=values)
    return np.log(values.sum(axis=axis)) + peak.squeeze(axis)
