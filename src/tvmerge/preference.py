"""Construction and validation of per-task element budgets.

Budgets are allocated proportionally to nonnegative scores with a floor
plus remainder rule: task t gets ``floor(score_t / total * d)`` elements
and the first R tasks (in index order) absorb one leftover unit each.
The floor arithmetic runs on exact rationals so the budgets always sum
to d regardless of score scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, DegenerateInputError, ValidationError
from .merging import PreferenceVector, _is_integral

#: Alpha values above this are clamped before the geometric weights are formed.
ALPHA_CAP = 1e6

Scores = Union["SimilarityVector", Sequence[float], np.ndarray]


@dataclass(frozen=True)
class SimilarityVector:
    """Per-task similarity scores against a shared meta dataset."""

    scores: tuple[float, ...]
    metric: str = ""

    def __post_init__(self) -> None:
        try:
            scores = tuple(float(s) for s in self.scores)
        except (TypeError, ValueError):
            raise ValidationError("similarity scores must be numbers") from None
        object.__setattr__(self, "scores", scores)
        _check_scores(self.scores)

    @property
    def num_tasks(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class AlphaSchedule:
    """Geometric budget schedule: task t is weighted ``alpha ** (T - t)``."""

    alpha: float
    num_tasks: int
    dim: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValidationError("alpha must be a finite value >= 0")
        if self.num_tasks < 1:
            raise ValidationError("num_tasks must be >= 1")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")


def preference_from_similarities(scores: Scores, dim: int) -> PreferenceVector:
    """Budgets proportional to scores via the floor plus remainder rule."""
    values = list(scores.scores) if isinstance(scores, SimilarityVector) else [
        float(s) for s in scores
    ]
    _check_scores(values)
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    return PreferenceVector(tuple(_floor_remainder_allocation(values, dim)))


def preference_from_alpha(schedule: AlphaSchedule) -> PreferenceVector:
    """Budgets from the geometric schedule; alpha 0 gives everything to the last task."""
    tasks, dim = schedule.num_tasks, schedule.dim
    if schedule.alpha == 0.0:
        return PreferenceVector((0,) * (tasks - 1) + (dim,))
    alpha = min(schedule.alpha, ALPHA_CAP)
    # Weights are formed in log space so large alpha ** (T - t) cannot overflow.
    exponents = np.arange(tasks - 1, -1, -1, dtype=np.float64)
    log_w = exponents * math.log(alpha)
    ratios = np.exp(log_w - log_w.max())
    ratios /= ratios.sum()
    return PreferenceVector(tuple(_floor_remainder_allocation(ratios.tolist(), dim)))


def validate_preference(
    pref: PreferenceVector | Sequence[int], dim: int
) -> list[str]:
    """Return human-readable violations; an empty list means the vector is valid."""
    budgets = pref.budgets if isinstance(pref, PreferenceVector) else pref
    if not isinstance(budgets, (list, tuple, np.ndarray)):
        return [f"budgets must be a list, got {type(budgets).__name__}"]
    if not len(budgets):
        return ["preference vector must not be empty"]
    violations = []
    for index, n in enumerate(budgets, start=1):
        if not _is_integral(n):
            violations.append(f"non-integer budget {n} for task {index}")
        elif n < 0:
            violations.append(f"negative budget {n} for task {index}")
    if not _is_integral(dim):
        violations.append(f"non-integer element count d {dim!r}")
    total = sum(int(n) for n in budgets if _is_integral(n))
    if not violations and total != dim:
        violations.append(f"sum {total} != {dim}")
    return violations


def save_preference(destination: Union[str, Path], pref: PreferenceVector) -> None:
    payload = {"budgets": list(pref.budgets), "d": pref.total}
    Path(destination).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(source: Union[str, Path]):
    """Parse a JSON file; bytes that are not UTF-8 JSON raise ConfigError."""
    try:
        return json.loads(Path(source).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer literal over 4300 digits
        raise ConfigError(f"{source}: not valid UTF-8 JSON: {exc}") from None


def load_preference(source: Union[str, Path]) -> PreferenceVector:
    """Read a budgets file and verify it against its own element count."""
    payload = read_json(source)
    try:
        budgets = payload["budgets"]
        dim = payload["d"]
    except (KeyError, TypeError):
        raise ValidationError("preference file must contain 'budgets' and 'd'") from None
    violations = validate_preference(budgets, dim)
    if violations:
        raise ValidationError("; ".join(violations))
    return PreferenceVector(tuple(int(n) for n in budgets))


def _floor_remainder_allocation(scores: Sequence[float], dim: int) -> list[int]:
    exact = [Fraction(s) for s in scores]
    total = sum(exact)
    floors = [int(s / total * dim) for s in exact]
    remainder = dim - sum(floors)
    return [n + 1 if index < remainder else n for index, n in enumerate(floors)]


def _check_scores(scores: Sequence[float]) -> None:
    if not len(scores):
        raise ValidationError("similarity scores must not be empty")
    if any(not math.isfinite(s) for s in scores):
        raise ValidationError("similarity scores must be finite")
    if any(s < 0 for s in scores):
        raise ValidationError("negative score")
    if sum(scores) <= 0:
        raise DegenerateInputError("all-zero similarities")
