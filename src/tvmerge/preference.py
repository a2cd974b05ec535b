"""Per-task element budgets: their rule, their checks and their file format.

Budgets are a non-empty list of non-negative integers (not booleans), one
per task, summing to the element count d; whether they fit a given set of
task vectors is checked by ``merge``. Scores are non-empty, finite,
non-negative numbers (not booleans or strings) with a positive sum.

Budgets, and a target environment's sample counts, follow one rule,
:func:`largest_remainder_counts`: Hamilton's method on exact rationals.
Task t gets ``floor(score_t / total * d)`` elements and the leftover units
go to the largest remainders, ties to the lower index; budgets sum to d.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, DegenerateInputError, ValidationError

#: Alpha values above this are clamped before the geometric weights are formed.
ALPHA_CAP = 1e6

Scores = Union["SimilarityVector", Sequence[float], np.ndarray]


@dataclass(frozen=True)
class PreferenceVector:
    """Per-task element budgets; must sum to the model's element count."""

    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        if violations := _budget_violations(self.budgets):
            raise ValidationError("; ".join(violations))
        object.__setattr__(self, "budgets", tuple(int(n) for n in self.budgets))

    @property
    def num_tasks(self) -> int:
        return len(self.budgets)

    @property
    def total(self) -> int:
        return sum(self.budgets)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.budgets, dtype=np.int64)


@dataclass(frozen=True)
class SimilarityVector:
    """Per-task similarity scores against a shared meta dataset."""

    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = tuple(self.scores)
        if not all(isinstance(s, Real) and not isinstance(s, bool) for s in scores):
            raise ValidationError("similarity scores must be numbers")
        try:
            scores = tuple(float(s) for s in scores)
        except OverflowError:  # an integer too large for a float
            raise ValidationError("similarity scores must be finite") from None
        if not scores:
            raise ValidationError("similarity scores must not be empty")
        if not all(math.isfinite(s) for s in scores):
            raise ValidationError("similarity scores must be finite")
        if any(s < 0 for s in scores):
            raise ValidationError("negative score")
        if sum(scores) <= 0:
            raise DegenerateInputError("all-zero similarities")
        object.__setattr__(self, "scores", scores)

    @property
    def num_tasks(self) -> int:
        return len(self.scores)


def preference_from_similarities(scores: Scores, dim: int) -> PreferenceVector:
    """Budgets proportional to scores by :func:`largest_remainder_counts`."""
    if not isinstance(scores, SimilarityVector):
        scores = SimilarityVector(tuple(scores))
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    return PreferenceVector(tuple(largest_remainder_counts(scores.scores, dim)))


def preference_from_alpha(alpha: float, num_tasks: int, dim: int) -> PreferenceVector:
    """Budgets from the geometric schedule: task t is weighted ``alpha ** (T - t)``.

    Alpha 0 gives everything to the last task.
    """
    if not math.isfinite(alpha) or alpha < 0:
        raise ValidationError("alpha must be a finite value >= 0")
    if num_tasks < 1:
        raise ValidationError("num_tasks must be >= 1")
    _check_array_size("num_tasks", num_tasks)
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if alpha == 0.0:
        return PreferenceVector((0,) * (num_tasks - 1) + (dim,))
    # Weights are formed in log space so large alpha ** (T - t) cannot overflow.
    log_w = np.arange(num_tasks - 1, -1, -1, dtype=np.float64) * math.log(min(alpha, ALPHA_CAP))
    return PreferenceVector(tuple(largest_remainder_counts(np.exp(log_w - log_w.max()), dim)))


def largest_remainder_counts(weights, total: int) -> np.ndarray:
    """Counts summing to ``total`` in proportion to ``weights``: the package's one apportionment rule.

    Each count is the floor of its exact rational share ``w / sum(w) * total``;
    the leftover units go to the largest remainders, ties to the lower index.
    Counts are int64, or Python ints in an object array past int64.
    """
    array = np.asarray(weights, dtype=np.float64)
    if array.ndim != 1 or not np.isfinite(array).all() or (array < 0).any() or not array.any():
        raise ValidationError("weights must be 1-D, finite and non-negative, with a positive sum")
    if not _is_integral(total) or total < 0:
        raise ValidationError(f"total must be an integer >= 0, got {total!r}")
    total = int(total)
    exact = [Fraction(w) for w in array.tolist()]
    scale = sum(exact)
    shares = [w * total / scale for w in exact]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return np.array(counts, dtype=np.int64 if total <= np.iinfo(np.int64).max else object)


def validate_preference(pref: PreferenceVector | Sequence[int], dim: int) -> list[str]:
    """Return human-readable violations; an empty list means the vector is valid."""
    budgets = pref.budgets if isinstance(pref, PreferenceVector) else pref
    violations = _budget_violations(budgets)
    if not _is_integral(dim):
        violations.append(f"non-integer element count d {dim!r}")
    if not violations and (total := sum(int(n) for n in budgets)) != dim:
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


def read_json_object(source: Union[str, Path], what: str) -> dict:
    """Parse a JSON file that must hold an object; ``what`` names it in the error."""
    payload = read_json(source)
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return payload


def load_preference(source: Union[str, Path]) -> PreferenceVector:
    """Read a budgets file and verify it against its own element count."""
    budgets, violations = _read_budgets(source)
    if violations:
        raise ValidationError("; ".join(violations))
    return PreferenceVector(tuple(budgets))


def _read_budgets(source: Union[str, Path], dim: int | None = None) -> tuple[object, list[str]]:
    """A budgets file's budgets and their violations against ``dim`` (default: its ``d``)."""
    payload = read_json_object(source, "preference file")
    if not {"budgets", "d"} <= payload.keys():
        raise ValidationError("preference file must contain 'budgets' and 'd'")
    budgets = payload["budgets"]
    return budgets, validate_preference(budgets, payload["d"] if dim is None else dim)


def _budget_violations(budgets) -> list[str]:
    """Violations of the budget rule: a non-empty list of non-negative integers, not booleans."""
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
    return violations


def _check_array_size(name: str, count: int, item_bytes: int = 8) -> None:
    """Raise ValidationError naming ``name`` unless ``count`` items of ``item_bytes`` fit in one numpy array."""
    if count * item_bytes > np.iinfo(np.intp).max:
        raise ValidationError(f"{name} {count} is too large for a numpy array")


def _is_integral(value) -> bool:
    """Whether ``value`` is an integer: an integral number, not a boolean."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False

