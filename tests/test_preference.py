from fractions import Fraction

import numpy as np
import pytest

from tvmerge import (
    AlphaSchedule,
    DegenerateInputError,
    PreferenceVector,
    SimilarityVector,
    ValidationError,
    load_preference,
    preference_from_alpha,
    preference_from_similarities,
    save_preference,
    validate_preference,
)


class TestFromSimilarities:
    def test_equal_scores_with_remainder(self):
        assert preference_from_similarities([1.0, 1.0], 7).budgets == (4, 3)

    def test_zero_score_gets_zero_budget(self):
        assert preference_from_similarities([2.0, 0.0], 5).budgets == (5, 0)

    def test_equal_scores_dividing_evenly(self):
        for num_tasks in (1, 2, 4, 5, 10):
            pref = preference_from_similarities([3.0] * num_tasks, 20 * num_tasks)
            assert pref.budgets == (20,) * num_tasks

    def test_sum_is_exact_on_random_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            num_tasks = int(rng.integers(1, 30))
            dim = int(rng.integers(1, 10**6))
            scores = rng.uniform(0.0, 5.0, size=num_tasks)
            scores[rng.integers(num_tasks)] = rng.uniform(0.1, 5.0)  # keep sum positive
            pref = preference_from_similarities(scores, dim)
            assert pref.total == dim

    def test_proportionality_within_one_unit(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            num_tasks = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 10**5))
            scores = rng.uniform(0.01, 3.0, size=num_tasks)
            pref = preference_from_similarities(scores, dim)
            shares = [Fraction(s) / Fraction(float(scores.sum())) * dim for s in scores]
            for budget, share in zip(pref.budgets, shares):
                assert abs(budget - float(share)) <= 1.0 + 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.1, 2.0, size=6)
        baseline = preference_from_similarities(scores, 997).budgets
        for factor in (0.5, 2.0, 1024.0, 7.3, 0.0091):
            scaled = preference_from_similarities(factor * scores, 997).budgets
            assert scaled == baseline

    def test_all_zero_scores_degenerate(self):
        with pytest.raises(DegenerateInputError, match="all-zero"):
            preference_from_similarities([0.0, 0.0], 5)

    def test_negative_score_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            preference_from_similarities([1.0, -0.5], 5)

    def test_accepts_similarity_vector(self):
        sims = SimilarityVector((1.0, 3.0), metric="label")
        assert preference_from_similarities(sims, 4).budgets == (1, 3)


class TestFromAlpha:
    def test_hand_value(self):
        pref = preference_from_alpha(AlphaSchedule(2.0, 5, 100))
        assert pref.budgets == (52, 26, 13, 6, 3)
        assert pref.total == 100

    def test_alpha_zero_gives_everything_to_last_task(self):
        assert preference_from_alpha(AlphaSchedule(0.0, 3, 10)).budgets == (0, 0, 10)

    def test_alpha_one_equal_budgets(self):
        assert preference_from_alpha(AlphaSchedule(1.0, 4, 8)).budgets == (2, 2, 2, 2)
        assert preference_from_alpha(AlphaSchedule(1.0, 3, 9)).budgets == (3, 3, 3)

    def test_monotone_in_task_order(self):
        for alpha in (1.5, 2.0, 7.0):
            budgets = preference_from_alpha(AlphaSchedule(alpha, 6, 10_000)).budgets
            assert list(budgets) == sorted(budgets, reverse=True)
        for alpha in (0.2, 0.5, 0.9):
            budgets = preference_from_alpha(AlphaSchedule(alpha, 6, 10_000)).budgets
            assert list(budgets) == sorted(budgets)

    def test_large_alpha_and_tasks_stay_finite(self):
        pref = preference_from_alpha(AlphaSchedule(1e6, 200, 10**6))
        assert pref.total == 10**6
        assert pref.budgets[0] >= pref.budgets[1]

    def test_alpha_above_cap_clamps(self):
        capped = preference_from_alpha(AlphaSchedule(1e6, 5, 1000))
        above = preference_from_alpha(AlphaSchedule(1e9, 5, 1000))
        assert capped.budgets == above.budgets

    def test_invalid_schedules(self):
        with pytest.raises(ValidationError):
            AlphaSchedule(-1.0, 3, 10)
        with pytest.raises(ValidationError):
            AlphaSchedule(1.0, 0, 10)
        with pytest.raises(ValidationError):
            AlphaSchedule(1.0, 3, 0)


class TestValidateAndIO:
    def test_ok(self):
        assert validate_preference([4, 3], 7) == []

    def test_sum_violation(self):
        report = validate_preference([4, 4], 7)
        assert len(report) == 1 and "sum 8 != 7" in report[0]

    def test_negative_violation(self):
        report = validate_preference([-1, 8], 7)
        assert any("negative" in line for line in report)

    def test_preference_vector_type_rejects_negatives(self):
        with pytest.raises(ValidationError):
            PreferenceVector((-1, 8))

    @pytest.mark.parametrize("budgets", [(float("nan"), 1), (float("inf"), 1), (None,), (True, 1), (2.5, 1.5)])
    def test_preference_vector_type_rejects_non_integers(self, budgets):
        with pytest.raises(ValidationError, match="budgets must be integers"):
            PreferenceVector(budgets)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "pref.json"
        save_preference(path, PreferenceVector((4, 3)))
        assert load_preference(path).budgets == (4, 3)

    def test_load_rejects_inconsistent_file(self, tmp_path):
        path = tmp_path / "pref.json"
        path.write_text('{"budgets": [4, 4], "d": 7}')
        with pytest.raises(ValidationError, match="sum"):
            load_preference(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "pref.json"
        path.write_text('{"budgets": [4, 3]}')
        with pytest.raises(ValidationError):
            load_preference(path)
