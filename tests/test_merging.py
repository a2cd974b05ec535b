import io
import itertools
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmerge import (
    MERGE_METHODS,
    Assignment,
    ParameterSet,
    PreferenceVector,
    RESIDUAL_RANDOM,
    Rows,
    ShapeMismatchError,
    ValidationError,
    assignment_census,
    merge,
    read_assignment,
    write_assignment,
)
from tvmerge import container, merging

from reference_merge import argmax_later_wins, fill_slots, keyed_stream, reference_fill, reference_tunable_merge


def random_budgets(rng, num_tasks, dim):
    return rng.multinomial(dim, np.ones(num_tasks) / num_tasks)


def skewed_case(rng, num_tasks, dim):
    """Normal task vectors with task 1 four times as large, and Dirichlet budgets.

    Task 1 sets most records, so later tasks fall short of their budgets
    and the residual fill is large enough to earn table slots.
    """
    scales = np.array([4.0] + [1.0] * (num_tasks - 1))
    taus = rng.standard_normal((num_tasks, dim)) * scales[:, None]
    return taus, rng.multinomial(dim, rng.dirichlet(np.ones(num_tasks)))


def block_buffer_rows(num_tasks, dim, dtype, fill):
    """A row source that refills one block buffer: ``fill(task, block, out)`` writes a block."""
    buffer = np.empty(min(container._BLOCK, dim), dtype=dtype)

    def blocks(task):
        for block in merging._blocks(dim):
            part = buffer[: block.stop - block.start]
            fill(task, block, part)
            yield part

    return Rows(num_tasks, dim, blocks)


def reused_buffer_rows(taus):
    """A row source over ``taus`` that copies every block into one buffer."""

    def fill(task, block, out):
        np.copyto(out, taus[task, block])

    return block_buffer_rows(*taus.shape, taus.dtype, fill)


class TestMagmax:
    def test_toy_vectors(self):
        taus = np.array([[1.0, -3.0, 2.0], [-2.0, 1.0, 2.0]])
        merged, assignment = merge("magmax", taus)
        assert merged.tolist() == [-2.0, -3.0, 2.0]
        assert assignment.owner.tolist() == [2, 1, 2]

    def test_single_task_is_identity(self):
        tau = np.array([[0.5, -1.5, 0.0]])
        merged, assignment = merge("magmax", tau)
        assert merged.tolist() == tau[0].tolist()
        assert assignment.owner.tolist() == [1, 1, 1]

    def test_all_zero_ties_go_to_last_task(self):
        merged, assignment = merge("magmax", np.zeros((2, 4)))
        assert merged.tolist() == [0.0] * 4
        assert assignment.owner.tolist() == [2, 2, 2, 2]

    def test_scaled_task_dominates_everywhere(self):
        rng = np.random.default_rng(0)
        taus = rng.normal(size=(3, 500))
        taus[2] = 10.0 * np.abs(taus[:2]).max(axis=0) + 1.0
        _, assignment = merge("magmax", taus)
        assert assignment_census(assignment).tolist() == [0, 0, 500]

    def test_container_inputs_rejected(self):
        base = ParameterSet({"a": np.zeros((2, 2)), "b": np.zeros(3)})
        taus = [ParameterSet(base.items()), ParameterSet(base.items())]
        with pytest.raises(ValidationError, match="1-D"):
            merge("magmax", taus)

    def test_owners_match_reference_on_tie_heavy_instances(self):
        rng = np.random.default_rng(14)
        for trial in range(200):
            num_tasks = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 17))
            dtype = np.float32 if trial % 2 else np.float64
            taus = rng.integers(-2, 3, size=(num_tasks, dim)).astype(dtype)
            taus[rng.random(size=taus.shape) < 0.1] = np.inf
            taus[rng.random(size=taus.shape) < 0.1] = -np.inf
            merged, assignment = merge("magmax", taus)
            ref_owner = [
                argmax_later_wins([abs(float(v)) for v in taus[:, p]]) + 1 for p in range(dim)
            ]
            assert assignment.owner.tolist() == ref_owner
            assert merged.tobytes() == taus[np.array(ref_owner) - 1, np.arange(dim)].tobytes()

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeMismatchError):
            merge("magmax", [np.zeros(2), np.zeros(3)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            merge("magmax", [])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            merge("magmax", np.array([[np.nan, 0.0]]))


class TestTunable:
    def test_hand_example_no_randomness(self):
        taus = np.array([[5.0, 4.0, 1.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        merged, assignment = merge("tunable", taus, [2, 2], seed=123)
        assert merged.tolist() == [5.0, 4.0, 3.0, 4.0]
        assert assignment.owner.tolist() == [1, 1, 2, 2]
        assert assignment.provenance.tolist() == [1, 1, 1, 1]
        # seed is irrelevant when every claim fits its budget
        merged_b, _ = merge("tunable", taus, [2, 2], seed=999)
        assert np.array_equal(merged, merged_b)

    def test_last_task_only_budget_returns_it_bitwise(self):
        rng = np.random.default_rng(2)
        taus = rng.normal(size=(4, 64)).astype(np.float32)
        merged, assignment = merge("tunable", taus, [0, 0, 0, 64], seed=7)
        assert merged.tobytes() == taus[3].tobytes()
        assert set(assignment.owner.tolist()) == {4}

    def test_budget_sum_mismatch(self):
        with pytest.raises(ValidationError, match="sum"):
            merge("tunable", np.zeros((2, 4)), [2, 1])

    def test_negative_budget(self):
        with pytest.raises(ValidationError, match="negative"):
            merge("tunable", np.zeros((2, 4)), [-1, 5])

    def test_non_integer_budgets_rejected(self):
        for budgets in ([2.5, 1.5], np.array([2.5, 1.5]), [np.inf, -np.inf], [np.nan, 4.0], [True, 3]):
            with pytest.raises(ValidationError, match="non-integer budget .* for task 1"):
                merge("tunable", np.zeros((2, 4)), budgets)
        _, assignment = merge("tunable", np.ones((2, 4)), [1.0, 3.0])
        assert assignment_census(assignment).tolist() == [1, 3]

    def test_wrong_budget_count(self):
        with pytest.raises(ValidationError, match="budgets"):
            merge("tunable", np.zeros((2, 4)), [4])

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_checked_before_any_row_is_read(self, seed):
        streamed = []

        def fill(task, block, out):
            streamed.append(task)
            out.fill(1.0)

        with pytest.raises(ValidationError, match="seed"):
            merge("tunable", block_buffer_rows(2, 8, np.float32, fill), [4, 4], seed=seed)
        assert streamed == []

    def test_census_matches_budgets_exactly(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            num_tasks = int(rng.integers(1, 7))
            dim = int(rng.integers(1, 200))
            taus = rng.normal(size=(num_tasks, dim))
            budgets = random_budgets(rng, num_tasks, dim)
            _, assignment = merge("tunable", taus, budgets, seed=trial)
            assert assignment_census(assignment).tolist() == budgets.tolist()

    def test_partition_every_element_owned_once(self):
        rng = np.random.default_rng(4)
        taus = rng.normal(size=(5, 333))
        budgets = random_budgets(rng, 5, 333)
        _, assignment = merge("tunable", taus, budgets, seed=5)
        assert assignment.owner.min() >= 1 and assignment.owner.max() <= 5
        assert assignment.owner.size == 333

    def test_reduces_to_magmax_at_census_budgets(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            taus = rng.normal(size=(4, 257))
            magmax_merged, magmax_assignment = merge("magmax", taus)
            census = assignment_census(magmax_assignment)
            merged, assignment = merge("tunable", taus, census, seed=trial)
            assert np.array_equal(merged, magmax_merged)
            assert np.array_equal(assignment.owner, magmax_assignment.owner)

    def test_round_one_last_task_claims_its_magmax_set(self):
        rng = np.random.default_rng(8)
        taus = rng.normal(size=(3, 400))
        budgets = random_budgets(rng, 3, 400)
        _, assignment = merge("tunable", taus, budgets, seed=9)
        magmax_set = np.abs(taus).argmax(axis=0) == 2  # continuous values, no ties
        kept_in_round_one = (assignment.owner == 3) & (assignment.provenance == 1)
        # random reduction only removes candidates, never adds
        assert not np.any(kept_in_round_one & ~magmax_set)
        assert kept_in_round_one.sum() == min(budgets[2], magmax_set.sum())

    def test_determinism_per_seed(self):
        rng = np.random.default_rng(10)
        taus = rng.normal(size=(4, 300))
        budgets = random_budgets(rng, 4, 300)
        merged_a, assign_a = merge("tunable", taus, budgets, seed=42)
        merged_b, assign_b = merge("tunable", taus, budgets, seed=42)
        assert np.array_equal(merged_a, merged_b)
        assert np.array_equal(assign_a.owner, assign_b.owner)
        merged_c, _ = merge("tunable", taus, budgets, seed=43)
        assert not np.array_equal(merged_a, merged_c)

    def test_matches_reference_on_tie_heavy_instances(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            num_tasks = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 13))
            if trial % 2:
                taus = rng.integers(-2, 3, size=(num_tasks, dim)).astype(float)
            else:
                taus = rng.normal(size=(num_tasks, dim))
            budgets = random_budgets(rng, num_tasks, dim)
            merged, assignment = merge("tunable", taus, budgets, seed=trial)
            ref_merged, ref_owner, ref_prov = reference_tunable_merge(
                [row.tolist() for row in taus], budgets.tolist(), trial
            )
            assert merged.tolist() == ref_merged
            assert assignment.owner.tolist() == ref_owner
            assert assignment.provenance.tolist() == ref_prov

    def test_accepts_preference_vector_type(self):
        taus = np.array([[1.0, 2.0], [3.0, 0.0]])
        merged, _ = merge("tunable", taus, PreferenceVector((1, 1)), seed=0)
        assert sorted(merged.tolist()) == [2.0, 3.0]

    def test_residual_provenance_reported(self):
        # the second task never wins a magnitude comparison, so most of its
        # budget can only be met by the residual random fill
        taus = np.array([[5.0, 5.0, 5.0, 5.0], [1.0, 0.0, 0.0, 0.0]])
        merged, assignment = merge("tunable", taus, [1, 3], seed=1)
        assert assignment_census(assignment).tolist() == [1, 3]
        assert (assignment.provenance == RESIDUAL_RANDOM).sum() == 3
        assert np.all(assignment.owner[assignment.provenance == RESIDUAL_RANDOM] == 2)


class TestSelectionDraw:
    def test_cut_claims_and_residual_fill_are_uniform_over_seeds(self):
        # Record-setters: task 1 everywhere, task 2 on 0..7, task 3 on 8..9,
        # task 4 on 10. Sweeping from the last task, tasks 4 and 3 claim 1 of
        # 2 and 2 of 5 budgeted elements; task 2 keeps 3 of its 8 candidates,
        # and task 1 keeps 6 of the 10 elements still unassigned. The 4
        # leftovers go to tasks 3 and 4 in a 3:1 ratio.
        dim, trials = 16, 2000
        taus = np.zeros((4, dim))
        taus[0] = 1.0
        taus[1, :8] = 2.0
        taus[2, 8:10] = 3.0
        taus[3, 10] = 4.0
        setters = taus > 0
        budgets = [6, 3, 5, 2]
        cut = {2: (3, 8), 1: (6, 10)}  # task: (kept, candidates)
        fill = {3: 3 / 4, 4: 1 / 4}
        offered = {task: np.zeros(dim) for task in cut}
        kept = {task: np.zeros(dim) for task in cut}
        leftover, filled = np.zeros(dim), {task: np.zeros(dim) for task in fill}
        for seed in range(trials):
            _, assignment = merge("tunable", taus, budgets, seed=seed)
            owner, claimed = assignment.owner, assignment.provenance == 1
            for task, (need, size) in cut.items():
                candidates = setters[task - 1] & ~(claimed & (owner > task))
                assert candidates.sum() == size
                offered[task] += candidates
                kept[task] += claimed & (owner == task)
            residual = assignment.provenance == RESIDUAL_RANDOM
            leftover += residual
            for task in fill:
                filled[task] += residual & (owner == task)
        assert leftover.sum() == 4 * trials

        def within_five_sigma(hits, counts, p):
            seen = counts > 0
            n = counts[seen]
            return np.all(np.abs(hits[seen] - n * p) <= 5 * np.sqrt(n * p * (1 - p)))

        for task, (need, size) in cut.items():
            assert within_five_sigma(kept[task], offered[task], need / size), task
        for task, share in fill.items():
            assert within_five_sigma(filled[task], leftover, share), task


class TestResidualFill:
    # Tasks 2 and 3 are zero, so they never set a record and task 1 has no
    # budget: the fill places all four elements, two for each of tasks 2 and 3.
    TWO_AND_TWO = (np.array([[5.0] * 4, [0.0] * 4, [0.0] * 4]), [0, 2, 2])

    def test_slotted_fills_match_reference(self, monkeypatch):
        rng = np.random.default_rng(1907)
        cases = [
            (seed, *skewed_case(rng, int(rng.integers(2, 5)), int(rng.integers(5000, 20001))))
            for seed in range(4)
        ]
        for block in (container._BLOCK, 8):
            monkeypatch.setattr(container, "_BLOCK", block)
            for seed, taus, budgets in cases:
                merged, assignment = merge("tunable", taus, budgets, seed=seed)
                ref_merged, ref_owner, ref_prov = reference_tunable_merge(
                    [row.tolist() for row in taus], budgets.tolist(), seed
                )
                filled = assignment.owner[assignment.provenance == RESIDUAL_RANDOM]
                assert any(fill_slots(np.bincount(filled, minlength=len(budgets) + 1)[1:].tolist()))
                assert merged.tobytes() == np.array(ref_merged).tobytes()
                assert assignment.owner.tolist() == ref_owner
                assert assignment.provenance.tolist() == ref_prov

    def test_no_slack_gives_every_arrangement_of_two_and_two_alike(self, monkeypatch):
        monkeypatch.setattr(merging, "_FILL_SLACK", 0)
        taus, budgets = self.TWO_AND_TWO
        trials = 6000
        arrangements = {order: 0 for order in set(itertools.permutations([2, 2, 3, 3]))}
        for seed in range(trials):
            _, assignment = merge("tunable", taus, budgets, seed=seed)
            arrangements[tuple(assignment.owner.tolist())] += 1
        assert len(arrangements) == 6
        p = 1 / 6
        for order, hits in arrangements.items():
            assert abs(hits - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)), order

    def test_no_slack_redraws_deterministically(self, monkeypatch, caplog):
        monkeypatch.setattr(merging, "_FILL_SLACK", 0)
        caplog.set_level(logging.DEBUG, logger="tvmerge")
        taus, budgets = self.TWO_AND_TWO
        redrawn = []
        for seed in range(20):
            caplog.clear()
            _, assignment = merge("tunable", taus, budgets, seed=seed)
            *_, fill = [r.getMessage() for r in caplog.records if r.name == "tvmerge.merging"]
            assert fill.startswith("fill: 4 leftovers, 2 tasks slotted, 0 blanks")
            redraws = int(re.search(r"(\d+) redraws", fill).group(1))
            again = merge("tunable", taus, budgets, seed=seed)[1]
            assert again.owner.tobytes() == assignment.owner.tobytes()
            _, ref_owner, _ = reference_tunable_merge([row.tolist() for row in taus], budgets, seed, slack=0)
            assert assignment.owner.tolist() == ref_owner
            redrawn.append(redraws)
        # A draw gives each task exactly two labels with odds 6/16.
        assert sum(r > 0 for r in redrawn) >= 5 and max(redrawn) >= 2

    @pytest.mark.parametrize("short", [3, 5000], ids=["no slots", "slots"])
    def test_one_short_task_is_filled_without_a_draw(self, monkeypatch, short):
        """A fill whose arrangement is forced (at most one task short) draws nothing."""
        stream = merging.selection_stream

        class Undrawable:
            def __getattr__(self, name):
                raise AssertionError("the forced fill drew from its stream")

        def no_fill_draws(seed, purpose, task):
            return Undrawable() if purpose == merging.FILL_KEY else stream(seed, purpose, task)

        monkeypatch.setattr(merging, "selection_stream", no_fill_draws)
        for deficits in ([0, short, 0], [short], [0, 0]):
            labels = merging._residual_labels(np.array(deficits), np.dtype(np.uint8), 7)
            assert labels.dtype == np.uint8
            assert labels.tolist() == reference_fill(deficits, 7)
        # Task 1 claims all but `short` of its candidates, and task 2 has none.
        taus = np.zeros((3, short + 40))
        taus[0] = 5.0
        budgets = [40, short, 0]
        _, assignment = merge("tunable", taus, budgets, seed=7)
        _, ref_owner, ref_prov = reference_tunable_merge([row.tolist() for row in taus], budgets, 7)
        assert assignment.owner.tolist() == ref_owner and assignment.provenance.tolist() == ref_prov
        assert assignment_census(assignment).tolist() == budgets

    def test_positions_are_uniform_on_a_slotted_fill(self):
        # 400 leftovers for tasks 2 and 3 (deficits 250 and 150): both earn
        # slots and about 43% of the table is blank.
        dim, trials = 400, 1500
        taus = np.zeros((3, dim))
        taus[0] = 5.0
        budgets = [0, 250, 150]
        slots = fill_slots(budgets)
        assert slots[1] and slots[2] and sum(slots) < 2**16
        hits = np.zeros(dim)
        for seed in range(trials):
            _, assignment = merge("tunable", taus, budgets, seed=seed)
            hits += assignment.owner == 2
        p = 250 / 400
        assert np.all(np.abs(hits - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_tasks=st.integers(1, 5),
        dim=st.integers(1, 3000),
        integer_valued=st.booleans(),
    )
    def test_census_is_exact_and_claims_follow_the_sweep(self, seed, num_tasks, dim, integer_valued):
        rng = np.random.default_rng(seed)
        taus, budgets = skewed_case(rng, num_tasks, dim)
        if integer_valued:
            taus = np.round(taus)
        _, assignment = merge("tunable", taus, budgets, seed=seed)
        assert assignment_census(assignment).tolist() == budgets.tolist()
        _, ref_owner, ref_prov = reference_tunable_merge([row.tolist() for row in taus], budgets.tolist(), seed)
        claimed = np.array(ref_prov) == 1
        assert assignment.provenance.tolist() == ref_prov
        assert assignment.owner[claimed].tolist() == np.array(ref_owner)[claimed].tolist()

    def test_debug_log_reports_claims_and_fill(self, caplog):
        caplog.set_level(logging.DEBUG, logger="tvmerge")
        taus = np.array([[5.0, 5.0, 5.0, 5.0], [1.0, 0.0, 0.0, 0.0]])
        want_merged, want = merge("tunable", taus, [1, 3], seed=1)
        assert [r.getMessage() for r in caplog.records if r.name == "tvmerge.merging"] == [
            "claim: task 2, 0 candidates, need 3, kept 0",
            "claim: task 1, 4 candidates, need 1, kept 1",
            "fill: 3 leftovers, 0 tasks slotted, 3 blanks, 0 redraws",
        ]
        caplog.clear()
        slotted = np.zeros((3, 400))
        slotted[0] = 5.0
        merge("tunable", slotted, [0, 250, 150], seed=1)
        *claims, fill = [r.getMessage() for r in caplog.records if r.name == "tvmerge.merging"]
        assert claims == ["claim: task 3, 0 candidates, need 150, kept 0", "claim: task 2, 0 candidates, need 250, kept 0"]
        assert re.fullmatch(r"fill: 400 leftovers, 2 tasks slotted, \d+ blanks, 0 redraws", fill)
        # Logging does not touch the draws.
        caplog.set_level(logging.WARNING, logger="tvmerge")
        merged, quiet = merge("tunable", taus, [1, 3], seed=1)
        assert merged.tobytes() == want_merged.tobytes() and quiet.owner.tobytes() == want.owner.tobytes()


class TestAverageAndRandomMix:
    def test_average_hand_values(self):
        assert merge("average", np.array([[2.0, 0.0], [0.0, 2.0]]))[0].tolist() == [1.0, 1.0]

    def test_average_single_task(self):
        tau = np.array([[1.0, -2.0, 3.0]])
        assert merge("average", tau)[0].tolist() == tau[0].tolist()

    def test_average_opposite_vectors_cancel(self):
        tau = np.random.default_rng(0).normal(size=6)
        merged = merge("average", np.stack([tau, -tau]))[0]
        assert np.allclose(merged, 0.0)

    def test_random_mix_single_task(self):
        tau = np.array([[0.25, -0.5]])
        merged, assignment = merge("randmix", tau, seed=3)
        assert merged.tolist() == tau[0].tolist()
        assert assignment.owner.tolist() == [1, 1]

    def test_random_mix_deterministic(self):
        taus = np.random.default_rng(1).normal(size=(3, 100))
        merged_a, assign_a = merge("randmix", taus, seed=11)
        merged_b, assign_b = merge("randmix", taus, seed=11)
        assert np.array_equal(merged_a, merged_b)
        assert np.array_equal(assign_a.owner, assign_b.owner)

    def test_random_mix_census_near_uniform(self):
        dim, num_tasks = 100_000, 4
        taus = np.zeros((num_tasks, dim))
        _, assignment = merge("randmix", taus, seed=2024)
        census = assignment_census(assignment)
        sigma = np.sqrt(dim * (1 / num_tasks) * (1 - 1 / num_tasks))
        assert np.all(np.abs(census - dim / num_tasks) <= 3 * sigma)


class TestCensusAndAssignmentIO:
    def test_census_hand_example(self):
        assignment = Assignment(np.array([2, 1, 2]), np.ones(3), num_tasks=2)
        assert assignment_census(assignment).tolist() == [1, 2]

    def test_census_owner_out_of_range(self):
        assignment = Assignment(np.array([3]), np.ones(1), num_tasks=2)
        with pytest.raises(ValidationError, match="owner out of range"):
            assignment_census(assignment)

    def test_assignment_side_file_roundtrip(self):
        rng = np.random.default_rng(20)
        assignment = Assignment(
            rng.integers(1, 6, size=50), rng.integers(0, 3, size=50), num_tasks=5
        )
        buffer = io.BytesIO()
        write_assignment(buffer, assignment)
        buffer.seek(0)
        loaded = read_assignment(buffer)
        assert np.array_equal(loaded.owner, assignment.owner)
        assert np.array_equal(loaded.provenance, assignment.provenance)
        assert loaded.num_tasks == 5

    def test_an_empty_assignment_raises_before_writing(self, tmp_path):
        path = tmp_path / "a.tvc"
        with pytest.raises(ValidationError, match="no elements"):
            write_assignment(path, Assignment(np.zeros(0, dtype=np.int32), np.zeros(0), num_tasks=1))
        assert not path.exists()


class TestSeed:
    def test_validation(self):
        taus = np.ones((2, 4))
        for seed in (-1, 2**64):
            for method in MERGE_METHODS:
                with pytest.raises(ValidationError, match="seed must fit in 64 unsigned bits"):
                    merge(method, taus, [2, 2], seed)
            with pytest.raises(ValidationError, match="seed must fit in 64 unsigned bits"):
                merge("tunable", taus, [1, 3], seed)
            with pytest.raises(ValidationError, match="seed must fit in 64 unsigned bits"):
                merge("randmix", taus, None, seed)
        for method in MERGE_METHODS:
            merge(method, taus, [1, 3], 2**64 - 1)


class TestMergeDispatch:
    def test_each_method_matches_its_strategy(self):
        rng = np.random.default_rng(16)
        taus = rng.integers(-2, 3, size=(3, 40)).astype(float)
        budgets = random_budgets(rng, 3, 40)
        expected = {
            "magmax": merge("magmax", taus),
            "tunable": merge("tunable", taus, budgets, seed=5),
            "average": (merge("average", taus)[0], None),
            "randmix": merge("randmix", taus, seed=5),
        }
        for method, (want_merged, want_assignment) in expected.items():
            merged, assignment = merge(method, taus, budgets, seed=5)
            assert merged.tobytes() == want_merged.tobytes()
            if want_assignment is None:
                assert assignment is None
            else:
                assert np.array_equal(assignment.owner, want_assignment.owner)
                assert np.array_equal(assignment.provenance, want_assignment.provenance)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown merge method"):
            merge("ties", np.zeros((2, 3)))

    def test_tunable_needs_budgets(self):
        with pytest.raises(ValidationError, match="preference vector"):
            merge("tunable", np.zeros((2, 3)))


# Peak traced allocation of each strategy at T=16, d=2**18, in rows of 4d
# bytes, with the rows streamed through one block buffer. The live state is
# a few d-sized vectors (the merged vector, the owner map: uint8 for magmax
# and tunable at 16 tasks, int32 for randmix; a bool vector; in tunable's
# claim sweep T*d/8 bytes of packed bits and d/8 of packed free elements);
# every other temporary is one block, or one task's claim candidates and
# their draw in tunable. Every method reads the rows in lockstep, so none
# holds a d-sized running maximum or setter flags, and the provenance of
# magmax and randmix is a broadcast of one code. Measured peaks: tunable
# 1.86, randmix 2.58, magmax 1.92, average 1.01.
PEAK_ROWS = {"tunable": 2.02, "randmix": 2.7, "magmax": 2.05, "average": 1.1}


class TestStreaming:
    @pytest.mark.parametrize("method", MERGE_METHODS)
    def test_peak_allocation_below_half_the_matrix(self, method):
        num_tasks, dim = 16, 2**18
        base = np.random.default_rng(0).normal(size=dim).astype(np.float32)

        def fill(task, block, out):
            np.multiply(base[block], np.float32(task + 1), out=out)
            np.sin(out, out=out)

        rows = block_buffer_rows(num_tasks, dim, np.float32, fill)
        budgets = [dim // num_tasks] * num_tasks
        tracemalloc.start()
        try:
            merge(method, rows, budgets, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < PEAK_ROWS[method] * dim * 4

    def test_assignment_write_and_census_allocate_blocks_only(self, tmp_path):
        # Large enough that the blocks (at most 8 bytes per element of one
        # block, for bincount's intp copy) are small against a row.
        dim = 2**20
        owner = np.random.default_rng(24).integers(1, 4, size=dim, dtype=np.int32)
        assignment = Assignment(owner, np.ones(dim, dtype=np.uint8), 3)
        tracemalloc.start()
        try:
            write_assignment(tmp_path / "a.tvc", assignment)
            assignment_census(assignment)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * dim * 4

    def test_read_assignment_and_census_hold_the_side_file_once(self):
        # The u16 maps read from the file are counted as they are, not copied
        # to int32 and uint8; the file's two maps together make one row.
        dim = 2**20
        owner = np.random.default_rng(25).integers(1, 4, size=dim, dtype=np.int32)
        side_file = io.BytesIO()
        write_assignment(side_file, Assignment(owner, np.ones(dim, dtype=np.uint8), 3))
        side_file.seek(0)
        tracemalloc.start()
        try:
            census = assignment_census(read_assignment(side_file))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert census.tolist() == np.bincount(owner, minlength=4)[1:].tolist()
        assert peak < 1.25 * dim * 4

    def test_rows_matrix_and_list_inputs_agree_bitwise(self):
        rng = np.random.default_rng(22)
        for trial in range(60):
            num_tasks = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 40))
            dtype = (np.float32, np.float64)[trial % 2]
            taus = rng.integers(-2, 3, size=(num_tasks, dim)).astype(dtype)
            taus[(taus == 0) & (rng.random(size=taus.shape) < 0.5)] = -0.0
            taus[rng.random(size=taus.shape) < 0.1] = np.inf
            taus[rng.random(size=taus.shape) < 0.1] = -np.inf
            budgets = random_budgets(rng, num_tasks, dim)
            for method in MERGE_METHODS:
                want_merged, want_assignment = merge(method, taus, budgets, trial)
                for source in (list(taus), reused_buffer_rows(taus)):
                    merged, assignment = merge(method, source, budgets, trial)
                    assert merged.tobytes() == want_merged.tobytes()
                    if want_assignment is not None:
                        assert assignment.owner.tobytes() == want_assignment.owner.tobytes()
                        assert assignment.provenance.tobytes() == want_assignment.provenance.tobytes()
                if method == "average":
                    with np.errstate(invalid="ignore"):
                        assert want_merged.tobytes() == taus.mean(axis=0).tobytes()
                if method == "tunable":
                    ref_merged, ref_owner, ref_prov = reference_tunable_merge(
                        [row.tolist() for row in taus], budgets.tolist(), trial
                    )
                    assert want_merged.tobytes() == np.array(ref_merged, dtype=dtype).tobytes()
                    assert want_assignment.owner.tolist() == ref_owner
                    assert want_assignment.provenance.tolist() == ref_prov

    # The provenance of magmax and randmix, one code for every element, is a
    # read-only broadcast of it, not a d-sized map.
    @pytest.mark.parametrize("method, code", [("magmax", 1), ("randmix", RESIDUAL_RANDOM)])
    def test_constant_provenance_is_read_only(self, method, code):
        provenance = merge(method, np.random.default_rng(26).normal(size=(3, 10)), seed=2)[1].provenance
        assert provenance.tolist() == [code] * 10
        assert not provenance.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            provenance[0] = 0

    def test_row_source_checks(self):
        with pytest.raises(ValidationError, match="empty"):
            merge("magmax", Rows(0, 3, lambda task: [np.zeros(3)]))
        with pytest.raises(ValidationError, match="no elements"):
            merge("average", Rows(2, 0, lambda task: []))


class TestRowDtypes:
    # Rows are float32 or float64, one dtype for every row.
    CASES = {
        "float16": ([np.ones(4, np.float16)] * 2, "row 0 is float16"),
        "int64": ([np.arange(4)] * 2, "row 0 is int64"),
        "str": ([np.array(list("abcd"))] * 2, "row 0 is <U1"),
        "mixed": ([np.ones(4, np.float32), np.ones(4, np.float64)], "row 1 is float64"),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("method", MERGE_METHODS)
    def test_other_rows_raise(self, method, case):
        arrays, message = self.CASES[case]
        for taus in (arrays, Rows(len(arrays), 4, lambda task: [arrays[task]])):
            with pytest.raises(ValidationError, match=message):
                merge(method, taus, [2, 2], seed=1)


class TestBlockBoundaries:
    def test_a_block_is_whole_bytes_of_record_setter_flags(self):
        # Each block's flags are packed straight into its own bytes of the packed bits.
        assert container._BLOCK % 8 == 0

    @pytest.mark.parametrize("num_tasks", [1, 3])
    # 83 spans ten whole blocks and a short one.
    @pytest.mark.parametrize("dim", [1, 4, 5, 6, 11, 23, 83])
    def test_small_blocks_give_the_same_bytes(self, monkeypatch, num_tasks, dim):
        rng = np.random.default_rng(100 * dim + num_tasks)
        cases = []
        for dtype in (np.float32, np.float64):
            taus = rng.integers(-2, 3, size=(num_tasks, dim)).astype(dtype)
            taus[(taus == 0) & (rng.random(size=taus.shape) < 0.5)] = -0.0
            taus[rng.random(size=taus.shape) < 0.15] = np.inf
            taus[rng.random(size=taus.shape) < 0.15] = -np.inf
            cases.append((taus, random_budgets(rng, num_tasks, dim)))

        def outputs():
            result = []
            for taus, budgets in cases:
                for method in MERGE_METHODS:
                    rows = reused_buffer_rows(taus)
                    merged, assignment = merge(method, rows, budgets, seed=dim)
                    result.append(merged.tobytes())
                    if assignment is not None:
                        side_file = io.BytesIO()
                        write_assignment(side_file, assignment)
                        result += [
                            assignment.owner.tobytes(),
                            assignment.provenance.tobytes(),
                            side_file.getvalue(),
                            assignment_census(assignment).tobytes(),
                        ]
            return result

        want = outputs()
        monkeypatch.setattr(container, "_BLOCK", 8)
        assert outputs() == want


class TestLockstep:
    """Every method holds every row's stream open at once; ``tunable`` does so in both its passes."""

    # (method, the pass in which a row raises): tunable reads each row twice.
    @pytest.mark.parametrize(
        "method, attempt", [("tunable", 1), ("tunable", 2), ("randmix", 1), ("magmax", 1), ("average", 1)]
    )
    def test_a_row_that_raises_mid_pass_closes_every_stream(self, monkeypatch, method, attempt):
        monkeypatch.setattr(container, "_BLOCK", 8)
        num_tasks, dim, failing = 4, 23, 2
        opened, closed = [], []

        def blocks(task):
            opened.append(task)
            try:
                for block in merging._blocks(dim):
                    if task == failing and opened.count(task) == attempt and block.start == 8:
                        raise OSError("read failed")
                    yield np.full(block.stop - block.start, task + 1.0)
            finally:
                closed.append(task)

        with pytest.raises(OSError, match="read failed"):
            merge(method, Rows(num_tasks, dim, blocks), [5, 6, 6, 6], seed=1)
        assert sorted(opened) == sorted(closed) == sorted(list(range(num_tasks)) * attempt)

    def test_every_stream_is_drained(self, monkeypatch):
        monkeypatch.setattr(container, "_BLOCK", 8)
        num_tasks, dim = 3, 16  # the last piece ends the row exactly
        finished = []

        def blocks(task):
            for block in merging._blocks(dim):
                yield np.full(block.stop - block.start, task + 1.0)
            finished.append(task)

        for method, passes in (("tunable", 2), ("randmix", 1), ("magmax", 1), ("average", 1)):
            finished.clear()
            merge(method, Rows(num_tasks, dim, blocks), [5, 5, 6], seed=1)
            assert sorted(finished) == sorted(list(range(num_tasks)) * passes)

    # -1 and 1: a piece too few or too many; 0: every piece one element long.
    @pytest.mark.parametrize("extra", [-1, 1, 0], ids=["one piece short", "one piece long", "short pieces"])
    def test_a_stream_of_the_wrong_length_raises(self, monkeypatch, extra):
        monkeypatch.setattr(container, "_BLOCK", 8)
        dim = 12

        def blocks(task):
            pieces = [np.ones(block.stop - block.start) for block in merging._blocks(dim)]
            if task == 1:
                if extra == 0:
                    return [np.ones(1) for _ in pieces]
                return pieces[:-1] if extra < 0 else pieces + [np.ones(8)]
            return pieces

        for method in MERGE_METHODS:
            with pytest.raises(ValueError, match="row 1"):
                merge(method, Rows(3, dim, blocks), [4, 4, 4], seed=1)


class TestManyTasks:
    @pytest.mark.parametrize("block", [None, 8], ids=["default block", "block 8"])
    def test_uint16_owners_match_reference(self, monkeypatch, block):
        # 300 tasks need uint16 owners, and 1,001 elements leave a part-filled
        # last byte of packed bits. Magnitudes rise every 10 tasks, with ties,
        # so late tasks set many records. Budgets go to some of tasks 1-20, to
        # 15 tasks past task 255 and the rest to task 300; what the claims
        # leave goes to the residual fill.
        rng = np.random.default_rng(300)
        num_tasks, dim, seed = 300, 1001, 5
        scales = 1 + np.arange(num_tasks) // 10
        taus = (rng.integers(-3, 4, size=(num_tasks, dim)) * scales[:, None]).astype(np.float32)
        budgets = np.zeros(num_tasks, dtype=np.int64)
        budgets[:20] = rng.integers(0, 6, size=20)
        budgets[255::3] = rng.integers(1, 12, size=15)
        budgets[-1] += dim - budgets.sum()
        ref_merged, ref_owner, ref_prov = reference_tunable_merge([row.tolist() for row in taus], budgets.tolist(), seed)
        magmax_owner = np.array([argmax_later_wins(np.abs(taus[:, p]).tolist()) + 1 for p in range(dim)])
        randmix_owner = keyed_stream(seed, merging.RANDMIX_KEY, 0).integers(1, num_tasks + 1, size=dim, dtype=np.int32)
        assert max(ref_owner) > 255 and magmax_owner.max() > 255
        if block is not None:
            monkeypatch.setattr(container, "_BLOCK", block)
        columns = np.arange(dim)
        for method, owner in (("tunable", np.array(ref_owner)), ("magmax", magmax_owner), ("randmix", randmix_owner)):
            merged, assignment = merge(method, reused_buffer_rows(taus), budgets, seed)
            assert assignment.owner.dtype == (np.int32 if method == "randmix" else np.uint16)
            assert assignment.owner.tolist() == owner.tolist(), method
            assert merged.tobytes() == taus[owner - 1, columns].tobytes(), method
            if method == "tunable":
                assert merged.tolist() == ref_merged
                assert assignment.provenance.tolist() == ref_prov
