import io
import tracemalloc

import numpy as np
import pytest

from tvmerge import (
    MERGE_METHODS,
    Assignment,
    ParameterSet,
    PreferenceVector,
    RESIDUAL_RANDOM,
    Rows,
    ShapeMismatchError,
    TaskVector,
    ValidationError,
    assignment_census,
    average_merge,
    magmax_merge,
    merge,
    random_mix_merge,
    read_assignment,
    tunable_merge,
    write_assignment,
)
from tvmerge import container, merging

from reference_merge import argmax_later_wins, reference_tunable_merge


def random_budgets(rng, num_tasks, dim):
    return rng.multinomial(dim, np.ones(num_tasks) / num_tasks)


def block_buffer_rows(num_tasks, dim, dtype, fill):
    """A row source that refills one block buffer: ``fill(task, block, out)`` writes a block."""
    buffer = np.empty(min(merging._BLOCK, dim), dtype=dtype)

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
        merged, assignment = magmax_merge(taus)
        assert merged.tolist() == [-2.0, -3.0, 2.0]
        assert assignment.owner.tolist() == [2, 1, 2]

    def test_single_task_is_identity(self):
        tau = np.array([[0.5, -1.5, 0.0]])
        merged, assignment = magmax_merge(tau)
        assert merged.tolist() == tau[0].tolist()
        assert assignment.owner.tolist() == [1, 1, 1]

    def test_all_zero_ties_go_to_last_task(self):
        merged, assignment = magmax_merge(np.zeros((2, 4)))
        assert merged.tolist() == [0.0] * 4
        assert assignment.owner.tolist() == [2, 2, 2, 2]

    def test_scaled_task_dominates_everywhere(self):
        rng = np.random.default_rng(0)
        taus = rng.normal(size=(3, 500))
        taus[2] = 10.0 * np.abs(taus[:2]).max(axis=0) + 1.0
        _, assignment = magmax_merge(taus)
        assert assignment_census(assignment).tolist() == [0, 0, 500]

    def test_container_inputs_rejected(self):
        base = ParameterSet({"a": np.zeros((2, 2)), "b": np.zeros(3)})
        taus = [TaskVector(base.items()), TaskVector(base.items())]
        with pytest.raises(ValidationError, match="1-D"):
            magmax_merge(taus)

    def test_owners_match_reference_on_tie_heavy_instances(self):
        rng = np.random.default_rng(14)
        for trial in range(200):
            num_tasks = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 17))
            dtype = np.float32 if trial % 2 else np.float64
            taus = rng.integers(-2, 3, size=(num_tasks, dim)).astype(dtype)
            taus[rng.random(size=taus.shape) < 0.1] = np.inf
            taus[rng.random(size=taus.shape) < 0.1] = -np.inf
            merged, assignment = magmax_merge(taus)
            ref_owner = [
                argmax_later_wins([abs(float(v)) for v in taus[:, p]]) + 1 for p in range(dim)
            ]
            assert assignment.owner.tolist() == ref_owner
            assert merged.tobytes() == taus[np.array(ref_owner) - 1, np.arange(dim)].tobytes()

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeMismatchError):
            magmax_merge([np.zeros(2), np.zeros(3)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            magmax_merge([])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            magmax_merge(np.array([[np.nan, 0.0]]))


class TestTunable:
    def test_hand_example_no_randomness(self):
        taus = np.array([[5.0, 4.0, 1.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        merged, assignment = tunable_merge(taus, [2, 2], seed=123)
        assert merged.tolist() == [5.0, 4.0, 3.0, 4.0]
        assert assignment.owner.tolist() == [1, 1, 2, 2]
        assert assignment.provenance.tolist() == [1, 1, 1, 1]
        # seed is irrelevant when every claim fits its budget
        merged_b, _ = tunable_merge(taus, [2, 2], seed=999)
        assert np.array_equal(merged, merged_b)

    def test_last_task_only_budget_returns_it_bitwise(self):
        rng = np.random.default_rng(2)
        taus = rng.normal(size=(4, 64)).astype(np.float32)
        merged, assignment = tunable_merge(taus, [0, 0, 0, 64], seed=7)
        assert merged.tobytes() == taus[3].tobytes()
        assert set(assignment.owner.tolist()) == {4}

    def test_budget_sum_mismatch(self):
        with pytest.raises(ValidationError, match="sum"):
            tunable_merge(np.zeros((2, 4)), [2, 1])

    def test_negative_budget(self):
        with pytest.raises(ValidationError, match="negative"):
            tunable_merge(np.zeros((2, 4)), [-1, 5])

    def test_non_integer_budgets_rejected(self):
        for budgets in ([2.5, 1.5], np.array([2.5, 1.5]), [np.inf, -np.inf], [np.nan, 4.0]):
            with pytest.raises(ValidationError, match="budgets must be integers"):
                tunable_merge(np.zeros((2, 4)), budgets)
        _, assignment = tunable_merge(np.ones((2, 4)), [1.0, 3.0])
        assert assignment_census(assignment).tolist() == [1, 3]

    def test_wrong_budget_count(self):
        with pytest.raises(ValidationError, match="budgets"):
            tunable_merge(np.zeros((2, 4)), [4])

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_checked_before_any_row_is_read(self, seed):
        streamed = []

        def fill(task, block, out):
            streamed.append(task)
            out.fill(1.0)

        with pytest.raises(ValidationError, match="seed"):
            tunable_merge(block_buffer_rows(2, 8, np.float32, fill), [4, 4], seed=seed)
        assert streamed == []

    def test_census_matches_budgets_exactly(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            num_tasks = int(rng.integers(1, 7))
            dim = int(rng.integers(1, 200))
            taus = rng.normal(size=(num_tasks, dim))
            budgets = random_budgets(rng, num_tasks, dim)
            _, assignment = tunable_merge(taus, budgets, seed=trial)
            assert assignment_census(assignment).tolist() == budgets.tolist()

    def test_partition_every_element_owned_once(self):
        rng = np.random.default_rng(4)
        taus = rng.normal(size=(5, 333))
        budgets = random_budgets(rng, 5, 333)
        _, assignment = tunable_merge(taus, budgets, seed=5)
        assert assignment.owner.min() >= 1 and assignment.owner.max() <= 5
        assert assignment.owner.size == 333

    def test_reduces_to_magmax_at_census_budgets(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            taus = rng.normal(size=(4, 257))
            magmax_merged, magmax_assignment = magmax_merge(taus)
            census = assignment_census(magmax_assignment)
            merged, assignment = tunable_merge(taus, census, seed=trial)
            assert np.array_equal(merged, magmax_merged)
            assert np.array_equal(assignment.owner, magmax_assignment.owner)

    def test_round_one_last_task_claims_its_magmax_set(self):
        rng = np.random.default_rng(8)
        taus = rng.normal(size=(3, 400))
        budgets = random_budgets(rng, 3, 400)
        _, assignment = tunable_merge(taus, budgets, seed=9)
        magmax_set = np.abs(taus).argmax(axis=0) == 2  # continuous values, no ties
        kept_in_round_one = (assignment.owner == 3) & (assignment.provenance == 1)
        # random reduction only removes candidates, never adds
        assert not np.any(kept_in_round_one & ~magmax_set)
        assert kept_in_round_one.sum() == min(budgets[2], magmax_set.sum())

    def test_determinism_per_seed(self):
        rng = np.random.default_rng(10)
        taus = rng.normal(size=(4, 300))
        budgets = random_budgets(rng, 4, 300)
        merged_a, assign_a = tunable_merge(taus, budgets, seed=42)
        merged_b, assign_b = tunable_merge(taus, budgets, seed=42)
        assert np.array_equal(merged_a, merged_b)
        assert np.array_equal(assign_a.owner, assign_b.owner)
        merged_c, _ = tunable_merge(taus, budgets, seed=43)
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
            merged, assignment = tunable_merge(taus, budgets, seed=trial)
            ref_merged, ref_owner, ref_prov = reference_tunable_merge(
                [row.tolist() for row in taus], budgets.tolist(), 2, trial
            )
            assert merged.tolist() == ref_merged
            assert assignment.owner.tolist() == ref_owner
            assert assignment.provenance.tolist() == ref_prov

    def test_accepts_preference_vector_type(self):
        taus = np.array([[1.0, 2.0], [3.0, 0.0]])
        merged, _ = tunable_merge(taus, PreferenceVector((1, 1)), seed=0)
        assert sorted(merged.tolist()) == [2.0, 3.0]

    def test_residual_provenance_reported(self):
        # the second task never wins a magnitude comparison, so most of its
        # budget can only be met by the residual random fill
        taus = np.array([[5.0, 5.0, 5.0, 5.0], [1.0, 0.0, 0.0, 0.0]])
        merged, assignment = tunable_merge(taus, [1, 3], seed=1)
        assert assignment_census(assignment).tolist() == [1, 3]
        assert (assignment.provenance == RESIDUAL_RANDOM).sum() == 3
        assert np.all(assignment.owner[assignment.provenance == RESIDUAL_RANDOM] == 2)


class TestAverageAndRandomMix:
    def test_average_hand_values(self):
        assert average_merge(np.array([[2.0, 0.0], [0.0, 2.0]])).tolist() == [1.0, 1.0]

    def test_average_single_task(self):
        tau = np.array([[1.0, -2.0, 3.0]])
        assert average_merge(tau).tolist() == tau[0].tolist()

    def test_average_opposite_vectors_cancel(self):
        tau = np.random.default_rng(0).normal(size=6)
        merged = average_merge(np.stack([tau, -tau]))
        assert np.allclose(merged, 0.0)

    def test_random_mix_single_task(self):
        tau = np.array([[0.25, -0.5]])
        merged, assignment = random_mix_merge(tau, seed=3)
        assert merged.tolist() == tau[0].tolist()
        assert assignment.owner.tolist() == [1, 1]

    def test_random_mix_deterministic(self):
        taus = np.random.default_rng(1).normal(size=(3, 100))
        merged_a, assign_a = random_mix_merge(taus, seed=11)
        merged_b, assign_b = random_mix_merge(taus, seed=11)
        assert np.array_equal(merged_a, merged_b)
        assert np.array_equal(assign_a.owner, assign_b.owner)

    def test_random_mix_census_near_uniform(self):
        dim, num_tasks = 100_000, 4
        taus = np.zeros((num_tasks, dim))
        _, assignment = random_mix_merge(taus, seed=2024)
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


class TestSeed:
    def test_validation(self):
        taus = np.ones((2, 4))
        for seed in (-1, 2**64):
            for method in MERGE_METHODS:
                with pytest.raises(ValidationError, match="seed must fit in 64 unsigned bits"):
                    merge(method, taus, [2, 2], seed)
            with pytest.raises(ValidationError, match="seed must fit in 64 unsigned bits"):
                tunable_merge(taus, [1, 3], seed)
            # Called directly, randmix checks the seed where it draws from it.
            with pytest.raises(ValidationError, match="seed must fit in 64 unsigned bits"):
                random_mix_merge(taus, seed)
        for method in MERGE_METHODS:
            merge(method, taus, [1, 3], 2**64 - 1)


class TestMergeDispatch:
    def test_each_method_matches_its_strategy(self):
        rng = np.random.default_rng(16)
        taus = rng.integers(-2, 3, size=(3, 40)).astype(float)
        budgets = random_budgets(rng, 3, 40)
        expected = {
            "magmax": magmax_merge(taus),
            "tunable": tunable_merge(taus, budgets, seed=5),
            "average": (average_merge(taus), None),
            "randmix": random_mix_merge(taus, seed=5),
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
# a few d-sized vectors (the merged vector, the int32 owner, a bool vector,
# the running maximum in tunable's first pass, T*d/8 bytes of packed bits);
# every other temporary is one block.
PEAK_ROWS = {"tunable": 2.75, "randmix": 2.75, "magmax": 3.25, "average": 1.1}


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
            dtype = (np.float16, np.float32, np.float64)[trial % 3]
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
                        [row.tolist() for row in taus], budgets.tolist(), 2, trial
                    )
                    assert want_merged.tobytes() == np.array(ref_merged, dtype=dtype).tobytes()
                    assert want_assignment.owner.tolist() == ref_owner
                    assert want_assignment.provenance.tolist() == ref_prov

    def test_average_sums_float16_in_float32_like_mean(self):
        rng = np.random.default_rng(23)
        taus = (rng.normal(size=(9, 500)) * 3000).astype(np.float16)
        taus[:, 0] = 60000
        merged = average_merge(taus)
        assert merged.dtype == np.float16
        assert merged[0] == 60000
        assert merged.tobytes() == taus.mean(axis=0).tobytes()
        assert average_merge(reused_buffer_rows(taus)).tobytes() == merged.tobytes()

    def test_row_source_checks(self):
        with pytest.raises(ValidationError, match="empty"):
            magmax_merge(Rows(0, 3, lambda task: [np.zeros(3)]))
        with pytest.raises(ValidationError, match="no elements"):
            average_merge(Rows(2, 0, lambda task: []))


class TestBlockBoundaries:
    @pytest.mark.parametrize("num_tasks", [1, 3])
    # 83 also crosses two boundaries of the 8-block stretches that pack into bits.
    @pytest.mark.parametrize("dim", [1, 4, 5, 6, 11, 23, 83])
    def test_five_element_blocks_give_the_same_bytes(self, monkeypatch, num_tasks, dim):
        rng = np.random.default_rng(100 * dim + num_tasks)
        cases = []
        for dtype in (np.float16, np.float32, np.float64):
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
        monkeypatch.setattr(merging, "_BLOCK", 5)
        monkeypatch.setattr(container, "_BLOCK", 5)
        assert outputs() == want
