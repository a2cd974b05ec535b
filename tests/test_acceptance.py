"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tvmerge import (
    EmbeddingSet,
    LabelHistogram,
    OTConfig,
    assignment_census,
    generate_task_suite,
    label_similarity,
    magmax_merge,
    merge,
    evaluate,
    pairwise_sq_dists,
    preference_from_alpha,
    run_pipeline,
    sequential_finetune_analog,
    sinkhorn_ot,
    tunable_merge,
)
from tvmerge.cli import main

from reference_merge import fill_slots, reference_tunable_merge


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_01_budget_exactness_and_partition():
    with criterion(1, "census equals budgets and owners partition the index set"):
        rng = np.random.default_rng(20240811)
        started = time.monotonic()
        cases = 0
        while cases < 50:
            dim = int(rng.choice([10**3, 10**5]))
            num_tasks = int(rng.choice([3, 8, 20]))
            taus = rng.standard_normal((num_tasks, dim))
            budgets = rng.multinomial(dim, np.ones(num_tasks) / num_tasks)
            _, assignment = tunable_merge(taus, budgets, seed=cases)
            census = assignment_census(assignment)
            assert census.tolist() == budgets.tolist()
            assert assignment.owner.size == dim
            assert assignment.owner.min() >= 1 and assignment.owner.max() <= num_tasks
            cases += 1
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


def test_02_reduction_to_unbudgeted_merge():
    with criterion(2, "census-shaped budgets reproduce the unbudgeted merge bitwise"):
        rng = np.random.default_rng(7)
        for trial in range(20):
            taus = rng.standard_normal((8, 10**4))
            plain_merged, plain_assignment = magmax_merge(taus)
            census = assignment_census(plain_assignment)
            merged, assignment = tunable_merge(taus, census, seed=trial)
            assert merged.tobytes() == plain_merged.tobytes()
            assert np.array_equal(assignment.owner, plain_assignment.owner)


def test_03_alpha_zero_corner():
    with criterion(3, "alpha 0 budgets return the last task vector bitwise"):
        rng = np.random.default_rng(11)
        taus = rng.standard_normal((5, 4096))
        pref = preference_from_alpha(0.0, 5, 4096)
        assert pref.budgets == (0, 0, 0, 0, 4096)
        merged, assignment = tunable_merge(taus, pref, seed=3)
        assert merged.tobytes() == taus[-1].tobytes()
        assert set(assignment.owner.tolist()) == {5}


def test_04_reference_transliteration_corpus():
    with criterion(4, "200 seeded small instances and 3 large fills match the set-based reference exactly"):
        rng = np.random.default_rng(424242)
        for case in range(203):
            large = case >= 200
            num_tasks = int(rng.integers(1, 4)) + large
            dim = int(rng.integers(5000, 20001) if large else rng.integers(1, 13))
            if case % 2:
                taus = rng.integers(-2, 3, size=(num_tasks, dim)).astype(float)
            else:
                taus = rng.standard_normal((num_tasks, dim))
            weights = rng.dirichlet(np.ones(num_tasks)) if large else np.ones(num_tasks) / num_tasks
            if large:
                # Task 1 sets most records, so later tasks leave a fill that earns table slots.
                taus[0] *= 4
            budgets = rng.multinomial(dim, weights)
            merged, assignment = tunable_merge(taus, budgets, seed=case)
            ref_merged, ref_owner, ref_prov = reference_tunable_merge(
                [row.tolist() for row in taus], budgets.tolist(), case
            )
            assert merged.tolist() == ref_merged
            assert assignment.owner.tolist() == ref_owner
            assert assignment.provenance.tolist() == ref_prov
            if large:
                residual = np.array(ref_prov) == 0
                deficits = np.bincount(np.array(ref_owner)[residual], minlength=num_tasks + 1)[1:]
                assert any(fill_slots(deficits.tolist()))


def test_05_alpha_schedule_hand_values():
    with criterion(5, "alpha schedule reproduces hand-computed budgets"):
        pref = preference_from_alpha(2.0, 5, 100)
        assert pref.budgets == (52, 26, 13, 6, 3)
        assert pref.total == 100
        for num_tasks, dim in ((4, 8), (5, 100), (10, 1000)):
            equal = preference_from_alpha(1.0, num_tasks, dim)
            assert equal.budgets == (dim // num_tasks,) * num_tasks


def test_06_sinkhorn_matches_enumeration():
    with criterion(6, "entropic transport within 1e-3 of the enumerated optimum"):
        rng = np.random.default_rng(987)
        cfg = OTConfig(epsilon=1e-3, max_iters=20_000)
        started = time.monotonic()
        for _ in range(100):
            n = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 4))
            x = rng.uniform(0.0, 1.0, size=(n, dim))
            y = rng.uniform(0.0, 1.0, size=(n, dim))
            cost = pairwise_sq_dists(x, y)
            exact = min(
                sum(cost[i, perm[i]] for i in range(n))
                for perm in itertools.permutations(range(n))
            ) / n
            result = sinkhorn_ot(EmbeddingSet(x), EmbeddingSet(y), cfg)
            assert abs(result.cost - exact) <= 1e-3
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_07_label_similarity_values():
    with criterion(7, "label similarity hand values: 0.5, 1/k, and 0"):
        uniform_two = LabelHistogram.from_labels(["a", "b"])
        single = LabelHistogram.from_labels(["a", "a", "a"])
        assert label_similarity(uniform_two, single) == pytest.approx(0.5, abs=1e-12)
        for k in (2, 5, 8):
            hist = LabelHistogram.from_labels(list(range(k)))
            assert label_similarity(hist, hist) == pytest.approx(1 / k, abs=1e-12)
        disjoint = LabelHistogram.from_labels(["z"])
        assert label_similarity(uniform_two, disjoint) == 0.0


def test_08_exact_recovery():
    with criterion(8, "support-sized budgets at lambda 1 recover every optimum"):
        report = run_pipeline(
            {
                "seed": 31,
                "suite": {
                    "num_tasks": 4,
                    "dim": 32,
                    "support_mode": "disjoint",
                    "samples_per_task": 48,
                },
                "merge": {"method": "tunable", "rounds": 2, "lambda_merge": 1.0},
                "preference": {"source": "alpha", "alpha": 1.0},
            }
        )
        run = report.summary["runs"][0]
        assert run["budgets"] == report.summary["support_sizes"]
        for loss in run["task_losses"].values():
            assert loss <= 1e-18
        # same property straight through the library API
        tasks, theta_0 = generate_task_suite(4, 32, "disjoint", 48, seed=31)
        thetas = sequential_finetune_analog(tasks, theta_0)
        bases = [theta_0, *thetas[:-1]]
        taus = np.stack([t - b for t, b in zip(thetas, bases)])
        merged, _ = tunable_merge(taus, [t.support.size for t in tasks], seed=31)
        for loss in evaluate(theta_0 + merged, tasks).task_losses.values():
            assert loss <= 1e-18


STEERING_ALPHAS = (0.0, 0.5, 1.0, 2.0, 4.0)
# Merge seeds that the expected losses average over, the suite held fixed.
STEERING_MERGE_SEEDS = range(64)


def expected_end_task_losses(suite_seed):
    """First- and last-task losses per alpha of STEERING_ALPHAS, averaged over the merge seeds.

    Criterion 9's config (4 disjoint tasks, d = 32, incremental deltas,
    lambda 1): the suite and its fits come from ``suite_seed``; only the
    selection draw varies. A single draw is noisy: when the budgets cut a
    claim, which elements a task keeps is random, and so is its loss.
    """
    tasks, theta_0 = generate_task_suite(4, 32, "disjoint", 48, seed=suite_seed)
    thetas = sequential_finetune_analog(tasks, theta_0)
    taus = np.stack([t - b for t, b in zip(thetas, [theta_0, *thetas[:-1]])])
    first, last = [], []
    for alpha in STEERING_ALPHAS:
        pref = preference_from_alpha(alpha, 4, 32)
        losses = [
            evaluate(theta_0 + merge("tunable", taus, pref, seed)[0], tasks).task_losses
            for seed in STEERING_MERGE_SEEDS
        ]
        first.append(np.mean([loss[1] for loss in losses]))
        last.append(np.mean([loss[4] for loss in losses]))
    return np.array(first), np.array(last)


def assert_steered(first, last):
    """Raising alpha lowers the first task's loss and raises the last task's, weakly."""
    assert all(b <= a + 1e-15 for a, b in zip(first, first[1:])), first
    assert all(b >= a - 1e-15 for a, b in zip(last, last[1:])), last


def test_09_steering_tradeoff():
    with criterion(9, "alpha sweep steers the expected first and last task losses monotonically"):
        first, last = expected_end_task_losses(7)
        assert_steered(first, last)
        assert first[0] > first[-1] and last[-1] > last[0]


def test_09_steering_tradeoff_in_the_mean_over_seeds():
    with criterion(9, "alpha sweep steers the expected first and last task losses, in the mean over suites 1-12"):
        per_suite = [expected_end_task_losses(seed) for seed in range(1, 13)]
        first_mean = np.mean([first for first, _ in per_suite], axis=0)
        last_mean = np.mean([last for _, last in per_suite], axis=0)
        assert_steered(first_mean, last_mean)
        assert first_mean[0] > 1.0 and last_mean[-1] > 1.0


def test_10_similarity_driven_pipeline():
    with criterion(10, "meta from one task maximizes its budget and bounds its loss"):
        target_task = 2
        base = {
            "seed": 7,
            "suite": {
                "num_tasks": 4,
                "dim": 32,
                "support_mode": "disjoint",
                "samples_per_task": 48,
            },
            "merge": {"method": "tunable", "rounds": 2, "lambda_merge": 1.0},
            "environment": {
                "members": [target_task],
                "mix": [1.0],
                "total_samples": 60,
                "meta_fraction": 0.1,
            },
        }
        uniform = run_pipeline(
            dict(base, preference={"source": "alpha", "alpha": 1.0})
        ).summary["runs"][0]
        for metric in ("label", "ot"):
            run = run_pipeline(
                dict(base, preference={"source": "similarity", "metric": metric})
            ).summary["runs"][0]
            budgets = run["budgets"]
            winner = budgets[target_task - 1]
            others = [b for i, b in enumerate(budgets) if i != target_task - 1]
            assert winner > max(others), f"{metric}: {budgets}"
            assert (
                run["task_losses"][str(target_task)]
                <= uniform["task_losses"][str(target_task)] + 1e-18
            )


def test_11_randomized_commands_repeat_byte_identically(tmp_path):
    with criterion(11, "two runs of the randomized commands give the same bytes"):
        rng = np.random.default_rng(55)
        tau_paths = []
        from tvmerge import ParameterSet, encode_container

        for index in range(4):
            path = tmp_path / f"tau{index}.tvc"
            encode_container(
                ParameterSet({"w": rng.standard_normal(128).astype(np.float32)}), path
            )
            tau_paths.append(str(path))
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "suite": {"num_tasks": 3, "dim": 12, "samples_per_task": 20},
                    "merge": {"method": "tunable", "lambda_merge": 1.0},
                    "preference": {"source": "similarity", "metric": "ot"},
                    "environment": {
                        "members": [1, 2],
                        "mix": [0.5, 0.5],
                        "total_samples": 20,
                        "meta_fraction": 0.1,
                    },
                }
            )
        )

        def run_all(run: int) -> bytes:
            blobs = []
            for method, extra in (("tunable", ["--alpha", "0.7"]), ("randmix", [])):
                out = tmp_path / f"{method}-{run}.tvc"
                code = main(
                    [
                        "merge",
                        "--method",
                        method,
                        *extra,
                        "--seed",
                        "77",
                        "--out",
                        str(out),
                        *tau_paths,
                    ]
                )
                assert code == 0
                blobs.append(out.read_bytes())
                blobs.append(Path(f"{out}.census.json").read_bytes())
                blobs.append(Path(f"{out}.assignment.tvc").read_bytes())
            csv_out = tmp_path / f"report-{run}.csv"
            json_out = tmp_path / f"report-{run}.json"
            code = main(
                [
                    "pipeline",
                    "--config",
                    str(config_path),
                    "--csv-out",
                    str(csv_out),
                    "--json-out",
                    str(json_out),
                ]
            )
            assert code == 0
            blobs.append(csv_out.read_bytes())
            blobs.append(json_out.read_bytes())
            return b"".join(blobs)

        assert run_all(1) == run_all(2)
