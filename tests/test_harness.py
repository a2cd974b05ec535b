import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmerge import (
    ConfigError,
    OTConfig,
    PipelineConfig,
    PipelineReport,
    SyntheticTask,
    ValidationError,
    evaluate,
    generate_task_suite,
    largest_remainder_counts,
    mix_target_environment,
    pairwise_sq_dists,
    run_pipeline,
    sequential_finetune_analog,
    tunable_merge,
)
from tvmerge import harness, similarity
from tvmerge.harness import environment_meta_embeddings, task_embeddings
from reference_pipeline import dense_embeddings, dense_fit, dense_overlapping_suite, dense_pipeline
from reference_sinkhorn import dense_sq_dists


def incremental_deltas(thetas, theta_0):
    bases = [theta_0, *thetas[:-1]]
    return np.stack([t - b for t, b in zip(thetas, bases)])


class TestSuiteGeneration:
    def test_disjoint_partition(self):
        tasks, theta_0 = generate_task_suite(3, 9, "disjoint", 12, seed=0)
        assert [t.support.tolist() for t in tasks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert theta_0.tolist() == [0.0] * 9

    def test_disjoint_uneven_dim(self):
        tasks, _ = generate_task_suite(3, 8, "disjoint", 12, seed=0)
        sizes = [t.support.size for t in tasks]
        assert sum(sizes) == 8 and max(sizes) - min(sizes) <= 1

    def test_overlapping_windows(self):
        tasks, _ = generate_task_suite(2, 4, "overlapping", 12, seed=0, overlap=2)
        assert [t.support.tolist() for t in tasks] == [[0, 1, 2], [1, 2, 3]]

    def test_overlapping_infeasible(self):
        # window width (9 + 2*2) / 3 is not integral
        with pytest.raises(ValidationError, match="infeasible"):
            generate_task_suite(3, 9, "overlapping", 12, seed=0, overlap=2)

    def test_deterministic_given_seed(self):
        a, _ = generate_task_suite(3, 12, "disjoint", 16, seed=5)
        b, _ = generate_task_suite(3, 12, "disjoint", 16, seed=5)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.restricted, tb.restricted)
            assert np.array_equal(ta.targets, tb.targets)
            assert np.array_equal(ta.labels, tb.labels)
        c, _ = generate_task_suite(3, 12, "disjoint", 16, seed=6)
        assert not np.array_equal(a[0].restricted, c[0].restricted)

    @pytest.mark.parametrize("separation", [3.0, 0.7])
    def test_each_design_is_center_plus_normal_from_its_keyed_stream(self, separation):
        # Per task: the truth's draw, the center's direction, then the design's.
        tasks, _ = generate_task_suite(4, 30, "overlapping", 20, seed=8, overlap=2, cluster_separation=separation)
        for task in tasks:
            rng = np.random.default_rng([8, harness._SUITE_SALT, task.task_id])
            truth = rng.normal(size=task.support.size)
            direction = rng.normal(size=task.support.size)
            center = separation * (direction / np.linalg.norm(direction))
            design = center[None, :] + rng.normal(size=(20, task.support.size))
            assert task.restricted.tobytes() == design.tobytes()
            assert task.targets.tobytes() == (design @ truth).tobytes()

    def test_design_zero_off_support(self):
        # The design is held only on its support: one column per support index.
        tasks, _ = generate_task_suite(3, 12, "disjoint", 16, seed=1)
        for task in tasks:
            assert task.dim == 12
            assert task.restricted.shape == (16, task.support.size)
            assert np.all(task.restricted != 0.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError, match="samples_per_task"):
            generate_task_suite(2, 10, "disjoint", 3, seed=0)

    def test_dim_below_tasks_rejected(self):
        with pytest.raises(ValidationError, match="infeasible"):
            generate_task_suite(5, 3, "disjoint", 10, seed=0)

    def test_labels_use_per_task_classes(self):
        tasks, _ = generate_task_suite(3, 9, "disjoint", 10, seed=2, classes_per_task=2)
        assert set(tasks[0].labels) == {0, 1}
        assert set(tasks[2].labels) == {4, 5}


class TestFinetuneAnalog:
    def test_disjoint_accumulates_all_optima(self):
        tasks, theta_0 = generate_task_suite(3, 12, "disjoint", 16, seed=3)
        thetas = sequential_finetune_analog(tasks, theta_0)
        for task in tasks:
            # the final model still carries every earlier task's optimum
            residual = task.restricted @ thetas[-1][task.support] - task.targets
            assert np.abs(residual).max() < 1e-9

    def test_single_task_optimum(self):
        tasks, theta_0 = generate_task_suite(1, 6, "disjoint", 10, seed=4)
        (theta_1,) = sequential_finetune_analog(tasks, theta_0)
        assert evaluate(theta_1, tasks).task_losses[1] < 1e-20

    def test_later_task_overwrites_overlap(self):
        tasks, theta_0 = generate_task_suite(2, 4, "overlapping", 12, seed=5, overlap=2)
        thetas = sequential_finetune_analog(tasks, theta_0)
        overlap = np.intersect1d(tasks[0].support, tasks[1].support)
        assert overlap.size == 2
        assert not np.allclose(thetas[1][overlap], thetas[0][overlap])
        # the second model is optimal for the second task, not the first
        assert evaluate(thetas[1], tasks).task_losses[2] < 1e-18
        assert evaluate(thetas[1], tasks).task_losses[1] > 1e-6

    def test_cumulative_delta_support_grows(self):
        tasks, theta_0 = generate_task_suite(3, 12, "disjoint", 16, seed=6)
        thetas = sequential_finetune_analog(tasks, theta_0)
        for index, theta in enumerate(thetas):
            nonzero = np.flatnonzero(theta - theta_0)
            allowed = np.concatenate([t.support for t in tasks[: index + 1]])
            assert np.isin(nonzero, allowed).all()

    def test_singular_normal_equations(self):
        restricted = np.ones((4, 2))  # duplicate columns, rank 1
        task = SyntheticTask(1, restricted, np.ones(4), np.array([0, 1]), np.zeros(4, dtype=int), dim=4)
        with pytest.raises(ValidationError, match="singular"):
            sequential_finetune_analog([task], np.zeros(4))

    # The QR fit and lstsq's SVD both have forward error of order cond * eps;
    # the tolerance allows the support width as a constant factor.
    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_fit_agrees_with_lstsq_at_condition_number(self, cond):
        samples, width = 40, 12
        for seed in range(5):
            rng = np.random.default_rng([seed, int(np.log10(cond))])
            left, _ = np.linalg.qr(rng.normal(size=(samples, width)))
            right, _ = np.linalg.qr(rng.normal(size=(width, width)))
            design = (left * np.logspace(0, -np.log10(cond), width)) @ right.T
            targets = design @ rng.normal(size=width) + rng.normal(size=samples)
            task = SyntheticTask(1, design, targets, np.arange(width), np.zeros(samples, dtype=int), dim=width)
            (fit,) = sequential_finetune_analog([task], np.zeros(width))
            expected = np.linalg.lstsq(design, targets, rcond=None)[0]
            tolerance = width * cond * np.finfo(np.float64).eps * np.linalg.norm(expected)
            assert np.linalg.norm(fit - expected) <= tolerance

    def test_fit_agrees_with_lstsq_on_square_designs(self):
        # samples_per_task equal to the width: no residual, and the worst conditioned suite designs.
        for seed in range(10):
            tasks, theta_0 = generate_task_suite(4, 64, "disjoint", 16, seed=seed)
            fitted = sequential_finetune_analog(tasks, theta_0)[-1]
            for task in tasks:
                expected = np.linalg.lstsq(task.restricted, task.targets, rcond=None)[0]
                cond = np.linalg.cond(task.restricted)
                tolerance = task.support.size * cond * np.finfo(np.float64).eps * np.linalg.norm(expected)
                assert np.linalg.norm(fitted[task.support] - expected) <= tolerance


class TestMixing:
    def test_even_split(self):
        tasks, _ = generate_task_suite(2, 8, "disjoint", 600, seed=7)
        env = mix_target_environment(tasks, [1, 2], [0.5, 0.5], 1000, seed=1)
        assert env.counts == {1: 500, 2: 500}

    def test_imbalanced_split(self):
        tasks, _ = generate_task_suite(2, 8, "disjoint", 500, seed=7)
        env = mix_target_environment(tasks, [1, 2], [0.8, 0.2], 500, seed=1)
        assert env.counts == {1: 400, 2: 100}

    def test_thirds_largest_remainder(self):
        tasks, _ = generate_task_suite(3, 9, "disjoint", 100, seed=7)
        env = mix_target_environment(tasks, [1, 2, 3], [1 / 3, 1 / 3, 1 / 3], 200, seed=1)
        assert list(env.counts.values()) == [67, 67, 66]

    def test_meta_and_eval_disjoint_and_stratified(self):
        tasks, _ = generate_task_suite(2, 8, "disjoint", 300, seed=8)
        env = mix_target_environment(tasks, [1, 2], [0.5, 0.5], 200, seed=2)
        assert env.meta_size == 20 and env.eval_size == 180
        for member in env.member_ids:
            meta = set(env.meta_rows[member].tolist())
            eval_ = set(env.eval_rows[member].tolist())
            assert not meta & eval_
            assert len(meta) == 10

    def test_bad_ratio_sum(self):
        tasks, _ = generate_task_suite(2, 8, "disjoint", 50, seed=9)
        with pytest.raises(ValidationError, match="sum"):
            mix_target_environment(tasks, [1, 2], [0.6, 0.5], 100, seed=0)

    def test_unknown_member(self):
        tasks, _ = generate_task_suite(2, 8, "disjoint", 50, seed=9)
        with pytest.raises(ValidationError, match="unknown member"):
            mix_target_environment(tasks, [1, 9], [0.5, 0.5], 100, seed=0)

    def test_largest_remainder_ties_break_by_index(self):
        counts = largest_remainder_counts(np.array([1.0, 1.0, 1.0]), 200)
        assert counts.tolist() == [67, 67, 66]


class TestEvaluate:
    def test_zero_model_loss_is_target_power(self):
        tasks, theta_0 = generate_task_suite(2, 8, "disjoint", 20, seed=10)
        result = evaluate(theta_0, tasks)
        for task in tasks:
            expected = float(task.targets @ task.targets) / task.num_samples
            assert result.task_losses[task.task_id] == pytest.approx(expected, rel=1e-12)

    def test_optimum_reaches_noise_floor(self):
        tasks, theta_0 = generate_task_suite(2, 8, "disjoint", 20, seed=11)
        thetas = sequential_finetune_analog(tasks, theta_0)
        assert evaluate(thetas[-1], tasks).task_losses[2] < 1e-20

    def test_single_member_env_equals_task_loss(self):
        tasks, theta_0 = generate_task_suite(2, 8, "disjoint", 50, seed=12)
        env = mix_target_environment(tasks, [1], [1.0], 40, seed=3)
        result = evaluate(theta_0, tasks, env)
        assert result.env_loss == pytest.approx(result.task_losses[1], rel=1e-15)

    def test_env_loss_weights_by_eval_counts(self):
        tasks, theta_0 = generate_task_suite(2, 8, "disjoint", 500, seed=13)
        env = mix_target_environment(tasks, [1, 2], [0.8, 0.2], 500, seed=4)
        result = evaluate(theta_0, tasks, env)
        w1, w2 = env.eval_rows[1].size, env.eval_rows[2].size
        expected = (w1 * result.task_losses[1] + w2 * result.task_losses[2]) / (w1 + w2)
        assert result.env_loss == pytest.approx(expected, rel=1e-15)


class TestExactRecoveryAndSteering:
    def test_support_budgets_recover_every_optimum(self):
        tasks, theta_0 = generate_task_suite(3, 12, "disjoint", 20, seed=14)
        thetas = sequential_finetune_analog(tasks, theta_0)
        taus = incremental_deltas(thetas, theta_0)
        budgets = [t.support.size for t in tasks]
        merged, _ = tunable_merge(taus, budgets, seed=99)
        result = evaluate(theta_0 + merged, tasks)
        assert all(loss <= 1e-18 for loss in result.task_losses.values())

    def test_single_budget_unit_shift_steers_monotonically(self):
        tasks, theta_0 = generate_task_suite(2, 8, "disjoint", 20, seed=15)
        thetas = sequential_finetune_analog(tasks, theta_0)
        taus = incremental_deltas(thetas, theta_0)
        base = [4, 4]
        shifted = [3, 5]  # one unit moved from task 1 to task 2
        for seed in range(5):
            merged_a, _ = tunable_merge(taus, base, seed=seed)
            merged_b, _ = tunable_merge(taus, shifted, seed=seed)
            loss_a = evaluate(theta_0 + merged_a, tasks).task_losses
            loss_b = evaluate(theta_0 + merged_b, tasks).task_losses
            assert loss_b[2] <= loss_a[2] + 1e-18
            assert loss_b[1] >= loss_a[1] - 1e-18


class TestPipeline:
    def base_config(self, **overrides):
        cfg = {
            "seed": 21,
            "suite": {"num_tasks": 3, "dim": 12, "support_mode": "disjoint", "samples_per_task": 20},
            "merge": {"method": "tunable", "rounds": 2, "lambda_merge": 1.0},
            "preference": {"source": "alpha", "alpha": 1.0},
        }
        cfg.update(overrides)
        return cfg

    def test_census_equals_budgets(self):
        report = run_pipeline(self.base_config())
        for run in report.summary["runs"]:
            assert run["census"] == run["budgets"]

    def test_report_is_deterministic(self):
        first = run_pipeline(self.base_config())
        second = run_pipeline(self.base_config())
        assert first.to_csv_text() == second.to_csv_text()
        assert first.to_json_text() == second.to_json_text()

    def test_file_preference_source(self, tmp_path):
        pref_path = tmp_path / "pref.json"
        pref_path.write_text(json.dumps({"budgets": [4, 4, 4], "d": 12}))
        report = run_pipeline(
            self.base_config(preference={"source": "file", "path": str(pref_path)})
        )
        assert report.summary["runs"][0]["budgets"] == [4, 4, 4]

    @pytest.mark.parametrize(
        "budgets, message",
        [
            ([6, 6], "preference vector has 2 budgets for 3 tasks"),
            ([4, 4, 5], "budget sum 13 != element count 12"),
        ],
        ids=["tasks", "d"],
    )
    def test_file_preference_wrong_dim(self, tmp_path, budgets, message):
        pref_path = tmp_path / "pref.json"
        pref_path.write_text(json.dumps({"budgets": budgets, "d": sum(budgets)}))
        with pytest.raises(ValidationError) as excinfo:
            run_pipeline(self.base_config(preference={"source": "file", "path": str(pref_path)}))
        assert str(excinfo.value) == message

    def test_label_similarity_prefers_matching_task(self):
        report = run_pipeline(
            self.base_config(
                preference={"source": "similarity", "metric": "label"},
                environment={"members": [2], "mix": [1.0], "total_samples": 16, "meta_fraction": 0.1},
            )
        )
        budgets = report.summary["runs"][0]["budgets"]
        assert budgets[1] == max(budgets) and budgets[1] > sorted(budgets)[-2]

    @pytest.mark.parametrize(
        "metric, core", [("ot", "ot_similarity"), ("cos", "cosine_mean_distance"), ("mmd", "_bandwidth_and_mmd")]
    )
    def test_each_task_is_embedded_only_when_it_is_scored(self, monkeypatch, metric, core):
        log = []
        embed, score = harness.task_embeddings, getattr(similarity, core)

        def embedded(task):
            log.append(f"embed {task.task_id}")
            return embed(task)

        def scored(*args):
            result = score(*args)
            log.append("score")
            return result

        monkeypatch.setattr(harness, "task_embeddings", embedded)
        monkeypatch.setattr(similarity, core, scored)
        run_pipeline(
            self.base_config(
                preference={"source": "similarity", "metric": metric},
                environment={"members": [2], "mix": [1.0], "total_samples": 16, "meta_fraction": 0.25},
            )
        )
        assert log == ["embed 1", "score", "embed 2", "score", "embed 3", "score"]

    def test_alpha_sweep_rows_and_csv_schema(self):
        report = run_pipeline(self.base_config(preference={"source": "alpha", "alpha": [0.0, 2.0]}))
        assert [len(run["task_losses"]) for run in report.summary["runs"]] == [3, 3]
        text = report.to_csv_text()
        assert text.splitlines()[0] == "alpha,task,budget,census,loss"
        single = run_pipeline(self.base_config())
        assert single.to_csv_text().splitlines()[0] == "task,budget,census,loss"
        # The column follows the config's form, a list or a number, not how many values differ.
        for alpha, header in (
            ([0.5, 0.5], "alpha,task,budget,census,loss"),
            ([0.5], "alpha,task,budget,census,loss"),
            (0.5, "task,budget,census,loss"),
        ):
            lines = run_pipeline(self.base_config(preference={"source": "alpha", "alpha": alpha})).to_csv_text().splitlines()
            runs = len(alpha) if isinstance(alpha, list) else 1
            assert lines[0] == header and len(lines) == 1 + 3 * runs
            assert all(line.startswith("0.5,") for line in lines[1:]) == isinstance(alpha, list)
        # A config built without from_dict, or a report built from a summary,
        # still labels the rows of several runs.
        config = replace(PipelineConfig.from_dict(self.base_config()), alphas=[0.1, 0.9])
        swept = run_pipeline(config)
        for report in (swept, PipelineReport(swept.summary)):
            lines = report.to_csv_text().splitlines()
            assert lines[0] == "alpha,task,budget,census,loss"
            assert [line.split(",")[0] for line in lines[1:]] == ["0.1"] * 3 + ["0.9"] * 3

    def test_residual_fraction_in_summary(self):
        report = run_pipeline(self.base_config(preference={"source": "alpha", "alpha": 0.0}))
        fraction = report.summary["runs"][0]["residual_random_fraction"]
        assert 0.0 <= fraction <= 1.0

    def test_magmax_method_has_no_budgets(self):
        report = run_pipeline(self.base_config(merge={"method": "magmax", "lambda_merge": 1.0}, preference={}))
        assert all(run["budgets"] is None for run in report.summary["runs"])
        assert sum(report.summary["runs"][0]["census"]) == 12

    def test_average_method_has_no_census(self):
        report = run_pipeline(self.base_config(merge={"method": "average"}, preference={}))
        assert all(run["census"] is None for run in report.summary["runs"])

    def test_tunable_without_source_rejected(self):
        with pytest.raises(ConfigError, match="preference source"):
            run_pipeline(self.base_config(preference={}))

    def test_similarity_without_environment_rejected(self):
        with pytest.raises(ConfigError, match="environment"):
            run_pipeline(self.base_config(preference={"source": "similarity", "metric": "label"}))

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            run_pipeline(self.base_config(extra={"x": 1}))

    def test_unknown_delta_mode_rejected(self):
        with pytest.raises(ConfigError, match="delta_mode"):
            run_pipeline(self.base_config(merge={"method": "tunable", "delta_mode": "windowed"}))

    def test_cumulative_mode_census_dominated_by_last_task(self):
        cfg = self.base_config(
            merge={"method": "magmax", "lambda_merge": 1.0, "delta_mode": "cumulative"},
            preference={},
        )
        report = run_pipeline(cfg)
        census = report.summary["runs"][0]["census"]
        # sequential drift plus later-wins ties: the last task owns everything
        assert census == [0, 0, 12]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
# Values a real config would hold, so that a parse gets past its early checks,
# plus numbers that no int or float conversion can take.
PLAUSIBLE = (
    st.sampled_from(["tunable", "magmax", "alpha", "file", "similarity", "label", "cumulative", "disjoint"])
    | st.sampled_from([float("inf"), float("nan"), 10**400])
    | st.integers(-2, 40)
    | st.floats(-1.0, 3.0)
    | st.lists(st.integers(0, 4), max_size=4)
    | st.lists(st.floats(0.0, 1.0), max_size=4)
)
VALID_CONFIG = {
    "seed": 3,
    "suite": {"num_tasks": 3, "dim": 12, "samples_per_task": 20},
    "merge": {"method": "tunable", "lambda_merge": 1.0},
    "preference": {"source": "similarity", "metric": "label", "alpha": 0.5, "path": "pref.json"},
    "environment": {"members": [1], "mix": [1.0], "total_samples": 16},
    "similarity_config": {"epsilon": 0.1},
    "report": {"csv": "report.csv"},
}
SECTION_KEYS = {
    "suite": ["num_tasks", "dim", "support_mode", "samples_per_task", "overlap",
              "classes_per_task", "noise_sigma", "cluster_separation"],
    "merge": ["method", "delta_mode", "rounds", "lambda_merge"],
    "preference": ["source", "alpha", "path", "metric"],
    "environment": ["members", "mix", "total_samples", "meta_fraction"],
    "similarity_config": [f.name for f in fields(OTConfig)],
    "report": ["csv", "json"],
}
# (section, key) pairs to overwrite; a None key overwrites the whole section.
TARGETS = [
    *((name, key) for name, keys in SECTION_KEYS.items() for key in [*keys, "typo"]),
    *((name, None) for name in [*SECTION_KEYS, "seed", "typo"]),
]


@st.composite
def mutated_configs(draw):
    """The valid config with a few fields or sections overwritten by arbitrary JSON."""
    config = json.loads(json.dumps(VALID_CONFIG))
    for name, key in draw(st.lists(st.sampled_from(TARGETS), max_size=3)):
        value = draw(JSON_VALUES | PLAUSIBLE)
        if key is None:
            config[name] = value
        elif isinstance(config.get(name), dict):
            config[name][key] = value
    return config


class TestPipelineConfigParse:
    def test_valid_config_parses(self):
        assert PipelineConfig.from_dict(VALID_CONFIG).environment["member_ids"] == [1]

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES | mutated_configs())
    def test_any_json_value_parses_or_raises_a_documented_error(self, raw):
        try:
            config = PipelineConfig.from_dict(raw)
        except (ConfigError, ValidationError):
            return
        assert isinstance(config, PipelineConfig)


# A small overlapping suite: supports 17 wide, consecutive ones sharing 3 columns.
ORACLE_SUITE = {"num_tasks": 4, "dim": 59, "overlap": 3, "samples": 40, "classes": 2, "noise_sigma": 0.1, "separation": 3.0}
ORACLE_ENV = {"member_ids": [1, 3], "mix": [0.6, 0.4], "total_samples": 60, "meta_fraction": 0.2}
ORACLE_SEEDS = range(1, 13)


def oracle_harness_suite(seed):
    suite = ORACLE_SUITE
    return generate_task_suite(
        suite["num_tasks"], suite["dim"], "overlapping", suite["samples"], seed=seed, overlap=suite["overlap"],
        classes_per_task=suite["classes"], noise_sigma=suite["noise_sigma"], cluster_separation=suite["separation"],
    )


class TestSupportCoordinatesMatchDenseDesigns:
    """The harness in support coordinates against ``reference_pipeline``'s dense (n, d) designs."""

    def test_suite_and_fit_are_the_dense_ones_bitwise(self):
        for seed in ORACLE_SEEDS:
            tasks, theta_0 = oracle_harness_suite(seed)
            dense = dense_overlapping_suite(seed=seed, **ORACLE_SUITE)
            for task, reference in zip(tasks, dense):
                assert task.support.size == 17
                assert np.array_equal(task.support, reference.support)
                assert np.array_equal(task.restricted, reference.design[:, reference.support])
                assert np.array_equal(task.targets, reference.targets)
            fits = sequential_finetune_analog(tasks, theta_0)
            for fit, expected in zip(fits, dense_fit(dense, ORACLE_SUITE["dim"])):
                assert np.array_equal(fit, expected)

    def test_distances_match_the_dense_formula(self):
        for seed in ORACLE_SEEDS:
            tasks, _ = oracle_harness_suite(seed)
            env = mix_target_environment(tasks, seed=seed, **ORACLE_ENV)
            dense_tasks, dense_meta = dense_embeddings(dense_overlapping_suite(seed=seed, **ORACLE_SUITE), env)
            meta = environment_meta_embeddings(env, tasks)
            assert meta.columns.tolist() == np.union1d(tasks[0].support, tasks[2].support).tolist()
            pairs = [(meta, meta, dense_meta, dense_meta)]
            for task, dense in zip(tasks, dense_tasks):
                emb = task_embeddings(task)
                pairs += [(emb, meta, dense, dense_meta), (meta, emb, dense_meta, dense), (emb, emb, dense, dense)]
            for x, y, dense_x, dense_y in pairs:
                expected = dense_sq_dists(dense_x, dense_y)
                np.testing.assert_allclose(pairwise_sq_dists(x, y), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("metric", ["ot", "mmd", "cos", "label"])
    def test_pipeline_matches_dense_designs(self, metric):
        suite = ORACLE_SUITE
        for seed in ORACLE_SEEDS:
            config = {
                "seed": seed,
                "suite": {
                    "num_tasks": suite["num_tasks"], "dim": suite["dim"], "support_mode": "overlapping",
                    "overlap": suite["overlap"], "samples_per_task": suite["samples"],
                    "classes_per_task": suite["classes"], "noise_sigma": suite["noise_sigma"],
                    "cluster_separation": suite["separation"],
                },
                "merge": {"method": "tunable", "lambda_merge": 1.0},
                "preference": {"source": "similarity", "metric": metric},
                "environment": {
                    "members": ORACLE_ENV["member_ids"], "mix": ORACLE_ENV["mix"],
                    "total_samples": ORACLE_ENV["total_samples"], "meta_fraction": ORACLE_ENV["meta_fraction"],
                },
            }
            (run,) = run_pipeline(config).summary["runs"]
            expected = dense_pipeline(suite, ORACLE_ENV, metric, seed)
            assert run["budgets"] == expected["budgets"], seed
            assert run["census"] == expected["census"], seed
            for task, loss in expected["task_losses"].items():
                assert run["task_losses"][str(task)] == pytest.approx(loss, rel=1e-12, abs=0.0)
            assert run["env_loss"] == pytest.approx(expected["env_loss"], rel=1e-12, abs=0.0)
