import copy
import itertools
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import tvmerge.similarity as similarity
from tvmerge import (
    DegenerateInputError,
    EmbeddingSet,
    LabelHistogram,
    OTConfig,
    ValidationError,
    cosine_mean_distance,
    label_similarity,
    median_heuristic_bandwidth,
    mmd_rbf,
    ot_similarity,
    pairwise_sq_dists,
    similarity_vector,
    sinkhorn_ot,
)
from tvmerge import harness
from reference_sinkhorn import dense_sq_dists, reference_sinkhorn


def exact_ot_by_enumeration(x, y):
    """Brute-force optimum over all matchings of two equal-size atom sets."""
    cost = pairwise_sq_dists(x, y)
    n = cost.shape[0]
    return min(
        sum(cost[i, perm[i]] for i in range(n)) for perm in itertools.permutations(range(n))
    ) / n


def mmd_sq_double_loop(x, y, bandwidth):
    """Direct quadratic-time kernel sums for the biased estimator."""
    def kernel(a, b):
        return math.exp(-float(((a - b) ** 2).sum()) / (2.0 * bandwidth**2))

    k_xx = np.mean([[kernel(a, b) for b in x] for a in x])
    k_yy = np.mean([[kernel(a, b) for b in y] for a in y])
    k_xy = np.mean([[kernel(a, b) for b in y] for a in x])
    return k_xx + k_yy - 2.0 * k_xy


def mmd_rebuilding_each_block(x, y, bandwidth=None):
    """``mmd_rbf`` with each block built where it is read: the median's three, then the kernel means' three."""
    def above_diagonal(square):
        return square[np.triu(np.ones(square.shape, dtype=bool), k=1)]

    if bandwidth is None:
        pooled = np.concatenate([
            above_diagonal(pairwise_sq_dists(x, x)),
            above_diagonal(pairwise_sq_dists(y, y)),
            pairwise_sq_dists(x, y).ravel(),
        ])
        bandwidth = float(np.median(np.sqrt(pooled)))
        bandwidth = bandwidth if bandwidth > 0.0 else 1.0
    denom = 2.0 * bandwidth * bandwidth
    k_xx, k_yy, k_xy = (np.exp(-pairwise_sq_dists(a, b) / denom).mean() for a, b in ((x, x), (y, y), (x, y)))
    return bandwidth, math.sqrt(max(float(k_xx + k_yy - 2.0 * k_xy), 0.0))


def dense_with_zero_columns(rng, rows, dim, used):
    dense = np.zeros((rows, dim))
    dense[:, used] = rng.normal(size=(rows, len(used)))
    return EmbeddingSet(dense)


def mmd_cases():
    """(tasks, meta or list of metas, cfg): ``mmd_rbf`` pairs each task with each meta.

    ``similarity_vector`` scores every task against one meta set, so it
    takes the cases of one meta (``ONE_META_CASES``).
    """
    rng = np.random.default_rng(36)
    tasks = [EmbeddingSet(rng.normal(size=(7 + i, 5)) + 0.3 * i) for i in range(3)]
    metas = [EmbeddingSet(rng.normal(size=(6, 5)) + 0.5 * i) for i in range(2)]
    # Gathered in Fortran order: the dense sets drop their all-zero columns.
    dense_tasks = [dense_with_zero_columns(rng, 9, 12, used) for used in ([0, 2, 3, 7], [2, 3, 5, 11])]
    dense_meta = dense_with_zero_columns(rng, 6, 12, [0, 3, 5, 7, 9])
    assert all(t.vectors.flags.f_contiguous and not t.vectors.flags.c_contiguous for t in dense_tasks)
    return {
        "shared meta": (tasks, metas[0], None),
        "per-task metas, one repeated": (tasks, [metas[0], metas[1], metas[0]], None),
        "task is the meta": (tasks, tasks[1], None),
        "bandwidth given": (tasks, metas[1], OTConfig(mmd_bandwidth=0.7)),
        "dense, zero columns dropped": (dense_tasks, dense_meta, None),
    }


ONE_META_CASES = [case for case, (_, meta, _) in mmd_cases().items() if not isinstance(meta, list)]


class TestEmbeddingSet:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EmbeddingSet(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            EmbeddingSet(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            EmbeddingSet(np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("at", [(0, 0), (-1, 1), (1, -1)], ids=["first row", "last row", "last column"])
    @pytest.mark.parametrize("columns", [None, [0, 2, 5]], ids=["dense", "given columns"])
    def test_every_non_finite_entry_is_rejected(self, value, at, columns):
        vectors = np.ones((4, 3))
        vectors[at] = value
        with pytest.raises(ValidationError, match="^embeddings must be finite$"):
            EmbeddingSet(vectors, columns=columns, dim=None if columns is None else 6)

    def test_a_zero_width_set_has_no_entry_to_check(self):
        emb = EmbeddingSet(np.zeros((3, 0)), columns=[], dim=4)
        assert emb.vectors.shape == (3, 0) and emb.dim == 4

    def test_shape_accessors(self):
        emb = EmbeddingSet(np.zeros((4, 7)))
        assert emb.num_samples == 4 and emb.dim == 7

    def test_dense_input_keeps_its_used_columns(self):
        dense = np.zeros((3, 6))
        dense[:, [1, 4]] = [[1.0, 2.0], [0.0, 3.0], [4.0, 0.0]]
        emb = EmbeddingSet(dense)
        assert emb.dim == 6
        assert emb.columns.tolist() == [1, 4]
        assert np.array_equal(emb.vectors, dense[:, [1, 4]])

    def test_given_columns_are_kept(self):
        emb = EmbeddingSet(np.ones((2, 3)), columns=[0, 2, 5], dim=6)
        assert emb.dim == 6 and emb.columns.tolist() == [0, 2, 5]
        assert emb.vectors.shape == (2, 3)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ([0, 3, 2], "sorted"),
            ([0, 2, 2], "distinct"),
            ([-1, 2, 3], r"within \[0, 6\)"),
            ([0, 2, 6], r"within \[0, 6\)"),
            ([0, 2], "2 embedding columns for vectors 3 wide"),
            ([0, 1, 2, 3], "4 embedding columns for vectors 3 wide"),
            ([0.0, 1.0, 2.0], "integers"),
            ([[0, 1, 2]], "integers"),
        ],
    )
    def test_given_columns_are_validated(self, columns, message):
        with pytest.raises(ValidationError, match=message):
            EmbeddingSet(np.ones((2, 3)), columns=columns, dim=6)

    @pytest.mark.parametrize("dim", [None, 0, 2.0, True])
    def test_given_columns_need_an_integer_dim(self, dim):
        with pytest.raises(ValidationError, match="integer dim"):
            EmbeddingSet(np.ones((2, 3)), columns=[0, 1, 2], dim=dim)

    def test_dense_dim_must_match_width(self):
        with pytest.raises(ValidationError, match="dim 5 differs"):
            EmbeddingSet(np.ones((2, 3)), dim=5)

    def test_column_sets_with_different_dims_are_rejected(self):
        x = EmbeddingSet(np.ones((2, 2)), columns=[0, 1], dim=4)
        y = EmbeddingSet(np.ones((3, 2)), columns=[0, 1], dim=5)
        with pytest.raises(ValidationError, match="dims differ: 4 vs 5"):
            pairwise_sq_dists(x, y)
        for distance in (sinkhorn_ot, mmd_rbf, cosine_mean_distance):
            with pytest.raises(ValidationError, match="dims differ"):
                distance(x, y)


class TestSinkhorn:
    def test_single_atom_forced_plan(self):
        res = sinkhorn_ot(EmbeddingSet(np.array([[0.0]])), EmbeddingSet(np.array([[3.0]])))
        assert res.cost == pytest.approx(9.0, abs=1e-12)
        assert res.converged

    def test_identical_sets_near_zero_cost(self):
        x = EmbeddingSet(np.random.default_rng(0).normal(size=(8, 3)))
        res = sinkhorn_ot(x, x, OTConfig(epsilon=1e-3))
        mean_cost = pairwise_sq_dists(x.vectors, x.vectors).mean()
        assert res.cost <= 1e-2 * mean_cost

    def test_identical_single_points_zero_scale(self):
        x = EmbeddingSet(np.array([[2.0, 2.0]]))
        res = sinkhorn_ot(x, x)
        assert res.cost == 0.0 and res.converged

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(41)
        cfg = OTConfig(epsilon=1e-3, max_iters=20_000)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            x = rng.uniform(0.0, 1.0, size=(n, d))
            y = rng.uniform(0.0, 1.0, size=(n, d))
            res = sinkhorn_ot(EmbeddingSet(x), EmbeddingSet(y), cfg)
            assert abs(res.cost - exact_ot_by_enumeration(x, y)) <= 1e-3

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        cfg = OTConfig(epsilon=0.05, tol=1e-13, max_iters=50_000)
        for _ in range(10):
            x = EmbeddingSet(rng.normal(size=(6, 4)))
            y = EmbeddingSet(rng.normal(size=(5, 4)))
            forward = sinkhorn_ot(x, y, cfg)
            backward = sinkhorn_ot(y, x, cfg)
            assert forward.converged and backward.converged
            assert abs(forward.cost - backward.cost) <= 1e-10

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(5)
        x = EmbeddingSet(rng.normal(size=(5, 2)))
        y = EmbeddingSet(rng.normal(size=(5, 2)))
        res = sinkhorn_ot(x, y, OTConfig(epsilon=1e-3, max_iters=1))
        assert not res.converged
        assert math.isfinite(res.cost) and res.cost >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dims differ"):
            sinkhorn_ot(EmbeddingSet(np.zeros((2, 2))), EmbeddingSet(np.zeros((2, 3))))

    @pytest.mark.parametrize("max_iters", [1, 2, 5])
    def test_unconverged_cost_reads_a_plan_with_target_columns(self, max_iters):
        # The later warm-start stages get no iterations, so the potentials are stale.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 2)) + 100.0
        cost = pairwise_sq_dists(x, y)
        converged = sinkhorn_ot(EmbeddingSet(x), EmbeddingSet(y), OTConfig(epsilon=1e-3))
        res = sinkhorn_ot(EmbeddingSet(x), EmbeddingSet(y), OTConfig(epsilon=1e-3, max_iters=max_iters))
        assert converged.converged and not res.converged
        assert res.iterations == max_iters
        assert cost.min() <= res.cost <= cost.max()
        assert res.cost == pytest.approx(converged.cost, rel=1e-3)
        assert res.cost == pytest.approx(reference_sinkhorn(x, y, 1e-3, max_iters)[0], rel=1e-12)


class TestSinkhornMatchesLogDomainOracle:
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-2, 0.05, 0.3])
    @pytest.mark.parametrize("coord_scale", [1e-3, 1.0, 1e3])
    def test_random_sets(self, epsilon, coord_scale):
        rng = np.random.default_rng([17, round(epsilon * 1000), round(coord_scale * 1000)])
        for _ in range(5):
            d = int(rng.integers(1, 6))
            x = coord_scale * rng.normal(size=(int(rng.integers(1, 40)), d))
            y = coord_scale * (rng.normal(size=(int(rng.integers(1, 40)), d)) + rng.uniform(0.0, 2.0))
            res = sinkhorn_ot(EmbeddingSet(x), EmbeddingSet(y), OTConfig(epsilon=epsilon, tol=1e-9))
            cost, converged, iterations = reference_sinkhorn(x, y, epsilon, tol=1e-9)
            assert (res.iterations, res.converged) == (iterations, converged)
            assert res.cost == pytest.approx(cost, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("swap", [False, True], ids=["outlier-first", "outlier-second"])
    def test_far_outlier_needs_log_domain_steps(self, swap):
        # One point at (1e3, 1e3) puts kernel entries near -8e4: without the
        # log-domain steps the kernel underflows, the scalings divide by
        # zero and the cost is NaN.
        rng = np.random.default_rng(23)
        x = rng.normal(size=(800, 2))
        x[0] = (1e3, 1e3)
        y = rng.normal(size=(50, 2))
        if swap:
            x, y = y, x
        res = sinkhorn_ot(EmbeddingSet(x), EmbeddingSet(y))
        cost, converged, iterations = reference_sinkhorn(x, y)
        assert res.converged and converged
        assert res.iterations == iterations
        # exp() of arguments near 8e4 carries about 2e-11 relative rounding on either side.
        assert res.cost == pytest.approx(cost, rel=1e-10, abs=0.0)

    def test_absorbed_scalings_keep_agreement(self, monkeypatch):
        # At epsilon 1e-5 the kernel-space scalings leave [1e-30, 1e30] and
        # are folded into the potentials; the solve must not notice.
        absorbed = []
        check = similarity._out_of_range

        def out_of_range(scaling):
            absorbed.append(check(scaling))
            return absorbed[-1]

        monkeypatch.setattr(similarity, "_out_of_range", out_of_range)
        rng = np.random.default_rng(35)
        x = rng.normal(size=(int(rng.integers(5, 30)), 2))
        y = rng.normal(size=(int(rng.integers(5, 30)), 2)) + rng.uniform(0.0, 3.0)
        x[0] *= 30.0
        res = sinkhorn_ot(EmbeddingSet(x), EmbeddingSet(y), OTConfig(epsilon=1e-5, max_iters=5000))
        cost, converged, iterations = reference_sinkhorn(x, y, 1e-5, max_iters=5000)
        assert any(absorbed)
        assert (res.iterations, res.converged) == (iterations, converged) == (3822, True)
        # Kernel entries reach about -1e6 here, so exp() rounds both solvers by about 1e-10.
        assert res.cost == pytest.approx(cost, rel=1e-10, abs=0.0)



class TestPairwiseSqDists:
    @staticmethod
    def sparse_columns(rng, rows, used):
        m = np.zeros((rows, 40))
        m[:, used] = rng.normal(size=(rows, len(used)))
        return m

    def test_all_zero_columns_match_dense_formula(self):
        rng = np.random.default_rng(31)
        x = self.sparse_columns(rng, 30, [0, 3, 4, 5, 17, 30])
        y = self.sparse_columns(rng, 20, [4, 5, 6, 17, 18, 39])
        apart = self.sparse_columns(rng, 10, [1, 2, 7])
        for a, b in [(x, x), (y, y), (x, y), (y, x), (x, apart), (x, x.copy())]:
            np.testing.assert_allclose(pairwise_sq_dists(a, b), dense_sq_dists(a, b), rtol=1e-12, atol=1e-12)

    def test_dense_sets_take_the_dense_formula_bitwise(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(25, 13))
        y = rng.normal(size=(18, 13))
        assert np.array_equal(pairwise_sq_dists(x, x), dense_sq_dists(x, x))
        assert np.array_equal(pairwise_sq_dists(x, y), dense_sq_dists(x, y))
        # Finished in blocks of 27 rows (the last of 19), and of one row.
        wide = rng.normal(size=(300, 13))
        widest = rng.normal(size=(similarity._FINISH_ENTRIES + 1, 13))
        for a, b in [(wide[:100], wide), (wide, wide), (x[:3], widest)]:
            assert np.array_equal(pairwise_sq_dists(a, b), dense_sq_dists(a, b))
        # One dense set against a sparse one keeps the dense set's norms.
        sparse = y.copy()
        sparse[:, 4:9] = 0.0
        np.testing.assert_allclose(pairwise_sq_dists(x, sparse), dense_sq_dists(x, sparse), rtol=1e-12, atol=1e-12)

    def test_column_sets_score_as_their_dense_scatter(self):
        rng = np.random.default_rng(34)
        x = EmbeddingSet(rng.normal(size=(12, 5)), columns=[0, 3, 4, 9, 17], dim=40)
        y = EmbeddingSet(rng.normal(size=(9, 4)), columns=[3, 9, 10, 39], dim=40)

        def full_width(emb):
            dense = np.zeros((emb.num_samples, emb.dim))
            dense[:, emb.columns] = emb.vectors
            return dense

        dense_x, dense_y = EmbeddingSet(full_width(x)), EmbeddingSet(full_width(y))
        assert np.array_equal(dense_x.columns, x.columns) and np.array_equal(dense_x.vectors, x.vectors)
        for a, b in [(x, x), (x, y), (y, x), (y, y)]:
            expected = dense_sq_dists(full_width(a), full_width(b))
            np.testing.assert_allclose(pairwise_sq_dists(a, b), expected, rtol=1e-12, atol=1e-12)
        for metric in ("ot", "mmd", "cos"):
            scores = similarity_vector([x, y], y, metric).scores
            dense_scores = similarity_vector([dense_x, dense_y], dense_y, metric).scores
            assert scores == pytest.approx(dense_scores, rel=1e-9)

    def test_dense_sets_with_zero_columns_keep_the_gathered_layout_bitwise(self):
        # Two dense sets that use different columns: each stores its own columns.
        rng = np.random.default_rng(35)
        x = self.sparse_columns(rng, 30, [0, 3, 4, 5, 17, 30])
        y = self.sparse_columns(rng, 20, [4, 5, 6, 17, 18, 39])
        shared = [4, 5, 17]
        sq_x = np.einsum("ij,ij->i", x[:, [0, 3, 4, 5, 17, 30]], x[:, [0, 3, 4, 5, 17, 30]])
        sq_y = np.einsum("ij,ij->i", y[:, [4, 5, 6, 17, 18, 39]], y[:, [4, 5, 6, 17, 18, 39]])
        mask = np.isin(np.arange(40), shared)
        expected = np.maximum(sq_x[:, None] + sq_y[None, :] - 2.0 * (x[:, mask] @ y[:, mask].T), 0.0)
        assert np.array_equal(pairwise_sq_dists(EmbeddingSet(x), EmbeddingSet(y)), expected)

    def test_self_distances_are_symmetric_with_compressed_columns(self):
        # At this size a general product of two copies is not bitwise symmetric.
        x = np.zeros((100, 300))
        x[:, 20:284] = np.random.default_rng(33).normal(size=(100, 264))
        dists = pairwise_sq_dists(x, x)
        assert np.array_equal(dists, dists.T)


class TestOTSimilarity:
    def test_zero_cost_gives_one(self):
        x = EmbeddingSet(np.array([[1.0, 2.0]]))
        assert ot_similarity(x, x) == 1.0

    def test_hand_value(self):
        # cost is forced to 0.01 by two 1-D singletons at distance 0.1
        x = EmbeddingSet(np.array([[0.0]]))
        y = EmbeddingSet(np.array([[0.1]]))
        assert ot_similarity(x, y, OTConfig(gamma=100.0)) == pytest.approx(
            math.exp(-1.0), rel=1e-9
        )

    def test_underflow_clamped_to_positive(self):
        x = EmbeddingSet(np.array([[0.0]]))
        y = EmbeddingSet(np.array([[100.0]]))
        value = ot_similarity(x, y, OTConfig(gamma=100.0))
        assert value == np.finfo(np.float64).tiny
        assert value > 0.0

    def test_unconverged_solve_logs_a_warning(self, caplog):
        rng = np.random.default_rng(5)
        x = EmbeddingSet(rng.normal(size=(5, 2)))
        y = EmbeddingSet(rng.normal(size=(5, 2)))
        with caplog.at_level(logging.DEBUG, logger="tvmerge"):
            ot_similarity(x, y, OTConfig(epsilon=1e-3, max_iters=1))
        records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        assert [(name, level) for name, level, _ in records] == [
            ("tvmerge", logging.DEBUG),
            ("tvmerge", logging.WARNING),
        ]
        assert records[0][2].startswith("sinkhorn: 1 iterations, converged False, cost ")
        assert records[1][2] == "sinkhorn did not converge within max_iters 1 (tol 1e-09)"

    def test_clamped_score_logs_at_debug(self, caplog):
        x = EmbeddingSet(np.array([[0.0]]))
        y = EmbeddingSet(np.array([[100.0]]))
        with caplog.at_level(logging.DEBUG, logger="tvmerge"):
            ot_similarity(x, y, OTConfig(gamma=100.0))
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, "sinkhorn: 1 iterations, converged True, cost 10000"),
            (logging.DEBUG, "score exp(-100 * 10000) = 0 clamped to 2.22507e-308"),
        ]

    def test_converged_unclamped_solve_logs_one_debug_line(self, caplog):
        x = EmbeddingSet(np.array([[0.0]]))
        y = EmbeddingSet(np.array([[0.1]]))
        with caplog.at_level(logging.DEBUG, logger="tvmerge"):
            ot_similarity(x, y)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, "sinkhorn: 1 iterations, converged True, cost 0.01")
        ]


class TestLabelSimilarity:
    def test_uniform_vs_single_class(self):
        task = LabelHistogram.from_labels(["a", "b"])
        meta = LabelHistogram.from_labels(["a", "a"])
        assert label_similarity(task, meta) == pytest.approx(0.5)

    def test_identical_uniform_over_k(self):
        for k in (1, 2, 4, 10):
            hist = LabelHistogram.from_labels(list(range(k)))
            assert label_similarity(hist, hist) == pytest.approx(1 / k, abs=1e-12)

    def test_disjoint_classes(self):
        task = LabelHistogram.from_labels(["a", "b"])
        meta = LabelHistogram.from_labels(["c"])
        assert label_similarity(task, meta) == 0.0

    def test_bounded_by_meta_peak(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            task = LabelHistogram.from_labels(rng.integers(0, 6, size=30).tolist())
            meta = LabelHistogram.from_labels(rng.integers(0, 6, size=20).tolist())
            peak = max(meta.frequency(c) for c in meta.classes)
            assert 0.0 <= label_similarity(task, meta) <= peak + 1e-12

    def test_int_and_str_ids_match(self):
        assert label_similarity(
            LabelHistogram.from_labels([1, 1]), LabelHistogram({"1": 3})
        ) == pytest.approx(1.0)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValidationError):
            LabelHistogram({})


class TestCosineMeanDistance:
    def test_equal_means(self):
        x = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        y = EmbeddingSet(np.array([[0.5, 0.5]]))
        assert cosine_mean_distance(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_means(self):
        x = EmbeddingSet(np.array([[1.0, 0.0]]))
        y = EmbeddingSet(np.array([[0.0, 2.0]]))
        assert cosine_mean_distance(x, y) == pytest.approx(1.0)

    def test_antipodal_means(self):
        x = EmbeddingSet(np.array([[1.0, 1.0]]))
        y = EmbeddingSet(np.array([[-3.0, -3.0]]))
        assert cosine_mean_distance(x, y) == pytest.approx(2.0)

    def test_zero_norm_mean_degenerate(self):
        x = EmbeddingSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        y = EmbeddingSet(np.array([[1.0, 0.0]]))
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            cosine_mean_distance(x, y)


class TestMMD:
    def test_identical_sets_zero(self):
        x = EmbeddingSet(np.random.default_rng(1).normal(size=(10, 3)))
        assert mmd_rbf(x, x) == 0.0

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=(6, 2))
            y = rng.normal(size=(5, 2)) + 1.0
            expected = math.sqrt(max(mmd_sq_double_loop(x, y, 0.8), 0.0))
            got = mmd_rbf(EmbeddingSet(x), EmbeddingSet(y), bandwidth=0.8)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_separated_tight_clouds(self):
        rng = np.random.default_rng(3)
        x = 0.01 * rng.normal(size=(20, 2))
        y = 0.01 * rng.normal(size=(20, 2)) + np.array([50.0, 0.0])
        denom = 2.0
        k_xy = np.exp(-pairwise_sq_dists(x, y) / denom).mean()
        expected_sq = 2.0 * (1.0 - k_xy)
        got = mmd_rbf(EmbeddingSet(x), EmbeddingSet(y), bandwidth=1.0)
        assert got**2 == pytest.approx(expected_sq, rel=1e-2)

    def test_huge_bandwidth_flattens_kernel(self):
        rng = np.random.default_rng(4)
        x = EmbeddingSet(rng.normal(size=(8, 2)))
        y = EmbeddingSet(rng.normal(size=(9, 2)) + 2.0)
        assert mmd_rbf(x, y, bandwidth=1e6) <= 1e-5

    def test_median_heuristic(self):
        x = EmbeddingSet(np.array([[0.0], [1.0]]))
        y = EmbeddingSet(np.array([[2.0]]))
        # pooled pairwise distances: 1, 2, 1 -> median 1
        assert median_heuristic_bandwidth(x, y) == pytest.approx(1.0)
        same = EmbeddingSet(np.array([[5.0], [5.0]]))
        assert median_heuristic_bandwidth(same, same) == 1.0

    @pytest.mark.parametrize("shape_y", [(1, 6), (7, 6), (8, 6)], ids=["single", "odd", "even"])
    def test_median_heuristic_matches_pooled_matrix(self, shape_y):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(9, 6))
        x[:, 1] = 0.0
        # A wider y, so that a block read wrongly moves the median.
        y = 3.0 * rng.normal(size=shape_y) + 0.5
        y[:, 4] = 0.0
        pooled = np.vstack([x, y])
        dists = np.sqrt(dense_sq_dists(pooled, pooled))
        expected = float(np.median(dists[np.triu_indices(pooled.shape[0], k=1)]))
        got = median_heuristic_bandwidth(EmbeddingSet(x), EmbeddingSet(y))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


    @pytest.mark.parametrize("case", list(mmd_cases()))
    def test_matches_each_block_rebuilt_bitwise(self, case):
        tasks, meta, cfg = mmd_cases()[case]
        bandwidth = None if cfg is None else cfg.mmd_bandwidth
        for task in tasks:
            for y in (meta if isinstance(meta, list) else [meta]):
                expected_bandwidth, expected = mmd_rebuilding_each_block(task, y, bandwidth)
                assert mmd_rbf(task, y, bandwidth) == expected
                assert similarity._bandwidth_and_mmd(*similarity._distance_blocks(task, y), bandwidth) == (
                    expected_bandwidth, expected
                )
                if bandwidth is None:
                    assert median_heuristic_bandwidth(task, y) == expected_bandwidth

    @pytest.mark.parametrize("scale", [1e150])
    def test_median_of_overflowing_distances_matches_np_median(self, scale):
        # Rows this large take squared norms of 3e300, near the largest
        # float; rows of 1e160 overflow them (next test).
        rng = np.random.default_rng(39)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(5, 3))
        x[0] = y[1] = scale
        for a, b in [(x, y), (x, x), (x[1:], y), (x, y[2:])]:
            a, b = EmbeddingSet(a), EmbeddingSet(b)
            assert median_heuristic_bandwidth(a, b) == mmd_rebuilding_each_block(a, b)[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_distances_are_an_error(self, scale):
        # Squared norms of inf, and NaN where two of them meet: no median or
        # MMD is read off them, and numpy warns of nothing.
        rng = np.random.default_rng(39)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(5, 3))
        x[0] = y[1] = scale
        for a, b in [(x, y), (x, x), (x[1:], y), (x, y[2:])]:
            a, b = EmbeddingSet(a), EmbeddingSet(b)
            for measure in (median_heuristic_bandwidth, mmd_rbf):
                with pytest.raises(DegenerateInputError, match="^squared distances overflow float64"):
                    measure(a, b)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf, 0.0, -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        x = EmbeddingSet(np.array([[0.0], [1.0]]))
        y = EmbeddingSet(np.array([[2.0]]))
        with pytest.raises(ValidationError, match="bandwidth must be finite and positive"):
            mmd_rbf(x, y, bandwidth)


class TestMMDScoresInOnePass:
    @pytest.fixture
    def count_distances(self, monkeypatch):
        calls = []
        build = similarity.pairwise_sq_dists

        def counted(x, y):
            calls.append((x, y))
            return build(x, y)

        monkeypatch.setattr(similarity, "pairwise_sq_dists", counted)
        return calls

    def test_each_block_is_built_once(self, count_distances):
        rng = np.random.default_rng(37)
        tasks = [EmbeddingSet(rng.normal(size=(5, 3)) + i) for i in range(4)]
        meta = EmbeddingSet(rng.normal(size=(4, 3)))
        similarity_vector(tasks, meta, "mmd")
        assert len(count_distances) == 2 * len(tasks) + 1
        assert sum(x is meta and y is meta for x, y in count_distances) == 1

    @pytest.mark.parametrize("case", ONE_META_CASES)
    def test_scores_equal_each_pair_scored_alone(self, case):
        tasks, meta, cfg = mmd_cases()[case]
        cfg = cfg or OTConfig()
        scores = similarity_vector(tasks, meta, "mmd", cfg).scores
        assert scores == tuple(
            similarity._exp_transform(cfg.gamma_mmd, mmd_rbf(task, meta, cfg.mmd_bandwidth)) for task in tasks
        )


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDistancePeaks:
    @pytest.mark.parametrize("same", [False, True], ids=["two sets", "one set"])
    def test_pairwise_sq_dists_holds_its_result_and_one_temporary(self, same):
        rng = np.random.default_rng(38)
        x = EmbeddingSet(rng.normal(size=(600, 40)))
        y = x if same else EmbeddingSet(rng.normal(size=(500, 40)))
        block = x.num_samples * y.num_samples * 8
        # The product, finished in place through a 64 KiB temporary: measured
        # 1.09 blocks (two sets) and 1.07 (one set), against 2.06 and 2.05
        # when the norms' sums were a second block, and 3.00 when the cross
        # term was also doubled into a new array.
        assert traced_peak(lambda: pairwise_sq_dists(x, y)) < 1.3 * block

    @staticmethod
    def pipeline_similarity_inputs():
        # The pipeline benchmark's similarity inputs: 8 tasks of 320 rows on
        # 264 columns and a 200-row meta set, so the largest block is a task's
        # 320 x 320 self block.
        suite = {"support_mode": "overlapping", "overlap": 8, "samples_per_task": 320, "classes_per_task": 4}
        tasks, _ = harness.generate_task_suite(8, 2056, seed=23, **suite)
        env = harness.mix_target_environment(tasks, [1, 3, 8], [0.5, 0.3, 0.2], 2000, 0.1, seed=23)
        return tasks, harness.environment_meta_embeddings(env, tasks), 320**2 * 8

    def test_mmd_scores_peak_at_a_few_blocks(self):
        # Holding xx, yy and xy while the median's pooled copy is partitioned,
        # the scores peak at 2.61 MiB, 3.34 blocks (3.01 when every block was
        # built again for the kernel means).
        tasks, meta, block = self.pipeline_similarity_inputs()
        task_inputs = [harness.task_embeddings(t) for t in tasks]
        assert traced_peak(lambda: similarity_vector(task_inputs, meta, "mmd")) < 3.5 * block

    def test_mmd_scores_of_generated_tasks_peak_at_a_few_blocks(self):
        # Handed over as the pipeline hands them, each task is built inside
        # the call: 3.34 blocks with the task let go once xy and xx exist,
        # against 4.17 when it was held through the median's pooled copy.
        tasks, meta, block = self.pipeline_similarity_inputs()
        task_inputs = (harness.task_embeddings(t) for t in tasks)
        assert traced_peak(lambda: similarity_vector(task_inputs, meta, "mmd")) < 3.5 * block


class TestSimilarityVector:
    def test_label_metric_matching_and_disjoint(self):
        k = 4
        task1 = LabelHistogram.from_labels(list(range(k)))
        task2 = LabelHistogram.from_labels(["z1", "z2"])
        meta = LabelHistogram.from_labels(list(range(k)))
        sims = similarity_vector([task1, task2], meta, "label")
        assert sims.scores[0] == pytest.approx(1 / k)
        assert sims.scores[1] == 0.0

    def test_ot_metric_self_match_is_maximal(self):
        rng = np.random.default_rng(6)
        tasks = [EmbeddingSet(rng.normal(size=(6, 3)) + 4 * i) for i in range(3)]
        sims = similarity_vector(tasks, tasks[0], "ot")
        assert np.argmax(sims.scores) == 0

    def test_single_task_positive_score(self):
        emb = EmbeddingSet(np.random.default_rng(7).normal(size=(5, 2)))
        for metric in ("ot", "cos", "mmd"):
            sims = similarity_vector([emb], emb, metric)
            assert len(sims.scores) == 1 and sims.scores[0] > 0.0

    def test_distance_metrics_use_exp_transform(self):
        x = EmbeddingSet(np.array([[1.0, 0.0]]))
        y = EmbeddingSet(np.array([[0.0, 1.0]]))
        cfg = OTConfig(gamma_cos=10.0)
        sims = similarity_vector([x], y, "cos", cfg)
        assert sims.scores[0] == pytest.approx(math.exp(-10.0), rel=1e-9)

    def test_meta_count_mismatch(self):
        # Every task is scored against one meta set: a list of them, of any length, is rejected.
        emb = EmbeddingSet(np.zeros((2, 2)) + 1.0)
        for metas in ([emb], [emb, emb], [emb, emb, emb]):
            with pytest.raises(ValidationError, match="requires EmbeddingSet inputs, got list"):
                similarity_vector([emb, emb, emb], metas, "ot")

    def test_mixed_kinds_rejected(self):
        emb = EmbeddingSet(np.ones((2, 2)))
        hist = LabelHistogram.from_labels([1])
        with pytest.raises(ValidationError, match="requires"):
            similarity_vector([emb, hist], emb, "ot")

    def test_metric_kind_mismatch(self):
        hist = LabelHistogram.from_labels([1])
        with pytest.raises(ValidationError, match="requires"):
            similarity_vector([hist], hist, "ot")
        with pytest.raises(ValidationError, match="unknown metric"):
            similarity_vector([hist], hist, "euclidean")


@pytest.mark.filterwarnings("error")
class TestOverflowIsAnError:
    @pytest.mark.parametrize(
        "metric, message",
        [
            ("ot", "^squared distances overflow float64"),
            ("mmd", "^squared distances overflow float64"),
            ("cos", "^the mean norms' product overflows float64"),
        ],
        ids=["ot", "mmd", "cos"],
    )
    def test_each_metric_raises_on_rows_near_1e200(self, metric, message):
        # These scored _TINY (ot, mmd) and 4.5e-05 (cos) under numpy's warnings.
        rng = np.random.default_rng(42)
        huge = rng.normal(size=(5, 3))
        huge[0] = 1e200
        huge, plain = EmbeddingSet(huge), EmbeddingSet(rng.normal(size=(4, 3)))
        for tasks, meta in [([plain, huge], plain), ([plain], huge)]:
            with pytest.raises(DegenerateInputError, match=message):
                similarity_vector(tasks, meta, metric)

    def test_an_overflowing_mean_transport_cost_is_an_error(self):
        # Every squared distance, 1.2e307, is finite; their sum is not.
        x = EmbeddingSet(np.full((6, 3), 1e153))
        y = EmbeddingSet(np.full((5, 3), -1e153))
        assert np.all(pairwise_sq_dists(x, y) == pairwise_sq_dists(x, y)[0, 0])
        with pytest.raises(DegenerateInputError, match="^the mean transport cost overflows float64"):
            sinkhorn_ot(x, y)


# The call in which each metric's similarity_vector scores one task.
SCORE_CORES = {"ot": "ot_similarity", "label": "label_similarity", "cos": "cosine_mean_distance", "mmd": "_bandwidth_and_mmd"}


def one_meta_inputs(metric):
    """Three task inputs of ``metric``'s kind and one meta input."""
    if metric == "label":
        tasks = [LabelHistogram.from_labels(labels) for labels in ([0, 1, 1], [1, 2], [3])]
        return tasks, LabelHistogram.from_labels([1, 2, 2])
    rng = np.random.default_rng(41)
    tasks = [EmbeddingSet(rng.normal(size=(5, 3)) + i) for i in range(3)]
    return tasks, EmbeddingSet(rng.normal(size=(4, 3)))


class TestOneTaskAtATime:
    @pytest.mark.parametrize("metric", similarity.METRICS)
    def test_each_task_is_scored_before_the_next_is_asked_for(self, monkeypatch, metric):
        tasks, meta = one_meta_inputs(metric)
        want = similarity_vector(tasks, meta, metric)
        log = []
        core = getattr(similarity, SCORE_CORES[metric])

        def logged(*args):
            result = core(*args)
            log.append("scored")
            return result

        def produced():
            for k, task in enumerate(tasks):
                log.append(f"task {k}")
                yield task

        monkeypatch.setattr(similarity, SCORE_CORES[metric], logged)
        assert similarity_vector(produced(), meta, metric) == want
        assert log == ["task 0", "scored", "task 1", "scored", "task 2", "scored"]

    # LabelHistogram has slots and no weak references; the embedding sets are what take memory.
    @pytest.mark.parametrize("metric", ["ot", "cos", "mmd"])
    def test_a_scored_task_is_let_go_before_the_next_is_made(self, metric):
        tasks, meta = one_meta_inputs(metric)
        made = []

        def remembered(task):
            made.append(weakref.ref(task))
            return task

        def produced():
            for task in tasks:
                assert [ref() for ref in made] == [None] * len(made)
                yield remembered(copy.copy(task))

        assert similarity_vector(produced(), meta, metric) == similarity_vector(tasks, meta, metric)
        assert len(made) == len(tasks)

    def test_an_mmd_task_is_let_go_before_the_median_copies_its_blocks(self, monkeypatch):
        tasks, meta = one_meta_inputs("mmd")
        made = []
        medians = []
        pooled_median = similarity._pooled_median

        def checked_median(xx, yy, xy):
            medians.append([ref() is None for ref in made])
            return pooled_median(xx, yy, xy)

        def remembered(task):
            made.append(weakref.ref(task))
            return task

        def produced():
            for task in tasks:
                yield remembered(copy.copy(task))

        want = similarity_vector(tasks, meta, "mmd")
        monkeypatch.setattr(similarity, "_pooled_median", checked_median)
        assert similarity_vector(produced(), meta, "mmd") == want
        assert medians == [[True], [True, True], [True, True, True]]

    @pytest.mark.parametrize("metric", similarity.METRICS)
    def test_an_empty_iterable_is_rejected(self, metric):
        _, meta = one_meta_inputs(metric)
        with pytest.raises(ValidationError, match="^need at least one task input$"):
            similarity_vector(iter(()), meta, metric)

    def test_a_wrongly_typed_task_after_valid_ones_is_rejected(self):
        emb = EmbeddingSet(np.ones((2, 2)))
        tasks = (item for item in (emb, emb, LabelHistogram.from_labels([1])))
        with pytest.raises(ValidationError) as excinfo:
            similarity_vector(tasks, emb, "ot")
        assert str(excinfo.value) == "metric 'ot' requires EmbeddingSet inputs, got LabelHistogram"

    def test_a_wrongly_typed_meta_is_rejected_before_any_task_is_asked_for(self):
        asked = []

        def produced():
            asked.append(True)
            yield EmbeddingSet(np.ones((2, 2)))

        with pytest.raises(ValidationError) as excinfo:
            similarity_vector(produced(), LabelHistogram.from_labels([1]), "mmd")
        assert str(excinfo.value) == "metric 'mmd' requires EmbeddingSet inputs, got LabelHistogram"
        assert asked == []
