import hashlib
import json
import math
import multiprocessing
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from satfuse import forest
from satfuse.errors import (ConfigError, CoverageError, FormatError, PartitionError, SatfuseError,
                            SchemaError, ValidationError)
from satfuse.forest import (
    ForestConfig,
    ForestModel,
    Quadrat,
    _Tree,
    _tree_sample,
    cross_validate,
    extract_quadrat_features,
    fit_forest,
    load_samples_csv,
    oob_r2,
    predict,
    save_samples_csv,
)
from satfuse.raster import Raster

from conftest import make_grid, random_raster


class TestQuadratFeatures:
    def test_constant_band(self):
        g = make_grid(16, 16)  # 0.125 m pixels, origin (0, 2)
        r = Raster(g, np.full((2, 16, 16), 0.3, dtype=np.float32), ["a", "b"])
        feats = extract_quadrat_features(r, [Quadrat("q1", 1.0, 1.0, 0.5)])
        assert np.allclose(feats, 0.3, atol=1e-7)

    def test_corner_aligned_quadrat_has_16_pixels(self):
        r = random_raster(0, 16, 16, 1)
        # 0.5 m square whose corners align with the 0.125 m grid
        q = Quadrat("q", 0.25 + 0.5, 2.0 - 0.25, 0.5)  # center (0.75, 1.75)
        feats = extract_quadrat_features(r, [q])
        # oracle: columns 4..7, rows 0..3 (pixel centers inside the square)
        block = r.values[0, 0:4, 4:8].astype(np.float64)
        assert feats[0, 0] == pytest.approx(block.mean(), abs=1e-7)
        assert block.size == 16

    def test_matches_block_oracle(self):
        r = random_raster(1, 32, 32, 3, mask_fraction=0.2)
        q = Quadrat("q", 1.0, 2.0, 0.5)
        feats = extract_quadrat_features(r, [q])
        # brute force: scan every pixel center
        g = r.grid
        acc = np.zeros(3)
        cnt = 0
        for i in range(g.height):
            for j in range(g.width):
                x, y = g.pixel_center(i, j)
                if 0.75 <= x < 1.25 and 1.75 < y <= 2.25 and r.mask[i, j]:
                    acc += r.values[:, i, j]
                    cnt += 1
        assert cnt > 0
        assert np.allclose(feats[0], acc / cnt, atol=1e-6)

    def test_no_valid_pixels_lists_quadrat_ids(self):
        r = random_raster(2, 16, 16, 1)
        r.mask[0:4, 0:4] = False
        bad = Quadrat("q-bad", 0.25, 1.75, 0.5)
        good = Quadrat("q-good", 1.0, 1.0, 0.5)
        with pytest.raises(CoverageError) as e:
            extract_quadrat_features(r, [bad, good])
        assert "q-bad" in str(e.value)
        assert "q-good" not in str(e.value)

    def test_quadrat_outside_raster(self):
        r = random_raster(3, 8, 8, 1)
        with pytest.raises(CoverageError):
            extract_quadrat_features(r, [Quadrat("far", 100.0, 100.0, 0.5)])

    @pytest.mark.parametrize("x, y, side", [
        (float("nan"), 1.0, 0.5), (1.0, float("nan"), 0.5), (float("inf"), 1.0, 0.5),
        (1.0, float("-inf"), 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, float("nan")),
        (1.0, 1.0, float("inf")),
    ])
    def test_quadrat_validation(self, x, y, side):
        with pytest.raises(ValidationError):
            Quadrat("q", x, y, side)


def linear_benchmark(n=200, p=8, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, p))
    y = 3.0 * X[:, 1] - 2.0 * X[:, 3] + noise * rng.standard_normal(n)
    return X, y


def easy_linear_benchmark(n=300, p=4, noise=0.01, seed=0):
    return linear_benchmark(n=n, p=p, noise=noise, seed=seed)


class TestFitForest:
    def test_constant_target(self):
        X = np.random.default_rng(0).uniform(size=(20, 3))
        y = np.full(20, 2.5)
        model = fit_forest(X, y, ForestConfig(n_trees=10), seed=0)
        assert predict(model, X) == pytest.approx(np.full(20, 2.5))

    def test_memorizes_without_bootstrap(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(40, 4))
        y = rng.uniform(size=40)
        cfg = ForestConfig(n_trees=5, bootstrap=False, min_samples_leaf=1, max_features=4)
        model = fit_forest(X, y, cfg, seed=0)
        assert np.allclose(predict(model, X), y, atol=1e-12)

    def test_oob_r2_on_linear_benchmark(self):
        X, y = linear_benchmark(n=200, noise=0.05)
        model = fit_forest(X, y, ForestConfig(n_trees=500), seed=0)
        assert oob_r2(model, X, y) >= 0.8

    def test_oob_r2_of_reloaded_model_is_identical(self, tmp_path):
        X, y = linear_benchmark(n=60, seed=2)
        model = fit_forest(X, y, ForestConfig(n_trees=30), seed=4)
        model.to_json(tmp_path / "forest.json")
        back = ForestModel.from_json(tmp_path / "forest.json")
        assert oob_r2(back, X, y) == oob_r2(model, X, y)

    def test_oob_r2_without_out_of_bag_rows(self):
        X, y = linear_benchmark(n=30, seed=2)
        model = fit_forest(X, y, ForestConfig(n_trees=3, bootstrap=False), seed=0)
        with pytest.raises(ValidationError):
            oob_r2(model, X, y)

    def test_oob_r2_of_constant_targets_is_zero(self):
        X, _ = linear_benchmark(n=30, seed=2)
        y = np.full(30, 2.0)
        model = fit_forest(X, y, ForestConfig(n_trees=10), seed=0)
        assert oob_r2(model, X, y) == 0.0

    def test_deterministic_under_seed(self):
        X, y = linear_benchmark(n=80, seed=3)
        a = fit_forest(X, y, ForestConfig(n_trees=25), seed=9)
        b = fit_forest(X, y, ForestConfig(n_trees=25), seed=9)
        q = np.random.default_rng(0).uniform(size=(30, 8))
        assert np.array_equal(predict(a, q), predict(b, q))
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_forest(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValidationError):
            fit_forest(np.full((5, 2), np.nan), np.zeros(5))
        for bad in ({"n_trees": 0}, {"min_samples_leaf": 0}, {"max_features": 0},
                    {"max_depth": -1}):
            with pytest.raises(ConfigError):
                ForestConfig(**bad)
        ForestConfig(max_depth=0)  # a single-leaf tree is legal

    @pytest.mark.parametrize("field, bad", [
        ("n_trees", 2.5), ("n_trees", "3"), ("n_trees", True), ("n_trees", np.nan),
        ("n_trees", np.inf), ("n_trees", None), ("n_trees", np.True_), ("max_features", 1.5),
        ("max_features", "2"), ("max_features", False), ("min_samples_leaf", 1.5),
        ("min_samples_leaf", -np.inf), ("max_depth", np.nan), ("max_depth", 2.5),
        ("max_depth", "3"), ("bootstrap", "no"), ("bootstrap", 1), ("bootstrap", None),
        ("bootstrap", np.True_),
    ])
    def test_bad_config_field_refused(self, field, bad):
        # 2.5, "3" and 1.5 used to escape as TypeError; True, nan and "no" were accepted
        with pytest.raises(ConfigError, match=field):
            ForestConfig(**{field: bad})

    def test_integral_config_values_are_stored_as_int(self):
        cfg = ForestConfig(n_trees=3.0, max_features=np.int64(2), min_samples_leaf=np.float32(2),
                           max_depth=4.0)
        assert [type(v) for v in (cfg.n_trees, cfg.max_features, cfg.min_samples_leaf,
                                  cfg.max_depth)] == [int] * 4
        X, y = linear_benchmark(n=30, seed=2)
        want = fit_forest(X, y, ForestConfig(3, 2, 2, 4), seed=1)
        assert forest_bytes(fit_forest(X, y, cfg, seed=1)) == forest_bytes(want)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.True_, "3", np.nan, np.inf, None])
    def test_bad_seed_refused(self, seed):
        # -1 used to escape from NumPy as ValueError and 1.5 as TypeError
        X, y = linear_benchmark(n=20)
        cfg = ForestConfig(n_trees=2)
        with pytest.raises(ValidationError, match="seed"):
            fit_forest(X, y, cfg, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            cross_validate(X, y, k=2, cfg=cfg, seed=seed)
        model = replace(fit_forest(X, y, cfg, seed=0), seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            oob_r2(model, X, y)

    def test_integral_seed_is_stored_as_int(self):
        # a NumPy integer seed used to reach the model and fail in to_json
        X, y = linear_benchmark(n=20)
        model = fit_forest(X, y, ForestConfig(n_trees=2), seed=np.int64(7))
        assert type(model.seed) is int
        assert forest_bytes(model) == forest_bytes(fit_forest(X, y, ForestConfig(n_trees=2), seed=7))

    @pytest.mark.parametrize("cfg", ["cfg", 3, {"n_trees": 2}])
    def test_config_that_is_not_a_forest_config_refused(self, cfg):
        with pytest.raises(ConfigError, match="cfg"):
            fit_forest(*linear_benchmark(n=20), cfg)

    @pytest.mark.parametrize("X", ["abc", [[1.0, 2.0], [3.0]], [[10**400, 1.0], [2.0, 3.0]]])
    def test_features_that_are_not_numbers_refused(self, X):
        with pytest.raises(ValidationError, match="X"):
            fit_forest(X, [1.0, 2.0])

    @pytest.mark.parametrize("low, high", [(5e-324, 1e-323), (1.5e-323, 2e-323),
                                           (1e308, 1.7e308), (-1.7e308, -1e308)])
    def test_split_between_extreme_neighbours(self, low, high):
        # the mean of the two rounds to `high` or overflows; such a threshold
        # sent every row to one child, which grew forever (or divided by zero)
        X = np.array([[low], [low], [high], [high]])
        model = fit_forest(X, [0.0, 0.0, 1.0, 1.0],
                           ForestConfig(n_trees=1, bootstrap=False, max_depth=4), seed=0)
        tree = model.trees[0]
        assert tree.feature.tolist() == [0, -1, -1]
        assert low <= tree.threshold[0] < high
        assert predict(model, X).tolist() == [0.0, 0.0, 1.0, 1.0]


def forest_bytes(model) -> bytes:
    """Everything a model holds as bytes: config, seed, shape and every tree array."""
    head = repr((vars(model.config), model.seed, model.n_features, model.target_range))
    return head.encode() + b"".join(getattr(t, name).tobytes() for t in model.trees
                                    for name in ("feature", "threshold", "left", "right", "value"))


# Reference: the vectorized NumPy split search.  The list-based search in
# satfuse.forest must grow the same trees from it byte for byte.


def _oracle_best_split(X, y, idx, candidates, min_leaf):
    t = y[idx]
    n = idx.size
    total_sum = t.sum()
    total_sq = (t * t).sum()
    best = None
    for f in candidates:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ts = t[order]
        csum = np.cumsum(ts)
        csq = np.cumsum(ts * ts)
        i = np.arange(min_leaf, n - min_leaf + 1)
        if i.size == 0:
            continue
        legal = vs[i - 1] < vs[i]
        if not legal.any():
            continue
        i = i[legal]
        left_sum = csum[i - 1]
        left_sq = csq[i - 1]
        sse_l = np.maximum(left_sq - left_sum * left_sum / i, 0.0)
        nr = n - i
        right_sum = total_sum - left_sum
        sse_r = np.maximum((total_sq - left_sq) - right_sum * right_sum / nr, 0.0)
        tot = sse_l + sse_r
        k = int(np.argmin(tot))
        thr = 0.5 * (vs[i[k] - 1] + vs[i[k]])
        key = (float(tot[k]), int(f), float(thr))
        if best is None or key < best:
            best = key
    return best


def _oracle_grow_tree(X, y, sample_idx, rng, cfg):
    p = X.shape[1]
    mtry = cfg.max_features if cfg.max_features is not None else math.ceil(p / 3)
    mtry = max(1, min(mtry, p))
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        t = y[idx]
        value[node] = float(t.mean())
        if (
            idx.size < 2 * cfg.min_samples_leaf
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or t.min() == t.max()
        ):
            continue
        candidates = np.sort(rng.choice(p, size=mtry, replace=False))
        split = _oracle_best_split(X, y, idx, candidates, cfg.min_samples_leaf)
        if split is None:
            continue
        _, f, thr = split
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        l_id, r_id = new_node(), new_node()
        left[node] = l_id
        right[node] = r_id
        stack.append((r_id, idx[~go_left], depth + 1))
        stack.append((l_id, idx[go_left], depth + 1))
    return _Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )


def tie_heavy(n=70, p=5, seed=0, decimals=1):
    """Features and targets rounded so that many values tie."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(0, 1, size=(n, p)), decimals)
    y = np.round(2.0 * X[:, 0] - X[:, 2] + 0.3 * rng.standard_normal(n), decimals)
    return X, y


class TestSplitSearchOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("cfg", [
        ForestConfig(n_trees=6, min_samples_leaf=1),
        ForestConfig(n_trees=6, min_samples_leaf=2),
        ForestConfig(n_trees=6, min_samples_leaf=3),
        ForestConfig(n_trees=6, max_depth=4, bootstrap=False),
        ForestConfig(n_trees=6, max_features=1),
        ForestConfig(n_trees=6, max_features=5),
        ForestConfig(n_trees=6, max_features=5, min_samples_leaf=2, bootstrap=False),
    ], ids=["leaf1", "leaf2", "leaf3", "depth4-nobootstrap", "mtry1", "mtry-p",
            "mtry-p-leaf2-nobootstrap"])
    def test_trees_match_numpy_oracle_bytes(self, cfg, seed):
        X, y = tie_heavy(seed=seed, decimals=1 + seed)
        model = fit_forest(X, y, cfg, seed=seed + 3)
        for t, tree in enumerate(model.trees):
            rng, idx = _tree_sample(seed + 3, t, X.shape[0], cfg.bootstrap)
            ref = _oracle_grow_tree(X, y, idx, rng, cfg)
            for name in ("feature", "threshold", "left", "right", "value"):
                assert getattr(tree, name).tobytes() == getattr(ref, name).tobytes(), (t, name)

    def test_constant_target_matches_oracle(self):
        X, _ = tie_heavy(n=30)
        y = np.full(30, 0.7)
        cfg = ForestConfig(n_trees=3)
        model = fit_forest(X, y, cfg, seed=1)
        for t, tree in enumerate(model.trees):
            rng, idx = _tree_sample(1, t, 30, cfg.bootstrap)
            ref = _oracle_grow_tree(X, y, idx, rng, cfg)
            assert tree.value.tobytes() == ref.value.tobytes()
            assert tree.feature.tolist() == ref.feature.tolist() == [-1]

    def test_pinned_json_and_cross_validation(self, tmp_path):
        # recorded with the NumPy split search that the oracle above keeps
        X, y = tie_heavy(n=80, p=6, seed=21)
        model = fit_forest(X, y, ForestConfig(n_trees=25, min_samples_leaf=2), seed=7)
        model.to_json(tmp_path / "forest.json")
        digest = hashlib.sha256((tmp_path / "forest.json").read_bytes()).hexdigest()
        assert digest == "319034b7694b111a1cc53a27cbe6f22ad8bcf6385da5ad280bfb27f4ceefa175"
        report = cross_validate(X, y, k=4, cfg=ForestConfig(n_trees=15), seed=5)
        assert repr(report) == (
            "{'k': 4, 'seed': 5, 'folds': ["
            "{'fold': 0, 'n': 20, 'r2': 0.20779994458298734, 'rmse': 0.43658141661474015}, "
            "{'fold': 1, 'n': 20, 'r2': 0.5506169373403789, 'rmse': 0.4899940160884305}, "
            "{'fold': 2, 'n': 20, 'r2': 0.5336112611083528, 'rmse': 0.5978923888476716}, "
            "{'fold': 3, 'n': 20, 'r2': 0.6795392155381275, 'rmse': 0.28025869883306914}], "
            "'pooled': {'r2': 0.5510107020400788, 'rmse': 0.4654883768821147, 'n': 80}}"
        )


class TestPredict:
    def test_single_tree_equals_leaf_value(self):
        X, y = linear_benchmark(n=30, seed=4)
        model = fit_forest(X, y, ForestConfig(n_trees=1, bootstrap=False, max_features=8), seed=0)
        assert predict(model, X[0]) == pytest.approx(y[0], abs=1e-12)

    def test_bounded_by_training_range(self):
        X, y = linear_benchmark(n=100, seed=5)
        model = fit_forest(X, y, ForestConfig(n_trees=50), seed=1)
        rng = np.random.default_rng(6)
        queries = rng.uniform(-3, 4, size=(200, 8))
        preds = predict(model, queries)
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    def test_matches_independent_traversal_oracle(self):
        X, y = linear_benchmark(n=60, seed=7)
        model = fit_forest(X, y, ForestConfig(n_trees=20), seed=2)
        rng = np.random.default_rng(8)
        q = rng.uniform(size=(10, 8))
        for row in q:
            acc = 0.0
            for tree in model.trees:
                node = 0
                while tree.feature[node] >= 0:
                    if row[tree.feature[node]] <= tree.threshold[node]:
                        node = tree.left[node]
                    else:
                        node = tree.right[node]
                acc += tree.value[node]
            assert predict(model, row) == pytest.approx(acc / len(model.trees), rel=1e-12)

    def test_rows_in_any_order_give_the_same_bytes(self):
        X, y = linear_benchmark(n=500, seed=9)
        model = fit_forest(X, y, ForestConfig(n_trees=20), seed=3)
        p = np.random.default_rng(10).permutation(len(X))
        assert predict(model, X[p]).tobytes() == predict(model, X)[p].tobytes()

    def test_feature_length_mismatch(self):
        X, y = linear_benchmark(n=30)
        model = fit_forest(X, y, ForestConfig(n_trees=3), seed=0)
        with pytest.raises(SchemaError):
            predict(model, np.zeros(5))

    def test_features_not_1d_or_2d_refused(self):
        # a 3-D input used to escape as ValueError, a 0-D one as IndexError
        X, y = linear_benchmark(n=30)
        model = fit_forest(X, y, ForestConfig(n_trees=3), seed=0)
        for bad in (X[None], np.float64(0.5)):
            with pytest.raises(SchemaError, match="1-D or 2-D"):
                predict(model, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused(self, bad):
        # NaN features used to get a prediction
        X, y = linear_benchmark(n=30)
        model = fit_forest(X, y, ForestConfig(n_trees=3), seed=0)
        q = X[:4].copy()
        q[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            predict(model, q)
        with pytest.raises(ValidationError, match="finite"):
            predict(model, q[2])


class TestCrossValidate:
    def test_strong_forest_on_linear_target(self):
        X, y = easy_linear_benchmark(n=300)
        report = cross_validate(X, y, k=5, cfg=ForestConfig(n_trees=200), seed=0)
        assert report["pooled"]["r2"] > 0.95
        assert len(report["folds"]) == 5
        assert sum(f["n"] for f in report["folds"]) == 300

    def test_noise_target_near_zero_r2(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(size=(150, 6))
        y = rng.standard_normal(150)
        report = cross_validate(X, y, k=5, cfg=ForestConfig(n_trees=100), seed=0)
        assert report["pooled"]["r2"] <= 0.1

    def test_deterministic(self):
        X, y = linear_benchmark(n=60, seed=11)
        a = cross_validate(X, y, k=5, cfg=ForestConfig(n_trees=20), seed=3)
        b = cross_validate(X, y, k=5, cfg=ForestConfig(n_trees=20), seed=3)
        assert a == b

    def test_n_trees_stability(self):
        X, y = linear_benchmark(n=150, noise=0.05, seed=12)
        r100 = cross_validate(X, y, k=5, cfg=ForestConfig(n_trees=100), seed=4)
        r500 = cross_validate(X, y, k=5, cfg=ForestConfig(n_trees=500), seed=4)
        assert r500["pooled"]["rmse"] <= 1.02 * r100["pooled"]["rmse"]

    def test_partition_error(self):
        X, y = linear_benchmark(n=4)
        with pytest.raises(PartitionError):
            cross_validate(X, y, k=5)

    @pytest.mark.parametrize("k", [2.5, True, "3", np.nan, None])
    def test_k_that_is_not_an_integer_refused(self, k):
        # 2.5 used to escape as TypeError and True was read as one fold
        X, y = linear_benchmark(n=20)
        with pytest.raises(ValidationError, match="k"):
            cross_validate(X, y, k=k, cfg=ForestConfig(n_trees=2))

    def test_targets_of_another_length_refused(self):
        # a short y used to escape as IndexError
        X, y = linear_benchmark(n=20)
        for bad in (y[:-1], np.append(y, 1.0)):
            with pytest.raises(ValidationError, match="targets"):
                cross_validate(X, bad, k=4, cfg=ForestConfig(n_trees=2))

    def test_permuted_samples_change_folds_not_determinism(self):
        # the seed fixes the shuffle of *positions*, so permuting the sample
        # order changes which samples share a fold; each permuted run is
        # still exactly reproducible
        X, y = linear_benchmark(n=80, seed=14)
        perm = np.random.default_rng(15).permutation(80)
        base = cross_validate(X, y, k=5, cfg=ForestConfig(n_trees=20), seed=6)
        moved_a = cross_validate(X[perm], y[perm], k=5, cfg=ForestConfig(n_trees=20), seed=6)
        moved_b = cross_validate(X[perm], y[perm], k=5, cfg=ForestConfig(n_trees=20), seed=6)
        assert moved_a == moved_b
        assert moved_a != base


def _growers(path):
    """{pid: tree indices in growth order} from the log `_log_growers` writes."""
    grown = {}
    for line in path.read_text().splitlines():
        pid, t = map(int, line.split())
        grown.setdefault(pid, []).append(t)
    return grown


def _log_growers(monkeypatch, path):
    """Append "pid tree-index" to `path` for every tree grown, in any process."""
    sample = forest._tree_sample

    def logged(seed, t, n, bootstrap):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {t}\n".encode())
        finally:
            os.close(fd)
        return sample(seed, t, n, bootstrap)

    monkeypatch.setattr(forest, "_tree_sample", logged)


def _processes(monkeypatch, n):
    """Let fit_forest use `n` processes: `n` usable CPUs and a cap of `n`."""
    monkeypatch.setattr(forest, "_usable_cpus", lambda: n)
    monkeypatch.setattr(forest, "_MAX_PROCESSES", n)


class TestParallelGrowth:
    """fit_forest splits its trees between the caller and forked workers."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_trees", [2, 7])
    def test_trees_are_the_serial_bytes(self, monkeypatch, tmp_path, cpus, n_trees):
        X, y = tie_heavy(n=50, p=5, seed=4)
        cfg = ForestConfig(n_trees=n_trees, min_samples_leaf=2)
        _processes(monkeypatch, 1)
        want = fit_forest(X, y, cfg, seed=11)
        _log_growers(monkeypatch, tmp_path / "grown")
        _processes(monkeypatch, cpus)
        got = fit_forest(X, y, cfg, seed=11)
        assert multiprocessing.active_children() == []
        assert forest_bytes(got) == forest_bytes(want)
        # the caller grows the first contiguous chunk.  Every other chunk is
        # grown whole, in index order, by some worker: the pool may hand two
        # chunks to one worker, so each worker's log is cut into whole chunks
        procs = min(cpus, n_trees)
        chunks = [list(range(n_trees * i // procs, n_trees * (i + 1) // procs))
                  for i in range(procs)]
        chunk_of = {t: chunk for chunk in chunks for t in chunk}
        grown = _growers(tmp_path / "grown")
        assert grown.pop(os.getpid()) == chunks[0]
        pieces = []
        for trees in grown.values():
            while trees:
                chunk = chunk_of[trees[0]]
                assert trees[: len(chunk)] == chunk
                pieces.append(chunk)
                trees = trees[len(chunk) :]
        assert sorted(pieces) == chunks[1:]

    def test_at_most_two_processes(self, monkeypatch, tmp_path):
        monkeypatch.setattr(forest, "_usable_cpus", lambda: 3)
        _log_growers(monkeypatch, tmp_path / "grown")
        fit_forest(*linear_benchmark(n=30), ForestConfig(n_trees=7), seed=0)
        grown = _growers(tmp_path / "grown")
        assert grown.pop(os.getpid()) == [0, 1, 2]
        assert list(grown.values()) == [[3, 4, 5, 6]]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n_trees", [2, 7])
    def test_cross_validation_is_the_serial_result(self, monkeypatch, cpus, n_trees):
        X, y = tie_heavy(n=60, p=6, seed=5)
        cfg = ForestConfig(n_trees=n_trees)
        _processes(monkeypatch, 1)
        want = cross_validate(X, y, k=4, cfg=cfg, seed=3)
        _processes(monkeypatch, cpus)
        assert repr(cross_validate(X, y, k=4, cfg=cfg, seed=3)) == repr(want)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_error_in_a_chunk_reaches_the_caller(self, monkeypatch, cpus, where):
        caller = os.getpid()
        grow = forest._grow_tree

        def failing(*args):
            if (os.getpid() == caller) == (where == "caller"):
                raise CoverageError(f"no tree in the {where}")
            return grow(*args)

        monkeypatch.setattr(forest, "_grow_tree", failing)
        _processes(monkeypatch, cpus)
        with pytest.raises(CoverageError, match=f"no tree in the {where}"):
            fit_forest(*linear_benchmark(n=30), ForestConfig(n_trees=6), seed=0)
        assert multiprocessing.active_children() == []

    def test_parallel_path_emits_no_warning(self, monkeypatch):
        monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
        X, y = linear_benchmark(n=40, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_forest(X, y, ForestConfig(n_trees=4), seed=2)
            cross_validate(X, y, k=3, cfg=ForestConfig(n_trees=4), seed=2)
            predict(model, X)
        assert multiprocessing.active_children() == []

    def test_fork_warning_of_newer_pythons_is_silenced(self, monkeypatch):
        # CPython 3.12+ warns like this at a fork while a native thread runs
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                              "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        X, y = linear_benchmark(n=30, seed=6)
        cfg = ForestConfig(n_trees=6)
        want = fit_forest(X, y, cfg, seed=2)
        monkeypatch.setattr(os, "fork", warning_fork)
        _processes(monkeypatch, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_forest(X, y, cfg, seed=2)
        assert forest_bytes(got) == forest_bytes(want)
        assert multiprocessing.active_children() == []

    def test_serial_while_another_thread_runs(self, monkeypatch, tmp_path):
        _processes(monkeypatch, 2)
        _log_growers(monkeypatch, tmp_path / "grown")
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            fit_forest(*linear_benchmark(n=30), ForestConfig(n_trees=4), seed=0)
        finally:
            stop.set()
            other.join()
        assert _growers(tmp_path / "grown") == {os.getpid(): [0, 1, 2, 3]}

    def test_serial_without_the_fork_start_method(self, monkeypatch, tmp_path):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
        _log_growers(monkeypatch, tmp_path / "grown")
        fit_forest(*linear_benchmark(n=30), ForestConfig(n_trees=4), seed=0)
        assert _growers(tmp_path / "grown") == {os.getpid(): [0, 1, 2, 3]}

    def test_serial_inside_a_pool_worker(self, monkeypatch):
        # a daemonic multiprocessing.Pool worker may not start children
        monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
        X, y = linear_benchmark(n=30, seed=8)
        cfg = ForestConfig(n_trees=4)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            got = pool.apply(fit_forest, (X, y, cfg, 3))
        finally:
            pool.close()
            pool.join()
        assert forest_bytes(got) == forest_bytes(fit_forest(X, y, cfg, seed=3))


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        # ids and band names with commas, quotes, newlines and non-ASCII
        # text; subnormal, huge, close and negative-zero numbers
        ids = ["q0", "a,b", 'say "hi"', "two\nlines", "ñandú 草地"]
        quadrats = [Quadrat(q, 1.0 + i, 2.0, 0.5) for i, q in enumerate(ids)]
        quadrats[1] = Quadrat(ids[1], -0.0, 1.7976931348623157e308, 5e-324)
        targets = np.array([1.5, 2.5, -0.0, 1000.121, 1000.124])
        feats = np.random.default_rng(0).uniform(size=(5, 3))
        feats[:, 0] = [5e-324, -1e300, 0.1 + 0.2, -0.0, 2.2250738585072014e-308]
        names = ["B2", "B,3", 'B"4\n']
        p = tmp_path / "samples.csv"
        save_samples_csv(p, quadrats, targets, feats, names)
        q2, t2, f2, names2 = load_samples_csv(p)
        assert q2 == quadrats and names2 == names
        assert [(q.x.hex(), q.y.hex(), q.side.hex()) for q in q2] == [
            (q.x.hex(), q.y.hex(), q.side.hex()) for q in quadrats]
        assert t2.tobytes() == targets.tobytes()
        assert f2.tobytes() == feats.tobytes()

    @pytest.mark.parametrize("quadrats, targets, names, match", [
        (None, [1.0], ["b"], "quadrats must be"),
        (["q"], [1.0], ["b"], "quadrats must be"),
        ([Quadrat("q", 1.0, 1.0)], None, ["b"], "targets must be"),
        ([Quadrat("q", 1.0, 1.0)], [np.nan], ["b"], "targets must be"),
        ([Quadrat("q", 1.0, 1.0)], [1.0, 2.0], ["b"], "2 targets for 1 quadrats"),
        ([Quadrat("q", 1.0, 1.0)], [1.0], [7], "band_names must be"),
    ])
    def test_bad_argument_refused_before_the_file_is_opened(self, tmp_path, quadrats, targets,
                                                            names, match):
        p = tmp_path / "samples.csv"
        with pytest.raises(ValidationError, match=match):
            save_samples_csv(p, quadrats, targets, np.ones((1, 1)), names)
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused_before_the_file_is_opened(self, tmp_path, bad):
        # load_samples_csv refuses a file holding one, so none is written
        p = tmp_path / "samples.csv"
        with pytest.raises(ValidationError, match="features must be"):
            save_samples_csv(p, [Quadrat("q", 1.0, 1.0)], [1.0], np.array([[bad]]), ["b"])
        assert not p.exists()

    def test_model_json_round_trip(self, tmp_path):
        X, y = linear_benchmark(n=50, seed=13)
        model = fit_forest(X, y, ForestConfig(n_trees=10), seed=5)
        p = tmp_path / "forest.json"
        model.to_json(p)
        back = ForestModel.from_json(p)
        q = np.random.default_rng(1).uniform(size=(20, 8))
        assert np.array_equal(predict(model, q), predict(back, q))
        assert forest_bytes(back) == forest_bytes(model)

    @pytest.mark.parametrize("field, value", [("seed", 2.9), ("n_features", 7.5),
                                              ("seed", True), ("n_features", "8")])
    def test_model_json_integer_fields(self, tmp_path, field, value):
        """Integer fields are read as written, never truncated; a digit string is an integer."""
        model = fit_forest(*linear_benchmark(n=30, seed=2), ForestConfig(n_trees=2), seed=5)
        p = tmp_path / "forest.json"
        model.to_json(p)
        p.write_text(json.dumps(dict(json.loads(p.read_text()), **{field: value})))
        if isinstance(value, str):
            assert getattr(ForestModel.from_json(p), field) == int(value)
        else:
            with pytest.raises(FormatError, match="integer"):
                ForestModel.from_json(p)

    def test_model_json_config_integers_may_be_digit_strings(self, tmp_path):
        """The config's integer fields follow the same rule as seed and n_features."""
        model = fit_forest(*linear_benchmark(n=30, seed=2), ForestConfig(n_trees=2), seed=5)
        p = tmp_path / "forest.json"
        model.to_json(p)
        doc = json.loads(p.read_text())
        doc["config"].update(n_trees="2", max_depth="4", min_samples_leaf=1.0)
        p.write_text(json.dumps(doc))
        config = ForestModel.from_json(p).config
        assert (config.n_trees, config.max_depth, config.min_samples_leaf) == (2, 4, 1)
        assert all(type(v) is int for v in (config.n_trees, config.max_depth, config.min_samples_leaf))

    @pytest.mark.parametrize("field, value", [("n_trees", 2.5), ("n_trees", "3.5"),
                                              ("max_depth", "deep"), ("max_features", [2]),
                                              ("n_trees", 0), ("bootstrap", "no"),
                                              ("min_samples_leaf", True)])
    def test_model_json_bad_config_field(self, tmp_path, field, value):
        model = fit_forest(*linear_benchmark(n=30, seed=2), ForestConfig(n_trees=2), seed=5)
        p = tmp_path / "forest.json"
        model.to_json(p)
        doc = json.loads(p.read_text())
        doc["config"][field] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(SatfuseError, match=field):
            ForestModel.from_json(p)

    def test_model_json_without_trees_is_format_error(self, tmp_path):
        p = tmp_path / "forest.json"
        p.write_text("{}")
        with pytest.raises(FormatError, match="trees"):
            ForestModel.from_json(p)


def _leaf_and_inner(tree: dict) -> tuple[int, int]:
    """The index of the first leaf and of the first internal node of a tree's JSON."""
    return tree["feature"].index(-1), next(i for i, f in enumerate(tree["feature"]) if f >= 0)


def _self_loop(doc):
    _, inner = _leaf_and_inner(doc["trees"][0])
    doc["trees"][0]["left"][inner] = doc["trees"][0]["right"][inner] = inner


def _child_out_of_range(doc):
    _, inner = _leaf_and_inner(doc["trees"][1])
    doc["trees"][1]["right"][inner] = len(doc["trees"][1]["feature"])


def _child_before_parent(doc):
    tree = doc["trees"][0]
    inner = max(i for i, f in enumerate(tree["feature"]) if f >= 0)
    tree["left"][inner] = 0


def _leaf_with_a_child(doc):
    leaf, _ = _leaf_and_inner(doc["trees"][0])
    doc["trees"][0]["left"][leaf] = len(doc["trees"][0]["feature"]) - 1


def _set_feature(value):
    def mutate(doc):
        _, inner = _leaf_and_inner(doc["trees"][0])
        doc["trees"][0]["feature"][inner] = value
    return mutate


def _tree_field(name, change):
    def mutate(doc):
        doc["trees"][1][name] = change(doc["trees"][1][name])
    return mutate


class TestModelJsonRefusesUnwalkableTrees:
    """`from_json` refuses a forest that `predict` could not walk to a leaf of
    every tree, or that would predict NaN, with a FormatError naming the file:
    such a file used to make `predict` loop forever (a node that is its own
    child), raise a bare IndexError or return NaN.  Each case calls only
    `from_json`."""

    @pytest.fixture(scope="class")
    def doc(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("forest") / "forest.json"
        fit_forest(*linear_benchmark(n=40, seed=3), ForestConfig(n_trees=2), seed=4).to_json(p)
        return json.loads(p.read_text())

    @pytest.mark.parametrize("mutate, message", [
        # the five arrays are 1-D, of one length >= 1
        pytest.param(_tree_field("value", lambda v: v[:-1]), "1-D, of one length",
                     id="value-short"),
        pytest.param(_tree_field("feature", lambda v: [v]), "1-D, of one length",
                     id="feature-2d"),
        pytest.param(lambda doc: doc["trees"][0].update({name: [] for name in doc["trees"][0]}),
                     "1-D, of one length", id="no-nodes"),
        # a feature is -1 or in [0, n_features)
        pytest.param(_set_feature(8), r"feature must be -1 or in \[0, 8\)", id="feature-past-n"),
        pytest.param(_set_feature(-2), r"feature must be -1 or in \[0, 8\)", id="feature-negative"),
        # a leaf has both children -1
        pytest.param(_leaf_with_a_child, "leaf", id="leaf-with-child"),
        # an internal node's children come after it and before the node count
        pytest.param(_self_loop, "children must come after it", id="self-loop"),
        pytest.param(_child_before_parent, "children must come after it", id="child-first"),
        pytest.param(_child_out_of_range, "children must come after it", id="child-past-n"),
        # thresholds and values are finite
        pytest.param(_tree_field("threshold", lambda v: [math.nan] + v[1:]), "finite",
                     id="threshold-nan"),
        pytest.param(_tree_field("value", lambda v: v[:-1] + [math.inf]), "finite",
                     id="value-inf"),
        # target_range is two finite numbers
        pytest.param(lambda doc: doc.update(target_range=[0.0]), "target_range must be two",
                     id="range-one"),
        pytest.param(lambda doc: doc.update(target_range=[0.0, 1.0, 2.0]),
                     "target_range must be two", id="range-three"),
        pytest.param(lambda doc: doc.update(target_range=[0.0, math.inf]), "not a finite number",
                     id="range-inf"),
        # at least one tree, and as many as the config says
        pytest.param(lambda doc: doc.update(trees=[]), "0 trees where the config has n_trees 2",
                     id="no-trees"),
        pytest.param(lambda doc: doc.update(trees=doc["trees"][:1]),
                     "1 trees where the config has n_trees 2", id="too-few-trees"),
    ])
    def test_refused_with_a_format_error_naming_the_file(self, doc, tmp_path, mutate, message):
        doc = json.loads(json.dumps(doc))
        mutate(doc)
        p = tmp_path / "forest.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message) as err:
            ForestModel.from_json(p)
        assert str(p) in str(err.value)
