"""Quadrat feature extraction and random-forest regression.

Features are per-band mean reflectance over the pixels whose centers fall
inside each field quadrat (a small axis-aligned square).  The forest is
standard bagged CART regression: bootstrap resample per tree, splits minimize
the summed child squared error over ceil(p/3) candidate features drawn per
node from the tree's own seeded stream, leaves hold target means.  All
randomness derives from (seed, tree_index), so fits are reproducible and
trees may be grown in parallel without changing the result.

`fit_forest` grows its trees on c processes, where c is the smallest of
the CPUs this process may run on (`os.sched_getaffinity`; one where the OS
cannot say), the number of trees, and two, the most that has been measured
to pay off.  The tree indices are cut into c contiguous chunks; the calling
process grows the first chunk itself while c - 1 forked worker processes
grow the others, and the trees are put back in index order, so the model,
its JSON and every prediction are the same bytes for any c.  Growth stays
serial, with no worker, when c is 1, when the `fork` start method is
missing, when the caller is a daemonic process (a `multiprocessing.Pool`
worker), which may not start children, or when another Python thread is
running, since a forked child could inherit a lock that thread holds.  The
workers are joined before `fit_forest` returns or raises, and a worker's
exception is raised in the caller.  Arguments are checked in the caller
before any worker starts.

Split search is plain Python over lists.  A median split node holds about 5
rows, so per-call cost outweighs arithmetic: a vectorized search makes about
120 NumPy calls per split node and fits about 2.5x slower.  Each tree turns
its sample into per-feature column lists once; a node is the ascending list
of its positions in that sample.  For every candidate feature the node's rows
are ordered with a stable `sorted`, which gives the order of a stable
argsort, and the legal cut points are walked once with running sums that add
in the order `np.cumsum` does.  A node's target sum and sum of squares stay
NumPy reductions over its targets in row order: NumPy adds them pairwise,
not left to right, and a Python sum would change the last bits of leaf
values and split scores and so the trees.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (COUNT, FINITE, INDEX, INTEGER, PATH, POSITIVE, ConfigError, CoverageError,
                     FormatError, PartitionError, SchemaError, ValidationError, array,
                     check_fields, finite, instance, instances, integer, parameter,
                     parse_errors, read_csv, read_json)
from .raster import Raster, _require_raster

__all__ = [
    "Quadrat",
    "ForestConfig",
    "ForestModel",
    "extract_quadrat_features",
    "fit_forest",
    "predict",
    "oob_r2",
    "cross_validate",
    "QUADRAT_COLUMNS",
    "load_quadrats_csv",
    "save_samples_csv",
    "load_samples_csv",
]

_EPS = 1e-9


@dataclass(frozen=True)
class Quadrat:
    """Axis-aligned sampling square: center coordinates and side length (m)."""

    id: str
    x: float
    y: float
    side: float = 0.5

    def __post_init__(self):
        x, y, side = self.x, self.y, self.side
        # a text id and plain finite floats skip the general check: a map
        # lattice builds thousands
        if type(self.id) is str and type(x) is type(y) is type(side) is float and (
                math.isfinite(x) and math.isfinite(y) and 0 < side < math.inf):
            return
        instance("quadrat id", self.id, str, ValidationError)
        for name, rule in (("x", FINITE), ("y", FINITE), ("side", POSITIVE)):
            value = parameter(f"quadrat {self.id!r} {name}", getattr(self, name), *rule,
                              ValidationError)
            object.__setattr__(self, name, value)


def extract_quadrat_features(r: Raster, quadrats: list[Quadrat]) -> np.ndarray:
    """Per-band mean over valid pixels whose centers lie inside each quadrat.

    Returns an array of shape (len(quadrats), n_bands).  Quadrats containing
    no valid pixel are collected and reported together in a CoverageError.
    """
    _require_raster("r", r)
    quadrats = instances("quadrats", quadrats, Quadrat, ValidationError)
    g = r.grid
    vals = r.values.astype(np.float64)
    feats = np.empty((len(quadrats), r.n_bands))
    empty = []
    for qi, q in enumerate(quadrats):
        half = q.side / 2.0
        # pixel centers: x = origin_x + (j + 0.5) pw, y = origin_y - (i + 0.5) ph
        j0 = math.ceil((q.x - half - g.origin_x) / g.pixel_w - 0.5 - _EPS)
        j1 = math.ceil((q.x + half - g.origin_x) / g.pixel_w - 0.5 - _EPS) - 1
        i0 = math.ceil((g.origin_y - q.y - half) / g.pixel_h - 0.5 - _EPS)
        i1 = math.ceil((g.origin_y - q.y + half) / g.pixel_h - 0.5 - _EPS) - 1
        j0, j1 = max(j0, 0), min(j1, g.width - 1)
        i0, i1 = max(i0, 0), min(i1, g.height - 1)
        if j1 < j0 or i1 < i0:
            empty.append(q.id)
            continue
        m = r.mask[i0 : i1 + 1, j0 : j1 + 1]
        if not m.any():
            empty.append(q.id)
            continue
        block = vals[:, i0 : i1 + 1, j0 : j1 + 1]
        feats[qi] = block[:, m].mean(axis=1)
    if empty:
        raise CoverageError(f"quadrats with no valid pixel: {', '.join(empty)}")
    return feats


# ---------------------------------------------------------------------------
# CART regression trees


# ForestConfig's integer fields and their rules
_INTEGER_FIELDS = (("n_trees", COUNT), ("max_features", COUNT), ("min_samples_leaf", COUNT),
                   ("max_depth", INDEX))


@dataclass
class ForestConfig:
    n_trees: int = 500
    max_features: int | None = None   # default ceil(p / 3)
    min_samples_leaf: int = 1
    max_depth: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        """Store every integer field as an `int`; a ConfigError names a bad field."""
        check_fields(self, ConfigError, *_INTEGER_FIELDS)
        instance("bootstrap", self.bootstrap, bool, ConfigError, "True or False")


@dataclass
class _Tree:
    feature: np.ndarray     # split feature per node, -1 for leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray       # leaf mean (also stored for internal nodes)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            f = self.feature[node]
            active = f >= 0
            if not active.any():
                return self.value[node]
            rows = np.flatnonzero(active)
            go_left = X[rows, f[rows]] <= self.threshold[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]], self.right[node[rows]])


# a tree's arrays, in the order its JSON lists them, each with the dtype it is
# read back as; None keeps NumPy's own choice, float64 for the floats written
_TREE_ARRAYS = (("feature", np.int64), ("threshold", None), ("left", np.int64),
                ("right", np.int64), ("value", None))


def _check_tree(i: int, tree: _Tree, n_features: int) -> None:
    """Refuse with a ValueError a tree read from a file that `predict` could not
    walk to a leaf.  As `_grow_tree` numbers them, an internal node's children
    come after it, so every walk ends; a leaf has feature -1 and no children."""
    arrays = [getattr(tree, name) for name, _ in _TREE_ARRAYS]
    n = len(tree.feature)
    if n < 1 or any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ValueError(f"tree {i}: its five arrays must be 1-D, of one length >= 1")
    f = tree.feature
    leaf = f == -1
    if not (leaf | ((f >= 0) & (f < n_features))).all():
        raise ValueError(f"tree {i}: a feature must be -1 or in [0, {n_features})")
    if (tree.left[leaf] != -1).any() or (tree.right[leaf] != -1).any():
        raise ValueError(f"tree {i}: a leaf (feature -1) must have both children -1")
    inner = np.flatnonzero(~leaf)
    children = np.stack([tree.left[inner], tree.right[inner]])
    if not ((children > inner) & (children < n)).all():
        raise ValueError(f"tree {i}: an internal node's children must come after it "
                         f"and before node {n}")
    if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
        raise ValueError(f"tree {i}: every threshold and value must be finite")


def _midpoint(a: float, b: float) -> float:
    """The threshold between feature values a < b: their mean, or `a` where the
    mean rounds to `b` (adjacent subnormals) or overflows, so that `a` goes
    left and `b` right."""
    mean = 0.5 * (a + b)
    return mean if a <= mean < b else a


def _best_split(cols, yl, rows, total_sum, total_sq, candidates, min_leaf):
    """Lowest summed-child-SSE split of a node's `rows` over the candidate features.

    `cols[f]` and `yl` are the tree's feature columns and targets as lists,
    indexed by position in the tree's sample; `rows` lists the node's
    positions in ascending order.  Ties break toward the lowest feature
    index, then the lowest threshold.  Returns (sse, feature, threshold) or
    None when no legal split exists.
    """
    n = len(rows)
    best = None
    for f in candidates:
        col = cols[f]
        order = sorted(rows, key=col.__getitem__)
        vs = [col[r] for r in order]
        left_sum = left_sq = 0.0
        best_tot = None
        for i in range(1, n - min_leaf + 1):  # i rows go left
            t = yl[order[i - 1]]
            left_sum += t
            left_sq += t * t
            if i < min_leaf or not vs[i - 1] < vs[i]:
                continue
            sse_l = left_sq - left_sum * left_sum / i
            if sse_l < 0.0:
                sse_l = 0.0
            right_sum = total_sum - left_sum
            sse_r = (total_sq - left_sq) - right_sum * right_sum / (n - i)
            if sse_r < 0.0:
                sse_r = 0.0
            tot = sse_l + sse_r
            if best_tot is None or tot < best_tot:
                best_tot, best_i = tot, i
        if best_tot is None:
            continue
        key = (best_tot, f, _midpoint(vs[best_i - 1], vs[best_i]))
        if best is None or key < best:
            best = key
    return best


def _grow_tree(X, y, sample_idx, rng, cfg: ForestConfig) -> _Tree:
    p = X.shape[1]
    mtry = cfg.max_features if cfg.max_features is not None else math.ceil(p / 3)
    mtry = max(1, min(mtry, p))
    min_leaf = cfg.min_samples_leaf
    cols = X[sample_idx].T.tolist()
    y_tree = y[sample_idx]
    yl = y_tree.tolist()
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), list(range(len(yl))), 0)]
    while stack:
        node, rows, depth = stack.pop()
        n = len(rows)
        t = y_tree[rows]
        # the ufunc reductions are t.sum(), t.min() and t.max() without their Python wrappers
        total_sum = float(np.add.reduce(t))
        value[node] = total_sum / n
        if (
            n < 2 * min_leaf
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or np.minimum.reduce(t) == np.maximum.reduce(t)
        ):
            continue
        candidates = np.sort(rng.choice(p, size=mtry, replace=False)).tolist()
        total_sq = float(np.add.reduce(t * t))
        split = _best_split(cols, yl, rows, total_sum, total_sq, candidates, min_leaf)
        if split is None:
            continue
        _, f, thr = split
        col = cols[f]
        feature[node] = f
        threshold[node] = thr
        l_id, r_id = new_node(), new_node()
        left[node] = l_id
        right[node] = r_id
        # right pushed first so the left child is processed (and numbered) next
        stack.append((r_id, [r for r in rows if col[r] > thr], depth + 1))
        stack.append((l_id, [r for r in rows if col[r] <= thr], depth + 1))
    return _Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )


@dataclass
class ForestModel:
    trees: list[_Tree]
    config: ForestConfig
    seed: int
    n_features: int
    target_range: tuple[float, float]

    def to_json(self, path) -> None:
        path = parameter("path", path, *PATH, ValidationError)
        doc = {
            "seed": self.seed,
            "n_features": self.n_features,
            "target_range": list(self.target_range),
            "config": asdict(self.config),
            "trees": [{name: getattr(t, name).tolist() for name, _ in _TREE_ARRAYS}
                      for t in self.trees],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def from_json(cls, path) -> "ForestModel":
        doc = read_json(path)
        with parse_errors(path):
            trees = [_Tree(**{name: np.array(t[name], dtype=dtype)
                              for name, dtype in _TREE_ARRAYS}) for t in doc["trees"]]
            config = {**doc["config"]}
            # a digit string is an integer here, as in the seed and n_features fields
            for name, _ in _INTEGER_FIELDS:
                if config.get(name) is not None:
                    try:
                        config[name] = integer(config[name])
                    except (TypeError, ValueError) as exc:
                        raise ValueError(f"config field {name}: {exc}") from None
            config = ForestConfig(**config)
            n_features = integer(doc["n_features"])
            if not trees or len(trees) != config.n_trees:
                raise ValueError(f"{len(trees)} trees where the config has n_trees "
                                 f"{config.n_trees}")
            for i, tree in enumerate(trees):
                _check_tree(i, tree, n_features)
            target_range = tuple(finite(v) for v in doc["target_range"])
            if len(target_range) != 2:
                raise ValueError(f"target_range must be two numbers, got {len(target_range)}")
            return cls(trees, config, integer(doc["seed"]), n_features, target_range)


def fit_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig | None = None, seed: int = 0) -> ForestModel:
    """Fit a bagged CART regression forest; deterministic under `seed`.

    The trees are grown on every usable CPU (see the module docstring); the
    result does not depend on how many there are.
    """
    X, y = _samples(X, y)
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise ValidationError("need at least 2 samples and one feature")
    if cfg is None:
        cfg = ForestConfig()
    instance("cfg", cfg, ForestConfig, ConfigError, "a ForestConfig or None")
    seed = _seed(seed)
    trees = _grow_trees(X, y, cfg, seed)
    return ForestModel(trees, cfg, seed, X.shape[1], (float(y.min()), float(y.max())))


def _samples(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Features `X` (2-D) and one target per row (`y`, raveled), all finite, as float64."""
    X = array("X", X, ValidationError, ndim=2, finite=True)
    y = array("y", y, ValidationError, finite=True).ravel()
    if y.shape[0] != X.shape[0]:
        raise ValidationError(f"{y.shape[0]} targets for {X.shape[0]} rows")
    return X, y


def _seed(seed) -> int:
    return parameter("seed", seed, *INDEX, ValidationError)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (1 where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _grow_chunk(X, y, cfg: ForestConfig, seed: int, first: int, stop: int) -> list[_Tree]:
    """Trees `first` to `stop - 1`, each from its own (seed, index) stream."""
    trees = []
    for t in range(first, stop):
        rng, idx = _tree_sample(seed, t, X.shape[0], cfg.bootstrap)
        trees.append(_grow_tree(X, y, idx, rng, cfg))
    return trees


# The most processes, the caller included, that grow one forest.  Two were
# measured to pay off, on a 2-vCPU host; more have not been measured.
_MAX_PROCESSES = 2

# CPython 3.12 and later warn at each os.fork in a process that runs more than
# one thread.
_FORK_WARNING = r"This process .*is multi-threaded, use of fork\(\) may lead to deadlocks"


def _grow_trees(X, y, cfg: ForestConfig, seed: int) -> list[_Tree]:
    """Every tree of the forest, in index order, grown by the caller and forked workers."""
    n_procs = min(_usable_cpus(), cfg.n_trees, _MAX_PROCESSES)
    if n_procs < 2:
        return _grow_chunk(X, y, cfg, seed, 0, cfg.n_trees)
    import multiprocessing
    import threading
    # a daemonic process (a multiprocessing.Pool worker) may not start children,
    # and a child forked while another Python thread runs may inherit a lock
    # that thread held (a stream's, say), which nothing would release
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return _grow_chunk(X, y, cfg, seed, 0, cfg.n_trees)
    import warnings
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import NumPy and satfuse afresh,
    # which costs more than a typical fit
    edges = [cfg.n_trees * i // n_procs for i in range(n_procs + 1)]
    with ProcessPoolExecutor(n_procs - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        # A fork pool forks all its workers in the first submit, from this
        # thread.  Any other thread is a native one that never enters Python,
        # such as a BLAS worker (the bundled OpenBLAS stops its own before a
        # fork; other builds may not).  A worker runs only `_grow_chunk` and
        # the pool's queues, which were made here, so it takes no lock such a
        # thread holds, and the warning about it is silenced for the submits.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            futures = [pool.submit(_grow_chunk, X, y, cfg, seed, edges[i], edges[i + 1])
                       for i in range(1, n_procs)]
        trees = _grow_chunk(X, y, cfg, seed, edges[0], edges[1])
        for future in futures:
            trees.extend(future.result())
    return trees


def _tree_sample(seed: int, t: int, n: int, bootstrap: bool):
    """Tree `t`'s generator and its sorted training rows, drawn first from it."""
    rng = np.random.default_rng([seed, t])
    return rng, (np.sort(rng.integers(0, n, size=n)) if bootstrap else np.arange(n))


def predict(model: ForestModel, features: np.ndarray) -> float | np.ndarray:
    """Mean over tree predictions; a 1-D input returns a scalar."""
    instance("model", model, ForestModel, ConfigError)
    X = array("features", features, ValidationError, finite=True)
    if X.ndim not in (1, 2):
        raise SchemaError(f"features must be 1-D or 2-D, got {X.ndim}-D")
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != model.n_features:
        raise SchemaError(
            f"feature length {X.shape[1]} does not match model ({model.n_features})"
        )
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += tree.predict(X)
    acc /= len(model.trees)
    return float(acc[0]) if single else acc


def oob_r2(model: ForestModel, X: np.ndarray, y: np.ndarray) -> float:
    """Out-of-bag R^2 on the training data the model was fitted with.

    Each tree's bootstrap draw is regenerated from the model seed exactly as
    `fit_forest` drew it, so a model read back from JSON gives the same value.
    """
    instance("model", model, ForestModel, ConfigError)
    X, y = _samples(X, y)
    if X.shape[1] != model.n_features:
        raise SchemaError(f"features must have {model.n_features} columns, got {X.shape[1]}")
    n = X.shape[0]
    seed = _seed(model.seed)
    acc = np.zeros(n)
    cnt = np.zeros(n)
    for t, tree in enumerate(model.trees):
        oob = np.ones(n, dtype=bool)
        oob[_tree_sample(seed, t, n, model.config.bootstrap)[1]] = False
        if not oob.any():
            continue
        acc[oob] += tree.predict(X[oob])
        cnt[oob] += 1
    covered = cnt > 0
    if not covered.any():
        raise ValidationError("no row is out of bag for any tree")
    return _r2(y[covered], acc[covered] / cnt[covered])


def _r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    resid = y_true - y_pred
    tot = y_true - y_true.mean()
    ss_tot = float(tot @ tot)
    if ss_tot == 0.0:
        return 0.0
    return float(1.0 - (resid @ resid) / ss_tot)


def _rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.sqrt(np.mean((y_pred - y_true) ** 2)))


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    cfg: ForestConfig | None = None,
    seed: int = 0,
) -> dict:
    """Seeded shuffle, contiguous k-way split, one forest per fold.

    Per-fold R^2 uses the held-out mean; pooled metrics concatenate the
    held-out predictions of all folds.
    """
    X, y = _samples(X, y)
    n = X.shape[0]
    k = parameter("k", k, *INTEGER, ValidationError)
    seed = _seed(seed)
    if k < 2 or k > n:
        raise PartitionError(f"cannot split {n} samples into {k} folds")
    rng = np.random.default_rng([seed, 0])
    order = rng.permutation(n)
    parts = np.array_split(order, k)

    folds = []
    pooled_true = []
    pooled_pred = []
    for fi, held in enumerate(parts):
        train_idx = np.concatenate([parts[j] for j in range(k) if j != fi])
        fold_seed = int(np.random.SeedSequence([seed, fi + 1]).generate_state(1)[0])
        model = fit_forest(X[train_idx], y[train_idx], cfg, seed=fold_seed)
        pred = predict(model, X[held])
        folds.append({"fold": fi, "n": int(held.size), "r2": _r2(y[held], pred),
                      "rmse": _rmse(y[held], pred)})
        pooled_true.append(y[held])
        pooled_pred.append(pred)
    yt = np.concatenate(pooled_true)
    yp = np.concatenate(pooled_pred)
    pooled = {
        "r2": _r2(yt, yp),
        "rmse": _rmse(yt, yp),
        "n": int(yt.size),
    }
    return {"k": k, "seed": seed, "folds": folds, "pooled": pooled}


# ---------------------------------------------------------------------------
# quadrat CSV: each quadrat's id (text), center and side (m) and field target;
# a samples CSV adds one column per band
QUADRAT_COLUMNS = ("id", "x_m", "y_m", "side_m", "target")


def load_quadrats_csv(path):
    """Returns (quadrats, targets, band_names, features): every column other
    than `QUADRAT_COLUMNS` is a band column, in file order."""
    header, rows = read_csv(path, QUADRAT_COLUMNS, text=QUADRAT_COLUMNS[0])
    band_names = [col for col in header if col not in QUADRAT_COLUMNS]
    quadrats, targets = [], []
    for row in rows:
        ident, x, y, side, target = (row[col] for col in QUADRAT_COLUMNS)
        quadrats.append(Quadrat(ident, x, y, side))
        targets.append(target)
    features = np.array([[row[band] for band in band_names] for row in rows])
    return quadrats, np.array(targets), band_names, features


def save_samples_csv(path, quadrats, targets, features, band_names) -> None:
    """Write a samples CSV: one row per quadrat, its finite target and its
    finite band values; every argument is checked before the file is opened."""
    path = parameter("path", path, *PATH, ValidationError)
    quadrats = instances("quadrats", quadrats, Quadrat, ValidationError)
    targets = array("targets", targets, ValidationError, ndim=1, finite=True)
    if len(targets) != len(quadrats):
        raise ValidationError(f"{len(targets)} targets for {len(quadrats)} quadrats")
    features = array("features", features, ValidationError, ndim=2, finite=True)
    band_names = instances("band_names", band_names, str, ValidationError)
    if features.shape != (len(quadrats), len(band_names)):
        raise ValidationError("features shape must be (n_quadrats, n_bands)")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(QUADRAT_COLUMNS) + list(band_names))
        for q, t, row in zip(quadrats, targets, features):
            writer.writerow(
                [q.id, repr(float(q.x)), repr(float(q.y)), repr(float(q.side)), repr(float(t))]
                + [repr(float(v)) for v in row]
            )


def load_samples_csv(path):
    """Returns (quadrats, targets, features, band_names)."""
    quadrats, targets, band_names, features = load_quadrats_csv(path)
    if not band_names:
        raise FormatError(f"{path}: a samples CSV needs at least one band column")
    return quadrats, targets, features, band_names
