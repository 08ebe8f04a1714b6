"""Seeded fuzz of the public library functions, called directly.

`test_fuzz.py` drives the file readers through the command line; this file
calls the library.  For each function a valid call is built, and each case
replaces one or two of its arguments with malformed values: scalars (zero,
negative, fractional, NaN, the infinities, Python and NumPy booleans, a digit
string, None, a huge integer) and arrays (empty, wrong rank, one row short,
one column, NaN- or infinity-filled, text).  A seeded generator draws the
data, where a non-finite value lands and which arguments a paired case
mutates.  Every call must return or raise a `SatfuseError`, and no warning
may fire.

So far this covers the forest: `ForestConfig`, `fit_forest`,
`cross_validate`, `predict` and `oob_r2`.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from satfuse.errors import SatfuseError
from satfuse.forest import ForestConfig, cross_validate, fit_forest, oob_r2, predict

SEED = 2026
PAIRED_CASES = 40
N_ROWS, N_FEATURES = 24, 4

SCALARS = {
    "zero": 0, "negative": -1, "fraction": 2.5, "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
    "true": True, "numpy-true": np.True_, "digits": "3", "none": None, "huge": 10**30,
    "float32-fraction": np.float32(1.5),
}


def _spoil(a, value, rng):
    out = np.array(a, dtype=np.float64)
    out.flat[rng.integers(out.size)] = value
    return out


def array_cases(a, rng):
    """Malformed variants of the valid array `a` (1-D targets or 2-D features)."""
    return {
        "empty": a[:0],
        "empty-1d": np.empty(0),
        "0-d": np.float64(0.5),
        "rank-up": a[None],
        "rank-down": a.ravel()[:1] if a.ndim == 1 else a[0],
        "one-short": a[:-1],
        "one-column": a[:, :1] if a.ndim == 2 else a[:, None],
        "one-nan": _spoil(a, np.nan, rng),
        "one-inf": _spoil(a, np.inf, rng),
        "one--inf": _spoil(a, -np.inf, rng),
        "all-nan": np.full_like(a, np.nan),
        "text": np.full(a.shape, "abc"),
        "ragged": [[1.0, 2.0], [3.0]],
        "none": None,
    }


def _data(rng):
    X = rng.uniform(size=(N_ROWS, N_FEATURES))
    return X, X[:, 0] - 2 * X[:, 1] + 0.1 * rng.standard_normal(N_ROWS)


def _calls():
    """(function name, function, valid keyword arguments, {argument: malformed values})."""
    rng = np.random.default_rng(SEED)
    X, y = _data(rng)
    cfg = ForestConfig(n_trees=3)
    model = fit_forest(X, y, cfg, seed=1)
    configs = {"text": "cfg", "int": 3, "dict": {"n_trees": 2}}
    return [
        ("ForestConfig", ForestConfig, {"n_trees": 3},
         {name: SCALARS for name in ("n_trees", "max_features", "min_samples_leaf",
                                     "max_depth", "bootstrap")}),
        ("fit_forest", fit_forest, {"X": X, "y": y, "cfg": cfg, "seed": 0},
         {"X": array_cases(X, rng), "y": array_cases(y, rng), "cfg": configs,
          "seed": SCALARS}),
        ("cross_validate", cross_validate, {"X": X, "y": y, "k": 3, "cfg": cfg, "seed": 0},
         {"X": array_cases(X, rng), "y": array_cases(y, rng), "k": SCALARS, "cfg": configs,
          "seed": SCALARS}),
        ("predict", predict, {"model": model, "features": X},
         {"features": array_cases(X, rng)}),
        ("oob_r2", lambda model, X, y, seed: oob_r2(replace(model, seed=seed), X, y),
         {"model": model, "X": X, "y": y, "seed": 1},
         {"X": array_cases(X, rng), "y": array_cases(y, rng), "seed": SCALARS}),
    ]


def _cases():
    cases = []
    rng = np.random.default_rng([SEED, 1])
    for fname, fn, valid, spoilers in _calls():
        for arg, values in spoilers.items():
            for vname, value in values.items():
                cases.append(pytest.param(fn, {**valid, arg: value}, id=f"{fname}-{arg}-{vname}"))
        args = sorted(spoilers)
        for i in range(PAIRED_CASES if len(args) > 1 else 0):
            a, b = rng.choice(len(args), size=2, replace=False)
            kwargs, label = dict(valid), []
            for arg in (args[a], args[b]):
                names = sorted(spoilers[arg])
                vname = names[rng.integers(len(names))]
                kwargs[arg] = spoilers[arg][vname]
                label.append(f"{arg}-{vname}")
            cases.append(pytest.param(fn, kwargs, id=f"{fname}-pair{i}-{'-'.join(label)}"))
    return cases


@pytest.mark.parametrize("fn, kwargs", _cases())
def test_only_satfuse_errors_escape(fn, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**kwargs)
        except SatfuseError:
            pass
