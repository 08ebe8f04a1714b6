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

This covers the forest (`ForestConfig`, `fit_forest`, `cross_validate`,
`predict`, `oob_r2`, `Quadrat`), the grid and its scalar arguments
(`GeoGrid`, `block_mean`, `translate_pixels`, `score_shift`,
`snap_to_grid`), scene synthesis (`SceneConfig` with its camera and grid,
`gen_hyper_scene`, `degrade`), the camera model (`HyperBandSpec`,
`evenly_spaced_camera`) and the tolerances of `nnls` and
`fit_band_weights`, the networks (`ArchConfig`, `preset`, `build_model`,
`TrainConfig`, `infer_tiled`) and `psnr_from_rmse`.
`test_every_export_is_fuzzed_or_excluded` keeps the list complete: every
callable that `satfuse` exports is either fuzzed here or excluded with a
reason.

A fuzz case passes when a malformed value is accepted, so the calls that
used to be accepted or to escape are also listed one by one in
`test_malformed_parameter_refused`, which requires the documented error.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import satfuse
from satfuse.alignment import score_shift, snap_to_grid
from satfuse.errors import ConfigError, GeometryError, SatfuseError, ValidationError
from satfuse.forest import ForestConfig, Quadrat, cross_validate, fit_forest, oob_r2, predict
from satfuse.metrics import psnr_from_rmse
from satfuse.nnls import nnls
from satfuse.raster import GeoGrid, Raster, block_mean, translate_pixels
from satfuse.spectral import (HyperBandSpec, evenly_spaced_camera, fit_band_weights,
                              synthetic_vnir_srf)
from satfuse.srcnn import ArchConfig, build_model, infer_tiled, preset
from satfuse.synthetic import SceneConfig, degrade, gen_hyper_scene, make_fusion_dataset
from satfuse.training import TrainConfig

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


def _scene(**kwargs):
    """A `SceneConfig` and the camera and grid derived from it."""
    cfg = SceneConfig(**kwargs)
    return cfg.camera(), cfg.fine_grid()


def _tiny_raster(n_bands, side=8):
    rng = np.random.default_rng(SEED)
    return Raster(GeoGrid(0.0, float(side), 1.0, 1.0, side, side),
                  rng.uniform(size=(n_bands, side, side)), [f"b{i}" for i in range(n_bands)])


def _pairs(first):
    """Shifts or layer plans with one malformed entry: `first(value)` for every scalar."""
    return {name: first(value) for name, value in SCALARS.items()}


def _calls():
    """(function name, function, valid keyword arguments, {argument: malformed values})."""
    rng = np.random.default_rng(SEED)
    X, y = _data(rng)
    cfg = ForestConfig(n_trees=3)
    model = fit_forest(X, y, cfg, seed=1)
    configs = {"text": "cfg", "int": 3, "dict": {"n_trees": 2}}
    raster = _tiny_raster(2)
    arch = ArchConfig(2, 2, ((3, 4), (3, 2)))
    net = build_model(arch, seed=0)
    scene = {"width": 16, "height": 16, "n_bands": 4, "scale": 4, "fwhm": 30.0,
             "endmember_seed": 1}
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
        ("Quadrat", Quadrat, {"id": "q", "x": 1.0, "y": 2.0, "side": 0.5},
         {name: SCALARS for name in ("x", "y", "side")}),
        ("GeoGrid", GeoGrid, {"origin_x": 0.0, "origin_y": 4.0, "pixel_w": 1.0, "pixel_h": 1.0,
                              "width": 4, "height": 4},
         {name: SCALARS for name in ("origin_x", "origin_y", "pixel_w", "pixel_h", "width",
                                     "height")}),
        ("block_mean", block_mean, {"r": raster, "factor": 2}, {"factor": SCALARS}),
        ("translate_pixels", translate_pixels, {"r": raster, "dx": 1, "dy": -1},
         {"dx": SCALARS, "dy": SCALARS}),
        ("score_shift", score_shift,
         {"fine": _tiny_raster(2, 16), "coarse": block_mean(_tiny_raster(2, 16), 2),
          "shift": (1, -1)},
         {"shift": {**SCALARS, **_pairs(lambda v: (v, 0)), "triple": (0, 0, 0)}}),
        ("snap_to_grid", snap_to_grid,
         {"fine": raster, "coarse_grid": raster.grid.scaled(2), "target_pixel": 1.0},
         {"target_pixel": SCALARS}),
        ("SceneConfig", _scene, scene,
         {**{name: SCALARS for name in ("seed", "width", "height", "n_bands", "n_endmembers",
                                        "smoothness", "noise_sigma", "scale", "gain", "offset",
                                        "pixel_m", "fwhm", "endmember_seed")},
          "shift": {**SCALARS, **_pairs(lambda v: (v, 0)), "triple": (0, 0, 0)}}),
        ("gen_hyper_scene", gen_hyper_scene, {"cfg": SceneConfig(**scene)},
         {"cfg": {**configs, "none": None}}),
        ("degrade", degrade, {"fine": _tiny_raster(4, 16), "cfg": SceneConfig(**scene)},
         {"cfg": {**configs, "none": None}}),
        ("HyperBandSpec", HyperBandSpec, {"centers": np.array([500.0, 510.0]), "fwhm": 6.0},
         {"centers": SCALARS, "fwhm": SCALARS}),
        ("evenly_spaced_camera", evenly_spaced_camera, {"n_bands": 8, "fwhm": None},
         {"n_bands": SCALARS, "fwhm": SCALARS}),
        ("nnls", nnls, {"A": X, "b": y, "tol": 1e-10, "max_iter": None},
         {"tol": SCALARS, "max_iter": SCALARS}),
        ("fit_band_weights", fit_band_weights,
         {"srf": synthetic_vnir_srf(), "spec": evenly_spaced_camera(24), "tol": 1e-10},
         {"tol": SCALARS}),
        ("ArchConfig", ArchConfig, {"in_channels": 2, "out_channels": 2,
                                    "layers": ((3, 4), (3, 2)), "slope": 0.1},
         {"in_channels": SCALARS, "out_channels": SCALARS, "slope": SCALARS,
          "layers": {**SCALARS, **_pairs(lambda v: ((v, 4), (3, 2))),
                     **{f"filters-{n}": ((3, 4), (3, v)) for n, v in SCALARS.items()},
                     "one-layer": ((3, 2),), "triple": ((3, 4, 1), (3, 2))}}),
        ("preset", preset, {"name": "spectral"}, {"name": SCALARS}),
        ("build_model", build_model, {"arch": arch, "seed": 0},
         {"arch": {**configs, "none": None}, "seed": SCALARS}),
        ("TrainConfig", TrainConfig, {},
         {name: SCALARS for name in ("scale", "patch_coarse", "patch_stride_coarse",
                                     "batch_size", "learning_rate", "beta1", "beta2", "eps",
                                     "epochs", "seed", "validation_fraction")}),
        ("infer_tiled", infer_tiled, {"model": net, "inputs": raster, "tile": 6, "overlap": 2},
         {"model": {**configs, "none": None}, "tile": SCALARS, "overlap": SCALARS}),
        ("psnr_from_rmse", psnr_from_rmse, {"rmse": 0.1}, {"rmse": SCALARS}),
    ]


# exported callables that `_calls` leaves out, each with the reason
EXCLUDED = {
    "ShiftEstimate": "a result record that the library builds; it checks nothing",
    "ForestModel": "a fitted forest, built by `fit_forest` and `from_json`",
    "MetricsReport": "a result record that `evaluate` builds",
    "SrcnnModel": "a network, built by `build_model` and `load_checkpoint`",
    "BandWeights": "array-only; fitted by `fit_band_weights`",
    "SpectralResponseTable": "array-only; its table is read from CSV by the file fuzz",
    "Raster": "array-only, left for later",
    "stack_bands": "array-only (rasters), left for later",
    "extract_quadrat_features": "array-only (a raster and quadrats), left for later",
    "register": "array-only (rasters), left for later",
    "upsample_bicubic": "a factor of 10**30 still escapes as NumPy's ValueError (a FOUND line "
                        "in CHANGES.md); its other factors are checked in test_raster",
    "kkt_residuals": "array-only, left for later",
    "gaussian_design_matrix": "array-only (a camera and a wavelength grid), left for later",
    "simulate_bands": "array-only (a cube and band weights), left for later",
    "evaluate": "array-only (two rasters), left for later",
    "forward": "array-only (a network and a tensor), left for later",
    "backward": "array-only (a network and tensors), left for later",
    "train": "takes raster pairs and configs; its configs are fuzzed here",
    "default_camera": "takes no argument",
    "synthetic_vnir_srf": "takes no argument",
    "read_bsf": "reads a file: covered by the file fuzz in test_fuzz",
    "write_bsf": "writes a raster to a file, no scalar parameter",
    "load_checkpoint": "reads a file: covered by the file fuzz in test_fuzz",
    "save_checkpoint": "writes a network to a file, no scalar parameter",
    "assemble_pairs": "reads files named by a manifest: covered by test_cli",
    "make_fusion_dataset": "a huge scene count is a valid, endless request; see "
                           "test_malformed_parameter_refused",
}


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


def test_every_export_is_fuzzed_or_excluded():
    exported = {name for name, value in vars(satfuse).items()
                if callable(value) and not name.startswith("_")}
    fuzzed = {name for name, *_ in _calls()}
    assert exported - fuzzed - set(EXCLUDED) == set()
    assert set(EXCLUDED) <= exported and not fuzzed & set(EXCLUDED)


def _refused():
    """Calls that used to be accepted or to escape, with the error each must raise."""
    raster, scene = _tiny_raster(2), SceneConfig(width=16, height=16, n_bands=4, scale=4)
    net = build_model(ArchConfig(2, 2, ((3, 4), (3, 2))))
    arch = {"in_channels": 2, "out_channels": 2, "layers": ((3, 4), (3, 2))}
    V, C = ValidationError, ConfigError
    calls = [
        ("GeoGrid-width-2.5", V, "width", lambda: GeoGrid(0, 0, 1, 1, 2.5, 4)),
        ("GeoGrid-width-digits", V, "width", lambda: GeoGrid(0, 0, 1, 1, "4", 4)),
        ("TrainConfig-batch_size-2.5", C, "batch_size", lambda: TrainConfig(batch_size=2.5)),
        ("TrainConfig-epochs-True", C, "epochs", lambda: TrainConfig(epochs=True)),
        ("TrainConfig-seed--1", C, "seed", lambda: TrainConfig(seed=-1)),
        ("TrainConfig-learning_rate-digits", C, "learning_rate",
         lambda: TrainConfig(learning_rate="1e-3")),
        ("TrainConfig-scale-None", C, "scale", lambda: TrainConfig(scale=None)),
        ("ArchConfig-in_channels-2.5", C, "in_channels",
         lambda: ArchConfig(**{**arch, "in_channels": 2.5})),
        ("ArchConfig-kernel-3.5", C, "layers",
         lambda: ArchConfig(**{**arch, "layers": ((3.5, 4), (3, 2))})),
        ("ArchConfig-slope-text", C, "slope", lambda: ArchConfig(**arch, slope="x")),
        ("ArchConfig-layers-5", C, "layers", lambda: ArchConfig(**{**arch, "layers": 5})),
        ("SceneConfig-seed--1", V, "seed", lambda: SceneConfig(seed=-1)),
        ("SceneConfig-seed-1.5", V, "seed", lambda: SceneConfig(seed=1.5)),
        ("SceneConfig-endmember_seed-digits", V, "endmember_seed",
         lambda: SceneConfig(endmember_seed="3")),
        ("SceneConfig-gain-digits", V, "gain", lambda: SceneConfig(gain="1.5")),
        ("SceneConfig-shift-fraction-bool", V, "shift", lambda: SceneConfig(shift=(1.5, True))),
        ("SceneConfig-shift-5", V, "shift", lambda: SceneConfig(shift=5)),
        ("Quadrat-x-True", V, "x", lambda: Quadrat("q", True, 1.0)),
        ("Quadrat-x-digits", V, "x", lambda: Quadrat("q", "1", 1.0)),
        ("HyperBandSpec-fwhm-True", V, "fwhm", lambda: HyperBandSpec(np.array([1.0, 2.0]), True)),
        ("evenly_spaced_camera-2.5", V, "n_bands", lambda: evenly_spaced_camera(2.5)),
        ("evenly_spaced_camera-huge", V, "camera band", lambda: evenly_spaced_camera(10**30)),
        ("SceneConfig-n_bands-huge-camera", V, "camera band",
         lambda: SceneConfig(n_bands=10**30).camera()),
        ("infer_tiled-tile-250.5", C, "tile", lambda: infer_tiled(net, raster, tile=250.5)),
        ("infer_tiled-overlap-nan", C, "overlap", lambda: infer_tiled(net, raster, overlap=np.nan)),
        ("infer_tiled-model-None", C, "model", lambda: infer_tiled(None, raster)),
        ("psnr_from_rmse-True", V, "rmse", lambda: psnr_from_rmse(True)),
        ("nnls-tol-text", V, "tol", lambda: nnls(np.eye(2), np.ones(2), tol="x")),
        ("nnls-tol-nan", V, "tol", lambda: nnls(np.eye(2), np.ones(2), tol=np.nan)),
        ("nnls-max_iter-2.5", V, "max_iter", lambda: nnls(np.eye(2), np.ones(2), max_iter=2.5)),
        ("snap_to_grid-target_pixel-True", GeometryError, "target_pixel",
         lambda: snap_to_grid(raster, raster.grid.scaled(2), True)),
        ("build_model-seed--1", C, "seed", lambda: build_model(net.arch, -1)),
        ("build_model-seed-1.5", C, "seed", lambda: build_model(net.arch, 1.5)),
        ("gen_hyper_scene-None", V, "cfg", lambda: gen_hyper_scene(None)),
        ("degrade-None", V, "cfg", lambda: degrade(raster, None)),
        ("make_fusion_dataset-None", V, "cfg",
         lambda: make_fusion_dataset(None, 3, "out")),
        ("make_fusion_dataset-n_scenes-3.5", V, "n_scenes",
         lambda: make_fusion_dataset(scene, 3.5, "out")),
    ]
    return [pytest.param(fn, error, name, id=case) for case, error, name, fn in calls]


@pytest.mark.parametrize("fn, error, name", _refused())
def test_malformed_parameter_refused(fn, error, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # make_fusion_dataset writes under "out"
    with pytest.raises(error, match=name):
        fn()


def test_numbers_are_stored_as_int_and_float():
    grid = GeoGrid(np.int64(0), np.float32(4.0), 1, np.float64(1.0), np.int32(4), 4.0)
    assert [type(getattr(grid, n)) for n in ("origin_x", "origin_y", "pixel_w", "pixel_h",
                                             "width", "height")] == [float] * 4 + [int] * 2
    scene = SceneConfig(seed=np.int64(3), shift=(np.int64(1), 2.0), endmember_seed=4.0,
                        gain=np.float64(1.5), offset=0)
    assert scene.shift == (1, 2) and [type(v) for v in (*scene.shift, scene.seed,
                                                        scene.endmember_seed)] == [int] * 4
    assert (type(scene.gain), type(scene.offset)) == (float, float)
    train = TrainConfig(scale=np.int64(4), learning_rate=np.float32(0.5), beta1=0, seed=2.0)
    assert [type(v) for v in (train.scale, train.seed, train.learning_rate, train.beta1)] == [
        int, int, float, float]
    arch = ArchConfig(np.int64(2), 2.0, [[np.int32(3), 4.0], (3, np.int64(2))], slope=0)
    assert arch.layers == ((3, 4), (3, 2)) and type(arch.slope) is float
    assert {type(v) for v in (arch.in_channels, arch.out_channels, *sum(arch.layers, ()))} == {int}
    quadrat = Quadrat("q", np.float64(1.0), 2, np.float32(0.5))
    assert [type(v) for v in (quadrat.x, quadrat.y, quadrat.side)] == [float] * 3
    assert type(HyperBandSpec(np.array([1.0, 2.0]), np.float32(6.0)).fwhm) is float
