"""Seeded fuzz of the public library functions, called directly.

`test_fuzz.py` drives the file readers through the command line; this file
calls the library.  For each function a valid call is built, and each case
replaces one or two of its arguments with malformed values: scalars (zero,
negative, fractional, NaN, the infinities, Python and NumPy booleans, a digit
string, None, a huge integer), arrays (empty, wrong rank, one row short,
one column, NaN- or infinity-filled, text, ragged, None), objects (text, a
number, a dict and None where a config, grid, camera, model or table
belongs), rasters (those objects, a raster without bands and a raster on
another grid) and band names (text, None, numbers, one name short).  A
seeded generator draws the data, where a non-finite value lands and which
arguments a paired case mutates.  Every call must return or raise a
`SatfuseError`, and no warning may fire.

This covers the forest (`ForestConfig`, `fit_forest`, `cross_validate`,
`predict`, `oob_r2`, `Quadrat`, `extract_quadrat_features`), the raster and
its grid (`GeoGrid`, `Raster`, `stack_bands`, `block_mean`,
`upsample_bicubic`, `translate_pixels`, `write_bsf`), registration
(`score_shift`, `register`, `snap_to_grid`), `evaluate` and
`psnr_from_rmse`, scene synthesis (`SceneConfig` with its camera and grid,
`gen_hyper_scene`, `degrade`), band simulation (`HyperBandSpec`,
`evenly_spaced_camera`, `gaussian_design_matrix`, `SpectralResponseTable`,
`fit_band_weights`, `BandWeights`, `simulate_bands`), `nnls` and
`kkt_residuals`, `assemble_pairs` on a manifest whose scenes name no file
to read, and the networks (`ArchConfig`, `preset`, `build_model`,
`forward`, `backward`, `masked_mse`, `masked_mse_grad`, `TrainConfig`,
`train`, `infer_tiled`, `save_checkpoint`).
`test_every_export_is_fuzzed_or_excluded` keeps the list complete: every
callable that `satfuse` exports is either fuzzed here or excluded with a
reason.

A fuzz case passes when a malformed value is accepted, so the calls that
used to be accepted or to escape are also listed one by one in
`test_malformed_parameter_refused`, which requires the documented error.
`test_none_is_accepted_exactly_where_the_default_is_none` holds every field
of every checked dataclass to the `None` rule.
"""

import dataclasses
import os
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import satfuse
from satfuse.alignment import register, score_shift, snap_to_grid
from satfuse.bsf import read_bsf, write_bsf
from satfuse.errors import (ConfigError, DataError, GeometryError, SatfuseError, ShapeError,
                            ValidationError)
from satfuse.forest import (ForestConfig, ForestModel, Quadrat, cross_validate,
                            extract_quadrat_features, fit_forest, load_quadrats_csv, oob_r2,
                            predict, save_samples_csv)
from satfuse.metrics import evaluate, psnr_from_rmse
from satfuse.nnls import kkt_residuals, nnls
from satfuse.raster import (GeoGrid, Raster, block_mean, stack_bands, translate_pixels,
                            upsample_bicubic)
from satfuse.spectral import (BandWeights, HyperBandSpec, SpectralResponseTable,
                              evenly_spaced_camera, fit_band_weights, gaussian_design_matrix,
                              simulate_bands, synthetic_vnir_srf)
from satfuse.srcnn import (ArchConfig, backward, build_model, forward, infer_tiled,
                           load_checkpoint, masked_mse, masked_mse_grad, preset,
                           save_checkpoint)
from satfuse.synthetic import (SceneConfig, assemble_pairs, degrade, gen_hyper_scene,
                               load_manifest, make_fusion_dataset)
from satfuse.training import TrainConfig, loss_log_to_csv, train

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


def _tiny_raster(n_bands, side=8, pixel=1.0, **kwargs):
    rng = np.random.default_rng(SEED)
    return Raster(GeoGrid(0.0, side * pixel, pixel, pixel, side, side),
                  rng.uniform(size=(n_bands, side, side)), [f"b{i}" for i in range(n_bands)],
                  **kwargs)


def raster_cases(r, objects):
    """Malformed stand-ins for the valid raster `r`: the `objects`, a raster
    without bands and a raster on another grid (1.5-unit pixels, 6 a side)."""
    return {**objects, "zero-band": replace(r, values=r.values[:0], band_names=[],
                                            wavelengths=None),
            "other-grid": _tiny_raster(r.n_bands, 6, 1.5)}


def name_cases(names):
    """Malformed band names for the valid list `names`."""
    return {"text": "ab", "none": None, "int": 3, "numbers": list(range(len(names))),
            "one-short": names[:-1], "dict": dict.fromkeys(names)}


def _written(write):
    """`write(obj, path)` into a fresh temporary directory."""
    def call(**kwargs):
        with tempfile.TemporaryDirectory() as tmp:
            write(**kwargs, path=Path(tmp) / "out")
    return call


def _pairs(first):
    """Shifts or layer plans with one malformed entry: `first(value)` for every scalar."""
    return {name: first(value) for name, value in SCALARS.items()}


def _calls():
    """(label, function, valid keyword arguments, {argument: malformed values}).

    The label is the function's name.  `_object_calls` appends the entries
    for array, object and raster arguments; a function that also has an entry
    here takes a second label there, so that the paired cases of every entry
    keep their names and their draws.
    """
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
    ] + _object_calls(X, y, model, net)


def _object_calls(X, y, model, net):
    """The entries for the array, object, raster and band-name arguments.  An
    entry for a function that `_calls` also fuzzes is labelled with its name
    and "-arrays" or "-objects"."""
    rng = np.random.default_rng([SEED, 2])
    objects = {"text": "cfg", "int": 3, "dict": {"n_trees": 2}, "none": None}
    raster = _tiny_raster(2)
    rasters = raster_cases(raster, objects)
    fine = _tiny_raster(2, 16)
    coarse = block_mean(fine, 2)
    camera = evenly_spaced_camera(24)
    srf = synthetic_vnir_srf()
    weights = fit_band_weights(srf, camera)
    cube = _tiny_raster(24, wavelengths=camera.centers)
    wl, resp = srf.bands["B2"]
    x = rng.uniform(size=(2, 6, 6))
    valid = (x[0] > 0.3).astype(np.float64)  # a loss mask over the axes after the channels
    quadrats = [Quadrat("q0", 2.0, 6.0, 2.0), Quadrat("q1", 5.0, 3.0, 2.0)]
    pair = (_tiny_raster(2), _tiny_raster(2))
    pairs = {**objects, "empty": [], "single": [pair[0]],
             "zero-band": [(rasters["zero-band"], pair[1])],
             "other-grid": [(pair[0], rasters["other-grid"])], "triple": [(*pair, pair[0])]}
    return [
        ("predict-objects", predict, {"model": model, "features": X}, {"model": objects}),
        ("oob_r2-objects", oob_r2, {"model": model, "X": X, "y": y}, {"model": objects}),
        ("extract_quadrat_features", extract_quadrat_features,
         {"r": raster, "quadrats": quadrats},
         {"r": rasters, "quadrats": {**objects, "empty": [], "text": "q0",
                                     "mixed": [quadrats[0], "q1"]}}),
        ("Raster", Raster,
         {"grid": raster.grid, "values": raster.values, "band_names": raster.band_names,
          "mask": raster.mask, "wavelengths": np.array([500.0, 600.0])},
         {"grid": {**objects, "other-grid": rasters["other-grid"].grid},
          "values": array_cases(raster.values, rng),
          "band_names": name_cases(raster.band_names),
          "mask": array_cases(raster.mask, rng),
          "wavelengths": array_cases(np.array([500.0, 600.0]), rng)}),
        ("stack_bands", lambda a, b: stack_bands(a, b), {"a": raster, "b": raster},
         {"a": rasters, "b": rasters}),
        ("block_mean-objects", block_mean, {"r": raster, "factor": 2}, {"r": rasters}),
        ("upsample_bicubic", upsample_bicubic, {"r": raster, "factor": 2},
         {"r": rasters, "factor": SCALARS}),
        ("translate_pixels-objects", translate_pixels, {"r": raster, "dx": 1, "dy": -1},
         {"r": rasters}),
        ("write_bsf", _written(write_bsf), {"r": raster}, {"r": rasters}),
        ("score_shift-objects", score_shift, {"fine": fine, "coarse": coarse, "shift": (1, -1)},
         {"fine": raster_cases(fine, objects), "coarse": raster_cases(coarse, objects)}),
        ("register", register, {"fine": fine, "coarse": coarse},
         {"fine": raster_cases(fine, objects), "coarse": raster_cases(coarse, objects)}),
        ("snap_to_grid-objects", snap_to_grid,
         {"fine": raster, "coarse_grid": raster.grid.scaled(2), "target_pixel": 1.0},
         {"fine": rasters, "coarse_grid": objects}),
        ("evaluate", evaluate, {"pred": raster, "truth": raster},
         {"pred": rasters, "truth": rasters}),
        ("degrade-objects", degrade,
         {"fine": _tiny_raster(4, 16), "cfg": SceneConfig(width=16, height=16, n_bands=4, scale=4)},
         {"fine": raster_cases(_tiny_raster(4, 16), objects)}),
        ("HyperBandSpec-arrays", HyperBandSpec, {"centers": np.array([500.0, 510.0]), "fwhm": 6.0},
         {"centers": array_cases(np.array([500.0, 510.0]), rng)}),
        ("gaussian_design_matrix", gaussian_design_matrix,
         {"spec": camera, "grid": np.linspace(450.0, 550.0, 12)},
         {"spec": objects, "grid": array_cases(np.linspace(450.0, 550.0, 12), rng)}),
        ("SpectralResponseTable", SpectralResponseTable, {"bands": {"B2": (wl, resp)}},
         {"bands": {**objects, "empty": {}, "not-a-pair": {"B2": 3}, "triple": {"B2": (wl,) * 3},
                    "int-name": {2: (wl, resp)},
                    **{f"wavelengths-{n}": {"B2": (v, resp)}
                       for n, v in array_cases(wl, rng).items()},
                    **{f"responses-{n}": {"B2": (wl, v)}
                       for n, v in array_cases(resp, rng).items()}}}),
        ("nnls-arrays", nnls, {"A": X, "b": y},
         {"A": array_cases(X, rng), "b": array_cases(y, rng)}),
        ("kkt_residuals", kkt_residuals, {"A": X, "b": y, "x": nnls(X, y)},
         {"A": array_cases(X, rng), "b": array_cases(y, rng),
          "x": array_cases(nnls(X, y), rng)}),
        ("fit_band_weights-objects", fit_band_weights, {"srf": srf, "spec": camera},
         {"srf": objects, "spec": objects}),
        ("BandWeights", BandWeights,
         {"camera": camera, "band_names": weights.band_names, "weights": weights.weights,
          "residuals": weights.residuals, "normalizations": weights.normalizations},
         {"camera": objects, "band_names": name_cases(weights.band_names),
          "weights": array_cases(weights.weights, rng),
          "residuals": array_cases(weights.residuals, rng),
          "normalizations": array_cases(weights.normalizations, rng)}),
        ("simulate_bands", simulate_bands, {"cube": cube, "weights": weights},
         {"cube": raster_cases(cube, objects), "weights": objects}),
        ("forward", forward, {"model": net, "x": x},
         {"model": objects, "x": array_cases(x, rng)}),
        ("backward", backward, {"model": net, "x": x, "grad_out": x},
         {"model": objects, "x": array_cases(x, rng), "grad_out": array_cases(x, rng)}),
        ("save_checkpoint", _written(save_checkpoint), {"model": net}, {"model": objects}),
        ("infer_tiled-objects", infer_tiled,
         {"model": net, "inputs": raster, "tile": 6, "overlap": 2, "band_names": None},
         {"inputs": rasters, "band_names": name_cases(raster.band_names)}),
        ("train", train,
         {"arch": net.arch, "pairs": [pair], "val_pairs": None,
          "cfg": TrainConfig(scale=2, patch_coarse=2, batch_size=8, epochs=1)},
         {"arch": objects, "pairs": pairs, "val_pairs": pairs, "cfg": objects}),
        ("assemble_pairs", assemble_pairs,
         {"manifest": {"scenes": []}, "split": "train", "variant": "stacked"},
         {"manifest": {**objects, "list": [], "scenes-text": {"scenes": "ab"},
                       "scene-text": {"scenes": ["a"]}, "dir-number": {"scenes": [], "_dir": 3}},
          "split": {**SCALARS, "list": ["train"]},
          "variant": {**SCALARS, "list": [], "unknown": "bicubic"}}),
    ] + [(fn.__name__, fn, {"pred": x, "target": x[::-1], "mask": valid},
          {"pred": array_cases(x, rng), "target": array_cases(x, rng),
           "mask": array_cases(valid, rng)}) for fn in (masked_mse, masked_mse_grad)]


# exported callables that `_calls` leaves out, each with the reason
EXCLUDED = {
    "ShiftEstimate": "a result record that the library builds; it checks nothing",
    "ForestModel": "a fitted forest, built by `fit_forest` and `from_json`",
    "MetricsReport": "a result record that `evaluate` builds",
    "SrcnnModel": "a network, built by `build_model` and `load_checkpoint`",
    "default_camera": "takes no argument",
    "synthetic_vnir_srf": "takes no argument",
    "read_bsf": "reads a file: covered by the file fuzz in test_fuzz",
    "load_checkpoint": "reads a file: covered by the file fuzz in test_fuzz",
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
    camera, inf_eye = evenly_spaced_camera(24), np.diag([np.inf, 1.0])
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
        ("gen_hyper_scene-huge-width", V, "too large for memory",
         lambda: gen_hyper_scene(SceneConfig(width=8 * 10**30, height=16, n_bands=4))),
        ("upsample_bicubic-huge-factor", V, "too large for memory",
         lambda: upsample_bicubic(raster, 10**30)),
        ("nnls-A-text", V, "A", lambda: nnls(np.full((2, 2), "a"), np.ones(2))),
        ("nnls-b-ragged", V, "b", lambda: nnls(np.eye(2), [[1.0], [1.0, 2.0]])),
        ("kkt_residuals-A-inf", V, "A", lambda: kkt_residuals(inf_eye, np.ones(2), np.ones(2))),
        ("kkt_residuals-x-None", V, "x", lambda: kkt_residuals(np.eye(2), np.ones(2), None)),
        ("Raster-grid-None", V, "grid", lambda: Raster(None, raster.values, raster.band_names)),
        ("Raster-values-text", V, "values",
         lambda: Raster(raster.grid, np.full(raster.shape, "a"), raster.band_names)),
        ("Raster-band_names-text", V, "band_names",
         lambda: Raster(raster.grid, raster.values, "ab")),
        ("Raster-band_names-None", V, "band_names",
         lambda: Raster(raster.grid, raster.values, None)),
        ("Raster-mask-ragged", V, "mask",
         lambda: Raster(raster.grid, raster.values, raster.band_names, [[True], [True, False]])),
        ("Raster-wavelengths-text", V, "wavelengths",
         lambda: Raster(raster.grid, raster.values, raster.band_names, None, ["a", "b"])),
        ("stack_bands-None", V, "raster 1", lambda: stack_bands(raster, None)),
        ("block_mean-r-None", V, "r", lambda: block_mean(None, 2)),
        ("upsample_bicubic-r-None", V, "r", lambda: upsample_bicubic(None, 2)),
        ("translate_pixels-r-None", V, "r", lambda: translate_pixels(None, 1, 1)),
        ("write_bsf-r-None", V, "r", lambda: write_bsf(None, "r.bsf")),
        ("snap_to_grid-fine-None", V, "fine", lambda: snap_to_grid(None, raster.grid, 1.0)),
        ("snap_to_grid-coarse_grid-None", V, "coarse_grid",
         lambda: snap_to_grid(raster, None, 1.0)),
        ("register-fine-None", V, "fine", lambda: register(None, block_mean(raster, 2))),
        ("score_shift-coarse-None", V, "coarse", lambda: score_shift(raster, None, (0, 0))),
        ("evaluate-truth-None", V, "truth", lambda: evaluate(raster, None)),
        ("HyperBandSpec-centers-text", V, "centers", lambda: HyperBandSpec(["a", "b"], 6.0)),
        ("gaussian_design_matrix-spec-None", V, "spec",
         lambda: gaussian_design_matrix(None, np.array([500.0]))),
        ("gaussian_design_matrix-grid-text", V, "grid",
         lambda: gaussian_design_matrix(camera, ["a"])),
        ("SpectralResponseTable-bands-None", V, "bands", lambda: SpectralResponseTable(None)),
        ("SpectralResponseTable-wavelengths-inf", V, "wavelengths",
         lambda: SpectralResponseTable({"B": (np.array([500.0, np.inf]), np.ones(2))})),
        ("fit_band_weights-srf-None", V, "srf", lambda: fit_band_weights(None, camera)),
        ("BandWeights-camera-None", V, "camera",
         lambda: BandWeights(None, ["B"], np.ones((1, 2)), np.zeros(1), np.ones(1))),
        ("BandWeights-residuals-text", V, "residuals",
         lambda: BandWeights(camera, ["B"], np.ones((1, 2)), ["a"], np.ones(1))),
        ("simulate_bands-cube-None", V, "cube",
         lambda: simulate_bands(None, fit_band_weights(synthetic_vnir_srf(), camera))),
        ("simulate_bands-weights-None", V, "weights", lambda: simulate_bands(raster, None)),
        ("extract_quadrat_features-r-None", V, "r",
         lambda: extract_quadrat_features(None, [Quadrat("q", 1.0, 1.0)])),
        ("extract_quadrat_features-quadrats-text", V, "quadrats",
         lambda: extract_quadrat_features(raster, "q")),
        ("predict-model-None", C, "model", lambda: predict(None, np.ones((1, 2)))),
        ("oob_r2-model-None", C, "model", lambda: oob_r2(None, np.ones((2, 2)), np.ones(2))),
        ("forward-model-None", C, "model", lambda: forward(None, np.ones((2, 4, 4)))),
        ("forward-x-inf", ShapeError, "x", lambda: forward(net, np.full((2, 4, 4), np.inf))),
        ("backward-grad_out-inf", ShapeError, "grad_out",
         lambda: backward(net, np.ones((2, 4, 4)), np.full((2, 4, 4), np.inf))),
        ("masked_mse-mask-4x4", ShapeError, "mask",
         lambda: masked_mse(np.ones((2, 3, 3)), np.ones((2, 3, 3)), np.ones((4, 4)))),
        ("masked_mse-pred-text", ShapeError, "pred",
         lambda: masked_mse(np.full((2, 3, 3), "a"), np.ones((2, 3, 3)), np.ones((3, 3)))),
        ("masked_mse_grad-mask-None", ShapeError, "mask",
         lambda: masked_mse_grad(np.ones((2, 3, 3)), np.ones((2, 3, 3)), None)),
        ("infer_tiled-inputs-None", ShapeError, "inputs", lambda: infer_tiled(net, None)),
        ("save_checkpoint-model-None", C, "model", lambda: save_checkpoint(None, "m.ckpt")),
        ("degrade-fine-None", V, "fine", lambda: degrade(None, scene)),
        ("train-arch-None", C, "arch", lambda: train(None, [(raster, raster)], TrainConfig())),
        ("train-cfg-None", C, "cfg", lambda: train(net.arch, [(raster, raster)], None)),
        ("train-pairs-None", DataError, "pairs", lambda: train(net.arch, None, TrainConfig())),
        ("train-val_pairs-text", DataError, "val_pairs",
         lambda: train(net.arch, [(raster, raster)], TrainConfig(scale=2), "ab")),
        ("GeoGrid.scaled-0", V, "factor", lambda: raster.grid.scaled(0)),
        ("GeoGrid.scaled-2.5", V, "factor", lambda: raster.grid.scaled(2.5)),
        ("GeoGrid.refined-0", V, "factor", lambda: raster.grid.refined(0)),
        ("GeoGrid.refined-1.5", V, "factor", lambda: raster.grid.refined(1.5)),
        ("Raster.select_bands-names-None", V, "names", lambda: raster.select_bands(None)),
        ("Raster.select_bands-rename-text", V, "rename",
         lambda: raster.select_bands(["b0"], rename="x")),
        ("evaluate-per_band-array", V, "per_band",
         lambda: evaluate(raster, raster, per_band=np.ones(2))),
        ("evaluate-per_band-text", V, "per_band", lambda: evaluate(raster, raster, per_band="no")),
        ("write_bsf-path-None", V, "path", lambda: write_bsf(raster, None)),
        ("read_bsf-path-2.5", V, "path", lambda: read_bsf(2.5)),
        ("read_bsf-path-0", V, "path", lambda: read_bsf(0)),
        ("save_checkpoint-path-None", V, "path", lambda: save_checkpoint(net, None)),
        ("load_checkpoint-path-0", V, "path", lambda: load_checkpoint(0)),
        ("load_quadrats_csv-path-None", V, "path", lambda: load_quadrats_csv(None)),
        ("Quadrat-id-5", V, "id", lambda: Quadrat(5, 1.0, 1.0)),
        ("ArchConfig-name-None", C, "name", lambda: ArchConfig(**arch, name=None)),
        ("ArchConfig-name-list", C, "name", lambda: ArchConfig(**arch, name=["x"])),
        ("assemble_pairs-manifest-None", V, "manifest", lambda: assemble_pairs(None, "train")),
        ("assemble_pairs-split-None", V, "split", lambda: assemble_pairs({"scenes": []}, None)),
        ("assemble_pairs-variant-list", V, "variant",
         lambda: assemble_pairs({"scenes": []}, "train", [])),
    ]
    model = fit_forest(np.ones((4, 1)), np.arange(4.0), ForestConfig(n_trees=2))
    weights = fit_band_weights(synthetic_vnir_srf(), camera)
    files = [  # every reader and writer of a JSON or CSV file, as (label, argument, call)
        ("ForestModel.to_json", "path", model.to_json),
        ("ForestModel.from_json", "path", ForestModel.from_json),
        ("BandWeights.save_json", "path", weights.save_json),
        ("BandWeights.load_json", "path", BandWeights.load_json),
        ("load_manifest", "path", load_manifest),
        ("make_fusion_dataset", "out_dir", lambda p: make_fusion_dataset(scene, 3, p)),
        ("SpectralResponseTable.to_csv", "path", synthetic_vnir_srf().to_csv),
        ("save_samples_csv", "path",
         lambda p: save_samples_csv(p, [Quadrat("q", 1.0, 1.0)], [1.0], np.ones((1, 1)), ["b"])),
        ("loss_log_to_csv", "path", lambda p: loss_log_to_csv([(1, 0.5, 0.5)], p)),
    ]
    calls += [(f"{label}-{arg}-{name}", V, arg, lambda call=call, path=path: call(path))
              for label, arg, call in files
              for name, path in (("None", None), ("2.5", 2.5), ("0", 0))]
    return [pytest.param(fn, error, name, id=case) for case, error, name, fn in calls]


@pytest.mark.parametrize("fn, error, name", _refused())
def test_malformed_parameter_refused(fn, error, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # make_fusion_dataset writes under "out"
    with pytest.raises(error, match=name):
        fn()


def test_an_integer_path_is_not_a_file_descriptor():
    os.fstat(0)  # standard input, which pytest points at the null device
    with pytest.raises(ValidationError, match="path"):
        ForestModel.from_json(0)
    os.fstat(0)  # still open: it was neither read nor closed


def _checked_dataclasses():
    """(class, valid keyword arguments, error) for every dataclass that checks its fields."""
    raster = _tiny_raster(2)
    return [
        (GeoGrid, {"origin_x": 0.0, "origin_y": 4.0, "pixel_w": 1.0, "pixel_h": 1.0,
                   "width": 4, "height": 4}, ValidationError),
        (Raster, {"grid": raster.grid, "values": raster.values,
                  "band_names": raster.band_names}, ValidationError),
        (ArchConfig, {"in_channels": 2, "out_channels": 2, "layers": ((3, 4), (3, 2))},
         ConfigError),
        (SceneConfig, {}, ValidationError),
        (TrainConfig, {}, ConfigError),
        (ForestConfig, {}, ConfigError),
        (HyperBandSpec, {"centers": np.array([500.0, 510.0]), "fwhm": 6.0}, ValidationError),
        (Quadrat, {"id": "q", "x": 1.0, "y": 2.0}, ValidationError),
    ]


@pytest.mark.parametrize("cls, valid, error, field", [
    pytest.param(cls, valid, error, f, id=f"{cls.__name__}-{f.name}")
    for cls, valid, error in _checked_dataclasses() for f in dataclasses.fields(cls)])
def test_none_is_accepted_exactly_where_the_default_is_none(cls, valid, error, field):
    if field.default is None:  # accepted; a Raster fills in its mask and wavelengths
        cls(**{**valid, field.name: None})
    else:
        with pytest.raises(error, match=field.name):
            cls(**{**valid, field.name: None})


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
