"""Metamorphic relations: a known change of the input moves the output predictably.

The other tests pin outputs at fixed inputs.  These check how an output
moves when its input moves, on seeded cases drawn here (Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM
Computing Surveys 51(1), 2018):

- `evaluate` is symmetric in its two rasters;
- `simulate_bands` commutes with cropping;
- `infer_tiled` gives the same bytes at any tile plan whose overlap covers
  the receptive radius;
- `register` of a fine raster moved by whole pixels finds a shift moved the
  other way by as much.

Each relation holds byte for byte.  A case that breaks one is a fault of the
code, not of the case.
"""

import numpy as np
import pytest

from satfuse.alignment import register
from satfuse.metrics import evaluate
from satfuse.raster import GeoGrid, Raster, translate_pixels
from satfuse.spectral import (default_camera, fit_band_weights, simulate_bands,
                              synthetic_vnir_srf)
from satfuse.srcnn import build_model, infer_tiled, preset
from satfuse.synthetic import SceneConfig, degrade, gen_hyper_scene

from conftest import random_raster, smooth_raster


def crop(r: Raster, rows: slice, cols: slice) -> Raster:
    """The window of `r` at `rows` x `cols`, on the matching part of its grid."""
    g = r.grid
    values = r.values[:, rows, cols]
    grid = GeoGrid(g.origin_x + cols.start * g.pixel_w, g.origin_y - rows.start * g.pixel_h,
                   g.pixel_w, g.pixel_h, values.shape[2], values.shape[1])
    return Raster(grid, values, r.band_names, r.mask[rows, cols], r.wavelengths)


def windows(rng, height, width, n):
    """`n` seeded (rows, cols) windows of at least one pixel inside height x width."""
    out = []
    for _ in range(n):
        r0, r1 = sorted(rng.choice(height + 1, size=2, replace=False))
        c0, c1 = sorted(rng.choice(width + 1, size=2, replace=False))
        out.append((slice(int(r0), int(r1)), slice(int(c0), int(c1))))
    return out


def assert_same_raster(a: Raster, b: Raster):
    assert a.grid == b.grid and a.band_names == b.band_names
    assert a.values.tobytes() == b.values.tobytes()
    assert np.array_equal(a.mask, b.mask)
    assert a.wavelengths.tobytes() == b.wavelengths.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_is_symmetric(seed):
    a = random_raster(seed, 37, 29, 5, mask_fraction=0.2)
    b = random_raster(seed + 100, 37, 29, 5, mask_fraction=0.2)
    assert (evaluate(a, b, per_band=True).to_dict()
            == evaluate(b, a, per_band=True).to_dict())


class TestSimulateBandsCommutesWithCropping:
    def _check(self, cube, camera, rng, n):
        weights = fit_band_weights(synthetic_vnir_srf(), camera)
        whole = simulate_bands(cube, weights)
        for rows, cols in windows(rng, cube.grid.height, cube.grid.width, n):
            assert_same_raster(simulate_bands(crop(cube, rows, cols), weights),
                               crop(whole, rows, cols))

    def test_24_band_scene(self):
        cfg = SceneConfig(seed=3, width=160, height=120, n_bands=24)
        cube = gen_hyper_scene(cfg)
        self._check(cube, cfg.camera(), np.random.default_rng(31), 40)

    def test_default_camera(self):
        camera = default_camera()
        rng = np.random.default_rng(32)
        values = rng.uniform(0, 1, size=(camera.n_bands, 40, 48)).astype(np.float32)
        cube = Raster(GeoGrid(0.0, 5.0, 0.125, 0.125, 48, 40), values,
                      [f"hs{k}" for k in range(camera.n_bands)], rng.uniform(size=(40, 48)) > 0.2,
                      camera.centers)
        self._check(cube, camera, rng, 10)


class TestInferTiledDoesNotDependOnTheTilePlan:
    @pytest.mark.parametrize("name", ["spectral", "spatial", "spectral-rgb"])
    @pytest.mark.parametrize("width, height", [(120, 150), (97, 61)])
    def test_every_plan_gives_the_whole_image_bytes(self, name, width, height):
        arch = preset(name)
        model = build_model(arch, seed=len(name))
        r = random_raster(width, width, height, arch.in_channels, mask_fraction=0.25)
        whole = infer_tiled(model, r, tile=512, overlap=16)
        radius = arch.receptive_radius
        for tile, overlap in ((40, 16), (64, 16), (100, 16), (64, 20), (48, radius)):
            assert_same_raster(infer_tiled(model, r, tile=tile, overlap=overlap), whole)


@pytest.mark.parametrize("seed", range(4))
def test_register_follows_a_moved_fine_raster(seed):
    fine = smooth_raster(seed, 128, 128)
    coarse = degrade(fine, SceneConfig(seed=seed, width=128, height=128, shift=(3, -2), scale=8))
    sx, sy = register(fine, coarse).shift_px
    for dx, dy in ((1, 0), (0, 2), (-2, 1)):
        assert register(translate_pixels(fine, dx, dy), coarse).shift_px == (sx - dx, sy - dy)
