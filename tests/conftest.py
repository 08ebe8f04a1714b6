import tracemalloc

import numpy as np
import pytest

from satfuse.raster import GeoGrid, Raster


def make_grid(width, height, pixel=0.125, origin=(0.0, None)):
    ox, oy = origin
    if oy is None:
        oy = height * pixel
    return GeoGrid(ox, oy, pixel, pixel, width, height)


def random_raster(seed, width, height, n_bands, pixel=0.125, mask_fraction=0.0,
                  band_names=None, wavelengths=None):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=(n_bands, height, width)).astype(np.float32)
    mask = np.ones((height, width), dtype=bool)
    if mask_fraction > 0:
        mask = rng.uniform(size=(height, width)) >= mask_fraction
    if band_names is None:
        band_names = [f"b{i}" for i in range(n_bands)]
    return Raster(make_grid(width, height, pixel), values, band_names, mask, wavelengths)


def smooth_raster(seed, width, height, n_bands=3, pixel=0.125, length=6.0):
    """Spatially correlated random raster (something registration can lock onto)."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_bands, height, width))
    vals = gaussian_filter(noise, sigma=(0, length, length), mode="reflect")
    vals = 0.5 + 0.25 * vals / max(vals.std(), 1e-9)
    return Raster(
        make_grid(width, height, pixel),
        np.clip(vals, 0, 1).astype(np.float32),
        [f"b{i}" for i in range(n_bands)],
    )


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc traces while `fn(*args)` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
