"""Raster data model and resampling primitives.

A :class:`Raster` is a stack of named 32-bit band planes on a planar
:class:`GeoGrid`, with a single per-pixel validity mask shared by all bands.
Coordinates follow the usual north-up convention: ``origin_x``/``origin_y``
are the outer corner of the upper-left pixel, x grows to the right and y
*decreases* as rows advance downward (``pixel_h`` is stored positive).

All statistics and resampling arithmetic accumulate in 64-bit; stored values
stay 32-bit.

``Raster.wavelengths`` is always a float64 array with one entry per band, NaN
for a band without a wavelength; ``wavelengths=None`` at construction means
all NaN, as ``mask=None`` means all valid.

A raster owns its metadata: construction stores the band names, wavelengths
and mask as fresh copies, so later edits to the caller's list or arrays do
not reach the raster.  The values are not copied (a hyperspectral cube can
be hundreds of megabytes); they are only converted to float32 when they are
not float32 already.  A raster derived from another, on a new grid or with
new values, is ``dataclasses.replace`` of its source, which carries the band
names and wavelengths over through the same constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (COUNT, FINITE, INTEGER, POSITIVE, AlignmentError, DimensionError,
                     ValidationError, allocating, array, check_fields, instance, instances,
                     parameter)

__all__ = [
    "GeoGrid",
    "Raster",
    "block_mean",
    "upsample_bicubic",
    "stack_bands",
    "translate_pixels",
]


@dataclass(frozen=True)
class GeoGrid:
    """Planar pixel grid: upper-left corner, pixel size (m), and pixel counts."""

    origin_x: float
    origin_y: float
    pixel_w: float
    pixel_h: float
    width: int
    height: int

    def __post_init__(self):
        check_fields(self, ValidationError, ("origin_x origin_y", FINITE),
                     ("pixel_w pixel_h", POSITIVE), ("width height", COUNT))

    @property
    def x_max(self) -> float:
        return self.origin_x + self.width * self.pixel_w

    @property
    def y_min(self) -> float:
        return self.origin_y - self.height * self.pixel_h

    def pixel_center(self, row: int, col: int) -> tuple[float, float]:
        return (
            self.origin_x + (col + 0.5) * self.pixel_w,
            self.origin_y - (row + 0.5) * self.pixel_h,
        )

    def scaled(self, factor: int) -> "GeoGrid":
        """Grid with pixels `factor` times larger, same origin (for block aggregation)."""
        factor = parameter("factor", factor, *COUNT, ValidationError)
        return GeoGrid(
            self.origin_x,
            self.origin_y,
            self.pixel_w * factor,
            self.pixel_h * factor,
            self.width // factor,
            self.height // factor,
        )

    def refined(self, factor: int) -> "GeoGrid":
        """Grid with pixels `factor` times smaller, same origin (for upsampling)."""
        factor = parameter("factor", factor, *COUNT, ValidationError)
        return GeoGrid(
            self.origin_x,
            self.origin_y,
            self.pixel_w / factor,
            self.pixel_h / factor,
            self.width * factor,
            self.height * factor,
        )


@dataclass
class Raster:
    """Multi-band reflectance image on a GeoGrid.

    values
        float32 array of shape (bands, height, width).
    mask
        bool array (height, width); True marks valid pixels.  Any pixel with a
        non-finite value in any band is forced invalid at construction.
    band_names
        one name per band plane, a list (a list or tuple of strings at
        construction).
    wavelengths
        float64 array (bands,) of band-center wavelengths in nm; NaN marks a
        band without one (None at construction: all NaN).
    """

    grid: GeoGrid
    values: np.ndarray
    band_names: list[str]
    mask: np.ndarray = None
    wavelengths: np.ndarray = None

    def __post_init__(self):
        instance("grid", self.grid, GeoGrid, ValidationError)
        self.values = array("values", self.values, ValidationError, ndim=3, dtype=np.float32)
        nb, h, w = self.values.shape
        if (h, w) != (self.grid.height, self.grid.width):
            raise ValidationError(
                f"band planes {h}x{w} do not match grid {self.grid.height}x{self.grid.width}"
            )
        self.band_names = instances("band_names", self.band_names, str, ValidationError)
        if len(self.band_names) != nb:
            raise ValidationError("band_names length must equal band count")
        if self.mask is None:
            self.mask = np.ones((h, w), dtype=bool)
        else:
            self.mask = array("mask", self.mask, ValidationError, ndim=2, dtype=bool).copy()
            if self.mask.shape != (h, w):
                raise ValidationError("mask shape must match grid")
        finite = np.empty((h, w), dtype=bool)
        for band in self.values:  # a band at a time: no cube-sized temporary
            self.mask &= np.isfinite(band, out=finite)
        wl = self.wavelengths
        self.wavelengths = (np.full(nb, np.nan) if wl is None
                            else array("wavelengths", wl, ValidationError, ndim=1).copy())
        if self.wavelengths.shape != (nb,):
            raise ValidationError("wavelengths length must equal band count")

    @property
    def n_bands(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def band(self, name: str) -> np.ndarray:
        try:
            return self.values[self.band_names.index(name)]
        except ValueError:
            raise KeyError(f"no band named {name!r}") from None

    def select_bands(self, names: list[str], rename: list[str] | None = None) -> "Raster":
        names = instances("names", names, str, ValidationError)
        if rename is not None:
            rename = instances("rename", rename, str, ValidationError)
        missing = [n for n in names if n not in self.band_names]
        if missing:
            raise ValidationError(f"no band named {', '.join(map(repr, missing))}; "
                                  f"the raster has {self.band_names}")
        idx = [self.band_names.index(n) for n in names]
        names = names if rename is None else rename
        return replace(self, values=self.values[idx], band_names=names,
                       wavelengths=self.wavelengths[idx])

    def copy(self) -> "Raster":
        return replace(self, values=self.values.copy())

    def filled_values(self) -> np.ndarray:
        """float64 values with invalid pixels set to zero."""
        out = self.values.astype(np.float64)
        out[:, ~self.mask] = 0.0
        return out


def _filled_window(r: Raster, rows: slice, cols: slice) -> np.ndarray:
    """`r`'s float32 values in a window, with its invalid pixels set to zero."""
    return np.where(r.mask[rows, cols], r.values[:, rows, cols], np.float32(0))


def _require_raster(name: str, r, error=ValidationError) -> Raster:
    """The library argument `name` if it is a Raster with at least one band;
    an `error` naming it otherwise."""
    if instance(name, r, Raster, error).n_bands == 0:
        raise error(f"{name} has no bands")
    return r


def block_mean(r: Raster, factor: int) -> Raster:
    """Aggregate each factor x factor block of fine pixels into one coarse pixel.

    Output value is the mean over *valid* input pixels; the output pixel is
    invalid when fewer than half the block's pixels are valid.  Pixel size
    scales by `factor`, origin unchanged.
    """
    _require_raster("r", r)
    factor = parameter("factor", factor, *COUNT, ValidationError)
    nb, h, w = r.shape
    if h % factor or w % factor:
        raise DimensionError(
            f"dimensions {h}x{w} not divisible by factor {factor}; crop first"
        )
    ch, cw = h // factor, w // factor
    vals = r.filled_values()
    valid = r.mask

    blocks = vals.reshape(nb, ch, factor, cw, factor)
    counts = valid.reshape(ch, factor, cw, factor).sum(axis=(1, 3), dtype=np.int64)
    sums = blocks.sum(axis=(2, 4))
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return replace(r, grid=r.grid.scaled(factor), values=means, mask=counts * 2 >= factor * factor)


def _catmull_rom_weights(t: np.ndarray) -> np.ndarray:
    """Weights for the 4 taps at offsets -1,0,1,2 for fractional position t in [0,1)."""
    t2 = t * t
    t3 = t2 * t
    w = np.empty((4,) + t.shape, dtype=np.float64)
    w[0] = 0.5 * (-t3 + 2.0 * t2 - t)
    w[1] = 0.5 * (3.0 * t3 - 5.0 * t2 + 2.0)
    w[2] = 0.5 * (-3.0 * t3 + 4.0 * t2 + t)
    w[3] = 0.5 * (t3 - t2)
    return w


def _bicubic_axis_taps(n_in: int, factor: int):
    """Gather indices (4, n_out) and weights (4, n_out) for one axis."""
    j = np.arange(n_in * factor, dtype=np.float64)
    src = (j + 0.5) / factor - 0.5
    base = np.floor(src).astype(np.int64)
    t = src - base
    weights = _catmull_rom_weights(t)
    idx = np.stack([base - 1, base, base + 1, base + 2])
    np.clip(idx, 0, n_in - 1, out=idx)
    return idx, weights


def upsample_bicubic(r: Raster, factor: int) -> Raster:
    """Catmull-Rom bicubic interpolation on pixel centers with edge clamping.

    Output dimensions are the input dimensions times `factor`.  An output
    pixel is invalid when any input pixel of its (clamped) 4x4 support is
    invalid.  An output too large for NumPy or for memory is a ValidationError.
    """
    _require_raster("r", r)
    factor = parameter("factor", factor, *COUNT, ValidationError)
    if factor == 1:
        return r.copy()
    nb, h, w = r.shape
    with allocating(f"a {h * factor}x{w * factor} upsampled raster"):
        col_idx, col_w = _bicubic_axis_taps(w, factor)
        row_idx, row_w = _bicubic_axis_taps(h, factor)
    vals = r.filled_values()

    # horizontal pass: (nb, h, w) -> (nb, h, w*factor)
    gathered = vals[:, :, col_idx]                      # (nb, h, 4, w_out)
    horiz = np.einsum("bhtw,tw->bhw", gathered, col_w)
    mask_h = r.mask[:, col_idx].all(axis=1)             # (h, w_out)

    # vertical pass: (nb, h, w_out) -> (nb, h*factor, w_out)
    gathered = horiz[:, row_idx, :]                     # (nb, 4, h_out, w_out)
    out = np.einsum("bthw,th->bhw", gathered, row_w)
    out_mask = mask_h[row_idx, :].all(axis=0)
    return replace(r, grid=r.grid.refined(factor), values=out, mask=out_mask)


def stack_bands(*rasters: Raster) -> Raster:
    """Concatenate the bands of one or more rasters on one grid, in order.

    Names and wavelengths follow their bands; the output mask is the
    conjunction of the input masks.
    """
    if not rasters:
        raise ValidationError("no rasters to stack")
    for i, r in enumerate(rasters):  # raster 0 is checked before its grid is read
        if _require_raster(f"raster {i}", r).grid != rasters[0].grid:
            raise AlignmentError(f"grid mismatch: {rasters[0].grid} vs {r.grid}")
    return Raster(rasters[0].grid, np.concatenate([r.values for r in rasters]),
                  [name for r in rasters for name in r.band_names],
                  np.logical_and.reduce([r.mask for r in rasters]),
                  np.concatenate([r.wavelengths for r in rasters]))


def translate_pixels(r: Raster, dx: int, dy: int) -> Raster:
    """Move raster content by (dx, dy) whole pixels on an unchanged grid.

    Positive dx moves content toward larger columns, positive dy toward
    larger rows.  Pixels rolled in from outside the footprint are invalid.
    """
    _require_raster("r", r)
    dx, dy = (parameter(name, v, *INTEGER, ValidationError) for name, v in (("dx", dx), ("dy", dy)))
    nb, h, w = r.shape
    if abs(dx) >= w or abs(dy) >= h:
        raise DimensionError("translation exceeds raster extent")
    vals = np.zeros_like(r.values)
    mask = np.zeros_like(r.mask)

    src_r = slice(max(0, -dy), h - max(0, dy))
    src_c = slice(max(0, -dx), w - max(0, dx))
    dst_r = slice(max(0, dy), h - max(0, -dy))
    dst_c = slice(max(0, dx), w - max(0, -dx))
    vals[:, dst_r, dst_c] = r.values[:, src_r, src_c]
    mask[dst_r, dst_c] = r.mask[src_r, src_c]
    return replace(r, values=vals, mask=mask)
