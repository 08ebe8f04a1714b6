"""Cross-platform pixel alignment and translation registration.

Two stages mirror the field workflow.  First the fine (camera) raster is
snapped onto the coarse (satellite) grid so that its upper-left corner
coincides with a coarse pixel corner and every fine pixel lies inside exactly
one coarse pixel.  Second, the residual georeferencing error is estimated by
scoring every candidate translation of the fine image within one coarse
pixel: the fine image is shifted by whole fine pixels, block-averaged onto
the coarse grid, and a linear regression of coarse values on the block means
measures the disagreement.  The block sums come from a box-sum image built
once per call (the sum of the block at every fine pixel position, from
prefix sums); the blocks under the coarse cells of one candidate are one
strided view of it, so a candidate costs O(cells) and no gathers.
The shift with the lowest summed residual wins; the coarse image is never
resampled or modified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (PAIR, AlignmentError, CoverageError, GeometryError, ValidationError,
                     instance, parameter, real_number)
from .raster import GeoGrid, Raster, _require_raster

__all__ = ["ShiftEstimate", "ScoreResult", "snap_to_grid", "score_shift", "register"]

MIN_COVER_CELLS = 16
_EPS = 1e-9
# `register`'s search, in fine pixels: the lattice stride, then the radius
# of the stride-1 search around the lattice optimum
_LATTICE_STRIDE = 8
_REFINE_RADIUS = 8


@dataclass
class ScoreResult:
    """Regression fit of coarse values on shifted fine block means."""

    score: float                 # summed residual sum of squares over bands
    gains: np.ndarray            # per coarse band (or matrix for cross-band fits)
    offsets: np.ndarray
    n_cells: int


@dataclass
class ShiftEstimate:
    """Best translation of the fine image, in fine pixels and meters.

    ``shift_x``/``shift_y`` use the pixel-axis convention: positive x moves
    content toward larger columns, positive y toward larger rows.
    """

    shift_px: tuple[int, int]
    shift_x: float
    shift_y: float
    score: float
    gains: np.ndarray
    offsets: np.ndarray
    score_grid: list[tuple[tuple[int, int], float]]

    @property
    def evaluations(self) -> int:
        return len(self.score_grid)


def _int_ratio(a: float, b: float, what: str) -> int:
    ratio = a / b
    r = round(ratio)
    if r < 1 or abs(ratio - r) > 1e-6 * max(1.0, abs(ratio)):
        raise GeometryError(f"{what}: {a} is not an integer multiple of {b}")
    return int(r)


def snap_to_grid(fine: Raster, coarse_grid: GeoGrid, target_pixel: float) -> Raster:
    """Resample a fine raster onto the coarse sensor grid.

    The output origin is the coarse pixel corner nearest the fine origin, the
    pixel size is `target_pixel` (the coarse pixel must be an exact integer
    multiple of it), values come from nearest-neighbor sampling of the fine
    input, and the extent is cropped to whole coarse pixels fully covered by
    valid fine data.
    """
    _require_raster("fine", fine)
    instance("coarse_grid", coarse_grid, GeoGrid, ValidationError)
    target_pixel = parameter("target_pixel", target_pixel, real_number, lambda v: v > 0,
                             "a positive, finite pixel size", GeometryError)
    rx = _int_ratio(coarse_grid.pixel_w, target_pixel, "coarse pixel width / target")
    ry = _int_ratio(coarse_grid.pixel_h, target_pixel, "coarse pixel height / target")

    fg = fine.grid
    cw, ch = coarse_grid.pixel_w, coarse_grid.pixel_h
    # nearest coarse pixel corner to the fine upper-left corner
    ox = coarse_grid.origin_x + round((fg.origin_x - coarse_grid.origin_x) / cw) * cw
    oy = coarse_grid.origin_y - round((coarse_grid.origin_y - fg.origin_y) / ch) * ch

    # coarse cells fully inside the fine footprint
    eps_x, eps_y = _EPS * cw, _EPS * ch
    j0 = int(np.ceil((fg.origin_x - ox) / cw - eps_x))
    j1 = int(np.floor((fg.x_max - ox) / cw + eps_x)) - 1
    i0 = int(np.ceil((oy - fg.origin_y) / ch - eps_y))
    i1 = int(np.floor((oy - fg.y_min) / ch + eps_y)) - 1
    if j1 < j0 or i1 < i0:
        raise CoverageError("fine raster does not fully cover any coarse pixel")

    gx0 = ox + j0 * cw
    gy0 = oy - i0 * ch
    out_w = (j1 - j0 + 1) * rx
    out_h = (i1 - i0 + 1) * ry

    # nearest-neighbor source indices for each output pixel center
    xc = gx0 + (np.arange(out_w) + 0.5) * target_pixel
    yc = gy0 - (np.arange(out_h) + 0.5) * target_pixel
    col = np.floor((xc - fg.origin_x) / fg.pixel_w + _EPS).astype(np.int64)
    row = np.floor((fg.origin_y - yc) / fg.pixel_h + _EPS).astype(np.int64)
    in_x = (col >= 0) & (col < fg.width)
    in_y = (row >= 0) & (row < fg.height)
    col_c = np.clip(col, 0, fg.width - 1)
    row_c = np.clip(row, 0, fg.height - 1)

    values = fine.values[:, row_c[:, None], col_c[None, :]]
    mask = fine.mask[row_c[:, None], col_c[None, :]] & in_y[:, None] & in_x[None, :]

    # shrink the extent to the bounding box of fully-valid coarse cells
    cell_valid = mask.reshape(i1 - i0 + 1, ry, j1 - j0 + 1, rx).all(axis=(1, 3))
    rows_ok = np.flatnonzero(cell_valid.any(axis=1))
    cols_ok = np.flatnonzero(cell_valid.any(axis=0))
    if rows_ok.size == 0:
        raise CoverageError("no coarse pixel is fully covered by valid fine data")
    ra, rb = rows_ok[0], rows_ok[-1] + 1
    ca, cb = cols_ok[0], cols_ok[-1] + 1

    grid = GeoGrid(
        origin_x=gx0 + ca * cw,
        origin_y=gy0 - ra * ch,
        pixel_w=target_pixel,
        pixel_h=target_pixel,
        width=(cb - ca) * rx,
        height=(rb - ra) * ry,
    )
    sl_r = slice(ra * ry, rb * ry)
    sl_c = slice(ca * rx, cb * rx)
    return replace(fine, grid=grid, values=values[:, sl_r, sl_c], mask=mask[sl_r, sl_c])


# ---------------------------------------------------------------------------
# shift scoring


def _box_sums(a: np.ndarray, sy: int, sx: int) -> np.ndarray:
    """Sum of every ``sy`` x ``sx`` window of the last two axes of `a`, at
    the window's upper-left pixel (r, c): with prefix sums ``S``,
    ``S[r+sy, c+sx] - S[r, c+sx] - S[r+sy, c] + S[r, c]``, in that order."""
    *lead, H, W = a.shape
    S = np.zeros((*lead, H + 1, W + 1))
    np.cumsum(a, axis=-2, out=S[..., 1:, 1:])
    np.cumsum(S[..., 1:, 1:], axis=-1, out=S[..., 1:, 1:])
    box = S[..., sy:, sx:] - S[..., :-sy, sx:]
    box -= S[..., sy:, :-sx]
    box += S[..., :-sy, :-sx]
    return box


def _covered(off: int, step: int, size: int, n: int):
    """Cells k < n whose block, ``step`` pixels from ``off + k*step``, lies
    inside ``[0, size)``: their slice, and the strided slice of their block
    starts, or None when there are none."""
    k0 = max(0, -(off // step))
    k1 = min(n, (size - off) // step)
    if k0 >= k1:
        return None
    return slice(k0, k1), slice(off + k0 * step, off + k1 * step, step)


class _ScoreContext:
    """Box-sum images of the fine values (``box``) and valid-pixel mask
    (``count``) plus the coarse arrays, built once.  The blocks under the
    coarse cells of one candidate shift form one strided view of each image.
    """

    def __init__(self, fine: Raster, coarse: Raster):
        _require_raster("fine", fine)
        _require_raster("coarse", coarse)
        sx = _int_ratio(coarse.grid.pixel_w, fine.grid.pixel_w, "pixel width ratio")
        sy = _int_ratio(coarse.grid.pixel_h, fine.grid.pixel_h, "pixel height ratio")
        offx = (coarse.grid.origin_x - fine.grid.origin_x) / fine.grid.pixel_w
        offy = (fine.grid.origin_y - coarse.grid.origin_y) / fine.grid.pixel_h
        if abs(offx - round(offx)) > 1e-6 or abs(offy - round(offy)) > 1e-6:
            raise AlignmentError(
                "fine raster is not snapped to the coarse grid (origins are "
                "not a whole number of fine pixels apart)"
            )
        self.sx, self.sy = sx, sy
        self.offx, self.offy = int(round(offx)), int(round(offy))
        self.H, self.W = fine.grid.height, fine.grid.width
        self.shared_bands = fine.band_names == coarse.band_names
        self.box = _box_sums(fine.filled_values(), sy, sx)
        self.count = _box_sums(fine.mask.astype(np.float64), sy, sx)
        self.cvals = coarse.values.astype(np.float64)
        self.cmask = coarse.mask

    def block_means(self, shift: tuple[int, int]):
        """Means of shifted fine blocks under each coarse cell.

        Returns (means (nb, n), coarse values (ncb, n)) for cells fully
        inside the shifted footprint with every fine pixel valid, or None
        when no cell qualifies.
        """
        dx, dy = shift
        sx, sy = self.sx, self.sy
        # coarse cell (I, J) reads the fine block starting at
        # (offy + I*sy - dy, offx + J*sx - dx); the cells whose block lies
        # inside the fine raster form one range per axis
        rows = _covered(self.offy - dy, sy, self.H, self.cmask.shape[0])
        cols = _covered(self.offx - dx, sx, self.W, self.cmask.shape[1])
        if rows is None or cols is None:
            return None
        (cells_r, blocks_r), (cells_c, blocks_c) = rows, cols
        full = (self.count[blocks_r, blocks_c] == sx * sy) & self.cmask[cells_r, cells_c]
        if not full.any():
            return None
        means = self.box[:, blocks_r, blocks_c][:, full] / (sx * sy)
        cvals = self.cvals[:, cells_r, cells_c][:, full]
        return means, cvals

    def score(self, shift: tuple[int, int]) -> ScoreResult | None:
        blocks = self.block_means(shift)
        if blocks is None:
            return None
        means, cvals = blocks
        n = means.shape[1]
        if n < MIN_COVER_CELLS:
            return None
        if self.shared_bands:
            return _regress_univariate(means, cvals, n)
        return _regress_multivariate(means, cvals, n)


def _regress_univariate(x: np.ndarray, y: np.ndarray, n: int) -> ScoreResult:
    """Per-band gain+offset fit of coarse values on fine block means."""
    mx = x.mean(axis=1)
    my = y.mean(axis=1)
    xc = x - mx[:, None]
    yc = y - my[:, None]
    var = (xc * xc).sum(axis=1)
    cov = (xc * yc).sum(axis=1)
    gains = np.where(var > 0, cov / np.where(var > 0, var, 1.0), 0.0)
    offsets = my - gains * mx
    resid = yc - gains[:, None] * xc
    return ScoreResult(float((resid * resid).sum()), gains, offsets, n)


def _regress_multivariate(x: np.ndarray, y: np.ndarray, n: int) -> ScoreResult:
    """Each coarse band on all fine block-mean bands plus an intercept."""
    X1 = np.concatenate([x.T, np.ones((n, 1))], axis=1)
    coef, *_ = np.linalg.lstsq(X1, y.T, rcond=None)
    resid = y.T - X1 @ coef
    return ScoreResult(float((resid * resid).sum()), coef[:-1].T, coef[-1].copy(), n)


def score_shift(fine: Raster, coarse: Raster, shift: tuple[int, int]) -> ScoreResult:
    """Score one candidate translation (fine-pixel offsets) of the fine image."""
    shift = parameter("shift", shift, *PAIR, ValidationError)
    result = _ScoreContext(fine, coarse).score(shift)
    if result is None:
        raise CoverageError(
            f"shift {shift} leaves fewer than {MIN_COVER_CELLS} fully covered coarse pixels"
        )
    return result


def _search(ctx: _ScoreContext, candidates, seen, score_grid):
    best = None
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        result = ctx.score(cand)
        if result is None:
            continue
        score_grid.append((cand, result.score))
        key = (result.score, cand[0] ** 2 + cand[1] ** 2, cand[0], cand[1])
        if best is None or key < best[0]:
            best = (key, cand, result)
    return best


def register(fine: Raster, coarse: Raster) -> ShiftEstimate:
    """Find the fine-image translation best matching the coarse raster.

    Coarse-to-fine search: a stride-8 lattice over +-1 coarse pixel in each
    axis, then stride-1 within +-8 fine pixels of the lattice optimum.  Ties
    break toward the smallest Euclidean shift, then lexicographically
    (x, then y), so the result is independent of evaluation order.
    """
    ctx = _ScoreContext(fine, coarse)
    sx, sy = ctx.sx, ctx.sy
    seen: set[tuple[int, int]] = set()
    score_grid: list[tuple[tuple[int, int], float]] = []

    lattice = [
        (dx, dy)
        for dy in range(-sy, sy + 1, _LATTICE_STRIDE)
        for dx in range(-sx, sx + 1, _LATTICE_STRIDE)
    ]
    best = _search(ctx, lattice, seen, score_grid)
    if best is None:
        raise CoverageError("no candidate shift leaves enough covered coarse pixels")

    bx, by = best[1]
    refine = [
        (dx, dy)
        for dy in range(max(-sy, by - _REFINE_RADIUS), min(sy, by + _REFINE_RADIUS) + 1)
        for dx in range(max(-sx, bx - _REFINE_RADIUS), min(sx, bx + _REFINE_RADIUS) + 1)
    ]
    refined = _search(ctx, refine, seen, score_grid)
    if refined is not None and refined[0] < best[0]:
        best = refined

    (shift, result) = best[1], best[2]
    return ShiftEstimate(
        shift_px=shift,
        shift_x=shift[0] * fine.grid.pixel_w,
        shift_y=shift[1] * fine.grid.pixel_h,
        score=result.score,
        gains=result.gains,
        offsets=result.offsets,
        score_grid=score_grid,
    )
