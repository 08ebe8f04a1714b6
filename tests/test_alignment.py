import numpy as np
import pytest

from satfuse import alignment
from satfuse.alignment import register, score_shift, snap_to_grid
from satfuse.errors import AlignmentError, CoverageError, GeometryError, ValidationError
from satfuse.raster import GeoGrid, Raster, block_mean
from satfuse.synthetic import SceneConfig, degrade

from conftest import make_grid, random_raster


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


class TestSnapToGrid:
    def coarse_grid(self, ox=0.0, oy=20.0, pixel=10.0, n=2):
        return GeoGrid(ox, oy, pixel, pixel, n, n)

    def test_identity_crop_when_already_aligned(self):
        fine = random_raster(0, 160, 160, 2)  # 0.125 m pixels, origin (0, 20)
        out = snap_to_grid(fine, self.coarse_grid(), 0.125)
        assert out.grid == fine.grid
        assert np.array_equal(out.values, fine.values)

    def test_offset_origin_snaps_and_contains(self):
        # fine origin off by +0.06 m: output origin must land on a coarse corner
        pixel = 0.125
        g = GeoGrid(0.06, 20.06, pixel, pixel, 170, 170)
        rng = np.random.default_rng(1)
        fine = Raster(g, rng.uniform(0, 1, (1, 170, 170)).astype(np.float32), ["b0"])
        coarse = self.coarse_grid()
        out = snap_to_grid(fine, coarse, pixel)
        # origin coincides with a coarse pixel corner
        assert (out.grid.origin_x - coarse.origin_x) % coarse.pixel_w == pytest.approx(0, abs=1e-9)
        assert (coarse.origin_y - out.grid.origin_y) % coarse.pixel_h == pytest.approx(0, abs=1e-9)
        # geometric containment oracle: every output pixel center falls inside
        # exactly one coarse pixel, and output pixels tile coarse cells exactly
        ratio = round(coarse.pixel_w / pixel)
        assert out.grid.width % ratio == 0 and out.grid.height % ratio == 0
        for row in (0, out.grid.height - 1):
            for col in (0, out.grid.width - 1):
                x, y = out.grid.pixel_center(row, col)
                jj = (x - coarse.origin_x) / coarse.pixel_w
                ii = (coarse.origin_y - y) / coarse.pixel_h
                # strictly interior to a single coarse pixel
                assert 0 < jj % 1 < 1 and 0 < ii % 1 < 1

    def test_80_fine_per_coarse(self):
        coarse = GeoGrid(0.0, 10.0, 10.0, 10.0, 1, 1)
        fine = random_raster(2, 90, 90, 1)
        fine = Raster(GeoGrid(-0.3, 10.4, 0.125, 0.125, 90, 90), fine.values, ["b0"])
        out = snap_to_grid(fine, coarse, 0.125)
        assert out.grid.width == 80 and out.grid.height == 80

    def test_nearest_neighbor_from_finer_input(self):
        # 0.0625 m input resampled to 0.125 m target: picks nearest source pixel
        g = GeoGrid(0.0, 20.0, 0.0625, 0.0625, 320, 320)
        rng = np.random.default_rng(3)
        fine = Raster(g, rng.uniform(0, 1, (1, 320, 320)).astype(np.float32), ["b0"])
        out = snap_to_grid(fine, self.coarse_grid(), 0.125)
        assert out.grid.pixel_w == 0.125
        # output center (0,0) at (0.0625, 19.9375) -> source col 1, row 1
        assert out.values[0, 0, 0] == fine.values[0, 1, 1]

    def test_non_integral_ratio(self):
        fine = random_raster(0, 16, 16, 1)
        with pytest.raises(GeometryError):
            snap_to_grid(fine, self.coarse_grid(), 0.3)

    @pytest.mark.parametrize("target", [0.0, -0.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_target_pixel(self, target):
        fine = random_raster(0, 16, 16, 1)
        with pytest.raises(GeometryError, match="positive, finite pixel size"):
            snap_to_grid(fine, self.coarse_grid(), target)

    def test_empty_coverage(self):
        fine = random_raster(0, 16, 16, 1)  # 2 m footprint
        with pytest.raises(CoverageError):
            snap_to_grid(fine, GeoGrid(100.0, 100.0, 10.0, 10.0, 2, 2), 0.125)

    def test_invalid_edge_cropped(self):
        fine = random_raster(4, 240, 240, 1)  # 30 m footprint at (0, 30)
        fine.mask[:, :85] = False  # kill the first 10.6 m of columns
        coarse = GeoGrid(0.0, 30.0, 10.0, 10.0, 3, 3)
        out = snap_to_grid(fine, coarse, 0.125)
        # first fully valid coarse column starts at x = 20
        assert out.grid.origin_x == pytest.approx(20.0)
        assert out.grid.width == 80


class TestScoreShift:
    def test_self_consistency_zero_shift(self):
        fine = smooth_raster(0, 128, 128)
        coarse = block_mean(fine, 8)
        res = score_shift(fine, coarse, (0, 0))
        assert res.score < 1e-10
        assert np.allclose(res.gains, 1.0, atol=1e-5)
        assert np.allclose(res.offsets, 0.0, atol=1e-5)

    def test_constructed_affine_relation(self):
        fine = smooth_raster(1, 128, 128)
        cm = block_mean(fine, 8)
        coarse = Raster(cm.grid, (0.8 * cm.values + 0.05).astype(np.float32), cm.band_names)
        res = score_shift(fine, coarse, (0, 0))
        assert res.score < 1e-9
        assert np.allclose(res.gains, 0.8, atol=1e-4)
        assert np.allclose(res.offsets, 0.05, atol=1e-4)

    def test_shifted_scores_worse(self):
        fine = smooth_raster(2, 128, 128)
        coarse = block_mean(fine, 8)
        s0 = score_shift(fine, coarse, (0, 0)).score
        s40 = score_shift(fine, coarse, (5, 3)).score
        assert s40 > s0

    def test_prefix_sums_match_naive_loop(self):
        fine = smooth_raster(3, 96, 96, n_bands=2)
        fine.mask[10:30, 40:70] = False
        coarse = block_mean(fine, 8)
        S = 8
        rng = np.random.default_rng(0)
        for _ in range(6):
            dx, dy = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
            got = score_shift(fine, coarse, (dx, dy))
            # naive per-block loop
            xs, ys = [], []
            for I in range(coarse.grid.height):
                for J in range(coarse.grid.width):
                    r0, c0 = I * S - dy, J * S - dx
                    if r0 < 0 or c0 < 0 or r0 + S > 96 or c0 + S > 96:
                        continue
                    blk_mask = fine.mask[r0 : r0 + S, c0 : c0 + S]
                    if not blk_mask.all() or not coarse.mask[I, J]:
                        continue
                    xs.append(fine.values[:, r0 : r0 + S, c0 : c0 + S].astype(np.float64).mean(axis=(1, 2)))
                    ys.append(coarse.values[:, I, J].astype(np.float64))
            xs = np.array(xs).T
            ys = np.array(ys).T
            assert got.n_cells == xs.shape[1]
            score = 0.0
            for b in range(xs.shape[0]):
                x, y = xs[b], ys[b]
                gain = np.cov(x, y, bias=True)[0, 1] / np.var(x)
                off = y.mean() - gain * x.mean()
                score += float(((y - gain * x - off) ** 2).sum())
            assert got.score == pytest.approx(score, abs=1e-6 * max(1.0, score))

    def test_coverage_error(self):
        fine = smooth_raster(4, 32, 32)  # only 4x4=16 coarse cells at scale 8
        coarse = block_mean(fine, 8)
        with pytest.raises(CoverageError):
            score_shift(fine, coarse, (31, 0))

    def test_unaligned_grids_rejected(self):
        fine = smooth_raster(5, 64, 64)
        coarse = block_mean(fine, 8)
        moved = Raster(
            GeoGrid(coarse.grid.origin_x + 0.01, coarse.grid.origin_y,
                    coarse.grid.pixel_w, coarse.grid.pixel_h,
                    coarse.grid.width, coarse.grid.height),
            coarse.values, coarse.band_names)
        with pytest.raises(AlignmentError):
            score_shift(fine, moved, (0, 0))


def brute_force_register(fine, coarse, radius):
    best = None
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            try:
                res = score_shift(fine, coarse, (dx, dy))
            except CoverageError:
                continue
            key = (res.score, dx * dx + dy * dy, dx, dy)
            if best is None or key < best[0]:
                best = (key, (dx, dy))
    return best[1]


class TestRegister:
    def test_zero_shift_recovered(self):
        fine = smooth_raster(10, 128, 128)
        coarse = block_mean(fine, 8)
        est = register(fine, coarse)
        assert est.shift_px == (0, 0)
        assert est.shift_x == 0.0 and est.shift_y == 0.0

    def test_known_shift_recovered_with_sign_convention(self):
        fine = smooth_raster(11, 256, 256)
        cfg = SceneConfig(seed=0, width=256, height=256, shift=(3, -5), scale=8)
        coarse = degrade(fine, cfg)
        est = register(fine, coarse)
        assert est.shift_px == (-3, 5)
        assert est.shift_x == pytest.approx(-3 * 0.125)
        assert est.shift_y == pytest.approx(5 * 0.125)

    def test_matches_full_grid_oracle(self):
        # 32-coarse-pixel scene (8x4), exhaustive stride-1 search as oracle
        fine = smooth_raster(12, 64, 32, n_bands=2, length=3.0)
        cfg = SceneConfig(seed=1, width=64, height=32, shift=(2, 1), scale=8)
        coarse = degrade(fine, cfg)
        est = register(fine, coarse)
        assert est.shift_px == brute_force_register(fine, coarse, 8)

    def test_deterministic(self):
        fine = smooth_raster(13, 128, 128)
        cfg = SceneConfig(seed=3, width=128, height=128, shift=(-4, 6), scale=8)
        coarse = degrade(fine, cfg)
        a = register(fine, coarse)
        b = register(fine, coarse)
        assert a.shift_px == b.shift_px
        assert a.score == b.score
        assert a.score_grid == b.score_grid

    def test_registration_reduces_error(self):
        fine = smooth_raster(14, 128, 128)
        cfg = SceneConfig(seed=4, width=128, height=128, shift=(6, -2), scale=8)
        coarse = degrade(fine, cfg)
        est = register(fine, coarse)
        unregistered = score_shift(fine, coarse, (0, 0)).score
        assert est.score < unregistered

    def test_cross_band_regression_rgb_vs_multiband(self):
        # RGB fine against an 8-band coarse: multivariate regression path.
        # The 8 bands mix the same 3 latent fields the RGB bands carry.
        latent = smooth_raster(15, 128, 128, n_bands=3)
        rng = np.random.default_rng(16)
        mix = rng.uniform(0.1, 0.9, size=(8, 3))
        mix /= mix.sum(axis=1, keepdims=True)  # convex rows: no [0, 1] clipping
        vals8 = np.tensordot(mix, latent.values.astype(np.float64), axes=([1], [0]))
        fine8 = Raster(latent.grid, vals8.astype(np.float32), [f"s{i}" for i in range(8)])
        coarse = block_mean(fine8, 8)
        rgb = Raster(latent.grid, latent.values, ["red", "green", "blue"])
        est = register(rgb, coarse)
        assert est.shift_px == (0, 0)
        assert est.gains.shape == (8, 3)


class TestShiftAndBandsChecked:
    @pytest.mark.parametrize("shift", [(1.5, 0), (0, 2.5), (True, 0), (0, False),
                                       (np.nan, 0), (np.inf, 0), (0, -np.inf), (np.float32(0.5), 0),
                                       "ab", "12", (1,), (1, 2, 3), 3, None, (None, 0), 10**30,
                                       ("1", 0), (0, np.True_)])
    def test_shift_that_is_not_two_integers_refused(self, shift):
        # (1.5, 0) used to be scored as (1, 0) and (True, 0) as (1, 0); nan,
        # inf, a string, a 1-tuple and 10**30 escaped as ValueError,
        # OverflowError or IndexError
        fine = smooth_raster(0, 64, 64)
        with pytest.raises(ValidationError, match="shift"):
            score_shift(fine, block_mean(fine, 8), shift)

    def test_integral_floats_and_numpy_ints_score_as_ints(self):
        fine = smooth_raster(1, 64, 64)
        coarse = block_mean(fine, 8)
        want = score_shift(fine, coarse, (2, -1))
        for shift in [(2.0, -1.0), (np.int64(2), np.int32(-1)), np.array([2, -1])]:
            assert score_shift(fine, coarse, shift).score == want.score

    def test_huge_shift_leaves_no_coverage(self):
        fine = smooth_raster(2, 64, 64)
        with pytest.raises(CoverageError):
            score_shift(fine, block_mean(fine, 8), (10**30, 0))

    @pytest.mark.parametrize("empty_side", ["fine", "coarse"])
    def test_raster_without_bands_refused(self, empty_side):
        # a 0-band coarse raster used to register at shift (0, 0)
        fine = smooth_raster(3, 64, 64)
        coarse = block_mean(fine, 8)
        rasters = {"fine": fine, "coarse": coarse}
        r = rasters[empty_side]
        rasters[empty_side] = Raster(r.grid, r.values[:0], [])
        with pytest.raises(ValidationError, match="no bands"):
            register(rasters["fine"], rasters["coarse"])
        with pytest.raises(ValidationError, match="no bands"):
            score_shift(rasters["fine"], rasters["coarse"], (0, 0))


class FourCornerBlockMeans:
    """Shift scoring as it was before the box-sum images: prefix sums of the
    fine raster, and four fancy-index gathers of them for every candidate."""

    def __init__(self, fine):
        vals = fine.filled_values()
        nb, H, W = vals.shape
        self.vsum = np.zeros((nb, H + 1, W + 1))
        self.vsum[:, 1:, 1:] = vals.cumsum(axis=1).cumsum(axis=2)
        self.csum = np.zeros((H + 1, W + 1))
        self.csum[1:, 1:] = fine.mask.astype(np.float64).cumsum(axis=0).cumsum(axis=1)

    def __call__(self, ctx, shift):
        dx, dy = int(shift[0]), int(shift[1])
        sx, sy = ctx.sx, ctx.sy
        ch, cw = ctx.cmask.shape
        r0 = ctx.offy + np.arange(ch) * sy - dy
        c0 = ctx.offx + np.arange(cw) * sx - dx
        ok_r = (r0 >= 0) & (r0 + sy <= ctx.H)
        ok_c = (c0 >= 0) & (c0 + sx <= ctx.W)
        if not ok_r.any() or not ok_c.any():
            return None
        R0 = r0[ok_r][:, None]
        C0 = c0[ok_c][None, :]
        counts = (
            self.csum[R0 + sy, C0 + sx]
            - self.csum[R0, C0 + sx]
            - self.csum[R0 + sy, C0]
            + self.csum[R0, C0]
        )
        full = (counts == sx * sy) & ctx.cmask[ok_r][:, ok_c]
        if not full.any():
            return None
        sums = (
            self.vsum[:, R0 + sy, C0 + sx]
            - self.vsum[:, R0, C0 + sx]
            - self.vsum[:, R0 + sy, C0]
            + self.vsum[:, R0, C0]
        )
        return sums[:, full] / (sx * sy), ctx.cvals[:, ok_r][:, :, ok_c][:, full]


def shifted_scene():
    fine = smooth_raster(30, 128, 96, n_bands=3)
    return fine, degrade(fine, SceneConfig(seed=5, width=128, height=96, shift=(3, -5), scale=8))


def masked_scene():
    fine = smooth_raster(31, 128, 128, n_bands=2)
    fine.mask[20:37, 50:83] = False
    fine.mask[90, 7] = False
    coarse = block_mean(smooth_raster(31, 128, 128, n_bands=2), 8)
    coarse.mask[6, 9] = False
    return fine, coarse


def clipped_scene():
    # the coarse grid starts 3 fine pixels below the top of the fine raster
    # and 11 to the left of it, and reaches past it on the right and at the
    # bottom: every edge of the fine footprint cuts through coarse cells
    big = smooth_raster(32, 200, 200, n_bands=2)
    whole = block_mean(big, 8)
    g, cg = big.grid, whole.grid
    coarse = Raster(GeoGrid(cg.origin_x, cg.origin_y - 2 * cg.pixel_h, cg.pixel_w, cg.pixel_h,
                            cg.width, cg.height - 2), whole.values[:, 2:], whole.band_names)
    r0, c0, h, w = 13, 11, 150, 170
    grid = GeoGrid(g.origin_x + c0 * g.pixel_w, g.origin_y - r0 * g.pixel_h,
                   g.pixel_w, g.pixel_h, w, h)
    return Raster(grid, big.values[:, r0:r0 + h, c0:c0 + w], big.band_names), coarse


def multivariate_scene():
    latent = smooth_raster(33, 128, 128, n_bands=3)
    rng = np.random.default_rng(34)
    mix = rng.uniform(0.1, 0.9, size=(8, 3))
    mix /= mix.sum(axis=1, keepdims=True)
    vals8 = np.tensordot(mix, latent.values.astype(np.float64), axes=([1], [0]))
    coarse = block_mean(Raster(latent.grid, vals8.astype(np.float32), [f"s{i}" for i in range(8)]), 8)
    fine = Raster(latent.grid, latent.values, ["red", "green", "blue"])
    return fine, coarse


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def result_bits(r):
    return None if r is None else (bits(r.score), bits(r.gains), bits(r.offsets), r.n_cells)


class TestBoxSumsMatchFourCorners:
    """Scores from the box-sum images equal, bit for bit, the scores from the
    per-candidate four-corner gather they replace."""

    SCENES = {"shifted": shifted_scene, "masked": masked_scene,
              "clipped": clipped_scene, "multivariate": multivariate_scene}

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_every_score_and_register_match(self, scene, monkeypatch):
        fine, coarse = self.SCENES[scene]()
        ctx = alignment._ScoreContext(fine, coarse)
        # every candidate register may try, and a margin of shifts that
        # leave fewer cells or none
        shifts = [(dx, dy) for dy in range(-ctx.sy - 4, ctx.sy + 5)
                  for dx in range(-ctx.sx - 4, ctx.sx + 5)]
        got = [result_bits(ctx.score(shift)) for shift in shifts]
        est = register(fine, coarse)

        oracle = FourCornerBlockMeans(fine)
        monkeypatch.setattr(alignment._ScoreContext, "block_means",
                            lambda ctx, shift: oracle(ctx, shift))
        want = [result_bits(ctx.score(shift)) for shift in shifts]
        ref = register(fine, coarse)

        for shift, g, w in zip(shifts, got, want):
            assert g == w, shift
        assert sum(g is not None for g in got) > 200
        assert est.shift_px == ref.shift_px
        assert (est.shift_x, est.shift_y) == (ref.shift_x, ref.shift_y)
        assert est.score_grid == ref.score_grid and est.evaluations > 100
        assert bits(est.score) == bits(ref.score)
        assert bits(est.gains) == bits(ref.gains) and bits(est.offsets) == bits(ref.offsets)
