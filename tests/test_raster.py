import numpy as np
import pytest

from satfuse.alignment import snap_to_grid
from satfuse.errors import AlignmentError, DimensionError, ValidationError
from satfuse.raster import (
    GeoGrid,
    Raster,
    block_mean,
    stack_bands,
    translate_pixels,
    upsample_bicubic,
)
from satfuse.synthetic import SceneConfig, degrade

from conftest import make_grid, random_raster


class TestGeoGrid:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            GeoGrid(0, 0, -1.0, 1.0, 4, 4)
        with pytest.raises(ValidationError):
            GeoGrid(0, 0, 1.0, 1.0, 0, 4)

    @pytest.mark.parametrize("field, bad", [(0, np.nan), (0, np.inf), (1, -np.inf),
                                            (1, np.nan), (2, np.inf), (3, np.inf)])
    def test_non_finite_origin_or_infinite_pixel_size_refused(self, field, bad):
        # snap_to_grid on such a grid used to end in OverflowError or ValueError
        args = [0.0, 20.0, 10.0, 10.0]
        args[field] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            GeoGrid(*args, 2, 2)

    def test_pixel_center(self):
        g = GeoGrid(100.0, 200.0, 10.0, 10.0, 4, 4)
        assert g.pixel_center(0, 0) == (105.0, 195.0)
        assert g.pixel_center(3, 3) == (135.0, 165.0)


class TestRaster:
    def test_nonfinite_values_masked(self):
        g = make_grid(2, 2)
        vals = np.array([[[0.1, np.nan], [0.3, 0.4]]], dtype=np.float32)
        r = Raster(g, vals, ["b0"])
        assert not r.mask[0, 1]
        assert r.mask[0, 0] and r.mask[1, 0] and r.mask[1, 1]

    def test_shape_validation(self):
        g = make_grid(2, 2)
        with pytest.raises(ValidationError):
            Raster(g, np.zeros((1, 3, 2), dtype=np.float32), ["b0"])
        with pytest.raises(ValidationError):
            Raster(g, np.zeros((1, 2, 2), dtype=np.float32), ["b0", "b1"])

    def test_wavelengths_default_to_nan(self):
        r = random_raster(0, 3, 3, 4)
        assert r.wavelengths.dtype == np.float64
        assert r.wavelengths.shape == (4,)
        assert np.isnan(r.wavelengths).all()

    def test_band_lookup(self):
        r = random_raster(0, 3, 3, 2, band_names=["red", "nir"])
        assert np.array_equal(r.band("nir"), r.values[1])
        with pytest.raises(KeyError):
            r.band("blue")

    def test_select_missing_band_names_it(self):
        r = random_raster(0, 3, 3, 2, band_names=["red", "nir"])
        with pytest.raises(ValidationError, match="'zz'"):
            r.select_bands(["nir", "zz"])


# every operation that derives a raster from one source raster
DERIVE = {
    "copy": Raster.copy,
    "select_bands": lambda r: r.select_bands(["b2", "b0"]),
    "select_bands-rename": lambda r: r.select_bands(["b1"], rename=["nir"]),
    "block_mean": lambda r: block_mean(r, 2),
    "upsample_bicubic": lambda r: upsample_bicubic(r, 2),
    "upsample_bicubic-factor-1": lambda r: upsample_bicubic(r, 1),
    "translate_pixels": lambda r: translate_pixels(r, 1, -1),
    "snap_to_grid": lambda r: snap_to_grid(r, GeoGrid(0.0, 2.0, 1.0, 1.0, 2, 2), 0.125),
    "degrade": lambda r: degrade(r, SceneConfig(width=16, height=16, scale=4, shift=(1, 0))),
}


class TestOwnership:
    """A raster keeps its own band names, wavelengths and mask; values are shared."""

    def test_caller_edits_do_not_reach_the_raster(self):
        names, wl = ["a", "b"], np.array([500.0, 600.0])
        values, mask = np.zeros((2, 2, 2), dtype=np.float32), np.ones((2, 2), dtype=bool)
        r = Raster(make_grid(2, 2), values, names, mask, wl)
        names.append("c")
        wl[0] = 1.0
        mask[0, 0] = False
        assert r.band_names == ["a", "b"]
        assert r.wavelengths.tolist() == [500.0, 600.0]
        assert r.mask.all()
        assert r.values is values

    @pytest.mark.parametrize("name", sorted(DERIVE))
    def test_derived_raster_shares_no_metadata(self, name):
        src = random_raster(3, 16, 16, 3, wavelengths=np.array([490.0, 560.0, 665.0]))
        src.mask[5, 6] = False
        before = src.copy()
        out = DERIVE[name](src)
        assert out.band_names is not src.band_names
        assert not np.shares_memory(out.wavelengths, src.wavelengths)
        assert not np.shares_memory(out.mask, src.mask)
        out.band_names[0] = "x"
        out.wavelengths[0] = 1.0
        out.mask[0, 0] = not out.mask[0, 0]
        assert src.band_names == before.band_names
        assert np.array_equal(src.wavelengths, before.wavelengths)
        assert np.array_equal(src.mask, before.mask)


class TestBlockMean:
    def test_two_by_two(self):
        g = make_grid(2, 2)
        vals = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=np.float32)
        out = block_mean(Raster(g, vals, ["b0"]), 2)
        assert out.values.shape == (1, 1, 1)
        assert out.values[0, 0, 0] == pytest.approx(0.5)
        assert out.grid.pixel_w == pytest.approx(0.25)
        assert out.grid.origin_x == g.origin_x and out.grid.origin_y == g.origin_y

    def test_constant_preserved(self):
        g = make_grid(8, 8)
        r = Raster(g, np.full((2, 8, 8), 0.37, dtype=np.float32), ["a", "b"])
        for f in (2, 4, 8):
            out = block_mean(r, f)
            assert np.allclose(out.values, 0.37, atol=1e-7)

    def test_matches_double_loop_oracle(self):
        r = random_raster(42, 8, 8, 2, mask_fraction=0.2)
        f = 4
        out = block_mean(r, f)
        for b in range(r.n_bands):
            for i in range(2):
                for j in range(2):
                    vals, cnt = 0.0, 0
                    for di in range(f):
                        for dj in range(f):
                            if r.mask[i * f + di, j * f + dj]:
                                vals += float(r.values[b, i * f + di, j * f + dj])
                                cnt += 1
                    if cnt * 2 >= f * f:
                        assert out.mask[i, j]
                        assert out.values[b, i, j] == pytest.approx(vals / cnt, abs=1e-7)
                    else:
                        assert not out.mask[i, j]

    def test_validity_threshold_half(self):
        g = make_grid(2, 2)
        vals = np.ones((1, 2, 2), dtype=np.float32)
        mask = np.array([[True, True], [False, False]])
        assert block_mean(Raster(g, vals, ["b0"], mask), 2).mask[0, 0]  # exactly half
        mask = np.array([[True, False], [False, False]])
        assert not block_mean(Raster(g, vals, ["b0"], mask), 2).mask[0, 0]

    def test_non_divisible_raises(self):
        with pytest.raises(DimensionError):
            block_mean(random_raster(0, 6, 6, 1), 4)

    def test_mean_conservation(self):
        r = random_raster(7, 24, 24, 3)
        out = block_mean(r, 4)
        assert float(out.values.mean()) == pytest.approx(float(r.values.mean()), abs=1e-6)

    def test_nesting(self):
        r = random_raster(9, 32, 32, 2)
        a = block_mean(block_mean(r, 2), 4)
        b = block_mean(r, 8)
        assert np.allclose(a.values, b.values, atol=1e-6)


class TestUpsampleBicubic:
    def test_factor_one_identity(self):
        r = random_raster(3, 5, 4, 2)
        out = upsample_bicubic(r, 1)
        assert np.array_equal(out.values, r.values)
        assert out.grid == r.grid

    def test_constant_preserved(self):
        g = make_grid(6, 6)
        r = Raster(g, np.full((1, 6, 6), 0.42, dtype=np.float32), ["b0"])
        out = upsample_bicubic(r, 4)
        assert out.values.shape == (1, 24, 24)
        assert np.allclose(out.values, 0.42, atol=1e-6)

    def test_reproduces_linear_ramp_interior(self):
        # values linear in pixel-center position are reproduced exactly by
        # Catmull-Rom away from the clamped border
        h = w = 10
        f = 4
        g = make_grid(w, h, pixel=1.0)
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        vals = (0.03 * jj + 0.02 * ii + 0.1).astype(np.float32)[None]
        out = upsample_bicubic(Raster(g, vals, ["b0"]), f)
        io, jo = np.meshgrid(np.arange(h * f), np.arange(w * f), indexing="ij")
        # output pixel center in input pixel units
        src_i = (io + 0.5) / f - 0.5
        src_j = (jo + 0.5) / f - 0.5
        expected = 0.03 * src_j + 0.02 * src_i + 0.1
        interior = slice(2 * f, -2 * f)
        assert np.allclose(out.values[0][interior, interior], expected[interior, interior], atol=1e-5)

    def test_mask_propagates_through_support(self):
        r = random_raster(5, 12, 12, 1)
        r.mask[6, 6] = False
        out = upsample_bicubic(r, 2)
        # every output pixel whose 4x4 support touches (6, 6) must be invalid
        assert not out.mask[12:14, 12:14].any()
        # far corner untouched
        assert out.mask[:4, :4].all()

    def test_upsample_then_block_mean_roundtrip(self):
        # smooth band-limited raster: low-frequency sinusoid
        h = w = 24
        g = make_grid(w, h, pixel=1.0)
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        vals = (0.5 + 0.3 * np.sin(2 * np.pi * ii / 24) * np.cos(2 * np.pi * jj / 24)).astype(
            np.float32
        )[None]
        r = Raster(g, vals, ["b0"])
        for f in (2, 4):
            back = block_mean(upsample_bicubic(r, f), f)
            assert np.max(np.abs(back.values - r.values)) < 0.02


class TestStackBands:
    def test_stack_8_plus_3(self):
        a = random_raster(1, 6, 6, 8)
        b = random_raster(2, 6, 6, 3, band_names=["r", "g", "b"])
        out = stack_bands(a, b)
        assert out.n_bands == 11
        assert out.band_names == a.band_names + ["r", "g", "b"]
        assert np.array_equal(out.values[:8], a.values)
        assert np.array_equal(out.values[8:], b.values)

    def test_zero_band_raster_rejected(self):
        a = random_raster(1, 4, 4, 2)
        empty = Raster(make_grid(4, 4), np.zeros((0, 4, 4), dtype=np.float32), [])
        with pytest.raises(ValidationError):
            stack_bands(a, empty)

    def test_mask_conjunction(self):
        g = make_grid(2, 1)
        a = Raster(g, np.zeros((1, 1, 2), np.float32), ["a"], np.array([[True, False]]))
        b = Raster(g, np.zeros((1, 1, 2), np.float32), ["b"], np.array([[True, True]]))
        assert stack_bands(a, b).mask.tolist() == [[True, False]]

    def test_grid_mismatch(self):
        a = random_raster(1, 4, 4, 1)
        b = random_raster(2, 4, 4, 1, pixel=0.25)
        with pytest.raises(AlignmentError):
            stack_bands(a, b)

    def test_three_rasters_equal_nested_pairs(self):
        a = random_raster(1, 6, 5, 2, mask_fraction=0.2, wavelengths=np.array([490.0, np.nan]))
        b = random_raster(2, 6, 5, 1, mask_fraction=0.2, band_names=["nir"])
        c = random_raster(3, 6, 5, 3, mask_fraction=0.2, band_names=["r", "g", "b"],
                          wavelengths=np.array([665.0, 560.0, np.nan]))
        flat, nested = stack_bands(a, b, c), stack_bands(stack_bands(a, b), c)
        assert np.array_equal(flat.values, nested.values)
        assert flat.band_names == nested.band_names == ["b0", "b1", "nir", "r", "g", "b"]
        assert np.array_equal(flat.mask, nested.mask)
        assert np.array_equal(flat.mask, a.mask & b.mask & c.mask)
        assert np.isnan(flat.wavelengths).tolist() == [False, True, True, False, False, True]
        assert np.array_equal(flat.wavelengths, nested.wavelengths, equal_nan=True)

    def test_one_raster_is_a_copy(self):
        a = random_raster(1, 4, 4, 2, mask_fraction=0.2)
        out = stack_bands(a)
        assert np.array_equal(out.values, a.values) and np.array_equal(out.mask, a.mask)
        assert not np.shares_memory(out.values, a.values)

    def test_no_rasters_rejected(self):
        with pytest.raises(ValidationError):
            stack_bands()

    def test_third_grid_mismatch(self):
        a, b = random_raster(1, 4, 4, 1), random_raster(2, 4, 4, 1)
        c = random_raster(3, 4, 4, 1, pixel=0.25)
        with pytest.raises(AlignmentError):
            stack_bands(a, b, c)


class TestTranslatePixels:
    def test_content_moves(self):
        r = random_raster(0, 6, 6, 1)
        out = translate_pixels(r, 2, 1)
        assert np.array_equal(out.values[0, 1:, 2:], r.values[0, :-1, :-2])
        assert not out.mask[0, :].any()
        assert not out.mask[:, :2].any()
        assert out.mask[1:, 2:].all()

    @pytest.mark.parametrize("dx, dy", [(1.5, 0), (0, -0.5), (np.nan, 0), (0, np.inf),
                                        (True, 0), (0, False), ("x", 0), (None, 0),
                                        (np.float32(1.5), 0), ("1", 0), (np.True_, 0),
                                        (0, np.False_)])
    def test_non_integer_shift_refused(self, dx, dy):
        # 1.5 used to escape as TypeError; nan and True returned a raster, and
        # so did "1" and np.True_ (moved by one column)
        with pytest.raises(ValidationError, match="must be an integer"):
            translate_pixels(random_raster(0, 6, 6, 1), dx, dy)

    def test_integral_float_and_numpy_shifts_move_like_ints(self):
        r = random_raster(0, 6, 6, 2, mask_fraction=0.2)
        want = translate_pixels(r, 2, -1)
        for dx, dy in [(2.0, -1.0), (np.int64(2), np.int32(-1))]:
            out = translate_pixels(r, dx, dy)
            assert np.array_equal(out.values, want.values) and np.array_equal(out.mask, want.mask)


BAD_FACTORS = [2.5, np.nan, np.inf, True, "x", None, np.float32(2.5), "2", np.True_]


@pytest.mark.parametrize("op", [block_mean, upsample_bicubic])
class TestFactorChecked:
    @pytest.mark.parametrize("factor", BAD_FACTORS)
    def test_non_integer_factor_refused(self, op, factor):
        # upsample_bicubic(r, 2.5) used to return a 160-pixel raster from 64
        # pixels; True and "x" escaped as TypeError, nan as ValueError;
        # block_mean(r, "2") returned a half-size raster
        with pytest.raises(ValidationError, match="factor must be an integer"):
            op(random_raster(0, 8, 8, 1), factor)

    def test_integral_float_factor_gives_the_int_factor_bytes(self, op):
        r = random_raster(1, 8, 8, 2, mask_fraction=0.2)
        want = op(r, 2)
        for factor in (2.0, np.int64(2)):
            out = op(r, factor)
            assert out.grid == want.grid
            assert out.values.tobytes() == want.values.tobytes()
            assert out.mask.tobytes() == want.mask.tobytes()
