import json
import os

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from satfuse.bsf import read_bsf
from satfuse.errors import GeometryError, ValidationError
from satfuse.raster import block_mean
from satfuse.spectral import fit_band_weights, simulate_bands, synthetic_vnir_srf
from satfuse.synthetic import (
    SceneConfig,
    _smooth_fields,
    assemble_pairs,
    degrade,
    gen_hyper_scene,
    load_manifest,
    make_fusion_dataset,
)

from conftest import traced_peak

SMALL = dict(width=64, height=64, n_bands=12, scale=8)

SIGMAS = (0.0, 1e-300, 1e-15, 2e-15, 0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0)


def _smooth_case(i: int, sigma: float):
    """Seeded fields for case `i`: 1-7 fields, sides 1-140, and every other
    case with sides of 1-12, shorter than most kernel radii."""
    rng = np.random.default_rng([26, i])
    m, (h, w) = int(rng.integers(1, 8)), rng.integers(1, 13 if i % 2 else 141, 2)
    return sigma, rng.standard_normal((m, h, w))


# four seeded cases per sigma, then shapes whose kernel radius exceeds a side
# (16 for sigma 4, 24 for 6, 36 for 9), so that the edges reflect more than once
SMOOTH_CASES = [_smooth_case(i, s) for i, s in enumerate(np.repeat(SIGMAS, 4))] + [
    (4.0, np.random.default_rng(1).standard_normal((1, 3, 5))),
    (6.0, np.random.default_rng(2).standard_normal((2, 1, 9))),
    (9.0, np.random.default_rng(3).standard_normal((3, 16, 8))),
    (9.0, np.random.default_rng(4).standard_normal((7, 1, 1))),
]


class TestSmoothFields:
    @pytest.mark.parametrize("sigma, fields", SMOOTH_CASES,
                             ids=[f"{s:g}-{'x'.join(map(str, f.shape))}" for s, f in SMOOTH_CASES])
    def test_equals_scipy_gaussian_filter_bit_for_bit(self, sigma, fields):
        want = gaussian_filter(fields, sigma=(0, sigma, sigma), mode="reflect")
        got = fields.copy()
        _smooth_fields(got, sigma)
        assert got.tobytes() == want.tobytes()

    def test_cases_reach_past_the_sides(self):
        radius_over_side = [int(4 * s + 0.5) > min(f.shape[1:]) for s, f in SMOOTH_CASES]
        assert len(SMOOTH_CASES) >= 40 and sum(radius_over_side) >= 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_abundances_equal_softmax_of_scipy_filter(self, seed):
        refused = 0
        for width, height in ((64, 48), (320, 320), (8, 16), (24, 8)):
            for smoothness in (0.0, 0.5, 2.0, 4.0, 16.0):
                cfg = SceneConfig(seed=seed, width=width, height=height, n_bands=2, scale=8,
                                  smoothness=smoothness)
                fields = np.random.default_rng([seed, 1]).standard_normal((5, height, width))
                f = gaussian_filter(fields, sigma=(0, smoothness, smoothness), mode="reflect")
                f = f / np.maximum(f.std(axis=(1, 2), keepdims=True), 1e-12)
                with np.errstate(over="ignore", invalid="ignore"):
                    e = np.exp(f / 0.5)
                    want = e / e.sum(axis=0)
                if not np.isfinite(want).all():
                    refused += 1
                    with pytest.raises(ValidationError, match="smoothness"):
                        gen_hyper_scene(cfg)
                    continue
                _, ab, _ = gen_hyper_scene(cfg, return_parts=True)
                assert ab.tobytes() == want.tobytes(), (width, height, smoothness)
        assert refused == (0 if seed == 0 else 1)

    def test_memory_beyond_the_fields_is_a_few_planes_of_one(self):
        fields = np.random.default_rng(5).standard_normal((5, 96, 128))
        peak, _ = traced_peak(_smooth_fields, fields, 4.0)
        assert peak < 4 * fields[0].nbytes


class TestSceneConfig:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            SceneConfig(width=60, scale=8)
        with pytest.raises(ValidationError):
            SceneConfig(n_endmembers=0)
        with pytest.raises(ValidationError):
            SceneConfig(noise_sigma=-0.1)

    @pytest.mark.parametrize("field, bad", [
        ("width", 0), ("height", -8), ("scale", 0), ("n_bands", 0), ("n_endmembers", 2.5),
        ("width", True), ("n_bands", "many"), ("smoothness", np.nan), ("smoothness", -1.0),
        ("noise_sigma", np.inf), ("gain", np.nan), ("offset", -np.inf), ("pixel_m", 0.0),
        ("pixel_m", np.inf), ("fwhm", 0.0), ("fwhm", np.nan), ("gain", True),
        ("gain", 10**400), ("n_bands", 1), ("width", "16"), ("n_endmembers", np.True_),
    ])
    def test_bad_field_refused(self, field, bad):
        # width=0 used to construct and warn in gen_hyper_scene, scale=0 gave
        # ZeroDivisionError, n_endmembers=2.5 TypeError, smoothness=nan constructed
        with pytest.raises(ValidationError, match=field):
            SceneConfig(**{field: bad})

    def test_numbers_are_stored_as_int_and_float(self):
        cfg = SceneConfig(width=np.int64(64), height=64.0, scale=8, smoothness=2,
                          fwhm=np.float32(10.0))
        assert (type(cfg.width), type(cfg.height), type(cfg.smoothness), type(cfg.fwhm)) == (
            int, int, float, float)


class TestGenHyperScene:
    @pytest.mark.parametrize("cfg", [
        dict(seed=0, width=40, height=24, n_bands=269, scale=8),
        dict(seed=1, width=64, height=48, n_bands=2, scale=8),
        dict(seed=2, width=32, height=32, n_bands=24, n_endmembers=1, scale=8),
        dict(seed=3, width=96, height=32, n_bands=30, n_endmembers=7, scale=4),
        dict(seed=4, width=48, height=48, n_bands=12, smoothness=0.5, scale=8, endmember_seed=9),
    ])
    def test_equals_einsum_clip_cast_bit_for_bit(self, cfg):
        # the float64 einsum path the band-at-a-time mixing replaces
        cube, ab, E = gen_hyper_scene(SceneConfig(**cfg), return_parts=True)
        want = np.einsum("mk,mhw->khw", E, ab)
        np.clip(want, 0.0, 1.0, out=want)
        assert cube.values.dtype == np.float32
        assert cube.values.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize("n_endmembers", [1, 5])
    def test_memory_beyond_the_cube_is_a_few_planes(self, n_endmembers):
        cfg = SceneConfig(seed=12, width=128, height=96, n_bands=64, n_endmembers=n_endmembers)
        peak, cube = traced_peak(gen_hyper_scene, cfg)
        plane = cfg.width * cfg.height * 8
        assert peak - cube.values.nbytes < (n_endmembers + 3) * plane

    def test_single_endmember_constant_cube(self):
        cube = gen_hyper_scene(SceneConfig(seed=0, n_endmembers=1, **SMALL))
        for b in range(cube.n_bands):
            assert np.ptp(cube.values[b]) == 0.0

    def test_abundances_on_simplex(self):
        _, ab, _ = gen_hyper_scene(SceneConfig(seed=1, **SMALL), return_parts=True)
        sums = ab.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert ab.min() >= 0

    def test_bit_identical_per_seed(self):
        a = gen_hyper_scene(SceneConfig(seed=2, **SMALL))
        b = gen_hyper_scene(SceneConfig(seed=2, **SMALL))
        assert np.array_equal(a.values, b.values)
        c = gen_hyper_scene(SceneConfig(seed=3, **SMALL))
        assert not np.array_equal(a.values, c.values)

    def test_values_in_range_with_wavelengths(self):
        cube = gen_hyper_scene(SceneConfig(seed=4, **SMALL))
        assert cube.values.min() >= 0.0 and cube.values.max() <= 1.0
        assert cube.wavelengths is not None
        assert cube.wavelengths[0] == pytest.approx(397.9)
        assert cube.wavelengths[-1] == pytest.approx(1002.9)

    @pytest.mark.parametrize("cfg", [
        dict(seed=1, width=8, height=16, n_bands=6, smoothness=16.0, scale=8),
        dict(seed=2, width=8, height=16, n_bands=6, smoothness=16.0, scale=8),
        dict(width=1, height=1, scale=1),
        dict(width=1, height=1, scale=1, smoothness=0.0),
    ])
    def test_nearly_constant_fields_refused(self, cfg):
        # these scenes used to come back with every value NaN and every pixel
        # invalid, after a RuntimeWarning from the softmax's overflow
        cfg = SceneConfig(**cfg)
        with pytest.raises(ValidationError, match=f"{cfg.height}x{cfg.width} scene at "
                                                  f"smoothness {cfg.smoothness}"):
            gen_hyper_scene(cfg)

    def test_shared_endmember_seed_changes_layout_not_spectra(self):
        a, _, Ea = gen_hyper_scene(SceneConfig(seed=5, endmember_seed=99, **SMALL), return_parts=True)
        b, _, Eb = gen_hyper_scene(SceneConfig(seed=6, endmember_seed=99, **SMALL), return_parts=True)
        assert np.array_equal(Ea, Eb)
        assert not np.array_equal(a.values, b.values)


class TestDegrade:
    def test_degenerate_equals_block_mean(self):
        cube = gen_hyper_scene(SceneConfig(seed=7, **SMALL))
        cfg = SceneConfig(seed=7, noise_sigma=0.0, shift=(0, 0), **SMALL)
        out = degrade(cube, cfg)
        ref = block_mean(cube, 8)
        assert np.array_equal(out.values, ref.values)
        assert out.grid == ref.grid

    def test_gain_offset(self):
        cube = gen_hyper_scene(SceneConfig(seed=8, **SMALL))
        cfg = SceneConfig(seed=8, gain=0.9, offset=0.02, **SMALL)
        out = degrade(cube, cfg)
        ref = block_mean(cube, 8)
        assert np.allclose(out.values, np.clip(0.9 * ref.values + 0.02, 0, 1), atol=1e-6)

    def test_noise_variance_matches_sigma(self):
        # one large scene: noise sample variance within 10% of sigma^2
        cfg = SceneConfig(seed=9, width=896, height=896, n_bands=4, scale=8,
                          noise_sigma=0.01, smoothness=20.0)
        cube = gen_hyper_scene(cfg)
        noiseless = degrade(cube, SceneConfig(seed=9, width=896, height=896,
                                              n_bands=4, scale=8, smoothness=20.0))
        noisy = degrade(cube, cfg)
        # avoid clipped cells when estimating the variance
        interior = (noiseless.values > 0.05) & (noiseless.values < 0.95)
        d = (noisy.values - noiseless.values)[interior].astype(np.float64)
        assert d.size >= 10_000
        assert np.var(d) == pytest.approx(0.01**2, rel=0.1)

    def test_shift_margin_error(self):
        cube = gen_hyper_scene(SceneConfig(seed=10, **SMALL))
        with pytest.raises(GeometryError):
            degrade(cube, SceneConfig(seed=10, shift=(60, 0), **SMALL))

    def test_injected_shift_masks_out_of_bounds_cells(self):
        cube = gen_hyper_scene(SceneConfig(seed=11, **SMALL))
        cfg = SceneConfig(seed=11, shift=(6, 5), **SMALL)
        out = degrade(cube, cfg)
        # blocks read 6 columns / 5 rows past the footprint on the trailing
        # edge: those edge blocks keep under half their pixels and go invalid
        assert not out.mask[-1, :].any()
        assert not out.mask[:, -1].any()
        assert out.mask[:-1, :-1].all()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("fusion")
    cfg = SceneConfig(seed=42, width=96, height=96, n_bands=12, scale=8,
                      smoothness=4.0)
    manifest = make_fusion_dataset(cfg, 4, out)
    return out, manifest


class TestMakeFusionDataset:

    def test_partitions_disjoint_and_cover(self, dataset):
        _, manifest = dataset
        splits = [s["split"] for s in manifest["scenes"]]
        assert len(splits) == 4
        assert splits.count("train") == 2
        assert splits.count("val") == 1
        assert splits.count("test") == 1

    def test_truth_is_recomputable_from_cube(self, dataset):
        out, manifest = dataset
        cfg = SceneConfig(**{**manifest["config"], "shift": tuple(manifest["config"]["shift"])})
        weights = fit_band_weights(synthetic_vnir_srf(), cfg.camera())
        for scene in manifest["scenes"]:
            cube = read_bsf(out / scene["files"]["hyper"])
            truth = read_bsf(out / scene["files"]["truth8"])
            again = simulate_bands(cube, weights)
            assert np.max(np.abs(again.values - truth.values)) < 1e-6

    def test_zero_noise_coarse_equals_block_mean(self, dataset):
        out, manifest = dataset
        for scene in manifest["scenes"]:
            truth = read_bsf(out / scene["files"]["truth8"])
            coarse = read_bsf(out / scene["files"]["coarse"])
            ref = block_mean(truth, manifest["config"]["scale"])
            assert np.max(np.abs(coarse.values - ref.values)) < 1e-7

    def test_rgb_is_selected_truth_bands(self, dataset):
        out, manifest = dataset
        scene = manifest["scenes"][0]
        truth = read_bsf(out / scene["files"]["truth8"])
        rgb = read_bsf(out / scene["files"]["rgb"])
        assert rgb.band_names == ["red", "green", "blue"]
        assert np.array_equal(rgb.values[0], truth.band("B4"))
        assert np.array_equal(rgb.values[2], truth.band("B2"))

    def test_manifest_reproducible(self, dataset, tmp_path):
        out, manifest = dataset
        cfg = SceneConfig(**{**manifest["config"], "shift": tuple(manifest["config"]["shift"])})
        again = make_fusion_dataset(cfg, 4, tmp_path / "again")
        a = json.dumps({k: v for k, v in manifest.items() if k != "_dir"}, sort_keys=True)
        b = json.dumps({k: v for k, v in again.items() if k != "_dir"}, sort_keys=True)
        assert a == b
        # and the heavyweight products are bit-identical
        f = manifest["scenes"][0]["files"]["truth8"]
        assert (tmp_path / "again" / f).read_bytes() == (out / f).read_bytes()

    def test_assemble_pairs_variants(self, dataset):
        _, manifest = dataset
        stacked = assemble_pairs(manifest, "train", "stacked")
        assert len(stacked) == 2
        inp, tgt = stacked[0]
        assert inp.n_bands == 11 and tgt.n_bands == 8
        rgb = assemble_pairs(manifest, "train", "rgb")
        assert rgb[0][0].n_bands == 3
        coarse = assemble_pairs(manifest, "val", "coarse")
        assert len(coarse) == 1 and coarse[0][0].n_bands == 8

    def test_returned_manifest_finds_its_files_from_any_directory(self, dataset, tmp_path,
                                                                  monkeypatch):
        out, manifest = dataset
        assert manifest["_dir"] == str(out)
        monkeypatch.chdir(tmp_path)
        pairs = assemble_pairs(manifest, "train", "stacked")
        assert len(pairs) == 2
        # the file on disk carries no directory, so the set can be moved
        on_disk = json.loads((out / "manifest.json").read_text())
        assert "_dir" not in on_disk
        assert on_disk == {k: v for k, v in manifest.items() if k != "_dir"}

    def test_bytes_paths_round_trip(self, tmp_path):
        out = tmp_path / "set"
        made = make_fusion_dataset(SceneConfig(seed=0, width=16, height=16, n_bands=4, scale=4),
                                   3, os.fsencode(out))
        loaded = load_manifest(os.fsencode(out / "manifest.json"))
        assert made == loaded and loaded["_dir"] == str(out)
        assert len(assemble_pairs(loaded, "train")) == 1

    def test_too_few_scenes(self, tmp_path):
        with pytest.raises(ValidationError):
            make_fusion_dataset(SceneConfig(seed=0, **SMALL), 2, tmp_path)
