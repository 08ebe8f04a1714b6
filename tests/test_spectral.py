import math

import numpy as np
import pytest

from satfuse.errors import DomainError, SchemaError, ValidationError
from satfuse.nnls import kkt_residuals
from satfuse import spectral
from satfuse.raster import Raster
from satfuse.spectral import (
    BandWeights,
    HyperBandSpec,
    SpectralResponseTable,
    default_camera,
    evenly_spaced_camera,
    fit_band_weights,
    gaussian_design_matrix,
    simulate_bands,
    synthetic_vnir_srf,
)

from conftest import make_grid

SIGMA_269 = 6.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


class TestCameraModel:
    def test_default_camera_range(self):
        cam = default_camera()
        assert cam.n_bands == 269
        assert cam.centers[0] == pytest.approx(397.9)
        assert cam.centers[-1] == pytest.approx(1002.9)
        assert np.allclose(np.diff(cam.centers), 605.0 / 268.0)
        assert cam.fwhm == 6.0

    def test_invariants(self):
        with pytest.raises(ValidationError):
            HyperBandSpec(np.array([500.0, 499.0]), 6.0)
        with pytest.raises(ValidationError):
            HyperBandSpec(np.array([500.0, 510.0]), 0.0)


class TestGaussianDesignMatrix:
    def test_peak_is_one(self):
        cam = default_camera()
        A = gaussian_design_matrix(cam, cam.centers[:5])
        assert np.allclose(np.diag(A[:, :5]), 1.0)

    def test_half_width_at_half_maximum(self):
        cam = default_camera()
        grid = np.array([cam.centers[10] - 3.0, cam.centers[10] + 3.0])
        A = gaussian_design_matrix(cam, grid)
        assert A[0, 10] == pytest.approx(0.5, abs=1e-9)
        assert A[1, 10] == pytest.approx(0.5, abs=1e-9)

    def test_three_sigma_value(self):
        cam = default_camera()
        grid = np.array([cam.centers[50] + 3.0 * SIGMA_269])
        A = gaussian_design_matrix(cam, grid)
        assert A[0, 50] == pytest.approx(math.exp(-4.5), rel=1e-9)


class TestResponseTable:
    def test_csv_round_trip(self, tmp_path):
        srf = synthetic_vnir_srf()
        p = tmp_path / "srf.csv"
        srf.to_csv(p)
        back = SpectralResponseTable.from_csv(p)
        assert set(back.band_names) == set(srf.band_names)
        for name in srf.band_names:
            wl_a, r_a = srf.bands[name]
            wl_b, r_b = back.bands[name]
            assert np.allclose(wl_a, wl_b)
            assert np.allclose(r_a, r_b, atol=1e-7)

    def test_invariants(self):
        with pytest.raises(ValidationError):
            SpectralResponseTable({"x": (np.array([500.0]), np.array([1.0]))})
        with pytest.raises(ValidationError):
            SpectralResponseTable({"x": (np.array([500.0, 499.0]), np.array([1.0, 1.0]))})
        with pytest.raises(ValidationError):
            SpectralResponseTable({"x": (np.array([500.0, 501.0]), np.array([0.5, 1.5]))})


class TestFitBandWeights:
    def test_self_fit_single_band(self):
        # integer-nm sample grid so the 1 nm resampling is exact
        cam = default_camera()
        k = 42
        wl = np.arange(math.ceil(cam.centers[k] - 15), math.floor(cam.centers[k] + 15) + 1.0)
        resp = np.exp(-((wl - cam.centers[k]) ** 2) / (2 * SIGMA_269**2))
        srf = SpectralResponseTable({"one": (wl, resp)})
        bw = fit_band_weights(srf, cam)
        assert bw.weights[0, k] == pytest.approx(1.0, abs=1e-6)
        assert bw.weights[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_constructed_two_band_mixture(self):
        cam = default_camera()
        wl = np.arange(math.ceil(cam.centers[10] - 20), math.floor(cam.centers[12] + 20) + 1.0)
        A = gaussian_design_matrix(cam, wl)
        resp = 0.5 * A[:, 10] + 0.5 * A[:, 12]
        srf = SpectralResponseTable({"mix": (wl, resp)})
        bw = fit_band_weights(srf, cam)
        raw = bw.weights[0] * bw.normalizations[0]
        assert raw[10] == pytest.approx(0.5, abs=1e-6)
        assert raw[12] == pytest.approx(0.5, abs=1e-6)
        assert bw.residuals[0] < 1e-8

    def test_box_srf_sparsity(self):
        #  fit a 20 nm box; bands centered > 3 sigma outside it get weight 0
        cam = default_camera()
        wl = np.arange(660.0, 761.0)
        resp = ((wl >= 700.0) & (wl <= 720.0)).astype(float)
        srf = SpectralResponseTable({"box": (wl, resp)})
        bw = fit_band_weights(srf, cam)
        outside = (cam.centers < 700.0 - 3 * SIGMA_269) | (cam.centers > 720.0 + 3 * SIGMA_269)
        assert np.all(bw.weights[0][outside] == 0.0)
        inside = (cam.centers >= 700.0) & (cam.centers <= 720.0)
        assert bw.weights[0][inside].sum() > 0.5

    def test_kkt_holds_for_synthetic_vnir_fits(self):
        cam = default_camera()
        srf = synthetic_vnir_srf()
        bw = fit_band_weights(srf, cam)
        assert bw.band_names == srf.band_names
        assert np.allclose(bw.weights.sum(axis=1), 1.0, atol=1e-9)
        for i, name in enumerate(bw.band_names):
            wl, resp = srf.bands[name]
            grid = np.arange(math.ceil(wl[0]), math.floor(wl[-1]) + 1.0)
            A = gaussian_design_matrix(cam, grid)
            b = np.interp(grid, wl, resp)
            raw = bw.weights[i] * bw.normalizations[i]
            scale = float(np.max(np.abs(A.T @ A).sum(axis=1)))
            stat, feas = kkt_residuals(A, b, raw)
            assert stat <= 1e-9 * scale
            assert feas >= -1e-9 * scale

    def test_no_overlap_raises(self):
        cam = default_camera()
        srf = SpectralResponseTable({"swir": (np.array([1600.0, 1650.0]), np.array([1.0, 1.0]))})
        with pytest.raises(DomainError):
            fit_band_weights(srf, cam)

    def test_json_round_trip(self, tmp_path):
        bw = fit_band_weights(synthetic_vnir_srf(), evenly_spaced_camera(32))
        p = tmp_path / "w.json"
        bw.save_json(p)
        back = BandWeights.load_json(p)
        assert back.band_names == bw.band_names
        assert np.allclose(back.weights, bw.weights)
        assert np.allclose(back.normalizations, bw.normalizations)
        assert back.camera.n_bands == bw.camera.n_bands


def _micro_cube(seed, cam, w=4, h=4):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 1, size=(cam.n_bands, h, w)).astype(np.float32)
    return Raster(make_grid(w, h), vals, [f"hs{k}" for k in range(cam.n_bands)],
                  wavelengths=cam.centers)


class TestSimulateBands:
    def test_constant_cube_maps_to_constant(self):
        cam = evenly_spaced_camera(32)
        bw = fit_band_weights(synthetic_vnir_srf(), cam)
        vals = np.full((32, 3, 3), 0.6, dtype=np.float32)
        cube = Raster(make_grid(3, 3), vals, [f"hs{k}" for k in range(32)],
                      wavelengths=cam.centers)
        out = simulate_bands(cube, bw)
        assert np.allclose(out.values, 0.6, atol=1e-6)
        assert out.band_names == bw.band_names

    def test_one_hot_weights_select_band(self):
        cam = evenly_spaced_camera(16)
        w = np.zeros((1, 16))
        w[0, 5] = 1.0
        bw = BandWeights(cam, ["sel"], w, np.zeros(1), np.ones(1))
        cube = _micro_cube(0, cam)
        out = simulate_bands(cube, bw)
        assert np.allclose(out.values[0], cube.values[5], atol=1e-7)

    def test_matches_per_pixel_dot_product_oracle(self):
        cam = default_camera()
        bw = fit_band_weights(synthetic_vnir_srf(), cam)
        cube = _micro_cube(1, cam)
        out = simulate_bands(cube, bw)
        for b in range(len(bw.band_names)):
            for i in range(4):
                for j in range(4):
                    expected = float(
                        np.dot(bw.weights[b], cube.values[:, i, j].astype(np.float64))
                    )
                    assert out.values[b, i, j] == pytest.approx(expected, abs=1e-6)

    def test_row_slabs_match_whole_cube_bytes(self, monkeypatch):
        cam = default_camera()
        bw = fit_band_weights(synthetic_vnir_srf(), cam)
        cube = _micro_cube(4, cam, w=9, h=10)
        # three rows per slab: four slabs, the last one short
        monkeypatch.setattr(spectral, "_SLAB_BUDGET", 3 * cam.n_bands * 9)
        out = simulate_bands(cube, bw)
        whole = np.tensordot(bw.weights, cube.values.astype(np.float64), axes=([1], [0]))
        assert out.values.dtype == np.float32
        assert out.values.tobytes() == whole.astype(np.float32).tobytes()

    def test_linearity(self):
        cam = evenly_spaced_camera(24)
        bw = fit_band_weights(synthetic_vnir_srf(), cam)
        a = _micro_cube(2, cam, 5, 5)
        b = _micro_cube(3, cam, 5, 5)
        mixed_vals = (0.3 * a.values + 0.7 * b.values).astype(np.float32)
        mixed = Raster(a.grid, mixed_vals, a.band_names, wavelengths=cam.centers)
        lhs = simulate_bands(mixed, bw).values
        rhs = 0.3 * simulate_bands(a, bw).values + 0.7 * simulate_bands(b, bw).values
        assert np.allclose(lhs, rhs, atol=1e-6)

    def test_schema_errors(self):
        cam = evenly_spaced_camera(16)
        bw = fit_band_weights(synthetic_vnir_srf(), cam)
        wrong_count = _micro_cube(0, evenly_spaced_camera(24))
        with pytest.raises(SchemaError):
            simulate_bands(wrong_count, bw)
        cube = _micro_cube(0, cam)
        cube.wavelengths = cube.wavelengths + 0.5
        with pytest.raises(SchemaError):
            simulate_bands(cube, bw)
