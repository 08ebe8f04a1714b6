import numpy as np
import pytest

from satfuse.errors import AlignmentError, CoverageError, ValidationError
from satfuse.metrics import PSNR_CAP, evaluate, psnr_from_rmse
from satfuse.raster import Raster

from conftest import random_raster

# reference (RMSE, PSNR) pairs for the reconstruction experiments, one per
# site/date across the three scenarios; used to confirm the peak-reflectance
# convention MAX = 1.0
REPORTED_ROWS = [
    # sharpened-bands scenario (8 site/date rows)
    (0.0164, 35.69),
    (0.0149, 36.56),
    (0.0415, 27.64),
    (0.0233, 32.67),
    (0.0234, 32.61),
    (0.0352, 29.08),
    (0.0242, 32.33),
    (0.0229, 32.82),
    # satellite-only sharpening for unflown areas
    (0.0274, 31.25),
    (0.0313, 30.09),
    (0.0371, 28.61),
    (0.0406, 27.83),
    # unflown-date reconstruction
    (0.0545, 25.28),
    (0.0359, 28.90),
    (0.0479, 26.40),
]


class TestPsnrConvention:
    def test_known_rows(self):
        psnr, capped = psnr_from_rmse(0.0164)
        assert not capped
        assert psnr == pytest.approx(35.70, abs=0.02)
        assert psnr_from_rmse(0.0415)[0] == pytest.approx(27.64, abs=0.02)

    def test_rounding_aware_consistency_fixes_peak_of_one(self):
        # each printed RMSE is rounded to 3 significant digits; the PSNR it
        # implies is an interval.  MAX = 1.0 puts every printed PSNR inside
        # its interval (no other simple peak does), which pins the convention.
        for rmse, printed in REPORTED_ROWS:
            lo, _ = psnr_from_rmse(rmse + 0.00005)
            hi, _ = psnr_from_rmse(rmse - 0.00005)
            assert lo - 0.005 <= printed <= hi + 0.005, (rmse, printed)

    def test_cap(self):
        psnr, capped = psnr_from_rmse(0.0)
        assert capped and psnr == PSNR_CAP

    @pytest.mark.parametrize("rmse", [-1.0, -1e-13, float("nan"), float("inf")])
    def test_negative_or_non_finite_rmse_rejected(self, rmse):
        with pytest.raises(ValidationError):
            psnr_from_rmse(rmse)


class TestEvaluate:
    def test_identity_is_capped(self):
        r = random_raster(0, 12, 12, 3)
        rep = evaluate(r, r.copy())
        assert rep.rmse == 0.0
        assert rep.mae == 0.0
        assert rep.psnr_capped and rep.psnr == PSNR_CAP

    def test_known_uniform_error(self):
        truth = random_raster(1, 10, 10, 2)
        shifted = Raster(truth.grid, truth.values + np.float32(0.02),
                         truth.band_names, truth.mask.copy())
        rep = evaluate(shifted, truth)
        assert rep.rmse == pytest.approx(0.02, rel=1e-5)
        assert rep.mae == pytest.approx(0.02, rel=1e-5)
        assert rep.psnr == pytest.approx(20 * np.log10(1 / 0.02), abs=1e-3)

    def test_symmetry(self):
        a = random_raster(2, 9, 9, 2)
        b = random_raster(3, 9, 9, 2)
        ra = evaluate(a, b)
        rb = evaluate(b, a)
        assert ra.rmse == rb.rmse
        assert ra.mae == rb.mae

    def test_masked_region_changes_nothing(self):
        a = random_raster(4, 12, 12, 2)
        b = random_raster(5, 12, 12, 2)
        base = evaluate(a, b)
        # corrupt a corner but mask it in one input
        vals = a.values.copy()
        vals[:, :4, :4] = 0.977
        mask = a.mask.copy()
        mask[:4, :4] = False
        a2 = Raster(a.grid, vals, a.band_names, mask)
        rep = evaluate(a2, b)
        # recompute the reference restricted to the same joint mask
        joint = mask & b.mask
        d = a.values[:, joint].astype(np.float64) - b.values[:, joint].astype(np.float64)
        assert rep.rmse == pytest.approx(float(np.sqrt(np.mean(d * d))), abs=1e-12)
        assert rep.n_valid == int(joint.sum())
        assert base.n_valid > rep.n_valid

    def test_error_scaling_monotonicity(self):
        truth = random_raster(6, 16, 16, 1)
        rng = np.random.default_rng(7)
        err = rng.standard_normal((1, 16, 16)).astype(np.float32) * 0.01
        for alpha in (2.0, 5.0):
            p1 = Raster(truth.grid, truth.values + err, truth.band_names)
            p2 = Raster(truth.grid, truth.values + alpha * err, truth.band_names)
            d = evaluate(p1, truth).psnr - evaluate(p2, truth).psnr
            assert d == pytest.approx(20 * np.log10(alpha), abs=1e-4)

    def test_per_band_breakdown(self):
        a = random_raster(8, 8, 8, 3, band_names=["x", "y", "z"])
        b = random_raster(9, 8, 8, 3, band_names=["x", "y", "z"])
        rep = evaluate(a, b, per_band=True)
        assert set(rep.per_band) == {"x", "y", "z"}
        pooled_mse = np.mean([rep.per_band[n]["rmse"] ** 2 for n in "xyz"])
        assert rep.rmse == pytest.approx(np.sqrt(pooled_mse), rel=1e-9)

    def test_errors(self):
        a = random_raster(0, 8, 8, 2)
        with pytest.raises(AlignmentError):
            evaluate(a, random_raster(1, 8, 8, 3))
        with pytest.raises(AlignmentError):
            evaluate(a, random_raster(1, 8, 8, 2, pixel=0.25))
        b = random_raster(1, 8, 8, 2)
        b.mask[:] = False
        with pytest.raises(CoverageError):
            evaluate(a, b)


def test_pinned_report_dicts():
    """`to_dict` with and without the per-band breakdown, recorded from the
    hand-written dict it replaced."""
    pred = random_raster(13, 6, 6, 2, mask_fraction=0.2)
    truth = random_raster(14, 6, 6, 2, mask_fraction=0.2)
    assert repr(evaluate(pred, truth).to_dict()) == (
        "{'rmse': 0.4031111900480663, 'mae': 0.33085928523602587, 'psnr': 7.891502920160262, "
        "'psnr_capped': False, 'n_valid': 24, 'n_bands': 2}")
    assert repr(evaluate(pred, truth, per_band=True).to_dict()) == (
        "{'rmse': 0.4031111900480663, 'mae': 0.33085928523602587, 'psnr': 7.891502920160262, "
        "'psnr_capped': False, 'n_valid': 24, 'n_bands': 2, 'per_band': {'b0': {'rmse': "
        "0.4276673220283895, 'mae': 0.365048421236376, 'psnr': np.float64(7.377878656539489), "
        "'psnr_capped': False}, 'b1': {'rmse': 0.376958783891558, 'mae': 0.29667014923567575, "
        "'psnr': np.float64(8.47412264612297), 'psnr_capped': False}}}")
