"""Image-fidelity metrics for reflectance rasters.

Statistics pool over all bands and all jointly valid pixels, accumulated in
64-bit.  PSNR uses a peak of 1.0 (full reflectance scale); a zero-error
comparison reports the 240 dB cap with a flag instead of infinity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (NONNEGATIVE, AlignmentError, CoverageError, ValidationError, instance,
                     parameter)
from .raster import Raster, _require_raster

__all__ = ["MetricsReport", "evaluate", "psnr_from_rmse", "PSNR_CAP", "PSNR_PEAK"]

PSNR_PEAK = 1.0
PSNR_CAP = 240.0
_RMSE_FLOOR = 1e-12


def psnr_from_rmse(rmse: float) -> tuple[float, bool]:
    """PSNR in dB for a given RMSE on the reflectance scale; (value, capped).

    A negative, NaN or infinite RMSE is refused with a ValidationError.
    """
    rmse = parameter("rmse", rmse, *NONNEGATIVE, ValidationError)
    if rmse < _RMSE_FLOOR:
        return PSNR_CAP, True
    return 20.0 * np.log10(PSNR_PEAK / rmse), False


@dataclass
class MetricsReport:
    rmse: float
    mae: float
    psnr: float
    psnr_capped: bool
    n_valid: int
    n_bands: int
    per_band: dict[str, dict[str, float]] | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def evaluate(pred: Raster, truth: Raster, per_band: bool = False) -> MetricsReport:
    """RMSE / MAE / PSNR between two rasters over jointly valid pixels."""
    _require_raster("pred", pred)
    _require_raster("truth", truth)
    instance("per_band", per_band, bool, ValidationError, "True or False")
    if pred.grid != truth.grid:
        raise AlignmentError("prediction and truth are on different grids")
    if pred.n_bands != truth.n_bands:
        raise AlignmentError(
            f"band count mismatch: {pred.n_bands} vs {truth.n_bands}"
        )
    joint = pred.mask & truth.mask
    n = int(joint.sum())
    if n == 0:
        raise CoverageError("no jointly valid pixels")

    d = pred.values[:, joint].astype(np.float64) - truth.values[:, joint].astype(np.float64)
    rmse = float(np.sqrt(np.mean(d * d)))
    mae = float(np.mean(np.abs(d)))
    psnr, capped = psnr_from_rmse(rmse)

    breakdown = None
    if per_band:
        breakdown = {}
        for i, name in enumerate(pred.band_names):
            db = d[i]
            b_rmse = float(np.sqrt(np.mean(db * db)))
            b_psnr, b_cap = psnr_from_rmse(b_rmse)
            breakdown[name] = {
                "rmse": b_rmse,
                "mae": float(np.mean(np.abs(db))),
                "psnr": b_psnr,
                "psnr_capped": b_cap,
            }
    return MetricsReport(rmse, mae, float(psnr), capped, n, pred.n_bands, breakdown)
