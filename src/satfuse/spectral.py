"""Satellite band simulation from narrow hyperspectral bands.

The hyperspectral camera is modeled as a comb of Gaussian band responses
(center wavelengths plus a common FWHM).  For each target satellite band we
fit nonnegative weights so that the weighted sum of camera responses
reproduces the satellite sensor's published spectral response, then rescale
the weights to sum to one so that applying them to a reflectance cube is a
weighted average that preserves reflectance units.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (PATH, POSITIVE, DomainError, SchemaError, ValidationError, allocating,
                     array, check_fields, finite, instance, instances, parameter, parse_errors,
                     read_csv, read_json, whole_number)
from .nnls import nnls
from .raster import Raster, _require_raster

__all__ = [
    "SpectralResponseTable",
    "HyperBandSpec",
    "BandWeights",
    "default_camera",
    "evenly_spaced_camera",
    "gaussian_design_matrix",
    "fit_band_weights",
    "simulate_bands",
    "synthetic_vnir_srf",
    "SYNTHETIC_VNIR_BANDS",
]

# float64 elements of one row slab of the cube in `simulate_bands` (16 MB)
_SLAB_BUDGET = 2**21

# Wavelength span of the modeled VNIR camera, nm.
CAMERA_RANGE_NM = (397.9, 1002.9)

# Synthetic stand-in for a published VNIR response table: (name, center nm,
# fwhm nm) for the 8 satellite bands modeled here.  Shapes are Gaussian; the
# real instrument curves are not redistributable, so tests and demos use this.
SYNTHETIC_VNIR_BANDS = [
    ("B2", 492.0, 66.0),
    ("B3", 560.0, 36.0),
    ("B4", 665.0, 31.0),
    ("B5", 704.0, 16.0),
    ("B6", 740.0, 15.0),
    ("B7", 783.0, 20.0),
    ("B8", 833.0, 106.0),
    ("B8A", 865.0, 22.0),
]


# columns of the response table CSV; `band` holds text, the others numbers
_CSV_COLUMNS = ("band", "wavelength_nm", "response")


def _fwhm_to_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass
class SpectralResponseTable:
    """Normalized response vs. wavelength for each target band.

    ``bands`` maps each of one or more band names to (wavelengths_nm,
    responses), two 1-D arrays of finite numbers; wavelengths are strictly
    increasing, responses lie in [0, 1], and each band has at least two
    samples.
    """

    bands: dict[str, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        bands = parameter("bands", self.bands,
                          lambda d: {name: tuple(pair) for name, pair in dict(d).items()},
                          lambda d: len(d) >= 1 and all(isinstance(name, str) and len(pair) == 2
                                                        for name, pair in d.items()),
                          "a dict from band names to (wavelengths, responses) pairs",
                          ValidationError)
        clean = {}
        for name, (wl, resp) in bands.items():
            wl = array(f"band {name!r} wavelengths", wl, ValidationError, ndim=1, finite=True)
            resp = array(f"band {name!r} responses", resp, ValidationError, ndim=1, finite=True)
            if wl.size < 2:
                raise ValidationError(f"band {name!r} needs at least 2 samples")
            if not np.all(np.diff(wl) > 0):
                raise ValidationError(f"band {name!r} wavelengths must be strictly increasing")
            if resp.shape != wl.shape:
                raise ValidationError(f"band {name!r} response length mismatch")
            if not (resp.min() >= 0 and resp.max() <= 1 + 1e-12):
                raise ValidationError(f"band {name!r} responses must lie in [0, 1]")
            clean[name] = (wl, resp)
        self.bands = clean

    @property
    def band_names(self) -> list[str]:
        return list(self.bands.keys())

    def to_csv(self, path) -> None:
        """Write `band,wavelength_nm,response` rows sorted by band then wavelength,
        each number as its shortest round-trip ``repr``."""
        path = parameter("path", path, *PATH, ValidationError)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for name in sorted(self.bands):
                wl, resp = self.bands[name]
                for w, r in zip(wl, resp):
                    writer.writerow([name, repr(float(w)), repr(float(r))])

    @classmethod
    def from_csv(cls, path) -> "SpectralResponseTable":
        _, rows = read_csv(path, _CSV_COLUMNS, "band")
        samples: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            samples.setdefault(row["band"], []).append((row["wavelength_nm"], row["response"]))
        # each band's pairs in wavelength order, as a wavelength and a response column
        return cls({name: tuple(np.array(sorted(pairs)).T) for name, pairs in samples.items()})


@dataclass(frozen=True)
class HyperBandSpec:
    """Hyperspectral camera model: band centers (nm) and a common FWHM (nm)."""

    centers: np.ndarray
    fwhm: float

    def __post_init__(self):
        object.__setattr__(self, "centers", array("centers", self.centers, ValidationError,
                                                  ndim=1, finite=True))
        if self.centers.size < 1:
            raise ValidationError("centers must hold at least one band")
        if not np.all(np.diff(self.centers) > 0):
            raise ValidationError("band centers must be strictly increasing")
        check_fields(self, ValidationError, ("fwhm", POSITIVE))

    @property
    def n_bands(self) -> int:
        return int(self.centers.size)

    @property
    def sigma(self) -> float:
        return _fwhm_to_sigma(self.fwhm)

    def to_dict(self) -> dict:
        return {"centers": self.centers.tolist(), "fwhm_nm": self.fwhm}

    @classmethod
    def from_dict(cls, d: dict) -> "HyperBandSpec":
        return cls(np.array([finite(c) for c in d["centers"]]), finite(d["fwhm_nm"]))


def default_camera() -> HyperBandSpec:
    """The 269-band VNIR camera: centers 397.9 + k*(605/268) nm, FWHM 6 nm."""
    return evenly_spaced_camera(269)


def evenly_spaced_camera(n_bands: int, fwhm: float | None = None) -> HyperBandSpec:
    """Camera with `n_bands` centers evenly spanning the VNIR range.

    With `fwhm` unset, the width defaults to 1.2x the band spacing so that
    neighboring responses overlap smoothly (and to 6 nm for the full
    269-band layout, matching :func:`default_camera`).
    """
    n_bands = parameter("n_bands", n_bands, whole_number, lambda v: v >= 2, "an integer >= 2",
                        ValidationError)
    lo, hi = CAMERA_RANGE_NM
    step = (hi - lo) / (n_bands - 1)
    if fwhm is None:
        fwhm = 6.0 if n_bands == 269 else 1.2 * step
    with allocating(f"{n_bands} camera band centers"):
        centers = lo + step * np.arange(n_bands)
    return HyperBandSpec(centers, fwhm)


def gaussian_design_matrix(spec: HyperBandSpec, grid: np.ndarray) -> np.ndarray:
    """Camera band responses evaluated on a wavelength grid.

    Entry (i, k) is exp(-(grid_i - center_k)^2 / (2 sigma^2)) with sigma
    derived from the camera FWHM.
    """
    instance("spec", spec, HyperBandSpec, ValidationError)
    grid = array("grid", grid, ValidationError, ndim=1, finite=True)
    if grid.size < 1:
        raise ValidationError("grid must hold at least one wavelength")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")
    sigma = spec.sigma
    d = grid[:, None] - spec.centers[None, :]
    return np.exp(-(d * d) / (2.0 * sigma * sigma))


@dataclass
class BandWeights:
    """Fitted per-target-band weights over the camera bands.

    ``weights`` are the normalized (sum-to-one) vectors actually applied to
    cubes; ``normalization`` is the raw NNLS weight sum, so the unnormalized
    fit is ``weights * normalization``.  ``residual`` is the 2-norm of the
    response reconstruction error of the raw fit.
    """

    camera: HyperBandSpec
    band_names: list[str]
    weights: np.ndarray            # (n_target_bands, K), rows sum to 1
    residuals: np.ndarray          # (n_target_bands,)
    normalizations: np.ndarray     # (n_target_bands,)

    def __post_init__(self):
        instance("camera", self.camera, HyperBandSpec, ValidationError)
        self.band_names = instances("band_names", self.band_names, str, ValidationError)
        self.weights = array("weights", self.weights, ValidationError, ndim=2, finite=True)
        self.residuals = array("residuals", self.residuals, ValidationError, ndim=1, finite=True)
        self.normalizations = array("normalizations", self.normalizations, ValidationError,
                                    ndim=1, finite=True)
        n = len(self.band_names)
        if self.weights.shape != (n, self.camera.n_bands):
            raise ValidationError("weights shape must be (n_bands, K)")
        if self.residuals.shape != (n,) or self.normalizations.shape != (n,):
            raise ValidationError("residuals and normalizations need one value per band")
        if (self.weights < 0).any():
            raise ValidationError("weights must be nonnegative")
        if not (self.weights.max(axis=1) > 0).all():
            raise ValidationError("every band needs at least one positive weight")

    def effective_centers(self) -> np.ndarray:
        """Weighted mean camera wavelength per target band."""
        return self.weights @ self.camera.centers

    def save_json(self, path) -> None:
        path = parameter("path", path, *PATH, ValidationError)
        doc = {
            "camera": self.camera.to_dict(),
            "bands": [
                {
                    "name": name,
                    "weights": self.weights[i].tolist(),
                    "residual": float(self.residuals[i]),
                    "normalization": float(self.normalizations[i]),
                }
                for i, name in enumerate(self.band_names)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load_json(cls, path) -> "BandWeights":
        doc = read_json(path)
        with parse_errors(path):
            camera = HyperBandSpec.from_dict(doc["camera"])
            names = [b["name"] for b in doc["bands"]]
            weights = np.array([[finite(w) for w in b["weights"]] for b in doc["bands"]],
                               dtype=np.float64)
            residuals = np.array([finite(b["residual"]) for b in doc["bands"]])
            norms = np.array([finite(b["normalization"]) for b in doc["bands"]])
            return cls(camera, names, weights, residuals, norms)


def fit_band_weights(
    srf: SpectralResponseTable,
    spec: HyperBandSpec,
    tol: float = 1e-10,
) -> BandWeights:
    """Fit nonnegative camera-band weights reproducing each target response.

    Each band's response table is resampled to a 1 nm grid by linear
    interpolation, fitted with NNLS against the Gaussian camera responses,
    and the weights rescaled to sum to one (the raw sum is recorded as the
    normalization constant).  NNLS fits the response divided by its peak, so
    that its stop test sees the same problem whatever the table's scale;
    the raw weights are scaled back.
    """
    instance("srf", srf, SpectralResponseTable, ValidationError)
    instance("spec", spec, HyperBandSpec, ValidationError)
    cam_lo, cam_hi = spec.centers[0], spec.centers[-1]
    names, rows, residuals, norms = [], [], [], []
    for name, (wl, resp) in srf.bands.items():
        if wl[-1] < cam_lo or wl[0] > cam_hi:
            raise DomainError(
                f"band {name!r} range [{wl[0]:.1f}, {wl[-1]:.1f}] nm does not "
                f"overlap camera range [{cam_lo:.1f}, {cam_hi:.1f}] nm"
            )
        grid = np.arange(math.ceil(wl[0]), math.floor(wl[-1]) + 1.0, 1.0)
        b = np.interp(grid, wl, resp)
        A = gaussian_design_matrix(spec, grid)
        peak = b.max() or 1.0  # an all-zero table still fits to zero
        x = nnls(A, b / peak, tol=tol) * peak
        total = float(x.sum())
        if total <= 0:
            raise DomainError(f"band {name!r} produced an all-zero fit")
        names.append(name)
        rows.append(x / total)
        residuals.append(float(np.linalg.norm(A @ x - b)))
        norms.append(total)
    return BandWeights(spec, names, np.array(rows), np.array(residuals), np.array(norms))


def simulate_bands(cube: Raster, weights: BandWeights) -> Raster:
    """Apply fitted band weights to a hyperspectral cube.

    Every output band is the per-pixel weighted average of the cube's bands
    using the normalized weights.  The cube's band count and wavelengths must
    match the camera model the weights were fitted for (within 0.01 nm; a
    band without a wavelength matches nothing).
    The sum runs over row slabs whose float64 copy stays within
    `_SLAB_BUDGET` elements, so no whole-cube float64 copy is made.
    """
    _require_raster("cube", cube)
    instance("weights", weights, BandWeights, ValidationError)
    K = weights.camera.n_bands
    if cube.n_bands != K:
        raise SchemaError(f"cube has {cube.n_bands} bands, camera model has {K}")
    if not (np.abs(cube.wavelengths - weights.camera.centers) <= 0.01).all():
        raise SchemaError("cube wavelengths are missing or do not match the camera band centers")

    _, H, W = cube.values.shape
    vals = np.empty((weights.weights.shape[0], H, W), dtype=np.float32)
    rows_per = max(1, _SLAB_BUDGET // (K * W))
    for r0 in range(0, H, rows_per):
        slab = cube.values[:, r0 : r0 + rows_per].astype(np.float64)
        vals[:, r0 : r0 + rows_per] = np.tensordot(weights.weights, slab, axes=([1], [0]))
    return Raster(cube.grid, vals, weights.band_names, cube.mask, weights.effective_centers())


def synthetic_vnir_srf() -> SpectralResponseTable:
    """Gaussian-shaped stand-in response table for the 8 VNIR satellite bands,
    sampled every 1 nm out to 3.5 sigma on each side of the center."""
    table = {}
    for name, center, fwhm in SYNTHETIC_VNIR_BANDS:
        sigma = _fwhm_to_sigma(fwhm)
        lo = math.floor(center - 3.5 * sigma)
        hi = math.ceil(center + 3.5 * sigma)
        wl = np.arange(lo, hi + 0.5, 1.0)
        resp = np.exp(-((wl - center) ** 2) / (2 * sigma * sigma))
        table[name] = (wl, resp / resp.max())
    return SpectralResponseTable(table)
