"""Synthetic scenes with known ground truth for every pipeline stage.

Each scene is a hyperspectral cube built from a handful of smooth endmember
spectra mixed by spatially smooth abundance maps, so the exact fine-scale
truth is known for band simulation, degradation, registration, and
super-resolution benchmarks.  Everything is reproducible from (seed, config)
alone; per-scene randomness derives from (seed, scene_index).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .bsf import read_bsf, write_bsf
from .errors import (COUNT, FINITE, INDEX, NONNEGATIVE, PAIR, PATH, POSITIVE, GeometryError,
                     ValidationError, allocating, check_fields, instance, parameter, parse_errors,
                     read_json, whole_number)
from .raster import (
    GeoGrid,
    Raster,
    _require_raster,
    block_mean,
    stack_bands,
    translate_pixels,
    upsample_bicubic,
)
from .spectral import (
    CAMERA_RANGE_NM,
    evenly_spaced_camera,
    fit_band_weights,
    simulate_bands,
    synthetic_vnir_srf,
)

__all__ = [
    "SceneConfig",
    "gen_hyper_scene",
    "degrade",
    "make_fusion_dataset",
    "load_manifest",
    "assemble_pairs",
    "RGB_BANDS",
]

# simulated satellite bands reused as the camera RGB product (R, G, B order)
RGB_BANDS = (("B4", "red"), ("B3", "green"), ("B2", "blue"))


@dataclass(frozen=True)
class SceneConfig:
    """Everything needed to generate one synthetic scene deterministically."""

    seed: int = 0
    width: int = 640           # fine pixels
    height: int = 640
    n_bands: int = 24          # hyperspectral bands across the VNIR range
    n_endmembers: int = 5
    smoothness: float = 4.0    # abundance-field length scale, fine pixels
    noise_sigma: float = 0.0   # additive noise on the degraded product
    shift: tuple[int, int] = (0, 0)  # injected translation, fine pixels
    scale: int = 8             # fine pixels per coarse pixel
    gain: float = 1.0
    offset: float = 0.0
    pixel_m: float = 0.125
    fwhm: float | None = None  # camera FWHM override (nm)
    # endmember spectra seed; None reuses `seed`.  Dataset generation pins
    # this across scenes so train and test share one spectral world (same
    # materials, different layouts) while abundance fields stay per-scene.
    endmember_seed: int | None = None

    def __post_init__(self):
        check_fields(self, ValidationError, ("seed endmember_seed", INDEX),
                     ("width height scale n_endmembers", COUNT),
                     ("n_bands", (whole_number, lambda v: v >= 2, "an integer >= 2")),
                     ("smoothness noise_sigma", NONNEGATIVE), ("gain offset", FINITE),
                     ("pixel_m fwhm", POSITIVE), ("shift", PAIR))
        if self.width % self.scale or self.height % self.scale:
            raise ValidationError("width and height must be divisible by scale")

    def camera(self):
        return evenly_spaced_camera(self.n_bands, self.fwhm)

    def fine_grid(self) -> GeoGrid:
        return GeoGrid(
            origin_x=0.0,
            origin_y=self.height * self.pixel_m,
            pixel_w=self.pixel_m,
            pixel_h=self.pixel_m,
            width=self.width,
            height=self.height,
        )


def _endmember_spectra(rng, n_endmembers: int, centers: np.ndarray) -> np.ndarray:
    """Smooth spectra: each endmember is a sum of 2-4 Gaussians, clipped to [0, 1]."""
    lo, hi = CAMERA_RANGE_NM
    E = np.zeros((n_endmembers, centers.size))
    for m in range(n_endmembers):
        n_gauss = int(rng.integers(2, 5))
        amps = rng.uniform(0.2, 0.9, n_gauss)
        mus = rng.uniform(lo, hi, n_gauss)
        widths = rng.uniform(30.0, 120.0, n_gauss)
        for a, mu, w in zip(amps, mus, widths):
            E[m] += a * np.exp(-((centers - mu) ** 2) / (2.0 * w * w))
    return np.clip(E, 0.0, 1.0)


def _abundance_maps(rng, cfg: SceneConfig) -> np.ndarray:
    """Smoothed random fields pushed through a softmax onto the simplex."""
    fields = rng.standard_normal((cfg.n_endmembers, cfg.height, cfg.width))
    if cfg.n_endmembers == 1:
        return np.ones_like(fields)
    fields = gaussian_filter(fields, sigma=(0, cfg.smoothness, cfg.smoothness), mode="reflect")
    std = fields.std(axis=(1, 2), keepdims=True)
    fields = fields / np.maximum(std, 1e-12)
    # temperature sets abundance contrast between patches
    e = np.exp(fields / 0.5)
    return e / e.sum(axis=0)


def gen_hyper_scene(cfg: SceneConfig, return_parts: bool = False):
    """Generate a K-band hyperspectral cube with wavelength metadata.

    Per-pixel spectra are convex mixtures of the endmember spectra; values
    are clipped to [0, 1].  With `return_parts` the abundance maps and
    endmember spectra come back alongside the cube.

    The cube is mixed one band at a time straight into its float32 array, so
    no float64 cube exists: beyond the cube, the call's peak memory stays
    under M + 3 float64 band planes for M endmembers (the abundance maps,
    two mixing planes and the mask), whatever the band count.  Each band
    sums its terms in float64 in the order
    ``((E0*a0 + E1*a1) + ...) + E(M-1)*a(M-1)``, a multiply then an add, as
    ``np.einsum("mk,mhw->khw", E, ab)`` does, then clips and rounds to
    float32: the bytes equal that einsum's, clipped and cast.  (A BLAS
    product fuses multiply and add and can differ in the last bit.)
    A scene too large for NumPy or for memory is a ValidationError.
    """
    instance("cfg", cfg, SceneConfig, ValidationError)
    camera = cfg.camera()
    em_seed = cfg.seed if cfg.endmember_seed is None else cfg.endmember_seed
    with allocating(f"a {cfg.n_bands}x{cfg.height}x{cfg.width} scene of "
                    f"{cfg.n_endmembers} endmembers"):
        E = _endmember_spectra(
            np.random.default_rng([em_seed, 3]), cfg.n_endmembers, camera.centers
        )
        ab = _abundance_maps(np.random.default_rng([cfg.seed, 1]), cfg)
        cube = np.empty((cfg.n_bands, cfg.height, cfg.width), dtype=np.float32)
        acc, term = np.empty((2, cfg.height, cfg.width))
    for k in range(cfg.n_bands):
        np.multiply(ab[0], E[0, k], out=acc)
        for m in range(1, cfg.n_endmembers):
            acc += np.multiply(ab[m], E[m, k], out=term)
        np.clip(acc, 0.0, 1.0, out=cube[k])
    names = [f"hs{k:03d}" for k in range(cfg.n_bands)]
    raster = Raster(cfg.fine_grid(), cube, names, wavelengths=camera.centers)
    if return_parts:
        return raster, ab, E
    return raster


def degrade(fine: Raster, cfg: SceneConfig) -> Raster:
    """Simulate the coarse sensor product for a fine truth raster.

    Translate by the injected shift (whole fine pixels), block-average by the
    scale factor, apply the per-band gain/offset, add seeded Gaussian noise,
    and clip to [0, 1].  Coarse cells whose (shifted) source block falls
    partly outside the fine footprint are masked invalid.
    """
    _require_raster("fine", fine)
    instance("cfg", cfg, SceneConfig, ValidationError)
    S = cfg.scale
    _, H, W = fine.shape
    tx, ty = cfg.shift
    if abs(tx) > W - S or abs(ty) > H - S:
        raise GeometryError(f"shift {cfg.shift} exceeds the image margin for scale {S}")
    # coarse cell (i, j) averages the fine block starting at (i*S + ty, j*S + tx)
    shifted = translate_pixels(fine, -tx, -ty) if (tx or ty) else fine
    coarse = block_mean(shifted, S)

    vals = coarse.values.astype(np.float64)
    vals = cfg.gain * vals + cfg.offset
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng([cfg.seed, 2])
        vals = vals + rng.normal(0.0, cfg.noise_sigma, size=vals.shape)
    np.clip(vals, 0.0, 1.0, out=vals)
    return replace(coarse, values=vals)


def _split_sizes(n_scenes: int) -> list[str]:
    n_test = 2 if n_scenes >= 5 else 1
    n_val = 1
    n_train = n_scenes - n_test - n_val
    return ["train"] * n_train + ["val"] * n_val + ["test"] * n_test


def _scene_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_fusion_dataset(cfg: SceneConfig, n_scenes: int, out_dir) -> dict:
    """Write a band-stack file set plus manifest for fusion experiments.

    Per scene: the hyperspectral cube, the simulated 8-band fine truth, the
    3-band camera RGB product, the degraded coarse 8-band product, and its
    bicubic upsampling back to the fine grid.  The manifest assigns scenes to
    train/val/test.
    """
    instance("cfg", cfg, SceneConfig, ValidationError)
    n_scenes = parameter("n_scenes", n_scenes, whole_number, lambda v: v >= 3,
                         "an integer >= 3, for train, val and test splits", ValidationError)
    out = Path(parameter("out_dir", out_dir, *PATH, ValidationError))
    out.mkdir(parents=True, exist_ok=True)

    srf = synthetic_vnir_srf()
    weights = fit_band_weights(srf, cfg.camera())
    splits = _split_sizes(n_scenes)

    em_seed = cfg.seed if cfg.endmember_seed is None else cfg.endmember_seed
    scenes = []
    for i in range(n_scenes):
        scfg = replace(cfg, seed=_scene_seed(cfg.seed, i), endmember_seed=em_seed)
        cube = gen_hyper_scene(scfg)
        truth8 = simulate_bands(cube, weights)
        rgb = truth8.select_bands([b for b, _ in RGB_BANDS], rename=[n for _, n in RGB_BANDS])
        coarse = degrade(truth8, scfg)
        up = upsample_bicubic(coarse, cfg.scale)

        sid = f"scene{i:02d}"
        files = {
            "hyper": f"{sid}_hyper.bsf",
            "truth8": f"{sid}_truth8.bsf",
            "rgb": f"{sid}_rgb.bsf",
            "coarse": f"{sid}_coarse.bsf",
            "coarse_upsampled": f"{sid}_coarse_up.bsf",
        }
        write_bsf(cube, out / files["hyper"])
        write_bsf(truth8, out / files["truth8"])
        write_bsf(rgb, out / files["rgb"])
        write_bsf(coarse, out / files["coarse"])
        write_bsf(up, out / files["coarse_upsampled"])
        scenes.append({"id": sid, "split": splits[i], "files": files})

    cfg_doc = asdict(cfg)
    cfg_doc["shift"] = list(cfg_doc["shift"])
    manifest = {"seed": cfg.seed, "config": cfg_doc, "scenes": scenes}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    manifest["_dir"] = str(out)  # as `load_manifest` sets it
    return manifest


def load_manifest(path) -> dict:
    """Read a dataset manifest; its directory is the base of the scene file names."""
    path = Path(parameter("path", path, *PATH, ValidationError))
    manifest = read_json(path)
    with parse_errors(path):
        for scene in manifest["scenes"]:
            if not isinstance(scene["split"], str) or not isinstance(scene["files"], dict):
                raise TypeError("each scene needs a 'split' string and a 'files' object")
    manifest["_dir"] = str(path.parent)
    return manifest


# manifest file keys of each variant's input bands, stacked in this order
_VARIANT_INPUTS = {
    "stacked": ("coarse_upsampled", "rgb"),
    "rgb": ("rgb",),
    "coarse": ("coarse_upsampled",),
}


def assemble_pairs(manifest: dict, split: str, variant: str = "stacked"):
    """Load (input, target) raster pairs for one split.

    variant:
        "stacked"  upsampled coarse bands stacked with camera RGB (11 ch)
        "rgb"      camera RGB only (3 ch)
        "coarse"   upsampled coarse bands only (8 ch)
    Targets are always the fine 8-band truth.
    """
    instance("manifest", manifest, dict, ValidationError)
    instance("split", split, str, ValidationError)
    parameter("variant", variant, lambda v: v,
              lambda v: isinstance(v, str) and v in _VARIANT_INPUTS,
              f"one of {', '.join(map(repr, _VARIANT_INPUTS))}", ValidationError)
    base = manifest.get("_dir", ".")
    with parse_errors(f"manifest in {base}"):
        base = Path(base)
        chosen = [
            (base / s["files"]["truth8"], [base / s["files"][k] for k in _VARIANT_INPUTS[variant]])
            for s in manifest["scenes"]
            if s["split"] == split
        ]
    return [(stack_bands(*map(read_bsf, inputs)), read_bsf(truth)) for truth, inputs in chosen]
