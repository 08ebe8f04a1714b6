"""scene-prep: band weights, band simulation, snapping, registration, bicubic.

Set-up draws 4 scenes of 320x320 fine pixels and 269 hyperspectral bands
(the `default_camera` layout). The coarse 8-band product of each scene is
made as a satellite would see it: the response table sampled at the camera
band centres, applied to the cube, then `degrade` by 8 with a seeded shift
of -3..3 fine pixels per axis (within half a coarse pixel, so the search
scores the same number of shifts whatever the seed). The camera mosaic
written to disk is a 312x312 window of the cube at a seeded offset of 1..7
fine pixels per axis, so its origin is off the coarse grid. One pass fits
the band weights, then for each scene reads both files, simulates the 8
bands, snaps the mosaic to the coarse grid, registers it, upsamples the
coarse product x8, evaluates that against the registered simulated bands,
and writes the snapped and upsampled products.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import satfuse as sf

from . import check_evaluate, crop

SIDE = 320
MOSAIC = 312
MAX_SHIFT = 3
N_SCENES = 4
SCALE = 8
PIXEL_M = 0.125
FIT_TOL = 1e-10  # fit_band_weights' default
MIN_PASSES = 2


def _sub_seed(seed: int, *keys: int) -> int:
    """An independent 32-bit seed for one part of the inputs."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _window_of(r, grid):
    """(row0, col0) of `grid`'s upper-left pixel inside raster `r`'s grid."""
    g = r.grid
    col0 = (grid.origin_x - g.origin_x) / g.pixel_w
    row0 = (g.origin_y - grid.origin_y) / g.pixel_h
    return int(round(row0)), int(round(col0))


def _sensor_weights(camera):
    """Response table sampled at the camera centres, each row summing to 1."""
    srf = sf.synthetic_vnir_srf()
    rows = np.array([np.interp(camera.centers, wl, resp, left=0.0, right=0.0)
                     for wl, resp in srf.bands.values()])
    return list(srf.bands), rows / rows.sum(axis=1, keepdims=True)


def setup(ctx):
    camera = sf.default_camera()
    names, sensor = _sensor_weights(camera)
    scenes = []
    for s in range(N_SCENES):
        rng = np.random.default_rng(_sub_seed(ctx.seed, s, 1))
        shift = tuple(int(v) for v in rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2))
        row_off, col_off = (int(v) for v in rng.integers(1, SCALE, size=2))
        cfg = sf.SceneConfig(seed=_sub_seed(ctx.seed, s), width=SIDE, height=SIDE,
                             n_bands=camera.n_bands, fwhm=camera.fwhm, shift=shift,
                             scale=SCALE, pixel_m=PIXEL_M)
        cube = sf.gen_hyper_scene(cfg)
        seen = np.tensordot(sensor, cube.values, axes=1)
        coarse = sf.degrade(sf.Raster(cube.grid, seen, names), cfg)
        mosaic = crop(cube, row_off, col_off, MOSAIC, MOSAIC)
        files = {"cube": ctx.workdir / f"scene{s}_cube.bsf",
                 "coarse": ctx.workdir / f"scene{s}_coarse.bsf"}
        sf.write_bsf(mosaic, files["cube"])
        sf.write_bsf(coarse, files["coarse"])
        # register reports the move of the fine image onto the coarse one
        scenes.append({"files": files, "expected_shift": (-shift[0], -shift[1])})
    return scenes


def warmup(ctx, scenes):
    sf.fit_band_weights(sf.synthetic_vnir_srf(), sf.default_camera())


def _kkt_violation(weights, srf, camera) -> float:
    """Worst KKT violation over bands, as a multiple of tol * ||A^T A||_inf.

    The design matrix and target are rebuilt here from the response table
    and the camera model; g = A^T (A x - b) on the unnormalised weights.
    """
    sigma = camera.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    worst = 0.0
    for i, name in enumerate(weights.band_names):
        wl, resp = srf.bands[name]
        grid = np.arange(math.ceil(wl[0]), math.floor(wl[-1]) + 1.0, 1.0)
        b = np.interp(grid, wl, resp)
        A = np.exp(-((grid[:, None] - camera.centers[None, :]) ** 2) / (2.0 * sigma * sigma))
        x = weights.weights[i] * weights.normalizations[i]
        g = A.T @ (A @ x - b)
        eps = FIT_TOL * float(np.max(np.abs(A.T @ A).sum(axis=1)))
        pos = x > 0
        stationarity = float(np.max(np.abs(g[pos]))) if pos.any() else 0.0
        dual = float(max(0.0, -np.min(g[~pos]))) if (~pos).any() else 0.0
        worst = max(worst, stationarity / eps, dual / eps)
    return worst


def _same_raster(a, b) -> bool:
    return (a.grid == b.grid and a.band_names == b.band_names
            and a.values.tobytes() == b.values.tobytes() and np.array_equal(a.mask, b.mask))


def run_pass(ctx, scenes, p, first):
    srf = sf.synthetic_vnir_srf()
    camera = sf.default_camera()
    with p.op("fit_band_weights", "fit"):
        weights = sf.fit_band_weights(srf, camera, tol=FIT_TOL)
    w = weights.weights
    p.check("fit_band_weights", "weights nonnegative, rows sum to 1",
            (w >= 0).all() and np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12))
    worst = _kkt_violation(weights, srf, camera)
    p.check("fit_band_weights", "KKT conditions hold within tol*||A^T A||_inf", worst <= 1.0,
            f"worst violation {worst:.3g} of the allowance")

    pixels = 0
    for s, scene in enumerate(scenes):
        tag = f"[{s}]"
        with p.op("read_bsf" + tag, "io"):
            cube = sf.read_bsf(scene["files"]["cube"])
            coarse = sf.read_bsf(scene["files"]["coarse"])
        pixels += cube.grid.width * cube.grid.height

        with p.op("simulate_bands" + tag, "apply"):
            fine = sf.simulate_bands(cube, weights)
        # the einsum runs on the first pass; later passes must repeat it bit for bit
        digest = hashlib.sha256(fine.values.tobytes()).hexdigest()
        p.out.setdefault("digests", []).append(digest)
        if first is p:
            ref = np.einsum("bk,khw->bhw", w, cube.values.astype(np.float64))
            err = float(np.max(np.abs(fine.values - ref) / np.maximum(np.abs(ref), 1e-30)))
            p.check("simulate_bands" + tag, "simulate_bands equals an einsum within float32 rounding",
                    err <= 2.0**-23, f"max relative error {err:.3g}")
            del ref
        else:
            p.check("simulate_bands" + tag, "simulate_bands repeats the first pass bit for bit",
                    digest == first.out["digests"][s])
        del cube

        with p.op("snap_to_grid" + tag, "apply"):
            snapped = sf.snap_to_grid(fine, coarse.grid, PIXEL_M)
        g, cg = snapped.grid, coarse.grid
        fx = (g.origin_x - cg.origin_x) / cg.pixel_w
        fy = (cg.origin_y - g.origin_y) / cg.pixel_h
        p.check("snap_to_grid" + tag, "origin on a coarse corner, dimensions multiples of the scale",
                fx == round(fx) and fy == round(fy) and g.width % SCALE == 0 and g.height % SCALE == 0,
                f"origin at ({fx}, {fy}) coarse pixels, {g.width}x{g.height}")

        with p.op("register" + tag, "apply"):
            est = sf.register(snapped, coarse)
        p.check("register" + tag, "register recovers the injected shift",
                tuple(est.shift_px) == scene["expected_shift"],
                f"{est.shift_px} vs {scene['expected_shift']}")
        p.out.setdefault("shifts_scored", 0)
        p.out["shifts_scored"] += est.evaluations

        with p.op("upsample_bicubic" + tag, "apply"):
            up = sf.upsample_bicubic(coarse, SCALE)

        with p.op("evaluate" + tag, "apply"):
            aligned = sf.translate_pixels(snapped, *est.shift_px)
            bicubic = crop(up, *_window_of(up, aligned.grid), aligned.grid.height, aligned.grid.width)
            report = sf.evaluate(bicubic, aligned)
        check_evaluate(p, "evaluate" + tag, report, bicubic, aligned)

        paths = [ctx.workdir / f"out{s}_snapped.bsf", ctx.workdir / f"out{s}_bicubic.bsf"]
        with p.op("write_bsf" + tag, "io"):
            sf.write_bsf(snapped, paths[0])
            sf.write_bsf(up, paths[1])
        p.check("write_bsf" + tag, "BSF round trips are bit-exact",
                _same_raster(sf.read_bsf(paths[0]), snapped) and _same_raster(sf.read_bsf(paths[1]), up))
    p.out["cube_pixels"] = pixels


def summary(passes):
    from harness import median

    ok = [p for p in passes if "cube_pixels" in p.out]
    if not ok:
        return {}
    prep = [p.seconds - p.op_seconds("fit_band_weights") for p in ok]
    return {
        "fit_srf_s": (median(p.op_seconds("fit_band_weights") for p in ok), "s"),
        "prep_mpix_per_s": (median(p.out["cube_pixels"] / 1e6 / t for p, t in zip(ok, prep)), "Mpx/s"),
    }
