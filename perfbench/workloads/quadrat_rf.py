"""quadrat-rf: quadrat features, forest cross-validation, fit, save, map.

Set-up draws an 8-band 256x256 scene (24 hyperspectral bands through the
band weights), 144 quadrats of 0.5 m on a 12x12 lattice, and targets
``1 + 6 * mean NIR (B8) over the quadrat + N(0, 0.02)``, with the NIR means
computed here from the pixel windows.  The seed draws the scene layout and
the target noise; the endmember spectra are those of the acceptance gate's
downstream-ordering scene (endmember seed 77), a site where NIR carries
information that RGB does not.  With spectra drawn from the seed, RGB
predicts NIR almost as well as the 8 bands on about half the seeds.

One pass extracts the 8-band and RGB features, cross-validates (k=5) a
forest on each (p=8 with mtry=3, p=3 with mtry=1), fits the 8-band forest,
writes and reads it as JSON, and predicts with the reloaded forest on a
wall-to-wall map of 0.5 m cells centred every 0.25 m (127x127 cells).
"""

from __future__ import annotations

import numpy as np

import satfuse as sf

SIDE = 256
PIXEL_M = 0.125
N_TREES = 60
K_FOLDS = 5
QUADRAT_M = 0.5
MIN_PASSES = 2  # the second pass re-runs cross_validate to check it repeats
ENDMEMBER_SEED = 77


def _lattice(prefix, start, step, n):
    return [sf.Quadrat(f"{prefix}{i}_{j}", start + j * step, start + i * step, QUADRAT_M)
            for i in range(n) for j in range(n)]


def _window_means(r, quadrats, band):
    """Mean of one band over the pixels whose centres lie inside each quadrat."""
    g = r.grid
    xc = g.origin_x + (np.arange(g.width) + 0.5) * g.pixel_w
    yc = g.origin_y - (np.arange(g.height) + 0.5) * g.pixel_h
    plane = r.band(band).astype(np.float64)
    out = np.empty(len(quadrats))
    for i, q in enumerate(quadrats):
        rows = np.abs(yc - q.y) < q.side / 2
        cols = np.abs(xc - q.x) < q.side / 2
        out[i] = plane[np.ix_(rows, cols)].mean()
    return out


def setup(ctx):
    cfg = sf.SceneConfig(seed=ctx.seed, width=SIDE, height=SIDE, pixel_m=PIXEL_M,
                         endmember_seed=ENDMEMBER_SEED)
    weights = sf.fit_band_weights(sf.synthetic_vnir_srf(), cfg.camera())
    scene = sf.simulate_bands(sf.gen_hyper_scene(cfg), weights)
    quadrats = _lattice("q", 2.0, 2.25, 12)
    nir = _window_means(scene, quadrats, "B8")
    rng = np.random.default_rng([ctx.seed, 99])
    targets = 1.0 + 6.0 * nir + 0.02 * rng.standard_normal(len(quadrats))
    n_cells = int(SIDE * PIXEL_M / (QUADRAT_M / 2)) - 1
    return {
        "scene": scene,
        "rgb": scene.select_bands(["B4", "B3", "B2"]),
        "quadrats": quadrats,
        "nir": nir,
        "targets": targets,
        "cells": _lattice("m", QUADRAT_M / 2, QUADRAT_M / 2, n_cells),
    }


def warmup(ctx, inp):
    feats = sf.extract_quadrat_features(inp["scene"], inp["quadrats"][:40])
    model = sf.fit_forest(feats, inp["targets"][:40], sf.ForestConfig(n_trees=5), seed=ctx.seed)
    sf.predict(model, feats)


def run_pass(ctx, inp, p, first):
    y = inp["targets"]
    with p.op("extract_quadrat_features", "apply"):
        f8 = sf.extract_quadrat_features(inp["scene"], inp["quadrats"])
        f3 = sf.extract_quadrat_features(inp["rgb"], inp["quadrats"])
    nir_col = f8[:, inp["scene"].band_names.index("B8")]
    p.check("extract_quadrat_features", "NIR features equal the pixel-window means",
            np.allclose(nir_col, inp["nir"], rtol=1e-12, atol=0))

    cfg = sf.ForestConfig(n_trees=N_TREES)
    with p.op("cross_validate[8band]", "fit"):
        cv8 = sf.cross_validate(f8, y, k=K_FOLDS, cfg=cfg, seed=ctx.seed)
    with p.op("cross_validate[rgb]", "fit"):
        cv3 = sf.cross_validate(f3, y, k=K_FOLDS, cfg=cfg, seed=ctx.seed)
    r8, r3 = cv8["pooled"]["r2"], cv3["pooled"]["r2"]
    p.check("cross_validate[rgb]", "8-band pooled R2 beats RGB pooled R2 by >= 0.1",
            r8 - r3 >= 0.1, f"{r8:.4f} vs {r3:.4f}")
    p.out.update(cv8=cv8, cv3=cv3, trees=N_TREES * (2 * K_FOLDS + 1), cv_r2=r8)
    if first is not p:
        p.check("cross_validate[8band]", "same seed, same cross-validation result",
                cv8 == first.out.get("cv8") and cv3 == first.out.get("cv3"))

    with p.op("fit_forest", "fit"):
        model = sf.fit_forest(f8, y, cfg, seed=ctx.seed)
    tree = sf.fit_forest(f8, y, sf.ForestConfig(n_trees=1, bootstrap=False), seed=ctx.seed)
    p.check("fit_forest", "an unbootstrapped fully grown tree reproduces its targets",
            np.array_equal(sf.predict(tree, f8), y))

    path = ctx.workdir / f"forest-{p.index}.json"
    with p.op("to_json", "io"):
        model.to_json(path)
    with p.op("from_json", "io"):
        loaded = sf.ForestModel.from_json(path)

    with p.op("extract_map_features", "apply"):
        fm = sf.extract_quadrat_features(inp["scene"], inp["cells"])
    with p.op("predict", "apply"):
        pred = sf.predict(loaded, fm)
    p.out["rows"] = len(fm)
    p.check("predict", "map predictions lie within the training target range",
            pred.min() >= y.min() and pred.max() <= y.max(),
            f"[{pred.min():.4f}, {pred.max():.4f}] vs [{y.min():.4f}, {y.max():.4f}]")
    p.check("predict", "reloaded forest predicts bit-identically",
            sf.predict(model, fm).tobytes() == pred.tobytes())


def summary(passes):
    from harness import median

    ok = [p for p in passes if "rows" in p.out]
    if not ok:
        return {}
    fit = [p.op_seconds("cross_validate") + p.op_seconds("fit_forest") for p in ok]
    return {
        "rf_trees_per_s": (median(p.out["trees"] / t for p, t in zip(ok, fit)), "trees/s"),
        "rf_predict_krows_per_s": (median(p.out["rows"] / 1e3 / p.op_seconds("predict") for p in ok), "krows/s"),
        "rf_cv_r2": (median(p.out["cv_r2"] for p in ok), "1"),
    }
