"""fusion: train the spectral fusion net, checkpoint it, run tiled inference.

Set-up writes a seeded `make_fusion_dataset`: 4 scenes of 320x320 fine pixels
and 24 hyperspectral bands (2 train, 1 val, 1 test).  The seed draws every
scene's layout; the endmember spectra (the site's materials) are fixed, so
that the quality figures compare nets, not spectral worlds.  One pass:
`assemble_pairs`, `train` of preset ``spectral`` with the val pool,
`save_checkpoint`/`load_checkpoint`, then `infer_tiled` and `evaluate` of the
fused and bicubic products on the held-out scene.  Inference uses 256-pixel
tiles with a 16-pixel overlap, so a 320-pixel scene takes two tiles per axis:
the same 2.56x computed-to-written pixel ratio as a 640-pixel scene under
the default 512-pixel tile.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate

import satfuse as sf

from . import check_evaluate, crop

SIDE = 320
N_SCENES = 4
N_BANDS = 24
SMOOTHNESS = 2.0
ENDMEMBER_SEED = 0
TILE, OVERLAP = 256, 16
PARAMETERS = 114624  # preset "spectral": 9x9x11x64 + 5x5x64x32 + 5x5x32x8
TRAIN = dict(
    scale=8,
    patch_coarse=2,
    patch_stride_coarse=2,
    batch_size=4,
    learning_rate=1e-3,
    epochs=2,
)
STRIP = 2  # width of the strips compared against the reference forward pass


def setup(ctx):
    cfg = sf.SceneConfig(
        seed=ctx.seed,
        width=SIDE,
        height=SIDE,
        n_bands=N_BANDS,
        smoothness=SMOOTHNESS,
        endmember_seed=ENDMEMBER_SEED,
    )
    out = ctx.workdir / "fusion"
    manifest = sf.make_fusion_dataset(cfg, N_SCENES, out)
    manifest["_dir"] = str(out)
    return manifest


def warmup(ctx, manifest):
    """One tiny training run and inference on a 48x48 window."""
    inp, truth = sf.assemble_pairs(manifest, "train", "stacked")[0]
    pair = (crop(inp, 0, 0, 48, 48), crop(truth, 0, 0, 48, 48))
    cfg = sf.TrainConfig(**{**TRAIN, "epochs": 1, "seed": ctx.seed})
    model, _ = sf.train(sf.preset("spectral"), [pair], cfg, val_pairs=[pair])
    sf.infer_tiled(model, pair[0], tile=40, overlap=OVERLAP)


def _reference_forward(weights, slope, x):
    """Per-layer scipy correlate with replicate edges, LeakyReLU, float64."""
    a = x
    last = len(weights) - 1
    for li, w in enumerate(weights):
        z = np.zeros((w.shape[0],) + a.shape[1:])
        for o in range(w.shape[0]):
            for i in range(w.shape[1]):
                z[o] += correlate(a[i], w[o, i], mode="nearest")
        a = z if li == last else np.where(z > 0, z, slope * z)
    return a


def reference_max_error(model, inputs, pred) -> float:
    """Largest |pred - reference| over the image frame and a central cross.

    Full-width strips at the top, middle and bottom, and full-height strips
    at the left, middle and right, cross every tile seam whatever the tile
    plan, and the frame holds the four corners.  Each strip is computed from
    its window widened by the receptive radius, which is exact: at the image
    edge the window edge is the image edge, elsewhere the widened margin is
    dropped.
    """
    x = inputs.filled_values()
    _, H, W = x.shape
    radius = sum(w.shape[-1] // 2 for w in model.weights)
    mid_r, mid_c = H // 2 - STRIP // 2, W // 2 - STRIP // 2
    regions = [
        (0, STRIP, 0, W),
        (mid_r, mid_r + STRIP, 0, W),
        (H - STRIP, H, 0, W),
        (0, H, 0, STRIP),
        (0, H, mid_c, mid_c + STRIP),
        (0, H, W - STRIP, W),
    ]
    worst = 0.0
    for r0, r1, c0, c1 in regions:
        a0, a1 = max(0, r0 - radius), min(H, r1 + radius)
        b0, b1 = max(0, c0 - radius), min(W, c1 + radius)
        ref = _reference_forward(model.weights, model.arch.slope, x[:, a0:a1, b0:b1])
        ref = ref[:, r0 - a0 : r1 - a0, c0 - b0 : c1 - b0]
        got = pred.values[:, r0:r1, c0:c1].astype(np.float64)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst


def run_pass(ctx, manifest, p, first):
    with p.op("assemble_pairs", "io"):
        train_pairs = sf.assemble_pairs(manifest, "train", "stacked")
        val_pairs = sf.assemble_pairs(manifest, "val", "stacked")
        test_pairs = sf.assemble_pairs(manifest, "test", "stacked")
        bicubic_pairs = sf.assemble_pairs(manifest, "test", "coarse")

    cfg = sf.TrainConfig(**TRAIN, seed=ctx.seed)
    with p.op("train", "fit"):
        model, log = sf.train(sf.preset("spectral"), train_pairs, cfg, val_pairs=val_pairs)
    p.out["train_patches"] = model.train_meta["n_train_patches"] * cfg.epochs
    first_val = log[0][2]
    best_val = model.train_meta["best_val_loss"]
    p.check("train", "best val loss below first-epoch val loss", best_val < first_val,
            f"{best_val:.6g} vs {first_val:.6g}")

    path = ctx.workdir / f"spectral-{p.index}.ckpt"
    with p.op("save_checkpoint", "io"):
        sf.save_checkpoint(model, path)
    with p.op("load_checkpoint", "io"):
        loaded = sf.load_checkpoint(path)
    n_params = loaded.parameter_count()
    p.check("load_checkpoint", "reloaded checkpoint has 114624 parameters",
            n_params == PARAMETERS == sf.preset("spectral").parameter_count(), str(n_params))
    same = all(
        np.array_equal(a, b.astype(np.float32).astype(np.float64))
        for a, b in zip(loaded.weights, model.weights)
    )
    p.check("load_checkpoint", "reloaded weights equal the float32 weights", same)

    gains, pixels = [], 0
    for k, ((inp, truth), (bicubic, _)) in enumerate(zip(test_pairs, bicubic_pairs)):
        name = f"infer_tiled[{k}]"
        with p.op(name, "apply"):
            pred = sf.infer_tiled(loaded, inp, tile=TILE, overlap=OVERLAP, band_names=truth.band_names)
        pixels += pred.grid.width * pred.grid.height
        err = reference_max_error(loaded, inp, pred)
        p.check(name, "tiled output matches the scipy reference within 1e-5", err <= 1e-5, f"{err:.3g}")

        ev = f"evaluate[{k}]"
        with p.op(ev, "apply"):
            fused = sf.evaluate(pred, truth)
            base = sf.evaluate(bicubic, truth)
        for report, product in ((fused, pred), (base, bicubic)):
            check_evaluate(p, ev, report, product, truth)
        p.check(ev, "fused PSNR exceeds bicubic PSNR", fused.psnr > base.psnr,
                f"{fused.psnr:.3f} vs {base.psnr:.3f} dB")
        gains.append(fused.psnr - base.psnr)
    p.out["infer_pixels"] = pixels
    p.out["psnr_gain_db"] = float(np.mean(gains))


def summary(passes):
    from harness import median

    ok = [p for p in passes if "psnr_gain_db" in p.out]
    if not ok:
        return {}
    return {
        "train_patches_per_s": (median(p.out["train_patches"] / p.op_seconds("train") for p in ok), "patches/s"),
        "infer_mpix_per_s": (median(p.out["infer_pixels"] / 1e6 / p.op_seconds("infer_tiled") for p in ok), "Mpx/s"),
        "sr_psnr_gain_db": (median(p.out["psnr_gain_db"] for p in ok), "dB"),
    }
