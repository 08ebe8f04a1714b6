"""Train the fusion network on a small synthetic dataset.

The model takes the bicubically upsampled coarse bands stacked with the sharp
camera RGB (11 channels in) and predicts the 8 bands at camera resolution.
This run is deliberately small so it finishes in a couple of minutes; the
acceptance suite runs the full desk-scale benchmark.
"""

import tempfile
import time
from pathlib import Path

from satfuse import evaluate, infer_tiled, preset, train
from satfuse.synthetic import SceneConfig, assemble_pairs, make_fusion_dataset
from satfuse.training import TrainConfig

out = Path(tempfile.mkdtemp(prefix="fusion_demo_"))
cfg = SceneConfig(seed=4, width=160, height=160, n_bands=16, scale=8)
manifest = make_fusion_dataset(cfg, 6, out)
print(f"dataset: 6 scenes in {out}")
for s in manifest["scenes"]:
    print(f"  {s['id']}: {s['split']}")

train_pairs = assemble_pairs(manifest, "train", "stacked")
val_pairs = assemble_pairs(manifest, "val", "stacked")
print(f"{len(train_pairs)} training scene(s), input bands: {train_pairs[0][0].n_bands}")

arch = preset("spectral")
print(f"architecture '{arch.name}': {arch.in_channels} -> "
      + " -> ".join(str(f) for _, f in arch.layers)
      + f", kernels {[k for k, _ in arch.layers]}, {arch.parameter_count()} parameters")

t0 = time.time()
tcfg = TrainConfig(scale=8, patch_coarse=2, batch_size=8, learning_rate=3e-3,
                   epochs=24, seed=0)
model, log = train(arch, train_pairs, tcfg, val_pairs=val_pairs)
print(f"trained {tcfg.epochs} epochs in {time.time() - t0:.0f}s")
for epoch, tr, va in log[::3] + [log[-1]]:
    print(f"  epoch {epoch}: train {tr:.2e}  val {va:.2e}")

# compare against the bicubic baseline on the held-out scene
test_pairs = assemble_pairs(manifest, "test", "stacked")
baseline_pairs = assemble_pairs(manifest, "test", "coarse")
for (inp, truth), (up, _) in zip(test_pairs, baseline_pairs):
    pred = infer_tiled(model, inp, band_names=truth.band_names)
    net = evaluate(pred, truth)
    base = evaluate(up, truth)
    print(f"test scene: bicubic {base.psnr:.2f} dB -> network {net.psnr:.2f} dB "
          f"({net.psnr - base.psnr:+.2f})")
