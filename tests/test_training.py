import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import satfuse

from satfuse import srcnn
from satfuse.errors import ConfigError, DataError, ShapeError, ValidationError
from satfuse.raster import Raster
from satfuse.srcnn import ArchConfig, preset
from satfuse.training import TrainConfig, loss_log_to_csv, train

from conftest import make_grid, random_raster, traced_peak


def smooth_pair(seed, w=64, h=64, nb=8):
    rng = np.random.default_rng(seed)
    vals = gaussian_filter(rng.standard_normal((nb, h, w)), sigma=(0, 3, 3))
    vals = 0.5 + 0.2 * vals / vals.std()
    r = Raster(make_grid(w, h), np.clip(vals, 0, 1).astype(np.float32),
               [f"b{i}" for i in range(nb)])
    return r, r.copy()


TINY = ArchConfig(8, 8, ((1, 16), (1, 8)), name="tiny-identity")


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(scale=0)

    def test_patch_side(self):
        assert TrainConfig(scale=8, patch_coarse=2).patch_side == 16
        assert TrainConfig(scale=80, patch_coarse=2).patch_side == 160


class TestTrain:
    def test_identity_task_converges_within_200_steps(self):
        # 2 scenes x 16 patches = 32 patches; ~2 steps/epoch, 100 epochs
        pairs = [smooth_pair(0), smooth_pair(1)]
        cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=16,
                          learning_rate=3e-2, epochs=100, seed=0)
        model, log = train(TINY, pairs, cfg)
        assert min(row[2] for row in log) < 1e-4

    def test_same_seed_identical_loss_logs(self):
        pairs = [smooth_pair(2), smooth_pair(3)]
        cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=8,
                          learning_rate=1e-2, epochs=5, seed=11)
        _, log_a = train(TINY, pairs, cfg)
        _, log_b = train(TINY, pairs, cfg)
        assert log_a == log_b  # bit-identical floats

    def test_different_seed_differs(self):
        pairs = [smooth_pair(2), smooth_pair(3)]
        base = dict(scale=8, patch_coarse=2, batch_size=8, learning_rate=1e-2, epochs=3)
        _, log_a = train(TINY, pairs, TrainConfig(seed=1, **base))
        _, log_b = train(TINY, pairs, TrainConfig(seed=2, **base))
        assert log_a != log_b

    def test_best_validation_weights_returned(self):
        pairs = [smooth_pair(4), smooth_pair(5)]
        cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=8,
                          learning_rate=1e-2, epochs=10, seed=0)
        model, log = train(TINY, pairs, cfg)
        assert model.train_meta["best_val_loss"] == min(r[2] for r in log)
        assert model.train_meta["best_epoch"] == int(np.argmin([r[2] for r in log]))

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            train(TINY, [], TrainConfig())

    def test_all_masked_patches_rejected(self):
        inp, tgt = smooth_pair(6, w=32, h=32)
        inp.mask[:] = False
        with pytest.raises(DataError):
            train(TINY, [(inp, tgt)], TrainConfig(scale=8, patch_coarse=2, epochs=1))

    def test_channel_mismatch(self):
        inp, tgt = smooth_pair(7)
        arch = ArchConfig(3, 8, ((3, 8), (3, 8)))
        with pytest.raises(ShapeError):
            train(arch, [(inp, tgt)], TrainConfig(epochs=1))

    def test_patch_side_exceeding_image(self):
        pairs = [smooth_pair(8, w=16, h=16)]
        cfg = TrainConfig(scale=8, patch_coarse=4, epochs=1)
        with pytest.raises(ConfigError):
            train(TINY, pairs, cfg)

    def test_explicit_validation_pairs(self):
        pairs = [smooth_pair(9)]
        vpairs = [smooth_pair(10)]
        cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=8,
                          learning_rate=1e-2, epochs=2, seed=0)
        model, log = train(TINY, pairs, cfg, val_pairs=vpairs)
        assert model.train_meta["n_train_patches"] == 16
        assert model.train_meta["n_val_patches"] == 16

    def test_masked_pixels_do_not_affect_loss(self):
        # corrupt masked pixels wildly, with 7.0 and NaN in the input and NaN
        # in the target; loss paths must ignore them, so a batch must not
        # keep them (NaN * 0 is NaN)
        (inp_a, tgt_a) = smooth_pair(12)
        in_mask = np.ones(inp_a.mask.shape, dtype=bool)
        in_mask[:8, :8] = in_mask[20:28, 20:28] = False
        tgt_mask = np.ones_like(in_mask)
        tgt_mask[40:48, 36:44] = False
        vals, tvals = inp_a.values.copy(), tgt_a.values.copy()
        vals[:, :8, :8] = 7.0
        vals[:, 20:28, 20:28] = tvals[:, 40:48, 36:44] = np.nan
        inp_b = Raster(inp_a.grid, vals, inp_a.band_names, in_mask)
        tgt_b = Raster(tgt_a.grid, tvals, tgt_a.band_names, tgt_mask)
        inp_a2 = Raster(inp_a.grid, inp_a.values, inp_a.band_names, in_mask)
        tgt_a2 = Raster(tgt_a.grid, tgt_a.values, tgt_a.band_names, tgt_mask)
        cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=8,
                          learning_rate=1e-2, epochs=2, seed=3)
        _, log_a = train(TINY, [(inp_a2, tgt_a2)], cfg)
        _, log_b = train(TINY, [(inp_b, tgt_b)], cfg)
        assert np.allclose([r[1:] for r in log_a], [r[1:] for r in log_b], rtol=1e-12)

    def test_memory_does_not_grow_with_the_dataset(self):
        # batches are cut from the rasters themselves, so two more pairs of
        # 256x256 'spectral' rasters add their joint bool mask, 1 byte per
        # pixel (0.13 MB), and the patch pool's entries to the traced peak,
        # not float64 copies of their inputs, targets and masks (160 bytes
        # per pixel, 21 MB); the rasters are built before tracing starts
        pairs = [(random_raster(s, 256, 256, 11, mask_fraction=0.2),
                  random_raster(s + 50, 256, 256, 8, mask_fraction=0.2)) for s in range(4)]
        cfg = TrainConfig(scale=8, patch_coarse=2, patch_stride_coarse=8, batch_size=2,
                          epochs=1, seed=0)
        (small, _), (large, _) = (traced_peak(train, preset("spectral"), pairs[:n], cfg)
                                  for n in (2, 4))
        assert large - small < 1e6, (small / 1e6, large / 1e6)

    def test_memory_holds_one_batch_of_cached_columns(self):
        # 'spectral' on batches of 4 16x16 patches: a batch's cache holds each
        # layer's column matrix, (896 + 1600 + 800) rows x 1024 pixels of
        # float64 (27 MB), and its LeakyReLU masks.  Beside it the backward
        # makes one more column matrix at a time, the largest for layer 1's
        # input gradient: 800 rows x 4 x 20 x 20 pixels (10.2 MB).  Everything
        # else (the weights, their best copy, Adam's two moments, the
        # gradients and the batch's activations) stays within 10 weight-sized
        # arrays and 2 MB.  The traced peak was 45.3 MB; 59.6 MB while a
        # batch's cache outlived it into the next batch's forward pass, and
        # 55.3 MB with a workspace that kept the cached columns between batches.
        arch = preset("spectral")
        pairs = [(random_raster(s, 128, 128, 11, mask_fraction=0.2),
                  random_raster(s + 50, 128, 128, 8, mask_fraction=0.2)) for s in range(2)]
        cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=4, epochs=1, seed=0)
        pixels = cfg.batch_size * cfg.patch_side**2
        cache = sum(8 * -(-c_in * k * k // 32) * 32 * pixels + f * pixels
                    for c_in, (k, f) in zip(arch.channel_chain, arch.layers))
        c_out, k = 32, 5  # layer 1
        gcols = 8 * c_out * k * k * cfg.batch_size * (cfg.patch_side + k - 1) ** 2
        bound = cache + gcols + 10 * 8 * arch.parameter_count() + 2e6
        peak, _ = traced_peak(train, arch, pairs, cfg)
        assert bound < 50e6
        assert peak < bound, (peak / 1e6, bound / 1e6)


# Trains preset "spectral" on a 3-scene dataset of 48x48 pixels: 9 training
# and 9 validation patches in batches of 4, 4 and 1, so the short last batch
# is exercised too.  Run in child processes, since the BLAS thread count is
# fixed when NumPy loads.
_PINNED_RUN = """
import hashlib, json, sys
import numpy as np
import satfuse as sf

out = sys.argv[1]
manifest = sf.make_fusion_dataset(sf.SceneConfig(seed=3, width=48, height=48, n_bands=8), 3, out)
cfg = sf.TrainConfig(scale=8, patch_coarse=2, batch_size=4, learning_rate=1e-3, epochs=3, seed=5)
model, log = sf.train(sf.preset("spectral"), sf.assemble_pairs(manifest, "train"), cfg,
                      val_pairs=sf.assemble_pairs(manifest, "val"))
sf.save_checkpoint(model, f"{out}/net.ckpt")
weights = b"".join(np.ascontiguousarray(w, "<f8").tobytes() for w in model.weights)
with open(f"{out}/net.ckpt", "rb") as fh:
    ckpt = fh.read()
print(json.dumps({
    "loss_log": [[e, repr(tr), repr(va)] for e, tr, va in log],
    "weights_sha256": hashlib.sha256(weights).hexdigest(),
    "checkpoint_sha256": hashlib.sha256(ckpt).hexdigest(),
}))
"""


def test_fixed_seed_training_output_is_pinned(tmp_path):
    """Loss log, float64 weights and checkpoint bytes of one fixed-seed run,
    the same at 1, 2 and 4 BLAS threads.

    The constants were recorded when the input gradient became a direct
    convolution and the GEMM inner axes were padded to multiples of 32, so a
    change to the training arithmetic shows here.  They hold for the OpenBLAS
    that NumPy's x86-64 wheels bundle; another BLAS library needs them
    recorded anew from the unchanged code.
    """
    src = str(Path(satfuse.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / threads
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", _PINNED_RUN, str(out)], env=env,
                              capture_output=True, text=True, check=True)
        runs[threads] = json.loads(proc.stdout)
    got = runs["1"]
    assert runs["2"] == got and runs["4"] == got
    assert got["loss_log"] == [
        [0, "0.45772003020093127", "0.05215802535584632"],
        [1, "0.09243574909709998", "0.05095883103316609"],
        [2, "0.05620738865542569", "0.02363883454822725"],
    ]
    assert got["weights_sha256"] == "b665defe0b6c94e74958ecf17da1226979aa89b0ad90ca5f47f5ee420678a6ae"
    assert got["checkpoint_sha256"] == "2a1b17a6e28298ff928bc488cd5bb5b08b3ed15582a5fea2ed3f38fb47962ff1"


def test_default_batch_training_bits_do_not_depend_on_the_budget(monkeypatch):
    """At the default batch of 16 the column budget cuts layer 1's input
    gradient (800 x 16 x 20 x 20 elements) and the validation forward of
    layer 1 (1600 x 16 x 16 x 16) into row slabs, which 2**25 leaves whole;
    the weights and the loss log keep every bit."""
    pairs = [(smooth_pair(s, nb=11)[0], smooth_pair(s + 20)[0]) for s in (15, 16)]
    val_pairs = [(smooth_pair(17, nb=11)[0], smooth_pair(37)[0])]
    cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=16, learning_rate=1e-3, epochs=2,
                      seed=4)
    conv_gemm = srcnn._conv_gemm
    runs = []
    for budget in (srcnn._COL_BUDGET, 2**25):
        monkeypatch.setattr(srcnn, "_COL_BUDGET", budget)
        rows = []

        def counting_gemm(wmat, xp, k, out):
            rows.append(out.shape[2])
            return conv_gemm(wmat, xp, k, out)

        monkeypatch.setattr(srcnn, "_conv_gemm", counting_gemm)
        model, log = train(preset("spectral"), pairs, cfg, val_pairs=val_pairs)
        runs.append((b"".join(w.tobytes() for w in model.weights), log, min(rows)))
    (w_default, log_default, rows_default), (w_whole, log_whole, rows_whole) = runs
    assert rows_default < 16 == rows_whole  # slabs at the default budget only
    assert w_default == w_whole and log_default == log_whole


def test_one_log_event_per_epoch(caplog):
    pairs = [smooth_pair(13), smooth_pair(14)]
    cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=8, learning_rate=1e-2, epochs=3, seed=0)
    with caplog.at_level(logging.INFO, logger="satfuse.training"):
        _, log = train(TINY, pairs, cfg)
    records = [r for r in caplog.records if r.name == "satfuse.training"]
    assert [r.levelno for r in records] == [logging.INFO] * 3
    for (epoch, tr, va), rec in zip(log, records):
        msg = rec.getMessage()
        assert msg.startswith(f"epoch={epoch} train_loss={tr:.6g} val_loss={va:.6g} wall=")
        assert "patches_per_s=" in msg


class TestLossLogCsv:
    def test_round_trip_text(self, tmp_path):
        log = [(0, 0.5, 0.6), (1, 0.25, 0.3)]
        p = tmp_path / "loss.csv"
        loss_log_to_csv(log, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1].startswith("0,0.5,")

    @pytest.mark.parametrize("log", [None, ["ab"], [(0.5, 0.1, 0.2)], [(0, 0.1, float("nan"))],
                                     [(0, 0.1, "0.2")], [(0, 0.1)]])
    def test_bad_log_refused_before_the_file_is_opened(self, tmp_path, log):
        p = tmp_path / "loss.csv"
        with pytest.raises(ValidationError, match="loss_log must be"):
            loss_log_to_csv(log, p)
        assert not p.exists()
