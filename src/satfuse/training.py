"""Training loop for the super-resolution networks.

Adam on masked mean squared error.  Patches are sampled on coarse-pixel
boundaries (positions are multiples of the fine/coarse scale factor) and
patches whose pixels are all masked are rejected at sampling time.  Shuffling
comes from one seeded generator and the gradient reduction order is fixed, so
a fixed seed gives bit-identical runs for one BLAS build.  The conv GEMMs pad
their inner axes to multiples of 32, the lengths at which the bundled
OpenBLAS gives the same bits whether it runs on 1, 2 or 4 threads; the pinned
training test checks those three.  Another BLAS library or kernel (MKL,
AVX-512) can end in other last bits of losses and weights.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import (COUNT, INDEX, PATH, POSITIVE, ConfigError, DataError, ShapeError,
                     ValidationError, check_fields, instance, parameter, real_number,
                     whole_number)
from .raster import Raster, _filled_window
from .srcnn import ArchConfig, _backward_batch, _forward_batch, _masked_error, build_model

__all__ = ["TrainConfig", "train", "loss_log_to_csv"]

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Knobs for one training run; defaults are the documented conventions."""

    scale: int = 8                 # fine pixels per coarse pixel
    patch_coarse: int = 2          # coarse pixels per patch side
    patch_stride_coarse: int | None = None  # sampling stride; None = patch_coarse
    batch_size: int = 16
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 10
    seed: int = 0
    validation_fraction: float = 0.1
    split: str | None = None       # free-form split description, recorded only

    def __post_init__(self):
        """Store every number as an `int` or a `float`; a ConfigError names a bad field."""
        check_fields(self, ConfigError,
                     ("scale patch_coarse patch_stride_coarse batch_size epochs", COUNT),
                     ("seed", INDEX), ("learning_rate eps", POSITIVE),
                     ("beta1 beta2", (real_number, lambda v: 0 <= v < 1, "a number in [0, 1)")),
                     ("validation_fraction",
                      (real_number, lambda v: 0 < v < 1, "a number in (0, 1)")))

    @property
    def patch_side(self) -> int:
        return self.patch_coarse * self.scale

    @property
    def patch_stride(self) -> int:
        return (self.patch_stride_coarse or self.patch_coarse) * self.scale


class _Adam:
    def __init__(self, shapes, cfg: TrainConfig):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0
        self.cfg = cfg

    def step(self, weights, grads):
        c = self.cfg
        self.t += 1
        b1c = 1.0 - c.beta1**self.t
        b2c = 1.0 - c.beta2**self.t
        for w, g, m, v in zip(weights, grads, self.m, self.v):
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            w -= c.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + c.eps)


def _prepare_pairs(name: str, pairs, arch: ArchConfig):
    """The checked pairs, not copied, as (input, target, joint bool mask)."""
    pairs = parameter(name, pairs, lambda ps: [(inp, tgt) for inp, tgt in ps],
                      lambda ps: all(isinstance(r, Raster) for pair in ps for r in pair),
                      "a list of (input, target) Raster pairs", DataError)
    if not pairs:
        raise DataError("empty dataset")
    out = []
    for inp, tgt in pairs:
        if inp.grid != tgt.grid:
            raise DataError("input/target rasters are not grid-aligned")
        if inp.n_bands != arch.in_channels:
            raise ShapeError(
                f"input raster has {inp.n_bands} bands, network expects {arch.in_channels}"
            )
        if tgt.n_bands != arch.out_channels:
            raise ShapeError(
                f"target raster has {tgt.n_bands} bands, network expects {arch.out_channels}"
            )
        out.append((inp, tgt, inp.mask & tgt.mask))
    return out


def _patch_pool(data, side: int, stride: int) -> list[tuple[int, int, int]]:
    pool = []
    for pi, (_, _, mask) in enumerate(data):
        H, W = mask.shape
        if side > H or side > W:
            raise ConfigError(f"patch side {side} exceeds image dims {H}x{W}")
        for i0 in range(0, H - side + 1, stride):
            for j0 in range(0, W - side + 1, stride):
                if mask[i0 : i0 + side, j0 : j0 + side].any():
                    pool.append((pi, i0, j0))
    return pool


def _batch_arrays(data, entries, side):
    """Patch batches in the network's (channels, batch, H, W) layout: the
    float32 inputs and targets with their invalid pixels set to zero, and the
    bool joint validity, (1, batch, H, W)."""
    cuts = [(data[pi], slice(i0, i0 + side), slice(j0, j0 + side)) for pi, i0, j0 in entries]
    xb, tb = (np.stack([_filled_window(pair[i], r, c) for pair, r, c in cuts], axis=1)
              for i in (0, 1))
    return xb, tb, np.stack([pair[2][r, c] for pair, r, c in cuts])[None]


def _pool_pass(model, data, entries, side, batch_size, adam: _Adam | None = None) -> float:
    """Masked MSE of the model over the patches `entries`, batch by batch; with
    `adam`, each batch then takes one Adam step on its own gradient.  Every
    pool patch has a valid pixel, so no batch is empty.  A batch's cache is
    freed before the next batch's forward pass, which makes its own."""
    sq = n = 0.0
    for s in range(0, len(entries), batch_size):
        xb, tb, mb = _batch_arrays(data, entries[s : s + batch_size], side)
        pred, cache = _forward_batch(model, xb, keep_cache=adam is not None)
        d, sq_batch, n_batch = _masked_error(pred, tb, mb)
        sq += sq_batch
        n += n_batch
        if adam is not None:
            grads, _ = _backward_batch(model, cache, 2.0 * d / n_batch, input_grad=False)
            adam.step(model.weights, grads)
        del pred, cache, d
    return sq / n


def train(
    arch: ArchConfig,
    pairs: list[tuple[Raster, Raster]],
    cfg: TrainConfig,
    val_pairs: list[tuple[Raster, Raster]] | None = None,
):
    """Train a network on grid-aligned (input, target) raster pairs.

    When `val_pairs` is given its patches form the validation pool; otherwise
    a seeded `validation_fraction` of the training patches is held out.
    Returns ``(model, loss_log)`` where the model carries the
    best-validation-loss parameters and ``loss_log`` is a list of
    ``(epoch, train_loss, val_loss)`` rows.
    """
    instance("arch", arch, ArchConfig, ConfigError)
    instance("cfg", cfg, TrainConfig, ConfigError)
    data = _prepare_pairs("pairs", pairs, arch)
    side = cfg.patch_side
    rng = np.random.default_rng(cfg.seed)

    pool = _patch_pool(data, side, cfg.patch_stride)
    if not pool:
        raise DataError("all candidate patches are fully masked")
    if val_pairs is not None:
        vdata = _prepare_pairs("val_pairs", val_pairs, arch)
        val_pool = _patch_pool(vdata, side, cfg.patch_stride)
        if not val_pool:
            raise DataError("validation pairs contain no usable patches")
        train_pool = pool
    else:
        order = rng.permutation(len(pool))
        n_val = max(1, int(round(cfg.validation_fraction * len(pool))))
        if n_val >= len(pool):
            raise DataError("not enough patches to hold out a validation split")
        vdata = data
        val_pool = [pool[i] for i in order[:n_val]]
        train_pool = [pool[i] for i in order[n_val:]]

    model = build_model(arch, cfg.seed)
    adam = _Adam([w.shape for w in model.weights], cfg)

    best_val = np.inf
    best_weights = model.copy_weights()
    best_epoch = -1
    loss_log: list[tuple[int, float, float]] = []

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        shuffled = [train_pool[i] for i in rng.permutation(len(train_pool))]
        train_loss = _pool_pass(model, data, shuffled, side, cfg.batch_size, adam)
        val_loss = _pool_pass(model, vdata, val_pool, side, cfg.batch_size)
        loss_log.append((epoch, train_loss, val_loss))
        wall = time.perf_counter() - t0
        log.info(
            "epoch=%d train_loss=%.6g val_loss=%.6g wall=%.2fs patches_per_s=%.1f",
            epoch, train_loss, val_loss, wall, len(train_pool) / max(wall, 1e-9),
        )
        if val_loss < best_val:
            best_val = val_loss
            best_weights = model.copy_weights()
            best_epoch = epoch

    model.weights = best_weights
    model.train_meta = {
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "optimizer": "adam",
        "learning_rate": cfg.learning_rate,
        "betas": [cfg.beta1, cfg.beta2],
        "loss": "masked_mse",
        "split": cfg.split,
        "patch_side": side,
        "n_train_patches": len(train_pool),
        "n_val_patches": len(val_pool),
        "best_epoch": best_epoch,
        "best_val_loss": best_val,
        "final_train_loss": loss_log[-1][1],
        "final_val_loss": loss_log[-1][2],
    }
    return model, loss_log


def _loss_row(row) -> tuple[int, float, float]:
    epoch, tr, va = row
    return whole_number(epoch), real_number(tr), real_number(va)


def loss_log_to_csv(loss_log, path) -> None:
    """Write `train`'s loss log, rows of (integer epoch, finite, finite), as
    CSV; every argument is checked before the file is opened."""
    path = parameter("path", path, *PATH, ValidationError)
    rows = parameter("loss_log", loss_log, lambda log: [_loss_row(row) for row in log],
                     lambda rows: True, "rows of (integer epoch, finite, finite)",
                     ValidationError)
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, tr, va in rows:
            fh.write(f"{epoch},{tr!r},{va!r}\n")
