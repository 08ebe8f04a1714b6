import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from satfuse import srcnn
from satfuse.errors import ConfigError, CorruptionError, SatfuseError, ShapeError
from satfuse.raster import Raster
from satfuse.srcnn import (
    ArchConfig,
    PRESETS,
    backward,
    build_model,
    forward,
    infer_tiled,
    load_checkpoint,
    masked_mse,
    masked_mse_grad,
    _backward_batch,
    _forward_batch,
    _tile_spans,
    preset,
    save_checkpoint,
)
from satfuse.training import TrainConfig, train

from conftest import make_grid, random_raster, traced_peak


def naive_forward(model, x):
    """Direct 6-loop convolution oracle with replicate padding and LeakyReLU."""
    slope = model.arch.slope
    a = x.astype(np.float64)
    for li, w in enumerate(model.weights):
        c_out, c_in, k, _ = w.shape
        p = k // 2
        H, W = a.shape[1], a.shape[2]
        out = np.zeros((c_out, H, W))
        for o in range(c_out):
            for r in range(H):
                for c in range(W):
                    acc = 0.0
                    for i in range(c_in):
                        for dr in range(k):
                            for dc in range(k):
                                rr = min(max(r + dr - p, 0), H - 1)
                                cc = min(max(c + dc - p, 0), W - 1)
                                acc += w[o, i, dr, dc] * a[i, rr, cc]
                    out[o, r, c] = acc
        if li != len(model.weights) - 1:
            out = np.where(out > 0, out, slope * out)
        a = out
    return a


def scatter_conv2d_backward(cols, w, gout, input_grad=True):
    """Column-scatter (col2im) oracle for `srcnn._conv2d_backward`.

    The input gradient is the GEMM of the transposed weights with `gout`,
    whose k*k column blocks are added back onto the padded image one window
    offset at a time.  `cols` is the forward's padded column matrix; only its
    first C_in*k*k rows are read.
    """
    c_out, c_in, k, _ = w.shape
    _, B, H, W = gout.shape
    p = k // 2
    kk = k * k
    N = B * H * W
    gmat = gout.reshape(c_out, N)
    gw = (gmat @ cols[: c_in * kk].T).reshape(c_out, c_in, k, k)
    if not input_grad:
        return None, gw
    gcols = (w.reshape(c_out, -1).T @ gmat).reshape(c_in, kk, B, H, W)
    gxp = np.zeros((c_in, B, H + 2 * p, W + 2 * p))
    for a in range(k):
        for b in range(k):
            gxp[:, :, a : a + H, b : b + W] += gcols[:, a * k + b]
    return srcnn._fold_replicate_padding(gxp, p), gw


def assert_matches_oracle(got, want):
    """Each array within rtol 1e-12 of its oracle array.  Sums that cancel to
    near zero keep the rounding of their terms, so the absolute tolerance is
    1e-12 of the array's largest magnitude."""
    for g, o in zip(got, want):
        np.testing.assert_allclose(g, o, rtol=1e-12, atol=1e-12 * np.max(np.abs(o)))


class TestArchConfig:
    def test_preset_parameter_counts(self):
        assert preset("spectral").parameter_count() == 114624
        assert preset("spectral-rgb").parameter_count() == 9 * 9 * 3 * 64 + 25 * 64 * 32 + 25 * 32 * 8
        assert preset("spatial").parameter_count() == 13 * 13 * 8 * 64 + 25 * 64 * 32 + 25 * 32 * 8

    def test_rgb_only_variant_is_plain_config(self):
        # the camera-only scenario differs from the fused one purely by config
        a = preset("spectral")
        b = preset("spectral-rgb")
        assert a.layers == b.layers
        assert (a.in_channels, b.in_channels) == (11, 3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ArchConfig(3, 2, ((3, 2),))  # single layer
        with pytest.raises(ConfigError):
            ArchConfig(3, 2, ((4, 8), (3, 2)))  # even kernel
        with pytest.raises(ConfigError):
            ArchConfig(3, 2, ((3, 8), (3, 4)))  # last filters != out_channels
        with pytest.raises(ConfigError):
            preset("nope")


class TestBuildModel:
    def test_deterministic_per_seed(self):
        a = build_model(preset("spectral-rgb"), seed=7)
        b = build_model(preset("spectral-rgb"), seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        c = build_model(preset("spectral-rgb"), seed=8)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_parameter_count_matches_weights(self):
        m = build_model(preset("spectral"), seed=0)
        assert m.parameter_count() == 114624
        assert m.arch.weight_shapes == [(64, 11, 9, 9), (32, 64, 5, 5), (8, 32, 5, 5)]
        assert [w.shape for w in m.weights] == m.arch.weight_shapes


class TestForward:
    def test_zero_weights_zero_output(self):
        m = build_model(ArchConfig(2, 2, ((3, 4), (3, 2))), seed=0)
        m.weights = [np.zeros_like(w) for w in m.weights]
        x = np.random.default_rng(0).uniform(size=(2, 8, 8))
        assert np.array_equal(forward(m, x), np.zeros((2, 8, 8)))

    def test_identity_kernel(self):
        # two-layer net wired to pass the input through untouched
        m = build_model(ArchConfig(1, 1, ((1, 1), (1, 1))), seed=0)
        big = 1e6  # LeakyReLU positive branch for all practical values
        m.weights[0] = np.array([[[[big]]]])
        m.weights[1] = np.array([[[[1.0 / big]]]])
        x = np.random.default_rng(1).uniform(0.1, 1.0, size=(1, 6, 6))
        assert np.allclose(forward(m, x), x, atol=1e-12)

    @pytest.mark.parametrize("slope", [0.1, 0.0, -0.5, 1.5])
    def test_matches_naive_convolution_oracle(self, slope):
        # LeakyReLU scales its input in place and takes the mask z > 0 first,
        # since a negative slope turns negative values positive; the
        # gradients read that mask
        rng = np.random.default_rng(2)
        m = build_model(ArchConfig(4, 3, ((3, 5), (3, 3)), slope=slope), seed=3)
        x = rng.standard_normal((4, 8, 8))
        got = forward(m, x)
        want = naive_forward(m, x)
        assert got.shape == (3, 8, 8)
        assert np.max(np.abs(got - want)) < 1e-10
        g = rng.standard_normal(got.shape)
        grads, gin = backward(m, x, g)
        gap = TestBackward._worst_central_difference_gap(
            lambda: float((forward(m, x) * g).sum()), m.weights + [x], grads + [gin], rng)
        assert gap < 1e-5

    def test_shape_invariance_all_presets(self):
        rng = np.random.default_rng(3)
        for name, arch in PRESETS.items():
            m = build_model(arch, seed=0)
            x = rng.uniform(size=(arch.in_channels, 16, 20))
            y = forward(m, x)
            assert y.shape == (arch.out_channels, 16, 20), name

    def test_channel_mismatch(self):
        m = build_model(preset("spectral-rgb"), seed=0)
        with pytest.raises(ShapeError):
            forward(m, np.zeros((5, 16, 16)))

    def test_too_small_input(self):
        m = build_model(preset("spectral-rgb"), seed=0)
        with pytest.raises(ShapeError):
            forward(m, np.zeros((3, 4, 4)))

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(4)
        arch = ArchConfig(2, 2, ((5, 6), (3, 2)))
        m = build_model(arch, seed=1)
        x = rng.uniform(size=(2, 24, 24))
        y = forward(m, x)
        xs = np.roll(x, (1, 1), axis=(1, 2))
        ys = forward(m, xs)
        r = arch.receptive_radius + 1
        assert np.allclose(
            ys[:, r + 1 : -r, r + 1 : -r], y[:, r : -r - 1, r : -r - 1], atol=1e-10
        )


class TestBackward:
    def test_zero_grad_out(self):
        m = build_model(ArchConfig(2, 1, ((3, 3), (3, 1))), seed=0)
        x = np.random.default_rng(0).uniform(size=(2, 7, 7))
        grads, gin = backward(m, x, np.zeros((1, 7, 7)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
        assert np.array_equal(gin, np.zeros_like(x))

    def test_loss_gradient_zero_at_minimum(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(size=(2, 5, 5))
        mask = np.ones((5, 5))
        g = masked_mse_grad(pred, pred.copy(), mask)
        assert np.array_equal(g, np.zeros_like(pred))
        assert masked_mse(pred, pred.copy(), mask) == 0.0

    def test_conv_gemm_zeroes_the_pad_rows_of_new_columns(self, monkeypatch):
        # 27 inner rows padded to 32.  Every uninitialised array is made NaN
        # here, so the pad rows hold zeros, and the GEMM is NaN-free, only if
        # _conv_gemm zeroes them.  Small integers make every GEMM sum exact
        # in any order.
        rng = np.random.default_rng(11)
        C, k, B, H, W = 3, 3, 2, 4, 5
        K = C * k * k
        xp = rng.integers(-4, 5, size=(C, B, H + k - 1, W + k - 1)).astype(np.float64)
        wmat = rng.integers(-4, 5, size=(6, K)).astype(np.float64)
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: np.full(shape, np.nan, dtype))
        out = np.empty((6, B, H, W))
        cols = srcnn._conv_gemm(wmat, xp, k, out)
        assert cols.shape == (32, B * H * W)
        assert not cols[K:].any()
        windows = cols[:K].reshape(C, k, k, B, H, W)
        for a in range(k):
            for b in range(k):
                assert np.array_equal(windows[:, a, b], xp[:, :, a : a + H, b : b + W])
        assert np.array_equal(out.reshape(6, -1), wmat @ cols[:K])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_scatter_oracle_all_presets(self, name, monkeypatch):
        # k = 9 and 13 in layer 0, whose input gradient only backward() asks for
        arch = PRESETS[name]
        m = build_model(arch, seed=5)
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(arch.in_channels, 14, 19))
        g = rng.standard_normal((arch.out_channels, 14, 19))
        grads, gin = backward(m, x, g)
        monkeypatch.setattr(srcnn, "_conv2d_backward", scatter_conv2d_backward)
        want_grads, want_gin = backward(m, x, g)
        assert_matches_oracle(grads + [gin], want_grads + [want_gin])

    def test_slabbed_input_gradient_matches_scatter_oracle(self, monkeypatch):
        # a budget that splits layer 0's input-gradient GEMM (5184 inner rows,
        # 30 padded columns per row) into slabs of 3 rows and leaves the
        # other layers' GEMMs whole
        m = build_model(preset("spectral"), seed=7)
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(11, 13, 22))
        g = rng.standard_normal((8, 13, 22))
        gemm_rows = []
        conv_gemm = srcnn._conv_gemm

        def counting_gemm(wmat, xp, k, out):
            gemm_rows.append(out.shape[2])
            return conv_gemm(wmat, xp, k, out)

        monkeypatch.setattr(srcnn, "_conv_gemm", counting_gemm)
        monkeypatch.setattr(srcnn, "_COL_BUDGET", 5184 * 30 * 3)
        grads, gin = backward(m, x, g)
        assert gemm_rows[-7:] == [3, 3, 3, 3, 3, 3, 3]  # layer 0: 21 padded rows
        monkeypatch.setattr(srcnn, "_conv2d_backward", scatter_conv2d_backward)
        want_grads, want_gin = backward(m, x, g)
        assert_matches_oracle(grads + [gin], want_grads + [want_gin])

    def test_input_gradient_of_a_64x64_image_stays_under_the_budget(self, monkeypatch):
        # a budget of 2**22 elements (34 MB) splits layer 0's 215 MB
        # input-gradient column matrix into slabs of 11 rows (223 MB beyond the
        # forward cache unslabbed); the forward runs with keep_cols, which is
        # not slabbed, so its cached columns are counted apart
        m = build_model(preset("spectral"), seed=8)
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(11, 64, 64))
        g = rng.standard_normal((8, 64, 64))
        y, cache = srcnn._forward_batch(m, x[:, None], keep_cache=True)
        held = y.nbytes + sum(c.nbytes + (p.nbytes if p is not None else 0) for c, p in cache)
        del y, cache
        monkeypatch.setattr(srcnn, "_COL_BUDGET", 2**22)
        peak, _ = traced_peak(backward, m, x, g)
        assert peak - held < 2 * srcnn._COL_BUDGET * 8, (peak - held) / 1e6

    def test_mismatched_grad_out_is_refused_before_the_forward_pass(self):
        # the forward pass would keep 108 MB of column matrices for this image
        m = build_model(preset("spectral"), seed=8)
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(11, 64, 64))
        g = rng.standard_normal((8, 64, 63))
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match=r"grad_out shape \(8, 64, 63\) != output shape "
                                                 r"\(8, 64, 64\)"):
                backward(m, x, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak / 1e6

    def test_batches_of_changing_sizes_match_scatter_oracle(self, monkeypatch):
        # batch 1, full batches of 4 and a short last batch, non-square patches
        m = build_model(preset("spectral"), seed=6)
        rng = np.random.default_rng(6)
        got = []
        for B in (1, 4, 4, 3):
            x = rng.uniform(size=(11, B, 16, 12))
            g = rng.standard_normal((8, B, 16, 12))
            _, cache = _forward_batch(m, x, keep_cache=True)
            grads, gin = _backward_batch(m, cache, g)
            got.append((x, g, grads + [gin]))
        monkeypatch.setattr(srcnn, "_conv2d_backward", scatter_conv2d_backward)
        for x, g, arrays in got:
            _, cache = _forward_batch(m, x, keep_cache=True)
            grads, gin = _backward_batch(m, cache, g)
            assert_matches_oracle(arrays, grads + [gin])

    @staticmethod
    def _random_net(trial):
        """A random two-layer net (kernels 1, 3 or 5, H up to 7), its input,
        the masked-MSE loss gradient at its output, and the loss as a
        function of the current weights and input."""
        rng = np.random.default_rng(100 + trial)
        c_in = int(rng.integers(1, 4))
        c_mid = int(rng.integers(2, 5))
        c_out = int(rng.integers(1, 3))
        k1, k2 = [int(rng.choice([1, 3, 5])) for _ in range(2)]
        arch = ArchConfig(c_in, c_out, ((k1, c_mid), (k2, c_out)), slope=0.1)
        m = build_model(arch, seed=trial)
        H = W = int(rng.integers(max(k1, k2), 8))
        x = rng.uniform(0.05, 1.0, size=(c_in, H, W))
        target = rng.uniform(size=(c_out, H, W))
        mask = (rng.uniform(size=(H, W)) > 0.2).astype(np.float64)
        if not mask.any():
            mask[0, 0] = 1.0
        grad_out = masked_mse_grad(forward(m, x), target, mask)
        return m, x, grad_out, lambda: masked_mse(forward(m, x), target, mask), rng

    @staticmethod
    def _worst_central_difference_gap(loss, arrays, grads, rng, eps=1e-6):
        """Largest relative gap between `grads` and central differences of
        `loss()` at up to 10 random entries of each of `arrays`, which are
        perturbed in place and restored."""
        worst = 0.0
        for a, g in zip(arrays, grads):
            flat, flat_grad = a.ravel(), g.ravel()
            for fi in rng.choice(a.size, size=min(10, a.size), replace=False):
                orig = flat[fi]
                flat[fi] = orig + eps
                lp = loss()
                flat[fi] = orig - eps
                lm = loss()
                flat[fi] = orig
                fd = (lp - lm) / (2 * eps)
                scale = max(abs(fd), abs(flat_grad[fi]), 1e-8)
                worst = max(worst, abs(fd - flat_grad[fi]) / scale)
        return worst

    @pytest.mark.parametrize("trial", range(20))
    def test_gradient_matches_central_differences(self, trial):
        m, x, grad_out, loss, rng = self._random_net(trial)
        grads, _ = backward(m, x, grad_out)
        assert self._worst_central_difference_gap(loss, m.weights, grads, rng) < 1e-5

    @pytest.mark.parametrize("trial", range(20))
    def test_input_gradient_matches_central_differences(self, trial):
        m, x, grad_out, loss, rng = self._random_net(trial)
        _, gin = backward(m, x, grad_out)
        assert gin.shape == x.shape
        assert self._worst_central_difference_gap(loss, [x], [gin], rng) < 1e-5


# A masked `spectral` scene of 2x2 tiles; prints the sha256 of the output.
_THREADED_INFER = """
import hashlib
import numpy as np
from satfuse.raster import GeoGrid, Raster
from satfuse.srcnn import build_model, infer_tiled, preset

rng = np.random.default_rng(7)
r = Raster(GeoGrid(0.0, 200.0, 1.0, 1.0, 196, 200),
           rng.uniform(0, 1, size=(11, 200, 196)).astype(np.float32),
           [f"c{i}" for i in range(11)], rng.uniform(size=(200, 196)) > 0.3)
out = infer_tiled(build_model(preset("spectral"), seed=7), r, tile=128)
print(hashlib.sha256(out.values.tobytes()).hexdigest())
"""


class TestInferTiled:
    def _raster(self, seed, w, h, bands):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0, 1, size=(bands, h, w)).astype(np.float32)
        return Raster(make_grid(w, h, pixel=1.0), vals, [f"c{i}" for i in range(bands)])

    def test_single_tile_equals_forward(self):
        # the tile runs in float32, so against float64 `forward` of the
        # float32-rounded weights only the float32 arithmetic differs: 1.03e-6
        # here, at most 1.83e-6 over seeds 0-19, on outputs up to 3.9
        m = build_model(ArchConfig(3, 2, ((5, 6), (3, 2))), seed=0)
        r = self._raster(0, 64, 64, 3)
        out = infer_tiled(m, r)
        rounded = replace(m, weights=[w.astype(np.float32).astype(np.float64) for w in m.weights])
        whole = forward(rounded, r.filled_values())
        assert np.max(np.abs(out.values - whole)) < 2e-6

    def test_large_image_matches_whole_forward(self):
        m = build_model(ArchConfig(2, 2, ((5, 4), (3, 2))), seed=1)
        r = self._raster(1, 700, 700, 2)
        out = infer_tiled(m, r, tile=256, overlap=16)
        whole = forward(m, r.filled_values())
        assert np.max(np.abs(out.values.astype(np.float64) - whole)) < 1e-5

    def test_three_tiles_per_axis_match_whole_forward(self):
        m = build_model(ArchConfig(2, 2, ((5, 4), (3, 2))), seed=1)
        r = self._raster(3, 110, 120, 2)
        assert len(_tile_spans(110, 64, 16)) == len(_tile_spans(120, 64, 16)) == 3
        out = infer_tiled(m, r, tile=64, overlap=16)
        whole = forward(m, r.filled_values())
        assert np.max(np.abs(out.values.astype(np.float64) - whole)) < 1e-5

    def test_output_bytes_do_not_depend_on_the_budget(self, monkeypatch):
        # 2x2 tiles of 114x116 pixels: 2**25 slabs no layer, the default slabs
        # every layer, and 2**19 cuts them into slabs of 5, 2 and 5 rows
        m = build_model(preset("spectral"), seed=9)
        r = self._raster(9, 200, 196, 11)
        r.mask[np.random.default_rng(9).uniform(size=r.mask.shape) < 0.3] = False
        r.mask[:40, :50] = False
        zeroed = Raster(r.grid, np.where(r.mask, r.values, 0), r.band_names, r.mask)
        r.values[:, ~r.mask] = np.nan
        got = {}
        for budget in (2**25, srcnn._COL_BUDGET, 2**19):
            monkeypatch.setattr(srcnn, "_COL_BUDGET", budget)
            got[budget] = infer_tiled(m, r, tile=128).values
        monkeypatch.undo()
        got["zeroed"] = infer_tiled(m, zeroed, tile=128).values
        assert all(v.dtype == np.float32 for v in got.values())
        assert len({v.tobytes() for v in got.values()}) == 1

    def test_memory_is_bounded_by_the_tile(self):
        # a 320x320 scene at tile 256 runs as 2x2 tiles of 176x176 pixels.  The
        # tile arrays are float32, the weights' dtype at inference.  At the
        # budget of 2**22 elements every layer's column matrix is cut into
        # slabs of at most 4.2 million elements (16 MB; the 32-row padding of
        # its inner axis adds < 1%), each freed before the next is made, so one
        # is held at a time.  Every other tile array lives only while
        # its layer runs: first the layer input and its padded copy, then the
        # padded copy, the output, one row slab of it and the padded weights.
        # Layer 1 sets the larger of the two, 7.9 + 8.3 MB while it pads layer
        # 0's output.  Then the bool LeakyReLU mask of layer 0 and its
        # complement (4.0 MB), the tile's float32 input (1.4 MB), the float32
        # weights (0.5 MB), and the scene's float32 output and mask (3.4 MB).
        # That bounds the peak by 42 MB; it was 35 MB, 39 MB when a workspace
        # kept the slabs between layers and tiles, 43 MB when it kept every
        # array by role, and 78 MB with float64 tile arrays.
        m = build_model(preset("spectral"), seed=10)
        r = self._raster(10, 320, 320, 11)
        h = w = 176
        cols = layer = 0
        for c_in, (k, f) in zip(m.arch.channel_chain, m.arch.layers):
            p = k // 2
            rows = min(h, srcnn._COL_BUDGET // (c_in * k * k * w))
            inner = -(-c_in * k * k // 32) * 32
            pad = c_in * (h + 2 * p) * (w + 2 * p)
            cols = max(cols, 4 * inner * rows * w)
            layer = max(layer, 4 * (c_in * h * w + pad), 4 * (pad + f * h * w + f * rows * w
                                                              + f * inner))
        masks = 2 * m.arch.layers[0][1] * h * w
        scene = (8 * 4 + 1) * 320 * 320
        bound = layer + cols + masks + 11 * h * w * 4 + 4 * m.parameter_count() + scene
        peak, out = traced_peak(infer_tiled, m, r, 256)
        assert out.values.shape == (8, 320, 320)
        assert bound < 42e6
        assert peak < bound, (peak / 1e6, bound / 1e6)

    def test_spectral_tiles_match_float64_forward(self):
        # 2x2 float32 tiles of 114x116 pixels against one float64 pass over the
        # zero-filled scene: 2.3e-6 apart on outputs up to 2.3
        m = build_model(preset("spectral"), seed=9)
        r = self._raster(9, 200, 196, 11)
        r.mask[np.random.default_rng(9).uniform(size=r.mask.shape) < 0.3] = False
        r.mask[:40, :50] = False
        zeroed = np.where(r.mask, r.values, 0).astype(np.float64)
        r.values[:, ~r.mask] = np.nan
        out = infer_tiled(m, r, tile=128)
        assert np.max(np.abs(out.values - forward(m, zeroed))) < 1e-5

    def test_output_bytes_do_not_depend_on_the_thread_count(self):
        # run in child processes, since the BLAS thread count is fixed when
        # NumPy loads
        src = str(Path(srcnn.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", _THREADED_INFER], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_checkpoint_round_trip_keeps_the_output_bytes(self, tmp_path):
        # checkpoints hold float32 weights, the dtype inference runs in
        pairs = [(random_raster(s, 64, 64, 11), random_raster(s + 50, 64, 64, 8)) for s in (0, 1)]
        cfg = TrainConfig(scale=8, patch_coarse=2, batch_size=4, epochs=1, seed=0)
        model, _ = train(preset("spectral"), pairs, cfg)
        save_checkpoint(model, tmp_path / "net.ckpt")
        r = self._raster(4, 150, 140, 11)
        a, b = (infer_tiled(net, r, tile=96).values
                for net in (model, load_checkpoint(tmp_path / "net.ckpt")))
        assert a.tobytes() == b.tobytes()

    def test_fully_masked_propagates(self):
        m = build_model(ArchConfig(2, 2, ((3, 4), (3, 2))), seed=2)
        r = self._raster(2, 32, 32, 2)
        r.mask[:] = False
        out = infer_tiled(m, r)
        assert not out.mask.any()

    def test_channel_mismatch(self):
        m = build_model(preset("spectral"), seed=0)
        with pytest.raises(ShapeError):
            infer_tiled(m, self._raster(0, 32, 32, 3))

    @pytest.mark.parametrize("tile", [32, 20])
    def test_tile_within_twice_overlap_rejected(self, tile):
        m = build_model(ArchConfig(2, 2, ((3, 4), (3, 2))), seed=0)
        with pytest.raises(ConfigError):
            infer_tiled(m, self._raster(0, 64, 64, 2), tile=tile, overlap=16)


class TestTileSpans:
    @pytest.mark.parametrize("tile,overlap", [(512, 16), (256, 16), (64, 16), (40, 8), (20, 8)])
    def test_plan_invariants(self, tile, overlap):
        for n in range(1, 1101):
            spans = _tile_spans(n, tile, overlap)
            # the writes partition [0, n)
            assert spans[0][2] == 0 and spans[-1][3] == n
            assert all(a[3] == b[2] for a, b in zip(spans, spans[1:]))
            for start, stop, w0, w1 in spans:
                assert 0 <= start <= w0 < w1 <= stop <= n
                assert min(n, 2 * overlap + 1) <= stop - start <= tile
                # seams inside the image keep `overlap` pixels of context
                assert w0 == 0 or w0 - start >= overlap
                assert w1 == n or stop - w1 >= overlap
            # one tile fewer could not write all of [0, n)
            t = len(spans) - 1
            most = tile if t == 1 else 2 * (tile - overlap) + (t - 2) * (tile - 2 * overlap)
            assert t == 0 or most < n

    @pytest.mark.parametrize("n,tile", [(640, 512), (320, 256)])
    def test_computes_at_most_1_25x_the_written_pixels(self, n, tile):
        computed = sum(stop - start for start, stop, _, _ in _tile_spans(n, tile, 16))
        assert (computed / n) ** 2 <= 1.25

    def test_two_equal_tiles(self):
        assert _tile_spans(320, 256, 16) == [(0, 176, 0, 160), (144, 320, 160, 320)]
        assert _tile_spans(640, 512, 16) == [(0, 336, 0, 320), (304, 640, 320, 640)]
        assert _tile_spans(256, 256, 16) == [(0, 256, 0, 256)]


class TestCheckpoints:
    def test_round_trip_forward_equivalent(self, tmp_path):
        m = build_model(preset("spectral-rgb"), seed=5)
        p = tmp_path / "model.ckpt"
        m.train_meta = {"seed": 5, "epochs": 3}
        save_checkpoint(m, p)
        back = load_checkpoint(p)
        assert back.arch == m.arch
        assert back.train_meta == m.train_meta
        x = np.random.default_rng(0).uniform(size=(3, 16, 16))
        a = forward(m, x)
        b = forward(back, x)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_spectral_payload_size(self, tmp_path):
        m = build_model(preset("spectral"), seed=0)
        p = tmp_path / "spectral.ckpt"
        save_checkpoint(m, p)
        data = p.read_bytes()
        hlen = int(np.frombuffer(data[:4], dtype="<u4")[0])
        assert len(data) - 4 - hlen == 114624 * 4
        # whole-file size comfortably under 0.60 MB
        assert len(data) <= 0.60 * 1e6

    def test_truncated_payload(self, tmp_path):
        m = build_model(preset("spectral-rgb"), seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        data = p.read_bytes()
        q = tmp_path / "trunc.ckpt"
        q.write_bytes(data[:-17])
        with pytest.raises(CorruptionError):
            load_checkpoint(q)

    def test_fuzzed_truncations_are_structured(self, tmp_path):
        m = build_model(ArchConfig(2, 1, ((3, 3), (3, 1))), seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        data = p.read_bytes()
        rng = np.random.default_rng(0)
        for cut in sorted(set(int(c) for c in rng.integers(0, len(data), 30))):
            q = tmp_path / "cut.ckpt"
            q.write_bytes(data[:cut])
            with pytest.raises(SatfuseError):
                load_checkpoint(q)
