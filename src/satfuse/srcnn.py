"""Small super-resolution conv nets with exact-graph backpropagation.

Networks follow the classic three-stage layout: a wide-kernel feature
extractor, one or more nonlinear mapping layers, and a linear reconstruction
layer.  They operate at the target resolution (the coarse input is upsampled
before entering the network), so output spatial dims always equal input
spatial dims.  Convolutions use replicate-edge same padding, LeakyReLU after
every layer but the last, no batch normalization, and no bias terms (all
parameters are convolution weights).

Parameters are float64 in memory for exact gradient checks and are
serialized as little-endian float32.  Training, :func:`forward` and
:func:`backward` compute in float64; :func:`infer_tiled` computes in float32,
within 1e-5 of a float64 pass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bsf import read_block, read_framed, write_framed
from .errors import (COUNT, FINITE, INDEX, ConfigError, CorruptionError, ShapeError, array,
                     check_fields, finite, instance, integer, parameter, parse_errors,
                     whole_number)
from .raster import Raster, _filled_window, _require_raster

__all__ = [
    "ArchConfig",
    "SrcnnModel",
    "PRESETS",
    "preset",
    "build_model",
    "forward",
    "backward",
    "masked_mse",
    "masked_mse_grad",
    "infer_tiled",
    "save_checkpoint",
    "load_checkpoint",
]

# elements of one im2col slab: 16 MB at inference (float32) and 32 MB in
# training (float64).  A column matrix much larger than the cache is written
# to memory and read back before its GEMM: on a 2-core host with OpenBLAS
# 0.3.31, a 640x640 `spectral` inference took 2.6-2.8 s at 2**25 (128 MB
# slabs) against 1.7-1.8 s here, and 2.2-2.3 s at 2**19, where the GEMMs get
# too thin.  Slabbing leaves every output bit as is.
_COL_BUDGET = 2**22


@dataclass(frozen=True)
class ArchConfig:
    """Layer plan for one network: (kernel, filters) per conv layer."""

    in_channels: int
    out_channels: int
    layers: tuple[tuple[int, int], ...]
    slope: float = 0.1
    name: str = "custom"

    def __post_init__(self):
        layers = (lambda ls: tuple((whole_number(k), whole_number(f)) for k, f in ls),
                  lambda ls: len(ls) >= 2 and all(k >= 1 and k % 2 and f >= 1 for k, f in ls),
                  "two or more (kernel, filters) pairs of integers, "
                  "odd kernels >= 1, filters >= 1")
        check_fields(self, ConfigError, ("in_channels out_channels", COUNT), ("layers", layers),
                     ("slope", FINITE))
        instance("name", self.name, str, ConfigError)
        if self.layers[-1][1] != self.out_channels:
            raise ConfigError(
                f"final layer has {self.layers[-1][1]} filters, expected {self.out_channels}"
            )

    @property
    def channel_chain(self) -> list[int]:
        return [self.in_channels] + [f for _, f in self.layers]

    @property
    def max_kernel(self) -> int:
        return max(k for k, _ in self.layers)

    @property
    def receptive_radius(self) -> int:
        return sum(k // 2 for k, _ in self.layers)

    @property
    def weight_shapes(self) -> list[tuple[int, int, int, int]]:
        """(c_out, c_in, k, k) of each layer's weights, in layer order."""
        chain = self.channel_chain
        return [(f, chain[i], k, k) for i, (k, f) in enumerate(self.layers)]

    def parameter_count(self) -> int:
        return sum(math.prod(shape) for shape in self.weight_shapes)

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        return cls(
            in_channels=integer(d["in_channels"]),
            out_channels=integer(d["out_channels"]),
            layers=tuple((integer(k), integer(f)) for k, f in d["layers"]),
            slope=finite(d.get("slope", cls.slope)),
            name=str(d.get("name", cls.name)),
        )


PRESETS: dict[str, ArchConfig] = {
    # 8 upsampled satellite bands + 3 camera RGB bands -> 8 sharp bands
    "spectral": ArchConfig(11, 8, ((9, 64), (5, 32), (5, 8)), 0.1, "spectral"),
    # camera RGB only (no usable satellite scene)
    "spectral-rgb": ArchConfig(3, 8, ((9, 64), (5, 32), (5, 8)), 0.1, "spectral-rgb"),
    # satellite-only sharpening for unflown areas / dates: wider first kernel
    # to bridge the larger resolution gap
    "spatial": ArchConfig(8, 8, ((13, 64), (5, 32), (5, 8)), 0.1, "spatial"),
}
# an alias of `spatial`: the same net, only the name it records differs
PRESETS["temporal"] = replace(PRESETS["spatial"], name="temporal")


def preset(name: str) -> ArchConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None


@dataclass
class SrcnnModel:
    arch: ArchConfig
    weights: list[np.ndarray]  # per layer, (c_out, c_in, k, k) float64
    seed: int
    train_meta: dict = field(default_factory=dict)

    def parameter_count(self) -> int:
        return int(sum(w.size for w in self.weights))

    def copy_weights(self) -> list[np.ndarray]:
        return [w.copy() for w in self.weights]


def build_model(arch: ArchConfig, seed: int = 0) -> SrcnnModel:
    """He-uniform initialization, deterministic for a given seed."""
    instance("arch", arch, ArchConfig, ConfigError)
    seed = parameter("seed", seed, *INDEX, ConfigError)
    rng = np.random.default_rng(seed)
    weights = []
    for shape in arch.weight_shapes:
        limit = np.sqrt(6.0 / math.prod(shape[1:]))  # fan-in c_in * k * k
        weights.append(rng.uniform(-limit, limit, size=shape))
    return SrcnnModel(arch, weights, seed)


# ---------------------------------------------------------------------------
# convolution kernels


# Activations flow through the network in (channels, batch, H, W) layout:
# im2col then reduces to one copy of the padded tensor's windows
# and one GEMM per layer, with the GEMM result already in the right layout.


def _pad_edge(x: np.ndarray, p: int, dtype) -> np.ndarray:
    """Replicate-edge padding of the last two axes by `p`, as a new array of `dtype`."""
    H, W = x.shape[-2], x.shape[-1]
    out = np.empty((*x.shape[:-2], H + 2 * p, W + 2 * p), dtype)
    out[..., p : p + H, p : p + W] = x
    out[..., :p, p : p + W] = x[..., :1, :]
    out[..., p + H :, p : p + W] = x[..., -1:, :]
    out[..., :, :p] = out[..., :, p : p + 1]
    out[..., :, p + W :] = out[..., :, p + W - 1 : p + W]
    return out


def _im2col(xp: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Stack the k*k shifted views of a padded tensor into `out`.

    xp: (C, B, H + k - 1, W + k - 1) -> out (C, k*k, B, H, W), contiguous,
    with out[:, a * k + b] = xp[:, :, a : a + H, b : b + W], copied in one call.
    """
    C, _, B, H, W = out.shape
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))  # (C, B, H, W, k, k)
    np.copyto(out.reshape(C, k, k, B, H, W), windows.transpose(0, 4, 5, 1, 2, 3))
    return out


# OpenBLAS rounds a GEMM with some inner lengths (891, 243, 1352 and 1360 were
# measured) differently when it splits the GEMM over another number of threads,
# while every multiple of 32 measured gave one result at 1 to 4 threads.  So
# each conv GEMM pads its inner axis with zeros up to a multiple of this.
_GEMM_ALIGN = 32


def _conv_gemm(wmat: np.ndarray, xp: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """`out` (R, B, H, W) = `wmat` (R, C*k*k) times the im2col of `xp`.

    xp: (C, B, H + k - 1, W + k - 1).  The GEMM's inner axis C*k*k is
    zero-padded to a multiple of `_GEMM_ALIGN` in both operands.  Returns the
    new padded column matrix, (C*k*k rounded up, B*H*W).
    """
    C = xp.shape[0]
    R, B, H, W = out.shape
    K = C * k * k
    Kp = -(-K // _GEMM_ALIGN) * _GEMM_ALIGN
    cols = np.empty((Kp, B * H * W), wmat.dtype)
    _im2col(xp, k, cols[:K].reshape(C, k * k, B, H, W))
    cols[K:] = 0.0
    wpad = np.zeros((R, Kp), wmat.dtype)
    wpad[:, :K] = wmat
    np.matmul(wpad, cols, out=out.reshape(R, B * H * W))
    return cols


def _conv2d(xp: np.ndarray, w: np.ndarray, keep_cols: bool = False):
    """Same-size convolution of a padded input; the one driver of :func:`_conv_gemm`.

    xp: (C_in, B, H + k - 1, W + k - 1), w: (C_out, C_in, k, k) -> a new
    (C_out, B, H, W) array of the dtype of `w`, and the padded column matrix
    of :func:`_conv_gemm` when `keep_cols` is set (else None).  A column
    matrix of more than `_COL_BUDGET` elements is processed in row slabs,
    each freed before the next is made: every layer of a 176x176
    ``spectral`` inference tile, layer 1 of a validation batch of 16
    training patches, and layer 0's input gradient in :func:`backward`.
    With `keep_cols` the whole column matrix is kept for gradient reuse,
    never in slabs (a training batch of 16 16x16 patches keeps at most
    1600 x 4096 elements, 52 MB, per layer).
    """
    c_out, c_in, k, _ = w.shape
    _, B, Hp, Wp = xp.shape
    H, W = Hp - k + 1, Wp - k + 1
    wmat = w.reshape(c_out, -1)
    out = np.empty((c_out, B, H, W), w.dtype)
    if keep_cols or c_in * k * k * B * H * W <= _COL_BUDGET:
        cols = _conv_gemm(wmat, xp, k, out)
        return out, cols if keep_cols else None
    rows_per = max(1, _COL_BUDGET // (c_in * k * k * B * W))
    for r0 in range(0, H, rows_per):
        r1 = min(H, r0 + rows_per)
        slab = np.empty((c_out, B, r1 - r0, W), w.dtype)
        _conv_gemm(wmat, xp[:, :, r0 : r1 + k - 1, :], k, slab)
        out[:, :, r0:r1, :] = slab
    return out, None


def _fold_replicate_padding(g: np.ndarray, p: int) -> np.ndarray:
    """Accumulate padded-image gradient onto the interior (replicate-pad adjoint).

    Works in place on `g` and returns a view of its interior.
    """
    if p == 0:
        return g
    Hp, Wp = g.shape[-2], g.shape[-1]
    g[..., p, :] += g[..., :p, :].sum(axis=-2)
    g[..., Hp - p - 1, :] += g[..., Hp - p :, :].sum(axis=-2)
    g = g[..., p : Hp - p, :]
    g[..., :, p] += g[..., :, :p].sum(axis=-1)
    g[..., :, Wp - p - 1] += g[..., :, Wp - p :].sum(axis=-1)
    return g[..., :, p : Wp - p]


def _conv2d_backward(cols: np.ndarray, w: np.ndarray, gout: np.ndarray,
                     input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of :func:`_conv2d` given its padded column matrix `cols`.

    gout: (C_out, B, H, W).  The weight gradient is one GEMM with `cols`.
    The input gradient is the transposed convolution, run by :func:`_conv2d`
    itself as a direct convolution (Dumoulin & Visin, arXiv:1603.07285,
    section 4): `gout` zero-padded by k - 1 on each side, convolved with the
    weights flipped in both spatial axes and with the channel axes swapped,
    gives the gradient of the replicate-padded input, which the padding's
    adjoint folds onto the interior.  Returns (grad_input (C_in, B, H, W),
    grad_weights); grad_input is None unless `input_grad`.
    """
    c_out, c_in, k, _ = w.shape
    _, B, H, W = gout.shape
    p = k // 2
    gmat = gout.reshape(c_out, B * H * W)

    gw = (gmat @ cols.T)[:, : c_in * k * k].reshape(w.shape)
    if not input_grad:
        return None, gw

    gz = np.zeros((c_out, B, H + 4 * p, W + 4 * p))
    gz[:, :, 2 * p : 2 * p + H, 2 * p : 2 * p + W] = gout
    gxp, _ = _conv2d(gz, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _fold_replicate_padding(gxp, p), gw


# ---------------------------------------------------------------------------
# network forward / backward


def _check_input(model: SrcnnModel, x: np.ndarray):
    if x.shape[0] != model.arch.in_channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, network expects {model.arch.in_channels}"
        )
    if x.shape[2] < model.arch.max_kernel or x.shape[3] < model.arch.max_kernel:
        raise ShapeError(
            f"spatial dims {x.shape[2]}x{x.shape[3]} smaller than the largest "
            f"kernel {model.arch.max_kernel}"
        )


def _forward_batch(model: SrcnnModel, x: np.ndarray, keep_cache: bool = False):
    """x: (C_in, B, H, W) float64 or float32 -> (C_out, B, H, W) plus backward cache.

    The pass computes in the dtype of the model's weights (under float64
    weights the padding widens a float32 `x` exactly).  With `keep_cache`
    the cache holds each layer's whole column matrix and LeakyReLU mask;
    without it the cache is None and each column matrix is freed once its
    layer's output is made.
    """
    _check_input(model, x)
    slope = model.arch.slope
    n_layers = len(model.weights)
    cache = [] if keep_cache else None
    a = x
    for li, w in enumerate(model.weights):
        # the layer input is released once padded, and the previous layer's
        # mask unless cached, so a layer holds one padded input and one output
        positive = None
        a = _pad_edge(a, w.shape[-1] // 2, w.dtype)
        a, cols = _conv2d(a, w, keep_cache)
        if li < n_layers - 1:
            # LeakyReLU in place, mask first: a negative slope makes negatives positive
            positive = a > 0
            np.multiply(a, slope, out=a, where=~positive)
        if keep_cache:
            cache.append((cols, positive))
    return a, cache


def _backward_batch(model: SrcnnModel, cache, gout: np.ndarray, input_grad: bool = True):
    """Weight gradients of every layer, and the input gradient if `input_grad`."""
    slope = model.arch.slope
    n_layers = len(model.weights)
    grads = [None] * n_layers
    g = gout
    for li in range(n_layers - 1, -1, -1):
        cols, positive = cache[li]
        if positive is not None:
            # chain rule through LeakyReLU: g * (1 where z > 0, else slope)
            gz = g * slope
            np.copyto(gz, g, where=positive)
            g = gz
        g, grads[li] = _conv2d_backward(cols, model.weights[li], g, input_grad or li > 0)
    return grads, g


def forward(model: SrcnnModel, x: np.ndarray) -> np.ndarray:
    """Run one image (C_in, H, W) -> (C_out, H, W)."""
    instance("model", model, SrcnnModel, ConfigError)
    x = array("x", x, ShapeError, ndim=3, finite=True)
    y, _ = _forward_batch(model, x[:, None])
    return y[:, 0]


def backward(model: SrcnnModel, x: np.ndarray, grad_out: np.ndarray):
    """Exact gradients of the forward graph.

    Returns ``(weight_grads, input_grad)`` for one image; ``grad_out`` is the
    loss gradient w.r.t. the network output, whose shape is checked before
    any pass runs.  The forward pass run first keeps every layer's whole
    column matrix for the weight gradients, with no slabs: about 108 MB for a
    64x64 image through the ``spectral`` preset.
    Training never needs the input gradient of layer 0; here it is computed
    as a direct convolution whose column matrix has C_out*k*k rows for layer
    0's kernel k and filter count C_out (5184 for a 9x9 kernel and 64
    filters), in row slabs of at most `_COL_BUDGET` elements.  A 64x64 image
    therefore peaks at about 149 MB traced; held whole, those columns take
    215 MB and the peak 331 MB.
    """
    instance("model", model, SrcnnModel, ConfigError)
    x = array("x", x, ShapeError, ndim=3, finite=True)
    grad_out = array("grad_out", grad_out, ShapeError, ndim=3, finite=True)
    out_shape = (model.arch.out_channels, *x.shape[1:])
    if grad_out.shape != out_shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != output shape {out_shape}")
    _, cache = _forward_batch(model, x[:, None], keep_cache=True)
    grads, gin = _backward_batch(model, cache, grad_out[:, None])
    return grads, gin[:, 0]


def _masked_error(pred: np.ndarray, target: np.ndarray, mask: np.ndarray):
    """Masked difference, its squared sum and the number of valid values.

    pred, target: channels first, (C, H, W) or (C, B, H, W); `mask`, bool or
    float, is the validity of the axes after the channels.
    """
    d = (pred - target) * mask
    return d, float((d * d).sum()), float(mask.sum()) * pred.shape[0]


def _loss_arrays(pred, target, mask):
    """:func:`masked_mse`'s arguments as finite float64 arrays of shapes
    (C, ...), (C, ...) and (...)."""
    pred, target, mask = (array(name, v, ShapeError, finite=True)
                          for name, v in (("pred", pred), ("target", target), ("mask", mask)))
    if pred.ndim == 0 or target.shape != pred.shape or mask.shape != pred.shape[1:]:
        raise ShapeError(f"pred, target and mask must have shapes (C, ...), (C, ...) and (...), "
                         f"got {pred.shape}, {target.shape} and {mask.shape}")
    return pred, target, mask


def masked_mse(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared error over valid pixels (mask broadcasts over channels)."""
    _, sq, n = _masked_error(*_loss_arrays(pred, target, mask))
    return sq / n if n else 0.0


def masked_mse_grad(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> np.ndarray:
    d, _, n = _masked_error(*_loss_arrays(pred, target, mask))
    return 2.0 * d / n if n else np.zeros_like(d)


# ---------------------------------------------------------------------------
# tiled inference


def _tile_spans(n: int, tile: int, overlap: int):
    """(start, stop, write_start, write_stop) spans covering [0, n).

    Uses the fewest tiles whose computed spans fit in `tile` while every
    write edge inside the image keeps `overlap` pixels of context, and makes
    those spans equal to within one pixel.  The writes partition [0, n).
    """
    # t tiles compute n + 2 * overlap * (t - 1) pixels in all
    t = max(1, -(-(n - 2 * overlap) // (tile - 2 * overlap)))
    total = n + 2 * overlap * (t - 1)
    spans = []
    start = 0
    for i in range(t):
        stop = start + total * (i + 1) // t - total * i // t
        w0 = 0 if i == 0 else start + overlap
        w1 = n if i == t - 1 else stop - overlap
        spans.append((start, stop, w0, w1))
        start = stop - 2 * overlap
    return spans


def infer_tiled(
    model: SrcnnModel,
    inputs: Raster,
    tile: int = 512,
    overlap: int = 16,
    band_names: list[str] | None = None,
) -> Raster:
    """Run the network over a raster in overlapping tiles.

    Each axis is cut into the fewest tiles of at most `tile` pixels that
    keep `overlap` pixels of context beyond every seam, with equal tile
    sizes: a 640-pixel axis under the default 512-pixel tile takes two
    336-pixel tiles, 1.05x the pixels written.  Each tile contributes the
    region between its seams, so the result equals a whole-image pass
    wherever the overlap is at least the receptive-field radius.  The input
    mask propagates unchanged to the output.

    The tiles run in float32, on a float32 copy of the weights (exact for
    a model read from a checkpoint), and the result is within 1e-5 of a
    float64 pass; the same model gives the same bytes before and after a
    checkpoint round trip.  Beside the output, memory holds one tile's
    arrays: each tile's input is copied from `inputs` with invalid pixels
    set to zero, and its centre is written straight into the float32 output
    that the result keeps.
    """
    instance("model", model, SrcnnModel, ConfigError)
    _require_raster("inputs", inputs, ShapeError)
    tile, overlap = (parameter(name, v, *INDEX, ConfigError)
                     for name, v in (("tile", tile), ("overlap", overlap)))
    if inputs.n_bands != model.arch.in_channels:
        raise ShapeError(
            f"raster has {inputs.n_bands} bands, network expects {model.arch.in_channels}"
        )
    if overlap < model.arch.receptive_radius:
        raise ConfigError(
            f"overlap {overlap} smaller than receptive radius {model.arch.receptive_radius}"
        )
    if tile <= 2 * overlap:
        raise ConfigError(f"tile {tile} leaves no center region within overlap {overlap}")
    H, W = inputs.mask.shape
    c_out = model.arch.out_channels
    out = np.empty((c_out, H, W), dtype=np.float32)
    net = replace(model, weights=[w.astype(np.float32) for w in model.weights])
    for r0, r1, wr0, wr1 in _tile_spans(H, tile, overlap):
        for c0, c1, wc0, wc1 in _tile_spans(W, tile, overlap):
            x = _filled_window(inputs, slice(r0, r1), slice(c0, c1))
            y, _ = _forward_batch(net, x[:, None])
            out[:, wr0:wr1, wc0:wc1] = y[:, 0, wr0 - r0 : wr1 - r0, wc0 - c0 : wc1 - c0]
    if band_names is None:
        band_names = [f"band{i}" for i in range(c_out)]
    return Raster(inputs.grid, out, band_names, inputs.mask)


# ---------------------------------------------------------------------------
# checkpoints: the BSF framing (see :mod:`satfuse.bsf`) with no magic; the one
# data block is the raw little-endian float32 parameters (layer order,
# C-contiguous)


def save_checkpoint(model: SrcnnModel, path) -> None:
    instance("model", model, SrcnnModel, ConfigError)
    params = [np.ascontiguousarray(w, dtype="<f4") for w in model.weights]
    header = {
        "arch": asdict(model.arch),
        "seed": model.seed,
        "train_meta": model.train_meta,
        "payload_bytes": sum(p.nbytes for p in params),
    }
    write_framed(path, b"", header, *params)


def load_checkpoint(path) -> SrcnnModel:
    with read_framed(path, b"") as (header, fh, size):
        with parse_errors(f"{path}: checkpoint header"):
            arch = ArchConfig.from_dict(header["arch"])
            seed = integer(header.get("seed", 0))
            train_meta = dict(header.get("train_meta", {}))
        n_payload = size - fh.tell()
        expected = arch.parameter_count() * 4
        if header.get("payload_bytes") != n_payload or n_payload != expected:
            raise CorruptionError(
                f"parameter block length mismatch: header says {header.get('payload_bytes')}, "
                f"architecture needs {expected}, file holds {n_payload}"
            )
        params = read_block(fh, np.empty(arch.parameter_count(), "<f4"))
    weights, pos = [], 0
    for shape in arch.weight_shapes:
        n = math.prod(shape)
        weights.append(params[pos : pos + n].astype(np.float64).reshape(shape))
        pos += n
    return SrcnnModel(arch, weights, seed, train_meta)
