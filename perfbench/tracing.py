"""Spans around calls into satfuse's modules, recorded from outside the program.

`install` replaces every public function of each layer module, wherever a
satfuse module or the package namespace holds it, with a wrapper that records
a span: name, phase, start, end, parent and work counts.  Calls inside a
module go through its globals, so they are wrapped too.  Two private calls
cross modules: `training` imports `_forward_batch` and `_backward_batch` from
`srcnn`; only the names `training` imported are wrapped, so the batch passes
of training get their own `srcnn` spans while `infer_tiled` stays one span.

Spans stay in memory.  Recording is on only while the harness says so (during
set-up and inside timed operations), so checks and warm-up leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import satfuse

# every module except `cli` (an argument shell) and `errors` is a layer
LAYERS = (
    "synthetic",
    "bsf",
    "nnls",
    "spectral",
    "alignment",
    "raster",
    "training",
    "srcnn",
    "metrics",
    "forest",
)


def _conv_flop(model, pixels: int) -> float:
    """Useful multiply-adds of one forward pass, as FLOP (computed from shapes)."""
    return 2.0 * model.parameter_count() * pixels


# work counts taken at the boundary: f(args, kwargs, result) -> {count: value}
def _count_train_forward(a, k, res):
    x = a[1]
    return {"gflop": _conv_flop(a[0], x.shape[1] * x.shape[2] * x.shape[3]) / 1e9}


def _count_train_backward(a, k, res):
    model, cache, gout = a
    pixels = gout.shape[1] * gout.shape[2] * gout.shape[3]
    # weight gradients of every layer plus input gradients of layers 1..L-1;
    # the input gradient of layer 0 is not useful work
    useful = 2.0 * (2 * model.parameter_count() - model.weights[0].size) * pixels
    return {"gflop": useful / 1e9, "steps": 1}


def _count_infer(a, k, res):
    return {"gflop": _conv_flop(a[0], res.grid.width * res.grid.height) / 1e9}


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


COUNTS = {
    "bsf.read_bsf": lambda a, k, res: {"mb": _file_mb(a[0])},
    "bsf.write_bsf": lambda a, k, res: {"mb": _file_mb(a[1])},
    "alignment.register": lambda a, k, res: {"shifts": res.evaluations},
    "forest.fit_forest": lambda a, k, res: {"nodes": sum(int(t.feature.size) for t in res.trees)},
    "forest.predict": lambda a, k, res: {"rows": 1 if getattr(res, "ndim", 0) == 0 else len(res)},
    "srcnn.infer_tiled": _count_infer,
    "srcnn.train_forward": _count_train_forward,
    "srcnn.train_backward": _count_train_backward,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        """`name` is a span name or a callable (args, kwargs) -> name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            span = {
                "name": span_name,
                "phase": self.phase,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            count = COUNTS.get(span_name)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, inspect.getattr_static(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self):
        modules = {name: importlib.import_module(f"satfuse.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap(fn, f"{layer}.{attr}")
        for ns in (satfuse, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])

        training = modules["training"]
        self._patch(
            training,
            "_forward_batch",
            self.wrap(
                training._forward_batch,
                lambda a, k: "srcnn.train_forward" if k.get("keep_cache") else "srcnn.val_forward",
            ),
        )
        self._patch(
            training, "_backward_batch", self.wrap(training._backward_batch, "srcnn.train_backward")
        )

        fm = modules["forest"].ForestModel
        self._patch(fm, "to_json", self.wrap(fm.to_json, "forest.to_json"))
        self._patch(fm, "from_json", classmethod(self.wrap(fm.from_json.__func__, "forest.from_json")))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans


def aggregate(spans, n_setups: int, n_passes: int):
    """Per-round sums: set-up spans count 1/n_setups, pass spans 1/n_passes.

    Returns (inclusive seconds by span name, self seconds by layer,
    counts by "name.count", max single-call seconds by span name).
    """
    scale = {"setup": 1.0 / max(n_setups, 1), "pass": 1.0 / max(n_passes, 1)}
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    max_call = defaultdict(float)
    for i, s in enumerate(spans):
        w = scale[s["phase"]]
        dur = s["end"] - s["start"]
        incl[s["name"]] += w * dur
        self_s[s["name"].split(".")[0]] += w * (dur - child[i])
        max_call[s["name"]] = max(max_call[s["name"]], dur)
        counts[s["name"] + ".calls"] += w
        for key, value in s.get("counts", {}).items():
            counts[f"{s['name']}.{key}"] += w * value
    return incl, self_s, counts, max_call


def _rate(num, den):
    return num / den if den > 0 else 0.0


def per_layer_metrics(spans, n_setups: int, n_passes: int) -> dict:
    """Every per-layer metric, name -> (value, unit); see README.md."""
    incl, self_s, counts, max_call = aggregate(spans, n_setups, n_passes)
    train_fwd_gflop = counts["srcnn.train_forward.gflop"]
    train_bwd_gflop = counts["srcnn.train_backward.gflop"]
    train_conv_s = incl["srcnn.train_forward"] + incl["srcnn.train_backward"]
    m = {
        "synthetic.make_fusion_dataset_s": (incl["synthetic.make_fusion_dataset"], "s"),
        "synthetic.gen_hyper_scene_s": (incl["synthetic.gen_hyper_scene"], "s"),
        "synthetic.degrade_s": (incl["synthetic.degrade"], "s"),
        "synthetic.assemble_pairs_s": (incl["synthetic.assemble_pairs"], "s"),
        "bsf.read_s": (incl["bsf.read_bsf"], "s"),
        "bsf.write_s": (incl["bsf.write_bsf"], "s"),
        "bsf.read_mb": (counts["bsf.read_bsf.mb"], "MB"),
        "bsf.write_mb": (counts["bsf.write_bsf.mb"], "MB"),
        "nnls.nnls_s": (incl["nnls.nnls"], "s"),
        "nnls.max_call_s": (max_call["nnls.nnls"], "s"),
        "nnls.calls": (counts["nnls.nnls.calls"], "count"),
        "spectral.fit_band_weights_s": (incl["spectral.fit_band_weights"], "s"),
        "spectral.simulate_bands_s": (incl["spectral.simulate_bands"], "s"),
        "alignment.snap_to_grid_s": (incl["alignment.snap_to_grid"], "s"),
        "alignment.register_s": (incl["alignment.register"], "s"),
        "alignment.shifts_scored": (counts["alignment.register.shifts"], "count"),
        "alignment.ms_per_shift": (
            1e3 * _rate(incl["alignment.register"], counts["alignment.register.shifts"]),
            "ms",
        ),
        "raster.upsample_bicubic_s": (incl["raster.upsample_bicubic"], "s"),
        "raster.block_mean_s": (incl["raster.block_mean"], "s"),
        "raster.translate_pixels_s": (incl["raster.translate_pixels"], "s"),
        "training.train_s": (incl["training.train"], "s"),
        "training.steps": (counts["srcnn.train_backward.steps"], "count"),
        "srcnn.train_forward_s": (incl["srcnn.train_forward"], "s"),
        "srcnn.train_backward_s": (incl["srcnn.train_backward"], "s"),
        "srcnn.val_forward_s": (incl["srcnn.val_forward"], "s"),
        "srcnn.train_forward_gflop": (train_fwd_gflop, "GFLOP"),
        "srcnn.train_backward_gflop": (train_bwd_gflop, "GFLOP"),
        "srcnn.train_gflop_per_s": (_rate(train_fwd_gflop + train_bwd_gflop, train_conv_s), "GFLOP/s"),
        "srcnn.infer_tiled_s": (incl["srcnn.infer_tiled"], "s"),
        "srcnn.infer_useful_gflop": (counts["srcnn.infer_tiled.gflop"], "GFLOP"),
        "srcnn.infer_gflop_per_s": (
            _rate(counts["srcnn.infer_tiled.gflop"], incl["srcnn.infer_tiled"]),
            "GFLOP/s",
        ),
        "srcnn.save_checkpoint_s": (incl["srcnn.save_checkpoint"], "s"),
        "srcnn.load_checkpoint_s": (incl["srcnn.load_checkpoint"], "s"),
        "metrics.evaluate_s": (incl["metrics.evaluate"], "s"),
        "forest.extract_quadrat_features_s": (incl["forest.extract_quadrat_features"], "s"),
        "forest.cross_validate_s": (incl["forest.cross_validate"], "s"),
        "forest.fit_forest_s": (incl["forest.fit_forest"], "s"),
        "forest.nodes_grown": (counts["forest.fit_forest.nodes"], "count"),
        "forest.nodes_per_s": (
            _rate(counts["forest.fit_forest.nodes"], incl["forest.fit_forest"]),
            "nodes/s",
        ),
        "forest.predict_s": (incl["forest.predict"], "s"),
        "forest.rows_predicted": (counts["forest.predict.rows"], "count"),
        "forest.to_json_s": (incl["forest.to_json"], "s"),
        "forest.from_json_s": (incl["forest.from_json"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m
