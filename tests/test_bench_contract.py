"""The benchmark's tracer still finds the calls it measures.

`perfbench/tracing.py` wraps public functions by name and two private ones
that `training` imports from `srcnn` (`_forward_batch`, `_backward_batch`),
naming the forward span by its `keep_cache` keyword and reading the batch
tensors from positional arguments.  A refactor that renames those imports or
changes how they are called would leave the benchmark's training metrics at
zero without failing anything else; this test fails instead.
"""

import types
from pathlib import Path

import numpy as np

from satfuse import srcnn, training
from satfuse.srcnn import ArchConfig

from conftest import random_raster

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """The tracing module, run from its source without writing beside it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_records_training_and_inference_spans():
    tracer = _load_tracing().Tracer()
    arch = ArchConfig(2, 2, ((3, 4), (3, 2)))
    pairs = [(random_raster(i, 16, 16, 2), random_raster(i + 10, 16, 16, 2)) for i in range(2)]
    val_pairs = [(random_raster(20, 16, 16, 2), random_raster(21, 16, 16, 2))]
    cfg = training.TrainConfig(scale=1, patch_coarse=8, batch_size=2, epochs=1)
    tracer.install()
    try:
        tracer.active = True
        model, _ = training.train(arch, pairs, cfg, val_pairs=val_pairs)
        srcnn.infer_tiled(model, pairs[0][0], tile=12, overlap=2)
    finally:
        tracer.active = False
        tracer.uninstall()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    for name in ("srcnn.train_forward", "srcnn.train_backward", "srcnn.val_forward",
                 "srcnn.infer_tiled"):
        assert name in spans, sorted(spans)
    # 8 training patches in batches of 2, and 4 validation patches
    assert len(spans["srcnn.train_backward"]) == 4
    assert len(spans["srcnn.val_forward"]) == 2
    for name in ("srcnn.train_forward", "srcnn.train_backward", "srcnn.infer_tiled"):
        assert all(s["counts"]["gflop"] > 0 for s in spans[name]), name
    # the private names are restored
    assert training._forward_batch is srcnn._forward_batch
    assert training._backward_batch is srcnn._backward_batch
    assert np.isfinite(model.train_meta["best_val_loss"])
