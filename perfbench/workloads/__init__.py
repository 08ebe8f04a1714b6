"""The benchmark's workloads.

Each module provides ``setup(ctx) -> inputs``, ``warmup(ctx, inputs)``,
``run_pass(ctx, inputs, p, first)`` and ``summary(passes) -> {name: (value,
unit)}``.  Library calls go through the ``satfuse`` package attributes at call
time so that a traced run sees them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import satfuse as sf


@dataclass(frozen=True)
class Context:
    seed: int
    workdir: Path


def load(name: str):
    return importlib.import_module(f"workloads.{name.replace('-', '_')}")


def crop(r, row0: int, col0: int, height: int, width: int):
    """The pixel window of a raster as a raster on the matching sub-grid."""
    g = r.grid
    grid = sf.GeoGrid(
        g.origin_x + col0 * g.pixel_w,
        g.origin_y - row0 * g.pixel_h,
        g.pixel_w,
        g.pixel_h,
        width,
        height,
    )
    rows = slice(row0, row0 + height)
    cols = slice(col0, col0 + width)
    wl = None if r.wavelengths is None else r.wavelengths.copy()
    return sf.Raster(grid, r.values[:, rows, cols], list(r.band_names), r.mask[rows, cols], wl)


def check_evaluate(p, op_name, report, pred, truth):
    """`evaluate` RMSE and PSNR against a plain recomputation, peak 1.0."""
    joint = pred.mask & truth.mask
    d = pred.values[:, joint].astype(np.float64) - truth.values[:, joint].astype(np.float64)
    rmse = float(np.sqrt(np.mean(d * d)))
    psnr = 20.0 * np.log10(1.0 / rmse)
    ok = np.isclose(report.rmse, rmse, rtol=1e-12, atol=0) and np.isclose(
        report.psnr, psnr, rtol=1e-12, atol=0
    )
    p.check(op_name, "evaluate equals a NumPy recomputation", ok,
            f"rmse {report.rmse!r} vs {rmse!r}, psnr {report.psnr!r} vs {psnr!r}")
