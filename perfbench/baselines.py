"""Reference timings of single stages at the sizes quoted in ROADMAP.md.

    python3 perfbench/baselines.py [--repeats N] [--seed S]

Each stage runs once untimed, then N timed times; the median is printed.
The stages: synthetic scene 640x640x24, band-weight fit for the 269-band
camera, registration at 640x640, bicubic x8 to 640x640, one training step
(batch 16 of 16x16 patches, forward and backward), tiled inference at
640x640 with the default 512-pixel tile, and a 500-tree forest on 120 rows.
"""

import argparse
import json
import statistics
import sys
import time

from run import SRC, _cap_blas_threads


def _time(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    nproc = _cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import numpy as np

    import env
    import satfuse as sf
    from satfuse import srcnn

    rng = np.random.default_rng(args.seed)
    cfg = sf.SceneConfig(seed=args.seed, width=640, height=640, shift=(5, -3))
    cube = sf.gen_hyper_scene(cfg)
    weights = sf.fit_band_weights(sf.synthetic_vnir_srf(), cfg.camera())
    fine = sf.simulate_bands(cube, weights)
    coarse = sf.degrade(fine, cfg)
    camera, srf = sf.default_camera(), sf.synthetic_vnir_srf()

    model = sf.build_model(sf.preset("spectral"), seed=args.seed)
    batch = rng.random((11, 16, 16, 16))
    grad_out = rng.standard_normal((8, 16, 16, 16)) * 1e-3
    cache = {}

    def forward():
        cache["c"] = srcnn._forward_batch(model, batch, keep_cache=True)[1]

    def backward():
        srcnn._backward_batch(model, cache["c"], grad_out)

    inputs = sf.Raster(fine.grid, rng.random((11, 640, 640)), [f"b{i}" for i in range(11)])
    X = rng.random((120, 8))
    y = X @ rng.random(8) + 0.05 * rng.standard_normal(120)

    stages = {
        "gen 640x640x24": lambda: sf.gen_hyper_scene(cfg),
        "fit-srf 269 bands": lambda: sf.fit_band_weights(srf, camera),
        "register 640x640": lambda: sf.register(fine, coarse),
        "bicubic x8 to 640x640": lambda: sf.upsample_bicubic(coarse, 8),
        "train step B16 16x16 forward": forward,
        "train step B16 16x16 backward": backward,
        "infer 640x640 (tile 512)": lambda: sf.infer_tiled(model, inputs),
        "fit_forest 500 trees n=120": lambda: sf.fit_forest(X, y, sf.ForestConfig(n_trees=500)),
    }
    results = {}
    for name, fn in stages.items():
        med, times = _time(fn, args.repeats)
        results[name] = {"median_s": med, "runs_s": times}
        print(f"{name:32s} {med:8.3f} s  (median of {args.repeats})", flush=True)
    print(json.dumps({"env": env.stamp(nproc), "seed": args.seed, "stages": results}))


if __name__ == "__main__":
    main()
