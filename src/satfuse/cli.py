"""Command-line entry point orchestrating the pipeline stages.

Every subcommand is a thin shell over a library operation: numeric work lives
in the library modules, the CLI parses arguments, resolves paths, and writes
machine-readable JSON results.  Structured progress logs (stage name, wall
time, key outputs) go to standard error; results go to files or standard
output.

The ``STAGES`` table is the one declaration of each stage's parameters (keys,
types, defaults, flags): it builds the argument parser, and one check applies
it to flags, ``train`` run-configs and ``pipeline`` stage objects alike.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import alignment, forest, metrics, spectral, srcnn, synthetic, training
from .bsf import read_bsf, write_bsf
from .errors import SatfuseError, ValidationError, finite, integer, parse_errors, read_json
from .raster import stack_bands, translate_pixels

log = logging.getLogger("satfuse")

CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# helpers


def _load_config(path: Path) -> dict:
    """Read a version-checked JSON config; its other keys are stage parameters."""
    doc = read_json(path)
    version = doc.pop("version", None)
    if isinstance(version, bool) or version != CONFIG_VERSION:
        raise ValidationError(f"{path}: missing or unsupported version (expected {CONFIG_VERSION})")
    return doc


def _resolve(base: Path, p) -> Path:
    p = Path(p)
    return p if p.is_absolute() else base / p


def _emit(result: dict, out_path: Path | None) -> None:
    text = json.dumps(result, indent=1, sort_keys=True)
    if out_path is None:
        print(text)
    else:
        out_path.write_text(text + "\n")
        log.info("wrote %s", out_path)


def _camera_from_arg(arg: str, base: Path) -> spectral.HyperBandSpec:
    if arg == "default269":
        return spectral.default_camera()
    if arg.startswith("even:"):
        count = arg.split(":", 1)[1]
        if not count.isdigit():
            raise ValidationError(f"camera {arg!r}: expected even:<band count>")
        return spectral.evenly_spaced_camera(int(count))
    path = _resolve(base, arg)
    doc = read_json(path)
    with parse_errors(path):
        return spectral.HyperBandSpec.from_dict(doc)


# ---------------------------------------------------------------------------
# stage handlers: checked dicts in (every parameter present, paths resolved),
# JSON-able dicts out


def run_fit_srf(args: dict, base: Path) -> dict:
    srf = spectral.SpectralResponseTable.from_csv(args["srf"])
    weights = spectral.fit_band_weights(srf, _camera_from_arg(args["camera"], base))
    weights.save_json(args["out"])
    return {"out": str(args["out"]), "bands": weights.band_names,
            "residuals": [float(r) for r in weights.residuals],
            "active_weights": int((weights.weights > 0).sum())}


def run_simulate(args: dict, base: Path) -> dict:
    cube = read_bsf(args["cube"])
    sim = spectral.simulate_bands(cube, spectral.BandWeights.load_json(args["weights"]))
    write_bsf(sim, args["out"])
    return {"out": str(args["out"]), "bands": sim.band_names,
            "shape": [sim.n_bands, sim.grid.height, sim.grid.width]}


def run_align(args: dict, base: Path) -> dict:
    fine = read_bsf(args["fine"])
    coarse = read_bsf(args["coarse"])
    snapped = alignment.snap_to_grid(fine, coarse.grid, args["target_pixel"])
    if args["apply_shift"]:
        report = read_json(args["apply_shift"])
        with parse_errors(args["apply_shift"]):
            dx, dy = (integer(v) for v in report["shift_px"])
        snapped = translate_pixels(snapped, dx, dy)
    write_bsf(snapped, args["out"])
    return {"out": str(args["out"]),
            "origin": [snapped.grid.origin_x, snapped.grid.origin_y],
            "shape": [snapped.n_bands, snapped.grid.height, snapped.grid.width]}


def run_register(args: dict, base: Path) -> dict:
    est = alignment.register(read_bsf(args["fine"]), read_bsf(args["coarse"]))
    result = {
        "shift_m": [est.shift_x, est.shift_y],
        "shift_px": list(est.shift_px),
        "score": est.score,
        "gains": np.asarray(est.gains).tolist(),
        "offsets": np.asarray(est.offsets).tolist(),
        "evaluations": est.evaluations,
    }
    if args["out"]:
        _emit(result, args["out"])
    return result


def run_train(args: dict, base: Path) -> dict:
    if (args["preset"] is None) == (args["arch"] is None):
        raise ValidationError("train: exactly one of 'preset' or 'arch' is required")
    if (args["pairs"] is None) == (args["manifest"] is None):
        raise ValidationError("train: exactly one of 'pairs' or 'manifest' is required")

    def load_pairs(entries):
        return [(read_bsf(_resolve(base, i)), read_bsf(_resolve(base, t))) for i, t in entries]

    if args["manifest"] is not None:
        manifest = synthetic.load_manifest(args["manifest"])
        pairs = synthetic.assemble_pairs(manifest, args["train_split"], args["variant"])
        val_pairs = synthetic.assemble_pairs(manifest, args["val_split"], args["variant"]) or None
    else:
        pairs = load_pairs(args["pairs"])
        val_pairs = load_pairs(args["val_pairs"]) if args["val_pairs"] else None

    cfg = training.TrainConfig(**{f.name: args[f.name] for f in fields(training.TrainConfig)})
    model, loss_log = training.train(args["preset"] or args["arch"], pairs, cfg,
                                     val_pairs=val_pairs)
    srcnn.save_checkpoint(model, args["out_checkpoint"])
    result = {"checkpoint": str(args["out_checkpoint"]), "parameters": model.parameter_count(),
              "train_meta": model.train_meta}
    if args["out_loss_log"]:
        training.loss_log_to_csv(loss_log, args["out_loss_log"])
        result["loss_log"] = str(args["out_loss_log"])
    return result


def run_infer(args: dict, base: Path) -> dict:
    model = srcnn.load_checkpoint(args["checkpoint"])
    raster = stack_bands(*[read_bsf(_resolve(base, p)) for p in args["inputs"]])
    out_raster = srcnn.infer_tiled(model, raster, band_names=args["band_names"])
    write_bsf(out_raster, args["out"])
    return {"out": str(args["out"]),
            "shape": [out_raster.n_bands, out_raster.grid.height, out_raster.grid.width]}


def run_evaluate(args: dict, base: Path) -> dict:
    report = metrics.evaluate(read_bsf(args["pred"]), read_bsf(args["truth"]),
                              per_band=args["per_band"])
    result = report.to_dict()
    result.update(site=args["site"], date=args["date"])
    if args["csv"]:
        new = not args["csv"].exists()
        with open(args["csv"], "a", newline="") as fh:
            writer = csv.writer(fh)
            if new:
                writer.writerow(["site", "date", "rmse", "mae", "psnr", "n_valid"])
            writer.writerow([result["site"], result["date"], repr(report.rmse),
                             repr(report.mae), repr(report.psnr), report.n_valid])
        result["csv"] = str(args["csv"])
    if args["out"]:
        _emit(result, args["out"])
    return result


def run_rf_samples(args: dict, base: Path) -> dict:
    """Extract quadrat band means from a raster into a samples CSV: the quadrat
    CSV's field measurements plus one band column per raster band."""
    raster = read_bsf(args["raster"])
    quadrats, targets, _, _ = forest.load_quadrats_csv(args["quadrats"])
    feats = forest.extract_quadrat_features(raster, quadrats)
    forest.save_samples_csv(args["out"], quadrats, targets, feats, raster.band_names)
    return {"out": str(args["out"]), "n_samples": len(quadrats), "bands": raster.band_names}


def run_rf_fit(args: dict, base: Path) -> dict:
    quadrats, y, X, band_names = forest.load_samples_csv(args["samples"])
    cfg = forest.ForestConfig(n_trees=args["n_trees"], min_samples_leaf=args["min_samples_leaf"],
                              bootstrap=args["bootstrap"])
    model = forest.fit_forest(X, y, cfg, seed=args["seed"])
    model.to_json(args["out"])
    return {"out": str(args["out"]), "n_samples": len(y), "n_features": X.shape[1],
            "bands": band_names, "oob_r2": forest.oob_r2(model, X, y) if cfg.bootstrap else None}


def run_rf_cv(args: dict, base: Path) -> dict:
    _, y, X, _ = forest.load_samples_csv(args["samples"])
    cfg = forest.ForestConfig(n_trees=args["n_trees"])
    report = forest.cross_validate(X, y, k=args["k"], cfg=cfg, seed=args["seed"])
    if args["out"]:
        _emit(report, args["out"])
    return report


def run_gen_synthetic(args: dict, base: Path) -> dict:
    cfg = synthetic.SceneConfig(**{f.name: args[f.name] for f in fields(synthetic.SceneConfig)})
    manifest = synthetic.make_fusion_dataset(cfg, args["scenes"], args["out"])
    return {"out": str(args["out"]),
            "scenes": [{"id": s["id"], "split": s["split"]} for s in manifest["scenes"]]}


def run_pipeline(args: dict, base: Path) -> dict:
    # check every stage before running any: a typo in the last stage fails at once
    plan = []
    for i, raw in enumerate(args["stages"]):
        if not isinstance(raw, dict) or not isinstance(raw.get("stage"), str):
            raise ValidationError(f"pipeline stage {i} must be an object with a 'stage' name")
        name = raw["stage"]
        if name not in STAGES or name == "pipeline":
            raise ValidationError(f"pipeline stage {i}: unknown stage {name!r}")
        given = {k: v for k, v in raw.items() if k != "stage"}
        plan.append((name, _stage_args(STAGES[name], given, f"pipeline stage {i} ({name})", base)))
    return {"stages": [{"stage": name, "result": _run_stage(name, stage_args, base)}
                       for name, stage_args in plan]}


# ---------------------------------------------------------------------------
# the stage table


REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One stage parameter.  ``type`` converts a flag string or a JSON value;
    ``Path`` values are resolved against the stage's base directory.  ``flag``
    is ``None`` for ``--<key>`` and ``False`` for a key only configs accept."""

    key: str
    type: Callable = Path
    default: object = REQUIRED
    flag: str | bool | None = None
    help: str | None = None
    action: str = "store"

    @property
    def option(self) -> str | None:
        return None if self.flag is False else self.flag or "--" + self.key.replace("_", "-")


@dataclass(frozen=True)
class Stage:
    handler: Callable[[dict, Path], dict]
    help: str
    params: tuple[Param, ...]
    # read the parameters from the JSON file named by --config, not from flags
    config_file: bool = False


def _bool(v) -> bool:
    if v not in (True, False):
        raise ValueError(f"expected true or false, got {v!r}")
    return bool(v)


def _names(v) -> list[str]:
    return v.split(",") if isinstance(v, str) else [str(item) for item in v]


def _shift(v) -> tuple[int, int]:
    dx, dy = v.split(",") if isinstance(v, str) else v
    return integer(dx), integer(dy)


def _pairs(v) -> list[tuple[str, str]]:
    return [(str(e["input"]), str(e["target"])) for e in v]


_SCENE = synthetic.SceneConfig()
_TRAIN = training.TrainConfig()
_FOREST = forest.ForestConfig()

STAGES: dict[str, Stage] = {
    "fit-srf": Stage(run_fit_srf, "fit nonnegative band weights to a response table", (
        Param("srf"),
        Param("camera", str, "default269", help="default269, even:<K>, or a camera JSON path"),
        Param("out", flag="--out-weights"),
    )),
    "simulate": Stage(run_simulate, "apply band weights to a hyperspectral cube", (
        Param("cube"), Param("weights"), Param("out", flag="--out-raster"),
    )),
    "align": Stage(run_align, "snap a fine raster onto the coarse sensor grid", (
        Param("fine"), Param("coarse"), Param("target_pixel", finite),
        Param("apply_shift", Path, None, help="JSON report from `register`"),
        Param("out", flag="--out-raster"),
    )),
    "register": Stage(run_register, "estimate the residual translation", (
        Param("fine"), Param("coarse"), Param("out", Path, None, False),
    )),
    "train": Stage(run_train, "train a model from a JSON run-config", (
        Param("preset", srcnn.preset, None), Param("arch", srcnn.ArchConfig.from_dict, None),
        Param("pairs", _pairs, None), Param("val_pairs", _pairs, None),
        Param("manifest", Path, None), Param("variant", str, "stacked"),
        Param("train_split", str, "train"), Param("val_split", str, "val"),
        Param("out_checkpoint"), Param("out_loss_log", Path, None),
        Param("scale", integer, _TRAIN.scale),
        Param("patch_coarse", integer, _TRAIN.patch_coarse),
        Param("patch_stride_coarse", integer, None),
        Param("batch_size", integer, _TRAIN.batch_size),
        Param("learning_rate", finite, _TRAIN.learning_rate),
        Param("epochs", integer, _TRAIN.epochs),
        Param("beta1", finite, _TRAIN.beta1), Param("beta2", finite, _TRAIN.beta2),
        Param("eps", finite, _TRAIN.eps), Param("seed", integer, _TRAIN.seed),
        Param("split", str, None),
        Param("validation_fraction", finite, _TRAIN.validation_fraction),
    ), config_file=True),
    "infer": Stage(run_infer, "run a checkpoint over band-stack inputs", (
        Param("checkpoint"),
        Param("inputs", _names, REQUIRED, "--input", action="append",
              help="input raster; repeat to stack bands in order"),
        Param("band_names", _names, None, help="comma-separated output band names"),
        Param("out", flag="--out-raster"),
    )),
    "evaluate": Stage(run_evaluate, "image-fidelity metrics between two rasters", (
        Param("pred"), Param("truth"), Param("per_band", _bool, False, action="store_true"),
        Param("site", str, ""), Param("date", str, ""),
        Param("csv", Path, None, help="append a row to this CSV report"),
        Param("out", Path, None, False),
    )),
    "rf-samples": Stage(run_rf_samples, "extract quadrat band means into a samples CSV", (
        Param("raster"), Param("quadrats", help="CSV with " + ",".join(forest.QUADRAT_COLUMNS)),
        Param("out", flag="--out-samples"),
    )),
    "rf-fit": Stage(run_rf_fit, "fit a random forest from a samples CSV", (
        Param("samples"), Param("n_trees", integer, _FOREST.n_trees), Param("seed", integer, 0),
        Param("out", flag="--out-model"),
        Param("min_samples_leaf", integer, _FOREST.min_samples_leaf, False),
        Param("bootstrap", _bool, _FOREST.bootstrap, False),
    )),
    "rf-cv": Stage(run_rf_cv, "k-fold cross-validation of the forest", (
        Param("samples"), Param("k", integer, 5), Param("n_trees", integer, _FOREST.n_trees),
        Param("seed", integer, 0), Param("out", Path, None, False),
    )),
    "gen-synthetic": Stage(run_gen_synthetic, "generate a synthetic fusion dataset", (
        Param("seed", integer, _SCENE.seed), Param("scenes", integer, 8),
        Param("width", integer, _SCENE.width), Param("height", integer, _SCENE.height),
        Param("scale", integer, _SCENE.scale), Param("n_bands", integer, _SCENE.n_bands, "--bands"),
        Param("n_endmembers", integer, _SCENE.n_endmembers, "--endmembers"),
        Param("smoothness", finite, _SCENE.smoothness),
        Param("noise_sigma", finite, _SCENE.noise_sigma, "--noise"),
        Param("shift", _shift, _SCENE.shift, help="injected shift as 'dx,dy' fine pixels"),
        Param("out", flag="--out-dir"),
        Param("gain", finite, _SCENE.gain, False), Param("offset", finite, _SCENE.offset, False),
        Param("pixel_m", finite, _SCENE.pixel_m, False), Param("fwhm", finite, None, False),
        Param("endmember_seed", integer, None, False),
    )),
    "pipeline": Stage(run_pipeline, "run an ordered stage list from one config", (
        Param("stages", list),
    ), config_file=True),
}


def _run_stage(name: str, args: dict, base: Path) -> dict:
    """Run one stage's handler on checked arguments and log its wall time."""
    t0 = time.perf_counter()
    result = STAGES[name].handler(args, base)
    log.info("stage=%s wall=%.2fs", name, time.perf_counter() - t0)
    return result


def _stage_args(stage: Stage, given: dict, where: str, base: Path) -> dict:
    """Check `given` against the stage's parameters; return all of them, converted."""
    unknown = set(given) - {p.key for p in stage.params}
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [p.key for p in stage.params if p.default is REQUIRED and p.key not in given]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    args = {p.key: p.default for p in stage.params}
    for p in stage.params:
        # a None value where None is the default means "not given"
        if p.key not in given or (given[p.key] is None and p.default is None):
            continue
        try:
            args[p.key] = p.type(given[p.key])
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: bad value for {p.key!r}: {exc}") from exc
        if p.type is Path:
            args[p.key] = _resolve(base, args[p.key])
    return args


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="satfuse", description=__doc__)
    parser.add_argument("--out", dest="result_out", metavar="OUT", default=None,
                        help="write the JSON result here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help, description=stage.help)
        if stage.config_file:
            keys = ", ".join(prm.key for prm in stage.params)
            p.add_argument("--config", required=True, help=f"JSON config with the keys {keys}")
            continue
        for prm in stage.params:
            if prm.option:
                # absent flags stay absent, so _stage_args fills in every default
                p.add_argument(prm.option, dest=prm.key, action=prm.action, help=prm.help,
                               required=prm.default is REQUIRED, default=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s %(message)s")
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        stage = STAGES[ns.command]
        if stage.config_file:
            path = _resolve(Path.cwd(), ns.config)
            given, where, base = _load_config(path), ns.config, path.parent
        else:
            given = {p.key: getattr(ns, p.key) for p in stage.params if hasattr(ns, p.key)}
            where, base = ns.command, Path.cwd()
        result = _run_stage(ns.command, _stage_args(stage, given, where, base), base)
        _emit(result, Path(ns.result_out) if ns.result_out else None)
        return 0
    except SatfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
