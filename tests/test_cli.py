import hashlib
import json
import re
import struct

import numpy as np
import pytest

from satfuse import cli
from satfuse.bsf import read_bsf, write_bsf
from satfuse.cli import STAGES, main
from satfuse.errors import FormatError
from satfuse.forest import ForestModel, Quadrat, save_samples_csv
from satfuse.spectral import BandWeights, synthetic_vnir_srf
from satfuse.synthetic import SceneConfig, load_manifest, make_fusion_dataset

from conftest import random_raster


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    cfg = SceneConfig(seed=5, width=96, height=96, n_bands=12, scale=8, smoothness=4.0)
    manifest = make_fusion_dataset(cfg, 4, out)
    return out, manifest


class TestBasicCommands:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["evaluate", "--pred", "x", "--nope"]) == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["evaluate", "--pred", str(tmp_path / "a.bsf"),
                     "--truth", str(tmp_path / "b.bsf")])
        assert code == 2

    def test_evaluate_identity_reports_cap(self, tmp_path, capsys):
        r = random_raster(0, 8, 8, 2)
        p = tmp_path / "r.bsf"
        write_bsf(r, p)
        code, doc = run_cli(capsys, "evaluate", "--pred", str(p), "--truth", str(p))
        assert code == 0
        assert doc["rmse"] == 0.0
        assert doc["psnr_capped"] is True

    def test_evaluate_csv_row(self, tmp_path, capsys):
        a = random_raster(1, 8, 8, 2)
        b = random_raster(2, 8, 8, 2)
        pa, pb = tmp_path / "a.bsf", tmp_path / "b.bsf"
        write_bsf(a, pa)
        write_bsf(b, pb)
        csv_path = tmp_path / "report.csv"
        code, doc = run_cli(capsys, "evaluate", "--pred", str(pa), "--truth", str(pb),
                            "--site", "A", "--date", "3/20/19", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "site,date,rmse,mae,psnr,n_valid"
        assert lines[1].startswith("A,3/20/19,")


class TestSpectralCommands:
    def test_fit_srf_and_simulate(self, tmp_path, capsys):
        srf_path = tmp_path / "srf.csv"
        synthetic_vnir_srf().to_csv(srf_path)
        weights_path = tmp_path / "weights.json"
        code, doc = run_cli(capsys, "fit-srf", "--srf", str(srf_path),
                            "--camera", "default269", "--out-weights", str(weights_path))
        assert code == 0
        assert len(doc["bands"]) == 8
        weights_doc = json.loads(weights_path.read_text())
        assert len(weights_doc["bands"]) == 8
        assert all(len(b["weights"]) == 269 for b in weights_doc["bands"])
        # a narrow fit touches only a subset of the camera bands
        assert 0 < doc["active_weights"] < 8 * 269


class TestGenRegisterAlign:
    def test_gen_synthetic_deterministic_manifest(self, tmp_path, capsys):
        for name in ("d1", "d2"):
            code, _ = run_cli(capsys, "gen-synthetic", "--seed", "7", "--scenes", "3",
                              "--width", "64", "--height", "64", "--bands", "8",
                              "--out-dir", str(tmp_path / name))
            assert code == 0
        m1 = (tmp_path / "d1" / "manifest.json").read_text()
        m2 = (tmp_path / "d2" / "manifest.json").read_text()
        assert m1 == m2

    def test_register_reports_shift(self, tmp_path, capsys, small_dataset):
        ds, manifest = small_dataset
        scene = manifest["scenes"][0]["files"]
        code, doc = run_cli(capsys, "register", "--fine", str(ds / scene["truth8"]),
                            "--coarse", str(ds / scene["coarse"]))
        assert code == 0
        assert doc["shift_px"] == [0, 0]
        assert doc["evaluations"] > 0

    def test_align_snaps_and_applies_shift(self, tmp_path, capsys, small_dataset):
        ds, manifest = small_dataset
        scene = manifest["scenes"][0]["files"]
        report = tmp_path / "reg.json"
        code = main(["--out", str(report), "register", "--fine", str(ds / scene["truth8"]),
                     "--coarse", str(ds / scene["coarse"])])
        assert code == 0
        out_path = tmp_path / "aligned.bsf"
        code, doc = run_cli(capsys, "align", "--fine", str(ds / scene["truth8"]),
                            "--coarse", str(ds / scene["coarse"]),
                            "--target-pixel", "0.125",
                            "--apply-shift", str(report),
                            "--out-raster", str(out_path))
        assert code == 0
        aligned = read_bsf(out_path)
        assert aligned.grid.pixel_w == 0.125


class TestTrainInferPipeline:
    def test_train_config_unknown_key_rejected(self, tmp_path, capsys):
        cfg = {"version": 1, "preset": "spectral", "manifest": "m.json",
               "out_checkpoint": "m.ckpt", "bogus": 1}
        p = tmp_path / "train.json"
        p.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(p)])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_train_config_with_explicit_pairs(self, tmp_path, capsys):
        # run-config naming input/target raster paths directly, custom arch
        for name in ("in0", "tgt0", "in1", "tgt1"):
            write_bsf(random_raster(hash(name) % 100, 32, 32, 4), tmp_path / f"{name}.bsf")
        cfg = {
            "version": 1,
            "arch": {"in_channels": 4, "out_channels": 4, "layers": [[3, 8], [3, 4]]},
            "pairs": [{"input": "in0.bsf", "target": "tgt0.bsf"},
                      {"input": "in1.bsf", "target": "tgt1.bsf"}],
            "seed": 1,
            "epochs": 1,
            "batch_size": 4,
            "scale": 8,
            "patch_coarse": 2,
            "out_checkpoint": "tiny.ckpt",
        }
        p = tmp_path / "train.json"
        p.write_text(json.dumps(cfg))
        code, doc = run_cli(capsys, "train", "--config", str(p))
        assert code == 0
        assert (tmp_path / "tiny.ckpt").exists()
        assert doc["parameters"] == 3 * 3 * 4 * 8 + 3 * 3 * 8 * 4

    def test_train_and_infer_roundtrip(self, tmp_path, capsys, small_dataset):
        ds, manifest = small_dataset
        cfg = {
            "version": 1,
            "preset": "spectral",
            "manifest": str(ds / "manifest.json"),
            "variant": "stacked",
            "seed": 0,
            "epochs": 2,
            "batch_size": 8,
            "learning_rate": 1e-3,
            "scale": 8,
            "patch_coarse": 2,
            "out_checkpoint": "model.ckpt",
            "out_loss_log": "loss.csv",
        }
        p = tmp_path / "train.json"
        p.write_text(json.dumps(cfg))
        code, doc = run_cli(capsys, "train", "--config", str(p))
        assert code == 0
        assert doc["parameters"] == 114624
        assert (tmp_path / "model.ckpt").exists()
        assert (tmp_path / "loss.csv").read_text().startswith("epoch,train_loss,val_loss")

        scene = manifest["scenes"][-1]["files"]
        out_path = tmp_path / "pred.bsf"
        code, doc = run_cli(capsys, "infer",
                            "--checkpoint", str(tmp_path / "model.ckpt"),
                            "--input", str(ds / scene["coarse_upsampled"]),
                            "--input", str(ds / scene["rgb"]),
                            "--band-names", "B2,B3,B4,B5,B6,B7,B8,B8A",
                            "--out-raster", str(out_path))
        assert code == 0
        pred = read_bsf(out_path)
        assert pred.n_bands == 8
        assert pred.band_names[0] == "B2"

    def test_pipeline_runs_stage_list(self, tmp_path, capsys):
        pipeline = {
            "version": 1,
            "stages": [
                {"stage": "gen-synthetic", "seed": 3, "scenes": 3, "width": 64,
                 "height": 64, "n_bands": 8, "smoothness": 4.0, "out": "data"},
                {"stage": "evaluate", "pred": "data/scene00_coarse_up.bsf",
                 "truth": "data/scene00_truth8.bsf", "out": "eval.json"},
            ],
        }
        p = tmp_path / "pipe.json"
        p.write_text(json.dumps(pipeline))
        code, doc = run_cli(capsys, "pipeline", "--config", str(p))
        assert code == 0
        assert [s["stage"] for s in doc["stages"]] == ["gen-synthetic", "evaluate"]
        assert (tmp_path / "eval.json").exists()
        eval_doc = json.loads((tmp_path / "eval.json").read_text())
        assert eval_doc["psnr"] > 0


class TestFullChainPipeline:
    def test_whole_pipeline_without_manual_steps(self, tmp_path, capsys):
        # inputs a field campaign would supply: the sensor response table and
        # the quadrat measurements; everything else flows stage to stage
        synthetic_vnir_srf().to_csv(tmp_path / "srf.csv")
        with open(tmp_path / "quadrats.csv", "w") as fh:
            fh.write("id,x_m,y_m,side_m,target\n")
            rng = np.random.default_rng(0)
            for i in range(40):
                x = 0.5 + (i % 8) * 1.25
                y = 0.5 + (i // 8) * 1.5
                fh.write(f"q{i},{x},{y},0.5,{rng.uniform(1, 4):.3f}\n")

        pipeline = {
            "version": 1,
            "stages": [
                {"stage": "gen-synthetic", "seed": 11, "scenes": 3, "width": 80,
                 "height": 80, "n_bands": 12, "smoothness": 4.0, "out": "data"},
                {"stage": "fit-srf", "srf": "srf.csv", "camera": "even:12",
                 "out": "weights.json"},
                {"stage": "simulate", "cube": "data/scene00_hyper.bsf",
                 "weights": "weights.json", "out": "resimulated.bsf"},
                {"stage": "align", "fine": "data/scene00_truth8.bsf",
                 "coarse": "data/scene00_coarse.bsf", "target_pixel": 0.125,
                 "out": "aligned.bsf"},
                {"stage": "register", "fine": "aligned.bsf",
                 "coarse": "data/scene00_coarse.bsf", "out": "register.json"},
                {"stage": "train", "preset": "spectral", "manifest": "data/manifest.json",
                 "variant": "stacked", "seed": 0, "epochs": 1, "batch_size": 8,
                 "learning_rate": 1e-3, "scale": 8, "patch_coarse": 2,
                 "out_checkpoint": "model.ckpt", "out_loss_log": "loss.csv"},
                {"stage": "infer", "checkpoint": "model.ckpt",
                 "inputs": ["data/scene02_coarse_up.bsf", "data/scene02_rgb.bsf"],
                 "band_names": ["B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A"],
                 "out": "pred.bsf"},
                {"stage": "evaluate", "pred": "pred.bsf",
                 "truth": "data/scene02_truth8.bsf", "out": "eval.json"},
                {"stage": "rf-samples", "raster": "data/scene00_truth8.bsf",
                 "quadrats": "quadrats.csv", "out": "samples.csv"},
                {"stage": "rf-cv", "samples": "samples.csv", "k": 5,
                 "n_trees": 30, "seed": 2, "out": "cv.json"},
            ],
        }
        p = tmp_path / "pipeline.json"
        p.write_text(json.dumps(pipeline))
        code, doc = run_cli(capsys, "pipeline", "--config", str(p))
        assert code == 0
        assert [s["stage"] for s in doc["stages"]] == [
            "gen-synthetic", "fit-srf", "simulate", "align", "register",
            "train", "infer", "evaluate", "rf-samples", "rf-cv",
        ]
        for artifact in ("weights.json", "resimulated.bsf", "aligned.bsf",
                         "register.json", "model.ckpt", "loss.csv", "pred.bsf",
                         "eval.json", "samples.csv", "cv.json"):
            assert (tmp_path / artifact).exists(), artifact
        reg = json.loads((tmp_path / "register.json").read_text())
        assert reg["shift_px"] == [0, 0]
        ev = json.loads((tmp_path / "eval.json").read_text())
        assert 0 < ev["rmse"] < 1
        cv = json.loads((tmp_path / "cv.json").read_text())
        assert len(cv["folds"]) == 5


class TestRfCommands:
    def test_rf_fit_and_cv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        quadrats = [Quadrat(f"q{i}", float(i), 1.0, 0.5) for i in range(60)]
        X = rng.uniform(size=(60, 4))
        y = 2.0 * X[:, 0] + 0.05 * rng.standard_normal(60)
        samples = tmp_path / "samples.csv"
        save_samples_csv(samples, quadrats, y, X, ["B2", "B3", "B4", "B8"])

        model_path = tmp_path / "forest.json"
        code, doc = run_cli(capsys, "rf-fit", "--samples", str(samples),
                            "--n-trees", "50", "--out-model", str(model_path))
        assert code == 0
        assert model_path.exists()
        assert doc["n_samples"] == 60

        code, doc = run_cli(capsys, "rf-cv", "--samples", str(samples),
                            "--k", "5", "--n-trees", "50", "--seed", "1")
        assert code == 0
        assert len(doc["folds"]) == 5
        assert doc["pooled"]["r2"] > 0.5

        code, doc2 = run_cli(capsys, "rf-cv", "--samples", str(samples),
                             "--k", "5", "--n-trees", "50", "--seed", "1")
        assert doc == doc2


def test_pinned_csv_path_outputs(tmp_path, monkeypatch, capsys):
    """sha256 of the files written from the CSV readers' output, recorded
    before the three readers were merged into one; their bytes must not move."""
    monkeypatch.chdir(tmp_path)
    synthetic_vnir_srf().to_csv("srf.csv")
    write_bsf(random_raster(4, 32, 32, 3, band_names=["B2", "B4", "B8"]), "r.bsf")
    with open("q.csv", "w") as fh:
        fh.write("id,x_m,y_m,side_m,target\n")
        for i in range(30):
            fh.write(f"q{i},{0.375 + (i % 6) * 0.625},{0.5 + (i // 6) * 0.75},0.5,"
                     f"{1 + (i * 7 % 11) / 4}\n")
    for argv in (["fit-srf", "--srf", "srf.csv", "--camera", "even:24", "--out-weights", "w.json"],
                 ["rf-samples", "--raster", "r.bsf", "--quadrats", "q.csv",
                  "--out-samples", "s.csv"],
                 ["--out", "cv.json", "rf-cv", "--samples", "s.csv", "--k", "5",
                  "--n-trees", "10", "--seed", "3"]):
        assert main(argv) == 0, capsys.readouterr().err
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("w.json", "s.csv", "cv.json")]
    assert digests == [
        "b8368fce16a36133ac65769b4daa5b16b6a9f94242f9fb7b787eb22a55b4933a",
        "5b1b88399b31c06dcdc726be011407ede9e65b2d6f3343549f1edb3657e65bea",
        "3fe1b55a7530f484c907d557d1b43bc9ff20f683f20acdc34bd0bf6ab5525690",
    ]


PINNED_RASTER_CHAIN = {
    "aligned.bsf": "fda1447ed695b40d3b8891e6bfa7a00b062d788aaec7bb9220255fdd5669f56d",
    "manifest.json": "d9a14f3767770faa7f129ddddb7cf89c27e847202f55f4983812a42276311f3b",
    "scene00_coarse.bsf": "2cd61611a6f967f699d6e2f933c5d915b2932bb30fbf996114fadef4f00c91a5",
    "scene00_coarse_up.bsf": "4145f5a0d8cf624c66076c522e60ab33e56554dd5fb244fecb0f2a8840e146d8",
    "scene00_hyper.bsf": "ac6aa3c94c2909a44ee21899abde20e2fee8af369c804cc6c77db8d4458edf87",
    "scene00_rgb.bsf": "9dccc284cc300affccf0064730f6c1e543917b0fe84257c662d8f688d1ac56d3",
    "scene00_truth8.bsf": "31b19a8bcfce49e811eee0696485fa8d1690b38a98a8171083f2cbdc88cee51a",
    "scene01_coarse.bsf": "7c6465221c05c6a0dc101e2d14d42a8445197de4a158deaa43e04d965a3bcc79",
    "scene01_coarse_up.bsf": "40591eef57ab5e95acb72ea4792def2d31a3ff6306278bd25fb605f2c6e6f751",
    "scene01_hyper.bsf": "e8f1303002cda1356277bb034d51307534e8e54127eba4434b13ea4d3d6a1e0b",
    "scene01_rgb.bsf": "d8c62611c01a63605b2c2fd93549e1fcba426b58ee426667771f9af305a14c53",
    "scene01_truth8.bsf": "d9fce9a5bf91beee9db7e39b5f3b9c1bd66b3d74db92e2821fd4a7eef8383019",
    "scene02_coarse.bsf": "b4b4c50cd4047bd4f7f4acb183a82f20957004b00a0c096bf1aa6be4cd56c20a",
    "scene02_coarse_up.bsf": "8fca6ba39b28f8621329159f4298d54f479745523ab25e61e47576546b921919",
    "scene02_hyper.bsf": "c654faa70bb55594c3c27a0e9eb822f6402ac0a8855dcf10661c039167aceb9e",
    "scene02_rgb.bsf": "fffa847a1bf48a75b180fdbab97ef2e336731d8ff54f99585c1812a18be9a646",
    "scene02_truth8.bsf": "dfe22ce61fb9963d6990b5eb8942fe030e2cc9f7df99578efb4d546e32caf58c",
}


def test_pinned_raster_chain_outputs(tmp_path, monkeypatch, capsys):
    """sha256 of the dataset files and of an `align --apply-shift` output,
    recorded before derived rasters were built by `replace` of their source;
    their bytes, wavelength headers included, must not move."""
    make_fusion_dataset(SceneConfig(seed=7, width=64, height=64, n_bands=8), 3, tmp_path / "d")
    monkeypatch.chdir(tmp_path / "d")
    (tmp_path / "d" / "reg.json").write_text(json.dumps({"shift_px": [2, -1]}))
    assert main(["align", "--fine", "scene00_truth8.bsf", "--coarse", "scene00_coarse.bsf",
                 "--target-pixel", "0.125", "--apply-shift", "reg.json",
                 "--out-raster", "aligned.bsf"]) == 0, capsys.readouterr().err
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "d").iterdir()) if p.name != "reg.json"}
    assert digests == PINNED_RASTER_CHAIN


def _checkpoint(header) -> bytes:
    data = json.dumps(header).encode()
    return struct.pack("<I", len(data)) + data


def _pipeline(*stages) -> str:
    return json.dumps({"version": 1, "stages": list(stages)})


def _train_config(manifest) -> str:
    return json.dumps({"version": 1, "preset": "spectral", "manifest": manifest,
                       "out_checkpoint": "x.ckpt"})


def _bsf(**changes) -> bytes:
    """An 8x8 two-band BSF file whose header has `changes` applied."""
    header = {"width": 8, "height": 8, "bands": [{"name": "b0"}, {"name": "b1"}],
              "dtype": "f32", "geotransform": [0.0, 0.125, 0.0, 1.0, 0.0, -0.125],
              "nodata_mask": False, **changes}
    data = json.dumps(header).encode()
    return b"BSF1" + struct.pack("<I", len(data)) + data + bytes(2 * 8 * 8 * 4)


# ArchConfig(2, 2, ((3, 4), (3, 2))): 144 weights, 576 bytes in a checkpoint
_TINY_ARCH = {"in_channels": 2, "out_channels": 2, "layers": [[3, 4], [3, 2]], "slope": 0.1,
              "name": "custom"}


def _tiny_train(arch=None, **changes) -> str:
    """A one-epoch run-config that trains on `r.bsf` as its own target, with `changes`."""
    return json.dumps({"version": 1, "arch": {**_TINY_ARCH, **(arch or {})},
                       "pairs": [{"input": "r.bsf", "target": "r.bsf"}], "scale": 1,
                       "patch_coarse": 4, "epochs": 1, "batch_size": 4,
                       "out_checkpoint": "x.ckpt", **changes})


def _gen_stage(**changes) -> dict:
    return {"stage": "gen-synthetic", "width": 16, "height": 16, "scenes": 3, "n_bands": 8,
            "out": "gen", **changes}


def _camera(**changes) -> str:
    return json.dumps({"centers": [400.0 + 50.0 * i for i in range(13)], "fwhm_nm": 60.0,
                       **changes})


def _weights(**changes) -> str:
    """A one-band weights JSON fitted for the camera of `_CUBE`, with `changes` to the band."""
    return json.dumps({"camera": {"centers": [500.0, 600.0], "fwhm_nm": 60.0}, "bands": [
        {"name": "B2", "weights": [0.5, 0.5], "residual": 0.1, "normalization": 1.0, **changes}]})


_CUBE = _bsf(bands=[{"name": "b0", "wavelength_nm": 500.0}, {"name": "b1", "wavelength_nm": 600.0}])
_SIMULATE_W = ["simulate", "--cube", "cube.bsf", "--weights", "w.json", "--out-raster", "o.bsf"]
_FIT_SRF_CAM = ["fit-srf", "--srf", "srf.csv", "--camera", "cam.json", "--out-weights", "w.json"]
_TRAIN_T = ["train", "--config", "t.json"]
_INFER_M = ["infer", "--checkpoint", "m.ckpt", "--input", "r.bsf", "--out-raster", "o.bsf"]
_SAMPLES_HEAD = "id,x_m,y_m,side_m,target,B2\n"
_SRF_HEAD = "band,wavelength_nm,response\n"
_FIT_SRF = ["fit-srf", "--srf", "bad.csv", "--out-weights", "w.json"]
_QUADRATS_HEAD = "id,x_m,y_m,side_m,target\n"
_EVALUATE_G = ["evaluate", "--pred", "g.bsf", "--truth", "r.bsf"]
_RF_SAMPLES_Q = ["rf-samples", "--raster", "r.bsf", "--quadrats", "q.csv", "--out-samples", "s.csv"]

# (files to write, argv); every case is malformed input that must end in exit 1
# with an "error:" line, never a traceback.  `r.bsf`, `srf.csv` and
# `samples.csv` are valid inputs written for every case.
CONTRACT_CASES = {
    "checkpoint-without-arch": (
        {"m.ckpt": _checkpoint({"seed": 0})},
        ["infer", "--checkpoint", "m.ckpt", "--input", "r.bsf", "--out-raster", "o.bsf"]),
    "checkpoint-header-list": (
        {"m.ckpt": _checkpoint([1, 2])},
        ["infer", "--checkpoint", "m.ckpt", "--input", "r.bsf", "--out-raster", "o.bsf"]),
    "samples-non-numeric": (
        {"bad.csv": _SAMPLES_HEAD + "q0,abc,1,0.5,2,0.3\n"}, ["rf-cv", "--samples", "bad.csv"]),
    "samples-short-row": (
        {"bad.csv": _SAMPLES_HEAD + "q0,1,1\n"}, ["rf-cv", "--samples", "bad.csv"]),
    "weights-empty": (
        {"w.json": "{}"},
        ["simulate", "--cube", "r.bsf", "--weights", "w.json", "--out-raster", "o.bsf"]),
    "camera-json-empty": (
        {"cam.json": "{}"},
        ["fit-srf", "--srf", "srf.csv", "--camera", "cam.json", "--out-weights", "w.json"]),
    "srf-non-numeric": (
        {"bad.csv": "band,wavelength_nm,response\nB2,abc,0.5\n"},
        ["fit-srf", "--srf", "bad.csv", "--out-weights", "w.json"]),
    "quadrats-non-numeric": (
        {"q.csv": "id,x_m,y_m,side_m,target\nq0,abc,1,0.5,2\n"}, _RF_SAMPLES_Q),
    "shift-report-without-shift_px": (
        {"reg.json": "{}"},
        ["align", "--fine", "r.bsf", "--coarse", "r.bsf", "--target-pixel", "0.125",
         "--apply-shift", "reg.json", "--out-raster", "o.bsf"]),
    "camera-even-not-a-number": (
        {}, ["fit-srf", "--srf", "srf.csv", "--camera", "even:abc", "--out-weights", "w.json"]),
    "shift-one-number": (
        {}, ["gen-synthetic", "--shift", "1", "--width", "16", "--height", "16",
             "--scenes", "3", "--out-dir", "d"]),
    "gen-synthetic-width-zero": (
        {}, ["gen-synthetic", "--width", "0", "--height", "16", "--scenes", "3",
             "--out-dir", "d"]),
    "pipeline-stages-not-a-list": (
        {"p.json": json.dumps({"version": 1, "stages": 5})}, ["pipeline", "--config", "p.json"]),
    "pipeline-typo-key": (
        {"p.json": _pipeline({"stage": "evaluate", "pred": "r.bsf", "truth": "r.bsf",
                              "per_bnd": True})},
        ["pipeline", "--config", "p.json"]),
    "pipeline-missing-key": (
        {"p.json": _pipeline({"stage": "evaluate", "pred": "r.bsf"})},
        ["pipeline", "--config", "p.json"]),
    "pipeline-train-without-arch": (
        {"p.json": _pipeline({"stage": "train", "manifest": "m.json",
                              "out_checkpoint": "m.ckpt"})},
        ["pipeline", "--config", "p.json"]),
    "pipeline-k-not-a-number": (
        {"p.json": _pipeline({"stage": "rf-cv", "samples": "samples.csv", "k": "five"})},
        ["pipeline", "--config", "p.json"]),
    "manifest-without-scenes": (
        {"m.json": "{}", "t.json": _train_config("m.json")}, ["train", "--config", "t.json"]),
    "manifest-scene-without-files": (
        {"m.json": json.dumps({"scenes": [{"id": "a", "split": "train"}]}),
         "t.json": _train_config("m.json")},
        ["train", "--config", "t.json"]),
    "rf-cv-zero-trees": ({}, ["rf-cv", "--samples", "samples.csv", "--n-trees", "0", "--k", "3"]),
    # a negative seed used to escape from NumPy as a ValueError traceback
    "rf-cv-seed-negative": ({}, ["rf-cv", "--samples", "samples.csv", "--seed", "-1", "--k", "3"]),
    "rf-fit-seed-negative": (
        {}, ["rf-fit", "--samples", "samples.csv", "--seed", "-1", "--out-model", "f.json"]),
    "rf-fit-zero-trees": (
        {}, ["rf-fit", "--samples", "samples.csv", "--n-trees", "0", "--out-model", "f.json"]),
    "pipeline-rf-fit-zero-min-leaf": (
        {"p.json": _pipeline({"stage": "rf-fit", "samples": "samples.csv", "out": "f.json",
                              "min_samples_leaf": 0})},
        ["pipeline", "--config", "p.json"]),
    "manifest-not-json": (
        {"m.json": "{", "t.json": _train_config("m.json")}, ["train", "--config", "t.json"]),
    "bsf-geotransform-string": (
        {"g.bsf": _bsf(geotransform=["a", 0.125, 0.0, 1.0, 0.0, -0.125])}, _EVALUATE_G),
    "bsf-geotransform-null": (
        {"g.bsf": _bsf(geotransform=[0.0, None, 0.0, 1.0, 0.0, -0.125])}, _EVALUATE_G),
    "bsf-wavelength-not-a-number": (
        {"g.bsf": _bsf(bands=[{"name": "b0", "wavelength_nm": "abc"}, {"name": "b1"}])},
        _EVALUATE_G),
    "train-config-not-utf8": (
        {"t.json": b"\xff\xfe" + _train_config("m.json").encode()}, ["train", "--config", "t.json"]),
    "pipeline-config-not-utf8": (
        {"p.json": b"\xff\xfe" + _pipeline().encode()}, ["pipeline", "--config", "p.json"]),
    "bsf-header-nested-too-deep": (
        {"g.bsf": b"BSF1" + struct.pack("<I", 10**5) + b"[" * 10**5}, _EVALUATE_G),
    "train-config-nested-too-deep": ({"t.json": b"[" * 10**5}, ["train", "--config", "t.json"]),
    "train-config-list": ({"t.json": "[]"}, ["train", "--config", "t.json"]),
    "quadrats-nan": ({"q.csv": "id,x_m,y_m,side_m,target\nq0,nan,0.5,0.25,2\n"}, _RF_SAMPLES_Q),
    "quadrats-inf": ({"q.csv": "id,x_m,y_m,side_m,target\nq0,inf,0.5,0.25,2\n"}, _RF_SAMPLES_Q),
    # integers from outside are not truncated, and booleans are not numbers
    "train-config-epochs-float": ({"t.json": _tiny_train(epochs=1.5)}, _TRAIN_T),
    "train-config-seed-float": ({"t.json": _tiny_train(seed=2.9)}, _TRAIN_T),
    "train-config-batch-size-true": ({"t.json": _tiny_train(batch_size=True)}, _TRAIN_T),
    "train-config-learning-rate-true": ({"t.json": _tiny_train(learning_rate=True)}, _TRAIN_T),
    "train-config-arch-slope-true": ({"t.json": _tiny_train(arch={"slope": True})}, _TRAIN_T),
    "train-config-arch-in-channels-float": (
        {"t.json": _tiny_train(arch={"in_channels": 2.9})}, _TRAIN_T),
    "pipeline-width-float": ({"p.json": _pipeline(_gen_stage(width=16.5))},
                             ["pipeline", "--config", "p.json"]),
    "pipeline-shift-float-and-bool": ({"p.json": _pipeline(_gen_stage(shift=[1.7, True]))},
                                      ["pipeline", "--config", "p.json"]),
    "shift-report-float": (
        {"reg.json": json.dumps({"shift_px": [2.9, 0]})},
        ["align", "--fine", "r.bsf", "--coarse", "r.bsf", "--target-pixel", "0.125",
         "--apply-shift", "reg.json", "--out-raster", "o.bsf"]),
    "checkpoint-seed-float": (
        {"m.ckpt": _checkpoint({"arch": _TINY_ARCH, "seed": 2.9, "payload_bytes": 576})
         + bytes(576)}, _INFER_M),
    # one rule for every CSV row: as many fields as the header, numbers outside the text column
    "srf-long-row": ({"bad.csv": _SRF_HEAD + "B2,480,0.5\nB2,490,1\nB2,500,0.5,9\n"}, _FIT_SRF),
    "srf-extra-text-column": (
        {"bad.csv": "band,wavelength_nm,response,note\nB2,480,0.5,a\nB2,490,1,b\n"}, _FIT_SRF),
    "srf-empty": ({"bad.csv": ""}, _FIT_SRF),
    "quadrats-long-row": ({"q.csv": _QUADRATS_HEAD + "q0,0.5,0.5,0.5,2,99\n"}, _RF_SAMPLES_Q),
    "quadrats-empty": ({"q.csv": ""}, _RF_SAMPLES_Q),
    "samples-long-row": (
        {"bad.csv": _SAMPLES_HEAD + "q0,1,1,0.5,2,0.3,9\n"}, ["rf-cv", "--samples", "bad.csv"]),
    "samples-empty": ({"bad.csv": ""}, ["rf-cv", "--samples", "bad.csv"]),
    # booleans are not numbers in the float fields of camera, weights and BSF files
    "camera-fwhm-true": ({"cam.json": _camera(fwhm_nm=True)}, _FIT_SRF_CAM),
    "camera-center-true": (
        {"cam.json": _camera(centers=[True] + [400.0 + 50.0 * i for i in range(13)])},
        _FIT_SRF_CAM),
    "weights-residual-true": ({"cube.bsf": _CUBE, "w.json": _weights(residual=True)}, _SIMULATE_W),
    "weights-normalization-true": (
        {"cube.bsf": _CUBE, "w.json": _weights(normalization=True)}, _SIMULATE_W),
    "weights-weight-true": (
        {"cube.bsf": _CUBE, "w.json": _weights(weights=[True, 0.5])}, _SIMULATE_W),
    "bsf-geotransform-true": (
        {"g.bsf": _bsf(geotransform=[0.0, 0.125, 0.0, True, 0.0, -0.125])}, _EVALUATE_G),
    "bsf-wavelength-true": (
        {"g.bsf": _bsf(bands=[{"name": "b0", "wavelength_nm": True}, {"name": "b1"}])},
        _EVALUATE_G),
    # a wavelength is finite or absent, and a band without one matches no camera centre
    "bsf-wavelength-inf": (
        {"g.bsf": _bsf(bands=[{"name": "b0", "wavelength_nm": float("inf")}, {"name": "b1"}])},
        _EVALUATE_G),
    "simulate-cube-missing-wavelength": (
        {"cube.bsf": _bsf(bands=[{"name": "b0", "wavelength_nm": 500.0}, {"name": "b1"}]),
         "w.json": _weights()}, _SIMULATE_W),
    "align-target-pixel-zero": (
        {}, ["align", "--fine", "r.bsf", "--coarse", "r.bsf", "--target-pixel", "0",
             "--out-raster", "o.bsf"]),
    "pipeline-infer-no-inputs": (
        {"m.ckpt": _checkpoint({"arch": _TINY_ARCH, "payload_bytes": 576}) + bytes(576),
         "p.json": _pipeline({"stage": "infer", "checkpoint": "m.ckpt", "inputs": [],
                              "out": "o.bsf"})},
        ["pipeline", "--config", "p.json"]),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_malformed_input_exits_with_error(case, tmp_path, monkeypatch, capsys):
    files, argv = CONTRACT_CASES[case]
    write_bsf(random_raster(0, 8, 8, 2), tmp_path / "r.bsf")
    synthetic_vnir_srf().to_csv(tmp_path / "srf.csv")
    rng = np.random.default_rng(0)
    save_samples_csv(tmp_path / "samples.csv", [Quadrat(f"q{i}", i, 1.0, 0.5) for i in range(12)],
                     rng.uniform(size=12), rng.uniform(size=(12, 1)), ["B2"])
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err
    assert "Traceback" not in err
    assert "Warning" not in err, err


# every JSON reader, as a call on the path of the file to read; `r.bsf` is written too
JSON_READERS = {
    "run-config": cli._load_config,
    "camera": lambda path: cli._camera_from_arg(path.name, path.parent),
    "shift-report": lambda path: cli.run_align(
        {"fine": path.parent / "r.bsf", "coarse": path.parent / "r.bsf", "target_pixel": 0.125,
         "apply_shift": path, "out": path.parent / "o.bsf"}, path.parent),
    "forest": ForestModel.from_json,
    "weights": BandWeights.load_json,
    "manifest": load_manifest,
}


@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_json_file_must_hold_an_object(reader, tmp_path):
    write_bsf(random_raster(0, 8, 8, 2), tmp_path / "r.bsf")
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(FormatError, match=re.escape(f"{path}: a JSON file must hold one object")):
        JSON_READERS[reader](path)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_help_renders(name, capsys):
    params = STAGES[name].params
    options = [p.option for p in params if p.option]
    assert len(options) == len(set(options)), "two parameters share a flag"
    assert len({p.key for p in params}) == len(params), "a key is declared twice"
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert f"usage: satfuse {name}" in capsys.readouterr().out
