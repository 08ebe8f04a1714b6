"""Seeded fuzz test of every file reader, driven through ``cli.main``.

Each reader has a small valid input, fed to the command that reads it.  A
seeded generator mutates that input in one of six ways: drop a required key
(or CSV column), swap a value's type, change a list's (or CSV row's) length,
put NaN or infinity into a number, truncate the file, or prefix it with bytes
that are not UTF-8.  Every mutated input must end in exit 1 or 2 with an
``error:`` or ``I/O error:`` line, never in a traceback.

Mutation sites are paths into the parsed input (``"arch/layers/0/1"``).  A
type swap lists the replacement types it draws from (s = a non-numeric
string, n = null, l = a list, f = a float, b = true).  The seeded swap sets
leave some of these out; ``EXTRA_CASES`` lists those swaps one by one, so that
every site sees ``b`` (but ``nodata_mask``, where true is valid) and every
integer site sees ``f``, without redrawing the seeded cases.  A length change
lists ``+`` (repeat the last item) and/or ``-`` (drop it).
"""

import csv
import io
import json
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from satfuse.bsf import write_bsf
from satfuse.cli import main
from satfuse.forest import Quadrat, save_samples_csv
from satfuse.spectral import evenly_spaced_camera, fit_band_weights, synthetic_vnir_srf
from satfuse.srcnn import ArchConfig, build_model, save_checkpoint
from satfuse.synthetic import SceneConfig, make_fusion_dataset

from conftest import random_raster

SWAPS = {"s": "abc", "n": None, "l": ["abc"], "f": 1.5, "b": True}
NON_UTF8 = (b"\xff\xfe", b"\x80", b"\xc3\x28")
CASES_PER_KIND = 8
SEED = 2024


@dataclass(frozen=True)
class Reader:
    file: str          # the input under test, read from the fixture directory
    argv: tuple        # "{D}" is the fixture directory; outputs go to the working directory
    drop: tuple = ()       # required keys or CSV columns
    swap: tuple = ()       # (path, swap letters)
    length: tuple = ()     # (path, "+-"); for CSV files the path is a row index
    nonfinite: tuple = ()  # paths to numbers, or CSV columns
    extra: tuple = ()      # (name, text) written next to the mutated input


_TRAIN_ARGS = {"version": 1, "preset": "spectral", "out_checkpoint": "x.ckpt", "epochs": 1,
               "batch_size": 4, "learning_rate": 1e-3, "validation_fraction": 0.5,
               "beta1": 0.9, "eps": 1e-8}

READERS = {
    "bsf": Reader(
        "g.bsf", ("evaluate", "--pred", "g.bsf", "--truth", "{D}/r.bsf"),
        drop=("width", "height", "bands", "dtype", "geotransform", "nodata_mask", "bands/0/name"),
        swap=(("width", "snlfb"), ("height", "snlfb"), ("bands", "snlfb"), ("dtype", "snlfb"),
              ("geotransform", "snlfb"), ("geotransform/0", "snl"), ("geotransform/1", "snlfb"),
              ("nodata_mask", "snlf"), ("bands/1/wavelength_nm", "snl")),
        length=(("geotransform", "+-"), ("bands", "+-")),
        nonfinite=("geotransform/0", "geotransform/1", "geotransform/3", "geotransform/5",
                   "width", "height")),
    "checkpoint": Reader(
        "m.ckpt", ("infer", "--checkpoint", "m.ckpt", "--input", "{D}/r.bsf",
                   "--out-raster", "o.bsf"),
        drop=("arch", "arch/in_channels", "arch/out_channels", "arch/layers", "payload_bytes"),
        swap=(("arch", "snlfb"), ("arch/in_channels", "snlfb"), ("arch/layers", "snlfb"),
              ("arch/layers/0/0", "snlfb"), ("arch/slope", "snl"), ("payload_bytes", "snlfb")),
        length=(("arch/layers", "+-"), ("arch/layers/0", "+-")),
        nonfinite=("arch/in_channels", "arch/layers/0/1", "arch/slope", "payload_bytes")),
    "weights": Reader(
        "w.json", ("simulate", "--cube", "{D}/cube.bsf", "--weights", "w.json",
                   "--out-raster", "o.bsf"),
        drop=("camera", "bands", "camera/centers", "camera/fwhm_nm", "bands/0/name",
              "bands/0/weights", "bands/0/residual", "bands/0/normalization"),
        swap=(("camera", "snlfb"), ("camera/centers", "snlfb"), ("camera/fwhm_nm", "snl"),
              ("bands", "snlfb"), ("bands/0/weights", "snlfb"), ("bands/0/residual", "snl"),
              ("bands/0/normalization", "snl")),
        length=(("camera/centers", "+-"), ("bands/0/weights", "+-")),
        nonfinite=("camera/centers/3", "camera/fwhm_nm", "bands/0/weights/0",
                   "bands/1/weights/5", "bands/0/residual", "bands/1/normalization")),
    "camera": Reader(
        "cam.json", ("fit-srf", "--srf", "{D}/srf.csv", "--camera", "cam.json",
                     "--out-weights", "w.json"),
        drop=("centers", "fwhm_nm"),
        swap=(("centers", "snlfb"), ("fwhm_nm", "snl"), ("centers/2", "snl")),
        length=(("centers", "+"),),
        nonfinite=("centers/0", "centers/11", "fwhm_nm")),
    "srf": Reader(
        "srf.csv", ("fit-srf", "--srf", "srf.csv", "--camera", "even:24",
                    "--out-weights", "w.json"),
        drop=("band", "wavelength_nm", "response"),
        swap=(("wavelength_nm", "sn"), ("response", "sn")),
        length=((1, "-"), (40, "-")),
        nonfinite=("wavelength_nm", "response")),
    "samples": Reader(
        "s.csv", ("rf-cv", "--samples", "s.csv", "--k", "3", "--n-trees", "4"),
        drop=("id", "x_m", "y_m", "side_m", "target"),
        swap=(("x_m", "sn"), ("side_m", "sn"), ("target", "sn"), ("B2", "sn")),
        length=((1, "+-"), (7, "+-")),
        nonfinite=("x_m", "y_m", "side_m", "target", "B2")),
    "quadrats": Reader(
        "q.csv", ("rf-samples", "--raster", "{D}/r.bsf", "--quadrats", "q.csv",
                  "--out-samples", "s.csv"),
        drop=("id", "x_m", "y_m", "side_m", "target"),
        swap=(("x_m", "sn"), ("y_m", "sn"), ("side_m", "sn"), ("target", "sn")),
        length=((1, "-"), (2, "-")),
        nonfinite=("x_m", "y_m", "side_m", "target")),
    "manifest": Reader(
        "m.json", ("train", "--config", "t.json"),
        drop=("scenes", "scenes/0/split", "scenes/0/files", "scenes/0/files/truth8",
              "scenes/1/files/rgb", "scenes/0/files/coarse_upsampled"),
        swap=(("scenes", "snlfb"), ("scenes/0/split", "nlfb"), ("scenes/0/files", "snlfb"),
              ("scenes/0/files/truth8", "snlfb"), ("scenes/1/files/rgb", "snlfb")),
        extra=(("t.json", json.dumps(dict(_TRAIN_ARGS, manifest="m.json"))),)),
    "train-config": Reader(
        "t.json", ("train", "--config", "t.json"),
        drop=("version", "preset", "manifest", "out_checkpoint"),
        swap=(("version", "snlf"), ("preset", "snlfb"), ("manifest", "snlfb"),
              ("out_checkpoint", "nlfb"), ("epochs", "snl"), ("learning_rate", "snl"),
              ("batch_size", "snl"), ("validation_fraction", "snl")),
        nonfinite=("epochs", "learning_rate", "batch_size", "validation_fraction", "beta1",
                   "eps")),
    "pipeline-config": Reader(
        "p.json", ("pipeline", "--config", "p.json"),
        drop=("version", "stages", "stages/0/stage", "stages/0/pred", "stages/1/samples"),
        swap=(("stages", "snlfb"), ("stages/0/stage", "snlfb"), ("stages/0/pred", "nlfb"),
              ("stages/1/k", "snl"), ("stages/2/shift", "snfb"), ("stages/2/width", "snl")),
        length=(("stages/2/shift", "+-"),),
        nonfinite=("stages/1/k", "stages/1/n_trees", "stages/2/width", "stages/2/shift/0")),
    "shift-report": Reader(
        "reg.json", ("align", "--fine", "{D}/r.bsf", "--coarse", "{D}/r.bsf",
                     "--target-pixel", "0.125", "--apply-shift", "reg.json",
                     "--out-raster", "o.bsf"),
        drop=("shift_px",),
        swap=(("shift_px", "snlfb"), ("shift_px/0", "snl"), ("shift_px/1", "snl")),
        length=(("shift_px", "+-"),),
        nonfinite=("shift_px/0", "shift_px/1")),
}


def _draw_cases():
    """(reader, kind, site, choice, u) for every case, drawn from SEED.  `u` in
    [0, 1) picks the cut of a truncation, the bytes of a prefix and the row of
    a CSV cell; it is None where nothing needs it."""
    rng = np.random.default_rng(SEED)
    cases = []
    for name, reader in READERS.items():
        for kind in ("drop", "swap", "length", "nonfinite", "truncate", "prefix"):
            sites = getattr(reader, kind, None)
            if sites == ():
                continue
            for _ in range(CASES_PER_KIND):
                site = choice = u = None
                if kind in ("drop", "nonfinite"):
                    site = sites[rng.integers(len(sites))]
                elif kind in ("swap", "length"):
                    site, options = sites[rng.integers(len(sites))]
                    choice = options[rng.integers(len(options))]
                if kind == "nonfinite":
                    choice = ("nan", "inf", "-inf")[rng.integers(3)]
                if kind in ("truncate", "prefix") or (
                        reader.file.endswith(".csv") and kind in ("swap", "nonfinite")):
                    u = round(float(rng.uniform()), 3)
                cases.append((name, kind, site, choice, u))
    return list(dict.fromkeys(cases))


CASES = _draw_cases()

# (site, swap letters) the seeded swap sets above leave out
EXTRA_SWAPS = {
    "bsf": (("geotransform/0", "b"), ("bands/1/wavelength_nm", "b")),
    "checkpoint": (("arch/slope", "b"),),
    "weights": (("camera/fwhm_nm", "b"), ("bands/0/residual", "b"),
                ("bands/0/normalization", "b")),
    "camera": (("fwhm_nm", "b"), ("centers/2", "b")),
    "srf": (("wavelength_nm", "b"), ("response", "b")),
    "samples": (("x_m", "b"), ("side_m", "b"), ("target", "b"), ("B2", "b")),
    "quadrats": (("x_m", "b"), ("y_m", "b"), ("side_m", "b"), ("target", "b")),
    "train-config": (("version", "b"), ("epochs", "fb"), ("learning_rate", "b"),
                     ("batch_size", "fb"), ("validation_fraction", "b")),
    "pipeline-config": (("stages/1/k", "fb"), ("stages/2/width", "fb")),
    "shift-report": (("shift_px/0", "fb"), ("shift_px/1", "fb")),
}
# a CSV swap lands in the middle row
EXTRA_CASES = [(name, "swap", site, choice, 0.5 if READERS[name].file.endswith(".csv") else None)
               for name, swaps in EXTRA_SWAPS.items() for site, choices in swaps
               for choice in choices]


def _case_id(case):
    return "-".join(str(part) for part in case if part is not None)


def _split(path: str):
    return [int(k) if k.isdigit() else k for k in str(path).split("/")]


def _mutate_tree(doc, kind, site, choice):
    *parents, last = _split(site)
    node = doc
    for key in parents:
        node = node[key]
    if kind == "drop":
        del node[last]
    elif kind == "swap":
        node[last] = SWAPS[choice]
    elif kind == "nonfinite":
        node[last] = float(choice)
    elif choice == "+":
        node[last].append(node[last][-1])
    else:
        node[last].pop()
    return doc


def _mutate_csv(text, kind, site, choice, u):
    rows = list(csv.reader(io.StringIO(text)))
    if kind == "length":
        row = rows[site]
        row.append(row[-1]) if choice == "+" else row.pop()
    else:
        col = rows[0].index(site)
        if kind == "drop":
            for row in rows:
                del row[col]
        else:
            value = SWAPS[choice] if kind == "swap" else choice
            rows[1 + int(u * (len(rows) - 1))][col] = "" if value is None else value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def _mutate(name, data: bytes, kind, site, choice, u) -> bytes:
    if kind == "prefix":
        return NON_UTF8[int(u * len(NON_UTF8))] + data
    if name.endswith(".csv"):
        if kind == "truncate":  # cut inside the header line, so a column goes
            return data[: int(u * data.index(b"\n"))]
        return _mutate_csv(data.decode(), kind, site, choice, u)
    if kind == "truncate":
        return data[: int(u * len(data))]
    if name.endswith(".json"):
        return json.dumps(_mutate_tree(json.loads(data), kind, site, choice)).encode()
    # framed binary: optional 4-byte magic, u32le header length, JSON header, data
    start = 8 if data[:4] == b"BSF1" else 4
    hlen = struct.unpack("<I", data[start - 4 : start])[0]
    header = _mutate_tree(json.loads(data[start : start + hlen]), kind, site, choice)
    blob = json.dumps(header).encode()
    return data[: start - 4] + struct.pack("<I", len(blob)) + blob + data[start + hlen :]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_bsf(random_raster(0, 16, 16, 2), d / "r.bsf")
    write_bsf(random_raster(1, 16, 16, 2, mask_fraction=0.2,
                            wavelengths=np.array([500.0, 600.0])), d / "g.bsf")
    save_checkpoint(build_model(ArchConfig(2, 2, ((3, 4), (3, 2))), seed=0), d / "m.ckpt")
    camera = evenly_spaced_camera(12)
    srf = synthetic_vnir_srf()
    srf.to_csv(d / "srf.csv")
    (d / "cam.json").write_text(json.dumps(camera.to_dict()))
    fit_band_weights(srf, camera).save_json(d / "w.json")
    write_bsf(random_raster(2, 16, 16, 12, wavelengths=camera.centers), d / "cube.bsf")
    rng = np.random.default_rng(0)
    quadrats = [Quadrat(f"q{i}", 0.25 + 0.125 * i, 1.0, 0.25) for i in range(12)]
    save_samples_csv(d / "s.csv", quadrats, rng.uniform(size=12), rng.uniform(size=(12, 1)),
                     ["B2"])
    (d / "q.csv").write_text("id,x_m,y_m,side_m,target\n" + "".join(
        f"{q.id},{q.x},{q.y},{q.side},{t}\n" for q, t in zip(quadrats, rng.uniform(size=12))))
    manifest = make_fusion_dataset(SceneConfig(seed=3, width=16, height=16, n_bands=8), 3,
                                   d / "ds")
    for scene in manifest["scenes"]:
        scene["files"] = {k: str(d / "ds" / v) for k, v in scene["files"].items()}
    del manifest["_dir"]
    (d / "m.json").write_text(json.dumps(manifest))
    (d / "t.json").write_text(json.dumps(dict(_TRAIN_ARGS, manifest=str(d / "m.json"))))
    (d / "p.json").write_text(json.dumps({"version": 1, "stages": [
        {"stage": "evaluate", "pred": str(d / "r.bsf"), "truth": str(d / "r.bsf")},
        {"stage": "rf-cv", "samples": str(d / "s.csv"), "k": 3, "n_trees": 4},
        {"stage": "gen-synthetic", "width": 16, "height": 16, "scenes": 3, "n_bands": 8,
         "shift": [0, 0], "out": "gen"},
    ]}))
    (d / "reg.json").write_text(json.dumps({"shift_px": [1, 0], "shift_m": [0.125, 0.0]}))
    return d


def _run_case(reader, data, fixture_dir, tmp_path, monkeypatch) -> int:
    """Write `data` as the reader's input in `tmp_path` and run its command there."""
    (tmp_path / reader.file).write_bytes(data)
    for extra, text in reader.extra:
        (tmp_path / extra).write_text(text)
    monkeypatch.chdir(tmp_path)
    return main([a.replace("{D}", str(fixture_dir)) for a in reader.argv])


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_input_exits_zero(name, fixture_dir, tmp_path, monkeypatch, capsys):
    """The unmutated inputs are valid, so every failure below is the mutation's."""
    reader = READERS[name]
    data = (fixture_dir / reader.file).read_bytes()
    assert _run_case(reader, data, fixture_dir, tmp_path, monkeypatch) == 0, \
        capsys.readouterr().err


@pytest.mark.parametrize("case", CASES + EXTRA_CASES,
                         ids=[_case_id(c) for c in CASES + EXTRA_CASES])
def test_mutated_input_exits_with_error(case, fixture_dir, tmp_path, monkeypatch, capsys):
    name, *mutation = case
    reader = READERS[name]
    data = _mutate(reader.file, (fixture_dir / reader.file).read_bytes(), *mutation)
    code = _run_case(reader, data, fixture_dir, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code in (1, 2), err
    assert any(line.startswith(("error: ", "I/O error: ")) for line in err.splitlines()), err
    assert "Traceback" not in err
