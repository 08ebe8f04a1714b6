"""Seeded random round trips of every file the library writes.

Each case draws an object from a NumPy stream (as `test_api_fuzz.py` does),
writes it, reads it back and writes it again.  The second file must hold
the same bytes as the first, and what was read back must equal what was
written.  The draws mix ordinary numbers over many decades with edge values:
signed zeros, the smallest subnormals, the largest finite numbers, NaN
wavelengths and partial masks.  The files are the BSF raster, the conv-net
checkpoint, the band-weights JSON, the forest JSON, the samples CSV, the
response-table CSV and the loss-log CSV.
"""

import csv
from dataclasses import asdict

import numpy as np
import pytest

from satfuse.bsf import read_bsf, write_bsf
from satfuse.forest import (ForestConfig, ForestModel, Quadrat, _Tree, fit_forest,
                            load_samples_csv, save_samples_csv)
from satfuse.raster import GeoGrid, Raster
from satfuse.spectral import BandWeights, HyperBandSpec, SpectralResponseTable
from satfuse.srcnn import ArchConfig, build_model, load_checkpoint, save_checkpoint
from satfuse.training import loss_log_to_csv

SEED = 2027
CASES = 12

# finite float64 edge values: signed zeros, the smallest subnormal, the
# smallest normal, the largest finite and values without a short decimal
EDGES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3)
# the float32 ones, for files that store float32
EDGES32 = tuple(float(np.float32(v)) for v in (-0.0, 0.0, 1e-45, -1e-45, 1.1754944e-38,
                                               3.4028235e38, -3.4028235e38, 0.1, 1 / 3))
# name characters, with the ones CSV must quote
NAME_CHARS = list("abcXYZ019_-. ,\"'")


def draw(rng, size, edges=EDGES, decades=300) -> np.ndarray:
    """Finite float64 values: a third of them edge values, the rest normal draws
    scaled by ten to a power in [-decades, decades]."""
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-decades, decades + 1, size)
    pick = rng.uniform(size=size) < 1 / 3
    x[pick] = rng.choice(edges, size=int(pick.sum()))
    return x


def draw32(rng, size) -> np.ndarray:
    """Finite float32 values, with the float32 edge values."""
    return draw(rng, size, EDGES32, decades=37).astype(np.float32)


def name(rng) -> str:
    return "".join(rng.choice(NAME_CHARS, size=int(rng.integers(1, 9))))


def names(rng, n) -> list[str]:
    """`n` distinct names."""
    return [f"{name(rng)}{i}" for i in range(n)]


def increasing(rng, n) -> np.ndarray:
    """`n` strictly increasing finite values, edge values among them."""
    while True:
        x = np.unique(draw(rng, 2 * n))[:n]  # -0.0 and 0.0 count as one
        if x.size == n:
            return x


def bits(a) -> bytes:
    return np.asarray(a).tobytes()


def round_trip(tmp_path, obj, write, read):
    """`write(obj, path)`, read it back, write that; the two files must match."""
    first, second = tmp_path / "first", tmp_path / "second"
    write(obj, first)
    back = read(first)
    write(back, second)
    assert first.read_bytes() == second.read_bytes()
    return back


@pytest.mark.parametrize("case", range(CASES))
def test_bsf(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    nb, h, w = (int(v) for v in rng.integers(1, 8, size=3))
    values = draw32(rng, (nb, h, w))
    bad = rng.uniform(size=values.shape) < 0.05  # each pixel holding one is invalid
    values[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
    invalid = rng.uniform(size=(h, w)) < rng.choice([0.0, 0.5, 1.0])  # none, some or all
    wavelengths = np.where(rng.uniform(size=nb) < 0.5, np.nan, draw(rng, nb))
    grid = GeoGrid(*draw(rng, 2), *np.abs(draw(rng, 2)) + 5e-324, w, h)
    r = Raster(grid, values, names(rng, nb), ~invalid, wavelengths)
    back = round_trip(tmp_path, r, write_bsf, read_bsf)
    assert back.grid == r.grid and back.band_names == r.band_names
    assert bits(back.values) == bits(r.values)
    assert bits(back.mask) == bits(r.mask)
    assert bits(back.wavelengths) == bits(r.wavelengths)


def meta_value(rng, depth=0):
    kind = int(rng.integers(0, 5 if depth < 2 else 3))
    if kind == 0:
        return float(draw(rng, 1)[0])
    if kind == 1:
        return int(rng.integers(-2**62, 2**62))
    if kind == 2:
        return name(rng)
    if kind == 3:
        return [meta_value(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    return {name(rng): meta_value(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))}


@pytest.mark.parametrize("case", range(CASES))
def test_checkpoint(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    n_layers = int(rng.integers(2, 4))
    layers = tuple((int(rng.choice([1, 3, 5])), int(rng.integers(1, 6))) for _ in range(n_layers))
    arch = ArchConfig(int(rng.integers(1, 5)), layers[-1][1], layers, float(draw(rng, 1)[0]),
                      name(rng))
    model = build_model(arch, seed=int(rng.integers(0, 2**63)))
    model.weights = [draw32(rng, w.shape).astype(np.float64) for w in model.weights]
    model.train_meta = {name(rng): meta_value(rng) for _ in range(int(rng.integers(0, 5)))}
    back = round_trip(tmp_path, model, save_checkpoint, load_checkpoint)
    assert (back.arch, back.seed, back.train_meta) == (arch, model.seed, model.train_meta)
    assert [bits(w) for w in back.weights] == [bits(w) for w in model.weights]


@pytest.mark.parametrize("case", range(CASES))
def test_weights_json(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    K, n = int(rng.integers(1, 12)), int(rng.integers(1, 5))
    camera = HyperBandSpec(increasing(rng, K), float(abs(draw(rng, 1)[0])) + 5e-324)
    weights = np.abs(draw(rng, (n, K)))
    weights[np.arange(n), rng.integers(0, K, size=n)] = rng.choice([5e-324, 1.0, 1e308], size=n)
    bw = BandWeights(camera, names(rng, n), weights, draw(rng, n), draw(rng, n))
    back = round_trip(tmp_path, bw, BandWeights.save_json, BandWeights.load_json)
    assert back.band_names == bw.band_names
    assert (bits(back.camera.centers), back.camera.fwhm) == (bits(camera.centers), camera.fwhm)
    for field in ("weights", "residuals", "normalizations"):
        assert bits(getattr(back, field)) == bits(getattr(bw, field))


def random_tree(rng, n_features) -> _Tree:
    """A valid tree numbered as `fit_forest` numbers one: children after their parent."""
    feature, left, right = [-1], [-1], [-1]
    node = 0
    while node < len(feature):
        if len(feature) < 30 and rng.uniform() < 0.45:
            feature[node] = int(rng.integers(0, n_features))
            left[node], right[node] = len(feature), len(feature) + 1
            feature += [-1, -1]
            left += [-1, -1]
            right += [-1, -1]
        node += 1
    n = len(feature)
    return _Tree(np.array(feature), draw(rng, n), np.array(left), np.array(right), draw(rng, n))


def forest_fields(model):
    return ((asdict(model.config), model.seed, model.n_features, model.target_range),
            [[bits(getattr(t, f)) for f in ("feature", "threshold", "left", "right", "value")]
             for t in model.trees])


@pytest.mark.parametrize("case", range(CASES))
def test_forest_json_of_drawn_trees(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    n_features, n_trees = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    config = ForestConfig(n_trees, [None, 1, 3][rng.integers(3)], int(rng.integers(1, 4)),
                          [None, 0, 7][rng.integers(3)], bool(rng.integers(0, 2)))
    model = ForestModel([random_tree(rng, n_features) for _ in range(n_trees)], config,
                        int(rng.integers(0, 2**63)), n_features, tuple(draw(rng, 2).tolist()))
    back = round_trip(tmp_path, model, ForestModel.to_json, ForestModel.from_json)
    assert forest_fields(back) == forest_fields(model)


@pytest.mark.parametrize("case", range(CASES))
def test_forest_json_of_fitted_forests(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    # features reach 1e308 and 5e-324; targets stay below 1e150, whose
    # squares the split search sums in float64
    n, p = int(rng.integers(2, 40)), int(rng.integers(1, 5))
    X = draw(rng, (n, p))
    y = draw(rng, n, EDGES[:5] + EDGES[-2:], decades=150)
    model = fit_forest(X, y, ForestConfig(n_trees=int(rng.integers(1, 6))),
                       seed=int(rng.integers(0, 2**32)))
    back = round_trip(tmp_path, model, ForestModel.to_json, ForestModel.from_json)
    assert forest_fields(back) == forest_fields(model)


@pytest.mark.parametrize("case", range(CASES))
def test_samples_csv(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    n, nb = int(rng.integers(1, 10)), int(rng.integers(1, 5))
    xs, ys = draw(rng, n), draw(rng, n)
    sides = np.abs(draw(rng, n)) + 5e-324
    quadrats = [Quadrat(q, x, y, s) for q, x, y, s in zip(names(rng, n), xs, ys, sides)]
    targets, features, bands = draw(rng, n), draw(rng, (n, nb)), names(rng, nb)

    q2, t2, f2, b2 = round_trip(tmp_path, (quadrats, targets, features, bands),
                                lambda sample, path: save_samples_csv(path, *sample),
                                load_samples_csv)
    assert [(q.id, bits(q.x), bits(q.y), bits(q.side)) for q in q2] == [
        (q.id, bits(q.x), bits(q.y), bits(q.side)) for q in quadrats]
    assert (bits(t2), bits(f2), b2) == (bits(targets), bits(features), bands)


@pytest.mark.parametrize("case", range(CASES))
def test_response_table_csv(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    table = {}
    for band in names(rng, int(rng.integers(1, 4))):
        m = int(rng.integers(2, 9))
        resp = rng.uniform(size=m)
        pick = rng.uniform(size=m) < 0.5
        resp[pick] = rng.choice((-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1.0),
                                 size=int(pick.sum()))
        table[band] = (increasing(rng, m), resp)
    srf = SpectralResponseTable(table)
    back = round_trip(tmp_path, srf, SpectralResponseTable.to_csv, SpectralResponseTable.from_csv)
    assert sorted(back.bands) == sorted(srf.bands)
    for band, (wl, resp) in srf.bands.items():
        assert (bits(back.bands[band][0]), bits(back.bands[band][1])) == (bits(wl), bits(resp))


@pytest.mark.parametrize("case", range(CASES))
def test_loss_log_csv(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    n = int(rng.integers(0, 8))
    log = [(int(e), float(a), float(b))
           for e, a, b in zip(rng.integers(0, 10**6, size=n), draw(rng, n), draw(rng, n))]

    def read(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss"]
        return [(int(e), float(a), float(b)) for e, a, b in rows[1:]]

    back = round_trip(tmp_path, log, loss_log_to_csv, read)
    assert [(e, bits(a), bits(b)) for e, a, b in back] == [(e, bits(a), bits(b))
                                                           for e, a, b in log]
