import hashlib

import numpy as np
import pytest

from satfuse.bsf import read_bsf, write_bsf
from satfuse.errors import CorruptionError, FormatError, SatfuseError, ValidationError
from satfuse.raster import Raster

from conftest import make_grid, random_raster


def assert_rasters_identical(a, b):
    assert a.grid == b.grid
    assert a.band_names == b.band_names
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.mask, b.mask)
    if a.wavelengths is None:
        assert b.wavelengths is None
    else:
        assert np.array_equal(np.isnan(a.wavelengths), np.isnan(b.wavelengths))
        ok = ~np.isnan(a.wavelengths)
        assert np.array_equal(a.wavelengths[ok], b.wavelengths[ok])


class TestRoundTrip:
    def test_tiny_round_trip(self, tmp_path):
        g = make_grid(2, 2)
        vals = np.array([[[0.1, 0.2], [0.3, 0.4]]], dtype=np.float32)
        r = Raster(g, vals, ["b0"])
        p = tmp_path / "tiny.bsf"
        write_bsf(r, p)
        assert_rasters_identical(read_bsf(p), r)

    def test_randomized_round_trips(self, tmp_path):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            nb = int(rng.integers(1, 6))
            w, h = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            wl = rng.uniform(400, 1000, nb) if seed % 2 else None
            r = random_raster(seed, w, h, nb, mask_fraction=0.3 if seed % 3 else 0.0,
                              wavelengths=wl)
            p = tmp_path / f"rt{seed}.bsf"
            write_bsf(r, p)
            assert_rasters_identical(read_bsf(p), r)

    def test_payload_checksum_80x80x8(self, tmp_path):
        r = random_raster(11, 80, 80, 8)
        p1, p2 = tmp_path / "a.bsf", tmp_path / "b.bsf"
        write_bsf(r, p1)
        write_bsf(read_bsf(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_value_payload_bytes(self, tmp_path):
        r = Raster(make_grid(1, 1), np.array([[[0.5]]], dtype=np.float32), ["b0"])
        p = tmp_path / "one.bsf"
        write_bsf(r, p)
        data = p.read_bytes()
        # all-valid mask is omitted, so the last 4 bytes are the single value
        assert data[-4:] == bytes([0x00, 0x00, 0x00, 0x3F])

    def test_three_band_payload_length(self, tmp_path):
        r = random_raster(3, 7, 5, 3)
        p = tmp_path / "three.bsf"
        write_bsf(r, p)
        data = p.read_bytes()
        hlen = int(np.frombuffer(data[4:8], dtype="<u4")[0])
        import json

        header = json.loads(data[8 : 8 + hlen])
        assert len(header["bands"]) == 3
        assert len(data) - 8 - hlen == 3 * 7 * 5 * 4


def test_pinned_file_bytes(tmp_path):
    """sha256 of a mask-free and a masked file, recorded before the framing
    was shared with checkpoints; the format's bytes must not move."""
    plain = random_raster(11, 7, 5, 3, wavelengths=np.array([490.0, np.nan, 842.5]))
    masked = random_raster(12, 9, 4, 2, mask_fraction=0.3, band_names=["B4", "B8"])
    digests = []
    for name, r in (("plain.bsf", plain), ("masked.bsf", masked)):
        write_bsf(r, tmp_path / name)
        digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
        assert_rasters_identical(r, read_bsf(tmp_path / name))
    assert digests == [
        "4967389324a64f97d329dd7c7aa1d69cc4ec0a84e1d0f9ae99ad42cb0aea9560",
        "24b73f7cfaa31f6fa00c07289e5ef469714565efc9205820887f535bb8fcc456",
    ]


class TestErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bsf"
        p.write_bytes(b"BSF0" + b"\x00" * 16)
        with pytest.raises(FormatError) as e:
            read_bsf(p)
        assert e.value.offset == 0

    def test_empty_band_list_write(self, tmp_path):
        empty = Raster(make_grid(2, 2), np.zeros((0, 2, 2), dtype=np.float32), [])
        with pytest.raises(ValidationError):
            write_bsf(empty, tmp_path / "e.bsf")

    def test_truncated_payload(self, tmp_path):
        r = random_raster(0, 6, 6, 2)
        p = tmp_path / "t.bsf"
        write_bsf(r, p)
        data = p.read_bytes()
        (tmp_path / "trunc.bsf").write_bytes(data[:-5])
        with pytest.raises(CorruptionError):
            read_bsf(tmp_path / "trunc.bsf")

    def test_fuzzed_truncations_never_crash(self, tmp_path):
        r = random_raster(1, 9, 4, 2, mask_fraction=0.2)
        p = tmp_path / "full.bsf"
        write_bsf(r, p)
        data = p.read_bytes()
        rng = np.random.default_rng(5)
        cuts = sorted(set(int(c) for c in rng.integers(0, len(data), 40)))
        for cut in cuts:
            q = tmp_path / "cut.bsf"
            q.write_bytes(data[:cut])
            with pytest.raises(SatfuseError):
                read_bsf(q)

    def test_fuzzed_byte_corruption_is_structured(self, tmp_path):
        r = random_raster(2, 5, 5, 1)
        p = tmp_path / "full.bsf"
        write_bsf(r, p)
        data = bytearray(p.read_bytes())
        rng = np.random.default_rng(9)
        # flip bytes inside the header region only; payload bytes are data
        for pos in rng.integers(0, 30, 25):
            mutated = bytearray(data)
            mutated[pos] = (mutated[pos] + 1 + int(rng.integers(0, 255))) % 256
            q = tmp_path / "mut.bsf"
            q.write_bytes(bytes(mutated))
            try:
                read_bsf(q)
            except SatfuseError:
                pass  # structured failure is acceptable

    def test_unwritable_path(self, tmp_path):
        r = random_raster(0, 2, 2, 1)
        with pytest.raises(OSError):
            write_bsf(r, tmp_path / "no_such_dir" / "x.bsf")
