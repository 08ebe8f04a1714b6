"""Band-Stack Format (BSF) reader/writer, and the framing it shares with
checkpoints.

A framed file is: a magic (``BSF1`` for BSF, empty for checkpoints), an
unsigned 32-bit little-endian header length N, N bytes of compact UTF-8 JSON
with sorted keys, then the data blocks.  A BSF header has the keys ``width``,
``height``, ``bands`` (array of ``{"name": ..., "wavelength_nm": ...}``,
wavelength finite or absent), ``dtype`` (must be ``"f32"``), ``geotransform``
(``[origin_x, pixel_w, 0, origin_y, 0, -pixel_h]``) and ``nodata_mask``; its
data blocks are:

* if ``nodata_mask`` is true: ceil(width*height/8) bytes of row-major bitmask,
  1 = valid, most-significant bit first within each byte
* bands*width*height little-endian IEEE-754 float32 values, band-planar,
  row-major

Serialization is deterministic, so writing the same raster twice produces
byte-identical files.

Each block crosses memory once: writers write it from the array's own memory
(a non-contiguous array, such as a cropped window, one band at a time), and
readers read it straight into the array that keeps it, after checking its
length against the file's size.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import (PATH, CorruptionError, FormatError, ValidationError, finite, parameter,
                     parse_errors)
from .raster import GeoGrid, Raster, _require_raster

MAGIC = b"BSF1"

__all__ = ["read_bsf", "write_bsf", "MAGIC"]


def write_framed(path, magic: bytes, header: dict, *blocks) -> None:
    """Write `magic`, the u32le header length, the JSON `header`, then `blocks`.

    A block is bytes or an array, written from its own memory: a C-contiguous
    array in one call, any other array one slice along its first axis at a
    time (one band of a cropped raster), so no copy of a whole block is made.
    """
    path = parameter("path", path, *PATH, ValidationError)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        for block in blocks:
            if isinstance(block, np.ndarray) and not block.flags.c_contiguous:
                for part in block:
                    fh.write(np.ascontiguousarray(part))
            else:
                fh.write(block)


@contextmanager
def read_framed(path, magic: bytes):
    """Open a framed file and check its magic, header length and header.

    Yields ``(header, fh, size)``: the parsed header, the open file positioned
    at the first data block, and the file's size from ``fstat``, so the caller
    checks each block's length before it reads the block with
    :func:`read_block`.  Framing faults raise FormatError with their byte
    offset.
    """
    path = parameter("path", path, *PATH, ValidationError)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = len(magic) + 4
        if size < start:
            raise FormatError(f"{path}: file shorter than magic + header length", offset=0)
        lead = bytes(read_block(fh, bytearray(start)))
        if lead[: len(magic)] != magic:
            raise FormatError(f"{path}: bad magic {lead[:len(magic)]!r}, expected {magic!r}",
                              offset=0)
        body = start + int.from_bytes(lead[len(magic) :], "little")
        if body > size:
            raise FormatError(f"{path}: declared header length exceeds file size",
                              offset=len(magic))
        try:
            header = json.loads(read_block(fh, bytearray(body - start)).decode("utf-8"))
        except (RecursionError, ValueError) as exc:
            raise FormatError(f"{path}: header is not valid UTF-8 JSON: {exc}",
                              offset=start) from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header is not a JSON object", offset=start)
        yield header, fh, size


def read_block(fh, out):
    """Fill the writable buffer `out` (an array or bytearray) from `fh` and
    return it.  A file that ends first is a CorruptionError."""
    view = memoryview(out).cast("B")
    n = fh.readinto(view)
    if n != len(view):
        raise CorruptionError(f"{fh.name}: file ends at byte {fh.tell()}, "
                              f"{len(view) - n} bytes short of a {len(view)}-byte block")
    return out


def write_bsf(r: Raster, path) -> None:
    """Serialize a raster to `path` in Band-Stack Format."""
    _require_raster("r", r)
    bands = []
    for i, name in enumerate(r.band_names):
        entry = {"name": name}
        if np.isfinite(r.wavelengths[i]):
            entry["wavelength_nm"] = float(r.wavelengths[i])
        bands.append(entry)
    write_mask = not bool(r.mask.all())
    g = r.grid
    header = {
        "width": g.width,
        "height": g.height,
        "bands": bands,
        "dtype": "f32",
        "geotransform": [g.origin_x, g.pixel_w, 0.0, g.origin_y, 0.0, -g.pixel_h],
        "nodata_mask": write_mask,
    }
    mask = [np.packbits(r.mask.ravel())] if write_mask else []
    write_framed(path, MAGIC, header, *mask, np.asarray(r.values, dtype="<f4"))


def read_bsf(path) -> Raster:
    """Read a Band-Stack Format file back into a :class:`Raster`."""
    with read_framed(path, MAGIC) as (header, fh, size):
        with parse_errors(path):
            width, height, bands = header["width"], header["height"], header["bands"]
            has_mask = header["nodata_mask"]
            if not isinstance(has_mask, bool):
                raise FormatError(f"{path}: nodata_mask must be true or false", offset=8)
            if header["dtype"] != "f32":
                raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}", offset=8)
            if not isinstance(bands, list) or not bands:
                raise FormatError(f"{path}: bands must be a non-empty array", offset=8)
            if not all(type(n) is int and n > 0 for n in (width, height)):
                raise FormatError(f"{path}: width/height must be positive integers", offset=8)
            ox, pw, rot_x, oy, rot_y, ph = (finite(v) for v in header["geotransform"])
            if rot_x != 0 or rot_y != 0:
                raise FormatError(f"{path}: rotated geotransforms are not supported", offset=8)
            names = [str(entry["name"]) for entry in bands]
            # NaN (JSON NaN or an absent key) is a band without a wavelength
            wavelengths = np.array([float(entry.get("wavelength_nm", math.nan))
                                    for entry in bands])
            if np.isinf(wavelengths).any() or any(
                    isinstance(entry.get("wavelength_nm"), bool) for entry in bands):
                raise FormatError(f"{path}: wavelength_nm must be a finite number or absent",
                                  offset=8)
            grid = GeoGrid(ox, oy, pw, -ph, width, height)

        pos = fh.tell()
        n_px = width * height
        mask = None
        if has_mask:
            n_mask = math.ceil(n_px / 8)
            if pos + n_mask > size:
                raise CorruptionError(
                    f"mask truncated: need {n_mask} bytes at offset {pos}, file has {size - pos}"
                )
            bits = read_block(fh, np.empty(n_mask, np.uint8))
            mask = np.unpackbits(bits, count=n_px).view(bool).reshape(height, width)
            pos += n_mask

        nb = len(bands)
        n_payload = nb * n_px * 4
        if size - pos != n_payload:
            raise CorruptionError(
                f"payload length mismatch: expected {n_payload} bytes for "
                f"{nb} band(s) of {width}x{height}, found {size - pos}"
            )
        values = read_block(fh, np.empty((nb, height, width), "<f4"))
    return Raster(grid, values, names, mask, wavelengths)
