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
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import CorruptionError, FormatError, ValidationError, finite, parse_errors
from .raster import GeoGrid, Raster

MAGIC = b"BSF1"

__all__ = ["read_bsf", "write_bsf", "MAGIC"]


def write_framed(path, magic: bytes, header: dict, *blocks: bytes) -> None:
    """Write `magic`, the u32le header length, the JSON `header`, then `blocks`."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        for block in blocks:
            fh.write(block)


def read_framed(path, magic: bytes) -> tuple[dict, bytes, int]:
    """Read a framed file: (header, the whole file's bytes, offset of the first
    data block).  Framing faults raise FormatError with their byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(magic) + 4
    if len(data) < start:
        raise FormatError(f"{path}: file shorter than magic + header length", offset=0)
    if data[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {data[:len(magic)]!r}, expected {magic!r}",
                          offset=0)
    body = start + int.from_bytes(data[len(magic) : start], "little")
    if body > len(data):
        raise FormatError(f"{path}: declared header length exceeds file size",
                          offset=len(magic))
    try:
        header = json.loads(data[start:body].decode("utf-8"))
    except (RecursionError, ValueError) as exc:
        raise FormatError(f"{path}: header is not valid UTF-8 JSON: {exc}", offset=start) from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object", offset=start)
    return header, data, body


def write_bsf(r: Raster, path) -> None:
    """Serialize a raster to `path` in Band-Stack Format."""
    if r.n_bands == 0:
        raise ValidationError("cannot serialize a raster with no bands")
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
    mask = [np.packbits(r.mask.ravel()).tobytes()] if write_mask else []
    write_framed(path, MAGIC, header, *mask, np.ascontiguousarray(r.values, dtype="<f4").tobytes())


def read_bsf(path) -> Raster:
    """Read a Band-Stack Format file back into a :class:`Raster`."""
    header, data, pos = read_framed(path, MAGIC)
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
        wavelengths = np.array([float(entry.get("wavelength_nm", math.nan)) for entry in bands])
        if np.isinf(wavelengths).any() or any(
                isinstance(entry.get("wavelength_nm"), bool) for entry in bands):
            raise FormatError(f"{path}: wavelength_nm must be a finite number or absent", offset=8)
        grid = GeoGrid(ox, oy, pw, -ph, width, height)

    n_px = width * height
    mask = None
    if has_mask:
        n_mask = math.ceil(n_px / 8)
        if pos + n_mask > len(data):
            raise CorruptionError(
                f"mask truncated: need {n_mask} bytes at offset {pos}, file has {len(data) - pos}"
            )
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=n_mask, offset=pos))
        mask = bits[:n_px].astype(bool).reshape(height, width)
        pos += n_mask

    nb = len(bands)
    n_payload = nb * n_px * 4
    if len(data) - pos != n_payload:
        raise CorruptionError(
            f"payload length mismatch: expected {n_payload} bytes for "
            f"{nb} band(s) of {width}x{height}, found {len(data) - pos}"
        )
    values = np.frombuffer(data, dtype="<f4", offset=pos).reshape(nb, height, width).copy()
    return Raster(grid, values, names, mask, wavelengths)
