"""Exception hierarchy shared by all satfuse modules, and the rules for arguments.

A file reader parses a field with `integer` or `finite`, which also take a digit
string, inside `parse_errors`.  `read_json` and `read_csv` read the JSON and CSV
files: each checks its path with `PATH` and reports a document that does not
parse, or does not have the format's shape, as a FormatError naming the file.
A library argument is checked once, where the public call receives it, and
raises the caller's SatfuseError subclass naming it: a number or a path
through `parameter` with one of the named rules `INTEGER`, `COUNT` (>= 1),
`INDEX` (>= 0), `FINITE`, `POSITIVE` (> 0), `NONNEGATIVE` (>= 0), `PAIR` (two
integers) or `PATH` (a str, bytes or os.PathLike, returned as a str; a number
rule takes a real number only, never a bool, a string or None, and a path is
never a number, which `open` would take for a file descriptor), the fields of
a config dataclass through `check_fields` with the same rules (None only
where the field's default is None), an array through `array` (an
`np.asarray` conversion with an optional rank and finiteness, whose message
never prints the values), an object through `instance` and a list of objects
or names through `instances`.  `raster._require_raster` adds the raster
rule: a Raster with at least one band.  `allocating` turns NumPy's refusal to
allocate a size (a MemoryError, or a ValueError past its limits) into a
ValidationError."""

import csv
import dataclasses
import json
import math
import numbers
import os
import reprlib
from contextlib import contextmanager

import numpy as np


class SatfuseError(Exception):
    """Base class for all library errors."""


class FormatError(SatfuseError):
    """Malformed file magic or header; carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CorruptionError(SatfuseError):
    """Structurally valid header but inconsistent payload (lengths, counts)."""


class ValidationError(SatfuseError):
    """Input object violates a documented invariant."""


class DimensionError(SatfuseError):
    """Raster dimensions incompatible with the requested operation."""


class AlignmentError(SatfuseError):
    """Rasters do not share the grid/band layout the operation requires."""


class GeometryError(SatfuseError):
    """Grid geometry cannot be reconciled (non-integral ratios, bad shifts)."""


class CoverageError(SatfuseError):
    """Not enough valid data in the region the operation needs."""


class SchemaError(SatfuseError):
    """Band counts, wavelengths, or feature lengths do not match."""


class DomainError(SatfuseError):
    """Inputs lie outside the wavelength/value domain the operation supports."""


class SolverError(SatfuseError):
    """Iterative solver exceeded its budget; ``best_x`` holds the last iterate."""

    def __init__(self, message, best_x=None):
        super().__init__(message)
        self.best_x = best_x


class ConfigError(SatfuseError):
    """Inconsistent model or run configuration."""


class ShapeError(SatfuseError):
    """Tensor shape mismatch in the network stack."""


class DataError(SatfuseError):
    """Training data is empty or unusable."""


class PartitionError(SatfuseError):
    """Cross-validation partition cannot be formed."""


@contextmanager
def allocating(what: str):
    """Re-raise NumPy's refusal to allocate `what` inside the block, a
    MemoryError or a ValueError for a size past NumPy's limits, as a
    ValidationError."""
    try:
        yield
    except (MemoryError, ValueError):
        raise ValidationError(f"cannot allocate {what}: too large for memory") from None


@contextmanager
def parse_errors(source):
    """Re-raise a failure to parse `source` inside the block as a FormatError.

    A missing key is reported as a missing field; a wrong type, length or
    value keeps the parser's own message.  Both name `source`.
    """
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{source}: missing field {exc}") from exc
    except (IndexError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise FormatError(f"{source}: {type(exc).__name__}: {exc}") from exc


def finite(value) -> float:
    """`float(value)`, refusing booleans, NaN and the infinities with a ValueError."""
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def integer(value) -> int:
    """`int(value)`, refusing booleans and numbers with a fractional part with a ValueError.

    This is the rule for a field read from a file, which may hold a digit string."""
    if isinstance(value, bool) or (isinstance(value, numbers.Real)
                                   and not isinstance(value, numbers.Integral)
                                   and not float(value).is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def whole_number(value) -> int:
    """`integer(value)` of a library parameter, which must be a real number: a
    string or a NumPy boolean (not a `numbers.Real`) is a TypeError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return integer(value)


def real_number(value) -> float:
    """`finite(value)` of a library parameter, which must be a real number: a
    string or a NumPy boolean (not a `numbers.Real`) is a TypeError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return finite(value)


# The common rules of a library parameter, as `(convert, ok, rule)` for `parameter`
INTEGER = (whole_number, lambda v: True, "an integer")
COUNT = (whole_number, lambda v: v >= 1, "an integer >= 1")
INDEX = (whole_number, lambda v: v >= 0, "an integer >= 0")
FINITE = (real_number, lambda v: True, "finite")
POSITIVE = (real_number, lambda v: v > 0, "finite and > 0")
NONNEGATIVE = (real_number, lambda v: v >= 0, "finite and >= 0")
PAIR = (lambda s: tuple(map(whole_number, s)), lambda s: len(s) == 2, "a pair of integers")
PATH = (os.fsdecode, lambda p: True, "a path")


def parameter(name: str, value, convert, ok, rule: str, error):
    """`convert(value)` of the library parameter `name`; an `error` naming the
    parameter, the `rule` and `value` unless it converts and `ok` holds for
    the result."""
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if ok(number):
            return number
    raise error(f"{name} must be {rule}, got {reprlib.repr(value)}")


def check_fields(obj, error, *table):
    """Convert and store the fields of the dataclass instance `obj` that
    `table` names, as pairs of space-separated field names and a rule, in
    order; an `error` names the first bad field.  A field whose default is
    None may be None, and its rule then reads "None or ..."."""
    defaults = {f.name: f.default for f in dataclasses.fields(obj)}
    for names, (convert, ok, rule) in table:
        for name in names.split():
            value, optional = getattr(obj, name), defaults[name] is None
            if value is not None or not optional:
                value = parameter(name, value, convert, ok,
                                  f"None or {rule}" if optional else rule, error)
                object.__setattr__(obj, name, value)


def instance(name: str, value, kind, error, rule: str | None = None):
    """`value` if the library argument `name` is an instance of `kind`; an
    `error` naming the argument and `rule` (by default "a <kind>") otherwise."""
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    return parameter(name, value, lambda v: v, lambda v: isinstance(v, kind),
                     rule or f"{article} {kind.__name__}", error)


def instances(name: str, value, kind, error) -> list:
    """A fresh list of the items of the library argument `name`, which must be
    a list or a tuple of `kind` instances; an `error` naming it otherwise."""
    return parameter(name, value, list,
                     lambda items: isinstance(value, (list, tuple))
                     and all(isinstance(v, kind) for v in items),
                     f"a list or tuple of {kind.__name__}", error)


def array(name: str, value, error, ndim: int | None = None, dtype=np.float64,
          finite: bool = False) -> np.ndarray:
    """`np.asarray(value)` of the library argument `name` as `dtype`, not copied
    when it already has that dtype.  Its items must be booleans or real
    numbers, with `ndim` axes when `ndim` is given and finite when `finite`
    is set; anything else is an `error` naming the argument and the rank,
    which never prints the values.  A value past the range of a narrower
    `dtype` becomes infinite, as NumPy's cast makes it, without a warning."""
    rule = (f"{name} must be {'an array' if ndim is None else f'a {ndim}-D array'} "
            f"of {'finite ' if finite else ''}numbers")
    try:
        a = np.asarray(value)
    except (TypeError, ValueError, OverflowError):  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "biuf":
        got = (f"an array of {a.dtype}" if isinstance(value, np.ndarray)
               else "None" if value is None else type(value).__name__)
        raise error(f"{rule}, got {got}")
    if ndim is not None and a.ndim != ndim:
        raise error(f"{rule}, got a {a.ndim}-D array")
    with np.errstate(over="ignore"):
        a = a.astype(dtype, copy=False)
    if finite and not np.isfinite(a).all():
        raise error(f"{rule}, got a value that is not finite")
    return a


def read_json(path) -> dict:
    """The object that the JSON file at `path` holds.  A file that does not
    parse, or holds anything but one object, is a FormatError naming `path`."""
    path = parameter("path", path, *PATH, ValidationError)
    with open(path) as fh, parse_errors(path):
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: a JSON file must hold one object, found {type(doc).__name__}")
    return doc


def read_csv(path, columns, text):
    """The header and the rows, as dicts over the header, of a CSV file that
    holds `columns`: the `text` column stays a string and every other column
    must hold a finite number.  A missing or repeated column, a row with more
    or fewer fields than the header, or a cell that is not a finite number is
    a FormatError naming `path` and the line.  Blank lines are skipped."""
    path = parameter("path", path, *PATH, ValidationError)
    with open(path, newline="") as fh, parse_errors(path):
        reader = csv.reader(fh)
        header = next(reader, [])
        if not set(columns) <= set(header) or len(set(header)) != len(header):
            raise FormatError(f"{path}, line 1: the header must name the columns "
                              f"{', '.join(columns)} and no column twice, found {header}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise FormatError(f"{path}, line {reader.line_num}: "
                                  f"expected {len(header)} fields, found {len(row)}")
            values = {}
            for col, cell in zip(header, row):
                try:
                    values[col] = cell if col == text else finite(cell)
                except ValueError:
                    raise FormatError(f"{path}, line {reader.line_num}: "
                                      f"{col} is not a finite number: {cell!r}") from None
            rows.append(values)
    return header, rows
