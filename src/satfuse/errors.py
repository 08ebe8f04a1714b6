"""Exception hierarchy shared by all satfuse modules, plus the helpers file
readers use to turn a parse failure into one of these errors."""

import csv
import math
import numbers
from contextlib import contextmanager


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


def read_csv(path, columns, text):
    """The header and the rows, as dicts over the header, of a CSV file that
    holds `columns`: the `text` column stays a string and every other column
    must hold a finite number.  A missing or repeated column, a row with more
    or fewer fields than the header, or a cell that is not a finite number is
    a FormatError naming `path` and the line.  Blank lines are skipped."""
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
