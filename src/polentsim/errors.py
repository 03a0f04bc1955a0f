"""Exception hierarchy shared by all simulation modules, with each error's
category and exit code; the one path that makes an error raised on a data
file's contents that file's fault; and the one reader of those files."""

from contextlib import contextmanager
from math import isfinite


class SimulationError(Exception):
    """Base class for all errors raised by this package; the command line
    prints ``error[category]`` for it and exits with ``exit_code``."""

    category, exit_code = "numeric", 3


class ConfigError(SimulationError):
    """Bad or missing configuration input."""

    category, exit_code = "config", 2


class DomainError(SimulationError):
    """Physically invalid argument (non-positive frequency, bad weight, ...)."""

    category, exit_code = "config", 2


class ResolutionError(SimulationError):
    """Frequency grid too coarse to resolve the pump envelope."""

    category, exit_code = "config", 2


class EmptySupportError(SimulationError):
    """A filter window has no overlap with the amplitude support."""


class DegeneratePostSelectionError(SimulationError):
    """The splitter routes no amplitude into cross-path coincidences."""


class NonphysicalCoherenceError(SimulationError):
    """Off-diagonal magnitude exceeds the Cauchy-Schwarz bound."""


class UnidentifiableFitError(SimulationError):
    """Fit observations carry no information about the model parameters."""


class ConvergenceError(SimulationError):
    """Iterative fit hit its iteration cap; carries the last iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class FormatError(SimulationError):
    """Malformed data file."""

    category, exit_code = "format", 4


class UndefinedVisibilityError(SimulationError):
    """Visibility requested for an all-zero projection family."""


class InvalidStateError(SimulationError):
    """Matrix fails the density-matrix invariants."""


@contextmanager
def fault_of(path, lineno=None):
    """An invalid value or state, a visibility with no counts or a fit with
    nothing to fit, raised inside, is a fault of the data file at ``path``:
    it ends as a ``FormatError`` that starts ``path:lineno:``, or ``path:``."""
    try:
        yield
    except (DomainError, InvalidStateError, UndefinedVisibilityError,
            UnidentifiableFitError) as exc:
        where = path if lineno is None else f"{path}:{lineno}"
        raise FormatError(f"{where}: {exc}") from exc


@contextmanager
def text_file(path, error=FormatError):
    """The file at ``path`` open as UTF-8 text; a byte that is not UTF-8
    raises ``error`` naming the file, not a ``UnicodeDecodeError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def numbered_lines(path, error=FormatError):
    """``(lineno, line)``, stripped, for each line of the text file at
    ``path`` that is not blank."""
    with text_file(path, error) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line := line.strip():
                yield lineno, line


def parse_fields(kind, fields):
    """``fields`` as values of ``kind``, or a ValueError naming the first bad
    field: ``str`` keeps them; ``int`` and ``float`` read ASCII numbers
    without ``_``, as ``np.loadtxt`` reads them, and floats are finite.  The
    one number grammar of the data files, the configuration and the flags."""
    if kind is str:
        return fields
    text = "".join(fields)
    if not text.isascii() or "_" in text:
        bad = next(f for f in fields if not f.isascii() or "_" in f)
        raise ValueError(f"not a number: {bad!r}")
    values = list(map(kind, fields))
    if kind is float and not all(map(isfinite, values)):
        raise ValueError("values must be finite")
    return values


def _parse_row(path, lineno, fields, form, kinds):
    """The values of one row's ``fields`` (see :func:`read_rows`)."""
    if len(fields) != len(kinds):
        raise FormatError(f"{path}:{lineno}: expected '{form}'")
    try:
        return tuple(parse_fields(kind, (field,))[0] for kind, field in zip(kinds, fields))
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from exc


def parse_header(path, lineno, line, form, kinds):
    """The values of a header ``line``, ``#`` and the fields of ``form``."""
    if not line.startswith("#"):
        raise FormatError(f"{path}: missing header line '{form}'")
    return _parse_row(path, lineno, line[1:].split(), form, kinds)


def read_rows(path, form, kinds, header=None):
    """``(lineno, values)`` for each row of the text data file at ``path``.

    A row is a line of ``len(kinds)`` fields, read as ``kinds`` (``str``,
    ``int`` or ``float``; ``form`` names them); blank lines and lines that
    start with ``#`` are skipped.  Numbers are read by :func:`parse_fields`.
    With a ``header`` ``(form, kinds)``, the first line that is not blank is
    such a ``#`` line, and its row comes first.  A fault is a
    ``FormatError`` that starts ``path:lineno:``, or ``path:`` for the file
    as a whole.
    """
    lines = numbered_lines(path)
    rows = []
    if header is not None:
        lineno, line = next(lines, (0, ""))
        rows.append((lineno, parse_header(path, lineno, line, *header)))
    numbered = [(lineno, line.split()) for lineno, line in lines if line[0] != "#"]
    table = [fields for _, fields in numbered]
    try:  # a column at a time is fast; a fault is then found row by row
        if any(len(fields) != len(kinds) for fields in table):
            raise ValueError
        values = list(zip(*(parse_fields(k, c) for k, c in zip(kinds, zip(*table)))))
    except ValueError:
        values = [_parse_row(path, n, fields, form, kinds) for n, fields in numbered]
    return rows + [(lineno, v) for (lineno, _), v in zip(numbered, values)]
