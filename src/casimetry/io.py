"""The one CSV format of every table the package writes or reads, and
the one reader of the whitespace tables given to it as input.

CSV: ``# `` comment lines, a header naming the columns, then one row per
line (floats as ``.10e``, integers plainly), every line ending in LF.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["FLOAT_FORMAT", "format_column", "write_csv", "read_csv", "read_table"]

FLOAT_FORMAT = ".10e"
_FLOAT = "{:" + FLOAT_FORMAT + "}"
_CHUNK_ROWS = 1024  # rows formatted and written per step


def write_csv(path, columns, data, comments=()) -> None:
    """Write the comments, the header and one line per row to `path`.

    `data` holds one column per header name: integers are written plainly,
    other numbers as floats, and a list of str as given (from `format_column`,
    for a column that files share).  A comment with a line break, a float
    with no finite ``.10e`` form, or columns that do not fit the header raise
    ValueError before the file is opened; rows then go out in chunks."""
    if any("\n" in c or "\r" in c for c in comments):
        raise ValueError(f"{path}: a comment must be a single line")
    data = [c if isinstance(c, list) and c and isinstance(c[0], str)
            else _checked(path, c) for c in data]
    if len(data) != len(columns) or len(set(map(len, data))) > 1:
        raise ValueError(f"{path}: expected {len(columns)} columns of one length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n")
        for lo in range(0, len(data[0]) if data else 0, _CHUNK_ROWS):
            fh.write("\n".join(map(",".join, zip(*[
                c[lo:lo + _CHUNK_ROWS] if isinstance(c, list)
                else format_column(path, c[lo:lo + _CHUNK_ROWS]) for c in data]))) + "\n")


def format_column(path, values) -> list:
    """The text of one column as write_csv writes it; a float with no
    finite ``.10e`` form raises ValueError naming `path`."""
    values = _checked(path, values)
    return list(map(str if values.dtype.kind in "iu" else _FLOAT.format, values.tolist()))


def _checked(path, values):
    values = np.asarray(values)
    # NaN, inf, and the finite values whose text form may round up to inf
    if (values.dtype.kind not in "iu" and values.size
            and not -1e308 < values.min() <= values.max() < 1e308):
        for value in values[~(np.abs(values) < 1e308)].tolist():
            if not math.isfinite(float(_FLOAT.format(value))):
                raise ValueError(f"{path}: {value!r} has no finite {FLOAT_FORMAT} form")
    return values


def read_csv(path, columns, integer_columns=()):
    """Read a `write_csv` file whose header is `columns`.

    Returns ``(comments, data)``: ``(line number, text)`` pairs in file
    order and an ``(n_rows, len(columns))`` float array.  Blank lines
    are skipped; fields of `integer_columns` must be non-negative
    integers.  A missing header, a wrong field count, or an unparsable
    or non-finite value raises ValueError naming ``path:line``.
    """
    columns = tuple(columns)
    integers = [k for k, name in enumerate(columns) if name in integer_columns]
    expected = ",".join(columns) + " as finite numbers" + "".join(
        f", {columns[k]} a non-negative integer" for k in integers)
    comments, data, header = [], [], False
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if line.startswith("#"):
                comments.append((lineno, line[1:].removeprefix(" ")))
                continue
            if not line.strip():
                continue
            fields = [f.strip() for f in line.split(",")]
            if not header:
                if tuple(fields) != columns:
                    raise ValueError(f"{path}:{lineno}: expected header "
                                     + ",".join(columns))
                header = True
                continue
            try:
                row = [float(f) for f in fields]
            except ValueError:
                row = [math.nan]
            if (len(fields) != len(columns) or not all(map(math.isfinite, row))
                    or not all(fields[k].isdigit() for k in integers)):
                raise ValueError(f"{path}:{lineno}: bad row {line!r}; expected {expected}")
            data.append(row)
    if not header:
        raise ValueError(f"{path}: expected header " + ",".join(columns))
    return comments, np.array(data, dtype=float).reshape(len(data), len(columns))


def read_table(lines, where, n_columns):
    """Read a text table of `n_columns` floats per row from `lines`.

    ``#`` starts a comment anywhere on a line, blank lines are skipped,
    and fields are split on whitespace or commas.  Returns ``(comments,
    data, line_numbers)``: the whole-line comments as ``(line number,
    text)`` pairs, an ``(n_rows, n_columns)`` float array, and the line
    number of each data row, so that a caller's value check can name
    ``where:line`` too.  ``inf`` parses; a wrong field count or an
    unparsable or NaN field raises ValueError naming ``where:line``.
    """
    comments, data, line_numbers = [], [], []
    for lineno, line in enumerate(lines, 1):
        body, hash_, text = line.partition("#")
        if hash_ and not body.strip():
            comments.append((lineno, text.strip()))
        fields = body.replace(",", " ").split()
        if not fields:
            continue
        try:
            row = [float(f) for f in fields]
        except ValueError:
            row = [math.nan]
        if len(row) != n_columns or any(map(math.isnan, row)):
            raise ValueError(f"{where}:{lineno}: expected {n_columns} numbers, "
                             f"got {body.strip()!r}")
        data.append(row)
        line_numbers.append(lineno)
    return (comments, np.array(data, dtype=float).reshape(len(data), n_columns),
            line_numbers)
