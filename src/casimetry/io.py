"""The one CSV format of every table the package writes or reads, and
the one reader of the whitespace tables given to it as input.

CSV: ``# `` comment lines, a header naming the columns, then one row per
line (floats as ``.10e``, integers plainly), every line ending in LF.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["FLOAT_FORMAT", "write_csv", "read_csv", "read_table"]

FLOAT_FORMAT = ".10e"


def write_csv(path, columns, rows, comments=()) -> None:
    """Write the comments, the header and one line per row to `path`.

    A column whose first-row value is an integer holds integers, written
    plainly; every other value is a float.  A comment with a line break,
    or a float with no finite ``.10e`` form, raises ValueError before the
    file is opened."""
    if any("\n" in c or "\r" in c for c in comments):
        raise ValueError(f"{path}: a comment must be a single line")
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    # NaN, inf, and the finite values whose text form may round up to inf
    for i, j in np.argwhere(~(np.abs(data) < 1e308)).tolist():
        if not math.isfinite(float(format(data[i, j], FLOAT_FORMAT))):
            raise ValueError(f"{path}: {rows[i][j]!r} has no finite {FLOAT_FORMAT} form")
    ints = [isinstance(v, (int, np.integer)) for v in rows[0]] if len(rows) else []
    fmt = ",".join("{:d}" if i else "{:" + FLOAT_FORMAT + "}" for i in ints)
    fields = [[row[j] for row in rows] if i else data[:, j].tolist()
              for j, i in enumerate(ints)]
    lines = [f"# {c}" for c in comments] + [",".join(columns)]
    lines.extend(map(fmt.format, *fields) if fields else ())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
