"""The one CSV convention behind every file locobf reads or writes.

A file is one header row, then data rows, with "\\n" line ends; numbers
are written at 12 significant digits; and wherever a file is expected a
path or an open text stream is accepted. Each file's schema (header,
columns, per-row checks) stays with the type it stores.
"""

import contextlib
import csv
from pathlib import Path


def num(x):
    """A number as every file writes it: 12 significant digits."""
    return f"{x:.12g}"


@contextlib.contextmanager
def opened(target, mode="r"):
    """A path opened with newline="", or an open stream used as is and left open."""
    if isinstance(target, (str, Path)):
        with open(target, mode, newline="") as fh:
            yield fh
    else:
        yield target


def write(target, header, rows):
    """One header row, then the rows, with "\\n" line ends."""
    with opened(target, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def lines(source):
    """(line number, fields) for line 1, then for every non-blank line.

    A blank line is empty or holds one whitespace-only field. Rows are
    read one at a time.
    """
    with opened(source) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1 or (row and (len(row) > 1 or row[0].strip())):
                yield lineno, row
