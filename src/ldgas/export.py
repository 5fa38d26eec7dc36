"""Atomic file output for the harness's records.

Every file goes through a unique temporary file in the target's directory,
is flushed to disk and renamed over the target, so a reader never sees a
partial file and writers sharing a directory never collide.
"""

from __future__ import annotations

import os

import numpy as np


def atomic_write(path, text) -> None:
    """Write text to path via a unique temp file in the same directory.

    The temp file gets a random name and mode 0666, so the kernel applies the
    umask in force at the call, as ``open`` would.
    """
    while True:
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_cell(value) -> str:
    """One CSV cell: None is empty, floats print in their shortest round-trip form."""
    if value is None:
        return ""
    return str(value.item() if isinstance(value, np.generic) else value)


def write_table(path, header, rows) -> None:
    """Atomically write the header lines, then one comma-separated line per row."""
    lines = list(header)
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")
