"""Atomic file output shared by the library's exports and the harness.

Every file goes through a unique temporary file in the target's directory,
is flushed to disk and renamed over the target, so a reader never sees a
partial file and writers sharing a directory never collide.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path, text) -> None:
    """Write text to path via a unique temp file in the same directory."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)  # mkstemp's 0600 would outlive the rename
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
