"""Parsed CSV calibrations, kept so that each CSV file is parsed once.

An entry is an ERCC calibration container (see :mod:`resvd.containers`) in
``$XDG_CACHE_HOME/resvd``, or ``~/.cache/resvd`` when that variable is
unset. Its name is :data:`FORMAT_TAG` and the sha256 of the CSV's exact
bytes, so any edit to the file misses, and a hit returns the float64 bits
the parse produced. At most :data:`MAX_ENTRIES` are kept: a write drops the
oldest by mtime, and a hit renews its entry's. Only CSV is cached, and
deleting the directory is always safe.

The cache never fails a load. A home that cannot be resolved, a directory
that cannot be written, a damaged entry or a race with another writer each
mean that the caller parses the file as if there were no cache.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from .calibration import CalibrationSet
from .containers import load_calibration, save_calibration
from .errors import FormatError

MAX_ENTRIES = 8
# In every entry's name: change it whenever a CSV would parse differently.
FORMAT_TAG = "csv1"


def entry_for(digest: str) -> Path | None:
    """Where the entry for a CSV with sha256 ``digest`` lives; None when no home resolves."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    return Path(base, "resvd", f"{FORMAT_TAG}-{digest}.ercc")


def load(entry: Path | None) -> CalibrationSet | None:
    """The rows cached at ``entry``, or None when there are none to use."""
    if entry is None:
        return None
    try:
        calib = load_calibration(entry)
    except (OSError, FormatError):  # missing, unreadable, truncated or corrupt: reparse
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)  # a hit is a use, so eviction spares it longest
    return calib


def store(calib: CalibrationSet, entry: Path | None) -> None:
    """Write ``entry`` whole or not at all, then keep only the newest entries."""
    if entry is None:
        return
    tmp = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        os.close(fd)
        save_calibration(calib, tmp)
        os.replace(tmp, entry)  # readers see the old entry or the new one, never a part
        tmp = None
        files = []
        for path in entry.parent.iterdir():
            if path.suffix in (".ercc", ".tmp"):
                with contextlib.suppress(OSError):  # another process may remove it first
                    files.append((path.stat().st_mtime_ns, path))
        for _, path in sorted(files)[:-MAX_ENTRIES]:
            with contextlib.suppress(OSError):
                path.unlink()
    except OSError:
        pass  # the cache only saves time: no load fails on its account
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
