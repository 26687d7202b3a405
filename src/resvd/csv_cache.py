"""Parsed CSV calibrations, kept so that each CSV file is parsed once.

An entry is an ERCC calibration container (see :mod:`resvd.containers`) in
``$XDG_CACHE_HOME/resvd``, or ``~/.cache/resvd`` when that variable is
unset. Its name is :data:`FORMAT_TAG` and the sha256 of the CSV's exact
bytes, so any edit to the file misses, and a hit returns the float64 bits
the parse produced. The parse reads bytes and no locale
(:func:`resvd.containers._parse_csv`), so those bits are the ones a parse
gives on any machine, whichever run filled the entry. At most
:data:`MAX_ENTRIES` are kept: a write drops the oldest by mtime, and a hit
renews its entry's. Only CSV is cached, and deleting the directory is
always safe.

The cache never fails a load. A home that cannot be resolved, a directory
that cannot be written, a damaged entry or a race with another writer each
mean that the file is parsed as if there were no cache: into an unlinked
spill under ``TMPDIR`` when no entry can be written.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from .calibration import CalibrationSet, RowFile
from .containers import (
    _CALIB_HEADER,
    CALIB_MAGIC,
    CALIB_VERSION,
    _parse_csv,
    cache_dir,
    evict,
    load_calibration,
)
from .errors import FormatError

MAX_ENTRIES = 8
# In every entry's name: change it whenever a CSV would parse differently.
FORMAT_TAG = "csv2"


def entry_for(digest: str) -> Path | None:
    """Where the entry for a CSV with sha256 ``digest`` lives; None when no home resolves."""
    directory = cache_dir()
    return None if directory is None else directory / f"{FORMAT_TAG}-{digest}.ercc"


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


def parse(path: str | Path, entry: Path | None) -> CalibrationSet:
    """The CSV at ``path`` parsed into a new entry beside ``entry``, as a set reading it.

    The entry is written under a temporary name, its header last, and then
    named by the sha256 of the bytes parsed. Rows that cannot be written
    there go to an unlinked :meth:`~resvd.calibration.RowFile.spill`.
    """
    tmp = None
    if entry is not None:
        with contextlib.suppress(OSError):
            entry.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
    if tmp is None:
        rows = RowFile.spill(f"the rows of {path}")
        _parse_csv(path, rows)
        return CalibrationSet(file=rows)
    try:
        rows = RowFile(tmp, fd, _CALIB_HEADER.size, (0, 0))
        try:
            digest = _parse_csv(path, rows)
        except OSError as exc:
            if exc.filename != tmp:  # the CSV's own read failed
                raise
            return parse(path, None)  # the cache only saves time: no load fails on its account
        with contextlib.suppress(OSError):
            os.pwrite(fd, _CALIB_HEADER.pack(CALIB_MAGIC, CALIB_VERSION, *rows.shape), 0)
            os.replace(tmp, named := entry_for(digest))  # readers see no part of an entry
            tmp, rows.path = None, named
            evict(named.parent, (".ercc", ".tmp"), MAX_ENTRIES)
        return CalibrationSet(file=rows)
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)

