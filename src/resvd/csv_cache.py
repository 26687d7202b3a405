"""Parsed CSV calibrations, kept so that each CSV file is parsed once.

An entry is a cache entry (see :mod:`resvd.containers`) whose descriptor is
``{"shapes": [[S, W]]}`` and whose one array is the ``S x W`` rows, named by
:data:`FORMAT_TAG` and the sha256 of the CSV's exact bytes: any edit to the
file misses, and a hit returns the float64 bits the parse gave, which read
bytes and no locale (:func:`resvd.containers._parse_csv`). A hit hashes the
whole entry and checks ``W`` against the CSV's first row when that row ends
in the block the lookup hashed first, so a damaged entry is parsed and
written again. A miss parses into an unlinked spill under ``TMPDIR``, which
the set reads, and copies it into a new entry. At most :data:`MAX_ENTRIES`
are kept, of any size, dropped oldest by mtime first. The cache never fails
a load: a home that does not resolve, a directory that cannot be written, a
damaged entry or a race with another writer each mean parsing as if there
were no cache, and deleting the directory is always safe.
"""

from __future__ import annotations

import contextlib
import math
from pathlib import Path

from .calibration import READ_CHUNK_BYTES, CalibrationSet, RowFile
from .containers import Arrays, _parse_csv, _sha256, cache_dir, publish_entry, read_entry

MAX_ENTRIES = 8
# In every entry's name: change it whenever a CSV would parse differently.
FORMAT_TAG = "csv3"


def entry_for(digest: str) -> Path | None:
    """Where the entry for a CSV with sha256 ``digest`` lives; None when no home resolves."""
    directory = cache_dir()
    return None if directory is None else directory / f"{FORMAT_TAG}-{digest}.ercc"


def load(path: str | Path) -> CalibrationSet:
    """The CSV at ``path`` as a set reading its rows from its entry; when no entry holds them,
    from a spill they are parsed into, then copied into an entry named by the sha256 of the
    bytes parsed, which may differ from those the lookup hashed if the file changed since."""
    digest, width = _sha256(path)

    def expect(doc: dict) -> Arrays | None:
        match doc.get("shapes"):
            case [[int(n), int(w)] as shape] if n >= 1 and w >= 1 and width in (None, w):
                return [(shape, False)]
        return None

    entry = entry_for(digest)
    found = read_entry(entry, expect, None, memoryview(bytearray(READ_CHUNK_BYTES)))
    if found is not None:
        rows, doc, [rows.offset] = found
        rows.shape = tuple(doc["shapes"][0])
        return CalibrationSet(file=rows)
    rows = RowFile.spill(f"the rows of {path}")
    digest = _parse_csv(path, rows)
    if entry is not None:
        with contextlib.suppress(OSError):
            entry.parent.mkdir(parents=True, exist_ok=True)
            raw = rows.pieces(memoryview(bytearray(READ_CHUNK_BYTES)), 0, 8 * math.prod(rows.shape))
            publish_entry(entry_for(digest), {"shapes": [list(rows.shape)]}, raw, MAX_ENTRIES, None)
    return CalibrationSet(file=rows)
