"""CSV calibrations: the one parser, beside the tag it changes, and the cache of its parses.

An entry is a cache entry (see :mod:`resvd.containers`) whose descriptor is
``{"shapes": [[S, W]]}`` and whose one array is the ``S x W`` rows, named by
:data:`FORMAT_TAG` and the sha256 of the CSV's exact bytes: any edit to the
file misses, and a hit returns the float64 bits the parse gave, which read
bytes and no locale (:func:`_parse_csv`). A hit hashes the
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
import hashlib
import math
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .calibration import READ_CHUNK_BYTES, CalibrationSet, RowFile
from .containers import cache_dir, publish_entry, read_entry
from .errors import FormatError

MAX_ENTRIES = 8
# In every entry's name: change it whenever a CSV would parse differently.
FORMAT_TAG = "csv3"

# The longest CSV token, whitespace around it included, that a parse hands to ``float``; a
# longer one is not numeric. ``float``'s message for a token it rejects is the token's repr, up
# to 4 bytes a byte, so this bounds what a faulty token costs beyond its line.
MAX_TOKEN_BYTES = READ_CHUNK_BYTES // 4


def entry_for(digest: str) -> Path | None:
    """Where the entry for a CSV with sha256 ``digest`` lives; None when no home resolves."""
    directory = cache_dir()
    return None if directory is None else directory / f"{FORMAT_TAG}-{digest}.ercc"


def load(path: str | Path) -> CalibrationSet:
    """The CSV at ``path`` as a set reading its rows from its entry; when no entry holds them,
    from a spill they are parsed into, then copied into an entry named by the sha256 of the
    bytes parsed, which may differ from those the lookup hashed if the file changed since."""
    digest, width = _sha256(path)
    entry = entry_for(digest)
    match read_entry(entry, None):
        case (rows, {"shapes": [[int(n), int(w)]]}, [at]) if n >= 1 and w >= 1 \
                and width in (None, w):
            rows.offset, rows.shape = at, (n, w)
            return CalibrationSet(file=rows)
    rows = RowFile.spill(f"the rows of {path}")
    digest = _parse_csv(path, rows)
    if entry is not None:
        with contextlib.suppress(OSError):
            entry.parent.mkdir(parents=True, exist_ok=True)
            raw = rows.pieces(memoryview(bytearray(READ_CHUNK_BYTES)), 0, 8 * math.prod(rows.shape))
            publish_entry(entry_for(digest), {"shapes": [list(rows.shape)]}, raw, MAX_ENTRIES, None)
    return CalibrationSet(file=rows)


def _sha256(path: str | Path) -> tuple[str, int | None]:
    """The sha256 of the file at ``path``, read a block at a time into one buffer, and the
    token count of its first line that holds more than ASCII whitespace, as a parse counts a
    row's; None for the count when no such line ends within the first block."""
    digest, block, width = hashlib.sha256(), bytearray(READ_CHUNK_BYTES), None
    with open(path, "rb", buffering=0) as fh:
        n = fh.readinto(block)
        start = 0
        while width is None and (end := block.find(b"\n", start, n)) >= 0:
            if line := block[start:end].strip():
                width = line.count(b",") + 1
            start = end + 1
        while n:
            digest.update(memoryview(block)[:n])
            n = fh.readinto(block)
    return digest.hexdigest(), width


def _not_numeric(toks: Iterable[bytes]) -> str | None:
    """``float``'s message for the first of ``toks`` that it rejects, that token cut to its
    longest prefix whose repr fits in 40 characters, then "...", so no message is long; None
    when it takes them all. A token of more than :data:`MAX_TOKEN_BYTES` is rejected unread,
    with the same wording."""
    for tok in toks:
        try:
            if len(tok) > MAX_TOKEN_BYTES:
                raise ValueError
            float(tok)
        except ValueError:
            keep = next(n for n in range(min(len(tok), 40), -1, -1) if len(repr(tok[:n])) <= 40)
            cut = "..." if keep < len(tok) else ""
            return f"could not convert string to float: {tok[:keep]!r}{cut}"


def _tokens(line: bytes) -> Iterator[bytes]:
    """The tokens ``line.split(b",")`` gives, one at a time, so only one is held at once."""
    start = 0
    while (end := line.find(b",", start)) >= 0:
        yield line[start:end]
        start = end + 1
    yield line[start:]


def _lines(fh) -> Iterator[bytes]:
    """The lines of the binary file ``fh``, each one bytes object: a line of more than
    :data:`READ_CHUNK_BYTES` is measured first and then read whole, where ``readline`` would
    join its chunks into a second copy of it."""
    while line := fh.readline(READ_CHUNK_BYTES):
        if len(line) == READ_CHUNK_BYTES and not line.endswith(b"\n"):
            start, line = fh.tell() - len(line), None
            while (piece := fh.read(READ_CHUNK_BYTES)) and b"\n" not in piece:
                pass
            end = fh.tell() - len(piece) + piece.find(b"\n") + 1 if piece else fh.tell()
            fh.seek(start)
            line = fh.read(end - start)
        yield line


def _parse_csv(path: str | Path, rows: RowFile) -> str:
    """Append the rows of the CSV at ``path`` to ``rows``; the sha256 of the bytes parsed.

    The file is bytes: a line ends at ``\\n``, and each comma-separated
    token is parsed by ``float``, which ignores ASCII whitespace around it,
    ``\\r`` included. A line holding only such whitespace is skipped. The
    parse stops at the first line that is not numeric, has another width
    than the first row or holds a non-finite value, with a one-line message
    naming it; a file with none and no row fails with "no samples". So the
    same bytes give the same rows or the same message whatever the locale.
    The file is read :data:`READ_CHUNK_BYTES` at a time and rows are written
    half that many bytes at a time: beyond its longest line, a parse holds
    less than two of those. No token of more than :data:`MAX_TOKEN_BYTES`
    reaches ``float``, and a line is held once (:func:`_lines`). The first
    line, whose comma count gives the width, and a later line whose comma
    count gives another width hand their tokens to ``float`` one at a time
    (:func:`_tokens`) before any split, so a faulty one is named as not
    numeric or by its width for about the cost of the line: at most 2.4
    times its length under ``tracemalloc`` for 1 MB of commas, of ``x,``,
    of ``1,`` or of ``10,`` before one ``x``. Only a line of the first
    row's width is split.
    """
    digest, block, n = hashlib.sha256(), None, 0  # n rows of block are not yet appended
    with open(path, "rb", buffering=READ_CHUNK_BYTES) as fh:
        for ln, raw in enumerate(_lines(fh), start=1):
            digest.update(raw)
            if not (line := raw.strip()):
                continue
            width = line.count(b",") + 1
            if block is None or width != block.shape[1]:  # the first row, or a faulty line
                if why := _not_numeric(_tokens(line)):
                    raise FormatError(f"{path}:{ln}: not numeric ({why})")
                if block is not None:
                    raise FormatError(f"{path}:{ln}: expected {block.shape[1]} columns, "
                                      f"got {width}")
                block = np.empty((max(1, READ_CHUNK_BYTES // (16 * width)), width))
            toks = line.split(b",")
            try:  # a line no longer than a token needs no check of its tokens' length
                if len(line) > MAX_TOKEN_BYTES and max(map(len, toks)) > MAX_TOKEN_BYTES:
                    raise ValueError
                row = [float(tok) for tok in toks]
            except ValueError:
                raise FormatError(f"{path}:{ln}: not numeric ({_not_numeric(toks)})") from None
            if not all(map(math.isfinite, row)):
                raise FormatError(f"{path}:{ln}: non-finite value")
            block[n] = row
            n += 1
            if n == len(block):
                rows.append(block)
                n = 0
    if block is None:
        raise FormatError(f"{path}: no samples")
    if n:
        rows.append(block[:n])
    return digest.hexdigest()
