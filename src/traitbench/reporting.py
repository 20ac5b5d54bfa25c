"""Deterministic report files: CSV or JSON lines with a config header.

Rows are written exactly in the order the caller supplies them, so a caller
that generates rows deterministically gets byte-identical files on reruns.
Every file starts with a header recording the tool version and the
invocation config, which makes a report self-describing.

The rows may be any iterable of mappings, a generator included, and are
read once. They are rendered in chunks of _CHUNK_ROWS, each joined into one
string as soon as it is rendered, so rendering holds one chunk's lines at a
time and, at the end, the joined chunks and the output: about twice the
output's size. `write_report` writes the same chunks, one at a time, to a
temporary file beside its target and renames it over the target once the
last is written, so a report that fails to render leaves the target as it
was and no temporary file; an older report's permissions carry over.
"""

from __future__ import annotations

import csv
import json
import os
import stat
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

from . import __version__

FORMATS = ("csv", "jsonl")

# Rows rendered into one chunk. Each chunk's lines are separate strings until
# the chunk is joined; a StringIO reused across chunks would instead widen its
# buffer to four bytes per character once it is truncated.
_CHUNK_ROWS = 1024


def _chunks(
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    fmt: str,
    config: Mapping[str, object],
) -> Iterator[str]:
    """The report's text in chunks: the header, then _CHUNK_ROWS rows at a time."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}, expected one of {FORMATS}")
    meta = json.dumps({"tool": "traitbench", "version": __version__, "config": dict(sorted(config.items()))}, sort_keys=True)
    lines: list[str] = []
    if fmt == "csv":
        lines.append(f"# {meta}\n")
        writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
        writer.writerow(columns)

        def render(chunk: Iterable[Mapping[str, object]]) -> None:
            writer.writerows([row.get(col, "") for col in columns] for row in chunk)
    else:
        lines.append(f"{meta}\n")

        def render(chunk: Iterable[Mapping[str, object]]) -> None:
            lines.extend(json.dumps({col: row.get(col, "") for col in columns}, sort_keys=True) + "\n" for row in chunk)

    rows = iter(rows)
    # The header is the first chunk. A chunk that renders no row ends the
    # report, so no chunk's lines are still held when the chunks are joined.
    while lines:
        yield "".join(lines)
        lines.clear()
        render(islice(rows, _CHUNK_ROWS))


def render_report(
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    fmt: str,
    config: Mapping[str, object],
) -> str:
    return "".join(_chunks(rows, columns, fmt, config))


def write_report(
    path: str | Path,
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    fmt: str,
    config: Mapping[str, object],
) -> None:
    """Render the report into a file at path, replacing any older one only once it is whole.

    A path that names a device or a pipe, /dev/stdout say, is written
    directly: it holds nothing to keep, and no file may be renamed over it.
    """
    chunks = _chunks(rows, columns, fmt, config)
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        return
    # Beside the file a symlink names, so that the link stays a link. Opened
    # exclusively, so that the name is this call's alone.
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        out = open(temp, "x", encoding="utf-8")
    except OSError as exc:
        # The temporary name is not the user's: name the report instead.
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with out:
            out.writelines(chunks)
        if target.exists():
            os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
