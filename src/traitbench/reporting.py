"""Deterministic report files: CSV or JSON lines with a config header.

Rows are written exactly in the order the caller supplies them, so a caller
that generates rows deterministically gets byte-identical files on reruns.
Every file starts with a header recording the tool version and the
invocation config, which makes a report self-describing.

The rows may be any iterable of mappings, a generator included, and are
read once. They are rendered in chunks of _CHUNK_ROWS, each joined into one
string as soon as it is rendered, so rendering holds one chunk's lines at a
time and, at the end, the joined chunks and the output: about twice the
output's size. `write_report` renders the whole text before it opens the
file, so a report that fails to render leaves no file.
"""

from __future__ import annotations

import csv
import json
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from . import __version__

FORMATS = ("csv", "jsonl")

# Rows rendered into one chunk. Each chunk's lines are separate strings until
# the chunk is joined; a StringIO reused across chunks would instead widen its
# buffer to four bytes per character once it is truncated.
_CHUNK_ROWS = 1024


def render_report(
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    fmt: str,
    config: Mapping[str, object],
) -> str:
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

    chunks: list[str] = []
    rows = iter(rows)
    # The header is the first chunk. A chunk that renders no row ends the
    # report, so no chunk's lines are still held when the chunks are joined.
    while lines:
        chunks.append("".join(lines))
        lines.clear()
        render(islice(rows, _CHUNK_ROWS))
    return "".join(chunks)


def write_report(
    path: str | Path,
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    fmt: str,
    config: Mapping[str, object],
) -> None:
    Path(path).write_text(render_report(rows, columns, fmt, config), "utf-8")
