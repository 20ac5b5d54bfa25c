"""Deterministic report rendering."""

import json
import os
import random
import stat
import threading
import tracemalloc

import pytest

from traitbench import reporting
from traitbench.reporting import FORMATS, render_report, write_report
from util import reference_render_report

ROWS = [
    {"index": 1, "verdict": "agree", "witness": ""},
    {"index": 0, "verdict": "differ", "witness": "a"},
]
COLUMNS = ["index", "verdict", "witness"]
CONFIG = {"max_len": 2, "fuel": 100}


class TestCsv:
    def test_header_carries_the_config_as_json(self):
        text = render_report(ROWS, COLUMNS, "csv", CONFIG)
        first = text.splitlines()[0]
        assert first.startswith("# ")
        meta = json.loads(first[2:])
        assert meta["config"] == {"fuel": 100, "max_len": 2}
        assert meta["tool"] == "traitbench"

    def test_column_line_then_rows_in_given_order(self):
        lines = render_report(ROWS, COLUMNS, "csv", CONFIG).splitlines()
        assert lines[1] == "index,verdict,witness"
        assert lines[2] == "1,agree,"
        assert lines[3] == "0,differ,a"

    def test_rendering_is_reproducible(self):
        assert render_report(ROWS, COLUMNS, "csv", CONFIG) == render_report(
            ROWS, COLUMNS, "csv", dict(reversed(CONFIG.items()))
        )


class TestJsonl:
    def test_meta_object_comes_first(self):
        lines = render_report(ROWS, COLUMNS, "jsonl", CONFIG).splitlines()
        meta = json.loads(lines[0])
        assert meta["config"]["fuel"] == 100
        assert [json.loads(l)["index"] for l in lines[1:]] == [1, 0]

    def test_rows_restrict_to_the_named_columns(self):
        rows = [{"index": 5, "verdict": "agree", "witness": "", "extra": "x"}]
        lines = render_report(rows, COLUMNS, "jsonl", CONFIG).splitlines()
        assert set(json.loads(lines[1])) == set(COLUMNS)


def test_an_unknown_format_is_refused():
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        render_report(ROWS, COLUMNS, "xml", CONFIG)


class TestWrite:
    def test_reruns_are_byte_identical(self, tmp_path):
        for fmt in FORMATS:
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            write_report(str(a), ROWS, COLUMNS, fmt, CONFIG)
            write_report(str(b), ROWS, COLUMNS, fmt, CONFIG)
            assert a.read_bytes() == b.read_bytes()

    def test_an_older_report_keeps_its_link_and_permissions(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("an older report\n", "utf-8")
        real.chmod(0o640)
        link.symlink_to(real)
        write_report(link, ROWS, COLUMNS, "csv", CONFIG)
        assert link.is_symlink()
        assert real.read_text("utf-8") == render_report(ROWS, COLUMNS, "csv", CONFIG)
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_a_pipe_is_written_directly(self, tmp_path):
        # As /dev/stdout would be: a file renamed over it would replace it.
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        read = []
        reader = threading.Thread(target=lambda: read.append(pipe.read_bytes()), daemon=True)
        reader.start()
        write_report(pipe, ROWS, COLUMNS, "csv", CONFIG)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert read == [render_report(ROWS, COLUMNS, "csv", CONFIG).encode("utf-8")]
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)


CHUNK = reporting._CHUNK_ROWS
# Cells a renderer must write as they are: a missing column, None, commas,
# quotes, a line break, non-ASCII text and numbers.
CELLS = [{}, {"witness": None}, {"witness": "a,b"}, {"witness": 'say "hi"'}, {"witness": "two\nlines"},
         {"witness": "ünïcödé ✓"}, {"witness": ""}, {"witness": 7}]


def mixed_rows(count):
    return [{"index": i, "verdict": "agree" if i % 3 else "differ", **CELLS[i % len(CELLS)]} for i in range(count)]


def failing_rows():
    yield from mixed_rows(2 * CHUNK + 1)
    raise RuntimeError("row source failed")


class TestChunks:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_matches_the_one_buffer_renderer(self, fmt, count):
        rows = mixed_rows(count)
        expected = reference_render_report(rows, COLUMNS, fmt, CONFIG)
        assert render_report(rows, COLUMNS, fmt, CONFIG) == expected
        # A generator is read once, and renders as the list does.
        assert render_report((row for row in rows), COLUMNS, fmt, CONFIG) == expected

    def test_a_report_that_fails_to_render_writes_no_file(self, tmp_path):
        # The failure comes after whole chunks have been written, and leaves
        # no temporary file either.
        path = tmp_path / "r.csv"
        with pytest.raises(RuntimeError):
            write_report(path, failing_rows(), COLUMNS, "csv", CONFIG)
        assert list(tmp_path.iterdir()) == []

    def test_a_report_that_fails_to_render_leaves_an_older_one_as_it_was(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("an older report\n", "utf-8")
        with pytest.raises(RuntimeError):
            write_report(path, failing_rows(), COLUMNS, "csv", CONFIG)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text("utf-8") == "an older report\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_written_report_is_the_rendered_one(self, tmp_path, fmt):
        rows = mixed_rows(CHUNK + 1)
        path = tmp_path / "r.txt"
        path.write_text("an older, longer report\n" * 10000, "utf-8")
        write_report(path, (row for row in rows), COLUMNS, fmt, CONFIG)
        assert path.read_bytes() == render_report(rows, COLUMNS, fmt, CONFIG).encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["r.txt"]

    def test_rendering_holds_one_chunk_besides_its_output(self):
        # index-roundtrip's report: 60,000 rows of four numbers. The chunks and
        # their join take 2x the report's length, and one chunk's lines little
        # more; a renderer that holds every rendered row in one buffer and then
        # in its copy peaks near 5x.
        rng = random.Random(0)
        indices = [k * 166 + rng.randrange(166) for k in range(60000)]
        rows = [{"index": n, "states": 3 + n % 5, "symbols": 2 + n % 9, "encoded": n} for n in indices]
        tracemalloc.start()
        try:
            text = render_report(rows, ["index", "states", "symbols", "encoded"], "csv", {"workload": "index-roundtrip"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)

    def test_writing_holds_one_chunk_not_the_report(self, tmp_path):
        # The same rows, written: one chunk's lines, its text and its UTF-8
        # copy, about a fifth of the report. Encoding the whole rendered text
        # at once peaks above twice its length.
        rng = random.Random(0)
        indices = [k * 166 + rng.randrange(166) for k in range(60000)]
        rows = [{"index": n, "states": 3 + n % 5, "symbols": 2 + n % 9, "encoded": n} for n in indices]
        path = tmp_path / "r.csv"
        tracemalloc.start()
        try:
            write_report(path, rows, ["index", "states", "symbols", "encoded"], "csv", {"workload": "index-roundtrip"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size
