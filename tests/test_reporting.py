"""Deterministic report rendering."""

import json
import random
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


class TestWrite:
    def test_reruns_are_byte_identical(self, tmp_path):
        for fmt in FORMATS:
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            write_report(str(a), ROWS, COLUMNS, fmt, CONFIG)
            write_report(str(b), ROWS, COLUMNS, fmt, CONFIG)
            assert a.read_bytes() == b.read_bytes()


CHUNK = reporting._CHUNK_ROWS
# Cells a renderer must write as they are: a missing column, None, commas,
# quotes, a line break, non-ASCII text and numbers.
CELLS = [{}, {"witness": None}, {"witness": "a,b"}, {"witness": 'say "hi"'}, {"witness": "two\nlines"},
         {"witness": "ünïcödé ✓"}, {"witness": ""}, {"witness": 7}]


def mixed_rows(count):
    return [{"index": i, "verdict": "agree" if i % 3 else "differ", **CELLS[i % len(CELLS)]} for i in range(count)]


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
        def rows():
            yield from mixed_rows(CHUNK + 1)
            raise RuntimeError("row source failed")

        path = tmp_path / "r.csv"
        with pytest.raises(RuntimeError):
            write_report(path, rows(), COLUMNS, "csv", CONFIG)
        assert not path.exists()

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
