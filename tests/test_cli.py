"""Command-line behavior: exit codes, printed verdicts, report files."""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import traitbench
from traitbench.cli import _MODES, _REWRITES, build_parser, main
from traitbench.enumeration import decode
from traitbench.machine import equiv_bounded, format_machine, parse_machine
from traitbench.measures import MEASURES
from traitbench.transforms import pad
from util import LONG_INVALID_REGEX, MALFORMED_BOUNDS, NESTED_ARRAYS_TEXT, NESTED_REGEX_POLICY


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"classified": ["bb"]}))
    return str(path)


class TestExitCodes:
    def test_missing_machine_file_exits_one(self, capsys):
        assert main(["run", "--machine", "/no/such/file.tm"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_machine_text_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.tm"
        bad.write_text("states: banana\n")
        assert main(["run", "--machine", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_blum_check_refuses_a_fuel_below_three(self, capsys):
        assert main(["blum-check", "--max-index", "5", "--fuel", "2"]) == 1
        assert "fuel of at least 3" in capsys.readouterr().err
        assert main(["blum-check", "--max-index", "5", "--fuel", "3"]) == 0

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["equiv", "--machine", "x"])  # --other is required
        assert info.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["blum-check", "--max-index", "5", "--max-len", "-1", "--fuel", "10"],
            ["blum-check", "--max-index", "-1"],
            ["enumerate", "--max", "-3"],
            ["partition", "--name", "states:3", "--probes", "-1"],
            ["measure", "--machine", "m.tm", "--trials", "-2"],
            ["patch-decider", "--l1", "1", "--l2", "2", "--universe-max", "-1"],
            ["prop3", "--max-len", "x"],
            ["enumerate", "--show", "-1"],
            ["enumerate", "--pair", "-1", "2"],
            ["enumerate", "--unpair", "-3"],
            ["run", "--machine", "m.tm", "--fuel", "-1"],
            ["trace", "--machine", "m.tm", "--fuel", "-1"],
            ["equiv", "--machine", "m.tm", "--other", "m.tm", "--fuel", "-1"],
            ["enumerate", "--max", "3", "--fuel", "-1"],
            ["measure", "--machine", "m.tm", "--fuel", "-1"],
            ["blum-check", "--max-index", "5", "--fuel", "-1"],
            ["trait", "--name", "states:3", "--machine", "m.tm", "--fuel", "-1"],
            ["partition", "--name", "states:3", "--fuel", "-1"],
            ["prop3", "--fuel", "-1"],
            ["contain", "--machine", "m.tm", "--policy", "p.json", "--fuel", "-1"],
            ["pad", "--machine", "m.tm", "--k", "-1", "--out", "p.tm"],
            ["delay", "--machine", "m.tm", "--d", "-2", "--out", "d.tm"],
            ["run", "--machine", "m.tm", "--fuel", "+5"],
            ["run", "--machine", "m.tm", "--fuel", "1_0"],
        ],
    )
    def test_negative_count_flags_exit_two(self, args, capsys):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        assert "expected a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, mode", [("run", []), ("trace", []), ("measure", ["--xi", "n"])])
    def test_format_without_out_exits_two(self, machine_file, echo, command, mode, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--machine", machine_file(echo), *mode, "--format", "jsonl"])
        assert info.value.code == 2
        assert "--format applies only" in capsys.readouterr().err

    def test_an_unwritable_report_names_the_report(self, machine_file, echo, tmp_path, capsys):
        # The report is written to a temporary file beside it, which the
        # user never named; the error names the report.
        out = tmp_path / "no" / "such" / "dir" / "r.csv"
        assert main(["run", "--machine", machine_file(echo), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "r.csv" in err and ".tmp" not in err

    def test_domain_error_inside_a_command_exits_one(self, machine_file, echo, capsys):
        path = machine_file(echo)
        assert main(["delay", "--machine", path, "--d", "3", "--out", path + ".out"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunAndTrace:
    def test_run_prints_the_outcome(self, machine_file, echo, capsys):
        assert main(["run", "--machine", machine_file(echo), "--input", "ab"]) == 0
        out = capsys.readouterr().out
        assert "kind=halted-output" in out
        assert "output=ab" in out
        assert "steps=1" in out

    def test_trace_prints_each_configuration(self, machine_file, eraser, capsys):
        assert main(["trace", "--machine", machine_file(eraser), "--input", "ab"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("step=0")

    def test_trace_renders_each_row_as_it_is_written(self, machine_file, looper):
        # The looper's 20,001 configurations share one tape and take about
        # 2 MB; their rows, all rendered before the first is written, took
        # 4 MB more. The listing holds one row at a time, a report one chunk.
        path = machine_file(looper)
        for out in ([], ["--out", os.devnull]):
            tracemalloc.start()
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    assert main(["trace", "--machine", path, "--input", "ab", "--fuel", "20000", *out]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20


class TestEquiv:
    def test_prints_verdict_and_witness(self, machine_file, echo, eraser, capsys):
        code = main(
            ["equiv", "--machine", machine_file(echo, "a.tm"), "--other", machine_file(eraser, "b.tm")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=differ" in out
        assert "witness=a" in out


class TestEnumerate:
    def test_validate_prints_the_count(self, capsys):
        assert main(["enumerate", "--validate", "--max", "250"]) == 0
        assert capsys.readouterr().out.strip() == "250 machines valid"

    def test_pair_and_unpair(self, capsys):
        assert main(["enumerate", "--pair", "3", "4"]) == 0
        assert capsys.readouterr().out.strip() == "32"
        assert main(["enumerate", "--unpair", "32"]) == 0
        assert capsys.readouterr().out.strip() == "3 4"

    def test_show_prints_a_parseable_machine(self, capsys):
        assert main(["enumerate", "--show", "37"]) == 0
        text = capsys.readouterr().out
        assert parse_machine(text) == decode(37)

    def test_reference_writes_an_index_report(self, machine_file, tmp_path, capsys):
        out = tmp_path / "indexset.csv"
        code = main(
            [
                "enumerate", "--reference", machine_file(decode(48)),
                "--max", "20", "--max-len", "1", "--fuel", "60",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "index,verdict,witness"
        assert len(lines) == 2 + 20  # header, columns, indices 0..19
        witnesses = [equiv_bounded(decode(n), decode(48), 1, 60).witness for n in range(20)]
        assert "a" in witnesses
        assert [line.split(",")[2] for line in lines[2:]] == [w or "" for w in witnesses]

    def test_reference_jsonl_report_writes_null_where_there_is_no_witness(self, machine_file, echo, tmp_path, capsys):
        out = tmp_path / "indexset.jsonl"

        def rows(reference):
            argv = ["enumerate", "--reference", machine_file(reference), "--max", "50", "--max-len", "1", "--fuel", "60"]
            assert main([*argv, "--out", str(out), "--format", "jsonl"]) == 0
            return {row["index"]: (row["verdict"], row["witness"]) for row in map(json.loads, out.read_text().splitlines()[1:])}

        # decode(48) agrees with itself, and agreement has no witness.
        assert rows(decode(48))[48] == ("agree", None)
        # echo's two-letter alphabet differs outright from that of every index below 144.
        assert set(rows(echo).values()) == {("differ", None)}

    def test_reference_prints_an_empty_cell_where_there_is_no_witness(self, machine_file, capsys):
        assert main(["enumerate", "--reference", machine_file(decode(48)), "--max", "49", "--max-len", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[48] == "index=48 verdict=agree witness="

    def test_validate_report_has_no_witness_column(self, tmp_path, capsys):
        out = tmp_path / "valid.csv"
        assert main(["enumerate", "--max", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["index,verdict", "0,valid", "1,valid", "2,valid"]

    @pytest.mark.parametrize(
        "modes",
        [["--pair", "1", "2", "--show", "3"], ["--validate", "--reference", "m.tm"], ["--show", "1", "--unpair", "5"]],
    )
    def test_modes_are_mutually_exclusive(self, modes, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", *modes])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--show", "3"], ["--pair", "1", "2"], ["--unpair", "5"]])
    @pytest.mark.parametrize("flag", ["--out", "--format"])
    def test_print_only_modes_reject_report_flags(self, mode, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", *mode, flag, str(out) if flag == "--out" else "jsonl"])
        assert exc.value.code == 2
        assert "writes no report" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, flags, message",
        [
            (["--show", "3"], ["--fuel", "5", "--max-len", "9", "--max", "2"], "the show mode does not read --max, --max-len, --fuel"),
            (["--pair", "1", "2"], ["--max", "2"], "the pair mode does not read --max"),
            (["--unpair", "5"], ["--fuel", "5"], "the unpair mode does not read --fuel"),
            (["--validate"], ["--max-len", "2"], "the validate mode does not read --max-len"),
            ([], ["--fuel", "100"], "the validate mode does not read --fuel"),
            (["--show", "0"], ["--max", "2"], "the show mode does not read --max"),
        ],
        ids=["show", "pair", "unpair", "validate", "default-validate", "show-zero"],
    )
    def test_flags_the_mode_does_not_read_exit_two(self, mode, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", *mode, *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_omitted_flags_take_their_defaults(self, machine_file, echo, policy_file, tmp_path, capsys):
        # Only the flags the mode reads take a default; the header records no other.
        out = tmp_path / "valid.csv"
        assert main(["enumerate", "--max", "1", "--out", str(out)]) == 0
        config = json.loads(out.read_text().splitlines()[0][2:])["config"]
        assert config["max"] == 1
        assert "max_len" not in config and "fuel" not in config
        out = tmp_path / "xi.csv"
        assert main(["measure", "--machine", machine_file(echo), "--xi", "n+5", "--out", str(out)]) == 0
        config = json.loads(out.read_text().splitlines()[0][2:])["config"]
        assert (config["max_len"], config["fuel"]) == (3, 1000)
        assert "input" not in config and "trials" not in config
        out = tmp_path / "contain.csv"
        assert main(["contain", "--machine", machine_file(echo), "--policy", policy_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[0][2:])["config"]["max_len"] == 2
        assert main(["contain", "--machine", machine_file(echo), "--policy", policy_file, "--inputs", "a", "--out", str(out)]) == 0
        assert "max_len" not in json.loads(out.read_text().splitlines()[0][2:])["config"]


class TestTransformCommands:
    def test_pad_writes_machine_and_receipt(self, machine_file, echo, tmp_path, capsys):
        out = tmp_path / "padded.tm"
        receipts = tmp_path / "receipts.jsonl"
        code = main(
            ["pad", "--machine", machine_file(echo), "--k", "2", "--out", str(out), "--receipts", str(receipts)]
        )
        assert code == 0
        padded = parse_machine(out.read_text())
        assert padded.state_count == echo.state_count + 2
        receipt = json.loads(receipts.read_text())
        assert receipt["kind"] == "pad"

    def test_delay_and_leak_write_parseable_machines(self, machine_file, echo, tmp_path, capsys):
        for argv, name in (
            (["delay", "--d", "4"], "delayed.tm"),
            (["leak", "--chi", "bb"], "leaky.tm"),
        ):
            out = tmp_path / name
            code = main([argv[0], "--machine", machine_file(echo), *argv[1:], "--out", str(out)])
            assert code == 0
            parse_machine(out.read_text())

    @pytest.mark.parametrize(
        "chi, receipts, message",
        [
            ("a b", False, "cannot carry"),
            ("a#b", False, "cannot carry"),
            ("a\tb", False, "cannot carry"),
            ("ABCDEFGHIJ0123", True, "10-extra-symbol universe"),
        ],
    )
    def test_leak_that_cannot_be_written_writes_nothing(self, machine_file, echo, tmp_path, chi, receipts, message, capsys):
        out, receipt = tmp_path / "l.tm", tmp_path / "l.json"
        argv = ["leak", "--machine", machine_file(echo), "--chi", chi, "--out", str(out)]
        assert main(argv + (["--receipts", str(receipt)] if receipts else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists() and not receipt.exists()

    @pytest.mark.parametrize("chi", ["-", ">", ":", "a->b"])
    def test_leak_of_arrow_and_colon_symbols_round_trips(self, machine_file, echo, tmp_path, chi, capsys):
        from traitbench.transforms import leaky_wrap

        out = tmp_path / "l.tm"
        assert main(["leak", "--machine", machine_file(echo), "--chi", chi, "--out", str(out)]) == 0
        assert parse_machine(out.read_text()) == leaky_wrap(echo, chi)

    def test_canonicalize_without_an_index_writes_nothing(self, tmp_path, capsys):
        # No index covers an empty input alphabet, so the twin cannot be reported.
        machine = tmp_path / "e.tm"
        machine.write_text("states: 3\nstart: 0\naccept: 1\nreject: 2\ninput_alphabet:\ntape_alphabet: _\ndelta: 0 _ -> 1 _ R\n")
        out = tmp_path / "c.tm"
        assert main(["canonicalize", "--machine", str(machine), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "empty input alphabet" in err
        assert not out.exists()

    def test_canonicalize_reports_the_index(self, machine_file, echo, tmp_path, capsys):
        out = tmp_path / "canon.tm"
        assert main(["canonicalize", "--machine", machine_file(echo), "--out", str(out)]) == 0
        assert "index 69413" in capsys.readouterr().out
        assert parse_machine(out.read_text()) == echo


class TestMeasure:
    def test_evaluate_prints_the_cost(self, machine_file, echo, capsys):
        assert main(["measure", "--machine", machine_file(echo), "--input", "ab"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_undefined_cost_prints_undefined(self, machine_file, eraser, capsys):
        assert main(["measure", "--machine", machine_file(eraser), "--input", "a"]) == 0
        assert capsys.readouterr().out.strip() == "undefined"

    def test_graph_mode_prints_a_boolean(self, machine_file, echo, capsys):
        assert main(["measure", "--machine", machine_file(echo), "--input", "ab", "--graph", "1"]) == 0
        assert capsys.readouterr().out.strip() == "True"

    def test_graph_mode_answers_false_for_a_negative_cost(self, machine_file, echo, capsys):
        assert main(["measure", "--machine", machine_file(echo), "--input", "ab", "--graph", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "False"

    def test_space_graph_answers_false_where_the_pigeonhole_bound_is_negative(self, machine_file, many_states, capsys):
        args = ["measure", "--measure", "space", "--machine", machine_file(many_states), "--input", "a", "--graph", "-3"]
        assert main(args) == 0
        assert capsys.readouterr().out.strip() == "False"

    @pytest.mark.parametrize("cost", ["1_0", "+1", "\u0663", "-1_0", "-+1", "-"])
    def test_graph_mode_reads_its_cost_as_the_count_flags_do(self, machine_file, echo, cost, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--machine", machine_file(echo), "--input", "ab", f"--graph={cost}"])
        assert exc.value.code == 2
        assert "expected a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("measure", ["time", "space"])
    def test_graph_mode_rejects_an_input_outside_the_alphabet(self, machine_file, echo, measure, capsys):
        args = ["measure", "--measure", measure, "--machine", machine_file(echo), "--input", "zz", "--graph", "1"]
        assert main(args) == 1
        assert capsys.readouterr().err.strip() == "error: input symbol 'z' is not in the input alphabet"

    @pytest.mark.parametrize(
        "modes",
        [["--graph", "1", "--xi", "n"], ["--graph", "1", "--discriminate"], ["--xi", "n", "--discriminate"]],
    )
    def test_modes_are_mutually_exclusive(self, machine_file, echo, modes, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--machine", machine_file(echo), "--input", "a", *modes])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--graph", "1"]], ids=["evaluate", "graph"])
    @pytest.mark.parametrize("flag", ["--out", "--format"])
    def test_print_only_modes_reject_report_flags(self, machine_file, echo, mode, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--machine", machine_file(echo), "--input", "a", *mode, flag, str(out) if flag == "--out" else "jsonl"])
        assert exc.value.code == 2
        assert "writes no report" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, flags, message",
        [
            (["--graph", "1"], ["--fuel", "0", "--trials", "9", "--max-len", "7"], "the graph mode does not read --fuel, --trials, --max-len"),
            (["--xi", "n"], ["--input", "a", "--trials", "2"], "the xi mode does not read --input, --trials"),
            (["--discriminate"], ["--input", "a"], "the discriminate mode does not read --input"),
            ([], ["--input", "a", "--max-len", "3"], "the evaluate mode does not read --max-len"),
            (["--graph", "0"], ["--fuel", "5"], "the graph mode does not read --fuel"),
        ],
        ids=["graph", "xi", "discriminate", "evaluate", "graph-zero"],
    )
    def test_flags_the_mode_does_not_read_exit_two(self, machine_file, echo, mode, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--machine", machine_file(echo), *mode, *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_bound_check_prints_the_verdict(self, machine_file, echo, capsys):
        assert main(["measure", "--machine", machine_file(echo), "--xi", "n+5", "--max-len", "2"]) == 0
        assert capsys.readouterr().out.strip() == "in-bounds"

    @pytest.mark.parametrize("xi, message", MALFORMED_BOUNDS)
    def test_malformed_bound_exits_one(self, machine_file, echo, xi, message, capsys):
        assert main(["measure", "--machine", machine_file(echo), "--xi", xi]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    def test_discriminate_prints_the_delay(self, machine_file, echo, capsys):
        code = main(
            ["measure", "--machine", machine_file(echo), "--discriminate", "--trials", "3", "--max-len", "1"]
        )
        assert code == 0
        assert "witness: delay=2" in capsys.readouterr().out

    def test_discriminate_runs_no_candidate(self, machine_file, echo, runs, capsys):
        # echo halts on every input, so each delayed run is read off echo's.
        assert main(["measure", "--machine", machine_file(echo), "--discriminate", "--trials", "3", "--max-len", "2"]) == 0
        assert "witness: delay=2" in capsys.readouterr().out
        assert len(runs) == 7 and {m for m, _, _ in runs} == {echo}

    def test_discriminate_without_a_witness_exits_one(self, machine_file, echo, capsys):
        code = main(["measure", "--machine", machine_file(echo), "--discriminate", "--trials", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: no delay up to 0 raised the time cost on every tested input" in err
        assert "Traceback" not in err


class TestTraitCommands:
    def test_trait_prints_the_bare_verdict(self, machine_file, echo, capsys):
        assert main(["trait", "--name", "states:3", "--machine", machine_file(echo)]) == 0
        assert capsys.readouterr().out.strip() == "In"

    def test_trait_unknown_verdict(self, machine_file, looper, capsys):
        code = main(
            ["trait", "--name", "total-nonempty", "--machine", machine_file(looper), "--fuel", "30"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "Unknown"

    def test_bad_trait_name_exits_one(self, machine_file, echo, capsys):
        assert main(["trait", "--name", "bogus:3", "--machine", machine_file(echo)]) == 1

    @pytest.mark.parametrize("name", ["time-within:n:-1:5", "total-nonempty:-1:5", "and(states:4,echoes:2:-1)"])
    def test_negative_leaf_bounds_exit_one(self, machine_file, echo, name, capsys):
        assert main(["trait", "--name", name, "--machine", machine_file(echo)]) == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_deeply_nested_trait_exits_one(self, machine_file, echo, capsys):
        name = "not(" * 3000 + "states:3" + ")" * 3000
        assert main(["trait", "--name", name, "--machine", machine_file(echo)]) == 1
        assert "nests deeper" in capsys.readouterr().err

    def test_partition_prints_part_sizes(self, capsys):
        code = main(
            ["partition", "--name", "states:3", "--max-index", "30", "--probes", "1", "--max-len", "1", "--fuel", "50"]
        )
        assert code == 0
        assert "sem=0 syn=30 unknown=0" in capsys.readouterr().out

    def test_partition_report_has_a_witness_parameter_column(self, tmp_path):
        out = tmp_path / "partition.csv"
        argv = ["partition", "--name", "states:3", "--max-index", "3", "--probes", "1", "--max-len", "1", "--fuel", "50"]
        assert main([*argv, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows == ["index,verdict,part,witness_kind,witness_parameter", *(f"{n},In,syn,pad,1" for n in range(3))]

    def test_patch_decider_reports_zero_mismatches(self, capsys):
        code = main(["patch-decider", "--l1", "1,3,5", "--l2", "2,3", "--universe-max", "8"])
        assert code == 0
        assert "mismatches=0" in capsys.readouterr().out

    @pytest.mark.parametrize("l1", ["1,-3", "1, 3", "1,3.0"])
    def test_patch_decider_refuses_a_set_member_that_is_not_a_natural(self, l1, capsys):
        assert main(["patch-decider", "--l1", l1, "--l2", "2"]) == 1
        assert "expected a nonnegative integer" in capsys.readouterr().err

    def test_oracle_wiring_agrees_on_certified_entries(self, capsys):
        code = main(["prop3", "--max-index", "40", "--max-len", "1", "--fuel", "100"])
        assert code == 0
        assert "certified=8 agree=8" in capsys.readouterr().out


class TestContain:
    def test_contained_machine(self, machine_file, echo, policy_file, capsys):
        code = main(
            ["contain", "--machine", machine_file(echo), "--policy", policy_file, "--inputs", "a,ab,ba"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("contained")

    def test_leaky_machine_reports_trace_violations(self, machine_file, echo, policy_file, tmp_path, capsys):
        from traitbench.transforms import leaky_wrap

        leaky = machine_file(leaky_wrap(echo, "bb"), "leaky.tm")
        code = main(["contain", "--machine", leaky, "--policy", policy_file, "--inputs", "a,ab,ba"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "violated trace_violations=3 output_violations=0"
        assert sum("condition=trace" in line for line in lines) == 3

    def test_inputs_default_to_every_string_up_to_max_len(self, machine_file, echo, policy_file, capsys):
        from traitbench.transforms import leaky_wrap

        leaky = machine_file(leaky_wrap(echo, "bb"), "leaky.tm")
        assert main(["contain", "--machine", leaky, "--policy", policy_file, "--max-len", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # The seven inputs up to length 2 each leak bb, and echo's output on bb is bb.
        assert lines[-1] == "violated trace_violations=7 output_violations=1"
        assert sum("condition=trace" in line for line in lines) == 7

    @pytest.mark.parametrize("inputs", ["ab", ""])
    def test_the_inputs_mode_refuses_max_len(self, machine_file, echo, policy_file, inputs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["contain", "--machine", machine_file(echo), "--policy", policy_file, "--inputs", inputs, "--max-len", "3"])
        assert exc.value.code == 2
        assert "contain: the inputs mode does not read --max-len" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy",
        [
            {"unclassified_regex": "a*"},
            {"classified": "bb"},
            {"classified": [1]},
            {"classified": ["bb"], "unclassified_regex": "("},
            NESTED_REGEX_POLICY,
            pytest.param(NESTED_ARRAYS_TEXT, id="policy5"),
            pytest.param({"classified": ["bb"], "unclassified_regex": LONG_INVALID_REGEX}, id="long-invalid-regex"),
        ],
    )
    def test_invalid_policy_exits_one(self, machine_file, echo, tmp_path, policy, capsys):
        path = tmp_path / "bad.json"
        path.write_text(policy if isinstance(policy, str) else json.dumps(policy))
        assert main(["contain", "--machine", machine_file(echo), "--policy", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: policy {path}: ")
        assert len(err) < 200 and err.count("\n") == 1


class TestBlumCheck:
    def test_a_sweep_holds_one_decoded_machine_at_a_time(self, capsys):
        # Each machine is decoded when the sweep reaches it, and the indices,
        # which already ascend, are walked as they come: the sweep peaks near
        # 0.3 MB. A sorted copy of the 60,000 indices alone takes 2.3 MB.
        tracemalloc.start()
        try:
            assert main(["blum-check", "--max-index", "60000", "--max-len", "0", "--fuel", "3"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == "checked=60000 violations=0\n"
        assert peak < 2**20


class TestReportDeterminism:
    def test_blum_check_report_is_stable(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code = main(
                ["blum-check", "--measure", "time", "--max-index", "30", "--max-len", "1", "--fuel", "60", "--out", str(path)]
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        header = json.loads(outs[0].decode("utf-8").splitlines()[0].removeprefix("# "))
        assert "seed" not in header["config"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "traitbench" in capsys.readouterr().out

    def test_the_module_runs_as_a_script(self):
        # The package's parent directory goes first on the path, so the child imports this checkout.
        src = str(Path(traitbench.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "traitbench.cli", "--version"], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, f"traitbench {traitbench.__version__}\n")


# The command-line fuzz: every subcommand and every mode, with small sizes,
# over a fixed set of valid and malformed input files and texts. File names
# stand for files under the test's temporary directory; "missing" ones are
# never written.
FUZZ_FILES = {
    "echo.tm": format_machine(traitbench.fixtures.echo()),
    "looper.tm": format_machine(traitbench.fixtures.looper()),
    "padded.tm": format_machine(pad(traitbench.fixtures.echo(), 1)),
    "halting-start.tm": "states: 3\nstart: 1 accept: 1 reject: 2\ninput_alphabet: a\ntape_alphabet: a_\ndelta: 0 a -> 1 a R\ndelta: 0 _ -> 1 _ R\n",
    "banana.tm": "states: banana\n",
    "empty.tm": "",
    "bb.json": json.dumps({"classified": ["bb"]}),
    "regex.json": json.dumps({"classified": ["bb", "ab"], "unclassified_regex": "a*"}),
    "list.json": json.dumps(["bb"]),
    "empty.json": "",
    "nested-regex.json": json.dumps(NESTED_REGEX_POLICY),
    "nested-arrays.json": NESTED_ARRAYS_TEXT,
}
FUZZ_PATHS = {*FUZZ_FILES, "missing.tm", "missing.json", "out.report", "receipts.json"}

_machines = st.sampled_from(["echo.tm", "looper.tm", "padded.tm", "halting-start.tm", "banana.tm", "empty.tm", "missing.tm"])
_policies = st.sampled_from(["bb.json", "regex.json", "list.json", "empty.json", "nested-regex.json", "nested-arrays.json", "missing.json"])
_traits = st.sampled_from([
    "states:3", "echoes", "and(states:3,echoes)", "or(time-within:n+1,not(total-nonempty:2:50))",
    "time-within:table:3,4,5;default=7", "", "and(", "states:", "frob:1", "not(" * 200 + "echoes" + ")" * 200,
])
_bounds = st.sampled_from(["n+5", "2n+3", "7", "table:1,2;default=9", "n@n", *(text for text, _ in MALFORMED_BOUNDS)])
_malformed = st.sampled_from(["-1", "x", "", "+5", "1_0", "٣"])


def _count(top: int):
    """A count flag's value: up to top, or now and then one argparse must refuse."""
    return st.integers(0, 9).flatmap(lambda r: _malformed if r == 0 else st.integers(0, top).map(str))


def _one(values):
    return values.map(lambda value: [value])


# Per flag, the tokens that follow it; a switch has none.
FUZZ_VALUES = {
    "machine": _one(_machines), "other": _one(_machines), "reference": _one(_machines), "policy": _one(_policies),
    "name": _one(_traits), "xi": _one(_bounds), "measure": _one(st.sampled_from([*MEASURES, "nope"])),
    "input": _one(st.sampled_from(["", "a", "ab", "ba", "z", "_"])), "inputs": _one(st.sampled_from(["", "ab,,ba", "a,b", "z"])),
    "chi": _one(st.sampled_from(["bb", "ab", "", "z", "_"])), "l1": _one(st.sampled_from(["1,3,5", "", "x", "1,,2"])),
    "l2": _one(st.sampled_from(["3,4", "", "-1"])), "fuel": _one(_count(50)), "max_len": _one(_count(2)),
    "max_index": _one(_count(30)), "max": _one(_count(30)), "probes": _one(_count(2)), "trials": _one(_count(2)),
    "k": _one(_count(3)), "d": _one(_count(4)), "universe_max": _one(_count(10)),
    "show": _one(_count(10**12)), "unpair": _one(_count(10**12)), "pair": st.tuples(_count(99), _count(99)).map(list),
    "graph": _one(st.integers(-3, 50).map(str)), "validate": st.just([]), "discriminate": st.just([]),
    "out": st.just(["out.report"]), "format": _one(st.sampled_from(["csv", "jsonl", "xml"])), "receipts": st.just(["receipts.json"]),
}

# Per command without modes: the flags it always gets, then those it gets now and then.
FUZZ_COMMANDS = {
    "run": (("machine", "fuel"), ("input", "out", "format")),
    "trace": (("machine", "fuel"), ("input", "out", "format")),
    "equiv": (("machine", "other", "max_len", "fuel"), ("out", "format")),
    "canonicalize": (("machine", "out"), ()),
    "blum-check": (("max_index", "max_len", "fuel"), ("measure", "out", "format")),
    "trait": (("name", "machine", "max_len", "fuel"), ()),
    "partition": (("name", "max_index", "probes", "max_len", "fuel"), ("out", "format")),
    "patch-decider": (("l1", "l2", "universe_max"), ("out", "format")),
    "prop3": (("max_index", "max_len", "fuel"), ("out", "format")),
}
FUZZ_COMMANDS.update({command: (("machine", flag, "out"), ("receipts",)) for command, (_, flag, *_) in _REWRITES.items()})
_MODE_REQUIRED = {"measure": ("machine",), "contain": ("machine", "policy", "fuel")}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@st.composite
def command_lines(draw) -> list[str]:
    """A command line of any subcommand, in any of its modes, with some flags it does not read."""
    command = draw(st.sampled_from(sorted([*FUZZ_COMMANDS, *_MODES])))
    if command in FUZZ_COMMANDS:
        always, optional = FUZZ_COMMANDS[command]
        flags = [*always, *(flag for flag in optional if draw(st.booleans()))]
    else:
        defaults, modes = _MODES[command]
        mode = draw(st.sampled_from(sorted(modes)))
        reads, writes_report = modes[mode]
        unread = [flag for flag in defaults if flag not in reads] + ([] if writes_report else ["out", "format"])
        stray = [flag for flag in unread if draw(st.integers(0, 3)) == 0]
        report = ["out", "format"][: draw(st.integers(0, 2))] if writes_report else []
        flags = [*_MODE_REQUIRED.get(command, ()), *reads, *report, *stray]
        if mode in FUZZ_VALUES and (mode != list(modes)[-1] or draw(st.booleans())):
            flags.append(mode)
    argv = [command]
    for flag in dict.fromkeys(flags):
        argv += [_flag(flag), *draw(FUZZ_VALUES[flag])]
    return argv


class TestCommandTable:
    def test_the_fuzz_covers_every_subcommand(self):
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert {*FUZZ_COMMANDS, *_MODES} == set(commands)

    @example(argv=["contain", "--machine", "echo.tm", "--policy", "nested-regex.json", "--fuel", "5"])
    @example(argv=["contain", "--machine", "echo.tm", "--policy", "nested-arrays.json", "--fuel", "5"])
    @given(argv=command_lines())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_command_line_exits_zero_one_or_two(self, argv, tmp_path):
        for name, text in FUZZ_FILES.items():
            if not (tmp_path / name).exists():
                (tmp_path / name).write_text(text, "utf-8")
        argv = [str(tmp_path / token) if token in FUZZ_PATHS else token for token in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
        else:
            assert code in (0, 1)
