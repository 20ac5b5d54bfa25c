"""Command-line behavior: exit codes, printed verdicts, report files."""

import json

import pytest

from traitbench.cli import main
from traitbench.enumeration import decode
from traitbench.machine import format_machine, parse_machine


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

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["equiv", "--machine", "x"])  # --other is required
        assert info.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

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

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_negative_fuel_exits_one(self, machine_file, echo, command, capsys):
        assert main([command, "--machine", machine_file(echo), "--input", "ab", "--fuel", "-5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_trace_prints_each_configuration(self, machine_file, eraser, capsys):
        assert main(["trace", "--machine", machine_file(eraser), "--input", "ab"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("step=0")


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

    @pytest.mark.parametrize(
        "modes",
        [["--pair", "1", "2", "--show", "3"], ["--validate", "--reference", "m.tm"], ["--show", "1", "--unpair", "5"]],
    )
    def test_modes_are_mutually_exclusive(self, modes, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", *modes])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


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

    def test_bound_check_prints_the_verdict(self, machine_file, echo, capsys):
        assert main(["measure", "--machine", machine_file(echo), "--xi", "n+5", "--max-len", "2"]) == 0
        assert capsys.readouterr().out.strip() == "in-bounds"

    def test_discriminate_prints_the_delay(self, machine_file, echo, capsys):
        code = main(
            ["measure", "--machine", machine_file(echo), "--discriminate", "--trials", "3", "--max-len", "1"]
        )
        assert code == 0
        assert "witness: delay=2" in capsys.readouterr().out


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

    def test_patch_decider_reports_zero_mismatches(self, capsys):
        code = main(["patch-decider", "--l1", "1,3,5", "--l2", "2,3", "--universe-max", "8"])
        assert code == 0
        assert "mismatches=0" in capsys.readouterr().out

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


    @pytest.mark.parametrize(
        "policy",
        [{"unclassified_regex": "a*"}, {"classified": "bb"}, {"classified": [1]}, {"classified": ["bb"], "unclassified_regex": "("}],
    )
    def test_invalid_policy_exits_one(self, machine_file, echo, tmp_path, policy, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(policy))
        assert main(["contain", "--machine", machine_file(echo), "--policy", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
