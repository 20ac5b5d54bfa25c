"""Core semantics: runs, tape classification, parsing, bounded equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench.fixtures import all_fixtures
from traitbench.machine import (
    EquivKind,
    MachineDescription,
    MachineError,
    ParseError,
    RunKind,
    UndefinedReason,
    equiv_bounded,
    format_machine,
    parse_machine,
    render_tape,
    run,
    strings_up_to,
    trace,
)
from util import canonical_machines


class TestRun:
    def test_echo_copies_its_input(self, echo):
        outcome = run(echo, "ab", 100)
        assert outcome.kind is RunKind.HALTED_OUTPUT
        assert outcome.output == "ab"
        assert outcome.steps == 1
        assert outcome.space == 1

    def test_echo_on_empty_input_halts_without_output(self, echo):
        outcome = run(echo, "", 100)
        assert outcome.kind is RunKind.HALTED_UNDEFINED
        assert outcome.reason is UndefinedReason.BLANK_TAPE
        assert outcome.output is None

    def test_looper_exhausts_fuel(self, looper):
        outcome = run(looper, "a", 50)
        assert outcome.kind is RunKind.FUEL_EXHAUSTED
        assert outcome.steps == 50
        assert outcome.output is None
        assert outcome.reason is None

    def test_eraser_blanks_the_tape(self, eraser):
        outcome = run(eraser, "ab", 100)
        assert outcome.kind is RunKind.HALTED_UNDEFINED
        assert outcome.reason is UndefinedReason.BLANK_TAPE
        assert (outcome.steps, outcome.space) == (4, 4)

    def test_marker_prepends_a_symbol(self, marker):
        assert run(marker, "", 100).output == "a"
        assert run(marker, "ab", 100).output == "aab"

    def test_space_counts_scanned_cells_not_final_landing(self, echo):
        # One transition fires, from the start cell; the landing cell is
        # never scanned by a rule.
        assert run(echo, "abab", 100).space == 1

    def test_rejects_input_outside_alphabet(self, echo):
        with pytest.raises(MachineError):
            run(echo, "xz", 100)

    def test_rejects_negative_fuel(self, echo):
        with pytest.raises(MachineError):
            run(echo, "a", -1)

    def test_zero_fuel_exhausts_immediately(self, echo):
        outcome = run(echo, "a", 0)
        assert outcome.kind is RunKind.FUEL_EXHAUSTED
        assert outcome.steps == 0

    def test_non_input_symbol_output_is_undefined(self):
        # Writes an uppercase working symbol and halts: tape content is
        # nonblank but not over the input alphabet.
        m = MachineDescription(
            state_count=3,
            start_state=0,
            accept_state=1,
            reject_state=2,
            input_alphabet=("a",),
            tape_alphabet=("a", "_", "A"),
            blank="_",
            transitions=(
                (0, "a", 1, "A", "R"),
                (0, "_", 1, "A", "R"),
                (0, "A", 1, "A", "R"),
            ),
        )
        outcome = run(m, "", 10)
        assert outcome.kind is RunKind.HALTED_UNDEFINED
        assert outcome.reason is UndefinedReason.NON_INPUT_SYMBOL

    @given(canonical_machines(), st.integers(0, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_runs_are_deterministic(self, m, length, seed):
        import random

        rng = random.Random(seed)
        sigma = "".join(rng.choice(m.input_alphabet) for _ in range(length))
        assert run(m, sigma, 100) == run(m, sigma, 100)

    @given(canonical_machines(), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_space_never_exceeds_steps_plus_start_cell(self, m, fuel):
        outcome = run(m, m.input_alphabet[0], fuel)
        assert 1 <= outcome.space <= outcome.steps + 1
        assert outcome.steps <= fuel


class TestTrace:
    def test_trace_length_matches_step_count(self, eraser):
        outcome = run(eraser, "ab", 100)
        configs = trace(eraser, "ab", 100)
        assert len(configs) == outcome.steps + 1
        assert configs[0].state == eraser.start_state
        assert configs[0].head == 0
        assert configs[-1].state == eraser.accept_state

    def test_rejects_negative_fuel(self, echo):
        with pytest.raises(MachineError):
            trace(echo, "a", -1)

    def test_zero_fuel_gives_the_start_configuration_only(self, eraser):
        configs = trace(eraser, "ab", 0)
        assert [(c.state, c.head, dict(c.tape)) for c in configs] == [(eraser.start_state, 0, {1: "a", 2: "b"})]

    def test_render_tape_shows_contiguous_nonblank_extent(self, eraser):
        configs = trace(eraser, "ab", 100)
        assert render_tape(configs[0]) == "ab"
        assert render_tape(configs[-1]) == ""

    def test_render_tape_bridges_interior_blanks(self, marker):
        # Marker writes 'a' at the start cell next to the input, so content
        # stays contiguous; check a gap renders as a blank instead.
        from traitbench.machine import Configuration

        config = Configuration(state=0, head=0, tape={0: "a", 2: "b"})
        assert render_tape(config) == "a_b"


class TestStringsUpTo:
    def test_orders_by_length_then_lexicographically(self):
        got = list(strings_up_to(("a", "b"), 2))
        assert got == ["", "a", "b", "aa", "ab", "ba", "bb"]

    def test_single_letter_alphabet(self):
        assert list(strings_up_to(("a",), 3)) == ["", "a", "aa", "aaa"]


class TestEquivBounded:
    def test_echo_agrees_with_itself(self, echo):
        verdict = equiv_bounded(echo, echo, 2, 100)
        assert verdict.kind is EquivKind.AGREE
        assert verdict.witness is None

    def test_echo_differs_from_eraser_on_first_nonempty_input(self, echo, eraser):
        verdict = equiv_bounded(echo, eraser, 2, 100)
        assert verdict.kind is EquivKind.DIFFER
        assert verdict.witness == "a"

    def test_looper_is_inconclusive_from_the_empty_input(self, echo, looper):
        verdict = equiv_bounded(echo, looper, 2, 100)
        assert verdict.kind is EquivKind.INCONCLUSIVE
        assert verdict.witness == ""

    def test_one_sided_fuel_exhaustion_never_separates(self, echo, looper):
        # The looper side is unsettled everywhere, so no Differ verdict may
        # be issued even though echo halts with output on nonempty inputs.
        assert equiv_bounded(looper, echo, 3, 60).kind is EquivKind.INCONCLUSIVE

    def test_alphabet_mismatch_is_an_error(self, echo):
        other = MachineDescription(
            state_count=3,
            start_state=0,
            accept_state=1,
            reject_state=2,
            input_alphabet=("a",),
            tape_alphabet=("a", "_"),
            blank="_",
            transitions=((0, "a", 1, "a", "R"), (0, "_", 1, "_", "R")),
        )
        with pytest.raises(MachineError):
            equiv_bounded(echo, other, 2, 100)


class TestParseFormat:
    def test_fixture_files_round_trip(self):
        for m in all_fixtures().values():
            assert parse_machine(format_machine(m)) == m

    @given(canonical_machines())
    @settings(max_examples=80, deadline=None)
    def test_format_parse_round_trip(self, m):
        assert parse_machine(format_machine(m)) == m

    def test_comments_and_blank_lines_are_ignored(self, echo):
        text = "# header comment\n\n" + format_machine(echo) + "\n# trailing\n"
        assert parse_machine(text) == echo

    def test_missing_rule_reports_state_and_symbol(self):
        text = (
            "states: 3\n"
            "start: 0\naccept: 1\nreject: 2\n"
            "input_alphabet: a\n"
            "tape_alphabet: a_\n"
            "delta: 0 a -> 1 a R\n"
        )
        with pytest.raises(MachineError, match=r"state 0.*'_'"):
            parse_machine(text)

    def test_malformed_line_reports_its_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_machine("states: 3\nnot a directive\n")

    def test_duplicate_rule_rejected(self):
        text = (
            "states: 3\n"
            "start: 0\naccept: 1\nreject: 2\n"
            "input_alphabet: a\n"
            "tape_alphabet: a_\n"
            "delta: 0 a -> 1 a R\n"
            "delta: 0 a -> 2 a R\n"
            "delta: 0 _ -> 1 _ R\n"
        )
        with pytest.raises(MachineError):
            parse_machine(text)


class TestValidation:
    def test_accept_equal_reject_rejected(self):
        with pytest.raises(MachineError):
            MachineDescription(
                state_count=3,
                start_state=0,
                accept_state=1,
                reject_state=1,
                input_alphabet=("a",),
                tape_alphabet=("a", "_"),
                blank="_",
                transitions=((0, "a", 1, "a", "R"), (0, "_", 1, "_", "R")),
            )

    def test_blank_in_input_alphabet_rejected(self):
        with pytest.raises(MachineError):
            MachineDescription(
                state_count=3,
                start_state=0,
                accept_state=1,
                reject_state=2,
                input_alphabet=("_",),
                tape_alphabet=("_",),
                blank="_",
                transitions=((0, "_", 1, "_", "R"),),
            )

    def test_rule_from_halting_state_rejected(self):
        with pytest.raises(MachineError):
            MachineDescription(
                state_count=3,
                start_state=0,
                accept_state=1,
                reject_state=2,
                input_alphabet=("a",),
                tape_alphabet=("a", "_"),
                blank="_",
                transitions=(
                    (0, "a", 1, "a", "R"),
                    (0, "_", 1, "_", "R"),
                    (1, "a", 1, "a", "R"),
                ),
            )
