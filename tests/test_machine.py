"""Core semantics: runs, tape classification, parsing, bounded equivalence."""

import itertools
import pickle
import pydoc
import re
import string
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traitbench import machine
from traitbench.enumeration import decode, encode, index_set_bounded
from traitbench.fixtures import FIXTURE_NAMES, all_fixtures, load_fixture
from traitbench.machine import (
    Configuration,
    EquivKind,
    MachineDescription,
    MachineError,
    ParseError,
    RunKind,
    RunOutcome,
    UndefinedReason,
    equiv_bounded,
    format_machine,
    parse_machine,
    render_tape,
    run,
    strings_up_to,
    trace,
)
from traitbench.measures import parse_bound, time_measure, usage_within_bound
from traitbench.transforms import delay_inject, leaky_wrap, pad
from util import canonical_machines, machine_from_rules, noncanonical_machines, reference_configs, reference_run, reference_validate, unvalidated_machine


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

    def test_output_skips_interior_blanks(self):
        # Halts on tape a_b: the output joins the non-blank cells.
        m = machine_from_rules("0 _ -> 1 _ R", "1 a -> 2 a R", "2 b -> 3 _ R", "3 _ -> 4 b R", working=4)
        outcome = run(m, "ab", 10)
        assert render_tape(trace(m, "ab", 10)[-1]) == "a_b"
        assert (outcome.kind, outcome.output, outcome.steps) == (RunKind.HALTED_OUTPUT, "ab", 4)

    def test_marker_prepends_a_symbol(self, marker):
        assert run(marker, "", 100).output == "a"
        assert run(marker, "ab", 100).output == "aab"

    def test_space_counts_scanned_cells_not_final_landing(self, echo):
        # One transition fires, from the start cell; the landing cell is
        # never scanned by a rule.
        assert run(echo, "abab", 100).space == 1

    def test_rejects_input_outside_alphabet(self, echo):
        # The message names the first symbol at fault.
        with pytest.raises(MachineError, match="^input symbol 'x' is not in the input alphabet$"):
            run(echo, "abxz", 100)

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

    def test_a_machine_keeps_its_field_storage_after_its_first_run(self):
        # A run reads the rule index from its header's memo and writes
        # nothing to the machine, so it pickles as it did before, and a copy
        # made from the pickle finds the index every machine of its header
        # shares.
        ran = decode(100000)
        fields, pickled = dict(vars(ran)), pickle.dumps(ran)
        run(ran, "a", 5)
        assert vars(ran) == fields and pickle.dumps(ran) == pickled
        copy = pickle.loads(pickled)
        assert copy == ran
        assert copy.rule_index is ran.rule_index is decode(100000 + 1).rule_index
        assert ran.rule_map == {(q, s): (q2, w, mv) for q, s, q2, w, mv in ran.transitions}

    def test_help_on_the_class_lists_the_rule_map(self):
        # Both tables are read-only properties, listed with their docstrings.
        text = pydoc.render_doc(MachineDescription, renderer=pydoc.plaintext)
        properties = text[text.index("Readonly properties defined here:"):]
        assert "rule_index\n" in properties and "rule_map\n" in properties

    @given(st.one_of(
        canonical_machines(),
        noncanonical_machines(),
        canonical_machines().map(lambda m: pad(m, 2)),
        canonical_machines().map(lambda m: delay_inject(m, 4)),
        canonical_machines().map(lambda m: leaky_wrap(m, "aa")),
    ))
    @settings(max_examples=80, deadline=None)
    def test_the_rule_index_finds_each_rule(self, m):
        index = m.rule_index
        assert len(index) == len(m.transitions)
        for q in m.working_states():
            for s in m.tape_alphabet:
                assert m.transitions[index[q, s]][:2] == (q, s)

    def test_machines_with_one_header_share_one_rule_index(self, echo):
        a, b = decode(71512), decode(71512 + 123456)
        assert a.transitions != b.transitions
        assert a.rule_index is b.rule_index
        assert pad(echo, 2).rule_index is pad(echo, 2).rule_index
        assert echo.rule_index is not pad(echo, 2).rule_index

    def test_runs_stay_exact_once_the_header_memo_evicts(self, echo):
        # Each pad adds a state, so the 70 machines have 70 headers, more
        # than the memo holds; the second round finds every one evicted.
        machines = [pad(echo, k) for k in range(1, 71)]
        assert len(machines) > machine._INDICES_REMEMBERED
        for _ in range(2):
            for m in machines:
                for sigma in strings_up_to(m.input_alphabet, 2):
                    _, kind, steps, space, output, reason, lo = reference_run(m, sigma, 20)
                    outcome = run(m, sigma, 20)
                    assert (outcome.kind, outcome.steps, outcome.space, outcome.output, outcome.reason, outcome.lo) == (kind, steps, space, output, reason, lo)
                index = m.rule_index
                assert all(m.transitions[index[q, s]][:2] == (q, s) for q, s, *_ in m.transitions)
        assert machine._header_tables.cache_info().currsize <= machine._INDICES_REMEMBERED


class TestSharedOutcomes:
    def test_equal_outcomes_of_different_machines_are_one_object(self, echo, looper):
        assert pad(echo, 2) != echo and pad(looper, 1) != looper
        assert run(echo, "ab", 100) is run(pad(echo, 2), "ab", 100)
        assert run(echo, "", 100) is run(pad(echo, 2), "", 100)
        assert run(looper, "a", 50) is run(pad(looper, 1), "a", 50)

    @pytest.mark.parametrize(
        "rules, sigma, fuel, kind",
        [
            pytest.param(("0 _ -> 1 _ R", "1 a -> 3 a R"), "a", 10, RunKind.HALTED_OUTPUT, id="halted-output"),
            pytest.param(("0 _ -> 1 _ R", "1 a -> 3 _ R"), "a", 10, RunKind.HALTED_UNDEFINED, id="halted-undefined"),
            pytest.param(("0 _ -> 1 _ R", "1 a -> 0 a L"), "a", 0, RunKind.FUEL_EXHAUSTED, id="fuel-zero"),
            pytest.param(("0 _ -> 1 _ R", "1 a -> 0 a L"), "a", 10**9, RunKind.FUEL_EXHAUSTED, id="exact-repeat"),
            pytest.param(("0 _ -> 0 _ R", "0 a -> 0 a R"), "a", 10**9, RunKind.FUEL_EXHAUSTED, id="runaway"),
        ],
    )
    def test_every_exit_returns_enum_members(self, rules, sigma, fuel, kind):
        outcome = run(machine_from_rules(*rules), sigma, fuel)
        assert type(outcome) is RunOutcome
        assert type(outcome.kind) is RunKind and outcome.kind is kind
        assert outcome.reason is None or type(outcome.reason) is UndefinedReason

    def test_the_outcome_memo_stays_within_its_size(self, looper):
        size = machine._OUTCOMES_REMEMBERED
        # The looper runs to each fuel, a distinct outcome per fuel.
        outcomes = {run(looper, "a", fuel) for fuel in range(2 * size)}
        assert len(outcomes) == 2 * size
        info = machine._shared_outcome.cache_info()
        assert info.maxsize == size and info.currsize <= size


class TestCertifiedDivergence:
    """run fast-forwards certified runs; each outcome must still be exact.

    Each case is compared with the reference stepper, which steps to the
    fuel, and the huge fuels would not return if the run were stepped.
    """

    @staticmethod
    def assert_matches_reference(m, sigma, fuels=range(40)):
        for fuel in fuels:
            _, kind, steps, space, output, reason, lo = reference_run(m, sigma, fuel)
            outcome = run(m, sigma, fuel)
            assert (outcome.kind, outcome.steps, outcome.space, outcome.output, outcome.reason, outcome.lo) == (
                kind, steps, space, output, reason, lo
            ), fuel

    # Runaways: translated cyclers whose period equals their drift, so the
    # window behind the earlier record is empty.

    def test_left_runaway(self):
        m = machine_from_rules("0 _ -> 1 _ L", "1 _ -> 0 a L")
        for sigma in ("", "ab"):
            self.assert_matches_reference(m, sigma)
            outcome = run(m, sigma, 10**12)
            # The jump moves lo by what it grows: the last step is taken on cell 1 - 10**12.
            assert (outcome.kind, outcome.steps, outcome.space, outcome.lo) == (RunKind.FUEL_EXHAUSTED, 10**12, 10**12, 1 - 10**12)

    def test_right_runaway_crosses_its_input_first(self):
        # The blank rule of state 0 runs away, but a 'b' on the input halts:
        # the certificate must wait until the head is past the input.
        m = machine_from_rules("0 _ -> 0 _ R", "0 a -> 0 a R", "0 b -> 3 b R")
        halted = run(m, "ab", 10**12)
        assert (halted.output, halted.steps) == ("ab", 3)
        for sigma in ("", "a", "aa", "ab", "ba"):
            self.assert_matches_reference(m, sigma)
        outcome = run(m, "aa", 10**12)
        assert (outcome.kind, outcome.steps, outcome.space) == (RunKind.FUEL_EXHAUSTED, 10**12, 10**12)

    @pytest.mark.parametrize(
        "rules, output",
        [
            # Writes two cells going right, then turns back and accepts: the
            # blank chain from state 1 loops (1 -> 0 -> 1) but moves left.
            (("0 _ -> 1 a R", "1 _ -> 0 a L", "0 a -> 3 a R"), "aa"),
            # Moves outward through three fresh states, then halts.
            (("0 _ -> 1 a R", "1 _ -> 2 a R", "2 _ -> 3 a R"), "aaa"),
        ],
    )
    def test_blank_chain_that_turns_back_or_halts_is_not_certified(self, rules, output):
        m = machine_from_rules(*rules)
        assert run(m, "", 10**12).output == output
        self.assert_matches_reference(m, "")

    def test_cycle_after_a_preperiod(self):
        # Walks over the input, then bounces between its last cell and the
        # blank after it: preperiod 3 and period 2 on "aa", 4 cells scanned.
        m = machine_from_rules("0 _ -> 1 _ R", "1 a -> 1 a R", "1 _ -> 2 _ L", "2 a -> 1 a R")
        self.assert_matches_reference(m, "aa")
        outcome = run(m, "aa", 10**12)
        assert (outcome.kind, outcome.steps, outcome.space) == (RunKind.FUEL_EXHAUSTED, 10**12, 4)

    # Translated cyclers: from a record break the run repeats, shifted, every
    # 4 steps. Each writes 'a' on a fresh cell, writes on the next one, steps
    # back over the 'a' and walks on: 2 cells per period.

    def test_right_translated_cycler_that_steps_back_over_what_it_wrote(self):
        # Certified at step 8 against the snapshot at step 4.
        m = machine_from_rules("0 _ -> 1 a R", "1 _ -> 2 b L", "2 a -> 0 a R", "0 b -> 0 b R")
        self.assert_matches_reference(m, "", range(60))
        self.assert_matches_reference(m, "a", range(10))
        # The head is at 2k on step 4k and at 2k + 1 on step 4k + 1.
        assert reference_run(m, "", 400)[3] == 200
        outcome = run(m, "", 10**12)
        assert (outcome.kind, outcome.steps, outcome.space) == (RunKind.FUEL_EXHAUSTED, 10**12, 10**12 // 2)

    def test_left_translated_cycler(self):
        m = machine_from_rules("0 _ -> 1 a L", "1 _ -> 2 b R", "2 a -> 0 a L", "0 b -> 0 b L")
        for sigma in ("", "ab"):
            self.assert_matches_reference(m, sigma, range(60))
            assert reference_run(m, sigma, 400)[3] == 200
            outcome = run(m, sigma, 10**12)
            assert (outcome.kind, outcome.steps, outcome.space, outcome.lo) == (RunKind.FUEL_EXHAUSTED, 10**12, 10**12 // 2, 1 - 10**12 // 2)

    def test_translated_cycler_that_must_first_cross_its_input(self):
        # State 0 walks right over 'a' and halts on 'b'. Its records inside
        # the input repeat with period 1, so the certificate must wait until
        # the head is past the input, where the cycle of period 4 begins.
        m = machine_from_rules("0 _ -> 1 a R", "1 _ -> 2 a L", "1 a -> 2 a L", "2 a -> 0 a R", "0 a -> 0 a R")
        for sigma in ("aab", "aaab", "aaaab"):
            assert run(m, sigma, 10**12).halted
            self.assert_matches_reference(m, sigma, range(30))
        for sigma in ("", "a", "aa", "aaaa"):
            self.assert_matches_reference(m, sigma, range(60))
        # From step 5 on "aa" the head is at 2k + 3 on step 4k + 5 and at
        # 2k + 4 on step 4k + 6.
        assert reference_run(m, "aa", 400)[3] == 201
        outcome = run(m, "aa", 10**12)
        assert (outcome.kind, outcome.steps, outcome.space) == (RunKind.FUEL_EXHAUSTED, 10**12, 10**12 // 2 + 1)

    def test_bouncer_whose_sweep_widens_is_not_certified(self):
        # Sweeps right over its 'a's, appends one, sweeps back to the blank at
        # cell -1 and turns. Successive right records match everywhere except
        # at the far end of the sweep: the window must reach cell -1.
        m = machine_from_rules("0 a -> 0 a R", "0 _ -> 1 a L", "1 a -> 1 a L", "1 _ -> 0 _ R")
        for sigma in ("", "a", "aa"):
            self.assert_matches_reference(m, sigma, range(200))

    def test_looper_fast_forwards_to_a_huge_fuel(self, looper):
        outcome = run(looper, "ab", 10**12)
        assert (outcome.kind, outcome.steps, outcome.space) == (RunKind.FUEL_EXHAUSTED, 10**12, 10**12)


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

    def test_steps_through_runs_the_certificates_would_end(self, looper):
        # A runaway and a two-cell rocker: run fast-forwards both, but the
        # trace must hold every configuration up to the fuel.
        rocker = machine_from_rules("0 _ -> 1 _ R", "1 _ -> 0 _ L")
        assert [c.head for c in trace(looper, "ab", 50)] == list(range(51))
        assert [c.head for c in trace(rocker, "", 50)] == [0, 1] * 25 + [0]

    def test_zero_fuel_gives_the_start_configuration_only(self, eraser):
        configs = trace(eraser, "ab", 0)
        assert [(c.state, c.head, dict(c.tape)) for c in configs] == [(eraser.start_state, 0, {1: "a", 2: "b"})]

    def test_snapshots_match_the_reference_tapes(self):
        # On aba: erase the leftmost and the rightmost cell, write past the
        # right end, rewrite across the blank gaps, then write past the left
        # end. Steps 1, 3, 5, 7 and 11 write a blank off the tape or a cell's
        # own symbol, so they change nothing.
        m = machine_from_rules(
            "0 _ -> 1 _ R", "1 a -> 2 _ R", "2 b -> 3 b R", "3 a -> 4 _ R", "4 _ -> 5 _ R", "5 _ -> 6 a L",
            "6 _ -> 7 _ L", "7 _ -> 8 b L", "8 b -> 9 _ L", "9 _ -> 10 a L", "10 _ -> 11 _ L", "11 _ -> 12 b R",
            working=12,
        )
        configs = trace(m, "aba", 100)
        expected = [tape for _, _, tape in reference_configs(m, "aba")]
        assert len(configs) == len(expected) == 13
        for config, tape in zip(configs, expected):
            assert dict(config.tape) == tape
            assert repr(config.tape) == repr(dict(config.tape))
            assert config.tape == tape and tape == config.tape
            assert list(config.tape) == sorted(tape)
            assert len(config.tape) == len(tape)
            for cell in range(-3, 8):
                assert (cell in config.tape) == (cell in tape)
                assert config.tape.get(cell) == tape.get(cell)
                assert config.tape.get(cell, "_") == tape.get(cell, "_")
            assert render_tape(config) == render_tape(Configuration(config.state, config.head, tape))
        assert render_tape(configs[-1]) == "b_a_b_a"
        shared = [step for step in range(1, len(configs)) if configs[step].tape is configs[step - 1].tape]
        assert shared == [1, 3, 5, 7, 11]

    def test_trace_memory_grows_per_step_not_per_cell(self, looper):
        # A runaway writer fills one more cell each step, so a trace of fuel
        # 20,000 reads about 20,000**2 / 2 cells: 200 MB as a str per step,
        # but its snapshots share one list, so it costs about 230 B a step,
        # most of it the Configuration and the snapshot. The left writer's
        # list is copied with room to spare whenever its room runs out. The
        # looper changes no symbol, so its 100,001 configurations share one
        # tape and cost what a Configuration itself costs (13 MB without slots).
        right = machine_from_rules("0 a -> 0 a R", "0 b -> 0 a R", "0 _ -> 0 a R", working=1)
        left = machine_from_rules("0 a -> 0 a L", "0 b -> 0 b L", "0 _ -> 0 b L", working=1)
        for m, fuel, bound_per_step in ((right, 20000, 300), (left, 20000, 300), (looper, 100000, 110)):
            tracemalloc.start()
            try:
                configs = trace(m, "ab", fuel)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(configs) == fuel + 1
            assert peak < bound_per_step * fuel
            del configs

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(-8, 10), st.sampled_from("ab_")), max_size=40))
    @settings(max_examples=300, deadline=None)
    @example([(0, 3, "a"), (0, 3, "b")])
    @example([(0, 0, "a"), (1, -1, "b"), (1, -1, "a")])
    def test_a_write_through_any_snapshot_changes_no_other(self, writes):
        # Snapshots share their lists of cells. Each write goes through some
        # earlier snapshot, often an older view: one that no longer ends at
        # its list's end (the first example: cell 3 is written twice from
        # the input's tape) or no longer starts at its lowest cell (the
        # second: cell -1 is written twice from the tape that grew left to
        # cell 0). Such a write must copy, so every snapshot keeps its tape.
        tapes = [(trace(machine_from_rules(), "ab", 0)[0].tape, {1: "a", 2: "b"})]
        for pick, cell, symbol in writes:
            snapshot, tape = tapes[pick % len(tapes)]
            tape = {c: s for c, s in {**tape, cell: symbol}.items() if s != "_"}
            tapes.append((snapshot.write(cell, symbol), tape))
            for snapshot, tape in tapes:
                assert dict(snapshot) == tape
                content = "".join(tape.get(c, "_") for c in range(min(tape), max(tape) + 1)) if tape else ""
                assert snapshot.cells == content
                if tape:
                    assert snapshot.base == min(tape)

    def test_render_tape_shows_contiguous_nonblank_extent(self, eraser):
        configs = trace(eraser, "ab", 100)
        assert render_tape(configs[0]) == "ab"
        assert render_tape(configs[-1]) == ""
        assert render_tape(Configuration(configs[-1].state, configs[-1].head, {})) == ""

    def test_render_tape_bridges_interior_blanks(self, marker):
        # Marker writes 'a' at the start cell next to the input, so content
        # stays contiguous; check a gap renders as a blank instead.
        config = Configuration(state=0, head=0, tape={0: "a", 2: "b"})
        assert render_tape(config) == "a_b"


class TestStringsUpTo:
    def test_orders_by_length_then_lexicographically(self):
        got = list(strings_up_to(("a", "b"), 2))
        assert got == ["", "a", "b", "aa", "ab", "ba", "bb"]

    def test_single_letter_alphabet(self):
        assert list(strings_up_to(("a",), 3)) == ["", "a", "aa", "aaa"]

    @pytest.mark.parametrize("given_as", [str, tuple, list, set])
    def test_every_alphabet_size_yields_the_product_order(self, given_as):
        # Letters given out of order, 0 to 10 of them, in each container a
        # caller may pass; each sweep is asked for twice, so the second comes
        # from the memo.
        for size in range(11):
            letters = "jihgfedcba"[10 - size :]
            alphabet = given_as(letters) if given_as is not str else letters
            for max_len in range(4):
                expected = ["".join(combo) for length in range(max_len + 1) for combo in itertools.product(sorted(letters), repeat=length)]
                assert list(strings_up_to(alphabet, max_len)) == expected
                assert list(strings_up_to(alphabet, max_len)) == expected

    def test_iterators_from_equal_arguments_are_independent(self):
        first, second = strings_up_to("ab", 2), strings_up_to(("b", "a"), 2)
        assert [next(first), next(first), next(first)] == ["", "a", "b"]
        assert list(second) == ["", "a", "b", "aa", "ab", "ba", "bb"]
        assert list(first) == ["aa", "ab", "ba", "bb"]

    def test_a_sweep_above_the_cap_is_generated_and_not_kept(self, monkeypatch):
        # 10 letters up to length 5 are 111,111 strings of 555,550 symbols,
        # past the memo's cap; up to length 2 they are 111 strings of 210.
        monkeypatch.setattr(machine, "_sweeps", {(("a",), 1): ("", "a")})
        expected = ["".join(combo) for length in range(6) for combo in itertools.product("abcdefghij", repeat=length)]
        assert list(strings_up_to("jihgfedcba", 5)) == expected
        assert machine._sweeps == {(("a",), 1): ("", "a")}
        assert list(strings_up_to("jihgfedcba", 2)) == expected[:111]
        assert list(machine._sweeps) == [(("a",), 1), (tuple("abcdefghij"), 2)]

    def test_the_memo_drops_its_oldest_sweep_first(self, monkeypatch):
        monkeypatch.setattr(machine, "_sweeps", {})
        alphabets = ["".join(letters) for letters in itertools.combinations("abcdefgh", 3)][: machine._SWEEPS_REMEMBERED + 1]
        for alphabet in alphabets:
            assert list(strings_up_to(alphabet, 1)) == ["", *alphabet]
        assert len(machine._sweeps) == machine._SWEEPS_REMEMBERED
        assert list(machine._sweeps) == [(tuple(alphabet), 1) for alphabet in alphabets[1:]]

    def test_a_negative_max_len_is_refused_at_the_call(self):
        with pytest.raises(MachineError, match="max_len must be nonnegative"):
            strings_up_to("ab", -1)

    def test_a_negative_max_len_is_refused_before_any_run(self, echo, monkeypatch):
        # Every sweep draws its inputs from strings_up_to, so each refuses a
        # negative max_len as run refuses a negative fuel, not answering over
        # zero inputs.
        def no_run(*args, **kwargs):
            raise AssertionError("a run was made")

        monkeypatch.setattr(machine, "_simulate", no_run)
        sweeps = [
            lambda: equiv_bounded(echo, echo, -1, 10),
            lambda: index_set_bounded(decode(48), 300, -1, 10),
            lambda: usage_within_bound(echo, time_measure(), parse_bound("n"), -1, 10),
        ]
        for sweep in sweeps:
            with pytest.raises(MachineError, match="max_len must be nonnegative"):
                sweep()


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


# Six header lines, so the rules start at line 7; TOTAL is a total table.
HEADER = "states: 4\nstart: 0\naccept: {accept}\nreject: {reject}\ninput_alphabet: a\ntape_alphabet: a_\n"
TOTAL = ("0 a -> 1 a R", "0 _ -> 1 _ R", "1 a -> 2 a R", "1 _ -> 2 _ R")


def constructor_message(rules, accept=2, reject=3):
    """The message MachineDescription raises for the machine the text describes."""
    transitions = tuple((int(q), s, int(q2), w, mv) for q, s, _, q2, w, mv in (rule.split() for rule in rules))
    with pytest.raises(MachineError) as info:
        MachineDescription(4, 0, accept, reject, ("a",), ("a", "_"), "_", transitions)
    return str(info.value)


ROLES = "states: 3\nstart: 0   accept: 1   reject: 2\n"
ALPHABETS = ROLES + "input_alphabet: a\ntape_alphabet: a_\n"


class TestParseFormat:
    def test_fixture_files_round_trip(self):
        for m in all_fixtures().values():
            assert parse_machine(format_machine(m)) == m

    def test_an_unknown_fixture_name_lists_the_known_ones(self):
        with pytest.raises(KeyError, match=re.escape(f"unknown fixture 'nope', expected one of {FIXTURE_NAMES}")):
            load_fixture("nope")

    @given(canonical_machines())
    @settings(max_examples=80, deadline=None)
    def test_format_parse_round_trip(self, m):
        assert parse_machine(format_machine(m)) == m

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_printable_symbols_round_trip_or_are_refused(self, data):
        symbols = data.draw(st.lists(st.sampled_from(string.printable.replace("_", "")), unique=True, max_size=5))
        gamma = (*symbols, "_")
        sigma = tuple(sym for sym in symbols if data.draw(st.booleans()))
        states = data.draw(st.integers(3, 4))
        rule = st.tuples(st.integers(0, states - 1), st.sampled_from(gamma), st.sampled_from("LR"))
        transitions = tuple((q, s, *data.draw(rule)) for q in range(states - 2) for s in gamma)
        m = MachineDescription(states, 0, states - 2, states - 1, sigma, gamma, "_", transitions)
        try:
            text = format_machine(m)
        except MachineError:
            assert any(sym.isspace() or sym == "#" for sym in gamma)
        else:
            assert parse_machine(text) == m

    def test_a_blank_other_than_underscore_is_refused(self):
        m = MachineDescription(3, 0, 1, 2, ("a",), ("a", "."), ".", ((0, "a", 1, "a", "R"), (0, ".", 1, ".", "R")))
        with pytest.raises(MachineError, match="reserves '_' for the blank symbol"):
            format_machine(m)

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

    @pytest.mark.parametrize(
        "rules, line",
        [
            pytest.param((*TOTAL[:2], "0 a -> 2 a L", *TOTAL[2:]), 9, id="duplicate"),
            # The rule that sorts second, where the duplicate is found, is on the earlier line.
            pytest.param(("0 a -> 2 a L", TOTAL[1], TOTAL[0], *TOTAL[2:]), 9, id="duplicate-sorting-second-listed-first"),
            pytest.param((TOTAL[0], TOTAL[1], TOTAL[0], *TOTAL[2:]), 9, id="duplicate-identical"),
            # A faulty rule that sorts first is named at its own line, not at its duplicate's.
            pytest.param(("0 a -> 0 a X", TOTAL[1], TOTAL[0], *TOTAL[2:]), 7, id="bad-move-with-a-duplicate"),
            pytest.param(("2 a -> 1 a R", *TOTAL), 7, id="halting-state"),
            pytest.param((TOTAL[0], "0 _ -> 9 _ R", *TOTAL[2:]), 8, id="state-out-of-range"),
            pytest.param((*TOTAL[:2], "1 a -> 2 b R", TOTAL[3]), 9, id="written-symbol-outside-tape"),
            pytest.param((*TOTAL[:2], "1 b -> 2 a R", TOTAL[3]), 9, id="read-symbol-outside-tape"),
            pytest.param((TOTAL[0], "0 _ -> 1 _ X", *TOTAL[2:]), 8, id="bad-move"),
            pytest.param(TOTAL[:3], 9, id="missing-rule"),
        ],
    )
    def test_rule_fault_names_its_line(self, rules, line):
        text = HEADER.format(accept=2, reject=3) + "".join(f"delta: {rule}\n" for rule in rules)
        with pytest.raises(ParseError) as info:
            parse_machine(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {constructor_message(rules)}"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            pytest.param("", None, "empty machine description", id="empty"),
            pytest.param("# a comment\n\n", None, "empty machine description", id="only-comments"),
            pytest.param("states: 3\n", 1, "unexpected end of description, expected 'start:', 'accept:', and 'reject:'", id="early-end"),
            pytest.param("start: 0\nstates: 3\n", 1, "expected 'states: <count>'", id="no-states"),
            pytest.param("states: 3\nstart: 0 start: 1\n", 2, "duplicate 'start:' field", id="repeated-role"),
            pytest.param("states: 3\nstart:\n", 2, "missing value after 'start:'", id="role-without-value"),
            pytest.param("states: 3\nbegin: 0\n", 2, "expected 'start:', 'accept:', or 'reject:', got 'begin:'", id="unknown-role"),
            # A role line is read whole before its fields are checked for duplicates.
            pytest.param("states: 3\nstart: 0 start: x\n", 2, "start state: expected a nonnegative integer, got 'x'", id="repeated-role-bad-value"),
            pytest.param("states: 3\nstart: 0 begin: 1\nstart: 2\n", 2, "expected 'start:', 'accept:', or 'reject:', got 'begin:'", id="unknown-role-after-a-role"),
            pytest.param("states: 3\nstart: 0\nstart: 1 bogus\n", 3, "expected 'start:', 'accept:', or 'reject:', got 'bogus'", id="repeated-role-then-unknown"),
            pytest.param(ROLES + "tape_alphabet: a_\n", 3, "expected 'input_alphabet: <symbols>'", id="no-input-alphabet"),
            pytest.param(ROLES + "input_alphabet: a\ninput_alphabet: a\n", 4, "expected 'tape_alphabet: <symbols>'", id="no-tape-alphabet"),
            pytest.param(ROLES + "input_alphabet: a\ntape_alphabet: a\n", 4, "tape alphabet must include the blank symbol '_'", id="tape-without-blank"),
            pytest.param(ROLES + "input_alphabet: a_\ntape_alphabet: a_\n", 4, "input alphabet must not include the blank symbol '_'", id="input-with-blank"),
            pytest.param(ALPHABETS + "rule: 0 a -> 1 a R\n", 5, "expected 'delta: <state> <symbol> -> <state> <symbol> <L|R>'", id="not-a-rule"),
            pytest.param(ALPHABETS + "delta: 0 a 1 a R\n", 5, "malformed rule, expected '<state> <symbol> -> <state> <symbol> <L|R>'", id="malformed-rule"),
            pytest.param("states: x\n", 1, "state count: expected a nonnegative integer, got 'x'", id="non-decimal-count"),
            pytest.param("states: -3\n", 1, "state count: expected a nonnegative integer, got '-3'", id="negative-count"),
            pytest.param("states: 3\nstart: \u0660\n", 2, "start state: expected a nonnegative integer, got '\u0660'", id="non-ascii-digit"),
            pytest.param(ALPHABETS + "delta: 0 a -> +1 a R\n", 5, "state: expected a nonnegative integer, got '+1'", id="signed-state"),
        ],
    )
    def test_parse_error_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_machine(text)
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("accept, reject, message", [(7, 3, "accept state 7 is out of range 0..3"), (3, 3, "accept and reject must be distinct states")])
    def test_role_fault_gives_the_constructor_message(self, accept, reject, message):
        text = HEADER.format(accept=accept, reject=reject) + "".join(f"delta: {rule}\n" for rule in TOTAL)
        assert constructor_message(TOTAL, accept, reject) == message
        with pytest.raises(ParseError, match=f"^line 10: {message}$"):
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

    def test_list_alphabets_build_their_tuple_twin(self):
        m = decode(16)
        fields = {f: getattr(m, f) for f in SMALL_MACHINE_FIELDS}
        twin = MachineDescription(**{**fields, "input_alphabet": list(m.input_alphabet), "tape_alphabet": list(m.tape_alphabet)})
        assert twin == m and hash(twin) == hash(m)
        assert twin.input_alphabet == m.input_alphabet and twin.tape_alphabet == m.tape_alphabet
        assert encode(twin) == 16
        assert parse_machine(format_machine(twin)) == twin


def outcome(check):
    """What calling check does: None, or the type, message and rules of what it raises."""
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "rules", None)
    return None


SMALL_MACHINE_FIELDS = {
    "state_count": 4, "start_state": 0, "accept_state": 2, "reject_state": 3,
    "input_alphabet": ("a",), "tape_alphabet": ("a", "_"), "blank": "_",
    "transitions": ((0, "a", 0, "a", "R"), (0, "_", 1, "_", "L"), (1, "a", 1, "a", "L"), (1, "_", 2, "_", "R")),
}


class TestOddFields:
    """Odd header fields and rules: construction raises what the reference raises, every time."""

    def test_a_faulty_header_raises_on_every_construction(self):
        fields = {**SMALL_MACHINE_FIELDS, "reject_state": 2}
        for _ in range(2):
            with pytest.raises(MachineError, match="^accept and reject must be distinct states$"):
                MachineDescription(**fields)

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param({"input_alphabet": ["a"], "tape_alphabet": ["a", "_"]}, id="lists"),
            pytest.param({"tape_alphabet": ["a", "_", "a"]}, id="list-repeats-a-symbol"),
            pytest.param({"input_alphabet": ["a", "b"], "tape_alphabet": ["a", "_"]}, id="list-input-not-in-tape"),
            pytest.param({"tape_alphabet": ["a", "_", "b"]}, id="list-table-not-total"),
            pytest.param({"blank": ["_"]}, id="unhashable-blank"),
            pytest.param({"tape_alphabet": ("a", "_", ["b"])}, id="unhashable-symbol"),
            pytest.param({"accept_state": 2.5}, id="non-integer-role"),
            pytest.param({"state_count": 4.0}, id="non-integer-state-count"),
            pytest.param({"transitions": SMALL_MACHINE_FIELDS["transitions"][:3] + ((1, "_", 2, "_", "R", "R"),)}, id="rule-of-six"),
            pytest.param({"accept_state": 2.0}, id="integer-valued-role"),
            pytest.param({"transitions": SMALL_MACHINE_FIELDS["transitions"][:3] + ((1.0, "_", 2, "_", "R"),)}, id="integer-valued-rule-state"),
            # Four distinct keys, the count of a total table, yet no rule for (1, '_').
            pytest.param({"transitions": SMALL_MACHINE_FIELDS["transitions"][:3] + ((1.5, "_", 2, "_", "R"),)}, id="non-integer-rule-state"),
            pytest.param({"transitions": SMALL_MACHINE_FIELDS["transitions"] + ((1.5, "_", 2, "_", "R"),)}, id="extra-non-integer-rule-state"),
        ],
    )
    def test_odd_headers_and_rules_behave_as_the_reference(self, changes):
        fields = {**SMALL_MACHINE_FIELDS, **changes}
        assert outcome(lambda: MachineDescription(**fields)) == outcome(lambda: reference_validate(unvalidated_machine(**fields)))

    @pytest.mark.parametrize(
        "name, value",
        [("state_count", 4.0), ("state_count", "4"), ("start_state", None), ("accept_state", 2.5), ("accept_state", 2.0), ("reject_state", "3")],
    )
    def test_a_non_integer_header_field_is_a_machine_error_naming_it(self, name, value):
        fields = {**SMALL_MACHINE_FIELDS, name: value}
        assert outcome(lambda: MachineDescription(**fields)) == (MachineError, f"{name} {value!r} is not an integer", ())


class TestTotality:
    """A count of distinct keys settles a total table; a table that fails it is named as the reference names it."""

    def test_a_repeated_key_in_place_of_a_missing_one_is_a_duplicate(self):
        # Four rules, as many as the table's four pairs, but (0, 'a') twice
        # and (1, '_') never: the walk reports the duplicate, with both rules.
        twin = (0, "a", 2, "a", "R")
        fields = {**SMALL_MACHINE_FIELDS, "transitions": SMALL_MACHINE_FIELDS["transitions"][:3] + (twin,)}
        expected = (MachineError, "duplicate rule for state 0 reading 'a'", (SMALL_MACHINE_FIELDS["transitions"][0], twin))
        assert outcome(lambda: MachineDescription(**fields)) == expected
        assert outcome(lambda: reference_validate(unvalidated_machine(**fields))) == expected

    @pytest.mark.parametrize(
        "rules, missing",
        [
            # (0, 'b') and (0, '_') are missing; the tape alphabet puts 'b' first, though '_' sorts first.
            pytest.param(((0, "a", 0, "a", "R"), (1, "b", 1, "b", "L"), (1, "a", 1, "a", "L"), (1, "_", 2, "_", "R")), "state 0 reading 'b'", id="first-state"),
            pytest.param(((0, "b", 0, "b", "R"), (0, "a", 0, "a", "R"), (0, "_", 1, "_", "L"), (1, "b", 1, "b", "L")), "state 1 reading 'a'", id="later-state"),
            pytest.param(((0, "b", 0, "b", "R"),), "state 0 reading 'a'", id="one-rule"),
        ],
    )
    def test_a_table_that_only_lacks_pairs_names_the_first_missing(self, rules, missing):
        fields = {**SMALL_MACHINE_FIELDS, "tape_alphabet": ("b", "a", "_"), "transitions": rules}
        expected = (MachineError, f"transition table is not total: no rule for {missing}", ())
        assert outcome(lambda: MachineDescription(**fields)) == expected
        assert outcome(lambda: reference_validate(unvalidated_machine(**fields))) == expected
