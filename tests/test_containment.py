"""Containment policies: trace scanning and output classification."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench.containment import (
    ContainmentPolicy,
    ContainmentVerdict,
    OutputViolation,
    TraceViolation,
    containment_check,
    load_policy,
    policy_from_dict,
)
from traitbench.machine import run, strings_up_to
from traitbench.transforms import leaky_wrap
from util import LONG_INVALID_REGEX, NESTED_REGEX_POLICY, canonical_machines, machine_from_rules, reference_containment

POLICY = ContainmentPolicy(classified=("bb",))
INPUTS = ("a", "ab", "ba")


class TestPolicy:
    def test_default_predicate_is_substring_freedom(self):
        assert POLICY.unclassified("abab")
        assert not POLICY.unclassified("abba")

    def test_classified_strings_must_not_be_unclassified(self):
        with pytest.raises(ValueError):
            ContainmentPolicy(classified=("bb",), unclassified=lambda s: True)

    def test_classified_must_be_nonempty_strings(self):
        with pytest.raises(ValueError):
            ContainmentPolicy(classified=())
        with pytest.raises(ValueError):
            ContainmentPolicy(classified=("",))

    def test_from_dict_with_regex(self):
        policy = policy_from_dict({"classified": ["bb"], "unclassified_regex": "a*"})
        assert policy.unclassified("aaa")
        assert not policy.unclassified("ab")

    def test_from_dict_without_regex_is_the_default_policy(self):
        policy = policy_from_dict({"classified": ["bb", "a_b"]})
        default = ContainmentPolicy(("bb", "a_b"))
        assert policy.classified == default.classified
        for s in ("", "ab", "abb", "a_b", "a__b", "ba_ba"):
            assert policy.unclassified(s) == default.unclassified(s)

    def test_from_dict_rejects_a_missing_classified_list(self):
        with pytest.raises(ValueError, match="classified"):
            policy_from_dict({"unclassified_regex": "a*"})
        with pytest.raises(ValueError, match="classified"):
            policy_from_dict(["bb"])

    def test_from_dict_rejects_a_string_in_place_of_the_list(self):
        # A bare string used to be split into its characters.
        with pytest.raises(ValueError, match="list"):
            policy_from_dict({"classified": "bb"})

    def test_from_dict_rejects_entries_that_are_not_nonempty_strings(self):
        for entry in (1, None, ["bb"], ""):
            with pytest.raises(ValueError):
                policy_from_dict({"classified": ["bb", entry]})

    def test_from_dict_rejects_an_invalid_regex(self):
        for pattern in ("(", 5, NESTED_REGEX_POLICY["unclassified_regex"], LONG_INVALID_REGEX):
            with pytest.raises(ValueError, match="unclassified_regex") as info:
                policy_from_dict({"classified": ["bb"], "unclassified_regex": pattern})
            assert len(str(info.value)) < 200 and "\n" not in str(info.value)
        # A long pattern is named by a short prefix and its length.
        assert str(info.value) == "unclassified_regex 'aaaaaaaaaaaa'... (100,001 characters) is not a valid regular expression"

    def test_load_policy_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"classified": ["bb"]}))
        policy = load_policy(str(path))
        assert policy.classified == ("bb",)


class TestContainmentCheck:
    def test_echo_is_contained(self, echo):
        report = containment_check(echo, POLICY, INPUTS, fuel=200)
        assert report.verdict is ContainmentVerdict.CONTAINED
        assert report.trace_violations == ()
        assert report.output_violations == ()

    def test_leaky_wrapper_violates_through_its_trace_only(self, echo):
        leaky = leaky_wrap(echo, "bb")
        report = containment_check(leaky, POLICY, INPUTS, fuel=500)
        assert report.verdict is ContainmentVerdict.VIOLATED
        assert len(report.trace_violations) == 3  # one per input
        assert report.output_violations == ()

    def test_trace_violation_records_the_leaking_step(self, echo):
        leaky = leaky_wrap(echo, "bb")
        report = containment_check(leaky, POLICY, ("a",), fuel=500)
        violation = report.trace_violations[0]
        assert violation.input == "a"
        assert violation.classified == "bb"
        assert "bb" in violation.tape
        assert violation.step > 0

    def test_output_violation_when_the_function_leaks(self, marker):
        # Marker outputs 'a'+input, so a policy classifying "aa" is violated
        # by the output itself on input "a".
        policy = ContainmentPolicy(classified=("aa",))
        report = containment_check(marker, policy, ("a",), fuel=100)
        assert report.verdict is ContainmentVerdict.VIOLATED
        assert any(v.output == "aa" for v in report.output_violations)

    def test_unresolved_runs_block_a_contained_verdict(self, looper):
        report = containment_check(looper, POLICY, ("a",), fuel=30)
        assert report.verdict is ContainmentVerdict.INCONCLUSIVE
        assert report.unresolved_inputs == ("a",)

    def test_violations_win_over_unresolved_runs(self, looper, echo):
        leaky = leaky_wrap(echo, "bb")
        # Mixed sweep: the leaky machine resolves and violates, regardless of
        # what would happen on other inputs.
        report = containment_check(leaky, POLICY, ("a",), fuel=500)
        assert report.verdict is ContainmentVerdict.VIOLATED

    def test_rows_schema(self, echo):
        leaky = leaky_wrap(echo, "bb")
        rows = containment_check(leaky, POLICY, ("a",), fuel=500).rows()
        assert rows
        assert set(rows[0]) == {"input", "condition", "step", "detail"}
        assert rows[0]["condition"] == "trace"

    def test_undefined_outputs_satisfy_condition_two_vacuously(self, eraser):
        # The eraser computes nothing anywhere; with a quiet trace it is
        # contained under any policy its tape never spells out.
        report = containment_check(eraser, POLICY, INPUTS, fuel=200)
        assert report.verdict is ContainmentVerdict.CONTAINED

    def test_runaway_writers_are_checked_one_trace_at_a_time(self):
        # Each writer fills one more cell a step, and its trace costs about
        # 230 B a step. Two traces alive at once would exceed the bound, as
        # would a trace that copies its tape each step (200 MB each).
        policy = ContainmentPolicy(classified=("bab",))
        right = machine_from_rules("0 a -> 0 a R", "0 b -> 0 a R", "0 _ -> 0 a R", working=1)
        left = machine_from_rules("0 a -> 0 a L", "0 b -> 0 b L", "0 _ -> 0 b L", working=1)
        for m, leaks in ((right, ()), (left, (TraceViolation("ab", 1, "bab", "bab"),))):
            tracemalloc.start()
            try:
                report = containment_check(m, policy, ["ab", "ba"], 20000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (report.trace_violations, report.output_violations, report.unresolved_inputs) == (leaks, (), ("ab", "ba"))
            assert peak < 300 * 20000


class TestOutcomesAgreeWithRun:
    """containment_check reads each outcome off its trace; run is the reference."""

    POLICY = ContainmentPolicy(classified=("a",))

    def expected(self, m, inputs, fuel):
        outcomes = {sigma: run(m, sigma, fuel) for sigma in sorted(inputs)}
        unresolved = tuple(sigma for sigma, o in outcomes.items() if not o.halted)
        violations = tuple(
            OutputViolation(sigma, o.output)
            for sigma, o in outcomes.items()
            if o.defined and not self.POLICY.unclassified(o.output)
        )
        return unresolved, violations

    @given(canonical_machines(max_states=4, max_sigma=2, max_extras=1), st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_unresolved_inputs_and_output_violations(self, m, fuel):
        inputs = list(strings_up_to(m.input_alphabet, 2))
        report = containment_check(m, self.POLICY, inputs, fuel)
        assert (report.unresolved_inputs, report.output_violations) == self.expected(m, inputs, fuel)

    @given(canonical_machines(max_states=4, max_sigma=2, max_extras=1))
    @settings(max_examples=100, deadline=None)
    def test_a_halt_on_the_last_unit_of_fuel_is_resolved(self, m):
        for sigma in strings_up_to(m.input_alphabet, 2):
            steps = run(m, sigma, 50).steps
            for fuel in (steps, steps - 1) if steps else (0,):
                report = containment_check(m, self.POLICY, [sigma], fuel)
                assert (report.unresolved_inputs, report.output_violations) == self.expected(m, [sigma], fuel)

    def test_marker_halting_exactly_at_the_fuel(self, marker):
        steps = run(marker, "b", 100).steps
        at_fuel = containment_check(marker, self.POLICY, ["b"], steps)
        assert at_fuel.unresolved_inputs == ()
        assert at_fuel.output_violations == (OutputViolation("b", "ab"),)
        short = containment_check(marker, self.POLICY, ["b"], steps - 1)
        assert short.unresolved_inputs == ("b",)
        assert short.output_violations == ()


@st.composite
def leak_cases(draw):
    """A canonical machine, maybe leak-wrapped; 1-3 classified strings over its tape alphabet, blank included; a fuel."""
    m = draw(canonical_machines(max_states=5, max_sigma=2, max_extras=2))
    if draw(st.booleans()):
        m = leaky_wrap(m, draw(st.text("".join(m.input_alphabet), min_size=1, max_size=5)))
    chi = st.text("".join(m.tape_alphabet), min_size=1, max_size=5)
    classified = draw(st.lists(chi, min_size=1, max_size=3))
    return m, ContainmentPolicy(tuple(classified)), draw(st.integers(0, 300))


class TestIncrementalScan:
    """The scan tests only what each step changed; the reference renders every configuration."""

    @staticmethod
    def leaks(m, classified, sigma, fuel=50):
        policy = ContainmentPolicy(tuple(classified))
        report = containment_check(m, policy, [sigma], fuel)
        assert report == reference_containment(m, policy, [sigma], fuel)
        return [(v.step, v.classified, v.tape) for v in report.trace_violations]

    @given(leak_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_scan(self, case):
        m, policy, fuel = case
        inputs = list(strings_up_to(m.input_alphabet, 2))
        report = containment_check(m, policy, inputs, fuel)
        expected = reference_containment(m, policy, inputs, fuel)
        assert report.rows() == expected.rows()
        assert report.verdict is expected.verdict

    def test_a_write_past_a_blank_gap_exposes_a_match_away_from_the_written_cell(self):
        # On "a": walk right over three blanks and write b at cell 5.
        m = machine_from_rules(
            "0 _ -> 1 _ R", "1 a -> 2 a R", "2 _ -> 3 _ R", "3 _ -> 4 _ R", "4 _ -> 5 _ R", "5 _ -> 6 b R", working=6
        )
        assert self.leaks(m, ["a_"], "a") == [(6, "a_", "a___b")]

    def test_a_write_left_of_the_tape_exposes_the_gap_to_its_right(self):
        # On "a": write b at cell -1, leaving cell 0 blank.
        m = machine_from_rules("0 _ -> 1 _ L", "1 _ -> 3 b R")
        assert self.leaks(m, ["_a"], "a") == [(2, "_a", "b_a")]

    def test_an_interior_erase_is_a_change(self):
        m = machine_from_rules("0 _ -> 1 _ R", "1 a -> 2 a R", "2 a -> 3 _ R")
        assert self.leaks(m, ["a_b"], "aab") == [(3, "a_b", "a_b")]

    def test_an_end_erase_moves_the_bound_the_next_gap_is_measured_from(self):
        # On "ab": erase the b at cell 2, walk on and write b at cell 5. After
        # the erase the tape ends at cell 1, so the gap is cells 2..4.
        m = machine_from_rules(
            "0 _ -> 1 _ R", "1 a -> 2 a R", "2 b -> 3 _ R", "3 _ -> 4 _ R", "4 _ -> 5 _ R", "5 _ -> 6 b R", working=6
        )
        assert self.leaks(m, ["a_"], "ab") == [(6, "a_", "a___b")]

    def test_an_end_erased_across_a_gap_and_rewritten_exposes_the_gap_again(self):
        # On "a": write b at cell 5 past three blanks, erase it, then write a
        # there. "_a" first appears on the rewrite, across the gap the erase closed.
        m = machine_from_rules(
            "0 _ -> 1 _ R", "1 a -> 2 a R", "2 _ -> 3 _ R", "3 _ -> 4 _ R", "4 _ -> 5 _ R", "5 _ -> 6 b L",
            "6 _ -> 7 _ R", "7 b -> 8 _ L", "8 _ -> 9 _ R", "9 _ -> 10 a R", working=10
        )
        assert self.leaks(m, ["_a", "_b"], "a") == [(6, "_b", "a___b"), (10, "_a", "a___a")]

    def test_a_tape_that_empties_is_written_again_from_scratch(self):
        # On "a": erase it, walk on and write b at cell 3; no blank is left between.
        m = machine_from_rules("0 _ -> 1 _ R", "1 a -> 2 _ R", "2 _ -> 3 _ R", "3 _ -> 4 b R", working=4)
        assert self.leaks(m, ["_", "b"], "a") == [(4, "b", "b")]

    def test_a_leak_in_the_input_is_reported_at_step_zero(self):
        m = machine_from_rules("0 _ -> 3 _ R")
        # A string listed twice is still reported once.
        assert self.leaks(m, ["ba", "b_", "ba"], "aba") == [(0, "ba", "aba")]

    def test_each_string_is_reported_once_and_the_outcome_outlives_the_early_stop(self, echo):
        leaky = leaky_wrap(echo, "aab")
        policy = policy_from_dict({"classified": ["aaa", "ab"], "unclassified_regex": "b*"})
        report = containment_check(leaky, policy, ["a"], fuel=500)
        assert report == reference_containment(leaky, policy, ["a"], 500)
        first, second = report.trace_violations
        assert (first.classified, first.tape, second.classified, second.tape) == ("aaa", "aaa", "ab", "aaab")
        assert 0 < first.step < second.step
        # The scan stops at the second leak; the outcome is still the halted run's.
        assert report.output_violations == (OutputViolation("a", "a"),)
        assert report.unresolved_inputs == ()
        short = containment_check(leaky, policy, ["a"], fuel=second.step)
        assert short.trace_violations == report.trace_violations
        assert (short.unresolved_inputs, short.output_violations) == (("a",), ())
