"""Containment policies: trace scanning and output classification."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench.containment import (
    ContainmentPolicy,
    ContainmentVerdict,
    OutputViolation,
    containment_check,
    load_policy,
    policy_from_dict,
)
from traitbench.machine import run, strings_up_to
from traitbench.transforms import leaky_wrap
from util import canonical_machines

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
        for pattern in ("(", 5):
            with pytest.raises(ValueError, match="unclassified_regex"):
                policy_from_dict({"classified": ["bb"], "unclassified_regex": pattern})

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
