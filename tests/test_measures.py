"""Resource measures: axioms, graphs, bounds, and cost discrimination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench import measures
from traitbench.enumeration import decode
from traitbench.machine import MachineError, run, strings_up_to
from traitbench.measures import (
    MEASURES,
    BoundCheckKind,
    BoundFunction,
    ComposedBound,
    LinearBound,
    ResourceMeasure,
    TableBound,
    WitnessSearchError,
    broken_step_counter,
    check_blum_axioms,
    discriminating_witness,
    parse_bound,
    pigeonhole_step_bound,
    space_measure,
    time_measure,
    usage_within_bound,
)
from traitbench.transforms import delay_inject
from util import MALFORMED_BOUNDS, canonical_machines, machine_from_rules


class TestTimeMeasure:
    def test_defined_exactly_on_halting_output_runs(self, echo, looper, eraser):
        time = time_measure()
        assert time.evaluate(run(echo, "ab", 100)) == 1
        assert time.evaluate(run(echo, "", 100)) is None  # halts, but no output
        assert time.evaluate(run(looper, "a", 100)) is None
        assert time.evaluate(run(eraser, "ab", 100)) is None

    def test_graph_accepts_only_the_exact_cost(self, echo):
        time = time_measure()
        assert time.graph_decide(echo, "ab", 1)
        assert not time.graph_decide(echo, "ab", 0)
        assert not time.graph_decide(echo, "ab", 2)

    def test_graph_rejects_a_negative_cost(self, echo, many_states):
        # The broken measure shares the time graph. With more states than
        # tape-alphabet cubes, the pigeonhole bound at n = -3 is negative.
        for measure in (time_measure(), broken_step_counter(), space_measure()):
            assert measure.graph_decide(many_states, "a", 1)
            for m, sigma in ((echo, "ab"), (many_states, "a")):
                for n in (-1, -2, -3, -10):
                    assert not measure.graph_decide(m, sigma, n), (m.state_count, n)

    @pytest.mark.parametrize("measure", [time_measure(), space_measure()], ids=["time", "space"])
    def test_graph_rejects_an_input_outside_the_alphabet(self, echo, measure):
        with pytest.raises(MachineError, match="input symbol 'z' is not in the input alphabet"):
            measure.graph_decide(echo, "zz", 1)

    def test_graph_rejects_everywhere_for_undefined_pairs(self, eraser):
        time = time_measure()
        assert not any(time.graph_decide(eraser, "a", n) for n in range(8))


class TestSpaceMeasure:
    def test_counts_scanned_cells(self, echo, eraser):
        space = space_measure()
        assert space.evaluate(run(echo, "ab", 100)) == 1
        assert space.evaluate(run(eraser, "ab", 100)) is None  # undefined output
        assert space.evaluate(run(echo, "a", 100)) == 1

    def test_graph_decides_without_fuel(self, echo, looper):
        space = space_measure()
        assert space.graph_decide(echo, "ab", 1)
        assert not space.graph_decide(echo, "ab", 2)
        # The looper never halts; the graph must still terminate and reject.
        assert not any(space.graph_decide(looper, "a", n) for n in range(4))

    def test_graph_detects_tight_cycles(self):
        # decode(0) crawls left forever over blanks: an infinite run whose
        # scanned-cell count still grows, stopped by the engine's space limit.
        space = space_measure()
        m = decode(0)
        assert not any(space.graph_decide(m, "a", n) for n in range(3))

    def test_graph_stops_a_run_that_leaves_the_n_cells(self):
        # The widening bouncer is certified by neither certificate and would
        # step for 3.3e16 steps: only the space limit ends its run.
        m = machine_from_rules("0 a -> 0 a R", "0 _ -> 1 a L", "1 a -> 1 a L", "1 _ -> 0 _ R")
        assert pigeonhole_step_bound(m, 30) > 10**16
        assert not space_measure().graph_decide(m, "", 30)

    def test_graph_stops_a_run_that_repeats_a_configuration(self):
        # Rocks between cells 0 and 1 forever, inside the 40 cells: only the
        # exact-repeat certificate ends its run before the pigeonhole bound.
        m = machine_from_rules("0 _ -> 1 _ R", "1 _ -> 0 _ L")
        assert pigeonhole_step_bound(m, 40) > 10**20
        assert not space_measure().graph_decide(m, "", 40)

    def test_graph_needs_no_pigeonhole_fuel(self, echo, monkeypatch):
        # The exact-repeat certificate, not a fuel, ends a confined run that
        # does not halt, so no |Γ|^n is computed: at n = 10^9 it would take hours.
        def refuse(m, n):
            raise AssertionError("the space graph computed a pigeonhole fuel")

        monkeypatch.setattr(measures, "pigeonhole_step_bound", refuse)
        space = space_measure()
        assert space.graph_decide(echo, "ab", 1)
        assert not space.graph_decide(echo, "ab", 10**9)
        report = check_blum_axioms(space, {n: decode(n) for n in range(300)}, lambda m: strings_up_to(m.input_alphabet, 2), 500)
        assert (report.pairs_checked, report.violations) == (900, ())

    def test_pigeonhole_bound_grows_with_input_length(self, echo):
        assert pigeonhole_step_bound(echo, 0) < pigeonhole_step_bound(echo, 2)

    @given(canonical_machines(max_states=4, max_sigma=2, max_extras=0), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_graph_agrees_with_fueled_evaluation(self, m, n):
        # Wherever the fueled evaluator defines a value, the fuel-free graph
        # must accept exactly that value.
        space = space_measure()
        sigma = m.input_alphabet[0] * n
        value = space.evaluate(run(m, sigma, 300))
        if value is not None and value <= 4:
            assert space.graph_decide(m, sigma, value)
            assert not space.graph_decide(m, sigma, value + 1)


class TestBlumCheck:
    def test_fixtures_pass_both_axioms(self, echo, looper, eraser, marker):
        machines = {0: echo, 1: looper, 2: eraser, 3: marker}
        for name in ("time", "space"):
            report = check_blum_axioms(
                MEASURES[name](),
                machines,
                lambda m: strings_up_to(m.input_alphabet, 1),
                100,
            )
            assert report.violations == ()
            assert report.pairs_checked == 12

    @pytest.mark.parametrize("fuel", [0, 1, 2])
    def test_a_fuel_below_three_is_refused(self, echo, fuel):
        # At fuel 0 to 2, runs of cost up to 2 exhaust their fuel, and the
        # fuel-free graph would report them as axiom-2 violations.
        with pytest.raises(ValueError, match="fuel of at least 3"):
            check_blum_axioms(time_measure(), {0: echo}, lambda m: ["a"], fuel)

    def test_broken_counter_fails_axiom_one(self, looper):
        report = check_blum_axioms(
            broken_step_counter(),
            {0: looper},
            lambda m: strings_up_to(m.input_alphabet, 1),
            50,
        )
        assert any(v.axiom == 1 for v in report.violations)

    def test_a_graph_that_disagrees_with_evaluate_fails_axiom_two(self, echo):
        time = time_measure()
        never = ResourceMeasure("never", time.evaluate, lambda m, sigma, n: False)
        report = check_blum_axioms(never, {0: echo}, lambda m: ["", "a"], 50)
        cost = time.evaluate(run(echo, "a", 50))
        assert report.rows() == [{"machine_index": 0, "input": "a", "measure": "never", "value": cost, "verdict": "axiom2"}]

    def test_each_pair_runs_once_at_the_sweep_fuel(self, echo, looper, eraser, runs):
        machines = {0: echo, 1: looper, 2: eraser}
        for measure in (time_measure(), space_measure(), broken_step_counter()):
            runs.clear()
            report = check_blum_axioms(measure, machines, lambda m: strings_up_to(m.input_alphabet, 1), 77)
            swept = [(m, sigma) for m, sigma, fuel in runs if fuel == 77]
            assert len(swept) == len(set(swept)) == report.pairs_checked == 9

    def test_rows_use_the_fixed_schema(self, looper):
        report = check_blum_axioms(
            broken_step_counter(),
            {0: looper},
            lambda m: ["a"],
            50,
        )
        assert report.rows()
        assert set(report.rows()[0]) == {"machine_index", "input", "measure", "value", "verdict"}


class TestBounds:
    def test_constant(self):
        bound = parse_bound("7")
        assert bound == LinearBound(0, 7)
        assert bound(0) == bound(100) == 7

    def test_identity_and_linear(self):
        assert parse_bound("n")(5) == 5
        bound = parse_bound("2n+3")
        assert isinstance(bound, LinearBound)
        assert bound(4) == 11

    def test_table_with_default(self):
        bound = parse_bound("table:1,2;default=9")
        assert isinstance(bound, TableBound)
        assert (bound(0), bound(1), bound(5)) == (1, 2, 9)

    def test_composition_applies_right_then_left(self):
        bound = parse_bound("n+1@2n")
        assert isinstance(bound, ComposedBound)
        assert bound(3) == 7

    def test_describe_round_trips_through_parse(self):
        for text in ("7", "n", "2n+3", "table:1,2;default=9", "n+1@2n"):
            bound = parse_bound(text)
            assert bound.describe() == text
            assert parse_bound(bound.describe())(13) == bound(13)

    def test_composition_may_nest_as_deep_as_a_trait(self):
        assert parse_bound("n+1@" * 100 + "n")(0) == 100

    def test_empty_table_keeps_only_its_default(self):
        assert parse_bound("table:;default=9") == TableBound((), 9)

    @pytest.mark.parametrize("text, message", MALFORMED_BOUNDS)
    def test_malformed_bound_is_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_bound(text)

    def test_garbage_rejected(self):
        for text in ("", "n^2", "2x+1", "table:"):
            with pytest.raises(ValueError):
                parse_bound(text)

    def test_the_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            BoundFunction()(0)
        with pytest.raises(NotImplementedError):
            BoundFunction().describe()


class TestUsageWithinBound:
    def test_echo_stays_in_bounds(self, echo):
        verdict = usage_within_bound(echo, time_measure(), parse_bound("n+5"), 2, 100)
        assert verdict.kind is BoundCheckKind.IN_BOUNDS

    def test_undefined_inputs_do_not_block_in_bounds(self, echo):
        # echo computes nothing on the empty input, yet that input cannot
        # push it out of a time bound.
        verdict = usage_within_bound(echo, time_measure(), parse_bound("1"), 2, 100)
        assert verdict.kind is BoundCheckKind.IN_BOUNDS

    def test_everywhere_undefined_machine_is_inconclusive(self, eraser):
        verdict = usage_within_bound(eraser, time_measure(), parse_bound("n+5"), 2, 100)
        assert verdict.kind is BoundCheckKind.INCONCLUSIVE

    def test_fuel_exhaustion_is_inconclusive(self, looper):
        verdict = usage_within_bound(looper, time_measure(), parse_bound("n+5"), 2, 50)
        assert verdict.kind is BoundCheckKind.INCONCLUSIVE

    def test_violation_names_the_first_offending_input(self, echo):
        slow = delay_inject(echo, 10)
        verdict = usage_within_bound(slow, time_measure(), parse_bound("n+5"), 2, 100)
        assert verdict.kind is BoundCheckKind.VIOLATES
        assert verdict.witness == "a"

    def test_each_input_runs_once(self, echo, eraser, looper, runs):
        for m in (echo, eraser, looper):
            runs.clear()
            verdict = usage_within_bound(m, time_measure(), parse_bound("n+5"), 2, 50)
            assert [sigma for _, sigma, _ in runs] == [sigma for sigma, _ in verdict.evidence] == list(strings_up_to(m.input_alphabet, 2))

    def test_evidence_lists_every_tested_input(self, echo):
        verdict = usage_within_bound(echo, time_measure(), parse_bound("n+5"), 1, 100)
        assert [sigma for sigma, _ in verdict.evidence] == ["", "a", "b"]


class TestDiscriminatingWitness:
    def test_finds_a_strictly_costlier_equivalent(self, echo):
        for make in (time_measure, space_measure):
            measure = make()
            witness = discriminating_witness(measure, echo, trials=3, max_len=2, fuel=200)
            assert witness.delay == 2
            for sigma, base, raised in witness.evidence:
                assert raised > base

    def test_a_delay_that_raises_no_cost_is_skipped(self):
        # Delaying index 2272 by 2 leaves its space on the empty input at 3.
        witness = discriminating_witness(space_measure(), decode(2272), 3, 1, 200)
        assert witness.delay == 4

    def test_witness_rows_pair_base_and_raised_costs(self, echo):
        witness = discriminating_witness(time_measure(), echo, 3, 1, 200)
        rows = witness.rows("time")
        verdicts = {r["verdict"] for r in rows}
        assert verdicts == {"base", f"delayed+{witness.delay}"}

    def test_runs_out_of_fuel_are_read_off_too(self, looper, runs):
        # The broken measure is defined on the looper's runs, which never halt.
        witness = discriminating_witness(broken_step_counter(), looper, 3, 1, 50)
        assert {m for m, _, _ in runs} == {looper}
        delayed = delay_inject(looper, 2)
        assert witness.delay == 2 and witness.evidence == tuple((sigma, 50, run(delayed, sigma, 52).steps) for sigma in ("", "a", "b"))

    def test_undefined_everywhere_machine_rejected(self, looper):
        with pytest.raises(ValueError):
            discriminating_witness(time_measure(), looper, 3, 1, 50)

    def test_exhausted_budget_raises_search_error(self, echo):
        with pytest.raises(WitnessSearchError):
            discriminating_witness(time_measure(), echo, trials=0, max_len=1, fuel=100)
