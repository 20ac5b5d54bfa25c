"""Trait algebra, semanticity probing, partitioning, and oracle wiring."""

from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench import traits
from traitbench.containment import ContainmentPolicy
from traitbench.enumeration import decode
from traitbench.machine import EquivKind, MachineDescription, equiv_bounded, run, strings_up_to
from traitbench.measures import parse_bound, time_measure
from traitbench.transforms import delay_inject, leaky_wrap, variant_run
from traitbench.traits import (
    MAX_TRAIT_DEPTH,
    Bounds,
    DeclaredKind,
    TraitComplement,
    TraitDef,
    TraitIntersection,
    TraitUnion,
    Verdict,
    behavior_trait,
    build_halting_oracle,
    contained_trait,
    echoes_input_trait,
    eval_trait,
    expr_name,
    finite_patch_decider,
    FunctionProperty,
    halting_decider_from_oracle,
    kleene_and,
    kleene_not,
    kleene_or,
    parse_trait,
    probe_semanticity,
    sem_syn_partition,
    state_count_trait,
    total_on_nonempty_trait,
    usage_bounded_trait,
)
from util import canonical_machines, reference_partition

IN, OUT, UNKNOWN = Verdict.IN, Verdict.OUT, Verdict.UNKNOWN
BOUNDS = Bounds(max_len=2, fuel=100)

verdicts = st.sampled_from([IN, OUT, UNKNOWN])


class TestKleeneAlgebra:
    def test_or_truth_table(self):
        assert kleene_or(IN, UNKNOWN) is IN
        assert kleene_or(UNKNOWN, OUT) is UNKNOWN
        assert kleene_or(OUT, OUT) is OUT
        assert kleene_or(UNKNOWN, UNKNOWN) is UNKNOWN

    def test_and_truth_table(self):
        assert kleene_and(OUT, UNKNOWN) is OUT
        assert kleene_and(IN, UNKNOWN) is UNKNOWN
        assert kleene_and(IN, IN) is IN

    def test_not_swaps_the_decided_values(self):
        assert kleene_not(IN) is OUT
        assert kleene_not(OUT) is IN
        assert kleene_not(UNKNOWN) is UNKNOWN

    @given(verdicts, verdicts)
    def test_de_morgan(self, a, b):
        assert kleene_not(kleene_and(a, b)) is kleene_or(kleene_not(a), kleene_not(b))

    @given(verdicts, verdicts)
    def test_commutativity(self, a, b):
        assert kleene_or(a, b) is kleene_or(b, a)
        assert kleene_and(a, b) is kleene_and(b, a)


class TestLeafTraits:
    def test_state_count(self, echo):
        assert eval_trait(state_count_trait(3), echo, BOUNDS) is IN
        assert eval_trait(state_count_trait(4), echo, BOUNDS) is OUT
        assert state_count_trait(3).declared_kind is DeclaredKind.SYNTACTIC

    def test_total_on_nonempty(self, echo, looper, eraser, marker):
        trait = total_on_nonempty_trait()
        assert eval_trait(trait, echo, BOUNDS) is IN
        assert eval_trait(trait, marker, BOUNDS) is IN
        assert eval_trait(trait, eraser, BOUNDS) is OUT
        assert eval_trait(trait, looper, BOUNDS) is UNKNOWN
        assert trait.declared_kind is DeclaredKind.SEMANTIC

    def test_baked_bounds_override_evaluation_bounds(self, looper):
        baked = total_on_nonempty_trait(max_len=1, fuel=10)
        assert eval_trait(baked, looper, Bounds(3, 10_000)) is UNKNOWN
        assert baked.name.endswith(":1:10")

    def test_usage_bounded(self, echo, looper):
        trait = usage_bounded_trait(time_measure(), parse_bound("n+5"))
        assert eval_trait(trait, echo, BOUNDS) is IN
        assert eval_trait(trait, looper, BOUNDS) is UNKNOWN
        assert eval_trait(trait, delay_inject(echo, 10), BOUNDS) is OUT

    def test_echoes_input(self, echo, marker, looper):
        trait = echoes_input_trait()
        assert eval_trait(trait, echo, BOUNDS) is IN
        assert eval_trait(trait, marker, BOUNDS) is OUT
        assert eval_trait(trait, looper, BOUNDS) is UNKNOWN

    def test_contained(self, echo, looper):
        trait = contained_trait(ContainmentPolicy(("bb",)), 1, 100)
        assert eval_trait(trait, echo, BOUNDS) is IN
        assert eval_trait(trait, leaky_wrap(echo, "bb"), BOUNDS) is OUT
        assert eval_trait(trait, looper, BOUNDS) is UNKNOWN
        assert trait.declared_kind is DeclaredKind.SYNTACTIC

    def test_behavior_trait_with_custom_predicate(self, marker):
        always_outputs_a = FunctionProperty(
            "starts-with-a",
            lambda samples: all(
                out is None or out.startswith("a") for _, out in samples
            ),
        )
        assert eval_trait(behavior_trait(always_outputs_a), marker, BOUNDS) is IN


class TestSemanticByConstruction:
    """Only a leaf built on the behaviour view is SEMANTIC, and its decider sees nothing else."""

    def test_a_raw_semantic_declaration_is_refused(self):
        with pytest.raises(ValueError, match="^trait 'x' is not built on the behaviour view"):
            TraitDef("x", lambda m, b, outcome: IN, DeclaredKind.SEMANTIC)

    def test_wrapping_a_syntactic_leaf_does_not_make_it_semantic(self):
        leaf = usage_bounded_trait(time_measure(), parse_bound("n+5"))

        def wrapped(m, b, outcome):
            return leaf.evaluator(m, b, outcome)

        wrapped.__wrapped__ = leaf.evaluator
        with pytest.raises(ValueError, match="cannot be declared semantic"):
            TraitDef(leaf.name, wrapped, DeclaredKind.SEMANTIC)

    @pytest.mark.parametrize("leaf", [total_on_nonempty_trait(), echoes_input_trait(2, 100)], ids=expr_name)
    def test_a_wrapped_semantic_evaluator_keeps_its_kind(self, leaf):
        # A tracer rebuilds each leaf as TraitDef(name, wrapped, kind), with wrapped.__wrapped__ = evaluator.
        def wrapped(m, b, outcome):
            return leaf.evaluator(m, b, outcome)

        wrapped.__wrapped__ = leaf.evaluator
        rebuilt = TraitDef(leaf.name, wrapped, leaf.declared_kind)
        partition = sem_syn_partition(rebuilt, range(400), probes=2, bounds=BOUNDS)
        assert partition.sem
        assert partition == sem_syn_partition(leaf, range(400), probes=2, bounds=BOUNDS)

    def test_a_predicate_cannot_read_steps(self, echo):
        fast = behavior_trait(FunctionProperty("fast", lambda samples: all(o.steps < 6 for _, o in samples)))
        assert fast.declared_kind is DeclaredKind.SEMANTIC
        with pytest.raises(AttributeError):
            eval_trait(fast, echo, BOUNDS)

    def test_a_semantic_leaf_is_constant_on_each_behaviour_class(self):
        # Machines grouped by what each input up to length 2 gives at fuel 100:
        # an output, undefined (None) or unsettled (no halt).
        def view(ran):
            return ran.output if ran.halted else "unsettled"

        classes = {}
        for n in range(144, 2144):
            m = decode(n)
            signature = tuple((sigma, view(run(m, sigma, BOUNDS.fuel))) for sigma in strings_up_to(m.input_alphabet, BOUNDS.max_len))
            classes.setdefault(signature, []).append(m)
        grows = FunctionProperty("grows", lambda samples: any(out is not None and len(out) > len(sigma) for sigma, out in samples))
        assert max(map(len, classes.values())) > 1
        for trait in (total_on_nonempty_trait(), echoes_input_trait(), behavior_trait(grows)):
            verdicts = [{eval_trait(trait, m, BOUNDS) for m in members} for members in classes.values()]
            assert all(len(v) == 1 for v in verdicts), expr_name(trait)
            assert set().union(*verdicts) >= {IN, OUT}, expr_name(trait)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(canonical_machines(max_states=5, max_sigma=1, max_extras=1), min_size=30, max_size=60, unique=True))
    def test_a_semantic_leaf_is_constant_on_each_drawn_behaviour_class(self, machines):
        # One input letter and few states, so that drawn machines often share a
        # class while halting after different numbers of steps.
        def view(ran):
            return ran.output if ran.halted else "unsettled"

        classes = {}
        for m in machines:
            signature = tuple((sigma, view(run(m, sigma, BOUNDS.fuel))) for sigma in strings_up_to(m.input_alphabet, BOUNDS.max_len))
            classes.setdefault(signature, []).append(m)
        short = FunctionProperty("short", lambda samples: all(out is not None and len(out) <= len(sigma) + 1 for sigma, out in samples))
        for trait in (total_on_nonempty_trait(), echoes_input_trait(), behavior_trait(short)):
            for members in classes.values():
                assert len({eval_trait(trait, m, BOUNDS) for m in members}) == 1, expr_name(trait)


CHEAP_LEAVES = (
    state_count_trait(3),
    state_count_trait(4),
    total_on_nonempty_trait(),
    echoes_input_trait(1, 8),
    usage_bounded_trait(time_measure(), parse_bound("n+2")),
    TraitDef("in", lambda m, b, outcome: IN),
    TraitDef("out", lambda m, b, outcome: OUT),
    TraitDef("unknown", lambda m, b, outcome: UNKNOWN),
)


def full_kleene(expr, m, bounds):
    """Evaluate every node, both sides of every combinator included."""
    if isinstance(expr, TraitDef):
        return expr.evaluator(m, bounds, partial(run, m))
    if isinstance(expr, TraitComplement):
        return kleene_not(full_kleene(expr.inner, m, bounds))
    left, right = full_kleene(expr.left, m, bounds), full_kleene(expr.right, m, bounds)
    return kleene_or(left, right) if isinstance(expr, TraitUnion) else kleene_and(left, right)


class TestExpressions:
    def test_operators_compose_verdicts(self, echo):
        three = state_count_trait(3)
        four = state_count_trait(4)
        assert eval_trait(three & ~four, echo, BOUNDS) is IN
        assert eval_trait(three & four, echo, BOUNDS) is OUT
        assert eval_trait(three | four, echo, BOUNDS) is IN

    def test_unknown_propagates_through_conjunction(self, looper):
        three = state_count_trait(3)
        total = total_on_nonempty_trait()
        assert eval_trait(three & total, looper, BOUNDS) is UNKNOWN
        assert eval_trait(~three | total, looper, BOUNDS) is UNKNOWN

    def test_decided_left_side_skips_the_right(self, echo):
        calls = []
        right = TraitDef("right", lambda m, b, outcome: calls.append(m) or UNKNOWN)
        assert eval_trait(state_count_trait(4) & right, echo, BOUNDS) is OUT
        assert eval_trait(state_count_trait(3) | right, echo, BOUNDS) is IN
        assert calls == []
        assert eval_trait(state_count_trait(3) & right, echo, BOUNDS) is UNKNOWN
        assert calls == [echo]

    @given(
        st.recursive(
            st.sampled_from(CHEAP_LEAVES),
            lambda inner: st.one_of(
                st.builds(TraitUnion, inner, inner),
                st.builds(TraitIntersection, inner, inner),
                st.builds(TraitComplement, inner),
            ),
            max_leaves=8,
        ),
        canonical_machines(max_states=4, max_sigma=2, max_extras=1),
    )
    @settings(max_examples=150, deadline=None)
    def test_short_circuit_agrees_with_full_kleene_evaluation(self, expr, m):
        assert eval_trait(expr, m, Bounds(1, 20)) is full_kleene(expr, m, Bounds(1, 20))

    def test_leaves_share_one_run_per_input_and_fuel(self, echo, runs):
        expr = parse_trait("and(time-within:n+5,total-nonempty)")
        assert eval_trait(expr, echo, Bounds(2, 100)) is IN
        assert len(runs) == len(set(runs)) == 7

    def test_the_run_table_tells_fuels_apart(self, echo):
        # At fuel 5 the delayed echo has not halted; at fuel 50 it has.
        slow = delay_inject(echo, 10)
        assert eval_trait(parse_trait("total-nonempty:1:5"), slow, BOUNDS) is UNKNOWN
        assert eval_trait(parse_trait("or(total-nonempty:1:5,total-nonempty:1:50)"), slow, BOUNDS) is IN

    def test_expression_names_are_readable(self):
        expr = state_count_trait(3) & ~state_count_trait(4)
        assert expr_name(expr) == "and(states:3,not(states:4))"

    def test_a_non_expression_is_refused(self, echo):
        with pytest.raises(TypeError, match="^not a trait expression: <object object"):
            eval_trait(object(), echo, BOUNDS)
        with pytest.raises(TypeError, match="^not a trait expression: <object object"):
            expr_name(object())


class TestParseTrait:
    def test_leaves(self, echo):
        assert eval_trait(parse_trait("states:3"), echo, BOUNDS) is IN
        assert eval_trait(parse_trait("total-nonempty"), echo, BOUNDS) is IN
        assert eval_trait(parse_trait("echoes"), echo, BOUNDS) is IN
        assert eval_trait(parse_trait("time-within:n+5"), echo, BOUNDS) is IN
        assert eval_trait(parse_trait("space-within:3"), echo, BOUNDS) is IN

    def test_nested_expression(self, echo):
        expr = parse_trait("and(states:3,not(or(states:4,states:5)))")
        assert eval_trait(expr, echo, BOUNDS) is IN

    def test_parse_then_name_round_trips(self):
        for text in ("states:3", "not(states:4)", "and(states:3,or(states:4,echoes))", "and(or(states:3,echoes),states:4)"):
            assert expr_name(parse_trait(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "time-within:table:1,2;default=9",
            "space-within:table:1;default=9:2:100",
            "and(time-within:table:1,2;default=9,states:3)",
            "or(states:4,space-within:table:3,4,5;default=7:1:50)",
            "time-within:n+1@table:0,5;default=9",
        ],
    )
    def test_table_bounds_parse_in_leaves(self, text):
        name = expr_name(parse_trait(text))
        assert name == text
        assert expr_name(parse_trait(name)) == name

    def test_a_table_leaf_evaluates_like_its_bound(self, echo):
        # echo halts after one step on every nonempty input.
        assert eval_trait(parse_trait("time-within:table:0,1;default=9"), echo, BOUNDS) is IN
        assert eval_trait(parse_trait("time-within:table:0,1,0;default=9"), echo, BOUNDS) is OUT
        assert eval_trait(parse_trait("time-within:table:0,1,0;default=9:1:100"), echo, BOUNDS) is IN

    def test_baked_bounds_in_leaf_text(self, looper):
        expr = parse_trait("total-nonempty:1:10")
        assert eval_trait(expr, looper, Bounds(3, 10_000)) is UNKNOWN

    @pytest.mark.parametrize(
        "text",
        [
            "total-nonempty:-1:5",
            "total-nonempty:1:-5",
            "echoes:-1:5",
            "echoes:1:-5",
            "time-within:n:-1:5",
            "time-within:n:1:-5",
            "space-within:n:-1:5",
            "space-within:n:1:-5",
            "and(states:4,total-nonempty:-1:5)",
        ],
    )
    def test_negative_leaf_bounds_are_rejected_when_parsed(self, text):
        with pytest.raises(ValueError, match="nonnegative"):
            parse_trait(text)

    def test_negative_leaf_bounds_are_rejected_for_unparsed_leaves(self):
        prop = FunctionProperty("any", lambda samples: True)
        with pytest.raises(ValueError, match="nonnegative"):
            contained_trait(ContainmentPolicy(("bb",)), -1, 5)
        with pytest.raises(ValueError, match="nonnegative"):
            behavior_trait(prop, 1, -5)

    def test_nesting_depth_is_capped(self):
        def nested(depth):
            return "not(" * depth + "states:3" + ")" * depth

        assert expr_name(parse_trait(nested(MAX_TRAIT_DEPTH))) == nested(MAX_TRAIT_DEPTH)
        with pytest.raises(ValueError, match="nests deeper"):
            parse_trait(nested(MAX_TRAIT_DEPTH + 1))
        with pytest.raises(ValueError, match="nests deeper"):
            parse_trait(nested(3000))

    def test_a_table_without_default_inside_a_combinator_says_so(self):
        for text in ("time-within:table:1,2", "and(time-within:table:1,2,states:3)"):
            with pytest.raises(ValueError, match="table bound needs ';default=<value>'"):
                parse_trait(text)

    def test_a_combinator_of_one_expression_says_so(self):
        with pytest.raises(ValueError, match="^expected two comma-separated trait expressions in 'states:3'$"):
            parse_trait("and(states:3)")

    def test_garbage_rejected(self):
        for text in ("", "states", "states:x", "nand(states:3,states:4)", "and(states:3", "frobnicate"):
            with pytest.raises(ValueError):
                parse_trait(text)


class TestProbeSemanticity:
    def test_state_count_trait_is_refuted_by_the_first_pad(self, echo):
        result = probe_semanticity(state_count_trait(3), echo, probes=3, bounds=BOUNDS)
        assert result.witness is not None
        assert result.witness_kind == "pad"
        assert not result.all_in
        assert eval_trait(state_count_trait(3), result.witness, BOUNDS) is OUT
        assert equiv_bounded(echo, result.witness, 2, 200).kind is not EquivKind.DIFFER

    def test_semantic_trait_survives_all_probes(self, echo):
        result = probe_semanticity(echoes_input_trait(), echo, probes=6, bounds=Bounds(2, 500))
        assert result.witness is None
        assert result.all_in
        assert result.variants_checked == 6

    def test_time_bound_trait_is_refuted_by_delay_probes(self, echo):
        trait = usage_bounded_trait(time_measure(), parse_bound("n+5"))
        result = probe_semanticity(trait, echo, probes=6, bounds=Bounds(2, 500), kinds=("delay",))
        assert result.witness is not None
        assert result.witness_kind == "delay"
        assert result.witness_parameter == "6"
        assert eval_trait(trait, result.witness, Bounds(2, 500)) is OUT

    def test_requires_membership_first(self, echo):
        with pytest.raises(ValueError):
            probe_semanticity(state_count_trait(9), echo, probes=2, bounds=BOUNDS)

    def test_negative_probes_are_refused(self, echo):
        with pytest.raises(ValueError, match="probes must be nonnegative"):
            probe_semanticity(state_count_trait(3), echo, -1, BOUNDS)

    def test_an_unknown_probe_kind_is_refused_before_any_variant_is_built(self, echo, monkeypatch):
        for transform in ("pad", "delay_inject", "leaky_wrap"):
            monkeypatch.setattr(traits, transform, None)
        trait = usage_bounded_trait(time_measure(), parse_bound("n+2"))
        with pytest.raises(ValueError, match=r"^probe kinds must be among \('pad', 'delay', 'leak'\), got \('pad', 'bogus'\)$"):
            probe_semanticity(trait, echo, 2, Bounds(2, 100), kinds=("pad", "bogus"))

    def test_leak_alone_cannot_probe_an_empty_input_alphabet(self):
        m = MachineDescription(3, 0, 1, 2, (), ("_",), "_", ((0, "_", 1, "_", "R"),))
        with pytest.raises(ValueError, match="no applicable probe kinds"):
            probe_semanticity(state_count_trait(3), m, 1, Bounds(0, 10), kinds=("leak",))

    @pytest.mark.parametrize("kind", traits.PROBE_KINDS)
    def test_variants_read_the_members_runs(self, echo, runs, kind):
        result = probe_semanticity(total_on_nonempty_trait(), echo, 1, BOUNDS, kinds=(kind,))
        assert result.all_in and result.variants_checked == 1
        # Six nonempty inputs up to length 2, each run once, on the member only.
        assert len(runs) == len(set(runs)) == 6
        assert {m for m, _, _ in runs} == {echo}

    def test_each_variant_derives_each_run_once(self, echo, monkeypatch):
        # Both leaves ask every variant for every input; the second reads the variant's table.
        derived = Counter()
        monkeypatch.setattr(traits, "variant_run", lambda *args: derived.update([args[:4]]) or variant_run(*args))
        result = probe_semanticity(parse_trait("and(total-nonempty,echoes)"), echo, 6, Bounds(2, 500))
        assert result.all_in and result.variants_checked == 6
        # Seven inputs up to length 2 for each of the six variants.
        assert len(derived) == 42 and set(derived.values()) == {1}


class TestPartition:
    def test_state_count_members_are_all_syntactic(self):
        partition = sem_syn_partition(state_count_trait(3), range(60), probes=2, bounds=Bounds(1, 60))
        assert partition.sem == ()
        assert partition.unknown == ()
        assert partition.syn == tuple(range(60))
        rows = partition.rows()
        assert all(r["part"] == "syn" and r["witness_kind"] == "pad" for r in rows)

    def test_each_index_is_evaluated_once_then_each_variant_once(self):
        # Indices 140..143 have 3 states and 144..149 have 4; delay variants
        # have 5, 7 and 9, so only the 3-state indices are members and every
        # one of their variants stays In.
        seen = []
        trait = TraitDef("not-four", lambda m, b, outcome: seen.append(m) or (OUT if m.state_count == 4 else IN))
        partition = sem_syn_partition(trait, range(140, 150), probes=3, bounds=BOUNDS, kinds=("delay",))
        assert partition.unknown == (140, 141, 142, 143)
        originals = [decode(n) for n in range(140, 150)]
        assert [seen.count(m) for m in originals] == [1] * 10
        assert len(seen) == 10 + 4 * 3
        rows = partition.rows()
        assert [(r["index"], r["verdict"], r["part"]) for r in rows] == [(n, "In", "unknown") for n in range(140, 144)] + [(n, "not-In", "") for n in range(144, 150)]
        assert all(r["witness_kind"] == r["witness_parameter"] == "" for r in rows)

    def test_rows_carry_each_syn_witness_parameter(self):
        trait = usage_bounded_trait(time_measure(), parse_bound("n+5"))
        bounds = Bounds(2, 100)
        partition = sem_syn_partition(trait, range(150), probes=3, bounds=bounds)
        kinds = set()
        for row in partition.rows():
            if row["part"] == "syn":
                probe = probe_semanticity(trait, decode(row["index"]), 3, bounds)
                assert (row["witness_kind"], row["witness_parameter"]) == (probe.witness_kind, probe.witness_parameter)
                kinds.add(row["witness_kind"])
            else:
                assert row["witness_parameter"] == ""
        assert kinds

    def test_a_semantic_trait_fills_the_sem_part(self):
        partition = sem_syn_partition(total_on_nonempty_trait(), range(60), probes=2, bounds=Bounds(1, 60))
        assert partition.sem
        assert partition.syn == partition.unknown == ()
        assert [r["index"] for r in partition.rows() if r["part"] == "sem"] == list(partition.sem)

    def test_nonmembers_are_left_out_of_every_part(self):
        partition = sem_syn_partition(state_count_trait(4), range(20), probes=2, bounds=Bounds(1, 60))
        assert partition.sem == partition.syn == partition.unknown == ()

    def test_negative_probes_are_refused(self):
        with pytest.raises(ValueError, match="probes must be nonnegative"):
            sem_syn_partition(state_count_trait(3), range(20), probes=-1, bounds=BOUNDS)

    # Each mixes a structural leaf, or a cost leaf, with leaves that read runs.
    @pytest.mark.parametrize("text", ["or(states:4,echoes)", "and(total-nonempty,states:3)", "and(time-within:n+5,total-nonempty)"])
    def test_matches_a_probe_that_runs_every_variant_afresh(self, text):
        trait = parse_trait(text)
        window = range(100, 260)
        partition = sem_syn_partition(trait, window, probes=4, bounds=BOUNDS)
        assert partition.syn
        assert partition == reference_partition(trait, window, 4, BOUNDS, traits.PROBE_KINDS)


class TestFinitePatch:
    def test_matches_brute_force_on_a_known_instance(self):
        l1 = {1, 3, 5}
        l2 = {2, 3}
        union = l1 | l2
        decider = finite_patch_decider(lambda x: x in union, removed=l2, kept_overlap=l1 & l2)
        assert [decider(x) for x in range(8)] == [x in l1 for x in range(8)]

    def test_overlap_must_be_inside_the_removed_set(self):
        with pytest.raises(ValueError):
            finite_patch_decider(lambda x: True, removed={1}, kept_overlap={2})


class TestHaltingOracleWiring:
    def test_decider_reproduces_all_certified_entries(self):
        oracle = build_halting_oracle(max_index=40, max_len=1, fuel=100)
        decider = halting_decider_from_oracle(oracle)
        assert len(oracle.certified) == 8
        for index, sigma in sorted(oracle.certified):
            assert decider(index, sigma) == oracle.table[(index, sigma)]

    def test_oracle_rejects_wrong_state_counts(self):
        oracle = build_halting_oracle(10, 0, 50)
        assert oracle(0, "", decode(0).state_count + 1) == 0


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bounds(-1, 100)
        with pytest.raises(ValueError):
            Bounds(2, -1)
        assert Bounds(0, 0).max_len == 0
