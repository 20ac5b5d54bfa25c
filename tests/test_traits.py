"""Trait algebra, semanticity probing, partitioning, and oracle wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench.containment import ContainmentPolicy
from traitbench.enumeration import decode
from traitbench.machine import EquivKind, equiv_bounded
from traitbench.measures import parse_bound, time_measure
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
from util import canonical_machines

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
        from traitbench.transforms import delay_inject

        assert eval_trait(trait, delay_inject(echo, 10), BOUNDS) is OUT

    def test_echoes_input(self, echo, marker, looper):
        trait = echoes_input_trait()
        assert eval_trait(trait, echo, BOUNDS) is IN
        assert eval_trait(trait, marker, BOUNDS) is OUT
        assert eval_trait(trait, looper, BOUNDS) is UNKNOWN

    def test_behavior_trait_with_custom_predicate(self, marker):
        always_outputs_a = FunctionProperty(
            "starts-with-a",
            lambda samples: all(
                out.output is None or out.output.startswith("a") for _, out in samples
            ),
        )
        assert eval_trait(behavior_trait(always_outputs_a), marker, BOUNDS) is IN


CHEAP_LEAVES = (
    state_count_trait(3),
    state_count_trait(4),
    total_on_nonempty_trait(),
    echoes_input_trait(1, 8),
    usage_bounded_trait(time_measure(), parse_bound("n+2")),
    TraitDef("in", lambda m, b: IN),
    TraitDef("out", lambda m, b: OUT),
    TraitDef("unknown", lambda m, b: UNKNOWN),
)


def full_kleene(expr, m, bounds):
    """Evaluate every node, both sides of every combinator included."""
    if isinstance(expr, TraitDef):
        return expr.evaluator(m, bounds)
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
        right = TraitDef("right", lambda m, b: calls.append(m) or UNKNOWN)
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

    def test_expression_names_are_readable(self):
        expr = state_count_trait(3) & ~state_count_trait(4)
        assert expr_name(expr) == "and(states:3,not(states:4))"


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
        for text in ("states:3", "not(states:4)", "and(states:3,or(states:4,echoes))"):
            assert expr_name(parse_trait(text)) == text

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
        trait = TraitDef("not-four", lambda m, b: seen.append(m) or (OUT if m.state_count == 4 else IN))
        partition = sem_syn_partition(trait, range(140, 150), probes=3, bounds=BOUNDS, kinds=("delay",))
        assert partition.unknown == (140, 141, 142, 143)
        originals = [decode(n) for n in range(140, 150)]
        assert [seen.count(m) for m in originals] == [1] * 10
        assert len(seen) == 10 + 4 * 3

    def test_nonmembers_are_left_out_of_every_part(self):
        partition = sem_syn_partition(state_count_trait(4), range(20), probes=2, bounds=Bounds(1, 60))
        assert partition.sem == partition.syn == partition.unknown == ()


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
