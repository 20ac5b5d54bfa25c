"""The engine against a minimal reference stepper that shares none of its code.

The reference (`util.reference_run`) keeps the textbook state: a dict tape,
a set of visited cells, and, for the space graph, a set of every
configuration seen so far. It steps every run to its fuel, so fuels far past
the engine's divergence certificates check the fast-forwarded outcomes.

Validation is checked the same way, against `util.reference_validate`, an
independent copy of every check kept apart from the engine's, and the normal
form against `util.reference_canonicalize` and `util.reference_is_canonical`,
which state it field by field without the enumeration's shapes. The index
bijection is checked against `util.reference_index` and
`util.reference_machine`, which number machines as the enumeration module's
docstring defines, with powers of the radix in place of its shapes' tables.
"""

import dataclasses
import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from traitbench.enumeration import decode, encode, is_canonical
from traitbench.machine import MachineDescription, MachineError, RunKind, RunOutcome, _simulate, run, strings_up_to, trace
from traitbench.measures import space_measure
from traitbench.transforms import canonicalize
from util import (
    canonical_machines,
    machine_from_rules,
    noncanonical_machines,
    reference_canonicalize,
    reference_classify,
    reference_configs,
    reference_index,
    reference_is_canonical,
    reference_machine,
    reference_run,
    reference_shapes,
    validation_fault,
)


def reference_space_graph(m, sigma, n):
    visited, seen = set(), set()
    for state, head, tape in reference_configs(m, sigma):
        if state in (m.accept_state, m.reject_state):
            return len(visited) == n and reference_classify(m, tape)[0] is RunKind.HALTED_OUTPUT
        visited.add(head)
        key = (state, head, frozenset(tape.items()))
        if len(visited) > n or key in seen:
            return False
        seen.add(key)


@given(canonical_machines(), st.data(), st.integers(0, 20) | st.integers(21, 400))
@settings(max_examples=300, deadline=None)
def test_engine_agrees_with_the_reference_stepper(m, data, fuel):
    sigma = data.draw(st.text(alphabet=m.input_alphabet, max_size=2))
    configs, kind, steps, space, output, reason, lo = reference_run(m, sigma, fuel)

    outcome = run(m, sigma, fuel)
    assert type(outcome) is RunOutcome
    assert (outcome.kind, outcome.steps, outcome.space, outcome.output, outcome.reason, outcome.lo) == (
        kind, steps, space, output, reason, lo
    )
    assert [(c.state, c.head, dict(c.tape)) for c in trace(m, sigma, fuel)] == configs

    # The graph takes no fuel; n stops at 23 because the reference's set of
    # seen configurations makes large n slow.
    graph = space_measure().graph_decide
    for n in range(min(space, 21) + 3):
        assert graph(m, sigma, n) == reference_space_graph(m, sigma, n), n


@given(canonical_machines(), st.integers(0, 20) | st.integers(21, 400))
@settings(max_examples=200, deadline=None)
# A left runaway that fills its list's room and outgrows it, one that leaves
# gaps, the input erased from its left end and then written leftward from
# an empty tape, the input erased from its right end, and a cell written
# past a gap at either end and erased, so the view narrows past the gap.
@example(machine_from_rules("0 a -> 0 a L", "0 b -> 0 b L", "0 _ -> 0 b L", working=1), 60)
@example(machine_from_rules("0 _ -> 1 _ L", "1 _ -> 0 a L"), 60)
@example(machine_from_rules("0 _ -> 1 _ R", "1 a -> 1 _ R", "1 b -> 1 _ R", "1 _ -> 2 _ L", "2 _ -> 2 b L"), 40)
@example(machine_from_rules("0 _ -> 1 _ R", "1 a -> 1 a R", "1 b -> 1 b R", "1 _ -> 2 _ L", "2 a -> 2 _ L", "2 b -> 2 _ L"), 40)
@example(machine_from_rules("0 _ -> 1 _ R", "1 a -> 1 a R", "1 b -> 1 b R", "1 _ -> 2 _ R", "2 _ -> 3 a L", "3 _ -> 4 _ R", "4 a -> 5 _ L", working=6), 40)
@example(machine_from_rules("0 _ -> 1 _ L", "1 _ -> 2 a R", "2 _ -> 3 _ L", "3 a -> 4 _ R", working=5), 40)
def test_trace_snapshots_hold_exactly_the_tape_content(m, fuel):
    for sigma in strings_up_to(m.input_alphabet, 2):
        for config, (_, _, tape) in zip(trace(m, sigma, fuel), reference_configs(m, sigma)):
            content = "".join(tape.get(c, m.blank) for c in range(min(tape), max(tape) + 1)) if tape else ""
            assert config.tape.cells == content
            if content:
                assert config.tape.base == min(tape)


def test_decoded_machines_agree_with_the_reference_stepper():
    # One index from each of 300 equal strata of [0, 10**7): larger shapes
    # than canonical_machines draws, at the fuels the sweeps use.
    rng = random.Random(0)
    width = 10**7 // 300
    graph = space_measure().graph_decide
    for index in (k * width + rng.randrange(width) for k in range(300)):
        m = decode(index)
        for sigma in strings_up_to(m.input_alphabet, 2):
            for fuel in (100, 257, 500):
                _, kind, steps, space, output, reason, lo = reference_run(m, sigma, fuel)
                outcome = run(m, sigma, fuel)
                assert (outcome.kind, outcome.steps, outcome.space, outcome.output, outcome.reason, outcome.lo) == (
                    kind, steps, space, output, reason, lo
                ), (index, sigma, fuel)
            for n in range(13):
                assert graph(m, sigma, n) == reference_space_graph(m, sigma, n), (index, sigma, n)


def test_space_limited_runs_stop_where_stepping_stops():
    # The certificates-off run (a configs list) steps every configuration. At
    # fuel 500, index 12's translated cycler used to jump past a limit that
    # stepping stops at.
    rng = random.Random(1)
    width = 10**7 // 300
    for index in [12, *(k * width + rng.randrange(width) for k in range(300))]:
        m = decode(index)
        for sigma in strings_up_to(m.input_alphabet, 2):
            for fuel in (100, 500):
                for limit in range(7):
                    stepped = _simulate(m, sigma, fuel, [], space_limit=limit)
                    assert _simulate(m, sigma, fuel, space_limit=limit) == stepped, (index, sigma, fuel, limit)


RULE_FAULTS = ("drop", "duplicate", "from-halting", "source-out", "target-out", "read-outside", "write-outside", "bad-move")
HEADER_FAULTS = (
    "few-states", "role-out", "accept-is-reject", "repeated-symbol", "multi-character-symbol",
    "blank-not-in-tape", "blank-in-input", "input-not-in-tape",
)


@st.composite
def machine_fields(draw) -> dict:
    """The fields of a canonical machine with at most one fault put in."""
    m = draw(canonical_machines())
    fields = {f.name: getattr(m, f.name) for f in dataclasses.fields(m)}
    fault = draw(st.none() | st.sampled_from(RULE_FAULTS + HEADER_FAULTS))
    n, tape = m.state_count, m.tape_alphabet
    rules = list(m.transitions)
    i = draw(st.integers(0, len(rules) - 1))
    q, s, q2, w, mv = rules[i]
    if fault == "drop":
        del rules[i]
    elif fault == "duplicate":
        # Added, or put in place of another rule so that the table keeps its size.
        twin = (q, s, draw(st.integers(0, n - 1)), draw(st.sampled_from(tape)), "L" if mv == "R" else "R")
        j = draw(st.integers(0, len(rules)))
        if j < len(rules) and j != i and draw(st.booleans()):
            rules[j] = twin
        else:
            rules.insert(j, twin)
    elif fault == "from-halting":
        rules.append((draw(st.sampled_from((m.accept_state, m.reject_state))), draw(st.sampled_from(tape)), q2, w, mv))
    elif fault == "source-out":
        rules[i] = (draw(st.sampled_from((-1, n, n + 5))), s, q2, w, mv)
    elif fault == "target-out":
        rules[i] = (q, s, draw(st.sampled_from((-1, n, n + 5))), w, mv)
    elif fault == "read-outside":
        rules[i] = (q, draw(st.sampled_from(("#", "Z"))), q2, w, mv)
    elif fault == "write-outside":
        rules[i] = (q, s, q2, draw(st.sampled_from(("#", "Z"))), mv)
    elif fault == "bad-move":
        rules[i] = (q, s, q2, w, draw(st.sampled_from(("X", "l", "", "RR"))))
    elif fault == "few-states":
        fields["state_count"] = draw(st.integers(0, 2))
    elif fault == "role-out":
        fields[draw(st.sampled_from(("start_state", "accept_state", "reject_state")))] = draw(st.sampled_from((-1, n, n + 5)))
    elif fault == "accept-is-reject":
        fields["reject_state"] = fields["accept_state"]
    elif fault == "repeated-symbol":
        name = draw(st.sampled_from(("input_alphabet", "tape_alphabet")))
        fields[name] += (draw(st.sampled_from(fields[name])),)
    elif fault == "multi-character-symbol":
        name = draw(st.sampled_from(("input_alphabet", "tape_alphabet", "blank")))
        fields[name] = "__" if name == "blank" else fields[name] + ("ab",)
    elif fault == "blank-not-in-tape":
        fields["tape_alphabet"] = tuple(sym for sym in tape if sym != m.blank)
    elif fault == "blank-in-input":
        fields["input_alphabet"] += (m.blank,)
    elif fault == "input-not-in-tape":
        fields["input_alphabet"] += ("z",)
    fields["transitions"] = tuple(rules)
    return fields


@given(machine_fields())
@settings(max_examples=600, deadline=None)
def test_validation_agrees_with_the_reference(fields):
    """The constructor raises exactly when the reference does, with the same message and rules."""
    expected = validation_fault(**fields)
    try:
        MachineDescription(**fields)
    except MachineError as exc:
        assert (str(exc), exc.rules) == expected
    else:
        assert expected is None


def _canonical_twin(canon, m):
    """canon(m), or the message of the ValueError it raises."""
    try:
        return canon(m)
    except ValueError as exc:
        return str(exc)


@given(noncanonical_machines() | canonical_machines(max_states=5, max_sigma=10, max_extras=10))
@settings(max_examples=300, deadline=None)
def test_normal_form_agrees_with_the_reference(m):
    twin = _canonical_twin(canonicalize, m)
    assert twin == _canonical_twin(reference_canonicalize, m)
    assert is_canonical(m) == reference_is_canonical(m)
    if isinstance(twin, MachineDescription):
        assert is_canonical(twin) == reference_is_canonical(twin)


def assert_numbered_as_the_reference(n):
    m = decode(n)
    assert m == reference_machine(n)
    assert reference_index(m) == n
    assert encode(reference_machine(n)) == n


def test_each_shape_begins_and_ends_where_the_reference_numbering_does():
    for _, start, capacity in itertools.islice(reference_shapes(), 12):
        assert_numbered_as_the_reference(start)
        assert_numbered_as_the_reference(start + capacity - 1)


def test_stratified_indices_are_numbered_as_the_reference():
    # One index in each of 300 strata of [0, 10^7), across the first four shapes.
    rng = random.Random(29)
    stratum = 10**7 // 300
    for k in range(300):
        assert_numbered_as_the_reference(k * stratum + rng.randrange(stratum))


@given(canonical_machines(max_states=8, max_sigma=10, max_extras=10))
@settings(max_examples=100, deadline=None)
def test_encode_numbers_machines_as_the_reference(m):
    n = encode(m)
    assert n == reference_index(m)
    assert reference_machine(n) == m
