"""The engine against a minimal reference stepper that shares none of its code.

The reference (`util.reference_run`) keeps the textbook state: a dict tape,
a set of visited cells, and, for the space graph, a set of every
configuration seen so far. It steps every run to its fuel, so fuels far past
the engine's divergence certificates check the fast-forwarded outcomes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench.enumeration import decode
from traitbench.machine import RunKind, run, strings_up_to, trace
from traitbench.measures import space_measure
from util import canonical_machines, reference_classify, reference_configs, reference_run


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
    configs, kind, steps, space, output, reason = reference_run(m, sigma, fuel)

    outcome = run(m, sigma, fuel)
    assert (outcome.kind, outcome.steps, outcome.space, outcome.output, outcome.reason) == (
        kind, steps, space, output, reason
    )
    assert [(c.state, c.head, dict(c.tape)) for c in trace(m, sigma, fuel)] == configs

    # The graph takes no fuel; n stops at 23 because the reference's set of
    # seen configurations makes large n slow.
    graph = space_measure().graph_decide
    for n in range(min(space, 21) + 3):
        assert graph(m, sigma, n) == reference_space_graph(m, sigma, n), n


@given(canonical_machines(), st.integers(0, 20) | st.integers(21, 400))
@settings(max_examples=200, deadline=None)
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
                _, kind, steps, space, output, reason = reference_run(m, sigma, fuel)
                outcome = run(m, sigma, fuel)
                assert (outcome.kind, outcome.steps, outcome.space, outcome.output, outcome.reason) == (
                    kind, steps, space, output, reason
                ), (index, sigma, fuel)
            for n in range(13):
                assert graph(m, sigma, n) == reference_space_graph(m, sigma, n), (index, sigma, n)
