"""The engine against a minimal reference stepper that shares none of its code.

The reference keeps the textbook state: a dict tape, a set of visited cells,
and, for the space graph, a set of every configuration seen so far.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench.machine import RunKind, UndefinedReason, run, trace
from traitbench.measures import space_measure
from util import canonical_machines


def reference_configs(m, sigma):
    """Every configuration (state, head, tape) of m on sigma, until it halts."""
    rules = {(q, s): (q2, w, mv) for q, s, q2, w, mv in m.transitions}
    tape = {i + 1: sym for i, sym in enumerate(sigma)}
    state, head = m.start_state, 0
    while True:
        yield state, head, dict(tape)
        if state in (m.accept_state, m.reject_state):
            return
        state, written, move = rules[(state, tape.get(head, m.blank))]
        tape[head] = written
        if written == m.blank:
            del tape[head]
        head += 1 if move == "R" else -1


def reference_classify(m, tape):
    if not tape:
        return RunKind.HALTED_UNDEFINED, None, UndefinedReason.BLANK_TAPE
    output = "".join(tape[c] for c in sorted(tape))
    if any(sym not in m.input_alphabet for sym in output):
        return RunKind.HALTED_UNDEFINED, None, UndefinedReason.NON_INPUT_SYMBOL
    return RunKind.HALTED_OUTPUT, output, None


def reference_run(m, sigma, fuel):
    """(configurations, kind, steps, space, output, reason) of a fuel-bounded run."""
    configs, visited = [], {0}
    for steps, (state, head, tape) in enumerate(reference_configs(m, sigma)):
        configs.append((state, head, tape))
        if state in (m.accept_state, m.reject_state):
            kind, output, reason = reference_classify(m, tape)
            return configs, kind, steps, len(visited), output, reason
        if steps == fuel:
            return configs, RunKind.FUEL_EXHAUSTED, steps, len(visited), None, None
        visited.add(head)


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


@given(canonical_machines(), st.data(), st.integers(0, 20))
@settings(max_examples=300, deadline=None)
def test_engine_agrees_with_the_reference_stepper(m, data, fuel):
    sigma = data.draw(st.text(alphabet=m.input_alphabet, max_size=2))
    configs, kind, steps, space, output, reason = reference_run(m, sigma, fuel)

    outcome = run(m, sigma, fuel)
    assert (outcome.kind, outcome.steps, outcome.space, outcome.output, outcome.reason) == (
        kind, steps, space, output, reason
    )
    assert [(c.state, c.head, dict(c.tape)) for c in trace(m, sigma, fuel)] == configs

    graph = space_measure().graph_decide
    for n in range(space + 3):
        assert graph(m, sigma, n) == reference_space_graph(m, sigma, n), n
