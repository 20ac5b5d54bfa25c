"""Shared helpers for the test suite: seeded machine generators and a reference stepper."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from traitbench.containment import (
    ContainmentReport,
    ContainmentVerdict,
    OutputViolation,
    TraceViolation,
)
from traitbench.enumeration import EXTRA_UNIVERSE, SIGMA_UNIVERSE
from traitbench.machine import (
    BLANK,
    MachineDescription,
    RunKind,
    UndefinedReason,
    _classify_tape,
    parse_machine,
    render_tape,
    trace,
)

MOVES = ("L", "R")


def random_canonical_machine(
    rng: random.Random,
    max_states: int = 6,
    max_sigma: int = 3,
    max_extras: int = 2,
) -> MachineDescription:
    """A uniformly sampled machine already in indexable normal form."""
    states = rng.randint(3, max_states)
    sigma_size = rng.randint(1, max_sigma)
    extras = rng.randint(0, max_extras)
    sigma = tuple(SIGMA_UNIVERSE[:sigma_size])
    gamma = sigma + (BLANK,) + tuple(EXTRA_UNIVERSE[:extras])
    rules = tuple(
        (q, sym, rng.randrange(states), rng.choice(gamma), rng.choice(MOVES))
        for q in range(states - 2)
        for sym in gamma
    )
    return MachineDescription(
        state_count=states,
        start_state=0,
        accept_state=states - 2,
        reject_state=states - 1,
        input_alphabet=sigma,
        tape_alphabet=gamma,
        blank=BLANK,
        transitions=rules,
    )


def machine_from_rules(*rules: str, working: int = 3) -> MachineDescription:
    """Working states 0..working-1, then accept and reject; input alphabet ab; missing rules reject."""
    accept, reject = working, working + 1
    given = {rule.split(" -> ")[0] for rule in rules}
    rest = [f"{q} {s} -> {reject} {s} R" for q in range(working) for s in "ab_" if f"{q} {s}" not in given]
    header = f"states: {working + 2}\nstart: 0 accept: {accept} reject: {reject}\ninput_alphabet: ab\ntape_alphabet: ab_\n"
    return parse_machine(header + "".join(f"delta: {rule}\n" for rule in (*rules, *rest)))


@st.composite
def canonical_machines(draw, max_states: int = 6, max_sigma: int = 3, max_extras: int = 2) -> MachineDescription:
    """Hypothesis strategy over canonical machines."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_canonical_machine(random.Random(seed), max_states, max_sigma, max_extras)


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


def reference_containment(m, policy, inputs, fuel):
    """containment_check as a full scan: every configuration's tape is rendered and searched."""
    trace_violations, output_violations, unresolved = [], [], []
    for sigma in sorted(set(inputs)):
        configs = trace(m, sigma, fuel)
        found = set()
        for step, config in enumerate(configs):
            rendering = render_tape(config, m.blank)
            for chi in policy.classified:
                if chi not in found and chi in rendering:
                    trace_violations.append(TraceViolation(sigma, step, chi, rendering))
                    found.add(chi)
        last = configs[-1]
        if last.state not in m.halting_states:
            unresolved.append(sigma)
            continue
        output, _ = _classify_tape(m, last.tape)
        if output is not None and not policy.unclassified(output):
            output_violations.append(OutputViolation(sigma, output))
    if trace_violations or output_violations:
        verdict = ContainmentVerdict.VIOLATED
    elif unresolved:
        verdict = ContainmentVerdict.INCONCLUSIVE
    else:
        verdict = ContainmentVerdict.CONTAINED
    return ContainmentReport(verdict, tuple(trace_violations), tuple(output_violations), tuple(unresolved))
