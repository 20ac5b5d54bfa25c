"""Shared helpers for the test suite: seeded machine generators, a reference stepper, the reference normal form and numbering, and a reference report renderer."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import random
from typing import Mapping, Sequence

from hypothesis import strategies as st

from traitbench import __version__
from traitbench.containment import (
    ContainmentReport,
    ContainmentVerdict,
    OutputViolation,
    TraceViolation,
)
from traitbench.enumeration import EXTRA_UNIVERSE, SIGMA_UNIVERSE, decode
from traitbench.machine import (
    BLANK,
    LEFT,
    RIGHT,
    MachineDescription,
    MachineError,
    Rule,
    RunKind,
    UndefinedReason,
    parse_machine,
)
from traitbench.reporting import FORMATS
from traitbench.traits import DeclaredKind, ProbeResult, SemSynPartition, TraitDef, Verdict, eval_trait, expr_name
from traitbench.transforms import delay_inject, leaky_wrap, pad

MOVES = ("L", "R")

# Bound expressions parse_bound must refuse, each with a phrase of its message.
MALFORMED_BOUNDS = [
    ("n@" * 3000 + "n", "nests deeper than 100 compositions"),
    ("n@" * 101 + "n", "nests deeper than 100 compositions"),
    ("2n3", "cannot parse bound"),
    ("n5", "cannot parse bound"),
    ("table:1,,2;default=3", "empty entry"),
    ("table:1,2,;default=3", "empty entry"),
    ("table:-3;default=-5", "expected a nonnegative integer"),
    ("table:1_000;default=2", "expected a nonnegative integer"),
    ("table: 4;default=6", "expected a nonnegative integer"),
    ("٣n+1", "expected a nonnegative integer"),
]

# Policies nested past the parsers' recursion limit: a valid policy whose
# regex nests 5,000 groups, and the text of 100,000 nested JSON arrays, which
# json.dumps cannot write.
NESTED_REGEX_POLICY = {"classified": ["bb"], "unclassified_regex": "(" * 5000 + "a" + ")" * 5000}
NESTED_ARRAYS_TEXT = "[" * 100000 + "]" * 100000
# An invalid regex of 100,001 characters, which an error must not echo whole.
LONG_INVALID_REGEX = "a" * 100000 + "("


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


# Both symbol universes, letters outside them, and the two blanks drawn.
_NONCANONICAL_SYMBOLS = SIGMA_UNIVERSE + EXTRA_UNIVERSE + "klmnopKLMNOP0123#_"


@st.composite
def noncanonical_machines(draw) -> MachineDescription:
    """Hypothesis strategy over machines the normal form must rename or refuse.

    Roles are shuffled and may put the start on a halting state, states are
    renamed, symbols come from in and outside the universes in any order,
    the blank is _ or #, and either alphabet may outgrow its universe by one.
    """
    states = draw(st.integers(3, 6))
    start, accept, reject = draw(st.permutations(range(states)))[:3]
    if draw(st.integers(0, 3)) == 3:
        start = draw(st.sampled_from((accept, reject)))
    blank = draw(st.sampled_from("_#"))
    symbols = [sym for sym in draw(st.permutations(_NONCANONICAL_SYMBOLS)) if sym != blank]
    k = draw(st.integers(0, len(SIGMA_UNIVERSE) + 1))
    extras = draw(st.integers(0, len(EXTRA_UNIVERSE) + 1))
    sigma = tuple(symbols[:k])
    gamma = tuple(draw(st.permutations([*symbols[: k + extras], blank])))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rules = tuple(
        (q, sym, rng.randrange(states), rng.choice(gamma), rng.choice(MOVES))
        for q in range(states)
        if q not in (accept, reject)
        for sym in gamma
    )
    return MachineDescription(states, start, accept, reject, sigma, gamma, blank, rules)


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
    """(configurations, kind, steps, space, output, reason, leftmost cell scanned) of a fuel-bounded run."""
    configs, visited = [], {0}
    for steps, (state, head, tape) in enumerate(reference_configs(m, sigma)):
        configs.append((state, head, tape))
        if state in (m.accept_state, m.reject_state):
            kind, output, reason = reference_classify(m, tape)
            return configs, kind, steps, len(visited), output, reason, min(visited)
        if steps == fuel:
            return configs, RunKind.FUEL_EXHAUSTED, steps, len(visited), None, None, min(visited)
        visited.add(head)


def reference_containment(m, policy, inputs, fuel):
    """containment_check as a full scan: every configuration of reference_run has its tape rendered and searched."""
    trace_violations, output_violations, unresolved = [], [], []
    for sigma in sorted(set(inputs)):
        configs, kind, _, _, output, _, _ = reference_run(m, sigma, fuel)
        found = set()
        for step, (_, _, tape) in enumerate(configs):
            rendering = "".join(tape.get(i, m.blank) for i in range(min(tape), max(tape) + 1)) if tape else ""
            for chi in policy.classified:
                if chi not in found and chi in rendering:
                    trace_violations.append(TraceViolation(sigma, step, chi, rendering))
                    found.add(chi)
        if kind is RunKind.FUEL_EXHAUSTED:
            unresolved.append(sigma)
            continue
        if output is not None and not policy.unclassified(output):
            output_violations.append(OutputViolation(sigma, output))
    if trace_violations or output_violations:
        verdict = ContainmentVerdict.VIOLATED
    elif unresolved:
        verdict = ContainmentVerdict.INCONCLUSIVE
    else:
        verdict = ContainmentVerdict.CONTAINED
    return ContainmentReport(verdict, tuple(trace_violations), tuple(output_violations), tuple(unresolved))


def reference_probe(trait, m, probes, bounds, kinds):
    """probe_semanticity's result, or None when m is not In, with each machine evaluated by eval_trait on fresh runs."""
    if eval_trait(trait, m, bounds) is not Verdict.IN:
        return None
    usable = [kind for kind in kinds if kind != "leak" or m.input_alphabet]
    all_in = True
    for i in range(probes):
        kind, scale = usable[i % len(usable)], i // len(usable) + 1
        if kind == "pad":
            variant, parameter = pad(m, scale), str(scale)
        elif kind == "delay":
            variant, parameter = delay_inject(m, 2 * scale), str(2 * scale)
        else:
            parameter = m.input_alphabet[0] * scale
            variant = leaky_wrap(m, parameter)
        verdict = eval_trait(trait, variant, bounds)
        if verdict is Verdict.OUT:
            return ProbeResult(variant, kind, parameter, i + 1, False)
        all_in = all_in and verdict is Verdict.IN
    return ProbeResult(None, None, None, probes, all_in)


def reference_partition(trait, universe, probes, bounds, kinds) -> SemSynPartition:
    """sem_syn_partition built from reference_probe."""
    declared_semantic = isinstance(trait, TraitDef) and trait.declared_kind is DeclaredKind.SEMANTIC
    parts = {"sem": [], "syn": [], "unknown": []}
    witness_kinds, witness_parameters = {}, {}
    for n in universe:
        result = reference_probe(trait, decode(n), probes, bounds, kinds)
        if result is None:
            continue
        if result.found:
            parts["syn"].append(n)
            witness_kinds[n], witness_parameters[n] = result.witness_kind, result.witness_parameter
        else:
            parts["sem" if result.all_in and declared_semantic else "unknown"].append(n)
    return SemSynPartition(expr_name(trait), tuple(universe), *map(tuple, parts.values()), witness_kinds, witness_parameters)


def unvalidated_machine(**fields) -> MachineDescription:
    """A MachineDescription with these fields, its rules sorted as the constructor sorts them, left unchecked."""
    m = object.__new__(MachineDescription)
    for field in dataclasses.fields(MachineDescription):
        object.__setattr__(m, field.name, fields[field.name])
    object.__setattr__(m, "transitions", tuple(sorted(m.transitions)))
    return m


def reference_validate(m: MachineDescription) -> None:
    """Every check of a machine, one after another and rule by rule, written apart from machine._validate."""
    header = {"state_count": m.state_count, "start_state": m.start_state, "accept_state": m.accept_state, "reject_state": m.reject_state}
    for name, value in header.items():
        if not isinstance(value, int):
            raise MachineError(f"{name} {value!r} is not an integer")
    if m.state_count < 3:
        raise MachineError("a machine needs at least start, accept, and reject states")
    for label, q in (("start", m.start_state), ("accept", m.accept_state), ("reject", m.reject_state)):
        if not 0 <= q < m.state_count:
            raise MachineError(f"{label} state {q} is out of range 0..{m.state_count - 1}")
    if m.accept_state == m.reject_state:
        raise MachineError("accept and reject must be distinct states")
    for name, alphabet in (("input", m.input_alphabet), ("tape", m.tape_alphabet)):
        for sym in alphabet:
            if len(sym) != 1:
                raise MachineError(f"{name} alphabet symbol {sym!r} is not a single character")
        if len(set(alphabet)) != len(alphabet):
            raise MachineError(f"{name} alphabet repeats a symbol")
    if len(m.blank) != 1:
        raise MachineError(f"blank symbol {m.blank!r} is not a single character")
    if m.blank not in m.tape_alphabet:
        raise MachineError("the blank symbol must belong to the tape alphabet")
    if m.blank in m.input_alphabet:
        raise MachineError("the blank symbol must not belong to the input alphabet")
    tape_set = set(m.tape_alphabet)
    missing = [s for s in m.input_alphabet if s not in tape_set]
    if missing:
        raise MachineError(f"input symbols {missing} are missing from the tape alphabet")

    halting = m.halting_states
    seen: dict[tuple[int, str], Rule] = {}
    for rule in m.transitions:
        q, s, q2, w, mv = rule
        if (q, s) in seen:
            raise MachineError(f"duplicate rule for state {q} reading {s!r}", seen[(q, s)], rule)
        seen[(q, s)] = rule
        if q in halting:
            raise MachineError(f"state {q} is halting and must not take transitions", rule)
        if not 0 <= q < m.state_count or not 0 <= q2 < m.state_count:
            raise MachineError(f"rule ({q}, {s!r}) references a state out of range", rule)
        if s not in tape_set or w not in tape_set:
            raise MachineError(f"rule ({q}, {s!r}) -> ({q2}, {w!r}) uses a symbol outside the tape alphabet", rule)
        if mv not in (LEFT, RIGHT):
            raise MachineError(f"rule ({q}, {s!r}) has move {mv!r}, expected {LEFT} or {RIGHT}", rule)
    for q in m.working_states():
        for s in m.tape_alphabet:
            if (q, s) not in seen:
                raise MachineError(f"transition table is not total: no rule for state {q} reading {s!r}")


def validation_fault(**fields) -> tuple[str, tuple[Rule, ...]] | None:
    """The message and rules of the MachineError the reference raises for these fields, or None."""
    try:
        reference_validate(unvalidated_machine(**fields))
    except MachineError as exc:
        return str(exc), exc.rules
    return None


# The normal form as it was stated before the shape owned it, kept verbatim as
# the reference that canonicalize and is_canonical are compared against.


def reference_is_canonical(m: MachineDescription) -> bool:
    """Whether a machine is in the normal form the index bijection covers."""
    s = m.state_count
    if (m.start_state, m.accept_state, m.reject_state) != (0, s - 2, s - 1):
        return False
    k = len(m.input_alphabet)
    if not 1 <= k <= len(SIGMA_UNIVERSE):
        return False
    if m.input_alphabet != tuple(SIGMA_UNIVERSE[:k]):
        return False
    extras = len(m.tape_alphabet) - k - 1
    if not 0 <= extras <= len(EXTRA_UNIVERSE):
        return False
    return m.tape_alphabet == m.input_alphabet + (BLANK,) + tuple(EXTRA_UNIVERSE[:extras]) and m.blank == BLANK


def reference_canonicalize(m: MachineDescription) -> MachineDescription:
    """Rename states and symbols into the indexable normal form.

    The start state becomes 0, accept and reject move to the last two
    positions, and the remaining states keep their relative order. Input
    symbols map onto a prefix of the lowercase universe in their original
    order, the blank stays the blank, and extra tape symbols map onto a
    prefix of the uppercase universe. The result steps in lockstep with the
    original, so it is idempotent and preserves the computed function up to
    the induced re-lettering of the input alphabet.
    """
    if m.start_state in m.halting_states:
        raise ValueError("cannot canonicalize a machine whose start state is accept or reject")
    if len(m.input_alphabet) > len(SIGMA_UNIVERSE):
        raise ValueError(f"input alphabet exceeds the {len(SIGMA_UNIVERSE)}-symbol universe")
    extras = [sym for sym in m.tape_alphabet if sym not in m.input_alphabet and sym != m.blank]
    if len(extras) > len(EXTRA_UNIVERSE):
        raise ValueError(f"tape alphabet exceeds the {len(EXTRA_UNIVERSE)}-extra-symbol universe")

    middle = [
        q
        for q in range(m.state_count)
        if q != m.start_state and q not in m.halting_states
    ]
    state_map = {m.start_state: 0}
    for i, q in enumerate(middle, start=1):
        state_map[q] = i
    state_map[m.accept_state] = m.state_count - 2
    state_map[m.reject_state] = m.state_count - 1

    symbol_map = {sym: SIGMA_UNIVERSE[i] for i, sym in enumerate(m.input_alphabet)}
    symbol_map[m.blank] = BLANK
    for i, sym in enumerate(extras):
        symbol_map[sym] = EXTRA_UNIVERSE[i]

    sigma = tuple(SIGMA_UNIVERSE[: len(m.input_alphabet)])
    gamma = sigma + (BLANK,) + tuple(EXTRA_UNIVERSE[: len(extras)])
    rules = tuple(
        (state_map[q], symbol_map[s], state_map[q2], symbol_map[w], mv)
        for q, s, q2, w, mv in m.transitions
    )
    return MachineDescription(
        state_count=m.state_count,
        start_state=0,
        accept_state=m.state_count - 2,
        reject_state=m.state_count - 1,
        input_alphabet=sigma,
        tape_alphabet=gamma,
        blank=BLANK,
        transitions=rules,
    )


# The index bijection as the enumeration module's docstring states it,
# written apart from its shapes: the reference decode and encode are compared
# against.


def _reference_pairs():
    """Every pair of naturals in Cantor code order: (0, 0), (1, 0), (0, 1), (2, 0), ..."""
    a, b = 0, 0
    while True:
        yield a, b
        a, b = (a - 1, b + 1) if a else (b + 1, 0)


def _reference_walk():
    """Each shape (states, sigma size, extras) in Cantor triple code order, with its first index and its table count."""
    pairs, inner = [], _reference_pairs()
    start = 0
    for a, rest in _reference_pairs():
        while len(pairs) <= rest:
            pairs.append(next(inner))
        b, extras = pairs[rest]
        if b < len(SIGMA_UNIVERSE) and extras <= len(EXTRA_UNIVERSE):
            states, g = a + 3, b + 2 + extras
            capacity = (states * g * 2) ** ((states - 2) * g)
            yield (states, b + 1, extras), start, capacity
            start += capacity


_REFERENCE_SHAPES: list[tuple[tuple[int, int, int], int, int]] = []
_reference_walker = _reference_walk()


def reference_shapes():
    """_reference_walk, remembered across calls."""
    for i in itertools.count():
        if i == len(_REFERENCE_SHAPES):
            _REFERENCE_SHAPES.append(next(_reference_walker))
        yield _REFERENCE_SHAPES[i]


def reference_index(m: MachineDescription) -> int:
    """The index of a canonical machine: its shape's first index plus its table numeral.

    The rule of state q reading symbol s is digit q * |gamma| + rank(s) of
    the numeral, counted from the least significant, and the digit is
    (q2 * |gamma| + rank(w)) * 2 + (move is R).
    """
    gamma, k = m.tape_alphabet, len(m.input_alphabet)
    dims = (m.state_count, k, len(gamma) - k - 1)
    start = next(start for shape, start, _ in reference_shapes() if shape == dims)
    g, rank = len(gamma), gamma.index
    radix = m.state_count * g * 2
    return start + sum(
        ((q2 * g + rank(w)) * 2 + (mv == RIGHT)) * radix ** (q * g + rank(s)) for q, s, q2, w, mv in m.transitions
    )


def reference_machine(n: int) -> MachineDescription:
    """The canonical machine with index n, built through the public constructor."""
    for (states, k, extras), start, capacity in reference_shapes():
        if n < start + capacity:
            break
    sigma = tuple(SIGMA_UNIVERSE[:k])
    gamma = sigma + (BLANK,) + tuple(EXTRA_UNIVERSE[:extras])
    g = len(gamma)
    radix = states * g * 2
    rules = []
    for position in range((states - 2) * g):
        digit = (n - start) // radix**position % radix
        q, s = divmod(position, g)
        q2, w = divmod(digit // 2, g)
        rules.append((q, gamma[s], q2, gamma[w], RIGHT if digit % 2 else LEFT))
    return MachineDescription(states, 0, states - 2, states - 1, sigma, gamma, BLANK, tuple(rules))


def reference_render_report(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    fmt: str,
    config: Mapping[str, object],
) -> str:
    """The report renderer as it was before chunking: every row rendered into one buffer."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}, expected one of {FORMATS}")
    meta = {"tool": "traitbench", "version": __version__, "config": dict(sorted(config.items()))}
    if fmt == "csv":
        buffer = io.StringIO()
        buffer.write(f"# {json.dumps(meta, sort_keys=True)}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col, "") for col in columns])
        return buffer.getvalue()
    lines = [json.dumps(meta, sort_keys=True)]
    for row in rows:
        lines.append(json.dumps({col: row.get(col, "") for col in columns}, sort_keys=True))
    return "\n".join(lines) + "\n"
