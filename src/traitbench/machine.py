"""Exact simulation of two-way, single-tape deterministic Turing machines.

A machine halts by entering its accept or reject state. Its observable
behaviour is the partial string function computed this way: if the machine
halts and the tape holds a nonempty string of input-alphabet symbols (read
left to right, ignoring blanks outside that segment), that string is the
output; a blank tape or a non-halting run leave the function undefined at
that input. A halt with some non-input symbol still on the tape is also
treated as undefined, and the run outcome records which of the two cases
occurred.

Every evaluation here is fuel-bounded: the caller supplies a maximum step
count and gets back a three-way outcome (halted with output, halted
undefined, or fuel exhausted) so that no query can hang.

All multi-step simulation goes through one private core, `_simulate`. It
checks fuel and input once, counts space as the visited interval, and
calls an optional watch(steps, state, head, tape) on every configuration;
a true return stops the run as not halted. `run` is the core without a
watch, `trace` is a watch that snapshots configurations, and the space
measure's graph in `measures` is a watch that stops on a repeat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

LEFT = "L"
RIGHT = "R"
BLANK = "_"

# A transition table row: (state, read symbol, next state, written symbol, move).
Rule = tuple[int, str, int, str, str]


class MachineError(Exception):
    """Raised for invalid machine descriptions, inputs, or evaluation misuse."""


class ParseError(MachineError):
    """Raised when machine text cannot be parsed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class MachineDescription:
    """A complete machine: states, alphabets, and a total transition table.

    States are integers 0..state_count-1. The transition table must define
    exactly one rule for every (non-halting state, tape symbol) pair. The
    blank symbol belongs to the tape alphabet but never to the input
    alphabet, and accept and reject must be distinct states.
    """

    state_count: int
    start_state: int
    accept_state: int
    reject_state: int
    input_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    blank: str
    transitions: tuple[Rule, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(sorted(self.transitions)))
        _validate(self)

    @cached_property
    def rule_map(self) -> dict[tuple[int, str], tuple[int, str, str]]:
        return {(q, s): (q2, w, mv) for q, s, q2, w, mv in self.transitions}

    @property
    def halting_states(self) -> frozenset[int]:
        return frozenset((self.accept_state, self.reject_state))

    def working_states(self) -> Iterator[int]:
        """States that still take transitions, in ascending order."""
        halting = self.halting_states
        return (q for q in range(self.state_count) if q not in halting)


def _validate(m: MachineDescription) -> None:
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
    seen: set[tuple[int, str]] = set()
    for q, s, q2, w, mv in m.transitions:
        if (q, s) in seen:
            raise MachineError(f"duplicate rule for state {q} reading {s!r}")
        seen.add((q, s))
        if q in halting:
            raise MachineError(f"state {q} is halting and must not take transitions")
        if not 0 <= q < m.state_count or not 0 <= q2 < m.state_count:
            raise MachineError(f"rule ({q}, {s!r}) references a state out of range")
        if s not in tape_set or w not in tape_set:
            raise MachineError(f"rule ({q}, {s!r}) -> ({q2}, {w!r}) uses a symbol outside the tape alphabet")
        if mv not in (LEFT, RIGHT):
            raise MachineError(f"rule ({q}, {s!r}) has move {mv!r}, expected {LEFT} or {RIGHT}")
    for q in m.working_states():
        for s in m.tape_alphabet:
            if (q, s) not in seen:
                raise MachineError(f"transition table is not total: no rule for state {q} reading {s!r}")


class RunKind(str, enum.Enum):
    HALTED_OUTPUT = "halted-output"
    HALTED_UNDEFINED = "halted-undefined"
    FUEL_EXHAUSTED = "fuel-exhausted"


class UndefinedReason(str, enum.Enum):
    BLANK_TAPE = "blank-tape"
    NON_INPUT_SYMBOL = "non-input-symbol"


@dataclass(frozen=True)
class RunOutcome:
    """Result of a fuel-bounded run.

    steps counts every transition taken; space counts the distinct cells the
    head scanned, start cell included (the cell a final halting move lands on
    is not scanned by any transition and does not count).
    """

    kind: RunKind
    steps: int
    space: int
    output: str | None = None
    reason: UndefinedReason | None = None

    @property
    def halted(self) -> bool:
        return self.kind is not RunKind.FUEL_EXHAUSTED

    @property
    def defined(self) -> bool:
        return self.kind is RunKind.HALTED_OUTPUT


@dataclass(frozen=True)
class Configuration:
    """A machine snapshot: control state, head cell, and the non-blank tape cells."""

    state: int
    head: int
    tape: Mapping[int, str]


def initialize(m: MachineDescription, input_string: str) -> Configuration:
    """Start configuration: head on the blank cell 0, input on cells 1.. ."""
    _check_input(m, input_string)
    return Configuration(
        state=m.start_state,
        head=0,
        tape={i + 1: sym for i, sym in enumerate(input_string)},
    )


def _check_input(m: MachineDescription, input_string: str) -> None:
    for sym in input_string:
        if sym not in m.input_alphabet:
            raise MachineError(f"input symbol {sym!r} is not in the input alphabet")


def step(m: MachineDescription, config: Configuration) -> Configuration:
    """Apply one transition. Raises MachineError on a halted configuration."""
    if config.state in m.halting_states:
        raise MachineError("cannot step a halted configuration")
    read = config.tape.get(config.head, m.blank)
    next_state, written, move = m.rule_map[(config.state, read)]
    tape = dict(config.tape)
    if written == m.blank:
        tape.pop(config.head, None)
    else:
        tape[config.head] = written
    head = config.head + (1 if move == RIGHT else -1)
    return Configuration(state=next_state, head=head, tape=tape)


def _classify_tape(m: MachineDescription, tape: Mapping[int, str]) -> tuple[str | None, UndefinedReason | None]:
    if not tape:
        return None, UndefinedReason.BLANK_TAPE
    content = "".join([tape[c] for c in sorted(tape)])
    if not set(m.input_alphabet).issuperset(content):
        return None, UndefinedReason.NON_INPUT_SYMBOL
    return content, None


def _simulate(m: MachineDescription, input_string: str, fuel: int, watch: Callable[[int, int, int, dict[int, str]], object] | None = None) -> RunOutcome:
    """The one stepping loop; run, trace and the space graph are built on it.

    watch(steps, state, head, tape), if given, sees every configuration, the
    first and the last included, before the next transition; the tape is the
    live dict and must not be mutated. A true return stops the run, reported
    as not halted.
    """
    if fuel < 0:
        raise MachineError("fuel must be nonnegative")
    _check_input(m, input_string)
    tape = {i + 1: sym for i, sym in enumerate(input_string)}
    state = m.start_state
    head = lo = hi = steps = 0
    halting = (m.accept_state, m.reject_state)
    rules = m.rule_map
    blank = m.blank
    while True:
        if watch is not None and watch(steps, state, head, tape):
            break
        if state in halting:
            output, reason = _classify_tape(m, tape)
            kind = RunKind.HALTED_UNDEFINED if output is None else RunKind.HALTED_OUTPUT
            return RunOutcome(kind, steps, hi - lo + 1, output, reason)
        if steps >= fuel:
            break
        # The head moves one cell per step, so the scanned cells are [lo, hi].
        if head < lo:
            lo = head
        elif head > hi:
            hi = head
        state, written, move = rules[(state, tape.get(head, blank))]
        if written == blank:
            tape.pop(head, None)
        else:
            tape[head] = written
        head += 1 if move == RIGHT else -1
        steps += 1
    return RunOutcome(RunKind.FUEL_EXHAUSTED, steps, hi - lo + 1)


def run(m: MachineDescription, input_string: str, fuel: int) -> RunOutcome:
    """Run for at most `fuel` steps and report the outcome with exact counts."""
    return _simulate(m, input_string, fuel)


def trace(m: MachineDescription, input_string: str, fuel: int) -> list[Configuration]:
    """All configurations visited, from the start one until halt or fuel runs out."""
    configs: list[Configuration] = []
    _simulate(m, input_string, fuel, lambda _, state, head, tape: configs.append(Configuration(state, head, dict(tape))))
    return configs


def render_tape(config: Configuration, blank: str = BLANK) -> str:
    """The contiguous tape content from leftmost to rightmost non-blank cell."""
    if not config.tape:
        return ""
    lo = min(config.tape)
    hi = max(config.tape)
    return "".join(config.tape.get(i, blank) for i in range(lo, hi + 1))


def strings_up_to(alphabet: Iterable[str], max_len: int) -> Iterator[str]:
    """All strings over the alphabet up to max_len, shortest first, then lexicographic."""
    symbols = sorted(alphabet)
    for length in range(max_len + 1):
        for combo in product(symbols, repeat=length):
            yield "".join(combo)


class EquivKind(str, enum.Enum):
    AGREE = "agree"
    DIFFER = "differ"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EquivVerdict:
    kind: EquivKind
    witness: str | None = None


def equiv_bounded(a: MachineDescription, b: MachineDescription, max_len: int, fuel: int) -> EquivVerdict:
    """Compare the computed functions of two machines on all inputs up to max_len.

    Two halted runs settle an input for certain: they agree when both are
    undefined or both produce the same output, and differ otherwise. A run
    that exhausts its fuel settles nothing, so the verdict is Differ with the
    first certainly-separating input, Agree when every input is settled and
    agreeing, and Inconclusive (with the first unsettled input) in between.
    """
    if set(a.input_alphabet) != set(b.input_alphabet):
        raise MachineError("machines have different input alphabets and compute functions over different strings")
    unsettled: str | None = None
    for sigma in strings_up_to(a.input_alphabet, max_len):
        out_a = run(a, sigma, fuel)
        out_b = run(b, sigma, fuel)
        if not out_a.halted or not out_b.halted:
            if unsettled is None:
                unsettled = sigma
            continue
        if out_a.output != out_b.output:
            return EquivVerdict(EquivKind.DIFFER, witness=sigma)
    if unsettled is not None:
        return EquivVerdict(EquivKind.INCONCLUSIVE, witness=unsettled)
    return EquivVerdict(EquivKind.AGREE)


# --- textual machine format ---------------------------------------------------
#
# states: 4
# start: 0   accept: 2   reject: 3
# input_alphabet: ab
# tape_alphabet: ab_
# delta: 0 a -> 1 a R        (one line per pair; the table must be total)
#
# '#' starts a comment line. The blank is always written '_'.


def parse_machine(text: str) -> MachineDescription:
    """Parse the textual format above, reporting errors with line numbers."""
    lines = [
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty machine description")
    cursor = 0

    def next_line(expected: str) -> tuple[int, str]:
        nonlocal cursor
        if cursor >= len(lines):
            last = lines[-1][0] if lines else 0
            raise ParseError(f"unexpected end of description, expected {expected}", last)
        entry = lines[cursor]
        cursor += 1
        return entry

    number, line = next_line("'states:'")
    if not line.startswith("states:"):
        raise ParseError("expected 'states: <count>'", number)
    state_count = _parse_int(line[len("states:"):], "state count", number)

    roles: dict[str, int] = {}
    while len(roles) < 3:
        number, line = next_line("'start:', 'accept:', and 'reject:'")
        fields = _parse_role_fields(line, number)
        for name, value in fields:
            if name in roles:
                raise ParseError(f"duplicate '{name}:' field", number)
            roles[name] = value

    number, line = next_line("'input_alphabet:'")
    if not line.startswith("input_alphabet:"):
        raise ParseError("expected 'input_alphabet: <symbols>'", number)
    input_alphabet = tuple(line[len("input_alphabet:"):].strip())

    number, line = next_line("'tape_alphabet:'")
    if not line.startswith("tape_alphabet:"):
        raise ParseError("expected 'tape_alphabet: <symbols>'", number)
    tape_alphabet = tuple(line[len("tape_alphabet:"):].strip())
    if BLANK not in tape_alphabet:
        raise ParseError(f"tape alphabet must include the blank symbol {BLANK!r}", number)
    if BLANK in input_alphabet:
        raise ParseError(f"input alphabet must not include the blank symbol {BLANK!r}", number)

    rules: list[Rule] = []
    seen: dict[tuple[int, str], int] = {}
    tape_set = set(tape_alphabet)
    while cursor < len(lines):
        number, line = next_line("a 'delta:' rule")
        if not line.startswith("delta:"):
            raise ParseError("expected 'delta: <state> <symbol> -> <state> <symbol> <L|R>'", number)
        body = line[len("delta:"):].split("#", 1)[0]
        parts = body.replace("->", " -> ").split()
        if len(parts) != 6 or parts[2] != "->":
            raise ParseError("malformed rule, expected '<state> <symbol> -> <state> <symbol> <L|R>'", number)
        q = _parse_int(parts[0], "state", number)
        read = parts[1]
        q2 = _parse_int(parts[3], "state", number)
        written = parts[4]
        move = parts[5]
        for sym in (read, written):
            if len(sym) != 1 or sym not in tape_set:
                raise ParseError(f"symbol {sym!r} is not in the tape alphabet", number)
        if move not in (LEFT, RIGHT):
            raise ParseError(f"move must be {LEFT} or {RIGHT}, got {move!r}", number)
        if not 0 <= q < state_count or not 0 <= q2 < state_count:
            raise ParseError(f"rule references a state outside 0..{state_count - 1}", number)
        if (q, read) in seen:
            raise ParseError(f"duplicate rule for state {q} reading {read!r} (first at line {seen[(q, read)]})", number)
        seen[(q, read)] = number
        rules.append((q, read, q2, written, move))

    last_line = lines[-1][0]
    halting = {roles["accept"], roles["reject"]}
    for q in range(state_count):
        if q in halting:
            continue
        for sym in tape_alphabet:
            if (q, sym) not in seen:
                raise ParseError(f"transition table is not total: no rule for state {q} reading {sym!r}", last_line)
    try:
        return MachineDescription(
            state_count=state_count,
            start_state=roles["start"],
            accept_state=roles["accept"],
            reject_state=roles["reject"],
            input_alphabet=input_alphabet,
            tape_alphabet=tape_alphabet,
            blank=BLANK,
            transitions=tuple(rules),
        )
    except MachineError as exc:
        raise ParseError(str(exc), last_line) from exc


def _parse_role_fields(line: str, number: int) -> list[tuple[str, int]]:
    fields = []
    tokens = line.replace(":", ": ").split()
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.endswith(":") or token[:-1] not in ("start", "accept", "reject"):
            raise ParseError(f"expected 'start:', 'accept:', or 'reject:', got {token!r}", number)
        if i + 1 >= len(tokens):
            raise ParseError(f"missing value after {token!r}", number)
        fields.append((token[:-1], _parse_int(tokens[i + 1], token[:-1] + " state", number)))
        i += 2
    return fields


def _parse_int(text: str, what: str, number: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text.strip()!r}", number) from None


def format_machine(m: MachineDescription) -> str:
    """Render a machine in the textual format; parse_machine inverts this."""
    if m.blank != BLANK:
        raise MachineError(f"the textual format reserves {BLANK!r} for the blank symbol")
    rank = {sym: i for i, sym in enumerate(m.tape_alphabet)}
    lines = [
        f"states: {m.state_count}",
        f"start: {m.start_state}   accept: {m.accept_state}   reject: {m.reject_state}",
        f"input_alphabet: {''.join(m.input_alphabet)}",
        f"tape_alphabet: {''.join(m.tape_alphabet)}",
    ]
    for q, s, q2, w, mv in sorted(m.transitions, key=lambda r: (r[0], rank[r[1]])):
        lines.append(f"delta: {q} {s} -> {q2} {w} {mv}")
    return "\n".join(lines) + "\n"
