"""Exact simulation of two-way, single-tape deterministic Turing machines.

A machine halts by entering its accept or reject state. Its observable
behaviour is the partial string function computed this way: if the machine
halts and every non-blank cell holds an input-alphabet symbol, the output is
those symbols read left to right, with every blank cell skipped, between
them as well as around them (a halt on tape a_b computes ab); a blank tape
or a non-halting run leave the function undefined at that input. A halt
with some non-input symbol still on the tape is also treated as undefined,
and the run outcome records which of the two cases occurred.

Every evaluation here is fuel-bounded: the caller supplies a maximum step
count and gets back a three-way outcome (halted with output, halted
undefined, or fuel exhausted) so that no query can hang.

All multi-step simulation goes through one private core, `_simulate`. It
checks fuel and input once and counts space as the visited interval. `run`
is the core as it is; `trace` passes a `configs` list that the core fills
with every configuration; the space measure's graph in `measures` passes a
`space_limit` that stops the run, not halted, once the head has scanned
more cells than the limit. An outcome keeps the interval's left end, lo.

Unless `configs` is given, the core also proves divergence with two
certificates: an exact configuration repeat (Brent's cycle detection, as
the Busy Beaver Challenge's cycler decider does) and a translated cycler
(as its translated-cycler decider does: a record break repeats an earlier
one in the same direction and state, shifted by d cells after c steps, and
the cells the head can have read in between, a window of (c - d) // 2
cells behind the earlier record, match their shifted copies). A runaway, a
head past everything written whose blank-reading rules only carry it
further out, is the translated cycler with an empty window. A certificate
jumps to the one exit of every run that does not halt, with the steps at the
fuel and the cells scanned those stepping would scan (`_simulate` gives the
formulas). Under a `space_limit` only the exact repeat runs: a translated
cycler's jump would carry the scanned cells past the limit, where a stepping
run stops, and a drifting run reaches the limit within the space graph's
fuel anyway. `trace` still steps through every configuration.

A trace holds each configuration's tape as a compact immutable snapshot,
read as the Mapping of its non-blank cells: a view of a list of cells that
the trace's snapshots share, whose string is exactly the tape content. A
step that changes no symbol shares its predecessor's snapshot, and one that
widens or erases an end of the tape adds a view, not a copy, so a trace
costs memory per step, not per cell per step (`_Snapshot` gives the worst
case). `_new_content` yields the piece of each step's content where a
string can first appear, and `containment` scans only those pieces.

Most runs take a step or two, so a run's fixed cost is kept small: the
engine hands out shared outcomes from a memo of _OUTCOMES_REMEMBERED
entries, and a run pays a lookup, not the building of a frozen dataclass.
Which outcomes are shared is not API; compare them by value. The memo holds
at most that many outputs, each of at most fuel + len(input) + 1 symbols.
A run checks its input with one set test and looks for the symbol at fault
only when that fails.

Sweeps draw their inputs from `strings_up_to`, which refuses a negative
max_len at the call. A memo of at most _SWEEPS_REMEMBERED sweeps, keyed on
the sorted alphabet and max_len, makes each sweep of at most _SWEEP_CAP
symbols once, as a tuple; a larger sweep is generated as it is consumed and
not kept.

A step finds its rule through `rule_index`, {(state, read symbol): i}
with m.transitions[i] that pair's rule. A valid machine's sorted rules run
over its working states times its sorted tape alphabet, so the index
depends on the header alone. A bounded memo keyed on the header serves it,
with the input letters as a set, to every machine with that header: a run
looks both up once. `rule_index` and `rule_map` are read-only properties,
and a machine stores nothing after construction but its eight fields.

The constructor validates every machine; `decode` assembles its own
unchecked. Validation is one pass: the header (state count, roles,
alphabets, blank), then the rules in order, then the table's totality, and
the first fault raises, naming the rules at fault. Totality is settled by
counting the distinct keys that the walk over the rules let through; only
a table that fails the count is walked pair by pair, to name the first
pair missing.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from operator import eq, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

LEFT = "L"
RIGHT = "R"
BLANK = "_"

# A transition table row: (state, read symbol, next state, written symbol, move).
Rule = tuple[int, str, int, str, str]


class MachineError(Exception):
    """Raised for invalid machine descriptions, inputs, or evaluation misuse.

    `rules` are the rules at fault: the one faulty rule, both rules of a
    duplicate, or none.
    """

    def __init__(self, message: str, *rules: Rule):
        self.rules = rules
        super().__init__(message)


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

    Construction checks all of this and raises MachineError on the first
    fault.
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
        object.__setattr__(self, "input_alphabet", tuple(self.input_alphabet))
        object.__setattr__(self, "tape_alphabet", tuple(self.tape_alphabet))
        object.__setattr__(self, "transitions", tuple(sorted(self.transitions)))
        _validate(self)

    @property
    def rule_index(self) -> dict[tuple[int, str], int]:
        """{(state, read symbol): i} where transitions[i] is that pair's rule; one dict per header, not to be changed."""
        return _tables(self)[0]

    @property
    def rule_map(self) -> Mapping[tuple[int, str], tuple[int, str, str]]:
        """The table as {(state, read symbol): (next state, written symbol, move)}, a read-only view made on each read."""
        return MappingProxyType({(q, s): (q2, w, mv) for q, s, q2, w, mv in self.transitions})

    @property
    def halting_states(self) -> frozenset[int]:
        return frozenset((self.accept_state, self.reject_state))

    def working_states(self) -> Iterator[int]:
        """States that still take transitions, in ascending order."""
        halting = self.halting_states
        return (q for q in range(self.state_count) if q not in halting)


# The engine's memo per header: the rule index and the set of input letters,
# keyed by the five header fields they depend on. Like _shared_outcome's it is
# bounded, and few entries serve a sweep: 3 headers cover a 2,000-machine
# Blum sweep and 9 the 8,092 machines a 4,000-index partition runs. An
# evicted header gets an equal entry on its next run. An entry holds
# (state_count - 2) * len(tape_alphabet) pairs and the input letters.
_INDICES_REMEMBERED = 64


@lru_cache(maxsize=_INDICES_REMEMBERED)
def _header_tables(state_count: int, accept: int, reject: int, input_alphabet: tuple[str, ...], tape_alphabet: tuple[str, ...]) -> tuple[dict[tuple[int, str], int], frozenset[str]]:
    working = (q for q in range(state_count) if q not in (accept, reject))
    return {key: i for i, key in enumerate(product(working, sorted(tape_alphabet)))}, frozenset(input_alphabet)


def _tables(m: MachineDescription) -> tuple[dict[tuple[int, str], int], frozenset[str]]:
    """m's rule index and input letters, shared by every machine with m's header."""
    return _header_tables(m.state_count, m.accept_state, m.reject_state, m.input_alphabet, m.tape_alphabet)


def _validate(m: MachineDescription) -> None:
    """Check the header, then each rule in order, then that the table is total; raise MachineError on the first fault.

    The constructor and `enumerate --validate` read this from the module at
    call time, so a rebound _validate (a tracer's) sees every check.
    """
    for name in ("state_count", "start_state", "accept_state", "reject_state"):
        if not isinstance(getattr(m, name), int):
            raise MachineError(f"{name} {getattr(m, name)!r} is not an integer")
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
    tape_set = frozenset(m.tape_alphabet)
    missing = [s for s in m.input_alphabet if s not in tape_set]
    if missing:
        raise MachineError(f"input symbols {missing} are missing from the tape alphabet")
    n, halting = m.state_count, m.halting_states
    seen: dict[tuple[int, str], Rule] = {}
    for rule in m.transitions:
        q, s, q2, w, mv = rule
        key = q, s
        if key in seen:
            raise MachineError(f"duplicate rule for state {q} reading {s!r}", seen[key], rule)
        seen[key] = rule
        if q in halting:
            raise MachineError(f"state {q} is halting and must not take transitions", rule)
        if not 0 <= q < n or not 0 <= q2 < n:
            raise MachineError(f"rule ({q}, {s!r}) references a state out of range", rule)
        if s not in tape_set or w not in tape_set:
            raise MachineError(f"rule ({q}, {s!r}) -> ({q2}, {w!r}) uses a symbol outside the tape alphabet", rule)
        if mv not in (LEFT, RIGHT):
            raise MachineError(f"rule ({q}, {s!r}) has move {mv!r}, expected {LEFT} or {RIGHT}", rule)
    # Each key in seen is distinct and pairs a tape symbol with a state in
    # [0, state_count) that does not halt. The roles are integers, so when
    # those states are too, such keys cover the working states times the tape
    # alphabet exactly when there are (state_count - 2) * len(tape_alphabet)
    # of them. Any other table is walked pair by pair, to name the first one missing.
    if not (len(seen) == (n - 2) * len(m.tape_alphabet) and set(range(n)).issuperset(map(itemgetter(0), seen))):
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


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """Result of a fuel-bounded run.

    steps counts every transition taken; space counts the cells the head
    scanned, lo the leftmost of them and the start cell 0 among them (the
    cell a final halting move lands on is not scanned and does not count).
    """

    kind: RunKind
    steps: int
    space: int
    output: str | None = None
    reason: UndefinedReason | None = None
    lo: int = 0

    @property
    def halted(self) -> bool:
        return self.kind is not _FUEL_EXHAUSTED

    @property
    def defined(self) -> bool:
        return self.kind is _HALTED_OUTPUT


# The kinds as module constants: a global read is cheaper than a class
# attribute on an enum, and a run reads one or two of them.
_HALTED_OUTPUT, _HALTED_UNDEFINED, _FUEL_EXHAUSTED = RunKind

# The engine builds every outcome it returns through _shared_outcome, so equal
# outcomes are mostly one object. Sharing is sound because an outcome is
# frozen and compared by value. A sweep over thousands of machines ends in
# under 200 distinct outcomes, and a few carry most runs: 64 entries serve
# 99% of a 2,000-machine Blum sweep's runs and 96% of a 4,000-index
# partition's, with a quarter of the memory of 256. An entry holds one
# output, of at most fuel + len(input) + 1 symbols. RunKind is a str enum, so
# a plain string keys the same entry as its member: the engine and
# transforms.variant_run call this, always with members and all six fields.
_OUTCOMES_REMEMBERED = 64
_shared_outcome = lru_cache(maxsize=_OUTCOMES_REMEMBERED)(RunOutcome)


# outcome(sigma, fuel): the run of one machine on sigma under that fuel.
RunLookup = Callable[[str, int], RunOutcome]


def _run_table(m: MachineDescription, member: RunLookup | None = None, derive: Callable[[str, int, RunOutcome], RunOutcome | None] | None = None) -> RunLookup:
    """m's runs by (input, fuel), each made through run on first use and kept while the lookup lives.

    Given member, a run is derive(sigma, fuel, member(sigma, fuel)) unless
    that is None, as a probe variant's are. run is read from this module
    when a run is made, so a rebound run (a tracer's or a test's) sees every
    run made. A dict, not functools.cache, because cache's wrapper setup
    costs more than a query's lookups.
    """
    table: dict[tuple[str, int], RunOutcome] = {}

    def outcome(sigma: str, fuel: int) -> RunOutcome:
        ran = table.get((sigma, fuel))
        if ran is None:
            ran = table[sigma, fuel] = (member and derive(sigma, fuel, member(sigma, fuel))) or run(m, sigma, fuel)
        return ran

    return outcome


@dataclass(frozen=True, slots=True)
class Configuration:
    """A machine snapshot: control state, head cell, and the non-blank tape cells."""

    state: int
    head: int
    tape: Mapping[int, str]


class _Snapshot(Mapping[int, str]):
    """An immutable tape: the view [lo, hi) of a list of cells, trimmed of blanks at both ends.

    cells is exactly the tape content, from the leftmost to the rightmost
    non-blank cell with interior blanks included, and base is the leftmost
    non-blank cell (its value is left over from an earlier tape once cells
    is empty). As a Mapping the snapshot holds only the non-blank cells, as
    a dict tape does.

    Snapshots of one trace share lists, entry i holding cell origin + i, and
    no entry changes once written. A write past the right end appends when
    the view ends at the list's end; one past the left end fills the None
    room before the lowest written cell when the view starts there; an end
    erase narrows the view. Any other write copies the view, with room as
    wide as the content for a write past its left end, so either end grows
    at O(1) per step, amortised. The worst case is a machine that rewrites
    an interior cell each step: it copies its tape each step at 8 bytes a
    cell, up to 8 times what a str per step costs.
    """

    __slots__ = ("buffer", "origin", "lo", "hi", "blank")

    def __init__(self, buffer: list, origin: int, lo: int, hi: int, blank: str):
        self.buffer = buffer
        self.origin = origin
        self.lo = lo
        self.hi = hi
        self.blank = blank

    @property
    def base(self) -> int:
        return self.origin + self.lo

    @property
    def cells(self) -> str:
        return "".join(self.buffer[self.lo : self.hi])

    def __getitem__(self, cell: int) -> str:
        i = cell - self.origin
        if self.lo <= i < self.hi and self.buffer[i] != self.blank:
            return self.buffer[i]
        raise KeyError(cell)

    def __iter__(self) -> Iterator[int]:
        return (self.base + i for i, symbol in enumerate(self.cells) if symbol != self.blank)

    def __len__(self) -> int:
        return len(self.cells) - self.cells.count(self.blank)

    def __repr__(self) -> str:
        return repr(dict(self))

    def write(self, cell: int, symbol: str) -> _Snapshot:
        """The tape after writing symbol at cell: self if that changes nothing, else a new snapshot."""
        buffer, origin, lo, hi, blank = self.buffer, self.origin, self.lo, self.hi, self.blank
        i = cell - origin
        if lo <= i < hi:
            if buffer[i] == symbol:
                return self
            if symbol != blank or lo < i < hi - 1:
                cells = buffer[lo:hi]
                cells[i - lo] = symbol
                return _Snapshot(cells, origin + lo, 0, len(cells), blank)
            lo, hi = (i + 1, hi) if i == lo else (lo, i)
            while lo < hi and buffer[lo] == blank:
                lo += 1
            while lo < hi and buffer[hi - 1] == blank:
                hi -= 1
            return _Snapshot(buffer, origin, lo, hi, blank)
        if symbol == blank:
            return self
        if lo == hi:
            return _Snapshot([symbol], cell, 0, 1, blank)
        if i >= hi:
            cells = [blank] * (i - hi) + [symbol]
            if hi < len(buffer):
                cells[:0] = buffer[lo:hi]
                return _Snapshot(cells, origin + lo, 0, len(cells), blank)
            buffer += cells
            return _Snapshot(buffer, origin, lo, i + 1, blank)
        cells = [symbol] + [blank] * (lo - i - 1)
        if i < 0 or buffer[lo - 1] is not None:
            cells += buffer[lo:hi]
            room = len(cells)
            return _Snapshot([None] * room + cells, cell - room, room, 2 * room, blank)
        buffer[i:lo] = cells
        return _Snapshot(buffer, origin, i, hi, blank)


def _new_content(configs: list[Configuration], reach: int) -> Iterator[tuple[int, str]]:
    """(step, piece) for each step of a trace whose content can hold a string its predecessor's lacks.

    A piece holds every occurrence, in its step's content, of a string of at
    most reach + 1 symbols that the previous content lacks. Step 0 yields
    its whole content. Each later step writes the cell the previous head was
    on, and one that changes no symbol shares its predecessor's snapshot and
    yields nothing. A new occurrence overlaps the written cell or the blanks
    a widening write exposes between it and the old end, so the piece is that
    stretch padded by reach cells. An end erase leaves the written cell
    outside the content, which only shrinks, and yields nothing.
    Consecutive views of one list differ by an append, a prefix or a
    narrowing, so one running string takes each change, and a piece is a
    slice of it.
    """
    before = configs[0].tape
    content = before.cells
    yield 0, content
    for step, config in enumerate(configs):
        after = config.tape
        if after is not before:
            buffer, lo, hi = after.buffer, after.lo, after.hi
            if buffer is not before.buffer:
                content = after.cells
            elif lo == before.lo and hi > before.hi:
                content += "".join(buffer[before.hi : hi])
            elif lo < before.lo:
                content = "".join(buffer[lo : before.lo]) + content
            else:
                content = content[lo - before.lo : hi - before.lo]
            cell, base = configs[step - 1].head, after.base
            if base <= cell < base + len(content):
                # Bounds left over from an emptied before give a wider [a, b], never a narrower one.
                a = min(cell, before.origin + before.hi)
                b = max(cell, before.base - 1)
                yield step, content[max(a - reach - base, 0) : b + reach + 1 - base]
            before = after


def _classify_tape(letters: frozenset[str], tape: Mapping[int, str]) -> tuple[str | None, UndefinedReason | None]:
    """The output of a halt on tape and, if it is undefined, why; letters are the machine's input letters."""
    if not tape:
        return None, UndefinedReason.BLANK_TAPE
    content = "".join(map(tape.__getitem__, sorted(tape)))
    if not letters.issuperset(content):
        return None, UndefinedReason.NON_INPUT_SYMBOL
    return content, None


def _simulate(m: MachineDescription, input_string: str, fuel: int, configs: list[Configuration] | None = None, space_limit: float = math.inf) -> RunOutcome:
    """The one stepping loop; run, trace and the space graph are built on it.

    configs, if given, receives every configuration, the first and the last
    included. space_limit stops the run, reported as not halted, at the
    record break that makes hi - lo reach it: the head has then scanned more
    than space_limit cells.

    A run that does not halt leaves by one exit, fuel exhausted with steps
    and [lo, hi] as they stand. Unless configs is given, two divergence
    certificates jump there early, with steps set to the fuel and [lo, hi]
    to the cells that stepping to the fuel would scan; under a finite
    space_limit only the exact repeat does, so a limited run still stops at
    the limit as stepping does.
    - Exact repeat: the configuration equals a snapshot retaken at steps 1,
      2, 4, 8, ... (Brent); the tape is compared only when state and head
      match. The run then cycles inside the cells already scanned.
    - Translated cycler: a record break at step t2 and head h2 has the state
      and direction of a record snapshot (step t1, head h1), retaken at the
      first record break at or after step 2*t1 (Brent), and the window
      behind the record, [h1 - w, h1] for a right record and [h1, h1 + w]
      for a left one with w = (c - d) // 2, c = t2 - t1 and d = |h2 - h1|,
      equals the same cells shifted to h2. Cells beyond a record are blank
      (a right snapshot waits until the head is on the last input cell or
      past it), and in c steps a head that ends d cells out cannot go more
      than w cells back, so the c steps from t2 repeat those from t1 shifted
      by d, and so on forever. The snapshot keeps the steps of later records
      in its direction, so with k, r = divmod(fuel - 1 - t2, c) the outermost
      cell scanned is h2 + k*d + (records in (t1, t1 + r]) to the right and
      h2 - that to the left; [lo, hi] grows to it at that end only. A
      runaway, whose blank-reading rules only carry the head further out, is
      the case c = d with an empty window of blank cells.
    """
    if fuel < 0:
        raise MachineError("fuel must be nonnegative")
    index, letters = _tables(m)
    if not letters.issuperset(input_string):
        sym = next(sym for sym in input_string if sym not in letters)
        raise MachineError(f"input symbol {sym!r} is not in the input alphabet")
    tape = dict(enumerate(input_string, 1))
    state = m.start_state
    head = lo = hi = steps = 0
    halting = (m.accept_state, m.reject_state)
    rules = m.transitions
    blank = m.blank
    end = len(input_string)
    # Both certificate schedules start at step 1. A trace must hold every
    # configuration, so it starts them at the fuel, which a stepping run never
    # reaches, and so turns the certificates off. A space limit turns the
    # translated cycler off: it jumps [lo, hi] to the fuel's, past a limit
    # that stepping stops at, and a drifting run reaches the limit anyway.
    next_snapshot = 1 if configs is None else fuel
    next_record_snapshot = 1 if configs is None and space_limit == math.inf else fuel
    snapshot_state = snapshot_head = snapshot_tape = None
    # The translated-cycler snapshot: state, step, head, tape and direction of
    # a record break, and the steps of later records in that direction.
    record_state = record_step = record_head = record_tape = record_right = None
    later_records: list[int] = []
    if configs is not None:
        snapshot = _Snapshot(list(input_string), 1, 0, end, blank)
    while True:
        if configs is not None:
            configs.append(Configuration(state, head, snapshot))
        if state in halting:
            output, reason = _classify_tape(letters, tape)
            return _shared_outcome(_HALTED_UNDEFINED if output is None else _HALTED_OUTPUT, steps, hi - lo + 1, output, reason, lo)
        if steps >= fuel:
            break
        # The head moves one cell per step, so the scanned cells are [lo, hi];
        # a repeat snapshot's head lies inside them.
        if not lo <= head <= hi:
            right = head > hi
            if right:
                hi = head
            else:
                lo = head
            if hi - lo >= space_limit:
                break
            if state == record_state and right == record_right:
                period = steps - record_step
                shift = head - record_head
                drift = abs(shift)
                width = (period - drift) // 2
                first = record_head - width if right else record_head
                # Cells outside [lo, max(hi, end)] are blank in both tapes.
                start = max(first, lo - drift)
                stop = min(first + width, max(hi, end) + drift) + 1
                # The far end of the window, where a mismatch is likeliest, first.
                cells = range(start, stop) if right else range(stop - 1, start - 1, -1)
                if all(map(eq, map(record_tape.get, cells), map(tape.get, range(cells.start + shift, cells.stop + shift, cells.step)))):
                    periods, rest = divmod(fuel - 1 - steps, period)
                    grown = periods * drift + bisect_right(later_records, record_step + rest)
                    if right:
                        hi += grown
                    else:
                        lo -= grown
                    steps = fuel
                    break
            # The window argument needs blanks past the snapshot's head, so a
            # right snapshot waits until the head is on the last input cell.
            if steps >= next_record_snapshot and (head >= end or not right):
                record_state, record_step, record_head, record_tape, record_right = state, steps, head, dict(tape), right
                later_records = []
                next_record_snapshot = 2 * steps
            elif right == record_right:
                later_records.append(steps)
        elif head == snapshot_head and state == snapshot_state and tape == snapshot_tape:
            steps = fuel
            break
        if steps == next_snapshot:
            snapshot_state, snapshot_head, snapshot_tape = state, head, dict(tape)
            next_snapshot = 2 * steps
        _, _, state, written, move = rules[index[state, tape.get(head, blank)]]
        if written == blank:
            tape.pop(head, None)
        else:
            tape[head] = written
        if configs is not None:
            snapshot = snapshot.write(head, written)
        head += 1 if move == RIGHT else -1
        steps += 1
    return _shared_outcome(_FUEL_EXHAUSTED, steps, hi - lo + 1, None, None, lo)


def run(m: MachineDescription, input_string: str, fuel: int) -> RunOutcome:
    """Run for at most `fuel` steps and report the outcome with exact counts."""
    return _simulate(m, input_string, fuel)


def trace(m: MachineDescription, input_string: str, fuel: int) -> list[Configuration]:
    """All configurations visited, from the start one until halt or fuel runs out."""
    configs: list[Configuration] = []
    _simulate(m, input_string, fuel, configs)
    return configs


def render_tape(config: Configuration, blank: str = BLANK) -> str:
    """The contiguous tape content from leftmost to rightmost non-blank cell."""
    if isinstance(config.tape, _Snapshot):
        # A trace's tape is that content, written with its own blank.
        return config.tape.cells.replace(config.tape.blank, blank)
    if not config.tape:
        return ""
    lo = min(config.tape)
    hi = max(config.tape)
    return "".join(config.tape.get(i, blank) for i in range(lo, hi + 1))


# A partition's leaves ask for the same few sweeps for each of thousands of
# machines. max_len * (max_len + 1) * len(alphabet) ** max_len bounds a
# sweep's symbols; the memo keeps a sweep when that is at most _SWEEP_CAP,
# and drops its oldest sweep first.
_SWEEPS_REMEMBERED = 16
_SWEEP_CAP = 10_000
_sweeps: dict = {}


def strings_up_to(alphabet: Iterable[str], max_len: int) -> Iterator[str]:
    """All strings over the alphabet up to max_len, shortest first, then lexicographic.

    A negative max_len raises MachineError here, at the call.
    """
    if max_len < 0:
        raise MachineError("max_len must be nonnegative")
    symbols = tuple(sorted(alphabet))
    sweep = _sweeps.get((symbols, max_len))
    if sweep is None:
        sweep = ("".join(combo) for length in range(max_len + 1) for combo in product(symbols, repeat=length))
        if max_len <= _SWEEP_CAP and max_len * (max_len + 1) * len(symbols) ** max_len <= _SWEEP_CAP:
            if len(_sweeps) == _SWEEPS_REMEMBERED:
                _sweeps.pop(next(iter(_sweeps)), None)
            sweep = _sweeps[symbols, max_len] = tuple(sweep)
    return iter(sweep)


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
    return _equiv(a, partial(run, b), max_len, fuel)


def _equiv(a: MachineDescription, reference: RunLookup, max_len: int, fuel: int) -> EquivVerdict:
    """equiv_bounded, reading the other machine's run from reference(sigma, fuel)."""
    unsettled: str | None = None
    for sigma in strings_up_to(a.input_alphabet, max_len):
        out_a = run(a, sigma, fuel)
        out_b = reference(sigma, fuel)
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
# '#' starts a comment line. The blank is always written '_'. The parser reads
# only the syntax; MachineDescription checks the machine, and a fault in one
# rule is reported at that rule's line (a duplicate at the later of its two).


def parse_machine(text: str) -> MachineDescription:
    """Parse the textual format above, reporting errors with line numbers."""
    lines = [
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty machine description")
    last = lines[-1][0]
    rest = iter(lines)

    def take(expected: str) -> tuple[int, str]:
        entry = next(rest, None)
        if entry is None:
            raise ParseError(f"unexpected end of description, expected {expected}", last)
        return entry

    def directive(name: str, form: str, entry: tuple[int, str] | None = None) -> tuple[int, str]:
        """The number of a line that must start with 'name:' (the next line by default), and what follows."""
        number, line = entry or take(f"'{name}:'")
        if not line.startswith(name + ":"):
            raise ParseError(f"expected '{name}: {form}'", number)
        return number, line[len(name) + 1:]

    number, count = directive("states", "<count>")
    state_count = _parse_int(count, "state count", number)

    roles: dict[str, int] = {}
    while len(roles) < 3:
        number, line = take("'start:', 'accept:', and 'reject:'")
        for name, value in _parse_role_fields(line, number):
            if name in roles:
                raise ParseError(f"duplicate '{name}:' field", number)
            roles[name] = value

    _, symbols = directive("input_alphabet", "<symbols>")
    input_alphabet = tuple(symbols.strip())
    number, symbols = directive("tape_alphabet", "<symbols>")
    tape_alphabet = tuple(symbols.strip())
    if BLANK not in tape_alphabet:
        raise ParseError(f"tape alphabet must include the blank symbol {BLANK!r}", number)
    if BLANK in input_alphabet:
        raise ParseError(f"input alphabet must not include the blank symbol {BLANK!r}", number)

    rules: list[Rule] = []
    # The line of each rule; a rule listed twice keeps its later line.
    rule_lines: dict[Rule, int] = {}
    for entry in rest:
        number, body = directive("delta", "<state> <symbol> -> <state> <symbol> <L|R>", entry)
        parts = body.split("#", 1)[0].replace("->", " -> ").split()
        if len(parts) != 6 or parts[2] != "->":
            raise ParseError("malformed rule, expected '<state> <symbol> -> <state> <symbol> <L|R>'", number)
        q = _parse_int(parts[0], "state", number)
        q2 = _parse_int(parts[3], "state", number)
        rule = (q, parts[1], q2, parts[4], parts[5])
        rule_lines[rule] = number
        rules.append(rule)

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
        raise ParseError(str(exc), max(map(rule_lines.__getitem__, exc.rules), default=last)) from exc


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
        return _natural(text.strip())
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", number) from None


def _natural(text: str) -> int:
    """The one reader of numbers in every text grammar: ASCII decimal digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def format_machine(m: MachineDescription) -> str:
    """Render a machine in the textual format; parse_machine inverts this."""
    if m.blank != BLANK:
        raise MachineError(f"the textual format reserves {BLANK!r} for the blank symbol")
    # Whitespace separates a rule's fields and '#' starts a comment in it.
    unwritable = [sym for sym in m.tape_alphabet if sym.isspace() or sym == "#"]
    if unwritable:
        raise MachineError(f"the textual format cannot carry the tape symbols {unwritable}: no whitespace or '#'")
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
