"""Machine-to-machine constructions that preserve the computed function.

Every transformer here returns a new machine computing exactly the same
partial string function as its argument. They differ in what else they
change: pad grows the state count without touching any reachable behaviour,
delay_inject slows every run down by an exact number of steps, leaky_wrap
makes the trace momentarily contain a chosen string without altering input
or output, and canonicalize renames states and symbols into the normal form
the index bijection covers.

The three state-adding rewrites are each a chain of new states numbered
after m's, built from a tuple of steps by one helper, _extend, in one
MachineDescription call, so every variant is validated once: each new
state either loops on itself or hands control to the next, the last one to
m's start. A variant runs its chain, if at all, as a lead-in, and then m
on its own tape and head, so variant_run reads a variant's run off m's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .enumeration import _shape_of, encode
from .machine import LEFT, RIGHT, MachineDescription, Rule, RunOutcome, _shared_outcome


_Step = tuple[str, str | None, tuple[str, ...]]  # (move, write, advance_on)


def _extend(m: MachineDescription, start_state: int, tape_alphabet: tuple[str, ...], rules: tuple[Rule, ...], steps: tuple[_Step, ...]) -> MachineDescription:
    """m with a chain of new states after its own, one per step, in one constructor call.

    The new machine starts in start_state, reads tape_alphabet, and holds m's
    rules, then rules, then the chain's: new state m.state_count + i takes
    step i = (move, write, advance_on), moving the head by move on every
    symbol. On a symbol in advance_on it writes write (the symbol read, when
    None) and advances to the next new state, or to m's start state after
    the last step; on any other symbol it rewrites what it read and stays.
    """
    chain: list[Rule] = []
    for i, (move, write, advance_on) in enumerate(steps):
        state = m.state_count + i
        target = state + 1 if i < len(steps) - 1 else m.start_state
        for sym in tape_alphabet:
            if sym in advance_on:
                chain.append((state, sym, target, sym if write is None else write, move))
            else:
                chain.append((state, sym, state, sym, move))
    return MachineDescription(m.state_count + len(steps), start_state, m.accept_state, m.reject_state, m.input_alphabet, tape_alphabet, m.blank, m.transitions + rules + tuple(chain))


def pad(m: MachineDescription, k: int) -> MachineDescription:
    """Append k unreachable self-looping states; traces are unchanged."""
    if k < 1:
        raise ValueError("pad needs k >= 1 extra states")
    return _extend(m, m.start_state, m.tape_alphabet, (), ((RIGHT, None, ()),) * k)


def delay_inject(m: MachineDescription, d: int) -> MachineDescription:
    """Prefix a d-step excursion into the blank region left of the start cell.

    The new machine walks d/2 cells left and back, rewriting what it reads,
    then hands control to the original start state with head and tape exactly
    as they began. Every run therefore takes exactly d extra steps and the
    computed function is unchanged. d must be even and at least 2.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("delay must be an even number of steps, at least 2")
    every = m.tape_alphabet
    steps = ((LEFT, None, every),) * (d // 2) + ((RIGHT, None, every),) * (d // 2)
    return _extend(m, m.state_count, every, (), steps)


def leaky_wrap(m: MachineDescription, chi: str) -> MachineDescription:
    """Write chi on the tape beyond the input, erase it, then run m unchanged.

    The wrapper scans right from the start cell to the first blank after the
    input (cell 1 itself when the input is empty), writes chi there symbol by
    symbol, erases it again walking back, parks the head on the start cell,
    and enters m's start state with the tape exactly as it was handed in. The
    computed function is preserved while the trace passes through
    configurations whose tape content contains chi.
    """
    if not chi:
        raise ValueError("the leaked string must be nonempty")
    if m.blank in chi:
        raise ValueError("the leaked string cannot contain the blank symbol")
    new_symbols = tuple(dict.fromkeys(sym for sym in chi if sym not in m.tape_alphabet))
    every = m.tape_alphabet + new_symbols
    blank = (m.blank,)
    # Rules for m's own states never see the new symbols on inputs the wrapper
    # produces, but the table must stay total over the grown alphabet.
    rejects = tuple((q, sym, m.reject_state, sym, RIGHT) for q in m.working_states() for sym in new_symbols)
    steps = (
        ((RIGHT, None, every),)  # step off the start cell onto the input
        + ((RIGHT, chi[0], blank),)  # scan to the first blank and write chi[0]
        + tuple((RIGHT, sym, every) for sym in chi[1:])  # write the rest of chi
        + ((LEFT, None, every),)  # turn back onto chi's last cell
        + ((LEFT, m.blank, every),) * len(chi)  # erase chi, one cell per step
        + ((LEFT, None, blank),)  # scan left past the blank start cell
        + ((RIGHT, None, every),)  # step back onto it in m's start state
    )
    return _extend(m, m.state_count, every, rejects, steps)


def variant_run(kind: str, parameter: int | str, sigma: str, fuel: int, ran: RunOutcome) -> RunOutcome | None:
    """The run of m's kind rewrite by parameter on sigma under fuel, read off ran; None where ran cannot tell.

    A rewrite adds a lead-in of e steps over the cells [a, b], then m runs on
    its own tape and head: pad(k) adds e = 0 over [0, 0], delay_inject(d)
    e = d over [-d/2, 0], leaky_wrap(chi) e = 2|sigma| + 2|chi| + 4 over
    [-1, |sigma| + |chi| + 1]. ran is m's run on sigma under fuel - e or
    more. When it takes s <= fuel - e steps, as a halt by then does, the
    variant's run takes s + e steps with ran's kind, output and reason, over
    the union of [a, b] and ran's cells. Any other kind raises ValueError.
    """
    e, a, b = 0, 0, 0
    if kind == "delay":
        e, a = parameter, -(parameter // 2)
    elif kind == "leak":
        e, a, b = 2 * len(sigma) + 2 * len(parameter) + 4, -1, len(sigma) + len(parameter) + 1
    elif kind != "pad":
        raise ValueError(f"variant kind must be pad, delay or leak, got {kind!r}")
    if ran.steps > fuel - e:
        return None
    lo = min(ran.lo, a)
    return _shared_outcome(ran.kind, ran.steps + e, max(ran.lo + ran.space - 1, b) - lo + 1, ran.output, ran.reason, lo)


def canonicalize(m: MachineDescription) -> MachineDescription:
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
    shape, _ = _shape_of(m)
    _, start, accept, reject, _, gamma, _ = shape.header
    roles = {m.start_state: start, m.accept_state: accept, m.reject_state: reject}
    others = iter(q for q in range(m.state_count) if q not in roles.values())
    state_map = {q: roles[q] if q in roles else next(others) for q in range(m.state_count)}
    extras = [sym for sym in m.tape_alphabet if sym not in m.input_alphabet and sym != m.blank]
    symbol_map = dict(zip((*m.input_alphabet, m.blank, *extras), gamma))
    return MachineDescription(*shape.header, tuple(
        (state_map[q], symbol_map[s], state_map[q2], symbol_map[w], mv)
        for q, s, q2, w, mv in m.transitions
    ))


@dataclass(frozen=True)
class TransformReceipt:
    """Provenance record tying a transformed machine back to its source index."""

    kind: str
    parameter: str
    input_index: int
    output_index: int

    def as_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def receipt_for(kind: str, original: MachineDescription, transformed: MachineDescription, parameter: object) -> TransformReceipt:
    """Build a receipt by canonicalizing and indexing both endpoints.

    The state-changing transformers always grow the state count, so their
    receipts carry distinct input and output indices; canonicalize is the one
    kind allowed to map a machine to itself.
    """
    input_index = encode(canonicalize(original))
    output_index = encode(canonicalize(transformed))
    if kind != "canonicalize" and input_index == output_index:
        raise ValueError(f"{kind} produced a machine with the same canonical index {input_index}")
    return TransformReceipt(
        kind=kind,
        parameter=str(parameter),
        input_index=input_index,
        output_index=output_index,
    )
