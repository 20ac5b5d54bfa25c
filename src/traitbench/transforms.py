"""Machine-to-machine constructions that preserve the computed function.

Every transformer here returns a new machine computing exactly the same
partial string function as its argument. They differ in what else they
change: pad grows the state count without touching any reachable behaviour,
delay_inject slows every run down by an exact number of steps, leaky_wrap
makes the trace momentarily contain a chosen string without altering input
or output, and canonicalize renames states and symbols into the normal form
the index bijection covers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .enumeration import EXTRA_UNIVERSE, SIGMA_UNIVERSE, encode
from .machine import BLANK, LEFT, RIGHT, MachineDescription, Rule


def pad(m: MachineDescription, k: int) -> MachineDescription:
    """Append k unreachable self-looping states; traces are unchanged."""
    if k < 1:
        raise ValueError("pad needs k >= 1 extra states")
    rules = list(m.transitions)
    for q in range(m.state_count, m.state_count + k):
        for sym in m.tape_alphabet:
            rules.append((q, sym, q, sym, RIGHT))
    return replace(m, state_count=m.state_count + k, transitions=tuple(rules))


def delay_inject(m: MachineDescription, d: int) -> MachineDescription:
    """Prefix a d-step excursion into the blank region left of the start cell.

    The new machine walks d/2 cells left and back, rewriting what it reads,
    then hands control to the original start state with head and tape exactly
    as they began. Every run therefore takes exactly d extra steps and the
    computed function is unchanged. d must be even and at least 2.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("delay must be an even number of steps, at least 2")
    base = m.state_count
    rules = list(m.transitions)
    for i in range(d):
        state = base + i
        target = base + i + 1 if i < d - 1 else m.start_state
        move = LEFT if i < d // 2 else RIGHT
        for sym in m.tape_alphabet:
            rules.append((state, sym, target, sym, move))
    return replace(m, state_count=base + d, start_state=base, transitions=tuple(rules))


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
    tape_alphabet = m.tape_alphabet + new_symbols
    rules: list[Rule] = list(m.transitions)
    # Rules for m's own states never see the new symbols on inputs the wrapper
    # produces, but the table must stay total over the grown alphabet.
    halting = m.halting_states
    for q in range(m.state_count):
        if q in halting:
            continue
        for sym in new_symbols:
            rules.append((q, sym, m.reject_state, sym, RIGHT))

    k = len(chi)
    base = m.state_count
    seek_start = base
    seek_scan = base + 1
    write_states = {j: base + j for j in range(2, k + 1)}  # state about to write chi[j-1]
    turn = base + k + 1
    erase_states = {j: base + k + 1 + (k - j + 1) for j in range(k, 0, -1)}  # j cells left to erase
    ret = base + 2 * k + 2
    ret_bounce = base + 2 * k + 3

    def everywhere(state: int, action) -> None:
        for sym in tape_alphabet:
            rules.append((state, sym, *action(sym)))

    after_first_write = write_states.get(2, turn)
    everywhere(seek_start, lambda sym: (seek_scan, sym, RIGHT))
    for sym in tape_alphabet:
        if sym == m.blank:
            rules.append((seek_scan, sym, after_first_write, chi[0], RIGHT))
        else:
            rules.append((seek_scan, sym, seek_scan, sym, RIGHT))
    for j in range(2, k + 1):
        target = write_states.get(j + 1, turn)
        written = chi[j - 1]
        everywhere(write_states[j], lambda sym, t=target, w=written: (t, w, RIGHT))
    everywhere(turn, lambda sym: (erase_states[k], sym, LEFT))
    for j in range(k, 0, -1):
        target = erase_states.get(j - 1, ret)
        everywhere(erase_states[j], lambda sym, t=target: (t, m.blank, LEFT))
    for sym in tape_alphabet:
        if sym == m.blank:
            rules.append((ret, sym, ret_bounce, sym, LEFT))
        else:
            rules.append((ret, sym, ret, sym, LEFT))
    everywhere(ret_bounce, lambda sym: (m.start_state, sym, RIGHT))

    return replace(
        m,
        state_count=base + 2 * k + 4,
        start_state=seek_start,
        tape_alphabet=tape_alphabet,
        transitions=tuple(rules),
    )


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


@dataclass(frozen=True)
class TransformReceipt:
    """Provenance record tying a transformed machine back to its source index."""

    kind: str
    parameter: str
    input_index: int
    output_index: int

    def as_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "parameter": self.parameter,
                "input_index": self.input_index,
                "output_index": self.output_index,
            },
            sort_keys=True,
        )


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
