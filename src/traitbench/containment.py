"""Checking that a machine never handles or emits classified strings.

A containment policy names a finite set of classified strings and a
predicate for acceptable (unclassified) outputs; the two must be disjoint,
which is validated at construction. A machine is contained on a set of
inputs when, first, no classified string ever appears in the contiguous
tape content of any configuration along its traces, and second, every
defined output satisfies the unclassified predicate.

The first condition is strictly stronger than the second and that gap is
the point: a machine can compute a perfectly innocent function while its
intermediate tape contents leak, and only trace scanning sees it.

The tape content of a configuration is its rendering: the cells from the
leftmost to the rightmost non-blank one, interior blanks included, so a
classified string holding the blank symbol matches blank cells between
written ones. The trace is scanned incrementally. The first configuration
is scanned in full; after it, each step changes one cell, the one the head
was on, and only a step that changes its symbol is scanned. Such a step can
make a classified string appear only where it overlaps the written cell or
the blank cells a widening write exposes between that cell and the old end,
so only that piece of the rendering, padded by the longest classified
string, is tested. Erasing an end cell only shrinks the rendering and is
not tested at all. The full rendering is made only for the report, once per
(input, classified string), and the scan of an input stops once every
classified string has been found in it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .machine import MachineDescription, _classify_tape, render_tape, trace


@dataclass(frozen=True)
class ContainmentPolicy:
    classified: tuple[str, ...]
    unclassified: Callable[[str], bool] | None = None

    def __post_init__(self):
        if self.unclassified is None:
            object.__setattr__(self, "unclassified", _substring_free(self.classified))
        if not self.classified:
            raise ValueError("a containment policy needs at least one classified string")
        for chi in self.classified:
            if not chi:
                raise ValueError("classified strings must be nonempty")
            if self.unclassified(chi):
                raise ValueError(
                    f"classified string {chi!r} also counts as unclassified; the two sets must be disjoint"
                )


def _substring_free(classified: tuple[str, ...]) -> Callable[[str], bool]:
    def predicate(s: str) -> bool:
        return not any(chi in s for chi in classified)

    return predicate


def policy_from_dict(data: dict) -> ContainmentPolicy:
    """Build a policy from {"classified": [...], "unclassified_regex": "..."}.

    "classified" must be a list of nonempty strings; the optional regex must
    be a string that compiles. Anything else raises ValueError. Without a
    regex, a string is unclassified exactly when it contains no classified
    string as a substring.
    """
    listed = data.get("classified") if isinstance(data, dict) else None
    if not isinstance(listed, list) or not all(isinstance(chi, str) for chi in listed):
        raise ValueError('a policy needs "classified": a list of nonempty strings')
    classified = tuple(listed)
    pattern = data.get("unclassified_regex")
    if pattern is None:
        return ContainmentPolicy(classified)
    try:
        compiled = re.compile(pattern)
    except (re.error, TypeError) as exc:
        raise ValueError(f"unclassified_regex {pattern!r} is not a valid regular expression: {exc}") from None
    return ContainmentPolicy(classified, lambda s: compiled.fullmatch(s) is not None)


def load_policy(path: str | Path) -> ContainmentPolicy:
    return policy_from_dict(json.loads(Path(path).read_text("utf-8")))


class ContainmentVerdict(str, Enum):
    CONTAINED = "contained"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TraceViolation:
    input: str
    step: int
    classified: str
    tape: str


@dataclass(frozen=True)
class OutputViolation:
    input: str
    output: str


@dataclass(frozen=True)
class ContainmentReport:
    verdict: ContainmentVerdict
    trace_violations: tuple[TraceViolation, ...]
    output_violations: tuple[OutputViolation, ...]
    unresolved_inputs: tuple[str, ...]

    def rows(self) -> list[dict[str, object]]:
        out: list[dict[str, object]] = []
        for v in self.trace_violations:
            out.append(
                {
                    "input": v.input,
                    "condition": "trace",
                    "step": v.step,
                    "detail": f"{v.classified!r} in tape {v.tape!r}",
                }
            )
        for v in self.output_violations:
            out.append({"input": v.input, "condition": "output", "step": "", "detail": f"output {v.output!r}"})
        for sigma in self.unresolved_inputs:
            out.append({"input": sigma, "condition": "fuel", "step": "", "detail": "run not resolved within fuel"})
        return out


class _LeakScan:
    """The classified strings that first appear in a run's tape, step by step.

    It keeps a mirror of the tape (row[i] is cell base + i, blanks included)
    and the bounds [lo, hi] of its non-blank cells, None while it is blank.
    """

    def __init__(self, classified: tuple[str, ...], blank: str):
        self.pending = list(dict.fromkeys(classified))
        self.reach = max(map(len, classified)) - 1
        self.blank = blank
        self.row: list[str] = []
        self.base = 0
        self.lo: int | None = None
        self.hi: int | None = None

    def feed(self, step: int, cell: int | None, tape: Mapping[int, str]) -> list[str]:
        """The pending strings that the tape after `step` shows, in policy order.

        After step 0, tape may differ from the last tape fed only at cell,
        the cell that step wrote. A step costs O(longest string) plus the
        blank gap it opens or closes at an end of the tape.
        """
        blank, row = self.blank, self.row
        if step == 0:
            if not tape:
                return []
            lo, hi = min(tape), max(tape)
            row[:] = [tape.get(c, blank) for c in range(lo, hi + 1)]
            self.base, self.lo, self.hi = lo, lo, hi
            a, b = lo, hi
        else:
            symbol = tape.get(cell, blank)
            i = cell - self.base
            if symbol == (row[i] if 0 <= i < len(row) else blank):
                return []
            lo, hi = self.lo, self.hi
            if symbol == blank:
                row[i] = blank
                if lo < cell < hi:
                    a = b = cell
                else:
                    # An end cell: the rendering shrinks to a part of itself.
                    if lo == hi:
                        self.lo = self.hi = None
                    elif cell == lo:
                        while row[lo - self.base] == blank:
                            lo += 1
                        self.lo = lo
                    else:
                        while row[hi - self.base] == blank:
                            hi -= 1
                        self.hi = hi
                    return []
            else:
                # Grow the mirror by at least its length, so growth costs O(1) a step.
                if i < 0:
                    grow = max(-i, len(row))
                    row[:0] = [blank] * grow
                    self.base -= grow
                    i += grow
                elif i >= len(row):
                    row.extend([blank] * max(i + 1 - len(row), len(row)))
                row[i] = symbol
                # A widening write also exposes the blanks between it and the old end.
                if lo is None:
                    lo = hi = a = b = cell
                elif cell < lo:
                    a, b, lo = cell, lo - 1, cell
                elif cell > hi:
                    a, b, hi = hi + 1, cell, cell
                else:
                    a = b = cell
                self.lo, self.hi = lo, hi
        # A new occurrence overlaps cells [a, b] and spans at most reach + 1 cells.
        piece = "".join(row[max(a - self.reach, lo) - self.base : min(b + self.reach, hi) + 1 - self.base])
        leaked = [chi for chi in self.pending if chi in piece]
        if leaked:
            self.pending = [chi for chi in self.pending if chi not in leaked]
        return leaked


def containment_check(
    m: MachineDescription,
    policy: ContainmentPolicy,
    inputs: Iterable[str],
    fuel: int,
) -> ContainmentReport:
    """Scan traces and outputs of m on the given inputs against the policy.

    The verdict is contained only when there are no violations of either
    condition and every run halted within the fuel; an unresolved run leaves
    the verdict inconclusive since a longer trace could still leak. For each
    input, only the first leaking step per classified string is recorded.
    """
    trace_violations: list[TraceViolation] = []
    output_violations: list[OutputViolation] = []
    unresolved: list[str] = []
    for sigma in sorted(set(inputs)):
        configs = trace(m, sigma, fuel)
        scan = _LeakScan(policy.classified, m.blank)
        for step, config in enumerate(configs):
            leaked = scan.feed(step, configs[step - 1].head if step else None, config.tape)
            if leaked:
                rendering = render_tape(config, m.blank)
                trace_violations.extend(TraceViolation(sigma, step, chi, rendering) for chi in leaked)
                if not scan.pending:
                    break
        # The trace ends on the halting configuration, or on the last one the
        # fuel reached; its tape is the tape the run's output is read from.
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
    return ContainmentReport(
        verdict=verdict,
        trace_violations=tuple(trace_violations),
        output_violations=tuple(output_violations),
        unresolved_inputs=tuple(unresolved),
    )
