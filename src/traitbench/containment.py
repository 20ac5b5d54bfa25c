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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

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
        predicate = _substring_free(classified)
    else:
        try:
            compiled = re.compile(pattern)
        except (re.error, TypeError) as exc:
            raise ValueError(f"unclassified_regex {pattern!r} is not a valid regular expression: {exc}") from None
        predicate = lambda s: compiled.fullmatch(s) is not None
    return ContainmentPolicy(classified, predicate)


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
        found: set[str] = set()
        for step_index, config in enumerate(configs):
            rendering = render_tape(config, m.blank)
            for chi in policy.classified:
                if chi not in found and chi in rendering:
                    trace_violations.append(TraceViolation(sigma, step_index, chi, rendering))
                    found.add(chi)
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
