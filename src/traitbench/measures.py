"""Resource measures over machine runs and the checks that keep them honest.

A measure assigns a cost to exactly those (machine, input) pairs where the
machine's computed function is defined, and must come with a decidable
graph: a fuel-free procedure answering "is the cost of this pair exactly
n?". Those are Blum's two axioms for abstract complexity measures, and
check_blum_axioms sweeps a machine set looking for violations of either.

Shipped measures: TIME (steps until halting with output) and SPACE
(distinct cells the head scanned). A deliberately broken control measure is
included so that the axiom checker's negative direction can be exercised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping

from .machine import (
    MachineDescription,
    RunKind,
    _simulate,
    run,
    strings_up_to,
)
from .transforms import delay_inject


@dataclass(frozen=True)
class ResourceMeasure:
    name: str
    evaluate: Callable[[MachineDescription, str, int], int | None]
    graph_decide: Callable[[MachineDescription, str, int], bool]


def _time_evaluate(m: MachineDescription, sigma: str, fuel: int) -> int | None:
    out = run(m, sigma, fuel)
    return out.steps if out.kind is RunKind.HALTED_OUTPUT else None


def _time_graph(m: MachineDescription, sigma: str, n: int) -> bool:
    # Running with fuel n is already exact: halting earlier shows the cost is
    # below n, not halting within n shows it is above or undefined.
    out = run(m, sigma, n)
    return out.kind is RunKind.HALTED_OUTPUT and out.steps == n


def time_measure() -> ResourceMeasure:
    """Steps taken until a halt that leaves a defined output."""
    return ResourceMeasure("time", _time_evaluate, _time_graph)


def _space_evaluate(m: MachineDescription, sigma: str, fuel: int) -> int | None:
    out = run(m, sigma, fuel)
    return out.space if out.kind is RunKind.HALTED_OUTPUT else None


def pigeonhole_step_bound(m: MachineDescription, n: int) -> int:
    """Steps after which a run confined to n scanned cells must have cycled."""
    return m.state_count * (n + 2) * len(m.tape_alphabet) ** n


def _space_graph(m: MachineDescription, sigma: str, n: int) -> bool:
    """Fuel-free decision of "the machine halts with output scanning exactly n cells".

    The run stops as soon as the head scans more than n cells (the answer is
    then no whatever happens later), or when the configuration equals a
    snapshot retaken at every power-of-two step (Brent's cycle detection).
    The comparison is exact: any repeat proves divergence, because the
    dynamics are deterministic, and a run that reaches a cycle after p steps
    and repeats every c steps is caught by step 2 * max(p, c) + c. A confined
    run that repeats nothing halts within pigeonhole_step_bound steps, and
    the fuel is one more than that, so this always terminates.
    """
    if any(sym not in m.input_alphabet for sym in sigma):
        return False
    halting = (m.accept_state, m.reject_state)
    lo = hi = 0
    snapshot = None

    def stop(steps: int, state: int, head: int, tape: dict[int, str]) -> bool:
        nonlocal lo, hi, snapshot
        if state in halting:
            return False
        lo, hi = min(lo, head), max(hi, head)
        if hi - lo >= n or snapshot == (state, head, tape):
            return True
        if not steps & (steps - 1):
            snapshot = (state, head, dict(tape))
        return False

    outcome = _simulate(m, sigma, pigeonhole_step_bound(m, n) + 1, stop)
    return outcome.kind is RunKind.HALTED_OUTPUT and outcome.space == n


def space_measure() -> ResourceMeasure:
    """Distinct cells scanned by the head, start cell included."""
    return ResourceMeasure("space", _space_evaluate, _space_graph)


def _broken_evaluate(m: MachineDescription, sigma: str, fuel: int) -> int | None:
    # Returns a step count even for runs that never produced an output, which
    # is exactly what the first axiom forbids.
    return run(m, sigma, fuel).steps


def broken_step_counter() -> ResourceMeasure:
    """Control measure that is defined everywhere; fails the axiom check."""
    return ResourceMeasure("broken-step-counter", _broken_evaluate, _time_graph)


MEASURES: dict[str, Callable[[], ResourceMeasure]] = {
    "time": time_measure,
    "space": space_measure,
    "broken": broken_step_counter,
}


@dataclass(frozen=True)
class AxiomViolation:
    machine_index: int
    input: str
    axiom: int
    n: int | None
    detail: str


@dataclass(frozen=True)
class BlumReport:
    measure: str
    pairs_checked: int
    violations: tuple[AxiomViolation, ...]

    def rows(self) -> list[dict[str, object]]:
        return [
            {
                "machine_index": v.machine_index,
                "input": v.input,
                "measure": self.measure,
                "value": "" if v.n is None else v.n,
                "verdict": f"axiom{v.axiom}",
            }
            for v in self.violations
        ]


def check_blum_axioms(
    measure: ResourceMeasure,
    machines: Mapping[int, MachineDescription],
    inputs_for: Callable[[MachineDescription], Iterable[str]],
    fuel: int,
) -> BlumReport:
    """Sweep (machine, input) pairs for violations of either measure axiom.

    Axiom 1 is checked fuel-relatively: the measure must be defined on a pair
    exactly when the run halts with output within the fuel. Axiom 2 compares
    graph_decide against the evaluated value for every n up to that value
    plus two; for pairs where the value is undefined the graph must reject
    n = 0..2, which is sound as long as fuel comfortably exceeds the checked
    n (a run with cost at most 2 would have resolved within the fuel).
    """
    violations: list[AxiomViolation] = []
    checked = 0
    for index in sorted(machines):
        m = machines[index]
        for sigma in inputs_for(m):
            checked += 1
            outcome = run(m, sigma, fuel)
            value = measure.evaluate(m, sigma, fuel)
            should_be_defined = outcome.kind is RunKind.HALTED_OUTPUT
            if (value is not None) != should_be_defined:
                violations.append(
                    AxiomViolation(
                        index,
                        sigma,
                        1,
                        value,
                        f"measure {'defined' if value is not None else 'undefined'} "
                        f"but the run outcome is {outcome.kind.value}",
                    )
                )
                continue
            top = value + 2 if value is not None else 2
            for n in range(top + 1):
                decided = measure.graph_decide(m, sigma, n)
                expected = value is not None and n == value
                if decided != expected:
                    violations.append(
                        AxiomViolation(
                            index,
                            sigma,
                            2,
                            n,
                            f"graph_decide says {decided} but the evaluated cost is {value}",
                        )
                    )
    return BlumReport(measure.name, checked, tuple(violations))


# --- bound functions -----------------------------------------------------------


class BoundFunction:
    """A total function on string lengths, used to bound measured costs."""

    def __call__(self, n: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantBound(BoundFunction):
    value: int

    def __call__(self, n: int) -> int:
        return self.value

    def describe(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class LinearBound(BoundFunction):
    slope: int
    offset: int

    def __call__(self, n: int) -> int:
        return self.slope * n + self.offset

    def describe(self) -> str:
        if self.slope == 0:
            return str(self.offset)
        lead = "n" if self.slope == 1 else f"{self.slope}n"
        return lead if self.offset == 0 else f"{lead}+{self.offset}"


@dataclass(frozen=True)
class TableBound(BoundFunction):
    values: tuple[int, ...]
    default: int

    def __call__(self, n: int) -> int:
        return self.values[n] if 0 <= n < len(self.values) else self.default

    def describe(self) -> str:
        listed = ",".join(str(v) for v in self.values)
        return f"table:{listed};default={self.default}"


@dataclass(frozen=True)
class ComposedBound(BoundFunction):
    outer: BoundFunction
    inner: BoundFunction

    def __call__(self, n: int) -> int:
        return self.outer(self.inner(n))

    def describe(self) -> str:
        return f"{self.outer.describe()}@{self.inner.describe()}"


_LINEAR_RE = re.compile(r"^(?:(\d*)n)?(?:\+?(\d+))?$")


def parse_bound(text: str) -> BoundFunction:
    """Parse a bound: '7', 'n', '2n+3', 'table:1,2;default=9', or f@g composition."""
    text = text.strip()
    if not text:
        raise ValueError("empty bound expression")
    if "@" in text:
        outer_text, inner_text = text.split("@", 1)
        return ComposedBound(parse_bound(outer_text), parse_bound(inner_text))
    if text.startswith("table:"):
        body = text[len("table:"):]
        if ";default=" not in body:
            raise ValueError("table bound needs ';default=<value>'")
        listed, default_text = body.split(";default=", 1)
        values = tuple(int(v) for v in listed.split(",") if v != "")
        return TableBound(values, int(default_text))
    match = _LINEAR_RE.match(text)
    if not match or (match.group(1) is None and match.group(2) is None):
        raise ValueError(f"cannot parse bound {text!r}")
    slope_text, offset_text = match.groups()
    slope = 0 if "n" not in text else int(slope_text) if slope_text else 1
    offset = int(offset_text) if offset_text else 0
    if slope == 0:
        return ConstantBound(offset)
    return LinearBound(slope, offset)


# --- bounded membership in a cost-bounded machine set ---------------------------


class BoundCheckKind(str, Enum):
    IN_BOUNDS = "in-bounds"
    VIOLATES = "violates"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundVerdict:
    kind: BoundCheckKind
    witness: str | None = None
    evidence: tuple[tuple[str, int | None], ...] = field(default=())


def usage_within_bound(
    m: MachineDescription,
    measure: ResourceMeasure,
    bound: BoundFunction,
    max_len: int,
    fuel: int,
) -> BoundVerdict:
    """Bounded check of "every defined cost stays within bound(input length)".

    A tested input whose cost is defined and exceeds the bound is a violation
    outright, whatever happens elsewhere. Inputs where the run halts without
    output put no constraint on the machine at all, so they never block an
    in-bounds verdict; but if every tested input is like that, or any run
    exhausts its fuel, the sweep has certified nothing and the verdict is
    inconclusive.
    """
    evidence: list[tuple[str, int | None]] = []
    unresolved = False
    any_defined = False
    violation: str | None = None
    for sigma in strings_up_to(m.input_alphabet, max_len):
        value = measure.evaluate(m, sigma, fuel)
        evidence.append((sigma, value))
        if value is not None:
            any_defined = True
            if value > bound(len(sigma)):
                violation = sigma
                break
        elif run(m, sigma, fuel).kind is RunKind.FUEL_EXHAUSTED:
            unresolved = True
    if violation is not None:
        return BoundVerdict(BoundCheckKind.VIOLATES, witness=violation, evidence=tuple(evidence))
    if unresolved or not any_defined:
        return BoundVerdict(BoundCheckKind.INCONCLUSIVE, evidence=tuple(evidence))
    return BoundVerdict(BoundCheckKind.IN_BOUNDS, evidence=tuple(evidence))


# --- discriminating-measure witnesses -------------------------------------------


class WitnessSearchError(RuntimeError):
    """No delay amount within the trial budget raised the measure everywhere."""


@dataclass(frozen=True)
class DiscriminationWitness:
    machine: MachineDescription
    delay: int
    evidence: tuple[tuple[str, int, int], ...]  # (input, base cost, raised cost)

    def rows(self, measure_name: str, machine_index: int | str = "") -> list[dict[str, object]]:
        out: list[dict[str, object]] = []
        for sigma, base, raised in self.evidence:
            out.append(
                {
                    "machine_index": machine_index,
                    "input": sigma,
                    "measure": measure_name,
                    "value": base,
                    "verdict": "base",
                }
            )
            out.append(
                {
                    "machine_index": machine_index,
                    "input": sigma,
                    "measure": measure_name,
                    "value": raised,
                    "verdict": f"delayed+{self.delay}",
                }
            )
        return out


def discriminating_witness(
    measure: ResourceMeasure,
    m: MachineDescription,
    trials: int,
    max_len: int,
    fuel: int,
) -> DiscriminationWitness:
    """Find a function-equal machine whose cost strictly exceeds m's everywhere.

    Searches delay injections d = 2, 4, .. 2*trials and returns the first one
    whose cost is defined and strictly larger on every tested input where m's
    own cost is defined. The delayed machine gets d extra fuel so that the
    injected steps alone can never mask definedness.
    """
    base: list[tuple[str, int]] = []
    for sigma in strings_up_to(m.input_alphabet, max_len):
        value = measure.evaluate(m, sigma, fuel)
        if value is not None:
            base.append((sigma, value))
    if not base:
        raise ValueError("the measure is undefined on every tested input; nothing to discriminate against")
    for d in range(2, 2 * trials + 1, 2):
        candidate = delay_inject(m, d)
        evidence: list[tuple[str, int, int]] = []
        for sigma, base_value in base:
            raised = measure.evaluate(candidate, sigma, fuel + d)
            if raised is None or raised <= base_value:
                evidence = []
                break
            evidence.append((sigma, base_value, raised))
        if evidence:
            return DiscriminationWitness(candidate, d, tuple(evidence))
    raise WitnessSearchError(
        f"no delay up to {2 * trials} raised the {measure.name} cost on every tested input"
    )
