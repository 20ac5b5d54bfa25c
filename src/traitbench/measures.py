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

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import pairwise, starmap
from operator import lt
from typing import Callable, Iterable, Mapping

from .machine import (
    MachineDescription,
    RunLookup,
    RunOutcome,
    _natural,
    _simulate,
    run,
    strings_up_to,
)


@dataclass(frozen=True)
class ResourceMeasure:
    """evaluate reads the cost off a run its caller made; graph_decide runs without fuel."""

    name: str
    evaluate: Callable[[RunOutcome], int | None]
    graph_decide: Callable[[MachineDescription, str, int], bool]


def _time_evaluate(outcome: RunOutcome) -> int | None:
    return outcome.steps if outcome.defined else None


def _time_graph(m: MachineDescription, sigma: str, n: int) -> bool:
    # Running with fuel n is already exact: halting earlier shows the cost is
    # below n, not halting within n shows it is above or undefined. No cost
    # is negative.
    if n < 0:
        return False
    return _time_evaluate(run(m, sigma, n)) == n


def time_measure() -> ResourceMeasure:
    """Steps taken until a halt that leaves a defined output."""
    return ResourceMeasure("time", _time_evaluate, _time_graph)


def _space_evaluate(outcome: RunOutcome) -> int | None:
    return outcome.space if outcome.defined else None


def pigeonhole_step_bound(m: MachineDescription, n: int) -> int:
    """Steps after which a run confined to n scanned cells must have cycled."""
    return m.state_count * (n + 2) * len(m.tape_alphabet) ** n


def _space_graph(m: MachineDescription, sigma: str, n: int) -> bool:
    """Fuel-free decision of "the machine halts with output scanning exactly n cells".

    The engine stops the run as soon as the head scans more than n cells
    (the answer is then no whatever happens later). A run confined to n
    cells that does not halt repeats a configuration within
    pigeonhole_step_bound steps, and the engine's exact-repeat certificate
    catches every repeat: the dynamics are deterministic, and a run that
    reaches a cycle after p steps and repeats every c steps is caught by step
    2 * max(p, c) + c. So the run ends without fuel, and it is given a fuel
    it cannot reach: its steps read infinite only when the certificate ends
    it, and its cost is then undefined. No cost is negative.
    """
    if n < 0:
        return False
    return _space_evaluate(_simulate(m, sigma, math.inf, space_limit=n)) == n


def space_measure() -> ResourceMeasure:
    """Distinct cells scanned by the head, start cell included."""
    return ResourceMeasure("space", _space_evaluate, _space_graph)


def _broken_evaluate(outcome: RunOutcome) -> int | None:
    # Returns a step count even for runs that never produced an output, which
    # is exactly what the first axiom forbids.
    return outcome.steps


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


# The largest n check_blum_axioms asks graph_decide about on a pair whose
# cost is undefined; the fuel must exceed it.
_UNDEFINED_TOP = 2


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
    n = 0..2. That is sound only when the fuel exceeds every such n, so that
    a run of time cost at most 2 resolves within it: a fuel below 3 raises
    ValueError. Space keeps a caveat at any fuel: a run confined to 2 cells
    may need up to pigeonhole_step_bound(m, 2) steps to halt, so a pair that
    exhausts a small fuel can still be reported against axiom 2 although its
    space cost is at most 2.

    Machines are swept in ascending index order. A mapping whose keys already
    ascend is walked as it comes, so a lazy one is not copied into a list.
    """
    if fuel <= _UNDEFINED_TOP:
        raise ValueError(f"the Blum check needs a fuel of at least {_UNDEFINED_TOP + 1}, more than any n it checks on an undefined pair; got {fuel}")
    violations: list[AxiomViolation] = []
    checked = 0
    for index in machines if all(starmap(lt, pairwise(machines))) else sorted(machines):
        m = machines[index]
        for sigma in inputs_for(m):
            checked += 1
            outcome = run(m, sigma, fuel)
            value = measure.evaluate(outcome)
            if (value is not None) != outcome.defined:
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
            top = value + 2 if value is not None else _UNDEFINED_TOP
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
class LinearBound(BoundFunction):
    """slope * n + offset; a constant is the slope-0 bound."""

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


# The deepest nesting the trait grammar parses: combinators in a trait
# expression, and compositions in a bound, which a trait leaf may carry.
MAX_TRAIT_DEPTH = 100


def parse_bound(text: str) -> BoundFunction:
    """Parse a bound: '7', 'n', '2n+3', 'table:1,2;default=9', or f@g composition.

    Compositions nest at most MAX_TRAIT_DEPTH deep; deeper text raises ValueError.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty bound expression")
    if text.count("@") > MAX_TRAIT_DEPTH:
        raise ValueError(f"bound expression nests deeper than {MAX_TRAIT_DEPTH} compositions")
    if "@" in text:
        outer_text, inner_text = text.split("@", 1)
        return ComposedBound(parse_bound(outer_text), parse_bound(inner_text))
    if text.startswith("table:"):
        body = text[len("table:"):]
        if ";default=" not in body:
            raise ValueError("table bound needs ';default=<value>'")
        listed, default_text = body.split(";default=", 1)
        entries = listed.split(",") if listed else []
        if "" in entries:
            raise ValueError(f"table bound {text!r} has an empty entry")
        return TableBound(tuple(map(_natural, entries)), _natural(default_text))
    if "n" not in text:
        return LinearBound(0, _natural(text.removeprefix("+")))
    # Only a '+' may follow the n-term.
    slope_text, _, rest = text.partition("n")
    if rest and not rest.startswith("+"):
        raise ValueError(f"cannot parse bound {text!r}")
    return LinearBound(_natural(slope_text) if slope_text else 1, _natural(rest[1:]) if rest else 0)


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
    return _usage_within(partial(run, m), m, measure, bound, max_len, fuel)


def _usage_within(outcome: RunLookup, m: MachineDescription, measure: ResourceMeasure, bound: BoundFunction, max_len: int, fuel: int) -> BoundVerdict:
    """usage_within_bound, reading each input's run from outcome(sigma, fuel)."""
    evidence: list[tuple[str, int | None]] = []
    unresolved = False
    any_defined = False
    for sigma in strings_up_to(m.input_alphabet, max_len):
        ran = outcome(sigma, fuel)
        value = measure.evaluate(ran)
        evidence.append((sigma, value))
        if value is not None:
            any_defined = True
            if value > bound(len(sigma)):
                return BoundVerdict(BoundCheckKind.VIOLATES, witness=sigma, evidence=tuple(evidence))
        elif not ran.halted:
            unresolved = True
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

    def rows(self, measure_name: str) -> list[dict[str, object]]:
        return [
            {"machine_index": "", "input": sigma, "measure": measure_name, "value": value, "verdict": verdict}
            for sigma, base, raised in self.evidence
            for value, verdict in ((base, "base"), (raised, f"delayed+{self.delay}"))
        ]


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
    # Imported here, the one place measures uses transforms, so that a Blum check does not load it.
    from .transforms import delay_inject, variant_run

    base: list[tuple[str, RunOutcome, int]] = []
    for sigma in strings_up_to(m.input_alphabet, max_len):
        ran = run(m, sigma, fuel)
        value = measure.evaluate(ran)
        if value is not None:
            base.append((sigma, ran, value))
    if not base:
        raise ValueError("the measure is undefined on every tested input; nothing to discriminate against")
    for d in range(2, 2 * trials + 1, 2):
        evidence: list[tuple[str, int, int]] = []
        for sigma, ran, base_value in base:
            # delay_inject(m, d) spends d steps on its lead-in and hands m the fuel ran had.
            raised = measure.evaluate(variant_run("delay", d, sigma, fuel + d, ran))
            if raised is None or raised <= base_value:
                evidence = []
                break
            evidence.append((sigma, base_value, raised))
        if evidence:
            return DiscriminationWitness(delay_inject(m, d), d, tuple(evidence))
    raise WitnessSearchError(
        f"no delay up to {2 * trials} raised the {measure.name} cost on every tested input"
    )
