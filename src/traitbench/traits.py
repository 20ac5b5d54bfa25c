"""Traits of machines: three-valued evaluation, algebra, and semanticity probes.

A trait is a set of machines given operationally: an evaluator that, under
stated exploration bounds, answers In, Out, or Unknown. Traits compose with
union, intersection, and complement under the usual three-valued rules
(union is In as soon as one side is, intersection Out as soon as one side
is, complement swaps In and Out and fixes Unknown).

A trait is semantic when membership depends only on the computed function,
so that function-preserving rewrites can never move a machine across the
boundary. probe_semanticity attacks exactly that: it rewrites a member with
padding, delay injection, and leaky wrapping, all function-preserving, and
reports any variant the evaluator pushes Out, which certifies the trait has
a syntactic component. sem_syn_partition applies the probe across an indexed
universe of machines.

Also here: the finite-patch decider (deciding a set that differs from a
decidable one by finitely many elements), and the wiring that turns a
state-count-aware halting oracle into a plain halting decider, which is the
classical reduction showing state-count-and-halting traits are undecidable.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Collection, Iterable, Mapping

from .enumeration import decode
from .machine import (
    MachineDescription,
    RunKind,
    RunLookup,
    _natural,
    _run_table,
    run,
    strings_up_to,
)
from .measures import (
    MAX_TRAIT_DEPTH,
    BoundCheckKind,
    BoundFunction,
    ResourceMeasure,
    _usage_within,
    parse_bound,
    space_measure,
    time_measure,
)
from .transforms import delay_inject, leaky_wrap, pad, variant_run


class Verdict(str, Enum):
    IN = "In"
    OUT = "Out"
    UNKNOWN = "Unknown"


# Kleene's strong logic: or is the larger verdict in the order Out < Unknown
# < In, and is the smaller, and not is the mirror image.
_ORDER = (Verdict.OUT, Verdict.UNKNOWN, Verdict.IN)


def kleene_or(a: Verdict, b: Verdict) -> Verdict:
    return max(a, b, key=_ORDER.index)


def kleene_and(a: Verdict, b: Verdict) -> Verdict:
    return min(a, b, key=_ORDER.index)


def kleene_not(a: Verdict) -> Verdict:
    return _ORDER[-1 - _ORDER.index(a)]


class DeclaredKind(str, Enum):
    SYNTACTIC = "syntactic-by-construction"
    SEMANTIC = "semantic-by-construction"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Bounds:
    max_len: int
    fuel: int

    def __post_init__(self):
        if self.max_len < 0 or self.fuel < 0:
            raise ValueError("bounds must be nonnegative")


class _TraitOps:
    def __and__(self, other):
        return TraitIntersection(self, other)

    def __or__(self, other):
        return TraitUnion(self, other)

    def __invert__(self):
        return TraitComplement(self)


@dataclass(frozen=True)
class TraitDef(_TraitOps):
    """A leaf trait: a named evaluator and the kind it was built as.

    SEMANTIC is a fact, not a claim: only a leaf whose decider sees the
    behaviour view (total_on_nonempty_trait, behavior_trait) has it, and any
    other evaluator, seen through __wrapped__ as inspect.unwrap does, is
    refused it with ValueError. That decider reads outputs and their
    definedness, never structure or cost, so function-preserving rewrites
    cannot change its answer. The kind gates only sem_syn_partition's sem.
    Because SEMANTIC is derived from the __wrapped__ chain, a wrapper that
    sets __wrapped__ by hand must only forward its arguments; perfbench's
    tracer is the one caller that does this.
    """

    name: str
    evaluator: Callable[[MachineDescription, Bounds, RunLookup], Verdict]
    declared_kind: DeclaredKind = DeclaredKind.UNKNOWN

    def __post_init__(self):
        if self.declared_kind is DeclaredKind.SEMANTIC and not isinstance(inspect.unwrap(self.evaluator), _SeesBehaviour):
            raise ValueError(f"trait {self.name!r} is not built on the behaviour view, so it cannot be declared semantic")


@dataclass(frozen=True)
class TraitUnion(_TraitOps):
    left: object
    right: object


@dataclass(frozen=True)
class TraitIntersection(_TraitOps):
    left: object
    right: object


@dataclass(frozen=True)
class TraitComplement(_TraitOps):
    inner: object


TraitExpr = object  # TraitDef | TraitUnion | TraitIntersection | TraitComplement


def eval_trait(expr: TraitExpr, m: MachineDescription, bounds: Bounds) -> Verdict:
    """Evaluate a trait expression on a machine under exploration bounds.

    The right side of a union is skipped once the left is In, and that of an
    intersection once the left is Out: the Kleene result is already fixed.
    The leaves share one run per (input, fuel), made on first use.
    """
    return _eval(expr, m, bounds, _run_table(m))


def _eval(expr: TraitExpr, m: MachineDescription, bounds: Bounds, outcome: RunLookup) -> Verdict:
    if isinstance(expr, TraitDef):
        return expr.evaluator(m, bounds, outcome)
    if isinstance(expr, TraitUnion):
        left = _eval(expr.left, m, bounds, outcome)
        return left if left is Verdict.IN else kleene_or(left, _eval(expr.right, m, bounds, outcome))
    if isinstance(expr, TraitIntersection):
        left = _eval(expr.left, m, bounds, outcome)
        return left if left is Verdict.OUT else kleene_and(left, _eval(expr.right, m, bounds, outcome))
    if isinstance(expr, TraitComplement):
        return kleene_not(_eval(expr.inner, m, bounds, outcome))
    raise TypeError(f"not a trait expression: {expr!r}")


def expr_name(expr: TraitExpr) -> str:
    if isinstance(expr, TraitDef):
        return expr.name
    if isinstance(expr, TraitUnion):
        return f"or({expr_name(expr.left)},{expr_name(expr.right)})"
    if isinstance(expr, TraitIntersection):
        return f"and({expr_name(expr.left)},{expr_name(expr.right)})"
    if isinstance(expr, TraitComplement):
        return f"not({expr_name(expr.inner)})"
    raise TypeError(f"not a trait expression: {expr!r}")


# --- leaf traits ----------------------------------------------------------------


def state_count_trait(n: int) -> TraitDef:
    """Machines with exactly n states. Purely structural."""

    def evaluator(m: MachineDescription, bounds: Bounds, outcome: RunLookup) -> Verdict:
        return Verdict.IN if m.state_count == n else Verdict.OUT

    return TraitDef(f"states:{n}", evaluator, DeclaredKind.SYNTACTIC)


_UNSETTLED = object()  # the behaviour view of a run that did not halt


class _SeesBehaviour:
    """A decider for _leaf that calls decide(inputs, behaviour): the one way a leaf becomes SEMANTIC.

    behaviour(sigma) runs sigma on first use and gives its output, None when it halted
    undefined, or _UNSETTLED; decide never sees the machine, steps, space or a RunOutcome.
    """

    def __init__(self, decide: Callable[[Iterable[str], Callable[[str], object]], Verdict]):
        self.decide = decide

    def __call__(self, m: MachineDescription, outcome: RunLookup, max_len: int, fuel: int) -> Verdict:
        def behaviour(sigma: str) -> object:
            ran = outcome(sigma, fuel)
            return ran.output if ran.halted else _UNSETTLED

        return self.decide(strings_up_to(m.input_alphabet, max_len), behaviour)


def _leaf(
    name: str,
    max_len: int | None,
    fuel: int | None,
    decide: Callable[[MachineDescription, RunLookup, int, int], Verdict],
) -> TraitDef:
    """A leaf that calls decide(m, outcome, max_len, fuel) under its own bounds where given.

    A given max_len or fuel overrides the evaluation bounds, and a given
    max_len puts the ':max_len:fuel' suffix on the name. A negative override
    raises ValueError here, when the leaf is built, not when it is evaluated.
    """
    if (max_len is not None and max_len < 0) or (fuel is not None and fuel < 0):
        raise ValueError("leaf bounds must be nonnegative")

    def evaluator(m: MachineDescription, bounds: Bounds, outcome: RunLookup) -> Verdict:
        return decide(m, outcome, bounds.max_len if max_len is None else max_len, bounds.fuel if fuel is None else fuel)

    evaluator.__wrapped__ = decide  # what TraitDef unwraps to tell a semantic leaf
    suffix = "" if max_len is None else f":{max_len}:{fuel}"
    return TraitDef(name + suffix, evaluator, DeclaredKind.SEMANTIC if isinstance(decide, _SeesBehaviour) else DeclaredKind.SYNTACTIC)


def total_on_nonempty_trait(max_len: int | None = None, fuel: int | None = None) -> TraitDef:
    """Machines that halt with output on every nonempty tested input.

    The empty input is excluded deliberately: a machine that halts leaving
    only blanks there computes nothing at the empty string no matter what, so
    including it would empty the trait. A halt without output on a nonempty
    input refutes membership for certain; fuel exhaustion anywhere leaves the
    verdict Unknown.
    """

    def decide(inputs: Iterable[str], behaviour: Callable[[str], object]) -> Verdict:
        unknown = False
        for sigma in inputs:
            if not sigma:
                continue
            out = behaviour(sigma)
            if out is None:
                return Verdict.OUT
            if out is _UNSETTLED:
                unknown = True
        return Verdict.UNKNOWN if unknown else Verdict.IN

    return _leaf("total-nonempty", max_len, fuel, _SeesBehaviour(decide))


_BOUND_VERDICTS = {
    BoundCheckKind.IN_BOUNDS: Verdict.IN,
    BoundCheckKind.VIOLATES: Verdict.OUT,
    BoundCheckKind.INCONCLUSIVE: Verdict.UNKNOWN,
}


def usage_bounded_trait(
    measure: ResourceMeasure,
    bound: BoundFunction,
    max_len: int | None = None,
    fuel: int | None = None,
) -> TraitDef:
    """Machines whose defined costs stay within bound(input length).

    Cost-bounded traits are the canonical syntactic ones: delay injection
    preserves the computed function while raising the cost, so membership
    cannot be a function of behaviour alone.
    """

    def decide(m: MachineDescription, outcome: RunLookup, max_len: int, fuel: int) -> Verdict:
        return _BOUND_VERDICTS[_usage_within(outcome, m, measure, bound, max_len, fuel).kind]

    return _leaf(f"{measure.name}-within:{bound.describe()}", max_len, fuel, decide)


def contained_trait(policy: ContainmentPolicy, max_len: int | None = None, fuel: int | None = None) -> TraitDef:
    """Machines whose traces and outputs respect a containment policy."""
    # Imported here, the one place traits uses containment, so that the other traits do not load it.
    from .containment import ContainmentVerdict, containment_check

    verdicts = {
        ContainmentVerdict.CONTAINED: Verdict.IN,
        ContainmentVerdict.VIOLATED: Verdict.OUT,
        ContainmentVerdict.INCONCLUSIVE: Verdict.UNKNOWN,
    }

    def decide(m: MachineDescription, outcome: RunLookup, max_len: int, fuel: int) -> Verdict:
        report = containment_check(m, policy, strings_up_to(m.input_alphabet, max_len), fuel)
        return verdicts[report.verdict]

    return _leaf("contained", max_len, fuel, decide)


@dataclass(frozen=True)
class FunctionProperty:
    """A predicate over observed (input, output) samples.

    The predicate gets one pair per tested input: the input and its output,
    or None where the run halted undefined. behavior_trait answers Unknown
    before any unsettled sample reaches it, and it sees no steps, space or
    machine, so a trait built from it is semantic-by-construction.
    """

    name: str
    predicate: Callable[[tuple[tuple[str, str | None], ...]], bool]


def behavior_trait(prop: FunctionProperty, max_len: int | None = None, fuel: int | None = None) -> TraitDef:
    """Lift a function property to a semantic trait; Unknown at the first input that does not halt."""

    def decide(inputs: Iterable[str], behaviour: Callable[[str], object]) -> Verdict:
        samples = []
        for sigma in inputs:
            out = behaviour(sigma)
            if out is _UNSETTLED:
                return Verdict.UNKNOWN
            samples.append((sigma, out))
        return Verdict.IN if prop.predicate(tuple(samples)) else Verdict.OUT

    return _leaf(prop.name, max_len, fuel, _SeesBehaviour(decide))


def _echoes(samples: tuple[tuple[str, str | None], ...]) -> bool:
    return all(out == sigma for sigma, out in samples if sigma)


def echoes_input_trait(max_len: int | None = None, fuel: int | None = None) -> TraitDef:
    """Machines that output every nonempty tested input unchanged."""
    return behavior_trait(FunctionProperty("echoes", _echoes), max_len, fuel)


# --- semanticity probing --------------------------------------------------------

PROBE_KINDS = ("pad", "delay", "leak")


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of probing one member with function-preserving variants."""

    witness: MachineDescription | None
    witness_kind: str | None
    witness_parameter: str | None
    variants_checked: int
    all_in: bool

    @property
    def found(self) -> bool:
        return self.witness is not None


def probe_semanticity(
    trait: TraitExpr,
    m: MachineDescription,
    probes: int,
    bounds: Bounds,
    kinds: tuple[str, ...] = PROBE_KINDS,
) -> ProbeResult:
    """Look for a function-preserving rewrite of m that the trait evaluates Out.

    The machine must itself evaluate In. Variants cycle through the requested
    transformer kinds with growing parameters: pad by 1, 2, .., delay by
    2, 4, .., leak a lengthening string over the input alphabet. Any variant
    evaluated Out is returned as a witness that membership is not a function
    of behaviour alone; if every variant stays In the result says so, since
    that (and only that) supports reading the trait as semantic here.
    """
    result = _probe(trait, m, probes, bounds, kinds)
    if result is None:
        raise ValueError("semanticity probing starts from a machine the trait contains")
    return result


def _probe(
    trait: TraitExpr,
    m: MachineDescription,
    probes: int,
    bounds: Bounds,
    kinds: tuple[str, ...],
) -> ProbeResult | None:
    """Evaluate m, then probe it as probe_semanticity does; None when m is not In."""
    if probes < 0:
        raise ValueError("probes must be nonnegative")
    if not set(kinds) <= set(PROBE_KINDS):
        raise ValueError(f"probe kinds must be among {PROBE_KINDS}, got {kinds}")
    outcome = _run_table(m)
    if _eval(trait, m, bounds, outcome) is not Verdict.IN:
        return None
    usable = [kind for kind in kinds if kind != "leak" or m.input_alphabet]
    if not usable:
        raise ValueError("no applicable probe kinds for this machine")
    all_in = True
    for i in range(probes):
        kind = usable[i % len(usable)]
        scale = i // len(usable) + 1
        if kind == "pad":
            variant, parameter = pad(m, scale), scale
        elif kind == "delay":
            variant, parameter = delay_inject(m, 2 * scale), 2 * scale
        else:
            parameter = m.input_alphabet[0] * scale
            variant = leaky_wrap(m, parameter)
        # Each run is read off m's once; the variant runs only where m's run cannot tell.
        verdict = _eval(trait, variant, bounds, _run_table(variant, outcome, partial(variant_run, kind, parameter)))
        if verdict is Verdict.OUT:
            return ProbeResult(variant, kind, str(parameter), i + 1, False)
        if verdict is not Verdict.IN:
            all_in = False
    return ProbeResult(None, None, None, probes, all_in)


@dataclass(frozen=True)
class SemSynPartition:
    """In-verdict indices split by what probing found.

    syn holds members with a separating witness, sem holds members where
    every variant stayed In and the trait is a semantic leaf, unknown holds
    the rest. Probing only certifies syn; sem holds by construction, as a
    semantic leaf sees only behaviour, which the rewrites preserve.
    """

    trait_name: str
    universe: tuple[int, ...]
    sem: tuple[int, ...]
    syn: tuple[int, ...]
    unknown: tuple[int, ...]
    witness_kinds: Mapping[int, str]
    # Per syn index: the pad k, the delay d or the leaked string.
    witness_parameters: Mapping[int, str]

    def rows(self) -> list[dict[str, object]]:
        parts: dict[int, str] = {}
        for n in self.sem:
            parts[n] = "sem"
        for n in self.syn:
            parts[n] = "syn"
        for n in self.unknown:
            parts[n] = "unknown"
        return [
            {
                "index": n,
                "verdict": "In" if n in parts else "not-In",
                "part": parts.get(n, ""),
                "witness_kind": self.witness_kinds.get(n, ""),
                "witness_parameter": self.witness_parameters.get(n, ""),
            }
            for n in self.universe
        ]


def sem_syn_partition(
    trait: TraitExpr,
    universe: Iterable[int],
    probes: int,
    bounds: Bounds,
    kinds: tuple[str, ...] = PROBE_KINDS,
) -> SemSynPartition:
    """Probe every In-verdict machine in an indexed universe."""
    declared_semantic = isinstance(trait, TraitDef) and trait.declared_kind is DeclaredKind.SEMANTIC
    universe_tuple = tuple(universe)
    sem: list[int] = []
    syn: list[int] = []
    unknown: list[int] = []
    witness_kinds: dict[int, str] = {}
    witness_parameters: dict[int, str] = {}
    for n in universe_tuple:
        result = _probe(trait, decode(n), probes, bounds, kinds)
        if result is None:
            continue
        if result.found:
            syn.append(n)
            witness_kinds[n] = result.witness_kind or ""
            witness_parameters[n] = result.witness_parameter or ""
        elif result.all_in and declared_semantic:
            sem.append(n)
        else:
            unknown.append(n)
    return SemSynPartition(
        trait_name=expr_name(trait),
        universe=universe_tuple,
        sem=tuple(sem),
        syn=tuple(syn),
        unknown=tuple(unknown),
        witness_kinds=witness_kinds,
        witness_parameters=witness_parameters,
    )


# --- finite patching ------------------------------------------------------------


def finite_patch_decider(
    union_decider: Callable[[object], bool],
    removed: Collection,
    kept_overlap: Collection,
) -> Callable[[object], bool]:
    """Decide a set L1 given a decider for L1 union L2, for finite L2.

    kept_overlap must be exactly L1 intersect L2. The returned decider
    answers membership in L1 outright: an element of the overlap is in, any
    other element of L2 is out, and everything else defers to the union
    decider. This is why removing or adding finitely many machines never
    rescues a trait from undecidability: the patched set would decide the
    original.
    """
    removed_set = frozenset(removed)
    overlap_set = frozenset(kept_overlap)
    if not overlap_set <= removed_set:
        raise ValueError("the kept overlap must be a subset of the removed set")

    def decide(element: object) -> bool:
        if element in overlap_set:
            return True
        if element in removed_set:
            return False
        return union_decider(element)

    return decide


# --- halting oracle wiring ------------------------------------------------------


@dataclass(frozen=True)
class HaltingOracle:
    """Ground truth for "machine index i, on input s, halts with output".

    Built by a fuel-bounded sweep: entries whose runs halted either way are
    certified exact; entries that ran out of fuel default to 0 and are not
    certified. Queried with a state count n, the oracle answers 1 only when n
    is the machine's true state count and the run halted with output, which
    is the shape of oracle the wiring below consumes.
    """

    table: Mapping[tuple[int, str], int]
    state_counts: Mapping[int, int]
    certified: frozenset[tuple[int, str]]

    def __call__(self, index: int, sigma: str, n: int) -> int:
        if self.state_counts.get(index) != n:
            return 0
        return self.table.get((index, sigma), 0)


def build_halting_oracle(max_index: int, max_len: int, fuel: int) -> HaltingOracle:
    table: dict[tuple[int, str], int] = {}
    state_counts: dict[int, int] = {}
    certified: set[tuple[int, str]] = set()
    for index in range(max_index):
        m = decode(index)
        state_counts[index] = m.state_count
        for sigma in strings_up_to(m.input_alphabet, max_len):
            outcome = run(m, sigma, fuel)
            table[(index, sigma)] = 1 if outcome.kind is RunKind.HALTED_OUTPUT else 0
            if outcome.halted:
                certified.add((index, sigma))
    return HaltingOracle(table, state_counts, frozenset(certified))


def halting_decider_from_oracle(oracle: Callable[[int, str, int], int]) -> Callable[[int, str], int]:
    """Turn a state-count-aware halting oracle into a plain halting decider.

    The wiring supplies the machine's own state count as the third argument,
    so a decider for "has n states and halts with output" at every n would
    decide halting outright. No computation happens beyond decoding the index
    to read off its state count; the hard work is all in the oracle.
    """

    def decide(index: int, sigma: str) -> int:
        return oracle(index, sigma, decode(index).state_count)

    return decide


# --- textual trait expressions ---------------------------------------------------


def parse_trait(text: str) -> TraitExpr:
    """Parse 'states:3', 'not(E)', 'and(E,E)', 'or(E,E)' into a trait expression.

    Leaf grammar, fields separated by colons, [...] optional:
      states:<n>
      total-nonempty[:<max_len>:<fuel>]
      echoes[:<max_len>:<fuel>]
      time-within:<bound>[:<max_len>:<fuel>]
      space-within:<bound>[:<max_len>:<fuel>]
    A leaf's last two fields, when both are integers, are its own max_len and
    fuel; without them it inherits the evaluation bounds. <bound> is
    parse_bound's grammar, tables included; numbers are ASCII decimal digits.
    Combinators nest at most MAX_TRAIT_DEPTH deep; deeper text raises ValueError.
    """
    return _parse_trait(text, 0)


def _parse_trait(text: str, depth: int) -> TraitExpr:
    if depth > MAX_TRAIT_DEPTH:
        raise ValueError(f"trait expression nests deeper than {MAX_TRAIT_DEPTH} combinators")
    text = text.strip()
    for tag, node in (("not", TraitComplement), ("and", TraitIntersection), ("or", TraitUnion)):
        if text.startswith(tag + "(") and text.endswith(")"):
            inner = text[len(tag) + 1 : -1]
            if tag == "not":
                return TraitComplement(_parse_trait(inner, depth + 1))
            left, right = _split_top_level(inner)
            return node(_parse_trait(left, depth + 1), _parse_trait(right, depth + 1))
    return _parse_leaf(text)


def _split_top_level(text: str) -> tuple[str, str]:
    """Split at the first comma outside parentheses and outside a table's entry list."""
    depth = 0
    in_table = False
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ":" and text.endswith("table", 0, i):
            in_table = True
        elif ch == ";":
            in_table = False
        elif ch == "," and depth == 0 and not in_table:
            return text[:i], text[i + 1 :]
    if in_table:
        raise ValueError("table bound needs ';default=<value>'")
    raise ValueError(f"expected two comma-separated trait expressions in {text!r}")


def _parse_leaf(text: str) -> TraitDef:
    fields = text.split(":")
    # A bound never ends in two integer fields, so these are ':max_len:fuel'.
    baked = fields[-2:] if len(fields) > 2 and all(f.lstrip("-").isdigit() for f in fields[-2:]) else []
    head, arg = fields[0], ":".join(fields[1 : len(fields) - len(baked)])
    try:
        overrides = list(map(_natural, baked))
        if head == "states" and not baked:
            return state_count_trait(_natural(arg))
        if head == "total-nonempty" and not arg:
            return total_on_nonempty_trait(*overrides)
        if head == "echoes" and not arg:
            return echoes_input_trait(*overrides)
        if head in ("time-within", "space-within"):
            measure = time_measure() if head == "time-within" else space_measure()
            return usage_bounded_trait(measure, parse_bound(arg), *overrides)
    except ValueError as exc:
        raise ValueError(f"bad trait leaf {text!r}: {exc}") from exc
    raise ValueError(f"unknown trait leaf {text!r}")
