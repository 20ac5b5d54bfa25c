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

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Collection, Iterable, Mapping

from .containment import ContainmentPolicy, ContainmentVerdict, containment_check
from .enumeration import decode
from .machine import (
    MachineDescription,
    RunKind,
    RunOutcome,
    run,
    strings_up_to,
)
from .measures import (
    BoundCheckKind,
    BoundFunction,
    ResourceMeasure,
    parse_bound,
    space_measure,
    time_measure,
    usage_within_bound,
)
from .transforms import delay_inject, leaky_wrap, pad


class Verdict(str, Enum):
    IN = "In"
    OUT = "Out"
    UNKNOWN = "Unknown"


def kleene_or(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.IN in (a, b):
        return Verdict.IN
    if a is Verdict.OUT and b is Verdict.OUT:
        return Verdict.OUT
    return Verdict.UNKNOWN


def kleene_and(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.OUT in (a, b):
        return Verdict.OUT
    if a is Verdict.IN and b is Verdict.IN:
        return Verdict.IN
    return Verdict.UNKNOWN


def kleene_not(a: Verdict) -> Verdict:
    if a is Verdict.IN:
        return Verdict.OUT
    if a is Verdict.OUT:
        return Verdict.IN
    return Verdict.UNKNOWN


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
    """A leaf trait: a named evaluator plus an honesty declaration.

    declared_kind is a claim about why the trait is what it is: a
    semantic-by-construction evaluator consults only input-output behaviour,
    never structure or cost, so function-preserving rewrites cannot change
    its answer. The declaration gates nothing except the sem side of
    sem_syn_partition, where membership without a syntactic witness is
    trusted only for traits built that way.
    """

    name: str
    evaluator: Callable[[MachineDescription, Bounds], Verdict]
    declared_kind: DeclaredKind = DeclaredKind.UNKNOWN


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
    """
    if isinstance(expr, TraitDef):
        return expr.evaluator(m, bounds)
    if isinstance(expr, TraitUnion):
        left = eval_trait(expr.left, m, bounds)
        return left if left is Verdict.IN else kleene_or(left, eval_trait(expr.right, m, bounds))
    if isinstance(expr, TraitIntersection):
        left = eval_trait(expr.left, m, bounds)
        return left if left is Verdict.OUT else kleene_and(left, eval_trait(expr.right, m, bounds))
    if isinstance(expr, TraitComplement):
        return kleene_not(eval_trait(expr.inner, m, bounds))
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

    def evaluator(m: MachineDescription, bounds: Bounds) -> Verdict:
        return Verdict.IN if m.state_count == n else Verdict.OUT

    return TraitDef(f"states:{n}", evaluator, DeclaredKind.SYNTACTIC)


def _leaf(
    name: str,
    kind: DeclaredKind,
    max_len: int | None,
    fuel: int | None,
    decide: Callable[[MachineDescription, int, int], Verdict],
) -> TraitDef:
    """A leaf that calls decide(m, max_len, fuel) under its own bounds where given.

    A given max_len or fuel overrides the evaluation bounds, and a given
    max_len puts the ':max_len:fuel' suffix on the name. A negative override
    raises ValueError here, when the leaf is built, not when it is evaluated.
    """
    if (max_len is not None and max_len < 0) or (fuel is not None and fuel < 0):
        raise ValueError("leaf bounds must be nonnegative")

    def evaluator(m: MachineDescription, bounds: Bounds) -> Verdict:
        return decide(m, bounds.max_len if max_len is None else max_len, bounds.fuel if fuel is None else fuel)

    suffix = "" if max_len is None else f":{max_len}:{fuel}"
    return TraitDef(name + suffix, evaluator, kind)


def total_on_nonempty_trait(max_len: int | None = None, fuel: int | None = None) -> TraitDef:
    """Machines that halt with output on every nonempty tested input.

    The empty input is excluded deliberately: a machine that halts leaving
    only blanks there computes nothing at the empty string no matter what, so
    including it would empty the trait. A halt without output on a nonempty
    input refutes membership for certain; fuel exhaustion anywhere leaves the
    verdict Unknown.
    """

    def decide(m: MachineDescription, max_len: int, fuel: int) -> Verdict:
        unknown = False
        for sigma in strings_up_to(m.input_alphabet, max_len):
            if not sigma:
                continue
            outcome = run(m, sigma, fuel)
            if outcome.kind is RunKind.HALTED_UNDEFINED:
                return Verdict.OUT
            if outcome.kind is RunKind.FUEL_EXHAUSTED:
                unknown = True
        return Verdict.UNKNOWN if unknown else Verdict.IN

    return _leaf("total-nonempty", DeclaredKind.SEMANTIC, max_len, fuel, decide)


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

    def decide(m: MachineDescription, max_len: int, fuel: int) -> Verdict:
        return _BOUND_VERDICTS[usage_within_bound(m, measure, bound, max_len, fuel).kind]

    return _leaf(f"{measure.name}-within:{bound.describe()}", DeclaredKind.SYNTACTIC, max_len, fuel, decide)


_CONTAINMENT_VERDICTS = {
    ContainmentVerdict.CONTAINED: Verdict.IN,
    ContainmentVerdict.VIOLATED: Verdict.OUT,
    ContainmentVerdict.INCONCLUSIVE: Verdict.UNKNOWN,
}


def contained_trait(policy: ContainmentPolicy, max_len: int | None = None, fuel: int | None = None) -> TraitDef:
    """Machines whose traces and outputs respect a containment policy."""

    def decide(m: MachineDescription, max_len: int, fuel: int) -> Verdict:
        report = containment_check(m, policy, strings_up_to(m.input_alphabet, max_len), fuel)
        return _CONTAINMENT_VERDICTS[report.verdict]

    return _leaf("contained", DeclaredKind.SYNTACTIC, max_len, fuel, decide)


@dataclass(frozen=True)
class FunctionProperty:
    """A predicate over observed (input, outcome) samples.

    The predicate must depend only on input-output behaviour: outputs and
    their definedness, never steps, space, or anything structural. That
    discipline is what entitles traits built from one to the
    semantic-by-construction declaration.
    """

    name: str
    predicate: Callable[[tuple[tuple[str, RunOutcome], ...]], bool]


def behavior_trait(prop: FunctionProperty, max_len: int | None = None, fuel: int | None = None) -> TraitDef:
    """Lift a function property to a trait by sampling runs up to the bounds."""

    def decide(m: MachineDescription, max_len: int, fuel: int) -> Verdict:
        samples = []
        for sigma in strings_up_to(m.input_alphabet, max_len):
            outcome = run(m, sigma, fuel)
            if outcome.kind is RunKind.FUEL_EXHAUSTED:
                return Verdict.UNKNOWN
            samples.append((sigma, outcome))
        return Verdict.IN if prop.predicate(tuple(samples)) else Verdict.OUT

    return _leaf(prop.name, DeclaredKind.SEMANTIC, max_len, fuel, decide)


def _echoes(samples: tuple[tuple[str, RunOutcome], ...]) -> bool:
    return all(out.output == sigma for sigma, out in samples if sigma)


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
    if eval_trait(trait, m, bounds) is not Verdict.IN:
        raise ValueError("semanticity probing starts from a machine the trait contains")
    return _probe_variants(trait, m, probes, bounds, kinds)


def _probe_variants(
    trait: TraitExpr,
    m: MachineDescription,
    probes: int,
    bounds: Bounds,
    kinds: tuple[str, ...],
) -> ProbeResult:
    """The variant loop of probe_semanticity, for an m already evaluated In."""
    usable = [kind for kind in kinds if kind != "leak" or m.input_alphabet]
    if not usable:
        raise ValueError("no applicable probe kinds for this machine")
    all_in = True
    for i in range(probes):
        kind = usable[i % len(usable)]
        scale = i // len(usable) + 1
        if kind == "pad":
            variant, parameter = pad(m, scale), str(scale)
        elif kind == "delay":
            variant, parameter = delay_inject(m, 2 * scale), str(2 * scale)
        else:
            leaked = m.input_alphabet[0] * scale
            variant, parameter = leaky_wrap(m, leaked), leaked
        verdict = eval_trait(trait, variant, bounds)
        if verdict is Verdict.OUT:
            return ProbeResult(variant, kind, parameter, i + 1, False)
        if verdict is not Verdict.IN:
            all_in = False
    return ProbeResult(None, None, None, probes, all_in)


@dataclass(frozen=True)
class SemSynPartition:
    """In-verdict indices split by what probing found.

    syn holds members with a separating witness, sem holds members where
    every variant stayed In and the trait is declared semantic-by-
    construction, unknown holds the rest. Probing can only ever certify the
    syn side; the sem side is structural trust, never proof.
    """

    trait_name: str
    universe: tuple[int, ...]
    sem: tuple[int, ...]
    syn: tuple[int, ...]
    unknown: tuple[int, ...]
    witness_kinds: Mapping[int, str]

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
    for n in universe_tuple:
        m = decode(n)
        if eval_trait(trait, m, bounds) is not Verdict.IN:
            continue
        result = _probe_variants(trait, m, probes, bounds, kinds)
        if result.found:
            syn.append(n)
            witness_kinds[n] = result.witness_kind or ""
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


MAX_TRAIT_DEPTH = 100


def parse_trait(text: str) -> TraitExpr:
    """Parse 'states:3', 'not(E)', 'and(E,E)', 'or(E,E)' into a trait expression.

    Leaf grammar, arguments separated by colons:
      states:<n>
      total-nonempty:<max_len>:<fuel>
      echoes:<max_len>:<fuel>
      time-within:<bound>:<max_len>:<fuel>
      space-within:<bound>:<max_len>:<fuel>
    Leaves may omit their bound arguments to inherit the evaluation bounds.
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
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return text[:i], text[i + 1 :]
    raise ValueError(f"expected two comma-separated trait expressions in {text!r}")


def _parse_leaf(text: str) -> TraitDef:
    head, _, rest = text.partition(":")
    args = rest.split(":") if rest else []
    try:
        if head == "states":
            (n,) = args
            return state_count_trait(int(n))
        if head == "total-nonempty":
            if not args:
                return total_on_nonempty_trait()
            max_len, fuel = args
            return total_on_nonempty_trait(int(max_len), int(fuel))
        if head == "echoes":
            if not args:
                return echoes_input_trait()
            max_len, fuel = args
            return echoes_input_trait(int(max_len), int(fuel))
        if head in ("time-within", "space-within"):
            measure = time_measure() if head == "time-within" else space_measure()
            if len(args) == 1:
                return usage_bounded_trait(measure, parse_bound(args[0]))
            bound_text, max_len, fuel = args
            return usage_bounded_trait(measure, parse_bound(bound_text), int(max_len), int(fuel))
    except ValueError as exc:
        raise ValueError(f"bad trait leaf {text!r}: {exc}") from exc
    raise ValueError(f"unknown trait leaf {text!r}")
