"""A bijection between the naturals and canonical machine descriptions.

Canonical machines draw their symbols from two fixed ten-character
universes, one for input alphabets and one for extra tape symbols, and lay
their states out as start = 0, accept = second-to-last, reject = last. Under
that normal form a machine is exactly a shape (state count, input alphabet
size, extra tape symbol count) plus a transition table, and the tables of a
given shape number 0 .. (s*g*2)^((s-2)*g) - 1 when read as base s*g*2
numerals with one digit per (state, symbol) pair in row-major order, the
first pair's digit least significant (g is the tape alphabet size; the
digit packs next state, written symbol rank, and move direction, in that
significance order, with L before R).

Shapes themselves are numbered through the Cantor triple code
pair(states - 3, pair(sigma - 1, extras)); codes whose alphabets exceed the
symbol universes are skipped. The global index of a machine is the sum of
the table capacities of all earlier shapes plus its own table numeral, which
makes decode total and encode its exact inverse: every natural denotes one
canonical machine and every canonical machine has one index.

Each shape computes its table once: `choices[i][digit]` is the rule digit
i stands for when it holds digit, and `weight` takes each of those rules to
digit * radix**i. decode peels one digit per row of `choices` with divmod
and takes its rule from the row, so every machine of a shape shares its
rule tuples; encode sums `weight` over a machine's rules, as a numeral is
the sum of its digits' place values. A shape's header alone is the normal
form: decode and canonicalize build from it, is_canonical compares with
it, and encode looks the shape up once through the helper is_canonical
asks.

decode assembles its machine without the public constructor, which would
only re-check what the shape guarantees: the header is the shape's, every
(state, read symbol) pair gets one rule, and every rule is one of the
shape's. It sets the fields in the constructor's order and puts the rules
in sorted order through a permutation each shape computes once, so its
machines equal, and hash as, those the constructor builds. `enumerate
--validate` validates each decoded machine itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import isqrt
from operator import itemgetter
from typing import Mapping

from .machine import (
    LEFT,
    RIGHT,
    BLANK,
    EquivKind,
    MachineDescription,
    Rule,
    _equiv,
    _run_table,
)

SIGMA_UNIVERSE = "abcdefghij"
EXTRA_UNIVERSE = "ABCDEFGHIJ"


def pair(a: int, b: int) -> int:
    """Cantor pairing: a bijection from ordered pairs of naturals to naturals."""
    if a < 0 or b < 0:
        raise ValueError("pair is defined on nonnegative integers")
    return (a + b) * (a + b + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    """Inverse of pair."""
    if n < 0:
        raise ValueError("unpair is defined on nonnegative integers")
    w = (isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


@dataclass(frozen=True)
class _Shape:
    """The normal form of the machines with these sizes; ValueError when an alphabet outgrows its universe."""

    states: int
    sigma_size: int
    extra_count: int

    def __post_init__(self):
        if self.sigma_size > len(SIGMA_UNIVERSE):
            raise ValueError(f"input alphabet exceeds the {len(SIGMA_UNIVERSE)}-symbol universe")
        if self.extra_count > len(EXTRA_UNIVERSE):
            raise ValueError(f"tape alphabet exceeds the {len(EXTRA_UNIVERSE)}-extra-symbol universe")

    @cached_property
    def sigma(self) -> tuple[str, ...]:
        return tuple(SIGMA_UNIVERSE[: self.sigma_size])

    @cached_property
    def gamma(self) -> tuple[str, ...]:
        return self.sigma + (BLANK,) + tuple(EXTRA_UNIVERSE[: self.extra_count])

    @cached_property
    def header(self) -> tuple:
        """Every field but the rules, in MachineDescription's order: start 0, accept and reject last."""
        return (self.states, 0, self.states - 2, self.states - 1, self.sigma, self.gamma, BLANK)

    @cached_property
    def radix(self) -> int:
        return self.states * len(self.gamma) * 2

    @cached_property
    def digit_count(self) -> int:
        return (self.states - 2) * len(self.gamma)

    @property
    def capacity(self) -> int:
        return self.radix ** self.digit_count

    @cached_property
    def choices(self) -> tuple[tuple[Rule, ...], ...]:
        """choices[i][digit]: the rule digit i stands for when it holds digit, with rows in row-major (state, read symbol) order.

        Every machine decode assembles from this shape holds these rule
        tuples, not copies. The table holds digit_count * radix rules: 120
        for 5 states over the tape alphabet {a, _}, the shape of every index
        from 71,512 to 64,071,511, and 42,336 for 8 states with 10 input
        letters and 10 extras.
        """
        actions = tuple(product(range(self.states), self.gamma, (LEFT, RIGHT)))
        return tuple(tuple(key + action for action in actions) for key in product(range(self.states - 2), self.gamma))

    @cached_property
    def weight(self) -> dict[Rule, int]:
        """weight[rule]: digit * radix**i, where choices[i][digit] is rule; about 5.5 MB for the 42,336-rule shape."""
        radix = self.radix
        return {rule: digit * radix**i for i, row in enumerate(self.choices) for digit, rule in enumerate(row)}

    @cached_property
    def in_sorted_order(self) -> itemgetter:
        """Takes rules in row order to the tuple of them in sorted order.

        Rows are in symbol order, and sorted order puts the uppercase extras
        before the blank and the blank before the lowercase letters. A shape
        the walk holds has at least two rows (a working state reading a
        letter or the blank), so the getter returns a tuple.
        """
        return itemgetter(*sorted(range(self.digit_count), key=self.choices.__getitem__))


# Valid shapes in code order with their first global index, grown on demand,
# and the same pairs keyed by (states, sigma size, extra count).
_shapes: list[_Shape] = []
_starts: list[int] = []
_by_dims: dict[tuple[int, int, int], tuple[_Shape, int]] = {}
_next_code = 0
_next_start = 0


def _extend_walk() -> None:
    global _next_code, _next_start
    while True:
        a, rest = unpair(_next_code)
        b, c = unpair(rest)
        _next_code += 1
        try:
            shape = _Shape(states=a + 3, sigma_size=b + 1, extra_count=c)
        except ValueError:
            continue  # an alphabet outgrows its universe: the code names no shape
        _shapes.append(shape)
        _starts.append(_next_start)
        _by_dims[shape.states, shape.sigma_size, shape.extra_count] = shape, _next_start
        _next_start += shape.capacity
        return


def _shape_of(m: MachineDescription) -> tuple[_Shape, int | None]:
    """The shape m's sizes name and its first index: the walked pair once the walk has reached it, else the shape and None.

    Raises the shape's ValueError when an alphabet of m outgrows its universe.
    """
    k = len(m.input_alphabet)
    dims = (m.state_count, k, len(m.tape_alphabet) - k - 1)
    walked = _by_dims.get(dims)
    return walked if walked is not None else (_Shape(*dims), None)


def _header(m: MachineDescription) -> tuple:
    return (m.state_count, m.start_state, m.accept_state, m.reject_state, m.input_alphabet, m.tape_alphabet, m.blank)


def _locate_index(n: int) -> tuple[_Shape, int]:
    while n >= _next_start:
        _extend_walk()
    i = bisect_right(_starts, n) - 1
    return _shapes[i], n - _starts[i]


def decode(n: int) -> MachineDescription:
    """The canonical machine with index n; defined for every natural.

    The machine equals the one the public constructor builds from the same
    fields, but is not validated again: its shape guarantees what the
    validator checks (see the module docstring).
    """
    if n < 0:
        raise ValueError("machine indices are nonnegative")
    shape, table = _locate_index(n)
    radix = shape.radix
    rules: list[Rule] = []
    for row in shape.choices:
        table, digit = divmod(table, radix)
        rules.append(row[digit])
    # The fields in the constructor's order, so that vars(m), and a pickle or
    # copy made from it, match a constructed machine's.
    m, put = object.__new__(MachineDescription), object.__setattr__
    state_count, start, accept, reject, sigma, gamma, blank = shape.header
    put(m, "state_count", state_count)
    put(m, "start_state", start)
    put(m, "accept_state", accept)
    put(m, "reject_state", reject)
    put(m, "input_alphabet", sigma)
    put(m, "tape_alphabet", gamma)
    put(m, "blank", blank)
    put(m, "transitions", shape.in_sorted_order(rules))
    return m


def _canonical_shape(m: MachineDescription) -> tuple[_Shape, int | None] | None:
    """m's shape and first index, as _shape_of gives them, when is_canonical(m); else None."""
    try:
        shape, start = _shape_of(m)
    except ValueError:
        return None
    return (shape, start) if shape.sigma_size > 0 and shape.header == _header(m) else None


def is_canonical(m: MachineDescription) -> bool:
    """Whether a machine is in the normal form the index bijection covers.

    That is its shape's header exactly, with a nonempty input alphabet.
    """
    return _canonical_shape(m) is not None


def encode(m: MachineDescription) -> int:
    """The index of a canonical machine; inverse of decode.

    The header is checked before the walk grows to the machine's shape, so a
    machine outside the normal form is refused without a walk.
    """
    if not m.input_alphabet:
        raise ValueError("no index covers a machine with an empty input alphabet")
    canonical = _canonical_shape(m)
    if canonical is None:
        raise ValueError("machine is not in canonical form; canonicalize it first")
    shape, start = canonical
    if start is None:
        dims = (shape.states, shape.sigma_size, shape.extra_count)
        while dims not in _by_dims:
            _extend_walk()
        shape, start = _by_dims[dims]
    return start + sum(map(shape.weight.__getitem__, m.transitions))


@dataclass(frozen=True)
class IndexSetResult:
    """Indices bucketed by bounded equivalence with a reference machine.

    witnesses maps a differ index to the first input that separates it from
    the reference, and an inconclusive index to the first input left
    unsettled; agree indices, and differ indices whose input alphabet is not
    the reference's, have none.
    """

    agree: tuple[int, ...]
    inconclusive: tuple[int, ...]
    differ: tuple[int, ...]
    witnesses: Mapping[int, str] = field(default_factory=dict)

    def rows(self) -> list[dict[str, object]]:
        verdicts: dict[int, str] = {}
        for n in self.agree:
            verdicts[n] = "agree"
        for n in self.inconclusive:
            verdicts[n] = "inconclusive"
        for n in self.differ:
            verdicts[n] = "differ"
        return [{"index": n, "verdict": verdicts[n], "witness": self.witnesses.get(n)} for n in sorted(verdicts)]


def index_set_bounded(reference: MachineDescription, max_index: int, max_len: int, fuel: int) -> IndexSetResult:
    """Partition indices 0..max_index, inclusive, by bounded equivalence with the reference.

    Machines whose input alphabet differs from the reference's are counted as
    differing outright: the sweep compares behaviour on the reference's own
    input strings, which such machines cannot even be run on. The reference
    runs once per input for the whole sweep.
    """
    ref_sigma = set(reference.input_alphabet)
    reference_run = _run_table(reference)
    agree: list[int] = []
    inconclusive: list[int] = []
    differ: list[int] = []
    witnesses: dict[int, str] = {}
    for n in range(max_index + 1):
        candidate = decode(n)
        if set(candidate.input_alphabet) != ref_sigma:
            differ.append(n)
            continue
        verdict = _equiv(candidate, reference_run, max_len, fuel)
        if verdict.witness is not None:
            witnesses[n] = verdict.witness
        if verdict.kind is EquivKind.AGREE:
            agree.append(n)
        elif verdict.kind is EquivKind.INCONCLUSIVE:
            inconclusive.append(n)
        else:
            differ.append(n)
    return IndexSetResult(tuple(agree), tuple(inconclusive), tuple(differ), witnesses)
