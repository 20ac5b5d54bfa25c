"""A bijection between the naturals and canonical machine descriptions.

Canonical machines draw their symbols from two fixed ten-character
universes, one for input alphabets and one for extra tape symbols, and lay
their states out as start = 0, accept = second-to-last, reject = last. Under
that normal form a machine is exactly a shape (state count, input alphabet
size, extra tape symbol count) plus a transition table, and the tables of a
given shape number 0 .. (s*g*2)^((s-2)*g) - 1 when read as base s*g*2
numerals with one digit per (state, symbol) pair in row-major order (g is
the tape alphabet size; the digit packs next state, written symbol rank, and
move direction, in that significance order, with L before R).

Shapes themselves are numbered through the Cantor triple code
pair(states - 3, pair(sigma - 1, extras)); codes whose alphabets exceed the
symbol universes are skipped. The global index of a machine is the sum of
the table capacities of all earlier shapes plus its own table numeral, which
makes decode total and encode its exact inverse: every natural denotes one
canonical machine and every canonical machine has one index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .machine import (
    LEFT,
    RIGHT,
    BLANK,
    EquivKind,
    MachineDescription,
    Rule,
    equiv_bounded,
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
    states: int
    sigma_size: int
    extra_count: int

    @property
    def sigma(self) -> tuple[str, ...]:
        return tuple(SIGMA_UNIVERSE[: self.sigma_size])

    @property
    def gamma(self) -> tuple[str, ...]:
        return self.sigma + (BLANK,) + tuple(EXTRA_UNIVERSE[: self.extra_count])

    @property
    def gamma_size(self) -> int:
        return self.sigma_size + 1 + self.extra_count

    @property
    def radix(self) -> int:
        return self.states * self.gamma_size * 2

    @property
    def digit_count(self) -> int:
        return (self.states - 2) * self.gamma_size

    @property
    def capacity(self) -> int:
        return self.radix ** self.digit_count


def _shape_from_code(code: int) -> _Shape | None:
    a, rest = unpair(code)
    b, c = unpair(rest)
    if b >= len(SIGMA_UNIVERSE) or c > len(EXTRA_UNIVERSE):
        return None
    return _Shape(states=a + 3, sigma_size=b + 1, extra_count=c)


def _shape_code(shape: _Shape) -> int:
    return pair(shape.states - 3, pair(shape.sigma_size - 1, shape.extra_count))


# Valid shapes in code order with their first global index, grown on demand.
_walk: list[tuple[int, _Shape, int]] = []
_next_code = 0
_next_start = 0


def _extend_walk() -> None:
    global _next_code, _next_start
    while True:
        code = _next_code
        _next_code += 1
        shape = _shape_from_code(code)
        if shape is None:
            continue
        _walk.append((code, shape, _next_start))
        _next_start += shape.capacity
        return


def _locate_index(n: int) -> tuple[_Shape, int]:
    while not _walk or n >= _next_start:
        _extend_walk()
    lo, hi = 0, len(_walk) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _walk[mid][2] <= n:
            lo = mid
        else:
            hi = mid - 1
    _, shape, start = _walk[lo]
    return shape, n - start


def _first_index(shape: _Shape) -> int:
    code = _shape_code(shape)
    while not _walk or _walk[-1][0] < code:
        _extend_walk()
    for walked_code, _, start in _walk:
        if walked_code == code:
            return start
    raise ValueError(f"shape {shape} is outside the symbol universes")


def decode(n: int) -> MachineDescription:
    """The canonical machine with index n; defined for every natural."""
    if n < 0:
        raise ValueError("machine indices are nonnegative")
    shape, offset = _locate_index(n)
    gamma = shape.gamma
    gsize = shape.gamma_size
    rules: list[Rule] = []
    table = offset
    for q in range(shape.states - 2):
        for sym in gamma:
            table, digit = divmod(table, shape.radix)
            packed, direction = divmod(digit, 2)
            next_state, write_rank = divmod(packed, gsize)
            rules.append((q, sym, next_state, gamma[write_rank], RIGHT if direction else LEFT))
    return MachineDescription(
        state_count=shape.states,
        start_state=0,
        accept_state=shape.states - 2,
        reject_state=shape.states - 1,
        input_alphabet=shape.sigma,
        tape_alphabet=gamma,
        blank=BLANK,
        transitions=tuple(rules),
    )


def is_canonical(m: MachineDescription) -> bool:
    """Whether a machine is in the normal form the index bijection covers."""
    s = m.state_count
    if (m.start_state, m.accept_state, m.reject_state) != (0, s - 2, s - 1):
        return False
    k = len(m.input_alphabet)
    if not 1 <= k <= len(SIGMA_UNIVERSE):
        return False
    if m.input_alphabet != tuple(SIGMA_UNIVERSE[:k]):
        return False
    extras = len(m.tape_alphabet) - k - 1
    if not 0 <= extras <= len(EXTRA_UNIVERSE):
        return False
    return m.tape_alphabet == m.input_alphabet + (BLANK,) + tuple(EXTRA_UNIVERSE[:extras]) and m.blank == BLANK


def encode(m: MachineDescription) -> int:
    """The index of a canonical machine; inverse of decode."""
    if not is_canonical(m):
        raise ValueError("machine is not in canonical form; canonicalize it first")
    shape = _Shape(
        states=m.state_count,
        sigma_size=len(m.input_alphabet),
        extra_count=len(m.tape_alphabet) - len(m.input_alphabet) - 1,
    )
    gamma = shape.gamma
    rank = {sym: i for i, sym in enumerate(gamma)}
    rules = m.rule_map
    table = 0
    for q in reversed(range(shape.states - 2)):
        for sym in reversed(gamma):
            next_state, written, move = rules[(q, sym)]
            digit = (next_state * shape.gamma_size + rank[written]) * 2 + (1 if move == RIGHT else 0)
            table = table * shape.radix + digit
    return _first_index(shape) + table


@dataclass(frozen=True)
class IndexSetResult:
    agree: tuple[int, ...]
    inconclusive: tuple[int, ...]
    differ: tuple[int, ...]

    def rows(self) -> list[dict[str, object]]:
        verdicts: dict[int, str] = {}
        for n in self.agree:
            verdicts[n] = "agree"
        for n in self.inconclusive:
            verdicts[n] = "inconclusive"
        for n in self.differ:
            verdicts[n] = "differ"
        return [{"index": n, "verdict": verdicts[n], "witness": ""} for n in sorted(verdicts)]


def index_set_bounded(reference: MachineDescription, max_index: int, max_len: int, fuel: int) -> IndexSetResult:
    """Partition indices 0..max_index, inclusive, by bounded equivalence with the reference.

    Machines whose input alphabet differs from the reference's are counted as
    differing outright: the sweep compares behaviour on the reference's own
    input strings, which such machines cannot even be run on.
    """
    ref_sigma = set(reference.input_alphabet)
    agree: list[int] = []
    inconclusive: list[int] = []
    differ: list[int] = []
    for n in range(max_index + 1):
        candidate = decode(n)
        if set(candidate.input_alphabet) != ref_sigma:
            differ.append(n)
            continue
        verdict = equiv_bounded(candidate, reference, max_len, fuel)
        if verdict.kind is EquivKind.AGREE:
            agree.append(n)
        elif verdict.kind is EquivKind.INCONCLUSIVE:
            inconclusive.append(n)
        else:
            differ.append(n)
    return IndexSetResult(tuple(agree), tuple(inconclusive), tuple(differ))
