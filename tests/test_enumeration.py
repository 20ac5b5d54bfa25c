"""Index bijection: pairing, decode/encode, validation, index-set sweeps."""

import gc
import random
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench import enumeration, machine
from traitbench.cli import main
from traitbench.enumeration import decode, encode, index_set_bounded, is_canonical, pair, unpair
from traitbench.machine import EquivKind, MachineDescription, MachineError, equiv_bounded, run
from util import canonical_machines, random_canonical_machine


class TestPairing:
    def test_known_values(self):
        # Diagonal order: (0,0)=0, (1,0)=1, (0,1)=2, (2,0)=3, ...
        assert pair(0, 0) == 0
        assert pair(3, 4) == 32
        assert unpair(32) == (3, 4)

    def test_first_codes_cover_the_diagonals(self):
        seen = [unpair(c) for c in range(6)]
        assert seen == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_unpair_inverts_pair(self, a, b):
        assert unpair(pair(a, b)) == (a, b)

    @given(st.integers(0, 10**12))
    @settings(max_examples=200, deadline=None)
    def test_pair_inverts_unpair(self, code):
        a, b = unpair(code)
        assert pair(a, b) == code

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pair(-1, 0)
        with pytest.raises(ValueError):
            unpair(-1)


class TestDecode:
    def test_index_zero_is_the_minimal_left_crawler(self):
        m = decode(0)
        assert m.state_count == 3
        assert m.input_alphabet == ("a",)
        assert m.tape_alphabet == ("a", "_")
        assert (m.start_state, m.accept_state, m.reject_state) == (0, 1, 2)
        assert m.rule_map == {(0, "a"): (0, "a", "L"), (0, "_"): (0, "a", "L")}

    def test_enumerate_validate_checks_what_decode_does_not(self, monkeypatch, capsys):
        # decode assembles its machines unchecked, so enumerate --validate
        # validates each one itself; were it to rely on decode, its count
        # would be vacuous.
        checked = []
        monkeypatch.setattr(machine, "_validate", checked.append)
        decode(7)
        assert checked == []
        assert main(["enumerate", "--validate", "--max", "3"]) == 0
        assert checked == [decode(0), decode(1), decode(2)]

        def reject(m):
            raise MachineError("rejected")

        capsys.readouterr()
        monkeypatch.setattr(machine, "_validate", reject)
        assert main(["enumerate", "--validate", "--max", "3"]) == 1
        assert "machines valid" not in capsys.readouterr().out

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            decode(-1)

    def test_all_small_indices_decode_to_canonical_machines(self):
        for n in range(300):
            assert is_canonical(decode(n))

    def test_walk_moves_to_the_next_shape_after_exhausting_one(self):
        # The three-state one-letter shape holds (3*2*2)^2 = 144 tables.
        assert decode(143).state_count == 3
        assert decode(144).state_count == 4
        shapes = {
            (m.state_count, len(m.input_alphabet), len(m.tape_alphabet))
            for m in map(decode, range(5000))
        }
        assert shapes == {(3, 1, 2), (4, 1, 2)}

    def test_machines_of_a_shape_share_their_rules(self):
        # Indices one apart differ in their first digit only.
        a, b = decode(71512), decode(71513)
        common = [(ra, rb) for ra, rb in zip(a.transitions, b.transitions) if ra == rb]
        assert len(common) == len(a.transitions) - 1
        assert all(ra is rb for ra, rb in common)

    def test_a_decoded_and_run_machine_holds_no_table_of_its_own(self):
        # Over a window of the 5-state one-letter shape, a machine costs its
        # object and its tuple of rules: its rule tuples are its shape's and
        # its rule index its header's. Private tables cost about 1,800 B.
        window = range(71512, 71512 + 5000 * 1999, 1999)
        run(decode(window[0] + 1), "a", 50)
        tracemalloc.start()
        try:
            machines = [decode(n) for n in window]
            for m in machines:
                run(m, "a", 50)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(machines) < 400


def decoded_and_constructed(n):
    """decode(n), and the machine the public constructor builds from its shape's header and its rules reversed."""
    m, (shape, _) = decode(n), enumeration._locate_index(n)
    return m, MachineDescription(*shape.header, tuple(reversed(m.transitions)))


def assert_assembled_as_constructed(n):
    m, built = decoded_and_constructed(n)
    assert [getattr(m, f.name) for f in fields(m)] == [getattr(built, f.name) for f in fields(built)]
    assert m == built and hash(m) == hash(built)
    assert m.rule_map == built.rule_map
    machine._validate(m)
    assert encode(m) == n


class TestAssembly:
    """decode builds its machines without the constructor; they must be the constructor's."""

    def test_a_prefix_of_the_index_space(self):
        for n in range(5000):
            assert_assembled_as_constructed(n)

    def test_seeded_indices_stratified_up_to_ten_million(self):
        # One index in each of 20,000 strata of 500, across the first four
        # shapes; none of them has an extra tape symbol.
        rng = random.Random(21)
        for k in range(20000):
            assert_assembled_as_constructed(k * 500 + rng.randrange(500))

    def test_a_shape_with_extra_symbols(self):
        # Three states, two letters and three extras: the keys read a b _ A B C
        # in each state and the sorted rules A B C _ a b.
        while (3, 2, 3) not in enumeration._by_dims:
            enumeration._extend_walk()
        shape, start = enumeration._by_dims[3, 2, 3]
        rng = random.Random(21)
        for table in [0, shape.capacity - 1, *(rng.randrange(shape.capacity) for _ in range(2000))]:
            assert_assembled_as_constructed(start + table)
        assert [s for _, s, *_ in decode(start).transitions] == ["A", "B", "C", "_", "a", "b"]

    def test_fields_are_stored_as_the_constructor_stores_them(self):
        # Inline values on CPython 3.11 and later, and in the same order, so
        # that vars(), and a pickle or copy made from it, match too. vars()
        # comes last, as it turns inline values into a dict.
        m, built = decoded_and_constructed(1234)
        assert [type(r) for r in gc.get_referents(m)] == [type(r) for r in gc.get_referents(built)]
        assert list(vars(m).items()) == list(vars(built).items())


class TestEncode:
    def test_encode_inverts_decode_on_a_prefix(self):
        for n in range(2000):
            assert encode(decode(n)) == n

    # Every alphabet size of both symbol universes, so each shape's digit
    # tables are exercised on the widest alphabets too.
    @given(canonical_machines(max_states=8, max_sigma=10, max_extras=10))
    @settings(max_examples=100, deadline=None)
    def test_decode_inverts_encode(self, m):
        assert decode(encode(m)) == m

    @given(st.integers(0, 10**60))
    @settings(max_examples=100, deadline=None)
    def test_encode_inverts_decode_on_large_indices(self, n):
        assert encode(decode(n)) == n

    def test_seeded_random_machines_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            m = random_canonical_machine(rng)
            assert decode(encode(m)) == m

    def test_fixture_machines_have_known_indices(self, echo):
        assert encode(echo) == 69413
        assert decode(69413) == echo

    def test_non_canonical_machine_rejected(self, echo):
        from traitbench.transforms import pad

        with pytest.raises(ValueError):
            encode(pad(echo, 1))

    def test_non_canonical_machine_is_refused_before_the_walk_grows(self, echo, monkeypatch):
        # An empty walk, so that extending it to the machine's shape would show.
        from traitbench import enumeration
        from traitbench.transforms import pad

        for name, empty in (("_shapes", []), ("_starts", []), ("_by_dims", {}), ("_next_code", 0), ("_next_start", 0)):
            monkeypatch.setattr(enumeration, name, empty)
        with pytest.raises(ValueError, match="not in canonical form"):
            encode(pad(echo, 1))
        assert len(enumeration._shapes) == 0

    def test_an_alphabet_past_its_universe_is_refused_before_the_walk_grows(self):
        from traitbench import enumeration

        letters = tuple("abcdefghijk")
        m = MachineDescription(3, 0, 1, 2, letters, letters + ("_",), "_", tuple((0, s, 1, s, "R") for s in letters + ("_",)))
        walked = len(enumeration._shapes)
        with pytest.raises(ValueError, match="^machine is not in canonical form; canonicalize it first$"):
            encode(m)
        assert len(enumeration._shapes) == walked


class TestIndexSet:
    def test_buckets_match_direct_pairwise_comparison(self):
        reference = decode(37)
        result = index_set_bounded(reference, max_index=60, max_len=1, fuel=60)
        for n in range(61):
            verdict = equiv_bounded(reference, decode(n), 1, 60)
            expected = {
                EquivKind.AGREE: result.agree,
                EquivKind.INCONCLUSIVE: result.inconclusive,
                EquivKind.DIFFER: result.differ,
            }[verdict.kind]
            assert n in expected
            assert result.witnesses.get(n) == verdict.witness

    def test_reference_index_lands_in_agree_when_it_halts_everywhere(self):
        # decode(48) halts on its first step whatever it reads, so the sweep
        # settles every comparison against itself.
        reference = decode(48)
        result = index_set_bounded(reference, 60, 1, 60)
        assert 48 in result.agree

    def test_looping_reference_is_inconclusive_even_against_itself(self):
        # decode(16) runs right forever on the empty input; a bounded sweep
        # can never certify agreement, only fail to separate.
        result = index_set_bounded(decode(16), 20, 1, 60)
        assert 16 in result.inconclusive

    def test_alphabet_mismatch_counts_as_differ(self, echo):
        # Indices below 144 all use a one-letter input alphabet; echo uses
        # two letters, so none of them can agree with it.
        result = index_set_bounded(echo, 10, 1, 60)
        assert result.differ == tuple(range(11))
        assert not result.agree and not result.inconclusive
        assert [row["witness"] for row in result.rows()] == [None] * 11

    def test_the_reference_runs_once_per_input(self, runs):
        reference = decode(16)
        result = index_set_bounded(reference, 59, 1, 60)
        assert len(result.inconclusive) + len(result.differ) == 60
        assert [sigma for m, sigma, _ in runs if m is reference] == ["", "a"]

    def test_rows_cover_zero_through_max_index_inclusive(self):
        result = index_set_bounded(decode(0), 15, 1, 40)
        rows = result.rows()
        assert [r["index"] for r in rows] == list(range(16))
        assert all(r["verdict"] in {"agree", "inconclusive", "differ"} for r in rows)
