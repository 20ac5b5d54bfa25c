"""Index bijection: pairing, decode/encode, validation, index-set sweeps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench.enumeration import decode, encode, index_set_bounded, is_canonical, pair, unpair
from traitbench.machine import EquivKind, equiv_bounded
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


class TestEncode:
    def test_encode_inverts_decode_on_a_prefix(self):
        for n in range(2000):
            assert encode(decode(n)) == n

    @given(canonical_machines(max_states=5, max_sigma=2, max_extras=1))
    @settings(max_examples=100, deadline=None)
    def test_decode_inverts_encode(self, m):
        assert decode(encode(m)) == m

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


class TestIndexSet:
    def test_buckets_match_direct_pairwise_comparison(self):
        reference = decode(37)
        result = index_set_bounded(reference, max_index=60, max_len=1, fuel=60)
        for n in range(61):
            verdict = equiv_bounded(reference, decode(n), 1, 60).kind
            expected = {
                EquivKind.AGREE: result.agree,
                EquivKind.INCONCLUSIVE: result.inconclusive,
                EquivKind.DIFFER: result.differ,
            }[verdict]
            assert n in expected

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

    def test_rows_cover_zero_through_max_index_inclusive(self):
        result = index_set_bounded(decode(0), 15, 1, 40)
        rows = result.rows()
        assert [r["index"] for r in rows] == list(range(16))
        assert all(r["verdict"] in {"agree", "inconclusive", "differ"} for r in rows)
