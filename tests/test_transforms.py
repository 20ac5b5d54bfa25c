"""Semantics-preserving transformations and their receipts."""

import dataclasses
import hashlib
import json
import pickle
import random
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitbench import machine
from traitbench.enumeration import decode, encode
from traitbench.fixtures import all_fixtures
from traitbench.machine import EquivKind, MachineDescription, RunKind, equiv_bounded, format_machine, render_tape, run, strings_up_to, trace
from traitbench.transforms import TransformReceipt, canonicalize, delay_inject, leaky_wrap, pad, receipt_for, variant_run
from util import canonical_machines, noncanonical_machines


class TestPad:
    def test_adds_exactly_k_states(self, echo):
        for k in (1, 4, 10):
            assert pad(echo, k).state_count == echo.state_count + k

    def test_preserves_behavior_exactly(self, echo, eraser, marker):
        for m in (echo, eraser, marker):
            assert equiv_bounded(m, pad(m, 3), 3, 200).kind is EquivKind.AGREE

    def test_padded_states_are_unreachable(self, echo):
        padded = pad(echo, 2)
        visited = {c.state for c in trace(padded, "ab", 100)}
        assert visited <= set(range(echo.state_count))

    def test_distinct_amounts_give_distinct_indices(self, echo):
        indices = {encode(canonicalize(pad(echo, k))) for k in range(1, 6)}
        assert len(indices) == 5

    def test_rejects_nonpositive_k(self, echo):
        with pytest.raises(ValueError):
            pad(echo, 0)

    @given(canonical_machines(max_states=5, max_sigma=2, max_extras=1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_never_separates_from_the_original(self, m, k):
        verdict = equiv_bounded(m, pad(m, k), 2, 100)
        assert verdict.kind is not EquivKind.DIFFER
        # Semanticity probes read a member's runs for its pad variants, steps and space included.
        assert all(run(pad(m, k), sigma, 100) == run(m, sigma, 100) for sigma in strings_up_to(m.input_alphabet, 2))


class TestDelayInject:
    def test_adds_exactly_d_steps(self, echo, eraser, marker):
        for m in (echo, eraser, marker):
            for d in (2, 4, 8):
                delayed = delay_inject(m, d)
                for sigma in ("", "a", "ab"):
                    base = run(m, sigma, 200)
                    slowed = run(delayed, sigma, 200 + d)
                    assert slowed.steps == base.steps + d
                    assert slowed.kind == base.kind
                    assert slowed.output == base.output

    def test_preserves_behavior(self, echo):
        assert equiv_bounded(echo, delay_inject(echo, 6), 3, 200).kind is EquivKind.AGREE

    def test_rejects_odd_or_small_amounts(self, echo):
        for d in (-2, 0, 1, 3):
            with pytest.raises(ValueError):
                delay_inject(echo, d)

    def test_excursion_stays_left_of_the_input(self, echo):
        # The added states walk into untouched blank cells, so the tape
        # content at halt is identical to the original's.
        delayed = delay_inject(echo, 4)
        assert run(delayed, "ab", 100).output == "ab"

    @given(canonical_machines(max_states=5, max_sigma=2, max_extras=1), st.sampled_from([2, 4, 6]))
    @settings(max_examples=40, deadline=None)
    def test_never_separates_from_the_original(self, m, d):
        verdict = equiv_bounded(m, delay_inject(m, d), 2, 150)
        assert verdict.kind is not EquivKind.DIFFER


class TestLeakyWrap:
    def test_trace_passes_through_the_leaked_string(self, echo):
        wrapped = leaky_wrap(echo, "bb")
        for sigma in ("", "a", "ab"):
            tapes = [render_tape(c, wrapped.blank) for c in trace(wrapped, sigma, 500)]
            assert any("bb" in t for t in tapes), sigma

    def test_leak_is_erased_before_the_run_ends(self, echo):
        wrapped = leaky_wrap(echo, "bb")
        outcome = run(wrapped, "ab", 500)
        assert outcome.kind is RunKind.HALTED_OUTPUT
        assert outcome.output == "ab"

    def test_preserves_behavior(self, echo, marker):
        for m in (echo, marker):
            assert equiv_bounded(m, leaky_wrap(m, "bb"), 3, 500).kind is EquivKind.AGREE

    def test_new_symbols_extend_the_tape_alphabet(self, echo):
        wrapped = leaky_wrap(echo, "xy")
        assert set("xy") <= set(wrapped.tape_alphabet)
        assert wrapped.input_alphabet == echo.input_alphabet

    def test_rejects_empty_string(self, echo):
        with pytest.raises(ValueError):
            leaky_wrap(echo, "")

    def test_rejects_blank_in_leak(self, echo):
        with pytest.raises(ValueError):
            leaky_wrap(echo, "b_b")

    @given(canonical_machines(max_states=4, max_sigma=2, max_extras=1), st.sampled_from(["b", "bb"]))
    @settings(max_examples=30, deadline=None)
    def test_never_separates_from_the_original(self, m, chi):
        verdict = equiv_bounded(m, leaky_wrap(m, chi), 2, 400)
        assert verdict.kind is not EquivKind.DIFFER


class TestCanonicalize:
    def test_identity_on_canonical_machines(self, echo):
        assert canonicalize(echo) == echo

    @given(canonical_machines())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, m):
        once = canonicalize(m)
        assert canonicalize(once) == once

    def test_renames_a_permuted_machine_onto_its_canonical_twin(self, echo):
        from traitbench.machine import MachineDescription

        # Same machine as echo but with shuffled state numbers and symbols.
        scrambled = MachineDescription(
            state_count=3,
            start_state=2,
            accept_state=0,
            reject_state=1,
            input_alphabet=("x", "y"),
            tape_alphabet=("x", "y", "#"),
            blank="#",
            transitions=(
                (2, "x", 0, "x", "R"),
                (2, "y", 0, "y", "R"),
                (2, "#", 0, "#", "R"),
            ),
        )
        assert canonicalize(scrambled) == echo

    def test_rejects_machine_whose_start_is_halting(self):
        from traitbench.machine import MachineDescription

        m = MachineDescription(
            state_count=3,
            start_state=1,
            accept_state=1,
            reject_state=2,
            input_alphabet=("a",),
            tape_alphabet=("a", "_"),
            blank="_",
            transitions=((0, "a", 1, "a", "R"), (0, "_", 1, "_", "R")),
        )
        with pytest.raises(ValueError):
            canonicalize(m)

    def test_transformed_fixtures_all_canonicalize(self):
        for m in all_fixtures().values():
            for variant in (pad(m, 2), delay_inject(m, 2), leaky_wrap(m, "b")):
                c = canonicalize(variant)
                assert encode(c) >= 0
                # Renaming never changes step-level behavior at all:
                for sigma in ("", "a"):
                    assert run(c, sigma, 300) == run(variant, sigma, 300)


class TestReceipts:
    def test_receipt_records_endpoints_as_canonical_indices(self, echo):
        padded = pad(echo, 1)
        receipt = receipt_for("pad", echo, padded, 1)
        assert receipt.kind == "pad"
        assert receipt.input_index == encode(echo)
        assert receipt.output_index == encode(canonicalize(padded))

    def test_receipt_json_is_deterministic_and_parseable(self, echo):
        receipt = receipt_for("delay", echo, delay_inject(echo, 2), 2)
        blob = receipt.as_json()
        assert blob == receipt.as_json()
        decoded = json.loads(blob)
        assert decoded["kind"] == "delay"
        assert list(decoded) == sorted(decoded)

    def test_receipt_rejects_a_no_op_transform(self, echo):
        with pytest.raises(ValueError):
            receipt_for("pad", echo, echo, 0)

    def test_round_trip_through_dataclass(self, echo):
        receipt = receipt_for("leak", echo, leaky_wrap(echo, "b"), "b")
        data = json.loads(receipt.as_json())
        assert TransformReceipt(**data) == receipt


def assert_built_by_the_constructor(variant):
    """variant is the machine MachineDescription(**fields) builds from its fields, down to storage and pickle."""
    built = MachineDescription(**{f.name: getattr(variant, f.name) for f in dataclasses.fields(variant)})
    names = [f.name for f in dataclasses.fields(variant)]
    assert [getattr(variant, name) for name in names] == [getattr(built, name) for name in names]
    assert [type(getattr(variant, name)) for name in names] == [type(getattr(built, name)) for name in names]
    assert variant == built and hash(variant) == hash(built)
    assert pickle.dumps(variant) == pickle.dumps(built)
    assert list(vars(variant).items()) == list(vars(built).items())


class TestConstruction:
    """Each rewrite builds its variant in one constructor call, which validates it once."""

    @given(canonical_machines(max_states=5, max_sigma=2, max_extras=1) | noncanonical_machines(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_variant_is_the_one_the_constructor_builds(self, m, data):
        # chi from the tape alphabet, from outside it, or from both.
        inside = [sym for sym in m.tape_alphabet if sym != m.blank]
        outside = [sym for sym in "xyzXYZ!?" if sym not in m.tape_alphabet]
        pool = data.draw(st.sampled_from([p for p in (inside, outside, inside + outside) if p]))
        chi = data.draw(st.text(st.sampled_from(pool), min_size=1, max_size=4))
        variants = [pad(m, k) for k in (1, 2, 3)] + [delay_inject(m, d) for d in (2, 4, 6)] + [leaky_wrap(m, chi)]
        for variant in variants:
            assert_built_by_the_constructor(variant)

    def test_every_variant_is_validated_once(self, echo, monkeypatch):
        checked = []
        validate = machine._validate

        def counted(m):
            checked.append(m)
            validate(m)

        monkeypatch.setattr(machine, "_validate", counted)
        for build in (lambda: pad(echo, 2), lambda: delay_inject(echo, 4), lambda: leaky_wrap(echo, "bX")):
            checked.clear()
            variant = build()
            assert len(checked) == 1 and checked[0] is variant


_ALL_FIELDS = attrgetter("kind", "steps", "space", "output", "reason", "lo")


def lead_in(kind, parameter, sigma):
    """The steps a rewrite runs before m starts, as variant_run's docstring counts them."""
    if kind == "pad":
        return 0
    return parameter if kind == "delay" else 2 * len(sigma) + 2 * len(parameter) + 4


def assert_variant_runs_read_off_the_members(m, chis, max_len, fuels) -> Counter:
    """variant_run against run on the built variant, two parameters of each rewrite; the derived cases, per kind.

    m's run under fuel is read as the variant's under fuel, as a probe reads
    it, and under fuel plus the lead-in, as measure --discriminate does.
    """
    derived: Counter = Counter()
    variants = [("pad", k, pad(m, k)) for k in (1, 2)] + [("delay", d, delay_inject(m, d)) for d in (2, 6)] + [("leak", chi, leaky_wrap(m, chi)) for chi in chis]
    for sigma in strings_up_to(m.input_alphabet, max_len):
        for fuel in fuels:
            ran = run(m, sigma, fuel)
            for kind, parameter, variant in variants:
                for variant_fuel in {fuel, fuel + lead_in(kind, parameter, sigma)}:
                    got = variant_run(kind, parameter, sigma, variant_fuel, ran)
                    if got is not None:
                        assert _ALL_FIELDS(got) == _ALL_FIELDS(run(variant, sigma, variant_fuel)), (kind, parameter, sigma, variant_fuel)
                        derived[kind] += 1
    return derived


class TestVariantRun:
    """A variant's run read off its member's is the run the variant makes."""

    @given(canonical_machines(max_states=5, max_sigma=2, max_extras=1) | noncanonical_machines(), st.data(), st.integers(24, 400))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_variants_own_run(self, m, data, far):
        # chi from the tape alphabet, from outside it, or from both. Fuels
        # 0 to 23 run from below each lead-in to past the longest, 12 steps.
        inside = [sym for sym in m.tape_alphabet if sym != m.blank]
        outside = [sym for sym in "xyzXYZ!?" if sym not in m.tape_alphabet]
        pool = data.draw(st.sampled_from([p for p in (inside, outside, inside + outside) if p]))
        chis = data.draw(st.lists(st.text(st.sampled_from(pool), min_size=1, max_size=3), min_size=2, max_size=2, unique=True))
        assert_variant_runs_read_off_the_members(m, chis, 1, (*range(24), far))

    def test_agrees_on_a_decoded_window(self):
        # One index from each of 300 equal strata of [0, 3 * 10**8), which
        # cross the shapes (5,1,0), (6,1,0) and (4,2,0), at the sweeps' fuels
        # and below them.
        rng = random.Random(2)
        width = 3 * 10**8 // 300
        derived: Counter = Counter()
        for index in (k * width + rng.randrange(width) for k in range(300)):
            m = decode(index)
            chis = (m.input_alphabet[0], m.input_alphabet[-1] + "X")
            derived += assert_variant_runs_read_off_the_members(m, chis, 2, (0, 3, 9, 14, 30, 100, 257))
        assert min(derived[kind] for kind in ("pad", "delay", "leak")) > 1000, derived

    def test_nothing_is_read_off_a_run_that_cannot_tell(self, echo, looper):
        # echo halts in 1 step; a delay of 6 needs fuel 7 and a leak of "ab" on "ab" 13.
        assert variant_run("delay", 6, "ab", 6, run(echo, "ab", 6)) is None
        assert variant_run("delay", 6, "ab", 7, run(echo, "ab", 7)) == run(delay_inject(echo, 6), "ab", 7)
        assert variant_run("leak", "ab", "ab", 12, run(echo, "ab", 12)) is None
        assert variant_run("leak", "ab", "ab", 13, run(echo, "ab", 13)) == run(leaky_wrap(echo, "ab"), "ab", 13)
        # A run out of fuel tells a variant's only under its fuel plus the lead-in.
        assert variant_run("delay", 2, "a", 50, run(looper, "a", 50)) is None
        assert variant_run("delay", 2, "a", 52, run(looper, "a", 50)) == run(delay_inject(looper, 2), "a", 52)
        assert variant_run("pad", 1, "a", 50, run(looper, "a", 50)) == run(pad(looper, 1), "a", 50)

    @pytest.mark.parametrize("kind", ["leaky", "padding", "", "Pad"])
    def test_an_unknown_kind_is_refused(self, echo, kind):
        # Read as pad, "leaky" would give echo's own 1-step run, where leaky_wrap(echo, "ab") takes 13.
        with pytest.raises(ValueError, match=f"^variant kind must be pad, delay or leak, got {kind!r}$"):
            variant_run(kind, "ab", "ab", 100, run(echo, "ab", 100))


class TestPinnedConstructions:
    def test_rewrites_of_the_fixtures_are_byte_identical(self):
        # Pins each rewrite's state numbering and wiring, which the
        # behavioural tests above cannot see: a renumbered pad or delay
        # computes the same function but changes this text.
        text = "".join(
            format_machine(variant)
            for m in all_fixtures().values()
            for variant in (
                pad(m, 1),
                pad(m, 3),
                delay_inject(m, 2),
                delay_inject(m, 6),
                leaky_wrap(m, "a"),
                leaky_wrap(m, "abba"),
                leaky_wrap(m, "bXb"),
            )
        )
        assert len(text) == 15112
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "045fd62a76fd1da596669443c4160e9d109bc87fbd1ce18a8b3b65139bd0a090"
