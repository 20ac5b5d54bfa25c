"""One benchmark pass: build a workload's inputs from a seed, run them through
the traitbench API, and verify every output.

    python3 perfbench/workloads.py --workload blum-sweep --seed 0 [--spans FILE] [--tiny]

Run it from the repository root; it imports traitbench from `src/`. It prints
one JSON object: units attempted and failed, the report digest, and the
`time.monotonic()` reading when set-up ended (the parent process measures
`setup_s` from it). With `--spans` the pass is traced (see tracing.py) and the
object also carries per-layer calls, self times and counters.

Each workload's work is fixed; the seed only chooses which machines, inputs
and strings it is done on. Index windows are stratified: one index from each
of `count` equal strata of [0, 10**7), so two seeds place different windows
whose mix of machine shapes, and hence whose work, is nearly the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
INDEX_RANGE = 10**7


def sample_indices(workload: str, seed: int, count: int) -> list[int]:
    """One index from each of `count` equal strata of [0, INDEX_RANGE)."""
    rng = random.Random(f"{workload}:{seed}")
    width = INDEX_RANGE // count
    return [k * width + rng.randrange(width) for k in range(count)]


def report_config(name: str, seed: int, sizes: dict) -> dict:
    return {"workload": name, "seed": seed, **sizes}


class BlumSweep:
    """check_blum_axioms for time, then space, over a seeded index window.

    Unit: one (machine, input, measure) triple. A triple fails when the
    checker reports a violation on it; a measure whose pairs_checked differs
    from the pair count the window implies fails all of its triples.
    """

    name = "blum-sweep"
    sizes = {"indices": 2000, "max_len": 2, "fuel": 500, "time_measure": "time"}
    tiny = {"indices": 40, "max_len": 2, "fuel": 60, "time_measure": "time"}

    def __init__(self, tb, seed: int, sizes: dict):
        self.tb, self.seed, self.sizes = tb, seed, sizes
        self.machines = {n: tb.decode(n) for n in sample_indices(self.name, seed, sizes["indices"])}
        # "broken" swaps in a measure that violates axiom 1, so that a check
        # which passed vacuously would show.
        time_measure = tb.broken_step_counter if sizes["time_measure"] == "broken" else tb.time_measure
        self.measures = [time_measure(), tb.space_measure()]
        self.pairs = sum(len(list(tb.strings_up_to(m.input_alphabet, sizes["max_len"]))) for m in self.machines.values())

    def inputs_for(self, m):
        return self.tb.strings_up_to(m.input_alphabet, self.sizes["max_len"])

    def work(self) -> str:
        self.reports = [
            self.tb.check_blum_axioms(measure, self.machines, self.inputs_for, self.sizes["fuel"])
            for measure in self.measures
        ]
        rows = []
        for report in self.reports:
            rows.extend(report.rows())
            rows.append({"measure": report.measure, "value": report.pairs_checked, "verdict": "pairs-checked"})
        columns = ["machine_index", "input", "measure", "value", "verdict"]
        return self.tb.reporting.render_report(rows, columns, "csv", report_config(self.name, self.seed, self.sizes))

    def verify(self) -> tuple[int, int]:
        failed = 0
        for report in self.reports:
            if report.pairs_checked != self.pairs:
                failed += self.pairs
            else:
                failed += len({(v.machine_index, v.input) for v in report.violations})
        return 2 * self.pairs, failed


class TraitPartition:
    """sem_syn_partition of a two-leaf trait over a seeded index window.

    Unit: one index of the window. The partition must list the window in
    order, keep sem empty (the expression is not a semantic-by-construction
    leaf), and give every syn index a witness kind. For the first few syn
    indices the witness is rebuilt and must be function-preserving: bounded
    equivalence with the original may not find a differing input.
    """

    name = "trait-partition"
    sizes = {"indices": 4000, "probes": 3, "max_len": 2, "fuel": 100, "expression": "and(time-within:n+5,total-nonempty)"}
    tiny = {"indices": 60, "probes": 3, "max_len": 2, "fuel": 40, "expression": "and(time-within:n+5,total-nonempty)"}
    spot_checks = 3

    def __init__(self, tb, seed: int, sizes: dict):
        self.tb, self.seed, self.sizes = tb, seed, sizes
        self.expr = tb.parse_trait(sizes["expression"])
        self.universe = sample_indices(self.name, seed, sizes["indices"])
        self.bounds = tb.Bounds(sizes["max_len"], sizes["fuel"])

    def work(self) -> str:
        self.partition = self.tb.sem_syn_partition(self.expr, self.universe, self.sizes["probes"], self.bounds)
        columns = ["index", "verdict", "part", "witness_kind"]
        return self.tb.reporting.render_report(self.partition.rows(), columns, "csv", report_config(self.name, self.seed, self.sizes))

    def verify(self) -> tuple[int, int]:
        tb, p = self.tb, self.partition
        if [row["index"] for row in p.rows()] != self.universe or p.sem:
            return len(self.universe), len(self.universe)
        bad = set(p.syn) & set(p.unknown)
        bad |= set(p.syn) ^ set(p.witness_kinds)
        bad |= {n for n, kind in p.witness_kinds.items() if kind not in ("pad", "delay", "leak")}
        for n in p.syn[: self.spot_checks]:
            m = tb.decode(n)
            probe = tb.probe_semanticity(self.expr, m, self.sizes["probes"], self.bounds)
            same = tb.equiv_bounded(m, probe.witness, self.sizes["max_len"], 4 * self.sizes["fuel"])
            if probe.witness_kind != p.witness_kinds[n] or same.kind is tb.EquivKind.DIFFER:
                bad.add(n)
        return len(self.universe), len(bad)


RUNAWAY_WRITER = """\
states: 3
start: 0   accept: 1   reject: 2
input_alphabet: ab
tape_alphabet: ab_
delta: 0 a -> 0 a R
delta: 0 b -> 0 a R
delta: 0 _ -> 0 a R
"""


class ContainTrace:
    """containment_check on a runaway writer and on a leak-wrapped echo machine.

    Unit: one (machine, input) pair. The writer only ever writes 'a' and never
    halts, so on each of its inputs the run must be unresolved with no
    violation. The leaky machine must, on every input up to max_len, show
    the classified string in its trace no later than the step where the
    wrapper has written it completely, and never in its output.
    """

    name = "contain-trace"
    sizes = {"fuel": 2000, "writer_inputs": "ab,ba", "chi_len": 300, "max_len": 2}
    tiny = {"fuel": 80, "writer_inputs": "ab,ba", "chi_len": 12, "max_len": 2}

    def __init__(self, tb, seed: int, sizes: dict):
        self.tb, self.seed, self.sizes = tb, seed, sizes
        rng = random.Random(f"{self.name}:{seed}")
        # A leading 'b' keeps chi out of the writer's all-'a' tape.
        self.chi = "b" + "".join(rng.choice("ab") for _ in range(sizes["chi_len"] - 1))
        self.policy = tb.policy_from_dict({"classified": [self.chi]})
        self.writer = tb.parse_machine(RUNAWAY_WRITER)
        self.writer_inputs = sizes["writer_inputs"].split(",")
        self.leaky = tb.leaky_wrap(tb.echo(), self.chi)
        self.leaky_inputs = list(tb.strings_up_to(self.leaky.input_alphabet, sizes["max_len"]))

    def work(self) -> str:
        tb = self.tb
        self.writer_report = tb.containment_check(self.writer, self.policy, self.writer_inputs, self.sizes["fuel"])
        self.leaky_report = tb.containment_check(self.leaky, self.policy, self.leaky_inputs, self.sizes["fuel"])
        rows = [
            {"machine": machine, **row}
            for machine, report in (("writer", self.writer_report), ("leaky", self.leaky_report))
            for row in report.rows()
        ]
        config = report_config(self.name, self.seed, self.sizes)
        return tb.reporting.render_report(rows, ["machine", "input", "condition", "step", "detail"], "csv", config)

    def verify(self) -> tuple[int, int]:
        failed = 0
        writer, leaky = self.writer_report, self.leaky_report
        for sigma in self.writer_inputs:
            ok = (
                writer.verdict is self.tb.ContainmentVerdict.INCONCLUSIVE
                and sigma in writer.unresolved_inputs
                and not any(v.input == sigma for v in writer.trace_violations + writer.output_violations)
            )
            failed += not ok
        for sigma in self.leaky_inputs:
            steps = [v.step for v in leaky.trace_violations if v.input == sigma and v.classified == self.chi]
            ok = (
                len(steps) == 1
                and steps[0] <= 1 + len(sigma) + len(self.chi)
                and sigma not in leaky.unresolved_inputs
                and not any(v.input == sigma for v in leaky.output_violations)
            )
            failed += not ok
        return len(self.writer_inputs) + len(self.leaky_inputs), failed


class IndexRoundtrip:
    """decode then encode over a seeded index window, then one report row per index.

    Unit: one index; it fails unless encode(decode(n)) == n.
    """

    name = "index-roundtrip"
    sizes = {"indices": 60000}
    tiny = {"indices": 500}

    def __init__(self, tb, seed: int, sizes: dict):
        self.tb, self.seed, self.sizes = tb, seed, sizes
        self.indices = sample_indices(self.name, seed, sizes["indices"])

    def work(self) -> str:
        decode, encode = self.tb.decode, self.tb.encode
        rows = []
        for n in self.indices:
            m = decode(n)
            rows.append({"index": n, "states": m.state_count, "symbols": len(m.tape_alphabet), "encoded": encode(m)})
        self.rows = rows
        config = report_config(self.name, self.seed, self.sizes)
        return self.tb.reporting.render_report(rows, ["index", "states", "symbols", "encoded"], "csv", config)

    def verify(self) -> tuple[int, int]:
        return len(self.rows), sum(row["encoded"] != row["index"] for row in self.rows)


WORKLOADS = {w.name: w for w in (BlumSweep, TraitPartition, ContainTrace, IndexRoundtrip)}


def run_pass(workload: str, seed: int, tiny: bool, broken: bool, spans: str | None) -> dict:
    """Set up, work and verify once; return the result object the parent reads."""
    tracer = Tracer(f"{workload}:{seed}") if spans else NullTracer()
    kind = WORKLOADS[workload]
    sizes = dict(kind.tiny if tiny else kind.sizes)
    if broken:
        sizes["time_measure"] = "broken"
    with tracer.phase("setup"):
        import traitbench
        import traitbench.reporting

        if spans:
            tracer.install()
        instance = kind(traitbench, seed, sizes)
    setup_done = time.monotonic()
    with tracer.phase("work"):
        report = instance.work()
    with tracer.phase("verify"):
        attempted, failed = instance.verify()
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        if seed == DEFAULT_SEED and not tiny and not broken:
            pinned = json.loads(DIGESTS.read_text("utf-8"))["reports"].get(workload)
            if digest != pinned:
                failed = attempted
    result = {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
              "digest": digest, "setup_done": setup_done}
    if spans:
        result.update(tracer.finish(spans))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--spans", help="trace the pass and write its spans to this file")
    parser.add_argument("--tiny", action="store_true", help="use the self-test sizes")
    parser.add_argument("--broken-time-measure", action="store_true",
                        help="blum-sweep only: use broken_step_counter() in place of the time measure")
    args = parser.parse_args(argv)
    if args.broken_time_measure and args.workload != BlumSweep.name:
        parser.error("--broken-time-measure applies to blum-sweep only")
    if not (ROOT / "src" / "traitbench" / "__init__.py").is_file():
        print(f"perfbench: no traitbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_pass(args.workload, args.seed, args.tiny, args.broken_time_measure, args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
