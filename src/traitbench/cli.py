"""Command-line surface: one subcommand per workbench operation.

Exit codes: 0 on success, 1 on domain errors (unreadable files, bad machine
text, violated preconditions), 2 on usage errors (argparse's own exit).
Reports go to --out as CSV or JSON lines with a config header; without
--out, results are printed in a compact human form.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .containment import containment_check, load_policy
from .enumeration import decode, encode, index_set_bounded, pair, unpair
from .machine import (
    MachineDescription,
    MachineError,
    equiv_bounded,
    format_machine,
    parse_machine,
    render_tape,
    run,
    strings_up_to,
    trace,
)
from .measures import (
    MEASURES,
    check_blum_axioms,
    discriminating_witness,
    parse_bound,
    usage_within_bound,
)
from .reporting import write_report
from .traits import (
    Bounds,
    build_halting_oracle,
    eval_trait,
    finite_patch_decider,
    halting_decider_from_oracle,
    parse_trait,
    sem_syn_partition,
)
from .transforms import canonicalize, delay_inject, leaky_wrap, pad, receipt_for


def _load_machine(path: str) -> MachineDescription:
    return parse_machine(Path(path).read_text("utf-8"))


def _report_config(args: argparse.Namespace) -> dict:
    skip = {"func", "out", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _emit(args: argparse.Namespace, rows, columns) -> None:
    if args.out:
        write_report(args.out, rows, columns, args.format, _report_config(args))
    else:
        for row in rows:
            print(" ".join(f"{col}={row.get(col, '')}" for col in columns))


def _outcome_row(outcome) -> dict:
    return {
        "kind": outcome.kind.value,
        "output": outcome.output or "",
        "reason": outcome.reason.value if outcome.reason else "",
        "steps": outcome.steps,
        "space": outcome.space,
    }


def cmd_run(args) -> int:
    outcome = run(_load_machine(args.machine), args.input, args.fuel)
    _emit(args, [_outcome_row(outcome)], ["kind", "output", "reason", "steps", "space"])
    return 0


def cmd_trace(args) -> int:
    m = _load_machine(args.machine)
    rows = [
        {"step": i, "state": c.state, "head": c.head, "tape": render_tape(c, m.blank)}
        for i, c in enumerate(trace(m, args.input, args.fuel))
    ]
    _emit(args, rows, ["step", "state", "head", "tape"])
    return 0


def cmd_equiv(args) -> int:
    verdict = equiv_bounded(_load_machine(args.machine), _load_machine(args.other), args.max_len, args.fuel)
    _emit(args, [{"verdict": verdict.kind.value, "witness": verdict.witness or ""}], ["verdict", "witness"])
    return 0


def cmd_enumerate(args) -> int:
    if args.pair is not None:
        a, b = args.pair
        print(pair(a, b))
        return 0
    if args.unpair is not None:
        a, b = unpair(args.unpair)
        print(f"{a} {b}")
        return 0
    if args.reference is not None:
        # --max counts indices; the library bound is the last index, inclusive.
        result = index_set_bounded(_load_machine(args.reference), args.max - 1, args.max_len, args.fuel)
        _emit(args, result.rows(), ["index", "verdict", "witness"])
        if args.out:
            print(f"agree={len(result.agree)} inconclusive={len(result.inconclusive)} differ={len(result.differ)}")
        return 0
    if args.show is not None:
        print(format_machine(decode(args.show)), end="")
        return 0
    indices = range(args.max)
    for n in indices:
        decode(n)
    if args.out:
        rows = [{"index": n, "verdict": "valid", "witness": ""} for n in indices]
        write_report(args.out, rows, ["index", "verdict", "witness"], args.format, _report_config(args))
    print(f"{len(indices)} machines valid")
    return 0


def _write_transformed(args, kind: str, original: MachineDescription, transformed: MachineDescription, parameter) -> int:
    Path(args.out).write_text(format_machine(transformed), "utf-8")
    if args.receipts:
        receipt = receipt_for(kind, original, transformed, parameter)
        Path(args.receipts).write_text(receipt.as_json() + "\n", "utf-8")
    print(f"{kind}: {original.state_count} -> {transformed.state_count} states, written to {args.out}")
    return 0


def cmd_pad(args) -> int:
    m = _load_machine(args.machine)
    return _write_transformed(args, "pad", m, pad(m, args.k), args.k)


def cmd_delay(args) -> int:
    m = _load_machine(args.machine)
    return _write_transformed(args, "delay", m, delay_inject(m, args.d), args.d)


def cmd_leak(args) -> int:
    m = _load_machine(args.machine)
    return _write_transformed(args, "leak", m, leaky_wrap(m, args.chi), args.chi)


def cmd_canon(args) -> int:
    m = _load_machine(args.machine)
    canonical = canonicalize(m)
    Path(args.out).write_text(format_machine(canonical), "utf-8")
    print(f"canonicalize: index {encode(canonical)}, written to {args.out}")
    return 0


def cmd_measure(args) -> int:
    m = _load_machine(args.machine)
    measure = MEASURES[args.measure]()
    if args.discriminate:
        witness = discriminating_witness(measure, m, args.trials, args.max_len, args.fuel)
        rows = witness.rows(measure.name)
        _emit(args, rows, ["machine_index", "input", "measure", "value", "verdict"])
        print(f"witness: delay={witness.delay}")
        return 0
    if args.xi is not None:
        verdict = usage_within_bound(m, measure, parse_bound(args.xi), args.max_len, args.fuel)
        rows = [
            {
                "machine_index": "",
                "input": sigma,
                "measure": measure.name,
                "value": "" if value is None else value,
                "verdict": verdict.kind.value if sigma == verdict.witness else "",
            }
            for sigma, value in verdict.evidence
        ]
        if args.out:
            write_report(args.out, rows, ["machine_index", "input", "measure", "value", "verdict"], args.format, _report_config(args))
        print(verdict.kind.value + (f" witness={verdict.witness}" if verdict.witness else ""))
        return 0
    if args.graph is not None:
        print(measure.graph_decide(m, args.input, args.graph))
        return 0
    value = measure.evaluate(m, args.input, args.fuel)
    print("undefined" if value is None else value)
    return 0


def cmd_blum_check(args) -> int:
    machines = {n: decode(n) for n in range(args.max_index)}
    measure = MEASURES[args.measure]()
    report = check_blum_axioms(
        measure,
        machines,
        lambda m: strings_up_to(m.input_alphabet, args.max_len),
        args.fuel,
    )
    _emit(args, report.rows(), ["machine_index", "input", "measure", "value", "verdict"])
    print(f"checked={report.pairs_checked} violations={len(report.violations)}")
    return 0


def cmd_trait(args) -> int:
    expr = parse_trait(args.name)
    verdict = eval_trait(expr, _load_machine(args.machine), Bounds(args.max_len, args.fuel))
    print(verdict.value)
    return 0


def cmd_partition(args) -> int:
    expr = parse_trait(args.name)
    partition = sem_syn_partition(expr, range(args.max_index), args.probes, Bounds(args.max_len, args.fuel))
    _emit(args, partition.rows(), ["index", "verdict", "part", "witness_kind"])
    print(f"sem={len(partition.sem)} syn={len(partition.syn)} unknown={len(partition.unknown)}")
    return 0


def _parse_int_set(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    return frozenset(int(piece) for piece in text.split(","))


def cmd_patch_decider(args) -> int:
    l1 = _parse_int_set(args.l1)
    l2 = _parse_int_set(args.l2)
    union = l1 | l2
    decider = finite_patch_decider(lambda x: x in union, l2, l1 & l2)
    rows = []
    mismatches = 0
    for x in range(args.universe_max):
        decided = decider(x)
        expected = x in l1
        mismatches += decided != expected
        rows.append({"element": x, "decided": decided, "expected": expected})
    _emit(args, rows, ["element", "decided", "expected"])
    print(f"mismatches={mismatches}")
    return 0


def cmd_prop_wiring(args) -> int:
    oracle = build_halting_oracle(args.max_index, args.max_len, args.fuel)
    decider = halting_decider_from_oracle(oracle)
    rows = []
    agree = 0
    for (index, sigma) in sorted(oracle.certified):
        wired = decider(index, sigma)
        truth = oracle.table[(index, sigma)]
        agree += wired == truth
        rows.append({"machine_index": index, "input": sigma, "measure": "halts", "value": truth, "verdict": "agree" if wired == truth else "disagree"})
    _emit(args, rows, ["machine_index", "input", "measure", "value", "verdict"])
    print(f"certified={len(oracle.certified)} agree={agree}")
    return 0


def cmd_contain(args) -> int:
    m = _load_machine(args.machine)
    policy = load_policy(args.policy)
    if args.inputs is not None:
        inputs = [s for s in args.inputs.split(",")] if args.inputs else [""]
    else:
        inputs = list(strings_up_to(m.input_alphabet, args.max_len))
    report = containment_check(m, policy, inputs, args.fuel)
    _emit(args, report.rows(), ["input", "condition", "step", "detail"])
    print(
        f"{report.verdict.value} trace_violations={len(report.trace_violations)} "
        f"output_violations={len(report.output_violations)}"
    )
    return 0


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write a report file instead of printing rows")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="report file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="traitbench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"traitbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a machine on one input under a fuel bound")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", default="")
    p.add_argument("--fuel", type=int, default=1000)
    _add_report_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="print every configuration of a bounded run")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", default="")
    p.add_argument("--fuel", type=int, default=1000)
    _add_report_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("equiv", help="compare two machines on all inputs up to a length")
    p.add_argument("--machine", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--fuel", type=int, default=1000)
    _add_report_flags(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("enumerate", help="decode, validate, or sweep the machine index space")
    p.add_argument("--max", type=int, default=1000, help="number of indices to cover")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--validate", action="store_true", help="decode and validate indices 0..max-1 (the default)")
    mode.add_argument("--show", type=int, help="print the machine at one index")
    mode.add_argument("--reference", help="machine file; partition indices 0..max-1 by bounded equivalence with it")
    mode.add_argument("--pair", type=int, nargs=2, metavar=("A", "B"), help="print the pairing of two naturals")
    mode.add_argument("--unpair", type=int, help="print the two naturals a code pairs")
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--fuel", type=int, default=100)
    _add_report_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("pad", help="append unreachable states to a machine")
    p.add_argument("--machine", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="file to write the padded machine to")
    p.add_argument("--receipts", help="file to write a JSON receipt to")
    p.set_defaults(func=cmd_pad)

    p = sub.add_parser("delay", help="slow a machine down by exactly d steps per run")
    p.add_argument("--machine", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True, help="file to write the delayed machine to")
    p.add_argument("--receipts", help="file to write a JSON receipt to")
    p.set_defaults(func=cmd_delay)

    p = sub.add_parser("leak", help="wrap a machine so its trace briefly contains a string")
    p.add_argument("--machine", required=True)
    p.add_argument("--chi", required=True, help="the string the trace must pass through")
    p.add_argument("--out", required=True, help="file to write the wrapped machine to")
    p.add_argument("--receipts", help="file to write a JSON receipt to")
    p.set_defaults(func=cmd_leak)

    p = sub.add_parser("canonicalize", help="rename a machine into indexable normal form")
    p.add_argument("--machine", required=True)
    p.add_argument("--out", required=True, help="file to write the canonical machine to")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("measure", help="evaluate a resource measure, its graph, bounds, or witnesses")
    p.add_argument("--machine", required=True)
    p.add_argument("--measure", choices=sorted(MEASURES), default="time")
    p.add_argument("--input", default="")
    p.add_argument("--fuel", type=int, default=1000)
    p.add_argument("--graph", type=int, help="decide whether the cost on --input is exactly this")
    p.add_argument("--xi", help="bound expression; check all inputs up to --max-len against it")
    p.add_argument("--discriminate", action="store_true", help="search for a costlier function-equal machine")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--max-len", type=int, default=3)
    _add_report_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("blum-check", help="sweep decoded machines for measure axiom violations")
    p.add_argument("--measure", choices=sorted(MEASURES), default="time")
    p.add_argument("--max-index", type=int, default=200)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--fuel", type=int, default=500)
    _add_report_flags(p)
    p.set_defaults(func=cmd_blum_check)

    p = sub.add_parser("trait", help="evaluate a trait expression on a machine")
    p.add_argument("--name", required=True, help="e.g. states:3 or and(states:3,total-nonempty:2:50)")
    p.add_argument("--machine", required=True)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--fuel", type=int, default=100)
    p.set_defaults(func=cmd_trait)

    p = sub.add_parser("partition", help="split a trait's members by semanticity probing")
    p.add_argument("--name", required=True)
    p.add_argument("--max-index", type=int, default=200)
    p.add_argument("--probes", type=int, default=3)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--fuel", type=int, default=100)
    _add_report_flags(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("patch-decider", help="decide a set from a decider for its union with a finite set")
    p.add_argument("--l1", required=True, help="comma-separated naturals forming the target set")
    p.add_argument("--l2", required=True, help="comma-separated naturals forming the finite patch")
    p.add_argument("--universe-max", type=int, default=10)
    _add_report_flags(p)
    p.set_defaults(func=cmd_patch_decider)

    p = sub.add_parser("prop3", help="wire a state-count-aware halting oracle into a halting decider")
    p.add_argument("--max-index", type=int, default=144)
    p.add_argument("--max-len", type=int, default=1)
    p.add_argument("--fuel", type=int, default=200)
    _add_report_flags(p)
    p.set_defaults(func=cmd_prop_wiring)

    p = sub.add_parser("contain", help="check a machine against a containment policy")
    p.add_argument("--machine", required=True)
    p.add_argument("--policy", required=True, help="JSON file with classified strings")
    p.add_argument("--inputs", help="comma-separated inputs; defaults to all up to --max-len")
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--fuel", type=int, default=500)
    _add_report_flags(p)
    p.set_defaults(func=cmd_contain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MachineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
