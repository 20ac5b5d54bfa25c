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
from typing import Iterator, Mapping

from . import __version__, machine
from .containment import containment_check, load_policy
from .enumeration import decode, encode, index_set_bounded, pair, unpair
from .machine import (
    MachineDescription,
    MachineError,
    _natural,
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
    WitnessSearchError,
    check_blum_axioms,
    discriminating_witness,
    parse_bound,
    usage_within_bound,
)
from .reporting import FORMATS, write_report
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


def _write(args: argparse.Namespace, rows, columns) -> None:
    write_report(args.out, rows, columns, args.format or "csv", _report_config(args))


def _emit(args: argparse.Namespace, rows, columns) -> None:
    if args.out:
        _write(args, rows, columns)
    else:
        for row in rows:
            # None prints nothing, as it writes an empty CSV cell.
            print(" ".join(f"{col}={'' if row.get(col) is None else row[col]}" for col in columns))


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
    # Rendered as they are written, so the listing or report holds one chunk of tapes at a time.
    rows = (
        {"step": i, "state": c.state, "head": c.head, "tape": render_tape(c, m.blank)}
        for i, c in enumerate(trace(m, args.input, args.fuel))
    )
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
        # decode does not validate what it assembles. _validate is read from
        # its module here, as _run_table reads run, so a rebound one is seen.
        machine._validate(decode(n))
    if args.out:
        _write(args, ({"index": n, "verdict": "valid"} for n in indices), ["index", "verdict"])
    print(f"{len(indices)} machines valid")
    return 0


def cmd_rewrite(args) -> int:
    rewrite, flag = _REWRITES[args.command][:2]
    m, parameter = _load_machine(args.machine), getattr(args, flag)
    transformed = rewrite(m, parameter)
    # Both texts come first, so a machine or receipt that cannot be made leaves no file behind.
    text = format_machine(transformed)
    receipt = receipt_for(args.command, m, transformed, parameter) if args.receipts else None
    Path(args.out).write_text(text, "utf-8")
    if receipt is not None:
        Path(args.receipts).write_text(receipt.as_json() + "\n", "utf-8")
    print(f"{args.command}: {m.state_count} -> {transformed.state_count} states, written to {args.out}")
    return 0


def cmd_canon(args) -> int:
    m = _load_machine(args.machine)
    canonical = canonicalize(m)
    text, index = format_machine(canonical), encode(canonical)
    Path(args.out).write_text(text, "utf-8")
    print(f"canonicalize: index {index}, written to {args.out}")
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
            _write(args, rows, ["machine_index", "input", "measure", "value", "verdict"])
        print(verdict.kind.value + (f" witness={verdict.witness}" if verdict.witness else ""))
        return 0
    if args.graph is not None:
        print(measure.graph_decide(m, args.input, args.graph))
        return 0
    value = measure.evaluate(run(m, args.input, args.fuel))
    print("undefined" if value is None else value)
    return 0


class _Decoded(Mapping[int, MachineDescription]):
    """The machines of indices 0..count-1, each decoded when read, so a sweep holds one at a time."""

    def __init__(self, count: int):
        self.indices = range(count)

    def __getitem__(self, n: int) -> MachineDescription:
        if n not in self.indices:
            raise KeyError(n)
        return decode(n)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def cmd_blum_check(args) -> int:
    measure = MEASURES[args.measure]()
    report = check_blum_axioms(
        measure,
        _Decoded(args.max_index),
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
    _emit(args, partition.rows(), ["index", "verdict", "part", "witness_kind", "witness_parameter"])
    print(f"sem={len(partition.sem)} syn={len(partition.syn)} unknown={len(partition.unknown)}")
    return 0


def _parse_int_set(text: str) -> frozenset[int]:
    return frozenset(map(_natural, text.split(","))) if text.strip() else frozenset()


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


def _count(text: str) -> int:
    """argparse type of the count flags: anything but ASCII decimal digits is a usage error."""
    try:
        return _natural(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cost(text: str) -> int:
    """argparse type of --graph: a count, with an optional leading '-'; no run has a negative cost."""
    return -_count(text[1:]) if text.startswith("-") else _count(text)


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write a report file instead of printing rows")
    p.add_argument("--format", choices=FORMATS, help="report file format (default csv)")


# Per command with modes: the defaults of the flags that only some modes read,
# then each mode with those of the flags it reads and whether it writes a
# report (reads --out and --format). A mode flag chooses the mode it names; the
# last mode is the default. The parser leaves those flags None when omitted, so
# that main can refuse one given to a mode that ignores it, then fills in the
# defaults of the ones the mode reads.
_MODES = {
    "enumerate": ({"max": 1000, "max_len": 2, "fuel": 100}, {
        "show": ((), False),
        "reference": (("max", "max_len", "fuel"), True),
        "pair": ((), False),
        "unpair": ((), False),
        "validate": (("max",), True),
    }),
    "measure": ({"input": "", "fuel": 1000, "trials": 5, "max_len": 3}, {
        "graph": (("input",), False),
        "xi": (("fuel", "max_len"), True),
        "discriminate": (("fuel", "trials", "max_len"), True),
        "evaluate": (("input", "fuel"), False),
    }),
    "contain": ({"max_len": 2}, {
        "inputs": ((), True),
        "sweep": (("max_len",), True),
    }),
}


def _mode(args: argparse.Namespace) -> str:
    """The chosen mode of a command with modes: the mode flag given, else the default mode."""
    *flagged, default = _MODES[args.command][1]
    # An omitted flag is None, or False for a switch; a given one may be 0 or "".
    return next((mode for mode in flagged if getattr(args, mode) is not None and getattr(args, mode) is not False), default)


def _check_mode_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse flags that the chosen mode does not read, then fill in the defaults of those it reads.

    A flag the mode does not read stays None, so the report header, which
    records the configuration, leaves it out.
    """
    if args.command not in _MODES:
        return
    defaults, modes = _MODES[args.command]
    mode = _mode(args)
    reads, writes_report = modes[mode]
    if not writes_report and (args.out is not None or args.format is not None):
        parser.error(f"{args.command}: this mode prints its answer and writes no report, so --out and --format do not apply")
    unread = ["--" + flag.replace("_", "-") for flag in defaults if flag not in reads and getattr(args, flag) is not None]
    if unread:
        parser.error(f"{args.command}: the {mode} mode does not read {', '.join(unread)}")
    for flag in reads:
        if getattr(args, flag) is None:
            setattr(args, flag, defaults[flag])


# Per rewrite command: the rewrite, its parameter flag, flag type and help, command help, and what --out holds.
_REWRITES = {
    "pad": (pad, "k", _count, None, "append unreachable states to a machine", "padded"),
    "delay": (delay_inject, "d", _count, None, "slow a machine down by exactly d steps per run", "delayed"),
    "leak": (leaky_wrap, "chi", None, "the string the trace must pass through", "wrap a machine so its trace briefly contains a string", "wrapped"),
}


def _default(command: str, flag: str) -> str:
    return f"(default {_MODES[command][0][flag]!r})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="traitbench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"traitbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a machine on one input under a fuel bound")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", default="")
    p.add_argument("--fuel", type=_count, default=1000)
    _add_report_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="print every configuration of a bounded run")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", default="")
    p.add_argument("--fuel", type=_count, default=1000)
    _add_report_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("equiv", help="compare two machines on all inputs up to a length")
    p.add_argument("--machine", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--max-len", type=_count, default=3)
    p.add_argument("--fuel", type=_count, default=1000)
    _add_report_flags(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("enumerate", help="decode, validate, or sweep the machine index space")
    p.add_argument("--max", type=_count, help=f"number of indices to cover {_default('enumerate', 'max')}")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--validate", action="store_true", help="decode and validate indices 0..max-1 (the default)")
    mode.add_argument("--show", type=_count, help="print the machine at one index")
    mode.add_argument("--reference", help="machine file; partition indices 0..max-1 by bounded equivalence with it")
    mode.add_argument("--pair", type=_count, nargs=2, metavar=("A", "B"), help="print the pairing of two naturals")
    mode.add_argument("--unpair", type=_count, help="print the two naturals a code pairs")
    p.add_argument("--max-len", type=_count, help=f"longest input compared, with --reference {_default('enumerate', 'max_len')}")
    p.add_argument("--fuel", type=_count, help=f"steps per run, with --reference {_default('enumerate', 'fuel')}")
    _add_report_flags(p)
    p.set_defaults(func=cmd_enumerate)

    for command, (_, flag, flag_type, flag_help, command_help, made) in _REWRITES.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--machine", required=True)
        p.add_argument(f"--{flag}", type=flag_type, required=True, help=flag_help)
        p.add_argument("--out", required=True, help=f"file to write the {made} machine to")
        p.add_argument("--receipts", help="file to write a JSON receipt to")
        p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("canonicalize", help="rename a machine into indexable normal form")
    p.add_argument("--machine", required=True)
    p.add_argument("--out", required=True, help="file to write the canonical machine to")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("measure", help="evaluate a resource measure, its graph, bounds, or witnesses")
    p.add_argument("--machine", required=True)
    p.add_argument("--measure", choices=sorted(MEASURES), default="time")
    p.add_argument("--input", help=f"the input, without --xi and --discriminate {_default('measure', 'input')}")
    p.add_argument("--fuel", type=_count, help=f"steps per run, without --graph {_default('measure', 'fuel')}")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--graph", type=_cost, help="decide whether the cost on --input is exactly this")
    mode.add_argument("--xi", help="bound expression; check all inputs up to --max-len against it")
    mode.add_argument("--discriminate", action="store_true", help="search for a costlier function-equal machine")
    p.add_argument("--trials", type=_count, help=f"delays tried, with --discriminate {_default('measure', 'trials')}")
    p.add_argument("--max-len", type=_count, help=f"longest input, with --xi or --discriminate {_default('measure', 'max_len')}")
    _add_report_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("blum-check", help="sweep decoded machines for measure axiom violations")
    p.add_argument("--measure", choices=sorted(MEASURES), default="time")
    p.add_argument("--max-index", type=_count, default=200)
    p.add_argument("--max-len", type=_count, default=2)
    p.add_argument("--fuel", type=_count, default=500)
    _add_report_flags(p)
    p.set_defaults(func=cmd_blum_check)

    p = sub.add_parser("trait", help="evaluate a trait expression on a machine")
    p.add_argument("--name", required=True, help="e.g. states:3 or and(states:3,total-nonempty:2:50)")
    p.add_argument("--machine", required=True)
    p.add_argument("--max-len", type=_count, default=2)
    p.add_argument("--fuel", type=_count, default=100)
    p.set_defaults(func=cmd_trait)

    p = sub.add_parser("partition", help="split a trait's members by semanticity probing")
    p.add_argument("--name", required=True)
    p.add_argument("--max-index", type=_count, default=200)
    p.add_argument("--probes", type=_count, default=3)
    p.add_argument("--max-len", type=_count, default=2)
    p.add_argument("--fuel", type=_count, default=100)
    _add_report_flags(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("patch-decider", help="decide a set from a decider for its union with a finite set")
    p.add_argument("--l1", required=True, help="comma-separated naturals forming the target set")
    p.add_argument("--l2", required=True, help="comma-separated naturals forming the finite patch")
    p.add_argument("--universe-max", type=_count, default=10)
    _add_report_flags(p)
    p.set_defaults(func=cmd_patch_decider)

    p = sub.add_parser("prop3", help="wire a state-count-aware halting oracle into a halting decider")
    p.add_argument("--max-index", type=_count, default=144)
    p.add_argument("--max-len", type=_count, default=1)
    p.add_argument("--fuel", type=_count, default=200)
    _add_report_flags(p)
    p.set_defaults(func=cmd_prop_wiring)

    p = sub.add_parser("contain", help="check a machine against a containment policy")
    p.add_argument("--machine", required=True)
    p.add_argument("--policy", required=True, help="JSON file with classified strings")
    p.add_argument("--inputs", help="comma-separated inputs; defaults to all up to --max-len")
    p.add_argument("--max-len", type=_count, help=f"longest input, without --inputs {_default('contain', 'max_len')}")
    p.add_argument("--fuel", type=_count, default=500)
    _add_report_flags(p)
    p.set_defaults(func=cmd_contain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_mode_flags(parser, args)
    if getattr(args, "format", None) is not None and args.out is None:
        parser.error("--format applies only to the report that --out writes")
    try:
        return args.func(args)
    except (MachineError, ValueError, OSError, WitnessSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
