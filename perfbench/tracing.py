"""Spans and counters for a traced benchmark pass.

Tracing is done entirely from the benchmark's side: `install` rebinds the
public functions of traitbench at every module attribute that holds them, so
calls between traitbench's own modules are seen too. Resource measures and
trait leaves are callables stored in objects, so the measure factories and
`parse_trait` are rebound to return wrapped copies instead. Nothing under
`src/` is modified.

A span is [name, start, end, parent, observe_s] with `time.perf_counter`
times; parent is the index of the enclosing span or -1. Counters are read
from return values at the same boundaries, after `end`; the time that takes
is `observe_s`, charged to the tracer rather than to any layer. Spans stay in
memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

# Span names whose self time is reported; fixed so every workload reports
# the same metric set (zero where a workload never enters the layer).
SPAN_NAMES = (
    "bench",
    "machine.run",
    "machine.trace",
    "machine.validate",
    "containment.render_tape",
    "containment.check",
    "measures.evaluate",
    "measures.graph_decide",
    "measures.check_blum",
    "measures.usage_within_bound",
    "traits.leaf",
    "traits.probe",
    "traits.partition",
    "transforms",
    "enumeration.decode",
    "enumeration.encode",
    "reporting.render",
)

RUN_KINDS = ("halted_output", "halted_undefined", "fuel_exhausted")
SPAN_FIELDS = ("name", "start", "end", "parent", "observe_s")


class NullTracer:
    """Stands in for Tracer in untraced passes; adds no work."""

    def phase(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        # Distinct (machine, input) pairs given to run, compared by value.
        self._pairs: set = set()

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
                record[4] = clock() - record[2]
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span for one of the benchmark's own phases: setup, work or verify."""
        record = [f"bench.{name}", 0.0, 0.0, self._stack[-1], 0.0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # --- observers: counters read from return values ------------------------

    def _on_run(self, args, kwargs, outcome) -> None:
        # traitbench calls run(m, input_string, fuel) positionally throughout.
        m, sigma = args[0], args[1]
        kind = outcome.kind.value.replace("-", "_")
        self.counts[f"run.{kind}.runs"] += 1
        self.counts[f"run.{kind}.steps"] += outcome.steps
        self._pairs.add((m, sigma))

    def _on_trace(self, args, kwargs, configs) -> None:
        self.counts["trace.configs"] += len(configs)

    def _on_leaf(self, args, kwargs, verdict) -> None:
        self.counts["leaf.unknown"] += verdict.value == "Unknown"

    def _on_report(self, args, kwargs, text) -> None:
        self.counts["report.bytes"] += len(text.encode("utf-8"))

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Rebind traitbench's public functions to traced wrappers in every module."""
        from traitbench import containment, enumeration, machine, measures, reporting, traits, transforms

        spanned = {
            machine.run: ("machine.run", self._on_run),
            machine.trace: ("machine.trace", self._on_trace),
            machine._validate: ("machine.validate", None),
            machine.render_tape: ("containment.render_tape", None),
            containment.containment_check: ("containment.check", None),
            measures.check_blum_axioms: ("measures.check_blum", None),
            measures.usage_within_bound: ("measures.usage_within_bound", None),
            traits.probe_semanticity: ("traits.probe", None),
            traits.sem_syn_partition: ("traits.partition", None),
            transforms.pad: ("transforms", None),
            transforms.delay_inject: ("transforms", None),
            transforms.leaky_wrap: ("transforms", None),
            enumeration.decode: ("enumeration.decode", None),
            enumeration.encode: ("enumeration.encode", None),
            reporting.render_report: ("reporting.render", self._on_report),
        }
        replacements = {id(fn): self.wrap(name, fn, observe) for fn, (name, observe) in spanned.items()}
        for factory in (measures.time_measure, measures.space_measure, measures.broken_step_counter):
            replacements[id(factory)] = self._measure_factory(factory)
        replacements[id(traits.parse_trait)] = self._trait_parser(traits.parse_trait)
        for name, module in list(sys.modules.items()):
            if name != "traitbench" and not name.startswith("traitbench."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = replacements.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def _measure_factory(self, factory):
        from traitbench.measures import ResourceMeasure

        def build():
            measure = factory()
            return ResourceMeasure(
                measure.name,
                self.wrap("measures.evaluate", measure.evaluate),
                self.wrap("measures.graph_decide", measure.graph_decide),
            )

        return build

    def _trait_parser(self, parse):
        from traitbench.traits import TraitComplement, TraitDef

        def wrap_leaves(expr):
            if isinstance(expr, TraitDef):
                return TraitDef(expr.name, self.wrap("traits.leaf", expr.evaluator, self._on_leaf), expr.declared_kind)
            if isinstance(expr, TraitComplement):
                return TraitComplement(wrap_leaves(expr.inner))
            return type(expr)(wrap_leaves(expr.left), wrap_leaves(expr.right))

        return lambda text: wrap_leaves(parse(text))

    # --- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters, as plain numbers.

        The benchmark's phases (bench.setup, bench.work, bench.verify) are
        reported together as "bench".
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, observe_s in self.spans:
            if parent >= 0:
                child_time[parent] += end - start + observe_s
        calls: Counter = Counter()
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, parent, observe_s) in enumerate(self.spans):
            name = "bench" if name.startswith("bench.") else name
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
        counts = {f"{name}.calls": calls[name] for name in SPAN_NAMES}
        for kind in RUN_KINDS:
            for what in ("runs", "steps"):
                counts[f"run.{kind}.{what}"] = self.counts[f"run.{kind}.{what}"]
        counts["run.pairs"] = len(self._pairs)
        for key in ("trace.configs", "leaf.unknown", "report.bytes"):
            counts[key] = self.counts[key]
        return {
            "counts": counts,
            "self_s": self_s,
            "run_time_s": sum(end - start for name, start, end, _, _ in self.spans if name == "machine.run"),
            "observe_s": sum(record[4] for record in self.spans),
        }

    def finish(self, path: str) -> dict:
        """Summarise, write the spans to `path` and release them; `write_s` times all three.

        The file holds {"pass", "fields", "spans"} as one JSON object; a
        span's id is its position in the list.
        """
        began = time.perf_counter()
        summary = self.summary()
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"pass": self.pass_id, "fields": SPAN_FIELDS, "spans": self.spans}))
        # The installed wrappers keep this tracer alive until the interpreter
        # exits; freeing the spans here keeps that cost inside write_s.
        self.spans.clear()
        self._pairs.clear()
        summary["write_s"] = time.perf_counter() - began
        return summary
