"""traitbench benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload blum-sweep --seed 0 --seconds 20 --trace 0

Run it from the repository root. Each pass is a fresh Python process
(workloads.py) that imports traitbench from `src/`, builds the workload's
inputs from the seed, does the workload's fixed work through the public
API, and verifies every output. Passes run one after another until
`--seconds` have elapsed (at least three of them).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, each the median over the passes of this run:
  wall_s       spawn to exit of one pass
  setup_s      spawn until traitbench is imported and the inputs are built
  peak_rss_mb  peak resident memory of the pass process (os.wait4 rusage)
`attempted` and `failed` count verified units over all passes; a pass that
crashes or times out fails all of its units.

With `--trace 1` traced and untraced passes alternate, and the JSON object
holds the per-layer metrics of the traced passes instead; see README.md.
The lines before the JSON give every figure with its quartiles and sample
count.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import RUN_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BASELINE_FILE = HERE / "baseline_counters.json"
BASELINE = json.loads(BASELINE_FILE.read_text("utf-8"))
WORKLOADS = ("blum-sweep", "trait-partition", "contain-trace", "index-roundtrip")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 45
# No new pass starts after this, so a run ends well inside three minutes.
RUN_LIMIT_S = 100


def spawn_pass(workload: str, seed: int, tiny: bool, spans: Path | None = None) -> dict:
    """Run one pass in a fresh process and measure it from spawn to exit."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(OUT / f"pass-{workload}.out", "w+b") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT, env=env)
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.alarm(PASS_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode("utf-8", "replace").splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return {
        "wall_s": end - start,
        "setup_s": result["setup_done"] - start if result else None,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "result": result,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes (their counters are identical)."""
    results = [p["result"] for p in traced]
    counts = results[0]["counts"]

    def self_s(name: str) -> float:
        return statistics.median(r["self_s"][name] for r in results)

    runs = sum(counts[f"run.{kind}.runs"] for kind in RUN_KINDS)
    steps = sum(counts[f"run.{kind}.steps"] for kind in RUN_KINDS)
    run_time = statistics.median(r["run_time_s"] for r in results)
    leaves = counts["traits.leaf.calls"]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics = {
        "machine.run.calls": (runs, "count"),
        "machine.run.self_s": (self_s("machine.run"), "s"),
        "machine.steps": (steps, "count"),
        "machine.steps_per_s": (steps / run_time if run_time else 0.0, "1/s"),
        "machine.fuel_exhausted.steps_share": (counts["run.fuel_exhausted.steps"] / steps if steps else 0.0, "ratio"),
        "machine.runs_per_pair": (runs / counts["run.pairs"] if runs else 0.0, "ratio"),
        "machine.pairs": (counts["run.pairs"], "count"),
    }
    for kind in RUN_KINDS:
        metrics[f"machine.run.{kind}.runs"] = (counts[f"run.{kind}.runs"], "count")
        metrics[f"machine.run.{kind}.steps"] = (counts[f"run.{kind}.steps"], "count")
    for name in ("machine.validate", "machine.trace", "containment.render_tape", "measures.evaluate",
                 "measures.graph_decide", "traits.leaf", "transforms", "enumeration.decode", "enumeration.encode"):
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("containment.check", "measures.check_blum", "measures.usage_within_bound",
                 "traits.probe", "traits.partition", "reporting.render", "bench"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics.update({
        "machine.trace.configs": (counts["trace.configs"], "count"),
        "traits.leaf.unknown_share": (counts["leaf.unknown"] / leaves if leaves else 0.0, "ratio"),
        "reporting.bytes": (counts["report.bytes"], "bytes"),
        "trace.observe_s": (statistics.median(r["observe_s"] for r in results), "s"),
        "trace.write_s": (statistics.median(r["write_s"] for r in results), "s"),
        "pass.unattributed_s": (
            statistics.median(
                p["wall_s"] - sum(p["result"]["self_s"].values()) - p["result"]["observe_s"] - p["result"]["write_s"]
                for p in traced
            ),
            "s",
        ),
        "process.cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - statistics.median(p["wall_s"] for p in plain), "s"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes; digests are not checked")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "traitbench" / "__init__.py").is_file():
        print(f"perfbench: no traitbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Compile traitbench's bytecode once, untimed, as an installed copy would have it.
    warm = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import traitbench, traitbench.reporting"], cwd=ROOT, env=warm, check=True)

    spans = OUT / f"spans-{args.workload}-{args.seed}.json"
    plain: list[dict] = []
    traced: list[dict] = []
    began = time.monotonic()
    while True:
        plain.append(spawn_pass(args.workload, args.seed, args.tiny))
        if args.trace:
            traced.append(spawn_pass(args.workload, args.seed, args.tiny, spans))
        elapsed = time.monotonic() - began
        enough = len(plain) >= MIN_PASSES and len(traced) >= (MIN_TRACED_PASSES if args.trace else 0)
        if (enough and elapsed >= args.seconds) or elapsed >= RUN_LIMIT_S:
            break

    passes = plain + traced
    ok = [p for p in passes if p["result"] is not None]
    units = max((p["result"]["attempted"] for p in ok), default=1)
    attempted = sum(p["result"]["attempted"] if p["result"] else units for p in passes)
    failed = sum(p["result"]["failed"] if p["result"] else units for p in passes)
    problems = []
    if len(ok) < len(passes):
        problems.append(f"{len(passes) - len(ok)} of {len(passes)} passes crashed or timed out")
    if len({p["result"]["digest"] for p in ok}) > 1:
        problems.append("report digests differ between passes of the same seed")
    good_traced = [p for p in traced if p["result"] is not None]
    if args.trace and len({json.dumps(p["result"]["counts"], sort_keys=True) for p in good_traced}) > 1:
        problems.append("counters differ between traced passes of the same seed")
    good_plain = [p for p in plain if p["result"] is not None]

    print(f"# {args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} traced passes "
          f"in {time.monotonic() - began:.1f} s; fail_rate={failed / attempted:.4g} ({failed}/{attempted} units)")
    for problem in problems:
        print(f"# problem: {problem}")
    if args.trace and good_traced and good_plain:
        metrics = layer_metrics(good_traced, good_plain)
        print(f"# per-layer: counters from one traced pass, times are medians of {len(good_traced)} traced passes")
        for name, (value, unit) in metrics.items():
            print(f"{args.workload:16} {name:38} {value:>16.6g} {unit}")
        if args.seed == BASELINE["seed"] and not args.tiny:
            moved = sorted(k for k, v in good_traced[0]["result"]["counts"].items() if BASELINE["counters"][args.workload].get(k) != v)
            print(f"# counters vs {BASELINE_FILE.name}: {'moved: ' + ', '.join(moved) if moved else 'identical'}")
    elif good_plain and not args.trace:
        metrics = {}
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            q1, median, q3 = quartiles([p[name] for p in good_plain])
            metrics[name] = (median, unit)
            print(f"{args.workload:16} {name:12} median {median:10.4f} {unit:3} q1 {q1:.4f} q3 {q3:.4f} n={len(good_plain)}")
    else:
        print("perfbench: no pass completed, so there is nothing to report", file=sys.stderr)
        return 1
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
