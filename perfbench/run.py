"""The stringalg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus_survey --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it puts `src/` on the path and starts
`python -m stringalg.cli` with PYTHONPATH=src, so nothing needs
installing.  Human-readable lines come first; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with `--trace 1` the per-layer ones, from a separate traced round.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_fixtures", "scaled_thirteen", "corpus_survey", "pumped_scan")
SETUP_REPEATS = 5

# Each workload's own names for its operation latency and throughput, and
# its unit of work.
NAMES = {
    "cli_fixtures": ("cli_p50_ms", "processes_per_s", "processes"),
    "scaled_thirteen": ("analyze_s", "passes_per_s", "passes"),
    "corpus_survey": ("instance_p50_ms", "instances_per_s", "instances"),
    "pumped_scan": ("string_p50_ms", "strings_per_s", "strings"),
}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return units("end_to_end"), units("per_layer")


def setup_seconds(workload, seed):
    """Imports plus input generation, once in each of several fresh
    processes: the wall seconds of each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(done.stdout))
    return samples


def tail(times):
    """Highest percentile with at least ten samples beyond it:
    (percentile, value, samples beyond), or None below 11 samples."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    value = ordered[n - 11]
    return 100.0 * (n - 10) / n, value, sum(t > value for t in ordered)


def line(workload, name, value, unit, detail=""):
    print(f"{workload:16s} {name:24s} {value:14.6g} {unit:8s} {detail}".rstrip())


def report_end_to_end(workload, result, setup):
    """Print each metric under the workload's own name; return the JSON ones.

    A sample is one timed operation: (seconds, units of work, scale).
    Every time is multiplied by its round's host-speed scale
    (`reference.py`; 1.0 on cli_fixtures); the lines print the wall-clock
    value beside it.  The latency is the median scaled time per unit; the
    rate is units over the scaled time spent inside operations.  Set-up
    is the median wall time of fresh processes: scaling it by the
    reference made it less steady, not more."""
    samples = result["samples"]
    times = [seconds * scale / units for seconds, units, scale in samples]
    wall_times = [seconds / units for seconds, units, _ in samples]
    work = sum(units for _, units, _ in samples)
    busy = sum(seconds * scale for seconds, _, scale in samples)
    wall_busy = sum(seconds for seconds, _, _ in samples)
    p50, wall_p50 = statistics.median(times), statistics.median(wall_times)
    ref = result["reference"]
    setup_s = statistics.median(setup)
    latency_name, rate_name, work_name = NAMES[workload]
    if ref:
        line(workload, "reference_s", statistics.median(ref), "s",
             f"median of {len(ref)} host-speed reference runs, {min(ref):.4f}-{max(ref):.4f} s; "
             f"operation times below are scaled to {reference.REFERENCE_S} s")
    else:
        print("# operation times are wall-clock, not scaled to the host's speed")
    if workload == "scaled_thirteen":
        line(workload, latency_name, p50, "s", f"median of {len(times)} passes, wall {wall_p50:.4g} s")
    else:
        per = ", each a scan job's mean time per string" if workload == "pumped_scan" else ""
        line(workload, latency_name, p50 * 1e3, "ms",
             f"median of {len(times)} samples{per}, wall {wall_p50 * 1e3:.4g} ms")
    t = tail(times)
    tail_name = latency_name.replace("p50", "tail").replace("analyze_s", "analyze_tail_ms")
    if t is None:
        print(f"# {tail_name}: not reported, {len(times)} samples are fewer than 11")
    else:
        pct, value, beyond = t
        line(workload, tail_name, value * 1e3, "ms", f"p{pct:.1f}, {beyond} of {len(times)} samples beyond")
    line(workload, rate_name, work / busy, "1/s",
         f"{work} {work_name} in {busy:.3f} s busy, wall {work / wall_busy:.4g}/s")
    line(workload, "setup_s", setup_s, "s", f"median of {len(setup)} fresh processes, wall-clock")
    line(workload, "peak_rss_mb", result["peak_mb"], "MB",
         "largest child process" if workload == "cli_fixtures" else "benchmark process")
    return {
        "setup_s": setup_s,
        "op_p50_ms": p50 * 1e3,
        "ops_per_s": work / busy,
        "peak_rss_mb": result["peak_mb"],
    }


def per_layer(tracer, extras, untraced, traced, declared):
    """Every declared per-layer value.  Stages a workload never reaches
    read 0; the cli.* probes and the scaling.* exponents are measured only
    on cli_fixtures and scaled_thirteen and read 0 elsewhere."""
    calls, self_s = tracer.layer_totals()
    values = dict(extras)
    values.update({
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_ratio": traced / untraced - 1.0,
    })
    for name in declared:
        base, _, kind = name.rpartition(".")
        if name in values:
            continue
        if kind == "calls":
            values[name] = calls[base]
        elif kind == "self_s":
            values[name] = self_s[base]
        elif kind == "useful_ratio":
            values[name] = len(tracer.distinct[base]) / calls[base] if calls[base] else 0.0
        elif name in tracer.COUNTERS:
            values[name] = tracer.counts[name]
        elif name.startswith(("cli.", "scaling.")):
            values[name] = 0.0
    return values


def main():
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "stringalg" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        print("error: run from the root of a stringalg checkout (src/stringalg and fixtures/ are missing)", file=sys.stderr)
        return 2
    end_to_end, layers = declared_metrics()
    src = str(root / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        from inputs import make_inputs

        inputs = make_inputs(args.workload, args.seed, workdir)
        import workloads

        print(f"# stringalg benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# python {sys.version.split()[0]}, nproc {os.cpu_count()}, one caller, closed loop")
        if args.trace:
            tracer, extras, outcome, untraced, traced = workloads.profile(args.workload, inputs)
            values = per_layer(tracer, extras, untraced, traced, layers)
            declared = layers
            for name in sorted(layers):
                line(args.workload, name, values[name], layers[name])
            spans = root / ".perfbench-spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
            spans.parent.mkdir(exist_ok=True)
            tracer.write(spans)
            print(f"# {len(tracer.spans)} spans written to {spans.relative_to(root)}")
        else:
            setup = setup_seconds(args.workload, args.seed)
            result = workloads.measure(args.workload, inputs, args.seconds, workdir)
            outcome = result["outcome"]
            values = report_end_to_end(args.workload, result, setup)
            declared = end_to_end
            if result["oracle"] is not None:
                checked, over = result["oracle"]
                print(f"# oracle cross-check: {checked} instances checked, {over} with the oracle "
                      f"out of its {workloads.ORACLE_BUDGET} nodes")

    rate = outcome.failed_count / outcome.attempted if outcome.attempted else math.nan
    line(args.workload, "error_rate", rate, "ratio", f"{outcome.failed_count} failed of {outcome.attempted} attempted, counting distinct operations")
    for op_id, why in sorted(outcome.failed.items()):
        print(f"# failed: {op_id}: {why}")
    for problem in outcome.wrong[:50]:
        print(f"# wrong: {problem}")
    missing = set(declared) - set(values)
    if missing:
        raise SystemExit(f"benchmark defect: no value for {sorted(missing)}")
    print(json.dumps({
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed_count,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
