"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload proposed-adversarial --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports anchorloc from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it records a span around every call into each layer and
prints the per-layer metrics instead, and writes the spans to
``perfbench/out/trace_<workload>_seed<n>.jsonl``. Problems found by the
output checks go to standard error; the last line of standard output is
the result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="RANSAC seed of the localizer")
    p.add_argument("--seconds", type=float, required=True, help="measure whole rounds for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_layer(result):
    """Each round's layer summary, and their medians over rounds."""
    from perfbench.tracing import summarize

    summaries = []
    for r in result.rounds:
        summary = summarize(r.spans, r.counts, r.wall_s)
        summary["trace.frames_per_s"] = r.frames_per_s
        summaries.append(summary)
    keys = set().union(*summaries)
    return {k: statistics.median(s.get(k, 0.0) for s in summaries) for k in keys}, summaries


def _number(value):
    """A metric's value; null where a failed run left it undefined (NaN)."""
    value = float(value)
    return value if math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "anchorloc").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no anchorloc sources (src/anchorloc, configs)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.tracing import Tracer, coverage_problems, write_spans

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]()

    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.installed():
            result = workloads.run(workload, args.seed, args.seconds, tracer=tracer)
    else:
        result = workloads.run(workload, args.seed, args.seconds)
    problems = result.problems()

    if tracer:
        values, summaries = per_layer(result)
        problems += coverage_problems(summaries)
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        write_spans(workloads.OUT / f"trace_{args.workload}_seed{args.seed}.jsonl", result.rounds)
        names = spec["per_layer"]
    else:
        first = result.rounds[0]
        values = {
            "setup_s": statistics.median(result.setup_samples),
            "frames_per_s": statistics.median(r.frames_per_s for r in result.rounds),
            "registered_frames": first.registered,
            "median_error": first.median_error,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = spec["end_to_end"]

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(
        f"{args.workload}: {len(result.rounds)} rounds, {result.attempted} operations, "
        f"{result.failed} failed, setup samples {[round(s, 3) for s in result.setup_samples]}, "
        f"frames/s by round {[round(r.frames_per_s, 3) for r in result.rounds]}",
        file=sys.stderr,
    )
    out = {
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": _number(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in names},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
