"""One round of one workload, in a fresh process.

    python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1 --t0 T

Imports the package from the checkout's `src/`, runs the workload, checks it
and prints one JSON line: the end-to-end figures of this process, the checked
operations and, when traced, the per-layer metrics.  `--t0` is the parent's
`time.monotonic()` just before it started this process, so `wall_s` counts
interpreter start-up too.  A traced round writes its spans to
`benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_NAMES = {name for _, _, name, _ in tracing.SETUP_TARGETS}


def _seconds(spans, idx) -> float:
    return sum(spans[i][tracing.END] - spans[i][tracing.START] for i in idx) / 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import scaledgd
    import_s = time.perf_counter() - start
    if Path(scaledgd.__file__).resolve().parent != (SRC / "scaledgd").resolve():
        print(f"error: imported scaledgd from {scaledgd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import hostinfo
    import layers
    import workloads

    tracer = tracing.Tracer()
    tracer.install(tracing.SETUP_TARGETS)
    if args.trace:
        tracer.install(tracing.LAYER_TARGETS)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, tracer)
    finally:
        tracer.uninstall()
    wall_s = time.monotonic() - args.t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    spans = tracer.spans
    setup = tracing.top_level(spans, SETUP_NAMES)
    inside_solve = [i for i in setup if any(
        spans[a][tracing.NAME] == "bench.solve" for a in tracing.ancestors(spans, i))]
    solve = [i for i, s in enumerate(spans) if s[tracing.NAME] == "bench.solve"]
    result = {
        "setup_s": import_s + _seconds(spans, setup),
        "solve_s": _seconds(spans, solve) - _seconds(spans, inside_solve),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [[op.name, op.problem, list(op.outcome)] for op in ops],
        "env": hostinfo.environment(),
    }
    if args.trace:
        result["layers"] = layers.round_metrics(spans, import_s)
        out = HERE / "results" / f"spans-{args.workload}-seed{args.seed}-{time.time_ns()}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "note"],
                                   "spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
