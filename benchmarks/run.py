"""Benchmark: time to relative error 1e-9 on four workloads.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of a workload runs in a fresh
process (`worker.py`) with the BLAS thread settings as found; rounds repeat
until S seconds have passed (at least one).  With `--trace 0` the run reports
the end-to-end metrics, each the median over its rounds; with `--trace 1` it
alternates untraced and traced rounds, runs the memory-bandwidth probe, and
reports the per-layer metrics of the traced rounds plus the tracing overhead.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  Every result, with the
environment it was measured in, is also written to `benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostinfo import stream_gbps
from layers import ROUND_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-kappa7", "desk-rank20", "desk-gd-grid", "desk-phase-kappa")
END_TO_END = {"setup_s": "s", "solve_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that need the bandwidth probe or both kinds of round
TRACE_ONLY = {"host.stream_gbps": "GB/s", "sensing.bw_share": "ratio",
              "trace.overhead_s": "s"}
ROUND_TIMEOUT_S = 150  # one round takes about 15 s at most
BUDGET_S = 160         # start no round that would end after this


class BenchError(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(rounds: list[dict], traced: list[dict], stream: float | None) -> dict:
    """The result object of one run from its untraced and traced rounds."""
    every = rounds + traced
    outcomes = [[(name, problem is None, tuple(outcome)) for name, problem, outcome in r["ops"]]
                for r in every]
    attempted = sum(len(r["ops"]) for r in every)
    failed = sum(problem is not None for r in every for _, problem, _ in r["ops"])
    if traced:
        metrics = {}
        for name, unit in ROUND_METRICS.items():
            metrics[name] = _metric(statistics.median(r["layers"][name] for r in traced), unit)
        extra = {
            "host.stream_gbps": stream,
            "sensing.bw_share": metrics["sensing.pass_gbps"]["value"] / stream,
            "trace.overhead_s": statistics.median(r["wall_s"] for r in traced)
                                - statistics.median(r["wall_s"] for r in rounds),
        }
        metrics.update({name: _metric(extra[name], unit) for name, unit in TRACE_ONLY.items()})
    else:
        metrics = {name: _metric(statistics.median(r[name] for r in rounds), unit)
                   for name, unit in END_TO_END.items()}
    # same seed, same inputs: every round must end its runs identically
    return {"correct": all(o == outcomes[0] for o in outcomes),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    stream = stream_gbps() if trace else None
    start = time.monotonic()
    rounds, traced = [], []
    while True:
        rounds.append(run_round(workload, seed, False))
        if trace:
            traced.append(run_round(workload, seed, True))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if elapsed >= seconds or elapsed + per_round > BUDGET_S:
            break
    result = summarize(rounds, traced, stream)
    for r in rounds + traced:
        for name, problem, _ in r["ops"]:
            if problem is not None:
                print(f"FAILED {workload} {name}: {problem}", file=sys.stderr)
    out = HERE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                               "env": rounds[0]["env"], "result": result,
                               "rounds": rounds, "traced_rounds": traced}, indent=1))
    print(f"{workload} seed={seed} rounds={len(rounds)}+{len(traced)} traced "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  env: {json.dumps(rounds[0]['env'])}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "scaledgd" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'scaledgd'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
