"""Per-layer metrics of one traced round, computed from its spans.

Counts are exact.  Per-call times are medians, with the 90th percentile
beside them (`_p90`, reported as 0 below 100 calls, where ten calls past it
would be too few for a tail); the sample count is the matching `_calls`
metric.  `sensing.forward_*` and `sensing.adjoint_*` count the passes made
inside `solver.run`, the passes the solve waits for.
"""

from __future__ import annotations

import statistics

from tracing import END, NAME, NOTE, PARENT, START, ancestors, self_ns

LAYERS = ("rng", "problem", "sensing", "solver", "linalg", "diagnostics",
          "experiments")
TAIL_MIN_CALLS = 100

# name -> unit, in the order they are reported.  run.py adds the metrics that
# need more than one round or the bandwidth probe.
ROUND_METRICS = {
    "host.import_s": "s",
    "rng.normals_calls": "count",
    "rng.normals_s": "s",
    "problem.truth_s": "s",
    "sensing.build_s": "s",
    "sensing.measure_s": "s",
    "sensing.operator_mb": "MB",
    "sensing.forward_calls": "count",
    "sensing.forward_ms": "ms",
    "sensing.forward_ms_p90": "ms",
    "sensing.adjoint_calls": "count",
    "sensing.adjoint_ms": "ms",
    "sensing.adjoint_ms_p90": "ms",
    "sensing.pass_gbps": "GB/s",
    "solver.damping_s": "s",
    "solver.runs": "count",
    "solver.iters": "count",
    "solver.run_s": "s",
    "solver.ms_per_iter": "ms",
    "solver.self_s": "s",
    "solver.step_calls": "count",
    "solver.step_ms": "ms",
    "solver.step_ms_p90": "ms",
    "solver.spectral_init_s": "s",
    "solver.diverged": "count",
    "linalg.spectral_norm_calls": "count",
    "linalg.spectral_norm_ms": "ms",
    "linalg.spectral_norm_ms_p90": "ms",
    "linalg.power_iters": "count",
    "linalg.complement_calls": "count",
    "linalg.complement_ms": "ms",
    "diagnostics.decompose_calls": "count",
    "diagnostics.decompose_ms": "ms",
    "diagnostics.decompose_ms_p90": "ms",
    "diagnostics.phase_metrics_ms": "ms",
    "experiments.points": "count",
    "experiments.runs_per_operator": "ratio",
    "experiments.passes_per_iter": "ratio",
    **{f"{layer}.layer_self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < TAIL_MIN_CALLS:
        return 0.0
    return statistics.quantiles(values, n=10)[-1]


def round_metrics(spans, import_s: float) -> dict[str, float]:
    """The ROUND_METRICS of one traced round."""
    own = self_ns(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def durations_ms(idx):
        return [(spans[i][END] - spans[i][START]) / 1e6 for i in idx]

    def total_s(name):
        return sum(durations_ms(by_name.get(name, []))) / 1e3

    def in_run(name):
        return [i for i in by_name.get(name, [])
                if any(spans[a][NAME] == "solver.run" for a in ancestors(spans, i))]

    runs = by_name.get("solver.run", [])
    iters = sum(spans[i][NOTE] for i in runs if isinstance(spans[i][NOTE], int))
    forward, adjoint = durations_ms(in_run("sensing.forward")), durations_ms(in_run("sensing.adjoint"))
    passes = in_run("sensing.forward") + in_run("sensing.adjoint")
    pass_ms = _median(forward + adjoint)
    pass_bytes = spans[passes[0]][NOTE] if passes else 0
    steps = [i for i in by_name.get("solver.step", [])  # not step_scaled_gd's inner call
             if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != "solver.step"]
    operators = by_name.get("sensing.gaussian_operator", [])
    norms = by_name.get("linalg.spectral_norm", [])
    m = {
        "host.import_s": import_s,
        "rng.normals_calls": len(by_name.get("rng.normals", [])),
        "rng.normals_s": total_s("rng.normals"),
        "problem.truth_s": total_s("problem.make_ground_truth"),
        "sensing.build_s": total_s("sensing.gaussian_operator"),
        "sensing.measure_s": total_s("sensing.measure"),
        "sensing.operator_mb": max((spans[i][NOTE] for i in operators), default=0) / 1e6,
        "sensing.forward_calls": len(forward),
        "sensing.forward_ms": _median(forward),
        "sensing.forward_ms_p90": _p90(forward),
        "sensing.adjoint_calls": len(adjoint),
        "sensing.adjoint_ms": _median(adjoint),
        "sensing.adjoint_ms_p90": _p90(adjoint),
        "sensing.pass_gbps": pass_bytes / (pass_ms * 1e6) if pass_ms else 0.0,
        "solver.damping_s": total_s("solver.estimate_damping"),
        "solver.runs": len(runs),
        "solver.iters": iters,
        "solver.run_s": total_s("solver.run"),
        "solver.ms_per_iter": total_s("solver.run") * 1e3 / iters if iters else 0.0,
        "solver.self_s": sum(own[i] for i in runs) / 1e9,
        "solver.step_calls": len(steps),
        "solver.step_ms": _median(durations_ms(steps)),
        "solver.step_ms_p90": _p90(durations_ms(steps)),
        "solver.spectral_init_s": total_s("solver.spectral_init"),
        "solver.diverged": sum(spans[i][NOTE] == "DivergenceError" for i in runs),
        "linalg.spectral_norm_calls": len(norms),
        "linalg.spectral_norm_ms": _median(durations_ms(norms)),
        "linalg.spectral_norm_ms_p90": _p90(durations_ms(norms)),
        "linalg.power_iters": sum(spans[i][NOTE] for i in norms
                                  if isinstance(spans[i][NOTE], int)),
        "linalg.complement_calls": len(by_name.get("linalg.complement", [])),
        "linalg.complement_ms": _median(durations_ms(by_name.get("linalg.complement", []))),
        "diagnostics.decompose_calls": len(by_name.get("diagnostics.decompose", [])),
        "diagnostics.decompose_ms": _median(durations_ms(by_name.get("diagnostics.decompose", []))),
        "diagnostics.decompose_ms_p90": _p90(durations_ms(by_name.get("diagnostics.decompose", []))),
        "diagnostics.phase_metrics_ms": _median(durations_ms(by_name.get("diagnostics.phase_metrics", []))),
        "experiments.points": len(operators),
        "experiments.runs_per_operator": len(runs) / len(operators) if operators else 0.0,
        "experiments.passes_per_iter": len(passes) / iters if iters else 0.0,
        "trace.spans": len(spans),
    }
    layer_self: dict[str, float] = {}
    for span, own_ns in zip(spans, own):
        layer = span[NAME].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own_ns / 1e9
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self.get(layer, 0.0)
    return m
