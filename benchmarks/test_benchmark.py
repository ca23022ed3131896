"""Fast tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest -q benchmarks/test_benchmark.py

Each check is shown passing on a good result and failing on a broken one.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import layers
import run
import tracing


def _truth(n=8, r_star=2, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, r_star)))
    return q, np.array([1.0, 0.5])


def _row(algorithm, iters, stop="target_reached", err=5e-10):
    return SimpleNamespace(algorithm=algorithm, iters_to_target=iters,
                           stop_reason=stop, final_rel_err_fro=err)


def test_recomputed_error_fails_a_perturbed_factor():
    u_star, sigma = _truth()
    rng = np.random.default_rng(1)
    x = np.hstack([u_star * sigma, np.zeros((8, 1))])  # rank-3 factor of M*
    assert checks.recomputed_error(x, u_star, sigma) < 1e-15
    assert checks.check_run("target_reached", x, u_star, sigma) is None
    perturbed = x + 1e-6 * rng.standard_normal(x.shape)
    assert "recomputed relative error" in checks.check_run(
        "target_reached", perturbed, u_star, sigma)


def test_run_stopped_at_max_iters_fails():
    u_star, sigma = _truth()
    x = u_star * sigma
    assert "max_iters" in checks.check_run("max_iters", x, u_star, sigma)


def test_scaled_row_stopped_at_max_iters_fails():
    assert checks.check_row_reached(_row("scaled_gd_lambda", 150)) is None
    capped = _row("scaled_gd_lambda", -1, stop="max_iters", err=2e-9)
    assert "max_iters" in checks.check_row_reached(capped)
    assert checks.check_row_reached(_row("scaled_gd_lambda", 150, err=2e-9)) is not None


def test_gd_row_under_five_times_scaled_fails():
    scaled = _row("scaled_gd_lambda", 200)
    assert checks.check_gd_row(_row("gd", -1, stop="max_iters", err=0.02), scaled) is None
    assert checks.check_gd_row(_row("gd", 1000), scaled) is None
    assert "under 5x" in checks.check_gd_row(_row("gd", 999), scaled)
    assert "diverged" in checks.check_gd_row(_row("gd", -1, stop="diverged"), scaled)


def test_prec_gd_no_slower_than_scaled_fails():
    scaled = _row("scaled_gd_lambda", 146)
    assert checks.check_prec_slower(_row("prec_gd", 590), scaled) is None
    assert "no more than" in checks.check_prec_slower(_row("prec_gd", 146), scaled)
    capped = _row("prec_gd", -1, stop="max_iters", err=3e-9)
    assert "max_iters" in checks.check_prec_slower(capped, scaled)


def test_kappa_spread_above_three_fails():
    assert checks.check_kappa_spread([150, 145, 203]) is None
    assert checks.check_kappa_spread([100, 300]) is None
    assert "spread" in checks.check_kappa_spread([100, 301])


def test_reassembly_fails_beyond_tolerance():
    x = np.ones((4, 3))
    assert checks.check_reassembly(x, x + 1e-12) is None
    assert "reassembles" in checks.check_reassembly(x, x + 1e-9)


def test_self_time_of_a_synthetic_span_tree():
    #  root  0..100: a 10..30 (with a.1 15..20), b 25..60 (overlaps a), c 90..120
    spans = [
        ["bench.solve", 0, 100, -1, None],
        ["solver.run", 10, 30, 0, None],
        ["sensing.forward", 15, 20, 1, None],
        ["solver.run", 25, 60, 0, None],
        ["linalg.spectral_norm", 90, 120, 0, None],  # clipped to the parent
    ]
    assert tracing.self_ns(spans) == [100 - (60 - 10) - (100 - 90), 15, 5, 35, 30]
    assert tracing.top_level(spans, {"solver.run", "sensing.forward"}) == [1, 3]
    assert list(tracing.ancestors(spans, 2)) == [1, 0]


def test_tracer_records_nesting_notes_and_restores():
    import sys
    mod = SimpleNamespace(inner=lambda v: v + 1)
    mod.outer = lambda v: mod.inner(v) * 2
    sys.modules["scaledgd.fake"] = mod
    try:
        tracer = tracing.Tracer()
        original = mod.inner
        tracer.install([("scaledgd.fake", "inner", "fake.inner", lambda a, k, r: r),
                        ("scaledgd.fake", "outer", "fake.outer", None)])
        with tracer.span("bench.solve"):
            assert mod.outer(1) == 4
        with tracer.paused():
            mod.inner(5)
        tracer.uninstall()
        assert mod.inner is original
    finally:
        del sys.modules["scaledgd.fake"]
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.NOTE]) for s in tracer.spans]
    assert names == [("bench.solve", -1, None), ("fake.outer", 0, None),
                     ("fake.inner", 1, 2)]


def test_round_metrics_count_passes_inside_runs():
    spans = [
        ["sensing.gaussian_operator", 0, 10, -1, 8000],
        ["sensing.forward", 10, 11, -1, 8000],            # measure's pass: not a solve pass
        ["bench.solve", 20, 100, -1, None],
        ["solver.run", 21, 99, 2, 4],
        ["sensing.forward", 22, 24, 3, 8000],
        ["sensing.adjoint", 24, 26, 3, 8000],
        ["solver.step", 26, 30, 3, None],
        ["solver.step", 27, 29, 6, None],                 # step_scaled_gd's inner call
    ]
    m = layers.round_metrics(spans, import_s=0.5)
    assert set(m) == set(layers.ROUND_METRICS)
    assert m["sensing.forward_calls"] == 1 and m["sensing.adjoint_calls"] == 1
    assert m["solver.step_calls"] == 1 and m["solver.iters"] == 4
    assert m["experiments.passes_per_iter"] == 0.5
    assert m["sensing.pass_gbps"] == pytest.approx(8000 / 2e-9 / 1e9)
    assert m["solver.self_s"] == pytest.approx((78 - 2 - 2 - 4) / 1e9)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**layers.ROUND_METRICS, **run.TRACE_ONLY}
