"""Spans around calls into the package's public functions.

A `Tracer` replaces a function with a wrapper that records one span per call:
name, start, end (ns, `time.perf_counter_ns`), the index of the enclosing
span and an optional note (an iteration count, a byte count or the name of
the exception raised).  The wrapper is set in every `scaledgd` module that
binds the same function object, so calls made through `from .x import f`
are caught too; the package's files are not touched.  Spans stay in memory
until the caller writes them out.

Only the standard library is imported here, so the worker can install the
tracer before it times the package import.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, attribute, span name, note).  The layer of a span is the part of
# its name before the first dot.  Setup targets are timed in every run, so
# that instance builds inside a sweep can be told apart from solver time;
# they are called a handful of times per instance.
SETUP_TARGETS = (
    ("scaledgd.problem", "make_ground_truth", "problem.make_ground_truth", None),
    ("scaledgd.sensing", "gaussian_operator", "sensing.gaussian_operator",
     lambda args, kwargs, result: 8 * result.m * result.dim),
    ("scaledgd.sensing", "measure", "sensing.measure", None),
    ("scaledgd.solver", "estimate_damping", "solver.estimate_damping", None),
)


def _pass_bytes(args, kwargs, result):
    op = args[0]
    return 8 * op.m * op.dim


# Per-call targets, installed only in the traced run.
LAYER_TARGETS = (
    ("scaledgd.rng", "normals", "rng.normals", None),
    ("scaledgd.sensing", "SensingOperator.apply_forward", "sensing.forward", _pass_bytes),
    ("scaledgd.sensing", "SensingOperator.apply_adjoint", "sensing.adjoint", _pass_bytes),
    ("scaledgd.solver", "run", "solver.run",
     lambda args, kwargs, result: result.final_state.t),
    ("scaledgd.solver", "spectral_init", "solver.spectral_init", None),
    ("scaledgd.solver", "random_init", "solver.random_init", None),
    ("scaledgd.solver", "step_gd", "solver.step", None),
    ("scaledgd.solver", "step_scaled_gd", "solver.step", None),
    ("scaledgd.solver", "step_scaled_gd_lambda", "solver.step", None),
    ("scaledgd.solver", "step_prec_gd", "solver.step", None),
    ("scaledgd.linalg", "spectral_norm", "linalg.spectral_norm",
     lambda args, kwargs, result: result[1]),
    ("scaledgd.linalg", "orthonormal_complement", "linalg.complement", None),
    ("scaledgd.diagnostics", "decompose_iterate", "diagnostics.decompose", None),
    ("scaledgd.diagnostics", "phase_metrics", "diagnostics.phase_metrics", None),
    ("scaledgd.experiments", "run_sweep", "experiments.run_sweep", None),
    ("scaledgd.experiments", "sweep_condition_number", "experiments.sweep", None),
    ("scaledgd.experiments", "sweep_overparam_rank", "experiments.sweep", None),
    ("scaledgd.experiments", "sweep_init_scale", "experiments.sweep", None),
    ("scaledgd.experiments", "sweep_noise", "experiments.sweep", None),
)

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Records spans; `install` wraps package functions, `span` marks the
    benchmark's own phases.  Single-threaded: one stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._paused = False

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> None:
        for module_name, attr, name, note in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], note))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, note)
            for mod_name, module in list(sys.modules.items()):
                if (mod_name == "scaledgd" or mod_name.startswith("scaledgd.")) \
                        and getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- span arithmetic --------------------------------------------------------


def children(spans) -> list[list[int]]:
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def self_ns(spans) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are merged, and clipped to the parent)."""
    kids = children(spans)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for lo, hi in sorted((spans[k][START], min(spans[k][END], end)) for k in kids[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def ancestors(spans, i: int):
    parent = spans[i][PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][PARENT]


def top_level(spans, names) -> list[int]:
    """Indices of spans named in `names` that have no ancestor named in `names`."""
    return [i for i, s in enumerate(spans) if s[NAME] in names
            and not any(spans[a][NAME] in names for a in ancestors(spans, i))]
