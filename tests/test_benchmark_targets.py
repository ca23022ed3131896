"""The benchmark's tracer wraps package functions by name
(benchmarks/tracing.py); every name it lists must exist on the package, so a
refactor that drops one fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing_module()


@pytest.mark.parametrize("module_name, attr",
                         [target[:2] for target in _TRACING.SETUP_TARGETS
                          + _TRACING.LAYER_TARGETS])
def test_trace_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        # a method is wrapped where its class defines it
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"{module_name}.{cls_name} defines no {attr}"
    assert callable(getattr(owner, attr, None)), f"{module_name}.{attr} is gone"
