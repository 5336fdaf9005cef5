"""The benchmark's traced run wraps program functions by name; a renamed or
deleted one would drop its per-layer metrics from the run's result."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.LAYER_TARGETS, autodiff_ops=True)
        assert tracer.absent == []
        assert "autodiff.matmul" in tracer.installed
    finally:
        tracer.uninstall()
