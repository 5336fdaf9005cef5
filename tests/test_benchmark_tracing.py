"""The benchmark's traced run wraps program functions by name; a renamed or
deleted one would drop its per-layer metrics from the run's result."""

import importlib.util
import os

from oneshot_kgc.cli import main

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


def test_traced_build_records_every_build_layer(dump_path, tmp_path, capsys):
    # the build-dataset metrics read 0 unless each of these is called
    # through the name the tracer wraps
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.LAYER_TARGETS)
        assert main(["build-dataset", "--input", dump_path, "--out", str(tmp_path / "ds"),
                     "--counts", "6,2,2", "--seed", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    for name in ("graph_store.load_triples", "graph_store.build_candidates",
                 "dataset.detect_inverse_relations", "dataset.emit_dataset"):
        assert name in names, name
