"""The public surface: exported names and the functions the benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import streamgp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_exported_name_resolves():
    assert len(streamgp.__all__) == len(set(streamgp.__all__))
    missing = [name for name in streamgp.__all__ if not hasattr(streamgp, name)]
    assert not missing


def test_benchmark_layers_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer in spans.LAYERS:
        module_name, function_name = layer.split(".")
        module = importlib.import_module(f"streamgp.{module_name}")
        assert callable(getattr(module, function_name, None)), layer
