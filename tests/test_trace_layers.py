"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps every
function its ``LAYERS`` table names; a renamed or deleted one would break
that run, so each must still be defined in cubicha."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_layer_is_a_module_level_callable():
    layers = traced_layers()
    assert layers
    for module, fname in layers:
        mod = importlib.import_module(f"cubicha.{module}")
        fn = vars(mod).get(fname)
        assert callable(fn), f"cubicha.{module}.{fname}"
        assert fn.__module__ == mod.__name__, f"cubicha.{module}.{fname}"
