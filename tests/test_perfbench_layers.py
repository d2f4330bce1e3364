"""The benchmark's layer tracer still finds every name it wraps.

perfbench/layers.py looks each traced function up by name on the module
or class its callers use; a refactor that moves or renames one of them
breaks the traced benchmark.  This catches it in the test suite.
"""

import importlib.util
from pathlib import Path

from solvdeg import solve
from solvdeg.presets import gap_quartic_system

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_probe_wraps_and_restores():
    layers = load_layers()
    probe = layers.LayerProbe()
    assert probe.is_clean()
    totals = layers.new_totals()
    probe.install(totals)
    try:
        solve(gap_quartic_system())
    finally:
        probe.restore()
    assert probe.is_clean()
    for key in ("groebner.certify_calls", "groebner.normal_form_calls",
                "linalg.add_rows_calls", "linalg.reducers_built"):
        assert totals[key] > 0, key
