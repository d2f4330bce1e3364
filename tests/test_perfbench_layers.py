"""The benchmark still finds every name it wraps, and its passes stay cold.

perfbench/layers.py looks each traced function up by name on the module
or class its callers use; a refactor that moves or renames one of them
breaks the traced benchmark.  perfbench/run.py clears every functools
cache at module level in solvdeg before each pass; a memo kept any other
way would survive the clearing and warm every pass after the first.
This catches both in the test suite.
"""

import importlib.util
from pathlib import Path

from solvdeg import analyze, hilbert_function, solve
from solvdeg.presets import gap_quartic_system
from solvdeg.randsys import random_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_probe_wraps_and_restores():
    layers = load("layers")
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


def test_cleared_caches_leave_no_rank_pass(monkeypatch):
    F = random_system(7919, 4, [2] * 5, seed=1, homogeneous=True)
    hilbert_function(F, 3)
    for cache in load("run")._lru_caches():
        cache.cache_clear()
    built = []
    init = analyze._RankPass.__init__

    def spy(self, G):
        built.append(G)
        init(self, G)

    monkeypatch.setattr(analyze._RankPass, "__init__", spy)
    hilbert_function(F, 3)
    assert built == [F]
