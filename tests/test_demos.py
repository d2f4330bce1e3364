"""Smoke tests: every demo script runs to the end and prints what it shows."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, shows", [
    ("bounds_tour.py", "=== Quotient series of semi-regular sequences ==="),
    ("diagnostics_tour.py", "Hilbert function of top parts: (1, 2, 2, 1, 0)"),
    ("solving_walkthrough.py", "solving degree measured: 5"),
    ("table_reproduction.py", "mismatches: 0"),
])
def test_demo_runs(name, shows, capsys):
    runpy.run_path(str(DEMOS / name))
    assert shows in capsys.readouterr().out
