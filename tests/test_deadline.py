"""The deadline scope: nesting, inheritance, and cleanup after a timeout."""

import pytest

from solvdeg import analyze_system, hilbert_function, solve, top_system
from solvdeg.deadline import SolveTimeout, check_deadline, deadline_after
from solvdeg.presets import gap_quartic_system


def test_earlier_deadline_wins():
    # A nested scope cannot extend the deadline around it.
    with deadline_after(0), pytest.raises(SolveTimeout):
        solve(gap_quartic_system(), timeout=100)


def test_none_keeps_the_enclosing_deadline():
    with deadline_after(0), deadline_after(None):
        with pytest.raises(SolveTimeout):
            check_deadline()
    check_deadline()  # outside every scope: no deadline


def test_timed_out_call_leaves_no_deadline():
    gap = gap_quartic_system()
    with pytest.raises(SolveTimeout):
        solve(gap, timeout=0)
    with pytest.raises(SolveTimeout):
        analyze_system(gap, timeout=0)
    assert solve(gap).solving_degree == 5
    assert hilbert_function(top_system(gap), 3) == 1
