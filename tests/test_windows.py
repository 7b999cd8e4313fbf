"""Windows of the bundled week that take a deep branch-and-bound tree,
re-solved against the objectives recorded at a trusted commit.

A change to the simplex path or the cuts moves tied optima, so a week's
profit and node totals shift even when every window still solves to the same
objective.  These windows gate such changes instead; record_windows.py
writes them.
"""

import json
from pathlib import Path

import pytest

from essdispatch.domain import SocState
from essdispatch.fixture import generate_series
from essdispatch.problem import build_problem
from essdispatch.solver import solve

from record_windows import bundled_config

CATALOGUE = json.loads((Path(__file__).parent / "data" / "windows_h6.json").read_text())


@pytest.fixture(scope="module")
def bundled():
    return bundled_config(), generate_series()


@pytest.mark.parametrize("window", CATALOGUE["windows"], ids=lambda w: f"t{w['t']}")
def test_recorded_window_objective(bundled, window):
    (specs, market, config), week = bundled
    horizon, t = CATALOGUE["horizon"], window["t"]
    result = solve(build_problem(t, week[t:t + horizon], SocState(tuple(window["soc"])),
                                 specs, market), config)
    assert result.status == "optimal"
    assert abs(result.objective - window["objective"]) <= (
        CATALOGUE["gap_tol"] * max(1.0, abs(window["objective"])))
