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
from essdispatch.iofiles import load_config
from essdispatch.problem import build_problem
from essdispatch.solver import solve

from conftest import BUNDLED_CONFIG

DATA = Path(__file__).parent / "data"
# (catalogue, window) pairs.  The H=6 windows, recorded first, keep their ids
# t<slot>; the others are h<horizon>-t<slot>.
WINDOWS = [pytest.param(catalogue, window, id=(
               f"t{window['t']}" if catalogue["horizon"] == 6
               else f"h{catalogue['horizon']}-t{window['t']}"))
           for catalogue in (json.loads((DATA / f"windows_h{h}.json").read_text())
                             for h in (6, 8))
           for window in catalogue["windows"]]


@pytest.fixture(scope="module")
def bundled():
    return load_config(BUNDLED_CONFIG)[:3], generate_series()


@pytest.mark.parametrize("catalogue,window", WINDOWS)
def test_recorded_window_objective(bundled, catalogue, window):
    (specs, market, config), week = bundled
    horizon, t = catalogue["horizon"], window["t"]
    result = solve(build_problem(t, week[t:t + horizon], SocState(tuple(window["soc"])),
                                 specs, market), config)
    assert result.status == "optimal"
    assert abs(result.objective - window["objective"]) <= (
        catalogue["gap_tol"] * max(1.0, abs(window["objective"])))
