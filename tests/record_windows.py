#!/usr/bin/env python3
"""Record the hard windows of the bundled week under a perfect forecast.

    PYTHONPATH=src python3 tests/record_windows.py HORIZON MIN_NODES

Runs the bundled config over the bundled week at the given horizon and writes
tests/data/windows_h<HORIZON>.json: every window whose solve took at least
MIN_NODES branch-and-bound nodes, with its first slot t, the SOCs it started
from, its node count and its objective.  test_windows.py re-solves them, so
run this only at a commit whose solver is trusted, and commit the file with
the commit it came from.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from essdispatch.domain import SocState
from essdispatch.fixture import generate_series
from essdispatch.iofiles import load_config
from essdispatch.problem import build_problem
from essdispatch.rolling import run_simulation
from essdispatch.solver import solve

from conftest import BUNDLED_CONFIG

DATA = Path(__file__).resolve().parent / "data"


def main(horizon: int, min_nodes: int) -> int:
    specs, market, config, _, _ = load_config(BUNDLED_CONFIG)
    week = generate_series()
    report = run_simulation(week, specs, market, horizon, config=config)
    socs = [report.initial_soc] + [e.soc for e in report.ledger]
    windows = []
    for t, nodes in enumerate(report.node_counts):
        if nodes < min_nodes:
            continue
        result = solve(build_problem(t, week[t:t + horizon], SocState(socs[t]),
                                     specs, market), config)
        windows.append({"t": t, "soc": list(socs[t]), "nodes": nodes,
                        "objective": result.objective})
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=DATA.parent).stdout.strip()
    path = DATA / f"windows_h{horizon}.json"
    path.write_text(json.dumps({"git_commit": commit, "horizon": horizon,
                                "gap_tol": config.gap_tol, "windows": windows},
                               indent=1) + "\n")
    print(f"wrote {len(windows)} windows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
