#!/usr/bin/env python3
"""Record the optimal objective of every window in the windows-h5 catalogue.

    python3 perfbench/record_reference.py

Writes reference/windows_h5.json.  The benchmark checks each later solve of
these windows against it, so run this only at a commit whose solver is
trusted, and commit the file with the commit it came from.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import essdispatch  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    wl = workloads.WindowsH5(0, False, HERE)
    rows = []
    for t, window, state in sorted(wl.windows, key=lambda w: (w[0], w[2].soc)):
        result = essdispatch.solve(
            essdispatch.build_problem(t, window, state, wl.specs, wl.market), wl.solver)
        if result.status != "optimal":
            print(f"window t={t} soc={state.soc}: {result.status}", file=sys.stderr)
            return 1
        rows.append({"t": t, "soc": list(state.soc), "objective": result.objective})
    record = {"git_commit": run.git_commit(), "gap_tol": wl.solver.gap_tol,
              "windows": rows}
    workloads.WINDOW_REFERENCE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(rows)} objectives to {workloads.WINDOW_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
