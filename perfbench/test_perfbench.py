"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``.

Every workload runs in smoke mode (a few slots or windows), traced and
untraced, and must print a result line that matches BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["solver.lp.calls"]["value"] > 0


def test_outside_a_checkout_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "rolling-h4", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_seed_sets_inputs(tmp_path):
    def windows(seed):
        return [(t, s.soc) for t, _, s in workloads.WindowsH5(seed, False, tmp_path).windows]

    a, b, c = windows(5), windows(5), windows(6)
    assert a == b and a != c and sorted(a) == sorted(c)
    assert len(a) >= run.MIN_SAMPLES
    soc_min = [spec.soc_min for spec in workloads.WindowsH5(5, True, tmp_path).specs]
    pinned = sum(soc == low for _, socs in a for soc, low in zip(socs, soc_min))
    assert pinned == len(a) * len(soc_min) // 2
    assert workloads.SweepH1(5, False, tmp_path).slots != workloads.SweepH1(6, False, tmp_path).slots


def test_check_report_catches_soc_and_total_errors(tmp_path):
    wl = workloads.RollingH4(3, True, tmp_path)
    report, timer, error = wl.execute()
    assert error is None and wl.check((report, timer, error)).problems == []
    report.totals["r_sc"] += 1.0
    entry = report.ledger[0]
    report.ledger[0] = type(entry)(**{**entry.__dict__, "soc": (0.95, entry.soc[1])})
    problems = workloads.check_report(report, wl.specs, wl.market.slot_hours,
                                      len(wl.slots))
    assert any("outside its corridor" in p for p in problems)
    assert any("does not follow its committed flows" in p for p in problems)
    assert any("ledger total r_sc" in p for p in problems)


def test_timed_solve_counts_failed_slots(tmp_path):
    timer = workloads._TimedSolve()
    timer.calls = [(0.1, "optimal"), (0.1, "optimal"), (0.1, "node-limit")]
    out = workloads._rolling_outcome(timer, 10, "SimulationError: node-limit")
    assert (out.attempted, out.failed) == (10, 8)
    timer.calls = [(0.1, "optimal")] * 3
    assert workloads._rolling_outcome(timer, 10, "ValueError").failed == 8


def test_tracer_self_time_and_restore(tmp_path):
    import scipy.optimize

    import essdispatch
    from essdispatch import rolling, solver

    original = rolling.solve
    tracer = Tracer("solver.solve")
    with tracer:
        assert rolling.solve is not original and essdispatch.solve is not original
        workloads.RollingH4(3, True, tmp_path).warm_up()
    assert rolling.solve is original and solver.linprog is scipy.optimize.linprog
    layers = tracer.layer_times()
    assert layers["iofiles.load_config"]["calls"] == 1
    solve = layers["solver.solve"]
    children = sum(rec[2] - rec[1] for rec in tracer.spans
                   if rec[3] >= 0 and tracer.spans[rec[3]][0] == "solver.solve")
    assert children > 0
    assert solve["self_s"] == pytest.approx(solve["s"] - children, abs=1e-9)
    assert tracer.decision == 1
    assert all(rec[4] == 0 for rec in tracer.spans)


def test_traced_figures_are_per_pass(tmp_path):
    wl = workloads.RollingH4(3, True, tmp_path)
    wl.warm_up()
    figures = []
    for passes in (1, 2):
        tracer = Tracer(wl.decision_span)
        with tracer:
            section = run.Section(wl, passes=passes)
        assert len(section.pass_s) == passes
        values = layer_metrics(tracer, passes)
        figures.append({name: value for name, value in values.items()
                        if run.PER_LAYER_UNITS[name] != "s"})
    assert figures[0]["solver.lp.calls"] > 0
    assert figures[1] == pytest.approx(figures[0], rel=1e-9, abs=1e-12)


class FakeWorkload:
    """Each pass takes 4 s on a fake clock; in pass k its two decisions take k and 3k ms."""

    def __init__(self, clock):
        self.clock = clock
        self.passes = 0

    def execute(self):
        self.passes += 1
        self.clock[0] += 4.0
        return self.passes

    def check(self, k):
        return workloads.Outcome(2, 0, [0.001 * k, 0.003 * k])


def test_section_stops_near_seconds_and_averages_passes(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    assert len(run.Section(FakeWorkload(clock), seconds=10).pass_s) == 2
    section = run.Section(FakeWorkload(clock), seconds=11)
    assert section.pass_s == [4.0, 4.0, 4.0]
    assert section.decisions_per_s == pytest.approx(6 / 12.0)
    assert section.latencies == pytest.approx([0.002, 0.006])
