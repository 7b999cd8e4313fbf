#!/usr/bin/env python3
"""Benchmark of essdispatch: decision throughput and latency per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rolling-h4 [--seed N] [--seconds S] [--trace 0|1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a run whose layer calls are traced.  The
exit code is 0 only when every correctness check passed.  ``--smoke`` runs
the same code at a tiny size, for the benchmark's own tests.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("rolling-h4", "windows-h5", "sweep-h1")
SETUP_PROBES = 5
MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "solver.lp.calls": "count",
    "solver.lp.s": "s",
    "solver.lp.iters": "count",
    "solver.lp.rows_mean": "rows",
    "solver.lp.per_solve": "calls/solve",
    "solver.milp.calls": "count",
    "solver.nodes.total": "count",
    "solver.nodes.p50": "count",
    "solver.nodes.max": "count",
    "solver.relaxation.calls": "count",
    "solver.relaxation.s": "s",
    "solver.cuts.added": "count",
    "solver.cutpool.calls": "count",
    "solver.cutpool.s": "s",
    "problem.build.calls": "count",
    "problem.build.s": "s",
    "problem.rows_mean": "rows",
    "problem.nnz_mean": "count",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.nonoptimal": "count",
    "problem.decode.s": "s",
    "rolling.self_s": "s",
    "rolling.forecast.calls": "count",
    "rolling.repair.s": "s",
    "rolling.repair.curtailed_kwh": "kWh",
    "rolling.accounting.s": "s",
    "domain.soc_update.s": "s",
    "iofiles.emit_report.calls": "count",
    "cli.sweep.points": "count",
    "iofiles.load_config.s": "s",
    "fixture.generate_series.s": "s",
    "essdispatch.import_s": "s",
    "trace.decisions_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the fixture seed, which "
                         "reproduces data/fixture_week.csv)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure whole passes until within half a pass of "
                         "this many seconds (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git clone."""
    if not (ROOT / ".git").exists():  # not a clone; do not report an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": git_commit(),
            "workload_seed": seed}


class Section:
    """Whole passes of one workload and what their checks found.

    Runs at least ``passes`` passes, and more while the next one is expected
    to end no later than half a pass after ``seconds``, so the measured time
    stays within half a pass of ``seconds``.

    Every pass repeats the same decisions.  The shared machine this was tuned
    on runs each stretch of time in one of two speed modes, 1.6x apart, and
    the share of time in the fast mode drifts over minutes.  The fastest or
    slowest of a decision's repeats jumps from one mode to the other as that
    share drifts; a mean follows it smoothly.  So a decision's latency is its
    mean over the passes, and throughput is that of all passes together.
    """

    def __init__(self, workload, seconds: float = 0.0, passes: int = 1):
        self.pass_s: list[float] = []
        self.outcomes = []
        while (len(self.outcomes) < passes
               or sum(self.pass_s) + statistics.fmean(self.pass_s) / 2 < seconds):
            t0 = time.perf_counter()
            outputs = workload.execute()
            self.pass_s.append(time.perf_counter() - t0)
            self.outcomes.append(workload.check(outputs))

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def problems(self) -> list[str]:
        return [p for o in self.outcomes for p in o.problems]

    @property
    def latencies(self) -> list[float]:
        """Each decision's mean latency over the passes."""
        runs = [o.latencies_s for o in self.outcomes]
        if len({len(r) for r in runs}) != 1:  # a pass failed part-way
            return [x for r in runs for x in r]
        return [statistics.fmean(xs) for xs in zip(*runs)]

    @property
    def decisions_per_s(self) -> float:
        """Decisions completed per second of the timed passes."""
        return (self.attempted - self.failed) / sum(self.pass_s)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_times(args, seed: int, probes: int) -> list[float]:
    """Seconds from starting a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(ready - t0)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "essdispatch").is_dir():
        print(f"error: {ROOT} is not a checkout of essdispatch "
              "(src/essdispatch is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import essdispatch  # noqa: F401  (timed: pulls in numpy and scipy)
    import_s = time.perf_counter() - t0
    from essdispatch.fixture import FIXTURE_SEED

    import workloads

    seed = FIXTURE_SEED if args.seed is None else args.seed
    cls = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"run-{os.getpid()}"

    if args.setup_probe:
        cls(seed, args.smoke, scratch)
        print("ready", flush=True)
        return 0

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    tracer = None
    if args.trace:
        from tracing import Tracer

        # Set-up and passes get a tracer each, so that per-pass figures
        # never include the set-up calls.
        setup_tracer = Tracer(cls.decision_span)
        with setup_tracer:
            workload = cls(seed, args.smoke, scratch)
    else:
        workload = cls(seed, args.smoke, scratch)

    try:
        workload.warm_up()
        if args.trace:
            # Half the time untraced, then as many passes traced, so that both
            # halves average the same number of passes.
            section = Section(workload, seconds / 2)
            tracer = Tracer(cls.decision_span)
            with tracer:
                traced = Section(workload, passes=len(section.pass_s))
        else:
            section = Section(workload, seconds)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    rss_mb = peak_rss_mb()  # before any child: a forked child starts at our size
    env = environment(seed)
    problems = list(section.problems)
    attempted, failed = section.attempted, section.failed
    samples = len(section.latencies)
    if not args.smoke and samples < MIN_SAMPLES:
        problems.append(f"only {samples} latency samples, fewer than {MIN_SAMPLES}")

    if tracer is None:
        values = {
            "decisions_per_s": section.decisions_per_s,
            "decision_p50_ms": 1e3 * percentile(section.latencies, 50),
            "decision_p90_ms": 1e3 * percentile(section.latencies, 90),
            "peak_rss_mb": rss_mb,
        }
        setup = setup_times(args, seed, 1 if args.smoke else SETUP_PROBES)
        values["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
        extra = {"setup_samples_s": setup}
    else:
        from tracing import layer_metrics

        problems += traced.problems
        attempted += traced.attempted
        failed += traced.failed
        values = layer_metrics(tracer, len(traced.pass_s))
        setup_layers = setup_tracer.layer_times()
        for name in ("iofiles.load_config", "fixture.generate_series"):
            values[f"{name}.s"] = setup_layers[name]["s"]
        values["essdispatch.import_s"] = import_s
        values["trace.decisions_per_s"] = traced.decisions_per_s
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - traced.decisions_per_s / section.decisions_per_s)
        units = PER_LAYER_UNITS
        layers = tracer.layer_times()
        extra = {"layers_per_pass": {
            name: {k: v / len(traced.pass_s) for k, v in row.items()}
            for name, row in layers.items()}, "setup_layers": setup_layers}
        print(f"traced: {len(traced.pass_s)} pass(es); seconds and calls per pass")
        print_layers(extra["layers_per_pass"])

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.csv")
    record = dict(result, workload=args.workload, environment=env,
                  pass_s=section.pass_s,
                  latency_samples=samples, problems=problems,
                  latencies_ms=[1e3 * x for o in section.outcomes
                                for x in o.latencies_s], **extra)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: {len(section.pass_s)} pass(es) of "
          f"{', '.join(f'{s:.2f}' for s in section.pass_s)} s; "
          f"{samples} decision latencies, each the mean over the passes")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def print_layers(layers: dict) -> None:
    total = sum(row["self_s"] for row in layers.values()) or 1.0
    print(f"{'span':24s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:24s} {row['calls']:8.1f} {row['s']:10.4f} "
              f"{row['self_s']:10.4f} {100 * row['self_s'] / total:6.1f}")


if __name__ == "__main__":
    sys.exit(main())
