import csv
import json
from dataclasses import replace

import pytest

from essdispatch.cli import main, run_experiment
from essdispatch.fixture import generate_series
from essdispatch.iofiles import DataError, load_config, write_timeseries_csv

from conftest import BUNDLED_CONFIG


@pytest.fixture
def workdir(tmp_path, config_path):
    """tmp_path with config_path's config.ini and a 10-slot series.csv."""
    write_timeseries_csv(tmp_path / "series.csv", generate_series(10))
    return tmp_path


def run_cli(workdir, *extra):
    return main(["--config", str(workdir / "config.ini"),
                 "--series", str(workdir / "series.csv"), *extra])


class TestMain:
    def test_single_run_writes_reports(self, workdir, capsys):
        out = workdir / "out"
        assert run_cli(workdir, "--out", str(out)) == 0
        assert (out / "ledger.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "net_profit" in summary
        assert f"wrote results to {out}" in capsys.readouterr().out

    def test_repeat_runs_byte_identical(self, workdir):
        a, b = workdir / "a", workdir / "b"
        assert run_cli(workdir, "--out", str(a)) == 0
        assert run_cli(workdir, "--out", str(b)) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        assert (a / "ledger.csv").read_bytes() == (b / "ledger.csv").read_bytes()

    @pytest.mark.parametrize("horizon", [2, 3])
    def test_sweeps_in_one_process_byte_identical(self, tmp_path, horizon):
        # no warm model outlives a run: a second alpha-sweep in the same
        # process writes the same bytes as the first.  One sweep point, so
        # that a model set kept from one run to the next would still hold
        # the first run's shapes; such a set changes this ledger at H=2 and 3.
        specs, market, solver, forecast, run = load_config(BUNDLED_CONFIG)
        series = generate_series()[:48]
        trees = []
        for name in ("a", "b"):
            out = run_experiment(series, specs, market, solver, forecast,
                                 replace(run, experiment="alpha-sweep",
                                         horizon=horizon, alpha_grid=(50.0,),
                                         out_dir=str(tmp_path / name)))
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 5
        assert trees[0] == trees[1]

    def test_alpha_sweep_table(self, workdir):
        out = workdir / "sweep"
        config = workdir / "config.ini"
        config.write_text(config.read_text().replace("horizon = 4", "horizon = 2")
                          + "alpha_grid = 100, 400\n")
        assert run_cli(workdir, "--experiment", "alpha-sweep",
                       "--out", str(out)) == 0
        lines = (out / "alpha_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,net_profit,ess_attributable_profit"
        assert len(lines) == 3
        assert (out / "alpha_100" / "summary.json").exists()

    def test_forecast_study_summary(self, workdir):
        out = workdir / "fc"
        config = workdir / "config.ini"
        config.write_text(config.read_text().replace("horizon = 4", "horizon = 2")
                          + "seeds = 1, 2\n")
        assert run_cli(workdir, "--experiment", "forecast-study",
                       "--out", str(out)) == 0
        summary = json.loads((out / "forecast_summary.json").read_text())
        assert len(summary["differences"]) == 2
        assert (out / "perfect" / "ledger.csv").exists()
        assert (out / "seed_1" / "ledger.csv").exists()

    def test_sweep_points_use_perfect_forecasts(self, tmp_path):
        # a point at the config's own capital cost or horizon, and the
        # forecast study's perfect/ run, write the single run's bytes
        specs, market, solver, forecast, run = load_config(BUNDLED_CONFIG)
        assert {s.unit_capital_cost for s in specs} == {100.0}
        run = replace(run, horizon=3, alpha_grid=(100.0,), horizon_grid=(3,),
                      seeds=(1,))
        series = generate_series()[:24]
        outs = {experiment: run_experiment(
                    series, specs, market, solver, forecast,
                    replace(run, experiment=experiment,
                            out_dir=str(tmp_path / experiment)))
                for experiment in ("single", "alpha-sweep", "horizon-sweep",
                                   "forecast-study")}
        points = [outs["alpha-sweep"] / "alpha_100", outs["horizon-sweep"] / "h_3",
                  outs["forecast-study"] / "perfect"]
        for name in ("ledger.csv", "summary.json"):
            single = (outs["single"] / name).read_bytes()
            assert [(point / name).read_bytes() for point in points] == [single] * 3
            # the seed point runs on forecasts, so its ledger differs
            seeded = outs["forecast-study"] / "seed_1" / name
            assert seeded.read_bytes() != single

    @pytest.mark.parametrize("experiment,grid,name,header,cells", [
        ("horizon-sweep", {"horizon_grid": (1, 2)}, "h_2",
         "horizon,net_profit,ess_attributable_profit", ["1", "2"]),
        ("forecast-study", {"seeds": (1234567,)}, "seed_1234567",
         "seed,net_profit,profit_difference", ["1234567"]),
        ("alpha-sweep", {"alpha_grid": (123.4567891,)}, "alpha_123.457",
         "alpha,net_profit,ess_attributable_profit", ["123.456789"])])
    def test_point_labels(self, tmp_path, experiment, grid, name, header, cells):
        # a point's directory and table cell: no exponent for a large seed,
        # six significant digits in a directory and nine in a table
        specs, market, solver, forecast, run = load_config(BUNDLED_CONFIG)
        out = run_experiment(generate_series(4), specs, market, solver, forecast,
                             replace(run, experiment=experiment, horizon=1,
                                     out_dir=str(tmp_path / "out"), **grid))
        lines = (out / f"{experiment.replace('-', '_')}.csv").read_text().splitlines()
        assert lines[0] == header
        assert [line.split(",")[0] for line in lines[1:]] == cells
        assert (out / name / "ledger.csv").exists()
        assert (out / name / "summary.json").exists()

    def test_bad_config_exit_code(self, workdir, capsys):
        config = workdir / "config.ini"
        config.write_text(config.read_text().replace("soc_min = 0.2",
                                                     "soc_min = 0.95"))
        assert run_cli(workdir) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,message", [
        ("energy_capacity = 480", "energy_capacity = abc", "[ess.1] energy_capacity"),
        ("horizon = 4", "horizon = two", "[run] horizon"),
        ("[solver]\n", "[solver]\nnode_limit = lots\n", "[solver] node_limit"),
        ("[solver]\n", "[solver]\nnode_limit = 0\n", "[solver] node_limit must be"),
        ("gap_tol = 1e-6", "gap_tol = nan", "[solver] gap_tol must be"),
        ("kappa_step = 0.1", "kappa_step = nan", "[forecast] kappa_step must be"),
        ("horizon = 4", "horizon = 0", "must be >= 1"),
        ("initial_soc = 0.5", "initial_soc = 1.5", "initial_soc 1.5 outside")])
    def test_bad_config_value_exit_code(self, workdir, capsys, old, new, message):
        config = workdir / "config.ini"
        config.write_text(config.read_text().replace(old, new, 1))
        assert run_cli(workdir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("line,experiment,key", [
        ("alpha_grid = -50, 100", "alpha-sweep", "alpha_grid"),
        ("alpha_grid = nan", "alpha-sweep", "alpha_grid"),
        ("seeds = -1", "forecast-study", "seeds"),
        # points that would write the same directory
        ("alpha_grid = 50, 50.0000001", "alpha-sweep", "alpha_grid"),
        ("seeds = 1, 1", "forecast-study", "seeds"),
        ("horizon_grid = 2, 2", "horizon-sweep", "horizon_grid")])
    def test_bad_grid_exit_code(self, workdir, capsys, line, experiment, key):
        config = workdir / "config.ini"
        config.write_text(config.read_text() + line + "\n")
        out = workdir / "out"
        assert run_cli(workdir, "--experiment", experiment, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"[run] {key} " in err
        assert not out.exists()

    @pytest.mark.parametrize("slots,experiment,key", [
        (2, "single", "horizon"), (2, "alpha-sweep", "horizon"),
        (2, "forecast-study", "horizon"), (5, "horizon-sweep", "horizon_grid")])
    def test_series_shorter_than_horizon_exit_code(self, workdir, capsys, slots,
                                                  experiment, key):
        # horizon = 4 in the config; the horizon sweep's longest is 6
        write_timeseries_csv(workdir / "series.csv", generate_series(slots))
        out = workdir / "out"
        assert run_cli(workdir, "--experiment", experiment, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"[run] {key} " in err
        assert f"the {slots} slots of" in err
        assert not out.exists()

    def test_library_run_checks_series_before_writing(self, workdir):
        specs, market, solver, forecast, run = load_config(workdir / "config.ini")
        out = workdir / "out"
        run = replace(run, experiment="horizon-sweep", out_dir=str(out))
        with pytest.raises(DataError, match=r"\[run\] horizon_grid 6 longer "
                                            r"than the 5 slots"):
            run_experiment(generate_series(5), specs, market, solver, forecast, run)
        assert not out.exists()

    @pytest.mark.parametrize("strict", [(), ("--strict",)])
    def test_unknown_experiment_exit_code(self, workdir, capsys, strict):
        config = workdir / "config.ini"
        config.write_text(config.read_text().replace("experiment = single",
                                                     "experiment = bogus"))
        out = workdir / "out"
        assert run_cli(workdir, "--out", str(out), *strict) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[run] experiment 'bogus'" in err
        assert not out.exists()

    def test_zero_discharge_rate_runs(self, workdir):
        # a unit that cannot discharge: its McCormick rows pin z and its
        # reserve to 0, so it neither discharges nor commits reserve
        config = workdir / "config.ini"
        config.write_text(config.read_text().replace(
            "discharge_rate_max = 74", "discharge_rate_max = 0", 1))
        out = workdir / "out"
        assert run_cli(workdir, "--strict", "--out", str(out)) == 0
        with (out / "ledger.csv").open(newline="") as fh:
            ledger = list(csv.DictReader(fh))
        assert len(ledger) == 10
        assert all(float(row[col]) == 0.0 for row in ledger
                   for col in ("discharge_kw_0", "reserve_kw_0"))

    def test_bad_series_exit_code(self, workdir, capsys):
        (workdir / "series.csv").write_text("slot,demand_kw\n0,1\n")
        assert run_cli(workdir) == 2
        assert "missing columns" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["absent-series", "series-directory",
                                      "latin-1-series", "latin-1-config"])
    def test_unreadable_file_exit_code(self, workdir, capsys, case):
        # each names the file it cannot read, exits 2 and writes nothing
        config, series = workdir / "config.ini", workdir / "series.csv"
        if case == "absent-series":
            series = workdir / "absent.csv"
        elif case == "series-directory":
            series = workdir
        elif case == "latin-1-series":
            series.write_bytes(series.read_bytes().replace(b"slot,", b"sl\xf6t,", 1))
        else:
            config.write_bytes(b"# caf\xe9\n" + config.read_bytes())
        out = workdir / "out"
        assert main(["--config", str(config), "--series", str(series),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        bad = config if case == "latin-1-config" else series
        assert err.startswith(f"error: {bad}: cannot read")
        assert not out.exists()

    @pytest.mark.parametrize("experiment,under", [("single", ""),
                                                  ("alpha-sweep", "sub")])
    def test_out_naming_a_file_exit_code(self, workdir, capsys, experiment, under):
        # an --out that is a file, or lies under one, names the path and
        # exits 2 without a traceback
        blocker = workdir / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / under if under else blocker
        assert run_cli(workdir, "--experiment", experiment, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot create output directory")
        assert blocker.read_text() == "not a directory\n"

    def test_missing_series_argument(self, workdir, tmp_path):
        cfg = tmp_path / "noseries.ini"
        text = (workdir / "config.ini").read_text().replace(
            "series_path = data/fixture_week.csv\n", "")
        cfg.write_text(text)
        with pytest.raises(SystemExit):
            main(["--config", str(cfg)])

    def test_strict_flag(self, workdir):
        config = workdir / "config.ini"
        config.write_text(config.read_text() + "\n[bogus]\nx = 1\n")
        out = str(workdir / "out")
        assert run_cli(workdir, "--out", out) == 0
        assert run_cli(workdir, "--strict", "--out", out) == 2
