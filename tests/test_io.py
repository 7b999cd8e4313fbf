import configparser
import json

import pytest

from essdispatch.aging import SegmentSet
from essdispatch.fixture import DEFAULT_CONFIG, generate_series, write_default_config
from essdispatch.iofiles import (CSV_COLUMNS, DataError, RunConfig, emit_report,
                                 load_config, load_timeseries_csv,
                                 parse_segments, summary_dict,
                                 write_timeseries_csv)
from essdispatch.domain import MarketSpec
from essdispatch.rolling import ForecastModel, run_simulation
from essdispatch.solver import SolverConfig


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.ini"
    write_default_config(p)
    return p


def set_key(path, section, key, value):
    parser = configparser.ConfigParser()
    parser.read(path)
    parser[section][key] = value
    with path.open("w") as fh:
        parser.write(fh)


class TestTimeseriesCsv:
    def test_round_trip(self, tmp_path, week_series):
        p = tmp_path / "series.csv"
        write_timeseries_csv(p, week_series)
        back = load_timeseries_csv(p)
        assert back == week_series

    def test_missing_sale_price_derived(self, tmp_path):
        p = tmp_path / "series.csv"
        cols = [c for c in CSV_COLUMNS if c != "price_sale"]
        p.write_text(",".join(cols) + "\n"
                     "0,500,200,0.2,0.03,0.01,0.9,2.0,0,0.004\n")
        series = load_timeseries_csv(p, sale_price_ratio=0.5)
        assert series[0].price_sale == pytest.approx(0.1)

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("slot,demand_kw\n0,500\n")
        with pytest.raises(DataError, match="missing columns"):
            load_timeseries_csv(p)

    def test_bad_flag_names_row(self, tmp_path, week_series):
        p = tmp_path / "series.csv"
        write_timeseries_csv(p, week_series[:12])
        lines = p.read_text().splitlines()
        parts = lines[10].split(",")  # data row 9
        parts[CSV_COLUMNS.index("reg_up_flag")] = "2"
        lines[10] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="reg_up_flag '2' not binary at row 9"):
            load_timeseries_csv(p)

    def test_non_numeric_names_row_and_column(self, tmp_path, week_series):
        p = tmp_path / "series.csv"
        write_timeseries_csv(p, week_series[:3])
        lines = p.read_text().splitlines()
        parts = lines[3].split(",")  # data row 2
        parts[CSV_COLUMNS.index("demand_kw")] = "oops"
        lines[3] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="column demand_kw, row 2"):
            load_timeseries_csv(p)

    def test_negative_demand_rejected(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text(",".join(CSV_COLUMNS) + "\n"
                     "0,-5,200,0.2,0.12,0.03,0.01,0.9,2.0,0,0.004\n")
        with pytest.raises(DataError, match="slot 0: demand"):
            load_timeseries_csv(p)


    def test_nan_cell_rejected(self, tmp_path, week_series):
        p = tmp_path / "series.csv"
        write_timeseries_csv(p, week_series[:3])
        lines = p.read_text().splitlines()
        parts = lines[2].split(",")  # data row 1
        parts[CSV_COLUMNS.index("rmccp")] = "nan"
        lines[2] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="slot 1: price_rmccp nan is not finite"):
            load_timeseries_csv(p)


class TestParseSegments:
    def test_two_segments(self):
        got = parse_segments("1e-6:0.01, 0:0.02")
        assert got == SegmentSet(((1e-6, 0.01), (0.0, 0.02)))

    def test_negative_quadratic_rejected(self):
        with pytest.raises(ValueError):
            parse_segments("-1e-6:0.01")


class TestLoadConfig:
    def test_bundled_defaults(self, config_path):
        specs, market, solver, forecast, run = load_config(config_path, strict=True)
        assert [s.energy_capacity for s in specs] == [480.0, 720.0]
        assert specs[0].charge_rate_max == 102.0
        assert specs[0].discharge_rate_max == 74.0
        assert specs[0].eff_charge == 0.82
        assert specs[1].eff_discharge == 0.90
        assert specs[1].charge_rate_max == 148.0
        assert (specs[0].soc_min, specs[0].soc_max) == (0.2, 0.9)
        assert market.reg_min_power == 100.0
        assert market.reserve_min_power == 100.0
        assert market.reserve_min_duration == 1.0
        assert solver.gap_tol == 1e-6
        assert forecast.error_schedule(3) == pytest.approx(0.3)
        assert forecast.error_schedule(9) == pytest.approx(0.5)
        assert run.experiment == "single" and run.horizon == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[ess.1]\nsoc_min = 0.2\n")
        with pytest.raises(DataError, match=r"\[ess.1\] missing required key"):
            load_config(p)

    def test_unknown_key_strict_only(self, config_path):
        text = config_path.read_text().replace("[market]", "[market]\nbogus = 1")
        config_path.write_text(text)
        load_config(config_path)  # lenient mode tolerates it
        with pytest.raises(DataError, match=r"unknown keys \['bogus'\]"):
            load_config(config_path, strict=True)

    def test_unknown_section_strict_only(self, config_path):
        with config_path.open("a") as fh:
            fh.write("\n[mystery]\nx = 1\n")
        load_config(config_path)
        with pytest.raises(DataError, match=r"unknown sections \['mystery'\]"):
            load_config(config_path, strict=True)

    def test_invalid_spec_reported(self, config_path):
        text = config_path.read_text().replace("eff_charge = 0.82",
                                               "eff_charge = 1.5")
        config_path.write_text(text)
        with pytest.raises(DataError, match="eff_charge"):
            load_config(config_path)

    def test_custom_grids_and_segments(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            "[ess.1]\nenergy_capacity = 480\ncharge_rate_max = 102\n"
            "discharge_rate_max = 74\neff_charge = 0.82\neff_discharge = 0.88\n"
            "unit_capital_cost = 100\naging_segments = 1e-6:0.01, 0:0.02\n"
            "[run]\nalpha_grid = 100, 200\nhorizon_grid = 2, 4\nseeds = 7\n")
        specs, _, _, _, run = load_config(p, strict=True)
        assert specs[0].aging_segments == SegmentSet(((1e-6, 0.01), (0.0, 0.02)))
        assert run.alpha_grid == (100.0, 200.0)
        assert run.horizon_grid == (2, 4)
        assert run.seeds == (7,)

    def test_empty_grid_rejected(self):
        with pytest.raises(DataError, match="empty grid"):
            RunConfig(experiment="alpha-sweep", alpha_grid=())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(DataError, match="experiment 'bogus' is not one of"):
            RunConfig(experiment="bogus")

    def test_absent_sections_take_record_defaults(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[ess.1]\nenergy_capacity = 480\ncharge_rate_max = 102\n"
                     "discharge_rate_max = 74\neff_charge = 0.82\n"
                     "eff_discharge = 0.88\nunit_capital_cost = 100\n")
        specs, market, solver, forecast, run = load_config(p, strict=True)
        assert (specs[0].soc_min, specs[0].soc_max) == (0.2, 0.9)
        assert specs[0].charge_cost_fraction == 0.5
        assert (market, solver, forecast, run) == (
            MarketSpec(), SolverConfig(), ForecastModel(), RunConfig())

    @pytest.mark.parametrize("section,key,value", [
        ("ess.1", "energy_capacity", "abc"), ("run", "horizon", "two"),
        ("solver", "node_limit", "lots"), ("run", "horizon_grid", "1, x"),
        ("ess.1", "aging_segments", "0.1:y"), ("forecast", "seed", "1.5")])
    def test_malformed_value_names_section_and_key(self, config_path, section,
                                                   key, value):
        set_key(config_path, section, key, value)
        with pytest.raises(DataError, match=rf"\[{section}\] {key} = '{value}'"):
            load_config(config_path)

    @pytest.mark.parametrize("key,value", [("horizon", "0"), ("horizon", "-2"),
                                           ("horizon_grid", "1, 0")])
    def test_horizon_below_one_rejected(self, config_path, key, value):
        set_key(config_path, "run", key, value)
        with pytest.raises(DataError, match=r"\[run\] horizon .* must be >= 1"):
            load_config(config_path)

    @pytest.mark.parametrize("value", ["1.5", "0.1", "0.95"])
    def test_initial_soc_outside_a_corridor_rejected(self, config_path, value):
        set_key(config_path, "run", "initial_soc", value)
        with pytest.raises(DataError, match="initial_soc .* outside"):
            load_config(config_path)

    @pytest.mark.parametrize("old,new,message", [
        ("horizon = 4\n", "horizon = 4\nhorizon = 2\n", "'horizon'"),
        ("fixture_week.csv", "100%.csv", r"\[run\] '%'")])
    def test_unparsable_file_is_a_data_error(self, config_path, old, new, message):
        config_path.write_text(config_path.read_text().replace(old, new))
        with pytest.raises(DataError, match=message):
            load_config(config_path)

    @pytest.mark.parametrize("key,value,message", [
        ("alpha_grid", "-50, 100", "alpha_grid .* finite and >= 0"),
        ("alpha_grid", "nan", "alpha_grid .* finite and >= 0"),
        ("alpha_grid", "100, inf", "alpha_grid .* finite and >= 0"),
        ("seeds", "-1", r"seeds \(-1,\) must be >= 0"),
        ("seeds", "3, -2", "seeds .* must be >= 0")])
    def test_bad_grid_entry_rejected(self, config_path, key, value, message):
        set_key(config_path, "run", key, value)
        with pytest.raises(DataError, match=rf"\[run\] {message}"):
            load_config(config_path)

    def test_zero_alpha_and_seed_accepted(self):
        run = RunConfig(alpha_grid=(0.0, 50.0), seeds=(0, 1))
        assert run.alpha_grid == (0.0, 50.0) and run.seeds == (0, 1)

    @pytest.mark.parametrize("key,value", [("int_tol", "1e-6"), ("cut_tol", "1e-7"),
                                           ("cut_round_limit", "300")])
    def test_fixed_solver_tolerances_are_not_keys(self, config_path, key, value):
        set_key(config_path, "solver", key, value)
        assert load_config(config_path)[2] == SolverConfig(gap_tol=1e-6)
        with pytest.raises(DataError, match=rf"unknown keys \['{key}'\] in \[solver\]"):
            load_config(config_path, strict=True)

    def test_out_of_range_solver_value_is_a_data_error(self, config_path):
        set_key(config_path, "solver", "gap_tol", "0")
        with pytest.raises(DataError, match=r"\[solver\] gap_tol must be > 0"):
            load_config(config_path)

    @pytest.mark.parametrize("key,value,message", [
        ("gap_tol", "nan", "gap_tol must be > 0 and finite"),
        ("gap_tol", "inf", "gap_tol must be > 0 and finite"),
        ("node_limit", "0", "node_limit must be >= 1"),
        ("node_limit", "-5", "node_limit must be >= 1")])
    def test_bad_solver_value_rejected(self, config_path, key, value, message):
        set_key(config_path, "solver", key, value)
        with pytest.raises(DataError, match=rf"\[solver\] {message}"):
            load_config(config_path)

    @pytest.mark.parametrize("key,value,message", [
        ("kappa_step", "nan", "kappa_step must be >= 0 and finite"),
        ("kappa_step", "-0.1", "kappa_step must be >= 0 and finite"),
        ("kappa_cap", "inf", "kappa_cap must be >= 0 and finite"),
        ("kappa_cap", "-1", "kappa_cap must be >= 0 and finite"),
        ("clamp_low", "nan", "clamp_low and clamp_high must be finite"),
        ("clamp_high", "inf", "clamp_low and clamp_high must be finite"),
        ("clamp_low", "1.5", "clamp_low must be <= clamp_high")])
    def test_bad_forecast_value_rejected(self, config_path, key, value, message):
        set_key(config_path, "forecast", key, value)
        with pytest.raises(DataError, match=rf"\[forecast\] {message}"):
            load_config(config_path)

    def test_units_in_the_order_of_n(self, tmp_path):
        unit = ("charge_rate_max = 102\ndischarge_rate_max = 74\neff_charge = 0.82\n"
                "eff_discharge = 0.88\nunit_capital_cost = 100\n")
        p = tmp_path / "c.ini"
        p.write_text(f"[ess.10]\nenergy_capacity = 720\n{unit}"
                     f"[ess.9]\nenergy_capacity = 480\n{unit}")
        specs = load_config(p, strict=True)[0]
        assert [(s.id, s.energy_capacity) for s in specs] == [(1, 480.0), (2, 720.0)]

    def test_non_integer_unit_number_rejected(self, config_path):
        config_path.write_text(config_path.read_text().replace("[ess.2]", "[ess.b]"))
        with pytest.raises(DataError, match=r"\[ess\.b\] N of \[ess\.N\] must be an integer"):
            load_config(config_path)


@pytest.fixture(scope="module")
def report(request):
    specs, market, _, _, _ = load_config_from_default(request)
    series = generate_series(12)
    return run_simulation(series, specs, market, 2), specs, market


class TestEmitReport:
    def test_outputs_and_determinism(self, tmp_path, report):
        rep, _, _ = report
        a, b = tmp_path / "a", tmp_path / "b"
        emit_report(rep, a)
        emit_report(rep, b)
        for name in ("ledger.csv", "summary.json", "plotdata/soc.csv",
                     "plotdata/profit.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_summary_totals_match_ledger(self, tmp_path, report):
        rep, _, _ = report
        emit_report(rep, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["net_profit"] == pytest.approx(
            sum(e.net_profit for e in rep.ledger), rel=1e-8)
        assert summary["R_sc"] == pytest.approx(rep.totals["r_sc"], rel=1e-8)
        assert summary["ess_attributable_profit"] == pytest.approx(
            rep.net_profit - rep.baseline_profit, rel=1e-8, abs=1e-8)
        assert summary["solver"]["slots"] == len(rep.ledger)

    def test_summary_json_layout(self, tmp_path, report):
        rep, _, _ = report
        emit_report(rep, tmp_path)
        raw = (tmp_path / "summary.json").read_text()
        assert raw.endswith("\n")
        keys = list(json.loads(raw))
        assert keys == sorted(keys)

    def test_ledger_has_all_slots(self, tmp_path, report):
        rep, _, _ = report
        emit_report(rep, tmp_path)
        lines = (tmp_path / "ledger.csv").read_text().splitlines()
        assert len(lines) == 1 + len(rep.ledger)
        assert lines[0].startswith("slot,r_sc,r_fr,r_sr,r_br,aging_cost")

    def test_summary_dict_float_rounding(self, report):
        rep, _, _ = report
        summary = summary_dict(rep)
        assert isinstance(summary["net_profit"], float)


def load_config_from_default(request):
    p = request.config.rootpath / "data" / "default_config.ini"
    if p.exists():
        return load_config(p)
    import tempfile, pathlib
    tmp = pathlib.Path(tempfile.mkdtemp()) / "c.ini"
    tmp.write_text(DEFAULT_CONFIG)
    return load_config(tmp)
