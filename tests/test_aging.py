import numpy as np
import pytest
from scipy.optimize import linprog

from essdispatch.aging import (SegmentSet, aging_cost_eval, cost_scale,
                               segment_coefficients, segment_max, zeta_bounds)
from essdispatch.problem import window_template

from conftest import make_spec

TWO_SEGMENTS = SegmentSet(((1e-6, 0.01), (0.0, 0.02)))


def f(coef, p_charge, p_discharge):
    """One segment's f_k at the given rates, from its segment_coefficients."""
    quad_c, lin_c, quad_d, lin_d = coef
    return (quad_c * p_charge * p_charge + lin_c * p_charge
            + quad_d * p_discharge * p_discharge + lin_d * p_discharge)


def aging_cost_lp(spec, p_charge, p_discharge, slot_hours):
    """Independent oracle: solve min zeta s.t. zeta >= f_k as an explicit LP."""
    consts = [f(coef, p_charge, p_discharge)
              for coef in segment_coefficients(spec)]
    # one variable, one row per segment: -zeta <= -f_k
    res = linprog([1.0], A_ub=-np.ones((len(consts), 1)),
                  b_ub=[-c for c in consts], bounds=[(None, None)],
                  method="highs")
    assert res.status == 0
    return cost_scale(spec, slot_hours) * res.fun


class TestAgingCostEval:
    def test_zero_rates_zero_cost(self, spec1):
        assert aging_cost_eval(spec1, 0.0, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("segments", [
        None, TWO_SEGMENTS, SegmentSet(((0.0, -0.02), (1e-6, 0.0))),
        SegmentSet(((0.0, 0.0),))])
    @pytest.mark.parametrize("capital_cost", [0.0, 100.0])
    def test_idle_unit_costs_exactly_zero(self, segments, capital_cost):
        # an idle unit's cost is returned without evaluating the segments;
        # it must be the evaluation's value, 0.0 with a positive sign, for
        # either sign of zero rate and negative, zero or positive slopes
        overrides = {} if segments is None else {"aging_segments": segments}
        for ess_type in (1, 2):
            spec = make_spec(ess_type, unit_capital_cost=capital_cost, **overrides)
            for slot_hours in (1.0, 0.5):
                for pc, pd in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
                    evaluated = cost_scale(spec, slot_hours) * segment_max(
                        segment_coefficients(spec), pc, pd)
                    got = aging_cost_eval(spec, pc, pd, slot_hours)
                    assert repr(got) == repr(evaluated) == "0.0"

    def test_single_linear_segment_closed_form(self):
        spec = make_spec(1, aging_segments=SegmentSet(((0.0, 0.02),)))
        gamma, ec, ed = 0.5, spec.eff_charge, spec.eff_discharge
        n = spec.module_count
        pc, pd = 30.0, 40.0
        expected = cost_scale(spec, 1.0) * (
            gamma * ec * n * 0.02 * pc + (1 - gamma) / ed * n * 0.02 * pd)
        assert aging_cost_eval(spec, pc, pd, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_lp_two_segments(self):
        spec = make_spec(1, aging_segments=TWO_SEGMENTS)
        got = aging_cost_eval(spec, 50.0, 0.0, 1.0)
        want = aging_cost_lp(spec, 50.0, 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("ess_type", [1, 2])
    def test_matches_lp_on_grid(self, ess_type):
        spec = make_spec(ess_type)
        for pc in np.linspace(0, spec.charge_rate_max, 20):
            for pd in np.linspace(0, spec.discharge_rate_max, 20):
                got = aging_cost_eval(spec, pc, pd, 1.0)
                want = aging_cost_lp(spec, pc, pd, 1.0)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("ess_type", [1, 2])
    def test_convex_and_monotone_on_grid(self, ess_type):
        spec = make_spec(ess_type)
        pcs = np.linspace(0, spec.charge_rate_max, 15)
        pds = np.linspace(0, spec.discharge_rate_max, 15)
        vals = np.array([[aging_cost_eval(spec, pc, pd, 1.0) for pd in pds]
                         for pc in pcs])
        # nondecreasing along each axis
        assert (np.diff(vals, axis=0) >= -1e-12).all()
        assert (np.diff(vals, axis=1) >= -1e-12).all()
        # midpoint convexity along each axis
        assert (vals[:-2] + vals[2:] - 2 * vals[1:-1] >= -1e-9).all()
        assert (vals[:, :-2] + vals[:, 2:] - 2 * vals[:, 1:-1] >= -1e-9).all()

    def test_negative_rate_rejected(self, spec1):
        with pytest.raises(ValueError):
            aging_cost_eval(spec1, -1.0, 0.0, 1.0)

    def test_empty_segment_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SegmentSet(())

    def test_negative_quadratic_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            SegmentSet(((-1e-6, 0.01),))


class TestEpigraphRows:
    def test_one_row_per_segment(self, spec1, market):
        assert len(segment_coefficients(spec1)) == len(spec1.aging_segments)
        # the template's rows of unit 0 at slot 5 are one per segment, on
        # that unit's and slot's columns
        tpl = window_template((spec1,), market, 6)
        rows = [k for k, name in enumerate(tpl.quad_names)
                if name.startswith("aging[0,5,")]
        assert len(rows) == len(spec1.aging_segments)
        assert tpl.qcols[:, rows].T.tolist() == [
            [tpl.cols[var][0, 5] for var in ("pc", "pd", "zeta")]] * len(rows)

    def test_linear_segments_have_zero_quadratics(self):
        spec = make_spec(1, aging_segments=SegmentSet(((0.0, 0.01), (0.0, 0.02))))
        for quad_c, _, quad_d, _ in segment_coefficients(spec):
            assert quad_c == 0.0 and quad_d == 0.0

    @pytest.mark.parametrize("ess_type", [1, 2])
    def test_rows_consistent_with_evaluator(self, ess_type):
        # max over row values must equal the evaluator up to its cost scale.
        spec = make_spec(ess_type)
        coefs = segment_coefficients(spec)
        rng = np.random.default_rng(7)
        for _ in range(400):
            pc = rng.uniform(0, spec.charge_rate_max)
            pd = rng.uniform(0, spec.discharge_rate_max)
            row_max = max(f(coef, pc, pd) for coef in coefs)
            assert row_max == pytest.approx(
                aging_cost_eval(spec, pc, pd, 1.0) / cost_scale(spec, 1.0),
                rel=1e-12)

    def test_zeta_bounds_cover_box(self, spec1):
        lo, hi = zeta_bounds(spec1)
        rng = np.random.default_rng(3)
        for _ in range(200):
            pc = rng.uniform(0, spec1.charge_rate_max)
            pd = rng.uniform(0, spec1.discharge_rate_max)
            val = segment_max(segment_coefficients(spec1), pc, pd)
            assert lo - 1e-9 <= val <= hi + 1e-9
