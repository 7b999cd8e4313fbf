"""Piecewise aging-cost model for battery cycling.

The cost of charging at rate p_c and discharging at rate p_d for one slot is a
convex piecewise function: the pointwise maximum over a set of segments, each
segment quadratic-plus-linear in the rates, scaled by capital cost per usable
capacity.  The same segments appear twice: as a closed-form evaluator used for
accounting, and as epigraph rows handed to the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .domain import EssSpec

# Scale factor on the quadratic rate terms inside each segment.
RATE_QUAD_SCALE = 1000.0
# Fraction of nameplate capacity treated as usable when amortizing capital cost.
USABLE_CAPACITY_FRACTION = 0.8


@dataclass(frozen=True)
class SegmentSet:
    """Ordered (a_k, b_k) coefficients of the aging-cost segments."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValueError("segment set must contain at least one segment")
        for k, (a, b) in enumerate(self.segments):
            if a < 0:
                raise ValueError(f"segment {k}: quadratic coefficient a={a} must be >= 0")

    def __len__(self):
        return len(self.segments)


# Illustrative 3-segment default.  NOT fitted to any physical cell; it exists so
# the repo runs end to end without external coefficient data.  Magnitudes are
# chosen so that on the bundled fixture cycling is clearly profitable at low
# capital cost and stops being worthwhile somewhere around 300 currency/kWh,
# with the quadratic segment binding at high rates.
DEFAULT_SEGMENTS = SegmentSet(((1e-5, 4e-6), (4e-6, 8e-6), (0.0, 1.2e-5)))


@dataclass(frozen=True)
class EpigraphRow:
    """One segment's constraint  f_k(p_c, p_d) - zeta <= 0  for one (ess, slot).

    f_k = quad_c*p_c^2 + lin_c*p_c + quad_d*p_d^2 + lin_d*p_d.
    """

    ess: int
    slot: int
    segment: int
    quad_c: float
    lin_c: float
    quad_d: float
    lin_d: float

    def value(self, p_charge: float, p_discharge: float) -> float:
        return (self.quad_c * p_charge * p_charge + self.lin_c * p_charge
                + self.quad_d * p_discharge * p_discharge + self.lin_d * p_discharge)


def _axis_weights(spec: "EssSpec") -> tuple[float, float]:
    """Charge-side and discharge-side multipliers applied to every segment."""
    w_charge = spec.charge_cost_fraction * spec.eff_charge
    w_discharge = (1.0 - spec.charge_cost_fraction) / spec.eff_discharge
    return w_charge, w_discharge


def cost_scale(spec: "EssSpec", slot_hours: float) -> float:
    """Currency per unit of the segment max: alpha*T_s / (0.8*E_cap)."""
    return spec.unit_capital_cost * slot_hours / (USABLE_CAPACITY_FRACTION * spec.energy_capacity)


def segment_factors(spec: "EssSpec"
                    ) -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """The factors of the unscaled segment functions: the axis weights wc
    and wd, and per segment k the pair (RATE_QUAD_SCALE*a_k, n*b_k).  With
    (q, m) that pair, f_k is
    wc*(q*p_charge**2 + m*p_charge) + wd*(q*p_discharge**2 + m*p_discharge)."""
    wc, wd = _axis_weights(spec)
    n = spec.module_count
    return wc, wd, tuple((RATE_QUAD_SCALE * a, n * b)
                         for a, b in spec.aging_segments.segments)


def segment_max(spec: "EssSpec", p_charge: float, p_discharge: float) -> float:
    """max_k f_k(p_charge, p_discharge), the optimal epigraph value zeta*."""
    wc, wd, segments = segment_factors(spec)
    return max(wc * (q * p_charge ** 2 + m * p_charge)
               + wd * (q * p_discharge ** 2 + m * p_discharge)
               for q, m in segments)


def aging_cost_eval(spec: "EssSpec", p_charge: float, p_discharge: float,
                    slot_hours: float) -> float:
    """Aging cost of one slot at the given charge/discharge rates.

    The minimum of zeta subject to zeta >= f_k for all k is the pointwise
    maximum of the f_k, so no LP solve is needed here.
    """
    if p_charge < 0 or p_discharge < 0:
        raise ValueError("rates must be nonnegative")
    return cost_scale(spec, slot_hours) * segment_max(spec, p_charge, p_discharge)


def epigraph_rows(spec: "EssSpec", slot: int) -> list[EpigraphRow]:
    """One EpigraphRow per segment for the given ESS and slot index."""
    wc, wd = _axis_weights(spec)
    n = spec.module_count
    rows = []
    for k, (a, b) in enumerate(spec.aging_segments.segments):
        rows.append(EpigraphRow(
            ess=spec.id, slot=slot, segment=k,
            quad_c=wc * RATE_QUAD_SCALE * a, lin_c=wc * n * b,
            quad_d=wd * RATE_QUAD_SCALE * a, lin_d=wd * n * b,
        ))
    return rows


def _axis_extrema(quad: float, lin: float, p_max: float) -> tuple[float, float]:
    """(min, max) of quad*p^2 + lin*p over [0, p_max]; quad >= 0."""
    hi = max(0.0, quad * p_max ** 2 + lin * p_max)
    lo = min(0.0, quad * p_max ** 2 + lin * p_max)
    if quad > 0:
        p_star = -lin / (2.0 * quad)
        if 0.0 < p_star < p_max:
            lo = min(lo, quad * p_star ** 2 + lin * p_star)
    return lo, hi


def zeta_bounds(spec: "EssSpec") -> tuple[float, float]:
    """Finite bounds for the auxiliary epigraph variable over the rate box."""
    lo = 0.0
    hi = 0.0
    for row in epigraph_rows(spec, 0):
        lo_c, hi_c = _axis_extrema(row.quad_c, row.lin_c, spec.charge_rate_max)
        lo_d, hi_d = _axis_extrema(row.quad_d, row.lin_d, spec.discharge_rate_max)
        lo = min(lo, lo_c + lo_d)
        hi = max(hi, hi_c + hi_d)
    return lo, hi
