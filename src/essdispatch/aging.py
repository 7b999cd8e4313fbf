"""Piecewise aging-cost model for battery cycling.

The cost of charging at rate p_c and discharging at rate p_d for one slot is a
convex piecewise function: the pointwise maximum over a set of segments, each
segment quadratic-plus-linear in the rates, scaled by capital cost per usable
capacity.  segment_coefficients is the one encoding of the segments: the
coefficients of each segment's epigraph row f_k(p_c, p_d) - zeta <= 0, which
the window template stores in its arrays for the optimizer.  segment_max
evaluates them at one point, for accounting and the solver's polish, and
epigraph_excess over a template's arrays, for the checks and the cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

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
# capital cost and stops being worthwhile between 200 and 250 currency/kWh
# (the README's alpha sweep), with the quadratic segment binding at high rates.
DEFAULT_SEGMENTS = SegmentSet(((1e-5, 4e-6), (4e-6, 8e-6), (0.0, 1.2e-5)))


def cost_scale(spec: "EssSpec", slot_hours: float) -> float:
    """Currency per unit of the segment max: alpha*T_s / (0.8*E_cap)."""
    return spec.unit_capital_cost * slot_hours / (USABLE_CAPACITY_FRACTION * spec.energy_capacity)


def segment_coefficients(spec: "EssSpec"
                         ) -> tuple[tuple[float, float, float, float], ...]:
    """Per segment k, the coefficients (quad_c, lin_c, quad_d, lin_d) of
    f_k = quad_c*p_c**2 + lin_c*p_c + quad_d*p_d**2 + lin_d*p_d: the only
    encoding of the segments.  wc and wd weigh the charge and the discharge
    side of every segment."""
    wc = spec.charge_cost_fraction * spec.eff_charge
    wd = (1.0 - spec.charge_cost_fraction) / spec.eff_discharge
    n = spec.module_count
    return tuple((wc * RATE_QUAD_SCALE * a, wc * n * b,
                  wd * RATE_QUAD_SCALE * a, wd * n * b)
                 for a, b in spec.aging_segments.segments)


def segment_max(coefficients, p_charge: float, p_discharge: float) -> float:
    """max_k f_k(p_charge, p_discharge) over the segment_coefficients of a
    unit, the optimal epigraph value zeta*.  Each f_k sums its terms in the
    order epigraph_excess does, so the two agree bit for bit."""
    return max([quad_c * p_charge * p_charge + lin_c * p_charge
                + quad_d * p_discharge * p_discharge + lin_d * p_discharge
                for quad_c, lin_c, quad_d, lin_d in coefficients])


def epigraph_excess(qcoef: np.ndarray, at: np.ndarray) -> np.ndarray:
    """f(pc, pd) - zeta of every epigraph row at the points at, (3, k): the
    rows' (pc, pd, zeta) values.  qcoef is a template's (3, 2, k) array of
    twice the quadratic, the linear and the quadratic coefficients."""
    p = at[:2]
    f2 = qcoef[2] * p * p
    f1 = qcoef[1] * p
    return f2[0] + f1[0] + f2[1] + f1[1] - at[2]


def aging_cost_eval(spec: "EssSpec", p_charge: float, p_discharge: float,
                    slot_hours: float) -> float:
    """Aging cost of one slot at the given charge/discharge rates.

    The minimum of zeta subject to zeta >= f_k for all k is the pointwise
    maximum of the f_k, so no LP solve is needed here.
    """
    if p_charge < 0 or p_discharge < 0:
        raise ValueError("rates must be nonnegative")
    return cost_scale(spec, slot_hours) * segment_max(
        segment_coefficients(spec), p_charge, p_discharge)


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
    for quad_c, lin_c, quad_d, lin_d in segment_coefficients(spec):
        lo_c, hi_c = _axis_extrema(quad_c, lin_c, spec.charge_rate_max)
        lo_d, hi_d = _axis_extrema(quad_d, lin_d, spec.discharge_rate_max)
        lo = min(lo, lo_c + lo_d)
        hi = max(hi, hi_c + hi_d)
    return lo, hi
