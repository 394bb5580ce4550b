"""Flattening, boundary interpolation, smoothing and normal forms.

The full reduction runs (several minutes each) live in the acceptance suite;
here we exercise the building blocks and the fast driver paths.
"""

import math

import numpy as np
import pytest

from diffeo1d.diffeos import (
    Compose,
    FlowMap,
    Homothety,
    Identity,
    Rotation,
    transit_time,
)
from diffeo1d.fields import (
    BumpField,
    PeriodicField,
    PolynomialField,
    ScaledField,
    ShiftedField,
    SumField,
    PiecewiseField,
    field_norm,
)
from diffeo1d.grid import GridSpec
from diffeo1d.metrics import cr_distance
from diffeo1d.reduce import (
    ReduceError,
    ReductionInput,
    _glue_blocks,
    borel_smooth,
    calibrate_flow_eta,
    flatten_field,
    interpolate_ITI,
    is_iti_zero,
    normalize_rational,
    reduce_interval,
)

QUARTIC = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))
FLAT_BUMP = ScaledField(BumpField(0.0, 0.12, 0.88, 1.0), 4e-6)


def test_iti_detection():
    assert not is_iti_zero(QUARTIC, 0.0)      # order-2 zero
    assert is_iti_zero(FLAT_BUMP, 0.0)        # bump germs are flat
    assert is_iti_zero(FLAT_BUMP, 1.0)


def test_flatten_quartic():
    out = flatten_field(QUARTIC, eta=0.1, r=2)
    assert out.norm_Y < 0.1
    assert out.transit_match_residual < 1e-8
    # near each endpoint the conjugator is exactly the boundary homothety
    lam = out.lam
    for z in (0.0, 1.0):
        h = Homothety(z, lam)
        x = z + (1.0 if z == 0.0 else -1.0) / (16 * lam)
        got = out.phi.eval_jet(x, 2)
        want = h.eval_jet(x, 2)
        assert all(a == b for a, b in zip(got.coeffs, want.coeffs))
    # transit times through the middle agree, so flow conjugacy holds there
    x0 = 1.0 / (8 * lam)
    t_src = transit_time(QUARTIC, x0, 1.0 - x0)
    t_dst = transit_time(out.Y, lam * x0, 1.0 - lam * x0)
    assert abs(t_src - t_dst) < 1e-7


def test_flatten_rejects_low_order_endpoint():
    X = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))  # simple zeros
    with pytest.raises(ReduceError):
        flatten_field(X, eta=0.1, r=2)


def test_calibrate_flow_eta_monotone_and_safe():
    e1 = calibrate_flow_eta(0.1, 2)
    e2 = calibrate_flow_eta(0.01, 2)
    assert 0 < e2 <= e1 <= 0.1


def test_interpolate_iti_properties():
    f = FlowMap(FLAT_BUMP, 1.0)
    x0, Y = interpolate_ITI(FLAT_BUMP, f, eta=0.5, r=2)
    assert 0 < x0 <= 0.2
    # Y keeps the original field left of x0
    for v in np.linspace(x0 / 8, x0, 7):
        assert Y(float(v)) == FLAT_BUMP(float(v))
    # small in C^r and nonvanishing on the forward window
    hi = min(x0 + 0.5, 1.0 - 1e-9)
    assert field_norm(Y, 2, np.linspace(0.0, hi, 129)) <= 0.5
    assert min(Y(float(v)) for v in np.linspace(x0, hi, 129)) > 0


def test_borel_smooth_cancels_jump():
    base = PolynomialField([0.05])
    bumped = SumField(base, ShiftedField(PolynomialField([0.0] * 4 + [3.0]),
                                         0.5))
    Y = PiecewiseField([0.5], [base, bumped])
    sm = borel_smooth(Y, 0.5, alpha=0.01, r=2)
    left = base.eval_jet(0.5, 4)
    right = sm.eval_jet(0.5, 4)   # dispatches to the corrected right piece
    assert all(abs(a - b) < 1e-12 for a, b in zip(left.coeffs, right.coeffs))
    # untouched outside (x0, x0 + alpha)
    assert sm(0.4) == Y(0.4)
    assert abs(sm(0.52) - Y(0.52)) < 1e-15


def test_borel_smooth_requires_breakpoint():
    with pytest.raises(ReduceError):
        borel_smooth(QUARTIC, 0.5, 0.01, 2)


def test_reduce_trivial_input_single_step():
    X = ScaledField(BumpField(0.1, 0.3, 0.7, 0.9), 1e-4)
    trace = reduce_interval(ReductionInput(X, True, True), 0.05, 2)
    assert len(trace.steps) == 1
    assert trace.final_distance() < 0.05
    assert trace.steps[0].info["case"] == "input"


def test_glue_blocks_distance_matches_glued_flow():
    # two blocks whose fields have opposite signs, glued at 1/2: the
    # blockwise distance is that of the glued field's own time-1 map on the
    # matching global grid (each block starts at 128 intervals)
    Y1 = ScaledField(BumpField(0.1, 0.3, 0.6, 0.9), 0.03)
    Y2 = ScaledField(BumpField(0.2, 0.4, 0.5, 0.8), -0.02)
    cuts = [0.0, 0.5, 1.0]
    phi, g, d_iso = _glue_blocks(cuts, [(Identity(), Y1), (Identity(), Y2)],
                                 tuple(cuts), 2)
    assert all(phi(x) == x for x in (0.1, 0.5, 0.9))
    want = cr_distance(FlowMap(g.X, 1.0, tol=1e-9), Identity(), 2,
                       GridSpec(0.0, 1.0, 256))
    assert abs(d_iso - want) <= 1e-9 * want


def test_reduce_mixed_boundaries_rejected():
    with pytest.raises(ReduceError):
        reduce_interval(ReductionInput(QUARTIC, iti_left=True,
                                       iti_right=False), 1e-3, 2)


def test_normalize_pure_rotation():
    out = normalize_rational(Rotation(1.0 / 3.0), 1, 3)
    assert out.case == 0
    assert isinstance(out.conjugator, Identity)


def test_normalize_wrong_rotation_number():
    with pytest.raises(ReduceError):
        normalize_rational(Rotation(0.5), 1, 3)


def _periodic_bumps(q, eps):
    base = BumpField(0.05 / q, 0.1 / q, 0.2 / q, 0.25 / q)
    shifted = [ShiftedField(base, k / q) for k in range(q)]
    total = shifted[0]
    for s in shifted[1:]:
        total = SumField(total, s)
    return PeriodicField(ScaledField(total, eps))


def test_normalize_flow_root_case():
    q = 3
    X = _periodic_bumps(q, 0.01)
    f = Compose(Rotation(1.0 / q), FlowMap(X, 1.0))
    out = normalize_rational(f, 1, q)
    assert out.case == 1
    assert out.residuals["unit_residual"] < 1e-7
    assert out.residuals["commutation"] < 1e-7


def test_normalize_arc_supported_case():
    from diffeo1d.diffeos import CircleFromInterval

    q = 3
    k = CircleFromInterval(
        FlowMap(ScaledField(BumpField(0.04, 0.10, 0.22, 0.30), 0.02), 1.0))
    f = Compose(Rotation(1.0 / q), k)
    out = normalize_rational(f, 1, q)
    assert out.case == 2
    assert out.residuals["jet_gap"] < 1e-7
    assert out.residuals["off_arc_residual"] < 1e-7
