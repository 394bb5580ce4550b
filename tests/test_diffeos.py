"""Diffeomorphism nodes, flows and transit times against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from diffeo1d.diffeos import (
    FLOW_TOL_MIN,
    Affine,
    CircleFromInterval,
    Compose,
    FlowError,
    FlowMap,
    Homothety,
    Identity,
    InverseMap,
    Moebius,
    PiecewiseGlue,
    Power,
    Rotation,
    flow,
    transit_time,
)
from diffeo1d.fields import (
    BumpField,
    ConstantField,
    Interval,
    PolynomialField,
    ScaledField,
)
from diffeo1d.jets import Jet, jet_compose

LOGISTIC = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))  # x(1-x)


def test_identity_jet():
    j = Identity().eval_jet(0.42, 3)
    assert j.coeffs == (0.42, 1.0, 0.0, 0.0)


def test_moebius_example():
    f = Moebius(2, 0, 1, 1)  # 2x/(x+1)
    j = f.eval_jet(1.0, 1)
    assert abs(j.value - 1.0) < 1e-15
    assert abs(j.d1 - 0.5) < 1e-15


def test_moebius_inverse_roundtrip():
    f = Moebius(2, 0, 1, 1)
    for v in np.linspace(0.1, 0.9, 9):
        assert abs(f.inverse_value(f(float(v))) - v) < 1e-12


def test_flow_logistic_closed_form():
    target = math.e / (1 + math.e)
    assert abs(FlowMap(LOGISTIC, 1.0)(0.5) - target) < 1e-9


def test_flow_constant_field():
    j = flow(ConstantField(0.25, domain=Interval(0, 10)), 2.0, 1.0, 1)
    assert abs(j.value - 1.5) < 1e-12
    assert abs(j.d1 - 1.0) < 1e-10


def test_flow_linear_field_closed_form():
    X = PolynomialField([0.0, 1.0], domain=Interval(0.0, 10.0), zeros=(0.0,))
    j = flow(X, 1.5, 0.2, 1)
    assert abs(j.value - 0.2 * math.exp(1.5)) < 1e-9
    assert abs(j.d1 - math.exp(1.5)) < 1e-9


def test_flow_group_law():
    f = Compose(FlowMap(LOGISTIC, 1.0), FlowMap(LOGISTIC, -1.0))
    for v in np.linspace(0.05, 0.95, 13):
        assert abs(f(float(v)) - v) < 1e-9


def test_flow_jets_vs_composition():
    # time additivity holds for the whole jet, not just the value
    a = flow(LOGISTIC, 0.7, 0.3, 3)
    b = flow(LOGISTIC, 0.4, a.value, 3)
    c = flow(LOGISTIC, 1.1, 0.3, 3)
    from diffeo1d.jets import jet_compose
    ab = jet_compose(b, a)
    for u, v in zip(ab.coeffs, c.coeffs):
        assert abs(u - v) < 1e-8


def _solve_ivp_flow(X, t, x, r, tol):
    """The flow jet from scipy's DOP853 on the variational system, with the
    first step and tolerances ``flow`` runs."""
    def rhs(_s, y):
        if r == 0:
            return [X(float(y[0]))]
        return list(jet_compose(X.eval_jet(float(y[0]), r),
                                Jet(x, r, tuple(y))).coeffs)

    sol = solve_ivp(rhs, (0.0, t), list(Jet.identity(x, r).coeffs),
                    method="DOP853", rtol=max(tol, FLOW_TOL_MIN), atol=tol,
                    first_step=min(0.05, abs(t)))
    assert sol.success
    return sol.y[:, -1]


@pytest.mark.parametrize("X", [
    LOGISTIC,
    PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0)),
    ScaledField(BumpField(0.05, 0.2, 0.8, 0.95), 0.011),
], ids=["logistic", "quartic", "bump"])
def test_flow_matches_solve_ivp_reference(X):
    # the in-module stepper runs scipy's DOP853 step control, so the two
    # agree far inside the tolerance
    for t in (1.0, -1.0, 3.0, -0.37):
        for x in (0.1, 0.45, 0.9):
            for r in (0, 2):
                for tol in (1e-12, FLOW_TOL_MIN, 1e-9):
                    got = flow(X, t, x, r, tol).coeffs
                    ref = _solve_ivp_flow(X, t, x, r, tol)
                    for u, v in zip(got, ref):
                        assert abs(u - v) <= 1e-11 * max(1.0, abs(v))


@pytest.mark.parametrize("r", [0, 2])
def test_flow_blow_up_raises(r):
    # x' = x^2 from 1 blows up at t = 1
    with pytest.raises(FlowError, match=r"x=1\.0, t=2\.0"):
        flow(PolynomialField([0.0, 0.0, 1.0]), 2.0, 1.0, r)


def test_long_time_flow_matches_stepped_integration():
    # above the switch threshold the value comes from inverting the transit
    # time; check against chained short flows
    X = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))
    x0, t = 0.3, 40.0
    stepped = x0
    for _ in range(8):
        stepped = flow(X, t / 8, stepped, 0).value
    direct = flow(X, t, x0, 0).value
    assert abs(direct - stepped) < 1e-9


def test_transit_time_same_point():
    assert transit_time(LOGISTIC, 0.4, 0.4) == 0.0


def test_transit_time_logistic_closed_form():
    q = math.e / (1 + math.e)
    assert abs(transit_time(LOGISTIC, 0.5, q) - 1.0) < 1e-8


def test_transit_time_refuses_through_zero():
    X = PolynomialField([0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))  # x(1-x)^2
    with pytest.raises(FlowError):
        transit_time(ScaledField(X, -1.0) + X, 0.2, 0.8)  # identically 0


@given(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.1, 0.9))
@settings(max_examples=60, deadline=None)
def test_transit_time_additivity(p, q, s):
    lhs = transit_time(LOGISTIC, p, q) + transit_time(LOGISTIC, q, s)
    assert abs(lhs - transit_time(LOGISTIC, p, s)) < 1e-9


def test_power_matches_repeated_flow():
    # Power of a flow map evaluates as one collapsed flow; compare it with
    # the k-fold composition that steps one flow at a time
    f = FlowMap(LOGISTIC, 1.0)
    for k in (-3, -1, 0, 2, 3):
        g = Power(f, k)
        step = f if k >= 0 else f.inverse()
        h = Compose(*[step] * abs(k)) if k else Identity()
        for v in (0.2, 0.5, 0.8):
            assert abs(g(v) - h(v)) < 1e-9
        jg = g.eval_jet(0.4, 2)
        jh = h.eval_jet(0.4, 2)
        assert all(abs(u - w) < 1e-7 for u, w in zip(jg.coeffs, jh.coeffs))


def test_inverse_map_jets():
    f = FlowMap(LOGISTIC, 1.0)
    g = InverseMap(f)
    from diffeo1d.jets import jet_compose
    j = jet_compose(g.eval_jet(f(0.3), 2), f.eval_jet(0.3, 2))
    assert abs(j.value - 0.3) < 1e-9
    assert abs(j.d1 - 1.0) < 1e-7
    assert abs(j.coeffs[2]) < 1e-5


def test_affine_homothety():
    h = Homothety(0.25, 3.0)
    assert h(0.25) == 0.25
    assert abs(h(0.35) - (0.25 + 0.3)) < 1e-15
    assert isinstance(h, Affine)


def test_rotation_lift_degree_one():
    f = Rotation(0.3)
    for v in (0.1, 0.6):
        assert abs(f(v + 1.0) - f(v) - 1.0) < 1e-15


def test_circle_from_interval_lift_periodicity():
    g = CircleFromInterval(FlowMap(ScaledField(BumpField(0.1, 0.3, 0.6, 0.9),
                                               0.05), 1.0))
    for h in (g, InverseMap(g)):
        for v in (0.2, 0.55, 0.8):
            a = h.eval_jet(v, 2)
            b = h.eval_jet(v + 1.0, 2)
            assert abs(b.value - a.value - 1.0) < 1e-10
            assert abs(b.d1 - a.d1) < 1e-10
            assert abs(b.coeffs[2] - a.coeffs[2]) < 1e-10
            assert abs(h.inverse_value(h(v)) - v) < 1e-10
    for v in (0.2, 0.55, 0.8):
        assert abs(InverseMap(g)(g(v)) - v) < 1e-10


def test_piecewise_glue_dispatch_and_gluing():
    f = PiecewiseGlue([0.5], [Identity(), Identity()])
    assert f(0.2) == 0.2 and f(0.7) == 0.7
    assert f.check_gluing(r=2) == 0.0


def test_compose_flattening():
    f = FlowMap(LOGISTIC, 0.5)
    g = Compose(Compose(f, f), f)
    assert len(g.maps) == 3
