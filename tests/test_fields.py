"""Vector-field expression nodes against symbolic and difference oracles."""

import numpy as np
import pytest
import sympy as sp

from diffeo1d.fields import (
    AffinePushforwardField,
    BumpField,
    ConstantField,
    FlatGermField,
    Interval,
    PeriodicField,
    PiecewiseField,
    PolynomialField,
    ProductField,
    ScaledField,
    ShiftedField,
    StepField,
    SumField,
    field_norm,
)

from conftest import assert_jets_close, richardson_derivative, sympy_jet

x = sp.Symbol("x")


def test_polynomial_jets_oracle(rng):
    for _ in range(10):
        c = rng.uniform(-2, 2, 5)
        X = PolynomialField(c)
        p = sum(v * x**k for k, v in enumerate(c))
        x0 = float(rng.uniform(0, 1))
        assert_jets_close(X.eval_jet(x0, 4), sympy_jet(p, x, x0, 4), tol=1e-12)


def test_constant_field():
    X = ConstantField(0.7)
    j = X.eval_jet(0.3, 3)
    assert j.coeffs == (0.7, 0.0, 0.0, 0.0)


def test_step_range_and_monotone():
    s = StepField(0.2, 0.8)
    assert s(0.1) == 0.0 and s(0.9) == 1.0
    vals = [s(v) for v in np.linspace(0.0, 1.0, 101)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_step_symmetric_midpoint():
    s = StepField(0.2, 0.8)
    assert abs(s(0.5) - 0.5) < 1e-14


def test_bump_support_and_plateau():
    b = BumpField(0.1, 0.3, 0.6, 0.9)
    assert b(0.05) == 0.0 and b(0.95) == 0.0
    assert b(0.3) == 1.0 and b(0.45) == 1.0 and b(0.6) == 1.0
    assert 0.0 < b(0.2) < 1.0


def test_fast_value_path_matches_jets():
    # StepField/BumpField/ScaledField/PolynomialField carry a value path used
    # by order-0 flow integration; it must agree with the jet pipeline bit for
    # bit
    nodes = np.linspace(-0.2, 1.2, 357)
    for f in (StepField(0.2, 0.8), BumpField(0.1, 0.3, 0.6, 0.9),
              ScaledField(BumpField(0.0, 0.25, 0.5, 0.75), -1.7),
              PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0)),
              PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))):
        for v in nodes:
            assert f(float(v)) == f.eval_jet(float(v), 0).value


def test_bump_derivatives_difference_oracle():
    b = BumpField(0.1, 0.3, 0.6, 0.9)
    for x0 in (0.15, 0.22, 0.7, 0.85):
        # the higher derivatives near the germ edges are large, so the
        # difference scheme carries visible truncation error
        got = b.deriv(x0, 1)
        ref = richardson_derivative(b, x0, h=2e-4)
        assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))


def test_flat_germ_all_derivatives_vanish_at_point():
    g = FlatGermField(0.3, 1.0)
    j = g.eval_jet(0.3, 5)
    assert all(c == 0.0 for c in j.coeffs)
    assert g(0.2) == 0.0 and g(0.5) > 0.0


def test_flat_germ_closed_form():
    g = FlatGermField(0.0, 2.0)
    x0 = 0.5
    assert_jets_close(g.eval_jet(x0, 3), sympy_jet(sp.exp(-2 / x), x, x0, 3))


def test_combinators_oracle(rng):
    c = rng.uniform(-1, 1, 4)
    p = sum(v * x**k for k, v in enumerate(c))
    X = PolynomialField(c)
    combos = [
        (SumField(X, X), 2 * p),
        (ProductField(X, X), p * p),
        (ScaledField(X, -1.5), -1.5 * p),
        (ShiftedField(X, 0.2), p.subs(x, x - 0.2)),
    ]
    for node, expr in combos:
        x0 = 0.37
        assert_jets_close(node.eval_jet(x0, 3), sympy_jet(expr, x, x0, 3),
                          tol=1e-12)


def test_affine_pushforward_closed_form():
    X = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))
    Y = AffinePushforwardField(X, 0.5, 0.25)
    # (phi_* X)(y) = slope * X((y - offset)/slope)
    for y0 in (0.3, 0.5, 0.7):
        assert abs(Y(y0) - 0.5 * X((y0 - 0.25) / 0.5)) < 1e-14
    assert Y.zeros == (0.25, 0.75)


def test_declared_zeros_consistent():
    X = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))
    for z in X.zeros:
        assert abs(X(z)) < 1e-12
    for v in np.linspace(0.05, 0.95, 19):
        assert abs(X(float(v))) > 0.0


def test_periodic_field():
    X = PeriodicField(BumpField(0.1, 0.3, 0.6, 0.9))
    for x0 in (0.2, 0.45, 0.8):
        assert abs(X(x0) - X(x0 + 1.0)) < 1e-14
        assert abs(X(x0) - X(x0 - 2.0)) < 1e-14


def test_piecewise_field_dispatch():
    left = ConstantField(1.0)
    right = ConstantField(2.0)
    X = PiecewiseField([0.5], [left, right])
    assert X(0.25) == 1.0 and X(0.75) == 2.0
    assert X.eval_jet(0.75, 2).coeffs == (2.0, 0.0, 0.0)


def test_field_norm_scaling():
    X = BumpField(0.1, 0.3, 0.6, 0.9)
    n1 = field_norm(X, 2)
    n2 = field_norm(ScaledField(X, 2.0), 2)
    assert abs(n2 - 2 * n1) < 1e-9 * max(1.0, n1)
