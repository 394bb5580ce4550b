"""Conjugacy synthesis from boundary germs and the transit-time offset."""

import math

import numpy as np
import pytest

from diffeo1d.conjugacy import (
    ConjugacyError,
    OrbitConjugator,
    TransitConjugator,
    conjugacy_residuals,
    sigma_offset,
    synthesize_conjugacy,
)
from diffeo1d.diffeos import (
    Affine,
    Compose,
    FlowMap,
    Identity,
    jet_gap,
    transit_time,
)
from diffeo1d.fields import (
    AffinePushforwardField,
    BumpField,
    Interval,
    PolynomialField,
    ScaledField,
)

LOGISTIC = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))
PARABOLIC = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))


def test_germ_residual_trivial():
    f = FlowMap(LOGISTIC, 1.0)
    assert conjugacy_residuals(Identity(), f, f, 0,
                               np.linspace(0.02, 0.1, 9)) < 1e-12


def test_sigma_offset_identity_pair():
    assert abs(sigma_offset(LOGISTIC, LOGISTIC, Identity(), Identity(),
                            0.3, 0.7)) < 1e-9


def test_sigma_offset_flow_germs():
    # phi0 = flow for time c, phi1 = flow for time c'; the offset is c - c'
    # independently of the base points
    c, cp = 0.4, -0.25
    phi0 = FlowMap(LOGISTIC, c)
    phi1 = FlowMap(LOGISTIC, cp)
    for x0, x1 in ((0.2, 0.8), (0.35, 0.6), (0.5, 0.9)):
        got = sigma_offset(LOGISTIC, LOGISTIC, phi0, phi1, x0, x1)
        assert abs(got - (c - cp)) < 1e-8


def test_self_conjugacy_identity_germ():
    f = FlowMap(LOGISTIC, 1.0)
    w = synthesize_conjugacy(f, f, Identity(), base_x=0.1, r=2)
    assert w.residual_c0 < 1e-10
    assert w.residual_cr < 1e-6
    assert math.isnan(w.sigma)
    for v in (0.2, 0.5, 0.8):
        assert abs(w.phi(v) - v) < 1e-9


def test_bad_germ_rejected():
    f = FlowMap(LOGISTIC, 1.0)
    g = FlowMap(LOGISTIC, 1.1)
    with pytest.raises(ConjugacyError):
        synthesize_conjugacy(f, g, Identity(), base_x=0.1)


def test_orbit_conjugator_needs_forward_dynamics():
    f = FlowMap(LOGISTIC, -1.0)  # f < id on (0,1)
    with pytest.raises(ConjugacyError):
        OrbitConjugator(f, f, Identity(), 0.1)


@pytest.mark.parametrize("phi", [
    Affine(0.5, 0.25, domain=Interval(0.0, 1.0)),
    FlowMap(ScaledField(BumpField(0.05, 0.2, 0.8, 0.95), 0.03), 1.0),
], ids=["affine", "bump_flow"])
def test_orbit_conjugator_reproduces_global_conjugator(phi):
    # phi conjugates f to g everywhere, so g^n phi f^-n is phi itself at
    # every orbit depth n (here -2 at x = 0.02 up to 5 at x = 0.97)
    f = FlowMap(LOGISTIC, 1.0)
    g = Compose(phi, f, phi.inverse())
    orbit = OrbitConjugator(f, g, phi, 0.1)
    xs = (0.02, 0.3, 0.6, 0.9, 0.97)
    assert jet_gap(orbit, phi, xs, 2) < 1e-10
    for x in xs:
        assert abs(orbit.inverse_value(phi(x)) - x) < 1e-10


def test_flow_pushforward_recovered():
    # g = phi f phi^{-1} for a flow conjugator phi; starting from the germ of
    # phi at 0, the orbit construction must reproduce phi globally
    f = FlowMap(LOGISTIC, 1.0)
    Y = ScaledField(BumpField(0.05, 0.2, 0.8, 0.95), 0.03)
    phi = FlowMap(Y, 1.0)
    g = Compose(phi, f, phi.inverse())
    w = synthesize_conjugacy(f, g, phi, base_x=0.1, r=2)
    assert w.residual_c0 < 1e-8
    for v in np.linspace(0.1, 0.9, 17):
        assert abs(w.phi(float(v)) - phi(float(v))) < 1e-7


def test_affine_pushforward_recovered():
    phi = Affine(0.5, 0.25, domain=Interval(0.0, 1.0))
    f = FlowMap(LOGISTIC, 1.0)
    g = Compose(phi, f, phi.inverse())
    w = synthesize_conjugacy(f, g, phi, base_x=0.1, r=2)
    assert w.residual_c0 < 1e-8
    for v in np.linspace(0.1, 0.9, 17):
        assert abs(w.phi(float(v)) - phi(float(v))) < 1e-7
    # the affine pushforward field generates g: check sigma is well defined
    # and agrees across base-point pairs
    g_field = AffinePushforwardField(LOGISTIC, 0.5, 0.25)
    s1 = sigma_offset(LOGISTIC, g_field, phi, phi, 0.2, 0.8)
    s2 = sigma_offset(LOGISTIC, g_field, phi, phi, 0.35, 0.65)
    assert abs(s1) < 1e-7 and abs(s1 - s2) < 1e-8


def test_transit_conjugator_between_flows():
    # phi carries the time coordinate of X anchored at 0.5 to that of 2X
    # anchored at 0.5; it must satisfy tau_{2X}(0.5, phi(x)) = tau_X(0.5, x)
    X2 = ScaledField(LOGISTIC, 2.0)
    phi = TransitConjugator(LOGISTIC, X2, 0.5, 0.5)
    for v in (0.2, 0.4, 0.6, 0.85):
        lhs = transit_time(X2, 0.5, phi(v))
        rhs = transit_time(LOGISTIC, 0.5, v)
        assert abs(lhs - rhs) < 1e-8
        assert abs(phi.inverse_value(phi(v)) - v) < 1e-8


def test_transit_conjugator_chain_rule():
    X2 = ScaledField(LOGISTIC, 2.0)
    phi = TransitConjugator(LOGISTIC, X2, 0.5, 0.5)
    # D phi = X_dst(phi(x)) / X_src(x)
    for v in (0.3, 0.55, 0.7):
        j = phi.eval_jet(v, 1)
        assert abs(j.d1 - X2(j.value) / LOGISTIC(v)) < 1e-7


def test_transit_conjugator_shared_zero_identity_germ():
    # both fields vanish at the endpoints; the conjugator extends by identity
    X2 = ScaledField(PARABOLIC, 2.0)
    phi = TransitConjugator(PARABOLIC, X2, 0.5, 0.5)
    j = phi.eval_jet(0.0, 2)
    assert j.coeffs == (0.0, 1.0, 0.0)
