"""Expression-tree JSON round trips and determinism."""

import numpy as np
import pytest

from diffeo1d.diffeos import (
    FLOW_TOL_MIN,
    Affine,
    CircleFromInterval,
    Compose,
    Displacement,
    FlowMap,
    Identity,
    Moebius,
    PiecewiseGlue,
    Power,
    Rotation,
)
from diffeo1d.conjugacy import TransitConjugator
from diffeo1d.fields import (
    BumpField,
    ConstantField,
    Interval,
    PeriodicField,
    PiecewiseField,
    PolynomialField,
    ScaledField,
    SumField,
)
from diffeo1d.serialize import (
    SerializeError,
    diffeo_from_json,
    dumps,
    field_from_json,
    loads,
    to_json,
)

LOGISTIC = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))


def field_roundtrip(X, pts):
    Y = field_from_json(to_json(X))
    for v in pts:
        assert X(float(v)) == Y(float(v))
    return Y


def diffeo_roundtrip(f, pts):
    g = diffeo_from_json(to_json(f))
    for v in pts:
        assert f(float(v)) == g(float(v))
    return g


def test_field_roundtrips():
    pts = np.linspace(0.05, 0.95, 19)
    field_roundtrip(LOGISTIC, pts)
    field_roundtrip(BumpField(0.1, 0.3, 0.6, 0.9), pts)
    field_roundtrip(SumField(LOGISTIC, ScaledField(LOGISTIC, -0.5)), pts)
    field_roundtrip(PiecewiseField([0.5], [ConstantField(1.0),
                                           ConstantField(2.0)]), pts)
    field_roundtrip(PeriodicField(BumpField(0.1, 0.3, 0.6, 0.9)), pts)


def test_field_domain_and_zeros_survive():
    X = PolynomialField([0.0, 1.0], domain=Interval(0.0, 10.0), zeros=(0.0,))
    Y = field_from_json(to_json(X))
    assert Y.domain == X.domain
    assert tuple(Y.zeros) == tuple(X.zeros)


def test_diffeo_roundtrips():
    pts = np.linspace(0.05, 0.95, 19)
    diffeo_roundtrip(Identity(), pts)
    diffeo_roundtrip(Affine(0.5, 0.25), pts)
    diffeo_roundtrip(Moebius(2, 0, 1, 1), pts)
    diffeo_roundtrip(Rotation(0.3), pts)
    diffeo_roundtrip(Displacement(ScaledField(BumpField(0.1, 0.3, 0.6, 0.9),
                                              0.02)), pts)
    f = FlowMap(LOGISTIC, 1.0)
    diffeo_roundtrip(f, pts)
    diffeo_roundtrip(Compose(f, f.inverse()), pts)
    diffeo_roundtrip(Power(f, 3), pts)
    diffeo_roundtrip(CircleFromInterval(
        FlowMap(ScaledField(BumpField(0.1, 0.3, 0.6, 0.9), 0.05), 1.0)), pts)
    diffeo_roundtrip(PiecewiseGlue([0.5], [Identity(), Identity()]), pts)


def test_piecewise_kind_is_context_dependent():
    node_f = to_json(PiecewiseField([0.5], [ConstantField(1.0),
                                            ConstantField(2.0)]))
    node_d = to_json(PiecewiseGlue([0.5], [Identity(), Identity()]))
    assert node_f["kind"] == node_d["kind"] == "piecewise"
    assert isinstance(field_from_json(node_f), PiecewiseField)
    assert isinstance(diffeo_from_json(node_d), PiecewiseGlue)


def test_dumps_deterministic():
    f = Compose(FlowMap(LOGISTIC, 1.0), Moebius(2, 0, 1, 1))
    assert dumps(f) == dumps(diffeo_from_json(to_json(f)))


def test_loads_entry_point():
    s = dumps(FlowMap(LOGISTIC, 0.5))
    g = loads(s)
    assert abs(g(0.5) - FlowMap(LOGISTIC, 0.5)(0.5)) < 1e-15
    with pytest.raises(SerializeError):
        loads(s, expect="graph")


def test_flow_tolerance_survives():
    f = FlowMap(LOGISTIC, 1.0, tol=FLOW_TOL_MIN)
    assert loads(dumps(f)).tol == FLOW_TOL_MIN
    assert loads(dumps(Power(f, 2))).child.tol == FLOW_TOL_MIN
    # a flow at the default tolerance keeps its JSON
    assert dumps(FlowMap(LOGISTIC, 1.0)) == (
        '{"children":[{"children":[],"kind":"polynomial","params":'
        '{"coeffs":[0.0,1.0,-1.0],"zeros":[0.0,1.0]}}],"kind":"flow",'
        '"params":{"t":1.0}}')


def test_unsupported_nodes_raise():
    phi = TransitConjugator(LOGISTIC, ScaledField(LOGISTIC, 2.0), 0.5, 0.5)
    with pytest.raises(SerializeError):
        to_json(phi)


def test_unknown_kind_raises():
    with pytest.raises(SerializeError):
        diffeo_from_json({"kind": "wormhole", "params": {}, "children": []})
    with pytest.raises(SerializeError):
        field_from_json("not-a-node")
