"""Grid sampling and the provenance tag of sampled expressions."""

from diffeo1d.diffeos import Affine, FlowMap
from diffeo1d.fields import PolynomialField, PushforwardField
from diffeo1d.grid import GridFunction, GridSpec

LOGISTIC = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))
QUARTIC = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))
SPEC = GridSpec(0.1, 0.9, 4)


def test_sample_source_tells_flows_apart():
    a = GridFunction.sample(FlowMap(LOGISTIC, 1.0), SPEC, 0)
    b = GridFunction.sample(FlowMap(QUARTIC, 1.0), SPEC, 0)
    assert a.source != b.source


def test_sample_source_is_reproducible():
    for make in (lambda: FlowMap(LOGISTIC, 1.0),
                 # not serializable: keyed on its type name instead
                 lambda: PushforwardField(LOGISTIC, Affine(0.5, 0.25))):
        a = GridFunction.sample(make(), SPEC, 0)
        b = GridFunction.sample(make(), SPEC, 0)
        assert a.source and a.source == b.source
